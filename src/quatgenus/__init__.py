"""Exact arithmetic for quadratic forms and quaternion algebras over the
rationals, plus a certified engine for finite function-field tower
constructions.

The namespace is lazy (PEP 562): `import quatgenus` loads no submodule, and
a public name loads its defining module on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the public names it exports, each written here once
_EXPORTS = {
    "arith": "Factorization factor is_prime is_squarefree legendre parse_rational "
    "squarefree_classes squarefree_part witness_sequence",
    "certificates": "RULES Certificate ReplayContext Status check_node iter_certificates "
    "replay tamper",
    "errors": "InputError PreconditionError QuatGenusError SearchExhausted TruncationError",
    "forms": "HYPERBOLIC_PLANE DiagonalForm FormInvariants WittDecomposition invariants "
    "is_isotropic is_isotropic_local isometric isotropic_vector isotropy_failure pfister "
    "pfister_exponent relevant_places represents witt_decompose witt_index",
    "quaternion": "GenusEntry GenusReport QuaternionAlgebra albert_form "
    "common_subfield_witness connecting_algebra contains_subfield distinguishing_witness "
    "genus_report is_division is_isomorphic is_linked ramification",
    "runner": "RunConfig parse_script render_report run_script_data",
    "search": "backend_name isotropic_vector_search",
    "selftest": "SUITES SuiteResult run_suite",
    "symbolic": "SymbolicAlgebra SymbolicClass SymbolicForm symbolic_albert_form",
    "symbols": "INFINITE_PLACE Place finite_place hasse_invariant hasse_invariants "
    "hilbert_symbol local_is_square parse_place relevant_places_of",
    "tower": "AbstractBase Assumption Family RationalBase TowerState TrackedStatement adjoin "
    "compute_window derive_status iterate_pushing membership_form run_alternating_truncation "
    "step_linking_extension step_pushing_extension",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
