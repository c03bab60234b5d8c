"""Vector search backends: identical enumeration order, pure vs compiled."""

import importlib.util
import itertools
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quatgenus
from quatgenus import _searchpure, search
from quatgenus.errors import InputError
from quatgenus.search import backend_name, isotropic_vector_search

coefficient = st.sampled_from([1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 15, -15])
# any nonzero |c| <= 100, square-free or not
wide_coefficient = st.integers(min_value=-100, max_value=100).filter(bool)


def _rank(x: int) -> int:
    """Position of x in the per-coordinate enumeration order 0, 1, -1, 2, -2, ..."""
    return 2 * abs(x) - (1 if x > 0 else 0)


def _brute_minimum(coefficients, bound):
    """Reference: scan shells by max-norm, inside a shell compare rank tuples."""
    best = None
    for shell in range(1, bound + 1):
        candidates = []
        for vec in itertools.product(range(-shell, shell + 1), repeat=len(coefficients)):
            if max(abs(x) for x in vec) != shell and any(vec):
                continue
            if not any(vec):
                continue
            if sum(c * x * x for c, x in zip(coefficients, vec)) == 0:
                candidates.append(tuple(_rank(x) for x in vec))
        if candidates:
            ordinal = min(candidates)
            half = [(o + 1) // 2 for o in ordinal]
            return tuple(v if o % 2 == 1 else -v for o, v in zip(ordinal, half))
    return None


def test_worked_minimal_vectors():
    assert isotropic_vector_search((1, -1), 10) == (1, 1)
    assert isotropic_vector_search((1, 1, -2), 10) == (1, 1, 1)
    assert isotropic_vector_search((1, 1, 1, 1), 10) is None
    assert isotropic_vector_search((1, -2), 10) is None  # sqrt(2) is irrational


def test_positive_representative_of_mirror_pair():
    vec = isotropic_vector_search((2, -2), 10)
    assert vec == (1, 1)  # not (-1, 1) or (1, -1): minimal rank tuple is all-positive


def test_bound_validation():
    with pytest.raises(InputError):
        isotropic_vector_search((1, -1), 0)


@given(
    st.one_of(
        st.tuples(
            st.lists(coefficient, min_size=2, max_size=3), st.integers(min_value=1, max_value=6)
        ),
        st.tuples(
            st.lists(wide_coefficient, min_size=4, max_size=5),
            st.integers(min_value=1, max_value=3),
        ),
    )
)
@settings(max_examples=160, deadline=None)
def test_search_matches_brute_reference(case):
    coefficients, bound = tuple(case[0]), case[1]
    assert isotropic_vector_search(coefficients, bound) == _brute_minimum(
        coefficients, bound
    )


@given(st.lists(coefficient, min_size=2, max_size=6), st.integers(min_value=1, max_value=25))
@settings(max_examples=150, deadline=None)
def test_pure_backend_agrees_with_dispatch(coefficients, bound):
    coefficients = tuple(coefficients)
    assert isotropic_vector_search(coefficients, bound) == _searchpure.search(
        coefficients, bound
    )


@given(st.lists(wide_coefficient, min_size=2, max_size=8), st.integers(min_value=1, max_value=12))
@settings(max_examples=150, deadline=None)
def test_returned_vectors_lie_in_the_nonnegative_orthant(coefficients, bound):
    vec = isotropic_vector_search(tuple(coefficients), bound)
    assert vec is None or min(vec) >= 0


@pytest.fixture(scope="module")
def built_kernel(tmp_path_factory):
    """The committed _fastkernel.c compiled into a temporary directory and loaded, or a skip."""
    tmp_path = tmp_path_factory.mktemp("kernel")
    source = Path(quatgenus.__file__).resolve().parent / "_fastkernel.c"
    include = sysconfig.get_paths()["include"]
    configured = (sysconfig.get_config_var("CC") or "cc").split()[0]
    compiler = shutil.which(configured) or shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler found to build the compiled kernel")
    if not (Path(include) / "Python.h").exists():
        pytest.skip(f"Python.h not found under {include}; cannot build the compiled kernel")
    target = tmp_path / ("_fastkernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    built = subprocess.run(
        [compiler, "-shared", "-fPIC", "-O2", f"-I{include}", str(source), "-o", str(target)],
        capture_output=True,
        text=True,
    )
    assert built.returncode == 0, built.stderr
    spec = importlib.util.spec_from_file_location("quatgenus._fastkernel", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compiled_backend_matches_pure_exactly(built_kernel):
    # built outside the package, so the backend of this run stays as it was
    cases = [
        ((1, -1), 30),
        ((1, 1, -2), 30),
        ((2, 3, -5), 40),
        ((1, 1, 1, -7), 25),
        ((-2, 1, 3, 3), 25),
        ((1, 2, -3, 5, -6, 7), 12),
        ((13, -1, 1, 1), 30),
    ]
    for coefficients, bound in cases:
        assert built_kernel.search(coefficients, bound) == _searchpure.search(
            coefficients, bound
        )


# up to dimension 8, the size of is_linked's form: the compiled kernel walks the
# full cube, the pure one the nonnegative orthant
@given(st.lists(wide_coefficient, min_size=2, max_size=8), st.integers(min_value=1, max_value=10))
@settings(max_examples=150, deadline=None)
def test_compiled_backend_matches_pure_on_random_forms(built_kernel, coefficients, bound):
    coefficients = tuple(coefficients)
    assert built_kernel.search(coefficients, bound) == _searchpure.search(coefficients, bound)


def test_backend_name_is_reported():
    assert backend_name() in ("compiled", "pure")


def _backend_in_fresh_interpreter(env):
    """Backend name reported by a new interpreter that imports this copy of quatgenus."""
    package_root = str(Path(quatgenus.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + (os.pathsep + inherited if inherited else "")
    code = "from quatgenus.search import backend_name; print(backend_name())"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout.strip()


def test_environment_override_forces_pure_backend():
    assert _backend_in_fresh_interpreter({**os.environ, "QUATGENUS_PURE": "1"}) == "pure"
    # Control: without the variable the kernel is used whenever it was built,
    # so with a built kernel the variable alone switches the backend.
    control = {k: v for k, v in os.environ.items() if k != "QUATGENUS_PURE"}
    expected = "compiled" if search._fastkernel is not None else "pure"
    assert _backend_in_fresh_interpreter(control) == expected
