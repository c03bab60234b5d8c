"""Randomized and exhaustive self-check suites backed by independent oracles.

Each suite pits a closed-form computation against a second route that shares
none of its code: residue searches for local verdicts, vector enumeration
for global ones, and certificate replay (plus targeted tampering) for the
tower engine. A suite returns a SuiteResult; the first disagreement aborts
the suite with a printable counterexample.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement

from .arith import squarefree_part, witness_sequence
from .certificates import RULES, Certificate, check_node, iter_certificates, tamper
from .errors import InputError, TruncationError
from .forms import (
    DiagonalForm,
    is_isotropic,
    is_isotropic_local,
    isotropic_vector,
    isotropy_failure,
    relevant_places,
)
from .oracles import local_isotropic_search
from .quaternion import (
    QuaternionAlgebra,
    common_subfield_witness,
    contains_subfield,
    distinguishing_witness,
    is_division,
    is_isomorphic,
)
from .runner import (
    RunConfig,
    certificates_in_report,
    context_from_report,
    run_script_data,
)
from .symbols import hilbert_symbol, relevant_places_of


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checks: int
    detail: str
    counterexample: str | None = None
    seconds: float = 0.0


def _result(name, start, checks, detail, counterexample=None) -> SuiteResult:
    return SuiteResult(
        name=name,
        passed=counterexample is None,
        checks=checks,
        detail=detail,
        counterexample=counterexample,
        seconds=time.perf_counter() - start,
    )


def _random_nonzero(rng: random.Random, size: int) -> int:
    value = 0
    while value == 0:
        value = rng.randint(-size, size)
    return value


def run_product_formula(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Product of Hilbert symbols over all relevant places equals one."""
    start = time.perf_counter()
    rng = random.Random(seed)
    for i in range(trials):
        a = _random_nonzero(rng, 1000)
        b = _random_nonzero(rng, 1000)
        product = 1
        for place in relevant_places_of([a, b]):
            product *= hilbert_symbol(a, b, place)
        if product != 1:
            return _result(
                "product-formula", start, i + 1, "product broke",
                f"(a, b) = ({a}, {b}) has symbol product {product}",
            )
    return _result(
        "product-formula", start, trials,
        f"{trials} random pairs with entries up to 10^3",
    )


_POOL = (1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 15, -15)


def run_isotropy_oracle(trials: int = 0, seed: int = 0) -> SuiteResult:
    """Closed-form local/global isotropy versus residue search and vectors.

    Exhaustive over all diagonal forms of dimension 1..4 with coefficients
    from a fixed 16-value square-free pool (up to coordinate permutation,
    which changes neither verdicts nor invariants); trials/seed are accepted
    for interface uniformity and ignored.
    """
    del trials, seed
    start = time.perf_counter()
    checks = 0
    for dim in range(1, 5):
        for coefficients in combinations_with_replacement(_POOL, dim):
            q = DiagonalForm(coefficients)
            checks += 1
            for place in relevant_places(q):
                closed = is_isotropic_local(q, place)
                searched = local_isotropic_search(q.coefficients, place)
                if closed != searched:
                    return _result(
                        "isotropy-oracle", start, checks, "local routes disagree",
                        f"{q} at {place}: closed-form {closed}, residue search {searched}",
                    )
            verdict = is_isotropic(q)
            if verdict:
                vector = isotropic_vector(q, 200)
                if vector is None:
                    return _result(
                        "isotropy-oracle", start, checks, "missing witness",
                        f"{q} is isotropic but no vector with max-norm <= 200",
                    )
            else:
                place = isotropy_failure(q)
                if place is None or (
                    q.dim >= 2 and local_isotropic_search(q.coefficients, place)
                ):
                    return _result(
                        "isotropy-oracle", start, checks, "failing place not confirmed",
                        f"{q} anisotropic, failing place {place} not confirmed by search",
                    )
    return _result(
        "isotropy-oracle", start, checks,
        f"{checks} forms of dimension 1..4 over a 16-value pool, both routes",
    )


def _random_squarefree(rng: random.Random, size: int) -> int:
    return squarefree_part(_random_nonzero(rng, size))


def _random_division(rng: random.Random, size: int) -> QuaternionAlgebra:
    while True:
        algebra = QuaternionAlgebra.of(_random_squarefree(rng, size), _random_squarefree(rng, size))
        if is_division(algebra):
            return algebra


def _membership_checked(algebra: QuaternionAlgebra, c: int, expected: bool) -> bool:
    """Cross-check a subfield verdict with the residue-search route."""
    if contains_subfield(algebra, c) != expected:
        return False
    a, b = algebra.a, algebra.b
    q = DiagonalForm.of([a, b, -a * b, -c])
    local = all(
        local_isotropic_search(q.coefficients, place) for place in relevant_places(q)
    )
    return local == expected


def run_linkage(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Common quadratic subfields for random division pairs, both routes."""
    start = time.perf_counter()
    rng = random.Random(seed)
    for i in range(trials):
        d1 = _random_division(rng, 15)
        d2 = _random_division(rng, 15)
        c = common_subfield_witness(d1, d2, limit=50)
        if not (_membership_checked(d1, c, True) and _membership_checked(d2, c, True)):
            return _result(
                "linkage-q", start, i + 1, "witness failed a route",
                f"{d1}, {d2}: witness {c} rejected by an independent route",
            )
    return _result(
        "linkage-q", start, trials,
        f"{trials} random division pairs, common witness within |c| <= 50",
    )


def run_genus(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Distinguishing subfields for random non-isomorphic division pairs."""
    start = time.perf_counter()
    rng = random.Random(seed)
    for i in range(trials):
        d1 = _random_division(rng, 30)
        d2 = _random_division(rng, 30)
        while is_isomorphic(d1, d2):
            d2 = _random_division(rng, 30)
        c = distinguishing_witness(d1, d2, limit=100)
        first = contains_subfield(d1, c)
        if not (_membership_checked(d1, c, first) and _membership_checked(d2, c, not first)):
            return _result(
                "genus-q", start, i + 1, "witness failed a route",
                f"{d1}, {d2}: witness {c} rejected by an independent route",
            )
    return _result(
        "genus-q", start, trials,
        f"{trials} random non-isomorphic division pairs, witness within |c| <= 100",
    )


@cache
def _division_pool() -> tuple[QuaternionAlgebra, ...]:
    """Division algebras (a, b) over small square classes; built on first use, not at import."""
    return tuple(
        QuaternionAlgebra.of(a, b)
        for a in (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10)
        for b in (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10)
        if is_division(QuaternionAlgebra.of(a, b))
    )


def _fixed_scripts() -> list[dict]:
    abstract_base = {
        "abstract": {
            "symbols": ["a1", "b1", "a2", "b2"],
            "assumptions": [
                {"id": "norms-1", "anisotropic": {"norm_of": 0}},
                {"id": "norms-2", "anisotropic": {"norm_of": 1}},
                {"id": "link-12", "anisotropic": {"albert_of": [0, 1]}},
            ],
        }
    }
    return [
        {
            "base": "rationals",
            "algebras": [[-1, -1], [-1, -3]],
            "steps": [{"kind": "pushing", "classes": [-2]}],
        },
        {
            "base": "rationals",
            "algebras": [[-1, -1], [-1, -3]],
            "steps": [{"kind": "iterate", "window": 10, "max_rounds": 3}],
        },
        {
            "base": abstract_base,
            "algebras": [{"symbols": ["a1", "b1"]}, {"symbols": ["a2", "b2"]}],
            "steps": [{"kind": "linking"}],
        },
        {
            "base": "rationals",
            "algebras": [[-1, -1]],
            "steps": [
                {"kind": "adjoin", "form": [1, 1, 1, 1, 1]},
                {"kind": "pushing", "classes": [-2, 3]},
            ],
        },
        {
            "base": "rationals",
            "algebras": [[-1, -1], [-1, -3]],
            "steps": [{"kind": "alternate", "window": 10, "rounds": 1, "max_rounds": 3}],
        },
    ]


def _distinct_pair(rng: random.Random) -> list[list[int]]:
    d1 = rng.choice(_division_pool())
    d2 = rng.choice(_division_pool())
    while is_isomorphic(d1, d2):
        d2 = rng.choice(_division_pool())
    return [[d1.a, d1.b], [d2.a, d2.b]]


def _random_script(rng: random.Random) -> dict:
    kind = rng.choice(("pushing", "pushing", "iterate", "linking", "hoffmann", "alternate"))
    if kind == "pushing":
        classes = rng.sample(witness_sequence(10), k=rng.randint(1, 2))
        return {
            "base": "rationals",
            "algebras": _distinct_pair(rng),
            "steps": [{"kind": "pushing", "classes": classes}],
        }
    if kind == "iterate":
        return {
            "base": "rationals",
            "algebras": _distinct_pair(rng),
            "steps": [{"kind": "iterate", "window": rng.choice((6, 8, 10)), "max_rounds": 3}],
        }
    if kind == "linking":
        return {
            "base": "rationals",
            "algebras": _distinct_pair(rng),
            "steps": [{"kind": "linking"}],
        }
    if kind == "hoffmann":
        d = rng.choice(_division_pool())
        definite = sorted(rng.sample((1, 2, 3, 5, 6, 7), k=5))
        return {
            "base": "rationals",
            "algebras": [[d.a, d.b]],
            "steps": [
                {"kind": "adjoin", "form": definite},
                {"kind": "pushing", "classes": [rng.choice(witness_sequence(10))]},
            ],
        }
    pair = _distinct_pair(rng)
    c = distinguishing_witness(
        QuaternionAlgebra.of(*pair[0]), QuaternionAlgebra.of(*pair[1])
    )
    window = max(10, abs(c))
    return {
        "base": "rationals",
        "algebras": pair,
        "steps": [{"kind": "alternate", "window": window, "rounds": 1, "max_rounds": 3}],
    }


def run_certificates(trials: int = 100, seed: int = 0) -> SuiteResult:
    """Every emitted certificate replays; per-rule tampering breaks replay."""
    start = time.perf_counter()
    rng = random.Random(seed)
    scripts = _fixed_scripts()
    while len(scripts) < max(trials, len(scripts)):
        scripts.append(_random_script(rng))
    checks = 0
    truncated = 0
    per_rule: dict[str, tuple[dict, object]] = {}
    for index, data in enumerate(scripts):
        try:
            report, _code = run_script_data(data, RunConfig())
        except TruncationError:
            truncated += 1
            continue
        if report["replay"]["checked"] != report["replay"]["passed"]:
            return _result(
                "certificates", start, checks, "in-run replay failed",
                f"script {index}: {report['replay']}",
            )
        context = context_from_report(report)
        for cert_json in certificates_in_report(report):
            for cert in iter_certificates(Certificate.from_json(cert_json)):
                checks += 1
                if not check_node(cert, context):
                    return _result(
                        "certificates", start, checks, "round-trip replay failed",
                        f"script {index}: {cert.to_json()}",
                    )
                if cert.rule not in per_rule:  # a node's JSON is its whole subtree's
                    per_rule[cert.rule] = (cert.to_json(), context)
    for rule in RULES:
        if rule not in per_rule:
            return _result(
                "certificates", start, checks, "rule never exercised",
                f"{rule} did not appear across {len(scripts)} scripts",
            )
        cert_json, context = per_rule[rule]
        checks += 1
        # tamper edits only the node's own fields, and its premises already passed
        if check_node(Certificate.from_json(tamper(cert_json)), context):
            return _result(
                "certificates", start, checks, "tampering survived replay",
                f"tampered {rule} certificate still replays: {tamper(cert_json)}",
            )
    detail = (
        f"{len(scripts)} scripts, {checks} replays including {len(RULES)} tamper checks"
    )
    if truncated:
        detail += f", {truncated} truncated"
    return _result("certificates", start, checks, detail)


SUITES = {
    "product-formula": run_product_formula,
    "isotropy-oracle": run_isotropy_oracle,
    "linkage-q": run_linkage,
    "genus-q": run_genus,
    "certificates": run_certificates,
}


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> SuiteResult:
    suite = SUITES[name]  # KeyError on an unknown name
    if trials is not None and trials < 0:
        raise InputError(f"trials must be nonnegative: {trials}")
    return suite(seed=seed) if trials is None else suite(trials, seed)
