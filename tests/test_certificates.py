"""Certificate checking: malformed nodes get False in bounded work, and the
discriminant span test agrees with the explicit span."""

import json
import os
from collections import Counter
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from math import prod
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from quatgenus import certificates, selftest
from quatgenus.arith import squarefree_part
from quatgenus.certificates import (
    RULES,
    Certificate,
    ReplayContext,
    Status,
    base_certificate,
    certificates_in_report,
    check_node,
    context_from_report,
    disc_mismatch,
    form_from_json,
    generic_certificate,
    hoffmann_certificate,
    iter_certificates,
    monotone_certificate,
    pfister_certificate,
    replay,
    tamper,
)
from quatgenus.errors import InputError, SearchExhausted
from quatgenus.forms import DiagonalForm
from quatgenus.runner import RunConfig, parse_script, run_script_data
from quatgenus.symbolic import SymbolicForm

QUAD = DiagonalForm((1, 1, 1, 1))
FILLER = DiagonalForm((1, 1, 1, 1, 1))


def _lifted(rule: str, level: int) -> tuple[Certificate, DiagonalForm]:
    """An R-PFISTER or R-HOFFMANN node over <1,1,1,1> at the level, and its adjoined form."""
    premise = base_certificate(QUAD)
    premise = replace(premise, level=level - 1)
    if rule == "R-PFISTER":
        adjoined = DiagonalForm((-2, 1, 3, 3))
        return pfister_certificate(premise, adjoined, level, 2, ()), adjoined
    return hoffmann_certificate(premise, FILLER, level, 2), FILLER


@pytest.mark.parametrize("rule", ["R-PFISTER", "R-HOFFMANN"])
def test_a_lift_needs_a_level_of_the_tower(rule):
    low, adjoined = _lifted(rule, 0)
    for context in (ReplayContext(adjunctions=(adjoined,)), ReplayContext()):
        assert check_node(low, context) is False


@pytest.mark.parametrize(
    "cert, tower",
    [
        (generic_certificate(QUAD, QUAD, 5), (FILLER,) * 4 + (QUAD,)),
        (_lifted("R-HOFFMANN", 1)[0], (FILLER,)),
        (_lifted("R-PFISTER", 1)[0], (DiagonalForm((-2, 1, 3, 3)),)),
        (monotone_certificate(base_certificate(DiagonalForm((1, -1))), 5), (FILLER,) * 5),
    ],
    ids=["R-GENERIC", "R-HOFFMANN", "R-PFISTER", "R-MONOTONE"],
)
def test_a_node_above_the_tower_is_refused(cert, tower):
    assert replay(cert, ReplayContext(adjunctions=tower))
    assert not check_node(cert, ReplayContext(adjunctions=tower[:-1]))
    assert not replay(cert, ReplayContext())


@pytest.mark.parametrize(
    "cert, tower",
    [
        # UNKNOWN claims nothing, though its verdict matches and <1,1,1,1> is not isotropic
        (Certificate("R-BASE", Status.UNKNOWN, QUAD, 0, (("verdict", "unknown"),), ()), ()),
        # isotropy persists up the tower; anisotropy below does not make it
        (
            Certificate("R-MONOTONE", Status.ISOTROPIC, QUAD, 1, (("from_level", 0),),
                        (base_certificate(QUAD),)),
            (FILLER,),
        ),
        # a lift carries its premise's subject up, not another form
        (
            replace(hoffmann_certificate(base_certificate(QUAD), FILLER, 1, 2),
                    subject=DiagonalForm((1, -1))),
            (FILLER,),
        ),
        # a Pfister lift needs an adjoined form of dimension 2^n, which <1,1,2> is not
        (
            pfister_certificate(base_certificate(QUAD), DiagonalForm((1, 1, 2)), 1, 2, ()),
            (DiagonalForm((1, 1, 2)),),
        ),
    ],
    ids=["unknown-base", "monotone-over-anisotropic", "lift-of-another-subject",
         "pfister-over-a-ternary"],
)
def test_an_unsupported_claim_is_refused(cert, tower):
    assert check_node(cert, ReplayContext(adjunctions=tower)) is False


def test_monotone_carries_isotropy_up_the_tower_never_down():
    # <1,1,1,1> is isotropic at level 1, where it was adjoined, and anisotropic over Q
    generic = generic_certificate(QUAD, QUAD, 1)
    down = Certificate("R-MONOTONE", Status.ISOTROPIC, QUAD, 0, (("from_level", 1),), (generic,))
    context = ReplayContext(adjunctions=(QUAD,))
    assert replay(generic, context)
    assert replay(down, context) is False


# A producer's precondition is a cross-check, which python -O keeps.
_FORCED_PRECONDITIONS = """
import sys
from quatgenus.certificates import chain_certificate, generic_certificate, monotone_certificate
from quatgenus.forms import DiagonalForm
print("optimize", sys.flags.optimize)
isotropic = generic_certificate(DiagonalForm((1, 1)), DiagonalForm((1, 1)), 1)
for produce in (lambda: monotone_certificate(isotropic, 1), lambda: chain_certificate(isotropic)):
    try:
        produce()
    except AssertionError as error:
        print(error)
"""


def test_producer_preconditions_raise_under_python_optimize():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    child = subprocess.run(
        [sys.executable, "-O", "-c", _FORCED_PRECONDITIONS],
        capture_output=True, text=True, env=env, check=True,
    )
    assert child.stdout.splitlines() == [
        "optimize 1",
        "cross-check failed: R-MONOTONE carries an isotropic premise up from a lower level",
        "cross-check failed: R-CHAIN restates an anisotropic premise",
    ]


def test_the_certificate_suite_builds_one_node_json_per_rule(monkeypatch):
    # the reports the suite checks are the engine's, which writes every node's JSON
    calls = Counter()
    in_engine = []
    run_script = selftest.run_script_data
    to_json = Certificate.to_json

    def run_uncounted(*args):
        in_engine.append(True)
        try:
            return run_script(*args)
        finally:
            in_engine.pop()

    def counted(cert):
        if not in_engine:
            calls[cert.rule] += 1
        return to_json(cert)

    monkeypatch.setattr(selftest, "run_script_data", run_uncounted)
    monkeypatch.setattr(Certificate, "to_json", counted)
    result = selftest.run_certificates()
    assert result.passed, result.detail
    assert calls == Counter(dict.fromkeys(RULES, 1))


def test_tamper_copies_only_the_root_of_a_chain_of_the_maximum_depth():
    cert = base_certificate(QUAD)
    for level in range(1, certificates.MAX_LEVELS + 1):
        cert = hoffmann_certificate(cert, FILLER, level, 2)
    context = ReplayContext(adjunctions=(FILLER,) * certificates.MAX_LEVELS)
    data = cert.to_json()
    assert replay(Certificate.from_json(data), context)
    tampered = tamper(data)
    assert tampered["premises"] == data["premises"] and tampered["premises"] is not data["premises"]
    assert tampered["premises"][0] is data["premises"][0]
    assert (tampered["parameters"]["exponent"], data["parameters"]["exponent"]) == (60, 2)
    assert not replay(Certificate.from_json(tampered), context)
    assert replay(Certificate.from_json(data), context)


def test_editing_to_json_output_leaves_the_certificate_unchanged():
    cert, adjoined = _lifted("R-PFISTER", 1)
    # a fresh context for each replay: a node that passed under one is not checked again
    assert replay(cert, ReplayContext(adjunctions=(adjoined,)))
    cert.to_json()["parameters"]["adjoined"].append(7)
    assert replay(cert, ReplayContext(adjunctions=(adjoined,)))
    assert cert.param("adjoined") == adjoined.to_json()


def test_editing_from_json_input_leaves_the_certificate_unchanged():
    cert, adjoined = _lifted("R-PFISTER", 1)
    data = cert.to_json()
    parsed = Certificate.from_json(data)
    assert replay(parsed, ReplayContext(adjunctions=(adjoined,)))
    data["parameters"]["adjoined"].append(7)
    data["parameters"]["disc_context"].append(3)
    assert replay(parsed, ReplayContext(adjunctions=(adjoined,)))
    assert parsed == cert and parsed.param("adjoined") == adjoined.to_json()


def test_a_deeply_nested_parameter_is_an_input_error():
    data = base_certificate(QUAD).to_json()
    deep: list = []
    for _ in range(10**5):
        deep = [deep]
    with pytest.raises(InputError):
        Certificate.from_json({**data, "parameters": {"verdict": deep}})
    nested: list = []
    for _ in range(certificates.MAX_PARAM_NESTING - 1):
        nested = [nested]
    cert = Certificate.from_json({**data, "parameters": {"verdict": nested}})
    assert cert.param("verdict") == nested and check_node(cert, ReplayContext()) is False


def _nested(depth: int) -> list:
    deep: list = []
    for _ in range(depth):
        deep = [deep]
    return deep


@pytest.mark.parametrize(
    "parse",
    [
        lambda deep: Certificate.from_json({**base_certificate(QUAD).to_json(), "subject": deep}),
        lambda deep: context_from_report(
            {"base": "Q", "final_state": {"levels": [{"form": {"symbolic": deep}}]}}
        ),
        lambda deep: parse_script({"algebras": deep, "steps": []}),
    ],
    ids=["certificate-subject", "symbolic-level-form", "script-algebras"],
)
def test_a_message_quoting_deeply_nested_input_is_an_input_error(parse):
    # the message quotes the input cut at a bounded depth, not the whole repr
    with pytest.raises(InputError, match=r"\[\[\[\[\[\[\[\.\.\.\]\]\]\]\]\]\]$"):
        parse(_nested(5000))


class _NoPower(int):
    """An exponent that must be bounded before it is raised as a power of 2."""

    def __rpow__(self, base):
        raise RuntimeError("raised as a power before it was bounded")


@pytest.mark.parametrize("rule", ["R-PFISTER", "R-HOFFMANN"])
def test_no_stored_exponent_is_raised_before_it_is_bounded(rule):
    cert, adjoined = _lifted(rule, 1)
    huge = replace(cert, parameters=tuple(
        (k, _NoPower(30_000_000) if k == "exponent" else v) for k, v in cert.parameters
    ))
    assert check_node(huge, ReplayContext(adjunctions=(adjoined,))) is False


TERNARY = DiagonalForm((1, 1, 1))


@pytest.mark.parametrize(
    "subject, exponent",
    [
        # dim <= 2^n fails: <1,1,1> would stay anisotropic over its own function field
        (TERNARY, 1),
        # 2^n < dim(adjoined) fails: Hoffmann's bound is strict
        (QUAD, 2),
    ],
    ids=["dim-above-2^n", "2^n-equal-to-adjoined-dim"],
)
def test_hoffmann_refuses_an_exponent_outside_its_bounds(subject, exponent):
    premise = base_certificate(subject)
    lift = hoffmann_certificate(premise, FILLER, 1, 2)
    assert check_node(lift, ReplayContext(adjunctions=(FILLER,)))
    forged = hoffmann_certificate(premise, subject, 1, exponent)
    assert check_node(forged, ReplayContext(adjunctions=(subject,))) is False


@pytest.mark.parametrize("failing_place", [None, 3])
def test_an_anisotropic_base_names_a_place_where_it_fails(failing_place):
    honest = base_certificate(TERNARY).to_json()
    assert check_node(Certificate.from_json(honest), ReplayContext())
    parameters = {"verdict": "anisotropic"}
    if failing_place is not None:  # <1,1,1> is isotropic over Q_3
        parameters["failing_place"] = failing_place
    forged = Certificate.from_json({**honest, "parameters": parameters})
    assert check_node(forged, ReplayContext()) is False and replay(forged, ReplayContext()) is False


def test_a_list_valued_rule_gets_false():
    data = base_certificate(DiagonalForm((1, -1))).to_json()
    assert replay(Certificate.from_json(data), ReplayContext())
    cert = Certificate.from_json({**data, "rule": ["R-BASE"]})
    assert check_node(cert, ReplayContext()) is False and replay(cert, ReplayContext()) is False


def test_a_coefficient_the_checker_cannot_factor_gets_false():
    # two large prime factors: factoring gives up after its rho budget
    hard = (2**89 - 1) * (2**107 - 1)
    generic = generic_certificate(QUAD, QUAD, 1)
    cert = replace(generic, parameters=(("adjoined", [1, -hard]),))
    context = ReplayContext(adjunctions=(QUAD,))
    assert check_node(cert, context) is False and replay(cert, context) is False


@pytest.mark.parametrize(
    "bad",
    [
        {"symbolic": 5},
        {"symbolic": [{"sign": 1, "symbols": [1, "a"]}]},
        {"symbolic": [{"sign": True, "symbols": ["a"]}]},
        {"symbolic": [{"sign": 1.0, "symbols": ["a"]}]},
    ],
)
def test_symbolic_json_of_the_wrong_types_is_an_input_error(bad):
    with pytest.raises(InputError):
        SymbolicForm.from_json(bad)
    generic = generic_certificate(QUAD, QUAD, 1)
    cert = replace(generic, parameters=(("adjoined", bad),))
    assert check_node(cert, ReplayContext(adjunctions=(QUAD,))) is False


def _explicit_span(classes: tuple[int, ...]) -> set[int]:
    """All products of the classes, modulo squares: the reference, 2^k of them."""
    span = {1}
    for t in classes:
        span |= {squarefree_part(x * t) for x in span}
    return span


_CLASS = st.lists(st.sampled_from([-1, 2, 3, 5, 7, 4, 9]), min_size=1, max_size=4).map(prod)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(_CLASS, st.integers(-500, 500).filter(bool)), max_size=7),
    _CLASS,
    _CLASS,
)
def test_disc_mismatch_agrees_with_the_explicit_span(classes, d1, d2):
    classes = tuple(classes)
    expected = squarefree_part(d1 * d2) not in _explicit_span(classes)
    assert disc_mismatch(d1, d2, classes) is expected


def test_disc_mismatch_factors_each_killed_class_once(monkeypatch):
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]  # 46 primes
    killed = tuple(-p for p in primes)
    calls = []
    real = certificates.factor
    monkeypatch.setattr(certificates, "factor", lambda n: calls.append(n) or real(n))
    certificates._class_vector.cache_clear()
    # -2 * -3 * -5 is in the span; -1 is not, since every class brings one prime
    assert not disc_mismatch(-30, 1, killed)
    assert disc_mismatch(-1, 1, killed)
    assert sorted(calls) == sorted([*killed, -30, -1])


# Certificate JSON that is mostly well formed, so the checks past the first
# few are reached: each field is plausible for the node's rule, or now and
# then junk, and a premise mostly copies its parent's subject and status one
# level down. Integers stay within trial division.
_INT = st.integers(-(10**6), 10**6)
_JUNK = st.one_of(
    st.none(), st.booleans(), _INT, st.text(max_size=3), st.lists(_INT, max_size=2),
    st.dictionaries(st.text(max_size=2), _INT, max_size=2),
)


@st.composite
def _mostly(draw, valid, junk=_JUNK, one_in=16):
    """A value from the valid strategy, or now and then one from junk."""
    return draw(valid) if draw(st.integers(1, one_in)) > 1 else draw(junk)


_SYMBOLIC_CLASS = st.fixed_dictionaries({
    "sign": _mostly(st.sampled_from([1, -1]), one_in=4),
    "symbols": _mostly(
        st.lists(st.sampled_from(["a1", "b1", "a2", "b2"]), unique=True, max_size=3),
        st.lists(st.sampled_from(["a1", 1, "a1"]), min_size=1, max_size=3),
        one_in=4,
    ),
})
_SUBJECT = st.one_of(
    st.sampled_from([
        [1, 1, 1, 1], [-2, 1, 3, 3], [1, -2], [1, 1, 1, 1, 1], [-1, -1],
        {"symbolic": [{"sign": 1, "symbols": []}, {"sign": -1, "symbols": ["a1"]}]},
    ]),
    st.lists(_INT, min_size=1, max_size=5),
)
_FORM = st.one_of(
    st.fixed_dictionaries({"symbolic": _mostly(st.lists(_SYMBOLIC_CLASS, min_size=1, max_size=4))}),
    _SUBJECT,
)
_LEVEL = st.sampled_from([0, 1, 2, 3, -1])
_VALUES = {
    "verdict": st.sampled_from(["isotropic", "anisotropic"]),
    "failing_place": st.one_of(st.sampled_from(["inf", 2, 3, 5, 7]), _INT),
    "assumption_id": st.sampled_from(["norms-1", "link-12", "x"]),
    "adjoined": _FORM,
    "from_level": _LEVEL,
    "levels": _LEVEL,
    "exponent": st.one_of(st.integers(-1, 4), _INT),
    "subject_disc": st.one_of(_INT, _SYMBOLIC_CLASS),
    "adjoined_disc": st.one_of(_INT, _SYMBOLIC_CLASS),
    "disc_context": st.lists(_INT, max_size=3),
}
# each rule's parameter keys, status and premise count, as the engine writes them
_SHAPES = {
    "R-BASE": (("verdict", "failing_place"), None, 0),
    "R-ASSUME": (("assumption_id",), "anisotropic", 0),
    "R-GENERIC": (("adjoined",), "isotropic", 0),
    "R-MONOTONE": (("from_level",), "isotropic", 1),
    "R-PFISTER": (
        ("exponent", "adjoined", "subject_disc", "adjoined_disc", "disc_context"), "anisotropic", 1
    ),
    "R-HOFFMANN": (("exponent", "adjoined"), "anisotropic", 1),
    "R-CHAIN": (("levels",), "anisotropic", 1),
}
_STATUS = st.sampled_from(["anisotropic", "isotropic", "unknown"])


@st.composite
def _certificate_json(draw, parent: dict | None = None, depth: int = 0) -> object:
    rule = draw(_mostly(st.sampled_from(RULES)))
    keys, status, count = _SHAPES.get(rule, ((), None, 0)) if isinstance(rule, str) else ((), None, 0)
    node = {"rule": rule, "status": status or draw(_STATUS), "subject": draw(_mostly(_SUBJECT)),
            "level": draw(_LEVEL)}
    if parent is not None and draw(st.integers(1, 5)) > 1:
        node["subject"], node["status"] = parent["subject"], parent["status"]
        node["level"] = parent["level"] - draw(st.sampled_from([1, 1, 1, 0]))
    if draw(st.integers(1, 16)) == 1:
        node["status"] = draw(_mostly(_STATUS))
    node["parameters"] = draw(_mostly(st.just(
        {key: draw(_mostly(_VALUES[key], one_in=4)) for key in keys if draw(st.integers(1, 10)) > 1}
    )))
    if depth == 3 or draw(st.integers(1, 16)) == 1:
        count = draw(st.integers(0, 2 if depth < 3 else 0))
    node["premises"] = [draw(_certificate_json(node, depth + 1)) for _ in range(count)]
    if draw(st.integers(1, 32)) == 1:
        del node[draw(st.sampled_from(sorted(node)))]
    return node


_REAL_SCRIPTS = (
    {"base": "rationals", "algebras": [],
     "steps": [{"kind": "adjoin", "form": [1, -p]} for p in (2, 3, 5)]},
    {"base": {"abstract": {"symbols": ["a1", "b1", "a2", "b2"], "assumptions": [
        {"id": "norms-1", "anisotropic": {"norm_of": 0}},
        {"id": "norms-2", "anisotropic": {"norm_of": 1}},
        {"id": "link-12", "anisotropic": {"albert_of": [0, 1]}},
    ]}},
     "algebras": [{"symbols": ["a1", "b1"]}, {"symbols": ["a2", "b2"]}],
     "steps": [{"kind": "linking"}]},
)


@lru_cache(maxsize=None)
def _real_contexts() -> tuple[ReplayContext, ...]:
    return tuple(context_from_report(run_script_data(s, RunConfig())[0]) for s in _REAL_SCRIPTS)


def test_the_real_contexts_have_adjunctions_and_a_ledger():
    rationals, abstract = _real_contexts()
    assert rationals.adjunctions and rationals.trivialized_below(len(rationals.adjunctions))
    assert abstract.adjunctions and abstract.assumptions


@pytest.mark.parametrize(
    "report",
    [
        [],
        {"base": {"assumptions": 5}, "final_state": {"levels": []}},
        {"base": "rationals"},
        {"final_state": {"levels": []}},
        {"base": "rationals", "final_state": {"levels": [{"index": 1}]}},
        {"base": {"assumptions": [{"anisotropic": [1, 1]}]}, "final_state": {"levels": []}},
    ],
)
def test_a_malformed_report_has_no_context(report):
    with pytest.raises(InputError):
        context_from_report(report)


def _levels_report(*forms: object) -> dict:
    return {"base": "rationals", "final_state": {
        "levels": [{"index": i, "form": f} for i, f in enumerate(forms, start=1)]
    }}


_SYMBOLIC_BINARY_REPORT = Path(__file__).parent / "data" / "symbolic_binary_report.json"


def test_a_level_without_a_defined_function_field_has_no_context():
    # <2,-1> kills the class 2 again: over Q(sqrt 2) it is hyperbolic, with no function field
    with pytest.raises(InputError, match="<2,-1> at level 2"):
        context_from_report(_levels_report([1, -2], [2, -1]))
    for forms in ([[1, -1]], [[5]], [[1, -2], [1, -3], [6, -1]]):
        with pytest.raises(InputError, match="not certified defined"):
            context_from_report(_levels_report(*forms))
    context = context_from_report(_levels_report([1, -2], [1, -3], [1, -5]))
    assert context.trivialized_below(4) == (2, 3, 5)


def test_a_report_with_a_symbolic_binary_level_has_no_context():
    # written before adjoin refused symbolic binary forms: over F(sqrt(-ab)), abc
    # is -c, so <1,c> is isotropic at level 2, and yet its certificate replays
    # when the kill of -ab goes untracked
    report = json.loads(_SYMBOLIC_BINARY_REPORT.read_text())
    third = report["steps"][2]["gate"]["certificate"]
    assert (third["rule"], third["level"], third["status"]) == ("R-PFISTER", 2, "anisotropic")
    assert third["parameters"]["disc_context"] == []
    untracked = ReplayContext(
        assumptions=tuple(
            (a["id"], form_from_json(a["anisotropic"])) for a in report["base"]["assumptions"]
        ),
        adjunctions=tuple(form_from_json(level["form"]) for level in report["final_state"]["levels"]),
    )
    certs = list(certificates_in_report(report))
    assert all(replay(Certificate.from_json(c), untracked) for c in certs)
    with pytest.raises(InputError, match="<a,b> at level 1 is not certified defined"):
        context_from_report(report)
    ternary = {"symbolic": [{"sign": 1, "symbols": ["a"]}] * 3}
    assert context_from_report({**_levels_report(ternary), "base": report["base"]}).adjunctions


_BINARY = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 6, -6]), min_size=2, max_size=2)
_REPORT = st.fixed_dictionaries({
    "base": _mostly(st.one_of(
        st.just("rationals"),
        st.fixed_dictionaries({"symbols": st.just(["a1", "b1"]), "assumptions": _mostly(st.lists(
            st.fixed_dictionaries({"id": _mostly(st.sampled_from(["n", "x"])), "anisotropic": _FORM}),
            max_size=2,
        ))}),
    )),
    "final_state": _mostly(st.fixed_dictionaries({"levels": _mostly(st.lists(
        _mostly(st.fixed_dictionaries({"form": st.one_of(_BINARY, _FORM)})), max_size=5,
    ))})),
})


@settings(max_examples=300, deadline=None)
@given(_REPORT)
@example(_levels_report([1, -2], [2, -1]))
@example(_levels_report({"symbolic": [{"sign": 1, "symbols": []}, {"sign": -1, "symbols": ["a1"]}]}))
def test_any_report_json_gives_a_context_or_is_refused(report):
    try:
        context = context_from_report(report)
    except (InputError, SearchExhausted):
        return
    assert isinstance(context, ReplayContext)
    killed: list[int] = []
    for phi in context.adjunctions:
        assert phi.dim >= 2
        if phi.dim == 2:
            assert isinstance(phi, DiagonalForm)
            d = squarefree_part(-phi.coefficients[0] * phi.coefficients[1])
            assert d not in _explicit_span(tuple(killed))
            killed.append(d)


_QUAD_PREMISE = {"rule": "R-BASE", "status": "anisotropic", "subject": [1, 1, 1, 1], "level": -1,
              "parameters": {}, "premises": []}


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_certificate_json())
# a lift to level 0 over a premise at level -1: there is no adjunction to compare
@example({"rule": "R-HOFFMANN", "status": "anisotropic", "subject": [1, 1, 1, 1], "level": 0,
          "parameters": {"exponent": 2, "adjoined": [1, 1, 1, 1, 1]}, "premises": [_QUAD_PREMISE]})
# symbolic forms whose symbols or list are of the wrong type
@example({"rule": "R-GENERIC", "status": "isotropic", "subject": [1, -1], "level": 1,
          "parameters": {"adjoined": {"symbolic": [{"sign": 1, "symbols": [1, "a"]}]}}})
@example({"rule": "R-GENERIC", "status": "isotropic", "subject": [1, -1], "level": 1,
          "parameters": {"adjoined": {"symbolic": 5}}})
# a subject coefficient that factoring gives up on: refused, not a SearchExhausted
@example({"rule": "R-BASE", "status": "anisotropic", "subject": [1, (2**89 - 1) * (2**107 - 1), -3],
          "level": 0, "parameters": {"verdict": "anisotropic", "failing_place": 2}, "premises": []})
def test_any_certificate_json_is_refused_or_checked_to_a_bool(data):
    try:
        cert = Certificate.from_json(data)
    except InputError:
        return
    # fresh copies: the memo of nodes that passed stays per example
    contexts = [replace(c) for c in _real_contexts()] + [ReplayContext()]
    for context in contexts:
        for node in iter_certificates(cert):
            assert isinstance(check_node(node, context), bool)
        assert isinstance(replay(cert, context), bool)


_PREMISE = {"rule": "R-BASE", "status": "isotropic", "subject": [1, -1], "level": 0,
            "parameters": {"verdict": "isotropic"}, "premises": []}
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(allow_nan=False),
    st.sampled_from(["", "a"]),
)
_PARAMETERS = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.recursive(
        _SCALARS,
        lambda inner: (
            st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["a", "b"]), inner)
        ),
        max_leaves=6,
    ),
    max_size=3,
)


@st.composite
def _look_alike(draw, value: object) -> object:
    """The value, or a copy with parts swapped for look-alikes: keys in another
    order, a number of another type, a tuple for a list, a key dropped or null."""
    if isinstance(value, dict):
        items = [(k, draw(_look_alike(v))) for k, v in value.items()]
        if draw(st.booleans()):
            items.reverse()
        if items and draw(st.integers(0, 5)) == 0:
            k, _ = items.pop(draw(st.integers(0, len(items) - 1)))
            if draw(st.booleans()):
                items.append((k, None))
        return dict(items)
    if isinstance(value, list):
        items = [draw(_look_alike(v)) for v in value]
        return tuple(items) if draw(st.integers(0, 5)) == 0 else items
    if draw(st.integers(0, 3)) == 0:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return float(value) if draw(st.booleans()) or value not in (0, 1) else bool(value)
        if isinstance(value, float) and value.is_integer():
            return int(value)
    return value


@st.composite
def _parameter_pairs(draw) -> tuple[dict, dict]:
    first = draw(_PARAMETERS)
    return first, draw(st.one_of(_look_alike(first), _PARAMETERS))


def _typed(value: object) -> object:
    """Equal for two values exactly when they are equal as JSON with identical types,
    keys in the same order and number spellings."""
    if isinstance(value, dict):
        return dict, tuple((k, _typed(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return type(value), tuple(map(_typed, value))
    return type(value), repr(value)


def _exactly_json(value: object) -> bool:
    if type(value) is dict:
        return all(type(k) is str and _exactly_json(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_exactly_json, value))
    return type(value) in (str, int, float, bool, type(None))


@settings(max_examples=300, deadline=None)
@given(_parameter_pairs())
@example(({"n": 2}, {"n": 2.0}))
@example(({"n": 1}, {"n": True}))
@example(({}, {"n": None}))
@example(({"n": [1]}, {"n": (1,)}))
@example(({"n": b"1"}, {"n": bytearray(b"1")}))  # not JSON, and equal bytes to marshal
@example(({"a": 1, "b": [2]}, {"b": [2], "a": 1}))
def test_node_json_parses_to_one_object_exactly_when_equal_with_identical_types(pair):
    parsed = []
    for parameters in pair:
        data = {"rule": "R-MONOTONE", "status": "isotropic", "subject": [1, -1],
                "level": 1, "parameters": parameters, "premises": [_PREMISE]}
        if _exactly_json(parameters):
            parsed.append(Certificate.from_json(data))
        else:  # not JSON: refused
            with pytest.raises(InputError):
                Certificate.from_json(data)
    if len(parsed) == 2:
        first, second = parsed
        assert (first is second) == (_typed(pair[0]) == _typed(pair[1]))
        assert first.premises[0] is second.premises[0] is Certificate.from_json(_PREMISE)


class _Str(str):
    pass


@pytest.mark.parametrize(
    "bad",
    [
        {**_PREMISE, "parameters": {"n": (1,)}},
        {**_PREMISE, "parameters": {"n": b"1"}},
        {**_PREMISE, "parameters": {"n": bytearray(b"1")}},
        {**_PREMISE, "parameters": {"verdict": _Str("isotropic")}},
        {**_PREMISE, "parameters": {_Str("verdict"): "isotropic"}},
        {**_PREMISE, "status": _Str("isotropic")},
        {**_PREMISE, "subject": (1, -1)},
        {**_PREMISE, "rule": ("R-BASE",)},
        {**_PREMISE, "premises": ()},
        {**_PREMISE, "note": None},
        {_Str(k) if k == "rule" else k: v for k, v in _PREMISE.items()},
        type("Node", (dict,), {})(_PREMISE),
    ],
    ids=["tuple", "bytes", "bytearray", "str-subclass", "key-subclass", "status-subclass",
         "tuple-subject", "tuple-rule", "tuple-premises", "unknown-key", "rule-key-subclass",
         "dict-subclass"],
)
def test_node_json_that_is_not_exactly_json_is_an_input_error(bad):
    assert replay(Certificate.from_json(_PREMISE), ReplayContext())
    for _ in range(2):  # refused again: a refused node enters no table
        with pytest.raises(InputError):
            Certificate.from_json(bad)


def test_reordered_keys_parse_apart_and_replay_alike():
    leaf = base_certificate(QUAD).to_json()
    reordered = dict(reversed(leaf.items()))
    first, second = Certificate.from_json(leaf), Certificate.from_json(reordered)
    assert first is not second and first == second
    assert Certificate.from_json(dict(reversed(reordered.items()))) is first
    assert replay(first, ReplayContext()) and replay(second, ReplayContext())


@pytest.mark.parametrize(
    "one, other",
    [
        ({}, {"note": None}),  # a missing key is not null
        ({"parameters": {}}, {}),  # a missing key is not its default
        ({"level": 1}, {"level": 1.0}),
    ],
)
def test_node_json_with_other_top_level_keys_parses_apart(one, other):
    leaf = {"rule": "R-BASE", "status": "isotropic", "subject": [1, -1], "level": 0}
    first = Certificate.from_json({**leaf, **one})
    try:
        second = Certificate.from_json({**leaf, **other})
    except InputError:
        return
    assert first is not second and Certificate.from_json({**leaf, **one}) is first


def _recursive_certificates(report: object) -> list:
    """certificates_in_report as it was first written, recursing once per level."""
    if isinstance(report, dict):
        if "rule" in report and "status" in report and "subject" in report:
            return [report]
        return [c for value in report.values() for c in _recursive_certificates(value)]
    if isinstance(report, list):
        return [c for value in report for c in _recursive_certificates(value)]
    return []


def test_certificates_in_report_yields_the_certificates_in_document_order():
    report = run_script_data(
        {"base": "rationals", "algebras": [[-1, -1], [-1, -3]],
         "steps": [{"kind": "iterate", "window": 10, "max_rounds": 3}]},
        RunConfig(),
    )[0]
    found = list(certificates.certificates_in_report(report))
    assert len(found) > 10
    assert [id(c) for c in found] == [id(c) for c in _recursive_certificates(report)]


def test_certificates_in_report_walks_deep_nesting_without_recursing():
    cert = base_certificate(QUAD).to_json()
    deep: list = [cert]
    for _ in range(10**5):
        deep = [deep]
    found = list(certificates.certificates_in_report({"notes": deep, "after": [cert, 3]}))
    assert len(found) == 2 and found[0] is found[1] is cert
