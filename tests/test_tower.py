"""Tower engine: gated adjunction, certified steps, iteration, replay, tampering."""

import copy
import hashlib
import json
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from quatgenus import certificates, runner, tower
from quatgenus.arith import squarefree_part, witness_sequence
from quatgenus.certificates import (
    MAX_DEPTH,
    MAX_LEVELS,
    Certificate,
    ReplayContext,
    Status,
    assume_certificate,
    base_certificate,
    chain_certificate,
    check_node,
    disc_from_json,
    disc_mismatch,
    form_pfister_exponent,
    generic_certificate,
    hoffmann_certificate,
    iter_certificates,
    monotone_certificate,
    pfister_certificate,
    replay,
    shared_json,
    tamper,
)
from quatgenus.errors import InputError, PreconditionError, TruncationError
from quatgenus.forms import DiagonalForm, isometric
from quatgenus.quaternion import QuaternionAlgebra, connecting_algebra
from quatgenus.runner import (
    _MAX_WINDOW,
    RunConfig,
    certificates_in_report,
    context_from_report,
    parse_script,
    render_report,
    run_script_data,
)
from quatgenus.symbolic import SymbolicAlgebra, SymbolicClass, SymbolicForm
from quatgenus.tower import (
    AbstractBase,
    Assumption,
    Family,
    RationalBase,
    TowerState,
    adjoin,
    compute_window,
    derive_status,
    iterate_pushing,
    membership_form,
    run_alternating_truncation,
    step_linking_extension,
    step_pushing_extension,
)

HAMILTON = QuaternionAlgebra(-1, -1)
D13 = QuaternionAlgebra(-1, -3)
FAMILY = Family.of([HAMILTON, D13])
WORKED_PUSHING = {
    "base": "rationals",
    "algebras": [[-1, -1], [-1, -3]],
    "steps": [{"kind": "pushing", "classes": [-2]}],
}
# the benchmark's tower-deep script: a 19-level alternating truncation
DEEP_SCRIPT = {
    "base": "rationals",
    "algebras": [[-1, -1], [-1, -3], [-2, -5], [-1, -7]],
    "steps": [{"kind": "alternate", "rounds": 2, "max_rounds": 4, "window": 20}],
}
# the same step over the first eight pairwise non-isomorphic division algebras
# with entries drawn in order from -1, 2, -2, 3, -3, 5, -5, ..., 13, -13
WIDTH_8_SCRIPT = {
    "base": "rationals",
    "algebras": [[-1, -1], [-1, 3], [-1, -3], [-1, 7], [-1, -7], [-1, 11], [-1, -11], [2, 5]],
    "steps": [{"kind": "alternate", "rounds": 2, "max_rounds": 4, "window": 20}],
}


def test_membership_form():
    assert membership_form(-2, D13) == DiagonalForm((-2, 1, 3, 3))
    assert membership_form(-1, HAMILTON) == DiagonalForm((-1, 1, 1, 1))


def test_adjoin_accepts_anisotropic_and_rejects_isotropic():
    state = TowerState(RationalBase())
    state, gate = adjoin(state, DiagonalForm((-2, 1, 3, 3)))
    assert state.adjunctions == (DiagonalForm((-2, 1, 3, 3)),)
    assert gate.status is Status.ANISOTROPIC
    assert gate.certificate.rule == "R-BASE"
    with pytest.raises(InputError):
        adjoin(state, DiagonalForm((1, -1)))


def test_adjoin_raises_on_underived_gate():
    state = TowerState(RationalBase())
    state, _ = adjoin(state, DiagonalForm((1, 1, 1, 1)))
    # 4-dim non-Pfister subject over a 4-dim adjunction: no rule applies
    with pytest.raises(TruncationError):
        adjoin(state, DiagonalForm((-2, 1, 3, 3)))


def test_derive_status_walks_and_lifts():
    state = TowerState(RationalBase())
    state, _ = adjoin(state, DiagonalForm((-2, 1, 3, 3)))
    norm = derive_status(state, DiagonalForm((1, 1, 1, 1)))
    assert norm.status is Status.ANISOTROPIC
    assert norm.level == 1
    assert norm.certificate.rule == "R-PFISTER"
    assert norm.certificate.premises[0].rule == "R-BASE"
    member = derive_status(state, DiagonalForm((-2, 1, 3, 3)))
    assert member.status is Status.ISOTROPIC
    assert member.certificate.rule == "R-GENERIC"
    base_iso = derive_status(state, DiagonalForm((1, -1)))
    assert base_iso.status is Status.ISOTROPIC
    assert base_iso.certificate.rule == "R-MONOTONE"
    assert base_iso.certificate.premises[0].rule == "R-BASE"


def test_derive_status_blocked_records_level():
    state = TowerState(RationalBase())
    state, _ = adjoin(state, DiagonalForm((1, 1, 1, 1)))
    stmt = derive_status(state, DiagonalForm((-2, 1, 3, 3)))
    assert stmt.status is Status.UNKNOWN
    assert stmt.certificate is None
    assert stmt.blocked == (1, DiagonalForm((1, 1, 1, 1)))


def test_hoffmann_applies_across_larger_adjunction():
    state = TowerState(RationalBase())
    state, _ = adjoin(state, DiagonalForm((1, 1, 1, 1, 1)))
    stmt = derive_status(state, DiagonalForm((-2, 1, 3, 3)))
    assert stmt.status is Status.ANISOTROPIC
    assert stmt.certificate.rule == "R-HOFFMANN"
    assert stmt.certificate.param("exponent") == 2


def _scan_from_base(state, subject):
    """derive_status as a walk over every level from the base, with a pairwise
    match test at each: the reference for the lookup of the first match."""
    cert = blocked = None
    if isinstance(state.base, RationalBase):
        if isinstance(subject, DiagonalForm):
            cert = base_certificate(subject)
            status = cert.status
        else:
            status, blocked = Status.UNKNOWN, (0, None)
    elif (found := state.base.find(subject)) is not None:
        cert, status = assume_certificate(subject, found.ident), Status.ANISOTROPIC
    else:
        status, blocked = Status.UNKNOWN, (0, None)
    n = form_pfister_exponent(subject) if status is Status.ANISOTROPIC and state.adjunctions else None
    for level, phi in enumerate(state.adjunctions, start=1):
        if status is Status.ISOTROPIC:
            continue
        if subject == phi or (
            isinstance(subject, DiagonalForm) and isinstance(phi, DiagonalForm) and isometric(subject, phi)
        ):
            cert, status, blocked = generic_certificate(subject, phi, level), Status.ISOTROPIC, None
            continue
        if status is Status.UNKNOWN:
            continue
        trivialized = state.trivialized_below(level)
        if (
            n is not None
            and phi.dim == 2**n
            and disc_mismatch(subject.signed_disc(), phi.signed_disc(), trivialized)
        ):
            cert = pfister_certificate(cert, phi, level, n, trivialized)
            continue
        nh = tower._hoffmann_exponent(subject.dim, phi.dim)
        if nh is not None:
            cert = hoffmann_certificate(cert, phi, level, nh)
            continue
        status, blocked, cert = Status.UNKNOWN, (level, phi), None
    if status is Status.ISOTROPIC and cert is not None and cert.level < state.top_level:
        cert = monotone_certificate(cert, state.top_level)
    return status, blocked, cert


_CONCRETE = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 5, -5, 7, -7]), min_size=2, max_size=4)
_SYMBOLIC = st.lists(
    st.builds(SymbolicClass, st.sampled_from([1, -1]), st.sampled_from([(), ("a",), ("b",), ("a", "b")])),
    min_size=2, max_size=4,
)


@st.composite
def _towers(draw):
    """A tower state of a few 2- to 4-dimensional adjunctions over Q or over an
    abstract base (mostly symbolic forms there), and subjects to derive over it:
    some adjoined forms, their repeats and, for concrete ones, isometric but
    unequal variants, <a,b,...> -> <c,abc,...> with c = ax^2 + by^2."""
    abstract = draw(st.booleans())
    forms = st.one_of(
        _SYMBOLIC.map(lambda cs: SymbolicForm(tuple(cs))), _CONCRETE.map(DiagonalForm.of)
    ) if abstract else _CONCRETE.map(DiagonalForm.of)

    def variant(q):
        moved = list(draw(st.permutations(q.coefficients)))
        if isinstance(q, DiagonalForm):
            a, b = moved[:2]
            c = a * draw(st.integers(1, 3)) ** 2 + b * draw(st.integers(0, 3)) ** 2
            if c:
                moved[:2] = [c, a * b * c]
            return DiagonalForm.of(moved)
        return SymbolicForm(tuple(moved))

    def repeat_or_variant(q):
        return q if draw(st.booleans()) else variant(q)

    levels = draw(st.lists(forms, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        if levels:  # further up than the level it repeats
            at = draw(st.integers(0, len(levels) - 1))
            levels.insert(draw(st.integers(at + 1, len(levels))), repeat_or_variant(levels[at]))
    subjects = [
        repeat_or_variant(draw(st.sampled_from(levels))) if levels and draw(st.booleans()) else draw(forms)
        for _ in range(draw(st.integers(1, 4)))
    ]
    base = RationalBase()
    if abstract:
        ledger = [q for q in subjects if draw(st.booleans())]
        base = AbstractBase(("a", "b"), tuple(Assumption(f"h{i}", q) for i, q in enumerate(ledger)))
    return TowerState(base, tuple(levels)), subjects


_FOUR_SQUARES = DiagonalForm((1, 1, 1, 1))


@settings(max_examples=200, deadline=None)
@given(_towers())
# no rule carries <1,1,1,1> across <1,1,3>; <2,2,2,2> then adjoins it up to isometry
@example((TowerState(RationalBase(), (DiagonalForm((1, 1, 3)), DiagonalForm((2, 2, 2, 2)))),
          [_FOUR_SQUARES, DiagonalForm((1, -1))]))
# the same over a ledger, where only an equal form matches
@example((TowerState(
    AbstractBase(("a",), (Assumption("h0", SymbolicForm((SymbolicClass.one(),) * 4)),)),
    (SymbolicForm((SymbolicClass.one(),) * 3), _FOUR_SQUARES, SymbolicForm((SymbolicClass.one(),) * 4)),
), [SymbolicForm((SymbolicClass.one(),) * 4), _FOUR_SQUARES]))
def test_derive_status_agrees_with_the_scan_from_the_base(tower_and_subjects):
    state, subjects = tower_and_subjects
    for subject in subjects:
        stmt = derive_status(state, subject)
        status, blocked, cert = _scan_from_base(state, subject)
        assert (stmt.status, stmt.level, stmt.blocked) == (status, state.top_level, blocked)
        assert (stmt.certificate and stmt.certificate.to_json()) == (cert and cert.to_json())


def test_pushing_step_worked_instance():
    state = TowerState(RationalBase())
    state, step = step_pushing_extension(state, FAMILY, [-2])
    assert [(m.klass, m.algebra, m.status == "member") for m in step.at_base.entries] == [
        (-2, 0, True),
        (-2, 1, False),
    ]
    assert [(r.klass, r.algebra, r.form) for r in step.adjoined] == [
        (-2, 1, DiagonalForm((-2, 1, 3, 3)))
    ]
    assert state.adjunctions == (DiagonalForm((-2, 1, 3, 3)),)
    context = state.replay_context()
    statements = step.required_statements()
    assert len(statements) >= 8
    for statement in statements:
        assert statement.status is not Status.UNKNOWN
        for cert in iter_certificates(statement.certificate):
            assert replay(cert, context)
    norm_rules = {s.certificate.rule for _, s in step.injectivity.norm_forms}
    assert norm_rules == {"R-PFISTER"}
    pair_rules = {s.certificate.rule for _, _, s in step.injectivity.pair_forms}
    assert pair_rules == {"R-PFISTER"}
    embed_rules = [e.statement.certificate.rule for e in step.embeddings]
    assert embed_rules == ["R-MONOTONE", "R-GENERIC"]


def test_pushing_rejects_split_and_isomorphic_families():
    with pytest.raises(PreconditionError):
        Family.of([QuaternionAlgebra(1, 5)])
    with pytest.raises(PreconditionError):
        Family.of([HAMILTON, QuaternionAlgebra(-2, -1)])
    with pytest.raises(PreconditionError):
        step_pushing_extension(TowerState(RationalBase()), Family.of([]), [-2])


def test_compute_window_on_the_base():
    state = TowerState(RationalBase())
    report = compute_window(state, FAMILY, [-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10])
    assert report.distinguishing == (-2, -5, -7)
    assert report.unresolved == ()


def test_iterate_stabilizes_on_worked_family():
    state = TowerState(RationalBase())
    state, report = iterate_pushing(
        state, FAMILY, [-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10], 3
    )
    assert report.stabilized
    assert len(report.rounds) == 1
    assert report.rounds[0].window.distinguishing == (-2, -5, -7)
    assert state.adjunctions == (
        DiagonalForm((-2, 1, 3, 3)),
        DiagonalForm((-5, 1, 3, 3)),
        DiagonalForm((-7, 1, 1, 1)),
    )
    chain = report.final_injectivity.chain
    assert chain and {c.rule for c in chain} == {"R-CHAIN"}
    for cert in chain:
        assert cert.level == 3
        assert replay(cert, state.replay_context())


def test_iterate_measures_each_membership_once(monkeypatch):
    measured = []
    original = tower.compute_window

    def recorded(state, family, window):
        report = original(state, family, window)
        measured.append((list(window), report))
        return report

    monkeypatch.setattr(tower, "compute_window", recorded)
    window = witness_sequence(10)
    _, report = iterate_pushing(TowerState(RationalBase()), FAMILY, window, 3)
    assert report.rounds
    for rnd in report.rounds:
        split = rnd.window.distinguishing
        at_base = [e for e in rnd.window.entries if e.klass in split]
        assert len(rnd.step.at_base.entries) == len(at_base)
        for entry, measured_entry in zip(rnd.step.at_base.entries, at_base):
            assert entry.statement is measured_entry.statement
    full = [r for w, r in measured if w == window]
    assert len(full) == len(report.rounds) + 1
    assert report.final_window is full[-1]


def test_pushing_names_the_first_unresolved_membership():
    # over <1,1> no rule carries an anisotropic membership form up a level
    state, _ = adjoin(TowerState(RationalBase()), DiagonalForm.of([1, 1]))
    # -2 embeds in HAMILTON but not D13; 2 embeds in neither
    with pytest.raises(TruncationError, match="membership of -2 in algebra 1 is UNKNOWN"):
        step_pushing_extension(state, FAMILY, [-2, 2])


def test_abstract_linking_requires_an_albert_assumption():
    a1 = SymbolicAlgebra(SymbolicClass.named("a1"), SymbolicClass.named("b1"))
    a2 = SymbolicAlgebra(SymbolicClass.named("a2"), SymbolicClass.named("b2"))
    base = AbstractBase(
        ("a1", "b1", "a2", "b2"),
        (
            Assumption("norms-1", a1.norm_form()),
            Assumption("norms-2", a2.norm_form()),
        ),
    )
    state = TowerState(base)
    with pytest.raises(InputError):
        step_linking_extension(state, [a1, a2])


def test_abstract_linking_certifies_with_full_ledger():
    a1 = SymbolicAlgebra(SymbolicClass.named("a1"), SymbolicClass.named("b1"))
    a2 = SymbolicAlgebra(SymbolicClass.named("a2"), SymbolicClass.named("b2"))
    from quatgenus.symbolic import symbolic_albert_form

    base = AbstractBase(
        ("a1", "b1", "a2", "b2"),
        (
            Assumption("norms-1", a1.norm_form()),
            Assumption("norms-2", a2.norm_form()),
            Assumption("link-12", symbolic_albert_form(a1, a2)),
        ),
    )
    state = TowerState(base)
    state, step = step_linking_extension(state, [a1, a2])
    assert len(step.adjoined) == 1
    linked_rules = [s.certificate.rule for s in step.linked_now]
    assert linked_rules == ["R-GENERIC"]
    preserved_rules = {s.certificate.rule for _, s in step.preserved}
    assert preserved_rules == {"R-HOFFMANN"}
    for _, statement in step.preserved:
        assert statement.certificate.param("exponent") == 2
        assert statement.certificate.premises[0].rule == "R-ASSUME"
    context = state.replay_context()
    for statement in step.required_statements():
        for cert in iter_certificates(statement.certificate):
            assert replay(cert, context)
    # the assumption leaves are context-dependent: no ledger, no replay
    leaf = step.preserved[0][1].certificate.premises[0]
    assert not replay(leaf, ReplayContext())


def _abstract_family(n: int) -> dict:
    """n abstract algebras (a_i, b_i), every norm form and Albert form assumed
    anisotropic, and one linking step."""
    assumptions = [{"id": f"norms-{i}", "anisotropic": {"norm_of": i}} for i in range(n)]
    assumptions += [
        {"id": f"link-{i}-{j}", "anisotropic": {"albert_of": [i, j]}}
        for i, j in combinations(range(n), 2)
    ]
    return {
        "base": {"abstract": {
            "symbols": [f"{x}{i}" for i in range(n) for x in "ab"],
            "assumptions": assumptions,
        }},
        "algebras": [{"symbols": [f"a{i}", f"b{i}"]} for i in range(n)],
        "steps": [{"kind": "linking"}],
    }


def _verifies_from_json(report: dict) -> bool:
    data = json.loads(json.dumps(report))
    context = context_from_report(data)
    return all(replay(Certificate.from_json(c), context) for c in certificates_in_report(data))


def test_a_second_abstract_linking_step_notes_the_pair_already_linked():
    script = {**_abstract_family(2), "steps": [{"kind": "linking"}, {"kind": "linking"}]}
    report, code = run_script_data(script, RunConfig())
    assert code == 0 and len(report["final_state"]["levels"]) == 1
    first, second = report["steps"]
    assert len(first["adjoined"]) == 1 and first["notes"] == []
    assert second["adjoined"] == []
    assert second["notes"] == ["pair (0,1) is already linked; nothing to adjoin"]


@pytest.mark.parametrize("n, nodes", [(3, 37), (4, 84), (6, 265), (8, 602)])
def test_abstract_linking_links_a_family_of_any_size(n, nodes):
    # the second Albert form has a trivial discriminant; its function field is
    # defined all the same, since a form in six variables is irreducible
    report, code = run_script_data(_abstract_family(n), RunConfig())
    assert code == 0 and report["unknown_count"] == 0
    assert report["replay"] == {"checked": nodes, "passed": nodes}
    assert len(report["final_state"]["levels"]) == n * (n - 1) // 2
    (step,) = report["steps"]
    assert [s["statement"]["certificate"]["rule"] for s in step["linked_now"]] == (
        ["R-MONOTONE"] * (len(step["linked_now"]) - 1) + ["R-GENERIC"]
    )
    assert {s["statement"]["status"] for s in step["preserved"]} == {"anisotropic"}
    assert _verifies_from_json(report)


def test_abstract_linking_fills_the_tower_and_stops_at_its_limit():
    report, code = run_script_data(_abstract_family(23), RunConfig())
    assert code == 0 and len(report["final_state"]["levels"]) == 253
    assert _verifies_from_json(report)
    with pytest.raises(TruncationError, match=f"already has {MAX_LEVELS} levels"):
        run_script_data(_abstract_family(24), RunConfig())  # 276 levels


def test_adjoin_refuses_a_symbolic_binary_form():
    a, b = SymbolicClass.named("a"), SymbolicClass.named("b")
    binary = SymbolicForm((a, b))
    state = TowerState(AbstractBase(("a", "b"), (Assumption("ab", binary),)))
    assert state.statement(binary).status is Status.ANISOTROPIC
    with pytest.raises(InputError, match="symbolic binary form"):
        adjoin(state, binary)
    # a ternary one has a function field and kills no class
    ternary = SymbolicForm((a, b, a.times(b)))
    state = TowerState(AbstractBase(("a", "b"), (Assumption("t", ternary),)))
    top, gate = adjoin(state, ternary)
    assert top.adjunctions == (ternary,) and gate.certificate.rule == "R-ASSUME"


def test_runner_worked_script_counts():
    data = {
        "base": "rationals",
        "algebras": [[-1, -1], [-1, -3]],
        "steps": [{"kind": "pushing", "classes": [-2]}],
    }
    report, code = run_script_data(data, RunConfig())
    assert code == 0
    assert report["replay"]["checked"] == report["replay"]["passed"] == 17
    assert report["unknown_count"] == 0
    assert report["final_state"]["levels"] == [{"index": 1, "form": [-2, 1, 3, 3]}]


def test_runner_rejects_malformed_scripts():
    config = RunConfig()
    for bad in (
        [],
        {"base": "p-adic"},
        {"base": "rationals", "algebras": [[1]], "steps": []},
        {"base": "rationals", "algebras": [], "steps": [{"kind": "mystery"}]},
        # the retired spellings of "iterate" and "alternate"
        {"base": "rationals", "algebras": [[-1, -1], [-1, -3]],
         "steps": [{"kind": "iterateP", "window": 10, "max_rounds": 3}]},
        {"base": "rationals", "algebras": [[-1, -1], [-1, -3]],
         "steps": [{"kind": "theoremC", "window": 10, "max_rounds": 3, "rounds": 1}]},
        {"base": "rationals", "algebras": [], "steps": [{"kind": "pushing", "classes": "x"}]},
        {"base": {"abstract": {"symbols": ["a"], "assumptions": []}},
         "algebras": [{"symbols": ["a", "zz"]}], "steps": []},
        {"base": {"abstract": {"symbols": ["a", "b"], "assumptions": 5}},
         "algebras": [{"symbols": ["a", "b"]}], "steps": []},
        # JSON true is not an integer anywhere one is required
        {"base": "rationals", "algebras": [[True, -1]], "steps": []},
        {"base": "rationals", "algebras": [[-1, -1]],
         "steps": [{"kind": "pushing", "classes": [True]}]},
        {"base": "rationals", "algebras": [],
         "steps": [{"kind": "adjoin", "form": [True, True, True, True, True]}]},
        {"base": "rationals", "algebras": [[-1, -1]],
         "steps": [{"kind": "alternate", "window": True, "rounds": 1, "max_rounds": 1}]},
        {"base": "rationals", "algebras": [[-1, -1]],
         "steps": [{"kind": "alternate", "window": [True], "rounds": 1, "max_rounds": 1}]},
        {"base": "rationals", "algebras": [[-1, -1]],
         "steps": [{"kind": "alternate", "window": 3, "rounds": True, "max_rounds": 1}]},
        {"base": "rationals", "algebras": [[-1, -1]],
         "steps": [{"kind": "alternate", "window": 3, "rounds": 1, "max_rounds": True}]},
        {"base": "rationals", "algebras": [[-1, -1]],
         "steps": [{"kind": "iterate", "window": 3, "max_rounds": True}]},
        {"base": {"abstract": {"symbols": ["a", "b"], "assumptions": [
            {"id": "n", "anisotropic": {"norm_of": True}}]}},
         "algebras": [{"symbols": ["a", "b"]}, {"symbols": ["b", "a"]}], "steps": []},
        {"base": {"abstract": {"symbols": ["a", "b"], "assumptions": [
            {"id": "q", "anisotropic": {"albert_of": [True, 0]}}]}},
         "algebras": [{"symbols": ["a", "b"]}, {"symbols": ["b", "a"]}], "steps": []},
        # bounded work: a window limit past _MAX_WINDOW, more rounds than levels
        {"base": "rationals", "algebras": [[-1, -1], [-1, -3]],
         "steps": [{"kind": "iterate", "window": _MAX_WINDOW + 1, "max_rounds": 0}]},
        {"base": "rationals", "algebras": [[-1, -1], [-1, -3]],
         "steps": [{"kind": "alternate", "window": _MAX_WINDOW + 1, "rounds": 1, "max_rounds": 0}]},
        {"base": "rationals", "algebras": [[-1, -1]],
         "steps": [{"kind": "alternate", "window": 3, "rounds": MAX_LEVELS + 1, "max_rounds": 1}]},
    ):
        with pytest.raises(InputError):
            report, _ = run_script_data(bad, config)


def test_a_step_without_a_window_or_budget_takes_the_defaults():
    for bare, spelled in (
        ({"kind": "iterate"}, {"kind": "iterate", "window": 10, "max_rounds": 3}),
        ({"kind": "alternate"}, {"kind": "alternate", "window": 10, "rounds": 1, "max_rounds": 3}),
    ):
        # an explicit null is a missing key, for each key alone and for all at once
        nulls = [{**bare, key: None} for key in spelled if key != "kind"]
        nulls.append({**bare, **{key: None for key in spelled if key != "kind"}})
        reports = [
            render_report(run_script_data({**WORKED_PUSHING, "steps": [step]}, RunConfig())[0])
            for step in (bare, spelled, *nulls)
        ]
        assert reports == [reports[0]] * len(reports)


def test_runner_propagates_exit_semantics():
    config = RunConfig()
    with pytest.raises(InputError):
        run_script_data(
            {"base": "rationals", "algebras": [],
             "steps": [{"kind": "adjoin", "form": [1, -1]}]},
            config,
        )
    with pytest.raises(PreconditionError):
        run_script_data(
            {"base": "rationals", "algebras": [[1, 5]],
             "steps": [{"kind": "pushing", "classes": [-2]}]},
            config,
        )
    with pytest.raises(TruncationError):
        run_script_data(
            {"base": "rationals", "algebras": [],
             "steps": [
                 {"kind": "adjoin", "form": [1, 1, 1, 1]},
                 {"kind": "adjoin", "form": [-2, 1, 3, 3]},
             ]},
            config,
        )


def test_alternating_truncation_reports_distinctness():
    state = TowerState(RationalBase())
    state, report = run_alternating_truncation(
        state, FAMILY, [-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10], 1, 3
    )
    assert len(report.rounds) == 1
    statements = report.distinctness.statements()
    assert statements
    for statement in statements:
        assert statement.status is Status.ANISOTROPIC
        assert replay(statement.certificate, state.replay_context())


def test_replay_needs_matching_context():
    data = {
        "base": "rationals",
        "algebras": [[-1, -1], [-1, -3]],
        "steps": [{"kind": "pushing", "classes": [-2]}],
    }
    report, _ = run_script_data(data, RunConfig())
    context = context_from_report(report)
    wrong = ReplayContext(adjunctions=(DiagonalForm((1, 1, 1, 1, 1)),))
    for cert_json in certificates_in_report(report):
        cert = Certificate.from_json(cert_json)
        assert replay(cert, context)
        if cert.rule in ("R-GENERIC", "R-PFISTER"):
            assert not replay(cert, wrong)


def test_an_iterate_window_of_classes_is_recorded_once_per_square_class():
    # 12 is 3 times a square, and -2 is named twice
    data = {"base": "rationals", "algebras": [[-1, -1], [-1, -3]],
            "steps": [{"kind": "iterate", "window": [-2, 3, -2, 12], "max_rounds": 1}]}
    report, code = run_script_data(data, RunConfig())
    assert code == 0 and report["steps"][0]["window"] == [-2, 3]


def test_tampered_certificates_fail_replay():
    data = {
        "base": "rationals",
        "algebras": [[-1, -1], [-1, -3]],
        "steps": [{"kind": "iterate", "window": 10, "max_rounds": 3}],
    }
    report, _ = run_script_data(data, RunConfig())
    context = context_from_report(report)
    seen = {}
    for cert_json in certificates_in_report(report):
        for cert in iter_certificates(Certificate.from_json(cert_json)):
            seen.setdefault(cert.rule, cert.to_json())
    assert {"R-BASE", "R-GENERIC", "R-MONOTONE", "R-PFISTER", "R-CHAIN"} <= set(seen)
    for rule, cert_json in seen.items():
        assert not replay(Certificate.from_json(tamper(cert_json)), context), rule


def test_tampering_the_symbolic_generic_node_of_an_abstract_report_fails_replay():
    report, code = run_script_data(_abstract_family(2), RunConfig())
    assert code == 0
    context = context_from_report(report)
    (generic,) = {
        cert for tree in certificates_in_report(report)
        for cert in iter_certificates(Certificate.from_json(tree)) if cert.rule == "R-GENERIC"
    }
    assert isinstance(generic.subject, SymbolicForm) and replay(generic, context)
    assert not replay(Certificate.from_json(tamper(generic.to_json())), context)


def test_check_node_reads_only_the_premises_stored_fields():
    data = {
        "base": "rationals",
        "algebras": [[-1, -1], [-1, -3]],
        "steps": [{"kind": "iterate", "window": 10, "max_rounds": 3}],
    }
    report, _ = run_script_data(data, RunConfig())
    context = context_from_report(report)
    # a chain or monotone node whose premise keeps its status when tampered
    sound = next(
        cert
        for cert_json in certificates_in_report(report)
        for cert in iter_certificates(Certificate.from_json(cert_json))
        if cert.rule in ("R-MONOTONE", "R-CHAIN") and cert.premises[0].rule != "R-BASE"
    )
    assert check_node(sound, context) and replay(sound, context)
    parent_json = sound.to_json()
    parent_json["premises"] = [tamper(parent_json["premises"][0])]
    parent = Certificate.from_json(parent_json)
    assert check_node(parent, context)
    assert not replay(parent, context)
    assert not replay(parent.premises[0], context)


def test_certificate_from_json_rejects_malformed_fields():
    good = {"rule": "R-BASE", "status": "isotropic", "subject": [1, -1], "level": 0,
            "parameters": {"verdict": "isotropic"}}
    assert replay(Certificate.from_json(good), ReplayContext())
    for field, value in (("parameters", [1]), ("level", "x"), ("level", True)):
        with pytest.raises(InputError):
            Certificate.from_json({**good, field: value})


def test_pfister_node_refuses_malformed_integers():
    state = TowerState(RationalBase())
    state, _ = adjoin(state, DiagonalForm((-2, 1, 3, 3)))
    cert = derive_status(state, DiagonalForm((1, 1, 1, 1))).certificate
    assert cert.rule == "R-PFISTER" and cert.param("exponent") == 2
    assert replay(cert, state.replay_context())
    with pytest.raises(InputError):
        disc_from_json(True)
    good = cert.to_json()
    for field, value in (
        ("subject_disc", True),
        ("disc_context", ["x"]),
        ("disc_context", [None]),
        ("disc_context", [True]),
        ("disc_context", ["3"]),
        ("disc_context", [3]),  # well formed, but not the classes killed below level 1
    ):
        bad = {**good, "parameters": {**good["parameters"], field: value}}
        assert not replay(Certificate.from_json(bad), state.replay_context()), (field, value)


def test_tampering_any_node_of_a_warm_deep_report_fails_replay():
    data = {
        "base": "rationals",
        "algebras": [[-1, -1], [-1, -3]],
        "steps": [{"kind": "alternate", "rounds": 2, "max_rounds": 4, "window": 20}],
    }
    report, _ = run_script_data(data, RunConfig())
    context = context_from_report(report)
    trees = list(certificates_in_report(report))
    # warm every cache on the untampered trees first
    assert all(replay(Certificate.from_json(tree), context) for tree in trees)
    # the deepest node of each rule, named by its tree and its path of premise indices
    deepest: dict[str, tuple[int, tuple[int, ...]]] = {}
    for index, tree in enumerate(trees):
        for path, node in _paths(tree):
            if node["rule"] not in deepest or len(path) > len(deepest[node["rule"]][1]):
                deepest[node["rule"]] = (index, path)
    assert {"R-BASE", "R-GENERIC", "R-MONOTONE", "R-PFISTER", "R-CHAIN"} <= set(deepest)
    assert len(deepest["R-BASE"][1]) >= 5
    for rule, (index, path) in deepest.items():
        assert not replay(Certificate.from_json(_tamper_at(trees[index], path)), context), rule


def test_a_tampered_copy_of_a_passed_shared_node_fails_replay_with_its_ancestors():
    data = {
        "base": "rationals",
        "algebras": [[-1, -1], [-1, -3]],
        "steps": [{"kind": "iterate", "window": 10, "max_rounds": 3}],
    }
    report, _ = run_script_data(data, RunConfig())
    context = context_from_report(report)
    trees = list(certificates_in_report(json.loads(render_report(report))))
    parsed = [Certificate.from_json(tree) for tree in trees]
    assert all(replay(cert, context) for cert in parsed)
    # the deepest node that two trees share, so its object passed and is shared
    shared = {}
    for index, tree in enumerate(trees):
        for path, node in _paths(tree):
            shared.setdefault(json.dumps(node, sort_keys=True), []).append((index, path))
    index, path = max(
        (places[0] for places in shared.values() if len(places) > 1),
        key=lambda found: len(found[1]),
    )
    assert len(path) >= 2
    original = parsed[index]
    for i in path:
        original = original.premises[i]
    assert id(original) in context._passed
    tampered = Certificate.from_json(_tamper_at(trees[index], path))
    chain = [tampered]
    for i in path:
        chain.append(chain[-1].premises[i])
    assert chain[-1] is not original and Certificate.from_json(trees[index]) is parsed[index]
    for node in chain:  # the tampered node, then each ancestor, bottom up
        assert not replay(node, context)
    assert all(replay(cert, context) for cert in parsed)


def _paths(tree: dict):
    """(path of premise indices, node) for every node of a certificate JSON tree, preorder."""
    stack = [((), tree)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack.extend((path + (i,), p) for i, p in enumerate(node["premises"]))


def _tamper_at(tree: dict, path: tuple[int, ...]) -> dict:
    """A copy of the tree with the node at the path tampered."""
    if not path:
        return tamper(tree)
    tree = copy.deepcopy(tree)
    parent = tree
    for i in path[:-1]:
        parent = parent["premises"][i]
    parent["premises"][path[-1]] = tamper(parent["premises"][path[-1]])
    return tree


@pytest.mark.parametrize(
    "rule, key, value",
    [
        ("R-MONOTONE", "from_level", 0.0),
        ("R-MONOTONE", "from_level", False),
        ("R-CHAIN", "levels", 3.0),
        ("R-PFISTER", "exponent", True),
        ("R-HOFFMANN", "exponent", True),
    ],
)
def test_replay_refuses_non_integer_json_where_the_engine_writes_integers(rule, key, value):
    # <1,1> stays anisotropic by R-PFISTER (exponent 1), then R-HOFFMANN
    # (exponent 1) twice, under an R-CHAIN over 3 levels; <1,-1> is isotropic
    # at level 0 and lifted by R-MONOTONE
    state = TowerState(
        RationalBase(),
        (DiagonalForm((1, 2)), DiagonalForm((1, 1, 1)), DiagonalForm((1, 1, 1, 1))),
    )
    context = state.replay_context()
    trees = (
        chain_certificate(derive_status(state, DiagonalForm((1, 1))).certificate).to_json(),
        derive_status(state, DiagonalForm((1, -1))).certificate.to_json(),
    )
    tree, path, node = next(
        (t, p, n) for t in trees for p, n in _paths(t) if n["rule"] == rule
    )
    assert replay(Certificate.from_json(tree), context)
    assert node["parameters"][key] == value  # the same number as another JSON type
    node["parameters"][key] = value
    mutated = Certificate.from_json(tree)
    target = mutated
    for i in path:
        target = target.premises[i]
    assert target.rule == rule
    assert not check_node(target, context)
    assert not replay(mutated, context)


def test_unknown_membership_gate_raises_truncation():
    # over a 4-dim Pfister adjunction, a 4-dim membership form has no rule
    state = TowerState(RationalBase())
    state, _ = adjoin(state, DiagonalForm((1, 1, 1, 1)))
    with pytest.raises(TruncationError):
        step_pushing_extension(state, Family.of([D13]), [-2])


def test_parse_script_shapes():
    script = parse_script(
        {"base": "rationals", "algebras": [[-4, -12]], "steps": []}
    )
    assert script.family == Family.of([QuaternionAlgebra(-1, -3)])
    abstract = parse_script(
        {
            "base": {
                "abstract": {
                    "symbols": ["a1", "b1"],
                    "assumptions": [{"id": "n1", "anisotropic": {"norm_of": 0}}],
                }
            },
            "algebras": [{"symbols": ["a1", "b1"]}],
            "steps": [],
        }
    )
    assert not abstract.is_concrete
    assert abstract.family.algebras == ()
    assert abstract.base.assumptions[0].ident == "n1"


def test_family_is_checked_once_and_each_pair_connected_once(monkeypatch):
    calls = {"connecting_algebra": [], "is_linked": []}
    for name in calls:
        original = getattr(tower, name)

        def counted(a1, a2, _name=name, _original=original):
            calls[_name].append((a1, a2))
            return _original(a1, a2)

        monkeypatch.setattr(tower, name, counted)
    data = {
        "base": "rationals",
        "algebras": [[-1, -1], [-1, -3], [-2, -5]],
        "steps": [{"kind": "alternate", "rounds": 2, "max_rounds": 1, "window": 6}],
    }
    report, code = run_script_data(data, RunConfig())
    assert code == 0
    assert len(report["steps"][0]["rounds"]) == 2
    algebras = [QuaternionAlgebra.of(a, b) for a, b in data["algebras"]]
    pairs = [(algebras[i], algebras[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    assert calls["is_linked"] == pairs
    assert calls["connecting_algebra"] == pairs


def test_family_pairs_are_the_connecting_algebras():
    family = Family.of([HAMILTON, D13, QuaternionAlgebra(-2, -5)])
    assert [pair for pair, _ in family.pairs] == [(0, 1), (0, 2), (1, 2)]
    for (i, j), conn in family.pairs:
        assert conn == connecting_algebra(family.algebras[i], family.algebras[j])
    assert family.pairs is family.pairs
    assert Family.of([]).pairs == ()


def _hoffmann_chain(nodes: int) -> Certificate:
    subject = DiagonalForm((-2, 1, 3, 3))
    cert = base_certificate(subject)
    for level in range(1, nodes):
        cert = hoffmann_certificate(cert, DiagonalForm((1, 1, 1, 1, 1)), level, 2)
    return cert


def _depth(cert: Certificate) -> int:
    depth = 1
    while cert.premises:
        (cert,) = cert.premises
        depth += 1
    return depth


def _nodes(cert: Certificate) -> list[Certificate]:
    """The nodes of a tree stripped of their premises: == that does not recurse."""
    return [replace(node, premises=()) for node in iter_certificates(cert)]


def test_certificate_equality_and_hash_at_max_depth_do_not_recurse():
    # built twice, so equality cannot short-cut on identity
    first, second = _hoffmann_chain(MAX_DEPTH), _hoffmann_chain(MAX_DEPTH)
    assert first is not second and first == second
    assert not first != second
    assert hash(first) == hash(second)  # R-HOFFMANN parameters hold lists
    differing = Certificate("R-ASSUME", Status.ANISOTROPIC, first.subject, 0, (), ())
    for node in reversed(list(iter_certificates(second))[:-1]):  # same chain, other leaf
        differing = replace(node, premises=(differing,))
    assert _depth(differing) == MAX_DEPTH
    assert first != differing and not first == differing
    assert first != first.premises[0]
    # a monotone chain: equal chains hash equally
    isotropic = base_certificate(DiagonalForm((1, -1)))
    chains = []
    for _ in range(2):
        cert = isotropic
        for level in range(1, MAX_DEPTH):
            cert = monotone_certificate(cert, level)
        chains.append(cert)
    assert chains[0] == chains[1] and hash(chains[0]) == hash(chains[1])


def test_adjunction_past_the_level_limit_is_a_truncation():
    filler = DiagonalForm((1, 1, 1, 1, 1))
    subject = DiagonalForm((-2, 1, 3, 3))  # anisotropic up the filler by R-HOFFMANN
    below = TowerState(RationalBase(), (filler,) * (MAX_LEVELS - 1))
    full, gate = adjoin(below, subject)
    assert full.top_level == MAX_LEVELS
    assert gate.status is Status.ANISOTROPIC
    with pytest.raises(TruncationError):
        adjoin(full, subject)
    with pytest.raises(TruncationError):
        tower._append_level(full, subject)
    # the deepest certificate over the fullest tower is within what from_json accepts
    chain = chain_certificate(derive_status(full, DiagonalForm((1, 1))).certificate)
    assert _depth(chain) == MAX_DEPTH
    assert _nodes(Certificate.from_json(chain.to_json())) == _nodes(chain)


def test_a_max_depth_chain_and_its_statement_repr_without_recursing():
    full = TowerState(RationalBase(), (DiagonalForm((1, 1, 1, 1, 1)),) * MAX_LEVELS)
    statement = derive_status(full, DiagonalForm((1, 1)))
    chain = chain_certificate(statement.certificate)
    assert _depth(chain) == MAX_DEPTH
    # each node shows its own fields and its premise count, not its premises
    assert repr(chain) == (
        "Certificate(rule='R-CHAIN', status=<Status.ANISOTROPIC: 'anisotropic'>, "
        "subject=DiagonalForm(coefficients=(1, 1)), level=256, parameters=(('levels', 256),), "
        "premises=<1 certificates>)"
    )
    assert repr(statement.certificate) in repr(statement)


def test_deep_chains_iterate_and_parse_without_recursing():
    deep = _hoffmann_chain(1200)
    nodes = list(iter_certificates(deep))
    assert [n.level for n in nodes] == list(range(1199, -1, -1))
    assert replay(deep, ReplayContext(adjunctions=(DiagonalForm((1, 1, 1, 1, 1)),) * 1199))
    data = deep.to_json()  # walked with a stack: recursion overflows at 1,200 nodes
    for node in nodes:
        below = data["premises"]
        assert {**data, "premises": []} == replace(node, premises=()).to_json()
        data = below[0] if below else None
    assert data is None
    with pytest.raises(InputError):
        Certificate.from_json(deep.to_json())
    deepest = _hoffmann_chain(MAX_DEPTH)
    assert _nodes(Certificate.from_json(deepest.to_json())) == _nodes(deepest)
    with pytest.raises(InputError):
        Certificate.from_json(_hoffmann_chain(MAX_DEPTH + 1).to_json())
    # preorder across branches: each node, then its premises left to right
    a, b = _hoffmann_chain(2), _hoffmann_chain(3)
    fork = Certificate("R-CHAIN", Status.ANISOTROPIC, a.subject, 2, (), (a, b))
    assert list(iter_certificates(fork)) == [
        fork, a, a.premises[0], b, b.premises[0], b.premises[0].premises[0]
    ]
    assert fork.to_json()["premises"] == [a.to_json(), b.to_json()]


def test_from_json_parses_a_max_depth_chain_under_a_low_recursion_limit():
    deepest = _hoffmann_chain(MAX_DEPTH)
    deepest_json, too_deep_json = deepest.to_json(), _hoffmann_chain(MAX_DEPTH + 1).to_json()
    frames, frame = 0, sys._getframe()
    while frame is not None:
        frames, frame = frames + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 60)  # far fewer frames than MAX_DEPTH nesting levels
    try:
        parsed = Certificate.from_json(deepest_json)
        with pytest.raises(InputError):
            Certificate.from_json(too_deep_json)
    finally:
        sys.setrecursionlimit(limit)
    assert _nodes(parsed) == _nodes(deepest)


def test_from_json_reports_the_first_error_in_preorder():
    leaf = {"rule": "R-BASE", "status": "isotropic", "subject": [1, -1], "level": 0,
            "parameters": {"verdict": "isotropic"}}
    bad_level = {**leaf, "level": "x", "premises": [None]}
    cases = (
        # a node's own fields come before its premises
        ({**leaf, "status": "?", "premises": [bad_level]}, "malformed certificate"),
        # premises left to right, each subtree before the next premise
        ({**leaf, "premises": [{**leaf, "premises": [bad_level]}, None]}, "level must be"),
        ({**leaf, "premises": [leaf, None, bad_level]}, "not a certificate: None"),
    )
    for data, message in cases:
        with pytest.raises(InputError, match=message):
            Certificate.from_json(data)


def _slice_trivialized(adjunctions, level: int) -> tuple[int, ...]:
    """The definition the killed-class table replaced: slice, filter, sort."""
    killed = []
    for phi in adjunctions[: max(level - 1, 0)]:
        if isinstance(phi, DiagonalForm) and phi.dim == 2:
            killed.append(squarefree_part(-phi.coefficients[0] * phi.coefficients[1]))
    return tuple(sorted(killed))


def test_killed_class_table_matches_the_slice_definition(monkeypatch):
    adjunctions = tuple(
        DiagonalForm(c)
        for c in ((1, 3), (-2, 1, 3, 3), (1, 1), (1, 1, 1, 1, 1), (2, 5), (1, 3), (-1, -7))
    )
    binary = sum(phi.dim == 2 for phi in adjunctions)
    calls = []
    real = certificates.squarefree_part
    monkeypatch.setattr(
        certificates, "squarefree_part", lambda x: calls.append(x) or real(x)
    )
    state = TowerState(RationalBase(), adjunctions)
    assert state.replay_context() is state.replay_context()
    for _ in range(2):
        for level in range(state.top_level + 3):
            expected = _slice_trivialized(adjunctions, level)
            assert state.trivialized_below(level) == expected, level
            assert state.replay_context().trivialized_below(level) == expected, level
    assert len(calls) == binary  # one table per state, built once
    assert state.trivialized_below(state.top_level + 1) == (-10, -7, -3, -3, -1)
    assert all(ReplayContext().trivialized_below(level) == () for level in range(4))


def _from_json_nodes(report: dict) -> list[Certificate]:
    """Every node object of the report's certificates, parsed from its rendered JSON."""
    parsed = json.loads(render_report(report))
    return [
        node
        for cert_json in certificates_in_report(parsed)
        for node in iter_certificates(Certificate.from_json(cert_json))
    ]


def test_replaying_each_node_under_one_context_checks_each_node_once(monkeypatch):
    calls = []
    real = certificates._check_node
    monkeypatch.setattr(
        certificates, "_check_node", lambda cert, ctx: calls.append(cert) or real(cert, ctx)
    )
    counts = {}
    for name, script in (("worked", WORKED_PUSHING), ("deep", DEEP_SCRIPT)):
        report, _ = run_script_data(script, RunConfig())
        nodes = _from_json_nodes(report)
        context = context_from_report(report)
        calls.clear()
        assert all(replay(node, context) for node in nodes)
        # equal node JSON parses to one object, and each object is checked once
        assert len(calls) == len({id(node) for node in calls}) == len({id(n) for n in nodes})
        assert all(replay(node, context) for node in nodes)  # checks nothing again
        counts[name] = (len(calls), len(nodes), report["replay"]["checked"])
    # the worked report holds each in-run certificate once, 10 of its 17 distinct
    # by value; tower-deep's step reports repeat some of its 1,175, in 2,111 visits
    # to 380 distinct nodes
    assert counts == {"worked": (10, 17, 17), "deep": (380, 2111, 1175)}
    # one replay per node that walked its whole subtree made 17,702 checks
    assert sum(len(list(iter_certificates(node))) for node in nodes) == 17702


def test_a_failed_replay_records_nothing():
    data = {
        "base": "rationals",
        "algebras": [[-1, -1], [-1, -3]],
        "steps": [{"kind": "iterate", "window": 10, "max_rounds": 3}],
    }
    report, _ = run_script_data(data, RunConfig())
    context = context_from_report(report)
    trees = list(certificates_in_report(report))
    # the deepest node whose tampering keeps the fields its parent reads
    index, path = max(
        (
            (i, path)
            for i, tree in enumerate(trees)
            for path, node in _paths(tree)
            if node["rule"] in ("R-PFISTER", "R-MONOTONE") and node["premises"]
        ),
        key=lambda found: len(found[1]),
    )
    assert len(path) >= 2
    tampered = Certificate.from_json(_tamper_at(trees[index], path))
    nodes = list(iter_certificates(tampered))
    above, below = nodes[: len(path) + 1], nodes[len(path) + 1:]
    assert all(check_node(node, context) for node in above[:-1])
    assert not check_node(above[-1], context)
    # the walk passes every ancestor, then fails: none of them is recorded
    assert not replay(tampered, context)
    assert context._passed == {}
    for _ in range(2):
        assert not any(replay(node, context) for node in reversed(above))
        assert all(replay(node, context) for node in below)
    others = [Certificate.from_json(tree) for i, tree in enumerate(trees) if i != index]
    assert all(replay(tree, context) for tree in others)
    assert not replay(tampered, context)
    assert set(context._passed) == {
        id(node) for tree in [*others, below[0]] for node in iter_certificates(tree)
    }


SMALL_SCRIPTS = (
    WORKED_PUSHING,
    {"base": "rationals", "algebras": [[-1, -1], [-1, -3]],
     "steps": [{"kind": "alternate", "rounds": 1, "max_rounds": 2, "window": 6}]},
    {"base": "rationals", "algebras": [[-1, -1], [-2, -5]],
     "steps": [{"kind": "adjoin", "form": [1, 2, 3, 5, 6]}, {"kind": "pushing", "classes": [-3]}]},
    {
        "base": {"abstract": {"symbols": ["a1", "b1", "a2", "b2"], "assumptions": [
            {"id": "norms-1", "anisotropic": {"norm_of": 0}},
            {"id": "norms-2", "anisotropic": {"norm_of": 1}},
            {"id": "link-12", "anisotropic": {"albert_of": [0, 1]}},
        ]}},
        "algebras": [{"symbols": ["a1", "b1"]}, {"symbols": ["a2", "b2"]}],
        "steps": [{"kind": "linking"}],
    },
)


@lru_cache(maxsize=None)
def _small_report(index: int) -> tuple[ReplayContext, list[dict]]:
    report, _ = run_script_data(SMALL_SCRIPTS[index], RunConfig())
    return context_from_report(report), list(certificates_in_report(report))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_replay_under_a_shared_context_agrees_with_a_fresh_one(data):
    context, trees = _small_report(data.draw(st.integers(0, len(SMALL_SCRIPTS) - 1)))
    index = data.draw(st.integers(0, len(trees) - 1))
    paths = [path for path, _ in _paths(trees[index])]
    path = data.draw(st.sampled_from(paths))
    forest = [
        Certificate.from_json(_tamper_at(tree, path) if i == index else tree)
        for i, tree in enumerate(trees)
    ]
    nodes = [node for tree in forest for node in iter_certificates(tree)]
    rng = data.draw(st.randoms(use_true_random=False))
    order = rng.sample(nodes, len(nodes)) + rng.sample(nodes, len(nodes))  # each node twice
    shared = replace(context)  # a context of its own: the cached reports keep theirs clean
    verdicts = [replay(node, shared) for node in order]
    assert verdicts == [replay(node, replace(context)) for node in order]
    assert not all(verdicts)


def test_replay_context_equality_hash_and_repr_ignore_the_memo():
    report, _ = run_script_data(WORKED_PUSHING, RunConfig())
    used, unused = context_from_report(report), context_from_report(report)
    assert all(replay(Certificate.from_json(c), used) for c in certificates_in_report(report))
    assert used._passed and not unused._passed
    assert used == unused and hash(used) == hash(unused) and repr(used) == repr(unused)
    assert "_passed" not in repr(used)
    assert replace(used)._passed == {}


@pytest.mark.parametrize(
    "script, statements",
    [
        # the steps and the tracked loop ask 423 times for these 214 statements
        pytest.param(DEEP_SCRIPT, 214, id="tower-deep"),
        # -1 embeds in both algebras: the step adjoins nothing and only tracks
        pytest.param(
            {**WORKED_PUSHING, "steps": [{"kind": "pushing", "classes": [-1]}]},
            5,
            id="nothing-adjoined",
        ),
    ],
)
def test_each_statement_is_derived_once(monkeypatch, script, statements):
    keys = []
    real = tower.derive_status

    def recorded(state, subject):
        keys.append((state.adjunctions, subject))
        return real(state, subject)

    monkeypatch.setattr(tower, "derive_status", recorded)
    run_script_data(script, RunConfig())
    assert len(keys) == len(set(keys)) == statements


def test_tower_state_equality_hash_and_repr_ignore_the_statements():
    levels = (DiagonalForm((-2, 1, 3, 3)),)
    used, unused = TowerState(RationalBase(), levels), TowerState(RationalBase(), levels)
    norm = DiagonalForm((1, 1, 1, 1))
    stmt = used.statement(norm)
    assert used.statement(norm) is stmt
    assert stmt == derive_status(unused, norm)
    assert used._statements and not unused._statements
    assert used == unused and hash(used) == hash(unused) and repr(used) == repr(unused)
    assert "_statements" not in repr(used)
    assert replace(used)._statements == {}


@pytest.mark.parametrize(
    "script, objects, visits",
    [
        pytest.param(DEEP_SCRIPT, 359, 1175, id="tower-deep"),
        pytest.param(WIDTH_8_SCRIPT, 2935, 18835, id="width-8"),
    ],
)
def test_in_run_replay_checks_each_certificate_object_once(monkeypatch, script, objects, visits):
    calls = []
    real = certificates._check_node
    monkeypatch.setattr(
        certificates, "_check_node", lambda cert, ctx: calls.append(cert) or real(cert, ctx)
    )
    report, code = run_script_data(script, RunConfig())
    assert len(calls) == len({id(node) for node in calls}) == objects
    assert report["replay"] == {"checked": visits, "passed": visits} and code == 0


def test_replay_on_a_root_that_passed_checks_nothing(monkeypatch):
    report, _ = run_script_data(DEEP_SCRIPT, RunConfig())
    roots = [Certificate.from_json(c) for c in certificates_in_report(json.loads(render_report(report)))]
    context = context_from_report(report)
    assert all(replay(root, context) for root in roots)
    calls = []
    monkeypatch.setattr(certificates, "check_node", lambda cert, ctx: calls.append(cert))
    assert all(replay(node, context) for root in roots for node in iter_certificates(root))
    assert calls == []


def _replay_walking_every_root(cert: Certificate, context: ReplayContext) -> bool:
    """replay() without its early return: a passed root is stacked, popped and skipped."""
    passed, visited, stack = context._passed, [], [cert]
    while stack:
        node = stack.pop()
        if id(node) in passed:
            continue
        if not certificates.check_node(node, context):
            return False
        visited.append(node)
        stack.extend(reversed(node.premises))
    passed.update((id(node), node) for node in visited)
    return True


def test_the_early_return_leaves_the_in_run_replay_counts_of_tower_deep(monkeypatch):
    report, code = run_script_data(DEEP_SCRIPT, RunConfig())
    monkeypatch.setattr(runner, "replay", _replay_walking_every_root)
    walked, walked_code = run_script_data(DEEP_SCRIPT, RunConfig())
    assert report["replay"] == walked["replay"] == {"checked": 1175, "passed": 1175}
    assert code == walked_code == 0


def test_the_width_8_report_keeps_its_bytes():
    report, _ = run_script_data(WIDTH_8_SCRIPT, RunConfig())
    digest = hashlib.sha256(render_report(report).encode()).hexdigest()
    assert digest == "4732e71664cd46292022c3cfdef6aafa4528fa861937a1a15cf0e4a2cef9ddcf"


def test_a_shared_node_that_fails_counts_at_every_visit(monkeypatch):
    real_check, real_iter = certificates._check_node, runner.iter_certificates
    checked: list[Certificate] = []
    visited: list[Certificate] = []

    def iter_recorded(cert):
        for node in real_iter(cert):
            visited.append(node)
            yield node

    monkeypatch.setattr(runner, "iter_certificates", iter_recorded)
    monkeypatch.setattr(
        certificates, "_check_node", lambda c, ctx: checked.append(c) or real_check(c, ctx)
    )
    run_script_data(DEEP_SCRIPT, RunConfig())

    def holding(node: Certificate) -> int:
        """The visits whose subtree holds the node object."""
        return sum(any(n is node for n in real_iter(v)) for v in visited)

    # the first object checked that the run visits more than once and that a
    # visit of another node holds; runs are deterministic, so it is the same
    # call in the next run, and every check of that object fails there
    target = next(
        i for i, node in enumerate(checked)
        if holding(node) > sum(v is node for v in visited) > 1
    )
    checked.clear()
    visited.clear()
    failed: list[Certificate] = []

    def fail_target(cert, ctx):
        checked.append(cert)
        if len(checked) - 1 == target:
            failed.append(cert)
        return not (failed and cert is failed[0]) and real_check(cert, ctx)

    monkeypatch.setattr(certificates, "_check_node", fail_target)
    report, code = run_script_data(DEEP_SCRIPT, RunConfig())
    # a visit passes when its whole subtree replays, so every visit whose
    # subtree holds the failed object fails, that object's own visits included
    assert report["replay"] == {"checked": 1175, "passed": 1175 - holding(failed[0])}
    assert code == 1


def _pfister_over_base() -> Certificate:
    state, _ = adjoin(TowerState(RationalBase()), DiagonalForm((-2, 1, 3, 3)))
    cert = derive_status(state, DiagonalForm((1, 1, 1, 1))).certificate
    assert cert.rule == "R-PFISTER" and cert.premises[0].rule == "R-BASE"
    return cert


def test_to_json_builds_fresh_dicts_outside_a_run():
    cert = _pfister_over_base()
    first, second = cert.to_json(), cert.to_json()
    assert first == second and first is not second
    assert first["premises"][0] is not second["premises"][0]
    expected = copy.deepcopy(first)
    first["level"] = 7
    first["premises"][0]["status"] = "isotropic"
    first["premises"].append(None)
    assert cert.to_json() == expected
    with shared_json():
        shared = cert.to_json()
        assert cert.to_json() is shared
        assert cert.premises[0].to_json() is shared["premises"][0]
        assert shared == expected
    assert cert.to_json() is not shared


def test_a_failed_run_leaves_no_shared_dicts_behind():
    bad = {**WORKED_PUSHING, "steps": [*WORKED_PUSHING["steps"], {"kind": "unknown"}]}
    with pytest.raises(InputError, match="unknown step kind"):
        run_script_data(bad, RunConfig())
    assert certificates._built_json.get() is None
    src = str(Path(__file__).resolve().parents[1] / "src")
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); "
         "from quatgenus.runner import RunConfig, render_report, run_script_data; "
         f"sys.stdout.write(render_report(run_script_data({WORKED_PUSHING!r}, RunConfig())[0]))",
         src],
        capture_output=True, text=True, check=True,
    ).stdout
    report, _ = run_script_data(WORKED_PUSHING, RunConfig())
    assert render_report(report) == fresh


def test_unknown_and_unhashable_step_kinds_are_input_errors():
    for kind in ("unknown", None, ["pushing"], {"kind": "pushing"}):
        script = {**WORKED_PUSHING, "steps": [{"kind": kind, "classes": [-2]}]}
        with pytest.raises(InputError, match="unknown step kind"):
            run_script_data(script, RunConfig())


def _counted_splits(window) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """compute_window's former per-class counting loop: the reference for the
    distinguishing and unresolved classes a WindowReport derives from its entries."""
    distinguishing, unresolved = [], []
    for c in window.window:
        members = nonmembers = unknown = 0
        for e in window.entries:
            if e.klass != c:
                continue
            if e.statement.status is Status.ISOTROPIC:
                members += 1
            elif e.statement.status is Status.ANISOTROPIC:
                nonmembers += 1
            else:
                unknown += 1
        if members and nonmembers:
            distinguishing.append(c)
        elif unknown:
            unresolved.append(c)
    return tuple(distinguishing), tuple(unresolved)


def _flagged_stabilization(report, max_rounds: int) -> tuple[bool, tuple[str, ...]]:
    """iterate_pushing's former stabilized flag and notes list, replayed over the
    windows it measured: the reference for the fields an IterateReport derives."""
    stabilized = False
    for index, window in enumerate([*(r.window for r in report.rounds), report.final_window]):
        if not _counted_splits(window)[0]:
            stabilized = True
            break
        if index >= max_rounds:
            break
    notes = [tower._WINDOW_NOTE]
    if not stabilized:
        notes.append("round budget exhausted before stabilization")
    return stabilized, tuple(notes)


@pytest.mark.parametrize(
    "script",
    [
        *(pytest.param(s, id=f"small-{i}") for i, s in enumerate(SMALL_SCRIPTS)),
        pytest.param(DEEP_SCRIPT, id="tower-deep"),
        pytest.param(WIDTH_8_SCRIPT, id="width-8"),
        # no round allowed: the budget ends before stabilization
        pytest.param(
            {**DEEP_SCRIPT, "steps": [{"kind": "iterate", "window": 3, "max_rounds": 0}]},
            id="budget-exhausted",
        ),
        # over <1,1> no rule carries a membership form up: classes stay unresolved
        pytest.param(
            {**WORKED_PUSHING, "steps": [{"kind": "adjoin", "form": [1, 1]},
                                         {"kind": "iterate", "window": 5, "max_rounds": 1}]},
            id="unresolved",
        ),
    ],
)
def test_derived_tower_facts_agree_with_the_former_bookkeeping(monkeypatch, script):
    statements, windows, iterates = [], [], []

    def recorded(name, sink, keep_args=False):
        real = getattr(tower, name)

        def wrapper(*args):
            result = real(*args)
            sink.append((args, result) if keep_args else result)
            return result

        monkeypatch.setattr(tower, name, wrapper)

    recorded("derive_status", statements)
    recorded("compute_window", windows)
    recorded("iterate_pushing", iterates, keep_args=True)
    run_script_data(script, RunConfig())
    assert statements
    for stmt in statements:
        assert (stmt.certificate is None) == (stmt.status is Status.UNKNOWN) == (stmt.blocked is not None)
    for window in windows:
        assert (window.distinguishing, window.unresolved) == _counted_splits(window)
    for (_, _, _, max_rounds), (_, report) in iterates:
        assert (report.stabilized, report.notes) == _flagged_stabilization(report, max_rounds)
        assert report.final_injectivity.chain is report.final_injectivity.chain


def test_window_splits_over_every_mix_of_entry_statuses():
    # no script above yields a class with all three statuses; built entries do
    iso, aniso = DiagonalForm((1, -1)), DiagonalForm((1, 1))
    by_status = {
        Status.ISOTROPIC: tower.TrackedStatement(iso, 0, base_certificate(iso), None),
        Status.ANISOTROPIC: tower.TrackedStatement(aniso, 0, base_certificate(aniso), None),
        Status.UNKNOWN: tower.TrackedStatement(aniso, 1, None, (1, iso)),
    }
    mixes = [mix for k in range(4) for mix in combinations_with_replacement(by_status, k)]
    entries = tuple(
        tower.WindowEntry(c, i, by_status[status])
        for c, mix in enumerate(mixes, 2)
        for i, status in enumerate(mix)
    )
    window = tower.WindowReport(tuple(range(2, len(mixes) + 2)), entries)
    assert (window.distinguishing, window.unresolved) == _counted_splits(window)
    assert window.distinguishing and window.unresolved


# a small-scope sweep: every script of one or two steps, built from these six
# step shapes, over four small families
SWEEP_FAMILIES = (
    [[-1, -1], [-1, -3]],
    [[-1, -1], [2, 5]],
    [[-1, -3], [3, -7]],
    [[3, -5], [-1, -7]],  # connecting algebra (-2,-35), deep in the shell order
)
SWEEP_STEPS = (
    {"kind": "pushing", "classes": [-2, 3]},
    {"kind": "linking"},
    {"kind": "iterate", "window": 6, "max_rounds": 2},
    {"kind": "alternate", "window": 6, "rounds": 2, "max_rounds": 2},
    {"kind": "adjoin", "form": [1, -1, 2]},  # isotropic: refused
    {"kind": "adjoin", "form": [1, 1, 1, 1, 1]},
)


def test_every_short_script_over_small_families_renders_and_replays_alike():
    outcomes = Counter()
    for algebras in SWEEP_FAMILIES:
        for steps in [*product(SWEEP_STEPS), *product(SWEEP_STEPS, repeat=2)]:
            script = {"algebras": algebras, "steps": list(steps)}
            try:
                report, code = run_script_data(script, RunConfig())
            except (InputError, TruncationError) as error:
                outcomes[type(error).__name__] += 1
                continue
            outcomes[code] += 1
            text = render_report(report)
            # 100 real report shapes through the renderer, against the standard library
            assert text == json.dumps(report, indent=2, sort_keys=True) + "\n", script
            assert text == render_report(run_script_data(script, RunConfig())[0]), script
            assert report["replay"]["checked"] == report["replay"]["passed"], script
            parsed = json.loads(text)
            context = context_from_report(parsed)
            for cert_json in certificates_in_report(parsed):
                for node in iter_certificates(Certificate.from_json(cert_json)):
                    assert replay(node, context), script
    # a change in what the engine certifies or refuses shows here
    assert outcomes == {0: 100, "InputError": 52, "TruncationError": 16}
