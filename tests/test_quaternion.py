"""Quaternion algebras: ramification, isomorphism, linkage, subfields, genus."""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from itertools import chain, count, islice
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import quatgenus
from quatgenus import arith, cli, forms, search
from quatgenus.arith import squarefree_part
from quatgenus.errors import InputError, PreconditionError, SearchExhausted
from quatgenus.forms import (
    DiagonalForm, is_isotropic, isometric, represents, witt_decompose, witt_index,
)
from quatgenus import quaternion
from quatgenus.quaternion import (
    QuaternionAlgebra,
    albert_form,
    common_subfield_witness,
    connecting_algebra,
    contains_subfield,
    distinguishing_witness,
    genus_report,
    is_division,
    is_isomorphic,
    is_linked,
    ramification,
)
from quatgenus.symbols import INFINITE_PLACE, finite_place, hilbert_symbol, relevant_places_of

symbol = st.sampled_from([-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10])

HAMILTON = QuaternionAlgebra(-1, -1)
D13 = QuaternionAlgebra(-1, -3)


def test_construction_reduces_symbols():
    assert QuaternionAlgebra.of(-4, 18) == QuaternionAlgebra(-1, 2)
    with pytest.raises(PreconditionError):
        QuaternionAlgebra.of(0, 1)
    assert QuaternionAlgebra.of(Fraction(5, 2), 3) == QuaternionAlgebra(10, 3)


def test_non_rational_input_is_refused():
    # -1.9 once truncated to -1, giving Hamilton's quaternions
    with pytest.raises(InputError):
        QuaternionAlgebra.of(-1.9, -1)
    with pytest.raises(InputError):
        contains_subfield(HAMILTON, 2.5)


@pytest.mark.parametrize(
    "a, error",
    [(False, InputError), (True, InputError), (2.0, InputError), (0, PreconditionError)],
)
def test_symbol_entries_are_type_tested_before_the_zero_test(a, error):
    # False == 0, yet a bool is no symbol entry; only a true zero is a precondition
    with pytest.raises(error):
        QuaternionAlgebra.of(a, -1)


def test_norm_and_pure_forms():
    assert HAMILTON.norm_form() == DiagonalForm((1, 1, 1, 1))
    assert HAMILTON.pure_form() == DiagonalForm((-1, -1, -1))
    assert D13.norm_form() == DiagonalForm((1, 1, 3, 3))


def test_ramification_worked_values():
    assert ramification(HAMILTON) == (INFINITE_PLACE, finite_place(2))
    assert ramification(D13) == (INFINITE_PLACE, finite_place(3))
    assert ramification(QuaternionAlgebra(1, 5)) == ()


@given(symbol, symbol)
@settings(max_examples=200)
def test_ramification_has_even_size_and_matches_norm_form(a, b):
    algebra = QuaternionAlgebra.of(a, b)
    ram = ramification(algebra)
    assert len(ram) % 2 == 0
    assert is_division(algebra) == (len(ram) > 0)
    assert is_division(algebra) == (not is_isotropic(algebra.norm_form()))


@given(
    st.integers(min_value=-500, max_value=500).filter(lambda n: n != 0),
    st.integers(min_value=-500, max_value=500).filter(lambda n: n != 0),
)
@settings(max_examples=200)
def test_ramification_is_where_the_symbol_is_minus_one(a, b):
    algebra = QuaternionAlgebra.of(a, b)
    # odd primes outside the relevant places must not ramify either
    places = set(relevant_places_of([a, b])) | {finite_place(p) for p in (3, 5, 7, 11, 13)}
    expected = sorted(v for v in places if hilbert_symbol(a, b, v) == -1)
    assert ramification(algebra) == tuple(expected)


def test_division_and_split():
    assert is_division(HAMILTON)
    assert not is_division(QuaternionAlgebra(1, 5))
    assert not is_division(QuaternionAlgebra(2, -1))  # norm <1,-2,1,-2> isotropic


def test_isomorphism_by_ramification():
    assert is_isomorphic(HAMILTON, QuaternionAlgebra(-2, -1))
    assert not is_isomorphic(HAMILTON, D13)


def test_albert_form_and_linkage():
    q = albert_form(HAMILTON, D13)
    assert q == DiagonalForm((-1, -1, -1, 1, 3, 3))
    assert is_linked(HAMILTON, D13)
    with pytest.raises(PreconditionError):
        is_linked(HAMILTON, QuaternionAlgebra(1, 5))


@given(symbol, symbol, symbol, symbol)
@settings(max_examples=150, deadline=None)
def test_division_pairs_are_always_linked(a, b, c, d):
    d1, d2 = QuaternionAlgebra.of(a, b), QuaternionAlgebra.of(c, d)
    if is_division(d1) and is_division(d2):
        assert is_linked(d1, d2)
        # is_linked reads the index from invariants; the explicit split agrees
        diff = d1.norm_form().perp(d2.norm_form().negated())
        assert witt_index(diff) == len(witt_decompose(diff).witnesses)
        shared = witt_decompose(
            DiagonalForm(d1.pure_form().coefficients + d2.pure_form().negated().coefficients)
        )
        assert shared.witt_index >= 1


@pytest.mark.parametrize(
    "first,second",
    [
        (HAMILTON, D13),
        # pairs whose 8-dimensional norm-form difference is slow to split
        (QuaternionAlgebra(-30, 29), QuaternionAlgebra(-15, -29)),
        (QuaternionAlgebra(5, -30), QuaternionAlgebra(-15, -5)),
    ],
)
def test_is_linked_splits_nothing(monkeypatch, first, second):
    calls = {"isotropic_vector_search": 0, "witt_decompose": 0}
    # forms imports the search inside isotropic_vector, so the search module holds it
    modules = {"isotropic_vector_search": search, "witt_decompose": forms}

    def counted(name):
        original = getattr(modules[name], name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(modules[name], name, counted(name))
    assert is_linked(first, second)
    assert calls == {"isotropic_vector_search": 0, "witt_decompose": 0}


def test_contains_subfield_worked_values():
    assert contains_subfield(HAMILTON, -1)
    assert contains_subfield(HAMILTON, -2)
    assert contains_subfield(HAMILTON, -3)  # 3 is a sum of three squares
    assert not contains_subfield(HAMILTON, -7)  # 7 is not
    assert not contains_subfield(HAMILTON, 2)
    with pytest.raises(PreconditionError):
        contains_subfield(HAMILTON, 4)  # square class of 1 is not a quadratic field


def test_common_subfield_witness_worked_value():
    assert common_subfield_witness(HAMILTON, QuaternionAlgebra(-2, -5)) == -2
    assert common_subfield_witness(HAMILTON, D13, limit=1) == -1
    with pytest.raises(PreconditionError):
        common_subfield_witness(HAMILTON, QuaternionAlgebra(1, 5))
    with pytest.raises(SearchExhausted):
        common_subfield_witness(HAMILTON, QuaternionAlgebra(-2, -5), limit=1)


def test_distinguishing_witness_worked_value():
    assert distinguishing_witness(HAMILTON, QuaternionAlgebra(-2, -5)) == -1
    assert distinguishing_witness(HAMILTON, D13) == -2
    with pytest.raises(PreconditionError):
        distinguishing_witness(HAMILTON, QuaternionAlgebra(-2, -1))


@pytest.mark.parametrize("limit", [0, -5])
def test_witness_searches_refuse_a_limit_below_one_first(limit, monkeypatch):
    def searched(*_args):
        raise AssertionError("searched with a limit below 1")

    monkeypatch.setattr(quaternion, "iter_witnesses", searched)
    split = QuaternionAlgebra(1, 5)
    # the limit is checked before the division test, the isomorphism test and the search
    calls = [
        lambda: common_subfield_witness(HAMILTON, D13, limit),
        lambda: common_subfield_witness(HAMILTON, split, limit),
        lambda: distinguishing_witness(HAMILTON, D13, limit),
        lambda: distinguishing_witness(HAMILTON, QuaternionAlgebra(-2, -1), limit),
        lambda: genus_report([HAMILTON, D13], limit),
        lambda: genus_report([HAMILTON, QuaternionAlgebra(-2, -1)], limit),
        lambda: genus_report([HAMILTON, split], limit),
    ]
    for call in calls:
        with pytest.raises(InputError, match=f"witness limit must be positive; got {limit}"):
            call()


def test_connecting_algebra_worked_value():
    connecting = connecting_algebra(HAMILTON, D13)
    assert connecting == QuaternionAlgebra(-1, 3)
    assert connecting.norm_form() == DiagonalForm((1, 1, -3, -3))
    assert set(ramification(connecting)) == set(ramification(HAMILTON)) ^ set(
        ramification(D13)
    )


@given(symbol, symbol, symbol, symbol)
@settings(max_examples=100, deadline=None)
def test_connecting_algebra_ramification_is_symmetric_difference(a, b, c, d):
    d1, d2 = QuaternionAlgebra.of(a, b), QuaternionAlgebra.of(c, d)
    assume(not is_isomorphic(d1, d2))
    connecting = connecting_algebra(d1, d2)
    assert set(ramification(connecting)) == set(ramification(d1)) ^ set(ramification(d2))


def _cubic_pair_candidates(limit_rank):
    """The walk as first written: every (i, j) of each shell's square, kept when max(i, j) == shell."""
    seq = []
    v = 1
    while len(seq) < limit_rank + 1:
        if arith.is_squarefree(v):
            seq.extend((v, -v))
        v += 1
    seq = seq[: limit_rank + 1]
    for shell in range(1, len(seq)):
        for i in range(shell + 1):
            for j in range(shell + 1):
                if max(i, j) == shell:
                    yield seq[i], seq[j]


def _pair_candidates(limit_rank):
    """Every symbol pair in shell order by max rank, then lex by (rank a, rank b): the
    reference that connecting_algebra's partner-index walk must follow."""
    seq = quaternion._ranked_classes(limit_rank)
    for shell in range(1, len(seq)):
        for i in range(shell):
            yield seq[i], seq[shell]
        for j in range(shell + 1):
            yield seq[shell], seq[j]


def test_pair_candidates_follow_the_cubic_filter():
    walks = {rank: list(_pair_candidates(rank)) for rank in (*range(41), 400)}
    for rank in range(41):
        assert walks[rank] == list(_cubic_pair_candidates(rank))
        assert walks[rank] == walks[400][: len(walks[rank])]
    assert len(walks[400]) == 160_800
    assert walks[400] == list(_cubic_pair_candidates(400))


def _constructed_candidates(odd_primes):
    """The fallback's candidates as first written: (a, b) with a in (P, -P, 2P, -2P)
    for P the product of the odd primes, b in (q, -q), for each prime q ascending."""
    p = prod(odd_primes)
    for q in (q for q in count(2) if arith.is_prime(q)):
        for a in (p, -p, 2 * p, -2 * p):
            for b in (q, -q):
                yield a, b


def _unpruned_connecting(a1, a2):
    """connecting_algebra's candidate order, computing every candidate's ramification."""
    target = set(ramification(a1)) ^ set(ramification(a2))
    odd = sorted(v.prime for v in target if v.prime not in (None, 2))
    for a, b in chain(
        _pair_candidates(quaternion._CONNECTING_RANK),
        islice(_constructed_candidates(odd), quaternion._CONSTRUCT_TRIES),
    ):
        cand = QuaternionAlgebra.of(a, b)
        if set(ramification(cand)) == target:
            return cand
    raise SearchExhausted("no connecting algebra")


_WORKED_ALGEBRAS = json.loads(
    (Path(__file__).parent / "data" / "worked_pushing_report.json").read_text()
)["algebras"]


# the slowest pairs of the benchmark's tower-batch scripts before pruning
_TOWER_BATCH_PAIRS = [
    ((6, -7), (-2, 10)),
    ((-10, 5), (-7, -7)),
    ((-5, -7), (6, 7)),
    ((5, -7), (-6, 3)),
    ((7, -1), (-3, -5)),
    ((3, -5), (-1, -7)),
    ((-1, -7), (2, -6)),
]


@pytest.mark.parametrize(
    "first,second",
    [
        *_TOWER_BATCH_PAIRS,
        *[
            (tuple(_WORKED_ALGEBRAS[i]), tuple(_WORKED_ALGEBRAS[j]))
            for i in range(len(_WORKED_ALGEBRAS))
            for j in range(i + 1, len(_WORKED_ALGEBRAS))
        ],
    ],
)
def test_pruning_keeps_the_first_match(first, second):
    a1, a2 = QuaternionAlgebra.of(*first), QuaternionAlgebra.of(*second)
    assert connecting_algebra(a1, a2) == _unpruned_connecting(a1, a2)


@given(symbol, symbol, symbol, symbol)
@settings(max_examples=60, deadline=None)
def test_pruning_keeps_the_first_match_on_random_pairs(a, b, c, d):
    d1, d2 = QuaternionAlgebra.of(a, b), QuaternionAlgebra.of(c, d)
    assume(is_division(d1) and is_division(d2) and not is_isomorphic(d1, d2))
    assert connecting_algebra(d1, d2) == _unpruned_connecting(d1, d2)


_PRIMES_BELOW_400 = [p for p in range(2, 400) if arith.is_prime(p)]
# +- products of 1-3 primes below 400: targets that the rank-4 shell walk cannot answer
wide_symbol = st.builds(
    lambda sign, primes: sign * prod(primes),
    st.sampled_from([1, -1]),
    st.sets(st.sampled_from(_PRIMES_BELOW_400), min_size=1, max_size=3),
)


@given(wide_symbol, wide_symbol, wide_symbol, wide_symbol)
@settings(max_examples=60, deadline=None)
def test_constructed_fallback_keeps_the_first_match(a, b, c, d):
    d1, d2 = QuaternionAlgebra.of(a, b), QuaternionAlgebra.of(c, d)
    assume(is_division(d1) and is_division(d2) and not is_isomorphic(d1, d2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quaternion, "_CONNECTING_RANK", 4)
        assert connecting_algebra(d1, d2) == _unpruned_connecting(d1, d2)


def _filtered_walk(a1, a2):
    """The reference walk's pairs that pass the sign and odd-prime filters, up to and
    including the first match, and whether one matched."""
    target = set(ramification(a1)) ^ set(ramification(a2))
    real = INFINITE_PLACE in target
    odd = [v.prime for v in target if v.prime not in (None, 2)]
    kept = []
    for a, b in _pair_candidates(quaternion._CONNECTING_RANK):
        if (a < 0 and b < 0) == real and all(a % p == 0 or b % p == 0 for p in odd):
            kept.append((a, b))
            if set(ramification(QuaternionAlgebra.of(a, b))) == target:
                return kept, True
    return kept, False


def _built_pairs(a1, a2):
    """The (a, b) of every candidate connecting_algebra builds, in order."""
    built = []
    of = QuaternionAlgebra.of

    def recording(a, b):
        built.append((a, b))
        return of(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QuaternionAlgebra, "of", staticmethod(recording))
        connecting_algebra(a1, a2)
    return built


@pytest.mark.parametrize(
    "first,second", [*_TOWER_BATCH_PAIRS, ((11, 17), (-26, -29))]
)
def test_partner_index_builds_the_reference_candidates_in_order(first, second):
    a1, a2 = QuaternionAlgebra.of(*first), QuaternionAlgebra.of(*second)
    kept, matched = _filtered_walk(a1, a2)
    assert matched == (first != (11, 17))  # (11,17), (-26,-29) falls back to _constructed
    assert _built_pairs(a1, a2) == kept


@given(symbol, symbol, symbol, symbol)
@settings(max_examples=60, deadline=None)
def test_partner_index_keeps_the_candidate_order_at_a_small_rank(a, b, c, d):
    d1, d2 = QuaternionAlgebra.of(a, b), QuaternionAlgebra.of(c, d)
    assume(is_division(d1) and is_division(d2) and not is_isomorphic(d1, d2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quaternion, "_CONNECTING_RANK", 4)
        kept, _ = _filtered_walk(d1, d2)
        assert _built_pairs(d1, d2) == kept


def test_connecting_algebra_beyond_the_walk_is_constructed():
    # the target {inf, 11, 17, 29} needs symbols beyond rank 400
    first, second = QuaternionAlgebra(11, 17), QuaternionAlgebra(-26, -29)
    connecting = connecting_algebra(first, second)
    assert connecting == QuaternionAlgebra(-5423, -3)  # -5423 = -11 * 17 * 29
    assert ramification(connecting) == (
        INFINITE_PLACE, finite_place(11), finite_place(17), finite_place(29)
    )


def test_connecting_algebra_search_is_bounded(monkeypatch):
    monkeypatch.setattr(quaternion, "_CONNECTING_RANK", 4)
    monkeypatch.setattr(quaternion, "_CONSTRUCT_TRIES", 8)
    with pytest.raises(SearchExhausted):
        connecting_algebra(QuaternionAlgebra(11, 17), QuaternionAlgebra(-26, -29))
    monkeypatch.setattr(quaternion, "_CONSTRUCT_TRIES", 12)
    assert connecting_algebra(
        QuaternionAlgebra(11, 17), QuaternionAlgebra(-26, -29)
    ) == QuaternionAlgebra(-5423, -3)


def test_genus_report():
    report = genus_report([HAMILTON, D13, QuaternionAlgebra(-1, -7)])
    data = report.to_json()
    assert data["algebras"] == [[-1, -1], [-1, -3], [-1, -7]]
    verdicts = {tuple(e["pair"]): e["witness"] for e in data["entries"]}
    assert verdicts == {(0, 1): -2, (0, 2): -3, (1, 2): -2}
    iso = genus_report([HAMILTON, QuaternionAlgebra(-2, -1)]).to_json()
    assert iso["entries"][0]["isomorphic"] is True
    assert iso["entries"][0]["witness"] is None
    with pytest.raises(PreconditionError):
        genus_report([HAMILTON, QuaternionAlgebra(1, 5)])


def _embeds_by_pure_form(alg, c):
    """The subfield route as first written: the pure quaternions represent c."""
    return represents(alg.pure_form(), squarefree_part(c))


entry = st.integers(min_value=-300, max_value=300).filter(bool)


@given(entry, entry, st.data())
@settings(max_examples=300, deadline=None)
def test_subfield_membership_from_ramification_matches_the_pure_form(a, b, data):
    alg = QuaternionAlgebra.of(a, b)
    ramified = [v.prime for v in ramification(alg) if v.prime is not None]
    c = data.draw(st.integers(min_value=-60, max_value=60).filter(bool), label="class")
    if ramified and data.draw(st.booleans(), label="divisible by a ramified prime"):
        c *= data.draw(st.sampled_from(ramified))
    c *= data.draw(st.integers(min_value=1, max_value=12), label="square root") ** 2
    if data.draw(st.booleans(), label="fraction"):
        c = Fraction(c, data.draw(st.integers(min_value=2, max_value=30), label="denominator"))
    if squarefree_part(c) == 1:
        with pytest.raises(PreconditionError):
            contains_subfield(alg, c)
    else:
        assert contains_subfield(alg, c) == _embeds_by_pure_form(alg, c)


def test_subfield_reference_covers_split_and_division_algebras():
    for alg, c in [(QuaternionAlgebra(1, 5), -7), (QuaternionAlgebra(2, -1), 3)]:
        assert not is_division(alg)
        assert contains_subfield(alg, c) and _embeds_by_pure_form(alg, c)
    for c in (-1, -2, -3, -7, 2, 7, 14, Fraction(-3, 4), -12, Fraction(7, 2)):
        assert contains_subfield(D13, c) == _embeds_by_pure_form(D13, c)


def test_a_compare_reads_each_algebras_hasse_invariants_once(monkeypatch, capsys):
    calls = []
    hasse_invariants = quaternion.hasse_invariants

    def counted(entries):
        calls.append(tuple(entries))
        return hasse_invariants(entries)

    monkeypatch.setattr(quaternion, "hasse_invariants", counted)
    a1, a2 = QuaternionAlgebra(-1, -1), QuaternionAlgebra(-1, -3)  # new objects, no memo yet
    assert not is_isomorphic(a1, a2)
    assert is_linked(a1, a2)
    assert distinguishing_witness(a1, a2) == -2
    assert common_subfield_witness(a1, a2) == -1
    assert calls == [(-1, -1), (-1, -3)]
    calls.clear()
    assert cli.main(["quat", "compare", "-1,-1", "-1,-3", "--json"]) == 0
    capsys.readouterr()
    assert calls == [(-1, -1), (-1, -3)]  # the command parses its own two algebras


def test_copies_and_pickles_carry_no_memo():
    alg = QuaternionAlgebra(-1, -3)
    assert is_division(alg) and ramification(alg) == (INFINITE_PLACE, finite_place(3))
    assert {"_ramification", "_division"} <= vars(alg).keys()
    for clone in (copy.copy(alg), copy.deepcopy(alg), pickle.loads(pickle.dumps(alg))):
        assert clone == alg and clone is not alg
        assert vars(clone) == {"a": -1, "b": -3}
        assert ramification(clone) == ramification(alg) and is_division(clone)


def test_subfield_membership_is_norm_form_criterion():
    for c in (-1, 2, -2, 3, -3, 5, 7, -7):
        member = contains_subfield(D13, c)
        a, b = D13.a, D13.b
        assert member == is_isotropic(DiagonalForm.of([c, -a, -b, a * b]))


# Each cross-check runs with one route forced to disagree; an assert would vanish under -O.
_FORCED_DISAGREEMENTS = """
import sys
from quatgenus import forms, quaternion, search
print("optimize", sys.flags.optimize)


def hamilton():  # a new object per case: ramification and division are kept on the algebra
    return quaternion.QuaternionAlgebra(-1, -1)


def d13():
    return quaternion.QuaternionAlgebra(-1, -3)


def forced(module, name, value, check):
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        check()
    except AssertionError as error:
        print(error)
    finally:
        setattr(module, name, original)


# the norm-form route calls every algebra split
forced(quaternion, "is_isotropic", lambda form: True, lambda: quaternion.is_division(hamilton()))
forced(
    search, "isotropic_vector_search", lambda coefficients, bound: (1,) * len(coefficients),
    lambda: forms.isotropic_vector(forms.DiagonalForm.of([1, -1, 2]), 3),
)
# one ramified place: Hilbert reciprocity says the count is even
forced(
    quaternion, "hasse_invariants", lambda entries: [(quaternion.Place(2, 2), -1)],
    lambda: quaternion.ramification(hamilton()),
)
# the norm-form difference splits no hyperbolic plane
forced(quaternion, "witt_index", lambda form: 0, lambda: quaternion.is_linked(hamilton(), d13()))
# Hamilton ramifies at 2 alone, D13 nowhere: the connecting target has one place
forced(
    quaternion, "ramification",
    lambda alg: (quaternion.Place(2, 2),) if alg == hamilton() else (),
    lambda: quaternion.connecting_algebra(hamilton(), d13()),
)
# with no shell walk, the fallback's answer is the split algebra (1, 1)
forced(quaternion, "_CONNECTING_RANK", 0, lambda: forced(
    quaternion, "_constructed", lambda target: (1, 1),
    lambda: quaternion.connecting_algebra(hamilton(), d13()),
))
"""


def test_cross_checks_still_raise_under_python_optimize():
    paths = [str(Path(quatgenus.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    child = subprocess.run(
        [sys.executable, "-O", "-c", _FORCED_DISAGREEMENTS],
        capture_output=True, text=True, env=env, check=True,
    )
    assert child.stdout.splitlines() == [
        "optimize 1",
        "cross-check failed: ramification and norm form agree on division",
        "cross-check failed: the search returns a zero of the form",
        "cross-check failed: Hilbert reciprocity: an even number of places ramify",
        "cross-check failed: Albert form and norm-form difference agree on linkage",
        "cross-check failed: the connecting algebra ramifies at a nonempty, even set of places",
        "cross-check failed: the constructed algebra ramifies at the target",
    ]
