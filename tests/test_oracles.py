"""The residue-search oracle against the dict fold it replaced.

The oracle folds reachable sums as bitmasks, once per key of square-class
counts, and reads every later verdict with that key from its table. The tests
check the fold against the reference, the key's exactness (forms with the same
key get the reference's verdict), that call order does not change a verdict,
and that coefficients are checked before the table is read.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from quatgenus import oracles
from quatgenus.arith import is_prime
from quatgenus.errors import InputError
from quatgenus.forms import DiagonalForm, is_isotropic_local, relevant_places
from quatgenus.oracles import _zero_reached_ready, hilbert_symbol_search, local_isotropic_search
from quatgenus.selftest import _POOL
from quatgenus.symbols import finite_place, hilbert_symbol

PRIMES = [p for p in range(2, 200) if is_prime(p)]
WIDE_PRIMES = [61, 67, 97, 101, 127]
SQUAREFREE = [m for m in range(1, 400) if all(m % (q * q) for q in range(2, 20))]


def _residue_search_reference(coefficients, place):
    """Reference for local_isotropic_search: reachable sums folded as dicts, pair by pair."""

    def _fold_reachable(contributions, modulus):
        """Achievable sums mod modulus; the flag tracks a Hensel-ready coordinate."""
        reach = {0: False}
        for contrib in contributions:
            new = {}
            for v1, f1 in reach.items():
                for v2, f2 in contrib.items():
                    v = (v1 + v2) % modulus
                    f = f1 or f2
                    if f or not new.get(v, False):
                        new[v] = new.get(v, False) or f
            reach = new
        return reach

    def _coordinate_values_odd(a, p):
        # value a*x^2 mod p with flag "x is a unit", for a unit coefficient a
        out = {}
        for x in range(p):
            v = a * x * x % p
            f = x != 0
            if f or not out.get(v, False):
                out[v] = out.get(v, False) or f
        return out

    def _solvable_with_unit_level(unit_coeffs, next_coeffs, p):
        if not unit_coeffs:
            return False
        if p == 2:
            contribs = []
            for a in unit_coeffs:
                # squares mod 8 are 0, 1, 4; x odd gives the liftable case
                c = {0: False}
                v1 = a % 8
                c[v1] = True
                v4 = 4 * a % 8
                if not c.get(v4, False):
                    c.setdefault(v4, False)
                contribs.append(c)
            for u in next_coeffs:
                c = {0: False}
                c.setdefault(2 * u % 8, False)
                contribs.append(c)
            reach = _fold_reachable(contribs, 8)
            return reach.get(0, False)
        contribs = [_coordinate_values_odd(a, p) for a in unit_coeffs]
        reach = _fold_reachable(contribs, p)
        return reach.get(0, False)

    if len(coefficients) < 2:
        return False
    if place.is_infinite():
        return any(c > 0 for c in coefficients) and any(c < 0 for c in coefficients)
    p = place.prime
    units = [c for c in coefficients if c % p != 0]
    nexts = [c // p for c in coefficients if c % p == 0]
    return _solvable_with_unit_level(units, nexts, p) or _solvable_with_unit_level(
        nexts, units, p
    )


@st.composite
def form_at_prime(draw):
    """A square-free form and a prime, with some coefficients divisible by the prime."""
    p = draw(st.sampled_from(PRIMES))
    coefficients = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        # a square-free cofactor prime to p, then a sign and maybe one factor p
        cofactor = draw(st.sampled_from([m for m in SQUAREFREE if m % p != 0]))
        sign = draw(st.sampled_from([1, -1]))
        coefficients.append(sign * cofactor * (p if draw(st.booleans()) else 1))
    return tuple(coefficients), p


@given(form_at_prime())
@example(((1, 1, 1, 1), 2))  # anisotropic at 2: both block orders run to the end
@example(((3, 6, -10, 5, 7), 2))  # both blocks nonempty at 2
@example(((1, -1, 3, 5, 6), 7))  # <1,-1> is a plane: stops after two of five coordinates
@example(((1, 1, 7, 7), 7))  # -1 is not a square mod 7: no early stop, 0 is never ready
@example(((1, 5, 97, 3 * 97), 97))  # the swapped order: only the p-divisible block is ready
@settings(max_examples=200, deadline=None)
def test_bit_parallel_search_matches_the_dict_fold(case):
    coefficients, p = case
    place = finite_place(p)
    assert local_isotropic_search(coefficients, place) == _residue_search_reference(
        coefficients, place
    )


def test_the_fold_stops_once_zero_is_reached_ready():
    # <1,-1,...> at 7: the first two coordinates reach 0 with a unit, so the rest is never read
    coordinates = iter([([1, 2, 4], ()), ([6, 5, 3], ()), ([1], ())])
    assert _zero_reached_ready(coordinates, 7)
    assert next(coordinates) == ([1], ())
    # <1,1> at 7 never reaches 0 ready: both coordinates are read and the answer is False
    coordinates = iter([([1, 2, 4], ()), ([1, 2, 4], ())])
    assert not _zero_reached_ready(coordinates, 7)
    assert next(coordinates, None) is None


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_hilbert_symbol_search_matches_closed_form_past_one_word(p):
    # at these primes a rotated reachable-sum mask is wider than 64 bits
    entries = [s * m * e for s in (1, -1) for m in (1, 2, 3, 5, 6, 7, 11) for e in (1, p)]
    place = finite_place(p)
    for a in entries:
        for b in entries:
            assert hilbert_symbol_search(a, b, place) == hilbert_symbol(a, b, place), (a, b)


@given(
    st.sampled_from(WIDE_PRIMES),
    st.lists(
        st.tuples(st.sampled_from([1, -1, 2, -2, 3, -3, 5, -5, 6, -7, 13]), st.booleans()),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=200, deadline=None)
def test_local_verdicts_match_residue_search_past_one_word(p, entries):
    q = DiagonalForm(tuple(m * (p if divisible else 1) for m, divisible in entries))
    place = finite_place(p)
    assert is_isotropic_local(q, place) == local_isotropic_search(q.coefficients, place)


@lru_cache(maxsize=None)
def _squares_mod(p):
    return frozenset(x * x % p for x in range(1, p))


def _key_class(c, p):
    """What the verdict key reads of c: the residue mod 8 of c or c // 2 at 2, else
    whether c, or its cofactor c // p, is a square mod p; computed here from x^2 mod p."""
    if p == 2:
        return c % 2, (c if c % 2 else c // 2) % 8
    divisible = c % p == 0
    return divisible, (c // p if divisible else c) % p in _squares_mod(p)


@lru_cache(maxsize=None)
def _entries_with_key(p, key):
    """Square-free entries c and c * p, c prime to p, whose key class is key."""
    return [
        e
        for m in SQUAREFREE
        if m % p
        for s in (1, -1)
        for e in (s * m, s * m * p)
        if _key_class(e, p) == key
    ]


@st.composite
def form_and_same_key_form(draw):
    """A form at a prime and a second form whose entries have the same key classes."""
    coefficients, p = draw(form_at_prime())
    same = tuple(draw(st.sampled_from(_entries_with_key(p, _key_class(c, p)))) for c in coefficients)
    return coefficients, same, p


@given(form_and_same_key_form())
@example(((1, 2), (17, 34), 2))  # at 2: the residue 1 and the cofactor 1 mod 8
@example(((1, 1, 7, 7), (2, 11, 14, 77), 7))  # two units and two cofactors in Q
@example(((-1, -7 * 97), (-6, -5 * 97), 97))  # -1 and -6 are squares mod 97, -7 and -5 are not
@settings(max_examples=200, deadline=None)
def test_forms_with_one_key_get_the_reference_verdict(case):
    coefficients, same, p = case
    place = finite_place(p)
    oracles._VERDICTS.clear()
    # the first form folds and stores its verdict; the second reads the stored one
    verdict = local_isotropic_search(coefficients, place)
    assert verdict == _residue_search_reference(coefficients, place)
    assert local_isotropic_search(same, place) == verdict
    assert _residue_search_reference(same, place) == verdict


def test_verdicts_do_not_depend_on_call_order():
    cases = [
        (coefficients, place)
        for dim in range(1, 5)
        for coefficients in combinations_with_replacement(_POOL, dim)
        for place in relevant_places(DiagonalForm(coefficients))
    ]
    oracles._VERDICTS.clear()
    forward = [local_isotropic_search(c, v) for c, v in cases]
    oracles._VERDICTS.clear()
    backward = [local_isotropic_search(c, v) for c, v in reversed(cases)]
    assert forward == backward[::-1]
    assert forward == [is_isotropic_local(DiagonalForm(c), v) for c, v in cases]


def test_coefficients_are_checked_before_the_verdict_table():
    place = finite_place(3)
    # (1, 2) stores the key of one square and one non-square unit at 3
    assert local_isotropic_search((1, 2), place)
    # 18 = 2 * 3^2 is not square-free: read as a cofactor 6 it would find a key
    for coefficients in ((1, 18), (0, 1), (1, Fraction(2))):
        with pytest.raises(InputError, match="is not a nonzero square-free integer"):
            local_isotropic_search(coefficients, place)
