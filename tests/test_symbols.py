"""Hilbert symbols: closed forms against the residue-search oracle."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from quatgenus import arith, forms, oracles, symbols
from quatgenus.arith import squarefree_part
from quatgenus.errors import InputError
from quatgenus.forms import DiagonalForm, is_isotropic_local
from quatgenus.oracles import hilbert_symbol_search, local_isotropic_search
from quatgenus.symbols import (
    INFINITE_PLACE,
    Place,
    finite_place,
    hasse_invariant,
    hasse_invariants,
    hilbert_symbol,
    local_is_square,
    parse_place,
    relevant_places_of,
)

PLACES = [INFINITE_PLACE, finite_place(2), finite_place(3), finite_place(5), finite_place(7)]

nonzero = st.integers(min_value=-200, max_value=200).filter(lambda n: n != 0)
# entries with square factors, so the reduction to square classes is exercised
unreduced = st.builds(lambda n, t: n * t * t, nonzero, st.integers(min_value=1, max_value=12))
# signed products over a small prime pool, times squares: most entries share a
# prime, so the count k of entries a prime divides takes both parities
pooled = st.builds(
    lambda sign, primes, t: sign * prod(primes) * t * t,
    st.sampled_from([1, -1]),
    st.lists(st.sampled_from([2, 3, 5, 7]), max_size=4),
    st.integers(min_value=1, max_value=6),
)


def product_of_symbols(coefficients, place):
    """The Hasse symbol by its definition: the product of (a_i, a_j) over i < j."""
    value = 1
    for i in range(len(coefficients)):
        for j in range(i + 1, len(coefficients)):
            value *= hilbert_symbol(coefficients[i], coefficients[j], place)
    return value


def test_worked_symbol_values():
    assert hilbert_symbol(-1, -1, finite_place(2)) == -1
    assert hilbert_symbol(-1, -1, INFINITE_PLACE) == -1
    assert hilbert_symbol(2, 3, finite_place(3)) == -1
    assert hilbert_symbol(3, 3, finite_place(2)) == -1
    assert hilbert_symbol(1, 7, finite_place(3)) == 1


def test_symbol_matches_search_oracle_exhaustively():
    for a in range(-30, 31):
        if a == 0:
            continue
        for b in range(-30, 31):
            if b == 0:
                continue
            for place in PLACES:
                assert hilbert_symbol(a, b, place) == hilbert_symbol_search(a, b, place), (
                    a,
                    b,
                    str(place),
                )


@given(nonzero, nonzero, st.sampled_from(PLACES))
@settings(max_examples=300)
def test_symbol_symmetry(a, b, place):
    assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)


@given(nonzero, nonzero, nonzero, st.sampled_from(PLACES))
@settings(max_examples=300)
def test_symbol_bilinearity(a, b, c, place):
    assert hilbert_symbol(a * b, c, place) == hilbert_symbol(a, c, place) * hilbert_symbol(
        b, c, place
    )


@given(nonzero, nonzero, st.integers(min_value=1, max_value=12), st.sampled_from(PLACES))
@settings(max_examples=300)
def test_symbol_square_class_invariance(a, b, t, place):
    assert hilbert_symbol(a * t * t, b, place) == hilbert_symbol(a, b, place)


@given(nonzero, st.sampled_from(PLACES))
@settings(max_examples=200)
def test_symbol_with_own_negative_splits(a, place):
    assert hilbert_symbol(a, -a, place) == 1


def test_symbol_accepts_rationals():
    assert hilbert_symbol(Fraction(-1, 4), Fraction(-9), INFINITE_PLACE) == -1
    assert hilbert_symbol(Fraction(5, 2), 3, finite_place(3)) == 1


def test_non_rational_input_is_refused():
    # 2.5 once truncated to 2, and (2, 3)_3 = -1 is not (5/2, 3)_3 = 1
    for call in (
        lambda: hilbert_symbol(2.5, 3, finite_place(3)),
        lambda: local_is_square(2.5, finite_place(3)),
        lambda: relevant_places_of([2.5]),
        lambda: hasse_invariants([2.5, 3]),
        lambda: hasse_invariant([2.5, 3], finite_place(3)),
    ):
        with pytest.raises(InputError):
            call()


def test_local_is_square():
    assert local_is_square(9, INFINITE_PLACE)
    assert not local_is_square(-9, INFINITE_PLACE)
    assert local_is_square(17, finite_place(2))  # 17 = 1 mod 8
    assert not local_is_square(3, finite_place(2))
    assert not local_is_square(2, finite_place(2))
    assert local_is_square(2, finite_place(7))  # 3^2 = 2 mod 7
    assert not local_is_square(3, finite_place(7))
    assert not local_is_square(7, finite_place(7))


CLASS_PLACES = [*PLACES, finite_place(11), finite_place(13), finite_place(23)]
squarefree = st.integers(min_value=-300, max_value=300).filter(
    lambda n: n != 0 and arith.squarefree_part(n) == n
)


@given(squarefree, squarefree, st.sampled_from(CLASS_PLACES))
@settings(max_examples=300, deadline=None)
def test_local_class_agrees_with_the_residue_search(s, t, place):
    # s and t share a class exactly when <s, -t> is isotropic, that is when s/t is a square
    same = symbols._local_class(s, place) == symbols._local_class(t, place)
    assert same == local_isotropic_search((s, -t), place)
    assert local_is_square(s, place) == local_isotropic_search((s, -1), place)


@pytest.mark.parametrize("place", CLASS_PLACES, ids=str)
def test_class_reps_list_each_class_once(place):
    reps = symbols._class_reps(place)
    assert len(reps) == (2 if place.is_infinite() else 8 if place.prime == 2 else 4)
    assert len({symbols._local_class(c, place) for c in reps}) == len(reps)
    for c in reps:
        assert arith.squarefree_part(c) == c
        assert [d for d in reps if local_isotropic_search((c, -d), place)] == [c]


def test_the_oracle_takes_only_places_from_symbols():
    borrowed = {
        name for name, value in vars(oracles).items()
        if getattr(value, "__module__", None) == symbols.__name__
    }
    assert borrowed == {"Place"}


def test_relevant_places():
    places = relevant_places_of([6, 5])
    assert places[0] == INFINITE_PLACE
    assert [p.prime for p in places[1:]] == [2, 3, 5]


def test_hasse_invariant_worked_value():
    assert hasse_invariant([1, 1, 3, 3], finite_place(3)) == -1
    assert hasse_invariant([1, 1], finite_place(3)) == 1
    assert hasse_invariants([-1, -1]) == ((INFINITE_PLACE, -1), (finite_place(2), -1))


@given(
    st.one_of(
        st.lists(unreduced, min_size=1, max_size=16),
        st.lists(pooled, min_size=1, max_size=16),
    )
)
@settings(max_examples=300)
def test_hasse_invariants_are_products_of_symbols(coefficients):
    listed = hasse_invariants(coefficients)
    assert [v for v, _ in listed] == relevant_places_of(coefficients)
    for v, e in listed:
        assert e == product_of_symbols(coefficients, v)
    # off the listed places the symbol is 1, and hasse_invariant reads the same table
    for v in PLACES + [finite_place(11), finite_place(13)]:
        assert hasse_invariant(coefficients, v) == product_of_symbols(coefficients, v)


@pytest.mark.parametrize(
    "coefficients, place, expected",
    [
        ([-1, -2, 3], INFINITE_PLACE, -1),  # r = 2
        ([-1, -1, -1, 5], INFINITE_PLACE, -1),  # r = 3
        ([3, 7, 5], finite_place(2), -1),  # k = 0
        ([2, 3], finite_place(2), -1),  # k = 1
        ([2, 6, 5], finite_place(2), -1),  # k = 2
        ([2, 5], finite_place(3), 1),  # k = 0
        ([3, 2], finite_place(3), -1),  # k = 1
        ([3, 6, 5], finite_place(3), 1),  # k = 2
        ([5, 10, 3], finite_place(5), -1),  # k = 2, epsilon(5) = 0
    ],
)
def test_hasse_symbol_branches(coefficients, place, expected):
    assert symbols._hasse_squarefree(coefficients, place.prime) == expected
    assert product_of_symbols(coefficients, place) == expected


def test_hasse_invariants_call_no_primality_test_and_no_pair_symbol(monkeypatch):
    coefficients = [-1, 2, 3, -5, 6, -7, 10, 11, -13, 14, 15, -21, 22, 26, -30, 35]
    relevant_places_of(coefficients)  # factoring tests its cofactors; warm its cache
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    is_prime = counted("is_prime", arith.is_prime)
    monkeypatch.setattr(arith, "is_prime", is_prime)
    monkeypatch.setattr(symbols, "is_prime", is_prime)
    assert len(hasse_invariants(coefficients)) == 7  # inf, 2, 3, 5, 7, 11, 13
    assert calls == Counter()
    # a composite place is refused when it is built
    with pytest.raises(InputError):
        hilbert_symbol(15, 2, Place(15, 15))
    assert calls == Counter(is_prime=1)


def _fresh_places(monkeypatch):
    """An empty table of finite places for one test; the shared table is back after it."""
    table = lru_cache(maxsize=None)(symbols._prime_place.__wrapped__)
    monkeypatch.setattr(symbols, "_prime_place", table)


def test_local_classes_test_each_prime_once_and_refuse_a_composite_place(monkeypatch):
    calls = Counter()
    is_prime = arith.is_prime

    def counted(n):
        calls[n] += 1
        return is_prime(n)

    values = [t for t in range(-30, 31) if t]
    classes = [squarefree_part(t) for t in values]  # factoring tests its cofactors; warm it
    binaries = [DiagonalForm((s, 3)) for s in classes]
    for q in binaries:
        forms.invariants(q)
    _fresh_places(monkeypatch)
    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(symbols, "is_prime", counted)
    seven, eleven, thirteen = finite_place(7), finite_place(11), finite_place(13)
    assert calls == Counter({7: 1, 11: 1, 13: 1})
    # the symbol, the class helpers and local isotropy read the place's prime as proven
    for t, s, q in zip(values, classes, binaries):
        local_is_square(t, seven)
        symbols._local_class(s, eleven)
        symbols._class_reps(thirteen)
        hilbert_symbol(t, 3, thirteen)
        is_isotropic_local(q, seven)
    assert calls == Counter({7: 1, 11: 1, 13: 1})
    for _ in range(2):  # a composite place is refused at every build
        with pytest.raises(InputError, match="not a prime: 15"):
            Place(15, 15)
    assert calls[15] == 2


@pytest.mark.parametrize(
    "key, prime",
    [(15, 15), (9, 9), (3, 5), (5, None), (True, True), (7.0, 7.0), (1, 1), (False, None)],
)
def test_only_the_real_place_and_primes_make_a_place(key, prime):
    # so neither the closed forms nor the residue-search oracle is handed a composite place
    with pytest.raises(InputError, match="not a prime: "):
        Place(key, prime)


def test_every_route_refuses_an_odd_composite_modulus():
    # a place is tested when it is built, so no symbol takes a composite one
    for build in (
        lambda: finite_place(15), lambda: parse_place("15"), lambda: symbols.place_from_json(15),
    ):
        with pytest.raises(InputError, match="not a prime: 15"):
            build()
    # legendre takes a bare int, and tests it; 7.0 would pass the primality test
    for modulus in (15, 2, 7.0, True):
        with pytest.raises(InputError, match="modulus must be an odd prime"):
            arith.legendre(2, modulus)


def test_finite_place_tests_each_prime_once_and_refuses_a_composite_every_time(monkeypatch):
    calls = Counter()
    is_prime = arith.is_prime

    def counted(n):
        calls[n] += 1
        return is_prime(n)

    _fresh_places(monkeypatch)
    monkeypatch.setattr(symbols, "is_prime", counted)
    for _ in range(3):
        assert finite_place(2) is finite_place(2)
        assert finite_place(13) is finite_place(13)
        assert parse_place("7") is finite_place(7)
        assert symbols.place_from_json(11) is finite_place(11)
        with pytest.raises(InputError, match="not a prime: 15"):
            finite_place(15)
    assert calls == Counter({2: 1, 13: 1, 7: 1, 11: 1, 15: 3})
    # equal to 3 yet no int: each is refused before the cache could answer it from 3's entry
    finite_place(3)
    for value in (3.0, Fraction(3), True):
        with pytest.raises(InputError, match="not a prime"):
            finite_place(value)
    assert calls[3] == 1


def test_a_prime_has_one_place_object():
    q = DiagonalForm((1, -7, 14))
    seven = next(v for v in relevant_places_of(q.coefficients) if v.prime == 7)
    assert finite_place(7) is seven
    assert next(v for v in forms.relevant_places(q) if v.prime == 7) is seven
    for _ in range(2):  # a composite is refused at every call, never entered in the table
        with pytest.raises(InputError, match="not a prime: 21"):
            finite_place(21)


def test_parse_place():
    assert parse_place("inf") == INFINITE_PLACE
    assert parse_place("2") == finite_place(2)
    assert parse_place("13") == finite_place(13)
    with pytest.raises(InputError):
        parse_place("4")
    with pytest.raises(InputError):
        parse_place("x")


def test_place_ordering_real_then_primes():
    assert sorted([finite_place(3), INFINITE_PLACE, finite_place(2)]) == [
        INFINITE_PLACE,
        finite_place(2),
        finite_place(3),
    ]


def test_product_formula_spot():
    for a, b in [(-1, -1), (3, 5), (-7, 10), (30, -15)]:
        product = 1
        for place in relevant_places_of([a, b]):
            product *= hilbert_symbol(a, b, place)
        assert product == 1
