"""Integer kernel: primality, factorization, square-free parts, residues."""

import sys
import threading
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from quatgenus import arith
from quatgenus.arith import (
    factor,
    is_prime,
    is_squarefree,
    iter_witnesses,
    legendre,
    parse_rational,
    squarefree_classes,
    squarefree_part,
    squarefree_product,
    witness_sequence,
)
from quatgenus.errors import InputError, SearchExhausted
from quatgenus.forms import DiagonalForm
from quatgenus.quaternion import QuaternionAlgebra

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_small_table():
    for n in range(-3, 50):
        assert is_prime(n) == (n in SMALL_PRIMES)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    assert is_prime(10**18 + 9)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    # psi_12 and psi_13 pass Miller-Rabin for every base 2..37 (Sorenson-Webster 2017)
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    assert 1287836182261 * 2575672364521 == 3317044064679887385961981
    assert not is_prime(3317044064679887385961981)
    assert is_prime(2**89 - 1)
    assert is_prime(2**127 - 1)
    assert not is_prime((2**89 - 1) * (2**107 - 1))
    assert not is_prime((2**61 - 1) ** 2)


def test_factor_known_product():
    f = factor(9991)
    assert f.sign == 1
    assert f.prime_powers == ((97, 1), (103, 1))


def test_factor_gives_up_on_two_large_primes():
    # rho would need on the order of 2^30 steps to split this
    with pytest.raises(SearchExhausted):
        factor((2**61 - 1) * (2**59 - 55))


def test_a_cofactor_below_the_square_of_the_trial_divisor_needs_no_primality_test(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    arith._factor_positive.cache_clear()
    monkeypatch.setattr(arith, "is_prime", counted)
    # trial division stops at d = 11 with 101 left, and 11^2 > 101: 101 is prime
    assert factor(2 * 3 * 7 * 101).prime_powers == ((2, 1), (3, 1), (7, 1), (101, 1))
    assert factor(7 * 7 * 11).prime_powers == ((7, 2), (11, 1))
    assert factor(49).prime_powers == ((7, 2),)
    assert calls == []
    # past the trial bound the cofactor may still be composite, so it is tested
    big = 10_000_000_000_037  # a prime above the square of the trial bound
    assert factor(6 * big).prime_powers == ((2, 1), (3, 1), (big, 1))
    assert calls == [big]


def test_factor_sign_and_units():
    assert factor(-12).sign == -1
    assert factor(-12).prime_powers == ((2, 2), (3, 1))
    assert factor(1).prime_powers == ()
    with pytest.raises(InputError):
        factor(0)


@given(st.integers(min_value=2, max_value=10**9))
# past trial division, each is split by Brent's rho: two primes, a square, and a
# prime times a twelve-digit prime
@example(1000003 * 1000033)
@example(1000003**2)
@example(1000003 * 999999000001)
@settings(max_examples=200)
def test_factor_reconstructs(n):
    f = factor(n)
    for p, e in f.prime_powers:
        assert is_prime(p)
        assert e >= 1
    assert f.value() == n


def test_squarefree_part_values():
    assert squarefree_part(12) == 3
    assert squarefree_part(-8) == -2
    assert squarefree_part(1) == 1
    assert squarefree_part(Fraction(-8, 27)) == -6
    assert squarefree_part(Fraction(1, 4)) == 1
    assert squarefree_part(Fraction(5, 2)) == 10


def test_squarefree_part_rejects_non_rational_input():
    # with 2 and Fraction(2) reduced first, a memo keyed before the type test would answer 2.0
    assert squarefree_part(2) == squarefree_part(Fraction(2)) == 2
    for value in (2.0, 2.5, 3.0, "6", None):
        with pytest.raises(InputError):
            squarefree_part(value)


def test_bools_are_not_rationals():
    # True == 1 and hashes like it: a bool must be refused before any int path or table
    for build in (
        lambda: squarefree_part(True),
        lambda: DiagonalForm.of([True, 2]),
        lambda: QuaternionAlgebra.of(True, -1),
    ):
        with pytest.raises(InputError):
            build()


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200)
def test_squarefree_part_is_squarefree_divisor(n):
    s = squarefree_part(n)
    assert is_squarefree(s)
    # n / s is a perfect square
    q = n // s
    assert s * q == n
    assert int(q**0.5 + 0.5) ** 2 == q


def test_legendre_table_mod_7():
    values = {a: legendre(a, 7) for a in range(1, 7)}
    assert values == {1: 1, 2: 1, 3: -1, 4: 1, 5: -1, 6: -1}
    assert legendre(7, 7) == 0
    assert legendre(3, 7) == -1


def test_legendre_rejects_non_odd_prime():
    with pytest.raises(InputError):
        legendre(3, 8)
    with pytest.raises(InputError):
        legendre(3, 2)


@given(st.integers(min_value=1, max_value=1000), st.sampled_from([3, 5, 7, 11, 13]))
@settings(max_examples=200)
def test_legendre_multiplicative(a, p):
    assert legendre(a * a, p) in (0, 1)
    assert legendre(a, p) * legendre(a, p) == (0 if a % p == 0 else 1)


def test_squarefree_classes_order():
    assert squarefree_classes(7) == [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7]
    assert squarefree_classes(1) == [1, -1] and squarefree_classes(0) == []


def test_witness_sequence_skips_one():
    assert witness_sequence(6) == [-1, 2, -2, 3, -3, 5, -5, 6, -6]


def test_witness_order_is_lazy_and_matches_the_list():
    assert list(islice(iter_witnesses(10**12), 5)) == [-1, 2, -2, 3, -3]
    assert list(iter_witnesses(50)) == witness_sequence(50)


def _witnesses_by_factoring(limit):
    """The witness order as first written: each integer tested by factoring it."""
    for m in range(1, limit + 1):
        if is_squarefree(m):
            if m != 1:
                yield m
            yield -m


_SIEVE_LIMITS = [0, 1, 2, 1023, 1024, 1025, 5000]  # the first sieve block ends at 1024


@pytest.mark.parametrize("order", [_SIEVE_LIMITS, _SIEVE_LIMITS[::-1]])
def test_sieved_witness_order_matches_factoring(monkeypatch, order):
    table = arith._SquarefreeTable()
    monkeypatch.setattr(arith, "_SQUAREFREE", table)
    for limit in order:  # ascending, the table grows; descending, it is read past its bound
        end = table.end
        assert list(iter_witnesses(limit)) == list(_witnesses_by_factoring(limit))
        assert table.end == max(end, limit)  # never sieved past the bound asked for
    assert arith._SIEVE_BLOCK == 1024


def test_threads_reading_one_table_each_get_the_whole_order(monkeypatch):
    expected = list(_witnesses_by_factoring(5000))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            table = arith._SquarefreeTable()
            monkeypatch.setattr(arith, "_SQUAREFREE", table)
            results = [None] * 6
            start = threading.Barrier(len(results), timeout=30)

            def read(k):
                start.wait()  # all reach the empty table together
                results[k] = list(iter_witnesses(5000))

            threads = [threading.Thread(target=read, args=(k,)) for k in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * len(results)
            assert table.end == 5000 and table.values == [-m for m in expected if m < 0]
    finally:
        sys.setswitchinterval(interval)


def test_witness_order_sieves_no_further_than_it_is_read(monkeypatch):
    table = arith._SquarefreeTable()
    monkeypatch.setattr(arith, "_SQUAREFREE", table)
    witnesses = iter_witnesses(10**15)
    assert (next(witnesses), next(witnesses)) == (-1, 2)
    assert table.end == arith._SIEVE_BLOCK and len(table.values) < arith._SIEVE_BLOCK


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("10") == Fraction(10)
    with pytest.raises(InputError):
        parse_rational("x")
    with pytest.raises(InputError):
        parse_rational("1/0")


@given(st.lists(st.integers(-10**6, 10**6).filter(bool).map(squarefree_part), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_squarefree_product_is_the_square_class_of_the_product(classes):
    product = 1
    for c in classes:
        product *= c
    assert squarefree_product(classes) == squarefree_part(product)


def test_squarefree_product_factors_nothing():
    # the square of the Mersenne prime 2^61 - 1 is past rho's budget; gcd cancels it
    p = 2**61 - 1
    assert squarefree_product([p, -3 * p, 5]) == -15
    with pytest.raises(SearchExhausted):
        squarefree_part(p * p * -15)
