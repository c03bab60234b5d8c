"""Zeros of ternary forms by Legendre's descent, against the Hasse-Minkowski verdict."""

from math import gcd

from hypothesis import assume, example, given, settings, strategies as st

from quatgenus.arith import squarefree_part
from quatgenus.forms import DiagonalForm, is_isotropic
from quatgenus.conics import ternary_zero

square_class = st.integers(-10**6, 10**6).filter(bool).map(squarefree_part)


def _check(a, b, c):
    found = ternary_zero(a, b, c)
    assert (found is not None) == is_isotropic(DiagonalForm((a, b, c)))
    if found is not None:
        x, y, z = found
        assert a * x * x + b * y * y + c * z * z == 0
        assert min(found) >= 0 and gcd(x, y, z) == 1


@given(square_class, square_class, square_class)
@example(-1, -1, -1)
@example(1, 1, 1)
@example(-1, -2, 5)
@settings(max_examples=200, deadline=None)
def test_ternary_zero_exists_exactly_when_isotropic(a, b, c):
    _check(a, b, c)


@given(square_class, square_class, st.integers(0, 1000), st.integers(0, 1000))
# equal and opposite classes, shared primes
@example(5, 5, 1, 2)
@example(6, -6, 1, 1)
@settings(max_examples=200, deadline=None)
def test_ternary_zero_of_an_isotropic_form(a, b, x, y):
    # c is the class of -(a x^2 + b y^2), so <a,b,c> has the zero (x, y, 1)
    value = -(a * x * x + b * y * y)
    assume(value != 0)
    _check(a, b, squarefree_part(value))


def test_ternary_zero_worked_value():
    # 1000033 is a prime 1 mod 4: 913^2 + 408^2 = 1000033
    assert ternary_zero(1, 1, -1000033) == (913, 408, 1)
    # the remainder of <61,-22,-73,86,-1> after its first split: no zero of max-norm <= 200
    _check(-126071, 384807, -3477)
