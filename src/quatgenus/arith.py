"""Exact integer and rational arithmetic underpinning the form machinery.

Everything here is integer-exact: rationals are `fractions.Fraction`,
factorization is deterministic trial division with a Brent-rho fallback,
and square classes are represented by their unique square-free integer
representative (sign included).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from threading import Lock
from typing import Iterable, Iterator

from .errors import InputError, SearchExhausted, _quoted

Rational = Fraction

_TRIAL_BOUND = 1_000_000

# Brent-rho steps for one split, over all parameters: a smallest prime factor
# near 1e9 takes about 65,000, and running out takes a fraction of a second
_RHO_BUDGET = 1 << 18

# Miller-Rabin witness set, deterministic for all n < psi_12 (Sorenson-Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017); psi_12 itself
# = 399165290221 * 798330580441 is the least composite passing all twelve bases.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Primality test: Miller-Rabin with a fixed witness set, deterministic below
    psi_12, and strong Baillie-PSW (base 2 is among the witnesses) from psi_12 on."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_12 or _is_strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 13 with no factor <= 13."""
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists for a square
    d_param = 5  # Selfridge: first of 5, -7, 9, -11, ... with (D/n) = -1
    while True:
        j = _jacobi(d_param, n)
        if j == -1:
            break
        if j == 0:
            return False  # gcd(D, n) > 1 and |D| < n
        d_param = -d_param - 2 if d_param > 0 else -d_param + 2
    q = (1 - d_param) // 4  # P = 1

    def half(x: int) -> int:
        x %= n
        return (x + n if x % 2 else x) // 2

    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    u, v, qk = 1, 1, q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(d_param * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _brent_rho(n: int) -> int:
    """Find a nontrivial factor of odd composite n. Deterministic parameter sweep;
    SearchExhausted after _RHO_BUDGET steps."""
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            steps += 2 * r
            if steps > _RHO_BUDGET:
                raise SearchExhausted(f"no factor of {n} found within {_RHO_BUDGET} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"factor search failed for {n}")


@dataclass(frozen=True)
class Factorization:
    """Sign and ascending (prime, exponent) pairs; value() reconstructs the input."""

    sign: int
    prime_powers: tuple[tuple[int, int], ...]

    def value(self) -> int:
        out = self.sign
        for p, e in self.prime_powers:
            out *= p**e
        return out


@lru_cache(maxsize=65536)
def _factor_positive(n: int) -> tuple[tuple[int, int], ...]:
    assert n >= 1
    powers: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            powers[p] = powers.get(p, 0) + 1
            n //= p
    # 6k+-1 wheel up to the trial bound
    d = 7
    step = 4
    while d <= _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            powers[d] = powers.get(d, 0) + 1
            n //= d
        d += step
        step = 6 - step
    if d * d > n:  # every prime below d is divided out: n is 1 or a prime
        if n > 1:
            powers[n] = powers.get(n, 0) + 1
        return tuple(sorted(powers.items()))
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            powers[m] = powers.get(m, 0) + 1
            continue
        g = _brent_rho(m)
        stack.append(g)
        stack.append(m // g)
    return tuple(sorted(powers.items()))


def factor(n: int) -> Factorization:
    """Factor a nonzero integer; raises ValueError on zero."""
    if n == 0:
        raise InputError("cannot factor zero")
    sign = 1 if n > 0 else -1
    return Factorization(sign, _factor_positive(abs(n)))


def squarefree_part(x: int | Rational) -> int:
    """The square-free integer in the square class of a nonzero int or Fraction; nothing else."""
    if type(x) is int:  # first: a Fraction test goes through ABCMeta; exact: a bool is an int
        n = x
    elif isinstance(x, Fraction):
        n = x.numerator * x.denominator
    else:
        raise InputError(f"not an integer or a fraction: {_quoted(x)}")
    if n == 0:
        raise InputError("zero has no square class")
    return _squarefree_int(n)


# keyed after the type dispatch: lru_cache keys by equality, so a cache on
# squarefree_part would answer 2.0 with the entry made for Fraction(2)
@lru_cache(maxsize=4096)
def _squarefree_int(n: int) -> int:
    f = factor(n)
    out = f.sign
    for p, e in f.prime_powers:
        if e % 2 == 1:
            out *= p
    return out


def squarefree_product(classes: Iterable[int]) -> int:
    """The square-free part of a product of square-free integers. Common factors
    cancel by gcd, so nothing is factored: the product may hold the square of a
    prime too large for rho."""
    out = 1
    for c in classes:
        g = gcd(out, c)
        out = (out // g) * (c // g)
    return out


def is_squarefree(n: int) -> bool:
    """True when a nonzero integer equals its own square-free part."""
    return n != 0 and squarefree_part(n) == n


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p: 0, 1, or -1."""
    if type(p) is not int or p == 2 or not is_prime(p):
        raise InputError(f"modulus must be an odd prime, got {_quoted(p)}")
    return _euler_criterion(a, p)


def _euler_criterion(a: int, p: int) -> int:
    """(a/p) as a^((p-1)/2) mod p, for a p the caller knows to be an odd prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def squarefree_classes(limit: int) -> list[int]:
    """Square-free integers with |c| <= limit, ordered by |c| ascending, positive first."""
    return [1, *iter_witnesses(limit)] if limit >= 1 else []


_SIEVE_BLOCK = 1024  # integers the square-free table sieves at a time


class _SquarefreeTable:
    """The square-free positive integers through `end`, ascending. Each growth sieves
    one block past `end`, never past the bound asked for: in it, the multiples of
    d^2 are struck for every d >= 2 with d^2 at most the block's top."""

    def __init__(self) -> None:
        self.values: list[int] = []
        self.end = 0
        self._lock = Lock()

    def grow(self, bound: int) -> None:
        with self._lock:  # two readers must not both append the next block
            if self.end >= bound:
                return
            lo = self.end + 1
            top = min(self.end + _SIEVE_BLOCK, bound)
            keep = bytearray(b"\1") * (top - lo + 1)
            for d in range(2, isqrt(top) + 1):
                square = d * d
                first = -lo % square  # offset of the block's first multiple of d^2
                keep[first::square] = bytes(len(range(first, len(keep), square)))
            self.values.extend(compress(range(lo, top + 1), keep))
            self.end = top


_SQUAREFREE = _SquarefreeTable()


def iter_witnesses(limit: int) -> Iterator[int]:
    """The square-class witness order: |c| ascending, positive first, c = 1 skipped.
    Read from the sieved table, which grows only as far as the iteration goes."""
    table = _SQUAREFREE
    i = 0
    while True:
        if i == len(table.values):
            if table.end >= limit:
                return
            table.grow(limit)
            continue
        m = table.values[i]
        if m > limit:
            return
        if m != 1:
            yield m
        yield -m
        i += 1


def witness_sequence(limit: int) -> list[int]:
    """The witness order up to |c| <= limit, as a list."""
    return list(iter_witnesses(limit))


def parse_rational(text: str) -> Rational:
    """Parse '-3', '3/4' style input into an exact rational."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {_quoted(text)}") from exc
