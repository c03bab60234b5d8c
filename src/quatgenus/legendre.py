"""Zeros of ternary diagonal forms by Legendre's descent, built rather than searched.

a x^2 + b y^2 + c z^2 = 0 becomes w^2 = A y^2 + B z^2 with w = a x,
A = -ab and B = -ac (square factors moved into y and z). Lagrange's descent
(Cremona and Rusin, *Efficient solution of rational conics*, Math. Comp. 72
(2003), section 2) then solves w^2 = A y^2 + B z^2 with |A| <= |B|: a
square root r of A modulo B, taken with |r| <= |B|/2, gives
r^2 - A = B B0 d^2 with B0 square-free and |B0| < |B|, and a solution of
w^2 = A y^2 + B0 z^2 lifts to one of the original equation. |B0| <= |B|/4 + 1,
so the depth is logarithmic; the only search is the factoring of r^2 - A,
which Brent rho budgets (SearchExhausted).
"""

from __future__ import annotations

from math import gcd

from .arith import factor


def _primes(n: int) -> frozenset[int]:
    return frozenset(p for p, _ in factor(n).prime_powers)


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """r with r^2 = a mod p, by Tonelli-Shanks; None when a is not a square mod p."""
    a %= p
    if p == 2 or a == 0:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _sqrt_mod(a: int, primes: frozenset[int]) -> int | None:
    """r with r^2 = a modulo the product n of the primes and |r| <= n/2, by the
    Chinese remainder theorem; None when a is not a square modulo some prime."""
    r, n = 0, 1
    for p in sorted(primes):
        rp = _sqrt_mod_prime(a, p)
        if rp is None:
            return None
        r += n * ((rp - r) * pow(n, -1, p) % p)
        n *= p
    return r - n if 2 * r > n else r


def _descent(
    a: int, b: int, pa: frozenset[int], pb: frozenset[int]
) -> tuple[int, int, int] | None:
    """(w, y, z) != 0 with w^2 = a y^2 + b z^2, for square-free a and b whose
    primes are pa and pb; None when there is none."""
    if abs(a) > abs(b):
        found = _descent(b, a, pb, pa)
        return None if found is None else (found[0], found[2], found[1])
    if a == 1:
        return (1, 1, 0)
    if b == 1:
        return (1, 0, 1)
    if b == -1:  # then a = -1 too: w^2 = -y^2 - z^2
        return None
    r = _sqrt_mod(a, pb)
    if r is None:
        return None
    # r^2 != a, since a is square-free and not 1
    f = factor((r * r - a) // b)
    b0, d, p0 = f.sign, 1, []
    for p, e in f.prime_powers:
        if e % 2:
            b0 *= p
            p0.append(p)
        d *= p ** (e // 2)
    found = _descent(a, b0, pa, frozenset(p0))
    if found is None:
        return None
    w, y, z = found
    # (r w - a y)^2 - a (r y - w)^2 = (r^2 - a)(w^2 - a y^2) = b (b0 d z)^2
    return (r * w - a * y, r * y - w, b0 * d * z)


def ternary_zero(a: int, b: int, c: int) -> tuple[int, int, int] | None:
    """A primitive zero of a x^2 + b y^2 + c z^2 with nonnegative entries, for
    nonzero square-free a, b, c; None when the form is anisotropic."""
    pa, pb, pc = _primes(a), _primes(b), _primes(c)
    g, h = gcd(a, b), gcd(a, c)
    # (a x)^2 = A (g y)^2 + B (h z)^2, with A and B the square-free parts of -ab and -ac
    found = _descent(-(a // g) * (b // g), -(a // h) * (c // h), pa ^ pb, pa ^ pc)
    if found is None:
        return None
    w, y, z = found
    x, y, z = abs(w * g * h), abs(y * a * h), abs(z * a * g)
    k = gcd(x, y, z)
    return (x // k, y // k, z // k)
