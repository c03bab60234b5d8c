"""Places of Q and Hilbert symbols in closed form.

Symbols are evaluated on square-free representatives, so they are
square-class invariant by construction. The closed forms are the
standard ones: the sign rule at the real place, Legendre-symbol
formulas at odd primes, and the epsilon/omega unit characters at 2
(Serre, A Course in Arithmetic, Ch. III Thm. 1). A form's Hasse symbol
at a place is their product over pairs of entries; by bilinearity it is
read in one pass over the entries (Serre, Ch. IV Sec. 2; Lam,
Introduction to Quadratic Forms over Fields, Ch. V), and the Hilbert
symbol is that pass over two entries.

A Place is checked when it is built: only the real place Place(0, None) and
Place(p, p) for an exact-int prime p exist, so no symbol or class helper
tests a place's prime again. Each prime's Place is one object, from one
table (_prime_place) that finite_place, the place parsers and the relevant
places of a form all read, so each prime is tested once.

A square-free t's square class at a place is _local_class(t, place), and
_class_reps(place) lists one representative of each class there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Iterable, Sequence

from .arith import Rational, _euler_criterion, _factor_positive, is_prime, squarefree_part
from .errors import InputError, _is_int, _quoted


@dataclass(frozen=True, order=True)
class Place:
    """A place of Q; prime=None marks the real place. Ordering: real first.

    Only Place(0, None) and Place(p, p) for an exact-int prime p can be built:
    anything else is an InputError, so every Place's prime is a prime."""

    sort_key: int
    prime: int | None

    def __post_init__(self) -> None:
        key, p = self.sort_key, self.prime
        # exact ints only: True or 7.0 equals an int yet is no place
        if p is None:
            valid = type(key) is int and key == 0
        else:
            valid = type(p) is int and type(key) is int and key == p and is_prime(p)
        if not valid:
            raise InputError(f"not a prime: {_quoted(p if key == p else self)}")

    def is_infinite(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)

    def to_json(self) -> str | int:
        return "inf" if self.prime is None else self.prime


INFINITE_PLACE = Place(0, None)


def finite_place(p: int) -> Place:
    # the type test comes first: lru_cache keys by equality, so 3.0 or True would
    # find an int's entry
    if type(p) is not int:
        raise InputError(f"not a prime: {_quoted(p)}")
    return _prime_place(p)


@lru_cache(maxsize=4096)
def _prime_place(p: int) -> Place:
    """The one table of finite places: each prime's Place, tested prime once when it is
    built. A p that fails is tested again at every call, since errors are not cached."""
    return Place(p, p)


def parse_place(text: str) -> Place:
    """Parse 'inf' or a prime into a Place."""
    if text in ("inf", "infinity", "oo", "real"):
        return INFINITE_PLACE
    try:
        p = int(text)
    except ValueError as exc:
        raise InputError(f"not a place: {_quoted(text)}") from exc
    return finite_place(p)


def place_from_json(value: str | int) -> Place:
    if value == "inf":
        return INFINITE_PLACE
    if _is_int(value):
        return finite_place(value)
    raise InputError(f"not a place: {_quoted(value)}")


def _split_at(n: int, p: int) -> tuple[int, int]:
    """Write square-free n as p^alpha * u with p not dividing u; return (alpha, u)."""
    if n % p == 0:
        return 1, n // p
    return 0, n


def hilbert_symbol(a: int | Rational, b: int | Rational, place: Place) -> int:
    """Hilbert symbol (a,b) at a place of Q; arguments must be nonzero. It is the
    two-entry case of the one-pass Hasse symbol."""
    return _hasse_squarefree((squarefree_part(a), squarefree_part(b)), place.prime)


def _class_reps(place: Place) -> tuple[int, ...]:
    """Square-free representatives of the square classes at a place, one per class."""
    p = place.prime
    if p is None:
        return (1, -1)
    if p == 2:
        return (1, -1, 5, -5, 2, -2, 10, -10)
    # the least non-residue is prime, so square-free
    n = next(m for m in count(2) if _euler_criterion(m, p) == -1)
    return (1, n, p, n * p)


def _local_class(t: int, place: Place) -> tuple[int, int]:
    """(valuation parity, unit class) of a square-free t at a place, (0, 1) for squares: the
    unit class is the sign at the real place, the unit mod 8 at 2, the Legendre symbol at odd
    p, by Euler's criterion."""
    p = place.prime
    if p is None:
        return (0, 1 if t > 0 else -1)
    if p == 2:
        alpha, u = _split_at(t, 2)
        return (alpha, u % 8)
    alpha, u = _split_at(t, p)
    return (alpha, _euler_criterion(u, p))


def local_is_square(a: int | Rational, place: Place) -> bool:
    """Is a nonzero rational a square in the completion at the given place?"""
    return _local_class(squarefree_part(a), place) == (0, 1)


def _places_of_classes(classes: Sequence[int]) -> list[Place]:
    """The relevant places of square classes, real place first, then primes ascending."""
    primes = {2}
    for s in classes:
        primes.update(p for p, _ in _factor_positive(abs(s)))
    return [INFINITE_PLACE, *map(_prime_place, sorted(primes))]


def relevant_places_of(values: Iterable[int | Rational]) -> list[Place]:
    """The real place, 2, and every odd prime dividing some value's square class."""
    return _places_of_classes([squarefree_part(v) for v in values])


def _hasse_squarefree(coeffs: Sequence[int], prime: int | None) -> int:
    """The product of the Hilbert symbols (a_i, a_j) at the prime over i < j, in one pass.

    With a_i = p^alpha_i * u_i and k = sum(alpha_i), bilinearity gives
    (-1)^C(r,2) at the real place, r the number of negative entries;
    (-1)^(C(m,2) + sum omega(u_i) (k - alpha_i)) at 2, m the number of
    u_i = 3 (mod 4); and (-1)^(epsilon(p) C(k,2)) * prod (u_i/p)^(k - alpha_i)
    at odd p, whose Legendre factor is that of the units of the entries p
    does not divide when k is odd, and of those it divides when k is even
    (an empty product, 1, when k = 0). The prime is a Place's, so it is a prime.
    """
    if prime is None:
        r = sum(1 for a in coeffs if a < 0)
        return -1 if (r * (r - 1) // 2) % 2 else 1
    p = prime
    if p == 2:
        # epsilon(u) = (u - 1)/2 and omega(u) = (u^2 - 1)/8 mod 2 read off u mod 8:
        # epsilon is 1 for u = 3, 7 and omega for u = 3, 5
        k = m = omegas = omegas_divided = 0
        for a in coeffs:
            alpha = ~a & 1  # 1 when 2 divides a, once, as a is square-free
            u = a >> alpha & 7
            k += alpha
            m += u >> 1 & 1
            if u == 3 or u == 5:
                omegas += 1
                omegas_divided += alpha
        exponent = m * (m - 1) // 2 + k * omegas - omegas_divided
        return -1 if exponent % 2 else 1
    k = 0
    divided = undivided = 1  # products of units, mod p
    for a in coeffs:
        if a % p == 0:
            k += 1
            divided = divided * (a // p) % p
        else:
            undivided = undivided * a % p
    value = -1 if p & 2 and (k * (k - 1) // 2) % 2 else 1  # epsilon(p) = 1 for p = 3 (mod 4)
    units = undivided if k % 2 else divided
    return value if pow(units, (p - 1) // 2, p) == 1 else -value


def hasse_invariants(coefficients: Iterable[int | Rational]) -> tuple[tuple[Place, int], ...]:
    """(place, product of hilbert_symbol(a_i, a_j) over i < j) at each relevant place of a
    diagonal form, real place first; the Hasse symbol is 1 at every place not listed."""
    return _hasse_of_classes([squarefree_part(c) for c in coefficients])


def _hasse_of_classes(classes: Sequence[int]) -> tuple[tuple[Place, int], ...]:
    """hasse_invariants of square-free entries, which are not reduced again."""
    return tuple((v, _hasse_squarefree(classes, v.prime)) for v in _places_of_classes(classes))


def hasse_invariant(coefficients: Iterable[int | Rational], place: Place) -> int:
    """The Hasse symbol of a diagonal form at one place."""
    return dict(hasse_invariants(coefficients)).get(place, 1)
