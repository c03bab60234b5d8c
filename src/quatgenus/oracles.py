"""Independent brute-force oracles for cross-checking the closed-form routes.

These deliberately avoid Hilbert symbols, Hasse invariants, and the
Hasse-Minkowski casework: local isotropy is decided by residue search with
a Hensel-liftable acceptance condition, the real place by sign analysis.
Tests compare these against the symbol-based answers; the two routes must
stay separate.

The residue search is bit-parallel: the sums a prefix of coordinates can
reach mod p (mod 8 at p = 2) are the set bits of an integer, and adding a
coordinate value s rotates that mask by s. It stops as soon as the sum 0 is
reached with a Hensel-ready coordinate.

Each finite place's verdict is folded once per key of square-class counts
and then read from a table. The key is exact. At an odd p the values a*x^2
for a unit x form the coset a*Q of the nonzero squares Q mod p (Serre,
Ch. II, 3.3), so they depend only on whether a mod p lies in Q. The first
block order folds only the units, since the p-divisible block is 0 mod p;
the swapped order folds only the cofactors c // p, which are units because c
is square-free. So the verdict is a function of p and four counts: units in
Q, units outside Q, cofactors in Q and cofactors outside Q. At p = 2 the fold
reads only the residues mod 8 of the odd coefficients and of c // 2 for the
even ones. A key seen for the first time is folded on class
representatives: 1 and the least non-square mod p, or the residues mod 8.
"""

from __future__ import annotations

from collections.abc import Iterable, Set

from .arith import squarefree_part
from .errors import InputError
from .symbols import Place


def _zero_reached_ready(
    coordinates: Iterable[tuple[Iterable[int], Iterable[int]]], modulus: int
) -> bool:
    """Can the coordinates sum to 0 mod modulus with a Hensel-ready one among them?

    Each coordinate is (ready values, other values): its nonzero residues
    with a ready coordinate (a unit at odd p, odd at p = 2) and without one;
    every coordinate can also contribute 0, which is not ready. Bit v of
    `reach` means the sum v is reachable, bit v of `ready` that it is
    reachable with a ready coordinate, and adding the value s rotates a mask
    by s. Stopping once bit 0 of `ready` is set is exact: since every
    coordinate can contribute 0, neither mask loses a bit later on.
    """
    full = (1 << modulus) - 1
    reach, ready = 1, 0  # the empty sum 0, with no ready coordinate
    for ready_values, other_values in coordinates:
        spread = 0
        for s in ready_values:
            spread |= reach << s | reach >> (modulus - s)
        grown, grown_ready = reach | spread, ready | spread
        for s in other_values:
            grown |= reach << s | reach >> (modulus - s)
            grown_ready |= ready << s | ready >> (modulus - s)
        reach, ready = grown & full, grown_ready & full
        if ready & 1:
            return True
    return False


def _solvable_with_unit_level(
    unit_coeffs: list[int], next_coeffs: list[int], p: int, squares: Set[int]
) -> bool:
    """Is f0 + p*f1 = 0 solvable with a unit coordinate in the f0 block?

    Acceptance is exactly the Hensel-liftable residue condition:
    at odd p a zero mod p with a nonzero f0 coordinate, at p = 2 a zero
    mod 8 with an odd f0 coordinate. A primitive p-adic zero of the full
    form reduces to this for one of the two block orderings. `squares`
    holds the nonzero squares mod p.
    """
    if p == 2:
        # squares mod 8 are 0, 1, 4: a*x^2 is a for odd x (the liftable
        # case) and 4a or 0 for even x; 2*u*x^2 is 2u or 0
        return _zero_reached_ready(
            [((a % 8,), (4 * a % 8,)) for a in unit_coeffs]
            + [((), (2 * u % 8,)) for u in next_coeffs],
            8,
        )
    # the f1 block is 0 mod p; a*x^2 for a unit x runs over a times the squares
    return _zero_reached_ready((([a * s % p for s in squares], ()) for a in unit_coeffs), p)


# p -> (the nonzero squares mod p, the least non-square mod p), for odd p
_SQUARE_CLASSES: dict[int, tuple[frozenset[int], int]] = {}
# _class_key(coefficients, p) -> the verdict at p
_VERDICTS: dict[tuple, bool] = {}


def _square_classes(p: int) -> tuple[frozenset[int], int]:
    table = _SQUARE_CLASSES.get(p)
    if table is None:
        squares = frozenset(x * x % p for x in range(1, p // 2 + 1))
        table = _SQUARE_CLASSES[p] = (squares, next(r for r in range(2, p) if r not in squares))
    return table


def _class_key(coefficients: tuple[int, ...], p: int) -> tuple:
    """What the fold at p reads of the coefficients: (2, odd residues, cofactor residues)
    mod 8 at 2; at an odd p, (p, units in Q, units outside Q, cofactors c // p in Q,
    cofactors outside Q), with Q the nonzero squares mod p."""
    if p == 2:
        return (
            2,
            tuple(sorted(c % 8 for c in coefficients if c % 2)),
            tuple(sorted(c // 2 % 8 for c in coefficients if not c % 2)),
        )
    squares = _square_classes(p)[0]
    counts = [0, 0, 0, 0]
    for c in coefficients:
        r = c % p
        if r:
            counts[r not in squares] += 1
        else:
            counts[2 + (c // p % p not in squares)] += 1
    return (p, *counts)


def _folded(key: tuple) -> bool:
    """The verdict for a class key, folded on class representatives in both block orders."""
    p = key[0]
    if p == 2:
        squares: Set[int] = frozenset()
        units, nexts = list(key[1]), list(key[2])
    else:
        squares, nonsquare = _square_classes(p)
        units = [1] * key[1] + [nonsquare] * key[2]
        nexts = [1] * key[3] + [nonsquare] * key[4]
    return _solvable_with_unit_level(units, nexts, p, squares) or _solvable_with_unit_level(
        nexts, units, p, squares
    )


def local_isotropic_search(coefficients: tuple[int, ...], place: Place) -> bool:
    """Local isotropy by residue search; coefficients must be square-free exact ints."""
    for c in coefficients:
        # squarefree_part first: it names a non-number in its own words
        if c == 0 or squarefree_part(c) != c or type(c) is not int:
            raise InputError(f"coefficient {c} is not a nonzero square-free integer")
    if len(coefficients) < 2:
        return False
    if place.is_infinite():
        return any(c > 0 for c in coefficients) and any(c < 0 for c in coefficients)
    p = place.prime
    assert p is not None
    key = _class_key(coefficients, p)
    verdict = _VERDICTS.get(key)
    if verdict is None:
        verdict = _VERDICTS[key] = _folded(key)
    return verdict


def hilbert_symbol_search(a: int, b: int, place: Place) -> int:
    """Hilbert symbol by solving a*x^2 + b*y^2 = z^2 locally; never uses closed forms."""
    sa, sb = squarefree_part(a), squarefree_part(b)
    return 1 if local_isotropic_search((sa, sb, -1), place) else -1
