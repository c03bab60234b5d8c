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
"""

from __future__ import annotations

from collections.abc import Iterable

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
    unit_coeffs: list[int], next_coeffs: list[int], p: int, squares: set[int]
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


def local_isotropic_search(coefficients: tuple[int, ...], place: Place) -> bool:
    """Local isotropy by residue search; coefficients must be square-free."""
    for c in coefficients:
        if c == 0 or squarefree_part(c) != c:
            raise InputError(f"coefficient {c} is not a nonzero square-free integer")
    if len(coefficients) < 2:
        return False
    if place.is_infinite():
        return any(c > 0 for c in coefficients) and any(c < 0 for c in coefficients)
    p = place.prime
    assert p is not None
    units = [c for c in coefficients if c % p != 0]
    nexts = [c // p for c in coefficients if c % p == 0]
    squares = {x * x % p for x in range(1, p // 2 + 1)}
    return _solvable_with_unit_level(units, nexts, p, squares) or _solvable_with_unit_level(
        nexts, units, p, squares
    )


def hilbert_symbol_search(a: int, b: int, place: Place) -> int:
    """Hilbert symbol by solving a*x^2 + b*y^2 = z^2 locally; never uses closed forms."""
    sa, sb = squarefree_part(a), squarefree_part(b)
    return 1 if local_isotropic_search((sa, sb, -1), place) else -1
