"""Independent brute-force oracles for cross-checking the closed-form routes.

These deliberately avoid Hilbert symbols, Hasse invariants, and the
Hasse-Minkowski casework: local isotropy is decided by residue search with
a Hensel-liftable acceptance condition, the real place by sign analysis.
Tests compare these against the symbol-based answers; the two routes must
stay separate.
"""

from __future__ import annotations

from .arith import squarefree_part
from .errors import InputError
from .symbols import Place


def _fold_reachable(contributions: list[dict[int, bool]], modulus: int) -> dict[int, bool]:
    """Achievable sums mod modulus; the flag tracks a Hensel-ready coordinate."""
    reach: dict[int, bool] = {0: False}
    for contrib in contributions:
        new: dict[int, bool] = {}
        for v1, f1 in reach.items():
            for v2, f2 in contrib.items():
                v = (v1 + v2) % modulus
                f = f1 or f2
                if f or not new.get(v, False):
                    new[v] = new.get(v, False) or f
        reach = new
    return reach


def _coordinate_values_odd(a: int, p: int) -> dict[int, bool]:
    # value a*x^2 mod p with flag "x is a unit", for a unit coefficient a
    out: dict[int, bool] = {}
    for x in range(p):
        v = a * x * x % p
        f = x != 0
        if f or not out.get(v, False):
            out[v] = out.get(v, False) or f
    return out


def _solvable_with_unit_level(unit_coeffs: list[int], next_coeffs: list[int], p: int) -> bool:
    """Is f0 + p*f1 = 0 solvable with a unit coordinate in the f0 block?

    Acceptance is exactly the Hensel-liftable residue condition:
    at odd p a zero mod p with a nonzero f0 coordinate, at p = 2 a zero
    mod 8 with an odd f0 coordinate. A primitive p-adic zero of the full
    form reduces to this for one of the two block orderings.
    """
    if not unit_coeffs:
        return False
    if p == 2:
        contribs: list[dict[int, bool]] = []
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
    return _solvable_with_unit_level(units, nexts, p) or _solvable_with_unit_level(
        nexts, units, p
    )


def hilbert_symbol_search(a: int, b: int, place: Place) -> int:
    """Hilbert symbol by solving a*x^2 + b*y^2 = z^2 locally; never uses closed forms."""
    sa, sb = squarefree_part(a), squarefree_part(b)
    return 1 if local_isotropic_search((sa, sb, -1), place) else -1
