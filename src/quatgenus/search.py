"""Brute-force isotropic-vector search, the independent route that checks the
closed-form Hasse-Minkowski verdicts.

Enumeration contract: candidate vectors are ordered by max-norm shell, then
lexicographically by the per-coordinate rank sequence 0, 1, -1, 2, -2, ...;
the first zero of the form wins.

The search is meet-in-the-middle: the coordinate block is split into a
most-significant left prefix and a right suffix; value tables keyed by the
partial sums hold the minimal-rank tuple per value, and each shell only
touches its own surface, so exhausting a bound costs on the order of the
final cube rather than cube times shells.

Orthant lemma: flipping a negative coordinate v to -v lowers its rank from
2|v| to 2|v| - 1 and keeps both c*v^2 and the max-norm shell. So within a
shell, the minimal-rank tuple of each half for each value, and with it the
first zero in enumeration order, has nonnegative coordinates. The search
therefore enumerates the nonnegative orthant only: (m+1)^k - m^k tuples per
half on shell m instead of (2m+1)^k - (2m-1)^k.
"""

from __future__ import annotations

from .errors import InputError


def backend_name() -> str:
    """Name of the search implementation, reported as run metadata."""
    return "pure"


def _rank_value(r: int) -> int:
    # rank sequence 0, 1, -1, 2, -2, ...
    if r == 0:
        return 0
    return (r + 1) // 2 if r % 2 else -(r // 2)


def _surface(tables: list[list[tuple[int, int]]], m: int) -> list[tuple[int, int]]:
    """(value, ordinal) over the nonnegative tuples of max-norm exactly m.

    tables[i][v] is (c_i * v^2, rank(v) * pw_i) for v = 0..m. The surface is
    split by the first coordinate j equal to m, so each tuple appears once:
    coordinates before j range over 0..m-1, those after j over 0..m.
    """
    out: list[tuple[int, int]] = []
    for j in range(len(tables)):
        part = [(0, 0)]
        for i, table in enumerate(tables):
            column = table[:m] if i < j else table[m : m + 1] if i == j else table
            part = [(a + b, o + p) for a, o in part for b, p in column]
        out += part
    return out


def _decode(ordinal: int, k: int, base: int, pw: list[int]) -> list[int]:
    return [_rank_value((ordinal // pw[i]) % base) for i in range(k)]


def isotropic_vector_search(coefficients: tuple[int, ...], bound: int) -> tuple[int, ...] | None:
    """Enumeration-order-minimal isotropic vector with max-norm <= bound, or None."""
    if bound < 1:
        raise InputError("search bound must be positive")
    if not coefficients or any(c == 0 for c in coefficients):
        raise InputError("coefficients must be nonzero")
    n = len(coefficients)
    if n < 2:
        return None
    k_right = n // 2
    k_left = n - k_right
    base = 2 * bound + 1
    pw_l = [base ** (k_left - 1 - i) for i in range(k_left)]
    pw_r = [base ** (k_right - 1 - i) for i in range(k_right)]
    # per coordinate, (c * v^2, rank(v) * pw) for v = 0..m, grown one entry a shell
    tables_l = [[(0, 0)] for _ in range(k_left)]
    tables_r = [[(0, 0)] for _ in range(k_right)]
    # value -> minimal ordinal over the cube searched so far; the all-zero
    # tuple (value 0, ordinal 0) seeds both sides
    left_all: dict[int, int] = {0: 0}
    right_all: dict[int, int] = {0: 0}
    for m in range(1, bound + 1):
        for table, c, w in zip(tables_l + tables_r, coefficients, pw_l + pw_r):
            table.append((c * m * m, (2 * m - 1) * w))
        surf_l = _surface(tables_l, m)
        surf_r = _surface(tables_r, m)
        right_new: dict[int, int] = {}
        for val, o in surf_r:
            prev = right_new.get(val)
            if prev is None or o < prev:
                right_new[val] = o
        best: tuple[int, int] | None = None
        # new left against any right seen up to this shell
        for val, o in surf_l:
            need = -val
            r1 = right_all.get(need)
            r2 = right_new.get(need)
            ro = r1 if r2 is None else r2 if r1 is None else min(r1, r2)
            if ro is not None and (best is None or (o, ro) < best):
                best = (o, ro)
        # new right against strictly older lefts
        for val, o in right_new.items():
            lo = left_all.get(-val)
            if lo is not None and (best is None or (lo, o) < best):
                best = (lo, o)
        if best is not None:
            lo, ro = best
            vec = _decode(lo, k_left, base, pw_l) + _decode(ro, k_right, base, pw_r)
            return tuple(vec)
        for val, o in surf_l:
            prev = left_all.get(val)
            if prev is None or o < prev:
                left_all[val] = o
        for val, o in surf_r:
            prev = right_all.get(val)
            if prev is None or o < prev:
                right_all[val] = o
    return None
