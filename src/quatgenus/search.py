"""Brute-force isotropic-vector search, the independent route that checks the
closed-form Hasse-Minkowski verdicts.

Enumeration contract: candidate vectors are ordered by max-norm shell, then
lexicographically by the per-coordinate rank sequence 0, 1, -1, 2, -2, ...;
the first zero of the form wins.

Orthant lemma: flipping a negative coordinate v to -v lowers its rank from
2|v| to 2|v| - 1 and keeps both c*v^2 and the max-norm shell, so the first
zero has nonnegative coordinates. On nonnegative values the rank order is
the order of the values (v has rank 2v - 1), so within a shell the
enumeration order of the orthant is plain lexicographic order. The search
enumerates the orthant only: (m+1)^k - m^k tuples per half of k coordinates
on shell m.

The search meets in the middle: the coordinates are split into a left
prefix and a right suffix, and the right coefficients are negated, so a zero
of the form is a left and a right tuple with the same value. Each half keeps
only the set of values its tuples reach; a shell adds its surface values,
and two disjointness tests (new left against every right, older left against
new right) tell whether the shell holds a zero, all in C. Exhausting a bound
costs on the order of the final cube rather than cube times shells.

At the first shell m with a zero, each half's cube 0..m is listed in
lexicographic order, and each shared value v gives the candidate (first left
tuple of value v, first right tuple of value v). Its max-norm is m: two
tuples below m would have made a zero on an earlier shell. Only the all-zero
pair, both halves at value 0, is not a vector, so for v = 0 one of the two
must be nonzero. The least candidate is the first zero.

The values built are budgeted: a search that would generate more than
_TABLE_BUDGET surface values in all raises SearchExhausted instead of
building them, so every input ends in bounded work.
"""

from __future__ import annotations

from .errors import InputError, SearchExhausted

_TABLE_BUDGET = 1 << 20  # surface values a search may generate, both halves together


def backend_name() -> str:
    """Name of the search implementation, reported as run metadata."""
    return "pure"


def _surface(tables: list[list[int]], m: int) -> list[int]:
    """Values of the nonnegative tuples of max-norm exactly m.

    tables[i][v] is c_i * v^2 for v = 0..m. The surface is split by the
    first coordinate j equal to m, so each tuple appears once: coordinates
    before j range over 0..m-1, those after j over 0..m.
    """
    out: list[int] = []
    for j in range(len(tables)):
        columns = [table[:m] for table in tables[:j]] + [tables[j][m:]] + tables[j + 1 :]
        part = columns[0]
        for column in columns[1:]:
            part = [a + b for a in part for b in column]
        out += part
    return out


def _cube(tables: list[list[int]]) -> list[int]:
    """Values of every tuple of the cube, in lexicographic order."""
    values = tables[0]
    for table in tables[1:]:
        values = [a + b for a in values for b in table]
    return values


def _digits(index: int, k: int, base: int) -> list[int]:
    """The tuple at position index of the lexicographic k-cube 0..base-1."""
    out = [0] * k
    for i in range(k - 1, -1, -1):
        index, out[i] = divmod(index, base)
    return out


def _first_zero(
    tables_l: list[list[int]], tables_r: list[list[int]], hits: set[int]
) -> tuple[int, ...]:
    """Lexicographically first (left, right) pair sharing a value in hits."""
    cube_l, cube_r = _cube(tables_l), _cube(tables_r)

    def first_pair(v: int) -> tuple[int, int]:
        if v:
            return cube_l.index(v), cube_r.index(v)
        # the all-zero pair is not a vector: the left zero tuple, which comes
        # first, with a nonzero right one if there is one
        try:
            return 0, cube_r.index(0, 1)
        except ValueError:
            return cube_l.index(0, 1), 0

    i_l, i_r = min(map(first_pair, hits))
    base = len(tables_l[0])
    return tuple(_digits(i_l, len(tables_l), base) + _digits(i_r, len(tables_r), base))


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
    # per coordinate, c * v^2 for v = 0..m, grown one entry a shell; the right
    # half negated, so a zero is a value both halves reach
    tables_l = [[0] for _ in range(k_left)]
    tables_r = [[0] for _ in range(k_right)]
    signed = coefficients[:k_left] + tuple(-c for c in coefficients[k_left:])
    # the values reached on the cube searched so far, seeded by the all-zero tuple
    left_vals = {0}
    right_vals = {0}
    built = 0
    for m in range(1, bound + 1):
        built += (m + 1) ** k_left - m**k_left + (m + 1) ** k_right - m**k_right
        if built > _TABLE_BUDGET:
            raise SearchExhausted(
                f"no isotropic vector with max-norm <= {m - 1} "
                f"within the search budget of {_TABLE_BUDGET} table entries"
            )
        for table, c in zip(tables_l + tables_r, signed):
            table.append(c * m * m)
        surf_l = _surface(tables_l, m)
        surf_r = _surface(tables_r, m)
        # older left against new right, then new left against every right
        hit = not left_vals.isdisjoint(surf_r)
        right_vals.update(surf_r)
        if hit or not right_vals.isdisjoint(surf_l):
            hits = left_vals.intersection(surf_r)
            hits.update(right_vals.intersection(surf_l))
            return _first_zero(tables_l, tables_r, hits)
        left_vals.update(surf_l)
    return None
