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

Suffix cubes: for each suffix of j coordinates shorter than its half, a half
keeps the list of the suffix's values over the cube 0..m. The shell-m surface
of a j-suffix is its first coordinate at m over each value of the
(j-1)-suffix cube, and its first coordinate below m over each value of the
(j-1)-suffix surface; that surface is appended to the j-suffix cube, so each
shell costs its surfaces and no table is sliced again.

At the first shell m with a zero, each shared value v gives the candidate
(first left tuple of value v, first right tuple of value v) in lexicographic
order over the cubes 0..m. Its max-norm is m: two tuples below m would have
made a zero on an earlier shell. Only the all-zero pair, both halves at value
0, is not a vector: the left zero tuple, which comes first, is a candidate
only with a nonzero right tuple of value 0. The least candidate is the first
zero. It is read off the right cube, listed once, and the left cube, scanned
one slab of its first coordinate at a time up to the first slab holding a
shared value; there the first left tuple with a shared value wins.

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


def _shell(tables: list[list[int]], suffixes: list[list[int]], m: int) -> list[int]:
    """Values of one half's nonnegative tuples of max-norm exactly m.

    tables[i][v] is c_i * v^2 for v = 0..m; suffixes[i - 1] lists the values of
    the coordinates from i on over the cube 0..m-1, for 0 < i < len(tables) - 1
    (the last coordinate's is its table). The shell of the coordinates from i
    on is coordinate i at m over their cube from i + 1 on, or below m over their
    shell from i + 1 on; it is appended to their cube.
    """
    shell = [tables[-1][m]]
    cube = tables[-1]
    for i in range(len(tables) - 2, -1, -1):
        table = tables[i]
        top = table[m]
        shell = [top + x for x in cube] + [a + x for a in table[:m] for x in shell]
        if i:
            cube = suffixes[i - 1]
            cube += shell
    return shell


def _cube(tables: list[list[int]]) -> list[int]:
    """Values of every tuple of the cube, in lexicographic order."""
    values = [0]
    for table in tables:
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
    k_left, k_right, base = len(tables_l), len(tables_r), len(tables_l[0])
    cube_r = _cube(tables_r)
    # the all-zero pair is not a vector: the left zero tuple, which comes first,
    # with a nonzero right one if there is one, else a nonzero left one with the right zero
    if 0 in hits:
        try:
            return tuple([0] * k_left + _digits(cube_r.index(0, 1), k_right, base))
        except ValueError:
            pass
    # the left cube one slab of its first coordinate at a time, up to the first hit
    rest = _cube(tables_l[1:])
    for x, top in enumerate(tables_l[0]):
        slab = [top + v for v in rest]
        if hits.isdisjoint(slab):
            continue
        # the left zero tuple, index 0 of the first slab, was paired above if at all
        i = next((i for i, v in enumerate(slab) if v in hits and (x or i)), None)
        if i is not None:
            right = _digits(cube_r.index(slab[i]), k_right, base)
            return tuple([x] + _digits(i, k_left - 1, base) + right)
    raise AssertionError("every hit value has a left tuple")


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
    tables = tables_l + tables_r
    # per half, the values of each suffix of its coordinates on the cube searched
    # so far, from the second coordinate to the last but one
    suffixes_l = [[0] for _ in range(k_left - 2)]
    suffixes_r = [[0] for _ in range(k_right - 2)]
    signed = coefficients[:k_left] + tuple(-c for c in coefficients[k_left:])
    # the values reached on the cube searched so far, seeded by the all-zero tuple
    left_vals = {0}
    right_vals = {0}
    for m in range(1, bound + 1):
        # the shells' values through m, both halves: each cube but its zero tuple
        built = (m + 1) ** k_left + (m + 1) ** k_right - 2
        if built > _TABLE_BUDGET:
            raise SearchExhausted(
                f"no isotropic vector with max-norm <= {m - 1} "
                f"within the search budget of {_TABLE_BUDGET} table entries"
            )
        square = m * m
        for table, c in zip(tables, signed):
            table.append(c * square)
        surf_l = _shell(tables_l, suffixes_l, m)
        surf_r = _shell(tables_r, suffixes_r, m)
        # older left against new right, then new left against every right
        hit = not left_vals.isdisjoint(surf_r)
        right_vals.update(surf_r)
        if hit or not right_vals.isdisjoint(surf_l):
            hits = left_vals.intersection(surf_r)
            hits.update(right_vals.intersection(surf_l))
            return _first_zero(tables_l, tables_r, hits)
        left_vals.update(surf_l)
    return None
