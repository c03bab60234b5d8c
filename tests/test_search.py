"""The isotropic-vector search against a full-cube brute-force reference."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quatgenus.errors import InputError, SearchExhausted
from quatgenus.search import _TABLE_BUDGET, backend_name, isotropic_vector_search

coefficient = st.sampled_from([1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 15, -15])
# any nonzero |c| <= 100, square-free or not
wide_coefficient = st.integers(min_value=-100, max_value=100).filter(bool)


def _rank(x: int) -> int:
    """Position of x in the per-coordinate enumeration order 0, 1, -1, 2, -2, ..."""
    return 2 * abs(x) - (1 if x > 0 else 0)


def _brute_minimum(coefficients, bound):
    """Reference: scan shells by max-norm, inside a shell compare rank tuples."""
    best = None
    for shell in range(1, bound + 1):
        candidates = []
        for vec in itertools.product(range(-shell, shell + 1), repeat=len(coefficients)):
            if max(abs(x) for x in vec) != shell and any(vec):
                continue
            if not any(vec):
                continue
            if sum(c * x * x for c, x in zip(coefficients, vec)) == 0:
                candidates.append(tuple(_rank(x) for x in vec))
        if candidates:
            ordinal = min(candidates)
            half = [(o + 1) // 2 for o in ordinal]
            return tuple(v if o % 2 == 1 else -v for o, v in zip(ordinal, half))
    return None


def test_worked_minimal_vectors():
    assert isotropic_vector_search((1, -1), 10) == (1, 1)
    assert isotropic_vector_search((1, 1, -2), 10) == (1, 1, 1)
    assert isotropic_vector_search((1, 1, 1, 1), 10) is None
    assert isotropic_vector_search((1, -2), 10) is None  # sqrt(2) is irrational


def test_positive_representative_of_mirror_pair():
    vec = isotropic_vector_search((2, -2), 10)
    assert vec == (1, 1)  # not (-1, 1) or (1, -1): minimal rank tuple is all-positive


@pytest.mark.parametrize(
    "coefficients, vector",
    [
        ((6, -83, -57, -53, -85), (25, 2, 5, 6, 1)),
        ((-73, 2, -61, -61), (0, 61, 1, 11)),
        ((-7, -26, 65, -35), (65, 35, 42, 39)),
        ((83, 30, 43, 42, -1), (1, 1, 1, 2, 18)),
        ((-126071, 384807, -3477), None),
        # shell 25 with three left coordinates: the zero is in a later first-coordinate slab
        ((79, 69, 97, 95, -1), (1, 1, 1, 2, 25)),
        # the shared value 0 at shell 1, never the all-zero pair: no nonzero right
        # tuple reaches 0, so a nonzero left one pairs with the right zero tuple ...
        ((1, -1, 3, 5), (1, 1, 0, 0)),
        # ... and one does, so the left zero tuple, which comes first, pairs with it
        ((3, 5, 1, -1), (0, 0, 1, 1)),
    ],
)
def test_pinned_vectors_at_bound_200(coefficients, vector):
    # each also the first zero of the rank-ordinal kernel that the value-set kernel replaced
    assert isotropic_vector_search(coefficients, 200) == vector


def test_table_budget_ends_the_search():
    # left cubes of three coordinates: shell 101 would pass 2**20 surface values
    assert _TABLE_BUDGET == 1 << 20
    assert isotropic_vector_search((1, 1, 1, 1, -999999937), 100) is None
    with pytest.raises(SearchExhausted, match="max-norm <= 100 within the search budget"):
        isotropic_vector_search((1, 1, 1, 1, -999999937), 101)


def test_bound_validation():
    with pytest.raises(InputError):
        isotropic_vector_search((1, -1), 0)


@given(
    st.one_of(
        st.tuples(
            st.lists(coefficient, min_size=2, max_size=3), st.integers(min_value=1, max_value=6)
        ),
        st.tuples(
            st.lists(wide_coefficient, min_size=4, max_size=5),
            st.integers(min_value=1, max_value=3),
        ),
        # up to dimension 8, the size of a norm-form difference
        st.tuples(
            st.lists(coefficient, min_size=6, max_size=6), st.integers(min_value=1, max_value=2)
        ),
        st.tuples(st.lists(coefficient, min_size=7, max_size=8), st.just(1)),
        # zeros met at one shell both as a new left against an older right and
        # as an older left against a new right
        st.tuples(
            st.lists(st.integers(min_value=-40, max_value=40).filter(bool), min_size=3, max_size=4),
            st.integers(min_value=4, max_value=8),
        ),
    )
)
@settings(max_examples=400, deadline=None)
def test_search_matches_brute_reference(case):
    coefficients, bound = tuple(case[0]), case[1]
    assert isotropic_vector_search(coefficients, bound) == _brute_minimum(
        coefficients, bound
    )


@given(st.lists(wide_coefficient, min_size=2, max_size=8), st.integers(min_value=1, max_value=12))
@settings(max_examples=150, deadline=None)
def test_returned_vectors_lie_in_the_nonnegative_orthant(coefficients, bound):
    vec = isotropic_vector_search(tuple(coefficients), bound)
    assert vec is None or min(vec) >= 0


def test_backend_name_is_reported():
    assert backend_name() == "pure"
