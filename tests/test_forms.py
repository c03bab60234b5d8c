"""Diagonal forms: invariants, isotropy, representation, Witt decomposition."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quatgenus import forms, symbols
from quatgenus.arith import squarefree_part
from quatgenus.errors import InputError
from quatgenus.forms import (
    HYPERBOLIC_PLANE,
    DiagonalForm,
    invariants,
    is_isotropic,
    is_isotropic_local,
    isometric,
    isotropic_vector,
    isotropy_failure,
    pfister,
    pfister_exponent,
    relevant_places,
    represents,
    _constructed_vector,
    _peel_invariants,
    _split_hyperbolic,
    witt_decompose,
    witt_index,
)
from quatgenus.oracles import local_isotropic_search
from quatgenus.symbols import INFINITE_PLACE, finite_place

coefficient = st.sampled_from([1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 15, -15])


def test_construction_reduces_to_squarefree():
    q = DiagonalForm.of([4, -18, Fraction(1, 2)])
    assert q.coefficients == (1, -2, 2)
    with pytest.raises(InputError):
        DiagonalForm.of([1, 0])
    with pytest.raises(InputError):
        DiagonalForm((1, 4))


def test_non_rational_input_is_refused():
    assert DiagonalForm.of([Fraction(5, 2), -1]).coefficients == (10, -1)
    assert DiagonalForm.of([2, Fraction(2)]).coefficients == (2, 2)
    for value in (2.0, 2.5):
        with pytest.raises(InputError):
            DiagonalForm.of([value, -1])
    # a bool or a Fraction entry would give a form that to_json or json.dumps cannot write
    for entries in ((True, 2), (Fraction(3),), (2.0, -1)):
        with pytest.raises(InputError):
            DiagonalForm(entries)
    with pytest.raises(InputError):
        represents(DiagonalForm((1, 1)), 2.5)
    with pytest.raises(InputError):
        pfister([-1, 2.5])
    with pytest.raises(InputError):
        DiagonalForm.from_json([True, True, True, True, True])


def test_forms_from_equal_json_lists_are_one_form():
    data = [4, -18, 3]
    q = DiagonalForm.from_json(data)
    assert q.coefficients == (1, -2, 3)
    data.append(5)
    assert DiagonalForm.from_json([4, -18, 3]) is q and q.coefficients == (1, -2, 3)
    # every route reads one table while it holds the form
    assert DiagonalForm.of([4, -18, 3]) is q
    assert DiagonalForm((1, -2, 3)) is q
    assert DiagonalForm.from_json([1, -2, 3]) is q
    assert DiagonalForm((1, -2)).perp(DiagonalForm((3,))) is q
    assert DiagonalForm((-1, 2, -3)).negated() is q
    for bad in ([1, True], [1, 0], [1, 2.0], (1, 2)):
        with pytest.raises(InputError):
            DiagonalForm.from_json(bad)


def test_invariants_are_computed_once_per_distinct_tuple(monkeypatch):
    computed = []

    def hasse(classes):
        computed.append(tuple(classes))
        return original(classes)

    original = forms._hasse_of_classes
    monkeypatch.setattr(forms, "_hasse_of_classes", hasse)
    forms._form_of_ints.cache_clear()  # no form an earlier test built
    routes = [
        DiagonalForm((7, -11, 13, -17)),
        DiagonalForm.of([28, -99, 13, -17]),
        DiagonalForm.from_json([7, -11, 13, -17]),
        DiagonalForm((7, -11)).perp(DiagonalForm((13, -17))),
    ]
    for q in routes:
        assert q == routes[0]
        invariants(q)
        is_isotropic(q)
        q.det()
        represents(q, 2)
    assert computed == [(7, -11, 13, -17), (7, -11, 13, -17, -2)]


def test_forms_survive_copy_and_pickle():
    q = DiagonalForm((1, -2, 3))
    assert copy.copy(q) == q
    assert copy.deepcopy(q) == q
    assert pickle.loads(pickle.dumps(q)) == q


def test_the_invariants_memo_is_per_object_and_never_pickled():
    q = DiagonalForm((5, -2, 3))
    bare = pickle.dumps(q)
    first = invariants(q)
    assert invariants(q) is first and q._invariants is first and first.key is first.key
    assert q.__reduce__() == (DiagonalForm, ((5, -2, 3),))
    assert pickle.dumps(q) == bare and copy.copy(q).__reduce__() == q.__reduce__()
    assert pickle.loads(pickle.dumps(q)) == q and invariants(copy.deepcopy(q)) == first


def test_invariants_worked_values():
    q = DiagonalForm((-2, 1, 3, 3))
    inv = invariants(q)
    assert invariants(q) is inv
    # one entry per coefficient tuple, however the equal form was built
    assert invariants(DiagonalForm.from_json([-2, 1, 3, 3])) is inv
    assert inv.dimension == 4
    assert inv.determinant == -2
    assert inv.signed_discriminant == -2
    assert inv.signature == (3, 1)
    assert inv.hasse_at(finite_place(2)) == -1
    assert inv.hasse_at(finite_place(3)) == -1
    assert inv.hasse_at(INFINITE_PLACE) == 1


def test_signed_discriminant_alternates_with_dimension():
    assert invariants(DiagonalForm((1, 1))).signed_discriminant == -1
    assert invariants(DiagonalForm((1, -1))).signed_discriminant == 1
    assert invariants(DiagonalForm((1, 1, 1))).signed_discriminant == -1
    assert invariants(DiagonalForm((1, 1, 1, 1))).signed_discriminant == 1


def test_isotropy_worked_verdicts():
    assert isotropy_failure(DiagonalForm((1, 1, 1, 1))) == INFINITE_PLACE
    assert isotropy_failure(DiagonalForm((1, 1, 1, -7))) == finite_place(2)
    assert isotropy_failure(DiagonalForm((-2, 1, 3, 3))) == finite_place(3)
    assert is_isotropic(DiagonalForm((1, 1, -2)))
    assert is_isotropic(DiagonalForm((1, -1)))
    assert not is_isotropic(DiagonalForm((5,)))


def test_five_variables_indefinite_is_isotropic():
    assert is_isotropic(DiagonalForm((1, 3, 5, 7, -2)))
    assert not is_isotropic(DiagonalForm((1, 3, 5, 7, 2)))  # positive definite


def test_represents():
    q = DiagonalForm((1, 3, 3))
    assert not represents(q, 2)
    assert represents(q, 7)
    assert represents(DiagonalForm((1, 1)), 5)
    with pytest.raises(InputError):
        represents(q, 0)


def test_isotropic_vector_worked_values():
    assert isotropic_vector(DiagonalForm((1, -1)), 10) == (1, 1)
    assert isotropic_vector(DiagonalForm((1, 1, -2)), 10) == (1, 1, 1)
    assert isotropic_vector(DiagonalForm((1, 1, 1, 1)), 10) is None
    assert isotropic_vector(DiagonalForm((5,)), 10) is None


@given(st.lists(coefficient, min_size=2, max_size=5))
@settings(max_examples=150)
def test_isotropic_vector_agrees_with_verdict(coefficients):
    q = DiagonalForm(tuple(coefficients))
    vector = isotropic_vector(q, 30)
    if vector is not None:
        assert q.evaluate(vector) == 0
        assert any(vector)
        assert is_isotropic(q)


@given(st.lists(coefficient, min_size=1, max_size=4))
@settings(max_examples=150)
def test_local_verdicts_match_residue_search(coefficients):
    q = DiagonalForm(tuple(coefficients))
    places = relevant_places(q)
    others = [finite_place(p) for p in (3, 5, 7, 11, 13) if finite_place(p) not in places]
    for place in places + others:
        assert is_isotropic_local(q, place) == local_isotropic_search(q.coefficients, place)


@given(st.lists(coefficient, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_isotropy_failure_is_the_first_place_the_residue_search_finds_anisotropic(coefficients):
    q = DiagonalForm(tuple(coefficients))
    expected = next(
        (v for v in relevant_places(q) if not local_isotropic_search(q.coefficients, v)), None
    )
    assert isotropy_failure(q) == expected


@given(st.lists(coefficient, min_size=3, max_size=6))
@settings(max_examples=150, deadline=None)
def test_peeled_invariants_are_those_of_the_split_complement(coefficients):
    q = DiagonalForm(tuple(coefficients))
    assume(is_isotropic(q))
    vec = isotropic_vector(q, 30)
    assume(vec is not None)
    assert _peel_invariants(invariants(q)).key == invariants(_split_hyperbolic(q, vec)).key


def test_an_isotropy_verdict_is_read_once_per_invariants_object(monkeypatch):
    def refused(*args):
        raise AssertionError("the verdict reads the closed forms, not the public symbols")

    for module in (forms, symbols):
        for name in ("hilbert_symbol", "local_is_square"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    casework = []

    def counted(inv, place):
        casework.append(place)
        return local(inv, place)

    local = forms._local_isotropic_from_data
    monkeypatch.setattr(forms, "_local_isotropic_from_data", counted)
    forms._form_of_ints.cache_clear()  # a form object no earlier test built
    for coefficients, failure in (((1, 1, 1, -7), finite_place(2)), ((3, 5, -7), finite_place(3))):
        q = DiagonalForm(coefficients)
        assert isotropy_failure(q) == failure
        assert casework
        casework.clear()
        assert isotropy_failure(q) == failure and not is_isotropic(q)
        assert witt_index(q) == 0
        assert casework == []


@pytest.mark.parametrize("coefficients", [(25, -5, -3), (1, 0, -1), (1, -12)])
def test_residue_search_refuses_a_coefficient_that_is_not_square_free(coefficients):
    # <1,-5,-3> is anisotropic at 5; an unchecked 25 read as a unit said isotropic
    with pytest.raises(InputError):
        local_isotropic_search(coefficients, finite_place(5))


def test_witt_decompose_worked_value():
    d = witt_decompose(DiagonalForm((1, 1, 1, 1, -1, -1, -3, -3)))
    assert d.witt_index == 2
    assert d.anisotropic_part is not None
    assert isometric(d.anisotropic_part, DiagonalForm((1, 1, -3, -3)))


def test_witt_decompose_hyperbolic_and_anisotropic_ends():
    d = witt_decompose(HYPERBOLIC_PLANE)
    assert d.witt_index == 1
    assert d.anisotropic_part is None
    d = witt_decompose(DiagonalForm((1, 1)))
    assert d.witt_index == 0
    assert d.anisotropic_part == DiagonalForm((1, 1))


@given(st.lists(coefficient, min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_witt_decomposition_invariants(coefficients):
    q = DiagonalForm(tuple(coefficients))
    d = witt_decompose(q)
    part_dim = 0 if d.anisotropic_part is None else d.anisotropic_part.dim
    assert 2 * d.witt_index + part_dim == q.dim
    if d.anisotropic_part is not None:
        assert not is_isotropic(d.anisotropic_part)
    rebuilt = tuple(
        (1, -1) * d.witt_index
        + (() if d.anisotropic_part is None else d.anisotropic_part.coefficients)
    )
    assert isometric(q, DiagonalForm(rebuilt))


@given(st.lists(coefficient, min_size=1, max_size=8))
# forms whose last split needs a vector the bounded search cannot reach: a
# remainder of dimension 3 (<3,-4515,1290>) or 4 (<6,-11685,-1330,-4305>)
@example([6, -5, 6, -10, -5, 6, -5, -5])
@example([3, -6, 7, 10, 10, -15])
@example([1, -6, 7, -15, -15, -15])
@example([2, 3, 3, -7, -15, -2, 10])
@example([1, -2, 3, -15, -2, -15, 7, 7])
@example([1, -10, 15, 2, 2, 2, -10, -1])
@example([-6, 1, -6, -6, 7, 7, 7])
@example([1, -3, 7, 7, 7, -10])
# the remainder <165,35805,-71610,165> splits through t = 139965 = 15 * 9331
@example([-15, -15, -15, 3, 2, 5, 1, 1])
# the complement of the built vector holds a product rho cannot split
@example([-7, 1, -15, -6, 7, 10, -6, -5])
# binary kernels past the class pool: <14,105>, <2,210>, <7,210>, <7,210>
@example([1, -1, 5, 6, 7, 7, -10, -10])
@example([-1, -1, 7, 7, 7, 7, 7, -15])
@example([-5, -7, 10, -7, 10, 3, 5, 10])
@example([3, 3, 6, -7, -7, -10, 3, 6])
@settings(max_examples=100, deadline=None)
def test_witt_index_counts_the_planes_split_off(coefficients):
    # the index comes from invariants alone; the explicit split finds as many planes
    q = DiagonalForm(tuple(coefficients))
    assert witt_index(q) == len(witt_decompose(q).witnesses)


@st.composite
def _isotropic_coefficients(draw):
    """Coefficients of an isotropic form of dimension 3 to 6: the last one is
    the square class of -(a_1 x_1^2 + ... ) for a drawn vector x."""
    n = draw(st.integers(3, 6))
    head = draw(st.lists(st.integers(-10**4, 10**4).filter(bool), min_size=n - 1, max_size=n - 1))
    x = draw(st.lists(st.integers(0, 100), min_size=n - 1, max_size=n - 1))
    value = -sum(a * v * v for a, v in zip(head, x))
    assume(value != 0)
    return [squarefree_part(a) for a in head] + [squarefree_part(value)]


@given(_isotropic_coefficients())
# split values 1 and 139965 = 15 * 9331, the prime 9331 found by search
@example([1, 1, -1, -1])
@example([165, 35805, -71610, 165])
@settings(max_examples=150, deadline=None)
def test_constructed_vector_is_a_zero(coefficients):
    q = DiagonalForm(tuple(coefficients))
    assert is_isotropic(q)
    vec = _constructed_vector(q.coefficients)
    assert len(vec) == q.dim and any(vec)
    assert sum(c * x * x for c, x in zip(q.coefficients, vec)) == 0


def _split_hyperbolic_reference(q, vec):
    """Reference for _split_hyperbolic: every Gram entry a sum of Fraction products."""
    n = q.dim
    a = q.coefficients
    b = lambda u, w: sum(Fraction(ai) * ui * wi for ai, ui, wi in zip(a, u, w))
    v = [Fraction(x) for x in vec]
    i = next(i for i in range(n) if a[i] * vec[i] != 0)
    w = [Fraction(1) if j == i else Fraction(0) for j in range(n)]
    rows = [
        [Fraction(a[j]) * v[j] for j in range(n)],
        [Fraction(a[j]) * w[j] for j in range(n)],
    ]
    pivots = []
    r = 0
    for col in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            x[pc] = -rows[ri][fc]
        basis.append(x)
    if len(basis) != n - 2:
        return None
    k = n - 2
    gram = [[b(basis[i], basis[j]) for j in range(k)] for i in range(k)]
    diag = []
    idx = list(range(k))
    while idx:
        pivot = next((i for i in idx if gram[i][i] != 0), None)
        if pivot is None:
            pair = next(
                ((i, j) for i in idx for j in idx if i != j and gram[i][j] != 0), None
            )
            if pair is None:
                return None
            i, j = pair
            for t in range(k):
                gram[i][t] += gram[j][t]
            for t in range(k):
                gram[t][i] += gram[t][j]
            continue
        d = gram[pivot][pivot]
        diag.append(d)
        others = [i for i in idx if i != pivot]
        for i in others:
            if gram[i][pivot] != 0:
                factor = gram[i][pivot] / d
                for t in range(k):
                    gram[i][t] -= factor * gram[pivot][t]
                for t in range(k):
                    gram[t][i] -= factor * gram[t][pivot]
        idx = others
    if len(diag) != k or any(d == 0 for d in diag) or not diag:
        return None
    return DiagonalForm.of(diag)


squarefree_upto_30 = st.sampled_from([c for c in range(-30, 31) if c and squarefree_part(c) == c])


@given(
    st.lists(squarefree_upto_30, min_size=2, max_size=8),
    st.integers(min_value=0, max_value=6),
    st.lists(squarefree_upto_30, max_size=2),
    st.lists(st.sampled_from([1, -1]), min_size=8, max_size=8),
    st.none(),
)
# every diagonal entry of the complement's Gram matrix is zero, so the split folds
@example([1, 1, -1, -1], 0, [], [1] * 8, (1, 1, 1, 1))
@example([1, 1, -1, -1], 0, [3], [1, -1] * 4, (1, 1, 1, 1))
@example([2, 1, -1, -1, -1], 0, [-5, 7], [-1, 1] * 4, (1, 1, 1, 1, 1))
# two indices skipped, a pivot, then a fold of the two skipped: <3,2,-2>
@example([1, 1, -1, -1, 3], 0, [], [1] * 8, (1, 1, 1, 1, 0))
# pivots of both signs, no fold: <-2,2,5>
@example([1, 2, -1, -2, 5], 0, [], [1] * 8, (1, 1, 1, 1, 0))
@settings(max_examples=200, deadline=None)
def test_integer_gram_split_matches_fraction_reference(coefficients, at, lead, signs, vec):
    q = DiagonalForm(tuple(coefficients))
    if vec is None:
        vec = isotropic_vector(q, 3)
    if vec is None:
        # no small zero: plant a hyperbolic pair so the draw is still used
        at %= len(coefficients) - 1
        coefficients[at + 1] = -coefficients[at]
        q = DiagonalForm(tuple(coefficients))
        vec = isotropic_vector(q, 3)
    assert vec is not None
    # leading zero coordinates and mixed signs keep the vector isotropic
    q = DiagonalForm(tuple(lead) + q.coefficients)
    vec = (0,) * len(lead) + tuple(s * x for s, x in zip(signs, vec))
    assert q.evaluate(vec) == 0
    assert _split_hyperbolic(q, vec) == _split_hyperbolic_reference(q, vec)


def test_isometry_distinguishes_hasse():
    assert isometric(DiagonalForm((1, 1)), DiagonalForm((2, 2)))
    assert not isometric(DiagonalForm((1, 7)), DiagonalForm((7, 1, 1)))
    assert not isometric(DiagonalForm((1, 1, 1, 1)), DiagonalForm((1, 1, 3, 3)))


def _same_invariants(i1, i2):
    """Isometry as a pairwise comparison over the union of both forms' places,
    reading each Hasse symbol from the stored table: the reference for the key."""
    if (i1.dimension, i1.determinant, i1.signature) != (i2.dimension, i2.determinant, i2.signature):
        return False
    places = sorted(set(i1.places()) | set(i2.places()))
    return all(dict(i1.hasse).get(v, 1) == dict(i2.hasse).get(v, 1) for v in places)


@st.composite
def _form_pairs(draw):
    """A form and another of its dimension, reached by moves that keep the
    isometry class, <a,b> -> <c,abc> with c = ax^2 + by^2, or that keep the
    dimension, determinant and signature but may flip Hasse symbols,
    <a,b> -> <pa,pb>; or, now and then, any form of that dimension."""
    first = draw(st.lists(coefficient, min_size=1, max_size=5))
    second = list(first)
    for _ in range(draw(st.integers(0, 3)) if len(first) > 1 else 0):
        i, j = draw(st.permutations(range(len(second))))[:2]
        a, b = second[i], second[j]
        if draw(st.booleans()):
            c = a * draw(st.integers(0, 3)) ** 2 + b * draw(st.integers(1, 3)) ** 2
            if c:
                second[i], second[j] = c, a * b * c
        else:
            p = draw(st.sampled_from([3, 5, 7, 11, 13]))
            second[i], second[j] = p * a, p * b
    if draw(st.integers(1, 8)) == 1:
        second = draw(st.lists(coefficient, min_size=len(first), max_size=len(first)))
    return DiagonalForm.of(first), DiagonalForm.of(draw(st.permutations(second)))


@given(_form_pairs())
# isometric (5 = 1 + 4) over different sets of places: {inf, 2} and {inf, 2, 5}
@example((DiagonalForm((1, 1)), DiagonalForm((5, 5))))
# one dimension, determinant and signature; the Hasse symbols differ at the odd place 3 (and at 2)
@example((DiagonalForm((1, 1, 1)), DiagonalForm((1, 3, 3))))
# the product of the second form's coefficients is 20 p^2, p = 23619600001, a square rho cannot split
@example((DiagonalForm((2, 10, 1, 1)), DiagonalForm((2, 23_619_600_001, 236_196_000_010, 1))))
@settings(max_examples=300, deadline=None)
def test_isometry_key_agrees_with_the_pairwise_comparison(pair):
    q1, q2 = pair
    i1, i2 = invariants(q1), invariants(q2)
    assert (i1.key == i2.key) is _same_invariants(i1, i2) is isometric(q1, q2)
    for inv in (i1, i2):
        for v in (*i1.places(), *i2.places(), finite_place(11)):
            assert inv.hasse_at(v) == dict(inv.hasse).get(v, 1)


def test_pfister_construction_and_exponent():
    assert pfister([-1, -3]) == DiagonalForm((1, -1, -3, 3))
    assert pfister_exponent(DiagonalForm((1, -1, -3, 3))) == 2
    assert pfister_exponent(DiagonalForm((1, 1, 1, 1))) == 2
    assert pfister_exponent(DiagonalForm((1, 3))) == 1
    assert pfister_exponent(DiagonalForm((1, 1, 3))) is None
    assert pfister_exponent(DiagonalForm((-2, 1, 3, 3))) is None


def test_scaling_and_concat_helpers():
    q = DiagonalForm((1, 3))
    assert q.scaled(-3).coefficients == (-3, -1)
    assert q.negated().coefficients == (-1, -3)
    assert q.perp(DiagonalForm((5,))).coefficients == (1, 3, 5)
    assert str(q) == "<1,3>"
