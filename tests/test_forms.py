"""Diagonal forms: invariants, isotropy, representation, Witt decomposition."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    witt_decompose,
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
    with pytest.raises(InputError):
        represents(DiagonalForm((1, 1)), 2.5)
    with pytest.raises(InputError):
        pfister([-1, 2.5])
    with pytest.raises(InputError):
        DiagonalForm.from_json([True, True, True, True, True])


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


def test_isometry_distinguishes_hasse():
    assert isometric(DiagonalForm((1, 1)), DiagonalForm((2, 2)))
    assert not isometric(DiagonalForm((1, 7)), DiagonalForm((7, 1, 1)))
    assert not isometric(DiagonalForm((1, 1, 1, 1)), DiagonalForm((1, 1, 3, 3)))


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
