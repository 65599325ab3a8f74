"""``series.lagrange_interpolate`` against the Fraction routine it replaced,
kept in brute_force.py as its oracle."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverforge import ExactPolynomial, ValidationError, lagrange_interpolate
from brute_force import fraction_lagrange_interpolate

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
integers = st.integers(-50, 50)


@st.composite
def point_sets(draw, values):
    xs = draw(st.lists(values, min_size=1, max_size=7, unique=True))
    return [(x, draw(values)) for x in xs]


@given(st.one_of(point_sets(rationals), point_sets(integers)))
def test_interpolation_matches_the_fraction_routine(points):
    poly = lagrange_interpolate(points)
    assert poly == fraction_lagrange_interpolate(points)
    assert all(poly(x) == y for x, y in points)


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6), st.integers(-9, 9))
def test_interpolation_recovers_an_integer_polynomial(coeffs, shift):
    target = ExactPolynomial(coeffs)
    nodes = range(shift, shift + len(coeffs))
    assert lagrange_interpolate([(x, target(x)) for x in nodes]) == target


def test_interpolation_keeps_rational_coefficients():
    target = ExactPolynomial([Fraction(1, 3), Fraction(-5, 2), 0, Fraction(7, 6)])
    nodes = [Fraction(-1, 2), 0, Fraction(2, 3), 4]
    assert lagrange_interpolate([(x, target(x)) for x in nodes]) == target


def test_interpolation_of_nothing_is_zero():
    assert lagrange_interpolate([]) == ExactPolynomial([])


def test_equal_nodes_are_refused_after_clearing_denominators():
    with pytest.raises(ValidationError):
        lagrange_interpolate([(Fraction(1, 2), 1), (Fraction(2, 4), 2)])
