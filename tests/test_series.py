import itertools
from fractions import Fraction

import pytest

from quiverforge import ExactPolynomial, TruncatedSeries, ValidationError, lagrange_interpolate
from quiverforge.series import monomials_up_to


def test_polynomial_trims_and_evaluates():
    p = ExactPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert p(3) == 7
    assert p.coefficient(5) == 0


def test_integer_coefficients_guard():
    p = ExactPolynomial([Fraction(1, 2), 1])
    assert not p.has_integer_coefficients()
    with pytest.raises(ValidationError):
        p.integer_coefficients()


def test_lagrange_recovers_polynomial():
    target = ExactPolynomial([Fraction(1, 3), -2, 1])  # x^2 - 2x + 1/3
    points = [(x, target(x)) for x in (0, 1, 2)]
    assert lagrange_interpolate(points) == target


def test_lagrange_rejects_repeated_nodes():
    with pytest.raises(ValidationError):
        lagrange_interpolate([(1, 1), (1, 2)])


def test_series_product_inverts_one_minus_x():
    bound = 5
    one_minus_x = TruncatedSeries(1, bound, {(0,): 1, (1,): -1})
    inverse = TruncatedSeries(1, bound, {(j,): 1 for j in range(bound + 1)})
    product = one_minus_x.mul(inverse)
    assert product.max_abs_difference(TruncatedSeries.one(1, bound)) == 0


def test_series_respects_bound():
    s = TruncatedSeries(2, 2, {(1, 1): 1})
    t = TruncatedSeries(2, 2, {(1, 0): 1})
    assert s.mul(t).coeffs == {}  # degree 3 monomial truncated away


def test_monomials_up_to():
    assert list(monomials_up_to(2, 1)) == [(0, 0), (0, 1), (1, 0)]
    # the filtered (bound + 1)^nvars box, in the same lex order
    for nvars, bound in itertools.product(range(5), range(-2, 6)):
        box = itertools.product(range(bound + 1), repeat=nvars)
        assert list(monomials_up_to(nvars, bound)) == [m for m in box if sum(m) <= bound]
