"""Brute-force routines used by the tests as oracles: every matrix of a
shape and every element of GL_n over a finite field, the smallest
primitive root by walking multiplicative orders, and Lagrange
interpolation in Fractions."""

import itertools
from fractions import Fraction

from quiverforge.ffield import Field, FqMatrix
from quiverforge.series import ExactPolynomial


def all_matrices(field: Field, rows: int, cols: int):
    """All rows x cols matrices, lexicographic in the flat entry tuple."""
    for flat in itertools.product(field.elements(), repeat=rows * cols):
        yield FqMatrix.from_flat(field, rows, cols, flat)


def enumerate_gl(field: Field, n: int):
    """All invertible n x n matrices, in lexicographic order."""
    for m in all_matrices(field, n, n):
        if m.det() != 0:
            yield m


def primitive_element_by_orders(field: Field) -> int:
    """The smallest generator of the unit group (1 for q = 2), found by
    walking each candidate's powers until they return to 1, O(q) per
    candidate: the oracle for ``Field.primitive_element``."""
    if field.q == 2:
        return 1
    for a in range(2, field.q):
        x, order = a, 1
        while x != 1:
            x = field.mul(x, a)
            order += 1
        if order == field.q - 1:
            return a
    raise AssertionError(f"F_{field.q} has no primitive element")


def fraction_lagrange_interpolate(points) -> ExactPolynomial:
    """Lagrange interpolation through (x_i, y_i) with distinct x_i, one
    Fraction basis polynomial prod_{j != i} (x - x_j) / (x_i - x_j) at a
    time: the oracle for ``series.lagrange_interpolate``."""
    points = [(Fraction(x), Fraction(y)) for x, y in points]
    n = len(points)
    result = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for t, c in enumerate(basis):
                new[t] -= xj * c
                new[t + 1] += c
            basis = new
            denom *= xi - xj
        scale = yi / denom
        for t, c in enumerate(basis):
            result[t] += scale * c
    return ExactPolynomial(result)
