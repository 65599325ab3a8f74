"""Brute-force enumerations over a finite field, used by the tests as
oracles: every matrix of a shape, and every element of GL_n."""

import itertools

from quiverforge.ffield import Field, FqMatrix


def all_matrices(field: Field, rows: int, cols: int):
    """All rows x cols matrices, lexicographic in the flat entry tuple."""
    for flat in itertools.product(field.elements(), repeat=rows * cols):
        yield FqMatrix.from_flat(field, rows, cols, flat)


def enumerate_gl(field: Field, n: int):
    """All invertible n x n matrices, in lexicographic order."""
    for m in all_matrices(field, n, n):
        if m.det() != 0:
            yield m
