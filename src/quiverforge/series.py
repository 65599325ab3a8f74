"""Exact rational polynomials and truncated multivariate power series.

Univariate polynomials carry Fraction coefficients (trailing zeros trimmed)
and are what Kac-polynomial interpolation produces.  Truncated series live
in variables indexed by quiver vertices, cut at a total-degree bound.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError


class ExactPolynomial:
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def integer_coefficients(self) -> list[int]:
        if not self.has_integer_coefficients():
            raise ValidationError(f"polynomial has non-integer coefficients: {self.coeffs}")
        return [int(c) for c in self.coeffs]

    def __eq__(self, other):
        return isinstance(other, ExactPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "ExactPolynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*q" if c != 1 else "q")
            else:
                terms.append(f"{c}*q^{i}" if c != 1 else f"q^{i}")
        return "ExactPolynomial(" + " + ".join(reversed(terms)) + ")"


def lagrange_interpolate(points) -> ExactPolynomial:
    """Exact Lagrange interpolation through (x_i, y_i) with distinct x_i."""
    points = [(Fraction(x), Fraction(y)) for x, y in points]
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValidationError("interpolation nodes must be distinct")
    n = len(points)
    result = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        # Lagrange basis polynomial prod_{j != i} (x - x_j) / (x_i - x_j)
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


class TruncatedSeries:
    """Multivariate power series truncated at a total-degree bound."""

    __slots__ = ("nvars", "bound", "coeffs")

    def __init__(self, nvars: int, bound: int, coeffs=None):
        self.nvars = nvars
        self.bound = bound
        self.coeffs: dict[tuple[int, ...], Fraction] = {}
        if coeffs:
            for mono, c in coeffs.items():
                mono = tuple(int(x) for x in mono)
                if len(mono) != nvars or any(x < 0 for x in mono):
                    raise ValidationError(f"bad monomial {mono}")
                if sum(mono) > bound:
                    continue
                c = Fraction(c)
                if c:
                    self.coeffs[mono] = c

    @classmethod
    def one(cls, nvars: int, bound: int) -> "TruncatedSeries":
        return cls(nvars, bound, {(0,) * nvars: 1})

    def coefficient(self, mono) -> Fraction:
        return self.coeffs.get(tuple(mono), Fraction(0))

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if (self.nvars, self.bound) != (other.nvars, other.bound):
            raise ValidationError("series shapes differ")
        out: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.coeffs.items():
            deg1 = sum(m1)
            for m2, c2 in other.coeffs.items():
                if deg1 + sum(m2) > self.bound:
                    continue
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return TruncatedSeries(self.nvars, self.bound, out)

    def max_abs_difference(self, other: "TruncatedSeries") -> Fraction:
        if (self.nvars, self.bound) != (other.nvars, other.bound):
            raise ValidationError("series shapes differ")
        worst = Fraction(0)
        for mono in set(self.coeffs) | set(other.coeffs):
            diff = abs(self.coefficient(mono) - other.coefficient(mono))
            worst = max(worst, diff)
        return worst

def monomials_up_to(nvars: int, bound: int):
    """All exponent vectors with total degree <= bound, lexicographic, each
    built directly rather than filtered out of the (bound + 1)^nvars box."""
    if nvars == 0:
        if bound >= 0:
            yield ()
        return
    for first in range(bound + 1):
        for rest in monomials_up_to(nvars - 1, bound - first):
            yield (first, *rest)
