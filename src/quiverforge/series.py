"""Exact rational polynomials and truncated multivariate power series.

Univariate polynomials carry Fraction coefficients (trailing zeros trimmed)
and are what Kac-polynomial interpolation produces.  Interpolation and
evaluation clear denominators first and run in integers over one common
denominator, so a Fraction is built once per coefficient or value, at the
end.  Truncated series live in variables indexed by quiver vertices, cut
at a total-degree bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

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
        # Horner in integers: with x = a / b and L the lcm of the
        # coefficients' denominators, p(x) = sum_t L c_t a^t b^(N-t) / (L b^N)
        if not self.coeffs:
            return Fraction(0)
        a, b = _ratio(x)
        common = lcm(*(c.denominator for c in self.coeffs))
        acc, power = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * a + c.numerator * (common // c.denominator) * power
            power *= b
        return Fraction(acc, common * power // b)

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


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact value, without a Fraction for
    an int."""
    if isinstance(value, int):
        return int(value), 1
    value = Fraction(value)
    return value.numerator, value.denominator


def lagrange_interpolate(points) -> ExactPolynomial:
    """Exact Lagrange interpolation through (x_i, y_i) with distinct x_i.

    The denominators are cleared first: with x_i = a_i / X and
    y_i = b_i / Y for integers a_i, b_i and common denominators X, Y,

        p(x) = P(X x) / (W Y),  P(z) = sum_i b_i (W / w_i) M(z) / (z - a_i),

    where M(z) = prod_j (z - a_j), w_i = prod_{j != i} (a_i - a_j) and
    W = lcm |w_i|.  P has integer coefficients, each M(z) / (z - a_i) is
    one synthetic division, and coefficient t of p is P_t X^t / (W Y), the
    only division.
    """
    pairs = [(_ratio(x), _ratio(y)) for x, y in points]
    x_den = lcm(*(den for (_, den), _ in pairs))
    y_den = lcm(*(den for _, (_, den) in pairs))
    nodes = [num * (x_den // den) for (num, den), _ in pairs]
    if len(set(nodes)) != len(nodes):
        raise ValidationError("interpolation nodes must be distinct")
    n = len(nodes)
    weights = [prod(a - b for b in nodes if b != a) for a in nodes]
    big_w = lcm(*weights)
    # M(z), coefficients from z^0 up
    full = [1]
    for a in nodes:
        full = [0] + full
        for t in range(len(full) - 1):
            full[t] -= a * full[t + 1]
    total = [0] * n
    for a, w, (_, (num, den)) in zip(nodes, weights, pairs):
        c = num * (y_den // den) * (big_w // w)
        carry = 0
        for t in range(n, 0, -1):  # carry is [z^(t-1)] M(z) / (z - a)
            carry = full[t] + a * carry
            total[t - 1] += c * carry
    scale = big_w * y_den
    coeffs = []
    for t, c in enumerate(total):
        numerator = c * x_den**t
        value, rem = divmod(numerator, scale)
        coeffs.append(Fraction(numerator, scale) if rem else value)
    return ExactPolynomial(coeffs)


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
