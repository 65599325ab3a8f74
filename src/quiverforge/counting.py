"""Counting machinery over F_q.

The module has one public entry point per route.  ``classify_classes``
reads M, I and A off the canonical orbit partition: M counts orbits; the
orbits that hold no direct sum of points of smaller dimension are the
indecomposable ones (Krull-Schmidt); and each of those has
|Aut W| = |GL_d| / |orbit| (Aut W is W's stabilizer), the unit count of a
local End(W), from which ``reps`` reads the residue degree.  No
representation is decoded and no Hom space solved.

Their one independent oracle, ``class_counts_by_hua``, is a formula chain
that enumerates neither a representation nor a group element.  A_e(q)
comes from Hua's formula (J. Algebra 226, 2000), a plethystic logarithm
over tuples of partitions; Galois descent turns A into I_e(q); and M_d(q)
is the X^d coefficient of the Krull-Schmidt product
prod_{0 < e <= d} (1 - X^e)^(-I_e) (Kac, LNM 996, 1983).

Hua's formula is computed in three steps.  The tuples of partitions are
tabulated once per (quiver, d), as merged terms X^m Q^e / prod_k (Q^k - 1)
that serve every Q.  Each box that a log P(X, Q) is read on gets one
Q-free plan per call (``_series_plan``): the box's points, the terms on it
grouped by denominator and the pairs k < m the recurrence multiplies.
Each log P is then one integer series on a plan (``_log_series``): with D
the lcm of the terms' denominators at Q, P_m = p_m / D for integers p_m,
and the Euler recurrence runs on the integers U_m = |m| [X^m] log P D^|m|,
so the one division is the last one.  Every A_e(Q) is read through
``_a_reader``, built once per (table, d, q): one series per Q = q^t, on
the box floor(d/t), its Moebius terms summed over one integer denominator.
Before the table is built the cap is charged with the partition tuples;
before a series runs, and before its plan is built, with that series'
pairs k <= m <= box.

Kac polynomials take A from Hua's formula too, one table and one plan per
box for all nodes; the orbit partition's A is their test oracle.  Values at
several prime powers feed an exact Lagrange interpolation whose result is
verified at two surplus evaluation points before being returned.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from .errors import (
    ConsistencyError,
    NonPolynomialBehavior,
    TheoremViolation,
    ValidationError,
    check_cap,
    DEFAULT_CAP,
)
from .ffield import _charge_factoring, factorisation, field_from_order, gl_order, prime_power
from .orbits import _charge_partition, _unsplit_orbits, orbit_partition
from .quiver import Quiver
from .reps import _orbit_units, _unit_residue_degree, representation_decoder
from .series import ExactPolynomial, lagrange_interpolate, monomials_up_to


def prime_powers():
    """2, 3, 4, 5, 7, 8, 9, 11, ..."""
    n = 2
    while True:
        if prime_power(n) is not None:
            yield n
        n += 1


def moebius(n: int) -> int:
    if n < 1:
        raise ValidationError("Moebius function needs a positive argument")
    factors = factorisation(n)
    return 0 if any(k > 1 for _, k in factors) else (-1) ** len(factors)


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending, from one factorisation of n."""
    divs = [1]
    for p, k in factorisation(n):
        divs = [r * p**i for r in divs for i in range(k + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# class representatives and indecomposability counts


def orbit_representatives(quiver: Quiver, d, q: int, cap: int = DEFAULT_CAP):
    """(W, |orbit of W|) for each canonical representative W of Rep(Q, d)
    over F_q, the lexicographically smallest element of its GL_d-orbit, in
    lex order.  The partition runs, and is charged, on the call; the
    representatives are decoded as they are read."""
    indices, _, sizes = orbit_partition(quiver, d, q, cap)
    decode = representation_decoder(quiver, field_from_order(q), d)
    return ((decode(i), size) for i, size in zip(indices, sizes))


class _ClassCountFields(NamedTuple):
    iso_classes: int
    indecomposable: int
    absolutely_indecomposable: int


class ClassCounts(_ClassCountFields):
    """M, I and A of one (quiver, d, q), refused unless 0 <= A <= I <= M."""

    __slots__ = ()

    def __new__(cls, iso_classes: int, indecomposable: int, absolutely_indecomposable: int):
        self = super().__new__(cls, iso_classes, indecomposable, absolutely_indecomposable)
        if not 0 <= absolutely_indecomposable <= indecomposable <= iso_classes:
            raise ConsistencyError(f"count ordering violated: {self}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it meets the same refusal
        return cls(*iterable)


def classify_classes(quiver: Quiver, d, q: int, cap: int = DEFAULT_CAP) -> ClassCounts:
    """M, I and A from one orbit partition, charged before q is factored.

    M counts the orbits.  By Krull-Schmidt, an orbit is decomposable iff it
    holds a direct sum W1 + W2 of points of smaller nonzero dimension, so
    the orbits left unmarked by ``orbits._unsplit_orbits`` are the
    indecomposable ones (none at d = 0), and I counts them.  Such an orbit's
    |Aut W| = |GL_d| / |orbit| (Aut W is W's stabilizer) must be the unit
    count q^a (q^r - 1) of a local End(W) with residue field F_{q^r}, r
    dividing gcd(d) (``reps._unit_residue_degree``), and A counts those with
    r = 1.  No representation is decoded and no Hom space solved.
    """
    d = quiver.check_dim(d)
    n_orbits, _, sizes = _unsplit_orbits(quiver, d, q, cap)
    gl = gl_order(d, q) if sizes else 0
    g = gcd(*d)
    absolute = 0
    for size in sizes:
        r = _unit_residue_degree(_orbit_units(gl, size), q)
        if not r or g % r:
            raise ConsistencyError(
                f"an indecomposable orbit of size {size} has {gl // size} automorphisms, "
                f"not the unit count of a local End(W) with residue degree dividing {g}"
            )
        absolute += r == 1
    return ClassCounts(
        iso_classes=n_orbits, indecomposable=len(sizes), absolutely_indecomposable=absolute
    )


class CountReport(NamedTuple):
    """One (quiver, d, q) counting run; field names M/I/A follow the
    standard notation for total, indecomposable and absolutely
    indecomposable iso-class counts."""

    quiver_hash: str
    d: tuple[int, ...]
    q: int
    iso_classes: int
    indecomposable: int
    absolutely_indecomposable: int
    method: str

    def to_json_dict(self) -> dict:
        return {
            "quiver": self.quiver_hash,
            "d": list(self.d),
            "q": self.q,
            "M": self.iso_classes,
            "I": self.indecomposable,
            "A": self.absolutely_indecomposable,
            "method": self.method,
        }


def count_report(
    quiver: Quiver, d, q: int, cap: int = DEFAULT_CAP, cross_check: bool = False
) -> CountReport:
    d = quiver.check_dim(d)
    counts = classify_classes(quiver, d, q, cap=cap)
    method = "orbit-partition"
    if cross_check:
        by_chain = class_counts_by_hua(quiver, d, q, cap=cap)
        for label, found, expected in zip("MIA", counts, by_chain):
            if found != expected:
                raise ConsistencyError(
                    f"orbit partition found {label} = {found}, the formula chain {expected}"
                )
        # the label predates the chain; cached payloads pin it
        method = "orbit-partition+burnside"
    return CountReport(
        quiver_hash=quiver.content_hash(),
        d=d,
        q=q,
        iso_classes=counts.iso_classes,
        indecomposable=counts.indecomposable,
        absolutely_indecomposable=counts.absolutely_indecomposable,
        method=method,
    )


# ---------------------------------------------------------------------------
# absolutely indecomposable counts from Hua's formula


def _partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples, lexicographically descending."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _partition_counts(n: int) -> list[int]:
    """p(0), ..., p(n)."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts


def _hua_data(lam: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(conjugate of lam, the k with a factor 1 - t^k in b_lam(t)):
    b_lam(t) = prod over part sizes m of prod_{k <= mult(m)} (1 - t^k)."""
    conjugate = tuple(sum(1 for part in lam if part >= k) for k in range(1, lam[0] + 1)) if lam else ()
    ks = tuple(k for m in set(lam) for k in range(1, lam.count(m) + 1))
    return conjugate, ks


def _pairing(conj1, conj2) -> int:
    """<lam, mu> = sum_k lam'_k mu'_k, from the conjugates."""
    return sum(a * b for a, b in zip(conj1, conj2))


def _charge_pairs(box: tuple[int, ...], cap: int) -> None:
    """Charge the cap with the pairs k <= m <= box that the log series multiplies."""
    check_cap(prod((b + 1) * (b + 2) // 2 for b in box), cap, "log-coefficient pair products")


def _squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """(r, mu(r)) for each squarefree divisor r of n, ascending in r, from
    one factorisation of n: the divisors with mu(r) != 0, signed."""
    pairs = [(1, 1)]
    for p, _ in factorisation(n):
        pairs += [(r * p, -mu) for r, mu in pairs]
    return sorted(pairs)


def _charge_tuples(d: tuple[int, ...], cap: int) -> None:
    """Charge the cap with the prod_i sum_{n <= d_i} p(n) tuples of partitions."""
    counts = _partition_counts(max(d))
    check_cap(prod(sum(counts[: dv + 1]) for dv in d), cap, "partition-tuple enumeration")


def _hua_terms(quiver: Quiver, d: tuple[int, ...], cap: int) -> Counter:
    """Hua's P as q-free terms: (m, e, ks) -> count, one term
    X^m Q^e / prod_{k in ks} (Q^k - 1) per tuple of partitions pi with
    |pi_i| = m_i <= d_i, since 1/b_lam(1/Q) = Q^(sum ks) / prod (Q^k - 1);
    tuples with equal (m, e, ks) are merged.  Q is q, or q^r for the r-th
    Adams term, so one table serves every Q, and its terms with m <= b are
    the table of the box b.  The cap is charged with the partition tuples
    before anything is built.
    """
    _charge_tuples(d, cap)
    per_vertex = [
        [(n, *_hua_data(lam)) for n in range(dv + 1) for lam in _partitions(n)] for dv in d
    ]
    terms: Counter = Counter()
    for pi in itertools.product(*per_vertex):
        e = sum(_pairing(pi[t][1], pi[h][1]) for t, h in quiver.ends)
        ks: list[int] = []
        for _, conj, vertex_ks in pi:
            e += sum(vertex_ks) - _pairing(conj, conj)
            ks.extend(vertex_ks)
        terms[(tuple(part[0] for part in pi), e, tuple(sorted(ks)))] += 1
    return terms


class _SeriesPlan:
    """Everything about log P(X, Q) on a box that does not depend on Q.

    ``points`` lists the box's m in lex order, so that k <= m gives
    flat(m) - flat(k) = flat(m - k); ``keys`` the denominators as (ks,
    shift), one for each prod_{k in ks} (Q^k - 1) Q^shift; ``numerators``
    the terms on the box, as (key index, flat m, max(0, e), count); and
    ``pairs[flat m]`` the pairs 0 < k < m grouped by |k| = 1, ...,
    |m| - 1, each group two tuples (flat k, flat(m - k)).
    """

    __slots__ = ("box", "points", "degree", "keys", "numerators", "pairs")

    def __init__(self, box, points, degree, keys, numerators, pairs):
        self.box, self.points, self.degree = box, points, degree
        self.keys, self.numerators, self.pairs = keys, numerators, pairs


def _series_plan(terms: Counter, box: tuple[int, ...]) -> _SeriesPlan:
    """The Q-free part of ``_log_series`` on ``box``: the box's points, the
    terms with 0 < m <= box regrouped by denominator, and the pairs k < m
    the recurrence multiplies.  It holds the pairs of ``_charge_pairs``, so
    the cap is charged with them before a plan is built."""
    points = list(itertools.product(*(range(b + 1) for b in box)))
    index = {m: flat for flat, m in enumerate(points)}
    strides = [prod(b + 1 for b in box[i + 1:]) for i in range(len(box))]
    degree = [sum(m) for m in points]
    numerators: Counter = Counter()
    for (m, e, ks), count in terms.items():
        flat = index.get(m)
        if flat:  # None off the box, 0 for the constant term
            numerators[ks, max(0, -e), flat, max(0, e)] += count
    keys = sorted({key[:2] for key in numerators})
    key_index = {key: i for i, key in enumerate(keys)}
    pairs: list = [()]
    for flat in range(1, len(points)):
        below = [0]
        for x, stride in zip(points[flat], strides):
            below = [k + j * stride for k in below for j in range(x + 1)]
        groups: list = [[] for _ in range(degree[flat])]
        for k in below[1:-1]:  # 0 < k < m: 0 comes first and m last
            groups[degree[k]].append(k)
        pairs.append(tuple((tuple(low), tuple(flat - k for k in low)) for low in groups[1:]))
    return _SeriesPlan(
        box=box,
        points=points,
        degree=degree,
        keys=keys,
        numerators=[
            (key_index[ks, shift], flat, e, count)
            for (ks, shift, flat, e), count in numerators.items()
        ],
        pairs=pairs,
    )


def _log_series(plan: _SeriesPlan, big_q: int) -> tuple[dict, int]:
    """log P(X, Q) on the plan's box, in integers.

    P = 1 + sum of count X^m Q^e / prod_{k in ks} (Q^k - 1) over the terms
    with 0 < m <= box (the constant term is 1), at Q = big_q.  With D the
    lcm of the denominators prod (Q^k - 1) Q^max(0, -e), P_m = p_m / D for
    integers p_m (p_0 = D), and U_m = |m| L_m D^|m| satisfies Euler's
    |m| L_m = |m| P_m - sum_{0 < k < m} |k| L_k P_{m-k} times D^|m|:

        U_m = |m| p_m D^(|m|-1) - sum_{0 < k < m} U_k p_{m-k} D^(|m|-|k|-1).

    Every value is an integer; the sum over k is grouped by |k| and taken by
    Horner in D.  Returns (U, D) with U keyed by m, so that
    [X^m] log P = U[m] / (|m| D^|m|).
    """
    denominators = [prod(big_q**k - 1 for k in ks) * big_q**shift for ks, shift in plan.keys]
    common = lcm(*denominators)
    scale = [common // denominator for denominator in denominators]
    size = len(plan.points)
    p = [common] + [0] * (size - 1)
    for key, flat, e, count in plan.numerators:
        p[flat] += count * big_q**e * scale[key]

    powers = [1]
    u = [0] * size
    u_at, p_at = u.__getitem__, p.__getitem__
    degree = plan.degree
    for flat, groups in enumerate(plan.pairs[1:], 1):
        n = degree[flat]
        while len(powers) < n:
            powers.append(powers[-1] * common)
        acc = 0
        for low, high in groups:
            acc = acc * common + sum(map(mul, map(u_at, low), map(p_at, high)))
        u[flat] = n * p[flat] * powers[n - 1] - acc
    return dict(zip(plan.points, u)), common


def _a_reader(terms: Counter, d: tuple[int, ...], q: int, cap: int, plans: dict):
    """``a_at(e, Q)`` = A_e(Q) for 0 < e <= d and Q = q^s with s e <= d, from
    ``terms``, a table that covers d, each value computed once:

        A_e(Q) = (Q - 1) sum_{r | gcd e} (mu(r)/r) [X^(e/r)] log P(X, Q^r).

    Each t gets one ``_log_series`` at q^t, on the box floor(d/t), charged
    with its pair products just before its plan is looked up or built and
    the series runs: every [X^m] log P(X, q^t) read has m = e/r with
    t = s r, so m <= floor(d/t).  ``plans``, a dict the caller creates for
    one call, keeps one ``_series_plan`` per box, so that readers for
    several q on the same table share them and none outlives the call.
    The Moebius terms are summed over one integer denominator; a
    non-integer value is a hard error."""
    exponent = {q**t: t for t in range(1, max(d, default=0) + 1)}
    series: dict = {}
    values: dict = {}

    def log_at(t: int) -> tuple[dict, int]:
        if t not in series:
            box = tuple(x // t for x in d)
            _charge_pairs(box, cap)
            if box not in plans:
                plans[box] = _series_plan(terms, box)
            series[t] = _log_series(plans[box], q**t)
        return series[t]

    def a_at(e: tuple[int, ...], big_q: int) -> int:
        if (e, big_q) not in values:
            s = exponent[big_q]
            # mu(r)/r [X^m] log P(X, Q^r) = mu(r) U_m / (r |m| D^|m|), m = e/r
            parts = []
            for r, mu in _squarefree_divisors(gcd(*e)):
                m = tuple(x // r for x in e)
                u, common = log_at(s * r)
                n = sum(m)
                parts.append((mu * u[m], r * n * common**n))
            denominator = lcm(*(den for _, den in parts))
            numerator = (big_q - 1) * sum(num * (denominator // den) for num, den in parts)
            value, rem = divmod(numerator, denominator)
            if rem:
                raise ConsistencyError(
                    f"Hua's formula gives a non-integer A_d({big_q}) = "
                    f"{Fraction(numerator, denominator)} for d={e}"
                )
            values[e, big_q] = value
        return values[e, big_q]

    return a_at


def abs_indecomposable_by_hua(quiver: Quiver, d, q: int, cap: int = DEFAULT_CAP) -> int:
    """A_d(q) from Hua's formula, for any integer q >= 2:

        sum_{d != 0} A_d(q) X^d = (q - 1) Log P(X, q),
        P = sum_pi X^|pi| q^(sum_a <pi_t(a), pi_h(a)> - sum_i <pi_i, pi_i>)
                          / prod_i b_{pi_i}(1/q),

    pi running over tuples of partitions, one per vertex, with |pi_i| <= d_i,
    and [X^d] Log P = sum_{r | gcd d} (mu(r)/r) [X^(d/r)] log P(X, q^r).
    No representation is enumerated.  P's terms are tabulated once, free of
    q; each log P(X, q^r) is then taken in integers, by the Euler recurrence
    on U_m = |m| L_m D^|m| with D the lcm of the terms' denominators, and
    the one division is L_m = U_m / (|m| D^|m|) (see ``_log_series``).
    Before the table is built the cap budgets the partition tuples,
    prod_i sum_{n <= d_i} p(n); before each log P(X, q^r) runs, its pair
    products prod_i (d_i/r + 1)(d_i/r + 2)/2.
    A non-integer result is a hard error.
    """
    d = quiver.check_dim(d)
    if not any(d):
        raise ValidationError("A_d needs a nonzero dimension vector")
    if not isinstance(q, int) or q < 2:
        raise ValidationError(f"Hua's formula needs an integer q >= 2, got {q!r}")
    return _a_reader(_hua_terms(quiver, d, cap), d, q, cap, {})(d, q)


# ---------------------------------------------------------------------------
# Kac polynomials by interpolation


def kac_polynomial(
    quiver: Quiver, d, cap: int = DEFAULT_CAP, a_fn=None
) -> ExactPolynomial:
    """The counting polynomial of absolutely indecomposable classes.

    Evaluates A_d at the smallest prime powers, by Hua's formula unless
    ``a_fn(d, q)`` is given (the orbit partition's A, read off
    ``classify_classes``, is the brute-force oracle), interpolates exactly,
    and verifies the result at two surplus prime powers.  Hua's term table
    is built, and its partition tuples charged, once for all nodes, with one
    ``_a_reader`` per node.  The readers share one dict of series plans,
    created here, so each box's plan is built once per call and dropped
    with it; each log series is charged just before its plan is looked up
    and it runs.
    If verification fails the degree bound is raised once; a second failure
    raises NonPolynomialBehavior carrying all evaluations.
    """
    d = quiver.check_dim(d)
    if not any(d):
        raise ValidationError("Kac polynomial needs a nonzero dimension vector")
    if a_fn is None:
        terms = _hua_terms(quiver, d, cap)
        plans: dict = {}
        a_fn = lambda dd, qq: _a_reader(terms, dd, qq, cap, plans)(dd, qq)
    degree_bound = max(0, quiver.expected_moduli_dim(d))
    evaluations: dict[int, int] = {}

    def value_at(node: int) -> int:
        if node not in evaluations:
            evaluations[node] = a_fn(d, node)
        return evaluations[node]

    def attempt(n_nodes: int) -> ExactPolynomial | None:
        stream = prime_powers()
        nodes = [next(stream) for _ in range(n_nodes)]
        checks = [next(stream), next(stream)]
        poly = lagrange_interpolate([(n, value_at(n)) for n in nodes])
        for node in checks:
            if poly(node) != value_at(node):
                return None
        return poly

    poly = attempt(degree_bound + 1)
    if poly is None:
        poly = attempt(degree_bound + 2)
    if poly is None:
        raise NonPolynomialBehavior(
            "non-polynomial behavior detected for the absolutely-indecomposable count",
            evaluations,
        )
    if not poly.has_integer_coefficients():
        raise TheoremViolation(
            f"interpolated count has non-integer coefficients: {poly.coeffs}"
        )
    return poly


# ---------------------------------------------------------------------------
# Galois descent


def galois_descent_I(quiver: Quiver, d, q: int, a_fn) -> int:
    """Indecomposable count from absolutely-indecomposable counts
    ``a_fn(e, Q)`` = A_e(Q):

        I(d, q) = sum_{r | d} (1/r) sum_{m | r} mu(m) A(d/r, q^{r/m})

    m runs over the squarefree divisors only, so ``a_fn`` is never asked
    for a term that mu(m) = 0 would discard.  Every r divides g = gcd d,
    so the sum is taken in integers over g and divided once; a non-integer
    sum is a hard error.  The descent formula is never
    trusted standalone; callers compare it with the brute-force count (see
    check_galois_descent).
    """
    d = quiver.check_dim(d)
    if not any(d):
        raise ValidationError("descent needs a nonzero dimension vector")
    g = gcd(*d)
    total = 0
    for r in divisors(g):
        inner = 0
        d_over_r = tuple(x // r for x in d)
        for m, mu in _squarefree_divisors(r):
            inner += mu * a_fn(d_over_r, q ** (r // m))
        total += inner * (g // r)
    value, rem = divmod(total, g)
    if rem:
        raise ConsistencyError(f"descent sum is not an integer: {Fraction(total, g)}")
    return value


def check_galois_descent(quiver: Quiver, d, q: int, cap: int = DEFAULT_CAP) -> int:
    """Descent value, verified against the brute-force indecomposable count.

    One classification of (d, q) gives both the brute-force I and the
    descent sum's r = m = 1 term A(d, q).
    """
    d = quiver.check_dim(d)
    counts = classify_classes(quiver, d, q, cap=cap)

    def a_fn(dd, qq):
        if (dd, qq) == (d, q):
            return counts.absolutely_indecomposable
        return classify_classes(quiver, dd, qq, cap=cap).absolutely_indecomposable

    by_descent = galois_descent_I(quiver, d, q, a_fn)
    by_force = counts.indecomposable
    if by_descent != by_force:
        raise ConsistencyError(
            f"Galois descent gives {by_descent}, brute force gives {by_force} "
            f"for d={tuple(d)}, q={q}"
        )
    return by_force


# ---------------------------------------------------------------------------
# the formula chain Hua -> Galois descent -> Krull-Schmidt


def _krull_schmidt_coefficients(indec: dict, support) -> dict:
    """[X^d] prod_{e != 0} (1 - X^e)^(-indec[e]) for every d in ``support``,
    in integers, from one product.

    ``support`` is down-closed (every 0 <= k <= d of a member is a member),
    so no monomial outside it reaches one inside, and the product is kept on
    the support alone, one factor sum_j C(I_e + j - 1, j) X^(j e) per
    nonzero e in it.
    """
    # lexicographically descending, so every m - j e read is still unmultiplied
    order = sorted(support, reverse=True)
    coeffs = dict.fromkeys(order, 0)
    coeffs[order[-1]] = 1
    for e in order[-2::-1]:
        n = indec[e]
        if not n:
            continue
        for m in order:
            j, k = 1, tuple(a - b for a, b in zip(m, e))
            while k in coeffs:
                coeffs[m] += comb(n + j - 1, j) * coeffs[k]
                j, k = j + 1, tuple(a - b for a, b in zip(k, e))
    return coeffs


def class_counts_by_hua(quiver: Quiver, d, q: int, cap: int = DEFAULT_CAP) -> ClassCounts:
    """M, I and A without enumerating Rep(Q, d) or GL_d:

        A_e(q^s) = (q^s - 1) sum_{r | gcd e} (mu(r)/r) L_{e/r}(q^(sr)) from
            Hua's formula, L_m(Q) = [X^m] log P(X, Q);
        I_e = galois_descent_I over those values, for every 0 < e <= d;
        M_d = [X^d] prod_{0 < e <= d} (1 - X^e)^(-I_e).

    Hua's term table is built once, for d, and one ``_a_reader`` serves
    every A_e(q^s) that descent reads, with one integer log series per
    Q = q^t.  The independent oracle for ``classify_classes``; the cap is
    charged with the table's partition tuples and each series' pair
    products, the tuples and the largest series (box d), and then the
    trial division of q, before q is factored.
    """
    d = quiver.check_dim(d)
    if any(d):
        _charge_tuples(d, cap)
        _charge_pairs(d, cap)
    _charge_factoring(q, cap)
    field_from_order(q)  # the counts are over the field F_q
    terms = _hua_terms(quiver, d, cap) if any(d) else Counter()
    a_at = _a_reader(terms, d, q, cap, {})
    box = list(itertools.product(*(range(x + 1) for x in d)))
    indec = {e: galois_descent_I(quiver, e, q, a_at) for e in box[1:]}
    return ClassCounts(
        iso_classes=_krull_schmidt_coefficients(indec, box)[d],
        indecomposable=indec.get(d, 0),
        absolutely_indecomposable=a_at(d, q) if any(d) else 0,
    )


def hua_identity_check(quiver: Quiver, q: int, degree: int, cap: int = DEFAULT_CAP) -> Fraction:
    """Largest coefficient discrepancy, up to total degree ``degree``, between

        sum_d M_d(q) X^d   and   prod_{d != 0} (1 - X^d)^(-I_d(q)),

    with M_d and I_d read off one ``classify_classes`` per d: the orbit
    partition, with the orbits of direct sums marked.  Every X^d
    coefficient of the right side is read off one Krull-Schmidt product,
    kept on the monomials of total degree <= ``degree``.  The contract is zero; a q that is not a
    prime power and a negative degree are refused, at every degree.  The
    support's C(degree + n, n) monomials are charged before any is listed,
    and each nonzero d's q^n points (``orbits._charge_partition``) as the lex
    walk reaches it, and then the trial division of q, all before q is
    factored, so a huge degree or q is refused without listing the support
    or trial division.
    """
    n = len(quiver.vertices)
    if degree >= 0:
        check_cap(comb(degree + n, n), cap, "monomial support of the Hua identity")
    support = []
    for dv in monomials_up_to(n, degree):
        if any(dv):
            _charge_partition(quiver, dv, q, cap)
        support.append(dv)
    monomials = support[1:]
    _charge_factoring(q, cap)
    field_from_order(q)
    if degree < 0:
        raise ValidationError(f"the degree bound must be nonnegative, got {degree}")
    classes: dict = {}
    indec: dict = {}
    for dv in monomials:
        counts = classify_classes(quiver, dv, q, cap=cap)
        classes[dv], indec[dv] = counts.iso_classes, counts.indecomposable
    products = _krull_schmidt_coefficients(indec, support)
    return max(
        (Fraction(abs(m - products[dv])) for dv, m in classes.items()),
        default=Fraction(0),
    )
