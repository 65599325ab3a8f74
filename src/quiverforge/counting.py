"""Counting machinery over F_q.

The module has one public entry point per route.  ``classify_classes``
reads M, I and A off the canonical orbit partition and ``hom_dim``: M
counts orbits, and each representative W has |Aut W| = |GL_d| / |orbit|
(Aut W is W's stabilizer) and dim End(W) = dim Hom(W, W), from which the
unit-count rule of ``reps`` reads locality and the residue degree.

Their one independent oracle, ``class_counts_by_hua``, is a formula chain
that enumerates neither a representation nor a group element.  A_e(q)
comes from Hua's formula (J. Algebra 226, 2000), a plethystic logarithm
over tuples of partitions; Galois descent turns A into I_e(q); and M_d(q)
is the X^d coefficient of the Krull-Schmidt product
prod_{0 < e <= d} (1 - X^e)^(-I_e) (Kac, LNM 996, 1983).

Hua's formula is computed in two steps.  The tuples of partitions are
tabulated once per (quiver, d), as merged terms X^m Q^e / prod_k (Q^k - 1)
that serve every Q.  Each log P(X, Q) is then one integer series over a
box: with D the lcm of the terms' denominators, P_m = p_m / D for integers
p_m, and the Euler recurrence runs on the integers U_m = |m| [X^m] log P
D^|m|, so the one division is the last one.  Every A_e(Q) is read through
``_a_reader``, built once per (table, d, q): one series per Q = q^t, on
the box floor(d/t).  Before the table is built the cap is charged with the
partition tuples; before a series runs it is charged with that series'
pairs k <= m <= box.

Kac polynomials take A from Hua's formula too, one table for all nodes; the
orbit partition's A is their test oracle.  Values at several prime powers
feed an exact Lagrange interpolation whose result is verified at two surplus
evaluation points before being returned.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import astuple, dataclass
from fractions import Fraction
from math import comb, gcd, lcm, prod

from .errors import (
    ConsistencyError,
    NonPolynomialBehavior,
    TheoremViolation,
    ValidationError,
    check_cap,
    DEFAULT_CAP,
)
from .ffield import field_from_order, gl_order, prime_power
from .orbits import orbit_partition
from .quiver import Quiver
from .reps import EndoStructure, Representation, _local_structure, hom_dim, representation_decoder
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
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    return [r for r in range(1, n + 1) if n % r == 0]


# ---------------------------------------------------------------------------
# class representatives and indecomposability counts


def orbit_representatives(quiver: Quiver, d, q: int, cap: int = DEFAULT_CAP):
    """(W, |orbit of W|) for each canonical representative W of Rep(Q, d)
    over F_q, the lexicographically smallest element of its GL_d-orbit, in
    lex order.  The partition runs, and charges the cap with its q^n points,
    on the call; the representatives are decoded as they are read."""
    field = field_from_order(q)
    indices, _, sizes = orbit_partition(quiver, field, d, cap=cap)
    decode = representation_decoder(quiver, field, d)
    return ((decode(i), size) for i, size in zip(indices, sizes))


def _end_structure(w: Representation, orbit_size: int) -> EndoStructure:
    """End(W) from |Aut W| = |GL_d| / orbit_size (Aut W is W's stabilizer) and
    hom_dim(W, W); an orbit size that does not divide |GL_d| is a hard error."""
    order = gl_order(w.d, w.field.q)
    units, rem = divmod(order, orbit_size)
    if rem:
        raise ConsistencyError(f"orbit of size {orbit_size} does not divide |GL_d| = {order}")
    return _local_structure(hom_dim(w, w), units, w.field.q)


@dataclass(frozen=True)
class ClassCounts:
    iso_classes: int
    indecomposable: int
    absolutely_indecomposable: int

    def __post_init__(self):
        ok = 0 <= self.absolutely_indecomposable <= self.indecomposable <= self.iso_classes
        if not ok:
            raise ConsistencyError(f"count ordering violated: {self}")


def classify_classes(quiver: Quiver, d, q: int, cap: int = DEFAULT_CAP) -> ClassCounts:
    """M, I and A from one orbit partition; the cap budgets its q^n points."""
    ends = [_end_structure(w, size) for w, size in orbit_representatives(quiver, d, q, cap)]
    return ClassCounts(
        iso_classes=len(ends),
        indecomposable=sum(end.is_local for end in ends),
        absolutely_indecomposable=sum(end.residue_degree == 1 for end in ends),
    )


@dataclass(frozen=True)
class CountReport:
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
        for label, found, expected in zip("MIA", astuple(counts), astuple(by_chain)):
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


def _pair_products(box: tuple[int, ...]) -> int:
    """Pairs k <= m <= box, which the log series multiplies once each."""
    return prod((b + 1) * (b + 2) // 2 for b in box)


def _squarefree_divisors(n: int) -> list[int]:
    return [r for r in divisors(n) if moebius(r)]


def _hua_terms(quiver: Quiver, d: tuple[int, ...], cap: int) -> Counter:
    """Hua's P as q-free terms: (m, e, ks) -> count, one term
    X^m Q^e / prod_{k in ks} (Q^k - 1) per tuple of partitions pi with
    |pi_i| = m_i <= d_i, since 1/b_lam(1/Q) = Q^(sum ks) / prod (Q^k - 1);
    tuples with equal (m, e, ks) are merged.  Q is q, or q^r for the r-th
    Adams term, so one table serves every Q, and its terms with m <= b are
    the table of the box b.  The cap is charged with the partition tuples
    before anything is built.
    """
    counts = _partition_counts(max(d))
    check_cap(prod(sum(counts[: dv + 1]) for dv in d), cap, "partition-tuple enumeration")
    per_vertex = [
        [(n, *_hua_data(lam)) for n in range(dv + 1) for lam in _partitions(n)] for dv in d
    ]
    arrows = [(quiver.vertex_index[a.tail], quiver.vertex_index[a.head]) for a in quiver.arrows]
    terms: Counter = Counter()
    for pi in itertools.product(*per_vertex):
        e = sum(_pairing(pi[t][1], pi[h][1]) for t, h in arrows)
        ks: list[int] = []
        for _, conj, vertex_ks in pi:
            e += sum(vertex_ks) - _pairing(conj, conj)
            ks.extend(vertex_ks)
        terms[(tuple(part[0] for part in pi), e, tuple(sorted(ks)))] += 1
    return terms


def _log_series(terms: Counter, box: tuple[int, ...], big_q: int) -> tuple[dict, int]:
    """log P(X, Q) on the box, in integers.

    P = 1 + sum of count X^m Q^e / prod_{k in ks} (Q^k - 1) over the terms
    with 0 < m <= box (the constant term is 1), at Q = big_q.  With D the
    lcm of the denominators prod (Q^k - 1) Q^max(0, -e), P_m = p_m / D for
    integers p_m (p_0 = D), and U_m = |m| L_m D^|m| satisfies Euler's
    |m| L_m = |m| P_m - sum_{0 < k < m} |k| L_k P_{m-k} times D^|m|:

        U_m = |m| p_m D^(|m|-1) - sum_{0 < k < m} U_k p_{m-k} D^(|m|-|k|-1).

    Every value is an integer.  Returns (U, D) with U keyed by m, so that
    [X^m] log P = U[m] / (|m| D^|m|).
    """
    points = list(itertools.product(*(range(b + 1) for b in box)))
    size = len(points)
    index = {m: flat for flat, m in enumerate(points)}
    # k <= m gives index[m] - index[k] = index[m - k]
    strides = [prod(b + 1 for b in box[i + 1:]) for i in range(len(box))]
    # numerators count * Q^max(0, e), summed per (m, denominator)
    numerators: Counter = Counter()
    for (m, e, ks), count in terms.items():
        flat = index.get(m)
        if flat:  # None off the box, 0 for the constant term
            numerators[flat, ks, max(0, -e)] += count * big_q ** max(0, e)
    products = {ks: prod(big_q**k - 1 for k in ks) for ks in {ks for _, ks, _ in numerators}}
    denominators = {
        (ks, shift): products[ks] * big_q**shift for ks, shift in {key[1:] for key in numerators}
    }
    common = lcm(*denominators.values())
    scale = {key: common // denominator for key, denominator in denominators.items()}
    p = [common] + [0] * (size - 1)
    for (flat, ks, shift), numerator in numerators.items():
        p[flat] += numerator * scale[ks, shift]

    degree = [sum(m) for m in points]
    powers = [1]
    u = [0] * size
    for flat in range(1, size):
        n = degree[flat]
        while len(powers) < n:
            powers.append(powers[-1] * common)
        below = [0]
        for x, stride in zip(points[flat], strides):
            below = [k + j * stride for k in below for j in range(x + 1)]
        # group the pair products by |k|, then sum over |k| by Horner in D
        by_degree = [0] * n
        for k in below[1:-1]:  # 0 < k < m: 0 comes first and m last
            by_degree[degree[k]] += u[k] * p[flat - k]
        acc = 0
        for part in by_degree[1:]:
            acc = acc * common + part
        u[flat] = n * p[flat] * powers[n - 1] - acc
    return dict(zip(points, u)), common


def _a_reader(terms: Counter, d: tuple[int, ...], q: int, cap: int):
    """``a_at(e, Q)`` = A_e(Q) for 0 < e <= d and Q = q^s with s e <= d, from
    ``terms``, a table that covers d, each value computed once:

        A_e(Q) = (Q - 1) sum_{r | gcd e} (mu(r)/r) [X^(e/r)] log P(X, Q^r).

    Each t gets one ``_log_series`` at q^t, on the box floor(d/t), charged
    with its pair products just before it runs: every [X^m] log P(X, q^t)
    read has m = e/r with t = s r, so m <= floor(d/t).  A non-integer value
    is a hard error."""
    exponent = {q**t: t for t in range(1, max(d, default=0) + 1)}
    series: dict = {}
    values: dict = {}

    def log_at(t: int, m: tuple[int, ...]) -> Fraction:
        if t not in series:
            box = tuple(x // t for x in d)
            check_cap(_pair_products(box), cap, "log-coefficient pair products")
            series[t] = _log_series(terms, box, q**t)
        u, common = series[t]
        n = sum(m)
        return Fraction(u[m], n * common**n)

    def a_at(e: tuple[int, ...], big_q: int) -> int:
        if (e, big_q) not in values:
            s = exponent[big_q]
            total = sum(
                Fraction(moebius(r), r) * log_at(s * r, tuple(x // r for x in e))
                for r in _squarefree_divisors(gcd(*e))
            )
            value = (big_q - 1) * total
            if value.denominator != 1:
                raise ConsistencyError(
                    f"Hua's formula gives a non-integer A_d({big_q}) = {value} for d={e}"
                )
            values[e, big_q] = int(value)
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
    return _a_reader(_hua_terms(quiver, d, cap), d, q, cap)(d, q)


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
    ``_a_reader`` per node; each log series is charged just before it runs.
    If verification fails the degree bound is raised once; a second failure
    raises NonPolynomialBehavior carrying all evaluations.
    """
    d = quiver.check_dim(d)
    if not any(d):
        raise ValidationError("Kac polynomial needs a nonzero dimension vector")
    if a_fn is None:
        terms = _hua_terms(quiver, d, cap)
        a_fn = lambda dd, qq: _a_reader(terms, dd, qq, cap)(dd, qq)
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

    The descent formula is never trusted standalone; callers compare it with
    the brute-force count (see check_galois_descent).
    """
    d = quiver.check_dim(d)
    if not any(d):
        raise ValidationError("descent needs a nonzero dimension vector")
    total = Fraction(0)
    for r in divisors(gcd(*d)):
        inner = 0
        d_over_r = tuple(x // r for x in d)
        for m in divisors(r):
            inner += moebius(m) * a_fn(d_over_r, q ** (r // m))
        total += Fraction(inner, r)
    if total.denominator != 1:
        raise ConsistencyError(f"descent sum is not an integer: {total}")
    return int(total)


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


def _krull_schmidt_coefficient(indec: dict, d: tuple[int, ...]) -> int:
    """[X^d] prod_{0 < e <= d} (1 - X^e)^(-indec[e]), in integers.

    No monomial outside the box <= d reaches X^d, so the product is kept on
    that box alone, one factor sum_j C(I_e + j - 1, j) X^(j e) at a time.
    """
    box = list(itertools.product(*(range(x + 1) for x in d)))
    coeffs = dict.fromkeys(box, 0)
    coeffs[box[0]] = 1
    for e in box[1:]:
        n = indec[e]
        if not n:
            continue
        # lexicographically descending, so every m - j e read is still unmultiplied
        for m in reversed(box):
            j, k = 1, tuple(a - b for a, b in zip(m, e))
            while min(k) >= 0:
                coeffs[m] += comb(n + j - 1, j) * coeffs[k]
                j, k = j + 1, tuple(a - b for a, b in zip(k, e))
    return coeffs[d]


def class_counts_by_hua(quiver: Quiver, d, q: int, cap: int = DEFAULT_CAP) -> ClassCounts:
    """M, I and A without enumerating Rep(Q, d) or GL_d:

        A_e(q^s) = (q^s - 1) sum_{r | gcd e} (mu(r)/r) L_{e/r}(q^(sr)) from
            Hua's formula, L_m(Q) = [X^m] log P(X, Q);
        I_e = galois_descent_I over those values, for every 0 < e <= d;
        M_d = [X^d] prod_{0 < e <= d} (1 - X^e)^(-I_e).

    Hua's term table is built once, for d, and one ``_a_reader`` serves
    every A_e(q^s) that descent reads, with one integer log series per
    Q = q^t.  The independent oracle for ``classify_classes``; the cap is
    charged with the table's partition tuples once and with each series'
    pair products.
    """
    field_from_order(q)  # the counts are over the field F_q
    d = quiver.check_dim(d)
    terms = _hua_terms(quiver, d, cap) if any(d) else Counter()
    a_at = _a_reader(terms, d, q, cap)
    indec = {
        e: galois_descent_I(quiver, e, q, a_at)
        for e in itertools.product(*(range(x + 1) for x in d))
        if any(e)
    }
    return ClassCounts(
        iso_classes=_krull_schmidt_coefficient(indec, d),
        indecomposable=indec.get(d, 0),
        absolutely_indecomposable=a_at(d, q) if any(d) else 0,
    )


def hua_identity_check(quiver: Quiver, q: int, degree: int, cap: int = DEFAULT_CAP) -> Fraction:
    """Largest coefficient discrepancy, up to total degree ``degree``, between

        sum_d M_d(q) X^d   and   prod_{d != 0} (1 - X^d)^(-I_d(q)),

    with M_d and I_d read off one ``classify_classes`` per d: the orbit
    partition, its orbit sizes and one ``hom_dim`` per class
    representative.  The right side's X^d coefficient is the chain's
    Krull-Schmidt product over the box <= d.  The contract is zero; a q
    that is not a prime power and a negative degree are refused, at every
    degree.
    """
    field_from_order(q)
    if degree < 0:
        raise ValidationError(f"the degree bound must be nonnegative, got {degree}")
    classes: dict = {}
    indec: dict = {}
    for dv in monomials_up_to(len(quiver.vertices), degree):
        if any(dv):
            counts = classify_classes(quiver, dv, q, cap=cap)
            classes[dv], indec[dv] = counts.iso_classes, counts.indecomposable
    return max(
        (Fraction(abs(m - _krull_schmidt_coefficient(indec, dv))) for dv, m in classes.items()),
        default=Fraction(0),
    )
