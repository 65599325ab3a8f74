"""Moment-map level sets for the doubled quiver and the point-count
identities they satisfy.

Sign convention: the moment value at a vertex v is

    value_v = sum_{head(a) = v} X_a X_{a*}  -  sum_{tail(a) = v} X_{a*} X_a

over the unstarred half of the arrows.  The opposite grouping amounts to
replacing eta by -eta; generic stability parameters come in +/- pairs, so
every check here is insensitive to the choice.

Level sets are counted fiber by fiber over the plain representation space
Rep(Q, d) (Crawley-Boevey & Van den Bergh, Invent. Math. 155, 2004).  For a
fixed X the moment value is linear in X* and vanishes at X* = 0, so the
fiber {X* : mu(X, X*) = eta.I} is an affine F_q-space: q^(n - rank) points
when the linear system is consistent and none otherwise, n = dim Rep(Q, d).
The fiber size is GL_d-invariant (mu is equivariant, eta.I central), so one
row reduction per orbit of Rep(Q, d), times its size, replaces the walk of
the q^(2n) doubled points that ``level_set_points`` keeps as brute oracle.
Each route is charged with what it walks: the fiber route with the q^n
points of the orbit partition, the oracle with the q^(2n) doubled points.
The system is read off the formula above, not from ``hom_space``, so the
fibers are independent of the ``hom_dim`` that ``lifting_fiber_check`` uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    ConsistencyError,
    SmallCharacteristic,
    TheoremViolation,
    ValidationError,
    DEFAULT_CAP,
)
from .ffield import Field, FqMatrix, field_from_order, g_order
from .quiver import Quiver, is_generic, pairing
from .reps import Representation, all_representations, arrow_shapes
from .counting import _end_structure, classify_classes, orbit_representatives
from .series import ExactPolynomial


@dataclass(frozen=True)
class MomentValue:
    """Per-vertex square matrices with vanishing total trace."""

    values: tuple[FqMatrix, ...]

    def total_trace(self) -> int:
        field = self.values[0].field
        acc = 0
        for m in self.values:
            acc = field.add(acc, m.trace())
        return acc


def _require_doubled(w: Representation) -> None:
    if not w.quiver.is_doubled:
        raise ValidationError("moment map needs a representation of a doubled quiver")


def moment_map(w: Representation) -> MomentValue:
    _require_doubled(w)
    quiver, field = w.quiver, w.field
    values = [FqMatrix.zeros(field, dv, dv) for dv in w.d]
    for a in quiver.forward_arrows():
        x = w.map_for(a.id)
        x_star = w.map_for(quiver.star(a.id))
        h = quiver.vertex_index[a.head]
        t = quiver.vertex_index[a.tail]
        values[h] = values[h].add(x.mul(x_star))
        values[t] = values[t].sub(x_star.mul(x))
    value = MomentValue(values=tuple(values))
    if any(w.d) and value.total_trace() != 0:
        raise ConsistencyError("moment value escaped the trace-zero subalgebra")
    return value


def _relation_targets(quiver: Quiver, field: Field, d, eta) -> tuple[FqMatrix, ...]:
    """(eta_v mod p) times the identity at each vertex v: the deformed relations."""
    eta = quiver.check_vector(eta, name="deformation parameter")
    return tuple(
        FqMatrix.identity(field, dv).scale(ev % field.p)
        for dv, ev in zip(quiver.check_dim(d), eta)
    )


def satisfies_relations(w: Representation, eta) -> bool:
    """Whether the moment value is (eta_v mod p) times the identity, vertexwise."""
    _require_doubled(w)
    return moment_map(w).values == _relation_targets(w.quiver, w.field, w.d, eta)


def trace_obstruction(eta, d, p: int) -> bool:
    """True when eta . d vanishes mod p; otherwise the level set is empty."""
    if len(eta) != len(d):
        raise ValidationError("eta and d are indexed by different vertex sets")
    return pairing(eta, d) % p == 0


def _doubled(quiver: Quiver) -> Quiver:
    return quiver if quiver.is_doubled else quiver.double()


def level_set_points(quiver: Quiver, d, eta, q: int, cap: int = DEFAULT_CAP):
    """All doubled representations satisfying the deformed relations, by a
    walk of the whole doubled space: the brute oracle for ``_fiber_sizes``."""
    doubled = _doubled(quiver)
    field = field_from_order(q)
    targets = _relation_targets(doubled, field, d, eta)
    for w in all_representations(doubled, field, d, cap=cap):
        if moment_map(w).values == targets:
            yield w


def _fiber_terms(half: Quiver, d) -> tuple[list[tuple[int, int, int, bool]], list[int]]:
    """The linear map X* -> mu(X, X*) as terms (equation, unknown, entry of X,
    negated), and the equations on the diagonals of the moment value.

    Equation (v, r, c) is entry (r, c) of the moment value at v, numbered
    vertex-major then row-major; unknown X*_a[i][j] is numbered arrow-major
    then row-major; the entry of X is a position in its entry key.
    """
    offsets = list(itertools.accumulate((dv * dv for dv in d), initial=0))
    diagonal = [offsets[v] + r * (dv + 1) for v, dv in enumerate(d) for r in range(dv)]
    terms = []
    unknown = pos = 0
    for a, (dh, dt) in zip(half.arrows, arrow_shapes(half, d)):
        h, t = half.vertex_index[a.head], half.vertex_index[a.tail]
        for i in range(dt):
            for j in range(dh):
                # (X_a X*_a)[r][j] at the head, -(X*_a X_a)[i][c] at the tail
                for r in range(dh):
                    terms.append((offsets[h] + r * dh + j, unknown, pos + r * dt + i, False))
                for c in range(dt):
                    terms.append((offsets[t] + i * dt + c, unknown, pos + j * dt + c, True))
                unknown += 1
        pos += dh * dt
    return terms, diagonal


def _fiber_sizes(quiver: Quiver, d, eta, q: int, cap: int = DEFAULT_CAP):
    """(X, |orbit of X|, |{X* : mu(X, X*) = eta.I}|) for each canonical
    GL_d-orbit representative X of Rep(Q, d), in lex order.

    For a doubled quiver the forward arrows carry X and their partners X*.
    The walk is the orbit partition of Rep(Q, d), which charges the cap with
    its q^n points before the fiber system is built.
    """
    doubled = _doubled(quiver)
    field = field_from_order(q)
    rhs = [x for m in _relation_targets(doubled, field, d, eta) for x in m.flat()]
    d = doubled.check_dim(d)
    half = Quiver(quiver.vertices, quiver.forward_arrows()) if quiver.is_doubled else quiver
    n = sum(r * c for r, c in arrow_shapes(half, d))
    orbits = orbit_representatives(half, d, q, cap)
    terms, diagonal = _fiber_terms(half, d)
    for x, size in orbits:
        flat = x.entry_key()
        system = [[0] * n + [b] for b in rhs]
        for e, u, p, negated in terms:
            if flat[p]:
                term = field.neg(flat[p]) if negated else flat[p]
                system[e][u] = field.add(system[e][u], term)
        # mu(X, X*) has total trace 0 for every X* iff each column does
        for u in range(n):
            trace = 0
            for e in diagonal:
                trace = field.add(trace, system[e][u])
            if trace:
                raise ConsistencyError("moment value escaped the trace-zero subalgebra")
        _, pivots = FqMatrix(field, system).rref()
        yield x, size, 0 if n in pivots else q ** (n - len(pivots))


def enumerate_level_set(quiver: Quiver, d, eta, q: int, cap: int = DEFAULT_CAP) -> int:
    """|mu^-1(eta.I)| in the doubled space, summed orbit by orbit over Rep(Q, d)."""
    return sum(size * fiber for _, size, fiber in _fiber_sizes(quiver, d, eta, q, cap=cap))


def _check_generic(quiver: Quiver, d, theta) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(d, theta) checked: the quiver is undoubled, d is nonzero and theta is
    generic for d.  A theta generic for a nonzero d forces gcd(d) = 1: for
    d = m d' with m > 1, theta.d' = theta.d / m = 0 at the proper d'."""
    if quiver.is_doubled:
        raise ValidationError("pass the undoubled quiver; doubling is internal here")
    d = quiver.check_dim(d)
    theta = quiver.check_vector(theta, name="stability parameter")
    if not any(d):
        raise ValidationError(f"d={d} is zero; moduli counts need a nonzero d")
    if not is_generic(theta, d):
        raise ValidationError(f"theta={theta} is not generic for d={d}")
    return d, theta


def _level_and_points(quiver: Quiver, d, theta, q: int, cap: int) -> tuple[int, int]:
    """(|level set|, |level set| / |G_d|) for (d, theta) as ``_check_generic``
    returns them, from one fiber pass."""
    level = enumerate_level_set(quiver, d, theta, q, cap=cap)
    order = g_order(d, q)
    points, rem = divmod(level, order)
    if rem:
        raise SmallCharacteristic(
            f"level-set count {level} is not divisible by |G_d| = {order}: "
            "characteristic too small or theta not generic in this characteristic"
        )
    return level, points


def moduli_point_count(quiver: Quiver, d, theta, q: int, cap: int = DEFAULT_CAP) -> int:
    """|level set| / |G_d|, the rational point count of the symplectic quotient.

    Exactness of the division is the empirical stand-in for "characteristic
    large enough"; a remainder raises SmallCharacteristic.
    """
    d, theta = _check_generic(quiver, d, theta)
    return _level_and_points(quiver, d, theta, q, cap)[1]


@dataclass(frozen=True)
class CbvdbCheck:
    """One instance of the point-count identity |X(F_q)| = q^e * A(q);
    ``point_count`` is ``level_set`` (the theta-level set's size) over |G_d|."""

    holds: bool
    q: int
    e: int
    level_set: int
    point_count: int
    abs_indecomposable: int
    in_theorem_scope: bool

    @property
    def expected(self) -> int:
        return self.q**self.e * self.abs_indecomposable


def cbvdb_identity_check(
    quiver: Quiver, d, theta, q: int, cap: int = DEFAULT_CAP
) -> CbvdbCheck:
    """Compare the moduli point count with q^e times the absolutely
    indecomposable count; both sides brute force."""
    d, theta = _check_generic(quiver, d, theta)
    e = quiver.expected_moduli_dim(d)
    if e < 0:
        raise ValidationError(f"expected moduli dimension is negative for d={d}")
    level, points = _level_and_points(quiver, d, theta, q, cap)
    abs_count = classify_classes(quiver, d, q, cap=cap).absolutely_indecomposable
    return CbvdbCheck(
        holds=(points == q**e * abs_count),
        q=q,
        e=e,
        level_set=level,
        point_count=points,
        abs_indecomposable=abs_count,
        in_theorem_scope=quiver.is_loop_free,
    )


@dataclass(frozen=True)
class LiftingCheck:
    """Fiber profile of the projection from the theta-level set back to the
    plain representation space: q^(dim Ext^1(W, W)) over indecomposables,
    empty over everything else.  ``fibers_total``, the fibers summed over
    Rep(Q, d), is the level set's size, so it equals ``level_count``."""

    holds: bool
    level_count: int
    fibers_total: int
    counterexample: tuple[int, ...] | None  # entry key of the lex-first offending W


def lifting_fiber_check(
    quiver: Quiver, d, theta, q: int, cap: int = DEFAULT_CAP
) -> LiftingCheck:
    d, theta = _check_generic(quiver, d, theta)
    level_count = 0
    counterexample = None
    for w, size, observed in _fiber_sizes(quiver, d, theta, q, cap=cap):
        level_count += size * observed
        expected = 0
        end = _end_structure(w, size)
        if end.is_local:  # indecomposable: dim Ext^1(W, W) = dim End(W) - <d, d>
            ext = end.dim_end - quiver.euler_form(d, d)
            if ext < 0:
                raise ConsistencyError("negative Ext dimension; Hom solver is broken")
            expected = q**ext
        # both sides are iso-invariant, so the first offending orbit holds the lex-first point
        if observed != expected and counterexample is None:
            counterexample = w.entry_key()
    return LiftingCheck(
        holds=counterexample is None,
        level_count=level_count,
        fibers_total=level_count,
        counterexample=counterexample,
    )


@dataclass(frozen=True)
class BettiReport:
    """Even-degree Betti numbers read off a counting polynomial."""

    e: int
    betti: tuple[int, ...]
    scope: str  # "theorem" when Q is loop-free and d indivisible, else "heuristic"


def betti_from_kac(a: ExactPolynomial, e: int, in_theorem_scope: bool = True) -> BettiReport:
    """b_{2e-2i} = coefficient of q^i; odd Betti numbers vanish.

    Raises TheoremViolation on negative or non-integer coefficients (the
    positivity theorem guarantees natural coefficients in scope).
    """
    if e < 0:
        raise ValidationError("half-dimension e must be nonnegative")
    if a.degree > e:
        raise ValidationError(
            f"polynomial degree {a.degree} exceeds the half-dimension {e}"
        )
    if not a.has_integer_coefficients():
        raise TheoremViolation(f"non-integer coefficients: {a.coeffs}")
    coeffs = a.integer_coefficients()
    if any(c < 0 for c in coeffs):
        raise TheoremViolation(f"negative coefficients: {coeffs}")
    betti = [0] * (2 * e + 1)
    for i, c in enumerate(coeffs):
        betti[2 * e - 2 * i] = c
    return BettiReport(
        e=e,
        betti=tuple(betti),
        scope="theorem" if in_theorem_scope else "heuristic",
    )
