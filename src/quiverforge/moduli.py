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
That system is X's Hom system transposed (Crawley-Boevey, Compositio Math.
126, 2001): under the trace pairing

    sum_v tr(mu_v f_v) = sum_a tr(X*_a (f_head X_a - X_a f_tail)),

so X* -> mu(X, X*) is the transpose of f -> (f_head X_a - X_a f_tail), the
map whose kernel is End(X).  Its rank gives the fiber and
dim End(X) = sum d_v^2 - rank at once.  The fiber size is GL_d-invariant
(mu is equivariant, eta.I central), so one forward elimination per orbit
of Rep(Q, d), whose pivot columns give the rank and consistency, times its
size, replaces the walk of the q^(2n) doubled points.  Each orbit's system
is filled straight from its canonical index: the base-q digits of the index
are X's entries, and the terms of ``reps._hom_layout``, the one layout of
the Hom system, built once per process for each space, place them in rows
of plain lists, which ``ffield._eliminate``, the package's one elimination
loop, reduces in place; no X is decoded and no matrix is built per orbit.
The identity is in every End(X), so mu(X, X*) has trace 0 for all X and
X*; that trace identity depends on the layout alone and is checked on it
once per call, before the first orbit.  The doubled walk,
``level_set_points``, stays as the independent oracle: it evaluates
``moment_map`` through ``FqMatrix.mul`` and shares no code with the layout.
Each route is charged with what it walks: the fiber route with the q^n
points of the orbit partition, the oracle with the q^(2n) doubled points.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    ConsistencyError,
    SmallCharacteristic,
    TheoremViolation,
    ValidationError,
    DEFAULT_CAP,
)
from .ffield import Field, FqMatrix, _charge_factoring, _eliminate, field_from_order, g_order, gl_order
from .quiver import Quiver, _charge_generic_walk, is_generic, pairing
from .reps import (
    Representation,
    _charge_space,
    _ext1_from_hom,
    _hom_layout,
    _local_structure,
    _orbit_units,
    all_representations,
    arrow_shapes,
)
from .counting import classify_classes
from .orbits import _shared_partitions, orbit_partition
from .series import ExactPolynomial


class MomentValue(NamedTuple):
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
        t, h = quiver.ends[quiver.arrow_index[a.id]]
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
    walk of the whole doubled space: the brute oracle for ``_fiber_sizes``.
    The q^(2n) doubled points, then the trial division of q, are charged
    before q is factored."""
    doubled = _doubled(quiver)
    _charge_space(arrow_shapes(doubled, d), q, cap)
    _charge_factoring(q, cap)
    field = field_from_order(q)
    targets = _relation_targets(doubled, field, d, eta)
    for w in all_representations(doubled, field, d, cap=cap):
        if moment_map(w).values == targets:
            yield w


def _check_trace_identity(terms, diagonal, p: int) -> None:
    """Refuse a Hom-system layout whose transposed system can leave the
    trace-zero subalgebra.  The identity is an endomorphism of every X, so
    mu(X, X*) has trace 0 for every X*: in X's fiber system, the sum of the
    rows of the ``diagonal`` unknowns vanishes in each equation.  That sum
    is, over the ``terms`` (equation, unknown, source, position, sign) on a
    diagonal unknown, sign times X's entry at position, so it vanishes for
    every X iff each (equation, position)'s signed count of those terms
    vanishes mod p.  One pass over the layout thus checks every orbit of
    the call, and every position, whether or not an orbit's key exercises
    it."""
    counts = {}
    for equation, unknown, _, position, sign in terms:
        if unknown in diagonal:
            counts[equation, position] = counts.get((equation, position), 0) + sign
    if any(count % p for count in counts.values()):
        raise ConsistencyError("moment value escaped the trace-zero subalgebra")


def _fiber_sizes(quiver: Quiver, d: tuple[int, ...], eta: tuple[int, ...], q: int, cap: int = DEFAULT_CAP):
    """(entry key of X, |orbit of X|, |Aut X|, |{X* : mu(X, X*) = eta.I}|,
    dim End(X)) for each canonical GL_d-orbit representative X of
    Rep(Q, d), in lex order.

    d and eta are taken as ``Quiver.check_dim`` and ``Quiver.check_vector``
    return them; the public callers check them.  For a doubled quiver the
    forward arrows carry X and their partners X*.  The walk is the orbit
    partition of Rep(Q, d), which charges the cap with its q^n points
    before q is factored, |GL_d| is computed (for |Aut X| = |GL_d| /
    |orbit of X|) and the Hom-system layout is read.  The trace identity is
    checked once, on the layout, before the first orbit
    (``_check_trace_identity``).  X is never decoded: its entry key is the
    base-q digits of its canonical index, and each term of
    ``reps._hom_layout`` at (d, d) adds its entry of the key to X's fiber
    system, the Hom system transposed (see the module docstring): one row
    per unknown of f, one column per equation, then the right side,
    (eta_v mod p) at the diagonal unknowns of each f_v.  Those rows are
    eliminated in place by ``ffield._eliminate``; no matrix is built.
    """
    half = Quiver(quiver.vertices, quiver.forward_arrows()) if quiver.is_doubled else quiver
    indices, _, sizes = orbit_partition(half, d, q, cap)
    field, gl = field_from_order(q), gl_order(d, q)
    add, neg = field.add, field.neg
    n, n_unknowns, offsets, terms = _hom_layout(half.ends, d, d)
    # the diagonal unknowns of each f_v, with (eta_v mod p), their right side
    diagonal = {
        offset + i * (dv + 1): ev % field.p for offset, dv, ev in zip(offsets, d, eta) for i in range(dv)
    }
    _check_trace_identity(terms, diagonal, field.p)
    rhs = [diagonal.get(unknown, 0) for unknown in range(n_unknowns)]
    weights = [q**k for k in range(n - 1, -1, -1)]  # first entry most significant
    for index, size in zip(indices, sizes):
        key = tuple([index // w % q for w in weights])
        rows = [[0] * n + [b] for b in rhs]
        for equation, unknown, _, position, sign in terms:
            value = key[position]
            if value:
                row = rows[unknown]
                row[equation] = add(row[equation], value if sign > 0 else neg(value))
        pivots, _ = _eliminate(field, rows, n + 1)
        rank = len(pivots) - (n in pivots)
        fiber = 0 if n in pivots else q ** (n - rank)
        yield key, size, _orbit_units(gl, size), fiber, n_unknowns - rank


def enumerate_level_set(quiver: Quiver, d, eta, q: int, cap: int = DEFAULT_CAP) -> int:
    """|mu^-1(eta.I)| in the doubled space, summed orbit by orbit over Rep(Q, d)."""
    eta = quiver.check_vector(eta, name="deformation parameter")
    d = quiver.check_dim(d)
    return sum(size * fiber for _, size, _, fiber, _ in _fiber_sizes(quiver, d, eta, q, cap=cap))


def _check_generic(quiver: Quiver, d, theta, cap: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(d, theta) checked: the quiver is undoubled, d is nonzero and theta is
    generic for d, the genericity walk charged to the cap before it runs.
    A theta generic for a nonzero d forces gcd(d) = 1: for d = m d' with
    m > 1, theta.d' = theta.d / m = 0 at the proper d'."""
    if quiver.is_doubled:
        raise ValidationError("pass the undoubled quiver; doubling is internal here")
    d = quiver.check_dim(d)
    theta = quiver.check_vector(theta, name="stability parameter")
    if not any(d):
        raise ValidationError(f"d={d} is zero; moduli counts need a nonzero d")
    _charge_generic_walk(theta, d, cap)
    if not is_generic(theta, d):
        raise ValidationError(f"theta={theta} is not generic for d={d}")
    return d, theta


def _points_of_level(level: int, d, q: int) -> int:
    """|level set| / |G_d|; a remainder raises SmallCharacteristic, the
    stand-in for "characteristic too small" of every theta-level entry."""
    order = g_order(d, q)
    points, rem = divmod(level, order)
    if rem:
        raise SmallCharacteristic(
            f"level-set count {level} is not divisible by |G_d| = {order}: "
            "characteristic too small or theta not generic in this characteristic",
            level,
        )
    return points


def _level_and_points(quiver: Quiver, d, theta, q: int, cap: int) -> tuple[int, int]:
    """(|level set|, |level set| / |G_d|) for (d, theta) as ``_check_generic``
    returns them, from one fiber pass."""
    level = enumerate_level_set(quiver, d, theta, q, cap=cap)
    return level, _points_of_level(level, d, q)


def moduli_point_count(quiver: Quiver, d, theta, q: int, cap: int = DEFAULT_CAP) -> int:
    """|level set| / |G_d|, the rational point count of the symplectic quotient.

    Exactness of the division is the empirical stand-in for "characteristic
    large enough"; a remainder raises SmallCharacteristic.
    """
    d, theta = _check_generic(quiver, d, theta, cap)
    return _level_and_points(quiver, d, theta, q, cap)[1]


class CbvdbCheck(NamedTuple):
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
    """Compare the moduli point count, from the fiber pass, with q^e times
    the absolutely indecomposable count of ``classify_classes``.

    Both sides read the orbit labels of Rep(Q, d) from one partition, made
    once inside this call and dropped when it returns or raises (see
    ``orbits._shared_partitions``); each side still charges the cap."""
    d, theta = _check_generic(quiver, d, theta, cap)
    e = quiver.expected_moduli_dim(d)
    if e < 0:
        raise ValidationError(f"expected moduli dimension is negative for d={d}")
    with _shared_partitions():
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


class LiftingCheck(NamedTuple):
    """Fiber profile of the projection from the theta-level set back to the
    plain representation space: q^(dim Ext^1(W, W)) over indecomposables,
    empty over everything else.  ``level_count`` sums the observed fibers
    over Rep(Q, d), ``fibers_total`` the predicted ones, so the two agree
    when the profile holds."""

    holds: bool
    level_count: int
    fibers_total: int
    counterexample: tuple[int, ...] | None  # entry key of the lex-first offending W


def lifting_fiber_check(
    quiver: Quiver, d, theta, q: int, cap: int = DEFAULT_CAP
) -> LiftingCheck:
    """Each orbit's fiber against q^(dim Ext^1(W, W)) if End(W) is local, else
    0, from one ``_fiber_sizes`` pass, whose partition alone charges the cap.
    A level set that |G_d| does not divide raises SmallCharacteristic, as in
    ``moduli_point_count``."""
    d, theta = _check_generic(quiver, d, theta, cap)
    euler = quiver.euler_form(d, d)
    level_count = 0
    counterexample = None
    fibers_total = 0
    for key, size, units, observed, dim_end in _fiber_sizes(quiver, d, theta, q, cap=cap):
        level_count += size * observed
        end = _local_structure(dim_end, units, q)
        # q^(dim Ext^1(W, W)) over an indecomposable W, read off dim End(W); else empty
        expected = q ** _ext1_from_hom(dim_end, euler) if end.is_local else 0
        fibers_total += size * expected
        # both sides are iso-invariant, so the first offending orbit holds the lex-first point
        if observed != expected and counterexample is None:
            counterexample = key
    _points_of_level(level_count, d, q)
    return LiftingCheck(
        holds=counterexample is None,
        level_count=level_count,
        fibers_total=fibers_total,
        counterexample=counterexample,
    )


class BettiReport(NamedTuple):
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
