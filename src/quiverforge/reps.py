"""Representations of a quiver over a finite field.

Hom spaces are kernels of the usual commutation system, endomorphism rings
are enumerated exactly under a cap, and indecomposability is decided by the
unit count: W is indecomposable iff End(W) is local, and End(W) is local iff
its number of non-units is a power of q, that power being dim J (see
``scan_endomorphisms``).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    CapExceeded,
    ConsistencyError,
    UndecidedAtCap,
    ValidationError,
    check_cap,
    DEFAULT_CAP,
)
from .ffield import Field, FqMatrix, gaussian_binomial, grassmannian, make_field
from .quiver import Quiver, iter_proper_subdims, pairing


class Representation:
    """Per-arrow matrix assignment of shapes d_head x d_tail."""

    __slots__ = ("quiver", "field", "d", "maps")

    def __init__(self, quiver: Quiver, field: Field, d, maps):
        self.quiver = quiver
        self.field = field
        self.d = quiver.check_dim(d)
        maps = tuple(maps)
        if len(maps) != len(quiver.arrows):
            raise ValidationError("one matrix per arrow required")
        for a, m, want in zip(quiver.arrows, maps, _arrow_shapes(quiver, self.d)):
            if (m.rows, m.cols) != want:
                raise ValidationError(
                    f"matrix for arrow {a.id!r} has shape {(m.rows, m.cols)}, expected {want}"
                )
            if m.field != field:
                raise ValidationError(f"matrix for arrow {a.id!r} lives over the wrong field")
        self.maps = maps

    @classmethod
    def _of(cls, quiver: Quiver, field: Field, d: tuple[int, ...], maps: tuple) -> "Representation":
        """The representation of dimension vector ``d``, as ``check_dim``
        returns it, with ``maps``, a tuple of one matrix over ``field`` per
        arrow, each of its arrow's shape, taken as given."""
        w = cls.__new__(cls)
        w.quiver = quiver
        w.field = field
        w.d = d
        w.maps = maps
        return w

    @classmethod
    def zero(cls, quiver: Quiver, field: Field, d) -> "Representation":
        d = quiver.check_dim(d)
        maps = [FqMatrix.zeros(field, r, c) for r, c in _arrow_shapes(quiver, d)]
        return cls(quiver, field, d, maps)

    @classmethod
    def simple(cls, quiver: Quiver, field: Field, vertex: str) -> "Representation":
        d = tuple(1 if v == vertex else 0 for v in quiver.vertices)
        return cls.zero(quiver, field, d)

    def map_for(self, arrow_id: str) -> FqMatrix:
        return self.maps[self.quiver.arrow_index[arrow_id]]

    def entry_key(self) -> tuple[int, ...]:
        """Flat entry tuple in arrow-major, row-major order (the lex order)."""
        return tuple(x for m in self.maps for x in m.flat())

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.quiver == other.quiver
            and self.field == other.field
            and self.d == other.d
            and self.maps == other.maps
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.d, tuple(m.entries for m in self.maps)))

    def __repr__(self):
        return f"Representation(d={self.d}, q={self.field.q}, entries={self.entry_key()})"


def arrow_shapes(quiver: Quiver, d) -> list[tuple[int, int]]:
    """(d_head, d_tail), the shape of each arrow's matrix, in arrow order;
    their entry counts sum to the dimension of the representation space."""
    return _arrow_shapes(quiver, quiver.check_dim(d))


def _arrow_shapes(quiver: Quiver, d: tuple[int, ...]) -> list[tuple[int, int]]:
    """``arrow_shapes`` of a d as ``check_dim`` returns it, read without
    checking d again."""
    return [(d[h], d[t]) for t, h in quiver.ends]


def representation_decoder(quiver: Quiver, field: Field, d):
    """index -> Representation, the inverse of the point encoding of
    Rep(Q, d) over ``field``: the entry key read as a base-q number, most
    significant digit first, so index order is lexicographic order.

    d, the arrow shapes, the digit weights and each matrix row's slice of
    the entries are worked out once, here, so each call checks nothing again
    but the index: it refuses one outside 0..q^n - 1, reads one base-q digit
    per entry off the index, and cuts those entries into one matrix per
    arrow, built by the trusted constructors ``FqMatrix._of`` and
    ``Representation._of``."""
    d = quiver.check_dim(d)
    shapes = _arrow_shapes(quiver, d)
    starts = itertools.accumulate((r * c for r, c in shapes), initial=0)
    # per arrow: its shape, and the (start, stop) of each of its rows among the entries
    layout = [
        (r, c, [(s + i * c, s + (i + 1) * c) for i in range(r)]) for (r, c), s in zip(shapes, starts)
    ]
    n_entries = sum(r * c for r, c in shapes)
    q = field.q
    n_points = q**n_entries
    weights = [q**k for k in range(n_entries - 1, -1, -1)]  # first entry most significant

    def decode(index: int) -> Representation:
        if not 0 <= index < n_points:
            raise ValidationError(f"point index {index} is outside 0..{n_points - 1}")
        flat = [index // w % q for w in weights]
        maps = tuple([
            FqMatrix._of(field, r, c, tuple([tuple(flat[start:stop]) for start, stop in rows]))
            for r, c, rows in layout
        ])
        return Representation._of(quiver, field, d, maps)

    return decode


def _charge_space(shapes, q: int, cap: int, what: str = "representation-space enumeration") -> int:
    """q^n for Rep(Q, d) = F_q^n, d given by its ``arrow_shapes``, charged
    against the cap as ``what`` before any field is built."""
    n_points = q ** sum(r * c for r, c in shapes)
    check_cap(n_points, cap, what)
    return n_points


def all_representations(quiver: Quiver, field: Field, d, cap: int = DEFAULT_CAP):
    """All q^n points of Rep(Q, d), charged against the cap, decoded in index (lex) order."""
    n_points = _charge_space(arrow_shapes(quiver, d), field.q, cap)
    yield from map(representation_decoder(quiver, field, d), range(n_points))


def _check_comparable(w1: Representation, w2: Representation) -> None:
    if w1.quiver != w2.quiver:
        raise ValidationError("representations live on different quivers")
    if w1.field != w2.field:
        raise ValidationError("representations live over different fields")


# ---------------------------------------------------------------------------
# Hom and Ext


class HomSpace(NamedTuple):
    """Basis of the space of morphisms W -> W2, as vertex-indexed tuples."""

    source_dim: tuple[int, ...]
    target_dim: tuple[int, ...]
    basis: tuple[tuple[FqMatrix, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


@lru_cache(maxsize=None)
def _hom_layout(ends, d1: tuple[int, ...], d2: tuple[int, ...]):
    """The terms of the Hom system (f_v) -> (f_head phi_a - phi'_a f_tail)
    from a W of dimension vector ``d1`` to a W2 of ``d2``, Q given by its
    arrow ``ends``: (equations, unknowns, offsets, terms).

    The unknowns are the entries of each f_v (shape d2_v x d1_v),
    vertex-major then row-major, f_v starting at ``offsets[v]``.  Arrow a
    gives a block of d2_head x d1_tail equations, row-major, the blocks in
    arrow order.  Each term (equation, unknown, source, position, sign)
    adds sign times an entry of a map to one coefficient: the entry at
    ``position`` of W's entry key for source 0, of W2's for source 1.
    Equation (i, j) of arrow a holds (f_head phi_a)_ij, the terms
    f_head[i, k] phi_a[k, j] of sign 1, and -(phi'_a f_tail)_ij, the terms
    phi'_a[i, k] f_tail[k, j] of sign -1; on a loop f_tail is f_head, so
    one coefficient may take two terms.  Built once per process for each
    (arrow ends, d1, d2), from small ints alone."""
    offsets = tuple(itertools.accumulate((r * c for r, c in zip(d2, d1)), initial=0))
    terms = []
    equation = start1 = start2 = 0
    for t, h in ends:
        for i in range(d2[h]):
            for j in range(d1[t]):
                terms += [
                    (equation, offsets[h] + i * d1[h] + k, 0, start1 + k * d1[t] + j, 1)
                    for k in range(d1[h])
                ]
                terms += [
                    (equation, offsets[t] + k * d1[t] + j, 1, start2 + i * d2[t] + k, -1)
                    for k in range(d2[t])
                ]
                equation += 1
        start1 += d1[h] * d1[t]
        start2 += d2[h] * d2[t]
    return equation, offsets[-1], offsets[:-1], tuple(terms)


def _hom_system(w1: Representation, w2: Representation) -> tuple[FqMatrix, list[int]]:
    """The linear map (f_v) -> (f_head phi_a - phi'_a f_tail) as a matrix,
    and the offset of each f_v among its unknowns, filled from the terms of
    ``_hom_layout``.  W and W2 are taken as comparable: ``hom_space`` and
    ``hom_dim`` check that."""
    field = w1.field
    add, neg = field.add, field.neg
    n_equations, n_unknowns, offsets, terms = _hom_layout(w1.quiver.ends, w1.d, w2.d)
    keys = (w1.entry_key(), w2.entry_key())
    rows = [[0] * n_unknowns for _ in range(n_equations)]
    for equation, unknown, source, position, sign in terms:
        value = keys[source][position]
        if value:
            row = rows[equation]
            row[unknown] = add(row[unknown], value if sign > 0 else neg(value))
    return FqMatrix._of(field, n_equations, n_unknowns, tuple(map(tuple, rows))), list(offsets)


def hom_space(w1: Representation, w2: Representation) -> HomSpace:
    """Kernel of (f_v) -> (f_head phi_a - phi'_a f_tail), by exact elimination."""
    _check_comparable(w1, w2)
    system, offsets = _hom_system(w1, w2)
    field = w1.field
    basis = []
    for vec in system.kernel_basis():
        fs = []
        for v in range(len(offsets)):
            r, c = w2.d[v], w1.d[v]
            fs.append(FqMatrix.from_flat(field, r, c, vec[offsets[v] : offsets[v] + r * c]))
        basis.append(tuple(fs))
    return HomSpace(source_dim=w1.d, target_dim=w2.d, basis=tuple(basis))


def hom_dim(w1: Representation, w2: Representation) -> int:
    """dim Hom(W, W2), by one rank: the solve of ``hom_space`` without its basis."""
    _check_comparable(w1, w2)
    system, _ = _hom_system(w1, w2)
    return system.cols - system.rank()


def ext1_dim(w1: Representation, w2: Representation) -> int:
    """dim Ext^1 = dim Hom - <dim W, dim W2>; nonnegative by construction."""
    return _ext1_from_hom(hom_dim(w1, w2), w1.quiver.euler_form(w1.d, w2.d))


def _ext1_from_hom(dim_hom: int, euler: int) -> int:
    """dim Ext^1(W, W2) = dim Hom(W, W2) - <d1, d2>, for W and W2 of dimension
    vectors d1 and d2 and ``euler`` = <d1, d2>; a negative value is a hard
    error."""
    value = dim_hom - euler
    if value < 0:
        raise ConsistencyError("negative Ext dimension; Hom solver is broken")
    return value


def direct_sum(w1: Representation, w2: Representation) -> Representation:
    _check_comparable(w1, w2)
    quiver, field = w1.quiver, w1.field
    d = tuple(a + b for a, b in zip(w1.d, w2.d))
    maps = []
    for m1, m2 in zip(w1.maps, w2.maps):
        # the block-diagonal matrix diag(m1, m2)
        top = tuple([row + (0,) * m2.cols for row in m1.entries])
        bottom = tuple([(0,) * m1.cols + row for row in m2.entries])
        maps.append(FqMatrix._of(field, m1.rows + m2.rows, m1.cols + m2.cols, top + bottom))
    return Representation(quiver, field, d, maps)


# ---------------------------------------------------------------------------
# endomorphism structure and indecomposability


def _iter_span(basis, field: Field, shapes):
    """All linear combinations of the basis tuples, coefficients lexicographic;
    ``shapes`` gives the component shapes, needed to build the zero element.
    The walk charges no cap: each caller charges its own."""
    zero = tuple(FqMatrix.zeros(field, r, c) for r, c in shapes)
    for coeffs in itertools.product(field.elements(), repeat=len(basis)):
        element = None
        for c, f in zip(coeffs, basis):
            if c == 0:
                continue
            scaled = tuple(m.scale(c) for m in f)
            element = scaled if element is None else tuple(x.add(y) for x, y in zip(element, scaled))
        yield element if element is not None else zero


def _is_unit(fs) -> bool:
    return all(m.is_invertible() for m in fs)


def _is_nilpotent_endo(fs) -> bool:
    return all(m.is_nilpotent() for m in fs)


class EndoStructure(NamedTuple):
    """Shape of End(W): its dimension, radical, and residue field degree.

    For a decomposable W the ring is not local and the radical/residue data
    is reported as None rather than guessed.
    """

    dim_end: int
    is_local: bool
    dim_radical: int | None
    residue_degree: int | None


def scan_endomorphisms(w: Representation, cap: int = DEFAULT_CAP, early_exit: bool = False):
    """Walk End(W); returns (dim_end, is_local, unit_count or None).

    Locality is read off the unit count.  A finite-dimensional F_q-algebra A
    is local iff its number of non-units is a power of q; then
    dim J = log_q(#non-units) and the residue degree is dim A - dim J.  The
    zero ring has 0 non-units, so it is not local.

    Proof: the units of A are the lifts of the units of A/J, so
    #non-units(A) = |J| * #non-units(A/J).  With A/J = prod M_{n_i}(F_{q^k_i}),
    #non-units(A/J) = q^b * (prod x - prod (x - 1)), x running over the
    q^(k_i j) for j = 1..n_i.  As prod (x - 1) is prime to q, this is a power
    of q only if prod (x - 1) = prod x - 1, which needs exactly one factor x:
    A/J is a field.

    A full scan walks all q^dim End elements, so it checks that number
    against the cap before the first one.  With ``early_exit`` each non-unit
    is also tested for nilpotency and the walk stops at the first one that
    is not (in a local ring every non-unit is nilpotent), in which case the
    unit count is not available; such a walk may stop under the cap, so it
    counts elements against the cap as it goes.  A walk that finds no such
    witness must agree with the count rule; otherwise ``ConsistencyError``.
    """
    basis = hom_space(w, w).basis
    if not early_exit:
        check_cap(w.field.q ** len(basis), cap, "endomorphism-ring enumeration")
    shapes = [(dv, dv) for dv in w.d]
    units = 0
    for scanned, fs in enumerate(_iter_span(basis, w.field, shapes), 1):
        if early_exit and scanned > cap:
            raise CapExceeded("endomorphism-ring enumeration", w.field.q ** len(basis), cap)
        if _is_unit(fs):
            units += 1
        elif early_exit and not _is_nilpotent_endo(fs):
            return len(basis), False, None
    local = _local_structure(len(basis), units, w.field.q).is_local
    if early_exit and basis and not local:
        raise ConsistencyError(
            f"every non-unit of End(W) is nilpotent, but the non-unit count "
            f"{w.field.q ** len(basis) - units} is not a power of q={w.field.q}"
        )
    return len(basis), local, units


def endo_structure(w: Representation, cap: int = DEFAULT_CAP) -> EndoStructure:
    dim_end, _, units = scan_endomorphisms(w, cap=cap, early_exit=False)
    return _local_structure(dim_end, units, w.field.q)


def _orbit_units(gl: int, orbit_size: int) -> int:
    """|Aut W| = |GL_d| / orbit_size, with |GL_d| = ``gl`` (Aut W is W's
    stabilizer); an orbit size that does not divide |GL_d| is a hard error."""
    units, rem = divmod(gl, orbit_size)
    if rem:
        raise ConsistencyError(f"orbit of size {orbit_size} does not divide |GL_d| = {gl}")
    return units


def _unit_residue_degree(units: int, q: int) -> int:
    """r when an End(W) with ``units`` units may be local with residue field
    F_{q^r}, else 0, which needs no Hom solve: a local End(W) of dimension e
    with residue field F_{q^r} has q^(e-r) (q^r - 1) units, and q^r - 1 is
    prime to q, so ``units`` with every factor q removed is then q^r - 1,
    one less than a power q^r with r >= 1.  r > 0 does not prove End(W)
    local."""
    if units < 1:
        raise ConsistencyError(f"an endomorphism ring has at least one unit, not {units}")
    power = _strip_factors(units, q) + 1
    r = round(math.log(power, q))
    return r if q**r == power else 0


def _strip_factors(n: int, q: int) -> int:
    """n with every factor q removed, in O(log v) divisions for q^v | n:
    divide by q, q^2, q^4, ... while they divide, then by the same powers
    on the way down while they still divide.  A first ``% q`` settles the
    common case, n prime to q."""
    if n % q:
        return n
    n //= q
    powers = [q]
    while n % (power := powers[-1] ** 2) == 0:
        n //= power
        powers.append(power)
    for power in reversed(powers):
        if n % power == 0:
            n //= power
    return n


def _local_structure(dim_end: int, units: int, q: int) -> EndoStructure:
    """Structure of an End(W) of dimension ``dim_end`` with ``units`` units,
    by the count rule of ``scan_endomorphisms``."""
    non_units = q**dim_end - units
    dim_radical = 0
    size = 1
    while size < non_units:
        size *= q
        dim_radical += 1
    if size != non_units:
        return EndoStructure(dim_end=dim_end, is_local=False, dim_radical=None, residue_degree=None)
    return EndoStructure(
        dim_end=dim_end, is_local=True, dim_radical=dim_radical, residue_degree=dim_end - dim_radical
    )


def is_indecomposable(w: Representation, cap: int = DEFAULT_CAP) -> bool:
    """End(W) local, i.e. 0 and 1 are its only idempotents."""
    _, local, _ = scan_endomorphisms(w, cap=cap, early_exit=True)
    return local


def is_absolutely_indecomposable(w: Representation, cap: int = DEFAULT_CAP) -> bool:
    """Indecomposable with residue field equal to the ground field."""
    dim_end, local, units = scan_endomorphisms(w, cap=cap, early_exit=True)
    return local and _local_structure(dim_end, units, w.field.q).residue_degree == 1


def aut_order(w: Representation, cap: int = DEFAULT_CAP) -> int:
    """|Aut(W)|: unit count of the full endomorphism ring."""
    _, _, units = scan_endomorphisms(w, cap=cap, early_exit=False)
    return units


def are_isomorphic(w1: Representation, w2: Representation, cap: int = DEFAULT_CAP) -> bool:
    """Search Hom(W1, W2) exhaustively for an invertible element."""
    _check_comparable(w1, w2)
    if w1.d != w2.d:
        return False
    basis = hom_space(w1, w2).basis
    size = w1.field.q ** len(basis)
    if size > cap:
        raise UndecidedAtCap("isomorphism search undecided at cap", size, cap)
    shapes = list(zip(w2.d, w1.d))
    for fs in _iter_span(basis, w1.field, shapes):
        if _is_unit(fs):
            return True
    return False


def base_change(w: Representation, m: int) -> Representation:
    """Extend scalars along the canonical inclusion F_q into F_{q^m}."""
    if m < 1:
        raise ValidationError("extension degree must be >= 1")
    if m == 1:
        return w
    small = w.field
    big = make_field(small.p, small.k * m)
    table = small.embed_into(big)
    maps = [
        FqMatrix._of(big, mat.rows, mat.cols, tuple([tuple([table[x] for x in row]) for row in mat.entries]))
        for mat in w.maps
    ]
    return Representation(w.quiver, big, w.d, maps)


# ---------------------------------------------------------------------------
# stability


class SubrepWitness(NamedTuple):
    dims: tuple[int, ...]
    subspaces: tuple[FqMatrix, ...]
    theta_pairing: int


class StabilityVerdict(NamedTuple):
    kind: str  # "stable" | "semistable-not-stable" | "unstable"
    witness: SubrepWitness | None


def _subspace_tuples(w: Representation, sub_dims, cap: int):
    """Every tuple of subspaces of dimensions ``sub_dims``, one per vertex;
    the cap is charged with the Gaussian binomials' running product before
    any Grassmannian is listed."""
    field = w.field
    total = 1
    for dv, kv in zip(w.d, sub_dims):
        total *= gaussian_binomial(dv, kv, field.q)
        check_cap(total, cap, "subspace enumeration")
    return itertools.product(*(grassmannian(field, dv, kv) for dv, kv in zip(w.d, sub_dims)))


def _is_subrepresentation(w: Representation, subspaces) -> bool:
    """Whether every arrow maps its tail's subspace into its head's.  The
    subspaces are given by independent basis rows, so an arrow does exactly
    when stacking the nonzero images of the tail's rows under the head's
    rows leaves the rank at the head subspace's dimension: at most one rank
    per arrow."""
    for (t, h), phi in zip(w.quiver.ends, w.maps):
        source, target = subspaces[t], subspaces[h]
        images = [image for image in map(phi.apply, source.entries) if any(image)]
        if images and FqMatrix(w.field, target.entries + tuple(images)).rank() != target.rows:
            return False
    return True


def stability_verdict(w: Representation, theta, cap: int = DEFAULT_CAP) -> StabilityVerdict:
    """Classify W against theta by enumerating all proper subrepresentations.

    Requires theta.dim W = 0.  The witness is the lexicographically first
    violating subrepresentation (dimension vectors in lex order, canonical
    subspace tuples in enumeration order); for the semistable-not-stable
    verdict it is the first tight one.
    """
    theta = w.quiver.check_vector(theta, name="stability parameter")
    if pairing(theta, w.d) != 0:
        raise ValidationError("stability verdicts need theta . dim W = 0")
    first_tight: SubrepWitness | None = None
    for sub_dims in iter_proper_subdims(w.d):
        value = pairing(theta, sub_dims)
        if value > 0:
            continue
        for subspaces in _subspace_tuples(w, sub_dims, cap):
            if not _is_subrepresentation(w, subspaces):
                continue
            witness = SubrepWitness(dims=sub_dims, subspaces=tuple(subspaces), theta_pairing=value)
            if value < 0:
                return StabilityVerdict(kind="unstable", witness=witness)
            if first_tight is None:
                first_tight = witness
            break  # one witness per dimension vector is enough for tightness
    if first_tight is not None:
        return StabilityVerdict(kind="semistable-not-stable", witness=first_tight)
    return StabilityVerdict(kind="stable", witness=None)
