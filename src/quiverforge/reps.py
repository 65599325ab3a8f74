"""Representations of a quiver over a finite field.

Hom spaces are kernels of the usual commutation system, endomorphism rings
are enumerated exactly under a cap, and indecomposability is decided by the
unit count: W is indecomposable iff End(W) is local, and End(W) is local iff
its number of non-units is a power of q, that power being dim J (see
``scan_endomorphisms``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
        for a, m in zip(quiver.arrows, maps):
            want = (self.d[quiver.vertex_index[a.head]], self.d[quiver.vertex_index[a.tail]])
            if (m.rows, m.cols) != want:
                raise ValidationError(
                    f"matrix for arrow {a.id!r} has shape {(m.rows, m.cols)}, expected {want}"
                )
            if m.field != field:
                raise ValidationError(f"matrix for arrow {a.id!r} lives over the wrong field")
        self.maps = maps

    @classmethod
    def zero(cls, quiver: Quiver, field: Field, d) -> "Representation":
        d = quiver.check_dim(d)
        maps = [FqMatrix.zeros(field, r, c) for r, c in arrow_shapes(quiver, d)]
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
    d = quiver.check_dim(d)
    return [
        (d[quiver.vertex_index[a.head]], d[quiver.vertex_index[a.tail]])
        for a in quiver.arrows
    ]


def _from_flat(quiver: Quiver, field: Field, d, shapes, flat) -> Representation:
    """The representation whose entry key (arrow-major, row-major) is ``flat``;
    ``shapes`` is ``arrow_shapes(quiver, d)``."""
    maps = []
    pos = 0
    for r, c in shapes:
        maps.append(FqMatrix.from_flat(field, r, c, flat[pos : pos + r * c]))
        pos += r * c
    return Representation(quiver, field, d, maps)


def representation_decoder(quiver: Quiver, field: Field, d):
    """index -> Representation, the inverse of the point encoding of
    Rep(Q, d) over ``field``: the entry key read as a base-q number, most
    significant digit first, so index order is lexicographic order.

    d and the arrow shapes are worked out once, here.  Each call refuses an
    index outside 0..q^n - 1, peels the index's base-q digits off by divmod,
    least significant (last entry) first, and builds the representation
    through its checking constructor, which validates d and every map's
    shape again."""
    d = quiver.check_dim(d)
    shapes = arrow_shapes(quiver, d)
    n_entries = sum(r * c for r, c in shapes)
    q = field.q
    n_points = q**n_entries

    def decode(index: int) -> Representation:
        if not 0 <= index < n_points:
            raise ValidationError(f"point index {index} is outside 0..{n_points - 1}")
        flat = [0] * n_entries
        for j in range(n_entries - 1, -1, -1):
            index, flat[j] = divmod(index, q)
        return _from_flat(quiver, field, d, shapes, flat)

    return decode


def all_representations(quiver: Quiver, field: Field, d, cap: int = DEFAULT_CAP):
    """All points of the representation space, lexicographic in entry order."""
    d = quiver.check_dim(d)
    shapes = arrow_shapes(quiver, d)
    total = sum(r * c for r, c in shapes)
    check_cap(field.q**total, cap, "representation-space enumeration")
    for flat in itertools.product(field.elements(), repeat=total):
        yield _from_flat(quiver, field, d, shapes, flat)


def _check_comparable(w1: Representation, w2: Representation) -> None:
    if w1.quiver != w2.quiver:
        raise ValidationError("representations live on different quivers")
    if w1.field != w2.field:
        raise ValidationError("representations live over different fields")


# ---------------------------------------------------------------------------
# Hom and Ext


@dataclass(frozen=True)
class HomSpace:
    """Basis of the space of morphisms W -> W2, as vertex-indexed tuples."""

    source_dim: tuple[int, ...]
    target_dim: tuple[int, ...]
    basis: tuple[tuple[FqMatrix, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _hom_system(w1: Representation, w2: Representation) -> tuple[FqMatrix, list[int]]:
    """The linear map (f_v) -> (f_head phi_a - phi'_a f_tail) as a matrix,
    and the offset of each f_v among its unknowns."""
    _check_comparable(w1, w2)
    quiver, field = w1.quiver, w1.field
    n = len(quiver.vertices)
    # unknowns: entries of f_v (shape d2_v x d_v), vertex-major, row-major
    offsets = []
    pos = 0
    for v in range(n):
        offsets.append(pos)
        pos += w2.d[v] * w1.d[v]
    nvars = pos
    rows: list[list[int]] = []
    for idx, a in enumerate(quiver.arrows):
        t = quiver.vertex_index[a.tail]
        h = quiver.vertex_index[a.head]
        phi1 = w1.maps[idx].entries
        minus_phi2 = [[field.neg(c) for c in row] for row in w2.maps[idx].entries]
        # equation block has shape d2_h x d1_t
        for i in range(w2.d[h]):
            f_h_row = offsets[h] + i * w1.d[h]
            for j in range(w1.d[t]):
                row = [0] * nvars
                # (f_h phi1)_ij = sum_k f_h[i,k] phi1[k,j]
                for k in range(w1.d[h]):
                    row[f_h_row + k] = phi1[k][j]
                # -(phi2 f_t)_ij = sum_k (-phi2[i,k]) f_t[k,j]; f_t may be f_h
                for k in range(w2.d[t]):
                    c = minus_phi2[i][k]
                    if c:
                        var = offsets[t] + k * w1.d[t] + j
                        row[var] = field.add(row[var], c)
                rows.append(tuple(row))
    return FqMatrix._of(field, len(rows), nvars, tuple(rows)), offsets


def hom_space(w1: Representation, w2: Representation) -> HomSpace:
    """Kernel of (f_v) -> (f_head phi_a - phi'_a f_tail), by exact elimination."""
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
    system, _ = _hom_system(w1, w2)
    return system.cols - system.rank()


def ext1_dim(w1: Representation, w2: Representation) -> int:
    """dim Ext^1 = dim Hom - <dim W, dim W2>; nonnegative by construction."""
    value = hom_dim(w1, w2) - w1.quiver.euler_form(w1.d, w2.d)
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


def _iter_span(basis, field: Field, shapes, cap: int, what: str):
    """All linear combinations of the basis tuples, coefficients lexicographic.

    ``shapes`` gives the component shapes, needed to build the zero element.
    """
    k = len(basis)
    size = field.q**k
    zero = tuple(FqMatrix.zeros(field, r, c) for r, c in shapes)
    scanned = 0
    for coeffs in itertools.product(field.elements(), repeat=k):
        scanned += 1
        if scanned > cap:
            raise CapExceeded(what, size, cap)
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


@dataclass(frozen=True)
class EndoStructure:
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
    for fs in _iter_span(basis, w.field, shapes, cap, "endomorphism-ring enumeration"):
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
    for fs in _iter_span(basis, w1.field, shapes, cap, "isomorphism search"):
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


@dataclass(frozen=True)
class SubrepWitness:
    dims: tuple[int, ...]
    subspaces: tuple[FqMatrix, ...]
    theta_pairing: int


@dataclass(frozen=True)
class StabilityVerdict:
    kind: str  # "stable" | "semistable-not-stable" | "unstable"
    witness: SubrepWitness | None

    @property
    def is_semistable(self) -> bool:
        return self.kind != "unstable"


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
    quiver = w.quiver
    for a, phi in zip(quiver.arrows, w.maps):
        source = subspaces[quiver.vertex_index[a.tail]]
        target = subspaces[quiver.vertex_index[a.head]]
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
