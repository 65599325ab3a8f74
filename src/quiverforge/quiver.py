"""Quiver combinatorics: incidence data, bilinear forms, doubling, and the
Cartan/Weyl data attached to the underlying graph.

Vertex and arrow identifiers are user strings; all internal indexing is by
declaration order, so every derived report is deterministic.  Dimension
vectors and stability parameters are plain integer tuples in declaration
order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import NamedTuple, Sequence

from .errors import ValidationError, check_cap

FORMAT_VERSION = 1

# json.dumps(obj, sort_keys=True, separators=(",", ":")), without building
# an encoder on every call: the canonical JSON text of quiver files, content
# hashes, cache records and CLI payloads
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _integer(x) -> int:
    """x as an int.  Integer types such as numpy's pass through
    ``operator.index``; bools, floats and numeric strings are refused rather
    than truncated or parsed."""
    if type(x) is int:  # the common case, kept fast: vectors are walked often
        return x
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValidationError(f"vector entries must be integers, got {x!r}")


class Arrow(NamedTuple):
    id: str
    tail: str
    head: str


class Quiver:
    """A finite connected directed graph, optionally carrying the pairing
    a <-> a* of a doubled quiver."""

    def __init__(self, vertices: Sequence[str], arrows, star_pairing: dict[str, str] | None = None):
        self.vertices = tuple(str(v) for v in vertices)
        if not self.vertices:
            raise ValidationError("a quiver needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("vertex names must be unique")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        arr = []
        for a in arrows:
            if isinstance(a, Arrow):
                arr.append(a)
            else:
                arr.append(Arrow(str(a[0]), str(a[1]), str(a[2])))
        self.arrows = tuple(arr)
        ids = [a.id for a in self.arrows]
        if len(set(ids)) != len(ids):
            raise ValidationError("arrow ids must be unique")
        self.arrow_index = {a.id: i for i, a in enumerate(self.arrows)}
        for a in self.arrows:
            for endpoint in (a.tail, a.head):
                if endpoint not in self.vertex_index:
                    raise ValidationError(
                        f"arrow {a.id!r} references undeclared vertex {endpoint!r}"
                    )
        # (tail index, head index) per arrow, in arrow order; every layer reads these
        self.ends = tuple(
            (self.vertex_index[a.tail], self.vertex_index[a.head]) for a in self.arrows
        )
        self.star_pairing = dict(star_pairing) if star_pairing else None
        if self.star_pairing is not None:
            self._check_star_pairing()
        self._check_connected()

    def _check_star_pairing(self) -> None:
        sp = self.star_pairing
        if set(sp) != set(self.arrow_index):
            raise ValidationError("star pairing must cover every arrow")
        for aid, bid in sp.items():
            if bid not in self.arrow_index:
                raise ValidationError(f"star pairing maps {aid!r} to unknown arrow {bid!r}")
            if aid == bid:
                raise ValidationError("star pairing must be fixed-point free")
            if sp.get(bid) != aid:
                raise ValidationError("star pairing must be an involution")
            a = self.arrows[self.arrow_index[aid]]
            b = self.arrows[self.arrow_index[bid]]
            if (a.tail, a.head) != (b.head, b.tail):
                raise ValidationError(
                    f"paired arrows {aid!r}, {bid!r} must reverse each other"
                )

    def _check_connected(self) -> None:
        n = len(self.vertices)
        adjacency = [set() for _ in range(n)]
        for i, j in self.ends:
            adjacency[i].add(j)
            adjacency[j].add(i)
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != n:
            missing = [self.vertices[i] for i in range(n) if i not in seen]
            raise ValidationError(f"quiver is not connected; unreachable vertices {missing}")

    # -- basic queries

    @property
    def is_doubled(self) -> bool:
        return self.star_pairing is not None

    def star(self, arrow_id: str) -> str:
        if not self.is_doubled:
            raise ValidationError("quiver carries no star pairing")
        return self.star_pairing[arrow_id]

    def forward_arrows(self) -> list[Arrow]:
        """The half A of the doubled arrow set: arrows declared before their partner."""
        if not self.is_doubled:
            raise ValidationError("quiver carries no star pairing")
        return [
            a
            for a in self.arrows
            if self.arrow_index[a.id] < self.arrow_index[self.star_pairing[a.id]]
        ]

    def check_vector(self, v, name: str = "vector", nonnegative: bool = False) -> tuple[int, ...]:
        vt = tuple(_integer(x) for x in v)
        if len(vt) != len(self.vertices):
            raise ValidationError(
                f"{name} has {len(vt)} entries; quiver has {len(self.vertices)} vertices"
            )
        if nonnegative and any(x < 0 for x in vt):
            raise ValidationError(f"{name} must be componentwise nonnegative")
        return vt

    def check_dim(self, d) -> tuple[int, ...]:
        return self.check_vector(d, name="dimension vector", nonnegative=True)

    # -- bilinear forms

    def euler_form(self, d, d2) -> int:
        d = self.check_vector(d)
        d2 = self.check_vector(d2)
        total = sum(a * b for a, b in zip(d, d2))
        for t, h in self.ends:
            total -= d[t] * d2[h]
        return total

    def symmetrized_form(self, d, d2) -> int:
        return self.euler_form(d, d2) + self.euler_form(d2, d)

    def tits_form(self, d) -> int:
        return self.euler_form(d, d)

    def expected_moduli_dim(self, d) -> int:
        """Dimension of the stable moduli space, 1 - <d,d>; half the
        dimension of the associated symplectic quotient."""
        return 1 - self.tits_form(d)

    # -- derived quivers

    def double(self) -> "Quiver":
        if self.is_doubled:
            raise ValidationError("quiver is already doubled")
        starred = []
        pairing: dict[str, str] = {}
        for a in self.arrows:
            sid = a.id + "*"
            if sid in self.arrow_index:
                raise ValidationError(f"arrow id {sid!r} already taken; cannot double")
            starred.append(Arrow(sid, a.head, a.tail))
            pairing[a.id] = sid
            pairing[sid] = a.id
        return Quiver(self.vertices, list(self.arrows) + starred, pairing)

    def opposite(self) -> "Quiver":
        reversed_arrows = [Arrow(a.id, a.head, a.tail) for a in self.arrows]
        return Quiver(self.vertices, reversed_arrows, self.star_pairing)

    # -- Cartan/Weyl data

    @property
    def is_loop_free(self) -> bool:
        """No arrow is a loop; with d indivisible, the scope of the CBVdB and Betti theorems."""
        return all(a.tail != a.head for a in self.arrows)

    def cartan(self) -> "CartanData":
        """The symmetrized Euler form's matrix: 2 on the diagonal, and -1 at
        (t, h) and at (h, t) for each arrow t -> h, so a loop takes 2 off
        its vertex."""
        n = len(self.vertices)
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for t, h in self.ends:
            a[t][h] -= 1
            a[h][t] -= 1
        fundamental = tuple(i for i in range(n) if a[i][i] == 2)
        return CartanData(a=tuple(tuple(row) for row in a), fundamental=fundamental)

    def real_roots_up_to(self, bound) -> set[tuple[int, ...]]:
        """Positive real roots inside the box |v| <= bound, componentwise.

        Breadth-first closure of the fundamental roots under the fundamental
        reflections; vectors leaving the box are pruned (Weyl orbits are
        infinite outside Dynkin type).
        """
        bound = self.check_dim(bound)
        cartan = self.cartan()
        n = len(self.vertices)
        start = []
        for i in cartan.fundamental:
            root = tuple(1 if j == i else 0 for j in range(n))
            if all(abs(x) <= b for x, b in zip(root, bound)):
                start.append(root)
        seen = set(start)
        frontier = list(start)
        while frontier:
            v = frontier.pop()
            for i in cartan.fundamental:
                w = cartan.reflect(i, v)
                if w in seen or any(abs(x) > b for x, b in zip(w, bound)):
                    continue
                seen.add(w)
                frontier.append(w)
        return {v for v in seen if all(x >= 0 for x in v) and any(v)}

    # -- canonical form and hashing

    def canonical_dict(self) -> dict:
        """Canonical JSON-ready form: arrows sorted by id, vertices as declared."""
        data = {
            "format": FORMAT_VERSION,
            "vertices": list(self.vertices),
            "arrows": [
                {"id": a.id, "tail": a.tail, "head": a.head}
                for a in sorted(self.arrows, key=lambda a: a.id)
            ],
        }
        if self.star_pairing is not None:
            data["star_pairing"] = {k: self.star_pairing[k] for k in sorted(self.star_pairing)}
        return data

    def content_hash(self) -> str:
        """SHA-256 of the quiver's serialized form, the key of its cached results."""
        return hashlib.sha256(serialize_quiver(self).encode("utf-8")).hexdigest()

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
            and self.star_pairing == other.star_pairing
        )

    def __hash__(self):
        pairing = tuple(sorted(self.star_pairing.items())) if self.star_pairing else None
        return hash((self.vertices, self.arrows, pairing))

    def __repr__(self):
        star = ", doubled" if self.is_doubled else ""
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows{star})"


def serialize_quiver(quiver: Quiver) -> str:
    """Bit-exact canonical serialization: sorted keys, no extra whitespace."""
    return _canonical(quiver.canonical_dict())


@dataclass(frozen=True)
class CartanData:
    """Symmetrized Euler-form matrix a and the loop-free vertex indices
    carrying fundamental roots."""

    a: tuple[tuple[int, ...], ...]
    fundamental: tuple[int, ...]

    def reflect(self, i: int, d) -> tuple[int, ...]:
        """Fundamental reflection r_i, the linear extension of
        r_i(alpha_j) = alpha_j - a_ij alpha_i."""
        if i not in self.fundamental:
            raise ValidationError(f"vertex index {i} carries a loop; no reflection there")
        d = tuple(_integer(x) for x in d)
        if len(d) != len(self.a):
            raise ValidationError("vector length does not match the Cartan matrix")
        pairing = sum(self.a[i][j] * d[j] for j in range(len(d)))
        return tuple(x - pairing if j == i else x for j, x in enumerate(d))


# ---------------------------------------------------------------------------
# stability-parameter arithmetic (quiver-independent)


def pairing(theta, d) -> int:
    if len(theta) != len(d):
        raise ValidationError("theta and d are indexed by different vertex sets")
    return sum(_integer(t) * _integer(x) for t, x in zip(theta, d))


def iter_proper_subdims(d):
    """All 0 < d' < d componentwise, in lexicographic order."""
    d = tuple(d)
    for cand in itertools.product(*(range(x + 1) for x in d)):
        if any(cand) and cand != d:
            yield cand


def is_generic(theta, d) -> bool:
    """theta.d = 0 and theta.d' != 0 for every 0 < d' < d.

    The walk runs over every coordinate of d' but the one with the largest
    d_i, the pivot: theta.d' = 0 leaves one value for the pivot, or any
    value when its theta is 0.  So two vertices cost O(min d_i) steps; the
    walk is still exponential in the number of vertices, and callers charge
    its size to their cap first (``_charge_generic_walk``)."""
    if pairing(theta, d) != 0:
        return False
    theta = [_integer(t) for t in theta]
    d = [_integer(x) for x in d]
    if not d or min(d) < 0:
        return True  # no 0 < d' < d
    pivot = d.index(max(d))
    theta_p, d_p = theta.pop(pivot), d.pop(pivot)
    zero, rest = (0,) * len(d), tuple(d)
    for sub in itertools.product(*(range(x + 1) for x in d)):
        dot = sum(map(operator.mul, theta, sub))
        if theta_p:
            value, rem = divmod(-dot, theta_p)
            values = (value,) if not rem and 0 <= value <= d_p else ()
        else:
            # with d_p >= 2 the pivot value 1 is neither 0 nor d_p
            values = range(min(d_p, 2) + 1) if not dot else ()
        for value in values:
            if (value, sub) != (0, zero) and (value, sub) != (d_p, rest):
                return False
    return True


def _charge_generic_walk(theta, d, cap: int) -> None:
    """Charge the cap with the sub-vectors ``is_generic`` walks,
    prod_{i != pivot} (d_i + 1), before it walks them.  ``is_generic``
    answers at once, and nothing is charged, when theta.d != 0 or d is
    empty or has a negative entry."""
    if pairing(theta, d) != 0:
        return
    d = [_integer(x) for x in d]
    if not d or min(d) < 0:
        return
    d.remove(max(d))  # the pivot, as is_generic picks it
    check_cap(prod(x + 1 for x in d), cap, "genericity walk")


def slope(theta, d) -> Fraction:
    total = sum(_integer(x) for x in d)
    if total == 0:
        raise ValidationError("slope of the zero dimension vector is undefined")
    return Fraction(pairing(theta, d), total)


def normalize_to_degree_zero(theta, d) -> tuple[int, ...]:
    """theta'_v = theta_v * sum(d) - theta.d, so that theta'.d = 0."""
    if len(theta) != len(d):
        raise ValidationError("theta and d are indexed by different vertex sets")
    total = sum(_integer(x) for x in d)
    dot = pairing(theta, d)
    return tuple(_integer(t) * total - dot for t in theta)


def is_indivisible(d) -> bool:
    g = 0
    for x in d:
        g = gcd(g, _integer(x))
    return g == 1


# ---------------------------------------------------------------------------
# stock quivers used throughout tests and scripts


def jordan_quiver() -> Quiver:
    return Quiver(["1"], [("a", "1", "1")])


def kronecker_quiver(n: int) -> Quiver:
    return Quiver(["1", "2"], [(f"a{i}", "1", "2") for i in range(1, n + 1)])


def a2_quiver() -> Quiver:
    return Quiver(["1", "2"], [("a", "1", "2")])
