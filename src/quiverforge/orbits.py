"""Bulk enumeration of GL_d-orbits on a representation space.

Points of the representation space are encoded as integers: the flat entry
tuple (arrow-major, row-major, field elements as 0..q-1) is read as a
base-q number, most significant digit first, so ascending index order is
exactly lexicographic order on representations.

The orbit partition is computed by letting a generating set of GL_d act on
the whole space at once: each generator yields a permutation of indices,
and orbits are the connected components of the union of those permutation
graphs.  All arithmetic is exact (mod-p integer ops for prime fields,
lookup tables for extension fields), so the partition is exact; canonical
class representatives are the lexicographically smallest orbit elements.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ValidationError, check_cap, DEFAULT_CAP
from .ffield import Field, FqMatrix, gl_generators
from .quiver import Quiver
from .reps import Representation


def _arrow_shapes(quiver: Quiver, d):
    return [
        (d[quiver.vertex_index[a.head]], d[quiver.vertex_index[a.tail]])
        for a in quiver.arrows
    ]


class _Arithmetic:
    """Vectorized field ops on code arrays, in dtypes chosen from q so that nothing wraps."""

    def __init__(self, field: Field, max_dim: int):
        bound = max_dim * (field.q - 1) ** 2  # largest sum of products in a matrix entry
        if bound >= 2**63:
            raise ValidationError(f"F_{field.q} is too large for exact orbit arithmetic")
        self.dtype = np.uint16 if field.q <= 2**16 else np.uint32
        self.acc = np.int32 if bound < 2**31 else np.int64
        self.field = field
        self.prime = field.k == 1
        if self.prime:
            self.p = field.p
        else:
            self.add_table, self.mul_table = field.np_tables()

    def matmul_const_left(self, g: np.ndarray, block: np.ndarray) -> np.ndarray:
        """g (r x r constant) times block (N x r x c)."""
        if self.prime:
            prod = np.einsum("ik,nkj->nij", g.astype(self.acc), block.astype(self.acc))
            return (prod % self.p).astype(self.dtype)
        n, r, c = block.shape
        out = np.zeros((n, r, c), dtype=self.dtype)
        for i in range(r):
            acc = np.zeros((n, c), dtype=self.dtype)
            for k in range(r):
                term = self.mul_table[g[i, k], block[:, k, :]]
                acc = self.add_table[acc, term]
            out[:, i, :] = acc
        return out

    def matmul_const_right(self, block: np.ndarray, h: np.ndarray) -> np.ndarray:
        """block (N x r x c) times h (c x c constant)."""
        if self.prime:
            prod = np.einsum("nik,kj->nij", block.astype(self.acc), h.astype(self.acc))
            return (prod % self.p).astype(self.dtype)
        n, r, c = block.shape
        out = np.zeros((n, r, c), dtype=self.dtype)
        for j in range(c):
            acc = np.zeros((n, r), dtype=self.dtype)
            for k in range(c):
                term = self.mul_table[block[:, :, k], h[k, j]]
                acc = self.add_table[acc, term]
            out[:, :, j] = acc
        return out


def _group_generators(quiver: Quiver, field: Field, d):
    """Generators of GL_d = prod_v GL_{d_v}, embedded one vertex at a time."""
    gens = []
    for v, dv in enumerate(d):
        for g in gl_generators(field, dv):
            gens.append((v, g, g.inverse()))
    return gens


def orbit_partition(quiver: Quiver, field: Field, d, cap: int = DEFAULT_CAP):
    """Partition the representation space into GL_d-orbits.

    Returns (canonical_indices, n_points): the sorted list of minimal point
    indices, one per orbit, and the total point count.
    """
    d = quiver.check_dim(d)
    q = field.q
    shapes = _arrow_shapes(quiver, d)
    total_entries = sum(r * c for r, c in shapes)
    n_points = q**total_entries
    check_cap(n_points, cap, "orbit enumeration of the representation space")
    if total_entries == 0:
        return [0], 1

    arith = _Arithmetic(field, max(d))
    idx = np.arange(n_points, dtype=np.int64)
    digits = np.empty((n_points, total_entries), dtype=arith.dtype)
    for j in range(total_entries):
        digits[:, j] = (idx // q ** (total_entries - 1 - j)) % q
    powers = q ** np.arange(total_entries - 1, -1, -1, dtype=np.int64)

    generators = _group_generators(quiver, field, d)
    if not generators:
        return list(range(n_points)), n_points

    edge_dst = []
    for v, g, ginv in generators:
        new_digits = digits.copy()
        pos = 0
        for (r, c), arrow in zip(shapes, quiver.arrows):
            width = r * c
            if width:
                tail = quiver.vertex_index[arrow.tail]
                head = quiver.vertex_index[arrow.head]
                if head == v or tail == v:
                    block = new_digits[:, pos : pos + width].reshape(n_points, r, c)
                    if head == v:
                        block = arith.matmul_const_left(
                            np.array(g.entries, dtype=arith.dtype), block
                        )
                    if tail == v:
                        block = arith.matmul_const_right(
                            block, np.array(ginv.entries, dtype=arith.dtype)
                        )
                    new_digits[:, pos : pos + width] = block.reshape(n_points, width)
            pos += width
        image = new_digits.astype(np.int64) @ powers
        edge_dst.append(image.astype(np.int32 if n_points < 2**31 else np.int64))

    dtype = np.int32 if n_points < 2**31 else np.int64
    src = np.tile(np.arange(n_points, dtype=dtype), len(edge_dst))
    dst = np.concatenate(edge_dst)
    graph = coo_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n_points, n_points)
    )
    _, labels = connected_components(graph, directed=False)

    order = np.argsort(labels, kind="stable")  # stable: minimal index first per label
    sorted_labels = labels[order]
    firsts = np.nonzero(np.r_[True, sorted_labels[1:] != sorted_labels[:-1]])[0]
    canonical = np.sort(order[firsts])
    return [int(x) for x in canonical], n_points


def decode_representation(
    quiver: Quiver, field: Field, d, index: int
) -> Representation:
    """Inverse of the base-q point encoding."""
    d = quiver.check_dim(d)
    q = field.q
    shapes = _arrow_shapes(quiver, d)
    total_entries = sum(r * c for r, c in shapes)
    flat = []
    for j in range(total_entries):
        flat.append((index // q ** (total_entries - 1 - j)) % q)
    maps = []
    pos = 0
    for r, c in shapes:
        maps.append(FqMatrix.from_flat(field, r, c, flat[pos : pos + r * c]))
        pos += r * c
    return Representation(quiver, field, d, maps)
