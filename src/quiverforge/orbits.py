"""Bulk enumeration of GL_d-orbits on a representation space.

Points of the representation space are encoded as integers: the flat entry
tuple (arrow-major, row-major, field elements as 0..q-1) is read as a
base-q number, most significant digit first, so ascending index order is
exactly lexicographic order on representations.

Since each element code is the base-p integer of its residue polynomial,
the same index read in base p has n*k digits, and every group element acts
F_p-linearly on them.  The orbit partition lets a generating set of GL_d act
on the whole space at once: each generator is one integer matrix on those
digits, applied to every point as a matrix product reduced mod p, which
yields a permutation of indices; orbits are the connected components of the
union of those permutation graphs.  The accumulator dtype is chosen so that
no sum of products wraps, so the partition is exact for every F_{p^k};
canonical class representatives are the lexicographically smallest orbit
elements, and an orbit's size is its component's size.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ValidationError, check_cap, DEFAULT_CAP
from .ffield import Field, gl_generators
from .quiver import Quiver
from .reps import Representation, _from_flat, arrow_shapes


def _accumulator(width: int, p: int):
    """Integer dtype that holds a sum of ``width`` products of base-p digits."""
    bound = width * (p - 1) ** 2
    if bound >= 2**63:
        raise ValidationError(f"F_{p} is too large for exact orbit arithmetic")
    return np.int32 if bound < 2**31 else np.int64


def _action_matrix(quiver: Quiver, field: Field, d, width: int, v: int, g) -> list[list[int]]:
    """Transpose of the F_p-linear map X -> g.X on the ``width`` base-p digits
    of a point, with g acting at vertex v: row s holds the digits of the image
    of the unit point whose only nonzero digit is digit s (most significant
    first)."""
    ginv = g.inverse()
    rows = []
    for s in range(width):
        x = decode_representation(quiver, field, d, field.p ** (width - 1 - s))
        digits = []
        for a, m in zip(quiver.arrows, x.maps):
            if quiver.vertex_index[a.head] == v:
                m = g.mul(m)
            if quiver.vertex_index[a.tail] == v:
                m = m.mul(ginv)
            digits.extend(c for code in m.flat() for c in reversed(field.coeffs(code)))
        rows.append(digits)
    return rows


def _images(digits: np.ndarray, action_t: np.ndarray, p: int, powers: np.ndarray) -> np.ndarray:
    """Indices of the images of the points with these base-p digits."""
    image = digits @ action_t
    np.remainder(image, p, out=image)
    return image.astype(powers.dtype, copy=False) @ powers


def orbit_partition(quiver: Quiver, field: Field, d, cap: int = DEFAULT_CAP):
    """Partition the representation space into GL_d-orbits.

    Returns (canonical_indices, n_points, sizes): the sorted list of minimal
    point indices, one per orbit, the total point count, and the size of
    each listed orbit.
    """
    d = quiver.check_dim(d)
    n_entries = sum(r * c for r, c in arrow_shapes(quiver, d))
    n_points = field.q**n_entries
    check_cap(n_points, cap, "orbit enumeration of the representation space")
    p, width = field.p, n_entries * field.k
    acc = _accumulator(width, p)
    if n_entries == 0:
        return [0], 1, [1]

    generators = [(v, g) for v, dv in enumerate(d) for g in gl_generators(field, dv)]
    if not generators:
        return list(range(n_points)), n_points, [1] * n_points

    dtype = np.int32 if n_points < 2**31 else np.int64
    powers = p ** np.arange(width - 1, -1, -1, dtype=dtype)
    idx = np.arange(n_points, dtype=dtype)
    digits = np.empty((n_points, width), dtype=acc)
    for j, power in enumerate(powers):
        digits[:, j] = (idx // power) % p

    edge_dst = []
    for v, g in generators:
        action_t = np.array(_action_matrix(quiver, field, d, width, v, g), dtype=acc)
        edge_dst.append(_images(digits, action_t, p, powers))
    del digits  # n_points x width, no longer needed: keep it out of the graph's peak

    src = np.tile(idx, len(edge_dst))
    dst = np.concatenate(edge_dst)
    graph = coo_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n_points, n_points)
    )
    _, labels = connected_components(graph, directed=False)

    order = np.argsort(labels, kind="stable")  # stable: minimal index first per label
    sorted_labels = labels[order]
    firsts = np.nonzero(np.r_[True, sorted_labels[1:] != sorted_labels[:-1]])[0]
    canonical = np.sort(order[firsts])
    sizes = np.bincount(labels)[labels[canonical]]
    return [int(x) for x in canonical], n_points, [int(x) for x in sizes]


def decode_representation(
    quiver: Quiver, field: Field, d, index: int
) -> Representation:
    """Inverse of the base-q point encoding."""
    d = quiver.check_dim(d)
    shapes = arrow_shapes(quiver, d)
    n_entries = sum(r * c for r, c in shapes)
    q = field.q
    flat = [(index // q ** (n_entries - 1 - j)) % q for j in range(n_entries)]
    return _from_flat(quiver, field, d, shapes, flat)
