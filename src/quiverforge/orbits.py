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
yields a permutation of indices.  That matrix is read off the entries of g
and g^-1, one arrow block at a time (see ``_action_matrix``): g at v sends
X_a to g X_a on an arrow with head v, to X_a g^-1 on one with tail v, and
both on a loop at v, so a unit entry of arrow a spreads only over a's own
block, and no point is decoded and no matrix product is taken.  The
accumulator dtype is chosen so that no sum of products wraps, so the images
are exact for every F_{p^k}.

Orbits are then found by min-label propagation (Shiloach and Vishkin,
J. Algorithms 3, 1982) over those permutations: every point starts labelled
by its own index; a round gives both ends of every generator edge
i -> g(i) the smaller of their two labels, one generator at a time, then
pointer-jumps labels = labels[labels] until that is stable; rounds repeat
until one changes nothing.  This is exact: a label only ever falls and always names a
point of its own orbit, and at the fixed point labels agree across every
generator edge, so they are constant on each orbit, hence equal to the
orbit's smallest index.  Canonical class representatives are the points
that keep their own label (the lexicographically smallest orbit elements),
and an orbit's size is the number of points carrying its label.  They are
turned back into representations by ``reps.representation_decoder``.

numpy is bound on the first orbit partition, not on import, so callers
that never partition a representation space never load it.
"""

from __future__ import annotations

from .errors import ValidationError, check_cap, DEFAULT_CAP
from .ffield import Field, FqMatrix, gl_generators
from .quiver import Quiver
from .reps import arrow_shapes

np = None  # numpy, bound by _bind_numpy on first use


def _bind_numpy():
    """Import numpy into this module on first use."""
    global np
    if np is None:
        import numpy

        np = numpy


def _accumulator(width: int, p: int):
    """Integer dtype that holds a sum of ``width`` products of base-p digits.
    Binds numpy, after the refusal, for every caller of the array kernels."""
    bound = width * (p - 1) ** 2
    if bound >= 2**63:
        raise ValidationError(f"F_{p} is too large for exact orbit arithmetic")
    _bind_numpy()
    return np.int32 if bound < 2**31 else np.int64


def _action_matrix(quiver: Quiver, field: Field, d, width: int, v: int, g) -> list[list[int]]:
    """Transpose of the F_p-linear map X -> g.X on the ``width`` base-p digits
    of a point, with g acting at vertex v: row s holds the digits of the image
    of the unit point whose only nonzero digit is digit s (most significant
    first).

    The rows are read off the entries of g and g^-1, arrow block by arrow
    block.  For arrow a put left = g if a's head is v and right = g^-1 if
    its tail is v, each the identity otherwise.  The unit point with value
    beta = x^t at entry (i, j) of a goes to left[x][i] * beta * right[j][y]
    at each entry (x, y) of a and to 0 on every other arrow, so an arrow
    that does not touch v contributes an identity block.
    """
    k = field.k
    units = [field.p**t for t in range(k - 1, -1, -1)]  # x^t in digit order
    g_rows, ginv_rows = g.entries, g.inverse().entries
    rows = []
    offset = 0
    for (r, c), a in zip(arrow_shapes(quiver, d), quiver.arrows):
        left = g_rows if quiver.vertex_index[a.head] == v else FqMatrix.identity(field, r).entries
        right = ginv_rows if quiver.vertex_index[a.tail] == v else FqMatrix.identity(field, c).entries
        for i in range(r):
            column = [(x, left[x][i]) for x in range(r) if left[x][i]]
            for j in range(c):
                # (digit offset, left[x][i] * right[j][y]) over the nonzero products
                spread = [
                    (offset + (x * c + y) * k, field.mul(lx, ry))
                    for x, lx in column
                    for y, ry in enumerate(right[j])
                    if ry
                ]
                for beta in units:
                    row = [0] * width
                    for start, scale in spread:
                        value = scale if beta == 1 else field.mul(scale, beta)
                        row[start : start + k] = field.coeffs(value)[::-1]
                    rows.append(row)
        offset += r * c * k
    return rows


def _images(digits: np.ndarray, action_t: np.ndarray, p: int, powers: np.ndarray) -> np.ndarray:
    """Indices of the images of the points with these base-p digits."""
    image = digits @ action_t
    np.remainder(image, p, out=image)
    return image.astype(powers.dtype, copy=False) @ powers


def _min_labels(idx, perms):
    """Smallest index in each point's orbit under the group generated by
    the permutations ``perms`` of ``idx`` = 0..n-1 (see the module docstring)."""
    labels = idx.copy()
    changed = True
    while changed:
        before = labels.copy()
        for perm in perms:
            # both ends of each edge i -> perm[i] take the smaller label;
            # perm is a bijection, so the scatter writes each point once
            edge_min = labels[perm]
            np.minimum(edge_min, labels, out=edge_min)
            labels[perm] = edge_min
            np.minimum(labels, edge_min, out=labels)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        changed = not np.array_equal(labels, before)
    return labels


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

    perms = []
    for v, g in generators:
        action_t = np.array(_action_matrix(quiver, field, d, width, v, g), dtype=acc)
        perms.append(_images(digits, action_t, p, powers))
    del digits  # n_points x width, no longer needed: keep it out of the labels' peak

    labels = _min_labels(idx, perms)
    canonical = np.flatnonzero(labels == idx)
    sizes = np.bincount(labels)[canonical]
    return [int(x) for x in canonical], n_points, [int(x) for x in sizes]

