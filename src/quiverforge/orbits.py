"""Bulk enumeration of GL_d-orbits on a representation space.

Points of the representation space are encoded as integers: the flat entry
tuple (arrow-major, row-major, field elements as 0..q-1) is read as a
base-q number, most significant digit first, so ascending index order is
exactly lexicographic order on representations.

Since each element code is the base-p integer of its residue polynomial,
the same index read in base p has n*k digits, and every group element acts
F_p-linearly on them.  The orbit partition lets a generating set of GL_d act
on the whole space at once, each generator as a permutation of indices.
A generator's action is kept sparse (see ``_sparse_action``): only the
digits it moves are listed, each as the few (source digit, coefficient)
terms of its column, read off the entries of g and g^-1 one arrow block at
a time.  g at v sends X_a to g X_a on an arrow with head v, to X_a g^-1 on
one with tail v, and both on a loop at v, so a unit entry of arrow a
spreads only over a's own block, an arrow that does not touch v moves no
digit, and a generator that moves none is dropped.  ``ffield.gl_generators``
hands over each generator with its inverse in closed form, so no point is
decoded, no matrix product is taken and no matrix is inverted.  The sparse
actions of a space depend only on its arrow ends, the field and d, and are
built once per process (``_sparse_actions``), after the cap and the
accumulator have accepted the space.

Images are then taken by column sums in O(points * terms) (see
``_images``): starting from each point's own index, each moved digit j adds
(new digit j - digit j) * p^(width-1-j), new digit j being its column's sum
reduced mod p.  The base-p digit columns of the points are computed when a
column first reads them, once per partition, and the table of all digits
is never built.  The accumulator dtype is chosen, before anything is
allocated, so that no column sum wraps, and every partial image is the
index of a digit string, so the images are exact for every F_{p^k}.

Orbits are then found by min-label propagation (Shiloach and Vishkin,
J. Algorithms 3, 1982) over those permutations, each generator applied by
its order, which ``gl_generators`` states in closed form, so no cycle is
walked to find it.  Every point starts labelled by its own index.  A round
gives each point the smallest label on its cycle under each generator in
turn, by one of two rules.  An involution or a generator of order above
``_DOUBLING_ORDER`` closes its cycles by pointer doubling, ceil(log2 order)
steps labels = min(labels, labels[step]), step = step[step], after which
each point has seen the next 2^t >= order points of its cycle; for an
involution, whose cycles are its edges, that is the one gather
labels = min(labels, labels[g]).  Any other generator gives both ends of
each edge i -> g(i) the smaller label.  The round then pointer-jumps
labels = labels[labels] until that is stable, and rounds repeat until
labels[g] == labels for every generator g.  This is exact whatever the
stated orders: a label only ever falls and always names a point of its own
orbit, and the loop stops only once labels agree across every generator
edge, so they are constant on each orbit, hence equal to the orbit's
smallest index.  Canonical class representatives are the points
that keep their own label (the lexicographically smallest orbit elements),
and an orbit's size is the number of points carrying its label.  They are
turned back into representations by ``reps.representation_decoder``.

The same labels find the indecomposable orbits with no linear algebra.  By
Krull-Schmidt a decomposable W is W1 + W2 with 0 < dim W1 < d, so marking
the orbit of every block-diagonal point W1 + W2, one split d = d1 + d2 at
a time, leaves exactly the indecomposable orbits unmarked.  A block-diagonal
point's index is the sum of its blocks' indices, each block's base-q codes
copied to their positions in Rep(Q, d) (see ``_lift``).

This module alone charges a partition: its entry points take q, and
``_orbit_labels`` charges the q^n points, then the floor(sqrt(q)) candidate
divisors of factoring q, before it factors q, so a huge q is refused without
trial division, even where q^n is small.  Inside a ``_shared_partitions``
block the labels of each Rep(Q, d) are computed once, keyed by the arrow
ends, the field and d, and every later ``_orbit_labels`` call in the block
reads the same read-only array, after charging the cap as it would to
compute it.  ``moduli.cbvdb_identity_check`` opens one around its fiber
pass and ``classify_classes``; the labels are dropped when the block exits,
normally or by an exception, so nothing outlives the call.

The public entry, ``orbit_partition``, checks d.  The private helpers,
``_charge_partition``, ``_orbit_labels``, ``_label_kernel`` and
``_unsplit_orbits``, take d as ``Quiver.check_dim`` returns it, a tuple of
nonnegative ints, one per vertex, and read the arrow shapes without
checking it again (``reps._arrow_shapes``): each public call that reaches
them checks d once, before anything is charged.

numpy is bound on the first orbit partition, not on import, so callers
that never partition a representation space never load it.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache

from .errors import ValidationError, DEFAULT_CAP
from .ffield import Field, FqMatrix, _charge_factoring, field_from_order, gl_generators
from .quiver import Quiver
from .reps import _arrow_shapes, _charge_space

# how a cap refusal names the q^n points an orbit partition walks
_PARTITION_CHARGE = "orbit enumeration of the representation space"

np = None  # numpy, bound by _bind_numpy on first use

# an involution or a generator of higher order closes its cycles by pointer
# doubling in ceil(log2 order) gathers, any other by edge steps
_DOUBLING_ORDER = 8

# (arrow ends, field, d) -> read-only labels, set only inside _shared_partitions
_SHARED_LABELS = ContextVar("shared_labels", default=None)


def _bind_numpy():
    """Import numpy into this module on first use."""
    global np
    if np is None:
        import numpy

        np = numpy


def _accumulator(width: int, p: int):
    """Integer dtype that holds a column sum of ``_images``: at most
    ``width`` terms coeff * digit, each at most (p-1)^2.
    Binds numpy, after the refusal, for every caller of the array kernels."""
    bound = width * (p - 1) ** 2
    if bound >= 2**63:
        raise ValidationError(f"F_{p} is too large for exact orbit arithmetic")
    _bind_numpy()
    return np.int32 if bound < 2**31 else np.int64


def _sparse_action(ends, field: Field, shapes, v: int, g, g_inv):
    """The F_p-linear map X -> g.X on the base-p digits of a point of
    Rep(Q, d), Q given by its arrow ``ends`` and d by its arrow shapes,
    with g acting at vertex v: a tuple of columns (j, ((s, coeff), ...)),
    digit j of the image being the sum of coeff * digit s mod p, listed only
    where that is not digit j itself (digits most significant first).

    The columns are read off the entries of g and its inverse ``g_inv``,
    arrow block by arrow block.  For arrow a put left = g if a's head is v
    and right = g^-1 if its tail is v, each the identity otherwise.  The
    unit point with value beta = x^t at entry (i, j) of a goes to
    left[x][i] * beta * right[j][y] at each entry (x, y) of a and to 0 on
    every other arrow, so an arrow that does not touch v moves no digit and
    is skipped.
    """
    k = field.k
    units = [field.p**t for t in range(k - 1, -1, -1)]  # x^t in digit order
    columns = {}  # image digit -> {source digit: coeff}
    offset = 0
    for (r, c), (t, h) in zip(shapes, ends):
        if v in (t, h):
            left = g.entries if h == v else FqMatrix.identity(field, r).entries
            right = g_inv.entries if t == v else FqMatrix.identity(field, c).entries
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
                    for s, beta in enumerate(units, offset + (i * c + j) * k):
                        for start, scale in spread:
                            value = scale if beta == 1 else field.mul(scale, beta)
                            for e, coeff in enumerate(field.coeffs(value)[::-1], start):
                                if coeff:
                                    columns.setdefault(e, {})[s] = coeff
        offset += r * c * k
    return tuple(
        (j, tuple(sorted(terms.items()))) for j, terms in sorted(columns.items()) if terms != {j: 1}
    )


@lru_cache(maxsize=None)
def _sparse_actions(ends, field: Field, d: tuple[int, ...]):
    """(``_sparse_action``, order) of each generator of GL_d
    (``gl_generators`` at each vertex) that moves some digit of Rep(Q, d),
    Q given by its arrow ``ends``; a vertex that no arrow with entries
    touches has none.  The order is the generator's, as ``gl_generators``
    states it, and its index permutation's order divides it.  Built once
    per process for each (arrow ends, field, d): the entries are tuples of
    Python ints, nothing of the size of the space."""
    shapes = [(d[h], d[t]) for t, h in ends]
    touched = sorted({v for (r, c), (t, h) in zip(shapes, ends) if r * c for v in (t, h)})
    actions = (
        (_sparse_action(ends, field, shapes, v, g, g_inv), order)
        for v in touched
        for g, g_inv, order in gl_generators(field, d[v])
    )
    return tuple((action, order) for action, order in actions if action)


def _images(idx, action, digit, p: int, width: int):
    """Indices of the images of the points ``idx`` under one generator's
    sparse ``action`` (see ``_sparse_action``); ``digit(s)`` is base-p digit
    s of every point.  Each listed digit j moves the index by
    (new_j - digit_j) * p^(width-1-j); a column with one term of coefficient
    1 copies a digit and needs no reduction.  Every partial image is the
    index of a digit string, so nothing leaves [0, len(idx))."""
    image = idx.copy()
    for j, terms in action:
        (s, coeff), *rest = terms
        if coeff == 1 and not rest:
            change = digit(s) - digit(j)
        else:
            change = digit(s) * coeff
            for s, coeff in rest:
                change += digit(s) * coeff
            change %= p
            change -= digit(j)
        change *= p ** (width - 1 - j)
        image += change
    return image


def _min_labels(idx, perms, orders):
    """Smallest index in each point's orbit under the group generated by
    the permutations ``perms`` of ``idx`` = 0..n-1, each applied by its
    stated order in ``orders`` (see the module docstring).  A wrong order
    costs rounds, never exactness."""
    labels = idx.copy()
    while True:
        for perm, order in zip(perms, orders):
            if order == 2 or order > _DOUBLING_ORDER:
                steps = (order - 1).bit_length()
                step = perm
                for t in range(steps):
                    np.minimum(labels, labels[step], out=labels)
                    if t + 1 < steps:
                        step = step[step]
            else:
                # both ends of each edge i -> perm[i] take the smaller label;
                # perm is a bijection, so the scatter writes each point once
                edge_min = labels[perm]
                np.minimum(edge_min, labels, out=edge_min)
                labels[perm] = edge_min
                np.minimum(labels, edge_min, out=labels)
        while True:
            jumped = labels[labels]
            if (jumped == labels).all():
                break
            labels = jumped
        if all((labels[perm] == labels).all() for perm in perms):
            return labels


@contextmanager
def _shared_partitions():
    """Within the block, each Rep(Q, d) is partitioned at most once (see
    the module docstring); the labels are dropped on exit."""
    token = _SHARED_LABELS.set({})
    try:
        yield
    finally:
        _SHARED_LABELS.reset(token)


def _charge_partition(quiver: Quiver, d: tuple[int, ...], q: int, cap: int) -> int:
    """q^n, the points of Rep(Q, d) over F_q that a partition walks, charged to the cap."""
    return _charge_space(_arrow_shapes(quiver, d), q, cap, _PARTITION_CHARGE)


def _orbit_labels(quiver: Quiver, d: tuple[int, ...], q: int, cap: int):
    """The smallest index in each point's orbit, one array over the q^n
    points of Rep(Q, d) over F_q.  The q^n points, then the trial division
    of q, are charged before q is factored and anything is built or read
    from a ``_shared_partitions`` block."""
    n_points = _charge_partition(quiver, d, q, cap)
    _charge_factoring(q, cap)
    field = field_from_order(q)
    shared = _SHARED_LABELS.get()
    if shared is None:
        return _label_kernel(quiver, field, d, n_points)
    key = (quiver.ends, field, d)
    if key not in shared:
        labels = _label_kernel(quiver, field, d, n_points)
        labels.flags.writeable = False
        shared[key] = labels
    return shared[key]


def _label_kernel(quiver: Quiver, field: Field, d: tuple[int, ...], n_points: int):
    """``_orbit_labels`` computed, the cap already charged; the accumulator
    refuses a p too large for exact arithmetic before anything is built.
    Each generator's images come from its memoised sparse action
    (``_sparse_actions``); a base-p digit column of the points is computed
    when an action first reads it and kept for the call, and the table of
    all digits is never built."""
    p, width = field.p, sum(r * c for r, c in _arrow_shapes(quiver, d)) * field.k
    acc = _accumulator(width, p)  # holds every column sum
    dtype = np.promote_types(acc, np.int32 if n_points < 2**31 else np.int64)
    actions = _sparse_actions(quiver.ends, field, d)
    idx = np.arange(n_points, dtype=dtype)
    columns = {}

    def digit(j):
        if j not in columns:
            columns[j] = idx // p ** (width - 1 - j) % p
        return columns[j]

    perms = [_images(idx, action, digit, p, width) for action, _ in actions]
    columns.clear()  # keep the digit columns out of the labels' peak
    return _min_labels(idx, perms, [order for _, order in actions])


def orbit_partition(quiver: Quiver, d, q: int, cap: int = DEFAULT_CAP):
    """Partition Rep(Q, d) over F_q into GL_d-orbits, charged before q is factored.

    Returns (canonical_indices, n_points, sizes): the sorted list of minimal
    point indices, one per orbit, the total point count, and the size of
    each listed orbit.
    """
    labels = _orbit_labels(quiver, quiver.check_dim(d), q, cap)
    canonical = np.flatnonzero(labels == np.arange(len(labels)))
    sizes = np.bincount(labels)[canonical]
    return [int(x) for x in canonical], len(labels), [int(x) for x in sizes]


def _splits(d: tuple[int, ...]):
    """(d1, d2) with d1 + d2 = d, both nonzero and d1 <= d2 lexicographically,
    d1 ascending, generated lazily: d - d1 descends as d1 ascends, so the
    walk ends at the first d1 > d2."""
    for d1 in itertools.product(*(range(x + 1) for x in d)):
        d2 = tuple(x - y for x, y in zip(d, d1))
        if d1 > d2:
            return
        if any(d1):
            yield d1, d2


def _lift(quiver: Quiver, shapes, sub, offset, q: int, dtype):
    """Index in Rep(Q, d), d given by its arrow shapes, of each point of
    Rep(Q, sub), in index order, placed as the diagonal block of a point of
    Rep(Q, d) that starts at vertex offsets ``offset``, with every other
    entry 0.  Each entry's base-q code is copied to its position, never
    multiplied, so this holds over every F_{p^k}, and the block-diagonal
    point W1 + W2 has index lift(W1) + lift(W2)."""
    n_entries = sum(r * c for r, c in shapes)
    codes = np.arange(q, dtype=dtype)
    lift = np.zeros(1, dtype=dtype)
    start = 0
    for (t, h), (r, c) in zip(quiver.ends, shapes):
        for i in range(offset[h], offset[h] + sub[h]):
            for j in range(offset[t], offset[t] + sub[t]):
                weight = q ** (n_entries - 1 - (start + i * c + j))
                lift = (lift[:, None] + codes * weight).ravel()
        start += r * c
    return lift


def _unsplit_orbits(quiver: Quiver, d: tuple[int, ...], q: int, cap: int = DEFAULT_CAP):
    """(number of orbits, canonical indices, sizes) of Rep(Q, d): every
    orbit is counted, and the orbits that hold no direct sum W1 + W2 of
    nonzero points are listed with their sizes.  By Krull-Schmidt these are
    exactly the indecomposable orbits.

    The orbit partition runs once (``_orbit_labels``).  For each split
    d = d1 + d2 (see ``_splits``) the orbit of every block-diagonal point,
    W1 over all of Rep(d1) at vertex offset 0 and W2 over all of Rep(d2) at
    offset d1, is marked, one split at a time; the walk stops once every
    orbit is marked.  A split's q^(n(d1) + n(d2)) sums are at most the q^n
    points the cap was charged with, since n(d) = n(d1) + n(d2) plus the
    entries off the diagonal blocks."""
    labels = _orbit_labels(quiver, d, q, cap)
    canonical = np.flatnonzero(labels == np.arange(len(labels)))
    # the zero representation, the one point at d = 0, is not indecomposable
    marked = np.full(len(labels), not any(d))
    shapes, zero = _arrow_shapes(quiver, d), (0,) * len(d)
    for d1, d2 in _splits(d):
        low = _lift(quiver, shapes, d1, zero, q, labels.dtype)
        high = _lift(quiver, shapes, d2, d1, q, labels.dtype)
        marked[labels[(low[:, None] + high).ravel()]] = True
        if marked[canonical].all():
            break
    free = canonical[~marked[canonical]]
    sizes = np.bincount(labels)[free]
    return len(canonical), [int(x) for x in free], [int(x) for x in sizes]
