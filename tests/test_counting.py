import itertools
import time
from collections import Counter
from fractions import Fraction
import math
from math import comb, gcd, prod
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverforge import (
    CapExceeded,
    DEFAULT_CAP,
    ConsistencyError,
    ValidationError,
    NonPolynomialBehavior,
    TruncatedSeries,
    check_galois_descent,
    class_counts_by_hua,
    count_report,
    galois_descent_I,
    hua_identity_check,
    kac_polynomial,
    kronecker_quiver,
    make_field,
    orbit_representatives,
)
from quiverforge.quiver import Quiver, a2_quiver, jordan_quiver
from quiverforge import acceptance, counting, reps
from quiverforge.counting import classify_classes, moebius, prime_powers
from quiverforge.ffield import FqMatrix, field_from_order, gl_generators, gl_order, prime_power
from brute_force import enumerate_gl
from quiverforge import orbits
from quiverforge.orbits import orbit_partition
from quiverforge.moduli import level_set_points
from quiverforge.reps import all_representations, aut_order
from quiverforge.series import monomials_up_to


def brute_orbit_count(quiver, d, q):
    """Independent oracle: explicit orbit enumeration under the full group."""
    field = make_field(*prime_power(q))
    group = [
        combo
        for combo in itertools.product(*[list(enumerate_gl(field, dv)) for dv in d])
    ]
    inverses = [tuple(g.inverse() for g in combo) for combo in group]
    seen = set()
    orbits = 0
    for w in all_representations(quiver, field, d):
        key = w.entry_key()
        if key in seen:
            continue
        orbits += 1
        for combo, inv in zip(group, inverses):
            maps = []
            for idx, a in enumerate(quiver.arrows):
                h = quiver.vertex_index[a.head]
                t = quiver.vertex_index[a.tail]
                maps.append(combo[h].mul(w.maps[idx]).mul(inv[t]))
            seen.add(tuple(x for m in maps for x in m.flat()))
    return orbits


def abs_count(quiver, d, q, cap=DEFAULT_CAP):
    """A_d(q) from the orbit partition."""
    return classify_classes(quiver, d, q, cap=cap).absolutely_indecomposable


def abs_count_fn(quiver):
    """``a_fn`` for ``galois_descent_I``: A from the orbit partition."""
    return lambda d, q: abs_count(quiver, d, q)


def end_walk_counts(quiver, d, q):
    """Independent oracle: (M, I, A) with each class's End ring walked for
    its unit count, stopping at the first non-nilpotent non-unit."""
    classes = [w for w, _ in orbit_representatives(quiver, d, q)]
    indec = abs_indec = 0
    for w in classes:
        dim_end, local, units = reps.scan_endomorphisms(w, early_exit=True)
        if not local:
            continue
        indec += 1
        if reps._local_structure(dim_end, units, q).residue_degree == 1:
            abs_indec += 1
    return len(classes), indec, abs_indec


def commutation_kernel_log(quiver, d, combo, field):
    """Independent oracle: log_q of the points fixed by ``combo`` = (g_v), from
    each arrow's own system X -> g_h X - X g_t written out entrywise."""
    total = 0
    for a in quiver.arrows:
        h = quiver.vertex_index[a.head]
        t = quiver.vertex_index[a.tail]
        r, c = d[h], d[t]
        gh, gt = combo[h].entries, combo[t].entries
        # row (x, y), column (i, j): entry (x, y) of g_h E_ij - E_ij g_t
        rows = []
        for x in range(r):
            for y in range(c):
                row = [0] * (r * c)
                for i in range(r):
                    row[i * c + y] = gh[x][i]
                for j in range(c):
                    row[x * c + j] = field.sub(row[x * c + j], gt[j][y])
                rows.append(row)
        total += r * c - FqMatrix(field, rows).rank()
    return total


def stabilizer_burnside_count(quiver, d, q):
    """Independent oracle: Burnside over points, M = sum_X |Aut X| / |GL_d|."""
    field = make_field(*prime_power(q))
    total = sum(aut_order(w) for w in all_representations(quiver, field, d))
    count, rem = divmod(total, gl_order(d, q))
    assert rem == 0
    return count


def group_burnside_count(quiver, d, q):
    """Independent oracle: Burnside over GL_d,
    M = (1/|GL_d|) sum_g #{X in Rep(Q,d) : g.X = X}.

    X is fixed by g = (g_v) iff g_h X_a = X_a g_t on every arrow a: t -> h,
    i.e. X_a is in Hom((F^{d_t}, g_t), (F^{d_h}, g_h)) between Jordan
    representations (Kac, LNM 996, 1983).  Each pair (g_t, g_h) is solved
    once, whatever the other components of g and however many arrows join
    t to h."""
    field = make_field(*prime_power(q))
    jordan = jordan_quiver()
    gls = {
        dv: [reps.Representation(jordan, field, (dv,), [g]) for g in enumerate_gl(field, dv)]
        for dv in set(d)
    }
    # dim Hom(J(g_t), J(g_h)) depends only on (g_t, g_h): one table per
    # (d_t, d_h), or one diagonal per d_v for loops
    tables = {}
    factors = []
    for t, h in itertools.product(range(len(d)), repeat=2):
        m = quiver.ends.count((t, h))
        if not m:
            continue
        key = (d[t],) if t == h else (d[t], d[h])
        if key not in tables:
            if t == h:
                tables[key] = [reps.hom_dim(w, w) for w in gls[d[t]]]
            else:
                tables[key] = [[reps.hom_dim(a, b) for b in gls[d[h]]] for a in gls[d[t]]]
        factors.append((t, h, m, tables[key]))
    total = 0
    for combo in itertools.product(*(range(len(gls[dv])) for dv in d)):
        total += q ** sum(
            m * (table[combo[t]] if t == h else table[combo[t]][combo[h]])
            for t, h, m, table in factors
        )
    count, rem = divmod(total, gl_order(d, q))
    assert rem == 0
    return count


# -- iso-class counts


@pytest.mark.parametrize("q", [2, 3, 5])
def test_jordan_dim1_count_is_q(jordan, q):
    assert class_counts_by_hua(jordan, (1,), q).iso_classes == q


def test_jordan_dim2_count_matches_orbit_oracle(jordan):
    assert class_counts_by_hua(jordan, (2,), 2).iso_classes == 6
    assert brute_orbit_count(jordan, (2,), 2) == 6
    assert brute_orbit_count(jordan, (2,), 3) == 12
    assert class_counts_by_hua(jordan, (2,), 3).iso_classes == 12


def test_kronecker_count_example(kron2):
    # zero class plus one class per point of the projective line
    assert class_counts_by_hua(kron2, (1, 1), 2).iso_classes == 1 + (2 + 1)
    assert brute_orbit_count(kron2, (1, 1), 2) == 4


ORBIT_M = {
    # (quiver, d, q): M
    ("jordan", (2,), 2): 6,
    ("jordan", (2,), 3): 12,
    ("kron2", (1, 1), 2): 4,
    ("kron2", (1, 1), 4): 6,
    ("kron2", (2, 1), 2): 5,
    ("a2", (1, 1), 3): 2,
    ("a2", (2, 1), 2): 2,
    ("kron2", (1, 1), 8): 10,
    ("kron3", (1, 1), 9): 92,
    ("jordan", (2,), 4): 20,
    ("kron2", (2, 2), 3): 24,
    ("jordan", (2,), 8): 72,
    ("kron3", (2, 1), 2): 15,
    ("kron3", (2, 2), 2): 148,
    ("loop+arrow", (1, 1), 3): 6,
    ("loop+arrow", (2, 2), 2): 22,
    ("path3", (1, 1, 1), 3): 4,
    ("star", (2, 1, 1, 1, 1), 2): 51,
    ("2-cycle", (1, 1), 3): 5,
    ("2-cycle", (2, 2), 2): 16,
}


@pytest.mark.parametrize("name,d,q", list(ORBIT_M))
def test_orbit_partition_agrees_with_burnside(name, d, q):
    # the cross-check compares M, I and A with the formula chain
    report = count_report(QUIVERS[name], d, q, cross_check=True)
    assert report.method == "orbit-partition+burnside"
    assert report.iso_classes == ORBIT_M[name, d, q]
    assert 0 <= report.absolutely_indecomposable <= report.indecomposable <= report.iso_classes


@pytest.mark.parametrize(
    "name,d,q",
    [
        ("jordan", (2,), 3),
        ("jordan", (2,), 4),
        ("jordan", (3,), 2),
        ("kron2", (1, 1), 8),
        ("kron2", (2, 0), 3),
        ("kron2", (2, 1), 3),
        ("kron3", (1, 1), 9),
        ("a2", (2, 1), 2),
        ("a2", (1, 1), 5),
    ],
)
def test_group_and_point_burnside_agree(name, d, q, jordan, kron2, a2):
    # the paper's dual Burnside routes: fixed points over GL_d, stabilizers over Rep(Q,d)
    quiver = {"jordan": jordan, "kron2": kron2, "kron3": kronecker_quiver(3), "a2": a2}[name]
    by_point = stabilizer_burnside_count(quiver, d, q)
    assert by_point == group_burnside_count(quiver, d, q)
    assert by_point == classify_classes(quiver, d, q).iso_classes


def test_burnside_walks_no_points_and_scans_no_end_ring(jordan, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the formula chain reached a per-point route")

    for module in (reps, counting):
        monkeypatch.setattr(module, "scan_endomorphisms", forbidden, raising=False)
        monkeypatch.setattr(module, "all_representations", forbidden, raising=False)
    monkeypatch.setattr(counting, "orbit_partition", forbidden)
    monkeypatch.setattr(orbits, "_orbit_labels", forbidden)
    assert class_counts_by_hua(jordan, (2,), 3).iso_classes == 12
    # budgeted by Hua's partition tuples and pair products alone: 9^3 points exceed the cap
    assert class_counts_by_hua(kronecker_quiver(3), (1, 1), 9, cap=100).iso_classes == 92


def test_burnside_solves_each_pair_of_group_elements_once(monkeypatch):
    # path 1 -> 2 -> 3 at d = (2,2,2): both arrows pair GL_2(F_2) with itself,
    # so 6 x 6 = 36 distinct (g_t, g_h); one solve per arrow per element of
    # GL_2 x GL_2 x GL_2 would be 2 x 216 = 432
    path = path_quiver()
    solves = []
    original = reps.hom_dim

    def counted(v, w):
        solves.append((v.maps[0].entries, w.maps[0].entries))
        return original(v, w)

    monkeypatch.setattr(reps, "hom_dim", counted)
    assert group_burnside_count(path, (2, 2, 2), 2) == 10
    assert len(solves) == len(set(solves)) == 36
    monkeypatch.undo()
    assert classify_classes(path, (2, 2, 2), 2).iso_classes == 10


def path_quiver():
    return Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])


def star_quiver():
    """The D~4 star: four arms pointing into a central vertex "0"."""
    return Quiver(["0", "1", "2", "3", "4"], [(f"a{i}", str(i), "0") for i in range(1, 5)])


def two_cycle_quiver():
    return Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])


def loop_and_arrow_quiver():
    return Quiver(["1", "2"], [("l", "1", "1"), ("a", "1", "2")])


QUIVERS = {
    "jordan": jordan_quiver(),
    "kron2": kronecker_quiver(2),
    "kron3": kronecker_quiver(3),
    "a2": a2_quiver(),
    "loop+arrow": loop_and_arrow_quiver(),
    "path3": path_quiver(),
    "star": star_quiver(),
    "2-cycle": two_cycle_quiver(),
}


@pytest.mark.parametrize(
    "name,d,q",
    [
        ("jordan", (2,), 4),
        ("jordan", (2,), 9),
        ("kron3", (1, 1), 9),
        ("kron3", (2, 1), 4),
        ("loop+arrow", (2, 1), 3),
        ("loop+arrow", (1, 1), 4),
        ("kron2", (2, 2), 2),
        ("a2", (2, 1), 3),
    ],
)
def test_burnside_hom_dimensions_match_the_commutation_kernels(name, d, q):
    quiver, field = QUIVERS[name], field_from_order(q)
    jordan = jordan_quiver()
    fixed_total = 0
    for combo in itertools.product(*[list(enumerate_gl(field, dv)) for dv in d]):
        wrapped = [reps.Representation(jordan, field, (g.rows,), [g]) for g in combo]
        by_hom = sum(
            reps.hom_space(wrapped[quiver.vertex_index[a.tail]],
                           wrapped[quiver.vertex_index[a.head]]).dim
            for a in quiver.arrows
        )
        by_kernel = commutation_kernel_log(quiver, d, combo, field)
        assert by_hom == by_kernel, combo
        fixed_total += q**by_kernel
    assert class_counts_by_hua(quiver, d, q).iso_classes * gl_order(d, q) == fixed_total


CLASSIFY_CASES = [
    ("jordan", (2,), 2),
    ("jordan", (2,), 3),
    ("jordan", (2,), 4),
    ("jordan", (2,), 8),
    ("jordan", (2,), 9),
    ("jordan", (3,), 2),
    ("kron2", (1, 1), 4),
    ("kron2", (2, 1), 3),
    ("kron2", (2, 2), 2),
    ("kron3", (1, 1), 9),
    ("a2", (2, 1), 3),
    ("loop+arrow", (2, 1), 2),
    ("loop+arrow", (1, 1), 8),
]


@pytest.mark.parametrize("name,d,q", CLASSIFY_CASES)
def test_classify_matches_the_end_ring_walk(name, d, q):
    counts = classify_classes(QUIVERS[name], d, q)
    assert (
        counts.iso_classes, counts.indecomposable, counts.absolutely_indecomposable
    ) == end_walk_counts(QUIVERS[name], d, q)


@pytest.mark.parametrize(
    "name,d,q",
    [("jordan", (2,), 3), ("jordan", (2,), 4), ("kron2", (2, 1), 3), ("a2", (2, 1), 2),
     ("loop+arrow", (2, 1), 2), ("kron3", (1, 1), 4)],
)
def test_orbit_sizes_are_group_order_over_automorphisms(name, d, q):
    quiver, field = QUIVERS[name], field_from_order(q)
    indices, _, sizes = orbit_partition(quiver, d, q)
    assert len(sizes) == len(indices)
    for index, size in zip(indices, sizes):
        w = reps.representation_decoder(quiver, field, d)(index)
        assert size * aut_order(w) == gl_order(d, q)


def test_classify_refuses_an_orbit_size_not_dividing_the_group(jordan, monkeypatch):
    original = counting._unsplit_orbits

    def bad_sizes(*args, **kwargs):
        n_orbits, indices, sizes = original(*args, **kwargs)
        return n_orbits, indices, [gl_order((2,), 2) + 1] + sizes[1:]

    monkeypatch.setattr(counting, "_unsplit_orbits", bad_sizes)
    with pytest.raises(ConsistencyError, match="does not divide"):
        classify_classes(jordan, (2,), 2)


def test_orbit_partition_exact_past_uint16(jordan):
    # codes of F_65537 run up to 65536, one past the uint16 range
    indices, n_points, sizes = orbit_partition(jordan, (1,), 65537)
    assert n_points == len(indices) == 65537
    assert set(sizes) == {1}


def test_orbit_products_sum_without_wrapping(monkeypatch):
    p = 46349  # (p-1)^2 just past 2^31
    acc = orbits._accumulator(2, p)
    assert acc == np.int64
    idx = np.array([p * p - 1], dtype=acc)  # both digits p - 1
    # image digit 0 is (p-1) digit 0 + (p-1) digit 1, a sum of two products past 2^31
    action = ((0, ((0, p - 1), (1, p - 1))),)
    image = orbits._images(idx, action, lambda s: idx // p ** (1 - s) % p, p, 2)
    assert int(image[0]) == 2 * (p - 1) ** 2 % p * p + (p - 1)
    # inside a partition: on A_2 (1, 1) over F_49391 the generator at the
    # tail scales the one entry by zeta^-1, and zeta^-1 (p - 1) is past 2^31
    p = 49391
    field = make_field(p)
    zeta = field.primitive_element()
    assert field.inv(zeta) * (p - 1) >= 2**31
    seen = {}
    monkeypatch.setattr(orbits, "_min_labels", lambda idx, perms, orders: seen.update(perms=perms) or idx)
    orbit_partition(a2_quiver(), (1, 1), p)
    points = np.arange(p, dtype=np.int64)
    expected = [(points * scale % p).tolist() for scale in (field.inv(zeta), zeta)]
    assert [perm.tolist() for perm in seen["perms"]] == expected


def test_a_prime_too_large_for_exact_orbit_arithmetic_is_refused_before_allocating(jordan, monkeypatch):
    p = 3037000507  # prime, (p - 1)^2 past 2^63; p^1 points are under the cap
    orbits._bind_numpy()

    def no_space(*args, **kwargs):
        raise AssertionError("the points were allocated before the refusal")

    monkeypatch.setattr(np, "arange", no_space)
    built = orbits._sparse_actions.cache_info()
    message = f"F_{p} is too large for exact orbit arithmetic"
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=message):
        orbit_partition(jordan, (1,), p, cap=10**12)
    with pytest.raises(ValidationError, match=message):
        classify_classes(jordan, (1,), p, cap=10**12)
    assert time.perf_counter() - start < 1
    assert orbits._sparse_actions.cache_info() == built


def action_matrix_by_multiplication(quiver, field, d, width, v, g):
    """Independent oracle for ``orbits._sparse_action``: decode each unit
    point to a representation, act by g at v with two matrix products per
    arrow, and re-encode the image's digits."""
    ginv = g.inverse()
    rows = []
    for s in range(width):
        x = reps.representation_decoder(quiver, field, d)(field.p ** (width - 1 - s))
        digits = []
        for a, m in zip(quiver.arrows, x.maps):
            if quiver.vertex_index[a.head] == v:
                m = g.mul(m)
            if quiver.vertex_index[a.tail] == v:
                m = m.mul(ginv)
            digits.extend(c for code in m.flat() for c in reversed(field.coeffs(code)))
        rows.append(digits)
    return rows


def densified(action, width):
    """The digit map of a sparse action as ``action_matrix_by_multiplication``
    writes it: row s holds the image digits of the unit point at digit s."""
    rows = [[int(s == j) for j in range(width)] for s in range(width)]
    for j, terms in action:
        rows[j][j] = 0
        for s, coeff in terms:
            rows[s][j] = coeff
    return rows


def dense_invertible(field, n):
    """U L with U the all-ones upper unitriangular matrix and L lower
    triangular with ones below the diagonal and diagonal (zeta, 1, ..., 1):
    invertible, with no zero entry off its last row and column, so neither
    elementary nor a permutation."""
    zeta = field.primitive_element()
    upper = FqMatrix(field, [[int(i <= j) for j in range(n)] for i in range(n)])
    lower = FqMatrix(field, [[zeta if i == j == 0 else int(i >= j) for j in range(n)] for i in range(n)])
    return upper.mul(lower)


def acting_group(field, dv):
    """``gl_generators`` at a vertex of dimension dv, and ``dense_invertible``
    with its inverse when dv >= 2."""
    group = [(g, g_inv) for g, g_inv, _ in gl_generators(field, dv)]
    if dv >= 2:
        dense = dense_invertible(field, dv)
        assert dense.is_invertible() and dense not in [g for g, _ in group]
        group = group + [(dense, dense.inverse())]
    return group


ACTION_DIMS = {
    "jordan": [(1,), (2,), (3,), (0,)],
    "kron2": [(2, 1), (1, 2), (0, 2)],
    "kron3": [(1, 1), (2, 1), (2, 0)],
    "a2": [(2, 2), (3, 1), (0, 3)],
    "loop+arrow": [(2, 1), (1, 2), (2, 0)],
}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("name", sorted(ACTION_DIMS))
def test_action_matrix_matches_decode_and_multiply(name, q):
    quiver, field = QUIVERS[name], field_from_order(q)
    checked = 0
    for d in ACTION_DIMS[name]:
        shapes = reps.arrow_shapes(quiver, d)
        width = field.k * sum(r * c for r, c in shapes)
        for v, dv in enumerate(d):
            for g, g_inv in acting_group(field, dv):
                got = orbits._sparse_action(quiver.ends, field, shapes, v, g, g_inv)
                # only moved digits are listed, each column's terms in digit order
                assert [j for j, _ in got] == sorted({j for j, _ in got})
                assert all(terms != ((j, 1),) and list(terms) == sorted(terms) for j, terms in got)
                assert densified(got, width) == action_matrix_by_multiplication(quiver, field, d, width, v, g)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "name,d,q",
    [("jordan", (2,), 4), ("kron2", (2, 1), 4), ("a2", (2, 1), 9), ("kron3", (1, 1), 9), ("loop+arrow", (2, 1), 3)],
)
def test_images_match_decode_act_and_encode_on_every_point(name, d, q):
    quiver, field = QUIVERS[name], field_from_order(q)
    shapes = reps.arrow_shapes(quiver, d)
    n = sum(r * c for r, c in shapes)
    width, p = n * field.k, field.p
    idx = np.arange(q**n, dtype=np.int64)
    decode = reps.representation_decoder(quiver, field, d)
    points = [decode(i) for i in range(q**n)]
    checked = 0
    for v, dv in enumerate(d):
        for g, g_inv in acting_group(field, dv):
            action = orbits._sparse_action(quiver.ends, field, shapes, v, g, g_inv)
            image = orbits._images(idx, action, lambda s: idx // p ** (width - 1 - s) % p, p, width)
            expected = []
            for x in points:
                codes = []
                for a, m in zip(quiver.arrows, x.maps):
                    if quiver.vertex_index[a.head] == v:
                        m = g.mul(m)
                    if quiver.vertex_index[a.tail] == v:
                        m = m.mul(g_inv)
                    codes.extend(m.flat())
                expected.append(sum(code * q ** (n - 1 - e) for e, code in enumerate(codes)))
            assert image.tolist() == expected
            checked += 1
    assert checked >= 2


def frozen(value):
    """True when ``value`` is a Python int or a tuple of such, all the way down."""
    return type(value) is int or (type(value) is tuple and all(map(frozen, value)))


def test_each_space_builds_its_generator_action_once_per_process(jordan):
    f2, f4 = make_field(2), make_field(2, 2)
    kron2, cycle = QUIVERS["kron2"], QUIVERS["2-cycle"]
    orbits._sparse_actions.cache_clear()
    # equal (arrow ends, field, d) share one entry
    orbit_partition(kron2, (1, 1), 4)
    orbits._unsplit_orbits(kron2, (1, 1), 4)
    assert orbits._sparse_actions.cache_info()[:2] == (1, 1)  # (hits, misses)
    shared = orbits._sparse_actions(kron2.ends, f4, (1, 1))
    assert frozen(shared) and len(shared) == 2
    # the same d and field with other arrow ends, and the same d over F_2, do not
    orbit_partition(cycle, (1, 1), 4)
    orbit_partition(kron2, (1, 1), 2)
    assert orbits._sparse_actions.cache_info().currsize == 3
    assert orbits._sparse_actions(cycle.ends, f4, (1, 1)) != shared
    assert orbits._sparse_actions(kron2.ends, f2, (1, 1)) == ()  # zeta = 1 over F_2
    # a call refused by the cap builds nothing
    built = orbits._sparse_actions.cache_info()
    with pytest.raises(CapExceeded):
        orbit_partition(kron2, (2, 2), 4, cap=4**8 - 1)
    with pytest.raises(CapExceeded):
        classify_classes(jordan, (3,), 3, cap=3**9 - 1)
    assert orbits._sparse_actions.cache_info() == built


def test_orbit_partition_decodes_and_multiplies_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the orbit partition reads its action off g and g^-1")

    orbits._sparse_actions.cache_clear()  # build every action under the patches
    monkeypatch.setattr(reps, "representation_decoder", forbidden)
    monkeypatch.setattr(FqMatrix, "mul", forbidden)
    monkeypatch.setattr(FqMatrix, "inverse", forbidden)
    monkeypatch.setattr(FqMatrix, "rref", forbidden)
    monkeypatch.setattr(reps.Representation, "__init__", forbidden)
    for name, d, q in [("kron2", (2, 1), 4), ("loop+arrow", (2, 1), 3), ("jordan", (2,), 9)]:
        canonical, n_points, sizes = orbit_partition(QUIVERS[name], d, q)
        assert sum(sizes) == n_points and len(canonical) > 1


def unit_counts_of_local_rings(q, bound):
    """Independent statement of the unit-count rule: every q^a (q^r - 1) with
    a >= 0 and r >= 1 up to ``bound``, the unit counts a local F_q-algebra
    can have."""
    counts = set()
    r = 1
    while q**r - 1 <= bound:
        a = 0
        while q**a * (q**r - 1) <= bound:
            counts.add(q**a * (q**r - 1))
            a += 1
        r += 1
    return counts


RULE_DIMS = {
    "jordan": [(2,), (3,)],
    "kron2": [(2, 1), (2, 2)],
    "kron3": [(1, 1)],
    "a2": [(2, 2)],
    "loop+arrow": [(1, 1)],
}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_unit_count_rule_never_rules_out_a_local_end_ring(q):
    # on small unit counts, and on every orbit's, the rule is its arithmetic statement
    small = range(1, 2000)
    local_counts = unit_counts_of_local_rings(q, small[-1])
    assert [u for u in small if may_be_local(u, q)] == sorted(local_counts)
    checked = ruled_out = 0
    for name, dims in RULE_DIMS.items():
        quiver = QUIVERS[name]
        for d in dims:
            if q ** sum(r * c for r, c in reps.arrow_shapes(quiver, d)) > DEFAULT_CAP:
                continue
            gl = gl_order(d, q)
            for w, size in orbit_representatives(quiver, d, q):
                units = gl // size
                end = reps._local_structure(reps.hom_dim(w, w), units, q)  # the Hom route
                allowed = may_be_local(units, q)
                assert allowed == (units in unit_counts_of_local_rings(q, units)), (name, d, w)
                assert allowed or not end.is_local, (name, d, w)
                checked += 1
                ruled_out += not allowed
            counts = classify_classes(quiver, d, q)
            try:
                assert counts == class_counts_by_hua(quiver, d, q)
            except CapExceeded:
                pass
    assert checked > 0 and ruled_out > 0


def may_be_local(units, q):
    """The unit-count rule's verdict: some local End(W) has ``units`` units."""
    return reps._unit_residue_degree(units, q) > 0


def strip_one_at_a_time(n, q):
    while n % q == 0:
        n //= q
    return n


def may_be_local_one_at_a_time(units, q):
    return strip_one_at_a_time(strip_one_at_a_time(units, q) + 1, q) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_factors_of_q_are_stripped_as_one_at_a_time(q):
    # |GL_m(F_q)| = q^(m(m-1)/2) prod_{i <= m} (q^i - 1), and q^i - 1 is prime
    # to q; the one-at-a-time loop is the oracle where it is fast
    for m in [*range(1, 61), 100, 150, 200, 250, 300]:
        gl = gl_order((m,), q)
        stripped = reps._strip_factors(gl, q)
        assert stripped == prod(q**i - 1 for i in range(1, m + 1)), m
        if m <= 60:
            assert stripped == strip_one_at_a_time(gl, q), m
        assert may_be_local(gl, q) == may_be_local_one_at_a_time(stripped, q), m


@given(st.integers(2, 30), st.integers(1, 10**6), st.integers(0, 300))
def test_stripping_matches_the_one_at_a_time_loop(q, unit, power):
    n = unit * q**power
    assert reps._strip_factors(n, q) == strip_one_at_a_time(n, q)
    assert may_be_local(n, q) == may_be_local_one_at_a_time(n, q)
    assert may_be_local(n - 1 or 1, q) == may_be_local_one_at_a_time(n - 1 or 1, q)


def test_a_large_one_point_space_is_classified(kron2):
    # Rep(Q, (300, 0)) is one point, the direct sum of 300 simples
    assert tuple(classify_classes(kron2, (300, 0), 2)) == (1, 0, 0)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_the_zero_dimension_has_one_class_and_no_indecomposable(q):
    # the zero representation has one unit and no proper split to mark it
    for quiver in (jordan_quiver(), kronecker_quiver(2), star_quiver()):
        d = (0,) * len(quiver.vertices)
        assert tuple(classify_classes(quiver, d, q)) == (1, 0, 0)


def test_the_split_walk_stops_once_every_orbit_is_marked(monkeypatch):
    # one point at center dimension 0, marked by the first split; walking all
    # splits of (0, 300, 300, 300, 300) would take about 4 * 10^9 of them
    splits = orbits._splits

    def first_split_only(d):
        for n, split in enumerate(splits(d)):
            assert n == 0, "the walk went on past a split that marked every orbit"
            yield split

    monkeypatch.setattr(orbits, "_splits", first_split_only)
    start = time.perf_counter()
    assert tuple(classify_classes(star_quiver(), (0, 300, 300, 300, 300), 2)) == (1, 0, 0)
    assert time.perf_counter() - start < 0.1


def test_an_unmarked_orbit_without_a_local_unit_count_is_refused(jordan, kron2, monkeypatch):
    # with no split marked, the zero point's orbit stays open.  Jordan (2)
    # over F_3: |Aut| = |GL_2(F_3)| = 48 = 3 * 16, and 17 is no power of 3.
    # Kronecker (2, 1) over F_2: |Aut| = 6 = 2 * (2^2 - 1), residue degree 2,
    # which does not divide gcd(2, 1)
    monkeypatch.setattr(orbits, "_splits", lambda d: iter(()))
    for quiver, d, q in [(jordan, (2,), 3), (kron2, (2, 1), 2)]:
        with pytest.raises(ConsistencyError, match="not the unit count of a local End"):
            classify_classes(quiver, d, q)


def test_one_shared_block_keeps_each_space_apart():
    # spaces that differ in d, in the field or only in the arrow ends are
    # each partitioned on their own inside one block, as they are outside it
    kron2, cycle = QUIVERS["kron2"], QUIVERS["2-cycle"]
    spaces = [
        (kron2, (2, 1), 2),
        (kron2, (1, 2), 2),
        (kron2, (2, 1), 4),
        (QUIVERS["jordan"], (2,), 2),  # 16 points, as kron2 (2, 1) over F_2
        (kron2, (1, 1), 4),
        (cycle, (1, 1), 4),  # the same 16 points, other arrow ends
    ]
    alone = [(orbit_partition(*s), orbits._unsplit_orbits(*s)) for s in spaces]
    with orbits._shared_partitions():
        shared = [(orbit_partition(*s), orbits._unsplit_orbits(*s)) for s in spaces]
        assert len(orbits._SHARED_LABELS.get()) == len(spaces)
    assert shared == alone
    # a key without the arrow ends would hand kron2's labels to the 2-cycle
    assert orbits._orbit_labels(kron2, (1, 1), 4, 16).tolist() != (
        orbits._orbit_labels(cycle, (1, 1), 4, 16).tolist()
    )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_direct_sums_mark_exactly_the_orbits_without_a_local_end_ring(q):
    # the Hom route is the oracle: marked by a direct sum iff End(W) is not
    # local, and on each unmarked orbit |Aut W| gives End(W)'s residue degree
    field = field_from_order(q)
    checked = marked = 0
    for name, dims in RULE_DIMS.items():
        quiver = QUIVERS[name]
        for d in dims:
            if q ** sum(r * c for r, c in reps.arrow_shapes(quiver, d)) > DEFAULT_CAP:
                continue
            n_orbits, free, free_sizes = orbits._unsplit_orbits(quiver, d, q)
            unmarked = dict(zip(free, free_sizes))
            indices, _, sizes = orbit_partition(quiver, d, q)
            assert n_orbits == len(indices)
            decode = reps.representation_decoder(quiver, field, d)
            gl = gl_order(d, q)
            for index, size in zip(indices, sizes):
                w = decode(index)
                end = reps._local_structure(reps.hom_dim(w, w), gl // size, q)
                assert (index in unmarked) == end.is_local, (name, d, w)
                if end.is_local:
                    r = reps._unit_residue_degree(gl // size, q)
                    assert unmarked[index] == size
                    assert r == end.residue_degree and gcd(*d) % r == 0, (name, d, w)
                checked += 1
                marked += not end.is_local
    assert checked > marked > 0


def test_classify_matches_the_formula_chain_on_every_small_box():
    # every d with d_i <= 3 whose q^n points fit under the cap, and whose
    # partition tuples and pair products do
    quivers = dict(QUIVERS, **{"two-loop": Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])})
    cap = 200
    checked = 0
    for name, quiver in quivers.items():
        for d in itertools.product(range(4), repeat=len(quiver.vertices)):
            for q in [2, 3, 4, 5, 7, 8, 9]:
                try:
                    counts = classify_classes(quiver, d, q, cap=cap)
                    expected = class_counts_by_hua(quiver, d, q, cap=cap)
                except CapExceeded:
                    continue
                assert counts == expected, (name, d, q)
                checked += 1
    assert checked > 1800


@pytest.mark.parametrize("name,d,q", [("kron2", (2, 1), 3), ("jordan", (2,), 4), ("loop+arrow", (1, 1), 3)])
def test_classify_decodes_nothing_and_labels_the_space_once(name, d, q, monkeypatch):
    # no decode and no Hom solve; one label pass over Rep(Q, d) per call
    def forbidden(*args, **kwargs):
        raise AssertionError("classify_classes decoded a point or solved for Hom")

    passes = []
    label = orbits._min_labels

    def counted_labels(idx, perms, orders):
        passes.append(len(idx))
        return label(idx, perms, orders)

    expected = class_counts_by_hua(QUIVERS[name], d, q)
    monkeypatch.setattr(counting, "representation_decoder", forbidden)
    monkeypatch.setattr(reps, "hom_dim", forbidden)
    monkeypatch.setattr(orbits, "_min_labels", counted_labels)
    for calls in (1, 2):
        assert classify_classes(QUIVERS[name], d, q) == expected
        assert passes == [q ** sum(r * c for r, c in reps.arrow_shapes(QUIVERS[name], d))] * calls


def test_decoder_is_the_inverse_of_the_encoding(kron2, jordan, f2, f3, f4):
    # (2, 0) has zero-row maps and no entries; the doubled (1, 1) has four arrows
    cases = [
        (kron2, f3, (2, 1), 4),
        (kron2, f3, (2, 0), 0),
        (jordan, f4, (2,), 4),
        (kron2.double(), f2, (1, 1), 4),
    ]
    for quiver, field, d, n_entries in cases:
        decode = reps.representation_decoder(quiver, field, d)
        n_points = field.q**n_entries
        lex = list(itertools.product(range(field.q), repeat=n_entries))
        decoded = [decode(i) for i in range(n_points)]
        assert [w.entry_key() for w in decoded] == lex
        walked = list(all_representations(quiver, field, d))
        assert [w.entry_key() for w in walked] == lex
        assert walked == decoded
        for index in (-1, n_points):
            with pytest.raises(ValidationError, match="outside"):
                decode(index)


class _Forbidden:
    """Stands in for a module or function that must not be reached."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} reached before the exactness guard ran")

    def __call__(self, *args, **kwargs):
        raise AssertionError("called before the exactness guard ran")


def test_orbit_arithmetic_refuses_sums_past_int64(jordan, monkeypatch):
    # (P-1)^2 >= 2^63; the refusal must come before any generator is built
    # (a primitive root factors P - 1 and each generator builds its action)
    # and before any array is allocated
    monkeypatch.setattr(orbits, "gl_generators", _Forbidden())
    monkeypatch.setattr(orbits, "np", _Forbidden())
    with pytest.raises(ValidationError):
        orbit_partition(jordan, (1,), 4294967291, cap=10**10)


def union_find_orbits(n, perms):
    """Independent oracle: {orbit minimum: orbit size} by a pure-Python
    union-find over the edges i -> perm[i]."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm in perms:
        for i, j in enumerate(perm):
            a, b = root(i), root(int(j))
            if a != b:
                parent[max(a, b)] = min(a, b)  # the root stays the component's minimum
    sizes = {}
    for i in range(n):
        r = root(i)
        sizes[r] = sizes.get(r, 0) + 1
    return sizes


@pytest.mark.parametrize(
    "name,d,q",
    [
        ("kron2", (2, 1), 5),  # prime field
        ("kron2", (2, 2), 4),  # extension fields
        ("jordan", (2,), 9),
        ("jordan", (1,), 5),  # a single generator, a scalar that moves no digit
        ("jordan", (3,), 3),  # orbits of more than 1000 points
        ("a2", (1, 1), 4999),  # two scalings with cycles of 4998 points
        ("jordan", (2,), 16),  # an extension field with q - 1 past _DOUBLING_ORDER
    ],
)
def test_min_labels_match_union_find_over_the_generator_images(name, d, q, monkeypatch):
    seen = {}
    original = orbits._min_labels

    def record(idx, perms, orders):
        seen["perms"] = [[int(x) for x in perm] for perm in perms]
        return original(idx, perms, orders)

    monkeypatch.setattr(orbits, "_min_labels", record)
    canonical, n_points, sizes = orbit_partition(QUIVERS[name], d, q)
    perms = seen["perms"]
    assert n_points == q ** sum(r * c for r, c in reps.arrow_shapes(QUIVERS[name], d))
    assert all(sorted(perm) == list(range(n_points)) for perm in perms)
    oracle = union_find_orbits(n_points, perms)
    assert dict(zip(canonical, sizes)) == oracle
    assert canonical == sorted(oracle)
    assert sum(sizes) == n_points
    if name == "jordan" and d == (1,):
        # the one generator is a scalar, which fixes every point and is dropped
        assert perms == [] and sizes == [1] * n_points
    if d == (3,):
        assert max(sizes) > 1000


def test_min_labels_follow_the_cycles_of_one_permutation():
    # cycles (0 4 1 7), (2 3 9 6), (5) and (8)
    cycles = np.array([4, 7, 3, 9, 1, 5, 2, 0, 8, 6])
    labels = orbits._min_labels(np.arange(10), [cycles], [4])
    assert [int(x) for x in labels] == [0, 0, 2, 2, 0, 5, 2, 0, 8, 2]
    assert union_find_orbits(10, [cycles]) == {0: 4, 2: 4, 5: 1, 8: 1}
    # one 2000-cycle visiting the points in descending order: the minimum
    # has to travel the whole cycle, closed by doubling at its order 2000
    n = 2000
    perm = np.array([(i - 1) % n for i in range(n)])
    assert not orbits._min_labels(np.arange(n), [perm], [n]).any()
    # a wrong order costs rounds, not exactness: the loop ends only once
    # labels agree across every edge
    for order in (2, 3):
        assert not orbits._min_labels(np.arange(n), [perm], [order]).any()
        assert (orbits._min_labels(np.arange(10), [cycles], [order]) == labels).all()


def permutation_power(perm, e):
    """perm^e by repeated squaring, composing index arrays."""
    power, square = np.arange(len(perm)), perm
    while e:
        if e & 1:
            power = square[power]
        square, e = square[square], e >> 1
    return power


@pytest.mark.parametrize(
    "name,d,q",
    [("jordan", (2,), 9), ("kron2", (2, 1), 4), ("a2", (1, 1), 7), ("loop+arrow", (2, 1), 3), ("jordan", (2,), 8)],
)
def test_each_generator_permutation_has_its_stated_order(name, d, q):
    quiver, field = QUIVERS[name], field_from_order(q)
    width = field.k * sum(r * c for r, c in reps.arrow_shapes(quiver, d))
    p = field.p
    idx = np.arange(q ** (width // field.k), dtype=np.int64)
    actions = orbits._sparse_actions(quiver.ends, field, d)
    assert {order for _, order in actions} >= {q - 1}
    for action, order in actions:
        perm = orbits._images(idx, action, lambda s: idx // p ** (width - 1 - s) % p, p, width)
        assert not (perm == idx).all()
        assert (permutation_power(perm, order) == idx).all()


def test_the_label_pass_does_not_walk_a_generator_cycle(a2):
    # A_2 (1, 1) over F_49391: two scalings whose cycles hold every nonzero
    # point, so moving a label one step along a cycle per round would take
    # thousands of rounds
    start = time.perf_counter()
    canonical, n_points, sizes = orbit_partition(a2, (1, 1), 49391)
    assert time.perf_counter() - start < 1
    assert (canonical, n_points, sizes) == ([0, 1], 49391, [1, 49390])


def test_representatives_are_lex_minimal(jordan):
    reps = [w for w, _ in orbit_representatives(jordan, (2,), 2)]
    field = make_field(2)
    group = [(g, g.inverse()) for g in enumerate_gl(field, 2)]
    for w in reps:
        orbit_keys = []
        for g, ginv in group:
            image = g.mul(w.maps[0]).mul(ginv)
            orbit_keys.append(image.flat())
        assert min(orbit_keys) == w.entry_key()
    # deterministic and sorted
    keys = [w.entry_key() for w in reps]
    assert keys == sorted(keys)


def test_indecomposable_counts_examples(jordan, kron2, a2):
    def indecomposable_counts(quiver, d, q):
        counts = classify_classes(quiver, d, q)
        return counts.indecomposable, counts.absolutely_indecomposable

    assert indecomposable_counts(jordan, (2,), 2) == (3, 2)
    assert indecomposable_counts(kron2, (1, 1), 3) == (4, 4)
    assert indecomposable_counts(a2, (1, 1), 2) == (1, 1)


def test_classify_walks_no_end_ring(jordan, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("classify_classes walked an End ring")

    monkeypatch.setattr(reps, "_iter_span", forbidden)
    monkeypatch.setattr(reps, "scan_endomorphisms", forbidden)
    counts = classify_classes(jordan, (2,), 3)
    assert (counts.iso_classes, counts.indecomposable, counts.absolutely_indecomposable) == (
        12, 6, 3,
    )


def test_count_zero_off_roots(a2):
    # (2,1) is not a root of the A_2 system
    assert abs_count(a2, (2, 1), 2) == 0
    assert abs_count(a2, (2, 1), 3) == 0


@pytest.mark.parametrize("d", [(1, 1), (2, 1)])
@pytest.mark.parametrize("q", [2, 3])
def test_orientation_invariance_of_A(kron2, a2, d, q):
    for quiver in (kron2, a2):
        assert abs_count(quiver, d, q) == abs_count(quiver.opposite(), d, q)


@pytest.mark.parametrize("q", [2, 3])
def test_weyl_invariance_of_A(kron2, q):
    c = kron2.cartan()
    assert c.reflect(0, (0, 1)) == (2, 1)
    assert abs_count(kron2, (2, 1), q) == abs_count(kron2, (0, 1), q)


# -- Kac polynomials


def test_kac_polynomial_examples(jordan, kron2, a2):
    assert kac_polynomial(jordan, (1,)).integer_coefficients() == [0, 1]
    assert kac_polynomial(jordan, (2,)).integer_coefficients() == [0, 1]
    assert kac_polynomial(kron2, (1, 1)).integer_coefficients() == [1, 1]
    assert kac_polynomial(kron2, (2, 1)).integer_coefficients() == [1]
    assert kac_polynomial(a2, (1, 1)).integer_coefficients() == [1]


def test_kac_nonnegative_for_loop_free_indivisible(kron2, a2):
    for quiver, d in [(kron2, (1, 1)), (kron2, (2, 1)), (a2, (1, 1))]:
        coeffs = kac_polynomial(quiver, d).integer_coefficients()
        assert all(c >= 0 for c in coeffs)


def test_kac_raises_bound_once(kron2):
    # a genuinely quadratic count forces the one-time bound bump (e_b = 1)
    poly = kac_polynomial(kron2, (1, 1), a_fn=lambda d, q: q * q)
    assert poly.integer_coefficients() == [0, 0, 1]


def test_kac_detects_non_polynomial_counts(kron2):
    with pytest.raises(NonPolynomialBehavior) as info:
        kac_polynomial(kron2, (1, 1), a_fn=lambda d, q: 2**q)
    assert info.value.evaluations  # carries the raw data


# -- A_d from Hua's formula


HUA_GRID_CAP = 2**16
HUA_GRID = [
    ("jordan", (1,)), ("jordan", (2,)), ("jordan", (3,)), ("jordan", (4,)),
    ("kron2", (1, 1)), ("kron2", (2, 1)), ("kron2", (1, 2)), ("kron2", (2, 2)), ("kron2", (3, 1)),
    ("kron3", (1, 1)), ("kron3", (2, 1)), ("kron3", (1, 2)), ("kron3", (2, 2)),
    ("a2", (1, 1)), ("a2", (2, 1)), ("a2", (2, 2)),
    ("path3", (1, 1, 0)), ("path3", (1, 1, 1)), ("path3", (1, 2, 1)), ("path3", (2, 2, 2)),
    ("star", (1, 1, 1, 1, 1)), ("star", (2, 1, 1, 1, 1)),
    ("2-cycle", (1, 1)), ("2-cycle", (2, 1)), ("2-cycle", (2, 2)),
]


@pytest.mark.parametrize("name,d", HUA_GRID)
def test_hua_matches_brute_force(name, d):
    quiver = QUIVERS[name]
    rep_dim = sum(d[quiver.vertex_index[a.tail]] * d[quiver.vertex_index[a.head]]
                  for a in quiver.arrows)
    qs = [q for q in (2, 3, 4, 5, 7) if q**rep_dim <= HUA_GRID_CAP]
    assert qs
    for q in qs:
        assert counting.abs_indecomposable_by_hua(quiver, d, q) == abs_count(
            quiver, d, q, cap=HUA_GRID_CAP
        ), q


# A_d(q) at q where no field exists, from the Fraction log series that the
# integer one replaced
HUA_AT_6_10_12 = {
    ("jordan", (1,)): [6, 10, 12], ("jordan", (2,)): [6, 10, 12],
    ("jordan", (3,)): [6, 10, 12], ("jordan", (4,)): [6, 10, 12],
    ("kron2", (1, 1)): [7, 11, 13], ("kron2", (2, 1)): [1, 1, 1], ("kron2", (1, 2)): [1, 1, 1],
    ("kron2", (2, 2)): [7, 11, 13], ("kron2", (3, 1)): [0, 0, 0],
    ("kron3", (1, 1)): [43, 111, 157], ("kron3", (2, 1)): [43, 111, 157],
    ("kron3", (1, 2)): [43, 111, 157], ("kron3", (2, 2)): [9847, 113331, 275221],
    ("a2", (1, 1)): [1, 1, 1], ("a2", (2, 1)): [0, 0, 0], ("a2", (2, 2)): [0, 0, 0],
    ("path3", (1, 1, 0)): [1, 1, 1], ("path3", (1, 1, 1)): [1, 1, 1],
    ("path3", (1, 2, 1)): [0, 0, 0], ("path3", (2, 2, 2)): [0, 0, 0],
    ("star", (1, 1, 1, 1, 1)): [1, 1, 1], ("star", (2, 1, 1, 1, 1)): [10, 14, 16],
    ("2-cycle", (1, 1)): [7, 11, 13], ("2-cycle", (2, 1)): [1, 1, 1],
    ("2-cycle", (2, 2)): [7, 11, 13],
}


@pytest.mark.parametrize("name,d", HUA_GRID)
def test_hua_is_pinned_at_non_prime_powers(name, d):
    values = [counting.abs_indecomposable_by_hua(QUIVERS[name], d, q) for q in (6, 10, 12)]
    assert values == HUA_AT_6_10_12[name, d]


# A(1) = 9357
KRON3_55 = [16, 66, 187, 377, 624, 850, 1018, 1071, 1040, 928, 791, 636, 499, 374,
            278, 197, 141, 95, 65, 41, 27, 16, 10, 5, 3, 1, 1]
KRON3_66 = [39, 205, 669, 1613, 3114, 5088, 7190, 9108, 10424, 11094, 11009, 10423,
            9384, 8218, 6924, 5742, 4619, 3685, 2854, 2212, 1660, 1252, 914, 672,
            473, 341, 231, 161, 105, 71, 43, 29, 16, 10, 5, 3, 1, 1]


@pytest.mark.parametrize(
    "name,d,coeffs",
    [
        ("kron2", (3, 3), [1, 1]),
        ("kron2", (4, 4), [1, 1]),
        ("jordan", (5,), [0, 1]),
        ("kron3", (2, 2), [1, 3, 3, 3, 1, 1]),
        ("star", (2, 1, 1, 1, 1), [4, 1]),
        # Kac: A_{n delta} = q + #vertices - 1 for an affine quiver
        ("star", (4, 2, 2, 2, 2), [4, 1]),
        ("kron3", (5, 5), KRON3_55),
        ("kron3", (6, 6), KRON3_66),
    ],
)
def test_kac_polynomials_beyond_brute_force(name, d, coeffs):
    assert kac_polynomial(QUIVERS[name], d).integer_coefficients() == coeffs


def test_hua_charges_the_cap_before_enumerating(kron2, monkeypatch):
    def forbidden(*args):
        raise AssertionError("partitions enumerated past the cap")

    monkeypatch.setattr(counting, "_partitions", forbidden)
    with pytest.raises(CapExceeded) as info:
        counting.abs_indecomposable_by_hua(kron2, (2, 2), 3, cap=15)
    # (p(0) + p(1) + p(2))^2 partition tuples
    assert info.value.needed == 16


def test_hua_charges_the_cap_for_the_log_pair_products(kron2, monkeypatch):
    def forbidden(*args):
        raise AssertionError("log coefficients computed past the cap")

    monkeypatch.setattr(counting, "_log_series", forbidden)
    with pytest.raises(CapExceeded) as info:
        counting.abs_indecomposable_by_hua(kron2, (2, 2), 3, cap=20)
    # the 16 partition tuples fit; the (3 * 4 / 2)^2 = 36 pair products of
    # the first series, on the box (2, 2), do not
    assert info.value.needed == 36
    monkeypatch.undo()
    # the series on the box (1, 1) charges its own 9, not 36 + 9
    assert counting.abs_indecomposable_by_hua(kron2, (2, 2), 3, cap=36) == 4


def test_kac_charges_each_series_alone_before_the_first_runs(kron2, monkeypatch):
    assert kac_polynomial(kron2, (2, 2), cap=40).integer_coefficients() == [1, 1]

    def forbidden(*args):
        raise AssertionError("log coefficients computed past the cap")

    monkeypatch.setattr(counting, "_log_series", forbidden)
    with pytest.raises(CapExceeded) as info:
        kac_polynomial(kron2, (2, 2), cap=35)
    assert info.value.needed == 36


def fraction_log_series(coeffs: dict, box: tuple[int, ...]) -> dict:
    """[X^m] log P for every 0 < m <= box, for P = 1 + sum coeffs[m] X^m, by
    the Euler operator in Fractions: |m| L_m = |m| P_m - sum_{0<k<m} |k| L_k P_{m-k}.
    The oracle for ``counting._log_series``."""
    logs: dict = {}
    for m in itertools.product(*(range(b + 1) for b in box)):
        size = sum(m)
        if not size:
            continue
        acc = size * coeffs.get(m, 0)
        for k in itertools.product(*(range(x + 1) for x in m)):
            if k != m and any(k):
                acc -= sum(k) * logs[k] * coeffs.get(tuple(a - b for a, b in zip(m, k)), 0)
        logs[m] = Fraction(acc, size)
    return logs


@st.composite
def hua_like_series(draw):
    """(terms, box, Q): a box of 1-3 vertices and terms count X^m Q^e /
    prod_{k in ks} (Q^k - 1), some of them off the box, with negative e too."""
    box = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    reach = st.tuples(*(st.integers(0, b + 1) for b in box))
    term = st.tuples(
        reach,
        st.integers(-4, 4),
        st.lists(st.integers(1, 3), max_size=3).map(lambda ks: tuple(sorted(ks))),
        st.integers(-5, 5),
    )
    terms = Counter({((0,) * len(box), 0, ()): 1})
    for m, e, ks, count in draw(st.lists(term, max_size=12)):
        if any(m):
            terms[m, e, ks] += count
    return terms, box, draw(st.integers(2, 7))


@settings(deadline=None)
@given(hua_like_series())
def test_integer_log_series_matches_the_fraction_recurrence(series):
    terms, box, big_q = series
    coeffs: dict = {}
    for (m, e, ks), count in terms.items():
        if any(m) and all(a <= b for a, b in zip(m, box)):
            value = Fraction(big_q) ** e * count
            for k in ks:
                value /= big_q**k - 1
            coeffs[m] = coeffs.get(m, 0) + value
    expected = fraction_log_series(coeffs, box)
    u, common = counting._log_series(counting._series_plan(terms, box), big_q)
    for m, value in expected.items():
        assert Fraction(u[m], sum(m) * common ** sum(m)) == value, m


def test_kac_builds_one_plan_per_box_per_process(kron2, monkeypatch):
    # the nodes q = 2, 3, 4 and the checks 5, 7 read log P on the box (2, 2)
    # at Q = q and on (1, 1) at Q = q^2; each box gets one plan per process
    built = []
    original = counting._series_plan

    def counted(terms, box):
        built.append(box)
        return original(terms, box)

    monkeypatch.setattr(counting, "_series_plan", counted)
    counting._box_plan.cache_clear()
    assert kac_polynomial(kron2, (2, 2)).integer_coefficients() == [1, 1]
    assert kac_polynomial(kron2, (2, 2)).integer_coefficients() == [1, 1]
    assert sorted(built) == [(1, 1), (2, 2)]


def test_a_warm_memo_refuses_at_the_same_cap(kron2, monkeypatch):
    assert kac_polynomial(kron2, (2, 2)).integer_coefficients() == [1, 1]
    assert class_counts_by_hua(kron2, (2, 2), 2) == (16, 4, 3)

    def forbidden(*args):
        raise AssertionError("series plan built twice in one process")

    monkeypatch.setattr(counting, "_series_plan", forbidden)
    assert kac_polynomial(kron2, (2, 2)).integer_coefficients() == [1, 1]
    # the plans of (2, 2) and (1, 1) are warm, and still the cap is charged
    with pytest.raises(CapExceeded) as info:
        kac_polynomial(kron2, (2, 2), cap=35)
    assert info.value.needed == 36
    with pytest.raises(CapExceeded) as info:
        class_counts_by_hua(kron2, (2, 2), 2, cap=35)
    assert info.value.needed == 36


@pytest.mark.parametrize(
    "name,d,q",
    [("kron2", (2, 1), q) for q in (2, 3, 4, 5)]
    + [("kron2", (2, 2), 2), ("jordan", (2,), 5), ("jordan", (2,), 7), ("jordan", (3,), 2)],
)
def test_cold_and_warm_plans_give_the_orbit_partition_counts(name, d, q):
    quiver = QUIVERS[name]
    counting._box_plan.cache_clear()
    cold = class_counts_by_hua(quiver, d, q)
    warm = class_counts_by_hua(quiver, d, q)
    assert counting._box_plan.cache_info().hits
    assert cold == warm == classify_classes(quiver, d, q)


def test_the_plan_memo_stays_within_its_bound(kron2):
    bound = counting._PLAN_MEMO_SIZE
    assert counting._box_plan.cache_info().maxsize == bound
    counting._box_plan.cache_clear()
    # every nonzero d in the square reads the plan of its own box d
    for d in itertools.product(range(math.isqrt(bound) + 2), repeat=2):
        if any(d):
            counting.abs_indecomposable_by_hua(kron2, d, 2)
            assert counting._box_plan.cache_info().currsize <= bound
    assert counting._box_plan.cache_info().misses > bound


def test_no_plan_is_built_past_the_cap(kron2, monkeypatch):
    def forbidden(*args):
        raise AssertionError("series plan built or looked up past the cap")

    monkeypatch.setattr(counting, "_series_plan", forbidden)
    monkeypatch.setattr(counting, "_box_plan", forbidden)
    with pytest.raises(CapExceeded) as info:
        kac_polynomial(kron2, (2, 2), cap=35)
    assert info.value.needed == 36
    with pytest.raises(CapExceeded) as info:
        counting.abs_indecomposable_by_hua(kron2, (2, 2), 3, cap=20)
    assert info.value.needed == 36


def test_a_at_refuses_a_non_integer_value(jordan):
    # a doctored table: P = 1 + X / (Q - 1)^2, so A_1(Q) = 1 / (Q - 1)
    terms = Counter({((0,), 0, ()): 1, ((1,), 0, (1, 1)): 1})
    plan_of = lambda box: counting._series_plan(terms, box)
    a_at = counting._a_reader(plan_of, (1,), 3, DEFAULT_CAP)
    with pytest.raises(ConsistencyError) as info:
        a_at((1,), 3)
    assert str(info.value) == "Hua's formula gives a non-integer A_d(3) = 1/2 for d=(1,)"


def test_galois_descent_refuses_a_non_integer_sum(jordan):
    # I(2, 2) = A(2, 2) + (A(1, 4) - A(1, 2)) / 2 = 1/2 for this a_fn
    with pytest.raises(ConsistencyError) as info:
        galois_descent_I(jordan, (2,), 2, lambda e, big_q: int(big_q == 4))
    assert str(info.value) == "descent sum is not an integer: 1/2"


def test_galois_descent_sums_over_the_divisors_of_gcd_d(jordan):
    # I(4, q) = A(4, q) + (A(2, q^2) - A(2, q)) / 2 + (A(1, q^4) - A(1, q^2)) / 4
    values = {((4,), 3): 5, ((2,), 9): 7, ((2,), 3): 1, ((1,), 81): 17, ((1,), 9): 1}
    assert galois_descent_I(jordan, (4,), 3, lambda e, big_q: values[e, big_q]) == 12


def test_hua_refuses_bad_input(kron2):
    with pytest.raises(ValidationError):
        counting.abs_indecomposable_by_hua(kron2, (1, 1), 1)
    with pytest.raises(ValidationError):
        counting.abs_indecomposable_by_hua(kron2, (0, 0), 3)


def test_hua_takes_any_integer_q(kron2, jordan):
    # the count's polynomial, evaluated where no field exists
    assert counting.abs_indecomposable_by_hua(kron2, (1, 1), 6) == 7
    assert counting.abs_indecomposable_by_hua(jordan, (2,), 10) == 10


def test_kac_polynomial_enumerates_no_representation(kron2, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("kac_polynomial walked Rep(Q, d)")

    monkeypatch.setattr(counting, "orbit_partition", forbidden)
    monkeypatch.setattr(orbits, "_orbit_labels", forbidden)
    assert kac_polynomial(kron2, (2, 2)).integer_coefficients() == [1, 1]


def test_criterion_2_interpolates_brute_force_counts(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("criterion 2 read A from Hua's formula")

    monkeypatch.setattr(counting, "abs_indecomposable_by_hua", forbidden)
    assert acceptance.criterion_2_kac_polynomials().passed


def box_up_to(n_vertices, total):
    for d in itertools.product(range(total + 1), repeat=n_vertices):
        if 0 < sum(d) <= total:
            yield d


@pytest.mark.parametrize("name", ["kron2", "kron3", "a2", "path3"])
def test_kac_theorems_up_to_total_dimension_4(name):
    # Kac (LNM 996, 1983): A_d = 1 on real roots and A_d does not depend on
    # the orientation; Hausel, Letellier, Rodriguez-Villegas (2013): A_d has
    # nonnegative coefficients
    quiver = QUIVERS[name]
    n = len(quiver.vertices)
    real = {r for r in quiver.real_roots_up_to((4,) * n) if sum(r) <= 4}
    assert real
    opposite = quiver.opposite()
    for d in box_up_to(n, 4):
        coeffs = kac_polynomial(quiver, d).integer_coefficients()
        if d in real:
            assert coeffs == [1], d
        assert all(c >= 0 for c in coeffs), d
        assert kac_polynomial(opposite, d).integer_coefficients() == coeffs, d


# -- Galois descent


def test_descent_examples(jordan):
    assert galois_descent_I(jordan, (1,), 5, abs_count_fn(jordan)) == 5
    assert galois_descent_I(jordan, (2,), 2, abs_count_fn(jordan)) == 3
    assert check_galois_descent(jordan, (2,), 2) == 3
    assert check_galois_descent(jordan, (2,), 3) == 6
    assert check_galois_descent(jordan, (3,), 2) == 4


def test_descent_equals_A_for_indivisible(kron2, a2):
    for quiver, d in [(kron2, (1, 1)), (kron2, (2, 1)), (a2, (1, 1))]:
        for q in (2, 3):
            assert galois_descent_I(quiver, d, q, abs_count_fn(quiver)) == abs_count(quiver, d, q)


@pytest.mark.parametrize(
    "name,d,q",
    [("jordan", (4,), 2), ("jordan", (4,), 3), ("jordan", (8,), 2), ("jordan", (12,), 2),
     ("kron2", (4, 4), 2), ("kron2", (4, 8), 2)],
)
def test_descent_asks_for_no_term_it_multiplies_by_zero(name, d, q):
    # a call a_fn(d/r, q^s) stands for the term m = r/s, of weight mu(m)/r
    quiver = {"jordan": jordan_quiver(), "kron2": kronecker_quiver(2)}[name]
    calls = []

    def a_fn(e, big_q):
        calls.append((e, big_q))
        return counting.abs_indecomposable_by_hua(quiver, e, big_q)

    value = galois_descent_I(quiver, d, q, a_fn)
    g = gcd(*d)
    for e, big_q in calls:
        r = g // gcd(*e)
        s = next(s for s in range(1, r + 1) if q**s == big_q)
        assert moebius(r // s) != 0, (e, big_q)
    full = sum(
        Fraction(sum(moebius(m) * a_fn(tuple(x // r for x in d), q ** (r // m))
                     for m in counting.divisors(r)), r)
        for r in counting.divisors(g)
    )
    assert value == full


def test_descent_disagreement_is_hard_error(jordan, monkeypatch):
    # the descent terms A((1,), 4) and A((1,), 2) come from this count
    original = counting.classify_classes

    def no_abs_off_d(quiver, d, q, cap):
        counts = original(quiver, d, q, cap=cap)
        return counts if d == (2,) else SimpleNamespace(absolutely_indecomposable=0)

    monkeypatch.setattr(counting, "classify_classes", no_abs_off_d)
    with pytest.raises(ConsistencyError):
        check_galois_descent(jordan, (2,), 2)


def test_criterion_4_compares_indivisible_descent_with_brute_force(monkeypatch):
    # for indivisible d the descent sum is A(d, q), so the criterion must
    # compare it with a brute-force I and not with A again
    original = counting.classify_classes

    def off_by_one_when_indivisible(quiver, d, q, cap):
        counts = original(quiver, d, q, cap=cap)
        return SimpleNamespace(
            iso_classes=counts.iso_classes,
            indecomposable=counts.indecomposable + (d != (2,)),
            absolutely_indecomposable=counts.absolutely_indecomposable,
        )

    monkeypatch.setattr(counting, "classify_classes", off_by_one_when_indivisible)
    with pytest.raises(ConsistencyError, match="brute force"):
        acceptance.criterion_4_galois_descent()


def test_descent_check_reads_I_and_A_from_one_classification(kron2, monkeypatch):
    classified = []
    original = counting.classify_classes

    def counted(quiver, d, q, *args, **kwargs):
        classified.append((tuple(d), q))
        return original(quiver, d, q, *args, **kwargs)

    monkeypatch.setattr(counting, "classify_classes", counted)
    assert check_galois_descent(kron2, (1, 1), 3) == 4
    assert classified == [((1, 1), 3)]
    classified.clear()
    assert acceptance.criterion_4_galois_descent().passed
    # Jordan (2) at q = 2, 3 needs (2, q), (1, q^2), (1, q); seven indivisible cases need one each
    assert len(classified) == 13


def test_moebius_values():
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_moebius_and_divisors_match_their_definitions():
    # divisors by a scan of 1..n; mu by its defining sum: sum_{r | n} mu(r) = [n = 1]
    mu = {}
    for n in range(1, 1001):
        scanned = [r for r in range(1, n + 1) if n % r == 0]
        assert counting.divisors(n) == scanned, n
        mu[n] = int(n == 1) - sum(mu[r] for r in scanned[:-1])
        assert moebius(n) == mu[n], n
        assert counting._squarefree_divisors(n) == [(r, mu[r]) for r in scanned if mu[r]], n


def test_a_huge_prime_q_is_refused_before_trial_division_where_q_n_is_small(kron2):
    # q^0 = 1 point fits, but factoring q would try floor(sqrt(q)) > 3 * 10^7 candidates
    q = 10**15 + 37
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as info:
        classify_classes(kron2, (0, 0), q)
    assert time.perf_counter() - start < 0.1
    assert (info.value.what, info.value.needed) == ("trial division of the field order", 31622776)
    for call in (
        lambda: counting.class_counts_by_hua(kron2, (0, 0), q),
        lambda: hua_identity_check(kron2, q, 0),
        lambda: next(level_set_points(kron2, (0, 0), (0, 0), q)),
    ):
        with pytest.raises(CapExceeded, match="trial division of the field order"):
            call()
    # a q whose trial division fits the cap still answers
    assert tuple(classify_classes(kron2, (0, 0), 1_000_000_007)) == (1, 0, 0)


def test_classify_classes_over_f_3_10_takes_no_order_walk(jordan):
    # zeta is tested against the primes 2, 11, 61 of q - 1, with no O(q) walk of its powers
    start = time.perf_counter()
    counts = classify_classes(jordan, (1,), 3**10)
    assert time.perf_counter() - start < 1
    assert tuple(counts) == (3**10, 3**10, 3**10)


def test_prime_power_stream():
    stream = prime_powers()
    assert [next(stream) for _ in range(8)] == [2, 3, 4, 5, 7, 8, 9, 11]
    assert prime_power(12) is None
    assert prime_power(27) == (3, 3)
    assert field_from_order(9).q == 9


# -- the formula chain Hua -> Galois descent -> Krull-Schmidt


def jordan_closed_forms(n, q):
    """Independent oracle for the Jordan quiver at dimension n:
    M_n = sum_{lam |- n} q^len(lam), the similarity classes of n x n
    matrices; I_n = sum_{e | n} N_e(q), one indecomposable F[x]/(f^(n/e))
    per monic irreducible f of degree e; and A_n = q."""
    irreducible = {}
    for e in range(1, n + 1):
        # q^e = sum_{k | e} k N_k(q)
        irreducible[e] = (q**e - sum(k * irreducible[k] for k in range(1, e) if e % k == 0)) // e

    def lengths(m, largest):
        if m == 0:
            yield 0
            return
        for first in range(min(m, largest), 0, -1):
            for rest in lengths(m - first, first):
                yield rest + 1

    iso = sum(q**length for length in lengths(n, n))
    return iso, sum(irreducible[e] for e in range(1, n + 1) if n % e == 0), q


@pytest.mark.parametrize(
    "n,q,expected", [(3, 4, (84, 24, 4)), (8, 9, (49_106_502, 5_381_685, 9))]
)
def test_chain_matches_the_jordan_closed_forms(n, q, expected):
    # (8,) at q = 9 would need 9^64 points of the orbit partition
    assert jordan_closed_forms(n, q) == expected
    assert tuple(counting.class_counts_by_hua(QUIVERS["jordan"], (n,), q)) == expected


@pytest.mark.parametrize("name", list(QUIVERS))
def test_chain_matches_the_orbit_partition_on_small_boxes(name):
    quiver = QUIVERS[name]
    n = len(quiver.vertices)
    for d in itertools.product(range(3 if n <= 3 else 2), repeat=n):
        rep_dim = sum(d[quiver.vertex_index[a.tail]] * d[quiver.vertex_index[a.head]]
                      for a in quiver.arrows)
        for q in (2, 3):
            if q**rep_dim <= 2**6:
                assert counting.class_counts_by_hua(quiver, d, q) == classify_classes(
                    quiver, d, q
                ), (d, q)


def test_chain_evaluates_each_hua_value_once(jordan, monkeypatch):
    # descent reads A_e(2^s) for (e, s) in (1..4, 1), (1..2, 2), (1, 3) and
    # (1, 4), and their Adams terms need log P at Q = 2^t for t up to 4: one
    # integer log series per Q, on the box floor(4/t)
    series = []
    original = counting._log_series

    def counted(plan, big_q):
        series.append((big_q, plan.box))
        return original(plan, big_q)

    monkeypatch.setattr(counting, "_log_series", counted)
    assert tuple(counting.class_counts_by_hua(jordan, (4,), 2)) == jordan_closed_forms(4, 2)
    assert sorted(series) == [(2, (4,)), (4, (2,)), (8, (1,)), (16, (1,))]


def test_chain_charges_the_table_once_and_each_series_alone(kron2, monkeypatch):
    # the largest series charge is the 36 pair products of the box (2, 2) at Q = q
    assert counting.class_counts_by_hua(kron2, (2, 2), 3, cap=36) == classify_classes(
        kron2, (2, 2), 3
    )

    def forbidden(*args):
        raise AssertionError("log series taken past the cap")

    monkeypatch.setattr(counting, "_log_series", forbidden)
    with pytest.raises(CapExceeded) as info:
        counting.class_counts_by_hua(kron2, (2, 2), 3, cap=35)
    assert info.value.needed == 36
    with pytest.raises(CapExceeded) as info:
        counting.class_counts_by_hua(kron2, (2, 2), 3, cap=15)
    assert info.value.needed == 16


def test_chain_refuses_a_huge_q_at_the_cap_before_it_is_factored(kron2, huge_q):
    with pytest.raises(CapExceeded) as info:
        counting.class_counts_by_hua(kron2, (60, 60), huge_q)
    assert info.value.what == "partition-tuple enumeration"
    # the 16 tuples fit; the 36 pair products of the box (2, 2) are charged before q too
    with pytest.raises(CapExceeded) as info:
        counting.class_counts_by_hua(kron2, (2, 2), huge_q, cap=35)
    assert (info.value.what, info.value.needed) == ("log-coefficient pair products", 36)


@pytest.mark.parametrize("d", [(0, 0), (1, 1)])
def test_chain_refuses_a_q_that_is_not_a_prime_power_before_any_table(kron2, monkeypatch, d):
    def forbidden(*args):
        raise AssertionError("Hua's table built for a q that is not a prime power")

    monkeypatch.setattr(counting, "_hua_terms", forbidden)
    monkeypatch.setattr(counting, "_box_plan", forbidden)
    with pytest.raises(ValidationError, match="^6 is not a prime power$"):
        counting.class_counts_by_hua(kron2, d, 6)


@pytest.mark.parametrize("label,index", [("M", 0), ("I", 1), ("A", 2)])
def test_cross_check_names_the_quantity_that_disagrees(jordan, monkeypatch, label, index):
    original = counting.class_counts_by_hua

    def off_by_one(*args, **kwargs):
        counts = list(original(*args, **kwargs))
        counts[index] += 1
        return counting.ClassCounts(*counts)

    monkeypatch.setattr(counting, "class_counts_by_hua", off_by_one)
    with pytest.raises(ConsistencyError, match=f"found {label} = "):
        count_report(jordan, (2,), 3, cross_check=True)


@pytest.mark.parametrize("counts", [(1, 2, 0), (2, 1, 2), (1, 1, -1)])
def test_class_counts_refuse_a_disordered_triple(counts):
    with pytest.raises(ConsistencyError, match="count ordering violated"):
        counting.ClassCounts(*counts)


def test_class_counts_are_tuples_that_replace_through_the_same_refusal():
    counts = counting.ClassCounts(3, 2, 1)
    assert counts == (3, 2, 1) and counts._asdict()["indecomposable"] == 2
    assert counts._replace(absolutely_indecomposable=2) == (3, 2, 2)
    with pytest.raises(ConsistencyError, match="count ordering violated"):
        counts._replace(indecomposable=4)


# -- the generating identity


def test_hua_degree_zero_trivial(jordan):
    assert hua_identity_check(jordan, 2, 0) == 0


def test_hua_refuses_a_negative_degree(jordan):
    with pytest.raises(ValidationError, match="nonnegative"):
        hua_identity_check(jordan, 2, -3)


@pytest.mark.parametrize("name", ["kron2", "point"])
def test_hua_charges_its_support_before_listing_it(name, kron2, monkeypatch):
    # on the point with no arrows every q^n is 1, so only the support's size can refuse
    quiver = {"kron2": kron2, "point": Quiver(["1"], [])}[name]
    n, degree = len(quiver.vertices), 10**6

    def forbidden(*args, **kwargs):
        raise AssertionError("the support was listed or classified before it was charged")

    monkeypatch.setattr(counting, "monomials_up_to", forbidden)
    monkeypatch.setattr(counting, "classify_classes", forbidden)
    with pytest.raises(CapExceeded) as info:
        hua_identity_check(quiver, 2, degree)
    assert (info.value.what, info.value.needed) == ("monomial support of the Hua identity", comb(degree + n, n))


def test_hua_charges_each_degree_in_lex_order_once_the_support_fits(kron2):
    # the support's C(302, 2) = 45 451 monomials fit; (1, 10) is the first d past the cap
    with pytest.raises(CapExceeded) as info:
        hua_identity_check(kron2, 2, 300)
    assert (info.value.what, info.value.needed) == (orbits._PARTITION_CHARGE, 2**20)


@pytest.mark.parametrize("q", [6, 1, 0])
@pytest.mark.parametrize("degree", [0, 2])
def test_hua_refuses_a_q_that_is_not_a_prime_power(jordan, q, degree):
    # degree 0 classifies nothing, so q is checked before any degree is read
    with pytest.raises(ValidationError, match=f"^{q} is not a prime power$"):
        hua_identity_check(jordan, q, degree)


def test_hua_matches_hand_expansion(jordan):
    # (1-X)^(-2) (1-X^2)^(-3) has X^2 coefficient 3 + 3 = 6 = M_2(2)
    assert counting._krull_schmidt_coefficients({(1,): 2, (2,): 3}, [(0,), (1,), (2,)])[(2,)] == 6
    assert class_counts_by_hua(jordan, (2,), 2).iso_classes == 6
    assert hua_identity_check(jordan, 2, 2) == 0


def _series_product(indec: dict, nvars: int, bound: int) -> TruncatedSeries:
    """prod_e (1 - X^e)^(-indec[e]), one geometric series per copy."""
    product = TruncatedSeries.one(nvars, bound)
    for e, n in indec.items():
        geometric = TruncatedSeries(
            nvars, bound, {tuple(j * x for x in e): 1 for j in range(bound // sum(e) + 1)}
        )
        for _ in range(n):
            product = product.mul(geometric)
    return product


@pytest.mark.parametrize(
    "support",
    [list(monomials_up_to(n, degree)) for n, degree in [(1, 6), (2, 4), (3, 3)]]
    + [list(itertools.product(*(range(x + 1) for x in d))) for d in [(2, 2), (2, 3), (2, 2, 2)]],
    ids=["simplex-1-6", "simplex-2-4", "simplex-3-3", "box-2-2", "box-2-3", "box-2-2-2"],
)
def test_krull_schmidt_coefficients_match_the_series_product(support):
    indec = {e: (sum(e) * 7 + e[0]) % 4 for e in support[1:]}
    # truncating at the support's largest total degree leaves its coefficients exact
    expected = _series_product(indec, len(support[0]), max(map(sum, support)))
    coeffs = counting._krull_schmidt_coefficients(indec, support)
    assert coeffs == {m: expected.coefficient(m) for m in support}


def test_hua_reads_one_classification_per_degree(jordan, monkeypatch):
    classified = []
    chain_calls = []
    classify = counting.classify_classes
    chain = counting.class_counts_by_hua

    def counted_classify(quiver, d, q, *args, **kwargs):
        classified.append(tuple(d))
        return classify(quiver, d, q, *args, **kwargs)

    def counted_chain(*args, **kwargs):
        chain_calls.append(args)
        return chain(*args, **kwargs)

    monkeypatch.setattr(counting, "classify_classes", counted_classify)
    monkeypatch.setattr(counting, "class_counts_by_hua", counted_chain)
    assert hua_identity_check(jordan, 2, 3) == 0
    assert chain_calls == []
    assert sorted(classified) == [(1,), (2,), (3,)]


@pytest.mark.parametrize(
    "name,q,degree",
    [("jordan", 2, 2), ("jordan", 3, 2), ("jordan", 2, 3), ("kron2", 2, 2), ("kron2", 3, 2)],
)
def test_hua_zero_discrepancy(name, q, degree, jordan, kron2):
    quiver = {"jordan": jordan, "kron2": kron2}[name]
    assert hua_identity_check(quiver, q, degree) == 0
