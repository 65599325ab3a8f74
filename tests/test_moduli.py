import collections
import itertools
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverforge import (
    CapExceeded,
    ConsistencyError,
    DEFAULT_CAP,
    ExactPolynomial,
    FqMatrix,
    Representation,
    SmallCharacteristic,
    TheoremViolation,
    ValidationError,
    betti_from_kac,
    cbvdb_identity_check,
    endo_structure,
    enumerate_level_set,
    ext1_dim,
    g_order,
    gl_order,
    is_indecomposable,
    kac_polynomial,
    lifting_fiber_check,
    make_field,
    moduli_point_count,
    moment_map,
    satisfies_relations,
    trace_obstruction,
    a2_quiver,
    jordan_quiver,
    kronecker_quiver,
)
from quiverforge import counting, moduli, orbits, reps
from quiverforge.counting import classify_classes
from quiverforge.ffield import prime_power
from brute_force import enumerate_gl
from quiverforge.moduli import level_set_points
from quiverforge.quiver import Quiver, is_generic, is_indivisible, normalize_to_degree_zero
from quiverforge.reps import all_representations


# -- moment map


def test_zero_rep_has_zero_moment(kron2, f3):
    doubled = kron2.double()
    value = moment_map(Representation.zero(doubled, f3, (1, 1)))
    assert all(m.is_zero() for m in value.values)


def test_jordan_scalars_commute(jordan, f3):
    doubled = jordan.double()
    for x, x_star in itertools.product(range(3), repeat=2):
        w = Representation(
            doubled, f3, (1,), [FqMatrix(f3, [[x]]), FqMatrix(f3, [[x_star]])]
        )
        assert all(m.is_zero() for m in moment_map(w).values)


def test_kronecker_moment_formula(kron2, f3):
    doubled = kron2.double()
    x, y, xs, ys = 2, 1, 1, 2
    w = Representation(
        doubled,
        f3,
        (1, 1),
        [FqMatrix(f3, [[x]]), FqMatrix(f3, [[y]]), FqMatrix(f3, [[xs]]), FqMatrix(f3, [[ys]])],
    )
    value = moment_map(w)
    assert value.values[0].entries == (((-(x * xs + y * ys)) % 3,),)
    assert value.values[1].entries == (((x * xs + y * ys) % 3,),)


@given(flat=st.lists(st.integers(0, 2), min_size=8, max_size=8))
def test_moment_total_trace_zero(kron2, f3, flat):
    doubled = kron2.double()
    shapes = [(1, 2), (1, 2), (2, 1), (2, 1)]
    maps = []
    pos = 0
    for r, c in shapes:
        maps.append(FqMatrix.from_flat(f3, r, c, flat[pos : pos + r * c]))
        pos += r * c
    w = Representation(doubled, f3, (2, 1), maps)
    assert moment_map(w).total_trace() == 0


def test_moment_needs_doubled_quiver(kron2, f3):
    with pytest.raises(ValidationError):
        moment_map(Representation.zero(kron2, f3, (1, 1)))


# -- relations and level sets


def test_relation_count_example(kron2):
    # x x* + y y* = 1 over F_3 has 24 solutions among 81 points
    assert enumerate_level_set(kron2, (1, 1), (-1, 1), 3) == 24
    field = make_field(3)
    doubled = kron2.double()
    satisfied = sum(
        1
        for w in all_representations(doubled, field, (1, 1))
        if satisfies_relations(w, (-1, 1))
    )
    assert satisfied == 24


def test_level_set_closed_forms(jordan, kron2, a2):
    for q in (3, 5, 7):
        assert enumerate_level_set(kron2, (1, 1), (-1, 1), q) == (q - 1) * q * (q + 1)
    for q in (2, 3):
        assert enumerate_level_set(jordan, (1,), (0,), q) == q * q
        assert enumerate_level_set(a2, (1, 1), (-1, 1), q) == q - 1


def test_trace_obstruction_examples():
    assert trace_obstruction((-1, 1), (1, 1), 5)
    assert not trace_obstruction((1, 0), (1, 1), 3)
    assert trace_obstruction((1, 1), (1, 2), 3)  # 1 + 2 = 0 mod 3


@pytest.mark.parametrize("q", [2, 3])
def test_obstructed_eta_empties_level_set(kron2, q):
    # exhaust all eta with eta.d nonzero mod p for d = (1,1)
    for eta in itertools.product(range(q), repeat=2):
        if trace_obstruction(eta, (1, 1), q):
            continue
        assert enumerate_level_set(kron2, (1, 1), eta, q) == 0


def test_zero_dimensional_vertex_moment(kron2, f2):
    # X* X at the tail passes through the 0-dimensional head: a 1x1 zero block
    w = Representation.zero(kron2.double(), f2, (1, 0))
    assert moment_map(w).values[0] == FqMatrix.zeros(f2, 1, 1)
    assert satisfies_relations(w, (0, 1)) and not satisfies_relations(w, (1, 0))


# -- the linear fiber route against the doubled-space walk

FIBER_QUIVERS = {
    "jordan": jordan_quiver(),
    "a2": a2_quiver(),
    "kron2": kronecker_quiver(2),
    "kron3": kronecker_quiver(3),
    "kron2-doubled": kronecker_quiver(2).double(),
    # already doubled, arrows interleaved with their partners
    "kron2-interleaved": Quiver(
        ["1", "2"],
        [("a", "1", "2"), ("a*", "2", "1"), ("b", "1", "2"), ("b*", "2", "1")],
        {"a": "a*", "a*": "a", "b": "b*", "b*": "b"},
    ),
    "jordan-doubled": Quiver(["v"], [("x", "v", "v"), ("y", "v", "v")], {"x": "y", "y": "x"}),
}

# (quiver, d, eta, q); the largest doubled space, kron3 (1, 1) over F_5,
# has 5^6 = 15625 points
FIBER_CASES = [
    ("jordan", (1,), (0,), 4),
    ("jordan", (1,), (1,), 8),
    ("jordan", (2,), (0,), 3),
    ("jordan", (2,), (1,), 2),
    ("jordan", (2,), (1,), 3),  # trace-obstructed
    ("a2", (1, 1), (-1, 1), 8),
    ("a2", (1, 1), (0, 0), 4),
    ("a2", (2, 1), (-1, 2), 4),
    ("a2", (2, 2), (-1, 1), 3),
    ("kron2", (1, 1), (-1, 1), 5),
    ("kron2", (1, 1), (-1, 1), 8),
    ("kron2", (1, 1), (1, 1), 3),  # trace-obstructed
    ("kron2", (1, 1), (0, 0), 4),
    ("kron2", (2, 1), (-1, 2), 3),
    ("kron2", (2, 1), (0, 0), 2),
    ("kron2", (1, 0), (0, 1), 3),
    ("kron2", (1, 0), (1, 0), 3),  # trace-obstructed
    ("kron2", (0, 0), (1, 1), 2),
    ("kron3", (1, 1), (-1, 1), 4),
    ("kron3", (1, 1), (-1, 1), 5),
    ("kron2-doubled", (1, 1), (-1, 1), 4),
    ("kron2-interleaved", (2, 1), (-1, 2), 2),
    ("jordan-doubled", (2,), (0,), 3),
    ("kron2", (1, 1), (-1, 1), 9),  # odd extension field: eta_v mod p is not eta_v mod q
    ("kron3", (2, 1), (-1, 2), 2),  # three parallel arrows with 1 x 2 blocks: 2^12 doubled points
]


def _forward_key(w: Representation) -> tuple[int, ...]:
    quiver = w.quiver
    return tuple(v for a in quiver.forward_arrows() for v in w.map_for(a.id).flat())


def _half(quiver: Quiver) -> Quiver:
    return Quiver(quiver.vertices, quiver.forward_arrows()) if quiver.is_doubled else quiver


def _decoded(quiver: Quiver, d, q: int, key) -> Representation:
    """The point of Rep(Q, d) over F_q, Q the undoubled half, with the
    entry key that ``_fiber_sizes`` yields."""
    index = 0
    for code in key:
        index = index * q + code
    return reps.representation_decoder(_half(quiver), make_field(*prime_power(q)), d)(index)


@pytest.mark.parametrize("name,d,eta,q", FIBER_CASES)
def test_fibers_match_the_doubled_walk(name, d, eta, q):
    quiver = FIBER_QUIVERS[name]
    brute = collections.Counter(_forward_key(w) for w in level_set_points(quiver, d, eta, q))
    fibers = list(moduli._fiber_sizes(quiver, d, eta, q))
    keys = [key for key, _, _, _, _ in fibers]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)  # lex order, each orbit once
    n = sum(r * c for r, c in reps.arrow_shapes(_half(quiver), d))
    assert sum(size for _, size, _, _, _ in fibers) == q**n
    # |Aut X| is X's stabilizer in GL_d
    assert {size * units for _, size, units, _, _ in fibers} == {gl_order(d, q)}
    assert [fiber for _, _, _, fiber, _ in fibers] == [brute[key] for key in keys]
    total = sum(size * fiber for _, size, _, fiber, _ in fibers)
    assert total == enumerate_level_set(quiver, d, eta, q) == sum(brute.values())


@pytest.mark.parametrize("name,d,eta,q", FIBER_CASES)
def test_fiber_size_is_constant_on_orbits(name, d, eta, q):
    # the orbit sum behind enumerate_level_set: X -> |fiber over X| is
    # GL_d-invariant, checked on every point against the brute walk
    quiver = FIBER_QUIVERS[name]
    half = _half(quiver)
    field = make_field(*prime_power(q))
    brute = collections.Counter(_forward_key(w) for w in level_set_points(quiver, d, eta, q))
    group = [
        (combo, tuple(g.inverse() for g in combo))
        for combo in itertools.product(*[list(enumerate_gl(field, dv)) for dv in d])
    ]
    orbit_of = {}
    for x in all_representations(half, field, d):
        if x.entry_key() in orbit_of:
            continue
        orbit = set()
        for g, ginv in group:
            maps = [
                g[half.vertex_index[a.head]].mul(m).mul(ginv[half.vertex_index[a.tail]])
                for a, m in zip(half.arrows, x.maps)
            ]
            orbit.add(tuple(v for m in maps for v in m.flat()))
        orbit_of.update((key, min(orbit)) for key in orbit)
        assert len({brute[key] for key in orbit}) == 1
    sizes = collections.Counter(orbit_of.values())
    assert [(key, size) for key, size, *_ in moduli._fiber_sizes(quiver, d, eta, q)] == (
        sorted(sizes.items())
    )


@pytest.mark.parametrize("name,d,eta,q", FIBER_CASES)
def test_fiber_pass_reports_dim_end(name, d, eta, q):
    # the rank of the transposed Hom system gives dim End(X) = sum d_v^2 - rank
    quiver = FIBER_QUIVERS[name]
    for key, *_, dim_end in moduli._fiber_sizes(quiver, d, eta, q):
        x = _decoded(quiver, d, q, key)
        assert x.entry_key() == key
        assert dim_end == reps.hom_dim(x, x), x
        if q**dim_end <= DEFAULT_CAP:
            assert dim_end == endo_structure(x).dim_end, x


def test_fiber_route_keeps_the_doubled_space_cap(kron2):
    # the fiber route walks the 5^2 = 25 points of Rep(kron2, (1, 1)) over
    # F_5 by orbits; the brute walk, the 5^4 = 625 points of the doubled space
    with pytest.raises(
        CapExceeded,
        match="orbit enumeration of the representation space needs 25 elements, cap is 24",
    ):
        enumerate_level_set(kron2, (1, 1), (-1, 1), 5, cap=24)
    assert enumerate_level_set(kron2, (1, 1), (-1, 1), 5, cap=25) == 120
    with pytest.raises(
        CapExceeded, match="representation-space enumeration needs 625 elements, cap is 624"
    ):
        next(level_set_points(kron2, (1, 1), (-1, 1), 5, cap=624))


@pytest.mark.parametrize(
    "entry,power",
    [
        (lambda k, q: orbits.orbit_partition(k, (1, 1), q), 2),
        (lambda k, q: list(counting.orbit_representatives(k, (1, 1), q)), 2),
        (lambda k, q: counting.classify_classes(k, (1, 1), q), 2),
        (lambda k, q: counting.count_report(k, (1, 1), q), 2),
        (lambda k, q: counting.check_galois_descent(k, (1, 1), q), 2),
        (lambda k, q: counting.hua_identity_check(k, q, 2), 2),
        (lambda k, q: enumerate_level_set(k, (1, 1), (0, 0), q), 2),
        (lambda k, q: list(level_set_points(k, (1, 1), (0, 0), q)), 4),
        (lambda k, q: moduli_point_count(k, (1, 1), (-1, 1), q), 2),
        (lambda k, q: cbvdb_identity_check(k, (1, 1), (-1, 1), q), 2),
        (lambda k, q: lifting_fiber_check(k, (1, 1), (-1, 1), q), 2),
    ],
    ids=[
        "orbit_partition",
        "orbit_representatives",
        "classify_classes",
        "count_report",
        "check_galois_descent",
        "hua_identity_check",
        "enumerate_level_set",
        "level_set_points",
        "moduli_point_count",
        "cbvdb_identity_check",
        "lifting_fiber_check",
    ],
)
def test_a_huge_q_is_refused_at_the_cap_before_it_is_factored(kron2, huge_q, entry, power):
    with pytest.raises(CapExceeded) as info:
        entry(kron2, huge_q)
    assert info.value.needed == huge_q**power


@pytest.mark.parametrize(
    "entry,charges",
    [
        (lambda k, q: classify_classes(k, (1, 1), q), 1),
        (lambda k, q: list(counting.orbit_representatives(k, (1, 1), q)), 1),
        (lambda k, q: enumerate_level_set(k, (1, 1), (-1, 1), q), 1),
        (lambda k, q: lifting_fiber_check(k, (1, 1), (-1, 1), q), 1),
        # each side charges, and both read one labelling
        (lambda k, q: cbvdb_identity_check(k, (1, 1), (-1, 1), q), 2),
        # five nonzero d: the support pre-charge, then one classification each
        (lambda k, q: counting.hua_identity_check(k, q, 2), 10),
    ],
    ids=[
        "classify_classes",
        "orbit_representatives",
        "enumerate_level_set",
        "lifting_fiber_check",
        "cbvdb_identity_check",
        "hua_identity_check",
    ],
)
def test_each_partition_is_charged_once(kron2, monkeypatch, entry, charges):
    whats = []
    original = reps.check_cap

    def counted(needed, cap, what):
        whats.append(what)
        return original(needed, cap, what)

    monkeypatch.setattr(reps, "check_cap", counted)
    entry(kron2, 3)
    assert whats.count(orbits._PARTITION_CHARGE) == charges


def test_fiber_route_is_charged_before_its_system_is_built(kron2, monkeypatch):
    def forbidden(*args):
        raise AssertionError("Hom-system layout built past the cap")

    monkeypatch.setattr(moduli, "_hom_layout", forbidden)
    for check in (enumerate_level_set, lifting_fiber_check):
        with pytest.raises(CapExceeded) as info:
            check(kron2, (40, 41), (-41, 40), 3)
        assert info.value.needed == 3 ** (2 * 40 * 41)


def test_a_refusal_past_the_digit_limit_is_still_a_refusal(kron2):
    with pytest.raises(CapExceeded) as info:
        enumerate_level_set(kron2, (80, 80), (0, 0), 3)
    assert info.value.needed == 3**12800
    try:
        needed = str(3**12800)
    except ValueError:  # more digits than int-to-str allows
        needed = "at least 2^20287"
    assert str(info.value) == (
        f"orbit enumeration of the representation space needs {needed} elements, cap is 1000000"
    )



def test_fiber_route_builds_no_doubled_quiver():
    # an arrow id ending in "*" is an ordinary name to the fiber route; only
    # the oracle, which doubles the quiver, refuses it
    starred = Quiver(["1", "2"], [("a", "1", "2"), ("a*", "2", "1")])
    plain = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(ValidationError, match="'a\\*' already taken"):
        next(level_set_points(starred, (1, 1), (-1, 1), 3))
    for q in (2, 3):
        brute = sum(1 for _ in level_set_points(plain, (1, 1), (-1, 1), q))
        assert enumerate_level_set(starred, (1, 1), (-1, 1), q) == brute
        assert enumerate_level_set(plain, (1, 1), (-1, 1), q) == brute


def test_fiber_route_checks_the_trace(kron2, monkeypatch):
    # without its f_tail terms the Hom system no longer has the identity in
    # its kernel, so the transposed map leaves the trace-zero subalgebra
    original = moduli._hom_layout

    def head_only(ends, d1, d2):
        n, n_unknowns, offsets, terms = original(ends, d1, d2)
        return n, n_unknowns, offsets, tuple(term for term in terms if term[4] > 0)

    monkeypatch.setattr(moduli, "_hom_layout", head_only)
    with pytest.raises(ConsistencyError, match="trace-zero"):
        enumerate_level_set(kron2, (1, 1), (-1, 1), 3)


# -- point counts and the identity


def test_point_count_examples(jordan, kron2, a2):
    assert moduli_point_count(kron2, (1, 1), (-1, 1), 5) == 30
    assert moduli_point_count(jordan, (1,), (0,), 3) == 9
    assert moduli_point_count(a2, (1, 1), (-1, 1), 3) == 1


def test_point_count_requires_generic_theta(kron2):
    with pytest.raises(ValidationError):
        moduli_point_count(kron2, (1, 1), (0, 0), 3)


@pytest.mark.parametrize(
    "d,theta,message",
    [
        ((1, 1), (1, 1), "theta=(1, 1) is not generic for d=(1, 1)"),
        ((2, 2), (-1, 1), "theta=(-1, 1) is not generic for d=(2, 2)"),
        ((1,), (-1, 1), "dimension vector has 1 entries; quiver has 2 vertices"),
        ((1, 1), (1,), "stability parameter has 1 entries; quiver has 2 vertices"),
        ((1, -1), (-1, 1), "dimension vector must be componentwise nonnegative"),
        # d = 0 is generic for every theta, so the gate refuses it by name
        ((0, 0), (0, 0), "d=(0, 0) is zero; moduli counts need a nonzero d"),
    ],
)
def test_generic_theta_checks_are_shared(kron2, d, theta, message):
    calls = [moduli_point_count, cbvdb_identity_check, lifting_fiber_check]
    for call in calls:
        with pytest.raises(ValidationError) as info:
            call(kron2, d, theta, 3)
        assert str(info.value) == message
    for call in calls:
        with pytest.raises(ValidationError) as info:
            call(kron2.double(), d, theta, 3)
        assert str(info.value) == "pass the undoubled quiver; doubling is internal here"


def test_level_divisibility_property(jordan, kron2, a2):
    cases = [(kron2, (1, 1), (-1, 1)), (a2, (1, 1), (-1, 1)), (jordan, (1,), (0,))]
    for quiver, d, theta in cases:
        for q in (2, 3, 5):
            level = enumerate_level_set(quiver, d, theta, q)
            assert level % g_order(d, q) == 0


def test_small_characteristic_diagnostic(kron2):
    # theta = (-5, 5) is generic over the integers but vanishes mod 5
    assert moduli_point_count(kron2, (1, 1), (-5, 5), 3) == 12
    level = enumerate_level_set(kron2, (1, 1), (-5, 5), 5)
    for check in (moduli_point_count, cbvdb_identity_check):
        with pytest.raises(SmallCharacteristic) as info:
            check(kron2, (1, 1), (-5, 5), 5)
        assert info.value.level_set == level
    # the identity check raised inside its shared partition, which is gone
    assert orbits._SHARED_LABELS.get() is None


def test_lifting_refuses_a_level_set_that_the_group_order_does_not_divide(kron2):
    # theta.(1, 2) = 4 vanishes mod 2, so theta is not generic in
    # characteristic 2: 9744 points, and |G_d| = 1008 does not divide them
    d, theta, q = (3, 2), (-2, 3), 2
    messages = set()
    for check in (lifting_fiber_check, cbvdb_identity_check, moduli_point_count):
        with pytest.raises(SmallCharacteristic) as info:
            check(kron2, d, theta, q)
        assert info.value.level_set == 9744
        messages.add(str(info.value))
    assert messages == {
        "level-set count 9744 is not divisible by |G_d| = 1008: "
        "characteristic too small or theta not generic in this characteristic"
    }


def test_cbvdb_examples(jordan, kron2, a2):
    check = cbvdb_identity_check(kron2, (1, 1), (-1, 1), 5)
    assert check.holds and check.point_count == 30 and check.expected == 5 * 6
    check = cbvdb_identity_check(jordan, (1,), (0,), 3)
    assert check.holds and check.point_count == 9
    assert not check.in_theorem_scope  # loop quiver: outside the stated theorem
    check = cbvdb_identity_check(a2, (1, 1), (-1, 1), 2)
    assert check.holds and check.point_count == 1 and check.in_theorem_scope


def test_cbvdb_rejects_divisible_dimension(kron2):
    with pytest.raises(ValidationError):
        cbvdb_identity_check(kron2, (2, 2), (1, -1), 3)


def test_cbvdb_failure_is_data_not_error(a2):
    # theta = (-2, 2) degenerates mod 2: the identity fails but is reported
    check = cbvdb_identity_check(a2, (1, 1), (-2, 2), 2)
    assert not check.holds
    assert check.point_count == 3 and check.expected == 1


# -- one partition serves both sides of the identity check


def test_identity_check_partitions_rep_once(kron2, monkeypatch):
    runs = []
    original = orbits._min_labels

    def counted(idx, perms, orders):
        runs.append(len(idx))
        return original(idx, perms, orders)

    monkeypatch.setattr(orbits, "_min_labels", counted)
    check = cbvdb_identity_check(kron2, (1, 1), (-1, 1), 5)
    assert check.holds and check.level_set == 120 and check.abs_indecomposable == 6
    # the fiber pass and classify_classes read one labelling of the 25 points
    assert runs == [25]
    assert orbits._SHARED_LABELS.get() is None
    # nothing outlived the call: the next partition of the same space runs again
    assert classify_classes(kron2, (1, 1), 5).absolutely_indecomposable == 6
    assert runs == [25, 25]


def test_shared_labels_are_read_only_and_still_charged(kron2):
    loose = orbits._orbit_labels(kron2, (1, 1), 5, 25)
    assert loose.flags.writeable
    with orbits._shared_partitions():
        labels = orbits._orbit_labels(kron2, (1, 1), 5, 25)
        assert orbits._orbit_labels(kron2, (1, 1), 5, 25) is labels
        assert labels.tolist() == loose.tolist()
        with pytest.raises(ValueError):
            labels[0] = 1
        # a shared space is refused at a lower cap exactly as an unshared one
        with pytest.raises(CapExceeded) as info:
            orbits._orbit_labels(kron2, (1, 1), 5, 24)
        assert info.value.what == "orbit enumeration of the representation space"
        assert info.value.needed == 25
    assert orbits._SHARED_LABELS.get() is None


def test_identity_check_over_its_cap_is_refused_as_before(kron2):
    with pytest.raises(CapExceeded) as info:
        cbvdb_identity_check(kron2, (1, 1), (-1, 1), 5, cap=24)
    assert info.value.what == "orbit enumeration of the representation space"
    assert info.value.needed == 25
    assert orbits._SHARED_LABELS.get() is None


# (quiver, d, theta, q) over F_{p^k}, k > 1; the largest doubled space,
# Kronecker-2 (1, 1) over F_9, has 9^4 = 6561 points
EXTENSION_CASES = [
    ("kron2", (1, 1), (-1, 1), 4),
    ("kron2", (1, 1), (-1, 1), 8),
    ("kron2", (1, 1), (-1, 1), 9),
    ("kron3", (1, 1), (-1, 1), 4),
    ("jordan", (1,), (0,), 4),
    ("jordan", (1,), (0,), 8),
    ("jordan", (1,), (0,), 9),
]


@pytest.mark.parametrize("name,d,theta,q", EXTENSION_CASES)
def test_identity_and_lifting_checks_over_extension_fields(name, d, theta, q):
    quiver = FIBER_QUIVERS[name]
    brute = sum(1 for _ in level_set_points(quiver, d, theta, q))
    check = cbvdb_identity_check(quiver, d, theta, q)
    assert check.holds
    assert check.level_set == brute == enumerate_level_set(quiver, d, theta, q)
    assert check.point_count * g_order(d, q) == brute
    assert check.abs_indecomposable == classify_classes(quiver, d, q).absolutely_indecomposable
    lifting = lifting_fiber_check(quiver, d, theta, q)
    assert lifting.holds and lifting.level_count == brute


# -- lifting fibers


def test_lifting_fiber_profile(jordan, kron2, a2):
    for quiver, d, theta, qs in [
        (kron2, (1, 1), (-1, 1), (2, 3)),
        (a2, (1, 1), (-1, 1), (2, 3)),
        (jordan, (1,), (0,), (2, 3)),
    ]:
        for q in qs:
            result = lifting_fiber_check(quiver, d, theta, q)
            assert result.holds, result
            assert result.fibers_total == result.level_count


def test_lifting_refuses_zero_dimension(kron2):
    with pytest.raises(ValidationError, match="zero"):
        lifting_fiber_check(kron2, (0, 0), (0, 0), 2)


@given(
    d=st.lists(st.integers(0, 6), min_size=1, max_size=3),
    raw=st.lists(st.integers(-5, 5), min_size=3, max_size=3),
)
def test_generic_theta_forces_an_indivisible_d(d, raw):
    # why the generic gate needs no gcd check of its own
    theta = normalize_to_degree_zero(raw[: len(d)], d)
    if any(d) and is_generic(theta, d):
        assert is_indivisible(d)


def test_lifting_is_refused_before_the_group_order(kron2, monkeypatch):
    # |GL_d| at d = (1000, 999) is a product of 1999 huge factors, and the
    # partition needs 2^(2 * 1000 * 999) points: the cap refuses first
    def forbidden(*args):
        raise AssertionError("|GL_d| computed past the cap")

    monkeypatch.setattr(moduli, "gl_order", forbidden)
    with pytest.raises(CapExceeded) as info:
        lifting_fiber_check(kron2, (1000, 999), (-999, 1000), 2)
    assert info.value.what == "orbit enumeration of the representation space"
    assert info.value.needed == 2 ** (2 * 1000 * 999)


def test_lifting_reports_the_lex_first_counterexample(kron2, monkeypatch):
    # with every End ring reported local, the zero representation (empty
    # fiber) is the first point whose fiber disagrees
    def all_local(dim_end, units, q):
        return reps.EndoStructure(dim_end=dim_end, is_local=True, dim_radical=0, residue_degree=1)

    monkeypatch.setattr(moduli, "_local_structure", all_local)
    result = lifting_fiber_check(kron2, (1, 1), (-1, 1), 3)
    assert not result.holds
    assert result.counterexample == (0, 0)
    # the predicted total counts q^(dim Ext^1) = 9 over the zero point too
    assert result.level_count == 24
    assert result.fibers_total == 9 + 24


def test_lifting_scans_each_end_ring_once(kron2, monkeypatch):
    systems = []
    original = moduli._eliminate

    def counted(field, rows, cols):
        # recorded before the in-place elimination changes the rows
        systems.append((len(rows), cols, tuple(map(tuple, rows))))
        return original(field, rows, cols)

    def forbidden(*args):
        raise AssertionError("dim End(W) is read off the fiber system")

    monkeypatch.setattr(moduli, "_eliminate", counted)
    monkeypatch.setattr(reps, "hom_dim", forbidden)
    assert lifting_fiber_check(kron2, (1, 1), (-1, 1), 3).holds
    # one system per orbit of Rep(Q, d), the zero point and the four lines
    # of F_3^2, giving both the fiber and dim End(W): no second Hom solve;
    # each has a row per unknown of f and a column per entry of W, then eta
    assert len(systems) == len(set(systems)) == 5
    assert {(rows, cols) for rows, cols, _ in systems} == {(2, 3)}
    systems.clear()
    assert enumerate_level_set(kron2, (1, 1), (-1, 1), 3) == 24
    assert len(systems) == len(set(systems)) == 5


def test_fiber_pass_decodes_no_point_and_builds_no_hom_system(kron2, monkeypatch):
    # each orbit's entry key is read off its index and its system filled
    # from the layout: no Representation and no Hom-system matrix per orbit
    d, theta, q = (2, 1), (-1, 2), 2
    level = sum(1 for _ in level_set_points(kron2, d, theta, q))

    def forbidden(*args):
        raise AssertionError("the fiber pass decoded a point or built a Hom system")

    originals = (reps.representation_decoder, reps._hom_system)
    for name, module in list(sys.modules.items()):
        if name == "quiverforge" or name.startswith("quiverforge."):
            for attr, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, attr, forbidden)
    assert enumerate_level_set(kron2, d, theta, q) == level
    lifting = lifting_fiber_check(kron2, d, theta, q)
    assert lifting.holds and lifting.level_count == lifting.fibers_total == level
    check = cbvdb_identity_check(kron2, d, theta, q)
    assert check.holds and check.level_set == level


def test_genericity_walk_is_charged_before_it_runs(monkeypatch):
    # theta.d = 0 on the A_4 path, so is_generic would walk the
    # 161 * 162 * 163 sub-vectors off the pivot d_4 = 163 before the
    # partition refused Rep(Q, d)
    path = Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    d, theta = (160, 161, 162, 163), (144272509, 611178002, 909925195, -1649638904)

    def forbidden(*args):
        raise AssertionError("genericity walked past the cap")

    monkeypatch.setattr(moduli, "is_generic", forbidden)
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as info:
        lifting_fiber_check(path, d, theta, 2)
    assert time.perf_counter() - start < 0.1
    assert (info.value.what, info.value.needed) == ("genericity walk", 161 * 162 * 163)


@pytest.mark.parametrize("q", [3, 4])
def test_fiber_pass_builds_no_matrix_per_orbit(kron2, monkeypatch, q):
    # each orbit's rows are eliminated in place: once the per-process caches
    # (fields, GL generators, sparse actions, layouts) are warm, the fiber
    # entries answer without constructing a single FqMatrix
    d, theta = (2, 1), (-1, 2)

    def answers():
        return (
            enumerate_level_set(kron2, d, theta, q),
            lifting_fiber_check(kron2, d, theta, q),
            cbvdb_identity_check(kron2, d, theta, q),
        )

    warm = answers()

    def forbidden(*args, **kwargs):
        raise AssertionError("the fiber pass built an FqMatrix")

    monkeypatch.setattr(FqMatrix, "_of", forbidden)
    monkeypatch.setattr(FqMatrix, "__init__", forbidden)
    assert answers() == warm


TRACE_SPACES = [
    ("kron2", (1, 1)),
    ("kron2", (2, 1)),
    ("kron3", (1, 1)),
    ("jordan", (1,)),
    ("jordan", (2,)),
    ("a2", (1, 1)),
    ("a2", (2, 1)),
]


@pytest.mark.parametrize("faulty", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_layout_trace_check_matches_the_per_key_sum(q, faulty):
    # the layout-level check refuses a layout iff some entry key's fiber
    # system has a nonzero trace sum over the diagonal unknowns in some
    # equation; that sum is taken here on every key of the space
    field = make_field(*prime_power(q))
    refused = []
    for name, d in TRACE_SPACES:
        quiver = FIBER_QUIVERS[name]
        n, _, offsets, terms = reps._hom_layout(quiver.ends, d, d)
        if faulty:  # as in test_fiber_route_checks_the_trace: no f_tail terms
            terms = tuple(term for term in terms if term[4] > 0)
        diagonal = {offset + i * (dv + 1) for offset, dv in zip(offsets, d) for i in range(dv)}
        n_entries = sum(r * c for r, c in reps.arrow_shapes(quiver, d))
        every_key_vanishes = True
        for key in itertools.product(range(q), repeat=n_entries):
            traces = [0] * n
            for equation, unknown, _, position, sign in terms:
                if unknown in diagonal:
                    value = key[position] if sign > 0 else field.neg(key[position])
                    traces[equation] = field.add(traces[equation], value)
            if any(traces):
                every_key_vanishes = False
                break
        try:
            moduli._check_trace_identity(terms, diagonal, field.p)
        except ConsistencyError as err:
            assert "trace-zero" in str(err)
            refused.append(name)
            assert not every_key_vanishes, (name, d)
        else:
            assert every_key_vanishes, (name, d)
    # the true layout always passes; the faulty one is caught wherever an
    # arrow has entries
    assert refused == ([] if not faulty else [name for name, _ in TRACE_SPACES])


def test_fiber_entries_check_vectors_once(kron2, monkeypatch):
    # d, eta and theta are checked by the public entry; the orbit and fiber
    # helpers below it take them as checked and never check them again
    calls = []
    original = Quiver.check_vector

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Quiver, "check_vector", counted)
    counts = []
    for entry in (cbvdb_identity_check, lifting_fiber_check, enumerate_level_set):
        calls.clear()
        entry(kron2, (2, 1), (-1, 2), 3)
        counts.append(len(calls))
    assert counts == [8, 5, 3]


BAD_DIMS = [(-1, 1), (1,), (1, 1, 1), (True, 1), (1.0, 1)]
ORBIT_ENTRIES = [
    ("orbit_partition", lambda d: orbits.orbit_partition(kronecker_quiver(2), d, 3)),
    ("orbit_representatives", lambda d: counting.orbit_representatives(kronecker_quiver(2), d, 3)),
    ("classify_classes", lambda d: classify_classes(kronecker_quiver(2), d, 3)),
    ("count_report", lambda d: counting.count_report(kronecker_quiver(2), d, 3)),
    ("check_galois_descent", lambda d: counting.check_galois_descent(kronecker_quiver(2), d, 3)),
    ("enumerate_level_set", lambda d: enumerate_level_set(kronecker_quiver(2), d, (-1, 1), 3)),
    ("moduli_point_count", lambda d: moduli_point_count(kronecker_quiver(2), d, (-1, 1), 3)),
    ("cbvdb_identity_check", lambda d: cbvdb_identity_check(kronecker_quiver(2), d, (-1, 1), 3)),
    ("lifting_fiber_check", lambda d: lifting_fiber_check(kronecker_quiver(2), d, (-1, 1), 3)),
]


@pytest.mark.parametrize("d", BAD_DIMS, ids=repr)
@pytest.mark.parametrize("name,entry", ORBIT_ENTRIES, ids=[name for name, _ in ORBIT_ENTRIES])
def test_orbit_entries_refuse_a_bad_d_before_charging(monkeypatch, name, entry, d):
    # the private orbit and fiber helpers take d as check_dim returns it;
    # every public entry that reaches them refuses a bad d first
    def charged(*args):
        raise AssertionError(f"{name} charged a partition before checking d")

    monkeypatch.setattr(orbits, "_charge_partition", charged)
    with pytest.raises(ValidationError, match="dimension vector|vector entries"):
        entry(d)


def test_specific_fiber_sizes(kron2, f3):
    # W with maps (1, 0): fiber has q^(dim Ext^1) = 3 points
    w = Representation(
        kron2, f3, (1, 1), [FqMatrix(f3, [[1]]), FqMatrix(f3, [[0]])]
    )
    assert is_indecomposable(w)
    assert ext1_dim(w, w) == 1
    fiber = [
        x
        for x in level_set_points(kron2, (1, 1), (-1, 1), 3)
        if tuple(v for m in x.maps[:2] for v in m.flat()) == w.entry_key()
    ]
    assert len(fiber) == 3
    zero = Representation.zero(kron2, f3, (1, 1))
    fiber_zero = [
        x
        for x in level_set_points(kron2, (1, 1), (-1, 1), 3)
        if tuple(v for m in x.maps[:2] for v in m.flat()) == zero.entry_key()
    ]
    assert fiber_zero == []


# -- Betti extraction


def test_betti_examples():
    assert betti_from_kac(ExactPolynomial([1, 1]), 1).betti == (1, 0, 1)
    assert betti_from_kac(ExactPolynomial([1]), 0).betti == (1,)
    assert betti_from_kac(ExactPolynomial([0, 1]), 1).betti == (1, 0, 0)


def test_betti_report_invariants(kron2):
    poly = kac_polynomial(kron2, (1, 1))
    report = betti_from_kac(poly, kron2.expected_moduli_dim((1, 1)))
    assert all(report.betti[i] == 0 for i in range(1, len(report.betti), 2))
    assert sum(report.betti) == poly(1)
    assert report.betti[0] == poly.coefficient(report.e)  # top coefficient sits in degree 0


def test_betti_errors():
    with pytest.raises(TheoremViolation):
        betti_from_kac(ExactPolynomial([-1, 1]), 1)
    with pytest.raises(ValidationError):
        betti_from_kac(ExactPolynomial([1, 1, 1]), 1)
    heuristic = betti_from_kac(ExactPolynomial([0, 1]), 1, in_theorem_scope=False)
    assert heuristic.scope == "heuristic"
