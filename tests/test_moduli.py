import collections
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverforge import (
    CapExceeded,
    ConsistencyError,
    ExactPolynomial,
    FqMatrix,
    Representation,
    SmallCharacteristic,
    TheoremViolation,
    ValidationError,
    betti_from_kac,
    cbvdb_identity_check,
    enumerate_level_set,
    ext1_dim,
    g_order,
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
from quiverforge import counting, moduli, reps
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
]


def _forward_key(w: Representation) -> tuple[int, ...]:
    quiver = w.quiver
    return tuple(v for a in quiver.forward_arrows() for v in w.map_for(a.id).flat())


def _half(quiver: Quiver) -> Quiver:
    return Quiver(quiver.vertices, quiver.forward_arrows()) if quiver.is_doubled else quiver


@pytest.mark.parametrize("name,d,eta,q", FIBER_CASES)
def test_fibers_match_the_doubled_walk(name, d, eta, q):
    quiver = FIBER_QUIVERS[name]
    brute = collections.Counter(_forward_key(w) for w in level_set_points(quiver, d, eta, q))
    fibers = list(moduli._fiber_sizes(quiver, d, eta, q))
    keys = [x.entry_key() for x, _, _ in fibers]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)  # lex order, each orbit once
    n = sum(r * c for r, c in reps.arrow_shapes(_half(quiver), d))
    assert sum(size for _, size, _ in fibers) == q**n
    assert [fiber for _, _, fiber in fibers] == [brute[key] for key in keys]
    total = sum(size * fiber for _, size, fiber in fibers)
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
    assert [(x.entry_key(), size) for x, size, _ in moduli._fiber_sizes(quiver, d, eta, q)] == (
        sorted(sizes.items())
    )


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


def test_fiber_route_is_charged_before_its_system_is_built(kron2, monkeypatch):
    def forbidden(*args):
        raise AssertionError("fiber system built past the cap")

    monkeypatch.setattr(moduli, "_fiber_terms", forbidden)
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



def test_fiber_route_checks_the_trace(kron2, monkeypatch):
    original = moduli._fiber_terms

    def head_only(half, d):
        terms, diagonal = original(half, d)
        return [t for t in terms if not t[3]], diagonal

    monkeypatch.setattr(moduli, "_fiber_terms", head_only)
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
    with pytest.raises(SmallCharacteristic):
        moduli_point_count(kron2, (1, 1), (-5, 5), 5)


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


def test_lifting_reports_the_lex_first_counterexample(kron2, monkeypatch):
    # with every End ring reported local, the zero representation (empty
    # fiber) is the first point whose fiber disagrees
    def all_local(w, orbit_size):
        return reps.EndoStructure(dim_end=1, is_local=True, dim_radical=0, residue_degree=1)

    monkeypatch.setattr(moduli, "_end_structure", all_local)
    result = lifting_fiber_check(kron2, (1, 1), (-1, 1), 3)
    assert not result.holds
    assert result.counterexample == (0, 0)
    assert result.level_count == result.fibers_total == 24


def test_lifting_scans_each_end_ring_once(kron2, monkeypatch):
    calls = []
    original = counting.hom_dim

    def counted(w1, w2):
        calls.append(w1.entry_key())
        return original(w1, w2)

    monkeypatch.setattr(counting, "hom_dim", counted)
    assert lifting_fiber_check(kron2, (1, 1), (-1, 1), 3).holds
    # one dim End(W) per orbit of Rep(Q, d), the zero point and the four
    # lines of F_3^2, and no second Hom solve for Ext^1
    assert len(calls) == len(set(calls)) == 5


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
