import itertools
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverforge import (
    CapExceeded,
    ConsistencyError,
    FqMatrix,
    Representation,
    UndecidedAtCap,
    ValidationError,
    a2_quiver,
    all_representations,
    are_isomorphic,
    base_change,
    direct_sum,
    endo_structure,
    ext1_dim,
    hom_dim,
    hom_space,
    is_absolutely_indecomposable,
    is_indecomposable,
    jordan_quiver,
    kronecker_quiver,
    make_field,
    orbit_representatives,
    stability_verdict,
)
from quiverforge import reps
from quiverforge.counting import classify_classes
from brute_force import all_matrices
from quiverforge.ffield import grassmannian
from quiverforge.reps import EndoStructure, aut_order, scan_endomorphisms


def rep(quiver, field, d, rows_per_arrow):
    return Representation(quiver, field, d, [FqMatrix(field, rows) for rows in rows_per_arrow])


# -- Hom / Ext


def test_hom_dims_on_kronecker(kron2, f2):
    s1 = Representation.simple(kron2, f2, "1")
    s2 = Representation.simple(kron2, f2, "2")
    assert hom_space(s1, s2).dim == 0
    assert hom_space(s1, s1).dim == 1
    assert hom_space(s2, s2).dim == 1


def test_end_j2_matches_direct_commutant_count(jordan, f2):
    nilpotent = FqMatrix(f2, [[0, 1], [0, 0]])
    w = Representation(jordan, f2, (2,), [nilpotent])
    # oracle: brute-force the commutant of the single matrix
    commuting = sum(
        1 for f in all_matrices(f2, 2, 2) if f.mul(nilpotent) == nilpotent.mul(f)
    )
    assert commuting == 4  # q^2, a 2-dimensional algebra
    assert hom_space(w, w).dim == 2


def test_hom_basis_elements_intertwine(kron2, f3):
    w1 = rep(kron2, f3, (2, 1), [[[1, 0]], [[0, 1]]])
    w2 = rep(kron2, f3, (1, 1), [[[1]], [[2]]])
    space = hom_space(w1, w2)
    for fs in space.basis:
        for idx, a in enumerate(kron2.arrows):
            t = kron2.vertex_index[a.tail]
            h = kron2.vertex_index[a.head]
            assert fs[h].mul(w1.maps[idx]) == w2.maps[idx].mul(fs[t])


def test_hom_rejects_mismatched_inputs(kron2, a2, f2, f3):
    w_kron = Representation.zero(kron2, f2, (1, 1))
    w_a2 = Representation.zero(a2, f2, (1, 1))
    with pytest.raises(ValidationError):
        hom_space(w_kron, w_a2)
    with pytest.raises(ValidationError):
        hom_dim(w_kron, w_a2)
    w_f3 = Representation.zero(kron2, f3, (1, 1))
    with pytest.raises(ValidationError):
        hom_space(w_kron, w_f3)
    with pytest.raises(ValidationError):
        hom_dim(w_kron, w_f3)


@pytest.mark.parametrize(
    "quiver_name,field_args,dims",
    [
        ("kron2", (2,), [(1, 1), (2, 1), (1, 2), (0, 1)]),
        ("jordan", (2,), [(1,), (2,)]),
        ("jordan", (2, 2), [(1,)]),
    ],
)
def test_hom_dim_is_the_dimension_of_the_hom_basis(quiver_name, field_args, dims, jordan, kron2):
    quiver = {"jordan": jordan, "kron2": kron2}[quiver_name]
    field = make_field(*field_args)
    points = [w for d in dims for w in all_representations(quiver, field, d)]
    for w1, w2 in itertools.product(points, repeat=2):
        assert hom_dim(w1, w2) == hom_space(w1, w2).dim, (w1, w2)


def test_ext_examples(kron2, jordan, f2):
    s1 = Representation.simple(kron2, f2, "1")
    s2 = Representation.simple(kron2, f2, "2")
    assert ext1_dim(s1, s2) == 2
    assert ext1_dim(s2, s1) == 0
    one_dim = rep(jordan, f2, (1,), [[[0]]])
    assert ext1_dim(one_dim, one_dim) == 1


# -- direct sums and isomorphism


def test_direct_sum_examples(kron2, jordan, f2):
    s1 = Representation.simple(kron2, f2, "1")
    s2 = Representation.simple(kron2, f2, "2")
    w = direct_sum(s1, s2)
    assert w.d == (1, 1)
    assert all(m.is_zero() for m in w.maps)

    j0 = rep(jordan, f2, (1,), [[[0]]])
    j1 = rep(jordan, f2, (1,), [[[1]]])
    assert direct_sum(j0, j1).maps[0].entries == ((0, 0), (0, 1))

    zero = Representation.zero(jordan, f2, (0,))
    assert direct_sum(j1, zero) == j1


def test_conjugate_matrices_are_isomorphic(jordan, f3):
    m = FqMatrix(f3, [[1, 1], [0, 2]])
    g = FqMatrix(f3, [[1, 2], [1, 1]])
    w1 = Representation(jordan, f3, (2,), [m])
    w2 = Representation(jordan, f3, (2,), [g.mul(m).mul(g.inverse())])
    assert are_isomorphic(w1, w2)


def test_jordan_block_not_isomorphic_to_semisimple(jordan, f2):
    j2 = rep(jordan, f2, (2,), [[[0, 1], [0, 0]]])
    diag = Representation.zero(jordan, f2, (2,))
    assert not are_isomorphic(j2, diag)


def test_zero_reps_isomorphic(kron2, f2):
    assert are_isomorphic(
        Representation.zero(kron2, f2, (1, 1)), Representation.zero(kron2, f2, (1, 1))
    )


def test_isomorphism_undecided_at_cap(jordan, f2):
    w = Representation.zero(jordan, f2, (2,))
    with pytest.raises(UndecidedAtCap):
        are_isomorphic(w, w, cap=3)


# -- endomorphism structure


def test_endo_structure_examples(jordan, kron2, f2, f3):
    j2 = rep(jordan, f3, (2,), [[[1, 1], [0, 1]]])
    s = endo_structure(j2)
    assert (s.dim_end, s.dim_radical, s.residue_degree, s.is_local) == (2, 1, 1, True)

    companion = rep(jordan, f2, (2,), [[[0, 1], [1, 1]]])
    s = endo_structure(companion)
    assert (s.dim_end, s.dim_radical, s.residue_degree, s.is_local) == (2, 0, 2, True)

    s1 = Representation.simple(kron2, f2, "1")
    s = endo_structure(s1)
    assert (s.dim_end, s.dim_radical, s.residue_degree) == (1, 0, 1)

    split = rep(jordan, f2, (2,), [[[0, 0], [0, 1]]])
    s = endo_structure(split)
    assert not s.is_local
    assert s.dim_radical is None and s.residue_degree is None


def test_indecomposability_examples(jordan, f2):
    j2 = rep(jordan, f2, (2,), [[[0, 1], [0, 0]]])
    assert is_indecomposable(j2) and is_absolutely_indecomposable(j2)
    companion = rep(jordan, f2, (2,), [[[0, 1], [1, 1]]])
    assert is_indecomposable(companion)
    assert not is_absolutely_indecomposable(companion)
    split = rep(jordan, f2, (2,), [[[0, 0], [0, 1]]])
    assert not is_indecomposable(split)


@pytest.mark.parametrize(
    "quiver_name,d,qs",
    [
        ("jordan", (0,), (2, 3, 4)),
        ("jordan", (1,), (2, 3, 4)),
        ("jordan", (2,), (2, 3, 4)),
        ("kron2", (1, 1), (2, 3)),
        ("kron2", (2, 1), (2, 3)),
        ("a2", (2, 1), (2,)),
    ],
)
def test_nilpotency_witness_agrees_with_the_count_rule(quiver_name, d, qs, jordan, kron2, a2):
    # the early-exit scan decides by a non-nilpotent non-unit, endo_structure
    # by whether the non-unit count is a power of q; exhaustively, they agree
    quiver = {"jordan": jordan, "kron2": kron2, "a2": a2}[quiver_name]
    for q in qs:
        field = make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
        for w in all_representations(quiver, field, d):
            dim_end, witness_local, units = scan_endomorphisms(w, early_exit=True)
            structure = endo_structure(w)
            assert witness_local == structure.is_local, w
            assert dim_end == structure.dim_end
            if structure.is_local:
                assert units == aut_order(w) == q**dim_end - q**structure.dim_radical


@pytest.mark.parametrize("quiver_name,d", [("jordan", (0,)), ("kron2", (0, 0))])
@pytest.mark.parametrize("q", [2, 3])
def test_zero_representation_verdicts(quiver_name, d, q, jordan, kron2):
    # End(0) is the zero ring: its one element is a unit and it has no
    # non-units, so it is not local and 0 is decomposable (the empty sum)
    quiver = {"jordan": jordan, "kron2": kron2}[quiver_name]
    w = Representation.zero(quiver, make_field(q), d)
    assert scan_endomorphisms(w) == (0, False, 1)
    assert scan_endomorphisms(w, early_exit=True) == (0, False, 1)
    assert endo_structure(w) == EndoStructure(
        dim_end=0, is_local=False, dim_radical=None, residue_degree=None
    )
    assert aut_order(w) == 1
    assert not is_indecomposable(w)
    assert not is_absolutely_indecomposable(w)
    counts = classify_classes(quiver, d, q)
    assert (counts.iso_classes, counts.indecomposable, counts.absolutely_indecomposable) == (
        1, 0, 0,
    )


def test_full_scan_runs_no_nilpotency_test(jordan, kron2, f2, f3, monkeypatch):
    calls = []
    original = FqMatrix.is_nilpotent

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FqMatrix, "is_nilpotent", counted)
    points = [
        rep(jordan, f3, (2,), [[[1, 1], [0, 1]]]),
        rep(jordan, f2, (2,), [[[0, 0], [0, 1]]]),
        Representation.zero(jordan, f3, (2,)),
        Representation.zero(kron2, f2, (1, 1)),
    ]
    for w in points:
        endo_structure(w)
        aut_order(w)
        scan_endomorphisms(w)
    assert calls == []
    is_indecomposable(points[0])  # the early exit tests each non-unit
    assert calls
    calls.clear()
    is_absolutely_indecomposable(points[0])  # reads the early-exit scan too
    assert calls


def test_early_exit_scan_cross_checks_the_count_rule(jordan, f2, monkeypatch):
    # with the nilpotency test forced to pass, a split End(W) yields no
    # witness, and its non-unit count (not a power of q) must be refused
    monkeypatch.setattr(reps, "_is_nilpotent_endo", lambda fs: True)
    split = rep(jordan, f2, (2,), [[[0, 0], [0, 1]]])
    with pytest.raises(ConsistencyError, match="not a power of q"):
        scan_endomorphisms(split, early_exit=True)
    assert not endo_structure(split).is_local


def test_absolute_indecomposability_exits_early(jordan):
    # End(0) = M_3(F_5) has 5^9 elements; its second one is an idempotent
    w = Representation.zero(jordan, make_field(5), (3,))
    assert not is_indecomposable(w, cap=1000)
    assert not is_absolutely_indecomposable(w, cap=1000)


def test_full_scans_check_the_cap_first(jordan, monkeypatch):
    # a full scan refuses before it tests a single element of End(0) = M_3(F_5)
    def no_walk(fs):
        raise AssertionError("a full scan walked End(W) past its cap")

    monkeypatch.setattr(reps, "_is_unit", no_walk)
    w = Representation.zero(jordan, make_field(5), (3,))
    message = "endomorphism-ring enumeration needs 1953125 elements, cap is 10"
    for call in (aut_order, endo_structure, scan_endomorphisms):
        with pytest.raises(CapExceeded) as info:
            call(w, cap=10)
        assert str(info.value) == message


def test_early_exit_scans_count_against_the_cap(jordan):
    # an early-exit scan may stop under the cap, so it counts as it goes
    w = Representation.zero(jordan, make_field(5), (3,))
    assert scan_endomorphisms(w, cap=2, early_exit=True) == (9, False, None)
    with pytest.raises(CapExceeded) as info:
        scan_endomorphisms(w, cap=1, early_exit=True)
    assert str(info.value) == "endomorphism-ring enumeration needs 1953125 elements, cap is 1"


def test_shapes_survive_zero_row_maps(kron2, f3):
    # kron2 at (2, 0): both maps are 0 x 2, and every producer keeps that shape
    w = Representation.zero(kron2, f3, (2, 0))
    assert [(m.rows, m.cols) for m in direct_sum(w, w).maps] == [(0, 4), (0, 4)]
    assert [(m.rows, m.cols) for m in base_change(w, 2).maps] == [(0, 2), (0, 2)]
    assert hom_space(w, w).dim == 4


# -- base change


def test_base_change_examples(jordan, f2):
    companion = rep(jordan, f2, (2,), [[[0, 1], [1, 1]]])
    assert base_change(companion, 1) is companion
    assert not is_indecomposable(base_change(companion, 2))  # splits over F_4
    j2 = rep(jordan, f2, (2,), [[[0, 1], [0, 0]]])
    assert is_indecomposable(base_change(j2, 2))


def test_base_change_preserves_hom_dimension(kron2, f2):
    w = rep(kron2, f2, (1, 1), [[[1]], [[0]]])
    assert hom_space(w, w).dim == hom_space(base_change(w, 2), base_change(w, 2)).dim


@pytest.mark.parametrize("quiver_name,dims", [("jordan", [(1,), (2,)]), ("kron2", [(1, 0), (0, 1), (1, 1)])])
def test_absolute_indecomposability_vs_base_change(quiver_name, dims, jordan, kron2, f2):
    # total dimension <= 2 over F_2, exhaustively
    quiver = jordan if quiver_name == "jordan" else kron2
    for d in dims:
        for w in all_representations(quiver, f2, d):
            if not any(w.d):
                continue
            structure = endo_structure(w)
            claim = is_absolutely_indecomposable(w)
            if structure.is_local:
                stays = all(
                    is_indecomposable(base_change(w, m))
                    for m in range(1, structure.dim_end + 1)
                )
                assert claim == stays
            else:
                assert not claim


# -- stability


def test_kronecker_stability_examples(kron2, f2):
    w = rep(kron2, f2, (1, 1), [[[1]], [[0]]])
    assert stability_verdict(w, (-1, 1)).kind == "stable"

    zero = Representation.zero(kron2, f2, (1, 1))
    verdict = stability_verdict(zero, (-1, 1))
    assert verdict.kind == "unstable"
    assert verdict.witness.dims == (1, 0)
    assert verdict.witness.theta_pairing == -1

    assert stability_verdict(w, (0, 0)).is_semistable


def test_stability_requires_degree_zero(kron2, f2):
    w = Representation.zero(kron2, f2, (1, 1))
    with pytest.raises(ValidationError):
        stability_verdict(w, (1, 1))


def test_semistable_not_stable_witness(kron2, f3):
    # theta = 0 makes every proper subrep tight
    w = rep(kron2, f3, (1, 1), [[[1]], [[1]]])
    verdict = stability_verdict(w, (0, 0))
    assert verdict.kind == "semistable-not-stable"
    assert verdict.witness.theta_pairing == 0


def test_stability_subspace_cap(kron2, f3):
    from quiverforge import CapExceeded

    w = Representation.zero(kron2, f3, (2, 2))
    with pytest.raises(CapExceeded):
        stability_verdict(w, (1, -1), cap=1)


def test_subspace_cap_is_charged_before_a_grassmannian_is_listed(jordan, f2, monkeypatch):
    # Gr(2, 12) over F_2 has 2794155 points; Gr(1, 12) has 4095 and is walked
    original = reps.grassmannian

    def listed_under_the_cap(field, n, k):
        assert k < 2, "Gr(2, 12) listed past the cap"
        return original(field, n, k)

    monkeypatch.setattr(reps, "grassmannian", listed_under_the_cap)
    zero = Representation.zero(jordan, f2, (12,))
    with pytest.raises(CapExceeded, match="subspace enumeration needs 2794155 elements, cap is"):
        stability_verdict(zero, (0,))


def subrep_by_vector(w, subspaces):
    """The per-vector rule, the oracle for ``reps._is_subrepresentation``:
    every image of a tail subspace's basis row lies in the head subspace,
    one rank per basis row."""
    quiver = w.quiver
    for a, phi in zip(quiver.arrows, w.maps):
        target = subspaces[quiver.vertex_index[a.head]]
        for row in subspaces[quiver.vertex_index[a.tail]].entries:
            image = phi.apply(row)
            if any(image) and FqMatrix(w.field, list(target.entries) + [image]).rank() != target.rows:
                return False
    return True


SUBREP_QUIVERS = {"jordan": jordan_quiver(), "kron2": kronecker_quiver(2), "a2": a2_quiver()}


@given(st.data())
def test_one_rank_per_arrow_matches_the_per_vector_rule(data):
    quiver = SUBREP_QUIVERS[data.draw(st.sampled_from(sorted(SUBREP_QUIVERS)))]
    field = make_field(*data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2)])))
    n = len(quiver.vertices)
    d = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    entries = st.integers(0, field.q - 1)
    maps = [
        FqMatrix.from_flat(field, r, c, data.draw(st.lists(entries, min_size=r * c, max_size=r * c)))
        for r, c in reps.arrow_shapes(quiver, d)
    ]
    w = Representation(quiver, field, d, maps)
    # every tuple of subspaces, zero-dimensional ones at heads and tails included
    for sub_dims in itertools.product(*(range(dv + 1) for dv in d)):
        for subspaces in itertools.product(*(grassmannian(field, dv, kv) for dv, kv in zip(d, sub_dims))):
            assert reps._is_subrepresentation(w, subspaces) == subrep_by_vector(w, subspaces)


@pytest.mark.parametrize("q", [2, 3])
def test_stable_implies_indecomposable(kron2, q):
    field = make_field(q)
    for w in all_representations(kron2, field, (1, 1)):
        if stability_verdict(w, (-1, 1)).kind == "stable":
            assert is_indecomposable(w)


# -- Krull-Schmidt at desk scale


def _multisets_summing_to(parts, target, start=0):
    """Multisets (with repetition) of indexed parts whose dims sum to target."""
    if all(x == 0 for x in target):
        yield ()
        return
    for i in range(start, len(parts)):
        dims = parts[i][0]
        if any(a > b for a, b in zip(dims, target)):
            continue
        remaining = tuple(b - a for a, b in zip(dims, target))
        for rest in _multisets_summing_to(parts, remaining, i):
            yield (i,) + rest


@pytest.mark.parametrize("quiver_name", ["jordan", "a2", "kron2"])
def test_krull_schmidt_total_dim_three(quiver_name, jordan, a2, kron2, f2):
    quiver = {"jordan": jordan, "a2": a2, "kron2": kron2}[quiver_name]
    n = len(quiver.vertices)
    all_dims = [
        d
        for d in itertools.product(range(4), repeat=n)
        if 1 <= sum(d) <= 3
    ]
    indec_parts = []
    classes = {}
    for d in all_dims:
        classes[d] = [w for w, _ in orbit_representatives(quiver, d, 2)]
        for w in classes[d]:
            if is_indecomposable(w):
                indec_parts.append((d, w))
    for d in all_dims:
        for w in classes[d]:
            matches = []
            for combo in _multisets_summing_to(indec_parts, d):
                total = reduce(direct_sum, (indec_parts[i][1] for i in combo))
                if are_isomorphic(w, total):
                    matches.append(combo)
            assert len(matches) == 1, (
                f"{quiver_name} d={d} class {w.entry_key()} has {len(matches)} decompositions"
            )
