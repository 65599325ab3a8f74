"""The small-instance acceptance suite.

Each criterion is an exact identity (integer/rational arithmetic, zero
tolerance) on desk-scale instances; ``quiverforge verify --suite small``
and tests/test_acceptance.py both run these functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import reps
from .counting import (
    check_galois_descent,
    classify_classes,
    hua_identity_check,
    kac_polynomial,
)
from .errors import DEFAULT_CAP
from .ffield import make_field
from .moduli import (
    betti_from_kac,
    cbvdb_identity_check,
    enumerate_level_set,
    lifting_fiber_check,
    trace_obstruction,
)
from .quiver import a2_quiver, jordan_quiver, kronecker_quiver
from .reps import all_representations, stability_verdict

# Jordan d=(3) at q=5 walks a 5^9-point representation space.
KAC_CAP = 2_500_000


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str


def _result(cid: int, name: str, failures: list[str]) -> CriterionResult:
    if failures:
        return CriterionResult(cid, name, False, "; ".join(failures))
    return CriterionResult(cid, name, True, "ok")


def criterion_1_kronecker_semistability() -> CriterionResult:
    failures = []
    for n in (1, 2, 3):
        quiver = kronecker_quiver(n)
        for q in (2, 3):
            field = make_field(q)
            for w in all_representations(quiver, field, (1, 1)):
                is_zero = all(m.is_zero() for m in w.maps)
                minus = stability_verdict(w, (-1, 1)).kind
                want_minus = "unstable" if is_zero else "stable"
                if minus != want_minus:
                    failures.append(f"n={n}, q={q}, W={w.entry_key()}: theta=(-1,1) gave {minus}")
                plus = stability_verdict(w, (1, -1)).kind
                if plus != "unstable":
                    failures.append(f"n={n}, q={q}, W={w.entry_key()}: theta=(1,-1) gave {plus}")
    return _result(1, "Kronecker semistable loci", failures)


def criterion_2_kac_polynomials() -> CriterionResult:
    failures = []
    cases = [
        (jordan_quiver(), (1,), [0, 1], DEFAULT_CAP),
        (jordan_quiver(), (2,), [0, 1], DEFAULT_CAP),
        (jordan_quiver(), (3,), [0, 1], KAC_CAP),
        (kronecker_quiver(2), (1, 1), [1, 1], DEFAULT_CAP),
        (kronecker_quiver(2), (2, 1), [1], DEFAULT_CAP),
        (a2_quiver(), (1, 1), [1], DEFAULT_CAP),
    ]
    for quiver, d, want, cap in cases:
        def brute_force(dd, qq):
            return classify_classes(quiver, dd, qq, cap=cap).absolutely_indecomposable

        poly = kac_polynomial(quiver, d, cap=cap, a_fn=brute_force)
        got = poly.integer_coefficients()
        if got != want:
            failures.append(f"{quiver!r} d={d}: coefficients {got}, expected {want}")
    return _result(2, "Kac polynomials by brute force + interpolation", failures)


def criterion_3_hua_identity() -> CriterionResult:
    failures = []
    cases = [
        (jordan_quiver(), 2, 2),
        (jordan_quiver(), 3, 2),
        (jordan_quiver(), 2, 3),
        (kronecker_quiver(2), 2, 2),
        (kronecker_quiver(2), 3, 2),
    ]
    for quiver, q, degree in cases:
        gap = hua_identity_check(quiver, q, degree)
        if gap != 0:
            failures.append(f"{quiver!r} q={q} D={degree}: discrepancy {gap}")
    return _result(3, "Krull-Schmidt generating identity", failures)


def criterion_4_galois_descent() -> CriterionResult:
    failures = []
    jordan = jordan_quiver()
    for q in (2, 3):
        want = q + (q * q - q) // 2
        got = check_galois_descent(jordan, (2,), q)
        if got != want:
            failures.append(f"Jordan d=(2) q={q}: I={got}, expected {want}")
    indivisible_cases = [
        (jordan, (1,), (2, 3)),
        (kronecker_quiver(2), (1, 1), (2, 3)),
        (kronecker_quiver(2), (2, 1), (2,)),
        (a2_quiver(), (1, 1), (2, 3)),
    ]
    # for indivisible d the descent sum is A(d, q); the check compares it with the brute-force I
    for quiver, d, qs in indivisible_cases:
        for q in qs:
            check_galois_descent(quiver, d, q)
    return _result(4, "Galois descent agrees with brute force", failures)


def criterion_5_point_count_identity() -> CriterionResult:
    failures = []
    level = enumerate_level_set(kronecker_quiver(2), (1, 1), (-1, 1), 5)
    if level != 120:
        failures.append(f"2-Kronecker level set at q=5: {level}, expected 120")
    cases = [
        (kronecker_quiver(2), (1, 1), (-1, 1), (3, 5, 7)),
        (a2_quiver(), (1, 1), (-1, 1), (2, 3, 5)),
        (jordan_quiver(), (1,), (0,), (2, 3, 5)),
    ]
    for quiver, d, theta, qs in cases:
        for q in qs:
            check = cbvdb_identity_check(quiver, d, theta, q)
            if not check.holds:
                failures.append(
                    f"{quiver!r} d={d} q={q}: |X| = {check.point_count}, "
                    f"q^e*A = {check.expected}"
                )
    return _result(5, "point-count identity |X(F_q)| = q^e A(q)", failures)


def criterion_6_lifting_fibers() -> CriterionResult:
    failures = []
    for quiver in (kronecker_quiver(2), a2_quiver()):
        for q in (2, 3):
            check = lifting_fiber_check(quiver, (1, 1), (-1, 1), q)
            if not check.holds:
                failures.append(
                    f"{quiver!r} q={q}: counterexample {check.counterexample}, "
                    f"fibers {check.fibers_total} vs level {check.level_count}"
                )
    return _result(6, "lifting fibers are q^(dim Ext^1) over indecomposables", failures)


def criterion_7_betti_extraction() -> CriterionResult:
    failures = []
    kron = kronecker_quiver(2)
    poly_11 = kac_polynomial(kron, (1, 1))
    report_11 = betti_from_kac(poly_11, kron.expected_moduli_dim((1, 1)))
    if report_11.betti != (1, 0, 1):
        failures.append(f"(1,1): betti {report_11.betti}, expected (1, 0, 1)")
    poly_21 = kac_polynomial(kron, (2, 1))
    report_21 = betti_from_kac(poly_21, kron.expected_moduli_dim((2, 1)))
    if report_21.betti != (1,):
        failures.append(f"(2,1): betti {report_21.betti}, expected (1,)")
    for report, poly in ((report_11, poly_11), (report_21, poly_21)):
        if any(b < 0 for b in report.betti):
            failures.append(f"negative Betti number in {report.betti}")
        if sum(report.betti) != poly(1):
            failures.append(f"sum {sum(report.betti)} != A(1) = {poly(1)}")
    return _result(7, "Betti numbers from counting polynomials", failures)


def _end_counts(w) -> tuple[int, int, int]:
    """(dim End(W), units, nilpotents) from one walk of End(W); the
    nilpotents are counted apart from the unit test."""
    basis = reps.hom_space(w, w).basis
    shapes = [(dv, dv) for dv in w.d]
    units = nilpotents = 0
    for fs in reps._iter_span(basis, w.field, shapes, DEFAULT_CAP, "endomorphism-ring enumeration"):
        units += reps._is_unit(fs)
        nilpotents += all(m.is_nilpotent() for m in fs)
    return len(basis), units, nilpotents


def criterion_8_endomorphism_ratio() -> CriterionResult:
    """W is absolutely indecomposable iff End(W) has q^(dim End - 1)
    nilpotents (M_n(F_Q) has Q^(n^2 - n), Fine-Herstein; nilpotents lift
    along End(W) -> End(W)/J)."""
    failures = []
    quivers = {
        "jordan": (jordan_quiver(), [(1,), (2,)]),
        "kronecker-2": (kronecker_quiver(2), [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]),
        "a2": (a2_quiver(), [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]),
    }
    for label, (quiver, dims) in quivers.items():
        for q in (2, 3):
            field = make_field(q)
            checked = 0
            for d in dims:
                for w in all_representations(quiver, field, d):
                    dim_end, units, nilpotents = _end_counts(w)
                    if nilpotents != q ** (dim_end - 1):
                        continue
                    checked += 1
                    if Fraction(q**dim_end, units) != Fraction(q, q - 1):
                        failures.append(
                            f"{label} d={d} q={q} W={w.entry_key()}: "
                            f"|End|/|Aut| != q/(q-1)"
                        )
            if not checked:
                failures.append(f"{label} q={q}: no absolutely indecomposable W checked")
    return _result(8, "|End|/|Aut| = q/(q-1) for absolutely indecomposables", failures)


def criterion_9_weyl_orientation_invariance() -> CriterionResult:
    failures = []
    kron = kronecker_quiver(2)
    for q in (2, 3):
        a_21 = classify_classes(kron, (2, 1), q).absolutely_indecomposable
        a_01 = classify_classes(kron, (0, 1), q).absolutely_indecomposable
        if not (a_21 == a_01 == 1):
            failures.append(f"2-Kronecker q={q}: A(2,1)={a_21}, A(0,1)={a_01}, expected 1")
    a2 = a2_quiver()
    opposite = a2.opposite()
    for q in (2, 3):
        lhs = classify_classes(a2, (1, 1), q).absolutely_indecomposable
        rhs = classify_classes(opposite, (1, 1), q).absolutely_indecomposable
        if lhs != rhs:
            failures.append(f"A_2 vs opposite at q={q}: {lhs} != {rhs}")
    return _result(9, "Weyl and orientation invariance of the counts", failures)


def criterion_10_trace_obstruction() -> CriterionResult:
    failures = []
    eta, d = (1, 0), (1, 1)
    for p in (2, 3):
        if trace_obstruction(eta, d, p):
            failures.append(f"eta={eta}, d={d}, p={p}: obstruction not detected")
        for quiver in (kronecker_quiver(2), a2_quiver()):
            level = enumerate_level_set(quiver, d, eta, p)
            if level != 0:
                failures.append(f"{quiver!r} p={p}: level set {level}, expected empty")
    return _result(10, "trace obstruction empties the level set", failures)


ALL_CRITERIA = (
    criterion_1_kronecker_semistability,
    criterion_2_kac_polynomials,
    criterion_3_hua_identity,
    criterion_4_galois_descent,
    criterion_5_point_count_identity,
    criterion_6_lifting_fibers,
    criterion_7_betti_extraction,
    criterion_8_endomorphism_ratio,
    criterion_9_weyl_orientation_invariance,
    criterion_10_trace_obstruction,
)


def run_suite(suite: str = "small") -> list[CriterionResult]:
    if suite != "small":
        from .errors import ValidationError

        raise ValidationError(f"unknown suite {suite!r}")
    return [fn() for fn in ALL_CRITERIA]
