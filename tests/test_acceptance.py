"""Acceptance gate: every criterion, exact arithmetic, zero tolerance.

Each test prints one PASS/FAIL line; the same functions back the
``quiverforge verify --suite small`` command.
"""

import pytest

from quiverforge import acceptance, reps
from quiverforge import a2_quiver, all_representations, is_absolutely_indecomposable
from quiverforge import jordan_quiver, kronecker_quiver, make_field
from quiverforge.acceptance import ALL_CRITERIA, criterion_8_endomorphism_ratio


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_acceptance_criterion(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.cid}: {result.name}")
    assert result.passed, f"criterion {result.cid} ({result.name}): {result.detail}"


def test_criterion_8_sees_a_unit_count_that_misses_units(monkeypatch):
    # over F_3 the unit test misses every unit with a determinant-2 component
    is_unit = reps._is_unit

    def misses_det_2(fs):
        return is_unit(fs) and not (fs[0].field.q == 3 and any(m.det() == 2 for m in fs))

    monkeypatch.setattr(reps, "_is_unit", misses_det_2)
    result = criterion_8_endomorphism_ratio()
    assert not result.passed
    assert "q=3" in result.detail and "q=2" not in result.detail


def test_criterion_8_fails_when_a_pair_checks_nothing(monkeypatch):
    monkeypatch.setattr(acceptance, "_end_counts", lambda w: (1, w.field.q - 1, 0))
    result = criterion_8_endomorphism_ratio()
    assert not result.passed
    assert "jordan q=2: no absolutely indecomposable W checked" in result.detail


@pytest.mark.parametrize("q", [2, 3, 4])
def test_nilpotent_count_selects_the_absolutely_indecomposables(q):
    # End(W) has q^(dim End - 1) nilpotents iff W is absolutely indecomposable
    field = make_field(*{2: (2,), 3: (3,), 4: (2, 2)}[q])
    cases = [
        (jordan_quiver(), [(1,), (2,)]),
        (kronecker_quiver(2), [(1, 1), (2, 1)]),
        (a2_quiver(), [(1, 1), (2, 0)]),
    ]
    selected = 0
    for quiver, dims in cases:
        for d in dims:
            for w in all_representations(quiver, field, d):
                dim_end, units, nilpotents = acceptance._end_counts(w)
                chosen = nilpotents == q ** (dim_end - 1)
                assert chosen == is_absolutely_indecomposable(w), w
                selected += chosen
    assert selected
