from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverforge import (
    Quiver,
    ValidationError,
    classify_classes,
    is_generic,
    is_indivisible,
    kac_polynomial,
    kronecker_quiver,
    moduli_point_count,
    normalize_to_degree_zero,
    pairing,
    slope,
    trace_obstruction,
)
from quiverforge.quiver import iter_proper_subdims

vec2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
dim2 = st.tuples(st.integers(0, 4), st.integers(0, 4))


# -- construction and validation


def test_dangling_endpoint_rejected():
    with pytest.raises(ValidationError):
        Quiver(["1"], [("a", "1", "2")])


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationError):
        Quiver(["1"], [("a", "1", "1"), ("a", "1", "1")])


def test_disconnected_rejected():
    with pytest.raises(ValidationError):
        Quiver(["1", "2"], [])


def test_single_vertex_connected():
    Quiver(["1"], [])  # no arrows needed


# -- Euler, symmetrized, Tits forms


def test_euler_form_examples(jordan, kron2):
    assert jordan.euler_form((5,), (5,)) == 0
    assert kron2.euler_form((1, 1), (1, 1)) == 0
    for n in (1, 2, 3, 4):
        assert kronecker_quiver(n).euler_form((1, 1), (1, 1)) == 2 - n


def test_symmetrized_and_tits_examples(jordan, kron2):
    k1 = kronecker_quiver(1)
    assert k1.symmetrized_form((1, 0), (0, 1)) == -1
    assert jordan.tits_form((7,)) == 0
    assert kron2.tits_form((2, 1)) == 1


def test_index_mismatch_is_error(kron2):
    with pytest.raises(ValidationError):
        kron2.euler_form((1,), (1, 1))


@pytest.mark.parametrize("bad", [1.7, -1.5, 1.0, "2", True, False])
def test_vector_entries_are_never_truncated(kron2, bad):
    # each of these once read int(bad): 1.7 as 1, "2" as 2, True as 1
    refused = [
        lambda: kron2.check_dim((bad, 1)),
        lambda: kron2.check_vector((1, bad)),
        lambda: kron2.cartan().reflect(0, (bad, 1)),
        lambda: pairing((bad, 1), (1, 1)),
        lambda: pairing((1, 1), (1, bad)),
        lambda: is_generic((bad, 1), (1, 1)),
        lambda: slope((1, 1), (bad, 1)),
        lambda: normalize_to_degree_zero((bad, 1), (1, 1)),
        lambda: is_indivisible((bad, 1)),
        lambda: trace_obstruction((bad, 1), (1, 1), 3),
        lambda: kac_polynomial(kron2, (bad, 1)),
        lambda: moduli_point_count(kron2, (1, 1), (bad, 1), 3),
    ]
    for call in refused:
        with pytest.raises(ValidationError, match="must be integers"):
            call()


def test_numpy_integers_are_vector_entries(kron2):
    d = np.array([2, 1])
    theta = (np.int64(-1), np.int32(2))
    checked = kron2.check_dim(d)
    assert checked == (2, 1) and all(type(x) is int for x in checked)
    assert pairing(theta, d) == 0 and is_generic(theta, d)
    assert slope(theta, (1, 1)) == Fraction(1, 2)
    assert normalize_to_degree_zero(theta, (1, 1)) == (-3, 3)
    assert is_indivisible(d)
    assert kron2.cartan().reflect(0, np.array([0, 1])) == (2, 1)


@given(d=vec2, e=vec2, f=vec2)
def test_euler_bilinearity(kron2, d, e, f):
    lhs = kron2.euler_form([a + b for a, b in zip(d, e)], f)
    assert lhs == kron2.euler_form(d, f) + kron2.euler_form(e, f)
    rhs = kron2.euler_form(f, [a + b for a, b in zip(d, e)])
    assert rhs == kron2.euler_form(f, d) + kron2.euler_form(f, e)


@given(d=vec2)
def test_tits_orientation_independent(kron2, a2, d):
    for quiver in (kron2, a2):
        assert quiver.tits_form(d) == quiver.opposite().tits_form(d)


@given(d=vec2)
def test_doubling_symmetry(kron2, a2, d):
    for quiver in (kron2, a2):
        doubled = quiver.double()
        assert doubled.tits_form(d) == 2 * quiver.tits_form(d) - sum(x * x for x in d)


# -- doubling


def test_double_jordan(jordan):
    doubled = jordan.double()
    assert len(doubled.arrows) == 2
    assert doubled.star_pairing == {"a": "a*", "a*": "a"}


def test_double_kronecker(kron2):
    doubled = kron2.double()
    assert len(doubled.arrows) == 4
    backward = [a for a in doubled.arrows if a.tail == "2"]
    assert len(backward) == 2


def test_double_a2(a2):
    doubled = a2.double()
    assert {(a.tail, a.head) for a in doubled.arrows} == {("1", "2"), ("2", "1")}


def test_double_twice_rejected(a2):
    with pytest.raises(ValidationError):
        a2.double().double()


# -- genericity, slope, normalization


def test_is_generic_examples():
    assert is_generic((-1, 1), (1, 1))
    assert not is_generic((1, -1), (2, 2))  # theta.(1,1) = 0
    assert is_generic((0,), (1,))  # vacuous


@given(theta=vec2, d=dim2)
def test_generic_sign_symmetry(theta, d):
    assert is_generic(theta, d) == is_generic(tuple(-t for t in theta), d)


def test_slope_examples():
    from fractions import Fraction

    assert slope((1, 0), (1, 1)) == Fraction(1, 2)
    assert slope((-1, 1), (1, 1)) == 0
    with pytest.raises(ValidationError):
        slope((1, 1), (0, 0))


@given(theta=vec2, d=dim2)
def test_normalize_kills_pairing(theta, d):
    normalized = normalize_to_degree_zero(theta, d)
    assert sum(t * x for t, x in zip(normalized, d)) == 0


def test_normalize_example():
    assert normalize_to_degree_zero((1, 0), (1, 1)) == (1, -1)


def test_expected_moduli_dim(jordan, kron2):
    for n in (1, 2, 3):
        assert kronecker_quiver(n).expected_moduli_dim((1, 1)) == n - 1
    assert jordan.expected_moduli_dim((1,)) == 1
    assert kron2.expected_moduli_dim((2, 1)) == 0


# -- Cartan data, reflections, real roots


def test_cartan_kronecker(kron2):
    c = kron2.cartan()
    assert c.a == ((2, -2), (-2, 2))
    assert c.fundamental == (0, 1)
    assert c.reflect(0, (0, 1)) == (2, 1)


def test_cartan_jordan(jordan):
    c = jordan.cartan()
    assert c.a == ((0,),)
    assert c.fundamental == ()


def test_reflect_negates_own_root(kron2, a2):
    for quiver in (kron2, a2):
        c = quiver.cartan()
        for i in c.fundamental:
            alpha = tuple(1 if j == i else 0 for j in range(2))
            assert c.reflect(i, alpha) == tuple(-x for x in alpha)


def test_reflect_a2(a2):
    assert a2.cartan().reflect(0, (1, 1)) == (0, 1)


def test_reflect_at_loop_vertex_rejected(jordan):
    with pytest.raises(ValidationError):
        jordan.cartan().reflect(0, (1,))


@given(d=vec2)
def test_reflect_involution_and_form_invariance(kron2, a2, d):
    for quiver in (kron2, a2):
        c = quiver.cartan()
        for i in c.fundamental:
            assert c.reflect(i, c.reflect(i, d)) == tuple(d)
        for i in c.fundamental:
            rd = c.reflect(i, d)
            assert quiver.symmetrized_form(rd, rd) == quiver.symmetrized_form(d, d)


def test_real_roots_examples(jordan, kron2, a2):
    assert a2.real_roots_up_to((3, 3)) == {(1, 0), (0, 1), (1, 1)}
    assert jordan.real_roots_up_to((3,)) == set()
    assert kron2.real_roots_up_to((3, 3)) == {
        (1, 0),
        (0, 1),
        (2, 1),
        (1, 2),
        (3, 2),
        (2, 3),
    }


def test_real_roots_closed_under_inbound_reflection(kron2):
    bound = (3, 3)
    roots = kron2.real_roots_up_to(bound)
    c = kron2.cartan()
    for root in roots:
        for i in c.fundamental:
            image = c.reflect(i, root)
            if all(abs(x) <= b for x, b in zip(image, bound)) and all(x >= 0 for x in image) and any(image):
                assert image in roots


def test_a2_roots_match_indecomposable_dimensions(a2):
    # independent oracle: dimension vectors carrying an indecomposable over F_2
    roots = a2.real_roots_up_to((3, 3))
    with_indec = set()
    for dims in iter_proper_subdims((4, 4)):
        if sum(dims) == 0 or max(dims) > 3:
            continue
        if classify_classes(a2, dims, 2).indecomposable > 0:
            with_indec.add(dims)
    assert with_indec == roots
