import itertools
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverforge import FqMatrix, ValidationError, gl_order, g_order, make_field
from quiverforge import ffield
from quiverforge.errors import SingularMatrixError
from quiverforge.ffield import (
    Field,
    field_from_order,
    _poly_is_irreducible,
    gaussian_binomial,
    gl_generators,
    grassmannian,
    is_prime,
    prime_power,
)
from brute_force import all_matrices, primitive_element_by_orders


# -- field construction


def test_make_field_examples():
    assert make_field(2, 1).modulus == (0, 1)  # modulus x
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    with pytest.raises(ValidationError):
        make_field(4)
    with pytest.raises(ValidationError):
        make_field(5, 0)


def test_field_from_order_factors_a_fresh_prime_once():
    # a prime no other test uses: factoring it, then Field's primality test
    # of p = q, then every later call read one trial division
    q = 999999937
    calls = ffield.prime_power.cache_info().misses
    divisions = ffield._least_prime_factor.cache_info().misses
    field = field_from_order(q)
    assert field_from_order(q) is field is make_field(q) is make_field(q, 1) is make_field(p=q, k=1)
    assert is_prime(q)
    assert ffield.prime_power.cache_info().misses == calls + 1
    assert ffield._least_prime_factor.cache_info().misses == divisions + 1


def test_large_prime_field_needs_no_modulus_search():
    # a search over the p degree-1 candidates would not fit in memory
    field = make_field(4294967291)
    assert field.modulus == (0, 1)
    assert field.mul(field.p - 1, field.p - 1) == 1


def test_f4_modulus_is_unique_irreducible():
    # oracle: exhaust the four monic quadratics over F_2
    irreducible = [
        (c0, c1)
        for c0, c1 in itertools.product((0, 1), repeat=2)
        if _poly_is_irreducible([c0, c1, 1], 2)
    ]
    assert irreducible == [(1, 1)]


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 10), (3, 7)])
def test_field_axioms_sampled(p, k):
    field = make_field(p, k)
    q = field.q

    @given(
        a=st.integers(0, q - 1),
        b=st.integers(0, q - 1),
        c=st.integers(0, q - 1),
    )
    def inner(a, b, c):
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == 0
        if a != 0:
            assert field.mul(a, field.inv(a)) == 1

    inner()


def test_building_a_field_does_no_arithmetic(monkeypatch):
    calls = []
    original = ffield._poly_mul

    def counted(a, b, p):
        calls.append((a, b))
        return original(a, b, p)

    monkeypatch.setattr(ffield, "_poly_mul", counted)
    field = Field(2, 9)
    assert calls == []
    assert field.mul(2, 2) == 4  # x * x = x^2, below the degree-9 modulus
    assert len(calls) == 1
    assert field.mul(2, 2) == 4  # memoised
    assert len(calls) == 1


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 10), (3, 7)])
def test_extension_arithmetic_matches_residue_polynomials(p, k):
    # oracle: multiply and reduce the residue polynomials by hand
    field = make_field(p, k)
    modulus = list(field.modulus)

    @given(a=st.integers(0, field.q - 1), b=st.integers(0, field.q - 1))
    def inner(a, b):
        ca, cb = field.coeffs(a), field.coeffs(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] += x * y
        for top in range(2 * k - 2, k - 1, -1):
            lead, prod[top] = prod[top], 0
            for i, c in enumerate(modulus[:-1]):
                prod[top - k + i] -= lead * c
        assert field.mul(a, b) == field.from_coeffs(prod[:k])
        assert field.add(a, b) == field.from_coeffs(x + y for x, y in zip(ca, cb))
        assert field.neg(a) == field.from_coeffs(-x for x in ca)
        assert field.sub(a, b) == field.from_coeffs(x - y for x, y in zip(ca, cb))

    inner()


def test_embedding_is_a_field_homomorphism():
    small = make_field(2, 1)
    big = make_field(2, 2)
    table = small.embed_into(big)
    for a in small.elements():
        for b in small.elements():
            assert table[small.add(a, b)] == big.add(table[a], table[b])
            assert table[small.mul(a, b)] == big.mul(table[a], table[b])
    f4_to_f16 = make_field(2, 2).embed_into(make_field(2, 4))
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    for a in f4.elements():
        for b in f4.elements():
            assert f4_to_f16[f4.mul(a, b)] == f16.mul(f4_to_f16[a], f4_to_f16[b])
            assert f4_to_f16[f4.add(a, b)] == f16.add(f4_to_f16[a], f4_to_f16[b])


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_and_prime_power_match_a_sieve():
    limit = 5000
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, limit):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, limit, p))
    powers = {}
    for p in range(2, limit):
        if sieve[p]:
            n, k = p, 1
            while n < limit:
                powers[n] = (p, k)
                n, k = n * p, k + 1
    for n in range(limit):
        assert is_prime(n) == sieve[n], n
        assert prime_power(n) == powers.get(n), n


def test_factorisation_multiplies_back_to_n_over_primes():
    for n in range(1, 2000):
        factors = ffield.factorisation(n)
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
        assert all(is_prime(p) and k >= 1 for p, k in factors)
        assert prod(p**k for p, k in factors) == n
    with pytest.raises(ValidationError):
        ffield.factorisation(0)


def test_primitive_element_matches_the_order_walk_below_3000():
    orders = [q for q in range(2, 3000) if prime_power(q)]
    assert len(orders) == 466
    for q in orders:
        field = field_from_order(q)
        assert field.primitive_element() == primitive_element_by_orders(field), q


def test_primitive_element_of_f_3_10_misses_every_maximal_subgroup():
    # q - 1 = 59048 = 2^3 11^2 61: zeta lies in no subgroup of index 2, 11 or 61
    field = field_from_order(3**10)
    zeta = field.primitive_element()
    assert [r for r, _ in ffield.factorisation(field.q - 1)] == [2, 11, 61]
    for r in (2, 11, 61):
        assert field.pow_(zeta, (field.q - 1) // r) != 1
    assert field.pow_(zeta, field.q - 1) == 1


# -- matrices


def test_identity_rank_det(f3):
    m = FqMatrix.identity(f3, 3)
    assert m.rank() == 3
    assert m.det() == 1
    assert m.inverse() == m


def test_strict_upper_triangular_nilpotent(f2):
    assert FqMatrix(f2, [[0, 1], [0, 0]]).is_nilpotent()
    assert not FqMatrix(f2, [[1, 1], [0, 0]]).is_nilpotent()


def test_companion_matrix_by_hand_oracle(f2):
    # companion of x^2 + x + 1; square and cube it by hand
    m = FqMatrix(f2, [[0, 1], [1, 1]])
    m2 = m.mul(m)
    assert m2.entries == ((1, 1), (1, 0))  # m^2 = m + 1
    m3 = m2.mul(m)
    assert m3.entries == ((1, 0), (0, 1))  # m^3 = 1, so not nilpotent
    assert not m.is_nilpotent()
    assert m.det() == 1


def test_inverse_round_trip(f3):
    m = FqMatrix(f3, [[1, 2, 0], [0, 1, 1], [1, 0, 2]])
    assert m.det() == 1
    assert m.mul(m.inverse()) == FqMatrix.identity(f3, 3)


@pytest.mark.parametrize("p,k", [(2, 10), (3, 7)])
def test_inverse_round_trip_above_512(p, k):
    field = make_field(p, k)
    q = field.q

    @given(flat=st.lists(st.integers(0, q - 1), min_size=9, max_size=9))
    def inner(flat):
        m = FqMatrix.from_flat(field, 3, 3, flat)
        if m.det() == 0:
            return
        identity = FqMatrix.identity(field, 3)
        assert m.mul(m.inverse()) == identity
        assert m.inverse().mul(m) == identity
        assert m.inverse().inverse() == m

    inner()


def test_singular_inverse_is_error(f3):
    with pytest.raises(SingularMatrixError):
        FqMatrix(f3, [[1, 1], [2, 2]]).inverse()


def _leibniz_det(field, entries) -> int:
    """Sum over permutations s of sign(s) prod_i m[i][s(i)]."""
    n = len(entries)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = field.mul(term, entries[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = field.add(total, field.neg(term) if inversions % 2 else term)
    return total


def _row_span(field, rows, cols) -> set:
    """Every linear combination of ``rows``, enumerated one row at a time."""
    span = {(0,) * cols}
    for row in rows:
        span = {
            tuple(field.add(x, field.mul(c, y)) for x, y in zip(vec, row))
            for vec in span
            for c in field.elements()
        }
    return span


@pytest.mark.parametrize("q", [2, 3, 4])
def test_elimination_matches_brute_oracles(q):
    # exhaustive over every shape up to 3 x 3 with q^(rows*cols) <= 10^4,
    # the empty shapes with no rows or no columns included
    field = ffield.field_from_order(q)
    shapes = [(r, c) for r in range(4) for c in range(4) if q ** (r * c) <= 10**4]
    for rows, cols in shapes:
        for m in all_matrices(field, rows, cols):
            entries = m.entries
            span = _row_span(field, entries, cols)
            rank = m.rank()
            assert q**rank == len(span)
            reduced, pivots = m.rref()
            assert len(pivots) == rank
            assert m.pivot_columns() == pivots
            # the in-place loop on the caller's own rows: the same pivots, an
            # echelon form of the same row space, and the det of the matrix route
            own = [list(row) for row in entries]
            own_pivots, own_det = ffield._eliminate(field, own, cols)
            assert own_pivots == pivots and _row_span(field, own, cols) == span
            assert all(not any(row) for row in own[rank:])
            if rows == cols:
                assert (own_det if rank == rows else 0) == m.det()
            assert _row_span(field, reduced, cols) == span
            assert all(not any(row) for row in reduced[rank:])
            for r, c in enumerate(pivots):
                assert reduced[r][:c] == [0] * c and reduced[r][c] == 1
                assert all(reduced[i][c] == 0 for i in range(rows) if i != r)
            assert pivots == sorted(set(pivots))
            if rows != cols:
                assert m.entries is entries
                continue
            det = m.det()
            assert det == _leibniz_det(field, m.entries)
            if det == 0:
                with pytest.raises(SingularMatrixError):
                    m.inverse()
            else:
                assert m.inverse().mul(m) == FqMatrix.identity(field, rows)
            # the matrix route eliminated a copy: the matrix keeps its entries
            assert m.entries is entries


@pytest.mark.parametrize("p,k,rows,cols", [(2, 1, 3, 4), (3, 1, 4, 3), (2, 2, 3, 3)])
def test_rank_nullity_sampled(p, k, rows, cols):
    field = make_field(p, k)
    q = field.q

    @given(flat=st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols))
    def inner(flat):
        m = FqMatrix.from_flat(field, rows, cols, flat)
        kernel = m.kernel_basis()
        assert m.rank() + len(kernel) == cols
        for vec in kernel:
            assert all(x == 0 for x in m.apply(vec))

    inner()


def test_zero_size_matrices(f2):
    empty = FqMatrix.zeros(f2, 0, 0)
    assert empty.det() == 1
    assert empty.is_invertible()
    assert empty.is_nilpotent()
    wide = FqMatrix.zeros(f2, 0, 3)
    assert wide.rank() == 0
    assert len(wide.kernel_basis()) == 3
    tall = FqMatrix.zeros(f2, 3, 0)
    # an inner dimension of 0 gives the zero matrix of the outer shape
    assert tall.mul(wide) == FqMatrix.zeros(f2, 3, 3)
    assert tall.mul(wide).entries == ((0, 0, 0),) * 3


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (0, 0), (2, 3)])
def test_elementwise_ops_keep_the_shape(f3, rows, cols):
    zero = FqMatrix.zeros(f3, rows, cols)
    for result in (zero.add(zero), zero.sub(zero), zero.scale(1), zero.scale(2)):
        assert (result.rows, result.cols) == (rows, cols)
        assert result == zero
    assert FqMatrix.from_flat(f3, rows, cols, [0] * (rows * cols)) == zero
    with pytest.raises(ValidationError, match="shape mismatch"):
        zero.add(FqMatrix.zeros(f3, rows, cols + 1))


def test_ragged_rows_are_refused(f3):
    with pytest.raises(ValidationError, match="differ in length"):
        FqMatrix(f3, [[1, 2], [3]])
    with pytest.raises(ValidationError, match="differ in length"):
        FqMatrix(f3, [[1], [2, 0]])
    assert FqMatrix(f3, []).cols == 0


# -- group orders


def test_gl_order_examples():
    assert gl_order((1,), 7) == 6
    assert g_order((1,), 7) == 1
    assert gl_order((2,), 2) == 6
    assert g_order((1, 1), 5) == 4


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("d", [(0,), (0, 0)])
def test_g_order_refuses_zero_d_at_every_q(d, q):
    # once answered 1 at q = 2 but raised ConsistencyError at q = 3
    with pytest.raises(ValidationError, match=r"is zero; G_d needs a nonzero d"):
        g_order(d, q)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("d", [(1,), (2,), (1, 1)])
def test_gl_order_matches_rank_oracle(d, q):
    # independent oracle: count full-rank square tuples by row reduction
    field = make_field(q)
    count = 1
    for n in d:
        count *= sum(1 for m in all_matrices(field, n, n) if m.rank() == n)
    assert count == gl_order(d, q)


@pytest.mark.parametrize("p,k,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)])
def test_gl_generators_generate(p, k, n):
    field = make_field(p, k)
    gens = gl_generators(field, n)
    seen = {FqMatrix.identity(field, n).entries}
    frontier = list(seen)
    while frontier:
        entries = frontier.pop()
        m = FqMatrix(field, entries)
        for g, _, _ in gens:
            image = g.mul(m).entries
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    assert len(seen) == gl_order((n,), field.q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_gl_generators_come_with_their_inverses(q):
    field = field_from_order(q)
    for n in range(4):
        identity = FqMatrix.identity(field, n)
        for g, g_inv, _ in gl_generators(field, n):
            assert g.mul(g_inv) == identity
            assert g_inv.mul(g) == identity


@pytest.mark.parametrize("q", [2, 5, 4, 8, 9, 25])
def test_gl_generators_state_their_orders(q):
    # the order is exact: g^order = I, and g^(order/r) != I for each prime r | order
    field = field_from_order(q)
    for n in range(1, 4):
        identity = FqMatrix.identity(field, n)
        gens = gl_generators(field, n)
        for g, _, order in gens:
            assert g.matpow(order) == identity
            for r in range(2, order + 1):
                if order % r == 0 and is_prime(r):
                    assert g.matpow(order // r) != identity
        # zeta has order q - 1, a transposition 2 and the transvection p, which
        # differs from q - 1 in every extension field here
        expected = ([q - 1] if q > 2 else []) + [2] * (n - 1) + ([field.p] if n >= 2 else [])
        assert [order for _, _, order in gens] == expected


# -- subspace enumeration


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 3, 1), (2, 3, 3), (3, 2, 0)])
def test_grassmannian_count_and_canonicity(q, n, k):
    field = make_field(q)
    seen = []
    for m in grassmannian(field, n, k):
        assert m.rank() == k
        rref_rows, _ = m.rref()
        assert [list(r) for r in m.entries] == rref_rows  # already canonical
        seen.append(m.entries)
    assert len(seen) == len(set(seen)) == gaussian_binomial(n, k, q)

