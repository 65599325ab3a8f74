"""Exact linear algebra over finite fields F_{p^k}.

Field elements are plain integers in ``0..q-1``: the residue polynomial
``sum_i c_i x^i`` is encoded as the base-p integer ``sum_i c_i p^i``.  The
modulus is chosen deterministically (see :func:`smallest_irreducible`), so
serialized results are reproducible across runs and machines.

Prime fields use ordinary modular arithmetic.  Extension fields have one
arithmetic path at every q: residue-polynomial arithmetic, memoised per field
on first use (a pair of operands is keyed ``a*q + b``), so building a field
does no arithmetic.

A matrix's shape is stored, never inferred from its rows: an ``FqMatrix``
with no rows still has its column count, and every operation carries the
shape of its result through.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import ConsistencyError, SingularMatrixError, ValidationError

def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k, or None if n is not a prime power; trial
    division, exact and fast at this scale."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            return (p, k) if n == 1 else None
        p += 1
    return (n, 1)


def is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


# ---------------------------------------------------------------------------
# polynomial helpers over F_p; coefficient lists are low degree first


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < dm:
            break
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * c) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_is_irreducible(f: list[int], p: int) -> bool:
    """f monic of degree >= 1: no monic factor of degree 1..deg//2."""
    deg = len(f) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            g = list(lower) + [1]
            if not _poly_mod(f, g, p):
                return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible of degree k over F_p.

    Candidates x^k + c_{k-1} x^{k-1} + ... + c_0 are ordered by the word
    (c_{k-1}, ..., c_0), i.e. by the base-p integer built from the
    non-leading coefficients, highest degree most significant.  For k = 1
    that is x itself, returned without a search.
    """
    if k == 1:
        return (0, 1)
    for word in itertools.product(range(p), repeat=k):
        f = list(reversed(word)) + [1]
        if _poly_is_irreducible(f, p):
            return tuple(f)
    raise ConsistencyError(f"no irreducible of degree {k} over F_{p}")  # pragma: no cover


class Field:
    """The field with q = p^k elements, with deterministic modulus."""

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        if k < 1:
            raise ValidationError(f"extension degree must be >= 1, got {k}")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = smallest_irreducible(p, k)
        # extension-field results, filled on first use; pairs keyed a*q + b
        self._sums: dict[int, int] = {}
        self._products: dict[int, int] = {}
        self._negatives: dict[int, int] = {}
        self._inverses: dict[int, int] = {}

    # -- construction helpers

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digits of a: the residue polynomial's coefficients."""
        out = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        a = 0
        for c in reversed(list(cs)):
            a = a * self.p + (c % self.p)
        return a

    # -- arithmetic on encoded elements

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        key = a * self.q + b
        try:
            return self._sums[key]
        except KeyError:
            s = self.from_coeffs(x + y for x, y in zip(self.coeffs(a), self.coeffs(b)))
            self._sums[key] = s
            return s

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        try:
            return self._negatives[a]
        except KeyError:
            n = self.from_coeffs(-c for c in self.coeffs(a))
            self._negatives[a] = n
            return n

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        key = a * self.q + b
        try:
            return self._products[key]
        except KeyError:
            prod = _poly_mul(list(self.coeffs(a)), list(self.coeffs(b)), self.p)
            m = self.from_coeffs(_poly_mod(prod, list(self.modulus), self.p))
            self._products[key] = m
            return m

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        try:
            return self._inverses[a]
        except KeyError:
            i = self.pow_(a, self.q - 2)
            self._inverses[a] = i
            return i

    def pow_(self, a: int, e: int) -> int:
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a: int) -> int:
        return self.pow_(a, self.p)

    def elements(self) -> range:
        return range(self.q)

    def primitive_element(self) -> int:
        """Smallest generator of the unit group (identity element for q = 2)."""
        if self.q == 2:
            return 1
        for a in range(2, self.q):
            x, order = a, 1
            while x != 1:
                x = self.mul(x, a)
                order += 1
            if order == self.q - 1:
                return a
        raise ConsistencyError("no primitive element found")  # pragma: no cover

    def embed_into(self, other: "Field") -> list[int]:
        """Table of the canonical inclusion into F_{p^{km}}.

        The generator of this field is sent to the smallest root of this
        field's modulus inside ``other``; that pins the embedding down
        deterministically.
        """
        if other.p != self.p or other.k % self.k != 0:
            raise ValidationError(
                f"F_{self.q} does not embed into F_{other.q} as constructed"
            )
        if other.k == self.k:
            return list(range(self.q))
        root = None
        for b in other.elements():
            acc = 0
            for c in reversed(self.modulus):
                acc = other.add(other.mul(acc, b), c % self.p)
            if acc == 0:
                root = b
                break
        if root is None:  # pragma: no cover
            raise ConsistencyError("modulus has no root in the extension")
        table = []
        for a in range(self.q):
            img, power = 0, 1
            for c in self.coeffs(a):
                img = other.add(img, other.mul(c, power))
                power = other.mul(power, root)
            table.append(img)
        return table

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"Field(p={self.p}, k={self.k})"


@lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> Field:
    """Deterministic field constructor; caches so fields compare by identity too."""
    return Field(p, k)


def field_from_order(q: int) -> Field:
    """The field with q elements; refuses a q that is not a prime power."""
    pk = prime_power(q)
    if pk is None:
        raise ValidationError(f"{q} is not a prime power")
    return make_field(*pk)


# ---------------------------------------------------------------------------
# dense matrices


class FqMatrix:
    """Immutable dense matrix over a Field; entries are encoded integers.

    The shape is stored, not read off the rows, so a matrix with no rows
    keeps its column count.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries):
        """The matrix whose rows are ``entries``; with no rows it is 0 x 0."""
        self.field = field
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValidationError("matrix rows differ in length")

    @classmethod
    def _of(cls, field: Field, rows: int, cols: int, entries: tuple) -> "FqMatrix":
        """The rows x cols matrix with ``entries``, a tuple of ``rows`` row
        tuples of length ``cols`` each, taken as given."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "FqMatrix":
        return cls._of(field, rows, cols, ((0,) * cols,) * rows)

    @classmethod
    def identity(cls, field: Field, n: int) -> "FqMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_flat(cls, field: Field, rows: int, cols: int, flat) -> "FqMatrix":
        flat = tuple(flat)
        if len(flat) != rows * cols:
            raise ValidationError("flat entry count does not match the shape")
        return cls._of(field, rows, cols, tuple([flat[i * cols : (i + 1) * cols] for i in range(rows)]))

    def flat(self) -> tuple[int, ...]:
        return tuple(x for row in self.entries for x in row)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _entrywise(self, op, other: "FqMatrix") -> "FqMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("matrix shape mismatch in sum")
        entries = tuple([tuple([op(a, b) for a, b in zip(r1, r2)]) for r1, r2 in zip(self.entries, other.entries)])
        return FqMatrix._of(self.field, self.rows, self.cols, entries)

    def add(self, other: "FqMatrix") -> "FqMatrix":
        return self._entrywise(self.field.add, other)

    def sub(self, other: "FqMatrix") -> "FqMatrix":
        return self._entrywise(self.field.sub, other)

    def neg(self) -> "FqMatrix":
        f = self.field
        return FqMatrix._of(f, self.rows, self.cols, tuple([tuple([f.neg(a) for a in row]) for row in self.entries]))

    def scale(self, c: int) -> "FqMatrix":
        f = self.field
        return FqMatrix._of(f, self.rows, self.cols, tuple([tuple([f.mul(c, a) for a in row]) for row in self.entries]))

    def mul(self, other: "FqMatrix") -> "FqMatrix":
        if self.cols != other.rows:
            raise ValidationError("matrix shape mismatch in product")
        f = self.field
        oT = [[row[j] for row in other.entries] for j in range(other.cols)]
        out = []
        for row in self.entries:
            new = []
            for col in oT:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = f.add(acc, f.mul(a, b))
                new.append(acc)
            out.append(tuple(new))
        return FqMatrix._of(f, self.rows, other.cols, tuple(out))

    def apply(self, vec) -> tuple[int, ...]:
        """Matrix times column vector."""
        f = self.field
        out = []
        for row in self.entries:
            acc = 0
            for a, b in zip(row, vec):
                if a and b:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "FqMatrix":
        columns = tuple([tuple([row[j] for row in self.entries]) for j in range(self.cols)])
        return FqMatrix._of(self.field, self.cols, self.rows, columns)

    def matpow(self, e: int) -> "FqMatrix":
        if not self.is_square():
            raise ValidationError("matrix power needs a square matrix")
        result = FqMatrix.identity(self.field, self.rows)
        base = self
        while e:
            if e & 1:
                result = result.mul(base)
            base = base.mul(base)
            e >>= 1
        return result

    # -- Gaussian elimination

    def rref(self) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column indices)."""
        f = self.field
        m = [list(row) for row in self.entries]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = f.inv(m[r][c])
            m[r] = [f.mul(inv, x) for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    factor = m[i][c]
                    m[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Basis of {x : Mx = 0}, one vector per free column, in column order."""
        f = self.field
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = [0] * self.cols
            v[free] = 1
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(rows[r][free])
            basis.append(tuple(v))
        return basis

    def det(self) -> int:
        if not self.is_square():
            raise ValidationError("determinant needs a square matrix")
        f = self.field
        m = [list(row) for row in self.entries]
        n = self.rows
        det = 1
        for c in range(n):
            pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
            if pivot_row is None:
                return 0
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                det = f.neg(det)
            det = f.mul(det, m[c][c])
            inv = f.inv(m[c][c])
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    factor = f.mul(inv, m[i][c])
                    m[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(m[i], m[c])]
        return det

    def is_invertible(self) -> bool:
        return self.is_square() and self.det() != 0

    def inverse(self) -> "FqMatrix":
        if not self.is_square():
            raise SingularMatrixError("inverse needs a square matrix")
        f = self.field
        n = self.rows
        unit = FqMatrix.identity(f, n).entries
        aug = FqMatrix._of(f, n, 2 * n, tuple([a + b for a, b in zip(self.entries, unit)]))
        rows, pivots = aug.rref()
        if pivots != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return FqMatrix._of(f, n, n, tuple([tuple(row[n:]) for row in rows]))

    def is_nilpotent(self) -> bool:
        if not self.is_square():
            raise ValidationError("nilpotency needs a square matrix")
        return self.matpow(self.rows).is_zero()

    def trace(self) -> int:
        f = self.field
        acc = 0
        for i in range(min(self.rows, self.cols)):
            acc = f.add(acc, self.entries[i][i])
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, FqMatrix)
            and self.field == other.field
            and self.entries == other.entries
            and (self.rows, self.cols) == (other.rows, other.cols)
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"FqMatrix(F{self.field.q}, {list(map(list, self.entries))})"


# ---------------------------------------------------------------------------
# group orders, GL generators, Grassmannians


def gl_order(d, q: int) -> int:
    """|GL_d(F_q)| for a tuple of block sizes d."""
    total = 1
    for n in d:
        qn = q**n
        for i in range(n):
            total *= qn - q**i
    return total


def g_order(d, q: int) -> int:
    """|G_d(F_q)| for G_d = GL_d / (diagonal scalars), d nonzero."""
    if not any(d):
        raise ValidationError(f"d={tuple(d)} is zero; G_d needs a nonzero d")
    order, rem = divmod(gl_order(d, q), q - 1)
    if rem:  # pragma: no cover - q-1 divides q^n - 1, a factor of gl_order for d != 0
        raise ConsistencyError("gl_order not divisible by q-1")
    return order


def gl_generators(field: Field, n: int) -> list[FqMatrix]:
    """A generating set of GL_n(F_q): adjacent transpositions, one
    transvection, and diag(zeta, 1, ..., 1) for a primitive zeta."""
    if n == 0:
        return []
    gens: list[FqMatrix] = []
    zeta = field.primitive_element()
    if zeta != 1:
        diag = [[zeta if i == j == 0 else (1 if i == j else 0) for j in range(n)] for i in range(n)]
        gens.append(FqMatrix(field, diag))
    if n >= 2:
        for i in range(n - 1):
            perm = [[1 if (j == k and j not in (i, i + 1)) or {j, k} == {i, i + 1} else 0 for k in range(n)] for j in range(n)]
            gens.append(FqMatrix(field, perm))
        shear = [[1 if i == j else (1 if (i, j) == (0, 1) else 0) for j in range(n)] for i in range(n)]
        gens.append(FqMatrix(field, shear))
    return gens


def grassmannian(field: Field, n: int, k: int):
    """All k-dimensional subspaces of F_q^n as canonical RREF matrices.

    Pivot-column sets are walked in lexicographic order, free entries in
    counting order, so the stream is deterministic and duplicate-free.
    """
    if k < 0 or k > n:
        return
    for pivots in itertools.combinations(range(n), k):
        free_positions = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, n)
            if c not in pivots
        ]
        for values in itertools.product(field.elements(), repeat=len(free_positions)):
            m = [[0] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                m[r][p] = 1
            for (r, c), v in zip(free_positions, values):
                m[r][c] = v
            yield FqMatrix(field, m)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den
