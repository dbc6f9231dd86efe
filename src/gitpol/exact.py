"""Exact dense linear algebra over the rationals.

Scalars are arbitrary-precision `fractions.Fraction` values (always in lowest
terms with positive denominator), matrices are dense row-major grids of them.
Elimination uses deterministic first-nonzero pivoting, so ranks, kernels,
column spaces and solved systems are reproducible bit for bit.  Nothing in
this module (or the package) ever rounds.

Kronecker factors with an identity, X (x) I_n and I_n (x) X, are applied
implicitly by `mul_kron_identity`, `kron_identity_mul`, `mul_identity_kron`
and `identity_kron_mul` (the "vec trick", Van Loan 2000): they loop over the
nonzeros of X and of the dense factor and never build the product.  `kron`
and `kron_identity_right` build the matrix itself, for the places that need
it (a system to solve, a reference value in tests).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, strings like '3/4' or '-2', or Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(q: Fraction) -> str:
    """Serialize as 'p/q', or 'p' when the denominator is 1."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class RatMatrix:
    """Immutable-by-convention dense matrix of Fractions."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Sequence[Sequence[Fraction]]):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimension")
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError("row data does not match declared shape")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [list(r) for r in rows]

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "RatMatrix":
        return RatMatrix(nrows, ncols, [[ZERO] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        m = RatMatrix.zeros(n, n)
        for i in range(n):
            m.rows[i][i] = ONE
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        rows = [[rat(x) for x in r] for r in rows]
        ncols = len(rows[0]) if rows else 0
        return RatMatrix(len(rows), ncols, rows)

    @staticmethod
    def column(entries: Sequence) -> "RatMatrix":
        return RatMatrix.from_rows([[x] for x in entries])

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "RatMatrix":
        if not cols:
            return RatMatrix.zeros(0, 0)
        nrows = len(cols[0])
        return RatMatrix(nrows, len(cols),
                         [[rat(cols[j][i]) for j in range(len(cols))] for i in range(nrows)])

    # -- basic accessors ----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def col(self, j: int) -> list[Fraction]:
        return [self.rows[i][j] for i in range(self.nrows)]

    def columns(self) -> list[list[Fraction]]:
        return [self.col(j) for j in range(self.ncols)]

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix) and self.shape == other.shape
                and self.rows == other.rows)

    def __repr__(self) -> str:
        return f"RatMatrix({self.nrows}x{self.ncols})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return RatMatrix(self.nrows, self.ncols,
                         [[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return RatMatrix(self.nrows, self.ncols,
                         [[a - b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "RatMatrix":
        return self.scale(-1)

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix(self.nrows, self.ncols,
                         [[c * x for x in r] for r in self.rows])

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        """Matrix product, skipping zero entries (pairing tensors are sparse)."""
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        out = [[ZERO] * other.ncols for _ in range(self.nrows)]
        nz = _nonzeros(other)
        for i, row in enumerate(self.rows):
            orow = out[i]
            for k, a in enumerate(row):
                if not a:
                    continue
                for j, v in nz[k]:
                    orow[j] += a * v
        return RatMatrix(self.nrows, other.ncols, out)

    def matvec(self, vec: Sequence[Fraction]) -> list[Fraction]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return [sum((a * v for a, v in zip(row, vec) if a != 0), ZERO) for row in self.rows]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.ncols, self.nrows,
                         [[self.rows[i][j] for i in range(self.nrows)]
                          for j in range(self.ncols)])

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return RatMatrix(self.nrows, self.ncols + other.ncols,
                         [r1 + r2 for r1, r2 in zip(self.rows, other.rows)])

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch in vstack")
        return RatMatrix(self.nrows + other.nrows, self.ncols, self.rows + other.rows)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "RatMatrix":
        ri, ci = list(row_idx), list(col_idx)
        return RatMatrix(len(ri), len(ci),
                         [[self.rows[i][j] for j in ci] for i in ri])

    # -- elimination ----------------------------------------------------

    def _integer_rows(self) -> list[list[int]]:
        out = []
        for row in self.rows:
            den = 1
            for x in row:
                den = den * x.denominator // gcd(den, x.denominator)
            out.append([int(x * den) for x in row])
        return out

    def rank(self) -> int:
        """Exact rank by fraction-free (Bareiss) elimination on cleared rows."""
        a = self._integer_rows()
        m, n = self.nrows, self.ncols
        rank = 0
        prev = 1
        for c in range(n):
            piv = next((i for i in range(rank, m) if a[i][c]), None)
            if piv is None:
                continue
            if piv != rank:
                a[rank], a[piv] = a[piv], a[rank]
            p = a[rank][c]
            tail = a[rank][c + 1:]
            for i in range(rank + 1, m):
                ai = a[i]
                f = ai[c]
                # column c is never read again, so only the tail is updated;
                # a row with f == 0 still needs rescaling unless p == prev
                if f:
                    ai[c + 1:] = [(p * x - f * y) // prev for x, y in zip(ai[c + 1:], tail)]
                elif p != prev:
                    ai[c + 1:] = [p * x // prev for x in ai[c + 1:]]
            prev = p
            rank += 1
            if rank == m:
                break
        return rank

    def rank_at_least(self, target: int) -> bool:
        """Certified test rank >= target.

        Reduction modulo a large prime can only lower the rank, so reaching
        the target there is an exact certificate; otherwise fall back to the
        rational elimination.  (Exact arithmetic throughout; no rounding.)
        """
        if target <= 0:
            return True
        if target > min(self.nrows, self.ncols):
            return False
        p = (1 << 61) - 1
        rows = []
        for r in self._integer_rows():
            row = [v % p for v in r]
            if any(row):
                rows.append(row)
        rank = 0
        ncols = self.ncols
        for c in range(ncols):
            piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][c], p - 2, p)
            prow = rows[rank]
            for i in range(rank + 1, len(rows)):
                f = rows[i][c]
                if f:
                    fi = f * inv % p
                    ri = rows[i]
                    for j in range(c, ncols):
                        ri[j] = (ri[j] - fi * prow[j]) % p
            rank += 1
            if rank >= target:
                return True
        return self.rank() >= target

    def rref(self) -> tuple["RatMatrix", list[int]]:
        """Reduced row echelon form over Fraction, with pivot column list."""
        a = [list(r) for r in self.rows]
        m, n = self.nrows, self.ncols
        pivots: list[int] = []
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, m) if a[i][c] != 0), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv = ONE / a[r][c]
            a[r] = [x * inv for x in a[r]]
            for i in range(m):
                if i != r and a[i][c] != 0:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            pivots.append(c)
            r += 1
            if r == m:
                break
        return RatMatrix(m, n, a), pivots

    def kernel_basis(self) -> list[list[Fraction]]:
        """Basis of the right kernel, one vector per free column, in column order."""
        red, pivots = self.rref()
        pivset = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivset:
                continue
            vec = [ZERO] * self.ncols
            vec[free] = ONE
            for r, pc in enumerate(pivots):
                vec[pc] = -red.rows[r][free]
            basis.append(vec)
        return basis

    def column_space_basis(self) -> "RatMatrix":
        """Original columns at the pivot positions (a deterministic basis)."""
        _, pivots = self.rref()
        return self.submatrix(range(self.nrows), pivots)

    def solve_right(self, rhs: "RatMatrix") -> "RatMatrix | None":
        """One exact solution X of self @ X = rhs (free variables set to 0)."""
        if rhs.nrows != self.nrows:
            raise ValueError("rhs row count mismatch")
        aug = self.hstack(rhs)
        red, pivots = aug.rref()
        if any(p >= self.ncols for p in pivots):
            return None
        x = RatMatrix.zeros(self.ncols, rhs.ncols)
        for r, pc in enumerate(pivots):
            for j in range(rhs.ncols):
                x.rows[pc][j] = red.rows[r][self.ncols + j]
        return x

    def solve_left(self, rhs: "RatMatrix") -> "RatMatrix | None":
        """One exact solution X of X @ self = rhs."""
        sol = self.transpose().solve_right(rhs.transpose())
        return None if sol is None else sol.transpose()

    def inverse(self) -> "RatMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        sol = self.solve_right(RatMatrix.identity(self.nrows))
        if sol is None or (self * sol) != RatMatrix.identity(self.nrows):
            raise ValueError("matrix is singular")
        return sol

    def in_column_span(self, vectors: "RatMatrix") -> bool:
        """Do all columns of `vectors` lie in the column space of self?"""
        return self.hstack(vectors).rank() == self.rank()

    # -- serialization ---------------------------------------------------

    def to_json(self) -> list[list[str]]:
        return [[rat_str(x) for x in row] for row in self.rows]

    @staticmethod
    def from_json(data: Sequence[Sequence[str]]) -> "RatMatrix":
        return RatMatrix.from_rows([[rat(x) for x in row] for row in data])


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product; index (i,k) of A x B is i*b.nrows + k, same for columns."""
    out = RatMatrix.zeros(a.nrows * b.nrows, a.ncols * b.ncols)
    for i in range(a.nrows):
        for j in range(a.ncols):
            v = a.rows[i][j]
            if v == 0:
                continue
            for k in range(b.nrows):
                brow = b.rows[k]
                orow = out.rows[i * b.nrows + k]
                base = j * b.ncols
                for l in range(b.ncols):
                    if brow[l] != 0:
                        orow[base + l] = v * brow[l]
    return out


def kron_identity_right(a: RatMatrix, n: int) -> RatMatrix:
    """A x I_n without building the identity."""
    out = RatMatrix.zeros(a.nrows * n, a.ncols * n)
    for i in range(a.nrows):
        arow = a.rows[i]
        for j in range(a.ncols):
            if arow[j] != 0:
                v = arow[j]
                for k in range(n):
                    out.rows[i * n + k][j * n + k] = v
    return out


def _nonzeros(mat: RatMatrix) -> list[list[tuple[int, Fraction]]]:
    """Per row, the (column, value) pairs of the nonzero entries."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in mat.rows]


def mul_kron_identity(a: RatMatrix, x: RatMatrix, n: int) -> RatMatrix:
    """a @ (X x I_n) without building the Kronecker product.

    Column (i, k) of a meets row (i, k) of X x I_n, whose only nonzeros are
    X[i][j] at columns (j, k).
    """
    if a.ncols != x.nrows * n:
        raise ValueError(f"cannot multiply {a.shape} by {x.shape} x I_{n}")
    xnz = _nonzeros(x)
    ncols = x.ncols * n
    out = []
    for row in a.rows:
        orow = [ZERO] * ncols
        for idx, av in enumerate(row):
            if av:
                i, k = divmod(idx, n)
                for j, v in xnz[i]:
                    orow[j * n + k] += av * v
        out.append(orow)
    return RatMatrix(a.nrows, ncols, out)


def kron_identity_mul(x: RatMatrix, n: int, b: RatMatrix) -> RatMatrix:
    """(X x I_n) @ b without building the Kronecker product.

    Row (i, k) of the result is the sum of X[i][j] times row (j, k) of b.
    """
    if x.ncols * n != b.nrows:
        raise ValueError(f"cannot multiply {x.shape} x I_{n} by {b.shape}")
    bnz = _nonzeros(b)
    out = []
    for xrow in _nonzeros(x):
        for k in range(n):
            orow = [ZERO] * b.ncols
            for j, v in xrow:
                for c, bv in bnz[j * n + k]:
                    orow[c] += v * bv
            out.append(orow)
    return RatMatrix(x.nrows * n, b.ncols, out)


def mul_identity_kron(a: RatMatrix, n: int, x: RatMatrix) -> RatMatrix:
    """a @ (I_n x X) without building the Kronecker product.

    Column (o, i) of a meets row (o, i) of I_n x X, whose only nonzeros are
    X[i][j] at columns (o, j).
    """
    if a.ncols != n * x.nrows:
        raise ValueError(f"cannot multiply {a.shape} by I_{n} x {x.shape}")
    xnz = _nonzeros(x)
    p, q = x.shape
    out = []
    for row in a.rows:
        orow = [ZERO] * (n * q)
        for idx, av in enumerate(row):
            if av:
                o, i = divmod(idx, p)
                base = o * q
                for j, v in xnz[i]:
                    orow[base + j] += av * v
        out.append(orow)
    return RatMatrix(a.nrows, n * q, out)


def identity_kron_mul(n: int, x: RatMatrix, b: RatMatrix) -> RatMatrix:
    """(I_n x X) @ b without building the Kronecker product.

    Row (o, i) of the result is the sum of X[i][j] times row (o, j) of b.
    """
    if n * x.ncols != b.nrows:
        raise ValueError(f"cannot multiply I_{n} x {x.shape} by {b.shape}")
    xnz = _nonzeros(x)
    bnz = _nonzeros(b)
    q = x.ncols
    out = []
    for o in range(n):
        for xrow in xnz:
            orow = [ZERO] * b.ncols
            for j, v in xrow:
                for c, bv in bnz[o * q + j]:
                    orow[c] += v * bv
            out.append(orow)
    return RatMatrix(n * x.nrows, b.ncols, out)


def stack_columns(columns: list[list[Fraction]], nrows: int) -> RatMatrix:
    """Matrix whose columns are the given vectors (empty list allowed)."""
    if not columns:
        return RatMatrix.zeros(nrows, 0)
    return RatMatrix.from_columns(columns)
