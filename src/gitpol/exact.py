"""Exact dense linear algebra over the rationals.

Matrices are dense row-major grids of exact rationals.  A stored entry is an
`int` when integral and a `fractions.Fraction` otherwise: `RatMatrix.__init__`
stores a `Fraction` with denominator 1 as its numerator and rejects anything
else (a float, a bool).  Nearly every entry is an integer (0/1 pairing
tensors, integral morphisms and group elements), and zero tests and
arithmetic on `int` run at C speed.  Entries are never divided with `/`,
which gives a float on two ints; `rref` divides through `_div`.

`rat` stays the scalar coercion and always returns a `Fraction`: weights,
discriminants and polynomial coefficients are divided with `/` across the
package, which is exact only on `Fraction`.

Elimination uses deterministic first-nonzero pivoting, so ranks, kernels,
column spaces and solved systems are reproducible bit for bit.  Nothing in
this module (or the package) ever rounds.

Two elimination cores remain.  `integer_rank` is fraction-free (Bareiss)
elimination on integer rows: `RatMatrix.rank` (and so `rank_at_least`)
clears denominators row by row (`clear_denominators`) and calls it, and
`constants` ranks its integer matrices with it directly.  `RatMatrix.rref`
is Gauss-Jordan elimination for kernels, column spaces and solves; it keeps
integer rows integral wherever the pivot allows it.

Kronecker factors with an identity, X (x) I_n and I_n (x) X, are applied
implicitly by `mul_kron_identity`, `kron_identity_mul`, `mul_identity_kron`
and `identity_kron_mul` (the "vec trick", Van Loan 2000): they loop over the
nonzeros of X and of the dense factor and never build the product.  `kron`
and `kron_identity_right` build the matrix itself, for the places that need
it (a system to solve, a block of a larger matrix, a reference value in
tests).

Tensors are reindexed by `permute`, which reads a matrix as a tensor whose
row and column indices are each flattened row-major, and regroups its axes
into new row and column indices.  `block_matrix` assembles a matrix from
blocks.  Together they replace hand-written index loops.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, compress
from math import lcm, prod
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

_INT = frozenset((int,))


def rat(value) -> Fraction:
    """Coerce ints, strings like '3/4' or '-2', or Fractions to Fraction.

    Booleans are rejected, although `bool` is a subclass of `int`.
    """
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(q: Fraction) -> str:
    """Serialize as 'p/q', or 'p' when the denominator is 1."""
    if type(q) is int:
        return str(q)
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def clear_denominators(vectors: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Each vector times the lcm of its denominators: a list of integer
    vectors with the same spans and ranks, row by row."""
    out = []
    for vec in vectors:
        if _INT.issuperset(map(type, vec)):
            out.append(list(vec))
            continue
        ratios = [x.as_integer_ratio() for x in vec]
        den = lcm(*(d for _, d in ratios))
        out.append([n * (den // d) for n, d in ratios])
    return out


def _entry(x):
    """The stored form of a matrix entry: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"matrix entries are int or Fraction, not {type(x).__name__}: {x!r}")


def _div(x, y):
    """x / y exactly, for entries x and y != 0: an int when the quotient is
    integral, else a Fraction (never the float that `int / int` gives)."""
    if type(x) is int and type(y) is int:
        q, rem = divmod(x, y)
        if not rem:
            return q
    return _entry(Fraction(x, y))


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free (Bareiss) elimination.

    Rows are reduced one at a time, in the order given, against the pivot
    rows found so far: step k first swaps the pivot's column into place k,
    then maps v to (p_k v - v[k] w_k) / p_{k-1}, where w_k is the k-th pivot
    row and p_k its pivot (Bareiss, Math. Comp. 1968).  Every value is a
    minor of the input, so each division is exact and nothing leaves the
    integers.  The input is not modified.  Elimination stops once the rank
    equals the row length, so `rows` may be a lazy iterable that is only
    consumed that far.
    """
    steps: list[tuple[int, int, list[int]]] = []   # (column, pivot, tail)
    for row in rows:
        if not any(row):
            continue
        v = list(row)
        prev = 1
        k = 0
        for j, p, tail in steps:
            if j != k:
                v[k], v[j] = v[j], v[k]
            f = v[k]
            k += 1
            # a row with f == 0 still needs rescaling unless p == prev
            if f:
                v[k:] = [(p * x - f * y) // prev for x, y in zip(v[k:], tail)]
            elif p != prev:
                v[k:] = [p * x // prev for x in v[k:]]
            prev = p
        for j in range(k, len(v)):
            if v[j]:
                break
        else:
            continue
        v[k], v[j] = v[j], v[k]
        steps.append((j, v[k], v[k + 1:]))
        if k + 1 == len(v):
            break
    return len(steps)


class RatMatrix:
    """Immutable-by-convention dense matrix of exact rationals.

    Each entry is an `int` when integral and a `Fraction` otherwise; the
    constructor copies the rows and normalizes them to that form.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Sequence[Sequence[Fraction]]):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimension")
        if len(rows) != nrows or not {ncols}.issuperset(map(len, rows)):
            raise ValueError("row data does not match declared shape")
        self.nrows = nrows
        self.ncols = ncols
        if _INT.issuperset(map(type, chain.from_iterable(rows))):
            self.rows = list(map(list, rows))
        else:
            self.rows = [[_entry(x) for x in r] for r in rows]

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "RatMatrix":
        return RatMatrix(nrows, ncols, [[0] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        return RatMatrix(n, n, rows)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        rows = [[x if type(x) is int else rat(x) for x in r] for r in rows]
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
        return RatMatrix(nrows, len(cols), [[x if type(x) is int else rat(x) for x in row]
                                            for row in zip(*cols)])

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
        return not any(map(any, self.rows))

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
        c = _entry(rat(c))
        return RatMatrix(self.nrows, self.ncols,
                         [[c * x for x in r] for r in self.rows])

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        """Matrix product, skipping zero entries (pairing tensors are sparse)."""
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        out = [[0] * other.ncols for _ in range(self.nrows)]
        nz = _nonzeros(other)
        for i, row in enumerate(self.rows):
            orow = out[i]
            for k, a in compress(enumerate(row), row):
                for j, v in nz[k]:
                    orow[j] += a * v
        return RatMatrix(self.nrows, other.ncols, out)

    def matvec(self, vec: Sequence[Fraction]) -> list[Fraction]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return [sum(a * v for a, v in zip(row, vec) if a) for row in self.rows]

    def transpose(self) -> "RatMatrix":
        cols = zip(*self.rows) if self.nrows else [()] * self.ncols
        return RatMatrix(self.ncols, self.nrows, list(cols))

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

    def rank(self) -> int:
        """Exact rank by fraction-free (Bareiss) elimination on cleared rows."""
        return integer_rank(clear_denominators(self.rows))

    def rank_at_least(self, target: int) -> bool:
        """Exact test rank >= target."""
        return self.rank() >= target

    def rref(self) -> tuple["RatMatrix", list[int]]:
        """Reduced row echelon form, with pivot column list.

        A pivot of 1 leaves its row as it is and a pivot of -1 negates it;
        any other pivot divides the row through `_div`, so integer rows stay
        integral wherever the quotients are.  Elimination visits only the
        nonzero entries of the pivot row (all at columns >= the pivot's).
        """
        a = [list(r) for r in self.rows]
        m, n = self.nrows, self.ncols
        pivots: list[int] = []
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, m) if a[i][c]), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            row = a[r]
            p = row[c]
            if p == -1:
                row = a[r] = [-x for x in row]
            elif p != 1:
                row = a[r] = [_div(x, p) if x else 0 for x in row]
            tail = row[c:]
            nz = list(compress(enumerate(tail, c), tail))
            for i in range(m):
                f = a[i][c]
                if f and i != r:
                    ai = a[i]
                    for j, y in nz:
                        ai[j] -= f * y
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
            vec = [0] * self.ncols
            vec[free] = 1
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
        return RatMatrix.from_rows(data)


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product; index (i,k) of A x B is i*b.nrows + k, same for columns."""
    out = [[0] * (a.ncols * b.ncols) for _ in range(a.nrows * b.nrows)]
    bnz = _nonzeros(b)
    for i, arow in enumerate(a.rows):
        for j, v in compress(enumerate(arow), arow):
            base = j * b.ncols
            for k, brow in enumerate(bnz):
                orow = out[i * b.nrows + k]
                for l, bv in brow:
                    orow[base + l] = v * bv
    return RatMatrix(a.nrows * b.nrows, a.ncols * b.ncols, out)


def kron_identity_right(a: RatMatrix, n: int) -> RatMatrix:
    """A x I_n without building the identity."""
    out = [[0] * (a.ncols * n) for _ in range(a.nrows * n)]
    for i, arow in enumerate(a.rows):
        for j, v in compress(enumerate(arow), arow):
            for k in range(n):
                out[i * n + k][j * n + k] = v
    return RatMatrix(a.nrows * n, a.ncols * n, out)


def _nonzeros(mat: RatMatrix) -> list[list[tuple[int, Fraction]]]:
    """Per row, the (column, value) pairs of the nonzero entries."""
    return [list(compress(enumerate(row), row)) for row in mat.rows]


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
        orow = [0] * ncols
        for idx, av in compress(enumerate(row), row):
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
            orow = [0] * b.ncols
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
        orow = [0] * (n * q)
        for idx, av in compress(enumerate(row), row):
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
            orow = [0] * b.ncols
            for j, v in xrow:
                for c, bv in bnz[o * q + j]:
                    orow[c] += v * bv
            out.append(orow)
    return RatMatrix(n * x.nrows, b.ncols, out)


def permute(mat: RatMatrix, row_dims: Sequence[int], col_dims: Sequence[int],
            rows: Sequence[int], cols: Sequence[int]) -> RatMatrix:
    """Reindex a matrix read as a tensor.

    `mat` is read as a tensor with axes `row_dims + col_dims`: its row index
    is the axes of `row_dims` flattened row-major, its column index those of
    `col_dims` (the package convention (x, y) -> x * dim(Y) + y).  The
    result's row index is the axes `rows`, in that order and flattened
    row-major, its column index the axes `cols`; every axis is used exactly
    once.  Only the nonzero entries are visited.
    """
    dims = tuple(row_dims) + tuple(col_dims)
    if (prod(row_dims), prod(col_dims)) != mat.shape:
        raise ValueError(f"a {mat.shape} matrix is not a {row_dims} x {col_dims} tensor")
    if sorted((*rows, *cols)) != list(range(len(dims))):
        raise ValueError(f"axes {rows} + {cols} are not a permutation of {len(dims)} axes")
    # stride of each axis in the result's (row, column) index
    stride = [(0, 0)] * len(dims)
    for side, axes in enumerate((rows, cols)):
        step = 1
        for a in reversed(axes):
            stride[a] = (step, 0) if side == 0 else (0, step)
            step *= dims[a]

    def offsets(axes: range) -> list[tuple[int, int]]:
        """(row, column) offset in the result of each flat index over `axes`."""
        table = [(0, 0)]
        for a in axes:
            sr, sc = stride[a]
            table = [(r + k * sr, c + k * sc) for r, c in table for k in range(dims[a])]
        return table

    col_offsets = offsets(range(len(row_dims), len(dims)))
    nrows, ncols = prod(dims[a] for a in rows), prod(dims[a] for a in cols)
    out = [[0] * ncols for _ in range(nrows)]
    for (r0, c0), row in zip(offsets(range(len(row_dims))), mat.rows):
        for j, v in compress(enumerate(row), row):
            r1, c1 = col_offsets[j]
            out[r0 + r1][c0 + c1] = v
    return RatMatrix(nrows, ncols, out)


def block_matrix(row_sizes: Sequence[int], col_sizes: Sequence[int],
                 blocks: dict[tuple[int, int], RatMatrix]) -> RatMatrix:
    """The matrix with block rows of `row_sizes` and block columns of
    `col_sizes`, whose block (bi, bj) is `blocks[(bi, bj)]`; missing blocks
    are zero."""
    row_off = list(accumulate(row_sizes, initial=0))
    col_off = list(accumulate(col_sizes, initial=0))
    out = [[0] * col_off[-1] for _ in range(row_off[-1])]
    for (bi, bj), blk in blocks.items():
        if blk.shape != (row_sizes[bi], col_sizes[bj]):
            raise ValueError(f"block {(bi, bj)} is {blk.shape}, "
                             f"expected {(row_sizes[bi], col_sizes[bj])}")
        c0, c1 = col_off[bj], col_off[bj + 1]
        for r, row in enumerate(blk.rows, row_off[bi]):
            out[r][c0:c1] = row
    return RatMatrix(row_off[-1], col_off[-1], out)


def stack_columns(columns: list[list[Fraction]], nrows: int) -> RatMatrix:
    """Matrix whose columns are the given vectors (empty list allowed)."""
    if not columns:
        return RatMatrix.zeros(nrows, 0)
    return RatMatrix.from_columns(columns)
