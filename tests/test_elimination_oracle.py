"""The elimination core against an independent reference.

`rref`, `integer_rank` and `column_space_basis` all read one fraction-free
core, so they can no longer be checked against each other.  This file checks
them, and the kernels and solves built on `rref`, against a plain Gauss-Jordan
elimination in `Fraction` arithmetic written here for the purpose.
"""

import copy
import random
from fractions import Fraction as F

from gitpol.exact import RatMatrix, clear_denominators, integer_rank

N_MATRICES = 5000


def reference_rref(rows, ncols):
    """Gauss-Jordan over `Fraction`: (reduced rows, pivot columns), entries
    stored as `int` when integral."""
    a = [[F(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    red = [[x.numerator if x.denominator == 1 else x for x in r] for r in a]
    return red, pivots


def _entry(rng, kind):
    if rng.random() < 0.4:
        return 0
    if kind == "unit":
        return rng.choice((1, -1))
    if kind == "int":
        return rng.randint(-6, 6)
    return F(rng.randint(-6, 6), rng.randint(1, 5))


def random_matrix(rng):
    """Wide, tall or square; int, unit or Fraction entries; with zero rows and
    rows that are combinations of earlier rows."""
    m, n = rng.randint(0, 7), rng.randint(0, 7)
    kind = rng.choice(("int", "int", "unit", "frac"))
    rows = [[_entry(rng, kind) for _ in range(n)] for _ in range(m)]
    for i in range(1, m):
        roll = rng.random()
        if roll < 0.15:
            rows[i] = [0] * n
        elif roll < 0.4:
            coeffs = [rng.choice((0, 1, -1, 2, F(1, 3))) for _ in range(i)]
            rows[i] = [sum((c * rows[k][j] for k, c in enumerate(coeffs)), F(0))
                       for j in range(n)]
    return RatMatrix(m, n, [[x.numerator if isinstance(x, F) and x.denominator == 1 else x
                             for x in r] for r in rows])


def _types(rows):
    return [[type(x) for x in r] for r in rows]


def _check_rref(mat):
    red, pivots = mat.rref()
    ref, ref_pivots = reference_rref(mat.rows, mat.ncols)
    assert pivots == ref_pivots
    assert red.rows == ref
    assert _types(red.rows) == _types(ref)
    return ref, ref_pivots


def _check_kernel_and_columns(mat, ref, pivots):
    free = [c for c in range(mat.ncols) if c not in pivots]
    expected = []
    for f in free:
        vec = [0] * mat.ncols
        vec[f] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -ref[r][f]
        expected.append(vec)
    basis = mat.kernel_basis()
    assert basis == expected
    for vec in basis:
        assert not any(mat.matvec(vec))
    cols = mat.column_space_basis()
    assert cols == mat.submatrix(range(mat.nrows), pivots)


def _check_solve(mat, rng):
    k = rng.randint(1, 3)
    if rng.random() < 0.5:
        x0 = RatMatrix(mat.ncols, k, [[_entry(rng, "frac") for _ in range(k)]
                                      for _ in range(mat.ncols)])
        rhs = mat * x0
    else:
        rhs = RatMatrix(mat.nrows, k, [[_entry(rng, "int") for _ in range(k)]
                                       for _ in range(mat.nrows)])
    ref, pivots = reference_rref([r1 + r2 for r1, r2 in zip(mat.rows, rhs.rows)],
                                 mat.ncols + k)
    sol = mat.solve_right(rhs)
    if any(p >= mat.ncols for p in pivots):
        assert sol is None
        return
    expected = [[0] * k for _ in range(mat.ncols)]
    for r, pc in enumerate(pivots):
        expected[pc] = ref[r][mat.ncols:]
    assert sol is not None and sol.rows == expected
    assert mat * sol == rhs


def _check_integer_rank(mat):
    rows = clear_denominators(mat.rows)
    snapshot = copy.deepcopy(rows)
    consumed = []

    def lazy():
        for r in rows:
            consumed.append(r)
            yield r

    rank = integer_rank(lazy())
    assert rank == len(reference_rref(mat.rows, mat.ncols)[1])
    assert rows == snapshot
    # the rows are read only until the rank equals the row length
    full_at = len(rows)
    if rank == mat.ncols > 0:
        full_at = next(k for k in range(1, len(rows) + 1)
                       if len(reference_rref(rows[:k], mat.ncols)[1]) == mat.ncols)
    assert len(consumed) == full_at


def test_elimination_matches_a_fraction_gauss_jordan_reference():
    rng = random.Random(20261018)
    shapes = set()
    for _ in range(N_MATRICES):
        mat = random_matrix(rng)
        shapes.add((mat.nrows > mat.ncols) - (mat.nrows < mat.ncols))
        snapshot = copy.deepcopy(mat.rows)
        ref, pivots = _check_rref(mat)
        _check_kernel_and_columns(mat, ref, pivots)
        _check_solve(mat, rng)
        _check_integer_rank(mat)
        assert mat.rows == snapshot
    assert shapes == {-1, 0, 1}


def test_reference_pivots_need_no_column_swaps():
    # a column-swapping elimination would report pivots {2, 1} here
    mat = RatMatrix.from_rows([[0, 0, 1, 1], [1, 1, 0, 0]])
    red, pivots = mat.rref()
    assert pivots == [0, 2]
    assert red.rows == [[1, 1, 0, 0], [0, 0, 1, 1]]
    assert mat.column_space_basis().rows == [[0, 1], [1, 0]]


def test_non_unit_pivots_give_exact_fractions():
    mat = RatMatrix.from_rows([[2, 3, 5], [4, 1, 7], [6, 4, 12]])
    red, pivots = mat.rref()
    ref, ref_pivots = reference_rref(mat.rows, 3)
    assert (red.rows, pivots) == (ref, ref_pivots)
    assert red.rows == [[1, 0, F(8, 5)], [0, 1, F(3, 5)], [0, 0, 0]]
