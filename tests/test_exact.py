import random
from fractions import Fraction

import pytest

from gitpol.exact import (RatMatrix, identity_kron_mul, kron, kron_identity_mul,
                          kron_identity_right, mul_identity_kron, mul_kron_identity, rat,
                          rat_str)


def rand_matrix(rng, rows, cols, bound=4):
    return RatMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(cols)]
                                for _ in range(rows)])


def test_rat_parsing_and_strings():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    assert rat_str(Fraction(6, 8)) == "3/4"
    assert rat_str(Fraction(-5)) == "-5"


def test_zero_and_identity_basics():
    z = RatMatrix.zeros(3, 3)
    assert z.rank() == 0
    assert z.kernel_basis() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    i4 = RatMatrix.identity(4)
    assert i4.rank() == 4
    assert i4.kernel_basis() == []


def test_rank_equals_transpose_rank_and_nullity():
    rng = random.Random(0)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        r = m.rank()
        assert r == m.transpose().rank()
        assert r + len(m.kernel_basis()) == m.ncols


def test_bareiss_agrees_with_rref_rank():
    rng = random.Random(1)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        _, pivots = m.rref()
        assert m.rank() == len(pivots)


def test_rank_counterexample_needs_row_scaling():
    # a zero below the pivot still has to be rescaled when the pivot changes
    m = RatMatrix.from_rows([[0, 1, -1], [0, 1, -2], [2, -2, -3]])
    assert m.rank() == 3
    assert len(m.rref()[1]) == 3


def test_rank_matches_rref_on_sparse_small_matrices():
    rng = random.Random(11)
    for _ in range(1500):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = RatMatrix.from_rows([[rng.choice((0, 0, 0, 1, -1, 2, -2, 3, -3))
                                  for _ in range(cols)] for _ in range(rows)])
        assert m.rank() == len(m.rref()[1])


def test_solve_and_inverse():
    rng = random.Random(2)
    for _ in range(10):
        while True:
            a = rand_matrix(rng, 4, 4)
            if a.rank() == 4:
                break
        inv = a.inverse()
        assert a * inv == RatMatrix.identity(4)
        b = rand_matrix(rng, 4, 2)
        x = a.solve_right(b)
        assert a * x == b


def test_solve_right_detects_inconsistency():
    a = RatMatrix.from_rows([[1, 0], [2, 0]])
    b = RatMatrix.from_rows([[1], [3]])
    assert a.solve_right(b) is None


def test_kernel_vectors_are_in_kernel():
    rng = random.Random(3)
    for _ in range(15):
        m = rand_matrix(rng, 3, 5)
        for v in m.kernel_basis():
            assert all(x == 0 for x in m.matvec(v))


def test_column_space_basis_spans_columns():
    m = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis = m.column_space_basis()
    assert basis.rank() == m.rank()
    assert basis.in_column_span(m)


def test_kron_shapes_and_values():
    a = RatMatrix.from_rows([[1, 2], [0, 1]])
    b = RatMatrix.from_rows([[3]])
    assert kron(a, b).rows == [[3, 6], [0, 3]]
    eye = kron_identity_right(a, 2)
    assert eye.shape == (4, 4)
    assert eye.rows[0][0] == 1 and eye.rows[1][1] == 1 and eye.rows[0][2] == 2


def test_rank_at_least_certificate_matches_exact():
    rng = random.Random(4)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        r = m.rank()
        assert m.rank_at_least(r)
        assert not m.rank_at_least(r + 1)


def test_json_round_trip_bit_stable():
    m = RatMatrix.from_rows([[Fraction(1, 3), Fraction(-2)], [0, Fraction(7, 2)]])
    again = RatMatrix.from_json(m.to_json())
    assert again == m
    assert m.to_json() == [["1/3", "-2"], ["0", "7/2"]]


def test_empty_shapes_survive():
    e = RatMatrix.zeros(0, 3)
    assert e.rank() == 0
    assert len(e.kernel_basis()) == 3
    e2 = RatMatrix.zeros(3, 0)
    assert e2.rank() == 0
    assert e2.kernel_basis() == []


def test_mismatched_shapes_raise():
    with pytest.raises(ValueError):
        RatMatrix.zeros(2, 2) * RatMatrix.zeros(3, 3)
    with pytest.raises(ValueError):
        RatMatrix.zeros(2, 2) + RatMatrix.zeros(3, 3)


def rand_rational(rng, rows, cols, zero_rows=(), zero_cols=()):
    """Sparse random rational matrix with the given rows and columns zeroed."""
    return RatMatrix.from_rows(
        [[0 if i in zero_rows or j in zero_cols or rng.random() < 0.4
          else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
          for j in range(cols)] for i in range(rows)])


KRON_SHAPES = [(1, 1, 1, 1), (2, 3, 1, 2), (3, 2, 2, 3), (2, 2, 3, 1), (4, 3, 2, 2),
               (1, 4, 3, 2), (3, 1, 4, 2)]


@pytest.mark.parametrize("xr,xc,n,other", KRON_SHAPES)
def test_kron_helpers_equal_explicit_products(xr, xc, n, other):
    rng = random.Random(xr * 1000 + xc * 100 + n * 10 + other)
    for trial in range(6):
        zr = {rng.randrange(xr)} if trial % 2 else set()
        zc = {rng.randrange(xc)} if trial % 3 == 0 else set()
        x = rand_rational(rng, xr, xc, zr, zc)
        eye = RatMatrix.identity(n)
        a = rand_rational(rng, other, xr * n, {0} if trial == 1 else ())
        assert mul_kron_identity(a, x, n) == a * kron(x, eye)
        b = rand_rational(rng, xc * n, other, (), {0} if trial == 2 else ())
        assert kron_identity_mul(x, n, b) == kron(x, eye) * b
        a = rand_rational(rng, other, n * xr)
        assert mul_identity_kron(a, n, x) == a * kron(eye, x)
        b = rand_rational(rng, n * xc, other)
        assert identity_kron_mul(n, x, b) == kron(eye, x) * b


def test_kron_helpers_agree_with_kron_identity_right_and_zero_factors():
    rng = random.Random(5)
    x = rand_rational(rng, 3, 2)
    a = rand_rational(rng, 2, 6)
    assert mul_kron_identity(a, x, 2) == a * kron_identity_right(x, 2)
    zero = RatMatrix.zeros(3, 2)
    assert mul_kron_identity(a, zero, 2) == RatMatrix.zeros(2, 4)
    assert identity_kron_mul(2, zero, rand_rational(rng, 4, 3)) == RatMatrix.zeros(6, 3)
    # empty dense factor: no rows, or no columns
    assert mul_kron_identity(RatMatrix.zeros(0, 6), x, 2).shape == (0, 4)
    assert kron_identity_mul(x, 2, RatMatrix.zeros(4, 0)).shape == (6, 0)


def test_kron_helpers_reject_shape_mismatch():
    x = RatMatrix.identity(2)
    bad = RatMatrix.zeros(3, 5)
    with pytest.raises(ValueError):
        mul_kron_identity(bad, x, 2)
    with pytest.raises(ValueError):
        kron_identity_mul(x, 2, bad)
    with pytest.raises(ValueError):
        mul_identity_kron(bad, 2, x)
    with pytest.raises(ValueError):
        identity_kron_mul(2, x, bad)
