"""`permute` and `block_matrix` against hand-written index loops.

The reference loops `ref_reshape_y`, `ref_iota_bh` and
`ref_induced_contraction_left` are the loops these helpers replaced in
`embedding` and `setting`, with the dimensions passed in directly.
"""

import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from gitpol.exact import RatMatrix, block_matrix, kron, permute


def rand_sparse(rng, rows, cols):
    return RatMatrix(rows, cols, [[Fraction(rng.choice((0, 0, 0, 1, -2, 3)),
                                            rng.choice((1, 2, 5)))
                                   for _ in range(cols)] for _ in range(rows)])


def flat(index, dims):
    """Row-major flat position of a multi-index."""
    pos = 0
    for i, d in zip(index, dims):
        pos = pos * d + i
    return pos


def ref_permute(mat, row_dims, col_dims, rows, cols):
    dims = tuple(row_dims) + tuple(col_dims)
    out = RatMatrix.zeros(prod(dims[a] for a in rows), prod(dims[a] for a in cols))
    for idx in itertools.product(*(range(d) for d in dims)):
        v = mat.rows[flat(idx[:len(row_dims)], row_dims)][flat(idx[len(row_dims):], col_dims)]
        out.rows[flat([idx[a] for a in rows], [dims[a] for a in rows])][
            flat([idx[a] for a in cols], [dims[a] for a in cols])] = v
    return out


def ref_reshape_y(y, q_lm1, q_l, b_step):
    out = RatMatrix.zeros(b_step * q_lm1, q_l)
    for t in range(q_lm1):
        for u in range(q_l):
            for cb in range(b_step):
                v = y.rows[t][u * b_step + cb]
                if v != 0:
                    out.rows[cb * q_lm1 + t][u] = v
    return out


def ref_iota_bh(comp, b_sl, h_l1, h_s1, qdim):
    out = RatMatrix.zeros(b_sl * qdim * h_s1, qdim * h_l1)
    for d in range(b_sl):
        for k1 in range(h_l1):
            for ks in range(h_s1):
                v = comp.rows[ks][d * h_l1 + k1]
                if v != 0:
                    for t in range(qdim):
                        out.rows[(d * qdim + t) * h_s1 + ks][t * h_l1 + k1] = v
    return out


def ref_induced_contraction_left(comp, dim_b, dim_src, dim_tgt):
    out = RatMatrix.zeros(dim_src, dim_b * dim_tgt)
    for t in range(dim_tgt):
        row = comp.rows[t]
        for b in range(dim_b):
            for s in range(dim_src):
                v = row[b * dim_src + s]
                if v != 0:
                    out.rows[s][b * dim_tgt + t] = v
    return out


SIZES = (0, 1, 2, 3)


def test_permute_matches_brute_force_on_random_axes():
    rng = random.Random(11)
    for _ in range(300):
        naxes = rng.randint(1, 5)
        dims = [rng.choice(SIZES) for _ in range(naxes)]
        split = rng.randint(0, naxes)
        axes = list(range(naxes))
        rng.shuffle(axes)
        cut = rng.randint(0, naxes)
        row_dims, col_dims = dims[:split], dims[split:]
        mat = rand_sparse(rng, prod(row_dims), prod(col_dims))
        got = permute(mat, row_dims, col_dims, axes[:cut], axes[cut:])
        assert got == ref_permute(mat, row_dims, col_dims, axes[:cut], axes[cut:])


def test_identity_permutation_and_transpose():
    rng = random.Random(12)
    mat = rand_sparse(rng, 6, 4)
    assert permute(mat, (2, 3), (4,), (0, 1), (2,)) == mat
    assert permute(mat, (6,), (4,), (1,), (0,)) == mat.transpose()


@pytest.mark.parametrize("q_lm1,q_l,b_step", [(3, 4, 2), (1, 5, 3), (4, 1, 1),
                                              (0, 3, 2), (2, 0, 2), (2, 3, 0)])
def test_permute_reproduces_reshape_y(q_lm1, q_l, b_step):
    y = rand_sparse(random.Random(13), q_lm1, q_l * b_step)
    assert permute(y, (q_lm1,), (q_l, b_step), (2, 0), (1,)) == \
        ref_reshape_y(y, q_lm1, q_l, b_step)


@pytest.mark.parametrize("b_sl,h_l1,h_s1,qdim", [(2, 3, 4, 2), (1, 1, 1, 1), (3, 2, 5, 1),
                                                 (2, 1, 3, 3), (0, 2, 2, 2), (2, 2, 2, 0)])
def test_permute_and_kron_reproduce_iota_bh(b_sl, h_l1, h_s1, qdim):
    comp = rand_sparse(random.Random(14), h_s1, b_sl * h_l1)
    by_rows = permute(comp, (h_s1,), (b_sl, h_l1), (1, 0), (2,))
    got = permute(kron(RatMatrix.identity(qdim), by_rows),
                  (qdim, b_sl, h_s1), (qdim, h_l1), (1, 0, 2), (3, 4))
    assert got == ref_iota_bh(comp, b_sl, h_l1, h_s1, qdim)


@pytest.mark.parametrize("dim_b,dim_src,dim_tgt", [(2, 3, 4), (1, 1, 1), (3, 1, 2),
                                                   (0, 2, 3), (2, 0, 3), (2, 3, 0)])
def test_permute_reproduces_induced_contraction_left(dim_b, dim_src, dim_tgt):
    from gitpol.setting import induced_contraction_left

    comp = rand_sparse(random.Random(15), dim_tgt, dim_b * dim_src)
    want = ref_induced_contraction_left(comp, dim_b, dim_src, dim_tgt)
    assert permute(comp, (dim_tgt,), (dim_b, dim_src), (2,), (1, 0)) == want
    assert induced_contraction_left(comp, dim_b, dim_src, dim_tgt) == want


def test_permute_rejects_bad_shapes_and_axes():
    mat = RatMatrix.zeros(6, 4)
    with pytest.raises(ValueError):
        permute(mat, (2, 2), (4,), (0, 1), (2,))
    with pytest.raises(ValueError):
        permute(mat, (2, 3), (4,), (0, 1), (1,))
    with pytest.raises(ValueError):
        permute(mat, (2, 3), (4,), (0, 1), (3,))


def ref_block_matrix(row_sizes, col_sizes, blocks):
    out = RatMatrix.zeros(sum(row_sizes), sum(col_sizes))
    for (bi, bj), blk in blocks.items():
        r0, c0 = sum(row_sizes[:bi]), sum(col_sizes[:bj])
        for r in range(blk.nrows):
            for c in range(blk.ncols):
                out.rows[r0 + r][c0 + c] = blk.rows[r][c]
    return out


def test_block_matrix_matches_reference_with_missing_blocks():
    rng = random.Random(16)
    for _ in range(200):
        row_sizes = [rng.choice(SIZES) for _ in range(rng.randint(0, 4))]
        col_sizes = [rng.choice(SIZES) for _ in range(rng.randint(0, 4))]
        blocks = {(bi, bj): rand_sparse(rng, row_sizes[bi], col_sizes[bj])
                  for bi in range(len(row_sizes)) for bj in range(len(col_sizes))
                  if rng.random() < 0.5}
        got = block_matrix(row_sizes, col_sizes, blocks)
        assert got.shape == (sum(row_sizes), sum(col_sizes))
        assert got == ref_block_matrix(row_sizes, col_sizes, blocks)


def test_block_matrix_rejects_misshapen_block():
    with pytest.raises(ValueError):
        block_matrix([2, 1], [1, 3], {(0, 1): RatMatrix.zeros(2, 2)})
    assert block_matrix([], [], {}) == RatMatrix.zeros(0, 0)
