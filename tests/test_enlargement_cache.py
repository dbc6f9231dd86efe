"""The enlargement's fixed maps, factored once per setting, against the
per-call forms they replaced.

`ref_gamma` is the permute / product / permute form of `zeta`, and
`ref_solve` with the `ref_maps` is the `solve_right` form of the
factorization tests of `z_membership`, with each fixed map built in full.
The cached forms must give the same matrices, entry types included, and
`None` on the same right-hand sides.
"""

import random
from fractions import Fraction

import pytest

from gitpol.embedding import _bh_by_rows, _chain_tau_a, _chain_tau_b, build_big, zeta
from gitpol.exact import RatMatrix, block_matrix, kron, kron_identity_right, permute
from gitpol.setting import (ProblemSpec, build_line_bundle_system, induced_contraction_right,
                            random_morphism)

SPECS = {
    "21P2": ProblemSpec(2, ((-2, 2), (-1, 1)), ((0, 3),)),
    "22P3": ProblemSpec(3, ((-2, 1), (-1, 1)), ((0, 1), (1, 3))),
    "31P3": ProblemSpec(3, ((-4, 1), (-2, 1), (-1, 1)), ((0, 5),)),
    "23P2": ProblemSpec(2, ((-2, 1), (-1, 1)), ((0, 1), (1, 1), (2, 1))),
}
BIGS = {name: build_big(build_line_bundle_system(spec)) for name, spec in SPECS.items()}


def ref_gamma(big, w):
    """gamma(w) through T_li, two `permute` calls, a product and `block_matrix`."""
    sys = big.system
    blocks = {}
    for (l, i), t_li in big.t.items():
        phi = w.block(l, i)
        if phi.is_zero():
            continue
        n_l, m_i = sys.n[l - 1], sys.m[i - 1]
        flat = permute(phi, (n_l, sys.h(l, i)), (m_i,), (1,), (0, 2))
        blocks[(l - 1, i - 1)] = permute(
            t_li * flat, (sys.b(sys.s, l), sys.h(sys.s, 1), sys.a(i, 1)), (n_l, m_i),
            (3, 0), (4, 2, 1))
    return block_matrix(big.q_sizes(sys.s), [d * sys.h(sys.s, 1) for d in big.p_sizes(1)],
                        blocks)


def ref_maps(big):
    """Each factorization test's fixed map in full, with its side: 'surjection'
    tests solve X @ map = c, 'injection' tests map @ X = c."""
    sys = big.system
    s, h_s1 = sys.s, sys.h(sys.s, 1)
    maps = {}
    for i in range(3, sys.r + 1):
        maps[f"chain_left[{i}]"] = (
            "surjection", kron(RatMatrix.identity(big.p[i - 1]), _chain_tau_a(sys, i)))
    for l in range(1, s - 1):
        maps[f"chain_right[{l}]"] = (
            "injection", kron_identity_right(_chain_tau_b(sys, l).transpose(), big.q[l - 1]))
    for i in range(2, sys.r + 1):
        maps[f"gamma_left[{i}]"] = ("surjection", kron(
            RatMatrix.identity(big.p[i - 1]),
            induced_contraction_right(sys.comp_ha[(s, i, 1)], sys.h(s, i), sys.a(i, 1), h_s1)))
    for l in range(1, s):
        qdim = big.q[l - 1]
        maps[f"gamma_right[{l}]"] = ("injection", permute(
            kron(RatMatrix.identity(qdim), _bh_by_rows(sys, l)),
            (qdim, sys.b(s, l), h_s1), (qdim, sys.h(l, 1)), (1, 0, 2), (3, 4)))
        for i in range(2, sys.r + 1):
            maps[f"mixed[{l},{i}]"] = ("surjection", kron(
                RatMatrix.identity(big.p[i - 1]),
                permute(sys.comp_bh[(s, l, i)], (sys.h(s, i),), (sys.b(s, l), sys.h(l, i)),
                        (2,), (0, 1))))
            maps[f"mixed_dual[{l},{i}]"] = ("injection", kron(
                RatMatrix.identity(qdim),
                permute(sys.comp_ha[(l, i, 1)], (sys.h(l, 1),), (sys.h(l, i), sys.a(i, 1)),
                        (0, 2), (1,))))
    return maps


def ref_solve(side, mat, c):
    """The former `_factor_through_surjection` / `_factor_through_injection`."""
    if side == "surjection":
        sol = mat.transpose().solve_right(c.transpose())
        if sol is None:
            return None
        x = sol.transpose()
        return x if (x * mat) == c else None
    sol = mat.solve_right(c)
    if sol is None:
        return None
    return sol if (mat * sol) == c else None


def same(a, b):
    """Equal matrices with equal entry types (or both None)."""
    if a is None or b is None:
        return a is b
    return (a.shape == b.shape and a.rows == b.rows
            and [list(map(type, r)) for r in a.rows] == [list(map(type, r)) for r in b.rows])


def rand_matrix(rng, nrows, ncols):
    vals = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
    return RatMatrix(nrows, ncols, [[rng.choice(vals) for _ in range(ncols)]
                                    for _ in range(nrows)])


@pytest.mark.parametrize("name", SPECS)
def test_zeta_matches_the_permute_product_form(name):
    big = BIGS[name]
    for k in range(4):
        w = random_morphism(big.system, 60 + k, 3)
        if k % 2:
            w = w.scale(Fraction(2, 3))
        assert same(zeta(big, w).gamma, ref_gamma(big, w))


@pytest.mark.parametrize("name", SPECS)
def test_fixed_maps_solve_like_solve_right(name):
    big = BIGS[name]
    sys = big.system
    maps = ref_maps(big)
    assert sorted(big.fixed) == sorted(maps)
    rng = random.Random(name)
    for key, (side, mat) in maps.items():
        fixed = big.fixed[key]
        outside = 0
        for k in range(3):
            if side == "surjection":
                c = rand_matrix(rng, 2, mat.nrows) * mat
            else:
                c = mat * rand_matrix(rng, mat.ncols, 2)
            # a perturbed right-hand side, outside the image unless the map is onto
            bumped = RatMatrix.from_rows([list(r) for r in c.rows])
            bumped.rows[rng.randrange(c.nrows)][rng.randrange(c.ncols)] += 1
            for rhs in (c, bumped):
                want = ref_solve(side, mat, rhs)
                if key.startswith("gamma_right"):
                    # the cached map is I_q (x) comp_bh: rows (Q_l, B*_sl, H_s1)
                    l = int(key[len("gamma_right["):-1])
                    rhs = permute(rhs, (sys.b(sys.s, l), big.q[l - 1], sys.h(sys.s, 1)),
                                  (rhs.ncols,), (1, 0, 2), (3,))
                got = fixed.solve(rhs)
                assert same(got, want), (key, k)
                outside += want is None
            assert ref_solve(side, mat, c) is not None
        assert outside, f"{key}: no right-hand side outside the image"
