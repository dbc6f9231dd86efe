"""Seeded inputs, drawn from the benchmark's own `random.Random`.

Nothing here calls `gitpol.setting.random_*`, so a later change to those
helpers cannot change the load.
"""

from __future__ import annotations

import random
from fractions import Fraction

from gitpol.exact import RatMatrix
from gitpol.polarization import Polarization
from gitpol.setting import GroupElement, MorphismElement



def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"gitpol-bench:{workload}:{seed}")


def int_matrix(rng: random.Random, nrows: int, ncols: int, bound: int) -> RatMatrix:
    return RatMatrix(nrows, ncols, [[Fraction(rng.randint(-bound, bound))
                                     for _ in range(ncols)] for _ in range(nrows)])


def morphism(rng: random.Random, system, bound: int) -> MorphismElement:
    w = MorphismElement.zero(system)
    for key in sorted(w.blocks):
        blk = w.blocks[key]
        w.blocks[key] = int_matrix(rng, blk.nrows, blk.ncols, bound)
    return w


def unimodular(rng: random.Random, size: int, bound: int) -> RatMatrix:
    """Integer matrix of determinant +-1: a signed row permutation of a unit
    lower times a unit upper triangular matrix."""
    def triangular(lower):
        return RatMatrix(size, size, [
            [Fraction(1 if i == j else rng.randint(-bound, bound) if (j < i) == lower else 0)
             for j in range(size)] for i in range(size)])

    prod = triangular(True) * triangular(False)
    perm = list(range(size))
    rng.shuffle(perm)
    return RatMatrix(size, size, [[x * rng.choice((-1, 1)) for x in prod.rows[p]]
                                  for p in perm])


def group_element(rng: random.Random, system, bound: int) -> GroupElement:
    """Block-diagonal part unimodular, off-diagonal blocks arbitrary.

    Unimodular blocks keep the inverses integral.  With arbitrary invertible
    blocks the cost of an operation grows with the determinants, and the
    90th percentile of the 22P3 pairs moved by 20% between seeds."""
    g = GroupElement.identity(system)
    g.g = [unimodular(rng, mi, bound) for mi in system.m]
    g.hh = [unimodular(rng, nl, bound) for nl in system.n]
    for blocks in (g.u, g.v):
        for key in sorted(blocks):
            blk = blocks[key]
            blocks[key] = int_matrix(rng, blk.nrows, blk.ncols, bound)
    return g


def polarization(rng: random.Random, system) -> Polarization:
    """Proper weights, normalized against the multiplicities."""
    a = [rng.randint(1, 9) for _ in system.m]
    b = [rng.randint(1, 9) for _ in system.n]
    sa = sum(x * mi for x, mi in zip(a, system.m))
    sb = sum(x * nl for x, nl in zip(b, system.n))
    return Polarization.make([Fraction(x, sa) for x in a], [Fraction(x, sb) for x in b],
                             system.m, system.n)


def plant_shared_kernel(rng: random.Random, w: MorphismElement) -> None:
    """Make every block (l, i) of one left summand i kill a common vector v.

    Then M'_i = span(v) with N' = 0 is a proper invariant family with
    discriminant lambda_i > 0, so the morphism is unstable.
    """
    sysm = w.system
    i = rng.randrange(1, sysm.r + 1)
    mi = w.m[i - 1]
    k = rng.randrange(mi)
    v = [Fraction(rng.randint(-2, 2)) for _ in range(mi)]
    v[k] = Fraction(1)
    for l in range(1, sysm.s + 1):
        blk = w.blocks[(l, i)]
        rows = []
        for row in blk.rows:
            bv = sum((a * x for a, x in zip(row, v)), Fraction(0))
            new = list(row)
            new[k] -= bv
            rows.append(new)
        w.blocks[(l, i)] = RatMatrix(blk.nrows, blk.ncols, rows)


def plant_zero_block(rng: random.Random, w: MorphismElement) -> None:
    key = rng.choice(sorted(w.blocks))
    blk = w.blocks[key]
    w.blocks[key] = RatMatrix.zeros(blk.nrows, blk.ncols)


def pencil_morphism(rng: random.Random, system, planted: int) -> MorphismElement:
    """2 O(e) -> O(e+1) + O(e+2): columns (z1, q1), (z2, q2).

    planted 0: random; 1: z2 a multiple of z1; 2: q_i = z_i * L, so the
    determinant vanishes; 3: both linear entries zero.
    """
    w = morphism(rng, system, 3)
    lin = w.blocks[(1, 1)]
    if planted == 1:
        c = Fraction(rng.choice([-2, -1, 1, 2]))
        w.blocks[(1, 1)] = RatMatrix(lin.nrows, 2, [[r[0], c * r[0]] for r in lin.rows])
    elif planted == 2:
        from gitpol.poly import Poly

        nv = system.spec.ambient_dim + 1
        form = Poly.from_coeff_vector(nv, 1, [Fraction(rng.randint(-2, 2)) for _ in range(nv)])
        cols = [(Poly.from_coeff_vector(nv, 1, lin.col(c)) * form).coeff_vector(2)
                for c in range(2)]
        w.blocks[(2, 1)] = RatMatrix.from_columns(cols)
    elif planted == 3:
        w.blocks[(1, 1)] = RatMatrix.zeros(lin.nrows, 2)
    return w
