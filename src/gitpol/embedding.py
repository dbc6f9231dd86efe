"""The reductive enlargement: big spaces, the embedding, orbit saturation.

The left spaces are stacked sums P_i = (+)_{j>=i} M_j (x) A_ji, the right ones
Q_l = (+)_{m<=l} N_m (x) B*_lm.  A morphism w embeds as
zeta(w) = (canonical chain maps, gamma(w), canonical chain maps); the group
embeds block-unitriangularly via theta.  Membership in the orbit saturation of
the image is decided by exact rank equalities and factorization tests (a map
factors through a surjection iff it kills the kernel, through an injection iff
its image fits).

Every fixed map here is built from the pairing tensors with `exact.permute`
(a reindexing of tensor axes), `exact.block_matrix` and Kronecker factors
with an identity, never with a hand-written index loop.

The block (l, i) of gamma(w) (rows N_l (x) B*_sl, columns M_i (x) A_i1 (x)
H_s1) depends on the block phi_li of w alone, through the structure matrix
T_li : H_li -> B_sl (x) H_s1 (x) A_i1 cached on `BigSetting.t`,

    T_li[(d, ks, c), ki] = sum_k1 comp_bh[(s,l,1)][ks, (d, k1)] comp_ha[(l,i,1)][k1, (ki, c)]:

up to a permutation of coordinates, phi_li -> gamma_li is
I_{n_l} (x) T_li (x) I_{m_i}.  Different blocks write disjoint coordinates, so
rank(w -> gamma(w)) = sum n_l m_i rank T_li, while dim W = sum n_l m_i h_li:
gamma is injective exactly when every T_li has rank h_li, which is what
`gamma_injectivity_check` tests.

The maps that depend only on the setting are factored once, in `build_big`,
and kept on the `BigSetting`, so a call of `zeta` or `z_membership` is a few
structured products over the data of w (factor once, solve many):

- `zeta` adds the nonzeros of each T_li (`BigSetting.gamma_terms`) into one
  gamma grid, in one pass over the nonzeros of w.
- Each factorization test solves against a fixed map I (x) T or T (x) I, up
  to a row permutation, kept as a `FixedMap` in `BigSetting.fixed`: the
  small factor T with a matrix that sends every c in the image to the
  solution whose free variables are 0, applied blockwise by the vec trick
  (Van Loan 2000).  The rref is unique, so that is the solution
  `RatMatrix.solve_right` gives on the full map, and every output is
  unchanged.  Each solution is still checked by multiplying back, which
  rejects a c outside the image.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, product

from .exact import (ZERO, RatMatrix, block_matrix, identity_kron_mul, kron,
                    kron_identity_mul, kron_identity_right, mul_identity_kron,
                    mul_kron_identity, permute, stack_columns)
from .polarization import AssociatedPolarization, big_dims
from .setting import (CompositionSystem, GroupElement, MorphismElement,
                      SchemaError, induced_contraction_right)
from .stability import (NO_DESTABILIZER_FOUND, NOT_STABLE, UNSTABLE,
                        StabilityVerdict, SubspaceFamily)


def _pivot_inverse(t: RatMatrix) -> RatMatrix:
    """The matrix e with e @ t = rref(t) up to the order of its rows: row p_r
    of e, p_r the r-th pivot column of rref(t), is row r of a matrix E with
    E @ t = the top rank rows of rref(t), and the other rows of e are 0.

    E comes from rref([B | I_k]) on k independent rows B of t, never from
    rref([t | I]): for a tall t that grid would be as large as t's row count
    squared.
    """
    rows = t.transpose().rref()[1]
    k = len(rows)
    red, pivots = t.submatrix(rows, range(t.ncols)).hstack(RatMatrix.identity(k)).rref()
    e = [[0] * t.nrows for _ in range(t.ncols)]
    for r, pc in enumerate(pivots):
        for j, g in zip(rows, red.rows[r][t.ncols:]):
            e[pc][j] = g
    return RatMatrix(t.ncols, t.nrows, e)


@dataclass(frozen=True)
class FixedMap:
    """A map that a factorization test solves against, factored once.

    The map is I_n (x) t, or t (x) I_n when `t_first`; `solve(c)` finds X
    with map @ X = c, or with X @ map = c when `left` (for I_n (x) t only).

    For map @ X = c, `e` is `_pivot_inverse(t)`, and (I_n (x) e) @ c (or
    (e (x) I_n) @ c) is, for every c in the image, the solution whose free
    variables are 0: rref(I_n (x) t) = I_n (x) rref(t), likewise for
    t (x) I_n, and the rref is unique, so that is exactly what
    `RatMatrix.solve_right` returns.  A left solve is the right solve of the
    transposes, so its `e` is the transpose of `_pivot_inverse(t^T)`.  For c
    outside the image, multiplying back fails and `solve` returns None.
    """

    t: RatMatrix
    n: int
    e: RatMatrix
    t_first: bool = False
    left: bool = False

    @staticmethod
    def of(t: RatMatrix, n: int, t_first: bool = False, left: bool = False) -> "FixedMap":
        e = _pivot_inverse(t.transpose()).transpose() if left else _pivot_inverse(t)
        return FixedMap(t, n, e, t_first, left)

    def apply(self, x: RatMatrix, b: RatMatrix) -> RatMatrix:
        """b @ (I_n (x) x) when `left`, else (I_n (x) x) @ b, or (x (x) I_n) @ b
        when `t_first`."""
        if self.left:
            return mul_identity_kron(b, self.n, x)
        if self.t_first:
            return kron_identity_mul(x, self.n, b)
        return identity_kron_mul(self.n, x, b)

    def solve(self, c: RatMatrix) -> RatMatrix | None:
        """The solution with free variables 0, or None when there is none."""
        x = self.apply(self.e, c)
        return x if self.apply(self.t, x) == c else None


@dataclass
class BigSetting:
    system: CompositionSystem
    p: tuple[int, ...]
    q: tuple[int, ...]
    xi: dict          # i -> p_{i-1} x (p_i * a(i,i-1)),  i = 2..r
    eta: dict         # l -> q_l x (q_{l+1} * b(l+1,l)),  l = 1..s-1
    t: dict           # (l, i) -> T_li, (b(s,l) * h(s,1) * a(i,1)) x h(l,i)
    gamma_terms: dict  # (l, i) -> per k_i, the (d, c * h(s,1) + ks, T_li entry) nonzeros
    fixed: dict       # factorization test key -> FixedMap

    def p_sizes(self, i: int) -> list[int]:
        """Sizes of the blocks M_j (x) A_ji, j = i..r, of P_i."""
        sys = self.system
        return [sys.m[j - 1] * sys.a(j, i) for j in range(i, sys.r + 1)]

    def q_sizes(self, l: int) -> list[int]:
        """Sizes of the blocks N_m (x) B*_lm, m = 1..l, of Q_l."""
        sys = self.system
        return [sys.n[m - 1] * sys.b(l, m) for m in range(1, l + 1)]


@dataclass
class BigElement:
    setting: BigSetting
    x: dict           # i -> RatMatrix, like xi
    gamma: RatMatrix  # q_s x (p_1 * h(s,1))
    y: dict           # l -> RatMatrix, like eta


def _bh_by_rows(sys: CompositionSystem, l: int) -> RatMatrix:
    """comp_bh[(s,l,1)] : B_sl (x) H_l1 -> H_s1 with rows (d, ks), columns k1."""
    s = sys.s
    return permute(sys.comp_bh[(s, l, 1)], (sys.h(s, 1),), (sys.b(s, l), sys.h(l, 1)),
                   (1, 0), (2,))


def build_big(sys: CompositionSystem) -> BigSetting:
    p, q = big_dims(sys)
    big = BigSetting(sys, p, q, {}, {}, {}, {}, {})
    for i in range(2, sys.r + 1):
        a_step = sys.a(i, i - 1)
        # block j of P_i maps to block j of P_{i-1} through A_{i,i-1} (x) A_ji -> A_{j,i-1}
        big.xi[i] = block_matrix(
            big.p_sizes(i - 1), [d * a_step for d in big.p_sizes(i)],
            {(j - i + 1, j - i): kron(RatMatrix.identity(sys.m[j - 1]),
                                      sys.comp_aa[(j, i, i - 1)])
             for j in range(i, sys.r + 1)})
    for l in range(1, sys.s):
        b_step = sys.b(l + 1, l)
        # block m of Q_{l+1} maps to block m of Q_l through B_{l+1,l} (x) B_lm -> B_{l+1,m}
        big.eta[l] = block_matrix(
            big.q_sizes(l), [d * b_step for d in big.q_sizes(l + 1)],
            {(m - 1, m - 1): kron(RatMatrix.identity(sys.n[m - 1]),
                                  permute(sys.comp_bb[(l + 1, l, m)], (sys.b(l + 1, m),),
                                          (b_step, sys.b(l, m)), (2,), (0, 1)))
             for m in range(1, l + 1)})
    s, h_s1 = sys.s, sys.h(sys.s, 1)
    for l in range(1, s + 1):
        bh = _bh_by_rows(sys, l)
        for i in range(1, sys.r + 1):
            dims = (sys.b(s, l), h_s1, sys.a(i, 1))
            t_li = permute(bh * sys.comp_ha[(l, i, 1)], dims[:2], (sys.h(l, i), dims[2]),
                           (0, 1, 3), (2,))
            big.t[(l, i)] = t_li
            # T_li with rows ki and columns (d, c, ks), as the nonzeros zeta adds up
            by_ki = permute(t_li, dims, (sys.h(l, i),), (3,), (0, 2, 1))
            big.gamma_terms[(l, i)] = [[(*divmod(j, dims[2] * h_s1), v)
                                        for j, v in compress(enumerate(row), row)]
                                       for row in by_ki.rows]
    _factor_fixed_maps(big)
    return big


def zeta(big: BigSetting, w: MorphismElement) -> BigElement:
    """The embedding: canonical chain maps plus the assembled gamma block.

    One pass over the nonzeros of w: the entry phi_li[(t, ki), pp] adds
    T_li[(d, ks, c), ki] phi_li[(t, ki), pp] at row (t, d) of block row l and
    column (pp, c, ks) of block column i of gamma.
    """
    sys = big.system
    if w.mults != (sys.m, sys.n):
        raise SchemaError("the embedding is defined at the system multiplicities")
    h_s1 = sys.h(sys.s, 1)
    row_off = list(accumulate(big.q_sizes(sys.s), initial=0))
    col_off = [h_s1 * c for c in accumulate(big.p_sizes(1), initial=0)]
    grid = [[0] * col_off[-1] for _ in range(row_off[-1])]
    for (l, i), terms in big.gamma_terms.items():
        b_sl, h_li, width = sys.b(sys.s, l), sys.h(l, i), sys.a(i, 1) * h_s1
        for r, row in enumerate(w.block(l, i).rows):
            t, ki = divmod(r, h_li)
            if not terms[ki]:
                continue
            r0 = row_off[l - 1] + t * b_sl
            out = grid[r0:r0 + b_sl]
            for pp, v in compress(enumerate(row), row):
                c0 = col_off[i - 1] + pp * width
                for d, c, tau in terms[ki]:
                    out[d][c0 + c] += tau * v
    gamma = RatMatrix(row_off[-1], col_off[-1], grid)
    return BigElement(big, dict(big.xi), gamma, dict(big.eta))


def gamma_injectivity_check(big: BigSetting) -> bool:
    """Is w -> gamma(w) injective?  Exactly when every T_li has rank h_li
    (see the module docstring)."""
    sys = big.system
    return all(t_li.rank() == sys.h(l, i) for (l, i), t_li in big.t.items())


# ----------------------------------------------------------------------
# the group embedding
# ----------------------------------------------------------------------


def theta(big: BigSetting, g: GroupElement) -> tuple[list[RatMatrix], list[RatMatrix]]:
    """Images of a group element on every P_i and Q_l."""
    sys = big.system
    if g.mults != (sys.m, sys.n):
        raise SchemaError("the group embedding is defined at the system multiplicities")
    left = []
    for i in range(1, sys.r + 1):
        # g_j acts on M_j (x) A_ji; u_kj maps it into M_k (x) A_ki through A_kj (x) A_ji -> A_ki
        blocks = {}
        for j in range(i, sys.r + 1):
            aji = sys.a(j, i)
            blocks[(j - i, j - i)] = kron_identity_right(g.g[j - 1], aji)
            for k in range(j + 1, sys.r + 1):
                blocks[(k - i, j - i)] = identity_kron_mul(
                    sys.m[k - 1], sys.comp_aa[(k, j, i)], kron_identity_right(g.u[(k, j)], aji))
        left.append(block_matrix(big.p_sizes(i), big.p_sizes(i), blocks))
    right = []
    for l in range(1, sys.s + 1):
        # h_m acts on N_m (x) B*_lm; v_km maps it into N_k (x) B*_lk through the
        # contraction of B_lk (x) B_km -> B_lm
        blocks = {}
        for m in range(1, l + 1):
            blm = sys.b(l, m)
            blocks[(m - 1, m - 1)] = kron_identity_right(g.hh[m - 1], blm)
            for k in range(m + 1, l + 1):
                contraction = induced_contraction_right(sys.comp_bb[(l, k, m)], sys.b(l, k),
                                                        sys.b(k, m), blm)
                blocks[(k - 1, m - 1)] = identity_kron_mul(
                    sys.n[k - 1], contraction, kron_identity_right(g.v[(k, m)], blm))
        right.append(block_matrix(big.q_sizes(l), big.q_sizes(l), blocks))
    return left, right


def big_act(big: BigSetting, th: tuple[list[RatMatrix], list[RatMatrix]],
            bw: BigElement) -> BigElement:
    """Natural action of a big group element (given on each factor)."""
    sys = big.system
    left, right = th
    left_inv = [m.inverse() for m in left]
    right_s = right[sys.s - 1]
    x = {i: mul_kron_identity(left[i - 2] * bw.x[i], left_inv[i - 1], sys.a(i, i - 1))
         for i in bw.x}
    gamma = mul_kron_identity(right_s * bw.gamma, left_inv[0], sys.h(sys.s, 1))
    y = {l: mul_kron_identity(right[l - 1] * bw.y[l], right[l].inverse(), sys.b(l + 1, l))
         for l in bw.y}
    return BigElement(big, x, gamma, y)


# ----------------------------------------------------------------------
# membership in the orbit saturation
# ----------------------------------------------------------------------


def _factor_fixed_maps(big: BigSetting) -> None:
    """Factor, once, the maps the factorization tests of `z_membership` solve
    against, keyed by the name of the test.  Each is I (x) T or T (x) I up
    to a row permutation; a surjection M is a left test X @ M = c."""
    sys = big.system
    s, h_s1 = sys.s, sys.h(sys.s, 1)
    fixed = big.fixed
    for i in range(3, sys.r + 1):
        # pi : P_i (x) A_{i,i-1} (x) ... (x) A_21 -> P_i (x) A_i1 is I (x) tau
        fixed[f"chain_left[{i}]"] = FixedMap.of(_chain_tau_a(sys, i), big.p[i - 1], left=True)
    for l in range(1, s - 1):
        # iota : B*_sl (x) Q_l -> B*_{s,s-1} (x) ... (x) B*_{l+1,l} (x) Q_l is tau^T (x) I
        fixed[f"chain_right[{l}]"] = FixedMap.of(_chain_tau_b(sys, l).transpose(),
                                                 big.q[l - 1], t_first=True)
    for i in range(2, sys.r + 1):
        # sigma : P_i (x) A_i1 (x) H*_s1 -> P_i (x) H*_si
        contraction = induced_contraction_right(sys.comp_ha[(s, i, 1)], sys.h(s, i),
                                                sys.a(i, 1), h_s1)
        fixed[f"gamma_left[{i}]"] = FixedMap.of(contraction, big.p[i - 1], left=True)
    for l in range(1, s):
        # iota : Q_l (x) H_l1 -> B*_sl (x) Q_l (x) H_s1 is, with its rows in the
        # order (Q_l, B*_sl, H_s1), I (x) comp_bh[(s,l,1)]
        fixed[f"gamma_right[{l}]"] = FixedMap.of(_bh_by_rows(sys, l), big.q[l - 1])
        for i in range(2, sys.r + 1):
            # sigma : P_i (x) H*_si (x) B_sl -> P_i (x) H*_li
            fixed[f"mixed[{l},{i}]"] = FixedMap.of(
                permute(sys.comp_bh[(s, l, i)], (sys.h(s, i),), (sys.b(s, l), sys.h(l, i)),
                        (2,), (0, 1)), big.p[i - 1], left=True)
            # iota : Q_l (x) H_li -> Q_l (x) H_l1 (x) A*_i1
            fixed[f"mixed_dual[{l},{i}]"] = FixedMap.of(
                permute(sys.comp_ha[(l, i, 1)], (sys.h(l, 1),), (sys.h(l, i), sys.a(i, 1)),
                        (0, 2), (1,)), big.q[l - 1])


def _chain_tau_a(sys: CompositionSystem, i: int) -> RatMatrix:
    """Iterated multiplication A_{i,i-1} (x) ... (x) A_21 -> A_i1."""
    tau = RatMatrix.identity(sys.a(2, 1))
    for k in range(3, i + 1):
        step = sys.comp_aa[(k, k - 1, 1)]
        tau = mul_identity_kron(step, sys.a(k, k - 1), tau)
    return tau


@dataclass
class ZReport:
    status: str                 # in_Z | boundary | outside
    rank_ok: dict
    factorization_ok: dict
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"schema": "1", "status": self.status,
                "ranks": {k: bool(v) for k, v in self.rank_ok.items()},
                "factorizations": {k: bool(v) for k, v in self.factorization_ok.items()},
                "notes": list(self.notes)}


def _reshaped_y_rank(sys: CompositionSystem, big: BigSetting, l: int,
                     y: RatMatrix) -> int:
    """Rank of y_l viewed as Q_{l+1} -> B*_{l+1,l} (x) Q_l."""
    return _reshape_y(big, l, y).rank()


def z_membership(bw: BigElement) -> ZReport:
    """Exact decision of membership in the orbit saturation of the embedding.

    The boundary report means: all factorization conditions hold and the chain
    ranks are at most the canonical ones with at least one strict drop.  These
    are necessary conditions for the closure, so 'boundary' may over-approximate
    the true boundary.
    """
    big = bw.setting
    sys = big.system
    rank_ok: dict = {}
    fact_ok: dict = {}
    notes = []
    rank_defect = False
    for i in range(2, sys.r + 1):
        want = sum(sys.m[j - 1] * sys.a(j, i - 1) for j in range(i, sys.r + 1))
        have = bw.x[i].rank()
        rank_ok[f"x[{i}]"] = have == want
        if have > want:
            return ZReport("outside", rank_ok, fact_ok,
                           (f"rank of x[{i}] exceeds the canonical value",))
        if have < want:
            rank_defect = True
    for l in range(1, sys.s):
        want = sum(sys.b(l + 1, k) * sys.n[k - 1] for k in range(1, l + 1))
        have = _reshaped_y_rank(sys, big, l, bw.y[l])
        rank_ok[f"y[{l}]"] = have == want
        if have > want:
            return ZReport("outside", rank_ok, fact_ok,
                           (f"rank of y[{l}] exceeds the canonical value",))
        if have < want:
            rank_defect = True

    def factor(key: str, c: RatMatrix) -> RatMatrix | None:
        sol = big.fixed[key].solve(c)
        fact_ok[key] = sol is not None
        return sol

    x1: dict = {}
    if sys.r >= 2:
        x1[2] = bw.x[2]
    composite = bw.x.get(2)
    tdim = sys.a(2, 1) if sys.r >= 2 else 1
    for i in range(3, sys.r + 1):
        composite = mul_kron_identity(composite, bw.x[i], tdim)
        tdim *= sys.a(i, i - 1)
        sol = factor(f"chain_left[{i}]", composite)
        if sol is not None:
            x1[i] = sol

    y_ls: dict = {}
    prefix = 1
    down = None
    if sys.s >= 2:
        y_ls[sys.s - 1] = _reshape_y(big, sys.s - 1, bw.y[sys.s - 1])
        down = y_ls[sys.s - 1]
        prefix = sys.b(sys.s, sys.s - 1)
    for l in range(sys.s - 2, 0, -1):
        down = identity_kron_mul(prefix, _reshape_y(big, l, bw.y[l]), down)
        prefix *= sys.b(l + 1, l)
        sol = factor(f"chain_right[{l}]", down)
        if sol is not None:
            y_ls[l] = sol

    h_s1 = sys.h(sys.s, 1)
    gamma_si: dict = {}
    for i in range(2, sys.r + 1):
        if i not in x1:
            continue
        sol = factor(f"gamma_left[{i}]", mul_kron_identity(bw.gamma, x1[i], h_s1))
        if sol is not None:
            gamma_si[i] = sol

    gamma_l1: dict = {}
    gamma_resh = _reshape_gamma(big, bw.gamma)
    for l in range(1, sys.s):
        if l not in y_ls:
            continue
        # y_ls with rows (Q_l, B*_sl), so that the composite has the row order
        # of its fixed map
        y_qb = permute(y_ls[l], (sys.b(sys.s, l), big.q[l - 1]), (big.q[sys.s - 1],),
                       (1, 0), (2,))
        sol = factor(f"gamma_right[{l}]", kron_identity_mul(y_qb, h_s1, gamma_resh))
        if sol is not None:
            gamma_l1[l] = sol

    for l in range(1, sys.s):
        for i in range(2, sys.r + 1):
            if l not in y_ls or i not in gamma_si:
                continue
            factor(f"mixed[{l},{i}]", mul_kron_identity(_ytilde(sys, big, l, y_ls[l]),
                                                         gamma_si[i], sys.b(sys.s, l)))

    for l in range(1, sys.s):
        for i in range(2, sys.r + 1):
            if l not in gamma_l1 or i not in x1:
                continue
            factor(f"mixed_dual[{l},{i}]", kron_identity_mul(
                gamma_l1[l], sys.a(i, 1), _reshape_x1(big, sys, i, x1[i])))

    all_fact = all(fact_ok.values())
    all_rank = all(rank_ok.values())
    if all_fact and all_rank:
        return ZReport("in_Z", rank_ok, fact_ok)
    if all_fact and rank_defect:
        return ZReport("boundary", rank_ok, fact_ok,
                       ("necessary closure conditions hold; ranks dropped",))
    return ZReport("outside", rank_ok, fact_ok)


def _reshape_y(big: BigSetting, l: int, y: RatMatrix) -> RatMatrix:
    """y_l as a map Q_{l+1} -> B*_{l+1,l} (x) Q_l."""
    return permute(y, (big.q[l - 1],), (big.q[l], big.system.b(l + 1, l)), (2, 0), (1,))


def _ytilde(sys: CompositionSystem, big: BigSetting, l: int,
            yls: RatMatrix) -> RatMatrix:
    """y_{ls} as a map Q_s (x) B_sl -> Q_l."""
    return permute(yls, (sys.b(sys.s, l), big.q[l - 1]), (big.q[sys.s - 1],), (1,), (2, 0))


def _reshape_gamma(big: BigSetting, gamma: RatMatrix) -> RatMatrix:
    """gamma as a map P_1 -> Q_s (x) H_s1."""
    sys = big.system
    return permute(gamma, (big.q[sys.s - 1],), (big.p[0], sys.h(sys.s, 1)), (0, 2), (1,))


def _reshape_x1(big: BigSetting, sys: CompositionSystem, i: int,
                x1i: RatMatrix) -> RatMatrix:
    """x_{1i} as a map P_i -> P_1 (x) A*_i1."""
    return permute(x1i, (big.p[0],), (big.p[i - 1], sys.a(i, 1)), (0, 2), (1,))


def _chain_tau_b(sys: CompositionSystem, l: int) -> RatMatrix:
    """Iterated multiplication B_{s,s-1} (x) ... (x) B_{l+1,l} -> B_sl."""
    s = sys.s
    tau = RatMatrix.identity(sys.b(s, s - 1))
    for k in range(s - 2, l - 1, -1):
        step = sys.comp_bb[(s, k + 1, k)]
        tau = mul_kron_identity(step, tau, sys.b(k + 1, k))
    return tau


# ----------------------------------------------------------------------
# destabilizer search on the enlarged chain
# ----------------------------------------------------------------------


def _chain_links(bw: BigElement) -> list[tuple[RatMatrix, int]]:
    """The chain maps P_r -> ... -> P_1 -> Q_s -> ... -> Q_1 in order, each as
    (map, d): it sends a basis B of its source to map @ (B (x) I_d)."""
    sys = bw.setting.system
    return ([(bw.x[i], sys.a(i, i - 1)) for i in range(sys.r, 1, -1)]
            + [(bw.gamma, sys.h(sys.s, 1))]
            + [(bw.y[l], sys.b(l + 1, l)) for l in range(sys.s - 1, 0, -1)])


def _chain_saturate(bw: BigElement, seeds_p: list[RatMatrix],
                    seeds_q: list[RatMatrix]) -> tuple[list[RatMatrix], list[RatMatrix]]:
    """Minimal downstream-invariant family containing the seeds."""
    r = bw.setting.system.r
    bases = seeds_p[::-1] + seeds_q[::-1]
    for k, (link, d) in enumerate(_chain_links(bw)):
        bases[k + 1] = bases[k + 1].hstack(mul_kron_identity(link, bases[k], d)) \
            .column_space_basis()
    return bases[r - 1::-1], bases[:r - 1:-1]


def big_destabilizer_search(bw: BigElement, assoc: AssociatedPolarization,
                            budget: int = 200, seed: int = 0,
                            transported: list[SubspaceFamily] | None = None
                            ) -> StabilityVerdict:
    """Search for destabilizing families on the enlarged chain.

    Seeds are zero-or-full products plus optionally transported saturated
    families of small-space witnesses, plus random subspaces; every seed is
    completed downstream minimally, which maximizes the discriminant.
    """
    big = bw.setting
    sys = big.system
    rng = random.Random(seed)
    alpha, beta = assoc.alpha, assoc.beta
    used = 0
    wall = None

    def evaluate(seeds_p, seeds_q):
        nonlocal used, wall
        used += 1
        p_bases, q_bases = _chain_saturate(bw, seeds_p, seeds_q)
        dims_p = [b.ncols for b in p_bases]
        dims_q = [b.ncols for b in q_bases]
        if dims_p == list(big.p) and dims_q == list(big.q):
            return None
        if not any(dims_p) and not any(dims_q):
            return None
        delta = (sum((a * d for a, d in zip(alpha, dims_p)), ZERO)
                 - sum((b * d for b, d in zip(beta, dims_q)), ZERO))
        fam = SubspaceFamily(tuple(p_bases), tuple(q_bases))
        if delta > 0:
            return StabilityVerdict(UNSTABLE, None, fam, delta, used)
        if delta == 0 and wall is None:
            wall = StabilityVerdict(NOT_STABLE, None, fam, delta, used)
        return None

    for flags in product((False, True), repeat=sys.r + sys.s):
        seeds_p = [RatMatrix.identity(big.p[i]) if flags[i]
                   else RatMatrix.zeros(big.p[i], 0) for i in range(sys.r)]
        seeds_q = [RatMatrix.identity(big.q[l]) if flags[sys.r + l]
                   else RatMatrix.zeros(big.q[l], 0) for l in range(sys.s)]
        hit = evaluate(seeds_p, seeds_q)
        if hit is not None:
            return hit
        if used >= budget:
            break
    if transported:
        for fam in transported:
            if used >= budget:
                break
            hit = evaluate(list(fam.mprime), list(fam.nprime))
            if hit is not None:
                return hit
    while used < budget:
        seeds_p = []
        for i in range(sys.r):
            k = rng.randrange(0, big.p[i] + 1)
            cols = [[Fraction(rng.randint(-2, 2)) for _ in range(big.p[i])]
                    for _ in range(k)]
            seeds_p.append(stack_columns(cols, big.p[i]).column_space_basis())
        seeds_q = []
        for l in range(sys.s):
            k = rng.randrange(0, big.q[l] + 1)
            cols = [[Fraction(rng.randint(-2, 2)) for _ in range(big.q[l])]
                    for _ in range(k)]
            seeds_q.append(stack_columns(cols, big.q[l]).column_space_basis())
        hit = evaluate(seeds_p, seeds_q)
        if hit is not None:
            return hit
    if wall is not None:
        wall.budget_used = used
        return wall
    return StabilityVerdict(NO_DESTABILIZER_FOUND, budget_used=used,
                            budget_exhausted=used >= budget)


def chain_invariant(bw: BigElement, fam: SubspaceFamily) -> bool:
    """Does the family absorb all three kinds of chain maps?"""
    spaces = fam.mprime[::-1] + fam.nprime[::-1]
    for k, (link, d) in enumerate(_chain_links(bw)):
        if spaces[k].ncols:
            img = mul_kron_identity(link, spaces[k], d)
            target = spaces[k + 1]
            if not img.is_zero() and (target.ncols == 0 or not target.in_column_span(img)):
                return False
    return True


def saturated_family(big: BigSetting, fam: SubspaceFamily) -> SubspaceFamily:
    """Transport a small-space family to the block-sum spaces: M'_j spans
    M'_j (x) A_ji inside P_i, and N'_m spans N'_m (x) B*_lm inside Q_l."""
    sys = big.system

    def span(sizes: list[int], blocks: list[RatMatrix]) -> RatMatrix:
        return block_matrix(sizes, [b.ncols for b in blocks],
                            {(k, k): b for k, b in enumerate(blocks)}).column_space_basis()

    p_bases = tuple(span(big.p_sizes(i), [kron_identity_right(fam.mprime[j - 1], sys.a(j, i))
                                          for j in range(i, sys.r + 1)])
                    for i in range(1, sys.r + 1))
    q_bases = tuple(span(big.q_sizes(l), [kron_identity_right(fam.nprime[m - 1], sys.b(l, m))
                                          for m in range(1, l + 1)])
                    for l in range(1, sys.s + 1))
    return SubspaceFamily(p_bases, q_bases)
