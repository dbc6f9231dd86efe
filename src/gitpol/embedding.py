"""The reductive enlargement: big spaces, the embedding, orbit saturation.

The left spaces are stacked sums P_i = (+)_{j>=i} M_j (x) A_ji, the right ones
Q_l = (+)_{m<=l} N_m (x) B*_lm.  A morphism w embeds as
zeta(w) = (canonical chain maps, gamma(w), canonical chain maps); the group
embeds block-unitriangularly via theta.  Membership in the orbit saturation of
the image is decided by exact rank equalities and factorization tests (a map
factors through a surjection iff it kills the kernel, through an injection iff
its image fits).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .exact import (ONE, ZERO, RatMatrix, identity_kron_mul, kron, kron_identity_mul,
                    kron_identity_right, mul_identity_kron, mul_kron_identity,
                    stack_columns)
from .polarization import AssociatedPolarization, big_dims
from .setting import (CompositionSystem, GroupElement, MorphismElement,
                      SchemaError)
from .stability import (NO_DESTABILIZER_FOUND, NOT_STABLE, UNSTABLE,
                        StabilityVerdict, SubspaceFamily)


@dataclass
class BigSetting:
    system: CompositionSystem
    p: tuple[int, ...]
    q: tuple[int, ...]
    xi: dict          # i -> p_{i-1} x (p_i * a(i,i-1)),  i = 2..r
    eta: dict         # l -> q_l x (q_{l+1} * b(l+1,l)),  l = 1..s-1

    def p_offset(self, i: int, j: int) -> int:
        """Offset of the block M_j (x) A_ji inside P_i."""
        sys = self.system
        return sum(sys.m[k - 1] * sys.a(k, i) for k in range(i, j))

    def q_offset(self, l: int, m: int) -> int:
        """Offset of the block N_m (x) B*_lm inside Q_l."""
        sys = self.system
        return sum(sys.n[k - 1] * sys.b(l, k) for k in range(1, m))


@dataclass
class BigElement:
    setting: BigSetting
    x: dict           # i -> RatMatrix, like xi
    gamma: RatMatrix  # q_s x (p_1 * h(s,1))
    y: dict           # l -> RatMatrix, like eta


def build_big(sys: CompositionSystem) -> BigSetting:
    p, q = big_dims(sys)
    big = BigSetting(sys, p, q, {}, {})
    for i in range(2, sys.r + 1):
        a_step = sys.a(i, i - 1)
        mat = RatMatrix.zeros(p[i - 2], p[i - 1] * a_step)
        for j in range(i, sys.r + 1):
            comp = sys.comp_aa[(j, i, i - 1)]
            src_off = big.p_offset(i, j)
            tgt_off = big.p_offset(i - 1, j)
            aji, ajim1 = sys.a(j, i), sys.a(j, i - 1)
            for pp in range(sys.m[j - 1]):
                for c2 in range(ajim1):
                    row = comp.rows[c2]
                    for c in range(aji):
                        for cs in range(a_step):
                            v = row[c * a_step + cs]
                            if v != 0:
                                mat.rows[tgt_off + pp * ajim1 + c2][
                                    (src_off + pp * aji + c) * a_step + cs] = v
        big.xi[i] = mat
    for l in range(1, sys.s):
        b_step = sys.b(l + 1, l)
        mat = RatMatrix.zeros(q[l - 1], q[l] * b_step)
        for m in range(1, l + 1):
            comp = sys.comp_bb[(l + 1, l, m)]
            src_off = big.q_offset(l + 1, m)
            tgt_off = big.q_offset(l, m)
            bl1m, blm = sys.b(l + 1, m), sys.b(l, m)
            for t in range(sys.n[m - 1]):
                for d2 in range(blm):
                    for d in range(bl1m):
                        row = comp.rows[d]
                        for cb in range(b_step):
                            v = row[cb * blm + d2]
                            if v != 0:
                                mat.rows[tgt_off + t * blm + d2][
                                    (src_off + t * bl1m + d) * b_step + cb] = v
        big.eta[l] = mat
    return big


def zeta(big: BigSetting, w: MorphismElement) -> BigElement:
    """The embedding: canonical chain maps plus the assembled gamma block."""
    sys = big.system
    if w.mults != (sys.m, sys.n):
        raise SchemaError("the embedding is defined at the system multiplicities")
    s = sys.s
    h_s1 = sys.h(s, 1)
    gamma = RatMatrix.zeros(big.q[s - 1], big.p[0] * h_s1)
    for l in range(1, s + 1):
        comp_b = sys.comp_bh[(s, l, 1)]     # B_sl (x) H_l1 -> H_s1
        b_sl = sys.b(s, l)
        tgt_off = big.q_offset(s, l)
        for i in range(1, sys.r + 1):
            comp_a = sys.comp_ha[(l, i, 1)]  # H_li (x) A_i1 -> H_l1
            blk = w.block(l, i)
            h_li, a_i1, h_l1 = sys.h(l, i), sys.a(i, 1), sys.h(l, 1)
            src_off = big.p_offset(1, i)
            for t in range(sys.n[l - 1]):
                for pp in range(sys.m[i - 1]):
                    for ki in range(h_li):
                        phi = blk.rows[t * h_li + ki][pp]
                        if phi == 0:
                            continue
                        for c in range(a_i1):
                            col_a = ki * a_i1 + c
                            for k1 in range(h_l1):
                                va = comp_a.rows[k1][col_a]
                                if va == 0:
                                    continue
                                for d in range(b_sl):
                                    col_b = d * h_l1 + k1
                                    for ks in range(h_s1):
                                        vb = comp_b.rows[ks][col_b]
                                        if vb != 0:
                                            gamma.rows[tgt_off + t * b_sl + d][
                                                (src_off + pp * a_i1 + c) * h_s1 + ks
                                            ] += phi * va * vb
    return BigElement(big, dict(big.xi), gamma, dict(big.eta))


def gamma_injectivity_check(big: BigSetting) -> bool:
    """Rank of w -> gamma(w) equals dim W (the embedding is injective)."""
    sys = big.system
    cols = []
    zero = MorphismElement.zero(sys)
    for l in range(1, sys.s + 1):
        for i in range(1, sys.r + 1):
            blk = zero.block(l, i)
            for rr in range(blk.nrows):
                for cc in range(blk.ncols):
                    w = MorphismElement.zero(sys)
                    w.blocks[(l, i)].rows[rr][cc] = ONE
                    g = zeta(big, w).gamma
                    cols.append([g.rows[a][b] for a in range(g.nrows)
                                 for b in range(g.ncols)])
    if not cols:
        return True
    mat = RatMatrix.from_columns(cols)
    return mat.rank_at_least(sys.dim_w)


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
        mat = RatMatrix.zeros(big.p[i - 1], big.p[i - 1])
        for j in range(i, sys.r + 1):
            aji = sys.a(j, i)
            off_j = big.p_offset(i, j)
            gj = g.g[j - 1]
            for p1 in range(sys.m[j - 1]):
                for p2 in range(sys.m[j - 1]):
                    v = gj.rows[p1][p2]
                    if v != 0:
                        for c in range(aji):
                            mat.rows[off_j + p1 * aji + c][off_j + p2 * aji + c] = v
            for k in range(j + 1, sys.r + 1):
                comp = sys.comp_aa[(k, j, i)]
                aki, akj = sys.a(k, i), sys.a(k, j)
                off_k = big.p_offset(i, k)
                ukj = g.u[(k, j)]
                for pk in range(sys.m[k - 1]):
                    for pj in range(sys.m[j - 1]):
                        for ckj in range(akj):
                            uval = ukj.rows[pk * akj + ckj][pj]
                            if uval == 0:
                                continue
                            for cki in range(aki):
                                row = comp.rows[cki]
                                for cji in range(aji):
                                    v = row[ckj * aji + cji]
                                    if v != 0:
                                        mat.rows[off_k + pk * aki + cki][
                                            off_j + pj * aji + cji] += uval * v
        left.append(mat)
    right = []
    for l in range(1, sys.s + 1):
        mat = RatMatrix.zeros(big.q[l - 1], big.q[l - 1])
        for m in range(1, l + 1):
            blm = sys.b(l, m)
            off_m = big.q_offset(l, m)
            hm = g.hh[m - 1]
            for t1 in range(sys.n[m - 1]):
                for t2 in range(sys.n[m - 1]):
                    v = hm.rows[t1][t2]
                    if v != 0:
                        for d in range(blm):
                            mat.rows[off_m + t1 * blm + d][off_m + t2 * blm + d] = v
            for k in range(m + 1, l + 1):
                comp = sys.comp_bb[(l, k, m)]
                blk_, bkm = sys.b(l, k), sys.b(k, m)
                off_k = big.q_offset(l, k)
                vkm = g.v[(k, m)]
                for tk in range(sys.n[k - 1]):
                    for tm in range(sys.n[m - 1]):
                        for cb in range(bkm):
                            uval = vkm.rows[tk * bkm + cb][tm]
                            if uval == 0:
                                continue
                            for d2 in range(blk_):
                                for d in range(blm):
                                    v = comp.rows[d][d2 * bkm + cb]
                                    if v != 0:
                                        mat.rows[off_k + tk * blk_ + d2][
                                            off_m + tm * blm + d] += uval * v
        right.append(mat)
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


def _factor_through_surjection(c: RatMatrix, pi: RatMatrix) -> RatMatrix | None:
    """X with X @ pi = c, when c kills the kernel of the surjection pi."""
    sol = pi.transpose().solve_right(c.transpose())
    if sol is None:
        return None
    x = sol.transpose()
    return x if (x * pi) == c else None


def _factor_through_injection(c: RatMatrix, iota: RatMatrix) -> RatMatrix | None:
    """X with iota @ X = c, when the image of c fits inside that of iota."""
    sol = iota.solve_right(c)
    if sol is None:
        return None
    return sol if (iota * sol) == c else None


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
    b_step = sys.b(l + 1, l)
    out = RatMatrix.zeros(b_step * big.q[l - 1], big.q[l])
    for t in range(big.q[l - 1]):
        for u in range(big.q[l]):
            for cb in range(b_step):
                v = y.rows[t][u * b_step + cb]
                if v != 0:
                    out.rows[cb * big.q[l - 1] + t][u] = v
    return out.rank()


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

    x1: dict = {}
    if sys.r >= 2:
        x1[2] = bw.x[2]
    composite = bw.x.get(2)
    tdim = sys.a(2, 1)
    for i in range(3, sys.r + 1):
        composite = mul_kron_identity(composite, bw.x[i], tdim)
        tdim *= sys.a(i, i - 1)
        pi_map = kron(RatMatrix.identity(big.p[i - 1]), _chain_tau_a(sys, i))
        sol = _factor_through_surjection(composite, pi_map)
        fact_ok[f"chain_left[{i}]"] = sol is not None
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
        iota = kron_identity_right(_chain_tau_b(sys, l).transpose(), big.q[l - 1])
        sol = _factor_through_injection(down, iota)
        fact_ok[f"chain_right[{l}]"] = sol is not None
        if sol is not None:
            y_ls[l] = sol

    gamma_si: dict = {}
    for i in range(2, sys.r + 1):
        if i not in x1:
            continue
        composite_g = mul_kron_identity(bw.gamma, x1[i], sys.h(sys.s, 1))
        sigma = _sigma_ah(sys, big, i)
        sol = _factor_through_surjection(composite_g, sigma)
        fact_ok[f"gamma_left[{i}]"] = sol is not None
        if sol is not None:
            gamma_si[i] = sol

    gamma_l1: dict = {}
    gamma_resh = _reshape_gamma(big, bw.gamma)
    for l in range(1, sys.s):
        if l not in y_ls:
            continue
        comp = kron_identity_mul(y_ls[l], sys.h(sys.s, 1), gamma_resh)
        iota = _iota_bh(sys, big, l)
        sol = _factor_through_injection(comp, iota)
        fact_ok[f"gamma_right[{l}]"] = sol is not None
        if sol is not None:
            gamma_l1[l] = sol

    for l in range(1, sys.s):
        for i in range(2, sys.r + 1):
            if l not in y_ls or i not in gamma_si:
                continue
            comp = mul_kron_identity(_ytilde(sys, big, l, y_ls[l]), gamma_si[i],
                                     sys.b(sys.s, l))
            sigma = _sigma_bh_mixed(sys, big, l, i)
            fact_ok[f"mixed[{l},{i}]"] = _factor_through_surjection(comp, sigma) is not None

    for l in range(1, sys.s):
        for i in range(2, sys.r + 1):
            if l not in gamma_l1 or i not in x1:
                continue
            comp = kron_identity_mul(gamma_l1[l], sys.a(i, 1),
                                     _reshape_x1(big, sys, i, x1[i]))
            iota = _iota_ha_mixed(sys, big, l, i)
            fact_ok[f"mixed_dual[{l},{i}]"] = _factor_through_injection(comp, iota) is not None

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
    sys = big.system
    b_step = sys.b(l + 1, l)
    out = RatMatrix.zeros(b_step * big.q[l - 1], big.q[l])
    for t in range(big.q[l - 1]):
        for u in range(big.q[l]):
            for cb in range(b_step):
                v = y.rows[t][u * b_step + cb]
                if v != 0:
                    out.rows[cb * big.q[l - 1] + t][u] = v
    return out


def _ytilde(sys: CompositionSystem, big: BigSetting, l: int,
            yls: RatMatrix) -> RatMatrix:
    """y_{ls} as a map Q_s (x) B_sl -> Q_l."""
    b_sl = sys.b(sys.s, l)
    out = RatMatrix.zeros(big.q[l - 1], big.q[sys.s - 1] * b_sl)
    for d in range(b_sl):
        for t in range(big.q[l - 1]):
            for u in range(big.q[sys.s - 1]):
                v = yls.rows[d * big.q[l - 1] + t][u]
                if v != 0:
                    out.rows[t][u * b_sl + d] = v
    return out


def _reshape_gamma(big: BigSetting, gamma: RatMatrix) -> RatMatrix:
    """gamma as a map P_1 -> Q_s (x) H_s1."""
    sys = big.system
    h_s1 = sys.h(sys.s, 1)
    out = RatMatrix.zeros(big.q[sys.s - 1] * h_s1, big.p[0])
    for t in range(big.q[sys.s - 1]):
        for p in range(big.p[0]):
            for ks in range(h_s1):
                v = gamma.rows[t][p * h_s1 + ks]
                if v != 0:
                    out.rows[t * h_s1 + ks][p] = v
    return out


def _reshape_x1(big: BigSetting, sys: CompositionSystem, i: int,
                x1i: RatMatrix) -> RatMatrix:
    """x_{1i} as a map P_i -> P_1 (x) A*_i1."""
    a_i1 = sys.a(i, 1)
    out = RatMatrix.zeros(big.p[0] * a_i1, big.p[i - 1])
    for p1 in range(big.p[0]):
        for pi in range(big.p[i - 1]):
            for c in range(a_i1):
                v = x1i.rows[p1][pi * a_i1 + c]
                if v != 0:
                    out.rows[p1 * a_i1 + c][pi] = v
    return out


def _chain_tau_b(sys: CompositionSystem, l: int) -> RatMatrix:
    """Iterated multiplication B_{s,s-1} (x) ... (x) B_{l+1,l} -> B_sl."""
    s = sys.s
    tau = RatMatrix.identity(sys.b(s, s - 1))
    for k in range(s - 2, l - 1, -1):
        step = sys.comp_bb[(s, k + 1, k)]
        tau = mul_kron_identity(step, tau, sys.b(k + 1, k))
    return tau


def _sigma_ah(sys: CompositionSystem, big: BigSetting, i: int) -> RatMatrix:
    """Surjection P_i (x) A_i1 (x) H*_s1 -> P_i (x) H*_si."""
    comp = sys.comp_ha[(sys.s, i, 1)]      # H_si (x) A_i1 -> H_s1
    a_i1, h_si, h_s1 = sys.a(i, 1), sys.h(sys.s, i), sys.h(sys.s, 1)
    pdim = big.p[i - 1]
    out = RatMatrix.zeros(pdim * h_si, pdim * a_i1 * h_s1)
    for ksi in range(h_si):
        for c in range(a_i1):
            row_block = comp.rows
            for k1 in range(h_s1):
                v = row_block[k1][ksi * a_i1 + c]
                if v != 0:
                    for p in range(pdim):
                        out.rows[p * h_si + ksi][(p * a_i1 + c) * h_s1 + k1] = v
    return out


def _sigma_bh_mixed(sys: CompositionSystem, big: BigSetting, l: int,
                    i: int) -> RatMatrix:
    """Surjection P_i (x) H*_si (x) B_sl -> P_i (x) H*_li."""
    comp = sys.comp_bh[(sys.s, l, i)]      # B_sl (x) H_li -> H_si
    b_sl, h_li, h_si = sys.b(sys.s, l), sys.h(l, i), sys.h(sys.s, i)
    pdim = big.p[i - 1]
    out = RatMatrix.zeros(pdim * h_li, pdim * h_si * b_sl)
    for kli in range(h_li):
        for d in range(b_sl):
            for ksi in range(h_si):
                v = comp.rows[ksi][d * h_li + kli]
                if v != 0:
                    for p in range(pdim):
                        out.rows[p * h_li + kli][(p * h_si + ksi) * b_sl + d] = v
    return out


def _iota_bh(sys: CompositionSystem, big: BigSetting, l: int) -> RatMatrix:
    """Injection Q_l (x) H_l1 -> B*_sl (x) Q_l (x) H_s1."""
    comp = sys.comp_bh[(sys.s, l, 1)]      # B_sl (x) H_l1 -> H_s1
    b_sl, h_l1, h_s1 = sys.b(sys.s, l), sys.h(l, 1), sys.h(sys.s, 1)
    qdim = big.q[l - 1]
    out = RatMatrix.zeros(b_sl * qdim * h_s1, qdim * h_l1)
    for d in range(b_sl):
        for k1 in range(h_l1):
            for ks in range(h_s1):
                v = comp.rows[ks][d * h_l1 + k1]
                if v != 0:
                    for t in range(qdim):
                        out.rows[(d * qdim + t) * h_s1 + ks][t * h_l1 + k1] = v
    return out


def _iota_ha_mixed(sys: CompositionSystem, big: BigSetting, l: int,
                   i: int) -> RatMatrix:
    """Injection Q_l (x) H_li -> Q_l (x) H_l1 (x) A*_i1."""
    comp = sys.comp_ha[(l, i, 1)]          # H_li (x) A_i1 -> H_l1
    a_i1, h_li, h_l1 = sys.a(i, 1), sys.h(l, i), sys.h(l, 1)
    qdim = big.q[l - 1]
    out = RatMatrix.zeros(qdim * h_l1 * a_i1, qdim * h_li)
    for k1 in range(h_l1):
        for c in range(a_i1):
            for kli in range(h_li):
                v = comp.rows[k1][kli * a_i1 + c]
                if v != 0:
                    for t in range(qdim):
                        out.rows[(t * h_l1 + k1) * a_i1 + c][t * h_li + kli] = v
    return out


# ----------------------------------------------------------------------
# destabilizer search on the enlarged chain
# ----------------------------------------------------------------------


def _chain_saturate(bw: BigElement, seeds_p: list[RatMatrix],
                    seeds_q: list[RatMatrix]) -> tuple[list[RatMatrix], list[RatMatrix]]:
    """Minimal downstream-invariant family containing the seeds."""
    big = bw.setting
    sys = big.system
    p_bases = [seeds_p[i] for i in range(sys.r)]
    for i in range(sys.r, 1, -1):
        basis = p_bases[i - 1]
        img_cols = []
        if basis.ncols:
            prod = mul_kron_identity(bw.x[i], basis, sys.a(i, i - 1))
            img_cols = prod.columns()
        combined = p_bases[i - 2].hstack(stack_columns(img_cols, big.p[i - 2]))
        p_bases[i - 2] = combined.column_space_basis()
    q_bases = [seeds_q[l] for l in range(sys.s)]
    top = q_bases[sys.s - 1]
    extra = []
    if p_bases[0].ncols:
        prod = mul_kron_identity(bw.gamma, p_bases[0], sys.h(sys.s, 1))
        extra = prod.columns()
    q_bases[sys.s - 1] = top.hstack(stack_columns(extra, big.q[sys.s - 1])) \
        .column_space_basis()
    for l in range(sys.s - 1, 0, -1):
        basis = q_bases[l]
        img_cols = []
        if basis.ncols:
            prod = mul_kron_identity(bw.y[l], basis, sys.b(l + 1, l))
            img_cols = prod.columns()
        combined = q_bases[l - 1].hstack(stack_columns(img_cols, big.q[l - 1]))
        q_bases[l - 1] = combined.column_space_basis()
    return p_bases, q_bases


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

    for flags in itertools.product((False, True), repeat=sys.r + sys.s):
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
    big = bw.setting
    sys = big.system
    for i in range(2, sys.r + 1):
        basis = fam.mprime[i - 1]
        target = fam.mprime[i - 2]
        if basis.ncols:
            img = mul_kron_identity(bw.x[i], basis, sys.a(i, i - 1))
            if not img.is_zero() and (target.ncols == 0
                                      or not target.in_column_span(img)):
                return False
    if fam.mprime[0].ncols:
        img = mul_kron_identity(bw.gamma, fam.mprime[0], sys.h(sys.s, 1))
        target = fam.nprime[sys.s - 1]
        if not img.is_zero() and (target.ncols == 0 or not target.in_column_span(img)):
            return False
    for l in range(1, sys.s):
        basis = fam.nprime[l]
        target = fam.nprime[l - 1]
        if basis.ncols:
            img = mul_kron_identity(bw.y[l], basis, sys.b(l + 1, l))
            if not img.is_zero() and (target.ncols == 0
                                      or not target.in_column_span(img)):
                return False
    return True


def saturated_family(big: BigSetting, fam: SubspaceFamily) -> SubspaceFamily:
    """Transport a small-space family to the block-sum spaces."""
    sys = big.system
    p_bases = []
    for i in range(1, sys.r + 1):
        cols = []
        for j in range(i, sys.r + 1):
            basis = fam.mprime[j - 1]
            aji = sys.a(j, i)
            off = big.p_offset(i, j)
            for cidx in range(basis.ncols):
                for c in range(aji):
                    vec = [ZERO] * big.p[i - 1]
                    for p in range(sys.m[j - 1]):
                        vec[off + p * aji + c] = basis.rows[p][cidx]
                    cols.append(vec)
        p_bases.append(stack_columns(cols, big.p[i - 1]).column_space_basis())
    q_bases = []
    for l in range(1, sys.s + 1):
        cols = []
        for m in range(1, l + 1):
            basis = fam.nprime[m - 1]
            blm = sys.b(l, m)
            off = big.q_offset(l, m)
            for cidx in range(basis.ncols):
                for d in range(blm):
                    vec = [ZERO] * big.q[l - 1]
                    for t in range(sys.n[m - 1]):
                        vec[off + t * blm + d] = basis.rows[t][cidx]
                    cols.append(vec)
        q_bases.append(stack_columns(cols, big.q[l - 1]).column_space_basis())
    return SubspaceFamily(tuple(p_bases), tuple(q_bases))
