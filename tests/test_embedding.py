import random
from fractions import Fraction as F

import pytest

from gitpol.embedding import (BigElement, big_act, big_destabilizer_search,
                              build_big, gamma_injectivity_check, saturated_family,
                              theta, z_membership, zeta)
from gitpol.exact import RatMatrix, kron_identity_right, stack_columns
from gitpol.polarization import Polarization, associated, saturated_dims
from gitpol.setting import (GroupElement, MorphismElement, ProblemSpec,
                            act, build_line_bundle_system, compose_group,
                            random_morphism, random_reductive, random_unipotent)
from gitpol.stability import NOT_STABLE, UNSTABLE, SubspaceFamily, zero_or_full

SYS_21P2 = build_line_bundle_system(ProblemSpec(2, ((-2, 2), (-1, 1)), ((0, 3),)))
SYS_22P3 = build_line_bundle_system(ProblemSpec(3, ((-2, 1), (-1, 1)), ((0, 1), (1, 3))))
SYS_31P3 = build_line_bundle_system(ProblemSpec(3, ((-4, 1), (-2, 1), (-1, 1)), ((0, 5),)))
BIG_21P2 = build_big(SYS_21P2)
BIG_22P3 = build_big(SYS_22P3)


def test_big_dimensions():
    assert BIG_21P2.p == (5, 1) and BIG_21P2.q == (3,)
    assert BIG_22P3.p == (5, 1) and BIG_22P3.q == (1, 7)
    big_triple = build_big(SYS_31P3)
    assert big_triple.p == (31, 5, 1) and big_triple.q == (5,)


def test_chain_maps_have_stated_ranks():
    for sysm, big in ((SYS_21P2, BIG_21P2), (SYS_22P3, BIG_22P3)):
        for i in range(2, sysm.r + 1):
            want = sum(sysm.m[j - 1] * sysm.a(j, i - 1) for j in range(i, sysm.r + 1))
            assert big.xi[i].rank() == want
        from gitpol.embedding import _reshaped_y_rank

        for l in range(1, sysm.s):
            want = sum(sysm.b(l + 1, k) * sysm.n[k - 1] for k in range(1, l + 1))
            assert _reshaped_y_rank(sysm, big, l, big.eta[l]) == want


def test_zeta_zero_and_linearity():
    w0 = MorphismElement.zero(SYS_22P3)
    bw = zeta(BIG_22P3, w0)
    assert bw.gamma.is_zero()
    w1 = random_morphism(SYS_22P3, 1, 2)
    w2 = random_morphism(SYS_22P3, 2, 2)
    lhs = zeta(BIG_22P3, w1 + w2).gamma
    assert lhs == zeta(BIG_22P3, w1).gamma + zeta(BIG_22P3, w2).gamma


def test_gamma_injectivity_examples():
    assert gamma_injectivity_check(BIG_21P2)
    assert gamma_injectivity_check(BIG_22P3)
    tiny = build_line_bundle_system(ProblemSpec(2, ((-1, 2),), ((0, 2),)))
    assert gamma_injectivity_check(build_big(tiny))


def test_theta_is_homomorphism_and_stabilizes_chain():
    for sysm, big in ((SYS_21P2, BIG_21P2), (SYS_22P3, BIG_22P3)):
        g1 = compose_group(random_reductive(sysm, 3), random_unipotent(sysm, 4, 2))
        g2 = random_unipotent(sysm, 5, 2)
        l12, r12 = theta(big, compose_group(g2, g1))
        l1, r1 = theta(big, g1)
        l2, r2 = theta(big, g2)
        assert all(l2[i] * l1[i] == l12[i] for i in range(sysm.r))
        assert all(r2[l] * r1[l] == r12[l] for l in range(sysm.s))
        # the whole group fixes the distinguished chain maps
        base = BigElement(big, dict(big.xi),
                          zeta(big, MorphismElement.zero(sysm)).gamma, dict(big.eta))
        moved = big_act(big, theta(big, g1), base)
        assert all(moved.x[i] == big.xi[i] for i in moved.x)
        assert all(moved.y[l] == big.eta[l] for l in moved.y)


def test_zeta_equivariance_sample():
    for sysm, big in ((SYS_21P2, BIG_21P2), (SYS_22P3, BIG_22P3)):
        for k in range(8):
            w = random_morphism(sysm, 100 + k, 2)
            g = compose_group(random_reductive(sysm, 200 + k),
                              random_unipotent(sysm, 300 + k, 2))
            lhs = zeta(big, act(g, w))
            rhs = big_act(big, theta(big, g), zeta(big, w))
            assert lhs.gamma == rhs.gamma
            assert all(lhs.x[i] == rhs.x[i] for i in lhs.x)
            assert all(lhs.y[l] == rhs.y[l] for l in lhs.y)


def test_big_act_matches_explicit_kronecker_formula():
    sysm, big = SYS_22P3, BIG_22P3
    g = compose_group(random_reductive(sysm, 31), random_unipotent(sysm, 32, 2))
    left, right = th = theta(big, g)
    bw = zeta(big, random_morphism(sysm, 33, 2))
    moved = big_act(big, th, bw)
    left_inv = [m.inverse() for m in left]
    for i in bw.x:
        assert moved.x[i] == left[i - 2] * bw.x[i] * kron_identity_right(
            left_inv[i - 1], sysm.a(i, i - 1))
    assert moved.gamma == right[sysm.s - 1] * bw.gamma * kron_identity_right(
        left_inv[0], sysm.h(sysm.s, 1))
    for l in bw.y:
        assert moved.y[l] == right[l - 1] * bw.y[l] * kron_identity_right(
            right[l].inverse(), sysm.b(l + 1, l))


def test_z_membership_statuses():
    w = random_morphism(SYS_21P2, 7, 2)
    bw = zeta(BIG_21P2, w)
    assert z_membership(bw).status == "in_Z"
    degenerate = BigElement(BIG_21P2, {2: RatMatrix.zeros(*BIG_21P2.xi[2].shape)},
                            bw.gamma, dict(bw.y))
    assert z_membership(degenerate).status == "boundary"
    pert = RatMatrix.from_rows([list(r) for r in BIG_21P2.xi[2].rows])
    pert.rows[0][0] += 1
    assert z_membership(BigElement(BIG_21P2, {2: pert}, bw.gamma,
                                   dict(bw.y))).status == "outside"


def test_z_membership_two_sided_system():
    w = random_morphism(SYS_22P3, 8, 2)
    bw = zeta(BIG_22P3, w)
    rep = z_membership(bw)
    assert rep.status == "in_Z"
    assert rep.factorization_ok and all(rep.factorization_ok.values())
    ydeg = BigElement(BIG_22P3, dict(bw.x), bw.gamma,
                      {1: RatMatrix.zeros(*BIG_22P3.eta[1].shape)})
    assert z_membership(ydeg).status == "boundary"


def test_z_membership_chain_factorization_three_steps():
    big_triple = build_big(SYS_31P3)
    w = random_morphism(SYS_31P3, 9, 2)
    bw = zeta(big_triple, w)
    rep = z_membership(bw)
    assert rep.status == "in_Z"
    assert rep.factorization_ok["chain_left[3]"]
    # perturbing x3 breaks the chain factorization
    pert = RatMatrix.from_rows([list(r) for r in bw.x[3].rows])
    pert.rows[0][0] += 1
    rep2 = z_membership(BigElement(big_triple, {2: bw.x[2], 3: pert}, bw.gamma, {}))
    assert rep2.status == "outside"


def test_saturated_family_dims_match_formula():
    fam = SubspaceFamily((zero_or_full(1, True), zero_or_full(1, False)),
                         (zero_or_full(1, True), zero_or_full(3, False)))
    big_fam = saturated_family(BIG_22P3, fam)
    sp, sq = saturated_dims(SYS_22P3, fam.dimension_vector())
    d = big_fam.dimension_vector()
    assert d.mprime == sp and d.nprime == sq


def test_big_search_zero_gamma_unstable():
    pol = Polarization.make((F(1, 10), F(9, 10)), (F(5, 8), F(1, 8)), (1, 1), (1, 3))
    assoc = associated(pol, SYS_22P3)
    bw = BigElement(BIG_22P3, dict(BIG_22P3.xi),
                    RatMatrix.zeros(BIG_22P3.q[1], BIG_22P3.p[0] * SYS_22P3.h(2, 1)),
                    dict(BIG_22P3.eta))
    verdict = big_destabilizer_search(bw, assoc, budget=80, seed=0)
    assert verdict.status == UNSTABLE


def test_big_search_transports_small_witness():
    # an unstable small morphism destabilizes its image through the
    # saturated family with the same discriminant
    pol = Polarization.make((F(1, 6), F(5, 6)), (F(3, 4), F(1, 12)), (1, 1), (1, 3))
    assoc = associated(pol, SYS_22P3)
    w = MorphismElement.zero(SYS_22P3)
    bw = zeta(BIG_22P3, w)
    small = SubspaceFamily((zero_or_full(1, True), zero_or_full(1, True)),
                           (zero_or_full(1, False), zero_or_full(3, False)))
    transported = saturated_family(BIG_22P3, small)
    verdict = big_destabilizer_search(bw, assoc, budget=100, seed=0,
                                      transported=[transported])
    assert verdict.status == UNSTABLE
    # the transported family itself is an invariant destabilizer with the
    # discriminant carried over from the small side (the weight identity)
    from gitpol.embedding import chain_invariant
    from gitpol.polarization import weighted_discriminant

    assert chain_invariant(bw, transported)
    d = small.dimension_vector()
    small_delta = weighted_discriminant(pol.lam, pol.mu, d.mprime, d.nprime)
    td = transported.dimension_vector()
    big_delta = (sum(a * x for a, x in zip(assoc.alpha, td.mprime))
                 - sum(b * y for b, y in zip(assoc.beta, td.nprime)))
    assert big_delta == small_delta > 0


def test_big_instability_pulls_back_to_small_instability():
    # when the equality conditions hold, instability upstairs forces
    # instability downstairs; spot-check on degenerate seeded morphisms
    from gitpol.certifier import GOOD_PROJECTIVE_QUOTIENT, certify
    from gitpol.stability import destabilizer_search

    pol = Polarization.make((F(3, 20), F(7, 10)), (F(1, 3),), (2, 1), (3,))
    assert certify(SYS_21P2, pol).status == GOOD_PROJECTIVE_QUOTIENT
    assoc = associated(pol, SYS_21P2)
    found = 0
    for k in range(10):
        w = random_morphism(SYS_21P2, 800 + k, 1)
        # zero out the second-summand column so a destabilizer exists
        w.blocks[(1, 2)] = RatMatrix.zeros(*w.blocks[(1, 2)].shape)
        bw = zeta(BIG_21P2, w)
        big_verdict = big_destabilizer_search(bw, assoc, budget=120, seed=k)
        if big_verdict.status == UNSTABLE:
            found += 1
            small = destabilizer_search(w, pol, budget=250, seed=k)
            assert small.status in (UNSTABLE, NOT_STABLE)
            assert small.status == UNSTABLE
    assert found > 0


def test_boundary_detected_unstable_when_conditions_hold():
    # degenerate the chain map to zero; the boundary family must be found
    pol = Polarization.make((F(3, 20), F(7, 10)), (F(1, 3),), (2, 1), (3,))
    assoc = associated(pol, SYS_21P2)
    for k in range(5):
        w = random_morphism(SYS_21P2, 600 + k, 2)
        bw = zeta(BIG_21P2, w)
        degenerate = BigElement(BIG_21P2, {2: RatMatrix.zeros(*BIG_21P2.xi[2].shape)},
                                bw.gamma, dict(bw.y))
        assert z_membership(degenerate).status == "boundary"
        verdict = big_destabilizer_search(degenerate, assoc, budget=100, seed=k)
        assert verdict.status == UNSTABLE


def ref_gamma(big, w):
    """gamma(w) by the seven-deep index loop that `zeta` replaced."""
    sys = big.system
    s, h_s1 = sys.s, sys.h(sys.s, 1)
    gamma = RatMatrix.zeros(big.q[s - 1], big.p[0] * h_s1)
    for l in range(1, s + 1):
        comp_b = sys.comp_bh[(s, l, 1)]
        b_sl = sys.b(s, l)
        tgt_off = sum(big.q_sizes(s)[:l - 1])
        for i in range(1, sys.r + 1):
            comp_a = sys.comp_ha[(l, i, 1)]
            blk = w.block(l, i)
            h_li, a_i1, h_l1 = sys.h(l, i), sys.a(i, 1), sys.h(l, 1)
            src_off = sum(big.p_sizes(1)[:i - 1])
            for t in range(sys.n[l - 1]):
                for pp in range(sys.m[i - 1]):
                    for ki in range(h_li):
                        phi = blk.rows[t * h_li + ki][pp]
                        if phi == 0:
                            continue
                        for c in range(a_i1):
                            for k1 in range(h_l1):
                                va = comp_a.rows[k1][ki * a_i1 + c]
                                if va == 0:
                                    continue
                                for d in range(b_sl):
                                    for ks in range(h_s1):
                                        vb = comp_b.rows[ks][d * h_l1 + k1]
                                        if vb != 0:
                                            gamma.rows[tgt_off + t * b_sl + d][
                                                (src_off + pp * a_i1 + c) * h_s1 + ks
                                            ] += phi * va * vb
    return gamma


SYS_TINY = build_line_bundle_system(ProblemSpec(2, ((-1, 2),), ((0, 2),)))


def test_zeta_matches_reference_loop():
    for sysm in (SYS_21P2, SYS_22P3, SYS_31P3, SYS_TINY):
        big = build_big(sysm)
        for k in range(3):
            w = random_morphism(sysm, 40 + k, 2)
            assert zeta(big, w).gamma == ref_gamma(big, w)


def old_injectivity(big):
    """The rank of the matrix of w -> gamma(w), from unit vectors of W."""
    sysm = big.system
    cols = []
    for (l, i), blk in MorphismElement.zero(sysm).blocks.items():
        for rr in range(blk.nrows):
            for cc in range(blk.ncols):
                w = MorphismElement.zero(sysm)
                w.blocks[(l, i)].rows[rr][cc] = F(1)
                cols.append([x for row in zeta(big, w).gamma.rows for x in row])
    return RatMatrix.from_columns(cols).rank() == sysm.dim_w


def test_gamma_injectivity_check_equals_unit_vector_rank():
    for sysm in (SYS_21P2, SYS_22P3, SYS_31P3, SYS_TINY):
        big = build_big(sysm)
        assert gamma_injectivity_check(big) == old_injectivity(big) is True
    # a pairing that kills one basis vector of H_12 makes gamma non-injective
    import copy

    broken = copy.copy(SYS_21P2)
    comp = RatMatrix.from_rows([list(r) for r in SYS_21P2.comp_ha[(1, 2, 1)].rows])
    for row in comp.rows:
        row[:SYS_21P2.a(2, 1)] = [F(0)] * SYS_21P2.a(2, 1)
    broken.comp_ha = {**SYS_21P2.comp_ha, (1, 2, 1): comp}
    big = build_big(broken)
    assert gamma_injectivity_check(big) == old_injectivity(big) is False


def test_z_membership_with_one_summand_per_side():
    big = build_big(SYS_TINY)
    assert z_membership(zeta(big, random_morphism(SYS_TINY, 5, 2))).status == "in_Z"


@pytest.mark.parametrize("sysm", [
    SYS_31P3,                                                           # two x-links
    SYS_22P3,                                                           # a y-link
    build_line_bundle_system(ProblemSpec(2, ((-2, 2),), ((-1, 1), (0, 1)))),  # r = 1
], ids=["31P3", "22P3", "pencil"])
def test_chain_saturation_contains_its_seeds_and_is_invariant(sysm):
    from gitpol.embedding import _chain_saturate, chain_invariant

    big = build_big(sysm)
    rng = random.Random(11)
    r = sysm.r

    def random_basis(dim):
        cols = [[rng.randint(-1, 1) for _ in range(dim)] for _ in range(rng.randint(0, 2))]
        return stack_columns(cols, dim).column_space_basis()

    not_invariant = 0
    for k in range(4):
        bw = zeta(big, random_morphism(sysm, 300 + k, 1))
        seeds = [random_basis(d) for d in big.p + big.q]
        sat_p, sat_q = _chain_saturate(bw, seeds[:r], seeds[r:])
        for seed, basis in zip(seeds, sat_p + sat_q):
            assert not seed.ncols or basis.in_column_span(seed)
        assert chain_invariant(bw, SubspaceFamily(tuple(sat_p), tuple(sat_q)))
        # a family is invariant exactly when saturating it adds nothing; the
        # saturated family with one space cut to zero breaks at most the link
        # into that space
        cuts = [sat_p + sat_q]
        cuts += [cuts[0][:j] + [RatMatrix.zeros(basis.nrows, 0)] + cuts[0][j + 1:]
                 for j, basis in enumerate(cuts[0])]
        for fam in [seeds] + cuts:
            again = _chain_saturate(bw, fam[:r], fam[r:])
            grows = [b.ncols for b in again[0] + again[1]] != [b.ncols for b in fam]
            assert chain_invariant(bw, SubspaceFamily(tuple(fam[:r]), tuple(fam[r:]))) != grows
            not_invariant += grows
    assert not_invariant


# s = 3: the only shapes on which z_membership runs its chain-right test
SYS_13 = build_line_bundle_system(ProblemSpec(2, ((-1, 1),), ((0, 1), (1, 1), (2, 1))))
SYS_23 = build_line_bundle_system(ProblemSpec(2, ((-2, 1), (-1, 1)),
                                              ((0, 1), (1, 1), (2, 1))))


@pytest.mark.parametrize("sysm", [SYS_13, SYS_23], ids=["r1s3", "r2s3"])
def test_z_membership_chain_right_branch(sysm):
    big = build_big(sysm)
    for k in range(3):
        w = random_morphism(sysm, 500 + k, 2)
        bw = zeta(big, w)
        rep = z_membership(bw)
        assert rep.status == "in_Z"
        assert rep.factorization_ok["chain_right[1]"]
        g = compose_group(random_reductive(sysm, 510 + k), random_unipotent(sysm, 520 + k, 2))
        lhs = zeta(big, act(g, w))
        rhs = big_act(big, theta(big, g), bw)
        assert lhs.gamma == rhs.gamma
        assert all(lhs.x[i] == rhs.x[i] for i in lhs.x)
        assert all(lhs.y[l] == rhs.y[l] for l in lhs.y)
        # a perturbed y[1] no longer factors through the chain
        pert = RatMatrix.from_rows([list(r) for r in bw.y[1].rows])
        pert.rows[0][0] += 1
        rep = z_membership(BigElement(big, dict(bw.x), bw.gamma, {**bw.y, 1: pert}))
        assert rep.status == "outside"
        assert not rep.factorization_ok["chain_right[1]"]
        for l in bw.y:
            zero = RatMatrix.zeros(*bw.y[l].shape)
            rep = z_membership(BigElement(big, dict(bw.x), bw.gamma, {**bw.y, l: zero}))
            assert rep.status == "boundary"
