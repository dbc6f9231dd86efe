from fractions import Fraction as F

import pytest

from gitpol.embedding import (BigElement, big_act, big_destabilizer_search,
                              build_big, gamma_injectivity_check, saturated_family,
                              theta, z_membership, zeta)
from gitpol.exact import RatMatrix, kron_identity_right
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
