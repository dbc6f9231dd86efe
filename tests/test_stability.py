import random
from fractions import Fraction as F

import pytest

from gitpol.exact import RatMatrix, stack_columns
from gitpol.poly import Poly
from gitpol.polarization import DimensionVector, Polarization, weighted_discriminant
from gitpol.setting import (GroupElement, MorphismElement, ProblemSpec, SchemaError,
                            act, build_line_bundle_system, compose_group,
                            invert_group, random_morphism, random_reductive,
                            random_unipotent)
from gitpol.stability import (MU1_GT_HALF, MU1_LT_HALF, NO_DESTABILIZER_FOUND,
                              NOT_STABLE, STABLE_EXACT, UNSTABLE, FiltrationFamily,
                              StabilityVerdict, SubspaceFamily, brute_force_families,
                              decide_pencil, destabilizer_search, family_from_flags,
                              g_stability_sample, graded_piece, gred_exhaustive,
                              is_invariant, reverify, saturate_down, saturate_up,
                              verify_jh, zero_or_full)

SPEC_21P2 = ProblemSpec(2, ((-2, 2), (-1, 1)), ((0, 3),))
SYS_21P2 = build_line_bundle_system(SPEC_21P2)
POL_21P2 = Polarization.make((F(1, 6), F(2, 3)), (F(1, 3),), (2, 1), (3,))

SPEC_PENCIL = ProblemSpec(2, ((-2, 2),), ((-1, 1), (0, 1)))
SYS_PENCIL = build_line_bundle_system(SPEC_PENCIL)


def pencil(z1, z2, q1, q2):
    return MorphismElement.from_polynomials(SYS_PENCIL, [[[[z1, z2]]], [[[q1, q2]]]])


def pol_t(t):
    t = F(t)
    return Polarization(((1 - t) / 2, t), (F(1, 3),))


WALL_MATRIX = MorphismElement.from_polynomials(
    SYS_21P2, [[[["0", "0"], ["0", "0"], ["x0^2", "x1^2"]],
              [["x0"], ["x1"], ["0"]]]])


def test_subspace_pool_keeps_distinct_subspaces_of_one_dimension():
    from gitpol.stability import _subspace_pool

    w = random_morphism(SYS_21P2, 3, 2)
    pool = _subspace_pool(w, 1, random.Random(0))
    lines = {tuple(basis.col(0)) for basis in pool if basis.ncols == 1}
    assert (1, 0) in lines and (0, 1) in lines
    spans = [tuple(tuple(r) for r in basis.transpose().rref()[0].rows) for basis in pool]
    assert len(spans) == len(set(spans))


def test_invariance_trivial_and_full():
    w = random_morphism(SYS_21P2, 1, 2)
    assert is_invariant(w, family_from_flags(w, (False, False), (False,)))
    assert is_invariant(w, family_from_flags(w, (True, True), (True,)))


def test_invariance_of_displayed_shape():
    w = MorphismElement.from_polynomials(
        SYS_21P2, [[[["x0^2", "x1^2"], ["x2^2", "x0x1"], ["x0x2", "x1x2"]],
                  [["0"], ["x1"], ["x2"]]]])
    fam = saturate_up(w, (RatMatrix.zeros(2, 0), RatMatrix.identity(1)))
    assert fam.dimension_vector() == DimensionVector((0, 1), (2,))
    assert is_invariant(w, fam)
    assert weighted_discriminant(POL_21P2.lam, POL_21P2.mu, (0, 1), (2,)) == 0


def test_saturate_up_minimality():
    w = WALL_MATRIX
    fam = saturate_up(w, (RatMatrix.zeros(2, 0), RatMatrix.identity(1)))
    assert fam.dimension_vector() == DimensionVector((0, 1), (2,))
    # zero seed gives the zero family
    fam0 = saturate_up(w, (RatMatrix.zeros(2, 0), RatMatrix.zeros(1, 0)))
    assert fam0.dimension_vector() == DimensionVector((0, 0), (0,))


def test_saturate_down_properties():
    w = WALL_MATRIX
    full = saturate_down(w, (RatMatrix.identity(3),))
    assert full.dimension_vector() == DimensionVector((2, 1), (3,))
    zero = saturate_down(w, (RatMatrix.zeros(3, 0),))
    # M' = intersection of kernels of the blocks
    for i in (1, 2):
        blk_stack = w.block(1, i)
        for v in [zero.mprime[i - 1].col(c) for c in range(zero.mprime[i - 1].ncols)]:
            assert all(x == 0 for x in blk_stack.matvec(v))


def test_saturation_fixpoint():
    w = WALL_MATRIX
    seed = saturate_down(w, (RatMatrix.zeros(3, 0),))
    once = saturate_down(w, saturate_up(w, seed.mprime).nprime)
    twice = saturate_down(w, saturate_up(w, once.mprime).nprime)
    assert once.dimension_vector() == twice.dimension_vector()


def test_zero_morphism_unstable():
    w = MorphismElement.zero(SYS_21P2)
    verdict = destabilizer_search(w, POL_21P2, budget=120, seed=0)
    assert verdict.status == UNSTABLE
    assert verdict.delta > 0
    assert reverify(w, POL_21P2.lam, POL_21P2.mu, verdict)


def test_wall_matrix_semistable_at_wall():
    verdict = destabilizer_search(WALL_MATRIX, POL_21P2, budget=300, seed=1)
    assert verdict.status == NOT_STABLE
    assert verdict.delta == 0
    d = verdict.witness_family.dimension_vector()
    assert d in (DimensionVector((0, 1), (2,)), DimensionVector((2, 0), (1,)))


def test_wall_matrix_unstable_off_wall():
    verdict = destabilizer_search(WALL_MATRIX, pol_t(F(7, 10)), budget=300, seed=1)
    assert verdict.status == UNSTABLE
    assert reverify(WALL_MATRIX, pol_t(F(7, 10)).lam, pol_t(F(7, 10)).mu, verdict)


def test_search_requires_proper_polarization():
    bad = Polarization((F(1, 2), F(0)), (F(1, 3),))
    with pytest.raises(SchemaError):
        destabilizer_search(WALL_MATRIX, bad)


def test_witness_serialization_reverifies():
    verdict = destabilizer_search(WALL_MATRIX, pol_t(F(7, 10)), budget=300, seed=1)
    data = verdict.to_json()
    again = StabilityVerdict.from_json(SYS_21P2, data)
    assert reverify(WALL_MATRIX, pol_t(F(7, 10)).lam, pol_t(F(7, 10)).mu, again)


def test_oracle_agreement_small_shapes():
    shapes = [(((-2, 1), (-1, 1)), ((0, 1),)),
              (((-2, 1), (-1, 1)), ((0, 1), (1, 1))),
              (((-3, 1), (-2, 1), (-1, 1)), ((0, 1),))]
    for idx, (left, right) in enumerate(shapes):
        sysm = build_line_bundle_system(ProblemSpec(2, left, right))
        r, s = sysm.r, sysm.s
        lam = tuple(F(1, r) for _ in range(r))
        mu = tuple(F(1, s) for _ in range(s))
        for k in range(60):
            w = random_morphism(sysm, seed=900 * idx + k, bound=1)
            b1, _ = gred_exhaustive(w, lam, mu)
            b2, _ = brute_force_families(w, lam, mu)
            sign1 = None if b1 is None else (1 if b1 > 0 else (0 if b1 == 0 else -1))
            sign2 = None if b2 is None else (1 if b2 > 0 else (0 if b2 == 0 else -1))
            assert sign1 == sign2


def test_orbit_invariance_and_witness_transport():
    sysm = build_line_bundle_system(ProblemSpec(2, ((-2, 1), (-1, 1)), ((0, 1),)))
    lam, mu = (F(1, 2), F(1, 2)), (F(1),)
    pol = Polarization(lam, mu)
    rng = random.Random(5)
    for k in range(12):
        w = random_morphism(sysm, seed=40 + k, bound=1)
        g = random_reductive(sysm, seed=80 + k)
        v1 = destabilizer_search(w, pol, budget=150, seed=0)
        v2 = destabilizer_search(act(g, w), pol, budget=150, seed=0)
        assert v1.status == v2.status
        if v1.status == UNSTABLE:
            # transport the witness through the group element
            h = v1.witness_h or GroupElement.identity(sysm)
            hprime = compose_group(compose_group(g, h), invert_group(g))
            fam = v1.witness_family
            moved_fam = SubspaceFamily(
                tuple((g.g[i] * fam.mprime[i]) if fam.mprime[i].ncols
                      else fam.mprime[i] for i in range(sysm.r)),
                tuple((g.hh[l] * fam.nprime[l]) if fam.nprime[l].ncols
                      else fam.nprime[l] for l in range(sysm.s)))
            transported = StabilityVerdict(UNSTABLE, hprime, moved_fam, v1.delta)
            assert reverify(act(g, w), lam, mu, transported)
    _ = rng


def test_scaling_invariance_of_verdicts():
    from gitpol.stability import _search_core

    w = WALL_MATRIX
    lam, mu = POL_21P2.lam, POL_21P2.mu
    v1 = _search_core(w, lam, mu, 200, 3)
    v2 = _search_core(w, tuple(3 * x for x in lam), tuple(3 * x for x in mu), 200, 3)
    assert v1.status == v2.status


def test_g_stability_sampler():
    w = MorphismElement.zero(SYS_21P2)
    assert g_stability_sample(w, POL_21P2, trials=3, seed=1).status == UNSTABLE
    z = Poly.parse("x0 + 2x1 - x2", 3)
    z1, z2 = Poly.parse("x0", 3), Poly.parse("x1", 3)
    shear = pencil(z1, z2, z * z1, z * z2)
    pol = Polarization.make((F(1, 2),), (F(2, 3), F(1, 3)), (2,), (1, 1))
    verdict = g_stability_sample(shear, pol, trials=6, seed=2, budget=150)
    assert verdict.status == UNSTABLE
    assert reverify(shear, pol.lam, pol.mu, verdict)


# -- the exact pencil decider -------------------------------------------------


def test_pencil_stable_example_below_half():
    q = Poly.parse("x1^2 + x2^2", 3)
    w = pencil(Poly.parse("x0", 3), Poly.zero(3), q, Poly.parse("x0^2", 3))
    assert decide_pencil(w, MU1_LT_HALF).status == STABLE_EXACT


def test_pencil_unstable_above_half_det_zero():
    z = Poly.parse("x0 - x2", 3)
    z1, z2 = Poly.parse("x0", 3), Poly.parse("x1", 3)
    w = pencil(z1, z2, z * z1, z * z2)
    verdict = decide_pencil(w, MU1_GT_HALF)
    assert verdict.status == UNSTABLE
    mu = (F(2, 3), F(1, 3))
    assert reverify(w, (F(1, 2),), mu, verdict)
    data = verdict.to_json()
    again = StabilityVerdict.from_json(SYS_PENCIL, data)
    assert reverify(w, (F(1, 2),), mu, again)


def test_pencil_unstable_above_half_dependent_linears():
    w = pencil(Poly.parse("x0", 3), Poly.parse("2x0", 3),
               Poly.parse("x1^2", 3), Poly.parse("x2^2", 3))
    verdict = decide_pencil(w, MU1_GT_HALF)
    assert verdict.status == UNSTABLE
    assert reverify(w, (F(1, 2),), (F(2, 3), F(1, 3)), verdict)


def test_pencil_stable_above_half_generic():
    w = pencil(Poly.parse("x0", 3), Poly.parse("x1", 3),
               Poly.parse("x1^2", 3), Poly.parse("x2^2", 3))
    assert decide_pencil(w, MU1_GT_HALF).status == STABLE_EXACT


def test_pencil_below_half_detects_hidden_shear():
    z1, z2 = Poly.parse("x0", 3), Poly.parse("x1", 3)
    s = Poly.parse("x0x1", 3)
    w = pencil(z1, z2, Poly.parse("x2", 3) * z1 + s,
               Poly.parse("x2", 3) * z2 + s.scale(2))
    verdict = decide_pencil(w, MU1_LT_HALF)
    assert verdict.status == UNSTABLE
    assert reverify(w, (F(1, 2),), (F(1, 3), F(2, 3)), verdict)


def test_pencil_agrees_with_search_on_random_inputs():
    rng = random.Random(9)
    mu_low = Polarization.make((F(1, 2),), (F(1, 3), F(2, 3)), (2,), (1, 1))
    mu_high = Polarization.make((F(1, 2),), (F(2, 3), F(1, 3)), (2,), (1, 1))
    for k in range(15):
        w = random_morphism(SYS_PENCIL, seed=700 + k, bound=1)
        for side, pol in ((MU1_LT_HALF, mu_low), (MU1_GT_HALF, mu_high)):
            exact = decide_pencil(w, side)
            searched = destabilizer_search(w, pol, budget=250, seed=k)
            if searched.status == UNSTABLE:
                assert exact.status == UNSTABLE
            if exact.status == STABLE_EXACT:
                assert searched.status == NO_DESTABILIZER_FOUND
    _ = rng


def test_pencil_rejects_wrong_shape():
    with pytest.raises(SchemaError):
        decide_pencil(MorphismElement.zero(SYS_21P2), MU1_GT_HALF)


# -- filtration verification --------------------------------------------------


def full_family(w):
    return family_from_flags(w, tuple(True for _ in w.m), tuple(True for _ in w.n))


def test_verify_jh_two_step():
    level1 = saturate_up(WALL_MATRIX, (RatMatrix.zeros(2, 0), RatMatrix.identity(1)))
    filt = FiltrationFamily((level1, full_family(WALL_MATRIX)))
    assert verify_jh(WALL_MATRIX, filt, POL_21P2, budget=150, seed=0)


def test_verify_jh_single_step_stable():
    w = MorphismElement.from_polynomials(
        SYS_21P2, [[[["x0^2", "x1^2"], ["x2^2", "x0x1"], ["x0x2", "x1x2"]],
                  [["x0"], ["x1"], ["x2"]]]])
    filt = FiltrationFamily((full_family(w),))
    assert verify_jh(w, filt, POL_21P2, budget=120, seed=0)


def test_verify_jh_rejects_nonzero_level_discriminant():
    fam = saturate_up(WALL_MATRIX, (stack_columns([[1, 0]], 2), RatMatrix.zeros(1, 0)))
    filt = FiltrationFamily((fam, full_family(WALL_MATRIX)))
    assert not verify_jh(WALL_MATRIX, filt, POL_21P2, budget=120, seed=0)


def test_graded_piece_shapes():
    level1 = saturate_up(WALL_MATRIX, (RatMatrix.zeros(2, 0), RatMatrix.identity(1)))
    piece = graded_piece(WALL_MATRIX, SubspaceFamily(
        (zero_or_full(2, False), zero_or_full(1, False)),
        (zero_or_full(3, False),)), level1)
    assert piece.mults == ((0, 1), (2,))
    top = graded_piece(WALL_MATRIX, level1, full_family(WALL_MATRIX))
    assert top.mults == ((2, 0), (1,))
