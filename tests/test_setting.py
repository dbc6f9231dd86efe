import pytest
from fractions import Fraction

from gitpol.exact import RatMatrix
from gitpol.poly import Poly
from gitpol.setting import (CompositionSystem, GroupElement, MorphismElement,
                            ProblemSpec, SchemaError, act, build_line_bundle_system,
                            compose_group, group_from_json, group_to_json,
                            invert_group, random_morphism, random_reductive,
                            random_unipotent)

SPEC_21 = ProblemSpec(2, ((-2, 2), (-1, 1)), ((0, 3),))
SPEC_22 = ProblemSpec(3, ((-2, 1), (-1, 1)), ((0, 1), (1, 3)))
SPEC_31 = ProblemSpec(3, ((-4, 1), (-2, 1), (-1, 1)), ((0, 5),))


def test_spec_validation():
    with pytest.raises(SchemaError):
        ProblemSpec(2, ((-1, 1), (-1, 1)), ((0, 1),))     # equal twists on one side
    with pytest.raises(SchemaError):
        ProblemSpec(2, ((-1, 1),), ((-1, 1),))            # left twist not below right
    with pytest.raises(SchemaError):
        ProblemSpec(2, ((-2, 0),), ((0, 1),))             # zero multiplicity


def test_line_bundle_dimensions():
    s21 = build_line_bundle_system(SPEC_21)
    assert s21.a(2, 1) == 3 and s21.h(1, 1) == 6 and s21.h(1, 2) == 3
    assert s21.dim_w == 45
    s22 = build_line_bundle_system(SPEC_22)
    assert s22.a(2, 1) == 4 and s22.b(2, 1) == 4
    assert s22.dim_w == 104
    s31 = build_line_bundle_system(SPEC_31)
    assert s31.a(2, 1) == 10 and s31.a(3, 2) == 4 and s31.a(3, 1) == 20


def test_system_validation_passes_for_line_bundles():
    build_line_bundle_system(SPEC_21).validate()
    build_line_bundle_system(SPEC_22).validate()


def test_validation_rejects_broken_abstract_system():
    s = build_line_bundle_system(SPEC_21)
    bad = CompositionSystem(s.r, s.s, s.m, s.n, dict(s._a), dict(s._b), dict(s._h),
                            dict(s.comp_aa), dict(s.comp_bb),
                            dict(s.comp_ha), dict(s.comp_bh))
    bad.comp_ha = dict(bad.comp_ha)
    bad.comp_ha[(1, 2, 1)] = RatMatrix.zeros(*bad.comp_ha[(1, 2, 1)].shape)
    with pytest.raises(SchemaError):
        bad.validate()


def test_group_identity_and_inverse():
    for spec in (SPEC_21, SPEC_22, SPEC_31):
        sysm = build_line_bundle_system(spec)
        e = GroupElement.identity(sysm)
        g = compose_group(random_reductive(sysm, 5), random_unipotent(sysm, 6, 2))
        assert compose_group(e, g) == g
        assert compose_group(g, e) == g
        assert compose_group(g, invert_group(g)) == e
        assert compose_group(invert_group(g), g) == e


def test_group_associativity():
    sysm = build_line_bundle_system(SPEC_31)
    g1 = random_unipotent(sysm, 1, 2)
    g2 = compose_group(random_reductive(sysm, 2), random_unipotent(sysm, 3, 1))
    g3 = random_unipotent(sysm, 4, 2)
    assert compose_group(compose_group(g3, g2), g1) == compose_group(g3, compose_group(g2, g1))


def test_unipotent_product_expansion_r2_and_r3():
    s21 = build_line_bundle_system(SPEC_21)
    a, b = random_unipotent(s21, 7, 2), random_unipotent(s21, 8, 2)
    prod = compose_group(a, b)
    assert prod.is_unipotent
    assert prod.u[(2, 1)] == a.u[(2, 1)] + b.u[(2, 1)]
    s31 = build_line_bundle_system(SPEC_31)
    a, b = random_unipotent(s31, 9, 2), random_unipotent(s31, 10, 2)
    prod = compose_group(a, b)
    from gitpol.setting import _star_uu

    expected = a.u[(3, 1)] + b.u[(3, 1)] + _star_uu(s31, 3, 2, 1, s31.m,
                                                    a.u[(3, 2)], b.u[(2, 1)])
    assert prod.u[(3, 1)] == expected


def test_action_law_and_bilinearity():
    sysm = build_line_bundle_system(SPEC_22)
    w1 = random_morphism(sysm, 11, 2)
    w2 = random_morphism(sysm, 12, 2)
    g1 = compose_group(random_reductive(sysm, 13), random_unipotent(sysm, 14, 1))
    g2 = random_unipotent(sysm, 15, 2)
    assert act(g2, act(g1, w1)) == act(compose_group(g2, g1), w1)
    assert act(g1, w1 + w2) == act(g1, w1) + act(g1, w2)
    e = GroupElement.identity(sysm)
    assert act(e, w1) == w1


def test_reductive_action_is_blockwise():
    sysm = build_line_bundle_system(SPEC_21)
    w = random_morphism(sysm, 16, 2)
    g = random_reductive(sysm, 17)
    moved = act(g, w)
    from gitpol.exact import kron_identity_right

    ginv = [m.inverse() for m in g.g]
    for l in range(1, sysm.s + 1):
        for i in range(1, sysm.r + 1):
            expected = kron_identity_right(g.hh[l - 1], sysm.h(l, i)) \
                * w.block(l, i) * ginv[i - 1]
            assert moved.block(l, i) == expected


def test_scalar_pair_acts_trivially():
    sysm = build_line_bundle_system(SPEC_22)
    w = random_morphism(sysm, 18, 2)
    c = Fraction(5, 3)
    g = GroupElement.identity(sysm)
    g.g = [m.scale(c) for m in g.g]
    g.hh = [m.scale(c) for m in g.hh]
    assert act(g, w) == w


def test_shear_elimination_example():
    # 2 O(-2) -> O(-1) + O with both quadric entries divisible by one form
    spec = ProblemSpec(2, ((-2, 2),), ((-1, 1), (0, 1)))
    sysm = build_line_bundle_system(spec)
    nv = 3
    z = Poly.parse("x0 + 2x1 - x2", nv)
    z1, z2 = Poly.parse("x0", nv), Poly.parse("x1 + x2", nv)
    w = MorphismElement.from_polynomials(
        sysm, [[[[z1, z2]]], [[[z * z1, z * z2]]]])
    g = GroupElement.identity(sysm)
    g.v[(2, 1)] = RatMatrix.column((-z).coeff_vector(1))
    moved = act(g, w)
    assert moved.block(2, 1).is_zero()
    assert moved.block(1, 1) == w.block(1, 1)


def test_random_unipotent_determinism_and_bounds():
    sysm = build_line_bundle_system(SPEC_21)
    assert random_unipotent(sysm, 3, 0) == GroupElement.identity(sysm)
    a = random_unipotent(sysm, 5, 2)
    b = random_unipotent(sysm, 5, 2)
    assert a == b
    assert all(abs(x) <= 2 for row in a.u[(2, 1)].rows for x in row)


def test_morphism_polynomial_round_trip():
    # on SPEC_21 and SPEC_31, n_l != m_i: reading entry (t, p) as (p, t)
    # gives a grid of the wrong shape
    for spec in (SPEC_22, SPEC_21, SPEC_31):
        sysm = build_line_bundle_system(spec)
        w = random_morphism(sysm, 20, 3)
        again = MorphismElement.from_json(sysm, w.to_json())
        assert again == w


def test_block_row_t_k_holds_coefficient_k_of_entry_t_p():
    sysm = build_line_bundle_system(SPEC_21)
    w = random_morphism(sysm, 21, 3)
    grids = w.to_polynomials()
    for (l, i), blk in w.blocks.items():
        deg = SPEC_21.f[l - 1] - SPEC_21.e[i - 1]
        h = sysm.h(l, i)
        for t, row in enumerate(grids[l - 1][i - 1]):
            for p, entry in enumerate(row):
                coeffs = Poly.parse(entry, 3).coeff_vector(deg)
                assert [blk.rows[t * h + k][p] for k in range(h)] == coeffs


def test_polynomial_blocks_reject_wrong_degree():
    sysm = build_line_bundle_system(SPEC_21)
    with pytest.raises(SchemaError):
        MorphismElement.from_polynomials(
            sysm, [[[["x0", "x1"], ["x2", "x0"], ["x1", "x2"]],
                    [["x0"], ["x1"], ["x2"]]]])


def test_spec_json_round_trip():
    data = SPEC_22.to_json()
    assert ProblemSpec.from_json(data) == SPEC_22


def test_group_json_round_trip():
    sysm = build_line_bundle_system(SPEC_22)
    g = compose_group(random_reductive(sysm, 30), random_unipotent(sysm, 31, 2))
    again = group_from_json(sysm, group_to_json(g))
    assert again == g
