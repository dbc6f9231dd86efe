import random
from fractions import Fraction as F

import pytest

from gitpol.certifier import expected_dimension
from gitpol.exact import RatMatrix
from gitpol.finemoduli import (DEGENERATE, GENERIC, SPECIAL, PKDatum,
                               build_phi_from_pk, classify, f_prime_injective,
                               fm_params, fm_spec, guaranteed_window_low,
                               ideal_h0_check, induced_cubics,
                               injectivity_codim2_check,
                               planted_common_factor_datum,
                               special_fbar2_injective, standard_pk_construction)
from gitpol.poly import Poly
from gitpol.polarization import singular_polarizations
from gitpol.setting import (MorphismElement, ProblemSpec, SchemaError,
                            build_line_bundle_system)


def test_fm_params_worked_values():
    p = fm_params(2, 7)
    assert p.valid and p.q_body == 2 and p.q_intro == 1
    assert p.dimension == 16
    assert p.critical_values == (F(5, 12),)
    p = fm_params(3, 12)
    assert p.valid and p.q_body == 3
    assert p.critical_ts == ((9, F(1, 3)), (10, F(2, 5)))
    assert not fm_params(2, 6).valid
    assert not fm_params(2, 10).valid


def test_q_formulas_differ_by_one():
    for n in range(2, 7):
        top = (n + 1) * (n + 2) // 2
        for k in range(top + 1, (n + 1) ** 2 + 1):
            p = fm_params(n, k)
            assert p.q_body == p.q_intro + 1
            assert len(p.critical_values) == p.q_body - 1


def test_ideal_h0_identity():
    assert all(ideal_h0_check(n) for n in range(2, 7))


def test_critical_values_sit_in_window_and_walls():
    for n, k in ((2, 7), (3, 12), (4, 18), (5, 22)):
        p = fm_params(n, k)
        low = guaranteed_window_low(n, k)
        walls = singular_polarizations((2,), (1, k))
        for t in p.critical_values:
            assert low < t < 1
            assert t in walls


def test_dimension_formula_matches_expected_dimension():
    for n in range(2, 6):
        top = (n + 1) * (n + 2) // 2
        for k in range(top + 1, (n + 1) ** 2 + 1):
            sysm = build_line_bundle_system(fm_spec(n, k))
            assert expected_dimension(sysm) == fm_params(n, k).dimension


def test_classification():
    datum = standard_pk_construction(2, 7)
    phi = build_phi_from_pk(datum)
    assert classify(phi) == GENERIC
    sysm = phi.system
    z1 = Poly.var(3, 0)
    quads = [Poly.var(3, i, 2) for i in range(3)] + \
            [Poly.var(3, 0) * Poly.var(3, 1), Poly.var(3, 1) * Poly.var(3, 2),
             Poly.var(3, 0) * Poly.var(3, 2), Poly.var(3, 1, 2)]
    special = MorphismElement.from_polynomials(
        sysm, [[[[z1, z1.scale(2)]]], [[[q, q.scale(3)] for q in quads]]])
    assert classify(special) == SPECIAL
    degenerate = MorphismElement.from_polynomials(
        sysm, [[[[Poly.zero(3), Poly.zero(3)]]], [[[q, q] for q in quads]]])
    assert classify(degenerate) == DEGENERATE


def test_build_rejects_cubic_outside_ideal():
    nv = 3
    z1, z2 = Poly.var(nv, 0), Poly.var(nv, 1)
    good = [z1 * Poly.var(nv, i, 2) for i in range(3)]
    bad = Poly.var(nv, 2, 3)  # x2^3 is not in (x0, x1)
    datum = PKDatum(z1, z2, tuple(good + [bad]))
    with pytest.raises(SchemaError) as err:
        build_phi_from_pk(datum)
    assert "cubic 3" in str(err.value)


def test_datum_invariants():
    nv = 3
    with pytest.raises(SchemaError):
        PKDatum(Poly.var(nv, 0), Poly.var(nv, 0).scale(2),
                (Poly.var(nv, 0, 3),))  # dependent linear forms
    with pytest.raises(SchemaError):
        PKDatum(Poly.var(nv, 0), Poly.var(nv, 1),
                (Poly.var(nv, 0, 3), Poly.var(nv, 0, 3)))  # dependent cubics


def test_gcd_injectivity_checks():
    datum = standard_pk_construction(2, 7)
    assert injectivity_codim2_check(datum)
    planted = planted_common_factor_datum(2)
    assert not injectivity_codim2_check(planted)
    assert not planted.in_window()


def test_f_prime_image_recovers_the_cubics():
    datum = standard_pk_construction(3, 12)
    phi = build_phi_from_pk(datum)
    assert f_prime_injective(phi)
    c1 = RatMatrix.from_columns([c.coeff_vector(3) for c in induced_cubics(phi)])
    c2 = RatMatrix.from_columns([c.coeff_vector(3) for c in datum.cubics])
    assert c1.rank() == c2.rank() == c1.hstack(c2).rank()


def test_f_prime_detects_duplicated_column():
    datum = standard_pk_construction(2, 7)
    phi = build_phi_from_pk(datum)
    grids = phi.to_polynomials()
    grids[1][0][1] = grids[1][0][0]
    dup = MorphismElement.from_polynomials(phi.system, grids)
    assert not f_prime_injective(dup)


def test_special_injectivity_check():
    sysm = build_line_bundle_system(fm_spec(2, 7))
    nv = 3
    z1 = Poly.var(nv, 0)
    quads = [Poly.var(nv, i, 2) for i in range(3)] + \
            [Poly.var(nv, 0) * Poly.var(nv, 1), Poly.var(nv, 1) * Poly.var(nv, 2),
             Poly.var(nv, 0) * Poly.var(nv, 2), Poly.var(nv, 1, 2)]
    dup = MorphismElement.from_polynomials(
        sysm, [[[[z1, z1.scale(2)]]], [[[q, q] for q in quads]]])
    assert not special_fbar2_injective(dup)
    indep = MorphismElement.from_polynomials(
        sysm, [[[[z1, z1.scale(2)]]],
               [[[q, Poly.var(nv, 1, 2)] for q in quads]]])
    assert special_fbar2_injective(indep)


def test_split_non_uniqueness_gives_equivalent_morphisms():
    # two decompositions of the same cubics differ by a shear; the evaluated
    # matrices have the same rank profile at sample points
    rng = random.Random(3)
    datum = standard_pk_construction(2, 7)
    phi1 = build_phi_from_pk(datum)
    # perturb the splitting: q1 -> q1 + x2*z2, q2 -> q2 - x2*z1 fixes the cubic
    grids = phi1.to_polynomials()
    nv = 3
    h = Poly.var(nv, 2)
    z1, z2 = datum.z1, datum.z2
    for row in grids[1][0]:
        q2 = Poly.parse(row[0], nv) + h * z1   # column 1 holds the second cofactor
        q1 = Poly.parse(row[1], nv) - h * z2
        row[0], row[1] = str(q2), str(q1)
    phi2 = MorphismElement.from_polynomials(phi1.system, grids)
    assert phi1.block(2, 1) != phi2.block(2, 1)
    assert induced_cubics(phi1) == induced_cubics(phi2)
    c1 = RatMatrix.from_columns([c.coeff_vector(3) for c in induced_cubics(phi1)])
    c2 = RatMatrix.from_columns([c.coeff_vector(3) for c in induced_cubics(phi2)])
    assert c1.hstack(c2).rank() == c1.rank() == c2.rank()
    for _ in range(20):
        pt = [F(rng.randint(-5, 5)) for _ in range(nv)]
        ranks = []
        for phi in (phi1, phi2):
            rows = []
            for l in (1, 2):
                blk = phi.to_polynomials()[l - 1][0]
                for row in blk:
                    rows.append([Poly.parse(e, nv).eval(pt) for e in row])
            ranks.append(RatMatrix.from_rows(rows).rank())
        assert ranks[0] == ranks[1]


def test_window_guard():
    with pytest.raises(SchemaError):
        fm_params(1, 5)
    with pytest.raises(SchemaError):
        standard_pk_construction(2, 4)
