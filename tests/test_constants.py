import random
from fractions import Fraction as F

import pytest

from gitpol.constants import (ConstantQuery, LowerBound, c_closed_form_21,
                              c_closed_form_triple, membership, pad_witness,
                              reference_table, resolve, resolve_c, resolve_d,
                              RhoProblem, rho_problem_c, rho_problem_cprime_31,
                              rho_value, sampled_lower_bound, sampled_lower_bound_query,
                              transpose_spec, transpose_system)
from gitpol.exact import RatMatrix, mul_kron_identity
from gitpol.setting import ProblemSpec, SchemaError, build_line_bundle_system

SYS_FAM22 = build_line_bundle_system(ProblemSpec(3, ((-2, 3), (-1, 2)), ((0, 2), (1, 5))))
SYS_31P3 = build_line_bundle_system(ProblemSpec(3, ((-4, 1), (-2, 1), (-1, 1)), ((0, 5),)))
SYS_21P2 = build_line_bundle_system(ProblemSpec(2, ((-2, 2), (-1, 1)), ((0, 3),)))
SYS_22P3 = build_line_bundle_system(ProblemSpec(3, ((-2, 1), (-1, 1)), ((0, 1), (1, 3))))


def test_closed_form_gap_one():
    assert c_closed_form_21(3, 2) == F(1, 7)
    assert c_closed_form_21(5, 1) == 0
    assert c_closed_form_21(2, 5) == F(3, 8)
    # the two branches agree where they meet
    for n in range(2, 6):
        m = n + 1
        assert F(m * (m - 1), 2 * (m * (n + 1) - 1)) == F(n + 1, 2 * (n + 2))


def test_closed_form_triple():
    assert c_closed_form_triple(3, 4) == F(1, 5)
    assert c_closed_form_triple(4, 2) == 1
    assert c_closed_form_triple(2, 3) == F(1, 2)


def test_resolution_and_table():
    assert resolve_c(SYS_FAM22, 1).value == F(1, 7)
    assert resolve_c(SYS_FAM22, 2).value == F(4, 7)
    assert resolve_c(SYS_FAM22, 2).source == "table"
    assert resolve_d(SYS_FAM22, 1).value == F(4, 7)
    assert resolve_d(SYS_FAM22, 2).value == F(1, 7)
    assert resolve_c(SYS_31P3, 1).value == F(1, 5)
    # single-block multiplicity one is exactly zero
    assert resolve_c(SYS_22P3, 1).value == 0
    assert resolve_c(SYS_22P3, 2).value == 0
    assert resolve_d(SYS_22P3, 1).value == 0
    assert resolve_c(SYS_21P2, 1).value == 0
    assert resolve_c(SYS_31P3, 1, blocks=(3,)).value == 0


def test_reference_table_absent_when_unlisted():
    q = ConstantQuery(SYS_21P2, "left", 1)
    assert reference_table(q) is None
    assert reference_table(ConstantQuery(SYS_FAM22, "left", 2)) == F(4, 7)
    assert reference_table(ConstantQuery(SYS_FAM22, "right", 1)) == F(4, 7)


def test_transpose_spec_shape():
    t = transpose_spec(SYS_FAM22.spec)
    assert t.e == (-1, 0) and t.f == (1, 2)
    assert t.m == (5, 2) and t.n == (2, 3)


def test_membership_rejects_block_deficient_subspaces():
    prob = rho_problem_c(SYS_FAM22, 1)
    # K inside (one copy of M_2) x A_21 misses the second copy's support
    basis = RatMatrix.from_columns([[1 if i == c else 0 for i in range(prob.src_dim)]
                                    for c in range(4)])
    assert not membership(prob, basis)
    # the witness line with two distinct coordinate forms is admissible
    vec = [0] * prob.src_dim
    vec[0] = 1
    vec[4 + 1] = 1
    assert membership(prob, RatMatrix.from_columns([vec]))


def test_witness_line_attains_main_value():
    prob = rho_problem_c(SYS_FAM22, 1)
    vec = [0] * prob.src_dim
    vec[0] = 1        # first copy: the form x0
    vec[4 + 1] = 1    # second copy: the form x1
    assert rho_value(prob, RatMatrix.from_columns([vec])) == F(1, 7)


def test_graph_witness_attains_triple_value():
    prob = rho_problem_c(SYS_31P3, 1)
    lb = sampled_lower_bound(prob, seed=0, trials=40)
    assert lb.value == F(1, 5)
    assert lb.witness is not None


def test_lower_bounds_never_exceed_exact_values():
    checks = [(rho_problem_c(SYS_FAM22, 1), F(1, 7)),
              (rho_problem_c(SYS_FAM22, 2), F(4, 7)),
              (rho_problem_c(SYS_31P3, 1), F(1, 5))]
    for prob, bound in checks:
        lb = sampled_lower_bound(prob, seed=11, trials=60)
        assert lb.value <= bound


def test_lower_bound_right_side_query():
    lb = sampled_lower_bound_query(ConstantQuery(SYS_FAM22, "right", 2), seed=3, trials=40)
    assert isinstance(lb, LowerBound)
    assert lb.value <= F(1, 7)


def test_trials_must_be_positive():
    with pytest.raises(SchemaError):
        sampled_lower_bound(rho_problem_c(SYS_FAM22, 1), seed=0, trials=0)


def test_monotonicity_by_padding():
    prob = rho_problem_c(SYS_31P3, 1)
    lb = sampled_lower_bound(prob, seed=0, trials=40)
    witness = RatMatrix.from_json(lb.witness)
    bigger, padded = pad_witness(prob, witness, extra_block=0, extra_copies=1)
    assert membership(bigger, padded)
    assert rho_value(bigger, padded) == lb.value


def test_cprime_problem_shape():
    prob = rho_problem_cprime_31(SYS_31P3)
    assert prob.src_dim == SYS_31P3.a(3, 2)
    assert prob.h_src == SYS_31P3.h(1, 2)


def test_resolve_query_dispatch():
    assert resolve(ConstantQuery(SYS_FAM22, "left", 2)).value == F(4, 7)
    assert resolve(ConstantQuery(SYS_FAM22, "right", 2)).value == F(1, 7)
    with pytest.raises(SchemaError):
        ConstantQuery(SYS_FAM22, "middle", 1)


def _slot_block(prob, basis, k):
    """Rows of the basis on slot k: the coordinates of K in that copy of A."""
    off = prob.slot_offsets()[k]
    return basis.submatrix(range(off, off + prob.block_adims[prob.slots[k]]),
                           range(basis.ncols))


def _rank_q(mat):
    return len(mat.rref()[1])


def _membership_oracle(prob, basis):
    if basis.ncols == 0 or _rank_q(basis) != basis.ncols:
        return False
    for b, mult in enumerate(prob.block_mults):
        cols = []
        for k in (k for k, bb in enumerate(prob.slots) if bb == b):
            block = _slot_block(prob, basis, k)
            cols.append([x for row in block.rows for x in row])
        if _rank_q(RatMatrix.from_columns(cols)) != mult:
            return False
    return True


def _rho_oracle(prob, basis):
    """Stack each slot's image inds[b] (X_k (x) I_h) and rank it with rref."""
    rows = []
    for k, b in enumerate(prob.slots):
        rows += mul_kron_identity(prob.inds[b], _slot_block(prob, basis, k), prob.h_src).rows
    return F(prob.tgt_dim - _rank_q(RatMatrix.from_rows(rows)),
             prob.src_dim - basis.ncols)


def _oracle_problems():
    right = build_line_bundle_system(ProblemSpec(2, ((-2, 1), (-1, 1)), ((0, 2), (1, 2))))
    left = build_line_bundle_system(ProblemSpec(2, ((-3, 1), (-1, 2)), ((0, 2),)))
    rng = random.Random(5)
    # contraction tensors with fractions, to exercise their row scaling; the
    # last row is the sum of the first two, so every image misses a direction
    inds = []
    for a, t in ((2, 3), (3, 3)):
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(a * 2)]
                for _ in range(t - 1)]
        inds.append(RatMatrix.from_rows(rows + [[x + y for x, y in zip(*rows[:2])]]))
    return [rho_problem_c(SYS_FAM22, 1), rho_problem_c(SYS_FAM22, 2),
            rho_problem_c(SYS_31P3, 1), rho_problem_c(left, 1),
            rho_problem_c(transpose_system(right), right.r),
            RhoProblem([2, 1], [2, 3], [3, 3], 2, inds)]


def _oracle_candidates(prob, rng):
    dim = prob.src_dim
    # 31P3 images are 35 wide per column: keep its rref oracle small
    top = min(dim - 1, 4 if prob.h_src > 20 else dim - 1)
    for trial in range(24):
        k = rng.randint(1, top)
        if trial % 3 == 0:      # integer entries, as the sampler draws them
            cols = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(k)]
        else:                   # rational entries
            cols = [[F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(dim)]
                    for _ in range(k)]
        if trial % 4 == 1:      # block-deficient: one slot left empty
            k0 = rng.randrange(len(prob.slots))
            off = prob.slot_offsets()[k0]
            for col in cols:
                col[off:off + prob.block_adims[prob.slots[k0]]] = \
                    [0] * prob.block_adims[prob.slots[k0]]
        if trial % 4 == 3 and len(prob.slots) > 1:   # two slots of a block proportional
            b = prob.slots[0]
            same = [k for k, bb in enumerate(prob.slots) if bb == b][:2]
            if len(same) == 2:
                offs = prob.slot_offsets()
                for col in cols:
                    for c in range(prob.block_adims[b]):
                        col[offs[same[1]] + c] = -2 * col[offs[same[0]] + c]
        yield RatMatrix.from_columns(cols)


def test_integer_rho_and_membership_match_fraction_oracle():
    rng = random.Random(77)
    admissible = deficient = 0
    for prob in _oracle_problems():
        for basis in _oracle_candidates(prob, rng):
            ok = membership(prob, basis)
            assert ok == _membership_oracle(prob, basis)
            admissible += ok
            deficient += not ok
            if _rank_q(basis) == basis.ncols:
                assert rho_value(prob, basis) == _rho_oracle(prob, basis)
    assert admissible and deficient
