"""Self-tests of the benchmark: planted wrong answers fail, digests repeat.

    python3 -m pytest -q perfbench
"""

import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import linalg  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gitpol import constants, embedding, exact, setting, stability  # noqa: E402


def _unstable_verdict():
    """A planted-kernel 21P2 search whose verdict carries a witness."""
    sysm = setting.build_line_bundle_system(workloads.SPEC_21P2)
    rng = gen.rng_for("self-test", 0)
    for _ in range(20):
        w = gen.morphism(rng, sysm, 3)
        gen.plant_shared_kernel(rng, w)
        pol = gen.polarization(rng, sysm)
        try:
            verdict = stability.destabilizer_search(w, pol, budget=200, seed=1)
        except setting.SchemaError:
            continue
        if verdict.witness_family is not None:
            return w, pol, verdict
    raise AssertionError("no witness found")


def _wrong_ops():
    """Three ops whose results were tampered with after the program ran."""
    w, pol, verdict = _unstable_verdict()
    assert checks.check_search_verdict(w, pol, verdict.to_json(), 200) == []
    verdict.delta += Fraction(1, 7)
    delta_op = workloads.Op("planted/delta", lambda: verdict,
                            lambda v: checks.check_search_verdict(w, pol, v.to_json(), 200),
                            lambda v: "")

    kind = workloads._constant_problems()[2]        # SPEC_31P3 level 1, exact 1/5
    label, problem, exact_value, _ = kind
    lb = constants.sampled_lower_bound(problem, 1, 50)
    assert lb.value == exact_value
    assert checks.check_lower_bound(problem, lb.value, lb.witness, exact_value) == []
    lb.value = exact_value + Fraction(1, 100)
    bound_op = workloads._bound_op(label, problem, exact_value, lambda: lb)

    sysm = setting.build_line_bundle_system(workloads.SPEC_22P3)
    big = embedding.build_big(sysm)
    rng = gen.rng_for("self-test", 1)
    pair = workloads._pair_op("22P3", big, gen.morphism(rng, sysm, 2),
                              gen.group_element(rng, sysm, 2))
    result = pair.run()
    assert pair.check(result) == []
    result[3].status = "boundary"
    flipped_op = workloads.Op("planted/boundary", lambda: result, pair.check, pair.payload)
    return [delta_op, bound_op, flipped_op]


def test_planted_wrong_answers_are_counted_failed():
    ops = _wrong_ops()
    plan = workloads.Plan(ops, 0, len(ops))
    out = run.run_loop(plan, seconds=0)
    assert run.failed_ops(out) == 3
    assert out.wrong == 3
    reasons = {kind: [r for _, k, r in out.failures if k == kind] for kind in
               ("planted/delta", "bound/31P3-c1", "planted/boundary")}
    assert any("delta" in r for r in reasons["planted/delta"])
    assert any("exceeds the exact value" in r for r in reasons["bound/31P3-c1"])
    assert any("not in_Z" in r for r in reasons["planted/boundary"])


def test_raising_op_is_a_failure_not_a_wrong_answer():
    def boom():
        raise setting.SchemaError("family basis matrices must have full column rank")

    plan = workloads.Plan([workloads.Op("raises", boom, None, None)], 0, 1)
    out = run.run_loop(plan, seconds=0)
    assert run.failed_ops(out) == 1 and out.wrong == 0
    assert "SchemaError" in out.failures[0][2]


def test_repeats_add_timings_not_failures():
    def boom():
        raise setting.SchemaError("family basis matrices must have full column rank")

    ops = [workloads.Op("ok", lambda: time.sleep(0.001), lambda r: [], lambda r: ""),
           workloads.Op("raises", boom, None, None)]
    out = run.run_loop(workloads.Plan(ops, 0, 2), seconds=0.003)
    assert out.runs > 2 and out.runs % 2 == 0
    assert out.attempted == 2 and run.failed_ops(out) == 1
    assert len(out.failures) == 1 and out.failed_runs == out.runs // 2


def test_checker_rank_is_independent_of_the_program():
    mats = [[[1, 2], [2, 4]], [[0, 0], [0, 0]], [[1, 0, 2], [0, 1, 3], [1, 1, 5]],
            [[3, -1, 2], [6, -2, 4], [0, 5, 1]]]
    for rows in mats:
        mat = exact.RatMatrix.from_rows(rows)
        assert linalg.rank_q(mat.rows) == len(mat.rref()[1])


@pytest.mark.parametrize("workload", ["search", "cli", "constants"])
def test_same_seed_same_digest(tmp_path, workload):
    digests = []
    for k in range(2):
        plan = workloads.SETUPS[workload](5, 0.1, str(tmp_path / str(k)))
        digests.append(run.run_loop(plan, seconds=0).digest.hexdigest())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload", ["search", "cli"])
def test_traced_and_untraced_digests_agree(tmp_path, workload):
    plan = workloads.SETUPS[workload](3, 0.1, str(tmp_path / "a"))
    untraced = run.run_loop(plan, seconds=0)
    again = workloads.SETUPS[workload](3, 0.1, str(tmp_path / "b"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.run_loop(again, seconds=0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert untraced.digest.hexdigest() == traced.digest.hexdigest()
    assert tracer.summary()["op"]["calls"] == plan.prefix
    assert len(tracer.start) > plan.prefix


def test_tracer_rebinds_imported_names_and_restores_them():
    original = exact.kron_identity_right
    assert embedding.kron_identity_right is original
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert embedding.kron_identity_right is not original
        assert setting.kron_identity_right is embedding.kron_identity_right
        a = exact.RatMatrix.identity(2)
        tracer.run_op(0, lambda: embedding.kron_identity_right(a, 2) * exact.kron(a, a))
    finally:
        tracer.uninstall()
    assert embedding.kron_identity_right is original
    assert exact.RatMatrix.__mul__.__name__ == "__mul__"
    assert "__wrapped__" not in vars(exact.RatMatrix.__mul__)
    summary = tracer.summary()
    assert summary["exact.kron"]["calls"] == 2
    assert summary["exact.mul"]["calls"] == 1
    assert summary["op"]["self_s"] <= summary["op"]["total_s"]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(x) for x in range(1, 21)]) == (50, 10.0)
    assert run.tail([float(x) for x in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(x) for x in range(1, 1001)]) == (99, 990.0)
