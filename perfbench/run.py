"""gitpol benchmark: four seeded, verified workloads.

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the program is imported from
`src/`).  One workload runs per process, single-threaded, as a closed loop:
the next operation starts when the previous one returns.  Only the call into
the program is timed; the output checks run between operations, outside the
timed span.  Set-up generates a pool of whole cycles of the workload's
operation mix from `--seed`; the loop runs the pool once, then repeats its
cycles until `--seconds` of timed work is done.  `attempted` and `failed`
count distinct operations of the pool, so they depend on the seed alone.
Reported times are calibrated to a fixed reference computation timed before
every operation (see calibrate.py); the wall-clock values are printed beside
them.

`--trace 0` prints the end-to-end metrics.  `--trace 1` first runs the
pool once untimed by spans, then the same pool again with spans around the
program's public functions (see spans.py), and prints the per-layer
metrics; the span table is written to `.perfbench/`.  Timing covers
only this process: nothing system-wide is traced or profiled.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  An operation fails when it raises or
when its output fails a check; each failure is printed with its reason.
`correct` is false when a check found a returned output wrong, or when the
traced and untraced passes disagree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 6
TAIL_PERCENTILES = (99.9, 99, 90, 50)
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "verified_frac": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("enlargement", "constants", "search", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time the set-up and print it (used internally)")
    return p.parse_args(argv)


def set_up(args, workdir):
    """Import the program, build its systems and generate the inputs.

    Returns the plan and the set-up's (wall, calibrated) seconds."""
    if not os.path.isfile(os.path.join(SRC, "gitpol", "__init__.py")):
        raise SystemExit(f"error: no gitpol sources under {SRC}")
    sys.path.insert(0, SRC)

    def build():
        import workloads

        return workloads.SETUPS[args.workload](args.seed, args.seconds, workdir)

    plan, wall, calibrated = calibrate.calibrated_call(build)
    return plan, (wall, calibrated)


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------


class Outcome:
    def __init__(self):
        self.calibration = calibrate.Calibration()
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.indices: list[int] = []    # pool index of each run op
        self.failures: list[tuple[int, str, str]] = []   # first pass only
        self.failed_runs = 0            # run ops that failed, repeats included
        self.wrong = 0
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    @property
    def runs(self) -> int:
        return len(self.durations)

    @property
    def attempted(self) -> int:
        """Distinct operations of the pool, each run at least once."""
        return len(set(self.indices))

    def calibrated(self) -> list[float]:
        """Op times scaled to the reference speed (see calibrate.py)."""
        scale = self.calibration.scale
        return [d * scale(t + d / 2) for t, d in zip(self.starts, self.durations)]


def pool_order(plan):
    """Pool indices in run order: the whole pool once, then its cycles
    (not the lead) again and again."""
    yield from range(len(plan.ops))
    while len(plan.ops) > plan.lead:
        yield from range(plan.lead, len(plan.ops))


def run_loop(plan, seconds: float, tracer=None) -> Outcome:
    """Run the whole pool once, then repeat its cycles until `seconds` of
    timed work are done, stopping at a cycle boundary.

    Which operations run at least once, and so `attempted` and the failed
    operations, depends on the pool alone; the repeats only add timings."""
    out = Outcome()
    timed = 0.0
    for n, idx in enumerate(pool_order(plan)):
        if n >= len(plan.ops) and (idx - plan.lead) % plan.cycle == 0 and timed >= seconds:
            break
        first = n < len(plan.ops)
        op = plan.ops[idx]
        out.calibration.sample()
        err = None
        t0 = time.perf_counter()
        try:
            result = op.run() if tracer is None else tracer.run_op(idx, op.run)
        except Exception as exc:  # a raising op is a counted failure
            err = exc
        dt = time.perf_counter() - t0
        out.calibration.sample()
        timed += dt
        out.starts.append(t0)
        out.durations.append(dt)
        out.indices.append(idx)
        if err is not None:
            problems = [(None, f"raised {type(err).__name__}: {err}")]
            text = f"error {type(err).__name__}: {err}"
        else:
            try:
                problems = op.check(result)
            except Exception as exc:  # a check that cannot run fails the op
                problems = [("recheck", f"check raised {type(exc).__name__}: {exc}")]
            text = op.payload(result)
        out.failed_runs += bool(problems)
        if first:
            for kind, reason in problems:
                out.failures.append((idx, op.kind, reason if kind is None
                                     else f"{kind}: {reason}"))
        out.wrong += any(kind == "wrong" for kind, _ in problems)
        if n < plan.prefix:
            out.digest.update(text.encode())
            out.digest.update(b"\n")
            out.digest_ops += 1
    return out


def failed_ops(out: Outcome) -> int:
    """Distinct operations of the pool that failed."""
    return len({idx for idx, _, _ in out.failures})


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least 10 samples beyond it
    (nearest-rank), as (percentile, seconds)."""
    xs = sorted(durations)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = max(1, -(-int(p * 10) * n // 1000))  # ceil(p/100 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 100.0, xs[-1]


def probe_setup(args) -> list[tuple[float, float]]:
    """(wall, calibrated) set-up times of fresh processes, each importing
    the program anew."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return times


def report_failures(out: Outcome) -> None:
    for idx, kind, reason in out.failures:
        print(f"FAIL op {idx} {kind}: {reason}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        plan, setup_s = set_up(args, workdir)
        if args.setup_probe:
            print(json.dumps(setup_s))
            return 0
        if args.trace:
            return traced_run(args, plan, workdir)
        return timed_run(args, plan, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(args, plan, setup_s) -> int:
    out = run_loop(plan, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + probe_setup(args)
    n = out.attempted
    failed = failed_ops(out)
    lead_failed = len({idx for idx, _, _ in out.failures if idx < plan.lead})
    cycle_runs = out.runs - plan.lead
    cycle_verified = cycle_runs - (out.failed_runs - lead_failed)

    def timings(durations, setup):
        p, tail_s = tail(durations)
        return p, {"ops_per_s": cycle_verified / sum(durations[plan.lead:]),
                   "op_p50_ms": 1000 * statistics.median(durations),
                   "op_tail_ms": 1000 * tail_s,
                   "setup_s": statistics.median(setup)}

    p, metrics = timings(out.calibrated(), [c for _, c in setups])
    _, wall = timings(out.durations, [w for w, _ in setups])
    metrics.update(verified_frac=(n - failed) / n, peak_rss_mb=rss_mb)
    refs = out.calibration.samples
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds}: "
          f"{out.runs} ops run ({n} distinct pool ops, then repeats) in "
          f"{sum(out.durations):.3f} s timed, closed loop, 1 process; "
          f"reference {1000 * statistics.median(refs):.3f} ms (median of {len(refs)}), "
          f"nominal {1000 * calibrate.NOMINAL_S:g} ms")
    print("times are calibrated to the reference speed; wall-clock values in brackets")
    print(f"ops_per_s {metrics['ops_per_s']:.4f} 1/s [{wall['ops_per_s']:.4f}] "
          f"(n={cycle_verified} verified ops in {cycle_runs // plan.cycle} whole "
          f"cycles of {plan.cycle}; {plan.lead} once-per-run ops excluded)")
    print(f"op_p50_ms {metrics['op_p50_ms']:.3f} ms [{wall['op_p50_ms']:.3f}] (n={out.runs})")
    print(f"op_tail_ms {metrics['op_tail_ms']:.3f} ms [{wall['op_tail_ms']:.3f}] "
          f"(p{p:g}, n={out.runs})")
    print(f"failed_frac {failed / n:.4f} ({failed} of {n} distinct pool ops; "
          f"{out.failed_runs} of {out.runs} runs)")
    print(f"verified_frac {metrics['verified_frac']:.4f} (n={n})")
    print(f"peak_rss_mb {rss_mb:.1f} MB (n=1, ru_maxrss of this process)")
    print(f"setup_s {metrics['setup_s']:.4f} s [{wall['setup_s']:.4f}] "
          f"(median of n={len(setups)} set-ups)")
    print(f"payload_digest {out.digest.hexdigest()} (first {out.digest_ops} ops)")
    report_failures(out)
    print(json.dumps({"correct": out.wrong == 0, "attempted": n, "failed": failed,
                      "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                  for k, v in metrics.items()}}))
    return 0


def traced_run(args, plan, workdir) -> int:
    import workloads

    untraced = run_loop(plan, 0)
    again = workloads.SETUPS[args.workload](args.seed, args.seconds, workdir)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_loop(again, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
    metrics = layer_metrics(tracer, sum(traced.calibrated()) / sum(untraced.calibrated()) - 1)
    same = untraced.digest.hexdigest() == traced.digest.hexdigest()
    n = traced.attempted
    print(f"workload {args.workload} seed {args.seed}: {n} ops traced, "
          f"{len(tracer.start)} spans")
    print(f"payload_digest untraced {untraced.digest.hexdigest()} "
          f"traced {traced.digest.hexdigest()} (first {traced.digest_ops} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    report_failures(traced)
    print(json.dumps({"correct": traced.wrong == 0 and same, "attempted": n,
                      "failed": failed_ops(traced),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def layer_metrics(tracer, overhead: float) -> dict:
    summary = tracer.summary()

    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0})

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("exact.mul", "exact.rank", "exact.rank_at_least", "exact.rref",
                 "constants.membership", "constants.rho_value", "setting.act",
                 "stability.saturate_up", "stability.search", "poly.mult_map",
                 "poly.parse", "poly.gcd", "certifier.certify"):
        out[f"{name}.calls"] = (row(name)["calls"], "count")
    for name in ("exact.mul", "exact.kron", "exact.inverse", "exact.rank", "exact.rref",
                 "constants.rho_value", "setting.act", "stability.saturate_up",
                 "embedding.zeta", "embedding.theta", "embedding.big_act",
                 "embedding.z_membership", "embedding.injectivity",
                 "setting.build_system"):
        out[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for module in spans.MODULES:
        out[f"{module}.self_s"] = (sum(r["self_s"] for k, r in summary.items()
                                       if k.split(".")[0] == module), "s")
    settled, calls = tracer.rank_at_least_settled_mod_p()
    c = tracer.counters
    out["exact.rank_at_least.modp_frac"] = (ratio(settled, calls), "ratio")
    out["constants.admissible_frac"] = (
        ratio(c.get("constants.membership.true", 0), row("constants.membership")["calls"]),
        "ratio")
    out["stability.budget_used"] = (
        ratio(c.get("stability.budget_used", 0), row("stability.search")["calls"]), "count")
    out["stability.witness_frac"] = (
        ratio(c.get("stability.witnesses", 0), c.get("stability.verdicts", 0)), "ratio")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
