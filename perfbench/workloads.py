"""The four workloads: seeded inputs, one closure per operation, and checks.

Each workload builds a `Plan` in set-up: a few lead operations, then a pool
of whole cycles of a fixed operation mix, so the mix is the same for every
seed and only the data changes.  Operations call the program through module
attributes (`embedding.zeta(...)`, never a name imported into this file), so
the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from gitpol import certifier, cli, constants, embedding, setting, stability
from gitpol.exact import rat_str
from gitpol.poly import Poly, monomial_basis
from gitpol.setting import ProblemSpec

import checks
import gen
from linalg import rank_q

SPEC_21P2 = ProblemSpec(2, ((-2, 2), (-1, 1)), ((0, 3),))
SPEC_22P3 = ProblemSpec(3, ((-2, 1), (-1, 1)), ((0, 1), (1, 3)))
SPEC_31P3 = ProblemSpec(3, ((-4, 1), (-2, 1), (-1, 1)), ((0, 5),))
SPEC_PENCIL = ProblemSpec(2, ((-2, 2),), ((-1, 1), (0, 1)))
# the 2x2 shapes: left constant unresolved / right constant unresolved
SPEC_LEFT_UNKNOWN = ProblemSpec(2, ((-3, 1), (-1, 2)), ((0, 2),))
SPEC_22R = ProblemSpec(2, ((-2, 1), (-1, 1)), ((0, 2), (1, 2)))
# every multiplicity one: the search is exact and brute force is exhaustive
SPEC_22ONE = ProblemSpec(2, ((-2, 1), (-1, 1)), ((0, 1), (1, 1)))

SEARCH_BUDGET = 200
CONSTANT_TRIALS = 60
CLI_TRIALS = 60
POOL_SHARE = 0.5


@dataclass
class Op:
    kind: str
    run: object        # () -> result; the only timed call
    check: object      # result -> list of (kind, text) problems
    payload: object    # result -> canonical text for the digest


@dataclass
class Plan:
    """The seeded pool of operations: `lead` once-per-run operations, then
    whole cycles of `cycle` operations each.  The loop runs the pool once
    and then repeats its cycles, so which operations run, and which of
    them fail, depends on the seed only, not on the speed of the host."""

    ops: list
    lead: int          # operations before the first cycle
    cycle: int         # operations per cycle

    @property
    def prefix(self) -> int:
        """Operations always run: the lead and one cycle.  The payload
        digest covers them."""
        return self.lead + self.cycle


def _pool_cycles(seconds: float, cycle_s: float) -> int:
    """Cycles in the pool, from a cycle's time at nominal speed: one pass
    fills about half of `seconds`, so that even in a slow spell the pool is
    run whole within about the run's time."""
    return max(1, math.ceil(POOL_SHARE * seconds / cycle_s))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# enlargement
# ----------------------------------------------------------------------


def _big_json(b) -> dict:
    return {"x": {str(i): m.to_json() for i, m in sorted(b.x.items())},
            "gamma": b.gamma.to_json(),
            "y": {str(l): m.to_json() for l, m in sorted(b.y.items())}}


def _same_big(a, b) -> bool:
    return (a.gamma.rows == b.gamma.rows
            and sorted(a.x) == sorted(b.x) and all(a.x[i].rows == b.x[i].rows for i in a.x)
            and sorted(a.y) == sorted(b.y) and all(a.y[l].rows == b.y[l].rows for l in a.y))


def _pair_op(label, big, w, g) -> Op:
    def run():
        lhs = embedding.zeta(big, setting.act(g, w))
        zw = embedding.zeta(big, w)
        rhs = embedding.big_act(big, embedding.theta(big, g), zw)
        equal = (lhs.gamma == rhs.gamma and all(lhs.x[i] == rhs.x[i] for i in lhs.x)
                 and all(lhs.y[l] == rhs.y[l] for l in lhs.y))
        return lhs, rhs, equal, embedding.z_membership(zw)

    def check(res):
        lhs, rhs, equal, report = res
        out = []
        if not _same_big(lhs, rhs):
            out.append(("wrong", "zeta(g.w) != theta(g).zeta(w)"))
        if not equal:
            out.append(("wrong", "the program's comparison reports the sides unequal"))
        if report.status != "in_Z":
            out.append(("wrong", f"z_membership(zeta(w)) is {report.status}, not in_Z"))
        return out

    def payload(res):
        lhs, rhs, _, report = res
        return _dumps({"lhs": _big_json(lhs), "rhs": _big_json(rhs), "z": report.to_json()})

    return Op(f"pair/{label}", run, check, payload)


def _injectivity_op(label, big) -> Op:
    return Op(f"injectivity/{label}",
              lambda: embedding.gamma_injectivity_check(big),
              lambda ok: [] if ok is True else [("wrong", "gamma reported not injective")],
              lambda ok: _dumps({"gamma_injective": ok}))


def setup_enlargement(seed: int, seconds: float, workdir: str) -> Plan:
    rng = gen.rng_for("enlargement", seed)
    systems = {"22P3": setting.build_line_bundle_system(SPEC_22P3),
               "31P3": setting.build_line_bundle_system(SPEC_31P3)}
    bigs = {k: embedding.build_big(s) for k, s in systems.items()}
    mix = ["31P3"] + ["22P3"] * 120
    ops = [_injectivity_op(k, bigs[k]) for k in ("22P3", "31P3")]
    lead = len(ops)
    for _ in range(_pool_cycles(seconds, 6.0)):
        for label in mix:
            sysm = systems[label]
            w = gen.morphism(rng, sysm, 2)
            g = gen.group_element(rng, sysm, 2)
            ops.append(_pair_op(label, bigs[label], w, g))
    return Plan(ops, lead, len(mix))


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------


def _bound_payload(lb) -> str:
    return _dumps({"value": rat_str(lb.value), "witness": lb.witness,
                   "trials_used": lb.trials_used, "source": lb.source})


def _bound_op(label, problem, exact, call) -> Op:
    def check(lb):
        out = []
        if lb.trials_used != CONSTANT_TRIALS:
            out.append(("wrong", f"trials_used {lb.trials_used} != {CONSTANT_TRIALS}"))
        return out + checks.check_lower_bound(problem, lb.value, lb.witness, exact)

    return Op(f"bound/{label}", call, check, _bound_payload)


def _constant_problems():
    """(label, problem, exact value or None, query or None) per op kind."""
    fam = setting.build_line_bundle_system(certifier.family22_spec(3, 5))
    t31 = setting.build_line_bundle_system(SPEC_31P3)
    left = setting.build_line_bundle_system(SPEC_LEFT_UNKNOWN)
    right = setting.build_line_bundle_system(SPEC_22R)
    return [
        ("FAM22-c1", constants.rho_problem_c(fam, 1), Fraction(1, 7), None),
        ("FAM22-c2", constants.rho_problem_c(fam, 2), Fraction(4, 7), None),
        ("31P3-c1", constants.rho_problem_c(t31, 1), Fraction(1, 5), None),
        ("left-c1", constants.rho_problem_c(left, 1), None,
         constants.ConstantQuery(left, "left", 1)),
        ("right-d1", constants.rho_problem_c(constants.transpose_system(right), right.r),
         None, constants.ConstantQuery(right, "right", 1)),
    ]


# ops per cycle of each kind in _constant_problems() order: the cheap kinds
# carry the median, FAM22 level 2 the 90th percentile
CONSTANT_MIX = (8, 3, 1, 8, 8)


def setup_constants(seed: int, seconds: float, workdir: str) -> Plan:
    rng = gen.rng_for("constants", seed)
    kinds = [k for k, count in zip(_constant_problems(), CONSTANT_MIX) for _ in range(count)]
    ops = []
    for _ in range(_pool_cycles(seconds, 3.0)):
        for label, problem, exact, query in kinds:
            s = rng.randrange(2 ** 31)
            if query is None:
                call = (lambda p=problem, s=s:
                        constants.sampled_lower_bound(p, s, CONSTANT_TRIALS))
            else:
                call = (lambda q=query, s=s:
                        constants.sampled_lower_bound_query(q, s, CONSTANT_TRIALS))
            ops.append(_bound_op(label, problem, exact, call))
    return Plan(ops, 0, len(kinds))


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------


def _search_op(label, w, pol, seed) -> Op:
    return Op(f"search/{label}",
              lambda: stability.destabilizer_search(w, pol, budget=SEARCH_BUDGET, seed=seed),
              lambda v: checks.check_search_verdict(w, pol, v.to_json(), SEARCH_BUDGET),
              lambda v: _dumps(v.to_json()))


def _pencil_op(label, w) -> Op:
    return Op(f"pencil/{label}",
              lambda: stability.decide_pencil(w, stability.MU1_GT_HALF),
              lambda v: checks.check_pencil_verdict(w, v.to_json()),
              lambda v: _dumps(v.to_json()))


# (spec label, planting) per op of one cycle; 3 of the 13 are planted.  The
# counts put the median inside the 21P2 ops and the 90th percentile inside
# the 22P3 ops, away from the gaps between the costs of the kinds.
SEARCH_MIX = ([("PENCIL", None), ("PENCIL", "pencil"), ("21P2", "kernel"),
               ("22ONE", "zero"), ("22ONE", None)] + [("21P2", None)] * 3
              + [("22R", None)] * 3 + [("22P3", None)] * 2)


def setup_search(seed: int, seconds: float, workdir: str) -> Plan:
    rng = gen.rng_for("search", seed)
    systems = {k: setting.build_line_bundle_system(s) for k, s in
               (("21P2", SPEC_21P2), ("22P3", SPEC_22P3), ("22R", SPEC_22R),
                ("22ONE", SPEC_22ONE), ("PENCIL", SPEC_PENCIL))}
    ops = []
    for _ in range(_pool_cycles(seconds, 0.7)):
        for label, plant in SEARCH_MIX:
            sysm = systems[label]
            if label == "PENCIL":
                kind = rng.randint(1, 3) if plant else 0
                ops.append(_pencil_op(f"{label}-{kind}", gen.pencil_morphism(rng, sysm, kind)))
                continue
            w = gen.morphism(rng, sysm, 3)
            if plant == "kernel":
                gen.plant_shared_kernel(rng, w)
            elif plant == "zero":
                gen.plant_zero_block(rng, w)
            pol = gen.polarization(rng, sysm)
            name = label if plant is None else f"{label}-{plant}"
            ops.append(_search_op(name, w, pol, rng.randrange(2 ** 31)))
    return Plan(ops, 0, len(SEARCH_MIX))


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------


def _cli_op(kind, argv, check) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def verify(res):
        code, text, err = res
        if code != 0:
            # the program refused valid input: a failed op, like a raise
            return [("error", f"exit code {code}: {err.strip()}")]
        return check(json.loads(text))

    return Op(f"cli/{kind}", run, verify, lambda res: f"{res[0]}\n{res[1]}")


def _expect(cond, text):
    return [] if cond else [("wrong", text)]


def _check_dim(expected):
    return lambda out: _expect(out["expected_dimension"] == expected,
                               f"dimension {out['expected_dimension']}, expected {expected}")


RECTANGLE = {("4/5", "0"), ("1", "0"), ("1", "3/7"), ("4/5", "3/7")}


def _check_rectangle(out):
    got = {tuple(v) for v in out["vertices"]}
    return (_expect(got == RECTANGLE and len(out["vertices"]) == 4,
                    f"region vertices {sorted(got)}")
            + _expect(len(out["walls"]) == 6, f"{len(out['walls'])} walls, expected 6"))


def _check_window_chambers(out):
    return (_expect(len(out["walls"]) == 3, f"{len(out['walls'])} walls in the window")
            + _expect(out["chamber_count"] == 4, f"{out['chamber_count']} chambers"))


def _check_t_chambers(lo, hi):
    walls = [rat_str(t) for t in (Fraction(1, 3), Fraction(2, 3)) if lo < t < hi]

    def check(out):
        return (_expect(out["walls"] == walls, f"walls {out['walls']}, expected {walls}")
                + _expect(len(out["chambers"]) == len(walls) + 1, "chamber count"))
    return check


def _check_cli_bound(side, problem, call):
    """The reported bound is the value certified by a witness that the
    checker obtains from the same seeded call and re-checks itself."""
    def check(out):
        entry = next(e for e in out[side] if e["value"] is None)
        lb = call()
        return (_expect(Fraction(entry["lower_bound"]) == lb.value,
                        f"lower bound {entry['lower_bound']} != {lb.value}")
                + checks.check_lower_bound(problem, lb.value, lb.witness, None))
    return check


def _check_fm_params(n, k):
    top = (n + 1) * (n + 2) // 2
    lo = Fraction(n + 1 + k, 2)
    ts = [rat_str(1 - Fraction(k, 2 * p)) for p in range(int(lo) + 1, top + 1) if p > lo]
    dim = 2 * (n - 1) + k * ((n + 1) ** 2 - k)

    def check(out):
        got = [c["t"] for c in out["critical_ts"]]
        return (_expect(out["dimension"] == dim, f"dimension {out['dimension']} != {dim}")
                + _expect(out["valid"] is True, "reported invalid")
                + _expect(got == ts, f"critical values {got} != {ts}"))
    return check


def _check_fm_2_7(out):
    """Known answer: dimension 16 and the single critical value 5/12."""
    got = [c["t"] for c in out["critical_ts"]]
    return (_expect(out["dimension"] == 16, f"dimension {out['dimension']} != 16")
            + _expect(got == ["5/12"], f"critical values {got} != ['5/12']")
            + _check_fm_params(2, 7)(out))


def _datum(rng, nv: int, planted: bool):
    """Plane (z1, z2) and cubics in its ideal.  Unplanted data contain the
    coprime pair z1*xa^2, z2*xb^2 (z1, z2 have two nonzero coefficients, so
    neither is a coordinate), hence a constant gcd; planted data share a
    quadric factor."""
    def form(deg):
        return Poly(nv, {m: Fraction(rng.randint(-2, 2)) for m in monomial_basis(nv, deg)})

    while True:
        z = [Poly(nv, {}), Poly(nv, {})]
        for p in z:
            idx = rng.sample(range(nv), 2)
            for j in idx:
                mono = tuple(1 if t == j else 0 for t in range(nv))
                p.terms[mono] = Fraction(rng.choice([-2, -1, 1, 2]))
        if rank_q([p.coeff_vector(1) for p in z]) < 2:
            continue
        if planted:
            f = form(2)
            if f.is_zero():
                continue
            cubics = [f * z[0], f * z[1]]
        else:
            a, b = rng.sample(range(nv), 2)
            cubics = [z[0] * Poly.var(nv, a, 2), z[1] * Poly.var(nv, b, 2)]
            cubics += [z[0] * form(2) + z[1] * form(2) for _ in range(4)]
        if rank_q([c.coeff_vector(3) for c in cubics]) == len(cubics):
            return z, cubics


def _check_datum(z, cubics, planted):
    nv = z[0].nvars

    def check(out):
        top = [Poly.parse(s, nv) for s in out["blocks"][0][0][0]]
        rows = out["blocks"][1][0]
        problems = (_expect(out["classification"] == "generic",
                            f"classification {out['classification']}")
                    + _expect(out["gcd_constant"] is (not planted),
                              f"gcd_constant {out['gcd_constant']}")
                    + _expect(top == [z[0], -z[1]], "linear block")
                    + _expect(len(rows) == len(cubics), "row count"))
        for row, cubic in zip(rows, cubics):
            q2, q1 = (Poly.parse(s, nv).terms for s in row)
            got = checks._poly_mul(z[0].terms, q1)
            for mono, c in checks._poly_mul(z[1].terms, q2).items():
                got[mono] = got.get(mono, 0) + c
            if {m: c for m, c in got.items() if c != 0} != cubic.terms:
                problems.append(("wrong", "the quadric cofactors do not give the cubic"))
        return problems
    return check


def _check_stability(w, pol):
    return lambda out: checks.check_search_verdict(w, pol, out, SEARCH_BUDGET)


def setup_cli(seed: int, seconds: float, workdir: str) -> Plan:
    rng = gen.rng_for("cli", seed)
    os.makedirs(workdir, exist_ok=True)

    def write(name, obj):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    specs = {"21P2": SPEC_21P2, "22P3": SPEC_22P3, "left": SPEC_LEFT_UNKNOWN,
             "22R": SPEC_22R, "22ONE": SPEC_22ONE}
    spec_path = {k: write(f"spec_{k}.json", s.to_json()) for k, s in specs.items()}
    systems = {k: setting.build_line_bundle_system(s) for k, s in specs.items()}
    left_problem = constants.rho_problem_c(systems["left"], 1)
    right_query = constants.ConstantQuery(systems["22R"], "right", 1)
    right_problem = constants.rho_problem_c(
        constants.transpose_system(systems["22R"]), systems["22R"].r)
    flipped = "m2lambda2,one_minus_n1mu1"

    serial = itertools.count()

    def stability_op(label, plant):
        sysm = systems[label]
        w = gen.morphism(rng, sysm, 3)
        if plant:
            gen.plant_shared_kernel(rng, w)
        pol = gen.polarization(rng, sysm)
        k = next(serial)
        path_w = write(f"w{k}.json", w.to_json())
        path_pol = write(f"pol{k}.json", pol.to_json())
        return _cli_op(f"stability-{label}{'-kernel' if plant else ''}",
                       ["stability", "--spec", spec_path[label], "--pol", path_pol,
                        "--morphism", path_w, "--seed", str(rng.randrange(1000))],
                       _check_stability(w, pol))

    def datum_op(planted):
        z, cubics = _datum(rng, 3, planted)
        path = write(f"datum{next(serial)}.json", {"n": 2, "z1": str(z[0]), "z2": str(z[1]),
                                               "cubics": [str(q) for q in cubics]})
        return _cli_op(f"fine-moduli-datum{'-planted' if planted else ''}",
                       ["fine-moduli", "--datum", path], _check_datum(z, cubics, planted))

    ops: list = []
    for c in range(_pool_cycles(seconds, 0.9)):
        t = Fraction(3, 5) + Fraction(2, 5) * Fraction(rng.randint(1, 999), 1000)
        pol_t = write(f"pol_t{c}.json", {"schema": "1", "lambda": [rat_str((1 - t) / 2),
                                                                    rat_str(t)],
                                          "mu": ["1/3"]})
        lo, hi = sorted(rng.sample(range(0, 13), 2))
        lo, hi = Fraction(lo, 12), Fraction(hi, 12)
        s1, s2, s3 = (rng.randrange(1000) for _ in range(3))
        zw = write(f"zw{c}.json", gen.morphism(rng, systems["21P2"], 3).to_json())
        n = rng.randint(2, 4)
        k = rng.randint((n + 1) * (n + 2) // 2 + 1, (n + 1) ** 2)
        ops += [
            _cli_op("dim", ["dim", "--spec", spec_path["21P2"]], _check_dim(26)),
            _cli_op("dim", ["dim", "--spec", spec_path["22P3"]], _check_dim(77)),
            _cli_op("certify", ["certify", "--spec", spec_path["21P2"], "--pol", pol_t],
                    lambda out: _expect(out["status"] == certifier.GOOD_PROJECTIVE_QUOTIENT,
                                        f"status {out['status']}")),
            _cli_op("chambers-2d", ["chambers", "--spec", spec_path["22P3"], "--param",
                                    flipped, "--window", "4/5,1;0,3/7"],
                    _check_window_chambers),
            _cli_op("chambers-t", ["chambers", "--spec", spec_path["21P2"], "--window",
                                   f"{rat_str(lo)},{rat_str(hi)}"],
                    _check_t_chambers(lo, hi)),
            _cli_op("region", ["region", "--spec", spec_path["22P3"], "--params", flipped],
                    _check_rectangle),
            _cli_op("constants-left", ["constants", "--spec", spec_path["left"], "--trials",
                                       str(CLI_TRIALS), "--seed", str(s1)],
                    _check_cli_bound("left", left_problem,
                                     lambda s=s1: constants.sampled_lower_bound(
                                         left_problem, s, CLI_TRIALS))),
            _cli_op("constants-right", ["constants", "--spec", spec_path["22R"], "--trials",
                                        str(CLI_TRIALS), "--seed", str(s2)],
                    _check_cli_bound("right", right_problem,
                                     lambda s=s2: constants.sampled_lower_bound_query(
                                         right_query, s, CLI_TRIALS))),
            stability_op("21P2", False),
            stability_op("22R", True),
            stability_op("22ONE", False),
            stability_op("22P3", False),
            stability_op("22P3", False),
            _cli_op("embed-zmember", ["embed", "--spec", spec_path["21P2"], "--morphism", zw,
                                      "--check", "zmember"],
                    lambda out: _expect(out["status"] == "in_Z", f"status {out['status']}")),
            _cli_op("embed-injectivity", ["embed", "--spec", spec_path["22P3"],
                                          "--check", "injectivity"],
                    lambda out: _expect(out["gamma_injective"] is True, "not injective")),
            _cli_op("embed-equivariance", ["embed", "--spec", spec_path["21P2"], "--check",
                                           "equivariance", "--seed", str(s3)],
                    lambda out: _expect(out["passed"] == out["trials"] == 20,
                                        f"{out['passed']} of {out['trials']} passed")),
            _cli_op("fine-moduli-2-7", ["fine-moduli", "--n", "2", "--k", "7"],
                    _check_fm_2_7),
            _cli_op("fine-moduli-nk", ["fine-moduli", "--n", str(n), "--k", str(k)],
                    _check_fm_params(n, k)),
        ]
        ops += [datum_op(False), datum_op(False), datum_op(True)]
    per_cycle = len(ops) // (c + 1)
    return Plan(ops, 0, per_cycle)


SETUPS = {"enlargement": setup_enlargement, "constants": setup_constants,
          "search": setup_search, "cli": setup_cli}
