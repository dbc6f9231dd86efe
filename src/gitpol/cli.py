"""Command-line entry point.

Every subcommand reads versioned JSON files, computes exactly, and emits
byte-stable JSON (rationals as strings, sorted keys).  Exit codes: 0 success,
2 malformed input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import certifier, constants, embedding, finemoduli, polarization, stability
from .exact import rat, rat_str
from .serialize import (dumps, load_json, region_svg, vertices_csv, walls_csv,
                        write_text)
from .setting import (MorphismElement, ProblemSpec, SchemaError, _json_int,
                      build_line_bundle_system, check_schema)


def _load_spec(path: str) -> ProblemSpec:
    return ProblemSpec.from_json(load_json(path))


def _load_pol(path: str, spec: ProblemSpec) -> polarization.Polarization:
    """A polarization with one weight per summand, normalized against the
    spec's multiplicities."""
    pol = polarization.Polarization.from_json(load_json(path))
    if (len(pol.lam), len(pol.mu)) != (spec.r, spec.s):
        raise SchemaError(f"the polarization has {len(pol.lam)}+{len(pol.mu)} weights; "
                          f"the spec has {spec.r}+{spec.s} summands")
    return polarization.Polarization.make(pol.lam, pol.mu, spec.m, spec.n)


def _emit(args, payload: dict) -> None:
    text = dumps(payload)
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _parse_window(text: str):
    parts = text.split(";")
    try:
        if len(parts) == 1:
            lo, hi = (rat(v) for v in parts[0].split(","))
            return (lo, hi)
        (a, b), (c, d) = (tuple(rat(v) for v in p.split(",")) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad window {text!r}: expected 'a,b' or 'a,b;c,d'") from exc
    return ((a, b), (c, d))


def _param_for(spec: ProblemSpec, name: str | None):
    m, n = spec.m, spec.n
    if name in (None, "", "default"):
        return polarization.default_param(m, n)
    key = name.replace(" ", "")
    if key in ("t",):
        return polarization.param_t_21(m, n)
    if key in ("u", "mu1"):
        return polarization.param_u_12(m, n)
    if key in ("lambda2,mu1",):
        return certifier.param_22_weights(m, n)
    if key in ("m2lambda2,n1mu1",):
        return polarization.param_22(m, n)
    if key in ("m2lambda2,one_minus_n1mu1", "lambda2,1-mu1"):
        return polarization.param_22(m, n, flip_mu=True)
    if key in ("m2lambda2,m3lambda3",):
        return polarization.param_31(m, n)
    raise SchemaError(f"unknown parametrization {name!r}")


def cmd_dim(args) -> dict:
    spec = _load_spec(args.spec)
    sys_ = build_line_bundle_system(spec)
    return {"schema": "1", "dim_w": sys_.dim_w, "dim_g": sys_.dim_g,
            "expected_dimension": certifier.expected_dimension(sys_)}


def cmd_certify(args) -> dict:
    spec = _load_spec(args.spec)
    sys_ = build_line_bundle_system(spec)
    pol = _load_pol(args.pol, spec)
    return certifier.certify(sys_, pol).to_json()


def cmd_constants(args) -> dict:
    spec = _load_spec(args.spec)
    if args.trials < 0:
        raise SchemaError(f"--trials must be non-negative, not {args.trials}")
    sys_ = build_line_bundle_system(spec)
    out = {"schema": "1", "left": [], "right": []}
    for l in range(1, sys_.s + 1):
        val = constants.resolve_c(sys_, l)
        entry = {"index": l, "source": val.source,
                 "value": None if val.value is None else rat_str(val.value)}
        if val.value is None and args.trials:
            lb = constants.sampled_lower_bound(
                constants.rho_problem_c(sys_, l), args.seed, args.trials)
            entry["lower_bound"] = rat_str(lb.value)
        out["left"].append(entry)
    for i in range(1, sys_.r + 1):
        val = constants.resolve_d(sys_, i)
        entry = {"index": i, "source": val.source,
                 "value": None if val.value is None else rat_str(val.value)}
        if val.value is None and args.trials:
            lb = constants.sampled_lower_bound_query(
                constants.ConstantQuery(sys_, "right", i), args.seed, args.trials)
            entry["lower_bound"] = rat_str(lb.value)
        out["right"].append(entry)
    return out


def cmd_chambers(args) -> dict:
    spec = _load_spec(args.spec)
    param = _param_for(spec, args.param)
    window = _parse_window(args.window) if args.window else (
        (Fraction(0), Fraction(1)) if param.nvars == 1
        else ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))))
    dec = polarization.chambers(spec.m, spec.n, window, param)
    if param.nvars == 1:
        payload = {"schema": "1", "params": list(param.names),
                   "walls": [rat_str(t) for t in dec.walls],
                   "chambers": [[rat_str(a), rat_str(b)] for a, b in dec.chambers],
                   "stability_notions": dec.notion_count}
    else:
        payload = {"schema": "1", "params": list(param.names),
                   "walls": [list(w) for w in dec.walls],
                   "chamber_count": len(dec.chambers),
                   "chambers": [[[rat_str(x), rat_str(y)] for x, y in cell]
                                for cell in dec.chambers]}
    if args.csv:
        write_text(args.csv, walls_csv(dec.walls))
    return payload


def cmd_region(args) -> dict:
    spec = _load_spec(args.spec)
    sys_ = build_line_bundle_system(spec)
    param = _param_for(spec, args.params)
    region = certifier.admissible_region(sys_, param)
    payload = region.to_json()
    walls = polarization.singular_polarizations(spec.m, spec.n, param)
    payload["walls"] = [list(w) for w in walls]
    if args.csv:
        write_text(args.csv, vertices_csv(region.vertices))
    if args.svg:
        window = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
        write_text(args.svg, region_svg(region.halfplanes, region.vertices,
                                        walls, window, labels=param.names))
    return payload


def cmd_stability(args) -> dict:
    spec = _load_spec(args.spec)
    sys_ = build_line_bundle_system(spec)
    pol = _load_pol(args.pol, spec)
    if args.budget < 0:
        raise SchemaError(f"--budget must be non-negative, not {args.budget}")
    w = MorphismElement.from_json(sys_, load_json(args.morphism))
    verdict = stability.destabilizer_search(w, pol, budget=args.budget,
                                            seed=args.seed)
    return verdict.to_json()


def cmd_embed(args) -> dict:
    spec = _load_spec(args.spec)
    sys_ = build_line_bundle_system(spec)
    big = embedding.build_big(sys_)
    check = args.check or "zmember"
    if check == "injectivity":
        return {"schema": "1", "check": "injectivity",
                "gamma_injective": embedding.gamma_injectivity_check(big)}
    if check == "zmember":
        if not args.morphism:
            raise SchemaError("the membership check needs --morphism")
        w = MorphismElement.from_json(sys_, load_json(args.morphism))
        report = embedding.z_membership(embedding.zeta(big, w))
        return report.to_json()
    if check == "equivariance":
        from .setting import act, compose_group, random_reductive, random_unipotent

        rng_seeds = range(args.seed, args.seed + 20)
        ok = 0
        for k in rng_seeds:
            w = (MorphismElement.from_json(sys_, load_json(args.morphism))
                 if args.morphism else None)
            if w is None:
                from .setting import random_morphism

                w = random_morphism(sys_, seed=k, bound=2)
            g = compose_group(random_reductive(sys_, 7000 + k),
                              random_unipotent(sys_, 9000 + k, 2))
            lhs = embedding.zeta(big, act(g, w))
            rhs = embedding.big_act(big, embedding.theta(big, g),
                                    embedding.zeta(big, w))
            ok += (lhs.gamma == rhs.gamma
                   and all(lhs.x[i] == rhs.x[i] for i in lhs.x)
                   and all(lhs.y[l] == rhs.y[l] for l in lhs.y))
        return {"schema": "1", "check": "equivariance", "trials": 20, "passed": ok}
    raise SchemaError(f"unknown embed check {check!r}")


def cmd_fine_moduli(args) -> dict:
    if args.datum:
        data = load_json(args.datum)
        check_schema(data, "datum")
        try:
            nvars = _json_int(data["n"]) + 1
            from .poly import Poly

            datum = finemoduli.PKDatum(
                Poly.parse(data["z1"], nvars), Poly.parse(data["z2"], nvars),
                tuple(Poly.parse(c, nvars) for c in data["cubics"]))
        except SchemaError:
            raise
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad datum file: {exc}") from exc
        phi = finemoduli.build_phi_from_pk(datum)
        out = phi.to_json()
        out["classification"] = finemoduli.classify(phi)
        out["gcd_constant"] = finemoduli.injectivity_codim2_check(datum)
        return out
    if args.n is None or args.k is None:
        raise SchemaError("need either --datum or both --n and --k")
    p = finemoduli.fm_params(args.n, args.k)
    return {"schema": "1", "n": p.n, "k": p.k, "valid": p.valid,
            "q_body": p.q_body, "q_intro": p.q_intro, "dimension": p.dimension,
            "critical_ts": [{"p": pp, "t": rat_str(t)} for pp, t in p.critical_ts],
            "window_low": rat_str(finemoduli.guaranteed_window_low(p.n, p.k))}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gitpol", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, spec=True, seed=False):
        if spec:
            p.add_argument("--spec", required=True, help="problem spec JSON file")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the JSON payload to this file")

    p = sub.add_parser("dim", help="expected quotient dimension")
    common(p)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("certify", help="quotient-existence verdict")
    common(p)
    p.add_argument("--pol", required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("constants", help="source-tagged codimension constants")
    common(p, seed=True)
    p.add_argument("--trials", type=int, default=0,
                   help="sample lower bounds for unknown constants")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("chambers", help="walls and chambers in a window")
    common(p)
    p.add_argument("--param", help="parametrization name (default by shape)")
    p.add_argument("--window", help="'a,b' or 'a,b;c,d'")
    p.add_argument("--csv", help="write the walls as CSV")
    p.set_defaults(func=cmd_chambers)

    p = sub.add_parser("region", help="admissible polarization region")
    common(p)
    p.add_argument("--params", help="two-parameter parametrization name")
    p.add_argument("--svg", help="write a plot")
    p.add_argument("--csv", help="write the vertices as CSV")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("stability", help="destabilizer search on a morphism")
    common(p, seed=True)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--pol", required=True)
    p.add_argument("--morphism", required=True)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("embed", help="embedding checks")
    common(p, seed=True)
    p.add_argument("--morphism")
    p.add_argument("--check", choices=("equivariance", "injectivity", "zmember"))
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("fine-moduli", help="fine moduli numerology / build")
    common(p, spec=False)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--datum", help="plane-and-cubics JSON file")
    p.set_defaults(func=cmd_fine_moduli)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except AssertionError as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return 3
    _emit(args, payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
