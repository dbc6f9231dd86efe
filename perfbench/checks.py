"""The benchmark's own output checks.

Every rank a check relies on is computed by plain Gaussian elimination over
Fractions (`linalg.rank_q`), never by `RatMatrix.rank`, so a defect in the
program's elimination cannot both produce a wrong answer and pass it.

A check returns a list of problems.  Each problem is a pair `(kind, text)`:
`"wrong"` when the benchmark's own check finds the output incorrect,
`"recheck"` when re-checking the output through the program's own public
functions fails (for example `reverify` returns False or raises), and
`"error"` when the command line refused the input.  Every kind counts the
operation as failed; only `"wrong"` makes the run's outputs incorrect.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gitpol import constants, stability
from gitpol.exact import RatMatrix
from gitpol.setting import act

from linalg import rank_q

ZERO = Fraction(0)


def columns(mat: RatMatrix) -> list[list[Fraction]]:
    return [[mat.rows[i][j] for i in range(mat.nrows)] for j in range(mat.ncols)]


def _recheck(problems, label, fn, *args) -> None:
    """Run a program-side re-check; record False or an exception."""
    try:
        ok = fn(*args)
    except Exception as exc:  # a re-check that raises is a failed verification
        problems.append(("recheck", f"{label} raised {type(exc).__name__}: {exc}"))
        return
    if not ok:
        problems.append(("recheck", f"{label} returned False"))


# ----------------------------------------------------------------------
# stability verdicts
# ----------------------------------------------------------------------


def _matvec(mat: RatMatrix, vec) -> list[Fraction]:
    return [sum((a * v for a, v in zip(row, vec) if a != 0), ZERO) for row in mat.rows]


def family_problems(w, fam) -> list[str]:
    """Own check that a family is made of bases and is invariant under w."""
    out = []
    sysm = w.system
    for mat in tuple(fam.mprime) + tuple(fam.nprime):
        if mat.ncols and rank_q(columns(mat)) != mat.ncols:
            out.append("a family basis is not of full column rank")
    for l in range(1, sysm.s + 1):
        nl = w.n[l - 1]
        target = columns(fam.nprime[l - 1])
        images = []
        for i in range(1, sysm.r + 1):
            h = sysm.h(l, i)
            for vec in columns(fam.mprime[i - 1]):
                img = _matvec(w.block(l, i), vec)
                images.extend([img[t * h + k] for t in range(nl)] for k in range(h))
        if rank_q(target + images) != rank_q(target):
            out.append(f"the family is not invariant at right summand {l}")
    return out


def check_witness_verdict(w, lam, mu, data: dict) -> list:
    """An UNSTABLE/NOT_STABLE verdict with a witness, given as its JSON."""
    problems = []
    try:
        again = stability.StabilityVerdict.from_json(w.system, data)
    except Exception as exc:
        return [("recheck", f"from_json raised {type(exc).__name__}: {exc}")]
    _recheck(problems, "reverify", stability.reverify, w, lam, mu, again)
    moved = act(again.witness_h, w) if again.witness_h is not None else w
    fam = again.witness_family
    problems += [("wrong", text) for text in family_problems(moved, fam)]
    mdims = tuple(m.ncols for m in fam.mprime)
    ndims = tuple(n.ncols for n in fam.nprime)
    if (mdims == tuple(w.m) and ndims == tuple(w.n)) or not any(mdims + ndims):
        problems.append(("wrong", "the witness family is not proper"))
    delta = (sum((Fraction(a) * d for a, d in zip(lam, mdims)), ZERO)
             - sum((Fraction(b) * d for b, d in zip(mu, ndims)), ZERO))
    if again.delta != delta:
        problems.append(("wrong", f"delta {again.delta} but the family gives {delta}"))
    elif data["status"] == stability.UNSTABLE and not delta > 0:
        problems.append(("wrong", "UNSTABLE witness with delta <= 0"))
    elif data["status"] == stability.NOT_STABLE and delta != 0:
        problems.append(("wrong", "NOT_STABLE witness with delta != 0"))
    return problems


def zero_or_full_best(w, lam, mu):
    """Own enumeration of zero-or-full invariant proper families.

    Exhaustive when every multiplicity is one.  Returns the largest
    discriminant, or None when no family is proper and invariant.
    """
    m, n = w.mults
    best = None
    for lf in itertools.product((0, 1), repeat=len(m)):
        for rf in itertools.product((0, 1), repeat=len(n)):
            mdims = tuple(f * mi for f, mi in zip(lf, m))
            ndims = tuple(f * nl for f, nl in zip(rf, n))
            if (mdims == tuple(m) and ndims == tuple(n)) or not any(mdims + ndims):
                continue
            invariant = all(w.block(l, i).is_zero() or not lf[i - 1] or rf[l - 1]
                            for l in range(1, len(n) + 1) for i in range(1, len(m) + 1))
            if not invariant:
                continue
            delta = (sum((Fraction(a) * d for a, d in zip(lam, mdims)), ZERO)
                     - sum((Fraction(b) * d for b, d in zip(mu, ndims)), ZERO))
            if best is None or delta > best:
                best = delta
    return best


def check_search_verdict(w, pol, data: dict, budget: int) -> list:
    """A `destabilizer_search` verdict, given as its JSON."""
    status = data["status"]
    if status not in (stability.UNSTABLE, stability.NOT_STABLE,
                      stability.NO_DESTABILIZER_FOUND):
        return [("wrong", f"unexpected status {status}")]
    problems = []
    if data["budget_used"] > max(budget, 1):
        problems.append(("wrong", f"budget_used {data['budget_used']} > {budget}"))
    if "witness" in data:
        return problems + check_witness_verdict(w, pol.lam, pol.mu, data)
    if status != stability.NO_DESTABILIZER_FOUND:
        return problems + [("wrong", f"{status} without a witness")]
    if all(x == 1 for x in w.m + w.n):
        own = zero_or_full_best(w, pol.lam, pol.mu)
        if own is not None and own >= 0:
            problems.append(("wrong", f"no witness, but a family with delta {own} exists"))
        try:
            best, _ = stability.brute_force_families(w, pol.lam, pol.mu)
        except Exception as exc:
            problems.append(("recheck", f"brute_force_families raised "
                                        f"{type(exc).__name__}: {exc}"))
        else:
            if best != own:
                problems.append(("recheck", f"brute_force_families gives {best}, "
                                            f"own enumeration {own}"))
    return problems


# ----------------------------------------------------------------------
# the exact pencil decider, side mu1 > 1/2
# ----------------------------------------------------------------------

PENCIL_LAM = (Fraction(1, 2),)
PENCIL_MU = (Fraction(2, 3), Fraction(1, 3))


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, ZERO) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def pencil_expected_stable(w) -> bool:
    """Stable iff the linear entries are independent and the cubic
    determinant z1 q2 - z2 q1 is nonzero."""
    from gitpol.poly import Poly

    nv = w.system.spec.ambient_dim + 1
    z = [Poly.from_coeff_vector(nv, 1, w.block(1, 1).col(c)).terms for c in range(2)]
    q = [Poly.from_coeff_vector(nv, 2, w.block(2, 1).col(c)).terms for c in range(2)]
    if rank_q(columns(w.block(1, 1))) < 2:
        return False
    det = _poly_mul(z[0], q[1])
    for mono, c in _poly_mul(z[1], q[0]).items():
        det[mono] = det.get(mono, ZERO) - c
    return any(c != 0 for c in det.values())


def check_pencil_verdict(w, data: dict) -> list:
    expected = (stability.STABLE_EXACT if pencil_expected_stable(w)
                else stability.UNSTABLE)
    if data["status"] != expected:
        return [("wrong", f"status {data['status']}, expected {expected}")]
    if expected == stability.UNSTABLE:
        if "witness" not in data:
            return [("wrong", "UNSTABLE without a witness")]
        return check_witness_verdict(w, PENCIL_LAM, PENCIL_MU, data)
    return []


# ----------------------------------------------------------------------
# sampled lower bounds of the codimension constants
# ----------------------------------------------------------------------


def admissible_q(problem, basis: RatMatrix) -> bool:
    """Own membership test: full column rank and full support on each block."""
    if basis.ncols == 0 or rank_q(columns(basis)) != basis.ncols:
        return False
    offs = problem.slot_offsets()
    slots = problem.slots
    for b, mult in enumerate(problem.block_mults):
        slot_ids = [k for k, bb in enumerate(slots) if bb == b]
        vecs = [[basis.rows[offs[k] + c][col] for k in slot_ids]
                for col in range(basis.ncols) for c in range(problem.block_adims[b])]
        if rank_q(vecs) != mult:
            return False
    return True


def rho_q(problem, basis: RatMatrix) -> Fraction:
    """Own rho(K): codim of the contracted image over codim K."""
    offs = problem.slot_offsets()
    slots = problem.slots
    tgt_offs, cur = [], 0
    for b in slots:
        tgt_offs.append(cur)
        cur += problem.block_tdims[b]
    vecs = []
    for col in range(basis.ncols):
        for k1 in range(problem.h_src):
            vec = [ZERO] * problem.tgt_dim
            for k, b in enumerate(slots):
                ind = problem.inds[b]
                for c in range(problem.block_adims[b]):
                    x = basis.rows[offs[k] + c][col]
                    if x == 0:
                        continue
                    for t in range(problem.block_tdims[b]):
                        v = ind.rows[t][c * problem.h_src + k1]
                        if v != 0:
                            vec[tgt_offs[k] + t] += x * v
            vecs.append(vec)
    return Fraction(problem.tgt_dim - rank_q(vecs), problem.src_dim - basis.ncols)


def check_lower_bound(problem, value: Fraction, witness, exact) -> list:
    """A certified lower bound: at most the exact value (when known) and
    attained by its witness, re-checked from the witness JSON."""
    problems = []
    if exact is not None and value > exact:
        problems.append(("wrong", f"lower bound {value} exceeds the exact value {exact}"))
    if value < 0:
        problems.append(("wrong", f"negative lower bound {value}"))
    if witness is None:
        if value != 0:
            problems.append(("wrong", f"bound {value} without a witness"))
        return problems
    basis = RatMatrix.from_json(witness)
    if not admissible_q(problem, basis):
        problems.append(("wrong", "the witness is not admissible"))
    else:
        own = rho_q(problem, basis)
        if own != value:
            problems.append(("wrong", f"the witness gives rho {own}, not {value}"))
    _recheck(problems, "membership", constants.membership, problem, basis)
    try:
        rho = constants.rho_value(problem, basis)
    except Exception as exc:
        problems.append(("recheck", f"rho_value raised {type(exc).__name__}: {exc}"))
    else:
        if rho != value:
            problems.append(("recheck", f"rho_value gives {rho}, not {value}"))
    return problems
