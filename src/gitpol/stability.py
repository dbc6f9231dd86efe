"""Stability checking on explicit morphisms.

Instability certificates are exact and re-verifiable: a witness is a unipotent
group element h together with an invariant family of subspaces whose
discriminant is positive (strictly, for instability) after moving by h.
Absent a certificate the verdict is an explicit semi-decision, except for two
exactly decidable situations: left multiplicities all one (finitely many left
families, minimal right saturation) and the worked two-by-two pencil shape.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import ONE, ZERO, RatMatrix, kron_identity_mul, permute, stack_columns
from .poly import Poly, poly_gcd_many
from .polarization import Polarization, DimensionVector, weighted_discriminant
from .setting import (CompositionSystem, GroupElement, MorphismElement,
                      SchemaError, _star_phi_u, _star_v_phi, act, block_polys,
                      group_from_json, group_to_json, random_unipotent)

UNSTABLE = "UNSTABLE"
NOT_STABLE = "NOT_STABLE"
NO_DESTABILIZER_FOUND = "NO_DESTABILIZER_FOUND"
STABLE_EXACT = "STABLE_EXACT"


@dataclass
class SubspaceFamily:
    """Bases (full column rank) of subspaces M'_i and N'_l."""

    mprime: tuple[RatMatrix, ...]
    nprime: tuple[RatMatrix, ...]

    def __post_init__(self):
        for mat in tuple(self.mprime) + tuple(self.nprime):
            if mat.ncols and mat.rank() != mat.ncols:
                raise SchemaError("family basis matrices must have full column rank")

    def dimension_vector(self) -> DimensionVector:
        return DimensionVector(tuple(m.ncols for m in self.mprime),
                               tuple(n.ncols for n in self.nprime))

    def is_proper(self, m, n) -> bool:
        return self.dimension_vector().is_proper(m, n)

    def to_json(self) -> dict:
        return {"mprime": [m.to_json() for m in self.mprime],
                "nprime": [n.to_json() for n in self.nprime]}

    @staticmethod
    def from_json(data: dict) -> "SubspaceFamily":
        return SubspaceFamily(tuple(RatMatrix.from_json(m) for m in data["mprime"]),
                              tuple(RatMatrix.from_json(n) for n in data["nprime"]))


def zero_or_full(dim: int, full: bool) -> RatMatrix:
    return RatMatrix.identity(dim) if full else RatMatrix.zeros(dim, 0)


def family_from_flags(w: MorphismElement, left_flags, right_flags) -> SubspaceFamily:
    m, n = w.mults
    return SubspaceFamily(tuple(zero_or_full(mi, f) for mi, f in zip(m, left_flags)),
                          tuple(zero_or_full(nl, f) for nl, f in zip(n, right_flags)))


def _block_support(w: MorphismElement, l: int, vecs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Columns spanning the N_l-support of phi_li applied to the given vectors.

    It reads the block layout by hand rather than through `block_polys`: it
    runs on every candidate of a search, where a reindexing per call costs
    more than this loop.
    """
    sys = w.system
    nl = w.n[l - 1]
    cols = []
    for i in range(1, sys.r + 1):
        blk = w.block(l, i)
        h = sys.h(l, i)
        for v in vecs[i - 1]:
            img = blk.matvec(v)
            for k in range(h):
                col = [img[t * h + k] for t in range(nl)]
                if any(col):
                    cols.append(col)
    return cols


def is_invariant(w: MorphismElement, fam: SubspaceFamily) -> bool:
    """Does w map every M'_i into N'_l tensor the hom space, blockwise?"""
    sys = w.system
    for l in range(1, sys.s + 1):
        nl = w.n[l - 1]
        target = fam.nprime[l - 1]
        vecs = [[fam.mprime[i - 1].col(c) for c in range(fam.mprime[i - 1].ncols)]
                for i in range(1, sys.r + 1)]
        cols = _block_support(w, l, vecs)
        if not cols:
            continue
        if target.ncols == 0:
            return False
        if not target.in_column_span(stack_columns(cols, nl)):
            return False
    return True


def saturate_up(w: MorphismElement, mprime: tuple[RatMatrix, ...]) -> SubspaceFamily:
    """Minimal invariant family extending the given left subspaces."""
    sys = w.system
    nprime = []
    for l in range(1, sys.s + 1):
        nl = w.n[l - 1]
        vecs = [[mprime[i - 1].col(c) for c in range(mprime[i - 1].ncols)]
                for i in range(1, sys.r + 1)]
        cols = _block_support(w, l, vecs)
        nprime.append(stack_columns(cols, nl).column_space_basis())
    return SubspaceFamily(tuple(mprime), tuple(nprime))


def saturate_down(w: MorphismElement, nprime: tuple[RatMatrix, ...]) -> SubspaceFamily:
    """Maximal invariant family with the given right subspaces."""
    sys = w.system
    # rows of ann_l annihilate N'_l; (ann_l (x) I_h) phi_li applies them to
    # every hom coordinate
    kernels = [basis.transpose().kernel_basis() for basis in nprime]
    anns = [RatMatrix(len(kern), nl, kern) for nl, kern in zip(w.n, kernels)]
    mprime = []
    for i in range(1, sys.r + 1):
        mi = w.m[i - 1]
        rows = [row for l in range(1, sys.s + 1)
                for row in kron_identity_mul(anns[l - 1], sys.h(l, i), w.block(l, i)).rows]
        mprime.append(stack_columns(RatMatrix(len(rows), mi, rows).kernel_basis(), mi))
    return SubspaceFamily(tuple(mprime), tuple(nprime))


@dataclass
class StabilityVerdict:
    status: str
    witness_h: GroupElement | None = None
    witness_family: SubspaceFamily | None = None
    delta: Fraction | None = None
    budget_used: int = 0
    budget_exhausted: bool = False
    gred_exact: bool = False
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out = {"schema": "1", "status": self.status, "budget_used": self.budget_used,
               "budget_exhausted": self.budget_exhausted, "gred_exact": self.gred_exact,
               "notes": list(self.notes)}
        if self.witness_family is not None:
            out["witness"] = {
                "h": group_to_json(self.witness_h) if self.witness_h is not None else None,
                "family": self.witness_family.to_json(),
                "delta": str(self.delta),
            }
            if self.witness_h is not None and self.witness_h.system.spec is not None:
                out["witness"]["h_polynomials"] = _unipotent_polynomials(self.witness_h)
        return out

    @staticmethod
    def from_json(system: CompositionSystem, data: dict) -> "StabilityVerdict":
        v = StabilityVerdict(data["status"], budget_used=data.get("budget_used", 0),
                             budget_exhausted=data.get("budget_exhausted", False),
                             gred_exact=data.get("gred_exact", False),
                             notes=tuple(data.get("notes", ())))
        wit = data.get("witness")
        if wit is not None:
            v.witness_family = SubspaceFamily.from_json(wit["family"])
            v.delta = Fraction(wit["delta"])
            if wit.get("h") is not None:
                v.witness_h = group_from_json(system, wit["h"])
        return v


def _unipotent_polynomials(g: GroupElement) -> dict:
    """Readable form of the off-diagonal blocks as polynomial-string grids."""
    spec = g.system.spec
    nv = spec.ambient_dim + 1

    def render(block: RatMatrix, degree: int):
        return [[str(poly) for poly in row] for row in block_polys(block, nv, degree)]

    out = {"u": {}, "v": {}}
    for (j, i), block in sorted(g.u.items()):
        if not block.is_zero():
            out["u"][f"{j},{i}"] = render(block, spec.e[j - 1] - spec.e[i - 1])
    for (k, l), block in sorted(g.v.items()):
        if not block.is_zero():
            out["v"][f"{k},{l}"] = render(block, spec.f[k - 1] - spec.f[l - 1])
    return out


def reverify(w: MorphismElement, lam, mu, verdict: StabilityVerdict) -> bool:
    """Check an instability/wall witness from scratch (used on deserialized data)."""
    if verdict.status not in (UNSTABLE, NOT_STABLE) or verdict.witness_family is None:
        return False
    moved = act(verdict.witness_h, w) if verdict.witness_h is not None else w
    fam = verdict.witness_family
    if not is_invariant(moved, fam):
        return False
    d = fam.dimension_vector()
    if not d.is_proper(w.m, w.n):
        return False
    delta = weighted_discriminant(lam, mu, d.mprime, d.nprime)
    if delta != verdict.delta:
        return False
    return delta > 0 if verdict.status == UNSTABLE else delta == 0


# ----------------------------------------------------------------------
# candidate pools
# ----------------------------------------------------------------------


def _subspace_pool(w: MorphismElement, i: int, rng: random.Random):
    """Candidate subspaces of M_i: zero, full, coordinate, kernel cuts, random."""
    sys = w.system
    mi = w.m[i - 1]
    seen = set()

    def emit(mat: RatMatrix):
        # the row-reduced basis of the span identifies the subspace
        key = tuple(tuple(row) for row in mat.transpose().rref()[0].rows)
        if key not in seen:
            seen.add(key)
            yield_list.append(mat)

    yield_list: list[RatMatrix] = []
    emit(RatMatrix.zeros(mi, 0))
    emit(RatMatrix.identity(mi))
    if mi <= 4:
        for size in range(1, mi):
            for combo in itertools.combinations(range(mi), size):
                cols = [[1 if t == c else 0 for t in range(mi)] for c in combo]
                emit(RatMatrix.from_columns(cols))
    for subset_size in range(1, sys.s + 1):
        for subset in itertools.combinations(range(1, sys.s + 1), subset_size):
            stacked = RatMatrix.zeros(0, mi)
            for l in subset:
                stacked = stacked.vstack(w.block(l, i))
            kern = stacked.kernel_basis()
            if kern:
                emit(stack_columns(kern, mi))
    for _ in range(2 * mi):
        k = rng.randrange(1, mi + 1) if mi else 0
        if k == 0:
            continue
        cols = [[Fraction(rng.randint(-2, 2)) for _ in range(mi)] for _ in range(k)]
        mat = RatMatrix.from_columns(cols)
        mat = mat.column_space_basis()
        if mat.ncols:
            emit(mat)
    return yield_list


def _elimination_moves(w: MorphismElement) -> list[GroupElement]:
    """Unipotent moves solving 'kill one row block' or 'kill one column block'.

    For a pair l < m on the right, look for v_ml with phi_mi + v_ml * phi_li = 0
    for all i; dually on the left.  These are exact linear solves in the
    unknown block; unsolvable systems contribute nothing.
    """
    sys = w.system
    m, n = w.mults
    out: list[GroupElement] = []
    for l in range(1, sys.s + 1):
        for mm in range(l + 1, sys.s + 1):
            out += _elimination_move(
                w, "v", (mm, l), (n[mm - 1] * sys.b(mm, l), n[l - 1]),
                [(w.block(mm, i), lambda v, i=i: _star_v_phi(sys, mm, l, i, n, v, w.block(l, i)))
                 for i in range(1, sys.r + 1)])
    for i in range(1, sys.r + 1):
        for j in range(i + 1, sys.r + 1):
            out += _elimination_move(
                w, "u", (j, i), (m[j - 1] * sys.a(j, i), m[i - 1]),
                [(w.block(l, i), lambda u, l=l: _star_phi_u(sys, l, j, i, n, w.block(l, j), u))
                 for l in range(1, sys.s + 1)])
    return out


def _elimination_move(w: MorphismElement, side: str, key: tuple[int, int],
                      shape: tuple[int, int], terms) -> list[GroupElement]:
    """[h] for the unipotent h whose one off-diagonal block is `side`[`key`]
    (side "u" or "v"), the x of `shape` with blk + image(x) = 0 for every
    (blk, image) in `terms`; [] when there is no such x.

    One exact linear system in the entries of x: column t of an image's
    coefficient matrix is image(e_t) read row by row, for the t-th unit
    matrix e_t of `shape`.
    """
    xrows, xcols = shape
    rows, rhs = [], []
    for blk, image in terms:
        units = []
        for t in range(xrows * xcols):
            e = RatMatrix.zeros(xrows, xcols)
            e.rows[t // xcols][t % xcols] = 1
            units.append(list(itertools.chain.from_iterable(image(e).rows)))
        rows += zip(*units)
        rhs += ([-x] for x in itertools.chain.from_iterable(blk.rows))
    sol = RatMatrix.from_rows(rows).solve_right(RatMatrix.from_rows(rhs)) if rows else None
    if sol is None:
        return []
    x = [r[0] for r in sol.rows]
    g = GroupElement.identity(w.system, w.mults)
    getattr(g, side)[key] = RatMatrix(xrows, xcols, [x[a * xcols:(a + 1) * xcols]
                                                     for a in range(xrows)])
    return [g]


# ----------------------------------------------------------------------
# searches
# ----------------------------------------------------------------------


def gred_exhaustive(w: MorphismElement, lam, mu):
    """Exact reductive-level decision when every left multiplicity is <= 1.

    Returns (best_delta, family or None); the maximum of the discriminant over
    all proper invariant families (left families are finitely many, the right
    side is minimally saturated, which maximizes the discriminant).
    """
    m, n = w.mults
    if any(mi > 1 for mi in m):
        raise SchemaError("exhaustive branch needs left multiplicities <= 1")
    best, best_fam = None, None
    for flags in itertools.product((False, True), repeat=len(m)):
        mprime = tuple(zero_or_full(mi, f) for mi, f in zip(m, flags))
        fam = saturate_up(w, mprime)
        if not fam.is_proper(m, n):
            continue
        d = fam.dimension_vector()
        delta = weighted_discriminant(lam, mu, d.mprime, d.nprime)
        if best is None or delta > best:
            best, best_fam = delta, fam
    return best, best_fam


def brute_force_families(w: MorphismElement, lam, mu):
    """Independent oracle: enumerate all zero-or-full families on both sides.

    Exhaustive for multiplicities all one.  Returns (best_delta, family).
    """
    m, n = w.mults
    best, best_fam = None, None
    for lf in itertools.product((False, True), repeat=len(m)):
        for rf in itertools.product((False, True), repeat=len(n)):
            fam = family_from_flags(w, lf, rf)
            if not fam.is_proper(m, n) or not is_invariant(w, fam):
                continue
            d = fam.dimension_vector()
            delta = weighted_discriminant(lam, mu, d.mprime, d.nprime)
            if best is None or delta > best:
                best, best_fam = delta, fam
    return best, best_fam


def destabilizer_search(w: MorphismElement, pol: Polarization, budget: int = 200,
                        seed: int = 0) -> StabilityVerdict:
    """Search for (h, family) certificates of instability or wall membership.

    Candidate order is fixed (identity and structured moves before random
    ones, structured families before random ones) so the reported witness is
    deterministic for a given seed.  A missing certificate is a semi-decision
    unless the exhaustive reductive branch applied.
    """
    lam, mu = pol.lam, pol.mu
    if not pol.is_proper:
        raise SchemaError("destabilizer search expects a proper polarization")
    return _search_core(w, lam, mu, budget, seed)


def _search_core(w: MorphismElement, lam, mu, budget: int, seed: int,
                 extra_moves: list[GroupElement] | None = None) -> StabilityVerdict:
    sys = w.system
    m, n = w.mults
    rng = random.Random(seed)
    exhaustive_ok = all(mi <= 1 for mi in m)
    used = 0
    wall: tuple | None = None

    h_pool: list[GroupElement] = [GroupElement.identity(sys, w.mults)]
    h_pool.extend(_elimination_moves(w))
    if extra_moves:
        h_pool.extend(extra_moves)
    for k in range(8):
        h_pool.append(random_unipotent(sys, seed * 1009 + k, 1 + k % 3, w.mults))

    for h in h_pool:
        moved = act(h, w)
        if exhaustive_ok:
            used += 1
            best, fam = gred_exhaustive(moved, lam, mu)
            if best is not None and best > 0:
                return StabilityVerdict(UNSTABLE, h, fam, best, used,
                                        gred_exact=True)
            if best == 0 and wall is None:
                wall = (h, fam, best)
            if used >= budget:
                break
            continue
        pools = [_subspace_pool(moved, i, rng) for i in range(1, sys.r + 1)]
        for combo in itertools.product(*pools):
            used += 1
            fam = saturate_up(moved, tuple(combo))
            if fam.is_proper(m, n):
                d = fam.dimension_vector()
                delta = weighted_discriminant(lam, mu, d.mprime, d.nprime)
                if delta > 0:
                    return StabilityVerdict(UNSTABLE, h, fam, delta, used)
                if delta == 0 and wall is None:
                    wall = (h, fam, delta)
            if used >= budget:
                break
        if used >= budget:
            break
    if wall is not None:
        return StabilityVerdict(NOT_STABLE, wall[0], wall[1], wall[2], used,
                                budget_exhausted=used >= budget,
                                gred_exact=exhaustive_ok)
    return StabilityVerdict(NO_DESTABILIZER_FOUND, budget_used=used,
                            budget_exhausted=used >= budget,
                            gred_exact=exhaustive_ok)


def g_stability_sample(w: MorphismElement, pol: Polarization, trials: int = 12,
                       seed: int = 0, budget: int = 200) -> StabilityVerdict:
    """Sample the unipotent orbit and run the search on each sample."""
    if not pol.is_proper:
        raise SchemaError("sampling expects a proper polarization")
    total = 0
    for k in range(trials):
        h = (GroupElement.identity(w.system, w.mults) if k == 0
             else random_unipotent(w.system, seed * 7919 + k, 1 + k % 4, w.mults))
        verdict = destabilizer_search(act(h, w), pol, budget=budget, seed=seed + k)
        total += verdict.budget_used
        if verdict.status in (UNSTABLE, NOT_STABLE):
            # fold the sampling move into the witness
            from .setting import compose_group

            inner = verdict.witness_h or GroupElement.identity(w.system, w.mults)
            verdict.witness_h = compose_group(inner, h)
            verdict.budget_used = total
            return verdict
    return StabilityVerdict(NO_DESTABILIZER_FOUND, budget_used=total,
                            notes=(f"sampled {trials} unipotent moves",))


# ----------------------------------------------------------------------
# exact decider for the two-by-two pencil shape
# ----------------------------------------------------------------------

MU1_GT_HALF = "mu1_gt_half"
MU1_LT_HALF = "mu1_lt_half"


def _pencil_data(w: MorphismElement):
    sys = w.system
    spec = sys.spec
    if (spec is None or sys.r != 1 or sys.s != 2 or w.m != (2,)
            or w.n != (1, 1)
            or spec.f[0] - spec.e[0] != 1 or spec.f[1] - spec.e[0] != 2):
        raise SchemaError("the exact decider needs the shape "
                          "2 O(e) -> O(e+1) + O(e+2)")
    nv = spec.ambient_dim + 1
    z = [Poly.from_coeff_vector(nv, 1, w.block(1, 1).col(c)) for c in range(2)]
    q = [Poly.from_coeff_vector(nv, 2, w.block(2, 1).col(c)) for c in range(2)]
    return nv, z, q


def _wedge_zero(p1: Poly, p2: Poly) -> bool:
    """Are two polynomials linearly dependent?"""
    if p1.is_zero() or p2.is_zero():
        return True
    monos = set(p1.terms) | set(p2.terms)
    rows = [[p1.terms.get(m, ZERO), p2.terms.get(m, ZERO)] for m in sorted(monos)]
    return RatMatrix.from_rows(rows).rank() < 2


def _divide_linear(q: Poly, z: Poly) -> Poly | None:
    """q / z when the linear form z divides q, else None."""
    if z.is_zero():
        return None
    quo, rem = q.divmod_single(z)
    return quo if rem.is_zero() else None


def _pencil_unstable(w: MorphismElement, vform: Poly | None, left_vec,
                     lam, mu) -> StabilityVerdict:
    """Build and verify an explicit witness for the pencil shape."""
    sys = w.system
    h = GroupElement.identity(sys, w.mults)
    if vform is not None and not vform.is_zero():
        h.v[(2, 1)] = RatMatrix.column(vform.coeff_vector(1))
    mprime = (stack_columns([left_vec], 2) if left_vec is not None
              else RatMatrix.identity(2),)
    fam = saturate_up(act(h, w), mprime)
    d = fam.dimension_vector()
    delta = weighted_discriminant(lam, mu, d.mprime, d.nprime)
    verdict = StabilityVerdict(UNSTABLE, h, fam, delta, budget_used=1)
    if delta <= 0 or not fam.is_proper(w.m, w.n):
        raise AssertionError("internal witness construction failed")
    return verdict


def decide_pencil(w: MorphismElement, side: str,
                  mu1: Fraction | None = None) -> StabilityVerdict:
    """Exact stability decision for 2 O(e) -> O(e+1) + O(e+2).

    For mu1 > 1/2: stable iff the two linear entries are independent and the
    determinant (a cubic) is nonzero.  For mu1 < 1/2: stable iff the linear
    entries are not both zero and no shear makes the two quadratic entries
    dependent; decided exactly through gcds of binary forms.
    """
    nv, z, q = _pencil_data(w)
    if side not in (MU1_GT_HALF, MU1_LT_HALF):
        raise SchemaError("side must be mu1_gt_half or mu1_lt_half")
    if mu1 is None:
        mu1 = Fraction(2, 3) if side == MU1_GT_HALF else Fraction(1, 3)
    if (mu1 > Fraction(1, 2)) != (side == MU1_GT_HALF) or mu1 == Fraction(1, 2):
        raise SchemaError("mu1 does not match the requested side")
    lam = (Fraction(1, 2),)
    mu = (mu1, 1 - mu1)
    z1, z2 = z
    q1, q2 = q

    if side == MU1_GT_HALF:
        if _wedge_zero(z1, z2):
            if z1.is_zero() and z2.is_zero():
                return _pencil_unstable(w, None, None, lam, mu)
            # kernel vector of the linear row
            vec = _dependency_vector(z1, z2)
            return _pencil_unstable(w, None, vec, lam, mu)
        det = z1 * q2 - z2 * q1
        if det.is_zero():
            shear = _divide_linear(q1, z1) if not q1.is_zero() else _divide_linear(q2, z2)
            if shear is None:
                shear = Poly.zero(nv)
            return _pencil_unstable(w, -shear, None, lam, mu)
        return StabilityVerdict(STABLE_EXACT, budget_used=1)

    # side == MU1_LT_HALF
    if z1.is_zero() and z2.is_zero():
        return _pencil_unstable(w, None, None, lam, mu)
    dependent_shear = _pencil_dependency_shear(nv, z1, z2, q1, q2)
    if dependent_shear == "none":
        return StabilityVerdict(STABLE_EXACT, budget_used=1)
    if dependent_shear == "irrational":
        return StabilityVerdict(UNSTABLE, budget_used=1,
                                notes=("destabilizing shear exists over an "
                                       "extension field; no rational witness",))
    vform, avec = dependent_shear
    moved_q1 = q1 - vform * z1
    moved_q2 = q2 - vform * z2
    if avec is None:
        avec = _dependency_vector(moved_q1, moved_q2)
    return _pencil_unstable(w, -vform, avec, lam, mu)


def _dependency_vector(p1: Poly, p2: Poly):
    """A nonzero rational (a, b) with a p1 + b p2 = 0, when one exists."""
    if p1.is_zero():
        return [ONE, ZERO]
    if p2.is_zero():
        return [ZERO, ONE]
    monos = sorted(set(p1.terms) | set(p2.terms))
    mat = RatMatrix.from_rows([[p1.terms.get(m, ZERO), p2.terms.get(m, ZERO)]
                               for m in monos])
    kern = mat.kernel_basis()
    return kern[0] if kern else None


def _pencil_dependency_shear(nv, z1, z2, q1, q2):
    """Decide whether some shear v makes (q1 - v z1, q2 - v z2) dependent.

    Returns "none", or (v, direction (a, b)), or "irrational" when a complex
    solution exists but no rational one was extracted.  A direction satisfies
    a (q1 - v z1) + b (q2 - v z2) = 0.
    """
    if _wedge_zero(z1, z2):
        return _dependent_linear_case(nv, z1, z2, q1, q2)
    # independent linear forms: restrict a q1 + b q2 to the plane a z1 + b z2 = 0
    coeffs = _pencil_restriction_forms(nv, z1, z2, q1, q2)
    if not coeffs:
        # every direction degenerates; use (1 : 0)
        return (q1.exact_div(z1), [ONE, ZERO])
    g = poly_gcd_many(coeffs)
    if g.degree() <= 0:
        return "none"
    root = _binary_rational_root(g)
    if root is None:
        return "irrational"
    a, b = root
    wform = z1.scale(a) + z2.scale(b)
    qform = q1.scale(a) + q2.scale(b)
    v = qform.exact_div(wform)
    return (v, [a, b])


def _dependent_linear_case(nv, z1, z2, q1, q2):
    """The shear decision when the two linear entries are dependent.

    With z2 = c z1 (z1 nonzero after a possible swap), the pencil direction
    (a : b) needs z1 | (a q1 + b q2) when a + c b != 0, and needs
    a q1 + b q2 = 0 identically at the direction (-c : 1).
    """
    swapped = False
    if z1.is_zero():
        z1, z2, q1, q2, swapped = z2, z1, q2, q1, True

    def unswap(vec):
        return [vec[1], vec[0]] if swapped else list(vec)

    # ratio c with z2 = c z1
    lead = z1.leading_mono()
    c = z2.terms.get(lead, ZERO) / z1.terms[lead]
    if z2 != z1.scale(c):
        raise AssertionError("dependent linear forms with inconsistent ratio")
    if (q2 - q1.scale(c)).is_zero():
        return (Poly.zero(nv), unswap([-c, ONE]))
    qb1 = q1.divmod_single(z1)[1]
    qb2 = q2.divmod_single(z1)[1]
    monos = sorted(set(qb1.terms) | set(qb2.terms))
    if not monos:
        kern = [[ONE, ZERO], [ZERO, ONE]]
    else:
        mat = RatMatrix.from_rows([[qb1.terms.get(m, ZERO), qb2.terms.get(m, ZERO)]
                                   for m in monos])
        kern = mat.kernel_basis()
    for vec in list(kern) + ([list(map(sum, zip(*kern)))] if len(kern) == 2 else []):
        a, b = vec
        if a + c * b == 0:
            continue
        v = (q1.scale(a) + q2.scale(b)).exact_div(z1.scale(a + c * b))
        return (v, unswap([a, b]))
    return "none"


def _pencil_restriction_forms(nv, z1, z2, q1, q2) -> list[Poly]:
    """Coefficients (binary forms in (a, b)) of (a q1 + b q2) restricted to
    the hyperplane a z1 + b z2 = 0."""
    # choose a rational basis adapted to (z1, z2)
    zm = RatMatrix.from_columns([z1.coeff_vector(1), z2.coeff_vector(1)])
    _, pivots = zm.transpose().rref()
    rest = [j for j in range(nv) if j not in pivots[:2]]
    # variables: y0 = t (the pencil direction), y1.. = coordinates of the plane
    # substitution x = T(variables): on the plane a z1 + b z2 = 0 we can take
    # the z1-coordinate = -b t, the z2-coordinate = a t
    p1, p2 = pivots[0], pivots[1]
    # solve the two linear equations z1(x) = zc1, z2(x) = zc2 for x_{p1}, x_{p2}
    m2 = RatMatrix.from_rows([[z1.coeff_vector(1)[p1], z1.coeff_vector(1)[p2]],
                              [z2.coeff_vector(1)[p1], z2.coeff_vector(1)[p2]]])
    m2inv = m2.inverse()
    # build substitution polynomials in variables (a, b, t, u_1..u_{nv-2})
    na = 2 + 1 + len(rest)
    A = Poly.var(na, 0)
    B = Poly.var(na, 1)
    T = Poly.var(na, 2)
    U = [Poly.var(na, 3 + k) for k in range(len(rest))]
    zc1 = (-B) * T   # value of z1 on the plane point
    zc2 = A * T      # value of z2 on the plane point
    images = []
    for x_idx in range(nv):
        if x_idx in rest:
            images.append(U[rest.index(x_idx)])
            continue
        # x_{p} = sum m2inv rows applied to (zc - contributions of rest vars)
        row = 0 if x_idx == p1 else 1
        expr = Poly.zero(na)
        for col, zc in enumerate((zc1, zc2)):
            expr = expr + zc.scale(m2inv.rows[row][col])
        for k, rj in enumerate(rest):
            corr1 = z1.coeff_vector(1)[rj]
            corr2 = z2.coeff_vector(1)[rj]
            expr = expr - U[k].scale(m2inv.rows[row][0] * corr1
                                     + m2inv.rows[row][1] * corr2)
        images.append(expr)
    big = (q1.substitute(images)) * A + (q2.substitute(images)) * B
    # collect coefficients of monomials in (t, u...) as polynomials in (a, b)
    out: dict[tuple, Poly] = {}
    for mono, c in big.terms.items():
        ab = mono[:2]
        tail = mono[2:]
        key = tail
        out.setdefault(key, Poly.zero(2))
        out[key] = out[key] + Poly.monomial(2, ab, c)
    return [p for p in out.values() if not p.is_zero()]


def _binary_rational_root(g: Poly) -> tuple[Fraction, Fraction] | None:
    """A rational projective root (a : b) of a binary form, if one exists."""
    # factor out powers of a and b first
    amin = min(m[0] for m in g.terms)
    bmin = min(m[1] for m in g.terms)
    if bmin > 0:
        return (ONE, ZERO)
    if amin > 0:
        return (ZERO, ONE)
    # dehomogenize b = 1: integer rational-root search on a
    deg = g.degree()
    coeffs = {m[0]: c for m, c in g.terms.items()}
    den = 1
    from math import gcd, lcm

    for c in coeffs.values():
        den = lcm(den, c.denominator)
    ic = {k: int(c * den) for k, c in coeffs.items()}
    lead = ic.get(deg, 0)
    const = ic.get(0, 0)
    if const == 0:
        return (ZERO, ONE)
    if lead == 0:
        return (ONE, ZERO)

    def divisors(x):
        x = abs(x)
        out = set()
        d = 1
        while d * d <= x:
            if x % d == 0:
                out.add(d)
                out.add(x // d)
            d += 1
        return sorted(out)

    for p in divisors(const):
        for qd in divisors(lead):
            if gcd(p, qd) != 1:
                continue
            for sign in (1, -1):
                cand = Fraction(sign * p, qd)
                val = sum(Fraction(c) * cand ** k for k, c in ic.items())
                if val == 0:
                    return (cand, ONE)
    return None


# ----------------------------------------------------------------------
# filtration verification
# ----------------------------------------------------------------------


@dataclass
class FiltrationFamily:
    """Strictly increasing chain of families ending at the full one."""

    levels: tuple[SubspaceFamily, ...]

    def validate(self, w: MorphismElement) -> None:
        m, n = w.mults
        prev = None
        for fam in self.levels:
            d = fam.dimension_vector()
            if prev is not None:
                pd = prev.dimension_vector()
                if (sum(d.mprime) + sum(d.nprime)
                        <= sum(pd.mprime) + sum(pd.nprime)):
                    raise SchemaError("filtration must strictly increase")
                for a, b in zip(prev.mprime + prev.nprime, fam.mprime + fam.nprime):
                    if b.ncols and a.ncols and not b.in_column_span(a):
                        raise SchemaError("filtration levels must be nested")
            prev = fam
        last = self.levels[-1].dimension_vector()
        if last.mprime != tuple(m) or last.nprime != tuple(n):
            raise SchemaError("filtration must end at the full family")


def _complement_columns(inner: RatMatrix, outer: RatMatrix) -> RatMatrix:
    """Columns of `outer` extending a basis of `inner` (deterministic)."""
    cur = inner
    cols = []
    for c in range(outer.ncols):
        cand = RatMatrix.from_columns([outer.col(c)])
        test = cur.hstack(cand) if cur.ncols else cand
        if test.rank() > cur.rank():
            cols.append(outer.col(c))
            cur = test
    return stack_columns(cols, outer.nrows)


def graded_piece(w: MorphismElement, lower: SubspaceFamily,
                 upper: SubspaceFamily) -> MorphismElement:
    """The induced morphism on (upper/lower), as a morphism with its own mults."""
    sys = w.system
    comps_m = [_complement_columns(lower.mprime[i], upper.mprime[i])
               for i in range(sys.r)]
    comps_n = [_complement_columns(lower.nprime[l], upper.nprime[l])
               for l in range(sys.s)]
    new_m = tuple(c.ncols for c in comps_m)
    new_n = tuple(c.ncols for c in comps_n)
    blocks = {}
    for l in range(1, sys.s + 1):
        nl, low = w.n[l - 1], lower.nprime[l - 1].ncols
        # lower + complement has full column rank: the coordinates are unique
        basis = lower.nprime[l - 1].hstack(comps_n[l - 1])
        for i in range(1, sys.r + 1):
            hli, mi = sys.h(l, i), new_m[i - 1]
            img = permute(w.block(l, i) * comps_m[i - 1], (nl, hli), (mi,), (0,), (1, 2))
            sol = basis.solve_right(img)
            if sol is None:
                raise SchemaError("filtration level is not invariant")
            coords = sol.submatrix(range(low, basis.ncols), range(sol.ncols))
            blocks[(l, i)] = permute(coords, (new_n[l - 1],), (hli, mi), (0, 1), (2,))
    return MorphismElement(sys, blocks, (new_m, new_n))


def verify_jh(w: MorphismElement, filt: FiltrationFamily, pol: Polarization,
              budget: int = 200, seed: int = 0) -> bool:
    """Check a candidate composition series: invariance and zero discriminant
    at every level, and no destabilizer found on any graded piece."""
    filt.validate(w)
    lam, mu = pol.lam, pol.mu
    m, n = w.mults
    prev = SubspaceFamily(tuple(zero_or_full(mi, False) for mi in m),
                          tuple(zero_or_full(nl, False) for nl in n))
    for fam in filt.levels:
        if not is_invariant(w, fam):
            return False
        d = fam.dimension_vector()
        if d != DimensionVector(tuple(m), tuple(n)):
            if weighted_discriminant(lam, mu, d.mprime, d.nprime) != 0:
                return False
        piece = graded_piece(w, prev, fam)
        verdict = _search_core(piece, lam, mu, budget, seed)
        if verdict.status == UNSTABLE:
            return False
        prev = fam
    return True
