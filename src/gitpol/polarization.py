"""Polarizations, discriminants, walls and chambers, associated weights.

A polarization is a normalized positive weight tuple (lambda_i; mu_l) for the
two sides of a morphism space.  The discriminant of a dimension vector is
affine in the weights; its zero sets are the walls, and chambers are the
connected components of their complement inside the normalized simplex,
described in one or two free parameters through a `Param`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .exact import ZERO, ONE, rat, rat_str
from .regions import (HalfPlane, arrangement_cells, count_arrangement_regions,
                      line_meets_open_convex, line_primitive)
from .setting import CompositionSystem, SchemaError, check_schema


@dataclass(frozen=True)
class Polarization:
    lam: tuple[Fraction, ...]
    mu: tuple[Fraction, ...]

    @staticmethod
    def make(lam, mu, m=None, n=None) -> "Polarization":
        lam = tuple(rat(x) for x in lam)
        mu = tuple(rat(x) for x in mu)
        if m is not None and sum(l * mi for l, mi in zip(lam, m)) != 1:
            raise SchemaError("left weights are not normalized against the multiplicities")
        if n is not None and sum(u * nl for u, nl in zip(mu, n)) != 1:
            raise SchemaError("right weights are not normalized against the multiplicities")
        return Polarization(lam, mu)

    @property
    def is_proper(self) -> bool:
        return all(x > 0 for x in self.lam) and all(x > 0 for x in self.mu)

    def to_json(self) -> dict:
        return {"schema": "1", "lambda": [rat_str(x) for x in self.lam],
                "mu": [rat_str(x) for x in self.mu]}

    @staticmethod
    def from_json(data: dict) -> "Polarization":
        check_schema(data, "polarization")
        try:
            return Polarization(tuple(rat(x) for x in data["lambda"]),
                                tuple(rat(x) for x in data["mu"]))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad polarization data: {exc}") from exc


@dataclass(frozen=True)
class DimensionVector:
    mprime: tuple[int, ...]
    nprime: tuple[int, ...]

    def is_proper(self, m, n) -> bool:
        full = tuple(m) == self.mprime and tuple(n) == self.nprime
        trivial = not any(self.mprime) and not any(self.nprime)
        return not full and not trivial


def discriminant(pol: Polarization, d: DimensionVector) -> Fraction:
    """sum(lambda_i * m'_i) - sum(mu_l * n'_l); <= 0 on all invariant proper
    families characterizes semi-stability for the block-diagonal subgroup."""
    if len(pol.lam) != len(d.mprime) or len(pol.mu) != len(d.nprime):
        raise SchemaError("weight/dimension-vector length mismatch")
    return (sum((l * x for l, x in zip(pol.lam, d.mprime)), ZERO)
            - sum((u * y for u, y in zip(pol.mu, d.nprime)), ZERO))


def weighted_discriminant(lam, mu, mprime, nprime) -> Fraction:
    """Discriminant for raw (possibly unnormalized) weight vectors."""
    return (sum((rat(l) * x for l, x in zip(lam, mprime)), ZERO)
            - sum((rat(u) * y for u, y in zip(mu, nprime)), ZERO))


def proper_dimension_vectors(m, n):
    """All dimension vectors that are neither the zero family nor the full one."""
    ranges = [range(mi + 1) for mi in m] + [range(nl + 1) for nl in n]
    for combo in itertools.product(*ranges):
        d = DimensionVector(tuple(combo[:len(m)]), tuple(combo[len(m):]))
        if d.is_proper(m, n):
            yield d


# ----------------------------------------------------------------------
# free parameters
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """c0 + c1 * x1 (+ c2 * x2) with rational coefficients."""

    coeffs: tuple[Fraction, ...]

    def __call__(self, point) -> Fraction:
        return self.coeffs[0] + sum((c * rat(v) for c, v in zip(self.coeffs[1:], point)), ZERO)

    @property
    def nvars(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "Affine") -> "Affine":
        return Affine(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Affine") -> "Affine":
        return Affine(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "Affine":
        c = rat(c)
        return Affine(tuple(c * a for a in self.coeffs))

    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])


def _aff(*coeffs) -> Affine:
    return Affine(tuple(rat(c) for c in coeffs))


@dataclass(frozen=True)
class Param:
    """Normalized weights written as affine functions of 1 or 2 parameters.

    `domain` is the closed polygon (or interval endpoints) whose interior is
    the set of proper normalized polarizations in these coordinates.
    """

    names: tuple[str, ...]
    lam: tuple[Affine, ...]
    mu: tuple[Affine, ...]
    domain: tuple

    @property
    def nvars(self) -> int:
        return len(self.names)

    def polarization(self, point) -> Polarization:
        pt = tuple(rat(v) for v in point)
        return Polarization(tuple(a(pt) for a in self.lam), tuple(a(pt) for a in self.mu))

    def discriminant_affine(self, d: DimensionVector) -> Affine:
        k = self.nvars + 1
        total = [ZERO] * k
        for a, x in zip(self.lam, d.mprime):
            for idx in range(k):
                total[idx] += a.coeffs[idx] * x
        for a, y in zip(self.mu, d.nprime):
            for idx in range(k):
                total[idx] -= a.coeffs[idx] * y
        return Affine(tuple(total))


def param_t_21(m, n) -> Param:
    """Type (2,1): the single parameter t = m_2 * lambda_2 in (0,1)."""
    if len(m) != 2 or len(n) != 1:
        raise SchemaError("t-parametrization needs two left and one right summand")
    return Param(("t",),
                 (_aff(Fraction(1, m[0]), Fraction(-1, m[0])),
                  _aff(0, Fraction(1, m[1]))),
                 (_aff(Fraction(1, n[0]), 0),),
                 (ZERO, ONE))


def param_u_12(m, n) -> Param:
    """Type (1,2): the single parameter u = n_1 * mu_1 in (0,1)."""
    if len(m) != 1 or len(n) != 2:
        raise SchemaError("u-parametrization needs one left and two right summands")
    return Param(("u",),
                 (_aff(Fraction(1, m[0]), 0),),
                 (_aff(0, Fraction(1, n[0])),
                  _aff(Fraction(1, n[1]), Fraction(-1, n[1]))),
                 (ZERO, ONE))


def param_22(m, n, flip_mu: bool = False) -> Param:
    """Type (2,2): (x, y) = (m_2*lambda_2, n_1*mu_1), or y = 1 - n_1*mu_1."""
    if len(m) != 2 or len(n) != 2:
        raise SchemaError("this parametrization needs two summands on each side")
    mu1 = _aff(0, 0, Fraction(1, n[0])) if not flip_mu else _aff(Fraction(1, n[0]), 0, Fraction(-1, n[0]))
    mu2 = (_aff(Fraction(1, n[1]), 0, Fraction(-1, n[1])) if not flip_mu
           else _aff(0, 0, Fraction(1, n[1])))
    names = ("m2*lambda2", "n1*mu1" if not flip_mu else "1-n1*mu1")
    box = [(ZERO, ZERO), (ONE, ZERO), (ONE, ONE), (ZERO, ONE)]
    return Param(names,
                 (_aff(Fraction(1, m[0]), Fraction(-1, m[0]), 0),
                  _aff(0, Fraction(1, m[1]), 0)),
                 (mu1, mu2), tuple(box))


def param_31(m, n) -> Param:
    """Type (3,1): (x, y) = (m_2*lambda_2, m_3*lambda_3); domain x,y>0, x+y<1."""
    if len(m) != 3 or len(n) != 1:
        raise SchemaError("this parametrization needs three left and one right summand")
    tri = [(ZERO, ZERO), (ONE, ZERO), (ZERO, ONE)]
    return Param(("m2*lambda2", "m3*lambda3"),
                 (_aff(Fraction(1, m[0]), Fraction(-1, m[0]), Fraction(-1, m[0])),
                  _aff(0, Fraction(1, m[1]), 0),
                  _aff(0, 0, Fraction(1, m[2]))),
                 (_aff(Fraction(1, n[0]), 0, 0),), tuple(tri))


def default_param(m, n) -> Param:
    shapes = {(2, 1): param_t_21, (1, 2): param_u_12, (2, 2): param_22, (3, 1): param_31}
    key = (len(m), len(n))
    if key == (1, 3):
        raise SchemaError("use a transposed parametrization for one-by-three shapes")
    if key not in shapes:
        raise SchemaError(f"no built-in parametrization for shape {key}")
    return shapes[key](m, n)


# ----------------------------------------------------------------------
# walls and chambers
# ----------------------------------------------------------------------


def singular_polarizations(m, n, param: Param | None = None):
    """Walls: zero sets of the discriminant over proper dimension vectors.

    Dimension vectors whose discriminant is identically zero or never zero on
    the open proper region contribute nothing.  For one parameter the result
    is the sorted list of wall values; for two it is a sorted list of
    primitive integer lines (a, b, c) meaning a*x + b*y = c.
    """
    if param is None:
        param = default_param(m, n)
    if param.nvars == 1:
        lo, hi = param.domain
        values = set()
        for d in proper_dimension_vectors(m, n):
            aff = param.discriminant_affine(d)
            c0, c1 = aff.coeffs
            if c1 == 0:
                continue
            t = -c0 / c1
            if lo < t < hi:
                values.add(t)
        return sorted(values)
    walls = set()
    for d in proper_dimension_vectors(m, n):
        aff = param.discriminant_affine(d)
        c0, cx, cy = aff.coeffs
        if cx == 0 and cy == 0:
            continue
        line = line_primitive(cx, cy, -c0)
        if line_meets_open_convex(*line, list(param.domain)):
            walls.add(line)
    return sorted(walls)


def singular_hyperplanes(m, n):
    """Parameter-free variant: primitive integer functionals on (lambda, mu).

    Each wall is the primitive vector (m'_1..m'_r, -n'_1..-n'_s) whose zero
    set meets the open normalized proper region.
    """
    r, s = len(m), len(n)
    walls = set()
    corners = []
    for i in range(r):
        for l in range(s):
            lam = [ZERO] * r
            mu = [ZERO] * s
            lam[i] = Fraction(1, m[i])
            mu[l] = Fraction(1, n[l])
            corners.append((lam, mu))
    for d in proper_dimension_vectors(m, n):
        vec = list(d.mprime) + [-y for y in d.nprime]
        vals = [weighted_discriminant(lam, mu, d.mprime, d.nprime) for lam, mu in corners]
        if all(v == 0 for v in vals) or not (min(vals) < 0 < max(vals)):
            continue
        g = 0
        for v in vec:
            g = gcd(g, abs(v))
        walls.add(tuple(v // g for v in vec))
    return sorted(walls)


@dataclass
class ChamberDecomposition:
    param: Param
    window: tuple
    walls: list
    chambers: list
    notion_count: int | None = None


def chambers(m, n, window, param: Param | None = None,
             with_cells: bool = True) -> ChamberDecomposition:
    """Walls inside the window and the connected components of the complement."""
    if param is None:
        param = default_param(m, n)
    walls = singular_polarizations(m, n, param)
    if param.nvars == 1:
        lo, hi = (rat(window[0]), rat(window[1]))
        if lo >= hi:
            raise SchemaError("empty window")
        inside = [t for t in walls if lo < t < hi]
        cuts = [lo] + inside + [hi]
        cells = [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
        return ChamberDecomposition(param, (lo, hi), inside, cells,
                                    2 * len(inside) + 1)
    (x0, x1), (y0, y1) = window
    x0, x1, y0, y1 = rat(x0), rat(x1), rat(y0), rat(y1)
    if x0 >= x1 or y0 >= y1:
        raise SchemaError("empty window")
    from .regions import line_meets_open_box

    inside = [w for w in walls if line_meets_open_box(*w, x0, x1, y0, y1)]
    count = count_arrangement_regions(inside, x0, x1, y0, y1)
    cells = arrangement_cells(inside, x0, x1, y0, y1) if with_cells else []
    if with_cells and len(cells) != count:
        raise AssertionError("cell enumeration disagrees with the region count")
    return ChamberDecomposition(param, ((x0, x1), (y0, y1)), inside, cells, None)


# ----------------------------------------------------------------------
# associated weights on the enlarged reductive setting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AssociatedPolarization:
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    p: tuple[int, ...]
    q: tuple[int, ...]


def big_dims(sys: CompositionSystem, mults=None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    m, n = mults if mults is not None else (sys.m, sys.n)
    p = tuple(sum(m[j - 1] * sys.a(j, i) for j in range(i, sys.r + 1))
              for i in range(1, sys.r + 1))
    q = tuple(sum(n[k - 1] * sys.b(l, k) for k in range(1, l + 1))
              for l in range(1, sys.s + 1))
    return p, q


def associated(pol: Polarization, sys: CompositionSystem) -> AssociatedPolarization:
    """Solve the two unitriangular systems relating (lambda, mu) to (alpha, beta)."""
    r, s = sys.r, sys.s
    if len(pol.lam) != r or len(pol.mu) != s:
        raise SchemaError("polarization length does not match the system")
    alpha = []
    for i in range(1, r + 1):
        val = pol.lam[i - 1]
        for j in range(1, i):
            val -= sys.a(i, j) * alpha[j - 1]
        alpha.append(val)
    beta = [ZERO] * s
    for l in range(s, 0, -1):
        val = pol.mu[l - 1]
        for k in range(l + 1, s + 1):
            val -= sys.b(k, l) * beta[k - 1]
        beta[l - 1] = val
    p, q = big_dims(sys)
    return AssociatedPolarization(tuple(alpha), tuple(beta), p, q)


def associated_roundtrip(assoc: AssociatedPolarization, sys: CompositionSystem) -> Polarization:
    """Multiply back through the unitriangular matrices (exact round trip)."""
    lam = tuple(sum((rat(sys.a(i, j)) * assoc.alpha[j - 1] for j in range(1, i + 1)), ZERO)
                for i in range(1, sys.r + 1))
    mu = tuple(sum((rat(sys.b(k, l)) * assoc.beta[k - 1] for k in range(l, sys.s + 1)), ZERO)
               for l in range(1, sys.s + 1))
    return Polarization(lam, mu)


def saturated_dims(sys: CompositionSystem, d: DimensionVector) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Dimensions of the induced saturated families on the enlarged spaces."""
    return big_dims(sys, (d.mprime, d.nprime))


@dataclass(frozen=True)
class WeightCondition:
    name: str
    holds: bool
    slack: Fraction


def weight_conditions(assoc: AssociatedPolarization,
                      pol: Polarization | None = None) -> list[WeightCondition]:
    """Positivity and tail/head-sum conditions required for stable points
    to exist on the enlarged setting, with exact slacks."""
    out = []
    r, s = len(assoc.alpha), len(assoc.beta)
    if pol is not None:
        for i, lam in enumerate(pol.lam, 1):
            out.append(WeightCondition(f"lambda[{i}]>0", lam > 0, lam))
        for l, mu in enumerate(pol.mu, 1):
            out.append(WeightCondition(f"mu[{l}]>0", mu > 0, mu))
    for i, a in enumerate(assoc.alpha, 1):
        out.append(WeightCondition(f"alpha[{i}]>0", a > 0, a))
    for l, b in enumerate(assoc.beta, 1):
        out.append(WeightCondition(f"beta[{l}]>0", b > 0, b))
    for i in range(2, r + 1):
        tail = sum((assoc.alpha[j - 1] * assoc.p[j - 1] for j in range(i, r + 1)), ZERO)
        out.append(WeightCondition(f"tail_alpha[{i}]>0", tail > 0, tail))
    for mm in range(1, s):
        head = sum((assoc.beta[l - 1] * assoc.q[l - 1] for l in range(1, mm + 1)), ZERO)
        out.append(WeightCondition(f"head_beta[{mm}]>0", head > 0, head))
    return out


def proper_case_check(weights, mults, case: int) -> list[WeightCondition]:
    """Necessary sign conditions on a signed weight vector for stable points.

    `weights` is ((e_left...), (e_right...)) with the right entries carrying
    their sign (negative for proper polarizations); `mults` likewise a pair.
    Case 1: all left > 0, all right < 0.  Case 2: left tail sums positive and
    right head sums negative.  Case 3: left tail sums positive, right < 0.
    """
    (el, er) = (tuple(rat(x) for x in weights[0]), tuple(rat(x) for x in weights[1]))
    (ml, mr) = mults
    out = []
    if case == 1:
        for i, e in enumerate(el, 1):
            out.append(WeightCondition(f"e_left[{i}]>0", e > 0, e))
        for l, e in enumerate(er, 1):
            out.append(WeightCondition(f"e_right[{l}]<0", e < 0, -e))
        return out
    if case in (2, 3):
        for i in range(1, len(el) + 1):
            tail = sum((el[j - 1] * ml[j - 1] for j in range(i, len(el) + 1)), ZERO)
            out.append(WeightCondition(f"tail_left[{i}]>0", tail > 0, tail))
        if case == 2:
            for mm in range(1, len(er) + 1):
                head = sum((er[l - 1] * mr[l - 1] for l in range(1, mm + 1)), ZERO)
                out.append(WeightCondition(f"head_right[{mm}]<0", head < 0, -head))
        else:
            for l, e in enumerate(er, 1):
                out.append(WeightCondition(f"e_right[{l}]<0", e < 0, -e))
        return out
    raise SchemaError("case must be 1, 2 or 3")


def char_exponents(lam, mu, mults, case: int = 1) -> tuple[list[int], int]:
    """Integer character exponents (lcm-denominator scaling) and the degree t.

    Case 1 (original action):  t = sum of left exponents times multiplicities.
    Case 2 (enlarged chain action): t = sum_i i*e_i*m_i - sum_l (s-l)*e_l*n_l,
    where the right exponents enter with their (negative) sign.
    """
    lam = [rat(x) for x in lam]
    mu = [rat(x) for x in mu]
    denom = 1
    for x in lam + mu:
        denom = lcm(denom, x.denominator)
    e_left = [int(x * denom) for x in lam]
    e_right = [-int(x * denom) for x in mu]
    ml, mr = mults
    if case == 1:
        t = sum(e * m for e, m in zip(e_left, ml))
    elif case == 2:
        s = len(mu)
        t = (sum((i + 1) * e * m for i, (e, m) in enumerate(zip(e_left, ml)))
             - sum((s - (l + 1)) * e * m for l, (e, m) in enumerate(zip(e_right, mr))))
    else:
        raise SchemaError("case must be 1 or 2")
    return e_left + e_right, t
