"""Fine-moduli numerology and injectivity checks for the pencil-of-cubics
family C^2 (x) O(-2) -> O(-1) + (O (x) C^k) on projective n-space."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ONE, ZERO, RatMatrix
from .poly import Poly, monomial_basis, poly_gcd_many, sym_dim
from .setting import (CompositionSystem, MorphismElement, ProblemSpec,
                      SchemaError, block_polys, build_line_bundle_system)

GENERIC = "generic"
SPECIAL = "special"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class FMParams:
    n: int
    k: int
    valid: bool
    q_intro: int
    q_body: int
    dimension: int
    critical_ts: tuple[tuple[int, Fraction], ...]   # (p, t) pairs

    @property
    def critical_values(self) -> tuple[Fraction, ...]:
        return tuple(t for _, t in self.critical_ts)


def fm_spec(n: int, k: int) -> ProblemSpec:
    return ProblemSpec(n, ((-2, 2),), ((-1, 1), (0, k)))


def fm_params(n: int, k: int) -> FMParams:
    """Counts, dimension and critical polarization values for the family.

    Two published count formulas differ by one (the bracket arguments agree);
    both are reported, and q_body is the default because it matches the
    worked two-space example with seven sections.
    """
    if n < 2:
        raise SchemaError("need ambient dimension at least 2")
    top = (n + 1) * (n + 2) // 2
    valid = top < k <= (n + 1) ** 2
    q_intro = top - (n + k + 1) // 2
    q_body = top - (n + 1 + k) // 2 + 1
    dimension = 2 * (n - 1) + k * ((n + 1) ** 2 - k)
    lo = Fraction(n + 1 + k, 2)
    criticals = tuple((p, 1 - Fraction(k, 2 * p))
                      for p in range(int(lo) + 1, top + 1) if p > lo)
    return FMParams(n, k, valid, q_intro, q_body, dimension, criticals)


def ideal_h0_check(n: int) -> bool:
    """Cubics through a codimension-two linear subspace: the count is a square."""
    from math import comb

    if n < 2:
        raise SchemaError("need ambient dimension at least 2")
    return comb(n + 3, 3) - comb(n + 1, 3) == (n + 1) ** 2


def guaranteed_window_low(n: int, k: int) -> Fraction:
    """Quotients exist for t above this value (gap-one family thresholds)."""
    return Fraction(n + 1, n + 1 + k)


def classify(phi: MorphismElement) -> str:
    """Rank of the induced linear-forms map decides generic/special/degenerate."""
    _check_shape(phi)
    rank = phi.block(1, 1).rank()
    return {2: GENERIC, 1: SPECIAL, 0: DEGENERATE}[rank]


def _check_shape(phi: MorphismElement) -> ProblemSpec:
    spec = phi.system.spec
    if (spec is None or phi.m[0] != 2 or len(phi.m) != 1 or len(phi.n) != 2
            or phi.n[0] != 1 or spec.f[0] - spec.e[0] != 1
            or spec.f[1] - spec.e[0] != 2):
        raise SchemaError("expected the pencil-of-cubics family shape")
    return spec


@dataclass
class PKDatum:
    """A plane (z1, z2) and k independent cubics inside its ideal."""

    z1: Poly
    z2: Poly
    cubics: tuple[Poly, ...]

    def __post_init__(self):
        nv = self.z1.nvars
        if not (self.z1.is_homogeneous(1) and self.z2.is_homogeneous(1)):
            raise SchemaError("the plane data must be two linear forms")
        mat = RatMatrix.from_columns([self.z1.coeff_vector(1), self.z2.coeff_vector(1)])
        if mat.rank() != 2:
            raise SchemaError("the two linear forms must be independent")
        for idx, c in enumerate(self.cubics):
            if not c.is_homogeneous(3) or c.is_zero():
                raise SchemaError(f"cubic {idx} must be nonzero homogeneous of degree 3")
        coeffs = RatMatrix.from_columns([c.coeff_vector(3) for c in self.cubics])
        if coeffs.rank() != len(self.cubics):
            raise SchemaError("the cubics must be linearly independent")
        if len(self.cubics) > nv ** 2:
            raise SchemaError("at most (n+1)^2 independent cubics fit in the ideal")
        self.nvars = nv

    @property
    def k(self) -> int:
        return len(self.cubics)

    @property
    def n(self) -> int:
        return self.nvars - 1

    def in_window(self) -> bool:
        top = (self.n + 1) * (self.n + 2) // 2
        return top < self.k <= (self.n + 1) ** 2


def _split_in_ideal(datum: PKDatum, cubic: Poly, index: int) -> tuple[Poly, Poly]:
    """Write a cubic as z1 q1 + z2 q2; reject (with the index) if impossible."""
    nv = datum.nvars
    n = nv - 1
    dim2 = sym_dim(n, 2)
    basis2 = monomial_basis(nv, 2)
    cols = []
    for mono in basis2:
        cols.append((datum.z1 * Poly.monomial(nv, mono)).coeff_vector(3))
    for mono in basis2:
        cols.append((datum.z2 * Poly.monomial(nv, mono)).coeff_vector(3))
    mat = RatMatrix.from_columns(cols)
    sol = mat.solve_right(RatMatrix.column(cubic.coeff_vector(3)))
    if sol is None:
        raise SchemaError(f"cubic {index} is not in the ideal of the plane")
    q1 = Poly.from_coeff_vector(nv, 2, [sol.rows[j][0] for j in range(dim2)])
    q2 = Poly.from_coeff_vector(nv, 2, [sol.rows[dim2 + j][0] for j in range(dim2)])
    return q1, q2


def build_phi_from_pk(datum: PKDatum,
                      system: CompositionSystem | None = None) -> MorphismElement:
    """Assemble the morphism of the pair: the linear block maps the two basis
    vectors to z1 and -z2, and the big block carries the swapped quadric
    cofactors, so the kernel line recovers exactly the given cubics."""
    if system is None:
        system = build_line_bundle_system(fm_spec(datum.n, datum.k))
    splits = [_split_in_ideal(datum, c, i) for i, c in enumerate(datum.cubics)]
    top = [[datum.z1, -datum.z2]]
    bottom = [[q2, q1] for (q1, q2) in splits]
    return MorphismElement.from_polynomials(system, [[top], [bottom]])


def injectivity_codim2_check(datum: PKDatum) -> bool:
    """The non-injectivity locus contains no hypersurface iff the cubics have
    constant gcd (exact multivariate gcd over the rationals)."""
    return poly_gcd_many(list(datum.cubics)).degree() == 0


def f_prime_injective(phi: MorphismElement) -> bool:
    """For a generic morphism: the induced map to cubics through the plane has
    full rank k (failure means no polarization makes the morphism semi-stable)."""
    if classify(phi) != GENERIC:
        raise SchemaError("this check applies to generic morphisms")
    cubics = induced_cubics(phi)
    return RatMatrix.from_columns([c.coeff_vector(3) for c in cubics]).rank() == len(cubics)


def induced_cubics(phi: MorphismElement) -> list[Poly]:
    """The image cubics of the induced map (generic morphisms)."""
    nv = _check_shape(phi).ambient_dim + 1
    a1, a2 = block_polys(phi.block(1, 1), nv, 1)[0]
    return [-a2 * q1 + a1 * q2 for q1, q2 in block_polys(phi.block(2, 1), nv, 2)]


def special_fbar2_injective(phi: MorphismElement) -> bool:
    """For a special morphism: the two quadric columns stay independent after
    restriction to the hyperplane cut out by the rank-one linear block."""
    nv = _check_shape(phi).ambient_dim + 1
    if classify(phi) != SPECIAL:
        raise SchemaError("this check applies to special morphisms")
    hform = next(p for p in block_polys(phi.block(1, 1), nv, 1)[0] if not p.is_zero())
    reduced = [[q.divmod_single(hform)[1] for q in row]
               for row in block_polys(phi.block(2, 1), nv, 2)]
    monos = sorted({m for row in reduced for q in row for m in q.terms})
    rows = [[q.terms.get(m, ZERO) for q in row] for row in reduced for m in monos]
    if not rows:
        return False
    return RatMatrix.from_rows(rows).rank() == 2


def standard_pk_construction(n: int, k: int) -> PKDatum:
    """The split construction with two common-zero-free quadric families;
    the assembled morphism is injective at every point.

    Both families start with all coordinate squares (so they have no common
    zero); extra monomial quadrics are added greedily, keeping the assembled
    cubics linearly independent.
    """
    nv = n + 1
    if k < 2 * nv:
        raise SchemaError("the split construction needs at least 2(n+1) cubics")
    z1, z2 = Poly.var(nv, 0), Poly.var(nv, 1)
    squares = [Poly.var(nv, i, 2) for i in range(nv)]
    products = [Poly.var(nv, i) * Poly.var(nv, j)
                for i in range(nv) for j in range(i + 1, nv)]
    # dropping x0*x1 from the first pool keeps the second pool's squares
    # collision-free, so both families keep all squares (no common zeros)
    pool1 = squares + [q for q in products if q != Poly.var(nv, 0) * Poly.var(nv, 1)]
    r = min(len(pool1), k - nv)
    s = k - r
    if r < nv:
        raise SchemaError("not enough quadric monomials for this construction")
    cubics = [z1 * q for q in pool1[:r]]
    span = RatMatrix.from_columns([c.coeff_vector(3) for c in cubics])
    second = []
    for q in squares + products:
        if len(second) == s:
            break
        cand = z2 * q
        test = span.hstack(RatMatrix.column(cand.coeff_vector(3)))
        if test.rank() > span.rank():
            second.append(cand)
            span = test
    if len(second) < s or any(z2 * q not in second for q in squares):
        raise SchemaError("could not assemble enough independent cubics")
    return PKDatum(z1, z2, tuple(cubics + second))


def planted_common_factor_datum(n: int, f: Poly | None = None) -> PKDatum:
    """A small datum whose cubics all share a quadric factor (below the
    validity window; the gcd check must fail on it)."""
    nv = n + 1
    z1, z2 = Poly.var(nv, 0), Poly.var(nv, 1)
    if f is None:
        f = Poly.var(nv, 0) * Poly.var(nv, 1) + Poly.var(nv, 2, 2)
    return PKDatum(z1, z2, (f * z1, f * z2))
