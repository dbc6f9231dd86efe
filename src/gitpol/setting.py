"""The multilinear setting: composition systems, morphisms, the symmetry group.

A composition system records the dimensions of the hom-spaces between the
summands of two decomposable sheaves together with all composition pairings,
stored as exact 0/1 matrices in fixed monomial bases.  Morphisms are block
matrices, the symmetry group is block-unitriangular on each side, and the
action is h . w . g^{-1} expanded through the pairings.

Index conventions (used throughout the package):
  * a tensor factor X (x) Y is indexed (x, y) -> x * dim(Y) + y;
  * a block phi_{l,i} : M_i -> N_l (x) H_li is an (n_l * h_li) x m_i matrix,
    rows indexed (t in N_l, k in H_li);
  * a block u_{j,i} : M_i -> M_j (x) A_ji is an (m_j * a_ji) x m_i matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import (ONE, RatMatrix, identity_kron_mul, kron_identity_mul,
                    mul_identity_kron, mul_kron_identity, rat)
# kept importable from here: perfbench's tracer test rebinds this name
from .exact import kron_identity_right  # noqa: F401
from .poly import Poly, mult_map, sym_dim


class SchemaError(ValueError):
    """Malformed input data (JSON, polynomial strings, shape mismatches)."""


@dataclass(frozen=True)
class ProblemSpec:
    """Line-bundle data: ambient dimension, twists and multiplicities per side."""

    ambient_dim: int
    left: tuple[tuple[int, int], ...]   # (twist e_i, multiplicity m_i), e strictly increasing
    right: tuple[tuple[int, int], ...]  # (twist f_l, multiplicity n_l), f strictly increasing

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise SchemaError("ambient_dim must be >= 1")
        if not self.left or not self.right:
            raise SchemaError("need at least one summand on each side")
        for side in (self.left, self.right):
            twists = [t for t, _ in side]
            if any(t2 <= t1 for t1, t2 in zip(twists, twists[1:])):
                raise SchemaError("twists must be strictly increasing on each side")
            if any(m < 1 for _, m in side):
                raise SchemaError("multiplicities must be positive")
        if self.left[-1][0] >= self.right[0][0]:
            raise SchemaError("largest left twist must be below smallest right twist")

    @property
    def r(self) -> int:
        return len(self.left)

    @property
    def s(self) -> int:
        return len(self.right)

    @property
    def e(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.left)

    @property
    def f(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.right)

    @property
    def m(self) -> tuple[int, ...]:
        return tuple(mult for _, mult in self.left)

    @property
    def n(self) -> tuple[int, ...]:
        return tuple(mult for _, mult in self.right)

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "ambient_dim": self.ambient_dim,
            "left": [{"twist": t, "mult": m} for t, m in self.left],
            "right": [{"twist": t, "mult": m} for t, m in self.right],
        }

    @staticmethod
    def from_json(data: dict) -> "ProblemSpec":
        try:
            left = tuple((int(x["twist"]), int(x["mult"])) for x in data["left"])
            right = tuple((int(x["twist"]), int(x["mult"])) for x in data["right"])
            return ProblemSpec(int(data["ambient_dim"]), left, right)
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad problem spec: {exc}") from exc


class CompositionSystem:
    """Hom-space dimensions plus all composition pairings, validated once.

    Pairing tensors (rows = target basis, columns = source tensor basis):
      comp_aa[(k,j,i)] : A_kj (x) A_ji -> A_ki      for i <= j <= k
      comp_bb[(n,m,l)] : B_nm (x) B_ml -> B_nl      for l <= m <= n
      comp_ha[(l,j,i)] : H_lj (x) A_ji -> H_li      for i <= j
      comp_bh[(m,l,i)] : B_ml (x) H_li -> H_mi      for l <= m
    """

    def __init__(self, r, s, m, n, a, b, h, comp_aa, comp_bb, comp_ha, comp_bh,
                 spec: ProblemSpec | None = None):
        self.r, self.s = r, s
        self.m, self.n = tuple(m), tuple(n)
        self._a, self._b, self._h = a, b, h
        self.comp_aa, self.comp_bb = comp_aa, comp_bb
        self.comp_ha, self.comp_bh = comp_ha, comp_bh
        self.spec = spec

    def a(self, j: int, i: int) -> int:
        """dim A_ji (1-based indices, i <= j)."""
        return 1 if i == j else self._a[(j, i)]

    def b(self, m: int, l: int) -> int:
        return 1 if l == m else self._b[(m, l)]

    def h(self, l: int, i: int) -> int:
        return self._h[(l, i)]

    @property
    def dim_w(self) -> int:
        return sum(self.m[i - 1] * self.n[l - 1] * self.h(l, i)
                   for i in range(1, self.r + 1) for l in range(1, self.s + 1))

    @property
    def dim_g(self) -> int:
        left = sum(mi * mi for mi in self.m)
        left += sum(self.m[i - 1] * self.m[j - 1] * self.a(j, i)
                    for i in range(1, self.r + 1) for j in range(i + 1, self.r + 1))
        right = sum(nl * nl for nl in self.n)
        right += sum(self.n[l - 1] * self.n[k - 1] * self.b(k, l)
                     for l in range(1, self.s + 1) for k in range(l + 1, self.s + 1))
        return left + right

    # -- validation of the structural axioms ---------------------------------

    def validate(self) -> None:
        for l in range(1, self.s + 1):
            if self.b(l, l) != 1:
                raise SchemaError("B_ll must be one-dimensional")
        for i in range(1, self.r + 1):
            if self.a(i, i) != 1:
                raise SchemaError("A_ii must be one-dimensional")
        self._validate_surjectivity()
        self._validate_associativity()

    def _validate_surjectivity(self) -> None:
        def full_row_rank(mat: RatMatrix, name: str):
            if mat.rank() != mat.nrows:
                raise SchemaError(f"composition map {name} is not surjective")

        for key, mat in self.comp_aa.items():
            full_row_rank(mat, f"A{key}")
        for key, mat in self.comp_bb.items():
            full_row_rank(mat, f"B{key}")
        for key, mat in self.comp_ha.items():
            full_row_rank(mat, f"HA{key}")
        for key, mat in self.comp_bh.items():
            full_row_rank(mat, f"BH{key}")
        # induced contractions H*_li (x) A_ji -> H*_lj and H*_mi (x) B_ml -> H*_li
        for (l, j, i), mat in self.comp_ha.items():
            ind = induced_contraction_right(mat, self.h(l, j), self.a(j, i), self.h(l, i))
            full_row_rank(ind, f"H*A{(l, j, i)}")
        for (mm, l, i), mat in self.comp_bh.items():
            ind = induced_contraction_left(mat, self.b(mm, l), self.h(l, i), self.h(mm, i))
            full_row_rank(ind, f"H*B{(mm, l, i)}")

    def _validate_associativity(self) -> None:
        r, s = self.r, self.s
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                for k in range(j, r + 1):
                    for ll in range(k, r + 1):
                        lhs = mul_kron_identity(self.comp_aa[(ll, j, i)],
                                                self.comp_aa[(ll, k, j)], self.a(j, i))
                        rhs = mul_identity_kron(self.comp_aa[(ll, k, i)],
                                                self.a(ll, k), self.comp_aa[(k, j, i)])
                        if lhs != rhs:
                            raise SchemaError(f"A-associativity fails at {(ll, k, j, i)}")
        for l in range(1, s + 1):
            for mm in range(l, s + 1):
                for nn in range(mm, s + 1):
                    for oo in range(nn, s + 1):
                        lhs = mul_kron_identity(self.comp_bb[(oo, mm, l)],
                                                self.comp_bb[(oo, nn, mm)], self.b(mm, l))
                        rhs = mul_identity_kron(self.comp_bb[(oo, nn, l)],
                                                self.b(oo, nn), self.comp_bb[(nn, mm, l)])
                        if lhs != rhs:
                            raise SchemaError(f"B-associativity fails at {(oo, nn, mm, l)}")
        for l in range(1, s + 1):
            for i in range(1, r + 1):
                for j in range(i, r + 1):
                    for k in range(j, r + 1):
                        lhs = mul_kron_identity(self.comp_ha[(l, j, i)],
                                                self.comp_ha[(l, k, j)], self.a(j, i))
                        rhs = mul_identity_kron(self.comp_ha[(l, k, i)],
                                                self.h(l, k), self.comp_aa[(k, j, i)])
                        if lhs != rhs:
                            raise SchemaError(f"HA-associativity fails at {(l, k, j, i)}")
        for i in range(1, r + 1):
            for l in range(1, s + 1):
                for mm in range(l, s + 1):
                    for nn in range(mm, s + 1):
                        lhs = mul_kron_identity(self.comp_bh[(nn, l, i)],
                                                self.comp_bb[(nn, mm, l)], self.h(l, i))
                        rhs = mul_identity_kron(self.comp_bh[(nn, mm, i)],
                                                self.b(nn, mm), self.comp_bh[(mm, l, i)])
                        if lhs != rhs:
                            raise SchemaError(f"BH-associativity fails at {(nn, mm, l, i)}")
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                for l in range(1, s + 1):
                    for mm in range(l, s + 1):
                        lhs = mul_kron_identity(self.comp_ha[(mm, j, i)],
                                                self.comp_bh[(mm, l, j)], self.a(j, i))
                        rhs = mul_identity_kron(self.comp_bh[(mm, l, i)],
                                                self.b(mm, l), self.comp_ha[(l, j, i)])
                        if lhs != rhs:
                            raise SchemaError(f"mixed associativity fails at {(mm, l, j, i)}")


def induced_contraction_right(comp: RatMatrix, dim_src: int, dim_a: int,
                              dim_tgt: int) -> RatMatrix:
    """From comp : SRC (x) A -> TGT build TGT* (x) A -> SRC*.

    Entry [(s), (a, t)] of the result is comp[t, (s, a)]; dual bases are
    indexed like the original bases.
    """
    out = RatMatrix.zeros(dim_src, dim_a * dim_tgt)
    for t in range(dim_tgt):
        row = comp.rows[t]
        for s in range(dim_src):
            for a in range(dim_a):
                v = row[s * dim_a + a]
                if v != 0:
                    out.rows[s][a * dim_tgt + t] = v
    return out


def induced_contraction_left(comp: RatMatrix, dim_b: int, dim_src: int,
                             dim_tgt: int) -> RatMatrix:
    """From comp : B (x) SRC -> TGT build B (x) TGT* -> SRC*.

    Entry [s, (b, t)] of the result is comp[t, (b, s)].
    """
    out = RatMatrix.zeros(dim_src, dim_b * dim_tgt)
    for t in range(dim_tgt):
        row = comp.rows[t]
        for b in range(dim_b):
            for s in range(dim_src):
                v = row[b * dim_src + s]
                if v != 0:
                    out.rows[s][b * dim_tgt + t] = v
    return out


def build_line_bundle_system(spec: ProblemSpec) -> CompositionSystem:
    """Instantiate the system with symmetric powers and their multiplications."""
    n = spec.ambient_dim
    e, f = spec.e, spec.f
    r, s = spec.r, spec.s
    a = {(j, i): sym_dim(n, e[j - 1] - e[i - 1])
         for i in range(1, r + 1) for j in range(i, r + 1)}
    b = {(mm, l): sym_dim(n, f[mm - 1] - f[l - 1])
         for l in range(1, s + 1) for mm in range(l, s + 1)}
    h = {(l, i): sym_dim(n, f[l - 1] - e[i - 1])
         for i in range(1, r + 1) for l in range(1, s + 1)}
    comp_aa = {(k, j, i): mult_map(n, e[k - 1] - e[j - 1], e[j - 1] - e[i - 1])
               for i in range(1, r + 1) for j in range(i, r + 1) for k in range(j, r + 1)}
    comp_bb = {(nn, mm, l): mult_map(n, f[nn - 1] - f[mm - 1], f[mm - 1] - f[l - 1])
               for l in range(1, s + 1) for mm in range(l, s + 1) for nn in range(mm, s + 1)}
    comp_ha = {(l, j, i): mult_map(n, f[l - 1] - e[j - 1], e[j - 1] - e[i - 1])
               for i in range(1, r + 1) for j in range(i, r + 1) for l in range(1, s + 1)}
    comp_bh = {(mm, l, i): mult_map(n, f[mm - 1] - f[l - 1], f[l - 1] - e[i - 1])
               for i in range(1, r + 1) for l in range(1, s + 1) for mm in range(l, s + 1)}
    return CompositionSystem(r, s, spec.m, spec.n, a, b, h,
                             comp_aa, comp_bb, comp_ha, comp_bh, spec=spec)


# ----------------------------------------------------------------------
# morphisms
# ----------------------------------------------------------------------


@dataclass
class MorphismElement:
    """Block matrix w = (phi_li); may carry its own multiplicities (quotients)."""

    system: CompositionSystem
    blocks: dict  # (l, i) -> RatMatrix of shape (n_l * h_li) x m_i
    mults: tuple[tuple[int, ...], tuple[int, ...]] = None

    def __post_init__(self):
        if self.mults is None:
            self.mults = (self.system.m, self.system.n)
        m, n = self.mults
        sys = self.system
        for l in range(1, sys.s + 1):
            for i in range(1, sys.r + 1):
                blk = self.blocks.get((l, i))
                expected = (n[l - 1] * sys.h(l, i), m[i - 1])
                if blk is None:
                    self.blocks[(l, i)] = RatMatrix.zeros(*expected)
                elif blk.shape != expected:
                    raise SchemaError(
                        f"block ({l},{i}) has shape {blk.shape}, expected {expected}")

    @property
    def m(self) -> tuple[int, ...]:
        return self.mults[0]

    @property
    def n(self) -> tuple[int, ...]:
        return self.mults[1]

    def block(self, l: int, i: int) -> RatMatrix:
        return self.blocks[(l, i)]

    @staticmethod
    def zero(system: CompositionSystem, mults=None) -> "MorphismElement":
        return MorphismElement(system, {}, mults)

    def __add__(self, other: "MorphismElement") -> "MorphismElement":
        return MorphismElement(self.system,
                               {k: v + other.blocks[k] for k, v in self.blocks.items()},
                               self.mults)

    def scale(self, c) -> "MorphismElement":
        return MorphismElement(self.system,
                               {k: v.scale(c) for k, v in self.blocks.items()}, self.mults)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MorphismElement) and self.mults == other.mults
                and all(self.blocks[k] == other.blocks[k] for k in self.blocks))

    # -- polynomial representation (line-bundle systems only) ----------------

    @staticmethod
    def from_polynomials(system: CompositionSystem, blocks) -> "MorphismElement":
        """Compile a grid of polynomial-string (or Poly) matrices into blocks.

        blocks[l-1][i-1] is an n_l x m_i matrix of homogeneous polynomials of
        degree f_l - e_i in the variables x0..xn.
        """
        spec = system.spec
        if spec is None:
            raise SchemaError("polynomial input requires a line-bundle system")
        nv = spec.ambient_dim + 1
        out = {}
        for l in range(1, system.s + 1):
            for i in range(1, system.r + 1):
                deg = spec.f[l - 1] - spec.e[i - 1]
                hdim = system.h(l, i)
                grid = blocks[l - 1][i - 1]
                if len(grid) != system.n[l - 1] or any(len(row) != system.m[i - 1] for row in grid):
                    raise SchemaError(f"polynomial block ({l},{i}) has wrong shape")
                mat = RatMatrix.zeros(system.n[l - 1] * hdim, system.m[i - 1])
                for t, row in enumerate(grid):
                    for p, entry in enumerate(row):
                        try:
                            poly = entry if isinstance(entry, Poly) \
                                else Poly.parse(str(entry), nv)
                        except ValueError as exc:
                            raise SchemaError(
                                f"block ({l},{i}) entry ({t},{p}): {exc}") from exc
                        if not poly.is_homogeneous(deg) and not poly.is_zero():
                            raise SchemaError(
                                f"entry ({t},{p}) of block ({l},{i}) is not homogeneous "
                                f"of degree {deg}")
                        for k, c in enumerate(poly.coeff_vector(deg)):
                            mat.rows[t * hdim + k][p] = c
                out[(l, i)] = mat
        return MorphismElement(system, out)

    def to_polynomials(self) -> list[list[list[list[str]]]]:
        spec = self.system.spec
        if spec is None:
            raise SchemaError("polynomial output requires a line-bundle system")
        nv = spec.ambient_dim + 1
        out = []
        for l in range(1, self.system.s + 1):
            row_blocks = []
            for i in range(1, self.system.r + 1):
                deg = spec.f[l - 1] - spec.e[i - 1]
                hdim = self.system.h(l, i)
                blk = self.block(l, i)
                grid = []
                for t in range(self.n[l - 1]):
                    row = []
                    for p in range(self.m[i - 1]):
                        vec = [blk.rows[t * hdim + k][p] for k in range(hdim)]
                        row.append(str(Poly.from_coeff_vector(nv, deg, vec)))
                    grid.append(row)
                row_blocks.append(grid)
            out.append(row_blocks)
        return out

    def to_json(self) -> dict:
        return {"schema": "1", "blocks": self.to_polynomials()}

    @staticmethod
    def from_json(system: CompositionSystem, data: dict) -> "MorphismElement":
        try:
            return MorphismElement.from_polynomials(system, data["blocks"])
        except (KeyError, TypeError, IndexError) as exc:
            raise SchemaError(f"bad morphism data: {exc}") from exc


def random_morphism(system: CompositionSystem, seed: int, bound: int = 3,
                    mults=None) -> MorphismElement:
    rng = random.Random(seed)
    w = MorphismElement.zero(system, mults)
    for key in sorted(w.blocks):
        blk = w.blocks[key]
        for i in range(blk.nrows):
            for j in range(blk.ncols):
                blk.rows[i][j] = Fraction(rng.randint(-bound, bound))
    return w


# ----------------------------------------------------------------------
# the group and its action
# ----------------------------------------------------------------------


@dataclass
class GroupElement:
    """Pair of block-unitriangular automorphisms (left g/u, right h/v)."""

    system: CompositionSystem
    g: list        # g[i-1]: m_i x m_i invertible
    u: dict        # (j, i) -> (m_j * a_ji) x m_i, for i < j
    hh: list       # hh[l-1]: n_l x n_l invertible
    v: dict        # (m, l) -> (n_m * b_ml) x n_l, for l < m
    mults: tuple[tuple[int, ...], tuple[int, ...]] = None

    def __post_init__(self):
        if self.mults is None:
            self.mults = (self.system.m, self.system.n)
        m, n = self.mults
        sys = self.system
        for i in range(1, sys.r + 1):
            for j in range(i + 1, sys.r + 1):
                self.u.setdefault((j, i), RatMatrix.zeros(m[j - 1] * sys.a(j, i), m[i - 1]))
        for l in range(1, sys.s + 1):
            for mm in range(l + 1, sys.s + 1):
                self.v.setdefault((mm, l), RatMatrix.zeros(n[mm - 1] * sys.b(mm, l), n[l - 1]))

    @property
    def is_unipotent(self) -> bool:
        m, n = self.mults
        return (all(self.g[i] == RatMatrix.identity(m[i]) for i in range(len(m)))
                and all(self.hh[l] == RatMatrix.identity(n[l]) for l in range(len(n))))

    @staticmethod
    def identity(system: CompositionSystem, mults=None) -> "GroupElement":
        m, n = mults if mults is not None else (system.m, system.n)
        return GroupElement(system,
                            [RatMatrix.identity(mi) for mi in m], {},
                            [RatMatrix.identity(nl) for nl in n], {}, (tuple(m), tuple(n)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupElement) and self.mults == other.mults
                and self.g == other.g and self.hh == other.hh
                and all(self.u[k] == other.u[k] for k in self.u)
                and all(self.v[k] == other.v[k] for k in self.v))


def _star_uu(sys: CompositionSystem, k: int, j: int, i: int, mults,
             u_kj: RatMatrix, u_ji: RatMatrix) -> RatMatrix:
    """u_kj * u_ji : M_i -> M_k (x) A_ki through the A-pairing."""
    mid = kron_identity_mul(u_kj, sys.a(j, i), u_ji)    # M_i -> M_k (x) A_kj (x) A_ji
    return identity_kron_mul(mults[k - 1], sys.comp_aa[(k, j, i)], mid)


def _star_phi_u(sys: CompositionSystem, l: int, j: int, i: int, mults_n,
                phi_lj: RatMatrix, u_ji: RatMatrix) -> RatMatrix:
    """phi_lj * u_ji : M_i -> N_l (x) H_li."""
    mid = kron_identity_mul(phi_lj, sys.a(j, i), u_ji)  # M_i -> N_l (x) H_lj (x) A_ji
    return identity_kron_mul(mults_n[l - 1], sys.comp_ha[(l, j, i)], mid)


def _star_v_phi(sys: CompositionSystem, mm: int, l: int, i: int, mults_n,
                v_ml: RatMatrix, phi_li: RatMatrix) -> RatMatrix:
    """v_ml * phi_li : M_i -> N_m (x) H_mi."""
    mid = kron_identity_mul(v_ml, sys.h(l, i), phi_li)  # M_i -> N_m (x) B_ml (x) H_li
    return identity_kron_mul(mults_n[mm - 1], sys.comp_bh[(mm, l, i)], mid)


def compose_group(g2: GroupElement, g1: GroupElement) -> GroupElement:
    """The product g2 g1 (g2 after g1), block formulas expanded via pairings."""
    if g2.system is not g1.system or g2.mults != g1.mults:
        raise SchemaError("group elements live on different systems")
    sys = g2.system
    m, n = g2.mults
    g = [g2.g[i] * g1.g[i] for i in range(sys.r)]
    hh = [g2.hh[l] * g1.hh[l] for l in range(sys.s)]
    u, v = {}, {}
    for i in range(1, sys.r + 1):
        for k in range(i + 1, sys.r + 1):
            acc = g2.u[(k, i)] * g1.g[i - 1]
            acc = acc + kron_identity_mul(g2.g[k - 1], sys.a(k, i), g1.u[(k, i)])
            for j in range(i + 1, k):
                acc = acc + _star_uu(sys, k, j, i, m, g2.u[(k, j)], g1.u[(j, i)])
            u[(k, i)] = acc
    for l in range(1, sys.s + 1):
        for k in range(l + 1, sys.s + 1):
            acc = g2.v[(k, l)] * g1.hh[l - 1]
            acc = acc + kron_identity_mul(g2.hh[k - 1], sys.b(k, l), g1.v[(k, l)])
            for j in range(l + 1, k):
                acc = acc + _star_vv(sys, k, j, l, n, g2.v[(k, j)], g1.v[(j, l)])
            v[(k, l)] = acc
    return GroupElement(sys, g, u, hh, v, g2.mults)


def _star_vv(sys: CompositionSystem, k: int, j: int, l: int, mults_n,
             v_kj: RatMatrix, v_jl: RatMatrix) -> RatMatrix:
    """v_kj * v_jl : N_l -> N_k (x) B_kl through the B-pairing."""
    mid = kron_identity_mul(v_kj, sys.b(j, l), v_jl)    # N_l -> N_k (x) B_kj (x) B_jl
    return identity_kron_mul(mults_n[k - 1], sys.comp_bb[(k, j, l)], mid)


def invert_group(g: GroupElement) -> GroupElement:
    """Exact inverse by block forward-substitution."""
    sys = g.system
    m, n = g.mults
    ginv = [x.inverse() for x in g.g]
    hinv = [x.inverse() for x in g.hh]
    u: dict = {}
    for gap in range(1, sys.r):
        for i in range(1, sys.r - gap + 1):
            k = i + gap
            acc = kron_identity_mul(ginv[k - 1], sys.a(k, i), g.u[(k, i)])
            for j in range(i + 1, k):
                acc = acc + _star_uu(sys, k, j, i, m, u[(k, j)], g.u[(j, i)])
            u[(k, i)] = acc.scale(-1) * ginv[i - 1]
    v: dict = {}
    for gap in range(1, sys.s):
        for l in range(1, sys.s - gap + 1):
            k = l + gap
            acc = kron_identity_mul(hinv[k - 1], sys.b(k, l), g.v[(k, l)])
            for j in range(l + 1, k):
                acc = acc + _star_vv(sys, k, j, l, n, v[(k, j)], g.v[(j, l)])
            v[(k, l)] = acc.scale(-1) * hinv[l - 1]
    return GroupElement(sys, ginv, u, hinv, v, g.mults)


def act(g: GroupElement, w: MorphismElement) -> MorphismElement:
    """The action (g, h) . w = h o w o g^{-1}."""
    if g.mults != w.mults:
        raise SchemaError("group element and morphism have different shapes")
    sys = w.system
    n = w.mults[1]
    # left factor inverted on its own (right side replaced by the identity)
    left_inv = invert_group(GroupElement(sys, list(g.g), dict(g.u),
                                         [RatMatrix.identity(nl) for nl in n], {}, g.mults))
    # right action by g^{-1}: phi'_li = phi_li g^{-1}_i + sum_{j>i} phi_lj * u^{-1}_ji
    mid = {}
    for l in range(1, sys.s + 1):
        for i in range(1, sys.r + 1):
            acc = w.block(l, i) * left_inv.g[i - 1]
            for j in range(i + 1, sys.r + 1):
                acc = acc + _star_phi_u(sys, l, j, i, n, w.block(l, j), left_inv.u[(j, i)])
            mid[(l, i)] = acc
    # left action by h: phi''_mi = (h_m (x) id) phi'_mi + sum_{l<m} v_ml * phi'_li
    out = {}
    for mm in range(1, sys.s + 1):
        for i in range(1, sys.r + 1):
            acc = kron_identity_mul(g.hh[mm - 1], sys.h(mm, i), mid[(mm, i)])
            for l in range(1, mm):
                acc = acc + _star_v_phi(sys, mm, l, i, n, g.v[(mm, l)], mid[(l, i)])
            out[(mm, i)] = acc
    return MorphismElement(sys, out, w.mults)


def random_unipotent(system: CompositionSystem, seed: int, bound: int,
                     mults=None) -> GroupElement:
    """Deterministic unipotent sample; bound 0 gives the identity."""
    if bound < 0:
        raise SchemaError("coefficient bound must be nonnegative")
    rng = random.Random(seed)
    g = GroupElement.identity(system, mults)
    for key in sorted(g.u):
        blk = g.u[key]
        for i in range(blk.nrows):
            for j in range(blk.ncols):
                blk.rows[i][j] = Fraction(rng.randint(-bound, bound))
    for key in sorted(g.v):
        blk = g.v[key]
        for i in range(blk.nrows):
            for j in range(blk.ncols):
                blk.rows[i][j] = Fraction(rng.randint(-bound, bound))
    return g


def random_reductive(system: CompositionSystem, seed: int, bound: int = 3,
                     mults=None) -> GroupElement:
    """Deterministic sample from the block-diagonal subgroup (u = v = 0)."""
    rng = random.Random(seed)
    g = GroupElement.identity(system, mults)

    def random_invertible(size: int) -> RatMatrix:
        while True:
            mat = RatMatrix.from_rows(
                [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)])
            if mat.rank() == size:
                return mat

    g.g = [random_invertible(mi) for mi in g.mults[0]]
    g.hh = [random_invertible(nl) for nl in g.mults[1]]
    return g


def group_to_json(g: GroupElement) -> dict:
    return {
        "schema": "1",
        "g": [mat.to_json() for mat in g.g],
        "u": {f"{j},{i}": g.u[(j, i)].to_json() for (j, i) in sorted(g.u)},
        "h": [mat.to_json() for mat in g.hh],
        "v": {f"{m},{l}": g.v[(m, l)].to_json() for (m, l) in sorted(g.v)},
        "mults": [list(g.mults[0]), list(g.mults[1])],
    }


def group_from_json(system: CompositionSystem, data: dict) -> GroupElement:
    try:
        mults = (tuple(data["mults"][0]), tuple(data["mults"][1]))
        g = [RatMatrix.from_json(x) for x in data["g"]]
        hh = [RatMatrix.from_json(x) for x in data["h"]]
        u = {tuple(int(t) for t in key.split(",")): RatMatrix.from_json(mat)
             for key, mat in data["u"].items()}
        v = {tuple(int(t) for t in key.split(",")): RatMatrix.from_json(mat)
             for key, mat in data["v"].items()}
        return GroupElement(system, g, u, hh, v, mults)
    except (KeyError, TypeError, IndexError) as exc:
        raise SchemaError(f"bad group element data: {exc}") from exc
