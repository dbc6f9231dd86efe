"""Codimension constants controlling the comparison of stability notions.

For a system with summand blocks i >= 2 the left constant of level l is the
supremum over admissible subspaces K of

    rho_l(K) = codim(delta_l(K (x) H*_l1)) / codim(K),

where delta_l contracts each A_i1 factor into H*_li, and K is admissible when
its block supports are full.  Closed forms are available for a handful of
line-bundle configurations; everywhere else the module produces certified
lower bounds from deterministic candidate pools (never an upper bound).

rho is computed over the integers: each basis column of K and each row of a
contraction tensor is scaled to integers (which changes no span and no rank),
and the codimensions come from `exact.integer_rank`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import ZERO, RatMatrix, clear_denominators, integer_rank
from .poly import sym_dim
from .setting import (CompositionSystem, ProblemSpec, SchemaError,
                      build_line_bundle_system, induced_contraction_right)


def c_closed_form_21(n: int, m: int) -> Fraction:
    """Left constant for blocks (O(-2)^{m1}, O(-1)^m) -> O^{n1} on P_n."""
    if m < 1:
        raise SchemaError("multiplicity must be positive")
    if m <= n + 1:
        return Fraction(m * (m - 1), 2 * (m * (n + 1) - 1))
    return Fraction(n + 1, 2 * (n + 2))


def c_closed_form_triple(n: int, d: int) -> Fraction:
    """Left constant for blocks (O(-d), O(-2), O(-1)) -> O^{n1} on P_n."""
    if d < 2:
        raise SchemaError("need degree gap at least 2")
    return Fraction(n + 1, sym_dim(n, d - 1))


# reference values stated without a displayed general formula:
# key = (ambient, block twist gaps (e_i - e_1, i >= 2), f_l - e_1, block mults)
_REFERENCE_TABLE = {
    (3, (1,), 2, (2,)): Fraction(1, 7),
    (3, (1,), 3, (2,)): Fraction(4, 7),
}


@dataclass(frozen=True)
class ConstantValue:
    value: Fraction | None
    source: str            # closed-form | table | zero-empty | zero-single-block | unknown

    @property
    def exact(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class ConstantQuery:
    system: CompositionSystem
    side: str              # "left" (c_l) or "right" (d_i)
    index: int

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise SchemaError("side must be 'left' or 'right'")
        top = self.system.s if self.side == "left" else self.system.r
        if not 1 <= self.index <= top:
            raise SchemaError("constant index out of range")

    @property
    def mults(self) -> tuple[int, ...]:
        """The multiplicity sub-vector the constant depends on."""
        if self.side == "left":
            return tuple(self.system.m[1:])
        return tuple(self.system.n[:-1])


def transpose_spec(spec: ProblemSpec) -> ProblemSpec:
    left = tuple((-t, mult) for t, mult in reversed(spec.right))
    right = tuple((-t, mult) for t, mult in reversed(spec.left))
    return ProblemSpec(spec.ambient_dim, left, right)


def transpose_system(sys: CompositionSystem) -> CompositionSystem:
    if sys.spec is None:
        raise SchemaError("transposition is implemented for line-bundle systems")
    return build_line_bundle_system(transpose_spec(sys.spec))


def _resolve_c_pattern(spec: ProblemSpec, l: int, blocks: tuple[int, ...],
                       mults: tuple[int, ...]) -> ConstantValue:
    n = spec.ambient_dim
    gaps = tuple(spec.e[i - 1] - spec.e[0] for i in blocks)
    g = spec.f[l - 1] - spec.e[0]
    if not blocks:
        return ConstantValue(ZERO, "zero-empty")
    if len(blocks) == 1 and mults[0] == 1:
        # a single block of multiplicity one: contraction by any nonzero form
        # is surjective, so every admissible K has codim(image) = 0
        return ConstantValue(ZERO, "zero-single-block")
    if len(blocks) == 1 and gaps == (1,) and g == 2:
        return ConstantValue(c_closed_form_21(n, mults[0]), "closed-form")
    if (len(blocks) == 2 and mults == (1, 1) and g >= 3
            and gaps == (g - 2, g - 1)):
        return ConstantValue(c_closed_form_triple(n, g), "closed-form")
    key = (n, gaps, g, mults)
    if key in _REFERENCE_TABLE:
        return ConstantValue(_REFERENCE_TABLE[key], "table")
    return ConstantValue(None, "unknown")


def resolve_c(sys: CompositionSystem, l: int,
              blocks: tuple[int, ...] | None = None) -> ConstantValue:
    """Exact value of the left constant c_l when a pattern applies."""
    if blocks is None:
        blocks = tuple(range(2, sys.r + 1))
    if not blocks:
        return ConstantValue(ZERO, "zero-empty")
    if sys.spec is None:
        return ConstantValue(None, "unknown")
    mults = tuple(sys.m[i - 1] for i in blocks)
    return _resolve_c_pattern(sys.spec, l, blocks, mults)


def resolve_d(sys: CompositionSystem, i: int) -> ConstantValue:
    """Right constant d_i, evaluated as a left constant on the transposed system."""
    if sys.s == 1:
        return ConstantValue(ZERO, "zero-empty")
    if sys.spec is None:
        return ConstantValue(None, "unknown")
    return resolve_c(transpose_system(sys), sys.r + 1 - i)


def resolve(query: ConstantQuery) -> ConstantValue:
    if query.side == "left":
        return resolve_c(query.system, query.index)
    return resolve_d(query.system, query.index)


def reference_table(query: ConstantQuery) -> Fraction | None:
    """The stated reference value for exactly the listed configurations."""
    if query.side == "left":
        sys = query.system
        if sys.spec is None:
            return None
        blocks = tuple(range(2, sys.r + 1))
        mults = tuple(sys.m[i - 1] for i in blocks)
        key = (sys.spec.ambient_dim,
               tuple(sys.spec.e[i - 1] - sys.spec.e[0] for i in blocks),
               sys.spec.f[query.index - 1] - sys.spec.e[0], mults)
        return _REFERENCE_TABLE.get(key)
    if query.system.spec is None:
        return None
    tsys = transpose_system(query.system)
    return reference_table(ConstantQuery(tsys, "left", query.system.r + 1 - query.index))


# ----------------------------------------------------------------------
# certified lower bounds by sampling admissible subspaces
# ----------------------------------------------------------------------


@dataclass
class RhoProblem:
    """Data of one codimension-ratio problem.

    Slots flatten the multiplicities: slot k is one copy of the space A of its
    block.  `inds[b]` maps A_b (x) H_src* -> H_tgt_b* with rows indexed by the
    target basis and columns by (A-index, H_src*-index).
    """

    block_mults: list[int]
    block_adims: list[int]
    block_tdims: list[int]
    h_src: int
    inds: list[RatMatrix]
    ambient: int | None = None
    block_degrees: list[int] | None = None

    @property
    def slots(self) -> list[int]:
        out = []
        for b, mult in enumerate(self.block_mults):
            out.extend([b] * mult)
        return out

    @property
    def src_dim(self) -> int:
        return sum(m * a for m, a in zip(self.block_mults, self.block_adims))

    @property
    def tgt_dim(self) -> int:
        return sum(m * t for m, t in zip(self.block_mults, self.block_tdims))

    def slot_offsets(self) -> list[int]:
        offs, cur = [], 0
        for b in self.slots:
            offs.append(cur)
            cur += self.block_adims[b]
        return offs

    @cached_property
    def ind_nonzeros(self) -> list[list[list[tuple[int, int, int]]]]:
        """Per block and H_src*-index k1, the nonzeros of `inds[b]` in the
        columns (c, k1) as integer triples (target row, A-index, value).

        A row of `inds[b]` with fractions is scaled by the lcm of its
        denominators; scaling a target coordinate keeps every image rank.
        """
        out = []
        for ind in self.inds:
            terms = [[] for _ in range(self.h_src)]
            for t, row in enumerate(clear_denominators(ind.rows)):
                for j, v in enumerate(row):
                    if v:
                        c, k1 = divmod(j, self.h_src)
                        terms[k1].append((t, c, v))
            out.append(terms)
        return out


def rho_problem_c(sys: CompositionSystem, l: int,
                  blocks: tuple[int, ...] | None = None) -> RhoProblem:
    if blocks is None:
        blocks = tuple(range(2, sys.r + 1))
    mults = [sys.m[i - 1] for i in blocks]
    adims = [sys.a(i, 1) for i in blocks]
    tdims = [sys.h(l, i) for i in blocks]
    h_src = sys.h(l, 1)
    inds = [induced_contraction_right(sys.comp_ha[(l, i, 1)], sys.h(l, i),
                                      sys.a(i, 1), h_src)
            for i in blocks]
    ambient = sys.spec.ambient_dim if sys.spec is not None else None
    degrees = ([sys.spec.e[i - 1] - sys.spec.e[0] for i in blocks]
               if sys.spec is not None else None)
    return RhoProblem(mults, adims, tdims, h_src, inds, ambient, degrees)


def rho_problem_cprime_31(sys: CompositionSystem) -> RhoProblem:
    """The auxiliary constant for three left summands: A_32 contracted as
    A_32 (x) H*_12 -> H*_13."""
    if sys.r != 3 or sys.s != 1:
        raise SchemaError("the auxiliary constant is defined for shape (3,1)")
    ind = induced_contraction_right(sys.comp_ha[(1, 3, 2)], sys.h(1, 3),
                                    sys.a(3, 2), sys.h(1, 2))
    ambient = sys.spec.ambient_dim if sys.spec is not None else None
    degrees = [sys.spec.e[2] - sys.spec.e[1]] if sys.spec is not None else None
    return RhoProblem([sys.m[2]], [sys.a(3, 2)], [sys.h(1, 3)], sys.h(1, 2),
                      [ind], ambient, degrees)


def membership(problem: RhoProblem, basis: RatMatrix) -> bool:
    """Is span(columns) admissible, i.e. full support on every block?"""
    cols = clear_denominators(zip(*basis.rows))
    if not cols or integer_rank(cols) != len(cols):
        return False
    offs = problem.slot_offsets()
    slots = problem.slots
    for b, mult in enumerate(problem.block_mults):
        block_offs = [offs[k] for k, bb in enumerate(slots) if bb == b]
        # per column and A-index, the coordinates in the block's slots
        vecs = ([x[off + c] for off in block_offs]
                for x in cols for c in range(problem.block_adims[b]))
        if integer_rank(vecs) != mult:
            return False
    return True


def rho_value(problem: RhoProblem, basis: RatMatrix) -> Fraction:
    """rho(K) for an admissible K given by a full-column-rank basis matrix.

    delta(K (x) H*) is spanned by one integer vector per (basis column,
    H*-index); they are generated lazily, so the rank stops as soon as they
    span the whole target.
    """
    codim_k = problem.src_dim - basis.ncols
    if codim_k <= 0:
        raise SchemaError("K must be a proper subspace")
    cols = clear_denominators(zip(*basis.rows))
    terms = problem.ind_nonzeros
    tgt_dim = problem.tgt_dim
    placed, cur = [], 0
    for b, off in zip(problem.slots, problem.slot_offsets()):
        placed.append((terms[b], off, cur))
        cur += problem.block_tdims[b]

    def image():
        for x in cols:
            for k1 in range(problem.h_src):
                vec = [0] * tgt_dim
                for bterms, off, toff in placed:
                    for t, c, v in bterms[k1]:
                        if x[off + c]:
                            vec[toff + t] += v * x[off + c]
                yield vec

    return Fraction(tgt_dim - integer_rank(image()), codim_k)


@dataclass
class LowerBound:
    value: Fraction
    witness: list[list[str]] | None
    trials_used: int
    source: str = "lower-bound"


def _structured_candidates(problem: RhoProblem):
    """Deterministic family of admissible candidates, strongest shapes first."""
    slots = problem.slots
    offs = problem.slot_offsets()
    dim = problem.src_dim

    def full_on(slot_ids):
        cols = []
        for k in slot_ids:
            for c in range(problem.block_adims[slots[k]]):
                vec = [0] * dim
                vec[offs[k] + c] = 1
                cols.append(vec)
        return cols

    nslots = len(slots)
    # graphs {(f, z^mono * f)} between two slots, full elsewhere
    for s1 in range(nslots):
        for s2 in range(nslots):
            if s1 == s2:
                continue
            b1, b2 = slots[s1], slots[s2]
            a1, a2 = problem.block_adims[b1], problem.block_adims[b2]
            if a1 > a2:
                continue
            for lin in _degree_shift_maps(problem, b1, b2):
                cols = []
                for c in range(a1):
                    vec = [0] * dim
                    vec[offs[s1] + c] = 1
                    for t in range(a2):
                        if lin.rows[t][c]:
                            vec[offs[s2] + t] += lin.rows[t][c]
                    cols.append(vec)
                rest = [k for k in range(nslots) if k not in (s1, s2)]
                yield RatMatrix.from_columns(cols + full_on(rest))
    # single vectors with staggered coordinate entries across the slots
    maxa = max(problem.block_adims) if problem.block_adims else 0
    for off in range(maxa):
        vec = [0] * dim
        for k in range(nslots):
            a = problem.block_adims[slots[k]]
            vec[offs[k] + ((off + k) % a)] = 1
        yield RatMatrix.from_columns([vec])
    # coordinate-complement subspaces of codimension one and two
    for drop in range(dim):
        cols = [[1 if i == j else 0 for i in range(dim)]
                for j in range(dim) if j != drop]
        yield RatMatrix.from_columns(cols)
    for d1 in range(dim):
        for d2 in range(d1 + 1, dim):
            cols = [[1 if i == j else 0 for i in range(dim)]
                    for j in range(dim) if j not in (d1, d2)]
            yield RatMatrix.from_columns(cols)


def _degree_shift_maps(problem: RhoProblem, b1: int, b2: int):
    """Linear maps A_b1 -> A_b2 used to build graph subspaces {(f, L(f))}.

    On line-bundle systems these are the multiplications by each monomial of
    the degree gap (the identity when the degrees agree); otherwise a small
    family of banded injections is used instead.
    """
    from .poly import monomial_basis, monomial_index

    a1, a2 = problem.block_adims[b1], problem.block_adims[b2]
    if problem.ambient is not None and problem.block_degrees is not None:
        d1, d2 = problem.block_degrees[b1], problem.block_degrees[b2]
        if d1 > d2:
            return
        nv = problem.ambient + 1
        if d1 == d2:
            yield RatMatrix.identity(a1)
            return
        src = monomial_basis(nv, d1)
        tgt_index = monomial_index(nv, d2)
        for mono in monomial_basis(nv, d2 - d1):
            out = RatMatrix.zeros(a2, a1)
            for c, m1 in enumerate(src):
                out.rows[tgt_index[tuple(x + y for x, y in zip(m1, mono))]][c] = 1
            yield out
        return
    if a1 == a2:
        yield RatMatrix.identity(a1)
        return
    for shift in range(a2 - a1 + 1):
        out = RatMatrix.zeros(a2, a1)
        for c in range(a1):
            out.rows[c + shift][c] = 1
        yield out


def sampled_lower_bound(problem: RhoProblem, seed: int, trials: int) -> LowerBound:
    """Certified lower bound: max rho over admissible candidates examined."""
    if trials <= 0:
        raise SchemaError("need a positive trial count")
    rng = random.Random(seed)
    best = ZERO
    witness = None
    used = 0
    dim = problem.src_dim

    def consider(basis: RatMatrix) -> bool:
        nonlocal best, witness, used
        used += 1
        if membership(problem, basis):
            val = rho_value(problem, basis)
            if val > best or witness is None:
                if val > best:
                    best, witness = val, basis.to_json()
                elif witness is None:
                    witness = basis.to_json()
        return used >= trials

    for cand in _structured_candidates(problem):
        if consider(cand):
            return LowerBound(best, witness, used)
    while used < trials:
        k = rng.randrange(1, dim) if dim > 1 else 1
        cols = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(k)]
        if consider(RatMatrix.from_columns(cols)):
            break
    return LowerBound(best, witness, used)


def sampled_lower_bound_query(query: ConstantQuery, seed: int, trials: int) -> LowerBound:
    if query.side == "left":
        return sampled_lower_bound(rho_problem_c(query.system, query.index), seed, trials)
    tsys = transpose_system(query.system)
    return sampled_lower_bound(rho_problem_c(tsys, query.system.r + 1 - query.index),
                               seed, trials)


def pad_witness(problem: RhoProblem, basis: RatMatrix, extra_block: int,
                extra_copies: int) -> tuple[RhoProblem, RatMatrix]:
    """Enlarge a block's multiplicity and pad the witness with full new slots.

    The padded subspace has the same codimension and the same image
    codimension, which is the monotonicity argument for the constants.
    """
    new_mults = list(problem.block_mults)
    new_mults[extra_block] += extra_copies
    bigger = RhoProblem(new_mults, problem.block_adims, problem.block_tdims,
                        problem.h_src, problem.inds)
    # map old slots into the enlarged slot list (block-major layout)
    old_slots = problem.slots
    new_slots = bigger.slots
    new_offs = bigger.slot_offsets()
    old_offs = problem.slot_offsets()
    slot_map = []
    taken = [False] * len(new_slots)
    for b in old_slots:
        k = next(i for i, bb in enumerate(new_slots) if bb == b and not taken[i])
        taken[k] = True
        slot_map.append(k)
    cols = []
    for col in range(basis.ncols):
        vec = [0] * bigger.src_dim
        for k_old, k_new in enumerate(slot_map):
            a = problem.block_adims[old_slots[k_old]]
            for c in range(a):
                vec[new_offs[k_new] + c] = basis.rows[old_offs[k_old] + c][col]
        cols.append(vec)
    for k_new, used in enumerate(taken):
        if not used:
            a = bigger.block_adims[new_slots[k_new]]
            for c in range(a):
                vec = [0] * bigger.src_dim
                vec[new_offs[k_new] + c] = 1
                cols.append(vec)
    return bigger, RatMatrix.from_columns(cols)
