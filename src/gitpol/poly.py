"""Graded symmetric-power spaces and exact multivariate polynomials.

Monomial bases are graded-lexicographic and deterministic: within one degree,
exponent vectors are listed in descending lexicographic order, so every matrix
built on them is byte-stable.  Polynomials are sparse dicts from exponent
tuples to Fractions; gcds are computed exactly over the rationals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .exact import ONE, ZERO, RatMatrix, rat, rat_str

Mono = tuple  # exponent vector, one slot per variable x0..x(nvars-1)


def sym_dim(n: int, d: int) -> int:
    """Dimension of the degree-d symmetric power on an (n+1)-dim space; 0 for d<0."""
    if n < 1:
        raise ValueError("ambient projective dimension must be >= 1")
    return comb(n + d, n) if d >= 0 else 0


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, degree: int) -> tuple[Mono, ...]:
    """All exponent vectors of the given total degree, descending lex order."""
    if degree < 0:
        return ()
    if nvars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in monomial_basis(nvars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> dict:
    return {m: i for i, m in enumerate(monomial_basis(nvars, degree))}


@dataclass(frozen=True)
class GradedSpace:
    """The degree-d symmetric power on projective n-space, with its basis."""

    ambient_dim: int
    degree: int

    @property
    def basis(self) -> tuple[Mono, ...]:
        return monomial_basis(self.ambient_dim + 1, self.degree)

    @property
    def dim(self) -> int:
        return sym_dim(self.ambient_dim, self.degree)

    def index(self, mono: Mono) -> int:
        return monomial_index(self.ambient_dim + 1, self.degree)[mono]


@lru_cache(maxsize=None)
def mult_map(n: int, a: int, b: int) -> RatMatrix:
    """Multiplication of symmetric powers S^a (x) S^b -> S^(a+b) in monomial bases.

    Entry 1 exactly where the exponent vectors add; column index is
    ia * dim(S^b) + ib.
    """
    if a < 0 or b < 0:
        raise ValueError("negative degrees")
    nv = n + 1
    ba, bb = monomial_basis(nv, a), monomial_basis(nv, b)
    target_index = monomial_index(nv, a + b)
    out = RatMatrix.zeros(sym_dim(n, a + b), len(ba) * len(bb))
    for ia, ma in enumerate(ba):
        for ib, mb in enumerate(bb):
            row = target_index[tuple(x + y for x, y in zip(ma, mb))]
            out.rows[row][ia * len(bb) + ib] = 1
    return out


# ----------------------------------------------------------------------
# sparse multivariate polynomials over the rationals
# ----------------------------------------------------------------------


class Poly:
    """Sparse polynomial in variables x0..x(nvars-1) with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, {})

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = rat(c)
        return Poly(nvars, {(0,) * nvars: c} if c != 0 else {})

    @staticmethod
    def var(nvars: int, i: int, power: int = 1) -> "Poly":
        mono = tuple(power if j == i else 0 for j in range(nvars))
        return Poly(nvars, {mono: ONE})

    @staticmethod
    def monomial(nvars: int, mono: Mono, coeff=ONE) -> "Poly":
        return Poly(nvars, {tuple(mono): rat(coeff)})

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self, d: int | None = None) -> bool:
        degs = {sum(m) for m in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return d is None or degs == {d}

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) + c
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) - c
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "Poly":
        c = rat(c)
        return Poly(self.nvars, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, ZERO) + c1 * c2
        return Poly(self.nvars, out)

    # -- leading data (graded-lex: higher degree first, then desc lex) ----

    def _key(self, mono: Mono):
        return (sum(mono), mono)

    def leading_mono(self) -> Mono:
        return max(self.terms, key=self._key)

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_mono()]

    # -- division ----------------------------------------------------------

    def divmod_single(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Division with remainder by a single divisor (graded-lex leading terms)."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        quo = Poly.zero(self.nvars)
        rem = Poly.zero(self.nvars)
        cur = self
        dm = divisor.leading_mono()
        dc = divisor.leading_coeff()
        while not cur.is_zero():
            lm = cur.leading_mono()
            diff = tuple(a - b for a, b in zip(lm, dm))
            if all(e >= 0 for e in diff):
                t = Poly.monomial(self.nvars, diff, cur.terms[lm] / dc)
                quo = quo + t
                cur = cur - t * divisor
            else:
                t = Poly.monomial(self.nvars, lm, cur.terms[lm])
                rem = rem + t
                cur = cur - t
        return quo, rem

    def divides(self, other: "Poly") -> bool:
        if self.is_zero():
            return other.is_zero()
        _, rem = other.divmod_single(self)
        return rem.is_zero()

    def exact_div(self, divisor: "Poly") -> "Poly":
        quo, rem = self.divmod_single(divisor)
        if not rem.is_zero():
            raise ValueError("division is not exact")
        return quo

    # -- evaluation / substitution ------------------------------------------

    def eval(self, point) -> Fraction:
        total = ZERO
        pt = [rat(x) for x in point]
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, pt):
                if e:
                    v *= x ** e
            total += v
        return total

    def substitute(self, images: list["Poly"]) -> "Poly":
        """Substitute each variable by the given polynomial (in any nvars)."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        nv = images[0].nvars
        out = Poly.zero(nv)
        for m, c in self.terms.items():
            term = Poly.const(nv, c)
            for e, img in zip(m, images):
                for _ in range(e):
                    term = term * img
            out = out + term
        return out

    # -- coefficient vectors over monomial bases ------------------------------

    def coeff_vector(self, degree: int) -> list[Fraction]:
        """Coefficients over the graded-lex basis of its degree; must be homogeneous."""
        if not self.is_homogeneous():
            raise ValueError("polynomial is not homogeneous")
        if not self.is_zero() and self.degree() != degree:
            raise ValueError(f"expected degree {degree}, found {self.degree()}")
        idx = monomial_index(self.nvars, degree)
        vec = [ZERO] * len(idx)
        for m, c in self.terms.items():
            vec[idx[m]] = c
        return vec

    @staticmethod
    def from_coeff_vector(nvars: int, degree: int, vec) -> "Poly":
        basis = monomial_basis(nvars, degree)
        return Poly(nvars, {m: rat(c) for m, c in zip(basis, vec) if c})

    # -- strings -----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m in sorted(self.terms, key=self._key, reverse=True):
            c = self.terms[m]
            factors = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(m) if e]
            body = "*".join(factors)
            if not body:
                parts.append((c, rat_str(c)))
                continue
            if c == 1:
                parts.append((c, body))
            elif c == -1:
                parts.append((c, "-" + body))
            else:
                parts.append((c, f"{rat_str(c)}*{body}"))
        text = parts[0][1]
        for _, piece in parts[1:]:
            text += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return text

    __repr__ = __str__

    @staticmethod
    def parse(text: str, nvars: int) -> "Poly":
        return _PolyParser(text, nvars).parse()


_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|(x\d+)|(\*\*|[()+\-*^]))")


class _PolyParser:
    """Recursive-descent parser for '+ - * ^ ( )' with implicit multiplication."""

    def __init__(self, text: str, nvars: int):
        self.nvars = nvars
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str):
        tokens, i = [], 0
        while i < len(text):
            m = _TOKEN.match(text, i)
            if not m or m.end() == i:
                if text[i:].strip():
                    raise ValueError(f"bad polynomial syntax near {text[i:i+12]!r}")
                break
            num, var, op = m.groups()
            if num:
                tokens.append(("num", num))
            elif var:
                tokens.append(("var", int(var[1:])))
            else:
                tokens.append(("op", "^" if op == "**" else op))
            i = m.end()
        return tokens

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def parse(self) -> Poly:
        p = self._expr()
        if self.pos != len(self.tokens):
            raise ValueError("trailing tokens in polynomial")
        return p

    def _expr(self) -> Poly:
        kind, val = self._peek()
        neg = False
        if kind == "op" and val in "+-":
            self.pos += 1
            neg = val == "-"
        out = self._term()
        if neg:
            out = -out
        while True:
            kind, val = self._peek()
            if kind == "op" and val in "+-":
                self.pos += 1
                nxt = self._term()
                out = out - nxt if val == "-" else out + nxt
            else:
                return out

    def _term(self) -> Poly:
        out = self._power()
        while True:
            kind, val = self._peek()
            if kind == "op" and val == "*":
                self.pos += 1
                out = out * self._power()
            elif kind in ("num", "var") or (kind == "op" and val == "("):
                out = out * self._power()
            else:
                return out

    def _power(self) -> Poly:
        base = self._atom()
        kind, val = self._peek()
        if kind == "op" and val == "^":
            self.pos += 1
            kind, val = self._peek()
            if kind != "num" or "/" in str(val):
                raise ValueError("exponent must be a nonnegative integer")
            self.pos += 1
            e = int(val)
            out = Poly.const(self.nvars, 1)
            for _ in range(e):
                out = out * base
            return out
        return base

    def _atom(self) -> Poly:
        kind, val = self._peek()
        if kind == "num":
            self.pos += 1
            return Poly.const(self.nvars, Fraction(val))
        if kind == "var":
            self.pos += 1
            if val >= self.nvars:
                raise ValueError(f"variable x{val} out of range (nvars={self.nvars})")
            return Poly.var(self.nvars, val)
        if kind == "op" and val == "(":
            self.pos += 1
            inner = self._expr()
            kind, val = self._peek()
            if kind != "op" or val != ")":
                raise ValueError("unbalanced parentheses")
            self.pos += 1
            return inner
        raise ValueError("unexpected token in polynomial")


# ----------------------------------------------------------------------
# multivariate gcd over the rationals (primitive PRS)
# ----------------------------------------------------------------------


def _int_content_and_primitive(p: Poly) -> tuple[Fraction, Poly]:
    """Write p = c * q with q having coprime integer coefficients, c > 0."""
    if p.is_zero():
        return ZERO, p
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    nums = [int(c * den) for c in p.terms.values()]
    g = 0
    for v in nums:
        g = gcd(g, abs(v))
    content = Fraction(g, den)
    return content, p.scale(1 / content)


def _normalize_sign(p: Poly) -> Poly:
    if p.is_zero():
        return p
    return -p if p.leading_coeff() < 0 else p


def _main_var(p: Poly, q: Poly) -> int | None:
    for i in range(max(p.nvars, q.nvars) - 1, -1, -1):
        if any(m[i] for m in p.terms) or any(m[i] for m in q.terms):
            return i
    return None


def _as_univariate(p: Poly, v: int) -> dict[int, Poly]:
    out: dict[int, Poly] = {}
    for m, c in p.terms.items():
        d = m[v]
        rest = m[:v] + (0,) + m[v + 1:]
        out.setdefault(d, Poly.zero(p.nvars))
        out[d] = out[d] + Poly.monomial(p.nvars, rest, c)
    return {d: q for d, q in out.items() if not q.is_zero()}


def _from_univariate(coeffs: dict[int, Poly], v: int, nvars: int) -> Poly:
    out = Poly.zero(nvars)
    for d, q in coeffs.items():
        out = out + q * Poly.var(nvars, v, d)
    return out


def _uni_degree(coeffs: dict[int, Poly]) -> int:
    return max(coeffs, default=-1)


def _pseudo_rem(a: dict[int, Poly], b: dict[int, Poly], v: int, nvars: int) -> dict[int, Poly]:
    da, db = _uni_degree(a), _uni_degree(b)
    lb = b[db]
    cur = dict(a)
    while cur and _uni_degree(cur) >= db:
        dc = _uni_degree(cur)
        lc = cur[dc]
        new: dict[int, Poly] = {}
        for d, q in cur.items():
            new[d] = q * lb
        for d, q in b.items():
            shifted = d + dc - db
            new.setdefault(shifted, Poly.zero(nvars))
            new[shifted] = new[shifted] - q * lc
        cur = {d: q for d, q in new.items() if not q.is_zero()}
    return cur


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Exact gcd over Q, normalized primitive with positive leading coefficient."""
    if p.is_zero() and q.is_zero():
        return p
    if p.is_zero():
        return _normalize_sign(_int_content_and_primitive(q)[1])
    if q.is_zero():
        return _normalize_sign(_int_content_and_primitive(p)[1])
    v = _main_var(p, q)
    if v is None:
        return Poly.const(p.nvars, 1)
    a, b = _as_univariate(p, v), _as_univariate(q, v)

    def content(coeffs: dict[int, Poly]) -> Poly:
        vals = list(coeffs.values())
        g = vals[0]
        for w in vals[1:]:
            g = poly_gcd(g, w)
        return g

    ca, cb = content(a), content(b)
    cg = poly_gcd(ca, cb)
    pa = {d: c.exact_div(ca) for d, c in a.items()}
    pb = {d: c.exact_div(cb) for d, c in b.items()}
    if _uni_degree(pa) < _uni_degree(pb):
        pa, pb = pb, pa
    while pb:
        rem = _pseudo_rem(pa, pb, v, p.nvars)
        pa, pb = pb, rem
        if pb:
            poly_form = _from_univariate(pb, v, p.nvars)
            cont = content(pb)
            _, prim = _int_content_and_primitive(poly_form.exact_div(cont) if not cont.is_zero() else poly_form)
            pb = _as_univariate(prim, v)
    result = _from_univariate(pa, v, p.nvars) * cg
    _, prim = _int_content_and_primitive(result)
    return _normalize_sign(prim)


def poly_gcd_many(polys: list[Poly]) -> Poly:
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        raise ValueError("gcd of an empty or all-zero family")
    g = nonzero[0]
    for p in nonzero[1:]:
        g = poly_gcd(g, p)
        if g.degree() == 0:
            break
    return _normalize_sign(_int_content_and_primitive(g)[1])
