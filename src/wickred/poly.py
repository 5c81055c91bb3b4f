"""Sparse polynomials in z^0..z^n, zb^0..zb^n (optionally w, wb) and their
localization at the metric quadratic x.

z and zb are independent commuting variables; complex conjugation of an
element swaps the two blocks and conjugates coefficients, and ``eval`` ties
them back together by substituting conj(z) for zb.  The distinguished
quadratic is

    x = sum_k g_kk * z^k * zb^k

(with g the diagonal metric; all +1 for the projective-space setup, else
(-1, 1, ..., 1)).  The test-function class of the whole package is the
localization of the polynomial ring at x: elements P * x^(-m), kept in the
canonical form where x does not divide P.  The class is closed under every
operator used downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import sparse
from .scalar import GaussianRational, ONE, ZERO, power


class Quad(NamedTuple):
    """One localizing quadratic: its terms, their leading key, and an
    integer point where it vanishes."""

    terms: dict
    lead: int
    null_point: tuple


@dataclass(frozen=True)
class VarSpace:
    """Variable layout: n+1 complex coordinates, a diagonal metric and an
    optional second point (w, wb) for the two-point operators."""

    n: int
    metric: tuple
    two_point: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if len(self.metric) != self.n + 1 or any(s not in (1, -1) for s in self.metric):
            raise ValueError("metric must be n+1 signs +-1")

    @classmethod
    def cpn(cls, n: int, two_point: bool = False) -> "VarSpace":
        return cls(n, (1,) * (n + 1), two_point)

    @classmethod
    def dn(cls, n: int, two_point: bool = False) -> "VarSpace":
        return cls(n, (-1,) + (1,) * n, two_point)

    @property
    def nv(self) -> int:
        return self.n + 1

    @cached_property
    def nvars(self) -> int:
        return 2 * self.nv * (2 if self.two_point else 1)

    # variable slots: z^0..z^n, zb^0..zb^n, then w^0..w^n, wb^0..wb^n
    def iz(self, k: int) -> int:
        return k

    def izb(self, k: int) -> int:
        return self.nv + k

    def iw(self, k: int) -> int:
        return 2 * self.nv + k

    def iwb(self, k: int) -> int:
        return 3 * self.nv + k

    @cached_property
    def var_names(self) -> tuple:
        names = [f"z{k}" for k in range(self.nv)] + [f"zb{k}" for k in range(self.nv)]
        if self.two_point:
            names += [f"w{k}" for k in range(self.nv)] + [f"wb{k}" for k in range(self.nv)]
        return tuple(names)

    @cached_property
    def var_keys(self) -> tuple:
        # packed key of each single variable, by slot
        return sparse.var_keys(self.nvars)

    @cached_property
    def x_pow_memo(self) -> dict:
        # (ez, ew) -> the Poly x^ez * xw^ew, filled by _x_pow_poly
        return {}

    @cached_property
    def quads(self) -> dict:
        """Block ("z", plus "w" on two-point spaces) -> its localizing
        quadratic, x = sum_k g_kk z^k zb^k or xw = sum_k g_kk w^k wb^k.

        Its null point is an integer point where it vanishes (z and zb
        taken independent, every other coordinate 1): a cheap certificate
        that a polynomial is NOT divisible by the quadratic.
        """
        nv, vk = self.nv, self.var_keys
        zs = [1] + [k + 2 for k in range(1, nv)]
        zbs = [-self.metric[0] * sum(self.metric[k] * zs[k] for k in range(1, nv))] + [1] * (nv - 1)
        vals = [GaussianRational(v) for v in zs + zbs]
        ones = [ONE] * (2 * nv)
        blocks = ("z", "w") if self.two_point else ("z",)
        out = {}
        for b, block in enumerate(blocks):
            off = 2 * nv * b
            terms = {vk[off + k] + vk[off + nv + k]: ONE if self.metric[k] == 1 else -ONE
                     for k in range(nv)}
            null_point = tuple(ones * b + vals + ones * (len(blocks) - 1 - b))
            out[block] = Quad(terms, max(terms), null_point)
        return out

    def one_point(self) -> "VarSpace":
        return VarSpace(self.n, self.metric, False)

    def with_two_point(self) -> "VarSpace":
        return VarSpace(self.n, self.metric, True)


class Poly:
    """Sparse polynomial over GaussianRational with packed exponents."""

    __slots__ = ("space", "terms")

    def __init__(self, space: VarSpace, terms: dict):
        self.space = space
        self.terms = terms

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, space):
        return cls(space, {})

    @classmethod
    def scalar(cls, space, c):
        c = GaussianRational.coerce(c)
        return cls(space, {0: c} if c else {})

    @classmethod
    def one(cls, space):
        return cls(space, {0: ONE})

    @classmethod
    def variable(cls, space, idx):
        return cls(space, {space.var_keys[idx]: ONE})

    @classmethod
    def x(cls, space):
        return cls(space, dict(space.quads["z"].terms))

    @classmethod
    def from_exponent_map(cls, space, mapping):
        terms = {}
        for exps, c in mapping.items():
            c = GaussianRational.coerce(c)
            if c:
                terms[sparse.pack(exps)] = c
        return cls(space, terms)

    # ------------------------------------------------------------------
    def _check(self, other):
        if self.space != other.space:
            raise ValueError("polynomials live in different variable spaces")

    def __add__(self, other):
        self._check(other)
        return Poly(self.space, sparse.tadd(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        return Poly(self.space, sparse.tsub(self.terms, other.terms))

    def __neg__(self):
        return Poly(self.space, sparse.tneg(self.terms))

    def __mul__(self, other):
        self._check(other)
        return Poly(self.space, sparse.tmul(self.terms, other.terms, self.space.nvars))

    def scale(self, c):
        return Poly(self.space, sparse.tscale(self.terms, GaussianRational.coerce(c)))

    def pow(self, e: int):
        if e == 0:
            return Poly.one(self.space)
        return power(self, e)

    def diff(self, var: int):
        return Poly(self.space, sparse.tdiff(self.terms, var, self.space.nvars))

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def scalar_value(self) -> GaussianRational:
        if not self.terms:
            return ZERO
        return self.terms[0]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("Poly is unhashable")

    def eval(self, values) -> GaussianRational:
        if not self.terms:
            return ZERO
        return sparse.teval(self.terms, values, self.space.nvars)

    def conj(self) -> "Poly":
        space = self.space
        nv = space.nv
        vk = space.var_keys
        # swap the blocks z <-> zb (and w <-> wb)
        images = vk[nv:2 * nv] + vk[:nv]
        if space.two_point:
            images += vk[3 * nv:] + vk[2 * nv:3 * nv]
        terms = sparse.rekey(self.terms, images, space.nvars)
        return Poly(space, {k: c.conj() for k, c in terms.items()})

    # ------------------------------------------------------------------
    # division by the quadratic x (single-divisor reduction)

    def divided_by_x(self, block: str = "z"):
        """Return q with self = x * q, or None when x does not divide self.

        Reduction by the single divisor x under the packed graded order
        (leading monomial z^n*zb^n, unit leading coefficient): remainder
        zero is an exact divisibility test for a principal ideal.  A fixed
        integer point with x = 0 rejects most non-multiples first: a
        multiple of x vanishes there, so a nonzero value proves x does not
        divide.  That value is computed exactly by ``sparse.teval`` on
        integer triples (one power table per coordinate other than 1, one
        normalization per call), so the certificate costs a few int
        multiplies per term; a zero value falls through to the division.
        """
        if not self.terms:
            return Poly.zero(self.space)
        space = self.space
        quad = space.quads[block]
        if self.eval(quad.null_point):
            return None
        # over the common denominator every coefficient is a Gaussian
        # integer (p, q); x has coefficients +-1, so each step is integer
        # addition and only the quotient terms are normalized
        den = math.lcm(*(c.d for c in self.terms.values()))
        r = {k: (c.p * (den // c.d), c.q * (den // c.d)) for k, c in self.terms.items()}
        lead = quad.lead
        rest = [(k, c.p) for k, c in quad.terms.items() if k != lead]
        norm = GaussianRational._norm
        q = {}
        while r:
            kl = max(r)
            if not sparse.divides(lead, kl, space.nvars):
                return None
            t = kl - lead
            p, pi = r.pop(kl)
            q[t] = norm(p, pi, den)
            for km, s in rest:
                k = t + km
                prev = r.get(k)
                if prev is None:
                    r[k] = (-s * p, -s * pi)
                else:
                    sp, si = prev[0] - s * p, prev[1] - s * pi
                    if sp or si:
                        r[k] = (sp, si)
                    else:
                        del r[k]
        return Poly(space, q)

    # ------------------------------------------------------------------
    def degrees(self, key: int) -> tuple:
        """(z-degree, zb-degree[, w-degree, wb-degree]) of one monomial."""
        return sparse.block_degrees(key, self.space.nvars, self.space.nv)

    def sorted_items(self):
        return sorted(self.terms.items(), reverse=True)

    def __repr__(self):
        return f"Poly({len(self.terms)} terms)"


class LaurentElem:
    """P * x^(-mz) (and * xw^(-mw) on two-point spaces), P a Poly.

    Canonical form: P not divisible by x (nor xw), or P = 0 with both
    powers zero.  mz and mw may be negative; x itself is (1, mz=-1).
    Uniqueness follows from x being irreducible (a quadratic form of rank
    2(n+1) >= 4), which also means products of canonical elements need no
    re-canonicalization.
    """

    __slots__ = ("space", "num", "mz", "mw")

    def __init__(self, num: Poly, mz: int = 0, mw: int = 0, canonical: bool = False):
        self.space = num.space
        self.num = num
        self.mz = mz
        self.mw = mw
        if not canonical:
            self._canonicalize()

    def _canonicalize(self, z: bool = True, w: bool = True):
        """Divide x (and xw) out of the numerator while they divide it.

        A block passed as False is not tested; the caller must have proved
        that its quadratic does not divide the numerator.
        """
        if self.num.is_zero():
            self.mz = 0
            self.mw = 0
            return
        while z:
            q = self.num.divided_by_x("z")
            if q is None:
                break
            self.num = q
            self.mz -= 1
        if w and self.space.two_point:
            while True:
                q = self.num.divided_by_x("w")
                if q is None:
                    break
                self.num = q
                self.mw -= 1

    # ------------------------------------------------------------------
    @classmethod
    def zero_of(cls, space):
        return cls(Poly.zero(space), canonical=True)

    @classmethod
    def scalar(cls, space, c):
        return cls(Poly.scalar(space, c), canonical=True)

    @classmethod
    def one_of(cls, space):
        return cls(Poly.one(space), canonical=True)

    @classmethod
    def variable(cls, space, idx):
        return cls(Poly.variable(space, idx), canonical=True)

    @classmethod
    def x_power(cls, space, j: int, block: str = "z"):
        """x^j as a Laurent element (j of either sign)."""
        if block == "z":
            return cls(Poly.one(space), mz=-j, canonical=True)
        return cls(Poly.one(space), mw=-j, canonical=True)

    @classmethod
    def from_poly(cls, num: Poly, mz: int = 0, mw: int = 0):
        return cls(num, mz, mw)

    # ------------------------------------------------------------------
    def _check(self, other):
        if self.space != other.space:
            raise ValueError("elements live in different variable spaces")

    def __add__(self, other):
        self._check(other)
        if other.num.is_zero():
            return self
        if self.num.is_zero():
            return other
        mz = max(self.mz, other.mz)
        mw = max(self.mw, other.mw)
        a = self.num
        b = other.num
        if mz > self.mz or mw > self.mw:
            a = a * _x_pow_poly(self.space, mz - self.mz, mw - self.mw)
        if mz > other.mz or mw > other.mw:
            b = b * _x_pow_poly(self.space, mz - other.mz, mw - other.mw)
        # Unequal powers in a block: the sum is (one numerator) * xw^j mod x,
        # and x is prime and divides neither factor, so that block is
        # already canonical.  Likewise for xw.
        out = LaurentElem(a + b, mz, mw, canonical=True)
        out._canonicalize(z=self.mz == other.mz, w=self.mw == other.mw)
        return out

    def __sub__(self, other):
        return self + (-other)

    @classmethod
    def sum_of_products(cls, space, items):
        """sum c*A*B over (c, A, B) items, c an int or a real Fraction:
        every product is summed on integer triples and the sum is
        canonicalized once.

        Each summand is lifted to the top x and xw powers.  Summands that
        share a lift x^dz*xw^dw are accumulated together, and that partial
        sum is multiplied by x^dz*xw^dw once.  A block is tested for division
        by its quadratic only when two or more summands reach its top power:
        modulo x only those summands survive, each a c*P_A*P_B times a power
        of xw, and the prime x divides no canonical numerator and not xw, so
        a single one leaves the sum prime to x.  Likewise for xw.
        """
        live = [(c, a, b, a.mz + b.mz, a.mw + b.mw)
                for c, a, b in items if c and a.num.terms and b.num.terms]
        if not live:
            return cls.zero_of(space)
        nvars = space.nvars
        mz = max(t[3] for t in live)
        mw = max(t[4] for t in live)
        groups = {}
        for c, a, b, pz, pw in live:
            acc = groups.setdefault((mz - pz, mw - pw), {})
            sparse.tmac(acc, a.num.terms, b.num.terms, nvars, c)
        total = groups.pop((0, 0), {})
        for (dz, dw), acc in groups.items():
            sparse.tmac(total, sparse.tnorm(acc), _x_pow_poly(space, dz, dw).terms, nvars)
        out = cls(Poly(space, sparse.tnorm(total)), mz, mw, canonical=True)
        out._canonicalize(z=sum(t[3] == mz for t in live) > 1,
                          w=sum(t[4] == mw for t in live) > 1)
        return out

    def __neg__(self):
        return LaurentElem(-self.num, self.mz, self.mw, canonical=True)

    def __mul__(self, other):
        self._check(other)
        num = self.num * other.num
        if num.is_zero():
            return LaurentElem.zero_of(self.space)
        # x irreducible: product of x-free numerators stays x-free
        return LaurentElem(num, self.mz + other.mz, self.mw + other.mw, canonical=True)

    def scale(self, c):
        num = self.num.scale(c)
        if num.is_zero():
            return LaurentElem.zero_of(self.space)
        return LaurentElem(num, self.mz, self.mw, canonical=True)

    def mul_xpow(self, j: int, block: str = "z"):
        """Multiply by x^j (or xw^j); stays canonical, costs nothing."""
        if self.num.is_zero():
            return self
        if block == "z":
            return LaurentElem(self.num, self.mz - j, self.mw, canonical=True)
        return LaurentElem(self.num, self.mz, self.mw - j, canonical=True)

    def pow(self, e: int):
        if e == 0:
            return LaurentElem.one_of(self.space)
        if e < 0:
            return power(self.inverse(), -e)
        return power(self, e)

    def inverse(self):
        """Inverse when the element is a unit c * x^j of the localization."""
        if not self.num.is_scalar() or self.num.is_zero():
            raise ValueError("element is not invertible in the Laurent class")
        c = self.num.scalar_value().inverse()
        return LaurentElem(Poly.scalar(self.space, c), -self.mz, -self.mw, canonical=True)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentElem)
            and self.space == other.space
            and self.mz == other.mz
            and self.mw == other.mw
            and self.num == other.num
        )

    def __hash__(self):
        raise TypeError("LaurentElem is unhashable")

    def eq_cross_mult(self, other) -> bool:
        """Equality via cross-multiplication (no canonical forms needed)."""
        self._check(other)
        dz = other.mz - self.mz
        dw = other.mw - self.mw
        a = self.num * _x_pow_poly(self.space, max(dz, 0), max(dw, 0))
        b = other.num * _x_pow_poly(self.space, max(-dz, 0), max(-dw, 0))
        return a == b

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def one(self):
        return LaurentElem.one_of(self.space)

    def zero(self):
        return LaurentElem.zero_of(self.space)

    def conj(self):
        return LaurentElem(self.num.conj(), self.mz, self.mw, canonical=True)

    # ------------------------------------------------------------------
    def diff(self, var: int):
        """Exact partial derivative (quotient rule on the x powers)."""
        space = self.space
        nv = space.nv
        dnum = self.num.diff(var)
        in_w_block = space.two_point and var >= 2 * nv
        m = self.mw if in_w_block else self.mz
        if m == 0:
            return LaurentElem(dnum, self.mz, self.mw)
        # d(P / q^m) = (q dP - m P dq) / q^(m+1), q the block's quadratic and
        # dq = g_kk times the partner variable (z^k <-> zb^k, w^k <-> wb^k)
        k = var % nv
        partner = var - nv if (var // nv) & 1 else var + nv
        quad = space.quads["w" if in_w_block else "z"].terms
        acc = sparse.tmac({}, dnum.terms, quad, space.nvars)
        sparse.tmac(acc, self.num.terms, {space.var_keys[partner]: ONE}, space.nvars,
                    -m * space.metric[k])
        num = Poly(space, sparse.tnorm(acc))
        # num = -m * P * dq mod q with m != 0, and the prime q divides neither
        # P nor the variable dq: only the other block needs the test
        if in_w_block:
            out = LaurentElem(num, self.mz, self.mw + 1, canonical=True)
            out._canonicalize(w=False)
        else:
            out = LaurentElem(num, self.mz + 1, self.mw, canonical=True)
            out._canonicalize(z=False)
        return out

    # ------------------------------------------------------------------
    # homogeneity structure

    def bidegree(self):
        """(a, b) with a = z-degree - x-power, b = zb-degree - x-power,
        when all monomials agree; None otherwise."""
        if self.num.is_zero():
            return (0, 0)
        seen = {(d[0] - self.mz, d[1] - self.mz) for d in map(self.num.degrees, self.num.terms)}
        return seen.pop() if len(seen) == 1 else None

    def is_homogeneous(self) -> bool:
        return self.bidegree() == (0, 0)

    def is_invariant(self) -> bool:
        """Invariance under the circle action: every monomial has equal
        z- and zb-degree (the kernel of the rotation operator Y)."""
        return all(d[0] == d[1] for d in map(self.num.degrees, self.num.terms))

    def is_doubly_homogeneous(self) -> bool:
        if not self.space.two_point:
            raise ValueError("needs a two-point space")
        return all(zd == zbd == self.mz and wd == wbd == self.mw
                   for zd, zbd, wd, wbd in map(self.num.degrees, self.num.terms))

    def weighted(self, weight, lift: int = 0):
        """The diagonal map behind every Euler-type operator: each monomial
        times ``weight(d)``, then divided by x^lift.

        d lists the monomial's degrees as a function, (z, zb[, w, wb])
        net of the x and xw powers, so E, Ebar, Y, H, d/dx and E_z + Ebar_w
        differ only in their weight.
        """
        shift = (self.mz, self.mz, self.mw, self.mw)
        out = {}
        for key, c in self.num.terms.items():
            f = weight([d - s for d, s in zip(self.num.degrees(key), shift)])
            if f:
                out[key] = c * f
        return LaurentElem(Poly(self.space, out), self.mz + lift, self.mw)

    def euler(self, which: str):
        """Euler/rotation operators: E, Ebar, Y, or the four-variable H."""
        weight = _EULER_WEIGHTS.get(which)
        if weight is None:
            raise ValueError(f"unknown Euler operator {which!r}")
        if which == "H" and not self.space.two_point:
            raise ValueError("H needs a two-point space")
        return self.weighted(weight)

    def dx(self):
        """d/dx on invariant elements, realized as (E + Ebar) / (2x)."""
        if not self.is_invariant():
            raise ValueError("d/dx is only defined on invariant elements")
        return self.weighted(lambda d: d[0], 1)

    def peel(self) -> dict:
        """Decompose an invariant element as sum_j h_j * x^j with each h_j
        homogeneous of degree (0, 0); returns {j: h_j}."""
        groups = {}
        for key, c in self.num.terms.items():
            zd, zbd = self.num.degrees(key)[:2]
            if zd != zbd:
                raise ValueError("cannot peel a non-invariant element")
            groups.setdefault(zd, {})[key] = c
        return {
            d - self.mz: LaurentElem(Poly(self.space, terms), d)
            for d, terms in groups.items()
        }

    # ------------------------------------------------------------------
    def eval(self, zs, ws=None) -> GaussianRational:
        """Exact evaluation with zb = conj(z) (and wb = conj(w))."""
        space = self.space
        zs = [GaussianRational.coerce(v) for v in zs]
        if len(zs) != space.nv:
            raise ValueError(f"need {space.nv} coordinates")
        values = list(zs) + [v.conj() for v in zs]
        if space.two_point:
            if ws is None:
                raise ValueError("two-point element needs w coordinates")
            ws = [GaussianRational.coerce(v) for v in ws]
            values += list(ws) + [v.conj() for v in ws]
        total = self.num.eval(values)
        for block, m in (("z", self.mz), ("w", self.mw)):
            if m == 0:
                continue
            xv = sparse.teval(space.quads[block].terms, values, space.nvars)
            if m > 0 and not xv:
                raise ZeroDivisionError("evaluation point lies on the null set x = 0")
            total = total * xv.inverse() ** m if m > 0 else total * xv ** (-m)
        return total

    # ------------------------------------------------------------------
    def to_obj(self):
        obj = {
            "terms": [
                {"e": list(sparse.unpack(k, self.space.nvars)), "c": c.token()}
                for k, c in self.num.sorted_items()
            ],
            "xpow": self.mz,
        }
        if self.space.two_point:
            obj["xwpow"] = self.mw
        return obj

    def __str__(self):
        from .parser import format_elem

        return format_elem(self)

    def __repr__(self):
        return f"LaurentElem({len(self.num.terms)} terms, mz={self.mz})"


_EULER_WEIGHTS = {
    "E": lambda d: d[0],
    "Ebar": lambda d: d[1],
    "Y": lambda d: GaussianRational(0, d[0] - d[1]),
    "H": sum,
}


def _x_pow_poly(space: VarSpace, ez: int, ew: int = 0) -> Poly:
    """x^ez * xw^ew (ez, ew >= 0), built once per space.  The Poly is
    shared by every caller, so it must never be mutated."""
    memo = space.x_pow_memo
    p = memo.get((ez, ew))
    if p is None:
        p = Poly.one(space)
        for block, e in (("z", ez), ("w", ew)):
            if e:
                p = p * Poly(space, dict(space.quads[block].terms)).pow(e)
        memo[(ez, ew)] = p
    return p


def is_radial(elem: LaurentElem) -> bool:
    """A Laurent element is radial iff every homogeneous slice of its peel
    is a scalar, i.e. it is a polynomial in x and 1/x."""
    if not elem.is_invariant():
        return False
    return all(h.num.is_scalar() for h in elem.peel().values())
