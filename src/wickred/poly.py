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

from dataclasses import dataclass
from functools import cached_property

from . import sparse
from .scalar import GaussianRational, ONE, ZERO


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

    def _quad_terms(self, block: str) -> dict:
        iz = self.iz if block == "z" else self.iw
        izb = self.izb if block == "z" else self.iwb
        terms = {}
        for k in range(self.nv):
            exps = [0] * self.nvars
            exps[iz(k)] = 1
            exps[izb(k)] = 1
            c = ONE if self.metric[k] == 1 else -ONE
            terms[sparse.pack(exps)] = c
        return terms

    @cached_property
    def x_terms(self) -> dict:
        return self._quad_terms("z")

    @cached_property
    def xw_terms(self) -> dict:
        return self._quad_terms("w")

    @cached_property
    def x_lead_key(self) -> int:
        return max(self.x_terms)

    @cached_property
    def xw_lead_key(self) -> int:
        return max(self.xw_terms)

    def _null_values(self, for_w: bool) -> tuple:
        # integer point with x = 0 (z and zb taken independent); used as a
        # cheap certificate that a polynomial is NOT divisible by x
        zs = [1] + [k + 2 for k in range(1, self.nv)]
        zbs = [1] * self.nv
        s = sum(self.metric[k] * zs[k] for k in range(1, self.nv))
        zbs[0] = -self.metric[0] * s
        vals = [GaussianRational(v) for v in zs + zbs]
        ones = [ONE] * (2 * self.nv)
        if self.two_point:
            vals = (ones + vals) if for_w else (vals + ones)
        return tuple(vals)

    @cached_property
    def null_point_z(self) -> tuple:
        return self._null_values(for_w=False)

    @cached_property
    def null_point_w(self) -> tuple:
        return self._null_values(for_w=True)

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
        exps = [0] * space.nvars
        exps[idx] = 1
        return cls(space, {sparse.pack(exps): ONE})

    @classmethod
    def x(cls, space):
        return cls(space, dict(space.x_terms))

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
        return Poly(self.space, sparse.tpow(self.terms, e, self.space.nvars))

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
        out = {}
        for k, c in self.terms.items():
            exps = list(sparse.unpack(k, space.nvars))
            exps[0:nv], exps[nv : 2 * nv] = exps[nv : 2 * nv], exps[0:nv]
            if space.two_point:
                exps[2 * nv : 3 * nv], exps[3 * nv : 4 * nv] = (
                    exps[3 * nv : 4 * nv],
                    exps[2 * nv : 3 * nv],
                )
            out[sparse.pack(exps)] = c.conj()
        return Poly(space, out)

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
        if block == "z":
            null_pt, div_terms, lead = space.null_point_z, space.x_terms, space.x_lead_key
            ia, ib = space.iz(space.n), space.izb(space.n)
        else:
            null_pt, div_terms, lead = space.null_point_w, space.xw_terms, space.xw_lead_key
            ia, ib = space.iw(space.n), space.iwb(space.n)
        if self.eval(null_pt):
            return None
        nvars = space.nvars
        sa, sb = sparse.SLOT * ia, sparse.SLOT * ib
        rest = [(k, c) for k, c in div_terms.items() if k != lead]
        r = dict(self.terms)
        q = {}
        while r:
            kl = max(r)
            if not ((kl >> sa) & sparse.MASK and (kl >> sb) & sparse.MASK):
                return None
            t = kl - lead
            c = r[kl]
            del r[kl]
            q[t] = c
            for km, cm in rest:
                k = t + km
                sub = c * cm
                prev = r.get(k)
                if prev is None:
                    r[k] = -sub
                else:
                    s = prev - sub
                    if s:
                        r[k] = s
                    else:
                        del r[k]
        return Poly(space, q)

    # ------------------------------------------------------------------
    def degrees(self, key: int) -> tuple:
        """(z-degree, zb-degree[, w-degree, wb-degree]) of one monomial."""
        space = self.space
        nv = space.nv
        zd = sum(sparse.exponent(key, space.iz(k)) for k in range(nv))
        zbd = sum(sparse.exponent(key, space.izb(k)) for k in range(nv))
        if not space.two_point:
            return zd, zbd
        wd = sum(sparse.exponent(key, space.iw(k)) for k in range(nv))
        wbd = sum(sparse.exponent(key, space.iwb(k)) for k in range(nv))
        return zd, zbd, wd, wbd

    def sorted_items(self):
        return sorted(self.terms.items(), reverse=True)

    def __repr__(self):
        return f"Poly({len(self.terms)} terms)"


def divide_by_x(p: Poly):
    """Exact divisibility test by the metric quadratic; returns the
    quotient or None.  See Poly.divided_by_x."""
    return p.divided_by_x("z")


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

    def _canonicalize(self):
        if self.num.is_zero():
            self.mz = 0
            self.mw = 0
            return
        while True:
            q = self.num.divided_by_x("z")
            if q is None:
                break
            self.num = q
            self.mz -= 1
        if self.space.two_point:
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
        mz = max(self.mz, other.mz)
        mw = max(self.mw, other.mw)
        a = self.num
        b = other.num
        if mz > self.mz or mw > self.mw:
            a = a * _x_pow_poly(self.space, mz - self.mz, mw - self.mw)
        if mz > other.mz or mw > other.mw:
            b = b * _x_pow_poly(self.space, mz - other.mz, mw - other.mw)
        return LaurentElem(a + b, mz, mw)

    def __sub__(self, other):
        return self + (-other)

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
            return self.inverse().pow(-e)
        result = None
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                break
            base = base * base
        return result

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
        in_w_block = space.two_point and var >= 2 * space.nv
        if not in_w_block:
            dnum = self.num.diff(var)
            if self.mz == 0:
                return LaurentElem(dnum, 0, self.mw)
            k = var if var < space.nv else var - space.nv
            sign = space.metric[k]
            partner = space.izb(k) if var < space.nv else space.iz(k)
            dx = Poly.variable(space, partner).scale(sign)
            num = dnum * Poly.x(space) - (self.num * dx).scale(self.mz)
            return LaurentElem(num, self.mz + 1, self.mw)
        dnum = self.num.diff(var)
        if self.mw == 0:
            return LaurentElem(dnum, self.mz, 0)
        k = var - 2 * space.nv
        if k >= space.nv:
            k -= space.nv
            partner = space.iw(k)
        else:
            partner = space.iwb(k)
        sign = space.metric[k]
        dx = Poly.variable(space, partner).scale(sign)
        xw = Poly(space, dict(space.xw_terms))
        num = dnum * xw - (self.num * dx).scale(self.mw)
        return LaurentElem(num, self.mz, self.mw + 1)

    # ------------------------------------------------------------------
    # homogeneity structure

    def bidegree(self):
        """(a, b) with a = z-degree - x-power, b = zb-degree - x-power,
        when all monomials agree; None otherwise."""
        if self.num.is_zero():
            return (0, 0)
        seen = None
        for key in self.num.terms:
            zd, zbd = self.num.degrees(key)[:2]
            cur = (zd - self.mz, zbd - self.mz)
            if seen is None:
                seen = cur
            elif seen != cur:
                return None
        return seen

    def is_homogeneous(self) -> bool:
        return self.bidegree() == (0, 0)

    def is_invariant(self) -> bool:
        """Invariance under the circle action: every monomial has equal
        z- and zb-degree (the kernel of the rotation operator Y)."""
        for key in self.num.terms:
            zd, zbd = self.num.degrees(key)[:2]
            if zd != zbd:
                return False
        return True

    def is_doubly_homogeneous(self) -> bool:
        if not self.space.two_point:
            raise ValueError("needs a two-point space")
        for key in self.num.terms:
            zd, zbd, wd, wbd = self.num.degrees(key)
            if not (zd == zbd == self.mz and wd == wbd == self.mw):
                return False
        return True

    def euler(self, which: str):
        """Euler/rotation operators: E, Ebar, Y, or the four-variable H.

        All four are diagonal on monomials of the Laurent class, so they
        reduce to per-term integer scalings.
        """
        space = self.space
        out = {}
        for key, c in self.num.terms.items():
            degs = self.num.degrees(key)
            if which == "E":
                f = degs[0] - self.mz
            elif which == "Ebar":
                f = degs[1] - self.mz
            elif which == "Y":
                f = degs[0] - degs[1]
            elif which == "H":
                if not space.two_point:
                    raise ValueError("H needs a two-point space")
                f = (degs[0] - self.mz) + (degs[1] - self.mz) + (degs[2] - self.mw) + (
                    degs[3] - self.mw
                )
            else:
                raise ValueError(f"unknown Euler operator {which!r}")
            if f:
                v = c * f
                if which == "Y":
                    v = v * GaussianRational(0, 1)
                out[key] = v
        return LaurentElem(Poly(space, out), self.mz, self.mw)

    def dx(self):
        """d/dx on invariant elements, realized as (E + Ebar) / (2x)."""
        out = {}
        for key, c in self.num.terms.items():
            zd, zbd = self.num.degrees(key)[:2]
            if zd != zbd:
                raise ValueError("d/dx is only defined on invariant elements")
            f = zd - self.mz
            if f:
                out[key] = c * f
        return LaurentElem(Poly(self.space, out), self.mz + 1, self.mw)

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
        zs = [GaussianRational.coerce(v) if not isinstance(v, GaussianRational) else v for v in zs]
        if len(zs) != space.nv:
            raise ValueError(f"need {space.nv} coordinates")
        values = list(zs) + [v.conj() for v in zs]
        if space.two_point:
            if ws is None:
                raise ValueError("two-point element needs w coordinates")
            ws = [GaussianRational.coerce(v) if not isinstance(v, GaussianRational) else v for v in ws]
            values += list(ws) + [v.conj() for v in ws]
        total = self.num.eval(values)
        for m, block_vals in ((self.mz, zs), (self.mw, ws or [])):
            if m == 0:
                continue
            xv = ZERO
            for k, v in enumerate(block_vals):
                xv = xv + (v * v.conj()).scale(space.metric[k])
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


def _x_pow_poly(space: VarSpace, ez: int, ew: int = 0) -> Poly:
    p = Poly.one(space)
    if ez:
        p = p * Poly.x(space).pow(ez) if ez > 1 else p * Poly.x(space)
    if ew:
        xw = Poly(space, dict(space.xw_terms))
        p = p * xw.pow(ew) if ew > 1 else p * xw
    return p


def euler_ops(p: LaurentElem, which: str) -> LaurentElem:
    """Euler/rotation operators E, Ebar, Y, H on a Laurent element."""
    return p.euler(which)


def is_radial(elem: LaurentElem) -> bool:
    """A Laurent element is radial iff every homogeneous slice of its peel
    is a scalar, i.e. it is a polynomial in x and 1/x."""
    if not elem.is_invariant():
        return False
    return all(h.num.is_scalar() for h in elem.peel().values())


def dx_invariant(elem: LaurentElem) -> LaurentElem:
    return elem.dx()
