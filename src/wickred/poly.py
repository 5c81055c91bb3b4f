"""Sparse polynomials in z^0..z^n, zb^0..zb^n and their localization at
the metric quadratic x.

z and zb are independent commuting variables; complex conjugation of an
element swaps the two blocks and conjugates coefficients, and ``eval`` ties
them back together by substituting conj(z) for zb.  The distinguished
quadratic is

    x = sum_k g_kk * z^k * zb^k

(with g the diagonal metric; all +1 for the projective-space setup, else
(-1, 1, ..., 1)).  The test-function class of the whole package is the
localization of the polynomial ring at x: elements P * x^(-m), kept in the
canonical form where x does not divide P.  The class is closed under every
operator used downstream.  A two-point function f(z) g(w) is not an element:
``wick.TwoPoint`` keeps it as a tensor symbol over this class.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import sparse
from .scalar import GaussianRational, ONE, ZERO, power


class Quad(NamedTuple):
    """The localizing quadratic x: its terms, their leading key, and an
    integer point where it vanishes."""

    terms: dict
    lead: int
    null_point: tuple


class VarSpace:
    """Variable layout: n+1 complex coordinates and a diagonal metric.
    Equal layouts compare and hash equal, so a VarSpace can key a cache."""

    def __init__(self, n: int, metric: tuple):
        if n < 1:
            raise ValueError("need n >= 1")
        if len(metric) != n + 1 or any(s not in (1, -1) for s in metric):
            raise ValueError("metric must be n+1 signs +-1")
        self.n, self.metric = n, metric

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.metric) == (other.n, other.metric)

    def __hash__(self):
        return hash((self.n, self.metric))

    def __repr__(self):
        return f"VarSpace(n={self.n}, metric={self.metric})"

    @classmethod
    def cpn(cls, n: int) -> "VarSpace":
        return cls(n, (1,) * (n + 1))

    @classmethod
    def dn(cls, n: int) -> "VarSpace":
        return cls(n, (-1,) + (1,) * n)

    @property
    def nv(self) -> int:
        return self.n + 1

    @cached_property
    def nvars(self) -> int:
        return 2 * self.nv

    # variable slots: z^0..z^n, then zb^0..zb^n
    def iz(self, k: int) -> int:
        return k

    def izb(self, k: int) -> int:
        return self.nv + k

    @cached_property
    def var_names(self) -> tuple:
        return tuple([f"z{k}" for k in range(self.nv)] + [f"zb{k}" for k in range(self.nv)])

    @cached_property
    def var_keys(self) -> tuple:
        # packed key of each single variable, by slot
        return sparse.var_keys(self.nvars)

    @cached_property
    def x_pow_memo(self) -> dict:
        # e -> the Poly x^e, filled by _x_pow_poly and, for 1, Poly.one
        return {}

    @cached_property
    def quad(self) -> Quad:
        """The localizing quadratic x = sum_k g_kk z^k zb^k.

        Its null point is a point of plain ints where it vanishes (z and zb
        taken independent): a cheap certificate that a polynomial is NOT
        divisible by x.
        """
        nv, vk = self.nv, self.var_keys
        zs = [1] + [k + 2 for k in range(1, nv)]
        zbs = [-self.metric[0] * sum(self.metric[k] * zs[k] for k in range(1, nv))] + [1] * (nv - 1)
        terms = {vk[k] + vk[nv + k]: ONE if self.metric[k] == 1 else -ONE for k in range(nv)}
        return Quad(terms, max(terms), tuple(zs + zbs))


class Poly:
    """Sparse polynomial over GaussianRational with packed exponents."""

    __slots__ = ("space", "terms", "view")

    def __init__(self, space: VarSpace, terms: dict):
        self.space = space
        self.terms = terms

    def __getattr__(self, name):
        # the lazy slot ``view``: sparse.tview of the terms, which never change
        if name != "view":
            raise AttributeError(f"'Poly' object has no attribute {name!r}")
        self.view = sparse.tview(self.terms, self.space.nvars)
        return self.view

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
        return space.x_pow_memo.setdefault(0, cls(space, {0: ONE}))

    @classmethod
    def variable(cls, space, idx):
        return cls(space, {space.var_keys[idx]: ONE})

    @classmethod
    def x(cls, space):
        return cls(space, dict(space.quad.terms))

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
        nv, vk = self.space.nv, self.space.var_keys
        # swap the blocks z <-> zb
        terms = sparse.rekey(self.terms, vk[nv:] + vk[:nv])
        return Poly(self.space, {k: c.conj() for k, c in terms.items()})

    # ------------------------------------------------------------------
    def divided_by_x(self):
        """Return q with self = x * q, or None when x does not divide self.

        A nonzero value at x's null point proves that x does not divide
        (``sparse.teval``, on integer triples with power tables built once
        per process); otherwise ``sparse.tdiv`` decides.  Its one caller,
        ``LaurentElem._canonicalize``, is where the certificate pays.
        """
        if not self.terms:
            return Poly.zero(self.space)
        quad = self.space.quad
        if self.eval(quad.null_point):
            return None
        q = sparse.tdiv(self.view, quad.terms, quad.lead, self.space.nvars)
        return None if q is None else Poly(self.space, q)

    # ------------------------------------------------------------------
    def degrees(self, key: int) -> tuple:
        """(z-degree, zb-degree) of one monomial."""
        return sparse.block_degrees(key, self.space.nvars, self.space.nv)

    def sorted_items(self):
        return sorted(self.terms.items(), reverse=True)

    def __repr__(self):
        return f"Poly({len(self.terms)} terms)"


class LaurentElem:
    """P * x^(-mz), P a Poly.

    Canonical form: P not divisible by x, or P = 0 with mz = 0.  mz may be
    negative; x itself is (1, mz=-1).  Uniqueness follows from x being
    irreducible (a quadratic form of rank 2(n+1) >= 4), which also means
    products of canonical elements need no re-canonicalization.  Every sum,
    ``+`` and ``-`` included, is one ``sum_of_products`` call, the one rule
    that lifts summands to a common x power and tests the result.  An element
    is never mutated once its constructor (or the ``_canonicalize`` that
    follows it) returns, so the lazy ``partials`` slot (block ->
    ``wick.DerivCache``) holds for life.
    """

    __slots__ = ("space", "num", "mz", "partials")

    def __init__(self, num: Poly, mz: int = 0, canonical: bool = False):
        self.space = num.space
        self.num = num
        self.mz = mz
        if not canonical:
            self._canonicalize()

    def _canonicalize(self):
        """Divide x out while it divides the numerator: ``Poly.divided_by_x``,
        whose certificate pays as few numerators built here divide, then
        ``sparse.tstrip``."""
        if self.num.is_zero():
            self.mz = 0
            return
        q = self.num.divided_by_x()
        if q is not None:
            space, quad = self.space, self.space.quad
            den, _, pairs = q.view
            k, rest = sparse.tstrip({0: pairs}, quad.terms, quad.lead, space.nvars)
            self.num = Poly(space, sparse.tnorm(rest[0], den))
            self.mz -= k + 1

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
    def x_power(cls, space, j: int):
        """x^j as a Laurent element (j of either sign)."""
        return cls(Poly.one(space), mz=-j, canonical=True)

    @classmethod
    def from_poly(cls, num: Poly, mz: int = 0):
        return cls(num, mz)

    # ------------------------------------------------------------------
    def _check(self, other):
        if self.space != other.space:
            raise ValueError("elements live in different variable spaces")

    def __add__(self, other):
        self._check(other)
        one = LaurentElem.one_of(self.space)
        return LaurentElem.sum_of_products(self.space, [(1, self, one), (1, other, one)])

    def __sub__(self, other):
        self._check(other)
        one = LaurentElem.one_of(self.space)
        return LaurentElem.sum_of_products(self.space, [(1, self, one), (-1, other, one)])

    @classmethod
    def sum_of_products(cls, space, items):
        """sum c*A*B over (c, A, B) items, c an int or a real Fraction:
        ``sparse.tmacs`` sums the products that share a lift x^d to the top
        x power in one group, all over one denominator, and the sum is
        canonicalized once.  A + B and A - B are the items (1, A, 1) and
        (1 or -1, B, 1).  A single summand at the top power leaves the sum
        prime to x: modulo x only the top summands survive, and the prime x
        divides no canonical numerator.  A tie is where cancellation lets x
        divide, so the groups go to ``sparse.tstrip``, with no certificate,
        before each group left is multiplied by its x^d, unnormalized.  A
        zero weight still ties: ``equiv.s_apply`` passes the z-degree slices
        of a numerator, which share its power and need not be canonical."""
        live = [(c, a.num, b.num, a.mz + b.mz) for c, a, b in items if a.num.terms and b.num.terms]
        mz = max((t[3] for t in live if t[0]), default=None)
        if mz is None:
            return cls.zero_of(space)
        nvars = space.nvars
        den, groups = sparse.tmacs([(mz - pz, c, pa.view, pb.view) for c, pa, pb, pz in live if c])
        k = 0
        if sum(t[3] == mz for t in live) > 1:
            k, groups = sparse.tstrip(groups, space.quad.terms, space.quad.lead, nvars)
        total = groups.pop(0, {})
        for d, acc in groups.items():
            sparse.tmac(total, (den, sparse.total_degree(max(acc), nvars), acc), _x_pow_poly(space, d).view)
        terms = sparse.tnorm(total, den)
        return cls(Poly(space, terms), mz - k if terms else 0, canonical=True)

    def __neg__(self):
        return LaurentElem(-self.num, self.mz, canonical=True)

    def __mul__(self, other):
        self._check(other)
        num = self.num * other.num
        if num.is_zero():
            return LaurentElem.zero_of(self.space)
        # x irreducible: product of x-free numerators stays x-free
        return LaurentElem(num, self.mz + other.mz, canonical=True)

    def scale(self, c):
        num = self.num.scale(c)
        if num.is_zero():
            return LaurentElem.zero_of(self.space)
        return LaurentElem(num, self.mz, canonical=True)

    def mul_xpow(self, j: int):
        """Multiply by x^j; stays canonical, costs nothing."""
        if self.num.is_zero():
            return self
        return LaurentElem(self.num, self.mz - j, canonical=True)

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
        return LaurentElem(Poly.scalar(self.space, c), -self.mz, canonical=True)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentElem)
            and self.space == other.space
            and self.mz == other.mz
            and self.num == other.num
        )

    def __hash__(self):
        raise TypeError("LaurentElem is unhashable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def one(self):
        return LaurentElem.one_of(self.space)

    def zero(self):
        return LaurentElem.zero_of(self.space)

    def conj(self):
        return LaurentElem(self.num.conj(), self.mz, canonical=True)

    # ------------------------------------------------------------------
    def diff(self, var: int):
        """Exact partial derivative by the quotient rule on x^-m, built in
        one pass over the numerator's pairs by ``sparse.tquot``."""
        space = self.space
        m = self.mz
        if m == 0:
            return LaurentElem(self.num.diff(var))
        nv = space.nv
        partner = var - nv if var >= nv else var + nv
        acc = sparse.tquot(self.num.view, var, partner, -m * space.metric[var % nv],
                           space.quad.terms, space.nvars)
        # the numerator is -m * P * dx mod x with m != 0, and the prime x
        # divides neither P nor the variable dx: it is canonical
        return LaurentElem(Poly(space, sparse.tnorm(acc, self.num.view[0])), m + 1, canonical=True)

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

    def weighted(self, weight, lift: int = 0):
        """The diagonal map behind every Euler-type operator: each monomial
        times ``weight(d)``, then divided by x^lift.

        d lists the monomial's degrees (z, zb) net of the x power, so E,
        Ebar, Y, H and d/dx differ only in their weight.
        """
        out = {}
        for key, c in self.num.terms.items():
            zd, zbd = self.num.degrees(key)
            f = weight((zd - self.mz, zbd - self.mz))
            if f:
                out[key] = c * f
        return LaurentElem(Poly(self.space, out), self.mz + lift)

    def dx(self):
        """d/dx on invariant elements, realized as (E + Ebar) / (2x)."""
        if not self.is_invariant():
            raise ValueError("d/dx is only defined on invariant elements")
        return self.weighted(lambda d: d[0], 1)

    def peel(self) -> dict:
        """Decompose an invariant element as sum_j h_j * x^j with each h_j
        homogeneous of degree (0, 0); returns {j: h_j}."""
        return {d - self.mz: LaurentElem(Poly(self.space, terms), d)
                for d, terms in z_slices(self).items()}

    # ------------------------------------------------------------------
    def to_obj(self):
        return {
            "terms": [
                {"e": list(sparse.unpack(k, self.space.nvars)), "c": c.token()}
                for k, c in self.num.sorted_items()
            ],
            "xpow": self.mz,
        }

    def __repr__(self):
        return f"LaurentElem({len(self.num.terms)} terms, mz={self.mz})"


def _x_pow_poly(space: VarSpace, e: int) -> Poly:
    """x^e (e >= 0), built once per space.  The Poly is shared by every
    caller, so it must never be mutated."""
    memo = space.x_pow_memo
    p = memo.get(e)
    if p is None:
        p = memo[e] = Poly.x(space).pow(e)
    return p


def z_slices(elem: LaurentElem) -> dict:
    """The numerator of an invariant element split by z-degree: {d: terms
    of bidegree (d, d)}."""
    groups = {}
    for key, c in elem.num.terms.items():
        zd, zbd = elem.num.degrees(key)
        if zd != zbd:
            raise ValueError("not invariant: a term has unequal z- and zb-degree")
        groups.setdefault(zd, {})[key] = c
    return groups


def is_radial(elem: LaurentElem) -> bool:
    """A Laurent element is radial iff it is a polynomial in x and 1/x: it
    is invariant and each z-degree slice P_d of its numerator is c * x^d,
    c being P_d's coefficient at the leading key of x^d.  No division."""
    if not elem.is_invariant():
        return False
    for d, terms in z_slices(elem).items():
        xd = _x_pow_poly(elem.space, d).terms
        c = terms.get(max(xd))
        if c is None or terms != sparse.tscale(xd, c):
            return False
    return True
