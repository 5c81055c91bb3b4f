"""Truncated formal power series in the deformation parameter, over any
carrier algebra, plus exact univariate polynomials.

A carrier only needs +, -, unary -, * (same type), .scale(scalar),
.one(), .zero(), .is_zero() and, where inversion is wanted, .inverse().
GaussianRational, LaurentElem, UnivarPoly and the symbol polynomials all
satisfy this.

The order K is explicit: coefficient lists always have length K+1 and
trailing zeros are kept, so "vanishes identically up to order K" is a
well-posed assertion.  Mixed-order arithmetic truncates to the smaller
order.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import GaussianRational, power


class Series:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, m: int):
        return self.coeffs[m]

    @classmethod
    def const(cls, c, order: int) -> "Series":
        z = c.zero()
        return cls([c] + [z] * order)

    @classmethod
    def zeros(cls, model, order: int) -> "Series":
        z = model.zero()
        return cls([z] * (order + 1))

    def one(self) -> "Series":
        return Series.const(self.coeffs[0].one(), self.order)

    # ------------------------------------------------------------------
    def __add__(self, other):
        K = min(self.order, other.order)
        return Series([self.coeffs[m] + other.coeffs[m] for m in range(K + 1)])

    def __sub__(self, other):
        K = min(self.order, other.order)
        return Series([self.coeffs[m] - other.coeffs[m] for m in range(K + 1)])

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def __mul__(self, other):
        K = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = []
        for m in range(K + 1):
            acc = a[0] * b[m]
            for i in range(1, m + 1):
                acc = acc + a[i] * b[m - i]
            out.append(acc)
        return Series(out)

    def scale(self, c):
        return Series([v.scale(c) for v in self.coeffs])

    def map(self, f) -> "Series":
        return Series([f(c) for c in self.coeffs])

    def times_lambda(self, k: int = 1) -> "Series":
        """Multiply by the k-th power of the series variable."""
        if k == 0:
            return self
        z = self.coeffs[0].zero()
        return Series([z] * k + self.coeffs[: len(self.coeffs) - k])

    def pow(self, e: int) -> "Series":
        if e == 0:
            return self.one()
        return power(self, e)

    def __eq__(self, other):
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    # ------------------------------------------------------------------
    def invert(self) -> "Series":
        """Multiplicative inverse, order by order; needs an invertible
        constant coefficient."""
        c0inv = self.coeffs[0].inverse()
        out = [c0inv]
        for m in range(1, len(self.coeffs)):
            acc = None
            for i in range(1, m + 1):
                t = self.coeffs[i] * out[m - i]
                acc = t if acc is None else acc + t
            out.append(-(c0inv * acc))
        return Series(out)

    def reparametrize(self, u: "Series") -> "Series":
        """Substitute the series variable by u (scalar series with zero
        constant term and invertible linear coefficient)."""
        if not u.coeffs[0].is_zero():
            raise ValueError("substitution series must have zero constant term")
        if len(u.coeffs) > 1:
            u.coeffs[1].inverse()  # raises when the linear coefficient is not a unit
        K = min(self.order, u.order)
        out = [self.coeffs[0]] + [self.coeffs[0].zero()] * K
        upow = Series.const(u.coeffs[0].one(), K)
        for j in range(1, K + 1):
            upow = upow * u
            cj = self.coeffs[j]
            for m in range(j, K + 1):
                s = upow.coeffs[m]
                if not s.is_zero():
                    out[m] = out[m] + cj.scale(s)
        return Series(out)

    def exp(self) -> "Series":
        """exp of a series with zero constant term, truncated."""
        if not self.coeffs[0].is_zero():
            raise ValueError("formal exponential needs a zero constant term")
        one = self.coeffs[0].one()
        result = Series.const(one, self.order)
        term = Series.const(one, self.order)
        for j in range(1, self.order + 1):
            term = (term * self).scale(Fraction(1, j))
            result = result + term
        return result

    def to_obj(self):
        return {
            "order": self.order,
            "coeffs": [
                c.to_obj() if hasattr(c, "to_obj") else c.token() for c in self.coeffs
            ],
        }

    def __repr__(self):
        return f"Series(order={self.order})"


def scalar_series(values, order: int) -> Series:
    """Series with GaussianRational coefficients from a list of numbers."""
    coeffs = [GaussianRational.coerce(v) for v in values[: order + 1]]
    coeffs += [GaussianRational.coerce(0)] * (order + 1 - len(coeffs))
    return Series(coeffs)


class UnivarPoly:
    """Dense exact polynomial in one formal variable (x, alpha or Delta;
    the role is carried along so unrelated carriers cannot be mixed)."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str = "x"):
        coeffs = [GaussianRational.coerce(c) if not isinstance(c, GaussianRational) else c for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = coeffs
        self.var = var

    @classmethod
    def zero_poly(cls, var: str = "x"):
        return cls([], var)

    @classmethod
    def const(cls, c, var: str = "x"):
        return cls([c], var)

    @classmethod
    def monomial(cls, c, k: int, var: str = "x"):
        return cls([0] * k + [c], var)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def coeff(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GaussianRational.coerce(0)

    def _check(self, other):
        if self.var != other.var:
            raise ValueError(f"mixing polynomials in {self.var} and {other.var}")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivarPoly([self.coeff(k) + other.coeff(k) for k in range(n)], self.var)

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivarPoly([self.coeff(k) - other.coeff(k) for k in range(n)], self.var)

    def __neg__(self):
        return UnivarPoly([-c for c in self.coeffs], self.var)

    def __mul__(self, other):
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return UnivarPoly([], self.var)
        out = [GaussianRational.coerce(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UnivarPoly(out, self.var)

    def scale(self, c):
        return UnivarPoly([v * c for v in self.coeffs], self.var)

    def pow(self, e: int):
        if e == 0:
            return self.one()
        return power(self, e)

    def shift(self, k: int):
        """Multiply by var^k."""
        if not self.coeffs:
            return self
        return UnivarPoly([GaussianRational.coerce(0)] * k + self.coeffs, self.var)

    def deriv(self):
        c = self.coeffs
        return UnivarPoly([c[k].scale(k) for k in range(1, len(c))], self.var)

    def eval(self, value):
        total = GaussianRational.coerce(0)
        for c in reversed(self.coeffs):
            total = total * value + c
        return total

    def subst_elem(self, elem):
        """Evaluate on an element of any commutative carrier (e.g. the
        Laurent class, substituting the variable by x)."""
        total = elem.zero()
        for c in reversed(self.coeffs):
            total = total * elem + elem.one().scale(c)
        return total

    def one(self):
        return UnivarPoly([1], self.var)

    def zero(self):
        return UnivarPoly([], self.var)

    def is_zero(self) -> bool:
        return not self.coeffs

    def inverse(self):
        if len(self.coeffs) != 1:
            raise ValueError("only constant polynomials are invertible")
        return UnivarPoly([self.coeffs[0].inverse()], self.var)

    def __eq__(self, other):
        return (
            isinstance(other, UnivarPoly)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"({c})*{self.var}")
            else:
                parts.append(f"({c})*{self.var}^{k}")
        return " + ".join(parts)

    def latex(self) -> str:
        if not self.coeffs:
            return "0"
        var = {"Delta": r"\Delta", "alpha": r"\alpha"}.get(self.var, self.var)
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = _latex_scalar(c)
            if k == 0:
                parts.append(cs)
            else:
                power = var if k == 1 else f"{var}^{{{k}}}"
                if cs == "1":
                    parts.append(power)
                elif cs == "-1":
                    parts.append(f"-{power}")
                else:
                    parts.append(f"{cs}{power}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return f"UnivarPoly({self.var}, deg={self.degree})"


def latex_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return sign + r"\frac{%d}{%d}" % (abs(f.numerator), f.denominator)


def _latex_scalar(c: GaussianRational) -> str:
    return latex_fraction(c.re) if c.is_real() else f"({c})"
