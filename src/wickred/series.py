"""Truncated formal power series in the deformation parameter, over any
carrier algebra, plus exact polynomials in Delta (the sphere's Laplacian
polynomials).

A carrier only needs +, -, unary -, * (same type), .scale(scalar),
.one(), .zero(), .is_zero() and, where division is wanted, .inverse().
GaussianRational (the scalar series), LaurentElem (every product and
transformation) and ``equiv.SparsePoly`` (the symbol of S, a polynomial
in beta = x alpha on packed keys at each order) satisfy this.

The order K is explicit: coefficient lists always have length K+1 and
trailing zeros are kept, so "vanishes identically up to order K" is a
well-posed assertion.  Mixed-order arithmetic truncates to the smaller
order.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import GaussianRational, latex_fraction, power


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

    @classmethod
    def const(cls, c, order: int) -> "Series":
        z = c.zero()
        return cls([c] + [z] * order)

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

    def __truediv__(self, other):
        """self / other by forward substitution,
        q_m = b_0^-1 (a_m - sum_(i>=1) b_i q_(m-i)), skipping each zero b_i;
        needs an invertible constant coefficient of other."""
        K = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        b0inv = b[0].inverse()
        out = []
        for m in range(K + 1):
            acc = a[m]
            for i in range(1, m + 1):
                if not b[i].is_zero():
                    acc = acc - b[i] * out[m - i]
            out.append(b0inv * acc)
        return Series(out)

    def scale(self, c):
        return Series([v.scale(c) for v in self.coeffs])

    def map(self, f) -> "Series":
        return Series([f(c) for c in self.coeffs])

    def times_lambda(self, k: int = 1) -> "Series":
        """Multiply by the k-th power of the series variable; a shift past
        the order leaves the zero series of the same order."""
        if k < 0:
            raise ValueError(f"cannot shift by a negative power {k}")
        if k == 0:
            return self
        z = self.coeffs[0].zero()
        k = min(k, len(self.coeffs))
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
        """Multiplicative inverse; needs an invertible constant coefficient."""
        return self.one() / self

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
    """Dense exact polynomial in Delta: the sphere's Laplacian polynomials."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [GaussianRational.coerce(c) if not isinstance(c, GaussianRational) else c for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def zero_poly(cls):
        return cls([])

    @classmethod
    def monomial(cls, c, k: int):
        return cls([0] * k + [c])

    def coeff(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GaussianRational.coerce(0)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivarPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivarPoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return UnivarPoly([])
        out = [GaussianRational.coerce(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UnivarPoly(out)

    def scale(self, c):
        return UnivarPoly([v * c for v in self.coeffs])

    def pow(self, e: int):
        if e == 0:
            return self.one()
        return power(self, e)

    def one(self):
        return UnivarPoly([1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, UnivarPoly) and self.coeffs == other.coeffs

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
                parts.append(f"({c})*Delta")
            else:
                parts.append(f"({c})*Delta^{k}")
        return " + ".join(parts)

    def latex(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = _latex_scalar(c)
            if k == 0:
                parts.append(cs)
            else:
                power = r"\Delta" if k == 1 else rf"\Delta^{{{k}}}"
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
        return f"UnivarPoly(Delta, deg={len(self.coeffs) - 1})"


def _latex_scalar(c: GaussianRational) -> str:
    return latex_fraction(c.re) if c.is_real() else f"({c})"
