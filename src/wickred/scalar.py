"""Exact scalars: arbitrary-precision rationals and Gaussian rationals.

The coefficient field everywhere in this package is Q(i), complex numbers
with rational real and imaginary parts.  All algebra downstream relies on
these being exact so that "residual == 0" is a literal test, never a
tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction


def factorial(r: int) -> int:
    if r < 0:
        raise ValueError("factorial of a negative integer")
    return math.factorial(r)


def binomial(r: int, k: int) -> int:
    if k < 0 or k > r:
        raise ValueError(f"binomial({r}, {k}) out of range")
    return math.comb(r, k)


def power(base, e: int):
    """base^e for e >= 1 by binary powering, over any carrier with `*`.

    The one routine behind every `pow` in the package; callers supply their
    own one for e == 0 and decide what a negative exponent means.
    """
    if e < 1:
        raise ValueError(f"power needs an exponent >= 1, got {e}")
    result = None
    while True:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if not e:
            return result
        base = base * base


class GaussianRational:
    """a + b*i with rational a and b.

    Stored as a single reduced triple (p, q, d) meaning (p + q*i)/d with
    d > 0 and gcd(p, q, d) = 1.  Keeping one common denominator puts the
    hot multiply/add paths on plain machine integers instead of a pair of
    Fractions; the component rationals are recovered reduced via ``re``
    and ``im``.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, re=0, im=0):
        re = Fraction(re)
        im = Fraction(im)
        da, db = re.denominator, im.denominator
        d = da * db // math.gcd(da, db)
        p = re.numerator * (d // da)
        q = im.numerator * (d // db)
        g = math.gcd(p, q, d)
        if g > 1:
            p //= g
            q //= g
            d //= g
        self.p = p
        self.q = q
        self.d = d

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def _raw(cls, p: int, q: int, d: int) -> "GaussianRational":
        # caller guarantees d > 0 and gcd(p, q, d) == 1
        self = object.__new__(cls)
        self.p = p
        self.q = q
        self.d = d
        return self

    @classmethod
    def _norm(cls, p: int, q: int, d: int) -> "GaussianRational":
        if d < 0:
            p, q, d = -p, -q, -d
        g = math.gcd(p, q, d)
        if g > 1:
            p //= g
            q //= g
            d //= g
        self = object.__new__(cls)  # not via _raw: this runs once per term
        self.p, self.q, self.d = p, q, d
        return self

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, int):
            return cls._raw(x, 0, 1)
        if isinstance(x, Fraction):
            return cls._raw(x.numerator, 0, x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    # ------------------------------------------------------------------
    # field structure

    @property
    def re(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.q, self.d)

    def conj(self) -> "GaussianRational":
        return GaussianRational._raw(self.p, -self.q, self.d)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._raw(-self.p, -self.q, self.d)

    def __add__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        if self.d == other.d:
            return GaussianRational._norm(self.p + other.p, self.q + other.q, self.d)
        return GaussianRational._norm(
            self.p * other.d + other.p * self.d,
            self.q * other.d + other.q * self.d,
            self.d * other.d,
        )

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return GaussianRational._norm(self.p * other, self.q * other, self.d)
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        if self.q == 0 and other.q == 0:
            return GaussianRational._norm(self.p * other.p, 0, self.d * other.d)
        return GaussianRational._norm(
            self.p * other.p - self.q * other.q,
            self.p * other.q + self.q * other.p,
            self.d * other.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.p * self.p + self.q * self.q
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational._norm(self.d * self.p, -self.d * self.q, n)

    def __truediv__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("GaussianRational powers must be integers")
        if e == 0:
            return ONE
        if e < 0:
            return power(self.inverse(), -e)
        return power(self, e)

    # ------------------------------------------------------------------
    # protocol used by Series and the polynomial layers

    def scale(self, c) -> "GaussianRational":
        return self * c

    def one(self) -> "GaussianRational":
        return ONE

    def zero(self) -> "GaussianRational":
        return ZERO

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def is_real(self) -> bool:
        return self.q == 0

    def bits(self) -> int:
        """Bit length of the largest of p, q and d in (p + q*i)/d."""
        return max(abs(self.p), abs(self.q), self.d).bit_length()

    @staticmethod
    def common_bits(coeffs: list, cap: int) -> int:
        """`bits` of a list of coefficients written over their least common
        denominator: the bit length of that denominator or of the largest p
        or q it scales, whichever is longer.  A partial denominator past
        `cap` bits ends the scan, and its bit length is returned."""
        den = 1
        for c in coeffs:
            den = math.lcm(den, c.d)
            if den.bit_length() > cap:
                return den.bit_length()
        return max([den.bit_length()] + [(max(abs(c.p), abs(c.q)) * (den // c.d)).bit_length()
                                         for c in coeffs])

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.p == other.p and self.q == other.q and self.d == other.d
        if isinstance(other, (int, Fraction)):
            o = GaussianRational.coerce(other)
            return self.p == o.p and self.q == o.q and self.d == o.d
        return NotImplemented

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.d))
        return hash((self.p, self.q, self.d))

    # ------------------------------------------------------------------
    # formatting

    def token(self) -> str:
        """Canonical string "p/q+r/s*i" (used in JSON output)."""
        re, im = self.re, self.im
        sign = "-" if im < 0 else "+"
        return (
            f"{re.numerator}/{re.denominator}"
            f"{sign}{abs(im.numerator)}/{im.denominator}*i"
        )

    def __str__(self):
        if self.q == 0:
            return str(self.re)
        if self.p == 0:
            return f"{self.im}*i"
        sign = "-" if self.im < 0 else "+"
        return f"{self.re}{sign}{abs(self.im)}*i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def latex_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return sign + r"\frac{%d}{%d}" % (abs(f.numerator), f.denominator)


ZERO = GaussianRational._raw(0, 0, 1)
ONE = GaussianRational._raw(1, 0, 1)
I = GaussianRational._raw(0, 1, 1)
MINUS_TWO_I = GaussianRational._raw(0, -2, 1)  # the 2/i prefactor of the Poisson bracket


def gauss(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions or strings."""
    return GaussianRational(Fraction(re), Fraction(im))
