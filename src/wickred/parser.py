"""Expression grammar for series of Laurent elements, and the inverse
formatter.

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] INT)?        (|INT| <= MAX_EXPONENT)
    atom   := INT | IDENT | '(' expr ')'

A power, a product (``*``, and the multiply inside ``/``) or a sum whose
predicted result (``predicted_power_size``, ``predicted_product_size``) has
more than MAX_POWER_TERMS terms or coefficients of more than
MAX_POWER_BITS bits is rejected before it is computed.  A sum is predicted
as the power of x that lifts each operand to their common x power, and the
product with it.

Identifiers: z0..z9, zb0..zb9, x (and its alias y, the metric quadratic),
the imaginary unit i, and the deformation parameter l.  Division works
whenever the divisor is invertible as a truncated series (scalars, powers
of x, and unit series like 1 + l*x); rational literals such as 1/2 fall
out of that for free.
"""

from __future__ import annotations

import math
import re

from . import sparse
from .poly import LaurentElem, VarSpace
from .scalar import GaussianRational
from .series import Series


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# largest |e| accepted in `base^e`: binary powering of 2^e alone builds an
# e-bit integer, so an unbounded exponent would ask for unbounded work
MAX_EXPONENT = 1000
# caps on the predicted size of one power or product: an exponent within
# its bound can still ask for a huge result, as in (z0+zb0+z1+zb1)^60
MAX_POWER_TERMS = 10_000
MAX_POWER_BITS = 100_000

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|(.))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            break
        number, ident, op = m.groups()
        start = m.end() - len((number or ident or op))
        if number is not None:
            tokens.append(("num", int(number), start))
        elif ident is not None:
            tokens.append(("ident", ident, start))
        elif op in "+-*/^()":
            tokens.append(("op", op, start))
        elif op.strip():
            raise ParseError(f"unexpected character {op!r}", start)
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, space: VarSpace, order: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.space = space
        self.order = order

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    # ------------------------------------------------------------------
    def const(self, value) -> Series:
        return Series.const(LaurentElem.scalar(self.space, value), self.order)

    def parse(self) -> Series:
        v = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return v

    def size(self, s: Series) -> tuple:
        return _size([c.num.terms for c in s.coeffs], self.space.nvars)

    def check_lift(self, a: Series, b: Series, pos: int) -> None:
        """Predict the lift of a's numerators in a + b: each coefficient
        is multiplied by x^(b.mz - a.mz) where that is positive."""
        k = max((cb.mz - ca.mz for ca, cb in zip(a.coeffs, b.coeffs)
                 if not (ca.is_zero() or cb.is_zero())), default=0)
        if k > 0:
            xk = predicted_power_size(_size([self.space.quads["z"].terms], self.space.nvars), k)
            _check_caps("sum", xk, pos)
            _check_caps("sum", predicted_product_size(self.size(a), xk), pos)

    def expr(self) -> Series:
        v = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                for a, b in ((v, rhs), (rhs, v)):
                    self.check_lift(a, b, pos)
                v = v + rhs if val == "+" else v - rhs
            else:
                return v

    def term(self) -> Series:
        v = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                if val == "/":
                    try:
                        rhs = rhs.invert()
                    except (ValueError, ZeroDivisionError) as e:
                        raise ParseError(f"divisor is not invertible: {e}", pos) from None
                _check_caps("product", predicted_product_size(self.size(v), self.size(rhs)), pos)
                v = v * rhs
            else:
                return v

    def unary(self) -> Series:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self) -> Series:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            sign = 1
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                self.next()
                sign = -1
            kind, val, pos = self.next()
            if kind != "num":
                raise ParseError("exponent must be an integer", pos)
            e = sign * val
            if abs(e) > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {e} is out of range: |e| must be <= {MAX_EXPONENT}", pos
                )
            if e < 0:
                try:
                    base = base.invert()
                except (ValueError, ZeroDivisionError) as err:
                    raise ParseError(
                        f"negative power of a non-invertible expression: {err}", pos
                    ) from None
                e = -e
            if e >= 2:
                _check_caps("power", predicted_power_size(self.size(base), e), pos)
            return base.pow(e)
        return base

    def atom(self) -> Series:
        kind, val, pos = self.next()
        if kind == "num":
            return self.const(val)
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        if kind == "ident":
            return self.ident(val, pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def ident(self, name: str, pos: int) -> Series:
        space = self.space
        if name == "i":
            return self.const(GaussianRational(0, 1))
        if name == "l":
            out = Series.const(LaurentElem.zero_of(space), self.order)
            if self.order >= 1:
                out.coeffs[1] = LaurentElem.one_of(space)
            return out
        if name in ("x", "y"):
            # y is the metric quadratic of the active space; with the
            # definite metric it coincides with x, so both names resolve
            # to the same element
            return Series.const(LaurentElem.x_power(space, 1), self.order)
        m = re.fullmatch(r"(zb?)(\d+)", name)
        if m:
            k = int(m.group(2))
            if k > space.n:
                raise ParseError(f"unknown variable {name!r} (n = {space.n})", pos)
            idx = space.iz(k) if m.group(1) == "z" else space.izb(k)
            return Series.const(LaurentElem.variable(space, idx), self.order)
        raise ParseError(f"unknown identifier {name!r}", pos)


def _size(nums: list, nvars: int) -> tuple:
    """(t, lo, hi, bits, nvars): the number of terms, the lowest and the
    top total degree over the numerators ``nums`` (term dicts), and the
    size of the largest numerator or denominator among them."""
    nums = [p for p in nums if p]
    t = sum(len(p) for p in nums)
    if not t:
        return 0, 0, 0, 0, nvars
    degs = [sparse.total_degree(k, nvars) for p in nums for k in p]
    bits = max(max(abs(c.p), abs(c.q), c.d).bit_length() for p in nums for c in p.values())
    return t, min(degs), max(degs), bits, nvars


def predicted_power_size(base: tuple, e: int) -> tuple:
    """The ``_size`` predicted for a power with ``_size`` base.

    A power of one numerator with t terms of degree <= deg has at most
    C(e + t - 1, t - 1) terms (multisets of its terms) and at most
    C(deg*e + nvars, nvars) (monomials of degree <= deg*e); its
    coefficients need at most e * (bits + log2 t) bits.
    """
    t, lo, hi, bits, nvars = base
    if not t:
        return base
    terms = min(math.comb(e + t - 1, t - 1), math.comb(hi * e + nvars, nvars))
    return terms, lo * e, hi * e, e * (bits + (t - 1).bit_length()), nvars


def predicted_product_size(a: tuple, b: tuple) -> tuple:
    """The ``_size`` predicted for a product of factors of ``_size`` a
    and b: at most t_a*t_b terms, and at most the number of monomials
    whose degree lies in [lo_a + lo_b, hi_a + hi_b]; coefficients of at
    most bits_a + bits_b + log2 min(t_a, t_b) bits."""
    ta, la, ha, ba, nvars = a
    tb, lb, hb, bb, _ = b
    if not (ta and tb):
        return 0, 0, 0, 0, nvars
    lo, hi = la + lb, ha + hb
    terms = min(ta * tb, math.comb(hi + nvars, nvars) - math.comb(lo - 1 + nvars, nvars))
    return terms, lo, hi, ba + bb + (min(ta, tb) - 1).bit_length(), nvars


def _check_caps(what: str, size: tuple, pos: int) -> None:
    terms, _, _, bits, _ = size
    if terms > MAX_POWER_TERMS:
        raise ParseError(f"{what} predicted to have {terms} terms, "
                         f"over the cap of {MAX_POWER_TERMS}", pos)
    if bits > MAX_POWER_BITS:
        raise ParseError(f"{what} predicted to have coefficients of {bits} bits, "
                         f"over the cap of {MAX_POWER_BITS}", pos)


def parse_expr(text: str, space: VarSpace, order: int) -> Series:
    """Parse an expression into a series of Laurent elements."""
    return _Parser(text, space, order).parse()


# ----------------------------------------------------------------------
# formatting (round-trips through parse_expr)


def _format_coeff(c: GaussianRational) -> str:
    re_, im = c.re, c.im
    if im == 0:
        return f"{re_}" if re_ >= 0 else f"({re_})"
    if re_ == 0:
        return f"({im}*i)" if im >= 0 else f"(-{-im}*i)"
    sign = "+" if im >= 0 else "-"
    return f"({re_}{sign}{abs(im)}*i)"


def format_term(c: GaussianRational, exps, names) -> str:
    """The monomial c * prod names[k]^exps[k]."""
    factors = [_format_coeff(c)]
    for name, exp in zip(names, exps):
        if exp:
            factors.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(factors)


def format_elem(e: LaurentElem) -> str:
    space = e.space
    if e.num.is_zero():
        return "0"
    body = " + ".join(format_term(c, sparse.unpack(key, space.nvars), space.var_names)
                      for key, c in e.num.sorted_items())
    if e.mz:
        xp = -e.mz
        body = f"({body})*x^{xp}" if xp != 1 else f"({body})*x"
    if space.two_point and e.mw:
        raise ValueError("two-point elements have no printable grammar")
    return body


def format_series(s: Series) -> str:
    parts = []
    for m, c in enumerate(s.coeffs):
        if hasattr(c, "is_zero") and c.is_zero():
            continue
        body = format_elem(c) if isinstance(c, LaurentElem) else str(c)
        if m == 0:
            parts.append(f"({body})")
        elif m == 1:
            parts.append(f"({body})*l")
        else:
            parts.append(f"({body})*l^{m}")
    return " + ".join(parts) if parts else "0"
