"""Comparison with the recursion-defined star-product on the sphere:
Laplacian polynomials p_r and k~_r, the recursion and coefficient
identities.  The inhomogeneous-chart cross-check of the local expression
for the reduced bidifferential operators is in `chart`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coeffs import a_coeff
from .scalar import binomial, factorial
from .series import UnivarPoly


# ----------------------------------------------------------------------
# Laplacian polynomials


@lru_cache(maxsize=None)
def p_poly(r: int, n: int) -> UnivarPoly:
    """p_r(Delta) = prod_{k=0..r-1} (Delta + k(k-n)), built as
    p_{r-1}(Delta) (Delta + (r-1)(r-1-n)).

    Cached per (r, n): the returned polynomial is shared and must never be
    mutated.  A cold call fills the table from p_1 upward, so it recurses
    one level deep, not r levels.
    """
    if r < 1:
        raise ValueError("p_poly wants r >= 1")
    prev = UnivarPoly([1])
    for t in range(1, r):
        prev = p_poly(t, n)
    return prev * UnivarPoly([(r - 1) * (r - 1 - n), 1])


@lru_cache(maxsize=None)
def k_poly(r: int, n: int) -> UnivarPoly:
    """k~_r(Delta) = sum_{t=1..r} (1/t!) p_t(Delta) A^(t)_{r-t}.

    Cached per (r, n): the returned polynomial is shared and must never be
    mutated."""
    if r < 1:
        raise ValueError("k_poly wants r >= 1")
    acc = UnivarPoly.zero_poly()
    for t in range(1, r + 1):
        c = a_coeff(t, r - t) / factorial(t)
        if c:
            acc = acc + p_poly(t, n).scale(c)
    return acc


def moreno_recursion_residual(r: int) -> UnivarPoly:
    """(r+1) k~_{r+1} - [Delta k~_r - sum_s r!(r+3+s)/((s+2)!(r-1-s)!) k~_{r-s}]
    for the sphere (n = 1); must be the zero polynomial."""
    n = 1
    delta = UnivarPoly([0, 1])
    lhs = k_poly(r + 1, n).scale(r + 1)
    bracket = delta * k_poly(r, n)
    for s in range(r):
        c = Fraction(factorial(r) * (r + 3 + s), factorial(s + 2) * factorial(r - 1 - s))
        bracket = bracket - k_poly(r - s, n).scale(c)
    return lhs - bracket


def coeff_vanishing(r: int, s: int) -> Fraction:
    """Coefficient of p_s(Delta) in the recursion residual, r >= 2,
    2 <= s <= r; must vanish."""
    if not (2 <= s <= r):
        raise ValueError("coeff_vanishing wants 2 <= s <= r")
    total = a_coeff(s, r + 1 - s)
    inner = Fraction(0)
    for t in range(s, r + 1):
        inner += (binomial(r + 1, t - 1) + binomial(r, t - 1)) * a_coeff(s, t - s)
    total += inner / (r + 1)
    total -= Fraction(s, r + 1) * (a_coeff(s - 1, r + 1 - s) - (s - 1) * a_coeff(s, r - s))
    return total


def a_identity_check(s: int, t: int) -> Fraction:
    """A^(s)_{t+1-s} - (A^(s-1)_{t+1-s} - s A^(s)_{t-s}) for s >= 1, t >= s."""
    if s < 1 or t < s:
        raise ValueError("a_identity_check wants 1 <= s <= t")
    return a_coeff(s, t + 1 - s) - (a_coeff(s - 1, t + 1 - s) - s * a_coeff(s, t - s))
