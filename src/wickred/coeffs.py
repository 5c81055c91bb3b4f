"""The rational coefficient tables of the paper: A^(r)_s, the expansion of
prod_{k=1..r} (1 + k u)^(-1), and c_{r,s}, the coefficients of the reduced
product.  Both are plain Fractions summed in integers, so this module
needs nothing of the Laurent kernel: `wickred table` loads it alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .scalar import binomial, factorial


@lru_cache(maxsize=None)
def a_coeff(r: int, s: int) -> Fraction:
    """A^(r)_s: the u^s coefficient of prod_{k=1..r} (1 + k u)^(-1).

    A^(0)_0 = 1 and A^(0)_s = 0 for s >= 1; for r >= 1 the closed form is
    (1/(r-1)!) sum_{k=1..r} C(r-1, k-1) k^(s+r-1) (-1)^(r+s-k).

    The sum is taken in plain integers, row by row: row r keeps its running
    terms C(r-1, k-1) (-1)^(r-k) k^(r-1+t) at the last t asked (`_a_row`),
    and the step to t + 1 multiplies term k by k.  Entry s is their sum
    over (r-1)!, with the sign (-1)^s; one Fraction is built per entry.  An
    s below the row's t starts the row again from t = 0.
    """
    if r < 0 or s < 0:
        raise ValueError("a_coeff wants nonnegative indices")
    if r == 0:
        return Fraction(1 if s == 0 else 0)
    row = _a_row(r)
    t, terms, start = row
    if s < t:
        t, terms = 0, start
    ks = range(1, r + 1)
    for _ in range(t, s):
        terms = list(map(mul, terms, ks))
    row[:2] = s, terms
    total = sum(terms)
    return Fraction(-total if s % 2 else total, factorial(r - 1))


@lru_cache(maxsize=None)
def _a_row(r: int) -> list:
    """[t, terms at t, terms at 0] for row r >= 1 of A, where term k is
    C(r-1, k-1) (-1)^(r-k) k^(r-1+t); only `a_coeff` moves t."""
    start = [binomial(r - 1, k - 1) * (-1) ** (r - k) * k ** (r - 1) for k in range(1, r + 1)]
    return [0, start, start]


@lru_cache(maxsize=None)
def k_coeff(r: int, s: int) -> Fraction:
    """c_{r,s} = sum_{k=1..s} k^(r-1) (-1)^(r-k) / (s! (s-k)! (k-1)!),
    the coefficient of M~_s inside the order-r term of the reduced
    product; equals A^(s)_{r-s} / s!.

    The sum is taken in plain integers over the common denominator
    s! (s-1)!, where term k is C(s-1, k-1) k^(r-1) (-1)^(r-k); one Fraction
    is built at the end."""
    if not (1 <= s <= r):
        raise ValueError("k_coeff wants 1 <= s <= r")
    total = sum(binomial(s - 1, k - 1) * k ** (r - 1) * (-1) ** (r - k) for k in range(1, s + 1))
    return Fraction(total, factorial(s) * factorial(s - 1))
