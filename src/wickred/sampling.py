"""Seeded random generators for the verification suites and tests.

Coefficients come from a small pool of Gaussian rationals and degrees stay
at 2 or below so exact runs stay fast; everything is driven by an explicit
random.Random so suite output is reproducible from the seed.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .poly import LaurentElem, Poly, VarSpace
from .scalar import GaussianRational

COEFF_POOL = (
    GaussianRational(0),
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(Fraction(1, 2)),
    GaussianRational(Fraction(-1, 2)),
    GaussianRational(0, 1),
    GaussianRational(0, -1),
)


def rand_coeff(rng: Random) -> GaussianRational:
    return rng.choice(COEFF_POOL)


def rand_composition(rng: Random, total: int, parts: int) -> list:
    cuts = sorted(rng.randrange(total + 1) for _ in range(parts - 1))
    out = []
    prev = 0
    for c in cuts + [total]:
        out.append(c - prev)
        prev = c
    return out


def rand_poly(space: VarSpace, rng: Random, max_deg: int = 3) -> LaurentElem:
    """Random polynomial (no denominators) of total degree <= max_deg, from
    four draws of a monomial."""
    acc = {}
    for _ in range(4):
        deg = rng.randrange(max_deg + 1)
        exps = rand_composition(rng, deg, 2 * space.nv)
        key = tuple(exps)
        acc[key] = acc.get(key, GaussianRational(0)) + rand_coeff(rng)
    p = Poly.from_exponent_map(space, {k: c for k, c in acc.items() if c})
    return LaurentElem.from_poly(p)


def rand_homogeneous(space: VarSpace, rng: Random, deg: int = None, terms: int = 3) -> LaurentElem:
    """Random degree-(0,0) element P / x^d with P of bidegree (d, d)."""
    for _ in range(20):
        d = deg if deg is not None else rng.choice((1, 1, 2))
        acc = {}
        for _ in range(terms):
            exps = rand_composition(rng, d, space.nv) + rand_composition(rng, d, space.nv)
            key = tuple(exps)
            acc[key] = acc.get(key, GaussianRational(0)) + rand_coeff(rng)
        p = Poly.from_exponent_map(space, {k: c for k, c in acc.items() if c})
        if not p.is_zero():
            return LaurentElem.from_poly(p, mz=d)
    raise RuntimeError("sampling failed to produce a nonzero element")


def rand_invariant(space: VarSpace, rng: Random) -> LaurentElem:
    """Random circle-invariant element: two homogeneous slices times
    powers of x."""
    out = LaurentElem.zero_of(space)
    for _ in range(2):
        j = rng.choice((-1, 0, 1, 2))
        h = rand_homogeneous(space, rng, deg=rng.choice((1, 2)), terms=2)
        out = out + h.mul_xpow(j)
    if out.is_zero():
        return LaurentElem.one_of(space) + LaurentElem.x_power(space, 1)
    return out


def rand_radial(rng: Random, max_deg: int = 2):
    from .series import UnivarPoly

    coeffs = [rand_coeff(rng) for _ in range(max_deg + 1)]
    if all(c.is_zero() for c in coeffs):
        coeffs[-1] = GaussianRational(1)
    return UnivarPoly(coeffs)
