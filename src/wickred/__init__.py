"""Exact star-products on complex projective space by phase-space
reduction of the Wick product, over Gaussian rationals."""

from .poly import LaurentElem, Poly, VarSpace, is_radial
from .scalar import GaussianRational, Rational, binomial, factorial, gauss
from .series import Series, UnivarPoly, scalar_series
from .wick import StarContext, default_context

__all__ = [
    "GaussianRational",
    "LaurentElem",
    "Poly",
    "Rational",
    "Series",
    "StarContext",
    "UnivarPoly",
    "VarSpace",
    "binomial",
    "default_context",
    "factorial",
    "gauss",
    "is_radial",
    "scalar_series",
]
