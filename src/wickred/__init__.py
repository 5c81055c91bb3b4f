"""Exact star-products on complex projective space by phase-space
reduction of the Wick product, over Gaussian rationals."""

from .poly import LaurentElem, Poly, VarSpace, is_radial
from .scalar import GaussianRational, Rational, binomial, factorial, gauss
from .series import Series, UnivarPoly, scalar_series
from .wick import StarContext, default_context

# the suites of `wickred verify`, in report order (suites.run_suite runs
# them); defined here so that the CLI parser reads them without suites
SUITE_NAMES = ("lemma21", "equiv", "reduce", "moreno", "su1n")

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
