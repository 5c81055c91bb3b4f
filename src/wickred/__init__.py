"""Exact star-products on complex projective space by phase-space
reduction of the Wick product, over Gaussian rationals."""

from importlib import import_module

# the suites of `wickred verify`, in report order (suites.run_suite runs
# them); defined here so that the CLI parser reads them without suites
SUITE_NAMES = ("lemma21", "equiv", "reduce", "moreno", "su1n")

# public name -> the submodule that defines it; each is imported on first
# use, so that `import wickred` (and every command) loads no layer it does
# not run
_EXPORTS = {
    "GaussianRational": "scalar",
    "LaurentElem": "poly",
    "Poly": "poly",
    "Series": "series",
    "StarContext": "wick",
    "UnivarPoly": "series",
    "VarSpace": "poly",
    "binomial": "scalar",
    "factorial": "scalar",
    "gauss": "scalar",
    "is_radial": "poly",
    "scalar_series": "series",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
