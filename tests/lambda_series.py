"""D x and lambda/(D x) as series of radial Laurent elements, built from
their definitions by Series arithmetic on powers of x.  They share none of
the scalar series or lifts inside `wickred.equiv`, so the tests use them as
an independent reference for S(x^j) and the closed product formulas."""

from functools import lru_cache

from wickred.poly import LaurentElem
from wickred.series import Series


@lru_cache(maxsize=None)
def dx_series(ctx):
    """D(x, lambda) * x = sum_r d_r lambda^r x^(1-r), to order K."""
    space = ctx.space
    return Series([LaurentElem.x_power(space, 1 - r).scale(ctx.D[r] if r < len(ctx.D) else 0)
                   for r in range(ctx.K + 1)])


@lru_cache(maxsize=None)
def lam_over_dx(ctx):
    """lambda / (D x): the series inverse of D x, times lambda."""
    return dx_series(ctx).invert().times_lambda(1)
