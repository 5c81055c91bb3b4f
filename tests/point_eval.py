"""Exact value of a Laurent element at a point of C^(n+1), with zb =
conj(z): the numerator's value times x's value to the x power."""

from wickred import sparse
from wickred.scalar import GaussianRational


def point_eval(elem, zs) -> GaussianRational:
    """elem at z = zs."""
    space = elem.space
    zs = [GaussianRational.coerce(v) for v in zs]
    if len(zs) != space.nv:
        raise ValueError(f"need {space.nv} coordinates")
    values = zs + [v.conj() for v in zs]
    total = elem.num.eval(values)
    m = elem.mz
    if m == 0:
        return total
    xv = sparse.teval(space.quad.terms, values, space.nvars)
    if m > 0 and not xv:
        raise ZeroDivisionError("evaluation point lies on the null set x = 0")
    return total * xv.inverse() ** m if m > 0 else total * xv ** (-m)
