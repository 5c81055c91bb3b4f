"""Exact value of a Laurent element at a point of C^(n+1), with zb =
conj(z) (and wb = conj(w)): the numerator's value times the quadratics'
values to the x and xw powers."""

from wickred import sparse
from wickred.scalar import GaussianRational


def point_eval(elem, zs, ws=None) -> GaussianRational:
    """elem at z = zs (and w = ws on a two-point space)."""
    space = elem.space
    zs = [GaussianRational.coerce(v) for v in zs]
    if len(zs) != space.nv:
        raise ValueError(f"need {space.nv} coordinates")
    values = zs + [v.conj() for v in zs]
    if space.two_point:
        if ws is None:
            raise ValueError("two-point element needs w coordinates")
        ws = [GaussianRational.coerce(v) for v in ws]
        values += ws + [v.conj() for v in ws]
    total = elem.num.eval(values)
    for block, m in (("z", elem.mz), ("w", elem.mw)):
        if m == 0:
            continue
        xv = sparse.teval(space.quads[block].terms, values, space.nvars)
        if m > 0 and not xv:
            raise ZeroDivisionError("evaluation point lies on the null set x = 0")
        total = total * xv.inverse() ** m if m > 0 else total * xv ** (-m)
    return total
