"""The Euler and rotation operators E, Ebar, Y and H = E + Ebar, as
weights of `LaurentElem.weighted`: each monomial times its z-degree,
zb-degree, i*(z-degree - zb-degree) or total degree, net of the x power."""

from wickred.scalar import GaussianRational

EULER_WEIGHTS = {
    "E": lambda d: d[0],
    "Ebar": lambda d: d[1],
    "Y": lambda d: GaussianRational(0, d[0] - d[1]),
    "H": sum,
}


def euler(elem, which):
    """E, Ebar, Y or H applied to ``elem``."""
    weight = EULER_WEIGHTS.get(which)
    if weight is None:
        raise ValueError(f"unknown Euler operator {which!r}")
    return elem.weighted(weight)
