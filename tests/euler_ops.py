"""The Euler and rotation operators E, Ebar, Y and the two-point H, as
weights of `LaurentElem.weighted`: each monomial times its z-degree,
zb-degree, i*(z-degree - zb-degree) or total degree, net of the x powers."""

from wickred.scalar import GaussianRational

EULER_WEIGHTS = {
    "E": lambda d: d[0],
    "Ebar": lambda d: d[1],
    "Y": lambda d: GaussianRational(0, d[0] - d[1]),
    "H": sum,
}


def euler(elem, which):
    """E, Ebar, Y or (on a two-point space) H applied to ``elem``."""
    weight = EULER_WEIGHTS.get(which)
    if weight is None:
        raise ValueError(f"unknown Euler operator {which!r}")
    if which == "H" and not elem.space.two_point:
        raise ValueError("H needs a two-point space")
    return elem.weighted(weight)
