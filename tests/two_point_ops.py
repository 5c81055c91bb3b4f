"""Operators on tensor symbols (``wick.TwoPoint``) from their definitions,
one variable at a time: d/dz^k and d/dwb^k by the product rule,
multiplication by a polynomial in z and wb, and the Euler weight
E_z + Ebar_w.  A symbol's coefficient P has its zb slots standing for wb,
so d/dwb^k differentiates P along zb^k and wb^k is the variable zb^k."""

from wickred.poly import Poly
from wickred.wick import TwoPoint


def _bump(idx: tuple, k: int) -> tuple:
    return idx[:k] + (idx[k] + 1,) + idx[k + 1:]


def from_pairs(f, g, pairs) -> TwoPoint:
    """The symbol of f and g with the (key, P) pairs summed key by key."""
    out = {}
    for key, p in pairs:
        out[key] = out[key] + p if key in out else p
    return TwoPoint(f, g, {key: p for key, p in out.items() if not p.is_zero()})


def d_z(T: TwoPoint, k: int) -> TwoPoint:
    """P d^alpha f  ->  (dP/dz^k) d^alpha f + P d^(alpha + e_k) f."""
    slot = T.f.space.iz(k)
    return from_pairs(T.f, T.g, [pair for (a, b), p in T.terms.items()
                                 for pair in (((a, b), p.diff(slot)), ((_bump(a, k), b), p))])


def d_wb(T: TwoPoint, k: int) -> TwoPoint:
    """P dbar^beta g  ->  (dP/dwb^k) dbar^beta g + P dbar^(beta + e_k) g."""
    slot = T.f.space.izb(k)
    return from_pairs(T.f, T.g, [pair for (a, b), p in T.terms.items()
                                 for pair in (((a, b), p.diff(slot)), ((a, _bump(b, k)), p))])


def times(T: TwoPoint, q: Poly) -> TwoPoint:
    """Multiplication by the polynomial q(z, wb)."""
    return from_pairs(T.f, T.g, [(key, q * p) for key, p in T.terms.items()])


def euler_zwb(T: TwoPoint) -> TwoPoint:
    """(E_z + Ebar_w) T = sum_k (z^k d/dz^k + wb^k d/dwb^k) T."""
    sp = T.f.space
    acc = T.scale(0)
    for k in range(sp.nv):
        acc = acc + times(d_z(T, k), Poly.variable(sp, sp.iz(k)))
        acc = acc + times(d_wb(T, k), Poly.variable(sp, sp.izb(k)))
    return acc
