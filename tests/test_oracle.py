"""A second decision procedure for the Wick product and M_r.

sympy re-derives both from their definitions,

    order r of F * G  =  sum_{|beta| = r} g^beta / beta!  d_z^beta F  d_zb^beta G,
    M_r(F, G)         =  x^r r!  (the same sum),

as rational functions of z and zb taken independent, and decides each
order only by exact cancellation: ``together``, then the numerator, then
``Poly(expand(numerator)).is_zero``.  It shares nothing with the sparse
kernel, the Laurent class or the derivative tables: an element enters
through ``LaurentElem.to_obj``, the JSON form the CLI prints.
"""

import itertools
import math
from random import Random

import pytest

from wickred.poly import VarSpace
from wickred.sampling import rand_homogeneous
from wickred.wick import StarContext, m_op, wick_product_elems

sympy = pytest.importorskip("sympy")

K = 3
PAIRS = 3


class Oracle:
    """The symbols of one space, its metric and its quadratic x."""

    def __init__(self, space):
        self.metric = space.metric
        self.zs = sympy.symbols(f"z0:{space.nv}")
        self.zbs = sympy.symbols(f"zb0:{space.nv}")
        self.gens = self.zs + self.zbs
        self.x = sum(g * z * zb for g, z, zb in zip(self.metric, self.zs, self.zbs))

    def expr(self, elem):
        """The element as a sympy rational function, read from its JSON form."""
        obj = elem.to_obj()
        num = sum((sympy.sympify(t["c"].replace("*i", "*I"))
                   * sympy.Mul(*(v ** e for v, e in zip(self.gens, t["e"])))
                   for t in obj["terms"]), sympy.Integer(0))
        return num / self.x ** obj["xpow"]

    def pairing(self, f, g, r):
        """sum over |beta| = r of g^beta / beta! d_z^beta f d_zb^beta g."""
        total = sympy.Integer(0)
        for beta in itertools.product(range(r + 1), repeat=len(self.zs)):
            if sum(beta) != r:
                continue
            weight = sympy.Rational(math.prod(s ** b for s, b in zip(self.metric, beta)),
                                    math.prod(map(math.factorial, beta)))
            total += weight * self.partial(f, self.zs, beta) * self.partial(g, self.zbs, beta)
        return total

    @staticmethod
    def partial(f, variables, beta):
        """d^beta f along ``variables``."""
        for v, b in zip(variables, beta):
            if b:
                f = sympy.diff(f, v, b)
        return f

    def vanishes(self, expr):
        num, _ = sympy.fraction(sympy.together(expr))
        return sympy.Poly(sympy.expand(num), *self.gens).is_zero


@pytest.mark.parametrize("space", [VarSpace.cpn(1), VarSpace.dn(1)], ids=["CP1", "D1"])
def test_wick_product_and_m_op_match_their_definitions(space):
    ctx = StarContext(space=space, K=K)
    oracle = Oracle(space)
    rng = Random(20240811)
    wrong = []
    for pair in range(PAIRS):
        f, g = rand_homogeneous(space, rng), rand_homogeneous(space, rng)
        fs, gs = oracle.expr(f), oracle.expr(g)
        product = wick_product_elems(f, g, ctx)
        for r in range(K + 1):
            want = oracle.pairing(fs, gs, r)
            if not oracle.vanishes(oracle.expr(product.coeffs[r]) - want):
                wrong.append(f"pair {pair}: order {r} of the Wick product")
            got = oracle.expr(m_op(f, g, r, ctx))
            if not oracle.vanishes(got - oracle.x ** r * math.factorial(r) * want):
                wrong.append(f"pair {pair}: M_{r}")
    assert wrong == []
