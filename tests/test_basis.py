"""Associativity of the reduced product, proved on a basis rather than
sampled.

The order-m term of the associator,

    A_m(f, g, h) = sum_{i+j=m} C_i(C_j(f, g), h) - C_i(f, C_j(g, h)),

is a tri-differential operator of order at most m in each argument,
because M~_s differentiates each factor at most s <= r times.  So A_m at a
point depends only on the m-jets of f, g and h there.

Take the level-K elements f_ab = z^a zb^b / x^K with |a| = |b| = K.  In
the chart z0 != 0 they are p(w, wb) / (+-1 + sum |w_k|^2)^K, where p runs
over every polynomial of bidegree at most (K, K), and the denominator is a
unit near every point of the chart.  So their K-jets span all K-jets at
every point, on CP^n and on the ball alike, and by multilinearity an
operator of order at most K in each argument that vanishes on every basis
triple vanishes on all smooth functions.  Checking every triple at orders
<= K therefore proves associativity to order K.

The level is mu = -2/5, not -1/2: at mu = -1/2 the factor (-2 mu)^-r is 1,
so a wrong power of it would go unseen.
"""

from fractions import Fraction
from itertools import product

import pytest

from wickred.poly import LaurentElem, Poly, VarSpace
from wickred.reduction import mu_star
from wickred.series import Series
from wickred.wick import StarContext

MU = Fraction(-2, 5)


def basis(space, K):
    """Every f_ab = z^a zb^b / x^K with |a| = |b| = K."""
    level = [e for e in product(range(K + 1), repeat=space.nv) if sum(e) == K]
    return [LaurentElem(Poly.from_exponent_map(space, {a + b: 1}), K) for a, b in product(level, repeat=2)]


@pytest.mark.parametrize("space, K", [(VarSpace.cpn(1), 3), (VarSpace.dn(1), 2)], ids=["CP1-K3", "D1-K2"])
def test_mu_star_is_associative_on_every_basis_triple(space, K):
    ctx = StarContext(space, K=K, mu=MU)
    elems = [Series.const(f, K) for f in basis(space, K)]
    pair = {(i, j): mu_star(f, g, ctx) for (i, f), (j, g) in product(enumerate(elems), repeat=2)}
    failing = [(i, j, k) for i, j, k in product(range(len(elems)), repeat=3)
               if mu_star(pair[i, j], elems[k], ctx) != mu_star(elems[i], pair[j, k], ctx)]
    assert failing == []
