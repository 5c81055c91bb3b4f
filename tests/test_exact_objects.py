"""Objects built once per process: the derivative tables on each element,
the power tables of the null-point certificate, and S(x^j) lifted from a
scalar series in lambda/x.  Each is checked against a construction that
does not share it: a fresh chain of `LaurentElem.diff`, a term-by-term
evaluation, and S(x^j) as products of Laurent series.
"""

import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickred import sparse
from wickred.equiv import a_coeff, s_apply_xpow
from wickred.poly import LaurentElem, Poly, VarSpace
from wickred.scalar import ONE, ZERO, GaussianRational
from wickred.series import Series
from wickred.wick import DerivCache, StarContext

from lambda_series import dx_series, lam_over_dx


def d_coeff(ctx, r):
    """d_r of the context's D series, zero past its last listed term."""
    return ctx.D[r] if r < len(ctx.D) else Fraction(0)


SMALL = st.integers(-4, 4)
gaussians = st.builds(GaussianRational, st.builds(Fraction, SMALL, st.integers(1, 4)), SMALL)

# ----------------------------------------------------------------------
# derivative tables on the element

VIEW_SPACES = [VarSpace.cpn(1), VarSpace.cpn(2), VarSpace.dn(1), VarSpace.cpn(3)]


@st.composite
def elements(draw, space):
    terms = draw(st.dictionaries(
        st.lists(st.integers(0, 2), min_size=space.nvars, max_size=space.nvars).map(tuple),
        gaussians.filter(bool), max_size=4))
    num = Poly.from_exponent_map(space, terms)
    if draw(st.booleans()):
        num = num * Poly.x(space)
    return LaurentElem(num, draw(st.integers(-1, 2)))


@st.composite
def view_cases(draw):
    space = draw(st.sampled_from(VIEW_SPACES))
    steps = draw(st.lists(st.tuples(
        st.sampled_from(("z", "zb")),
        st.lists(st.integers(0, 2), min_size=space.nv, max_size=space.nv).map(tuple)),
        min_size=1, max_size=8))
    return draw(elements(space)), steps


def diff_chain(f, block, beta):
    """d^beta f along one block, highest coordinate first (the reverse of
    the order the table fills in)."""
    sp = f.space
    slot = {"z": sp.iz, "zb": sp.izb}[block]
    for k in reversed(range(sp.nv)):
        for _ in range(beta[k]):
            f = f.diff(slot(k))
    return f


@settings(deadline=None, max_examples=120)
@given(view_cases())
def test_interleaved_views_match_a_fresh_diff_chain(case):
    f, steps = case
    for block, beta in steps:
        view = DerivCache(f, block)
        assert view.get(beta) == diff_chain(f, block, beta)
        # every view of this element and block reads one table
        assert DerivCache(f, block).cache is view.cache
    # no table holds a partial of another block
    for block in {b for b, _ in steps}:
        for beta, got in DerivCache(f, block).cache.items():
            assert got == diff_chain(f, block, beta)
    zs = DerivCache(f, "z").cache
    assert zs is not DerivCache(f, "zb").cache
    assert zs[(0,) * f.space.nv] == f


def test_tables_hold_no_cycle_back_to_their_element():
    # an element and its tables are freed by reference counting alone
    sp = VarSpace.cpn(2)
    gc.collect()
    gc.disable()
    try:
        f = LaurentElem(Poly.variable(sp, sp.iz(0)) * Poly.variable(sp, sp.izb(1)), 1)
        for block in ("z", "zb"):
            for beta in ((1, 0, 0), (1, 1, 0), (0, 2, 1)):
                DerivCache(f, block).get(beta)
        del f
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tables_are_not_copied_by_arithmetic(sp1):
    f = LaurentElem.variable(sp1, sp1.iz(0)) * LaurentElem.x_power(sp1, -1)
    DerivCache(f, "z").get((1, 0))
    for g in (-f, f.scale(2), f * LaurentElem.one_of(sp1), f.mul_xpow(1), f.conj()):
        assert getattr(g, "partials", None) is None
    # the table of f is untouched, and a new element starts its own
    assert set(DerivCache(f, "z").cache) == {(0, 0), (1, 0)}
    assert set(DerivCache(-f, "z").cache) == {(0, 0)}


def test_products_share_the_partials_of_one_element():
    from wickred.wick import m_op, wick_product_elems

    ctx = StarContext(VarSpace.cpn(2), 4)
    sp = ctx.space
    f = LaurentElem(Poly.variable(sp, sp.iz(0)) * Poly.variable(sp, sp.izb(1)), 1)
    g = LaurentElem(Poly.variable(sp, sp.iz(1)) * Poly.variable(sp, sp.izb(0)), 1)
    wick_product_elems(f, g, ctx)
    filled = dict(DerivCache(f, "z").cache)
    # M_r differentiates the same two objects: it adds no partial of order <= K
    for r in range(1, ctx.K + 1):
        m_op(f, g, r)
    assert {k: v for k, v in DerivCache(f, "z").cache.items() if sum(k) <= ctx.K} == filled


# ----------------------------------------------------------------------
# S(x^j) against products of Laurent series


def series_s_xpow(j, ctx):
    """S(x^j) from dx_series and lam_over_dx alone:
    (Dx)^j prod_{k<j} (1 - k u) for j >= 0 and
    (Dx)^j prod_{k<=|j|} (1 + k u)^-1 for j < 0, u = lambda/(Dx)."""
    one = Series.const(LaurentElem.one_of(ctx.space), ctx.K)
    dx, u = dx_series(ctx), lam_over_dx(ctx)
    out = one
    if j >= 0:
        for _ in range(j):
            out = out * dx
        for k in range(1, j):
            out = out * (one - u.scale(k))
        return out
    inv = dx.invert()
    for k in range(1, -j + 1):
        out = out * inv * (one + u.scale(k)).invert()
    return out


S_CONTEXTS = [StarContext(space, K, D)
              for space in (VarSpace.cpn(1), VarSpace.dn(1), VarSpace.cpn(2))
              for K in (1, 3, 6)
              for D in ((Fraction(1),), (Fraction(1), Fraction(1)))]


@pytest.mark.parametrize("ctx", S_CONTEXTS, ids=repr)
def test_s_xpow_matches_series_products(ctx):
    for j in range(-4, 5):
        got = s_apply_xpow(j, ctx)
        assert got == series_s_xpow(j, ctx), j
        # order t is the single term sigma_j[t] x^(j - t)
        for t, c in enumerate(got.coeffs):
            assert c.is_zero() or (c.mz == t - j and c.num.is_scalar())


@pytest.mark.parametrize("ctx", S_CONTEXTS, ids=repr)
def test_dx_series_and_lam_over_dx_are_inverse_up_to_lambda(ctx):
    one = Series.const(LaurentElem.one_of(ctx.space), ctx.K)
    dx = dx_series(ctx)
    for r, c in enumerate(dx.coeffs):
        assert c == LaurentElem.x_power(ctx.space, 1 - r).scale(d_coeff(ctx, r))
    assert lam_over_dx(ctx) * dx == one.times_lambda(1)


def test_a_coeff_zero_column_is_one():
    # s_apply_xpow starts the sum over A^(r)_s at s = 0 with the constant 1
    assert all(a_coeff(r, 0) == 1 for r in range(12))


# ----------------------------------------------------------------------
# teval on integer points


def naive_teval(a, values, nvars):
    total = ZERO
    for k, c in a.items():
        term = c
        for v, e in zip(values, sparse.unpack(k, nvars)):
            term = term * GaussianRational.coerce(v) ** e
        total = total + term
    return total


@st.composite
def int_eval_cases(draw):
    nvars = draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps, budget = [0] * nvars, sparse.DEG_CAP - 1
        for i in draw(st.permutations(range(nvars))):
            exps[i] = draw(st.integers(0, budget))
            budget -= exps[i]
        terms[sparse.pack(exps)] = draw(gaussians.filter(bool))
    values = tuple(draw(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars)))
    return terms, values, nvars


@settings(deadline=None, max_examples=150)
@given(int_eval_cases())
def test_teval_on_integer_points_matches_naive(case):
    terms, values, nvars = case
    want = naive_teval(terms, values, nvars)
    a = sparse.tview(terms, nvars)
    # twice (the second call reads the kept tables), as a list, and with
    # the same point given as GaussianRationals
    assert sparse.teval(a, values, nvars) == want
    assert sparse.teval(a, values, nvars) == want
    assert sparse.teval(a, list(values), nvars) == want
    assert sparse.teval(a, [GaussianRational(v) for v in values], nvars) == want


def test_teval_top_exponent_on_an_integer_point():
    a = sparse.tview({sparse.pack([127, 0]): ONE, sparse.pack([0, 127]): GaussianRational(0, 1)}, 2)
    assert sparse.teval(a, (2, -3), 2) == GaussianRational(2 ** 127, (-3) ** 127)


def test_null_points_are_plain_ints():
    for sp in (VarSpace.cpn(3), VarSpace.dn(2)):
        assert all(type(v) is int for v in sp.quad.null_point)
        assert not Poly(sp, sp.quad.terms).eval(sp.quad.null_point)
