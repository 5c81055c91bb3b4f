"""Property tests for the sparse kernel: exact evaluation, exponent packing,
the null-point certificate in front of division by x, the re-keying merge,
the one power routine and the product; and for the Laurent class: sums and
derivatives that skip divisibility tests by proof agree with the full
canonicalization, the Leibniz rule, uniqueness of the canonical form, the
table of localizing quadratics, and the diagonal operators against a
per-term reference; and S, the reduction, the closed product formulas, the
Poisson bracket and calM_r, which each sum one item list per order,
against references that fold their sums with pairwise +."""

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wickred import sparse
from wickred.equiv import (a_coeff, closed_weights, dx_series, lam_over_dx, s_apply, s_apply_xpow,
                           tilde_star_closed)
from wickred.poly import LaurentElem, Poly, VarSpace, _x_pow_poly
from wickred.reduction import ideal_decompose, reduce_elem
from wickred.scalar import ONE, ZERO, GaussianRational, power
from wickred.series import Series, UnivarPoly
from wickred.wick import StarContext, m_op, op_calm, op_euler_zwb, poisson

# exact big-int work at exponent 127 has no fixed time budget
props = settings(deadline=None, max_examples=150)

SMALL = st.integers(-6, 6)
DEN = st.integers(1, 5)

rationals = st.builds(Fraction, SMALL, DEN)
gaussians = st.builds(GaussianRational, rationals, rationals)
nonzero_gaussians = gaussians.filter(bool)

# point coordinates: exact ones (skipped by the evaluator) and values next
# to one (1 + q*i), zero, ints, Fractions and complex non-integers,
# negatives included
coordinates = st.one_of(
    st.just(ONE), st.builds(GaussianRational, st.just(1), SMALL),
    st.just(0), SMALL, rationals, gaussians,
)


def slots(lo, hi):
    """(nvars, i): a variable count and one slot index below it."""
    return st.integers(lo, hi).flatmap(lambda nv: st.tuples(st.just(nv), st.integers(0, nv - 1)))


@st.composite
def exponent_vectors(draw, nvars, max_deg=sparse.DEG_CAP - 1):
    exps = [0] * nvars
    budget = max_deg
    for i in draw(st.permutations(range(nvars))):
        e = draw(st.integers(0, budget))
        exps[i] = e
        budget -= e
    return exps


@st.composite
def term_dicts(draw, nvars, max_deg=sparse.DEG_CAP - 1, max_terms=6):
    n = draw(st.integers(0, max_terms))
    out = {}
    for _ in range(n):
        out[sparse.pack(draw(exponent_vectors(nvars, max_deg)))] = draw(nonzero_gaussians)
    return out


def naive_teval(a, values, nvars):
    """Reference: one GaussianRational product per term and variable."""
    total = ZERO
    for k, c in a.items():
        term = c
        for i in range(nvars):
            e = sparse.exponent(k, i)
            if e:
                term = term * GaussianRational.coerce(values[i]) ** e
        total = total + term
    return total


@st.composite
def eval_cases(draw):
    nvars = draw(st.integers(1, 4))
    a = draw(term_dicts(nvars))
    values = draw(st.lists(coordinates, min_size=nvars, max_size=nvars))
    return a, values, nvars


@props
@given(eval_cases())
def test_teval_matches_naive_reference(case):
    a, values, nvars = case
    got = sparse.teval(a, values, nvars)
    assert isinstance(got, GaussianRational)
    assert got == naive_teval(a, values, nvars)
    # the result is in canonical reduced form, like every other scalar
    assert got == GaussianRational._norm(got.p, got.q, got.d)


@props
@given(slots(1, 4), nonzero_gaussians, coordinates)
def test_teval_top_exponent(slot, c, v):
    nvars, i = slot
    exps = [0] * nvars
    exps[i] = sparse.DEG_CAP - 1
    values = [ONE] * nvars
    values[i] = v
    a = {sparse.pack(exps): c}
    assert sparse.teval(a, values, nvars) == c * GaussianRational.coerce(v) ** 127


def test_teval_empty_is_zero():
    assert sparse.teval({}, [ONE], 1) == ZERO


# ----------------------------------------------------------------------
# division by x and its certificate

SPACES = [
    VarSpace.cpn(1), VarSpace.dn(1), VarSpace.cpn(2), VarSpace.dn(2),
    VarSpace.cpn(1, two_point=True), VarSpace.dn(1, two_point=True),
]
BLOCKS = [(sp, "z") for sp in SPACES] + [(sp, "w") for sp in SPACES if sp.two_point]


def divisor(space, block):
    return Poly(space, dict(space.quads[block].terms))


def null_point(space, block):
    return space.quads[block].null_point


@st.composite
def quotient_cases(draw):
    space, block = draw(st.sampled_from(BLOCKS))
    q = Poly(space, draw(term_dicts(space.nvars, max_deg=5)))
    return space, block, q


@props
@given(quotient_cases())
def test_divided_by_x_inverts_multiplication(case):
    space, block, q = case
    p = divisor(space, block) * q
    assert p.divided_by_x(block) == q


@props
@given(quotient_cases())
def test_certificate_never_rejects_a_multiple(case):
    space, block, q = case
    p = divisor(space, block) * q
    assert not p.eval(null_point(space, block))


@props
@given(quotient_cases())
def test_divided_by_x_quotient_is_exact(case):
    space, block, p = case
    q = p.divided_by_x(block)
    if q is None:
        assert p.terms  # zero is always divisible
    else:
        assert divisor(space, block) * q == p


# ----------------------------------------------------------------------
# exponent packing

@props
@given(slots(1, 8))
def test_pack_accepts_exponent_127(slot):
    nvars, i = slot
    exps = [0] * nvars
    exps[i] = 127
    key = sparse.pack(exps)
    assert sparse.unpack(key, nvars) == tuple(exps)
    assert sparse.exponent(key, i) == 127
    assert sparse.total_degree(key, nvars) == 127


@props
@given(slots(1, 8))
def test_pack_rejects_exponent_128(slot):
    nvars, i = slot
    exps = [0] * nvars
    exps[i] = 128
    with pytest.raises(ValueError):
        sparse.pack(exps)


@props
@given(slots(2, 8), st.integers(1, 127), st.data())
def test_pack_rejects_total_degree_128(slot, a, data):
    nvars, i = slot
    j = data.draw(st.integers(0, nvars - 1).filter(lambda j: j != i))
    exps = [0] * nvars
    exps[i] = a
    exps[j] = 128 - a
    with pytest.raises(ValueError, match="total degree"):
        sparse.pack(exps)


# ----------------------------------------------------------------------
# the re-keying merge

# few keys and a few coefficients closed under negation, so repeated keys
# and sums that cancel to zero are common
merge_pairs = st.lists(st.tuples(
    st.integers(0, 5),
    st.sampled_from([ONE, -ONE, GaussianRational(2), GaussianRational(0, 1),
                     GaussianRational(0, -1), GaussianRational(Fraction(1, 2), -1)]),
), max_size=12)


@props
@given(merge_pairs)
@example([(7, GaussianRational(0, 1)), (3, ONE), (7, GaussianRational(0, -1))])
@example([(1, ONE), (1, -ONE), (1, ONE)])
def test_tcollect_matches_folded_tadd(pairs):
    folded = reduce(lambda acc, kc: sparse.tadd(acc, {kc[0]: kc[1]}), pairs, {})
    got = sparse.tcollect(pairs)
    assert got == folded
    assert all(got.values())


# ----------------------------------------------------------------------
# the power routine

SP = VarSpace.cpn(1)
# total degree 8 * 15 stays below the packing cap of 128
small_terms = term_dicts(SP.nvars, max_deg=15, max_terms=3)
univar_polys = st.builds(UnivarPoly, st.lists(gaussians, max_size=3))
polys = st.builds(lambda t: Poly(SP, t), small_terms)
laurents = st.builds(lambda t, m: LaurentElem(Poly(SP, t), m), small_terms, st.integers(-2, 2))
laurent_series = st.builds(
    lambda cs: Series(cs),
    st.lists(st.builds(lambda t: LaurentElem(Poly(SP, t)), term_dicts(SP.nvars, max_deg=3,
                                                                       max_terms=2)),
             min_size=1, max_size=3),
)
power_settings = settings(deadline=None, max_examples=40)


def repeated_product(base, e):
    return reduce(operator.mul, [base] * e)


@power_settings
@given(st.one_of(gaussians, univar_polys, polys, laurents, laurent_series), st.integers(1, 8))
def test_power_is_repeated_multiplication(base, e):
    assert power(base, e) == repeated_product(base, e)


@pytest.mark.parametrize("e", [0, -1, -4])
def test_power_rejects_exponents_below_one(e):
    with pytest.raises(ValueError):
        power(GaussianRational(2), e)


def test_poly_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        Poly.x(SP).pow(-1)
    assert Poly.x(SP).pow(0) == Poly.one(SP)


# ----------------------------------------------------------------------
# the product of term dicts

# few small keys and coefficients with unlike denominators, imaginary
# parts and their negatives, so repeated keys, lcm merges and products
# that cancel to zero are common
mul_coeffs = st.sampled_from([
    ONE, -ONE, GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(-1, 3)),
    GaussianRational(0, 1), GaussianRational(0, Fraction(-1, 6)),
    GaussianRational(Fraction(2, 3), Fraction(1, 2)), GaussianRational(Fraction(-2, 3), Fraction(-1, 2)),
])
mul_terms = st.dictionaries(
    st.lists(st.integers(0, 2), min_size=2, max_size=2).map(sparse.pack), mul_coeffs, max_size=5,
)


def naive_tmul(a, b):
    """Reference: one GaussianRational product per pair, merged by tcollect."""
    return sparse.tcollect((ka + kb, ca * cb) for ka, ca in a.items() for kb, cb in b.items())


@props
@given(st.one_of(mul_terms, term_dicts(2, max_deg=63)), st.one_of(mul_terms, term_dicts(2, max_deg=63)))
# x0*x1 - x1*x0: the only output key cancels
@example({sparse.pack([1, 0]): ONE, sparse.pack([0, 1]): ONE},
         {sparse.pack([0, 1]): ONE, sparse.pack([1, 0]): -ONE})
# (1/2 + i/3) over unlike denominators meeting at their lcm
@example({sparse.pack([1, 0]): GaussianRational(Fraction(1, 2)), 0: GaussianRational(0, Fraction(1, 3))},
         {0: GaussianRational(Fraction(1, 5)), sparse.pack([1, 0]): GaussianRational(0, Fraction(-3, 7))})
def test_tmul_matches_naive_reference(a, b):
    got = sparse.tmul(a, b, 2)
    assert got == naive_tmul(a, b)
    for c in got.values():
        assert c and c == GaussianRational._norm(c.p, c.q, c.d)


# ----------------------------------------------------------------------
# the Laurent class: canonical form without redundant divisibility tests

TWO_POINT = VarSpace.cpn(1, two_point=True)
LAURENT_SPACES = [VarSpace.cpn(1), VarSpace.cpn(2), VarSpace.dn(1), TWO_POINT]
laurent_settings = settings(deadline=None, max_examples=100)


@st.composite
def laurent_elems(draw, space, mz=None, mw=None):
    """A canonical element built by the full canonicalization; its numerator
    is sometimes a multiple of x or xw, so the stored powers vary."""
    num = Poly(space, draw(term_dicts(space.nvars, max_deg=3, max_terms=4)))
    if draw(st.booleans()):
        num = num * divisor(space, "z")
    if space.two_point and draw(st.booleans()):
        num = num * divisor(space, "w")
    mz = draw(st.integers(-2, 2)) if mz is None else mz
    mw = (draw(st.integers(-2, 2)) if mw is None else mw) if space.two_point else 0
    return LaurentElem(num, mz, mw)


@st.composite
def laurent_pairs(draw):
    """(a, b) on one space: b shares a's powers, or is -a plus a multiple of
    x (the sum then cancels or divides by x), or is drawn independently."""
    space = draw(st.sampled_from(LAURENT_SPACES))
    a = draw(laurent_elems(space))
    kind = draw(st.sampled_from(["same", "cancel", "free"]))
    if kind == "same":
        b = draw(laurent_elems(space, a.mz, a.mw))
    elif kind == "cancel":
        c = draw(laurent_elems(space, a.mz - 1, a.mw))
        b = LaurentElem(-a.num, a.mz, a.mw) + c
    else:
        b = draw(laurent_elems(space))
    return space, a, b


def full_sum(a, b):
    """Reference sum: both numerators over the common powers, then the
    full canonicalization with every block tested."""
    space = a.space
    mz, mw = max(a.mz, b.mz), max(a.mw, b.mw)
    nums = []
    for e in (a, b):
        num = e.num
        if mz > e.mz:
            num = num * divisor(space, "z").pow(mz - e.mz)
        if mw > e.mw:
            num = num * divisor(space, "w").pow(mw - e.mw)
        nums.append(num)
    return LaurentElem(nums[0] + nums[1], mz, mw)


def full_diff(a, v):
    """Reference derivative of P / (x^mz xw^mw) over the common denominator
    x^(mz+1) xw^(mw+1), then the full canonicalization."""
    space = a.space
    x = divisor(space, "z")
    xw = divisor(space, "w") if space.two_point else Poly.one(space)
    dxw = xw.diff(v) if space.two_point else Poly.zero(space)
    p = a.num
    num = p.diff(v) * x * xw - (p * x.diff(v) * xw).scale(a.mz) - (p * dxw * x).scale(a.mw)
    return LaurentElem(num, a.mz + 1, a.mw + (1 if space.two_point else 0))


def assert_same(got, want):
    assert (got.num, got.mz, got.mw) == (want.num, want.mz, want.mw)


@laurent_settings
@given(laurent_pairs())
def test_laurent_add_matches_full_canonicalization(case):
    space, a, b = case
    assert_same(a + b, full_sum(a, b))
    assert_same(b + a, full_sum(b, a))


@pytest.mark.parametrize("space", LAURENT_SPACES, ids=str)
def test_laurent_add_zero_operand_is_the_other(space):
    zero = LaurentElem.zero_of(space)
    a = LaurentElem(Poly.variable(space, 0), -2)  # x^2 * z0
    assert_same(zero + a, a)
    assert_same(a + zero, a)
    assert_same(zero + zero, zero)


@laurent_settings
@given(st.sampled_from(LAURENT_SPACES).flatmap(laurent_elems))
def test_laurent_diff_matches_full_canonicalization(a):
    for v in range(a.space.nvars):
        assert_same(a.diff(v), full_diff(a, v))


def test_two_point_diff_divides_the_other_block():
    # d/dz0 of (x*w0 + xw)/x = -zb0 * xw / x^2: the z block of the quotient
    # rule is canonical by proof, but xw divides the numerator
    sp = TWO_POINT
    f = LaurentElem(divisor(sp, "z") * Poly.variable(sp, sp.iw(0)) + divisor(sp, "w"), 1)
    assert (f.mz, f.mw) == (1, 0)
    d = f.diff(sp.iz(0))
    assert (d.mz, d.mw) == (2, -1)
    assert d.num == -Poly.variable(sp, sp.izb(0))


@st.composite
def other_block_cases(draw):
    """(f, block): f = (x*P + xw*Q)/x with P free of z and zb, or the same
    with the blocks swapped.  Differentiating in that block leaves the
    other quadratic dividing the numerator, as in the pinned example."""
    sp = TWO_POINT
    block = draw(st.sampled_from(["z", "w"]))
    other = "w" if block == "z" else "z"
    half = 2 * sp.nv  # slots per block
    exps = draw(st.lists(exponent_vectors(half, max_deg=3), min_size=1, max_size=3))
    coeffs = draw(st.lists(nonzero_gaussians, min_size=len(exps), max_size=len(exps)))
    pad = [0] * half
    p = Poly.from_exponent_map(sp, {
        tuple(pad + e if block == "z" else e + pad): c for e, c in zip(exps, coeffs)})
    q = Poly(sp, draw(term_dicts(sp.nvars, max_deg=3, max_terms=3).filter(bool)))
    num = divisor(sp, block) * p + divisor(sp, other) * q
    f = LaurentElem(num, 1, 0) if block == "z" else LaurentElem(num, 0, 1)
    return f, block


@laurent_settings
@given(other_block_cases())
def test_laurent_diff_tests_the_other_block(case):
    f, block = case
    half = 2 * f.space.nv
    for v in (range(half) if block == "z" else range(half, 2 * half)):
        assert_same(f.diff(v), full_diff(f, v))


@laurent_settings
@given(st.sampled_from(LAURENT_SPACES).flatmap(
    lambda sp: st.tuples(laurent_elems(sp), laurent_elems(sp))))
def test_laurent_diff_leibniz_rule(pair):
    a, b = pair
    for v in range(a.space.nvars):
        assert (a * b).diff(v) == a.diff(v) * b + a * b.diff(v)


def test_x_pow_memo_matches_direct_powers():
    sp = VarSpace.cpn(1, two_point=True)  # a new space: its memo starts empty
    for ez in range(3):
        for ew in range(3):
            want = divisor(sp, "z").pow(ez) * divisor(sp, "w").pow(ew)
            assert _x_pow_poly(sp, ez, ew) == want
            assert _x_pow_poly(sp, ez, ew) == want  # served by the memo


@laurent_settings
@given(st.sampled_from(LAURENT_SPACES).flatmap(laurent_elems), st.integers(0, 3), st.integers(0, 3))
def test_canonical_form_is_unique(a, k, j):
    # P * x^k * xw^j / (x^(m+k) xw^(mw+j)) canonicalizes back to P / (x^m xw^mw)
    space = a.space
    num = a.num * divisor(space, "z").pow(k)
    if not space.two_point:
        j = 0
    elif j:
        num = num * divisor(space, "w").pow(j)
    assert_same(LaurentElem(num, a.mz + k, a.mw + j), a)


# ----------------------------------------------------------------------
# the fused kernels: multiply-accumulate on triples, sums of products,
# division by x on integer numerators

# real scales: ints, Fractions with unlike denominators, and zero
scales = st.one_of(st.integers(-3, 3), st.builds(Fraction, SMALL, st.integers(1, 7)))


@props
@given(st.lists(st.tuples(scales, st.one_of(mul_terms, term_dicts(2, max_deg=63)),
                          st.one_of(mul_terms, term_dicts(2, max_deg=63))), max_size=4))
# c*a*b + (-c)*a*b: every output key cancels
@example([(Fraction(2, 3), {sparse.pack([1, 0]): GaussianRational(Fraction(1, 2), 1)},
           {0: GaussianRational(0, Fraction(-1, 5))}),
          (Fraction(-2, 3), {sparse.pack([1, 0]): GaussianRational(Fraction(1, 2), 1)},
           {0: GaussianRational(0, Fraction(-1, 5))})])
# one key reached over denominators 6, 35 and 1
@example([(Fraction(1, 2), {0: GaussianRational(Fraction(1, 3))}, {0: ONE}),
          (Fraction(3, 7), {0: ONE}, {0: GaussianRational(0, Fraction(1, 5))}),
          (1, {0: ONE}, {0: -ONE})])
def test_tmac_matches_collected_products(triples):
    acc = {}
    for c, a, b in triples:
        assert sparse.tmac(acc, a, b, 2, c) is acc
    want = sparse.tcollect((ka + kb, ca * cb * c) for c, a, b in triples
                           for ka, ca in a.items() for kb, cb in b.items() if c)
    got = sparse.tnorm(acc)
    assert got == want
    for v in got.values():
        assert v and v == GaussianRational._norm(v.p, v.q, v.d)


def test_tmul_is_tmac_on_an_empty_accumulator():
    a = {sparse.pack([1, 0]): GaussianRational(Fraction(1, 2), 1), 0: -ONE}
    b = {sparse.pack([0, 2]): GaussianRational(0, Fraction(1, 3)), 0: ONE}
    assert sparse.tmul(a, b, 2) == sparse.tnorm(sparse.tmac({}, a, b, 2))
    with pytest.raises(ValueError, match="packing capacity"):
        sparse.tmac({}, {sparse.pack([64, 0]): ONE}, {sparse.pack([0, 64]): ONE}, 2)


@st.composite
def product_items(draw):
    """(space, items) for sum_of_products.  'tied' items share their powers,
    'unique' lifts one product above the rest, 'cancel' adds the negation
    of every item (a sum of zero), 'divides' adds c*(q*D - A)*B to each
    c*A*B, q being x or xw (a sum whose numerator q divides), and 'free'
    draws the powers freely; elements and scales are sometimes zero."""
    space = draw(st.sampled_from(LAURENT_SPACES))
    kind = draw(st.sampled_from(["tied", "unique", "cancel", "divides", "free"]))
    n = draw(st.integers(1, 4))
    items = []
    for i in range(n):
        if kind == "tied":
            a, b = draw(laurent_elems(space, 1, 1)), draw(laurent_elems(space, 0, 0))
        elif kind == "unique" and i == 0:
            a, b = draw(laurent_elems(space, 5, 5)), draw(laurent_elems(space, 2, 2))
        else:
            a, b = draw(laurent_elems(space)), draw(laurent_elems(space))
        items.append((draw(scales), a, b))
    if kind == "cancel":
        items += [(-c, a, b) for c, a, b in items]
    elif kind == "divides":
        block = draw(st.sampled_from(["z", "w"] if space.two_point else ["z"]))
        q = LaurentElem.x_power(space, 1, block)
        mz, mw = (2, 1) if block == "z" else (1, 2)
        items += [(c, q * draw(laurent_elems(space, mz, mw)) - a, b) for c, a, b in items]
    return space, items


def folded_sum(space, items):
    """Reference: a left fold of (A*B).scale(c) with __add__."""
    return reduce(lambda acc, t: acc + (t[1] * t[2]).scale(t[0]), items,
                  LaurentElem.zero_of(space))


@laurent_settings
@given(product_items())
def test_sum_of_products_matches_folded_sum(case):
    space, items = case
    got = LaurentElem.sum_of_products(space, items)
    assert_same(got, folded_sum(space, items))
    assert_same(got, full_sum(got, LaurentElem.zero_of(space)))  # canonical


@pytest.mark.parametrize("space", LAURENT_SPACES, ids=str)
def test_sum_of_products_edge_cases(space):
    zero, one = LaurentElem.zero_of(space), LaurentElem.one_of(space)
    x = LaurentElem.x_power(space, 1)
    z0 = LaurentElem.variable(space, 0)
    assert_same(LaurentElem.sum_of_products(space, []), zero)
    assert_same(LaurentElem.sum_of_products(space, [(1, zero, z0), (2, z0, zero), (0, z0, z0)]), zero)
    # a zero scale at the top power does not set the powers of the sum
    inv_x = x.inverse()
    got = LaurentElem.sum_of_products(space, [(0, inv_x, inv_x), (1, z0, inv_x)])
    assert (got.num, got.mz) == (z0.num, 1)
    # (x*z0)(1/x^2) - z0(1/x): factors stored at other powers cancel to zero
    assert_same(LaurentElem.sum_of_products(space, [(1, x * z0, inv_x * inv_x), (-1, z0, inv_x)]), zero)
    # (q - v*vb)/q + v*vb/q = 1, q = x or xw: tied top powers whose sum
    # divides by q
    blocks = [("z", 0, space.izb(0))]
    if space.two_point:
        blocks.append(("w", space.iw(0), space.iwb(0)))
    for block, v, vb in blocks:
        q = LaurentElem.x_power(space, 1, block)
        vvb = LaurentElem.variable(space, v) * LaurentElem.variable(space, vb)
        got = LaurentElem.sum_of_products(space, [(1, q - vvb, q.inverse()), (1, vvb, q.inverse())])
        assert_same(got, one)
    # a unique top power: 1/x^2 + z0/x keeps x^2 in the denominator
    got = LaurentElem.sum_of_products(space, [(1, inv_x, inv_x), (Fraction(1, 2), z0, inv_x)])
    assert_same(got, folded_sum(space, [(1, inv_x, inv_x), (Fraction(1, 2), z0, inv_x)]))
    assert got.mz == 2


def reference_divided_by_x(p, block):
    """Reference long division by x (or xw) on GaussianRational
    coefficients, with no null-point certificate in front."""
    space = p.space
    div = divisor(space, block).terms
    lead = max(div)
    n = space.n
    ia, ib = (space.iz(n), space.izb(n)) if block == "z" else (space.iw(n), space.iwb(n))
    r = dict(p.terms)
    q = {}
    while r:
        kl = max(r)
        if not (sparse.exponent(kl, ia) and sparse.exponent(kl, ib)):
            return None
        c = r.pop(kl) / div[lead]
        t = kl - lead
        q[t] = c
        for km, cm in div.items():
            if km != lead:
                r = sparse.tsub(r, {t + km: c * cm})
    return Poly(space, q)


@st.composite
def division_cases(draw):
    """(p, block): a multiple of the block's quadratic (with mixed
    denominators), that multiple plus a random remainder, or a free p."""
    space, block, q = draw(quotient_cases())
    kind = draw(st.sampled_from(["multiple", "perturbed", "free"]))
    if kind == "free":
        return q, block
    p = divisor(space, block) * q
    if kind == "perturbed":
        p = p + Poly(space, draw(term_dicts(space.nvars, max_deg=5, max_terms=2)))
    return p, block


# x * i*(z1*zb1 - z0*zb0): the division meets keys that x*q cancelled
@props
@given(division_cases())
@example((divisor(SPACES[0], "z") * Poly.from_exponent_map(
    SPACES[0], {(0, 1, 0, 1): GaussianRational(0, 1), (1, 0, 1, 0): GaussianRational(0, -1)}), "z"))
def test_divided_by_x_matches_reference_division(case):
    p, block = case
    got = p.divided_by_x(block)
    want = reference_divided_by_x(p, block)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == want
        assert all(c == GaussianRational._norm(c.p, c.q, c.d) for c in got.terms.values())


# ----------------------------------------------------------------------
# the key layout behind sparse: rekey, divides, block_degrees, and the
# changes of variables built on rekey

def reference_rekey(terms, targets, nvars, tvars):
    """Reference: unpack each key, add exponent i into target slot
    targets[i] (None drops it), pack, and merge with tcollect."""
    def image(k):
        exps = sparse.unpack(k, nvars)
        out = [0] * tvars
        for e, j in zip(exps, targets):
            if j is not None:
                out[j] += e
        return sparse.pack(out)
    return sparse.tcollect((image(k), c) for k, c in terms.items())


@st.composite
def rekey_cases(draw):
    """(terms, targets, nvars, tvars): a map of slots onto another space
    that may permute, merge (several slots onto one) and drop slots, with
    coefficients closed under negation so that merged terms can cancel."""
    nvars = draw(st.integers(1, 6))
    tvars = draw(st.integers(1, 6))
    targets = draw(st.lists(st.one_of(st.none(), st.integers(0, tvars - 1)),
                            min_size=nvars, max_size=nvars))
    keys = st.one_of(
        exponent_vectors(nvars).map(sparse.pack),
        st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(sparse.pack),
    )
    terms = draw(st.dictionaries(keys, st.sampled_from([ONE, -ONE, GaussianRational(0, 1),
                                                        GaussianRational(Fraction(1, 2), -1)]),
                                 max_size=6))
    return terms, targets, nvars, tvars


def _images(targets, tvars):
    vk = sparse.var_keys(tvars)
    return [0 if j is None else vk[j] for j in targets]


@props
@given(rekey_cases())
# a permutation: x0 x1^2 + x2 under x0 -> y2, x1 -> y0, x2 -> y1
@example(({sparse.pack([1, 2, 0]): ONE, sparse.pack([0, 0, 1]): -ONE}, [2, 0, 1], 3, 3))
# a merge whose collision cancels: x0 - x1 under x0, x1 -> y0
@example(({sparse.pack([1, 0]): ONE, sparse.pack([0, 1]): -ONE}, [0, 0], 2, 1))
# dropped slots: x0^127 + x1 x2 - x2 under x0 -> 1, x1 -> 1, x2 -> y1
@example(({sparse.pack([127, 0, 0]): ONE, sparse.pack([0, 1, 1]): ONE,
           sparse.pack([0, 0, 1]): -ONE}, [None, None, 1], 3, 2))
def test_rekey_matches_reference(case):
    terms, targets, nvars, tvars = case
    got = sparse.rekey(terms, _images(targets, tvars), nvars)
    assert got == reference_rekey(terms, targets, nvars, tvars)
    assert all(got.values())


def test_var_keys_are_packed_variables():
    for nvars in range(1, 6):
        assert sparse.var_keys(nvars) == tuple(
            sparse.pack([int(i == j) for j in range(nvars)]) for i in range(nvars))


@props
@given(st.integers(1, 5).flatmap(lambda nv: st.tuples(
    st.just(nv), exponent_vectors(nv), exponent_vectors(nv),
    st.lists(st.sampled_from([0, 127]), min_size=nv, max_size=nv))))
@example((2, [127, 0], [127, 0], [0, 0]))
@example((2, [0, 127], [1, 126], [0, 0]))
@example((3, [0, 0, 0], [0, 0, 0], [0, 0, 0]))
def test_divides_is_slotwise_comparison(case):
    nvars, a, b, extremes = case
    # pairs at the extremes too: a lone exponent of 0 or 127 against b
    lone = [e if i == 0 else 0 for i, e in enumerate(extremes)]
    for m, k in ((a, b), (b, a), (a, a), (lone, b), (b, lone), (lone, a)):
        want = all(x <= y for x, y in zip(m, k)) and sum(m) <= sum(k)
        assert sparse.divides(sparse.pack(m), sparse.pack(k), nvars) == want


@props
@given(st.integers(1, 5).flatmap(lambda w: st.integers(1, 4).flatmap(
    lambda b: st.tuples(st.just(w), exponent_vectors(w * b)))))
@example((3, [127, 0, 0, 0, 0, 0]))
@example((1, [0, 127]))
def test_block_degrees_are_block_sums(case):
    width, exps = case
    nvars = len(exps)
    key = sparse.pack(exps)
    want = tuple(sum(sparse.exponent(key, i) for i in range(b, b + width))
                 for b in range(0, nvars, width))
    assert sparse.block_degrees(key, nvars, width) == want


REKEY_SPACES = [VarSpace.cpn(n) for n in (1, 2, 3)] + [VarSpace.dn(n) for n in (1, 2, 3)]


@st.composite
def one_point_elems(draw, space):
    num = Poly(space, draw(term_dicts(space.nvars, max_deg=3, max_terms=4)))
    return LaurentElem(num, draw(st.integers(-1, 2)))


@laurent_settings
@given(st.sampled_from(REKEY_SPACES).flatmap(
    lambda sp: st.tuples(one_point_elems(sp), one_point_elems(sp))))
def test_restrict_diagonal_of_tensor_is_product(pair):
    from wickred.wick import restrict_diagonal, tensor

    f, g = pair
    assert_same(restrict_diagonal(tensor(f, g)), f * g)


def reference_conj(p):
    """Reference: unpack, swap the z/zb (and w/wb) slices, pack."""
    space, nv = p.space, p.space.nv
    out = {}
    for k, c in p.terms.items():
        exps = list(sparse.unpack(k, space.nvars))
        exps[0:nv], exps[nv:2 * nv] = exps[nv:2 * nv], exps[0:nv]
        if space.two_point:
            exps[2 * nv:3 * nv], exps[3 * nv:4 * nv] = exps[3 * nv:4 * nv], exps[2 * nv:3 * nv]
        out[sparse.pack(exps)] = c.conj()
    return out


@laurent_settings
@given(st.sampled_from(REKEY_SPACES + [TWO_POINT, VarSpace.dn(2, two_point=True)]).flatmap(
    lambda sp: term_dicts(sp.nvars, max_deg=3, max_terms=5).map(lambda t: Poly(sp, t))))
def test_conj_matches_reference_and_is_an_involution(p):
    assert p.conj().terms == reference_conj(p)
    assert p.conj().conj() == p


def reference_hom_to_chart(f, mode):
    """Reference: unpack, send z^k, zb^k (k >= 1) to the chart slots of
    the mode, drop z^0 and zb^0, pack, merge with tcollect."""
    from wickred.moreno import ChartElem

    space, n = f.space, f.space.n
    ce = ChartElem.constant(n, 0)
    zslot, zbslot, den_idx = {"vv": (ce.iv, ce.ivb, 3), "uv": (ce.iu, ce.ivb, 0),
                              "vu": (ce.iv, ce.iub, 1)}[mode]

    def chart_key(key):
        exps = sparse.unpack(key, space.nvars)
        chart = [0] * (4 * n)
        for k in range(1, n + 1):
            chart[zslot(k - 1)] = exps[space.iz(k)]
            chart[zbslot(k - 1)] = exps[space.izb(k)]
        return sparse.pack(chart)

    den = [0, 0, 0, 0]
    den[den_idx] = f.mz
    return sparse.tcollect((chart_key(k), c) for k, c in f.num.terms.items()), tuple(den)


@st.composite
def homogeneous_elems(draw, space):
    """A degree-(0,0) element P / x^d, P of bidegree (d, d)."""
    d = draw(st.integers(0, 2))
    nv = space.nv

    def block():
        return st.lists(st.integers(0, nv - 1), min_size=d, max_size=d).map(
            lambda idx: [idx.count(k) for k in range(nv)])
    terms = draw(st.dictionaries(st.tuples(block(), block()).map(lambda zz: sparse.pack(zz[0] + zz[1])),
                                 nonzero_gaussians, min_size=1, max_size=4))
    return LaurentElem(Poly(space, terms), d)


@laurent_settings
@given(st.sampled_from([VarSpace.cpn(n) for n in (1, 2, 3)]).flatmap(homogeneous_elems),
       st.sampled_from(["vv", "uv", "vu"]))
def test_hom_to_chart_matches_reference(f, mode):
    from wickred.moreno import hom_to_chart

    got = hom_to_chart(f, mode)
    assert (got.num, got.den) == reference_hom_to_chart(f, mode)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hom_to_chart_rejects_the_indefinite_metric(n):
    from wickred.moreno import hom_to_chart

    with pytest.raises(ValueError, match="definite metric"):
        hom_to_chart(LaurentElem.one_of(VarSpace.dn(n)), "vv")


# ----------------------------------------------------------------------
# one table per localizing quadratic, one map for every diagonal operator

QUAD_SPACES = [make(n, two_point=tp) for make in (VarSpace.cpn, VarSpace.dn)
               for n in (1, 2, 3) for tp in (False, True)]


@pytest.mark.parametrize("space", QUAD_SPACES, ids=repr)
def test_quads_hold_each_metric_quadratic(space):
    nv = space.nv
    assert list(space.quads) == (["z", "w"] if space.two_point else ["z"])
    for block, quad in space.quads.items():
        off = 0 if block == "z" else 2 * nv
        want = Poly.zero(space)
        for k in range(nv):
            v, vb = Poly.variable(space, off + k), Poly.variable(space, off + nv + k)
            want = want + (v * vb).scale(space.metric[k])
        assert quad.terms == want.terms
        assert quad.lead == max(want.terms)
        assert want.eval(quad.null_point) == ZERO


def degrees_reference(f, key):
    """The degrees (z, zb[, w, wb]) of one term of f as a function: unpack
    the key, sum each block, subtract the x and xw powers."""
    nv = f.space.nv
    exps = sparse.unpack(key, f.space.nvars)
    sums = [sum(exps[b:b + nv]) for b in range(0, len(exps), nv)]
    return [d - m for d, m in zip(sums, (f.mz, f.mz, f.mw, f.mw))]


DIAGONAL_WEIGHTS = {
    "E": lambda d: d[0],
    "Ebar": lambda d: d[1],
    "Y": lambda d: GaussianRational(0, d[0] - d[1]),
    "H": lambda d: d[0] + d[1] + d[2] + d[3],
    "zwb": lambda d: d[0] + d[3],
    "dx": lambda d: d[0],
}


def diagonal_reference(f, which):
    """Sum over the terms of f, each scaled by its weight as a separate
    Laurent element; d/dx also divides each term by x."""
    out = LaurentElem.zero_of(f.space)
    for key, c in f.num.terms.items():
        term = LaurentElem(Poly(f.space, {key: c}), f.mz, f.mw)
        term = term.scale(DIAGONAL_WEIGHTS[which](degrees_reference(f, key)))
        out = out + (term.mul_xpow(-1) if which == "dx" else term)
    return out


@st.composite
def invariant_elems(draw, space):
    """A canonical element whose every monomial has equal z- and
    zb-degree; the w block (two-point spaces) is free."""
    nv = space.nv
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(0, 2))
        exps = draw(exponent_vectors(nv, d).filter(lambda e, d=d: sum(e) == d))
        exps += draw(exponent_vectors(nv, d).filter(lambda e, d=d: sum(e) == d))
        if space.two_point:
            exps += draw(exponent_vectors(2 * nv, 2))
        terms[sparse.pack(exps)] = draw(nonzero_gaussians)
    num = Poly(space, terms)
    if draw(st.booleans()):
        num = num * divisor(space, "z")
    mw = draw(st.integers(-2, 2)) if space.two_point else 0
    return LaurentElem(num, draw(st.integers(-2, 2)), mw)


DIAGONAL_SPACES = LAURENT_SPACES + [VarSpace.dn(1, two_point=True)]


@laurent_settings
@given(st.sampled_from(DIAGONAL_SPACES).flatmap(
    lambda sp: st.tuples(laurent_elems(sp), invariant_elems(sp))))
@example((LaurentElem.zero_of(TWO_POINT), LaurentElem.zero_of(TWO_POINT)))
def test_diagonal_operators_match_per_term_reference(pair):
    f, inv = pair
    for which in ("E", "Ebar", "Y", "H") if f.space.two_point else ("E", "Ebar", "Y"):
        assert f.euler(which) == diagonal_reference(f, which)
    if f.space.two_point:
        assert op_euler_zwb(f) == diagonal_reference(f, "zwb")
    assert inv.dx() == diagonal_reference(inv, "dx")


@pytest.mark.parametrize("space, which", [
    (VarSpace.cpn(1), "bogus"), (TWO_POINT, "bogus"), (VarSpace.cpn(1), "H"),
    (VarSpace.dn(2), "H"),
])
def test_euler_rejects_an_unknown_operator_before_any_term(space, which):
    # a zero element has no term to look at, so the name is checked first
    with pytest.raises(ValueError):
        LaurentElem.zero_of(space).euler(which)


def quadratic_value(space, pt):
    return sum((space.metric[k] * v * v.conj() for k, v in enumerate(pt)), ZERO)


@laurent_settings
@given(st.sampled_from(DIAGONAL_SPACES + [VarSpace.dn(2)]).flatmap(lambda sp: st.tuples(
    laurent_elems(sp), st.lists(gaussians, min_size=sp.nv, max_size=sp.nv),
    st.lists(gaussians, min_size=sp.nv, max_size=sp.nv), st.sampled_from(list(sp.quads)))),
    st.integers(-2, 2))
def test_mul_xpow_scales_the_value_by_the_quadratic(case, j):
    f, zs, ws, block = case
    space = f.space
    ws = ws if space.two_point else None
    xv = quadratic_value(space, zs if block == "z" else ws)
    assume(quadratic_value(space, zs) and (ws is None or quadratic_value(space, ws)))
    assert f.mul_xpow(j, block).eval(zs, ws) == f.eval(zs, ws) * xv ** j


# ----------------------------------------------------------------------
# every linear combination summed once: S, the reduction and the closed
# formulas against references that fold their sums with pairwise +

SUM_SPACES = [VarSpace.cpn(1), VarSpace.cpn(2), VarSpace.dn(1)]
sum_settings = settings(deadline=None, max_examples=40)


@lru_cache(maxsize=None)
def folded_s_xpow(j, ctx):
    """S(x^j); for j < 0 the sum over s of A^(|j|)_s u^s is folded."""
    if j >= 0:
        return s_apply_xpow(j, ctx)
    one = Series.const(LaurentElem.one_of(ctx.space), ctx.K)
    u = lam_over_dx(ctx)
    acc, upow = one, one
    for s in range(1, ctx.K + 1):
        upow = upow * u
        acc = acc + upow.scale(a_coeff(-j, s))
    return acc * dx_series(ctx).invert().pow(-j)


def folded_s_elem(e, ctx):
    out = Series.const(LaurentElem.zero_of(ctx.space), ctx.K)
    for j, h in e.peel().items():
        out = out + folded_s_xpow(j, ctx).map(lambda c, h=h: h * c)
    return out


def folded_s_apply(F, ctx, inverse):
    K = min(F.order, ctx.K)
    if not inverse:
        out = [LaurentElem.zero_of(ctx.space)] * (K + 1)
        for m in range(K + 1):
            sm = folded_s_elem(F.coeffs[m], ctx)
            for t in range(m, K + 1):
                out[t] = out[t] + sm.coeffs[t - m]
        return Series(out)
    G = []
    for m in range(K + 1):
        acc = F.coeffs[m]
        for k in range(m):
            acc = acc - folded_s_elem(G[k], ctx).coeffs[m - k]
        G.append(acc)
    return Series(G)


def folded_split(F, ctx):
    """(p, g) with F = p + (J - mu) g, slice by slice."""
    space, c = ctx.space, -2 * ctx.mu
    p = g = LaurentElem.zero_of(space)
    for j, h in F.peel().items():
        p = p + h.scale(c ** j)
        w = LaurentElem.zero_of(space)
        for t in range(abs(j)):
            w = w + LaurentElem.x_power(space, abs(j) - 1 - t).scale(c ** t)
        if j < 0:
            w = w.mul_xpow(j).scale(-(c ** j))
        g = g + h * w
    return p, g.scale(-2)


def folded_tilde_star_closed(f, g, ctx):
    weights = closed_weights(lam_over_dx(ctx), ctx.K)
    acc = Series.const(f * g, ctx.K)
    for r in range(1, ctx.K + 1):
        acc = acc + weights[r].map(lambda c, mr=m_op(f, g, r, ctx): mr * c)
    return acc


def folded_poisson(F, G):
    space = F.space
    acc = LaurentElem.zero_of(space)
    for k in range(space.nv):
        z, zb, g = space.iz(k), space.izb(k), space.metric[k]
        acc = acc + (F.diff(z) * G.diff(zb) - F.diff(zb) * G.diff(z)).scale(g)
    return acc.scale(GaussianRational(0, -2))


def folded_op_calm(F, r):
    """(g z wb)^r times sum over |beta| = r of r! g^beta / beta! times
    d^beta/dz d^beta/dwb F, each derivative taken variable by variable."""
    space = F.space
    nv = space.nv
    acc = LaurentElem.zero_of(space)
    for beta in itertools.product(range(r + 1), repeat=nv):
        if sum(beta) != r:
            continue
        d = F
        for k, b in enumerate(beta):
            for _ in range(b):
                d = d.diff(space.iz(k)).diff(space.iwb(k))
        sign = reduce(operator.mul, (space.metric[k] ** b for k, b in enumerate(beta)), 1)
        den = reduce(operator.mul, map(math.factorial, beta), 1)
        acc = acc + d.scale(Fraction(math.factorial(r) * sign, den))
    zwb = LaurentElem.zero_of(space)
    for k in range(nv):
        v = LaurentElem.variable(space, space.iz(k)) * LaurentElem.variable(space, space.iwb(k))
        zwb = zwb + v.scale(space.metric[k])
    return zwb.pow(r) * acc


@st.composite
def sum_cases(draw):
    """A context on CP^1, CP^2 or D^1 with D = 1 or 1 + l/x, an invariant
    series, two homogeneous elements, two free elements and one two-point
    element."""
    space = draw(st.sampled_from(SUM_SPACES))
    ctx = StarContext(space=space, K=3, D=draw(st.sampled_from([(1,), (1, 1)])),
                      mu=draw(st.sampled_from([Fraction(-1, 2), Fraction(-2, 3)])))
    F = Series([draw(invariant_elems(space)) for _ in range(ctx.K + 1)])
    f, g = draw(homogeneous_elems(space)), draw(homogeneous_elems(space))
    a, b = draw(laurent_elems(space)), draw(laurent_elems(space))
    return ctx, F, f, g, a, b, draw(laurent_elems(space.with_two_point()))


@sum_settings
@given(sum_cases(), st.integers(1, 2))
def test_linear_combinations_match_folded_sums(case, r):
    ctx, F, f, g, a, b, T = case
    for inverse in (False, True):
        assert s_apply(F, ctx, inverse) == folded_s_apply(F, ctx, inverse)
    assert [reduce_elem(c, ctx) for c in F.coeffs] == [folded_split(c, ctx)[0] for c in F.coeffs]
    dec = ideal_decompose(F, ctx)
    assert list(zip(dec.projection.coeffs, dec.multiplier.coeffs)) == [
        folded_split(c, ctx) for c in F.coeffs]
    assert tilde_star_closed(f, g, ctx) == folded_tilde_star_closed(f, g, ctx)
    assert poisson(a, b, ctx) == folded_poisson(a, b)
    assert op_calm(T, r, ctx) == folded_op_calm(T, r)
