"""Property tests for the sparse kernel: exact evaluation, exponent packing,
the null-point certificate in front of division by x, the strip of every
factor of x from a sum of multiply-accumulate groups, the re-keying merge,
the one power routine and the product; and for the Laurent class: sums and
derivatives that skip divisibility tests by proof agree with the full
canonicalization, the Leibniz rule, uniqueness of the canonical form, the
localizing quadratic, and the diagonal operators against a per-term
reference; and S, the reduction, the closed product formulas and the
Poisson bracket, which each sum one item list per order, and calM_r on a
tensor symbol, against references that fold their sums with pairwise +
(calM_r one derivative at a time on the symbol); and the
coefficient tables A^(r)_s and c_{r,s} against the product recurrence,
Stirling numbers of the second kind and the series oracle."""

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wickred import sparse
from wickred.equiv import a_coeff, closed_weights, s_apply, s_apply_xpow, tilde_star_closed
from wickred.poly import LaurentElem, Poly, VarSpace, _x_pow_poly
from wickred.reduction import ideal_decompose, k_coeff, reduce_elem
from wickred.scalar import ONE, ZERO, GaussianRational, power
from wickred.series import Series, UnivarPoly
from wickred.suites import a_table_oracle
from wickred.wick import DerivCache, StarContext, m_op, op_calm, poisson, restrict_diagonal

from lambda_series import dx_series, lam_over_dx
from euler_ops import euler
from point_eval import point_eval
from two_point_ops import d_wb, d_z, from_pairs, times

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
        for i, e in enumerate(sparse.unpack(k, nvars)):
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

SPACES = [VarSpace.cpn(1), VarSpace.dn(1), VarSpace.cpn(2), VarSpace.dn(2), VarSpace.cpn(3)]


def divisor(space):
    return Poly(space, dict(space.quad.terms))


@st.composite
def quotient_cases(draw):
    space = draw(st.sampled_from(SPACES))
    q = Poly(space, draw(term_dicts(space.nvars, max_deg=5)))
    return space, q


@props
@given(quotient_cases())
def test_divided_by_x_inverts_multiplication(case):
    space, q = case
    p = divisor(space) * q
    assert p.divided_by_x() == q


@props
@given(quotient_cases())
def test_certificate_never_rejects_a_multiple(case):
    space, q = case
    p = divisor(space) * q
    assert not p.eval(space.quad.null_point)


@props
@given(quotient_cases())
def test_divided_by_x_quotient_is_exact(case):
    space, p = case
    q = p.divided_by_x()
    if q is None:
        assert p.terms  # zero is always divisible
    else:
        assert divisor(space) * q == p


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

LAURENT_SPACES = [VarSpace.cpn(1), VarSpace.cpn(2), VarSpace.dn(1), VarSpace.dn(2)]
laurent_settings = settings(deadline=None, max_examples=100)


@st.composite
def laurent_elems(draw, space, mz=None):
    """A canonical element built by the full canonicalization; its numerator
    is sometimes a multiple of x, so the stored power varies."""
    num = Poly(space, draw(term_dicts(space.nvars, max_deg=3, max_terms=4)))
    if draw(st.booleans()):
        num = num * divisor(space)
    return LaurentElem(num, draw(st.integers(-2, 2)) if mz is None else mz)


@st.composite
def laurent_pairs(draw):
    """(a, b) on one space: b shares a's powers, or is -a plus a multiple of
    x (the sum then cancels or divides by x), or is drawn independently."""
    space = draw(st.sampled_from(LAURENT_SPACES))
    a = draw(laurent_elems(space))
    kind = draw(st.sampled_from(["same", "cancel", "free"]))
    if kind == "same":
        b = draw(laurent_elems(space, a.mz))
    elif kind == "cancel":
        c = draw(laurent_elems(space, a.mz - 1))
        b = LaurentElem(-a.num, a.mz) + c
    else:
        b = draw(laurent_elems(space))
    return space, a, b


def full_sum(a, b):
    """Reference sum: both numerators over the common power, then the
    full canonicalization."""
    mz = max(a.mz, b.mz)
    nums = [e.num * divisor(a.space).pow(mz - e.mz) for e in (a, b)]
    return LaurentElem(nums[0] + nums[1], mz)


def full_diff(a, v):
    """Reference derivative of P / x^mz over the common denominator
    x^(mz+1), then the full canonicalization."""
    x = divisor(a.space)
    p = a.num
    return LaurentElem(p.diff(v) * x - (p * x.diff(v)).scale(a.mz), a.mz + 1)


def assert_same(got, want):
    assert (got.num, got.mz) == (want.num, want.mz)


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


@laurent_settings
@given(st.sampled_from(LAURENT_SPACES).flatmap(
    lambda sp: st.tuples(laurent_elems(sp), laurent_elems(sp))))
def test_laurent_diff_leibniz_rule(pair):
    a, b = pair
    for v in range(a.space.nvars):
        assert (a * b).diff(v) == a.diff(v) * b + a * b.diff(v)


# ----------------------------------------------------------------------
# the top order with a nonzero partial (DerivCache._reach) against
# brute-force differentiation

REACH_SPACES = LAURENT_SPACES + [VarSpace.cpn(3)]
# an unbounded reach is checked up to this order; a bounded one is at most
# 6 here (numerator degree 3, one drawn factor x, x^2 from mz = -2)
REACH_CHECKED = 4


@st.composite
def reach_cases(draw):
    space = draw(st.sampled_from(REACH_SPACES))
    return draw(laurent_elems(space)), draw(st.sampled_from(("z", "zb")))


@laurent_settings
@given(reach_cases())
def test_reach_is_the_top_order_with_a_nonzero_partial(case):
    # brute force: every partial of each order, from those of the order
    # below, until an order where all vanish
    f, block = case
    sp = f.space
    slot = {"z": sp.iz, "zb": sp.izb}[block]
    reach = DerivCache(f, block)._reach()
    level = {} if f.is_zero() else {(): f}
    top = 0 if level else -1
    for r in range(1, REACH_CHECKED + 1 if reach == math.inf else 8):
        level = {tuple(sorted(k + (v,))): e.diff(slot(v)) for k, e in level.items() for v in range(sp.nv)}
        level = {k: e for k, e in level.items() if not e.is_zero()}
        if not level:
            break
        top = r
    assert top == (REACH_CHECKED if reach == math.inf else reach)


def test_m_op_past_the_reach_differentiates_nothing():
    # 1 has no nonzero partial of order 1, so M_16(f, 1) is zero without a
    # single derivative of 1: a scan would fill dG with the C(20, 4) = 4845
    # multi-indices of order 16
    space = VarSpace.cpn(4)
    f = LaurentElem(Poly.variable(space, 0) * Poly.variable(space, space.izb(1)), 1)
    one = LaurentElem.one_of(space)
    dG = DerivCache(one, "zb")
    assert m_op(f, one, 16).is_zero()
    assert list(dG.cache.values()) == [one]


def test_x_pow_memo_matches_direct_powers():
    sp = VarSpace.dn(3)  # a new space: its memo starts empty
    for e in range(5):
        want = divisor(sp).pow(e)
        assert _x_pow_poly(sp, e) == want
        assert _x_pow_poly(sp, e) == want  # served by the memo


@laurent_settings
@given(st.sampled_from(LAURENT_SPACES).flatmap(laurent_elems), st.integers(0, 3))
def test_canonical_form_is_unique(a, k):
    # P * x^k / x^(m+k) canonicalizes back to P / x^m
    assert_same(LaurentElem(a.num * divisor(a.space).pow(k), a.mz + k), a)


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
    c*A*B (a sum whose numerator x divides), 'divides_j' adds
    c*(x^j*E - A)*B with E at A's power and j = 2 or 3 (a sum whose
    numerator x^j divides), and 'free' draws the powers freely; elements
    and scales are sometimes zero."""
    space = draw(st.sampled_from(LAURENT_SPACES))
    kind = draw(st.sampled_from(["tied", "unique", "cancel", "divides", "divides_j", "free"]))
    n = draw(st.integers(1, 4))
    items = []
    for i in range(n):
        if kind == "tied":
            a, b = draw(laurent_elems(space, 1)), draw(laurent_elems(space, 0))
        elif kind == "unique" and i == 0:
            a, b = draw(laurent_elems(space, 5)), draw(laurent_elems(space, 2))
        else:
            a, b = draw(laurent_elems(space)), draw(laurent_elems(space))
        items.append((draw(scales), a, b))
    if kind == "cancel":
        items += [(-c, a, b) for c, a, b in items]
    elif kind == "divides":
        x = LaurentElem.x_power(space, 1)
        items += [(c, x * draw(laurent_elems(space, 2)) - a, b) for c, a, b in items]
    elif kind == "divides_j":
        xj = LaurentElem.x_power(space, draw(st.integers(2, 3)))
        items += [(c, xj * draw(laurent_elems(space, a.mz)) - a, b) for c, a, b in items]
    return space, items


def folded_sum(space, items):
    """Reference: a left fold of (A*B).scale(c) with ``full_sum``, which
    adds on Poly numerators and canonicalizes in full, so the reference of
    ``sum_of_products`` never calls it."""
    return reduce(lambda acc, t: full_sum(acc, (t[1] * t[2]).scale(t[0])), items,
                  LaurentElem.zero_of(space))


def three_step_sum(space):
    """(2/3)(z0*zb1 - x^-3) + (2/3) x^-3: tied at x^-3, a sum whose
    numerator x^3 divides."""
    inv_x3 = LaurentElem.x_power(space, -3)
    z0zb1 = LaurentElem.variable(space, space.iz(0)) * LaurentElem.variable(space, space.izb(1))
    one = LaurentElem.one_of(space)
    return space, [(Fraction(2, 3), z0zb1 - inv_x3, one), (Fraction(2, 3), inv_x3, one)]


@laurent_settings
@given(product_items())
@example(three_step_sum(LAURENT_SPACES[0]))
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
    # (x - z0*zb0)/x + z0*zb0/x = 1: tied top powers whose sum divides by x
    zzb = z0 * LaurentElem.variable(space, space.izb(0))
    got = LaurentElem.sum_of_products(space, [(1, x - zzb, inv_x), (1, zzb, inv_x)])
    assert_same(got, one)
    # a unique top power: 1/x^2 + z0/x keeps x^2 in the denominator
    got = LaurentElem.sum_of_products(space, [(1, inv_x, inv_x), (Fraction(1, 2), z0, inv_x)])
    assert_same(got, folded_sum(space, [(1, inv_x, inv_x), (Fraction(1, 2), z0, inv_x)]))
    assert got.mz == 2


def reference_divided_by_x(p):
    """Reference long division by x on GaussianRational coefficients, with
    no null-point certificate in front."""
    space = p.space
    div = divisor(space).terms
    lead = max(div)
    n = space.n
    ia, ib = space.iz(n), space.izb(n)
    r = dict(p.terms)
    q = {}
    while r:
        kl = max(r)
        e = sparse.unpack(kl, space.nvars)
        if not (e[ia] and e[ib]):
            return None
        c = r.pop(kl) / div[lead]
        t = kl - lead
        q[t] = c
        for km, cm in div.items():
            if km != lead:
                r = sparse.tsub(r, {t + km: c * cm})
    return Poly(space, q)


def lifted(space, rest):
    """sum_e x^e * rest[e] for the ``rest`` groups of ``sparse.tstrip``."""
    return reduce(operator.add, (divisor(space).pow(e) * Poly(space, sparse.tnorm(acc))
                                 for e, acc in rest.items()), Poly.zero(space))


@props
@given(quotient_cases(), st.integers(0, 4), st.integers(0, 4),
       st.builds(Fraction, SMALL.filter(bool), st.integers(2, 7)))
# q = x*(z0*zb0 - z1*zb1) on CP^1, k = 2 and the second group at x^1:
# three steps, one of them after the second group joins
@example((SPACES[0], Poly.from_exponent_map(SPACES[0], {(1, 0, 1, 0): 1, (0, 1, 0, 1): -1})
          * divisor(SPACES[0])), 2, 1, Fraction(3, 7))
def test_tstrip_matches_repeated_reference_division(case, k, e, c):
    """tstrip on x^k*q as two tmac groups, c*x^k*q at x^0 with a key m
    entered once with each sign and (1 - c)*x^(k-e)*q at x^e (c of unlike
    denominators, e <= k), against reference division repeated until it
    returns None."""
    space, q = case
    nvars, e = space.nvars, e % (k + 1)
    x = divisor(space)
    m = {sparse.pack([1] * nvars): GaussianRational(Fraction(1, 5), 1)}
    groups = {0: {}}
    for scale, a in ((c, (x.pow(k) * q).terms), (1, m), (-1, m)):
        sparse.tmac(groups[0], a, {0: ONE}, nvars, scale)
    sparse.tmac(groups.setdefault(e, {}), (x.pow(k - e) * q).terms, {0: ONE}, nvars, 1 - c)
    got, rest = sparse.tstrip(groups, space.quad.terms, space.quad.lead, nvars)
    p = x.pow(k) * q
    if p.is_zero():
        assert (got, rest) == (0, {})
        return
    steps = 0
    while (r := reference_divided_by_x(p)) is not None:
        p, steps = r, steps + 1
    assert steps >= k and got == steps
    assert lifted(space, rest) == p
    assert reference_divided_by_x(Poly(space, sparse.tnorm(rest[0]))) is None


def test_tstrip_of_a_cancelled_sum_is_zero():
    # x^2 * q - x^2 * q on unlike denominators, in one group and in two
    space = SPACES[4]
    nvars, quad = space.nvars, space.quad
    q = Poly(space, {0: GaussianRational(Fraction(1, 3), 2)})
    p = divisor(space).pow(2) * q
    acc = sparse.tmac({}, p.terms, {0: ONE}, nvars, Fraction(2, 5))
    sparse.tmac(acc, p.terms, {0: ONE}, nvars, Fraction(-2, 5))
    assert acc and not any(t[0] or t[1] for t in acc.values())
    assert sparse.tstrip({0: acc}, quad.terms, quad.lead, nvars) == (0, {})
    groups = {0: sparse.tmac({}, p.terms, {0: ONE}, nvars), 2: sparse.tmac({}, q.terms, {0: ONE}, nvars, -1)}
    assert sparse.tstrip(groups, quad.terms, quad.lead, nvars) == (0, {})
    # x*q - x*q + x^3*z0: the lower groups cancel, so k skips to the top one
    z0 = Poly.variable(space, 0)
    groups = {0: sparse.tmac({}, (divisor(space) * q).terms, {0: ONE}, nvars),
              1: sparse.tmac({}, q.terms, {0: ONE}, nvars, -1), 3: sparse.tmac({}, z0.terms, {0: ONE}, nvars)}
    k, rest = sparse.tstrip(groups, quad.terms, quad.lead, nvars)
    assert (k, list(rest), sparse.tnorm(rest[0])) == (3, [0], z0.terms)


@st.composite
def division_cases(draw):
    """A multiple of x (with mixed denominators), that multiple plus a
    random remainder, or a free p."""
    space, q = draw(quotient_cases())
    kind = draw(st.sampled_from(["multiple", "perturbed", "free"]))
    if kind == "free":
        return q
    p = divisor(space) * q
    if kind == "perturbed":
        p = p + Poly(space, draw(term_dicts(space.nvars, max_deg=5, max_terms=2)))
    return p


def many_term_multiple(space):
    """x * (1 + sum_i c_i v_i)^4 over every variable of `space`, with mixed
    denominators: on CP^3, over 200 terms."""
    q = Poly.one(space)
    for i in range(space.nvars):
        q = q + Poly.variable(space, i).scale(GaussianRational(Fraction(1, i + 2), i % 3 - 1))
    return divisor(space) * q.pow(4)


def low_non_multiple(space):
    """(a z1 - b z0) z2 with (a, b) the null point's (z0, z1): it vanishes
    at the null point, so the certificate passes it on, and its keys sit
    below those of a many-term multiple, so the division reaches it last."""
    a, b = space.quad.null_point[:2]
    z0, z1 = Poly.variable(space, space.iz(0)), Poly.variable(space, space.iz(1))
    return (z1.scale(a) - z0.scale(b)) * Poly.variable(space, space.iz(2))


MANY = many_term_multiple(SPACES[4])


# x * i*(z1*zb1 - z0*zb0): the division meets keys that x*q cancelled
@props
@given(division_cases())
@example(divisor(SPACES[0]) * Poly.from_exponent_map(
    SPACES[0], {(0, 1, 0, 1): GaussianRational(0, 1), (1, 0, 1, 0): GaussianRational(0, -1)}))
@example(MANY)
@example(MANY + low_non_multiple(SPACES[4]))
def test_divided_by_x_matches_reference_division(p):
    got = p.divided_by_x()
    want = reference_divided_by_x(p)
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
    got = sparse.rekey(terms, _images(targets, tvars))
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
    slots = sparse.unpack(key, nvars)
    want = tuple(sum(slots[b:b + width]) for b in range(0, nvars, width))
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
    from wickred.wick import tensor

    f, g = pair
    assert_same(restrict_diagonal(tensor(f, g)), f * g)


def reference_conj(p):
    """Reference: unpack, swap the z/zb slices, pack."""
    space, nv = p.space, p.space.nv
    out = {}
    for k, c in p.terms.items():
        exps = list(sparse.unpack(k, space.nvars))
        exps[0:nv], exps[nv:2 * nv] = exps[nv:2 * nv], exps[0:nv]
        out[sparse.pack(exps)] = c.conj()
    return out


@laurent_settings
@given(st.sampled_from(REKEY_SPACES).flatmap(
    lambda sp: term_dicts(sp.nvars, max_deg=3, max_terms=5).map(lambda t: Poly(sp, t))))
def test_conj_matches_reference_and_is_an_involution(p):
    assert p.conj().terms == reference_conj(p)
    assert p.conj().conj() == p


def reference_hom_to_chart(f, mode):
    """Reference: unpack, send z^k, zb^k (k >= 1) to the chart slots of
    the mode, drop z^0 and zb^0, pack, merge with tcollect."""
    from wickred.chart import ChartElem

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
    from wickred.chart import hom_to_chart

    got = hom_to_chart(f, mode)
    assert (got.num, got.den) == reference_hom_to_chart(f, mode)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hom_to_chart_rejects_the_indefinite_metric(n):
    from wickred.chart import hom_to_chart

    with pytest.raises(ValueError, match="definite metric"):
        hom_to_chart(LaurentElem.one_of(VarSpace.dn(n)), "vv")


# ----------------------------------------------------------------------
# the localizing quadratic, one map for every diagonal operator

QUAD_SPACES = [make(n) for make in (VarSpace.cpn, VarSpace.dn) for n in (1, 2, 3)]


@pytest.mark.parametrize("space", QUAD_SPACES, ids=repr)
def test_quad_holds_the_metric_quadratic(space):
    nv = space.nv
    want = Poly.zero(space)
    for k in range(nv):
        v, vb = Poly.variable(space, space.iz(k)), Poly.variable(space, space.izb(k))
        want = want + (v * vb).scale(space.metric[k])
    assert space.quad.terms == want.terms
    assert space.quad.lead == max(want.terms)
    assert want.eval(space.quad.null_point) == ZERO


def degrees_reference(f, key):
    """The degrees (z, zb) of one term of f as a function: unpack the key,
    sum each block, subtract the x power."""
    nv = f.space.nv
    exps = sparse.unpack(key, f.space.nvars)
    return [sum(exps[:nv]) - f.mz, sum(exps[nv:]) - f.mz]


DIAGONAL_WEIGHTS = {
    "E": lambda d: d[0],
    "Ebar": lambda d: d[1],
    "Y": lambda d: GaussianRational(0, d[0] - d[1]),
    "H": lambda d: d[0] + d[1],
    "dx": lambda d: d[0],
}


def diagonal_reference(f, which):
    """Sum over the terms of f, each scaled by its weight as a separate
    Laurent element; d/dx also divides each term by x."""
    out = LaurentElem.zero_of(f.space)
    for key, c in f.num.terms.items():
        term = LaurentElem(Poly(f.space, {key: c}), f.mz)
        term = term.scale(DIAGONAL_WEIGHTS[which](degrees_reference(f, key)))
        out = out + (term.mul_xpow(-1) if which == "dx" else term)
    return out


@st.composite
def invariant_elems(draw, space):
    """A canonical element whose every monomial has equal z- and
    zb-degree."""
    nv = space.nv
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(0, 2))
        exps = draw(exponent_vectors(nv, d).filter(lambda e, d=d: sum(e) == d))
        exps += draw(exponent_vectors(nv, d).filter(lambda e, d=d: sum(e) == d))
        terms[sparse.pack(exps)] = draw(nonzero_gaussians)
    num = Poly(space, terms)
    if draw(st.booleans()):
        num = num * divisor(space)
    return LaurentElem(num, draw(st.integers(-2, 2)))


DIAGONAL_SPACES = LAURENT_SPACES + [VarSpace.cpn(3)]


@laurent_settings
@given(st.sampled_from(DIAGONAL_SPACES).flatmap(
    lambda sp: st.tuples(laurent_elems(sp), invariant_elems(sp))))
@example((LaurentElem.zero_of(VarSpace.cpn(1)), LaurentElem.zero_of(VarSpace.cpn(1))))
def test_diagonal_operators_match_per_term_reference(pair):
    f, inv = pair
    for which in ("E", "Ebar", "Y", "H"):
        assert euler(f, which) == diagonal_reference(f, which)
    assert inv.dx() == diagonal_reference(inv, "dx")


@pytest.mark.parametrize("space, which", [(VarSpace.cpn(1), "bogus"), (VarSpace.dn(2), "bogus")])
def test_euler_rejects_an_unknown_operator_before_any_term(space, which):
    # a zero element has no term to look at, so the name is checked first
    with pytest.raises(ValueError):
        euler(LaurentElem.zero_of(space), which)


def quadratic_value(space, pt):
    return sum((space.metric[k] * v * v.conj() for k, v in enumerate(pt)), ZERO)


@laurent_settings
@given(st.sampled_from(DIAGONAL_SPACES).flatmap(lambda sp: st.tuples(
    laurent_elems(sp), st.lists(gaussians, min_size=sp.nv, max_size=sp.nv))),
    st.integers(-2, 2))
def test_mul_xpow_scales_the_value_by_the_quadratic(case, j):
    f, zs = case
    xv = quadratic_value(f.space, zs)
    assume(xv)
    assert point_eval(f.mul_xpow(j), zs) == point_eval(f, zs) * xv ** j


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
        acc = acc + weights[r].map(lambda c, mr=m_op(f, g, r): mr * c)
    return acc


def folded_poisson(F, G):
    space = F.space
    acc = LaurentElem.zero_of(space)
    for k in range(space.nv):
        z, zb, g = space.iz(k), space.izb(k), space.metric[k]
        acc = acc + (F.diff(z) * G.diff(zb) - F.diff(zb) * G.diff(z)).scale(g)
    return acc.scale(GaussianRational(0, -2))


def folded_op_calm(T, r):
    """(g z wb)^r times sum over |beta| = r of r! g^beta / beta! times
    d^beta/dz d^beta/dwb T, each derivative taken variable by variable on
    the symbol."""
    space = T.f.space
    nv = space.nv
    acc = T.scale(0)
    for beta in itertools.product(range(r + 1), repeat=nv):
        if sum(beta) != r:
            continue
        d = T
        for k, b in enumerate(beta):
            for _ in range(b):
                d = d_wb(d_z(d, k), k)
        sign = reduce(operator.mul, (space.metric[k] ** b for k, b in enumerate(beta)), 1)
        den = reduce(operator.mul, map(math.factorial, beta), 1)
        acc = acc + d.scale(Fraction(math.factorial(r) * sign, den))
    zwb = Poly.zero(space)
    for k in range(nv):
        zwb = zwb + (Poly.variable(space, space.iz(k)) * Poly.variable(space, space.izb(k))).scale(
            space.metric[k])
    return times(acc, zwb.pow(r))


@st.composite
def two_point_symbols(draw, space):
    """A symbol of two free elements with up to three terms at free keys."""
    f, g = draw(laurent_elems(space)), draw(laurent_elems(space))
    index = st.lists(st.integers(0, 2), min_size=space.nv, max_size=space.nv).map(tuple)
    pairs = draw(st.lists(st.tuples(st.tuples(index, index), term_dicts(space.nvars, max_deg=3, max_terms=3)),
                          max_size=3))
    return from_pairs(f, g, [(key, Poly(space, t)) for key, t in pairs])


@st.composite
def sum_cases(draw):
    """A context on CP^1, CP^2 or D^1 with D = 1 or 1 + l/x, an invariant
    series, two homogeneous elements, two free elements and one two-point
    symbol."""
    space = draw(st.sampled_from(SUM_SPACES))
    ctx = StarContext(space=space, K=3, D=draw(st.sampled_from([(1,), (1, 1)])),
                      mu=draw(st.sampled_from([Fraction(-1, 2), Fraction(-2, 3)])))
    F = Series([draw(invariant_elems(space)) for _ in range(ctx.K + 1)])
    f, g = draw(homogeneous_elems(space)), draw(homogeneous_elems(space))
    a, b = draw(laurent_elems(space)), draw(laurent_elems(space))
    return ctx, F, f, g, a, b, draw(two_point_symbols(space))


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
    assert poisson(a, b) == folded_poisson(a, b)
    assert op_calm(T, r) == folded_op_calm(T, r)


def folded_restrict_diagonal(T):
    """sum P * d^alpha f * dbar^beta g, each derivative taken variable by
    variable and the terms folded with pairwise +."""
    space = T.f.space
    acc = LaurentElem.zero_of(space)
    for (alpha, beta), p in T.terms.items():
        a = reduce(LaurentElem.diff, [space.iz(k) for k, e in enumerate(alpha) for _ in range(e)], T.f)
        b = reduce(LaurentElem.diff, [space.izb(k) for k, e in enumerate(beta) for _ in range(e)], T.g)
        acc = acc + LaurentElem(p) * a * b
    return acc


@st.composite
def restriction_symbols(draw, space):
    """A symbol of two nonzero elements with x in their denominators, so
    no derivative vanishes, and up to three nonzero terms."""
    f, g = (draw(laurent_elems(space, draw(st.integers(1, 2))).filter(lambda e: not e.is_zero()))
            for _ in range(2))
    index = st.lists(st.integers(0, 2), min_size=space.nv, max_size=space.nv).map(tuple)
    pairs = draw(st.lists(st.tuples(st.tuples(index, index),
                                    term_dicts(space.nvars, max_deg=3, max_terms=3).filter(bool)),
                          min_size=1, max_size=3))
    return from_pairs(f, g, [(key, Poly(space, t)) for key, t in pairs])


@sum_settings
@given(st.sampled_from(SUM_SPACES).flatmap(restriction_symbols))
def test_restrict_diagonal_matches_folded_reference(T):
    # P is multiplied in uncanonicalized and x may divide it, so only the
    # whole sum is canonical
    assert_same(restrict_diagonal(T), folded_restrict_diagonal(T))


# ----------------------------------------------------------------------
# the coefficient tables A^(r)_s and c_{r,s}, against definitions computed
# here; (r, s) pairs are drawn in random order, so rows of A fill out of
# order and across cache hits

coeff_settings = settings(deadline=None, max_examples=60)
TABLE_INDICES = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=30)


@lru_cache(maxsize=None)
def stirling2(n, k):
    """S(n, k) from its triangle S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    table = [1] + [0] * k  # row 0 of the triangle, up to column k
    for _ in range(n):
        table = [0] + [j * table[j] + table[j - 1] for j in range(1, k + 1)]
    return table[k]


@coeff_settings
@given(TABLE_INDICES)
def test_a_coeff_satisfies_the_product_recurrence(pairs):
    # prod_{k<=r} (1 + k u)^(-1) = prod_{k<r} (1 + k u)^(-1) / (1 + r u)
    for r, s in pairs:
        if r == 0:
            assert a_coeff(r, s) == (1 if s == 0 else 0)
        elif s == 0:
            assert a_coeff(r, s) == 1
        else:
            assert a_coeff(r, s) == a_coeff(r - 1, s) - r * a_coeff(r, s - 1)


@coeff_settings
@given(TABLE_INDICES)
def test_coefficient_tables_are_stirling_numbers(pairs):
    # Graham, Knuth & Patashnik, Concrete Mathematics, ch. 6
    for r, s in pairs:
        assert a_coeff(r, s) == (-1) ** s * stirling2(r + s, r)
        if r and s and s <= r:
            assert k_coeff(r, s) == Fraction((-1) ** (r - s) * stirling2(r, s), math.factorial(s))


def test_a_coeff_matches_series_oracle():
    oracle = a_table_oracle(12, 12)
    assert [[a_coeff(r, s) for s in range(13)] for r in range(13)] == oracle
