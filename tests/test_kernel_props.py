"""Property tests for the sparse kernel: exact evaluation, exponent packing,
the null-point certificate in front of division by x, the re-keying merge
and the one power routine."""

import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wickred import sparse
from wickred.poly import LaurentElem, Poly, VarSpace
from wickred.scalar import ONE, ZERO, GaussianRational, power
from wickred.series import Series, UnivarPoly

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
    return Poly(space, dict(space.x_terms if block == "z" else space.xw_terms))


def null_point(space, block):
    return space.null_point_z if block == "z" else space.null_point_w


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
