"""Named verification suites behind the `verify` CLI command, and the
check builders they are made of.

Each `check_*` builder evaluates one identity exactly and appends one
`Check` per instance to a list: pass/fail, and a one-line summary of the
offending residual when something is nonzero.  The acceptance tests call
the same builders, so each identity is assembled in one place.  A builder
that takes `rng` draws its random inputs from it in a fixed order, so a
fixed seed gives a fixed report.  Builders with a D variant take a context
with D = 1 and also check it with D = 1 + lambda/x.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from random import Random

from . import equiv, moreno, reduction, sparse
from .parser import format_term
from .poly import LaurentElem, is_radial
from .sampling import rand_homogeneous, rand_invariant, rand_poly, rand_radial
from .scalar import GaussianRational, factorial
from .series import Series, UnivarPoly
from .wick import (
    commutator_check,
    default_context,
    m_op,
    product_formula_check,
    radial_elem,
    radial_invariant_expansion,
    wick_product,
    wick_product_elems,
)

SUITE_NAMES = ("lemma21", "equiv", "reduce", "moreno", "su1n")


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""

    def to_obj(self):
        obj = {"name": self.name, "ok": self.ok}
        if self.detail:
            obj["detail"] = self.detail
        return obj


@dataclass
class Report:
    suite: str
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_obj(self):
        return {
            "suite": self.suite,
            "ok": self.ok,
            "checks": [c.to_obj() for c in sorted(self.checks, key=lambda c: c.name)],
        }


def _first_term(res) -> tuple:
    """(term count, first term) of a nonzero residual that is not a Series."""
    if isinstance(res, equiv.SparsePoly):
        key = min(res.terms)
        return len(res.terms), str(equiv.SparsePoly(res.arity, {key: res.terms[key]}))
    if isinstance(res, UnivarPoly):
        k = next(k for k, c in enumerate(res.coeffs) if not c.is_zero())
        count = sum(not c.is_zero() for c in res.coeffs)
        return count, str(UnivarPoly.monomial(res.coeffs[k], k, res.var))
    if isinstance(res, LaurentElem):
        terms, nvars, names = res.num.terms, res.space.nvars, res.space.var_names
        den = {"x": res.mz, "xw": res.mw}
    else:  # moreno.ChartElem: num / (D1^a D2^b D3^c D4^d) in u, ub, v, vb
        terms, nvars = res.num, res.nvars
        names = [f"{b}{k}" for b in ("u", "ub", "v", "vb") for k in range(1, res.n + 1)]
        den = {f"D{i}": d for i, d in enumerate(res.den, start=1)}
    key, c = max(terms.items())
    term = format_term(c, sparse.unpack(key, nvars), names)
    return len(terms), term + "".join(f"*{b}^{-d}" for b, d in den.items() if d)


def _residual_str(res) -> str:
    """One line: for a Series its order and first nonzero lambda-power,
    then that coefficient's term count and first term."""
    prefix = ""
    if isinstance(res, Series):
        m = next(m for m, c in enumerate(res.coeffs) if not c.is_zero())
        prefix = f"order {res.order}, first nonzero at l^{m}: "
        res = res.coeffs[m]
    count, first = _first_term(res)
    return f"{prefix}{count} terms, first {first}"


def _add(checks: list, name: str, ok: bool):
    checks.append(Check(name, bool(ok)))


def _zero(checks: list, name: str, *residuals, K=None):
    """Record that every residual vanishes identically.  A Series residual
    must also have order K: Series arithmetic truncates to the shorter
    operand, so a short residual would check fewer orders than asked for."""
    for res in residuals:
        if isinstance(res, Series) and res.order != K:
            checks.append(Check(name, False, f"residual has order {res.order}, expected K = {K}"))
            return
    bad = next((res for res in residuals if not res.is_zero()), None)
    checks.append(Check(name, bad is None, "" if bad is None else _residual_str(bad)))


def _d_variants(ctx):
    """ctx (D = 1) and its D = 1 + lambda/x variant, with their labels."""
    return (("D1", ctx), ("D1+l/x", replace(ctx, D=(1, 1))))


# ----------------------------------------------------------------------
# Wick product (Lemma 2.1)


def check_associativity(checks, ctx, rng, count, tag):
    for t in range(count):
        F, G, H = (rand_poly(ctx.space, rng, max_deg=3) for _ in range(3))
        left = wick_product(wick_product_elems(F, G, ctx), Series.const(H, ctx.K), ctx)
        right = wick_product(Series.const(F, ctx.K), wick_product_elems(G, H, ctx), ctx)
        _zero(checks, f"{tag}/wick-assoc-{t}", left - right, K=ctx.K)


def check_radial_tuple(checks, ctx, rng, idx, tag):
    """Radial/invariant/homogeneous product relations and the M_r expansion
    on one random tuple."""
    space, K = ctx.space, ctx.K
    rho1, rho2 = rand_radial(rng), rand_radial(rng)
    R1, R2 = radial_elem(rho1, space), radial_elem(rho2, space)
    F = rand_invariant(space, rng)
    f, g = rand_homogeneous(space, rng), rand_homogeneous(space, rng)

    lhs = wick_product_elems(R1, F, ctx)
    expansion = radial_invariant_expansion(rho1, F, ctx)
    sym = wick_product_elems(F, R1, ctx)
    _zero(checks, f"{tag}/radial-invariant-expansion-{idx}", lhs - expansion, K=K)
    _zero(checks, f"{tag}/radial-invariant-symmetric-{idx}", lhs - sym, K=K)

    r12 = wick_product_elems(R1, R2, ctx)
    r21 = wick_product_elems(R2, R1, ctx)
    _zero(checks, f"{tag}/radial-radial-commute-{idx}", r12 - r21, K=K)
    _add(checks, f"{tag}/radial-radial-closed-{idx}", all(is_radial(c) for c in r12.coeffs))

    pointwise = Series.const(R1 * f, K)
    _zero(checks, f"{tag}/radial-homogeneous-pointwise-{idx}",
          wick_product_elems(R1, f, ctx) - pointwise,
          wick_product_elems(f, R1, ctx) - pointwise, K=K)

    fg = wick_product_elems(f, g, ctx)
    rebuilt, homog = [], True
    for r in range(K + 1):
        mr = m_op(f, g, r, ctx)
        homog = homog and (mr.is_zero() or mr.is_homogeneous())
        rebuilt.append(mr.mul_xpow(-r).scale(Fraction(1, factorial(r))))
    _add(checks, f"{tag}/m-operators-homogeneous-{idx}", homog)
    _zero(checks, f"{tag}/m-operator-expansion-{idx}", fg - Series(rebuilt), K=K)


def check_commutators(checks, ctx, rng, count, tag):
    space = ctx.space
    for t in range(count):
        F = rand_poly(space, rng, max_deg=2)
        G = rand_poly(space, rng, max_deg=2)
        res = commutator_check(F, G, ctx)
        _zero(checks, f"{tag}/first-order-commutator-{t}", res.coeffs[1], K=ctx.K)
    J = reduction.momentum_map(ctx)
    for t in range(count):
        F = rand_poly(space, rng, max_deg=2)
        _zero(checks, f"{tag}/momentum-commutator-exact-{t}", commutator_check(F, J, ctx), K=ctx.K)


# ----------------------------------------------------------------------
# the equivalence transformation S and the transformed product


def a_table_oracle(rmax: int, smax: int) -> list:
    """u-series of prod_{k=1..r}(1 + k u) inverted order by order."""
    rows = []
    for r in range(rmax + 1):
        prod = UnivarPoly([1], "u")
        for k in range(1, r + 1):
            prod = prod * UnivarPoly([1, k], "u")
        inv = [Fraction(1)]
        for s in range(1, smax + 1):
            acc = Fraction(0)
            for t in range(1, min(s, prod.degree) + 1):
                acc += prod.coeff(t).re * inv[s - t]
            inv.append(-acc)
        rows.append(inv)
    return rows


def check_a_table(checks, tag, rmax=6, smax=6):
    oracle = a_table_oracle(rmax, smax)
    _add(checks, f"{tag}/a-table-vs-inversion-oracle", all(
        equiv.a_coeff(r, s) == oracle[r][s] for r in range(rmax + 1) for s in range(smax + 1)))


def check_symbol_at_zero(checks, ctx, tag):
    one = Series.const(equiv.SparsePoly.constant(2, 1), ctx.K)
    _add(checks, f"{tag}/symbol-at-zero-is-one", equiv.symbol_at_alpha_zero(ctx) == one)


def check_functional_equation(checks, ctx, tag):
    for label, c in _d_variants(ctx):
        _zero(checks, f"{tag}/functional-equation-{label}",
              equiv.functional_equation_residual(c), K=c.K)


def check_standard_ordering(checks, ctx, tag, js=range(-3, 4)):
    """S on x^j against the standard-ordered action, for j in js."""
    for label, c in _d_variants(ctx):
        diffs = [equiv.s_apply_xpow(j, c) - equiv.standard_order_apply(j, c) for j in js]
        _zero(checks, f"{tag}/standard-ordering-{label}", *diffs, K=c.K)


def check_s_roundtrip(checks, ctx, rng, tag):
    F = Series([rand_invariant(ctx.space, rng) for _ in range(ctx.K + 1)])
    round_trip = equiv.s_apply(equiv.s_apply(F, ctx), ctx, inverse=True)
    _zero(checks, f"{tag}/s-inverse-roundtrip", round_trip - F, K=ctx.K)


def check_equivalence_transform(checks, ctx, rng, count, tag):
    for t in range(count):
        res = equiv.equivalence_check(rand_radial(rng), rand_radial(rng), ctx)
        _zero(checks, f"{tag}/equivalence-transform-{t}", res, K=ctx.K)


def check_tilde_relations(checks, ctx, rng, tag):
    """Radial functions multiply pointwise under the transformed product,
    and its closed formula on homogeneous functions."""
    space, K = ctx.space, ctx.K
    rho1, rho2 = rand_radial(rng), rand_radial(rng)
    R1, R2 = radial_elem(rho1, space), radial_elem(rho2, space)
    F1 = rand_invariant(space, rng)
    f, g = rand_homogeneous(space, rng), rand_homogeneous(space, rng)
    tilde = equiv.tilde_star_elems
    _zero(checks, f"{tag}/tilde-radial-radial",
          tilde(R1, R2, ctx) - Series.const(R1 * R2, K), K=K)
    _zero(checks, f"{tag}/tilde-radial-invariant",
          tilde(R1, F1, ctx) - Series.const(R1 * F1, K),
          tilde(F1, R1, ctx) - Series.const(R1 * F1, K), K=K)
    _zero(checks, f"{tag}/tilde-radial-homog", tilde(R1, f, ctx) - Series.const(R1 * f, K), K=K)
    _zero(checks, f"{tag}/tilde-closed-formula",
          equiv.tilde_star_closed(f, g, ctx) - tilde(f, g, ctx), K=K)


def check_tilde_assoc(checks, ctx, rng, count, tag):
    for t in range(count):
        A, B, C = (Series.const(rand_invariant(ctx.space, rng), ctx.K) for _ in range(3))
        left = equiv.tilde_star(equiv.tilde_star(A, B, ctx), C, ctx)
        right = equiv.tilde_star(A, equiv.tilde_star(B, C, ctx), ctx)
        _zero(checks, f"{tag}/tilde-assoc-{t}", left - right, K=ctx.K)


# ----------------------------------------------------------------------
# the reduced product


def check_k_coeff_routes(checks, tag):
    """c_{r,s} against A^(s)_{r-s} / s! for r <= 10."""
    _add(checks, f"{tag}/k-coeff-two-routes", all(
        reduction.k_coeff(r, s) == equiv.a_coeff(s, r - s) / factorial(s)
        for r in range(1, 11) for s in range(1, r + 1)))


def check_mu_star_symmetries(checks, ctx, tag, phi, psi):
    """1 is the unit of the reduced product, and conjugation reverses it."""
    K = ctx.K
    one = Series.const(LaurentElem.one_of(ctx.space), K)
    unit = reduction.mu_star(Series.const(phi, K), one, ctx) - Series.const(phi, K)
    _zero(checks, f"{tag}/mu-star-unit", unit, K=K)
    conj = reduction.mu_star_elems(phi, psi, ctx).map(lambda c: c.conj()) - \
        reduction.mu_star_elems(psi.conj(), phi.conj(), ctx)
    _zero(checks, f"{tag}/mu-star-conjugation", conj, K=K)


def check_mu_star(checks, ctx, tag, phi, psi, chi):
    """Associativity of the reduced product on (phi, psi, chi) and its
    first-order commutator against the reduced Poisson bracket."""
    K = ctx.K
    prod = reduction.mu_star_elems(phi, psi, ctx)
    left = reduction.mu_star(prod, Series.const(chi, K), ctx)
    right = reduction.mu_star(Series.const(phi, K), reduction.mu_star_elems(psi, chi, ctx), ctx)
    _zero(checks, f"{tag}/mu-star-assoc", left - right, K=K)
    prod_r = reduction.mu_star_elems(psi, phi, ctx)
    half_i = GaussianRational(0, Fraction(1, 2))
    comm1 = (prod - prod_r).coeffs[1] - reduction.reduced_poisson(phi, psi, ctx).scale(half_i)
    _zero(checks, f"{tag}/mu-star-commutator", comm1, K=K)


def check_reduce_compatibility(checks, ctx, tag, F, G):
    _zero(checks, f"{tag}/reduce-compatibility",
          reduction.reduction_compatibility(F, G, ctx), K=ctx.K)


def check_reduction_routes(checks, ctx, tag, phi, psi):
    """The closed reduced product against projecting the Wick product
    through S and against order-by-order division by (J - mu)."""
    t1 = reduction.mu_star_elems(phi, psi, ctx)
    t2 = reduction.wick_reduce(phi, psi, ctx)
    t3 = reduction.wick_reduce_by_division(phi, psi, ctx)
    _zero(checks, f"{tag}/triangle-wick-reduce", t1 - t2, K=ctx.K)
    _zero(checks, f"{tag}/triangle-division", t1 - t3, K=ctx.K)


def check_ideal_decomposition(checks, ctx, rng, tag):
    space = ctx.space
    inv = Series([rand_invariant(space, rng) for _ in range(ctx.K + 1)])
    dec = reduction.ideal_decompose(inv, ctx)
    Jmu = reduction.momentum_map(ctx) - LaurentElem.scalar(space, ctx.mu)
    rebuilt = dec.projection + dec.multiplier.map(lambda c: Jmu * c)
    _zero(checks, f"{tag}/ideal-decomposition", rebuilt - inv, K=ctx.K)
    _add(checks, f"{tag}/ideal-multiplier-invariant",
         all(c.is_invariant() for c in dec.multiplier.coeffs))


def check_quantum_momentum(checks, ctx, tag, F):
    for label, c in _d_variants(ctx):
        _zero(checks, f"{tag}/quantum-momentum-{label}",
              reduction.quantum_momentum_check(F, c), K=c.K)


def check_reparametrization(checks, ctx, tag, phi, psi):
    _zero(checks, f"{tag}/reparametrization",
          reduction.reparametrize_check(phi, psi, (1, 1), ctx), K=ctx.K)


def check_two_point(checks, ctx, rng, count, tag):
    for t in range(count):
        f, g = rand_homogeneous(ctx.space, rng), rand_homogeneous(ctx.space, rng)
        for r in (1, 2, 3):
            _zero(checks, f"{tag}/two-point-formula-r{r}-{t}", product_formula_check(r, f, g, ctx))


# ----------------------------------------------------------------------
# the sphere recursion and the inhomogeneous chart


def check_sphere_recursion(checks, tag, rmax):
    for r in range(1, rmax + 1):
        _zero(checks, f"{tag}/recursion-r{r}", moreno.moreno_recursion_residual(r))
    _add(checks, f"{tag}/coefficient-vanishing", all(
        moreno.coeff_vanishing(r, s) == 0 for r in range(2, rmax + 1) for s in range(2, r + 1)))
    _add(checks, f"{tag}/a-identity", all(
        moreno.a_identity_check(s, t) == 0 for s in range(1, 9) for t in range(s, 13)))


def check_k_polys(checks, tag, rmax):
    """k~_r(Delta) against sum_s c_{r,s} p_s(Delta) on CP^1 and CP^2."""
    for nn in (1, 2):
        _add(checks, f"{tag}/k-poly-vs-k-coeff-n{nn}", all(
            sum((moreno.p_poly(s, nn).scale(reduction.k_coeff(r, s)) for s in range(1, r + 1)),
                UnivarPoly.zero_poly("Delta")) == moreno.k_poly(r, nn)
            for r in range(1, rmax + 1)))


def check_charts(checks, ctx, rng, count, tag, rs=(1, 2)):
    for t in range(count):
        phi, psi = (rand_homogeneous(ctx.space, rng, deg=1) for _ in range(2))
        for r in rs:
            _zero(checks, f"{tag}/chart-r{r}-{t}", moreno.chart_cross_check(phi, psi, r, ctx))


# ----------------------------------------------------------------------
# the suites


def suite_lemma21(n, K, mu, seed) -> list:
    rng = Random(seed)
    checks = []
    ctx = default_context(n, K, mu)
    tag = f"lemma21-n{n}-cpn"
    check_associativity(checks, ctx, rng, 3, tag)
    for idx in range(3):
        check_radial_tuple(checks, ctx, rng, idx, tag)
    check_commutators(checks, ctx, rng, 2, tag)
    return checks


def suite_equiv(n, K, mu, seed) -> list:
    rng = Random(seed)
    checks = []
    ctx = default_context(n, K, mu)
    tag = f"equiv-n{n}"
    check_a_table(checks, tag)
    check_symbol_at_zero(checks, ctx, tag)
    check_functional_equation(checks, ctx, tag)
    check_standard_ordering(checks, ctx, tag)
    check_s_roundtrip(checks, ctx, rng, tag)
    check_equivalence_transform(checks, ctx, rng, 2, tag)
    check_tilde_relations(checks, ctx, rng, tag)
    check_tilde_assoc(checks, ctx, rng, 1, tag)
    return checks


def suite_reduce(n, K, mu, seed) -> list:
    rng = Random(seed)
    checks = []
    ctx = default_context(n, K, mu)
    space = ctx.space
    tag = f"reduce-n{n}-cpn"
    check_k_coeff_routes(checks, tag)
    phi, psi, chi = (rand_homogeneous(space, rng) for _ in range(3))
    check_mu_star_symmetries(checks, ctx, tag, phi, psi)
    check_mu_star(checks, ctx, tag, phi, psi, chi)
    F, G = (Series.const(rand_invariant(space, rng), ctx.K) for _ in range(2))
    check_reduce_compatibility(checks, ctx, tag, F, G)
    check_reduction_routes(checks, ctx, tag, phi, psi)
    check_ideal_decomposition(checks, ctx, rng, tag)
    check_quantum_momentum(checks, ctx, tag, F)
    check_reparametrization(checks, ctx, tag, phi, psi)
    check_two_point(checks, ctx, rng, 2, tag)
    return checks


def suite_moreno(rmax: int = 10, seed: int = 0) -> list:
    """The sphere (n = 1): its report depends only on rmax and seed, since
    the chart check reads only n from its context."""
    rng = Random(seed)
    checks = []
    tag = "moreno"
    check_sphere_recursion(checks, tag, rmax)
    check_k_polys(checks, tag, rmax)
    check_charts(checks, default_context(1), rng, 3, tag)
    return checks


def suite_su1n(n, K, mu, seed) -> list:
    rng = Random(seed)
    checks = []
    ctx = default_context(n, K, mu, "dn")
    tag = f"su1n-n{n}"
    check_associativity(checks, ctx, rng, 2, tag)
    for idx in range(2):
        check_radial_tuple(checks, ctx, rng, idx, tag)
    check_commutators(checks, ctx, rng, 1, tag)
    phi, psi, chi = (rand_homogeneous(ctx.space, rng) for _ in range(3))
    check_mu_star(checks, ctx, tag, phi, psi, chi)
    return checks


# ----------------------------------------------------------------------


def run_suite(name: str, n: int = 1, order: int = 4, mu=Fraction(-1, 2), seed: int = 0,
              rmax: int = 10) -> Report:
    mu = Fraction(mu)
    runners = {
        "lemma21": lambda: suite_lemma21(n, order, mu, seed),
        "equiv": lambda: suite_equiv(n, order, mu, seed),
        "reduce": lambda: suite_reduce(n, order, mu, seed),
        "moreno": lambda: suite_moreno(rmax=rmax, seed=seed),
        "su1n": lambda: suite_su1n(n, order, mu, seed),
    }
    if name == "all":
        return Report(name, [c for s in SUITE_NAMES for c in runners[s]()])
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}")
    return Report(name, runners[name]())
