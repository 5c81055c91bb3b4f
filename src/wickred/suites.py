"""Named verification suites behind the `verify` CLI command.

Each check evaluates one identity exactly and records pass/fail together
with the offending residual when something is nonzero.  Suites draw their
random inputs from a seeded generator, so a fixed seed gives a fixed
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from . import equiv, moreno, reduction
from .parser import format_series
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


def _residual_str(res) -> str:
    try:
        if isinstance(res, Series):
            return format_series(res)
        return str(res)
    except Exception:
        return repr(res)


def _add(checks: list, name: str, residual_is_zero, residual=None):
    ok = bool(residual_is_zero)
    detail = "" if ok else _residual_str(residual)
    checks.append(Check(name, ok, detail))


# ----------------------------------------------------------------------


def _check_associativity(checks, ctx, rng, count, tag, max_deg=3):
    for t in range(count):
        F = rand_poly(ctx.space, rng, max_deg=max_deg)
        G = rand_poly(ctx.space, rng, max_deg=max_deg)
        H = rand_poly(ctx.space, rng, max_deg=max_deg)
        left = wick_product(wick_product_elems(F, G, ctx), Series.const(H, ctx.K), ctx)
        right = wick_product(Series.const(F, ctx.K), wick_product_elems(G, H, ctx), ctx)
        _add(checks, f"{tag}/wick-assoc-{t}", (left - right).is_zero(), left - right)


def _check_radial_tuple(checks, ctx, rng, idx, tag):
    space = ctx.space
    rho1, rho2 = rand_radial(rng), rand_radial(rng)
    R1, R2 = radial_elem(rho1, space), radial_elem(rho2, space)
    F = rand_invariant(space, rng)
    f = rand_homogeneous(space, rng)
    g = rand_homogeneous(space, rng)

    lhs = wick_product_elems(R1, F, ctx)
    expansion = radial_invariant_expansion(rho1, F, ctx)
    sym = wick_product_elems(F, R1, ctx)
    _add(checks, f"{tag}/radial-invariant-expansion-{idx}", (lhs - expansion).is_zero(), lhs - expansion)
    _add(checks, f"{tag}/radial-invariant-symmetric-{idx}", (lhs - sym).is_zero(), lhs - sym)

    r12 = wick_product_elems(R1, R2, ctx)
    r21 = wick_product_elems(R2, R1, ctx)
    _add(checks, f"{tag}/radial-radial-commute-{idx}", (r12 - r21).is_zero(), r12 - r21)
    _add(checks, f"{tag}/radial-radial-closed-{idx}", all(is_radial(c) for c in r12.coeffs))

    prod = wick_product_elems(R1, f, ctx)
    pointwise = Series.const(R1 * f, ctx.K)
    rev = wick_product_elems(f, R1, ctx)
    _add(checks, f"{tag}/radial-homogeneous-pointwise-{idx}",
         (prod - pointwise).is_zero() and (rev - pointwise).is_zero(),
         prod - pointwise)

    fg = wick_product_elems(f, g, ctx)
    rebuilt = Series.const(LaurentElem.zero_of(space), ctx.K)
    homog = True
    fact = 1
    for r in range(ctx.K + 1):
        if r:
            fact *= r
        mr = m_op(f, g, r, ctx)
        homog = homog and (mr.is_zero() or mr.is_homogeneous())
        term = mr.mul_xpow(-r).scale(Fraction(1, fact))
        rebuilt.coeffs[r] = rebuilt.coeffs[r] + term
    _add(checks, f"{tag}/m-operators-homogeneous-{idx}", homog)
    _add(checks, f"{tag}/m-operator-expansion-{idx}", (fg - rebuilt).is_zero(), fg - rebuilt)


def _check_commutators(checks, ctx, rng, count, tag):
    space = ctx.space
    for t in range(count):
        F = rand_poly(space, rng, max_deg=2)
        G = rand_poly(space, rng, max_deg=2)
        res = commutator_check(F, G, ctx)
        _add(checks, f"{tag}/first-order-commutator-{t}", res.coeffs[1].is_zero(), res)
    J = reduction.momentum_map(ctx)
    for t in range(count):
        F = rand_poly(space, rng, max_deg=2)
        res = commutator_check(F, J, ctx)
        _add(checks, f"{tag}/momentum-commutator-exact-{t}", res.is_zero(), res)


def _check_mu_star(checks, ctx, tag, phi, psi, chi):
    """Associativity of the reduced product on (phi, psi, chi) and its
    first-order commutator against the reduced Poisson bracket."""
    K = ctx.K
    left = reduction.mu_star(reduction.mu_star_elems(phi, psi, ctx), Series.const(chi, K), ctx)
    right = reduction.mu_star(Series.const(phi, K), reduction.mu_star_elems(psi, chi, ctx), ctx)
    _add(checks, f"{tag}/mu-star-assoc", (left - right).is_zero(), left - right)
    prod = reduction.mu_star_elems(phi, psi, ctx)
    prod_r = reduction.mu_star_elems(psi, phi, ctx)
    half_i = GaussianRational(0, Fraction(1, 2))
    comm1 = (prod - prod_r).coeffs[1] - reduction.reduced_poisson(phi, psi, ctx).scale(half_i)
    _add(checks, f"{tag}/mu-star-commutator", comm1.is_zero(), comm1)


def suite_lemma21(n, K, mu, seed, space_kind="cpn") -> list:
    rng = Random(seed)
    checks = []
    ctx = default_context(n, K, mu, space_kind)
    tag = f"lemma21-n{n}-{space_kind}"
    _check_associativity(checks, ctx, rng, 3, tag)
    for idx in range(3):
        _check_radial_tuple(checks, ctx, rng, idx, tag)
    _check_commutators(checks, ctx, rng, 2, tag)
    return checks


# ----------------------------------------------------------------------


def _a_table_oracle(rmax: int, smax: int) -> list:
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


def suite_equiv(n, K, mu, seed, space_kind="cpn") -> list:
    rng = Random(seed)
    checks = []
    ctx = default_context(n, K, mu, space_kind)
    ctx_d = default_context(n, K, mu, space_kind, D=(1, 1))
    space = ctx.space
    tag = f"equiv-n{n}"

    oracle = _a_table_oracle(6, 6)
    ok = all(
        equiv.a_coeff(r, s) == oracle[r][s] for r in range(7) for s in range(7)
    )
    _add(checks, f"{tag}/a-table-vs-inversion-oracle", ok)

    sym0 = equiv.symbol_at_alpha_zero(ctx)
    one = Series.const(equiv.SparsePoly.constant(2, 1), ctx.K)
    _add(checks, f"{tag}/symbol-at-zero-is-one", sym0 == one)

    for name, c in (("D1", ctx), ("D1+l/x", ctx_d)):
        res = equiv.functional_equation_residual(c)
        _add(checks, f"{tag}/functional-equation-{name}",
             all(p.is_zero() for p in res.coeffs), res)

    for name, c in (("D1", ctx), ("D1+l/x", ctx_d)):
        ok = True
        worst = None
        for j in range(-3, 4):
            diff = equiv.s_apply_xpow(j, c) - equiv.standard_order_apply(j, c)
            if not diff.is_zero():
                ok = False
                worst = diff
        _add(checks, f"{tag}/standard-ordering-{name}", ok, worst)

    F = Series([rand_invariant(space, rng) for _ in range(ctx.K + 1)])
    round_trip = equiv.s_apply(equiv.s_apply(F, ctx), ctx, inverse=True)
    _add(checks, f"{tag}/s-inverse-roundtrip", (round_trip - F).is_zero(), round_trip - F)

    for t in range(2):
        res = equiv.equivalence_check(rand_radial(rng), rand_radial(rng), ctx)
        _add(checks, f"{tag}/equivalence-transform-{t}", res.is_zero(), res)

    rho1, rho2 = rand_radial(rng), rand_radial(rng)
    R1, R2 = radial_elem(rho1, space), radial_elem(rho2, space)
    F1 = rand_invariant(space, rng)
    f, g = rand_homogeneous(space, rng), rand_homogeneous(space, rng)
    rel1 = equiv.tilde_star_elems(R1, R2, ctx) - Series.const(R1 * R2, ctx.K)
    rel2 = equiv.tilde_star_elems(R1, F1, ctx) - Series.const(R1 * F1, ctx.K)
    rel2b = equiv.tilde_star_elems(F1, R1, ctx) - Series.const(R1 * F1, ctx.K)
    rel3 = equiv.tilde_star_elems(R1, f, ctx) - Series.const(R1 * f, ctx.K)
    _add(checks, f"{tag}/tilde-radial-radial", rel1.is_zero(), rel1)
    _add(checks, f"{tag}/tilde-radial-invariant",
         rel2.is_zero() and rel2b.is_zero(), rel2)
    _add(checks, f"{tag}/tilde-radial-homog", rel3.is_zero(), rel3)
    closed = equiv.tilde_star_closed(f, g, ctx) - equiv.tilde_star_elems(f, g, ctx)
    _add(checks, f"{tag}/tilde-closed-formula", closed.is_zero(), closed)

    for t in range(1):
        A = Series.const(rand_invariant(space, rng), ctx.K)
        B = Series.const(rand_invariant(space, rng), ctx.K)
        C = Series.const(rand_invariant(space, rng), ctx.K)
        left = equiv.tilde_star(equiv.tilde_star(A, B, ctx), C, ctx)
        right = equiv.tilde_star(A, equiv.tilde_star(B, C, ctx), ctx)
        _add(checks, f"{tag}/tilde-assoc-{t}", (left - right).is_zero(), left - right)
    return checks


# ----------------------------------------------------------------------


def suite_reduce(n, K, mu, seed, space_kind="cpn") -> list:
    rng = Random(seed)
    checks = []
    ctx = default_context(n, K, mu, space_kind)
    space = ctx.space
    tag = f"reduce-n{n}-{space_kind}"

    ok = all(
        reduction.k_coeff(r, s) == equiv.a_coeff(s, r - s) / factorial(s)
        for r in range(1, 11)
        for s in range(1, r + 1)
    )
    _add(checks, f"{tag}/k-coeff-two-routes", ok)

    phi = rand_homogeneous(space, rng)
    psi = rand_homogeneous(space, rng)
    chi = rand_homogeneous(space, rng)

    one = Series.const(LaurentElem.one_of(space), ctx.K)
    unit = reduction.mu_star(Series.const(phi, ctx.K), one, ctx) - Series.const(phi, ctx.K)
    _add(checks, f"{tag}/mu-star-unit", unit.is_zero(), unit)

    _check_mu_star(checks, ctx, tag, phi, psi, chi)

    conj_res = reduction.mu_star_elems(phi, psi, ctx).map(lambda c: c.conj()) - \
        reduction.mu_star_elems(psi.conj(), phi.conj(), ctx)
    _add(checks, f"{tag}/mu-star-conjugation", conj_res.is_zero(), conj_res)

    F = Series.const(rand_invariant(space, rng), ctx.K)
    G = Series.const(rand_invariant(space, rng), ctx.K)
    compat = reduction.reduction_compatibility(F, G, ctx)
    _add(checks, f"{tag}/reduce-compatibility", compat.is_zero(), compat)

    t1 = reduction.mu_star_elems(phi, psi, ctx)
    t2 = reduction.wick_reduce(phi, psi, ctx)
    t3 = reduction.wick_reduce_by_division(phi, psi, ctx)
    _add(checks, f"{tag}/triangle-wick-reduce", (t1 - t2).is_zero(), t1 - t2)
    _add(checks, f"{tag}/triangle-division", (t1 - t3).is_zero(), t1 - t3)

    inv = Series([rand_invariant(space, rng) for _ in range(ctx.K + 1)])
    dec = reduction.ideal_decompose(inv, ctx)
    Jmu = reduction.momentum_map(ctx) - LaurentElem.scalar(space, ctx.mu)
    rebuilt = dec.projection + dec.multiplier.map(lambda c: Jmu * c)
    _add(checks, f"{tag}/ideal-decomposition", (rebuilt - inv).is_zero(), rebuilt - inv)
    inv_ok = all(c.is_invariant() for c in dec.multiplier.coeffs)
    _add(checks, f"{tag}/ideal-multiplier-invariant", inv_ok)

    for name, D in (("D1", (1,)), ("D1+l/x", (1, 1))):
        c = default_context(n, K, mu, space_kind, D=D)
        qres = reduction.quantum_momentum_check(F, c)
        _add(checks, f"{tag}/quantum-momentum-{name}", qres.is_zero(), qres)
    rres = reduction.reparametrize_check(phi, psi, (1, 1), ctx)
    _add(checks, f"{tag}/reparametrization", rres.is_zero(), rres)

    for t in range(2):
        fh = rand_homogeneous(space, rng)
        gh = rand_homogeneous(space, rng)
        for r in (1, 2, 3):
            res = product_formula_check(r, fh, gh, ctx)
            _add(checks, f"{tag}/two-point-formula-r{r}-{t}", res.is_zero(), res)
    return checks


# ----------------------------------------------------------------------


def suite_moreno(rmax: int = 10, seed: int = 0, K: int = 4, mu=Fraction(-1, 2)) -> list:
    rng = Random(seed)
    checks = []
    tag = "moreno"
    for r in range(1, rmax + 1):
        res = moreno.moreno_recursion_residual(r)
        _add(checks, f"{tag}/recursion-r{r}", res.is_zero(), res)
    ok = all(
        moreno.coeff_vanishing(r, s) == 0 for r in range(2, rmax + 1) for s in range(2, r + 1)
    )
    _add(checks, f"{tag}/coefficient-vanishing", ok)
    ok = all(
        moreno.a_identity_check(s, t) == 0 for s in range(1, 9) for t in range(s, 13)
    )
    _add(checks, f"{tag}/a-identity", ok)
    for nn in (1, 2):
        ok = True
        for r in range(1, rmax + 1):
            expansion = UnivarPoly.zero_poly("Delta")
            for s in range(1, r + 1):
                expansion = expansion + moreno.p_poly(s, nn).scale(reduction.k_coeff(r, s))
            if expansion != moreno.k_poly(r, nn):
                ok = False
        _add(checks, f"{tag}/k-poly-vs-k-coeff-n{nn}", ok)
    ctx = default_context(1, K, mu)
    for t in range(3):
        phi = rand_homogeneous(ctx.space, rng, deg=1)
        psi = rand_homogeneous(ctx.space, rng, deg=1)
        for r in (1, 2):
            res = moreno.chart_cross_check(phi, psi, r, ctx)
            _add(checks, f"{tag}/chart-r{r}-{t}", res.is_zero(), res)
    return checks


def suite_su1n(n, K, mu, seed) -> list:
    rng = Random(seed)
    checks = []
    ctx = default_context(n, K, mu, "dn")
    space = ctx.space
    tag = f"su1n-n{n}"
    _check_associativity(checks, ctx, rng, 2, tag)
    for idx in range(2):
        _check_radial_tuple(checks, ctx, rng, idx, tag)
    _check_commutators(checks, ctx, rng, 1, tag)
    phi, psi, chi = (rand_homogeneous(space, rng) for _ in range(3))
    _check_mu_star(checks, ctx, tag, phi, psi, chi)
    return checks


# ----------------------------------------------------------------------


def run_suite(name: str, n: int = 1, order: int = 4, mu=Fraction(-1, 2), seed: int = 0,
              rmax: int = 10) -> Report:
    mu = Fraction(mu)
    runners = {
        "lemma21": lambda: suite_lemma21(n, order, mu, seed),
        "equiv": lambda: suite_equiv(n, order, mu, seed),
        "reduce": lambda: suite_reduce(n, order, mu, seed),
        "moreno": lambda: suite_moreno(rmax=rmax, seed=seed, K=order, mu=mu),
        "su1n": lambda: suite_su1n(n, order, mu, seed),
    }
    if name == "all":
        return Report(name, [c for s in SUITE_NAMES for c in runners[s]()])
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}")
    return Report(name, runners[name]())
