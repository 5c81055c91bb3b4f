"""Acceptance criteria, one test per criterion.

Every identity here is exact algebra over Gaussian rationals: each
residual must be identically zero, no tolerances anywhere.  The identities
are assembled by the check builders of `wickred.suites`, the same ones
behind `wickred verify`; each test fixes its criterion's seed, n, K, mu, D
and sample counts, and asserts that every check passed.  Each test prints
one PASS line (visible with -s or in captured output) so the whole gate
reads as a checklist.
"""

import time
from fractions import Fraction
from random import Random

from wickred import equiv, reduction, suites
from wickred.equiv import a_coeff
from wickred.poly import VarSpace
from wickred.sampling import rand_homogeneous, rand_invariant
from wickred.series import Series
from wickred.wick import StarContext

SEED = 20240811


def passed(checks: list, count: int, criterion: str, started: float):
    failed = [f"{c.name}: {c.detail}" for c in checks if not c.ok]
    assert not failed, "failed checks:\n" + "\n".join(failed)
    assert len(checks) == count
    print(f"ACCEPTANCE {criterion}: PASS ({time.time() - started:.1f}s)")


def test_c01_wick_associativity_exact():
    t0 = time.time()
    rng = Random(SEED)
    checks = []
    for n in (1, 2):
        for make in (VarSpace.cpn, VarSpace.dn):
            ctx = StarContext(space=make(n), K=6)
            suites.check_associativity(checks, ctx, rng, 5, f"C1-{make.__name__}-n{n}")
    elapsed = time.time() - t0
    passed(checks, 20, "C1 wick-associativity (20 triples, both metrics)", t0)
    assert elapsed < 30.0, f"criterion 1 must run in under 30 s, took {elapsed:.1f}"


def test_c02_radial_product_relations():
    t0 = time.time()
    rng = Random(SEED + 2)
    checks = []
    for n, count in ((1, 12), (2, 8)):
        ctx = StarContext(space=VarSpace.cpn(n), K=4)
        for t in range(count):
            suites.check_radial_tuple(checks, ctx, rng, t, f"C2-n{n}")
    passed(checks, 140, "C2 radial/invariant/homogeneous product relations (20 tuples)", t0)


def test_c03_symbol_functional_equation():
    t0 = time.time()
    sp = VarSpace.cpn(1)
    checks = []
    suites.check_functional_equation(checks, StarContext(space=sp, K=6), "C3")
    for D in ((1,), (1, 1)):
        suites.check_symbol_at_zero(checks, StarContext(space=sp, K=6, D=D), f"C3-D{D}")
    passed(checks, 4, "C3 symbol functional equation to order 6 (D=1 and D=1+l/x)", t0)


def test_c04_s_on_x_powers_and_a_table():
    t0 = time.time()
    checks = []
    ctx = StarContext(space=VarSpace.cpn(1), K=4)
    suites.check_standard_ordering(checks, ctx, "C4", js=range(-4, 5))
    suites.check_a_table(checks, "C4", rmax=8, smax=8)
    passed(checks, 3, "C4 standard-ordered action on x^j and A-table vs oracle", t0)
    assert all(a_coeff(1, s) == (-1) ** s for s in range(9))
    assert (a_coeff(2, 0), a_coeff(2, 1), a_coeff(2, 2)) == (1, -3, 7)


def test_c05_tilde_star_relations_and_associativity():
    t0 = time.time()
    rng = Random(SEED + 5)
    checks = []
    ctx6 = StarContext(space=VarSpace.cpn(1), K=6)
    for t in range(3):
        suites.check_tilde_relations(checks, ctx6, rng, f"C5-{t}")
    for n, count in ((1, 2), (2, 1)):
        ctx5 = StarContext(space=VarSpace.cpn(n), K=5)
        suites.check_tilde_assoc(checks, ctx5, rng, count, f"C5-n{n}")
    passed(checks, 15, "C5 transformed-product relations (order 6) and associativity (order 5)", t0)


def test_c06_mu_star_associativity_commutator_tables():
    t0 = time.time()
    rng = Random(SEED + 6)
    checks = []
    for n in (1, 2):
        for mu in (Fraction(-1, 2), Fraction(-2)):
            ctx = StarContext(space=VarSpace.cpn(n), K=5, mu=mu)
            for t in range(5):
                f, g, h = (rand_homogeneous(ctx.space, rng) for _ in range(3))
                suites.check_mu_star(checks, ctx, f"C6-n{n}-mu{mu}-{t}", f, g, h)
    suites.check_k_coeff_routes(checks, "C6")
    passed(checks, 41, "C6 reduced-product associativity (order 5), commutator, coefficient tables", t0)
    # coefficient tables
    assert reduction.k_coeff(1, 1) == 1
    assert (reduction.k_coeff(2, 1), reduction.k_coeff(2, 2)) == (-1, Fraction(1, 2))
    assert (reduction.k_coeff(3, 1), reduction.k_coeff(3, 2), reduction.k_coeff(3, 3)) == (
        1, Fraction(-3, 2), Fraction(1, 6))


def test_c07_reduction_triangle():
    t0 = time.time()
    rng = Random(SEED + 7)
    checks = []
    ctx = StarContext(space=VarSpace.cpn(1), K=4)
    via_tilde_failed = []
    for t in range(10):
        f, g = rand_homogeneous(ctx.space, rng), rand_homogeneous(ctx.space, rng)
        suites.check_reduction_routes(checks, ctx, f"C7-{t}", f, g)
        # the route through the transformed product is not among the verify checks
        via_tilde = reduction.reduce_function(equiv.tilde_star_elems(f, g, ctx), ctx)
        if not (reduction.mu_star_elems(f, g, ctx) - via_tilde).is_zero():
            via_tilde_failed.append(t)
    elapsed = time.time() - t0
    passed(checks, 20, "C7 oracle triangle (10 pairs, order 4)", t0)
    assert not via_tilde_failed, f"mu_star differs from reduce(tilde_star) for pairs {via_tilde_failed}"
    assert elapsed < 120.0, f"criterion 7 must run in under 2 min, took {elapsed:.1f}"


def test_c08_reparametrization_and_quantum_momentum():
    t0 = time.time()
    rng = Random(SEED + 8)
    checks = []
    sp = VarSpace.cpn(1)
    ctx = StarContext(space=sp, K=4)
    for t in range(3):
        f, g = rand_homogeneous(sp, rng), rand_homogeneous(sp, rng)
        suites.check_reparametrization(checks, ctx, f"C8-{t}", f, g)
        F = Series.const(rand_invariant(sp, rng), 4)
        suites.check_quantum_momentum(checks, ctx, f"C8-{t}", F)
    passed(checks, 9, "C8 reparametrization and quantum momentum map (D = 1 + l/x, order 4)", t0)


def test_c09_indefinite_metric_repeat():
    t0 = time.time()
    rng = Random(SEED + 9)
    checks = []
    sp = VarSpace.dn(1)
    # criterion 1 on the indefinite metric
    suites.check_associativity(checks, StarContext(space=sp, K=6), rng, 10, "C9")
    # criterion 2
    ctx4 = StarContext(space=sp, K=4)
    for t in range(10):
        suites.check_radial_tuple(checks, ctx4, rng, t, "C9")
    # criterion 6
    for mu in (Fraction(-1, 2), Fraction(-2)):
        ctx5 = StarContext(space=sp, K=5, mu=mu)
        for t in range(5):
            f, g, h = (rand_homogeneous(sp, rng) for _ in range(3))
            suites.check_mu_star(checks, ctx5, f"C9-mu{mu}-{t}", f, g, h)
    passed(checks, 100, "C9 indefinite-metric repeats of criteria 1, 2, 6", t0)


def test_c10_moreno_comparison():
    t0 = time.time()
    rng = Random(SEED + 10)
    checks = []
    suites.check_sphere_recursion(checks, "C10", rmax=10)
    suites.check_charts(checks, VarSpace.cpn(1), rng, 10, "C10", rs=(1, 2, 3))
    passed(checks, 42, "C10 sphere-recursion comparison and chart cross-check", t0)


def test_c11_two_point_product_formula():
    t0 = time.time()
    rng = Random(SEED + 11)
    checks = []
    for n in (1, 2):
        suites.check_two_point(checks, StarContext(space=VarSpace.cpn(n), K=4), rng, 5, f"C11-n{n}")
    passed(checks, 30, "C11 two-point operator product formula (r <= 3, n <= 2, 10 pairs)", t0)
