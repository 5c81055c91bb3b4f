import hashlib
from random import Random

import pytest

from wickred import equiv, moreno, sparse, suites
from wickred.cli import main
from wickred.parser import parse_expr
from wickred.poly import VarSpace
from wickred.sampling import rand_invariant
from wickred.scalar import GaussianRational
from wickred.series import Series, UnivarPoly
from wickred.wick import StarContext


@pytest.mark.parametrize("argv, digest", [
    (["verify", "all", "--n", "1", "--order", "4", "--seed", "42"],
     "4f160aeb42f331000dca19e882069c86037232585fa3a61baf06b16b82ff8b89"),
    (["verify", "all", "--n", "2", "--order", "3", "--seed", "7", "--format", "text"],
     "a6e748f186934fb539a0ec19bc241ab8acf68ca9e6d5503fb754cf879967ce43"),
], ids=["n1-order4-json", "n2-order3-text"])
def test_verify_output_is_pinned(capsys, argv, digest):
    # a fixed seed gives a byte-identical report: same checks, names and draws
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_short_series_residual_fails():
    # Series arithmetic truncates to the shorter operand, so an order-2
    # input makes an order-2 residual that would check only two orders
    sp = VarSpace.cpn(1)
    ctx = StarContext(space=sp, K=4)
    inv = rand_invariant(sp, Random(1))
    checks = []
    suites.check_quantum_momentum(checks, ctx, "full", Series.const(inv, 4))
    suites.check_quantum_momentum(checks, ctx, "short", Series.const(inv, 2))
    assert [(c.name, c.ok, c.detail) for c in checks] == [
        ("full/quantum-momentum-D1", True, ""),
        ("full/quantum-momentum-D1+l/x", True, ""),
        ("short/quantum-momentum-D1", False, "residual has order 2, expected K = 4"),
        ("short/quantum-momentum-D1+l/x", False, "residual has order 2, expected K = 4"),
    ]


def _laurent():
    sp = VarSpace.cpn(1)
    return parse_expr("(1/2)*z0*zb1/x^2 - 3*i*z1*zb1/x^2", sp, 0).coeffs[0]


@pytest.mark.parametrize("make, detail", [
    (lambda: Series([_laurent().zero()] * 2 + [_laurent()] + [_laurent().zero()] * 2),
     "order 4, first nonzero at l^2: 2 terms, first (-3*i)*z1*zb1*x^-2"),
    (_laurent, "2 terms, first (-3*i)*z1*zb1*x^-2"),
    (lambda: UnivarPoly([0, 0, 3, 1], "Delta"), "2 terms, first (3)*Delta^2"),
    (lambda: equiv.SparsePoly(3, {(1, 2, 0): 2, (0, 1, 1): -1}), "2 terms, first (-1)*a^1*b^1"),
    (lambda: moreno.ChartElem(1, {sparse.pack([1, 0, 0, 2]): GaussianRational(1, 0) / 2,
                                  sparse.pack([0, 1, 0, 0]): GaussianRational(1, 0)}, (1, 0, 0, 2)),
     "2 terms, first 1/2*u1*vb1^2*D1^-1*D4^-2"),
])
def test_failing_check_detail_is_a_summary(make, detail):
    checks = []
    suites._zero(checks, "forced", make(), K=4)
    assert [(c.ok, c.detail) for c in checks] == [(False, detail)]


def test_verify_prints_the_summary_of_a_failing_check(capsys, monkeypatch):
    def residual(r):
        return UnivarPoly([0, 0, 3, 1], "Delta") if r == 2 else UnivarPoly.zero_poly("Delta")

    monkeypatch.setattr(moreno, "moreno_recursion_residual", residual)
    assert main(["verify", "moreno", "--order", "2", "--rmax", "3", "--format", "text"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL  moreno/recursion-r2  residual: 2 terms, first (3)*Delta^2" in lines
    assert "PASS  moreno/recursion-r3" in lines
    assert lines[-1] == "FAILURES (12/13)"
