import hashlib
import json
from pathlib import Path
from random import Random

import pytest

from wickred import chart, equiv, moreno, sparse, suites
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


TABLE_DIGESTS = {
    ("a-coeff", "json"): "cd836897c9401bdf64ab7496aa8455330d2aaf9a73b7156736f5aba5c68dc419",
    ("a-coeff", "latex"): "c5759ee9829d90c22fd04084ec74100ce2efd664bc4028c97afd8bf705e8d1a8",
    ("a-coeff", "text"): "fbb4a1050ef05a8f1cad29072c5f05230f454b1d649db1b8a339213de9109e4c",
    ("k-coeff", "json"): "4786227c0d13e651d4ae591e7e749af3a02c15aa25a72769bb49ed62a0274009",
    ("k-coeff", "latex"): "bf38fb891f081bbf6eb6b5ca1ef97b656fce6693a82427fd01e6c4d8f2b3a753",
    ("k-coeff", "text"): "965b888b746787b63052a305c12f63a5ba90cd50011ad1cd76c8a3bdaa2a4f04",
}


@pytest.mark.parametrize("which, fmt", sorted(TABLE_DIGESTS), ids=[f"{w}-{f}" for w, f in sorted(TABLE_DIGESTS)])
def test_table_output_is_pinned(capsys, which, fmt):
    # a wrong coefficient can leave every identity between the tables true;
    # the printed tables at r <= 40 are pinned byte for byte.  The JSON
    # digests are the ones the benchmark's correctness gate checks.
    argv = ["table", which, "--rmax", "40"] + ([] if fmt == "json" else ["--format", fmt])
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == TABLE_DIGESTS[which, fmt]
    if fmt == "json":
        reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json")
                               .read_text())
        assert reference["digests"][json.dumps(argv)] == digest


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
    (lambda: UnivarPoly([0, 0, 3, 1]), "2 terms, first (3)*Delta^2"),
    (lambda: equiv.SparsePoly(2, {sparse.pack([1, 2]): GaussianRational(2, 0),
                                  sparse.pack([1, 1]): GaussianRational(-1, 0)}),
     "2 terms, first 2*beta_a*beta_b^2"),
    (lambda: chart.ChartElem(1, {sparse.pack([1, 0, 0, 2]): GaussianRational(1, 0) / 2,
                                 sparse.pack([0, 1, 0, 0]): GaussianRational(1, 0)}, (1, 0, 0, 2)),
     "2 terms, first 1/2*u1*vb1^2*D1^-1*D4^-2"),
])
def test_failing_check_detail_is_a_summary(make, detail):
    checks = []
    suites._zero(checks, "forced", make(), K=4)
    assert [(c.ok, c.detail) for c in checks] == [(False, detail)]


def test_verify_prints_the_summary_of_a_failing_check(capsys, monkeypatch):
    def residual(r):
        return UnivarPoly([0, 0, 3, 1]) if r == 2 else UnivarPoly.zero_poly()

    monkeypatch.setattr(moreno, "moreno_recursion_residual", residual)
    assert main(["verify", "moreno", "--order", "2", "--rmax", "3", "--format", "text"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL  moreno/recursion-r2  residual: 2 terms, first (3)*Delta^2" in lines
    assert "PASS  moreno/recursion-r3" in lines
    assert lines[-1] == "FAILURES (12/13)"
