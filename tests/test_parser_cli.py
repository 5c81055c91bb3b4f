import json
from fractions import Fraction

import pytest

from wickred.cli import main
from wickred.parser import ParseError, format_elem, format_series, parse_expr
from wickred.poly import LaurentElem, VarSpace
from wickred.sampling import rand_invariant, rand_poly
from wickred.scalar import gauss
from wickred.series import Series


def test_parse_reduced_fn(sp1, phi):
    s = parse_expr("z0*zb0/x", sp1, 4)
    assert s.coeffs[0] == phi
    assert all(c.is_zero() for c in s.coeffs[1:])


def test_parse_series(sp1):
    s = parse_expr("x^2 - l*x", sp1, 4)
    x = LaurentElem.x_power(sp1, 1)
    assert s.coeffs[0] == x * x
    assert s.coeffs[1] == -x
    assert all(c.is_zero() for c in s.coeffs[2:])


def test_parse_scalars_and_rationals(sp1):
    s = parse_expr("1/2 + 3*i", sp1, 2)
    assert s.coeffs[0] == LaurentElem.scalar(sp1, gauss(Fraction(1, 2), 3))
    s = parse_expr("(1+i)*(1-i)", sp1, 2)
    assert s.coeffs[0] == LaurentElem.scalar(sp1, 2)


def test_parse_negative_x_power(sp1):
    s = parse_expr("x^-2", sp1, 2)
    assert s.coeffs[0] == LaurentElem.x_power(sp1, -2)


def test_parse_unit_series_division(sp1):
    s = parse_expr("1/(1 + l*x)", sp1, 3)
    x = LaurentElem.x_power(sp1, 1)
    assert s.coeffs[0] == LaurentElem.one_of(sp1)
    assert s.coeffs[1] == -x
    assert s.coeffs[2] == x * x


def test_parse_errors(sp1):
    with pytest.raises(ParseError):
        parse_expr("z2", sp1, 2)  # unknown variable for n = 1
    with pytest.raises(ParseError):
        parse_expr("zb0^-1", sp1, 2)  # negative power of a non-x variable
    with pytest.raises(ParseError):
        parse_expr("1/z0", sp1, 2)
    with pytest.raises(ParseError):
        parse_expr("x +* 2", sp1, 2)
    with pytest.raises(ParseError):
        parse_expr("q7", sp1, 2)
    with pytest.raises(ParseError):
        parse_expr("(x", sp1, 2)
    try:
        parse_expr("x + $", sp1, 2)
    except ParseError as e:
        assert e.pos == 4


def test_y_alias(sp1d):
    assert parse_expr("y", sp1d, 2).coeffs[0] == LaurentElem.x_power(sp1d, 1)


def test_format_round_trip(sp1, rng):
    for _ in range(40):
        e = rand_invariant(sp1, rng) if rng.random() < 0.5 else rand_poly(sp1, rng)
        text = format_elem(e)
        back = parse_expr(text, sp1, 2)
        assert back.coeffs[0] == e, text
    s = Series([rand_poly(sp1, rng, max_deg=2) for _ in range(3)])
    assert parse_expr(format_series(s), sp1, 2) == s


# ----------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_mul_json(capsys):
    code, out = run_cli(
        capsys, "mul", "--n", "1", "--mu=-1/2", "--order", "3",
        "--lhs", "z0*zb0/x", "--rhs", "z0*zb0/x",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 3
    assert obj["product"] == "mu"
    assert len(obj["series"]["coeffs"]) == 4
    assert obj["series"]["coeffs"][0]["terms"]


def test_cli_mul_rejects_non_invariant(capsys):
    code, _ = run_cli(capsys, "mul", "--lhs", "z0", "--rhs", "x", "--order", "2")
    assert code == 2


def test_cli_table_a_coeff(capsys):
    code, out = run_cli(capsys, "table", "a-coeff", "--rmax", "2", "--smax", "2")
    assert code == 0
    obj = json.loads(out)
    values = {(e["r"], e["s"]): e["value"] for e in obj["entries"]}
    assert values[(2, 1)] == "-3" and values[(2, 2)] == "7"


def test_cli_table_k_coeff(capsys):
    code, out = run_cli(capsys, "table", "k-coeff", "--rmax", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    values = {(e["r"], e["s"]): e["value"] for e in obj["entries"]}
    assert values[(3, 2)] == "-3/2" and values[(3, 3)] == "1/6"


def test_cli_moreno(capsys):
    code, out = run_cli(capsys, "moreno", "--rmax", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_zero"] is True
    assert len(obj["recursion_residuals"]) == 4


def test_cli_verify_deterministic(capsys):
    code1, out1 = run_cli(capsys, "verify", "lemma21", "--order", "3", "--seed", "7")
    code2, out2 = run_cli(capsys, "verify", "lemma21", "--order", "3", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["ok"] is True and obj["checks"]


def test_cli_verify_su1n(capsys):
    code, out = run_cli(capsys, "verify", "su1n", "--n", "1", "--order", "3", "--format", "text")
    assert code == 0
    assert "all passed" in out


def test_cli_verify_all(capsys):
    code, out = run_cli(
        capsys, "verify", "all", "--n", "1", "--mu", "-1/2", "--order", "4", "--seed", "42",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_cli_env_order(capsys, monkeypatch):
    monkeypatch.setenv("WICKRED_ORDER", "2")
    code, out = run_cli(capsys, "mul", "--lhs", "x", "--rhs", "x")
    assert code == 0
    assert json.loads(out)["order"] == 2


def test_cli_d_series(capsys):
    # tilde product with a nontrivial D: S x^2 = x^2 - lambda D x acts inside
    code, out = run_cli(
        capsys, "mul", "--order", "2", "--product", "tilde", "--d-series", "1,1",
        "--lhs", "x", "--rhs", "x", "--format", "text",
    )
    assert code == 0
    assert out.strip() == "((1)*x^2)"
    # the canonical reduced product is only defined for D == 1
    code, _ = run_cli(
        capsys, "mul", "--order", "2", "--product", "mu", "--d-series", "1,1",
        "--lhs", "x", "--rhs", "x",
    )
    assert code == 2


def test_cli_tilde_and_wick_products(capsys):
    code, out = run_cli(
        capsys, "mul", "--order", "2", "--product", "wick", "--lhs", "x", "--rhs", "x",
        "--format", "text",
    )
    assert code == 0
    assert out.strip() == "((1)*x^2) + ((1)*x)*l"
    code, out = run_cli(
        capsys, "mul", "--order", "2", "--product", "tilde", "--lhs", "x", "--rhs", "x",
        "--format", "text",
    )
    assert code == 0
    assert out.strip() == "((1)*x^2)"


def test_cli_order_zero_is_rejected(capsys):
    # an explicit --order 0 must not fall back to the default order
    code = main(["verify", "lemma21", "--order", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "need n >= 1 and order >= 1" in err


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_cli_env_order_rejects_bad_value(capsys, monkeypatch, value):
    monkeypatch.setenv("WICKRED_ORDER", value)
    code = main(["mul", "--lhs", "x", "--rhs", "x"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: WICKRED_ORDER must be a positive integer, got {value!r}" in err


def test_cli_env_order_bad_value_with_help_building(capsys, monkeypatch):
    # building the parser (and its --order help text) must not read the
    # environment, so a bad value cannot escape main's error handling
    monkeypatch.setenv("WICKRED_ORDER", "abc")
    code = main(["table", "a-coeff", "--rmax", "1"])
    assert code == 0
    code = main(["verify", "moreno", "--order", "2", "--rmax", "2"])
    assert code == 0


def test_cli_explicit_order_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("WICKRED_ORDER", "2")
    code, out = run_cli(capsys, "mul", "--order", "3", "--lhs", "x", "--rhs", "x")
    assert code == 0
    assert json.loads(out)["order"] == 3
