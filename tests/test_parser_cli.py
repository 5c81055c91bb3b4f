import json
import time
from fractions import Fraction

import pytest

from wickred.cli import main
from wickred.parser import ParseError, format_elem, format_series, parse_expr
from wickred.poly import LaurentElem, VarSpace
from wickred.sampling import rand_invariant, rand_poly
from wickred.scalar import gauss
from wickred.series import Series, UnivarPoly


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


@pytest.mark.parametrize("name", ["z01", "zb00", "z00", "zb07"])
def test_parse_rejects_leading_zeros(sp1, name):
    # the grammar names z0..z9 and zb0..zb9; z01 is not another spelling of z1
    with pytest.raises(ParseError, match=f"unknown identifier '{name}'"):
        parse_expr(f"{name}*zb0", sp1, 2)


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
    # the Wick product does not depend on D, so a nontrivial D is refused
    code = main(["mul", "--order", "2", "--product", "wick", "--d-series", "1,1",
                 "--lhs", "x", "--rhs", "x", "--format", "text"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "--d-series applies to --product tilde" in err
    code, out = run_cli(
        capsys, "mul", "--order", "2", "--product", "wick", "--d-series", "1",
        "--lhs", "x", "--rhs", "x", "--format", "text",
    )
    assert code == 0
    assert out.strip() == "((1)*x^2) + ((1)*x)*l"


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


@pytest.mark.parametrize("argv", [
    ["mul", "--order", "200", "--lhs", "1", "--rhs", "1"],
    ["mul", "--order", "17", "--lhs", "x", "--rhs", "x", "--product", "wick"],
    ["verify", "all", "--order", "40"],
])
def test_cli_order_above_bound_is_rejected(capsys, argv):
    # the work grows about as order^4: an order past the bound exits 2 at
    # once, with a message that names the bound
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"error: --order must be <= 16, got {argv[argv.index('--order') + 1]}" in err
    assert elapsed < 1.0


def test_cli_order_at_bound_is_accepted(capsys):
    code, out = run_cli(capsys, "mul", "--order", "16", "--lhs", "x", "--rhs", "x")
    assert code == 0
    assert json.loads(out)["order"] == 16


@pytest.mark.parametrize("argv, message", [
    (["table", "k-coeff", "--rmax", "61"], "--rmax must be <= 60, got 61"),
    (["table", "k-coeff", "--rmax", "150"], "--rmax must be <= 60, got 150"),
    (["table", "a-coeff", "--rmax", "150"], "--rmax must be <= 60, got 150"),
    (["table", "a-coeff", "--rmax", "2", "--smax", "61"], "--smax must be <= 60, got 61"),
    (["table", "a-coeff", "--smax", "1000"], "--smax must be <= 60, got 1000"),
    (["moreno", "--rmax", "120"], "--rmax must be <= 60, got 120"),
    (["verify", "moreno", "--rmax", "61", "--order", "2"], "--rmax must be <= 60, got 61"),
    (["verify", "all", "--rmax", "1000", "--order", "1"], "--rmax must be <= 60, got 1000"),
    (["mul", "--n", "10", "--order", "1", "--lhs", "x", "--rhs", "x"], "--n must be <= 9, got 10"),
    (["mul", "--n", "500", "--order", "6", "--lhs", "x", "--rhs", "x"], "--n must be <= 9, got 500"),
    (["mul", "--n", "200", "--order", "2", "--lhs", "x", "--rhs", "x"], "--n must be <= 9, got 200"),
    (["verify", "all", "--n", "5", "--order", "1"], "--n must be <= 4 for verify, got 5"),
    (["verify", "reduce", "--n", "6", "--order", "1"], "--n must be <= 4 for verify, got 6"),
    (["verify", "all", "--n", "40", "--order", "1"], "--n must be <= 9, got 40"),
])
def test_cli_size_above_bound_is_rejected(capsys, argv, message):
    # the work of table, moreno and verify grows without limit in --rmax and
    # --smax, and that of mul and verify in --n: a value past the bound
    # exits 2 at once, with a message that names the bound
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ["table", "k-coeff", "--rmax", "60", "--format", "text"],
    ["table", "a-coeff", "--rmax", "60", "--smax", "60", "--format", "text"],
    ["mul", "--n", "9", "--order", "1", "--lhs", "z9*zb0/x", "--rhs", "z0*zb9/x"],
    ["verify", "lemma21", "--n", "4", "--order", "1"],
])
def test_cli_size_at_bound_is_accepted(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.strip()


@pytest.mark.parametrize("argv, message", [
    (["mul", "--n", "9", "--order", "8", "--lhs", "x", "--rhs", "x"],
     "--n and --order must give C(order + n, n) <= 20000, got C(17, 9) = 24310"),
    (["mul", "--n", "5", "--order", "16", "--lhs", "z0*zb1/x", "--rhs", "z1*zb0/x"],
     "--n and --order must give C(order + n, n) <= 20000, got C(21, 5) = 20349"),
    (["mul", "--n", "7", "--order", "11", "--lhs", "x", "--rhs", "x", "--product", "wick"],
     "--n and --order must give C(order + n, n) <= 20000, got C(18, 7) = 31824"),
    (["verify", "all", "--n", "4", "--order", "8"],
     "--n and --order must give C(order + n, n) <= 210 for verify, got C(12, 4) = 495"),
    (["verify", "all", "--n", "4", "--order", "7"],
     "--n and --order must give C(order + n, n) <= 210 for verify, got C(11, 4) = 330"),
    (["verify", "reduce", "--n", "3", "--order", "9"],
     "--n and --order must give C(order + n, n) <= 210 for verify, got C(12, 3) = 220"),
])
def test_cli_n_and_order_past_joint_bound_are_rejected(capsys, argv, message):
    # each flag is within its own bound, but the top order of every
    # derivative sum runs over C(order + n, n) multi-indices
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ["mul", "--n", "7", "--order", "10", "--lhs", "x", "--rhs", "x"],
    ["mul", "--n", "5", "--order", "15", "--lhs", "x", "--rhs", "z0*zb0/x", "--product", "wick"],
    ["mul", "--n", "4", "--order", "16", "--lhs", "z0*zb1/x", "--rhs", "1"],
])
def test_cli_mul_at_joint_bound_is_accepted(capsys, argv):
    # C(17, 7) = 19448 and C(20, 5) = 15504 are within the cap; these
    # products stop at their operands' degree, so they are quick
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["order"] == int(argv[argv.index("--order") + 1])


@pytest.mark.parametrize("n, order", [(4, 6), (3, 8), (2, 16), (1, 16)])
def test_cli_verify_at_joint_bound_is_accepted(n, order):
    # C(10, 4) = 210 is the cap itself; the suites at these sizes take
    # half a minute each, so only the input checks run here
    from wickred import cli

    args = cli.build_parser().parse_args(["verify", "all", "--n", str(n), "--order", str(order)])
    ctx = cli._context(args)
    assert (ctx.n, ctx.K) == (n, order)


@pytest.mark.parametrize("argv", [
    ["verify", "moreno", "--rmax", "0", "--order", "2", "--format", "text"],
    ["verify", "lemma21", "--rmax", "-5", "--order", "2"],
    ["table", "k-coeff", "--rmax", "0"],
    ["table", "k-coeff", "--rmax", "-1"],
    ["moreno", "--rmax", "0"],
])
def test_cli_rmax_below_one_is_rejected(capsys, argv):
    # an empty range of r must not print an empty table or drop the
    # moreno/recursion-r* checks while reporting every check passed
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    value = argv[argv.index("--rmax") + 1]
    assert f"error: --rmax must be >= 1, got {value}" in err


@pytest.mark.parametrize("argv, message", [
    (["table", "a-coeff", "--rmax", "-1"], "error: --rmax must be >= 0, got -1"),
    (["table", "a-coeff", "--rmax", "2", "--smax", "-3"], "error: --smax must be >= 0, got -3"),
])
def test_cli_a_coeff_rejects_negative_bounds(capsys, argv, message):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert message in err


def test_cli_a_coeff_rmax_zero_is_one_entry(capsys):
    code, out = run_cli(capsys, "table", "a-coeff", "--rmax", "0")
    assert code == 0
    assert json.loads(out)["entries"] == [{"r": 0, "s": 0, "value": "1"}]


@pytest.mark.parametrize("text, e", [("2^200000", 200000), ("x^1001", 1001), ("(1 + l*x)^-1001", -1001)])
def test_parse_rejects_exponent_beyond_bound(sp1, text, e):
    # a parsed exponent must not ask for an integer or a product of any size
    with pytest.raises(ParseError, match=f"exponent {e} is out of range"):
        parse_expr(text, sp1, 2)


def test_parse_accepts_exponent_at_bound(sp1):
    assert parse_expr("2^1000", sp1, 2).coeffs[0] == LaurentElem.scalar(sp1, 2**1000)
    assert parse_expr("x^-1000", sp1, 2).coeffs[0] == LaurentElem.x_power(sp1, -1000)


def test_cli_huge_exponent_is_rejected(capsys):
    code = main(["mul", "--n", "1", "--order", "2", "--lhs", "2^200000", "--rhs", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error: exponent 200000 is out of range" in err


@pytest.mark.parametrize("args, message", [
    (["--order", "0"], "need n >= 1 and order >= 1"),
    (["--n", "0", "--order", "2"], "need n >= 1 and order >= 1"),
    (["--mu", "1"], "--mu must be negative, got 1"),
    (["--mu", "abc"], "--mu must be a rational number, got 'abc'"),
    (["--mu", "1/0"], "--mu must have a nonzero denominator, got 1/0"),
    (["--mu", "-1/0"], "--mu must have a nonzero denominator, got -1/0"),
])
def test_cli_verify_rejects_bad_input(args, message, capsys):
    # bad input exits 2 with one clear message, not a traceback
    assert main(["verify", "all", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["--lhs", "("], "unexpected end of input (at position 1)"),
    (["--lhs", ""], "unexpected end of input (at position 0)"),
    (["--rhs", "x +"], "unexpected end of input (at position 3)"),
    (["--lhs", "x^"], "exponent must be an integer (at position 2)"),
    (["--lhs", "(x"], "expected ')' (at position 2)"),
    (["--mu", "1/0"], "--mu must have a nonzero denominator, got 1/0"),
    (["--product", "tilde", "--d-series", "1,1/0"],
     "--d-series must have a nonzero denominator, got 1/0"),
    (["--product", "tilde", "--d-series", "1, 2/0"],
     "--d-series must have a nonzero denominator, got 2/0"),
    (["--product", "tilde", "--d-series", "1,"], "--d-series must be a rational number, got ''"),
])
def test_cli_mul_rejects_bad_input(args, message, capsys):
    # input that ends early or names a malformed number exits 2 with a
    # message that names the flag, not "unexpected token None",
    # "Fraction(1, 0)" or "Invalid literal for Fraction"
    assert main(["mul", "--order", "2", "--lhs", "x", "--rhs", "x", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["--product", "tilde", "--d-series", "2"], "--d-series must start with d_0 = 1, got '2'"),
    (["--product", "tilde", "--d-series", "0,1"], "--d-series must start with d_0 = 1, got '0,1'"),
    (["--product", "mu", "--d-series", "1,1"],
     "--d-series applies to --product tilde; the canonical reduced product is defined for D == 1"),
    (["--d-series", "1,0,1/2"],
     "--d-series applies to --product tilde; the canonical reduced product is defined for D == 1"),
])
def test_cli_mul_d_series_errors_name_the_flag(args, message, capsys):
    # each is refused before either operand is read: the operand here would
    # fail to parse, and the error still names --d-series
    assert main(["mul", "--order", "2", "--lhs", "(", "--rhs", "x", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("product", ["mu", "tilde"])
@pytest.mark.parametrize("lhs, rhs, flag", [
    ("z0", "1", "lhs"),
    ("x", "z0*zb0 + l*zb1", "rhs"),
])
def test_cli_mul_non_invariant_operand_names_its_flag(product, lhs, rhs, flag, capsys):
    # mu and tilde act on invariant elements only; the error names the
    # operand, not the layer that would have refused it
    assert main(["mul", "--product", product, "--order", "2", "--lhs", lhs, "--rhs", rhs]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: --{flag} must have equal z- and zb-degree in every term "
                   f"for --product {product}\n")


def test_cli_wick_product_takes_non_invariant_operands(capsys):
    code, out = run_cli(capsys, "mul", "--product", "wick", "--order", "1", "--lhs", "z0", "--rhs", "1",
                        "--format", "text")
    assert (code, out) == (0, "(1*z0)\n")


@pytest.mark.parametrize("text, what", [
    ("(z0+zb0+z1+zb1)^60", "terms"),
    ("((z0+zb0+z1+zb1)^30)^2", "terms"),
    ("(2^1000)^1000", "bits"),
    ("(1 + 2^999*z0)^120", "bits"),
])
def test_parse_rejects_power_predicted_too_large(sp1, text, what):
    # an exponent within its bound can still ask for a huge result: the
    # predicted size of each power is checked against a cap before it runs
    with pytest.raises(ParseError, match=f"predicted to have .* {what}, over the cap of"):
        parse_expr(text, sp1, 2)


@pytest.mark.parametrize("text", [
    "(z0+zb0+z1+zb1)^20", "(1 + z0)^100", "(1 + l*x)^1000", "(1 + l*x)^-1000",
    "x^-1000", "2^1000", "(2^100)^900", "(z0*zb1 + (1/2)*zb0^2)/x^2",
])
def test_parse_accepts_power_within_caps(sp1, text):
    assert parse_expr(text, sp1, 2).order == 2


def test_cli_power_predicted_too_large_is_rejected(capsys):
    code = main(["mul", "--n", "1", "--order", "2", "--lhs", "(z0+zb0+z1+zb1)^60",
                 "--rhs", "1", "--product", "wick"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error: power predicted to have 39711 terms, over the cap of 10000" in err


@pytest.mark.parametrize("text, what", [
    ("(z0+zb0+z1+zb1)^30*(z0+zb0+z1+zb1)^30", "terms"),
    ("(z0+zb0+z1+zb1)^30/(1 + l*(z0+zb0+z1+zb1))", "terms"),
    ("(2^1000)^99*(2^1000)^99", "bits"),
    ("(2^1000)^99/(2^1000)^-99", "bits"),
])
def test_parse_rejects_product_predicted_too_large(sp1, text, what):
    # two factors inside the power caps can still ask for a huge product,
    # so each `*` and the multiply inside each `/` is predicted first
    with pytest.raises(ParseError, match=f"product predicted to have .* {what}, over the cap of"):
        parse_expr(text, sp1, 2)


@pytest.mark.parametrize("text", [
    "(z0+zb0+z1+zb1)^9*(z0+zb0+z1+zb1)^9", "(z0+zb0+z1+zb1)^20/x^3", "(2^1000)^49*(2^1000)^49",
    "(1 + l*x)^1000*(1 + l*x)^-1000", "(z0*zb1 + (1/2)*zb0^2)/x^2*z1*zb0/(1 + l*x)",
    # every monomial of these products has degree 24, or 20 to 22: 2925
    # and 6095 of them, however many term pairs the factors have
    "(z0+zb0+z1+zb1)^12*(z0+zb0+z1+zb1)^12", "(z0+zb0+z1+zb1)^20/(1 + l*(z0+zb0+z1+zb1))",
])
def test_parse_accepts_product_within_caps(sp1, text):
    assert parse_expr(text, sp1, 2).order == 2


def test_cli_product_predicted_too_large_is_rejected(capsys):
    code = main(["mul", "--n", "1", "--order", "2", "--lhs",
                 "(z0+zb0+z1+zb1)^30*(z0+zb0+z1+zb1)^30", "--rhs", "1", "--product", "wick"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error: product predicted to have 39711 terms, over the cap of 10000" in err


def test_dense_product_is_predicted_like_its_power(sp1, capsys):
    # (z0+zb0+z1+zb1)^20 has 1,771 terms however it is written: only the
    # monomials of degree 20 can appear, not those of every degree <= 20
    s = "(z0+zb0+z1+zb1)"
    assert parse_expr(f"{s}^10*{s}^10", sp1, 2) == parse_expr(f"{s}^20", sp1, 2)
    outs = []
    for lhs in (f"{s}^10*{s}^10", f"{s}^20"):
        assert main(["mul", "--n", "1", "--order", "2", "--lhs", lhs, "--rhs", "1",
                     "--product", "wick", "--format", "text"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("text", ["1 + x^-40", "x^-40 - 1", "z0*zb0*(1 + l) + l*x^-40"])
def test_parse_rejects_sum_predicted_too_large(text):
    # a sum lifts both operands to their common power of x: 1 + x^-40
    # multiplies 1 by x^40, which has C(43, 3) = 12341 terms on CP^3
    with pytest.raises(ParseError, match="sum predicted to have 12341 terms, over the cap of"):
        parse_expr(text, VarSpace.cpn(3), 2)


@pytest.mark.parametrize("text", ["1 + x^-20", "x^-40 + x^-40", "x^-40 + l^2"])
def test_parse_accepts_sum_within_caps(text):
    # x^20 has 1771 terms on CP^3; equal powers, or a sum whose nonzero
    # coefficients sit at different orders, lift nothing
    assert parse_expr(text, VarSpace.cpn(3), 2).order == 2


def test_cli_sum_predicted_too_large_is_rejected(capsys):
    # the lift of 1 would be x^30 over ten coordinate pairs: C(39, 9) terms
    code = main(["mul", "--n", "9", "--order", "1", "--lhs", "1 + x^-30", "--rhs", "1",
                 "--product", "wick"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error: sum predicted to have 211915132 terms, over the cap of 10000" in err


def test_cli_product_lift_predicted_too_large_is_rejected(capsys):
    # each factor is small, but order 1 of the product sums 1*1 and
    # x^-30*1, which lifts 1 by x^30 over ten coordinate pairs
    t0 = time.perf_counter()
    code = main(["mul", "--n", "9", "--order", "1", "--lhs", "(1 + l*x^-30)*(1 + l)", "--rhs", "1",
                 "--product", "wick"])
    out, err = capsys.readouterr()
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert out == ""
    assert "error: product predicted to have 211915132 terms, over the cap of 10000" in err


@pytest.mark.parametrize("text, what", [
    ("(1 + l*x^-30 + l^2)^2", "power"),
    ("1/(1 + l*x^-30 + l^2)", "inverse"),
    ("(1 + l*x^-30 + l^2)^-1", "inverse"),
])
def test_parse_rejects_series_lift_predicted_too_large(text, what):
    # like a product: order 2 of each result sums a product carrying
    # x^-60 with one carrying x^0, and would lift the latter by x^60
    with pytest.raises(ParseError, match=f"{what} predicted to have .* terms, over the cap of"):
        parse_expr(text, VarSpace.cpn(9), 2)


@pytest.mark.parametrize("text", ["(1 + l*x^-30)*(1 + l*x^-30)", "(1 + l*x^-1)^5*(1 + l*x)^3",
                                  "(1 + l*x^-30 + l^2*x^-60)^3", "1/(1 + l*x^-30 + l^2*x^-60)"])
def test_parse_accepts_series_without_lift(text):
    # the summands of each order share one power of x, or (second case)
    # differ by x^2, which is small
    assert parse_expr(text, VarSpace.cpn(9), 2).order == 2


@pytest.mark.parametrize("argv", [
    ["mul", "--lhs", "x", "--rhs", "x", "--order", "2", "--format", "latex"],
    ["verify", "su1n", "--order", "2", "--format", "latex"],
    ["verify", "su1n", "--order", "2", "--d-series", "1,1"],
    ["verify", "su1n", "--order", "2", "--d-series", "5"],
    ["mul", "--lhs", "x", "--rhs", "x", "--order", "2", "--seed", "5"],
])
def test_cli_rejects_choices_it_would_ignore(capsys, argv):
    # mul and verify print no LaTeX, and the suites check D = 1 and
    # D = 1 + l/x on their own: these options would be accepted and ignored
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_k_coeff_rejects_smax(capsys):
    # k-coeff has no s bound: --smax would be accepted and ignored
    code = main(["table", "k-coeff", "--rmax", "2", "--smax", "1", "--format", "text"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error: --smax applies to table a-coeff" in err


@pytest.mark.parametrize("spaced, glued", [
    (["--lhs", "-z0*zb0/x", "--rhs", "z1*zb1/x"], ["--lhs=-z0*zb0/x", "--rhs", "z1*zb1/x"]),
    (["--lhs", "x", "--rhs", "-1/2"], ["--lhs", "x", "--rhs=-1/2"]),
])
def test_cli_mul_takes_negative_expressions_spaced(capsys, spaced, glued):
    # like --mu -1/2: a leading-dash value is glued to its flag
    common = ["mul", "--order", "2", "--format", "text"]
    code_glued, want = run_cli(capsys, *common, *glued)
    code, got = run_cli(capsys, *common, *spaced)
    assert code == code_glued == 0
    assert got == want and got.strip()


@pytest.mark.parametrize("argv", [
    ["mul", "--lhs", "x", "--rhs", "x", "--order", "2", "--format", "text"],
    ["mul", "--lhs", "x", "--rhs", "x", "--order", "2", "--format", "json"],
    ["verify", "su1n", "--order", "2", "--format", "json"],
    ["moreno", "--rmax", "2", "--format", "latex"],
    ["table", "k-coeff", "--rmax", "2", "--format", "latex"],
])
def test_cli_format_choices_print(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.strip()


def test_cli_order_ignores_environment(capsys, monkeypatch):
    # the default order is a constant, not read from the environment
    monkeypatch.setenv("WICKRED_ORDER", "2")
    code, out = run_cli(capsys, "mul", "--lhs", "x", "--rhs", "x")
    assert code == 0
    assert json.loads(out)["order"] == 6


def _refuse(*args, **kwargs):
    raise RuntimeError("a renderer for another format ran")


def test_cli_table_renders_only_requested_format(capsys, monkeypatch):
    from wickred import cli

    monkeypatch.setattr(cli, "k_table_latex", _refuse)
    code, out = run_cli(capsys, "table", "k-coeff", "--rmax", "3")
    assert code == 0
    assert json.loads(out)["rmax"] == 3


def test_cli_moreno_renders_only_requested_format(capsys, monkeypatch):
    monkeypatch.setattr(UnivarPoly, "latex", _refuse)
    code, out = run_cli(capsys, "moreno", "--rmax", "3", "--format", "text")
    assert code == 0
    assert "k_3(Delta) = " in out


def _readme_commands():
    """Every `wickred ...` line of README's "Command line" block, with
    backslash continuations joined."""
    import shlex
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.strip().startswith("wickred ")]


def test_readme_has_commands():
    assert len(_readme_commands()) >= 8


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda a: " ".join(a)[:60])
def test_readme_command_runs(capsys, argv):
    # every documented command exits 0 and prints something
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.strip()


# ----------------------------------------------------------------------
# the work of `mul` bounded by the operands' size as well


@pytest.mark.parametrize("argv, message", [
    (["mul", "--n", "7", "--order", "10",
      "--lhs", "(z0*zb1+z1*zb2+z2*zb0)/x", "--rhs", "(z1*zb0+z2*zb1+z0*zb2)/x"],
     "C(17, 7) * 3 * 3 = 175032"),
    (["mul", "--n", "7", "--order", "10", "--product", "wick",
      "--lhs", "(z0*zb1+z1*zb2)/x", "--rhs", "z1*zb0/x"],
     "C(17, 7) * 2 * 1 = 38896"),
    (["mul", "--n", "1", "--order", "10", "--product", "wick",
      "--lhs", "(z0+z1)^39*(zb0+zb1)^49", "--rhs", "1"],
     "C(11, 1) * 2000 * 1 = 22000"),
])
def test_cli_mul_past_operand_bound_is_rejected(capsys, argv, message):
    # each flag and C(order + n, n) are within their bounds, but every
    # multi-index pairs each term of one operand with each of the other
    from wickred.cli import MAX_MUL_WORK

    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == ("error: --n, --order and the operands must give C(order + n, n) * "
                   f"terms(lhs) * terms(rhs) <= {MAX_MUL_WORK}, got {message}\n")
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    # C(10, 1) * 2000 * 1 = 20000, the cap itself; the product stops at
    # order 0 of the constant 1, so it is quick
    ["mul", "--n", "1", "--order", "9", "--product", "wick",
     "--lhs", "(z0+z1)^39*(zb0+zb1)^49", "--rhs", "1"],
    # C(17, 7) * 1 * 1 = 19448, the largest C(order + n, n) within
    # MAX_INDICES, with one-term operands
    ["mul", "--n", "7", "--order", "10", "--lhs", "z0*zb1/x", "--rhs", "1"],
])
def test_cli_mul_at_operand_bound_is_accepted(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["order"] == int(argv[argv.index("--order") + 1])


# ----------------------------------------------------------------------
# the size of --mu, --d-series, literals and operands, bounded before any work

# numerator and denominator at cli.MAX_FLAG_DIGITS = 20 digits
LARGEST_MU = "-99999999999999999999/99999999999999999997"
LARGEST_D = ",".join(["1"] + [f"-{10**20 - r}/{10**20 - 2 * r - 1}" for r in range(1, 17)])
# coefficients of cli.MAX_OPERAND_BITS = 4000 bits
AT_BITS = "((2^1000)^4-1)/((2^1000)^4-3)"


def test_largest_flag_values_and_operands_are_at_their_bounds():
    from wickred.cli import MAX_FLAG_DIGITS, MAX_OPERAND_BITS
    from wickred.scalar import GaussianRational

    for text in [LARGEST_MU] + LARGEST_D.split(",")[1:]:
        v = Fraction(text)
        assert len(str(v.denominator)) == MAX_FLAG_DIGITS
        assert len(str(abs(v.numerator))) == MAX_FLAG_DIGITS
    assert GaussianRational.coerce(Fraction(2**4000 - 1, 2**4000 - 3)).bits() == MAX_OPERAND_BITS


@pytest.mark.parametrize("argv, message", [
    (["mul", "--mu=-1e-100000", "--lhs", "x", "--rhs", "x"],
     "--mu must have a numerator and a denominator of at most 20 digits"),
    (["mul", "--mu=-1/" + "7" * 5000, "--lhs", "x", "--rhs", "x"],
     "--mu must have a numerator and a denominator of at most 20 digits"),
    (["mul", "--mu=-100000000000000000000", "--lhs", "x", "--rhs", "x"],
     "--mu must have a numerator and a denominator of at most 20 digits"),
    (["mul", "--mu=-1e21", "--lhs", "x", "--rhs", "x"],
     "--mu must have a numerator and a denominator of at most 20 digits"),
    (["verify", "reduce", "--mu=-1e-100000", "--order", "2"],
     "--mu must have a numerator and a denominator of at most 20 digits"),
    (["mul", "--product", "tilde", "--d-series", "1,1e-100000", "--lhs", "z0*zb1/x",
      "--rhs", "z1*zb0/x", "--order", "3"],
     "--d-series must have a numerator and a denominator of at most 20 digits"),
    (["mul", "--product", "tilde", "--d-series", "1,1/200000000000000000000", "--lhs", "x", "--rhs", "x"],
     "--d-series must have a numerator and a denominator of at most 20 digits"),
    (["mul", "--product", "wick", "--lhs", "(2^1000)^15", "--rhs", "1", "--order", "1"],
     "--lhs must have coefficients of at most 4000 bits over their common denominator, got 15001"),
    (["mul", "--product", "tilde", "--lhs", "x", "--rhs", "(2^1000)^4*x"],
     "--rhs must have coefficients of at most 4000 bits over their common denominator, got 4001"),
    (["mul", "--product", "wick", "--order", "1",
      "--lhs", "1/((2^1000)^4-3)*z0*zb0 + 1/((2^1000)^4-5)*z1*zb1",
      "--rhs", "1/((2^1000)^4-7)*z0*zb0 + 1/((2^1000)^4-9)*z1*zb1"],
     "--lhs must have coefficients of at most 4000 bits over their common denominator, got 8000"),
    (["mul", "--mu=-1/300000", "--lhs", "x^1000", "--rhs", "x", "--order", "1"],
     "--lhs must have coefficients of at most 4000 bits over their common denominator "
     "after x -> -2 mu, got 17195"),
    (["mul", "--product", "tilde", "--lhs", "x", "--rhs", "(x^1000)^1000"],
     "--rhs must have powers of x within +-1000 for --product tilde, got x^1000000"),
    (["mul", "--lhs", "(x^-1000)^2", "--rhs", "x"],
     "--lhs must have powers of x within +-1000 for --product mu, got x^-2000"),
    (["mul", "--lhs", "x + " + "7" * 5000, "--rhs", "1"],
     "integer literal of 5000 digits is over the cap of 1000 (at position 4)"),
])
def test_cli_values_past_their_size_bounds_are_rejected(capsys, argv, message):
    # each names its flag or its position and exits 2 before any product:
    # unbounded, -1e-100000 is a level of 100,000 digits, and the large wick
    # products failed only when printed, past Python's 4300-digit limit on
    # integer strings
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert elapsed < 1.0


@pytest.mark.parametrize("product, extra", [
    ("mu", []),
    ("wick", []),
    ("tilde", ["--d-series", LARGEST_D]),
])
def test_cli_operands_at_bound_print_at_largest_mu_and_order(capsys, product, extra):
    from wickred.cli import MAX_ORDER

    code, out = run_cli(capsys, "mul", "--product", product, "--order", str(MAX_ORDER),
                        f"--mu={LARGEST_MU}", *extra,
                        "--lhs", f"{AT_BITS}*z0*zb1/x", "--rhs", f"{AT_BITS}*z1*zb0/x")
    assert code == 0
    assert json.loads(out)["order"] == MAX_ORDER


def test_parse_literal_bound(sp1):
    assert parse_expr("9" * 1000, sp1, 1).coeffs[0] == LaurentElem.scalar(sp1, 10**1000 - 1)
    with pytest.raises(ParseError, match="integer literal of 1001 digits") as e:
        parse_expr("x*" + "9" * 1001, sp1, 1)
    assert e.value.pos == 2


@pytest.mark.parametrize("lhs", ["x^1000", "x^-1000"])
def test_cli_tilde_takes_x_powers_at_bound(capsys, lhs):
    # each S table is filled from its neighbour in a loop, with no recursion
    code, out = run_cli(capsys, "mul", "--product", "tilde", "--order", "16", "--lhs", lhs, "--rhs", "1",
                        "--format", "text")
    assert code == 0
    assert out.startswith(f"((1)*{lhs})")
