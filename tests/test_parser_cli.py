import json
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


def test_coefficient_tables_script_matches_cli(capsys, monkeypatch):
    import runpy
    from pathlib import Path

    script = Path(__file__).resolve().parents[1] / "scripts" / "coefficient_tables.py"
    monkeypatch.setattr("sys.argv", [str(script), "--rmax", "6"])
    runpy.run_path(str(script), run_name="__main__")
    blocks = [b.splitlines() for b in capsys.readouterr().out.split("\n\n")]
    # each block opens with one "% ..." comment line
    a_block, k_block = blocks[0][1:], blocks[1][1:]
    for which, block in (("a-coeff", a_block), ("k-coeff", k_block)):
        code, out = run_cli(capsys, "table", which, "--rmax", "6", "--format", "latex")
        assert code == 0
        assert block == out.splitlines()


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


@pytest.mark.parametrize("script, args", [
    ("run_verification.py", ["--order", "2", "--rmax", "0"]),
    ("run_verification.py", ["--order", "2", "--rmax", "-5"]),
    ("coefficient_tables.py", ["--rmax", "0"]),
    ("coefficient_tables.py", ["--rmax", "-1"]),
])
def test_scripts_reject_rmax_below_one(script, args):
    # like the CLI: an empty range of r is an error, not an empty table or
    # a suite run with its recursion checks silently dropped
    proc = _run_script(script, args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"error: --rmax must be >= 1, got {args[-1]}" in proc.stderr


def _run_script(script, args):
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(root / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("args, message", [
    (["--order", "0"], "need n >= 1 and order >= 1"),
    (["--n", "0", "--order", "2"], "need n >= 1 and order >= 1"),
    (["--mu", "1"], "mu must be negative"),
    (["--mu", "abc"], "Invalid literal for Fraction: 'abc'"),
])
def test_run_verification_rejects_bad_input(args, message, capsys):
    # the script validates through the CLI's config: exit 2 with the CLI's
    # message, not a traceback
    proc = _run_script("run_verification.py", args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"error: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert main(["verify", "all", *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_run_verification_accepts_negative_mu():
    # like `wickred verify all --mu -1/2`: the value is glued to its flag
    proc = _run_script("run_verification.py", ["--order", "1", "--mu", "-1/2"])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count(" ok ") == 5


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
