"""Command-line interface.

Commands:
    mul       multiply two expressions (reduced product by default)
    table     coefficient tables (a-coeff, k-coeff) as JSON or LaTeX
    moreno    recursion residuals and the k~ polynomial table
    verify    run a named verification suite; exit code 0 iff all pass

The truncation order defaults to 6.  `--seed` is a `verify` option, and
`--d-series` is for `mul --product tilde`, and `--smax` for
`table a-coeff`.  A negative level or expression can be given as
`--mu -1/2` or `--mu=-1/2`, `--lhs -x` or `--lhs=-x`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import equiv, moreno, reduction, suites
from .parser import format_series, parse_expr
from .series import latex_fraction
from .wick import StarContext, default_context, wick_product


DEFAULT_ORDER = 6


def _context(args) -> StarContext:
    """The StarContext of a `mul` or `verify` namespace, after the input checks."""
    mu = Fraction(args.mu)
    D = tuple(Fraction(p.strip()) for p in getattr(args, "d_series", "1").split(","))
    if mu >= 0:
        raise ValueError("mu must be negative")
    if args.n < 1 or args.order < 1:
        raise ValueError("need n >= 1 and order >= 1")
    return default_context(args.n, args.order, mu, getattr(args, "space", "cpn"), D)


def _json(obj) -> list:
    return [json.dumps(obj, indent=2, sort_keys=True)]


def _emit(fmt: str, render: dict) -> None:
    """Print the lines of the renderer for `fmt`; no other renderer runs."""
    for line in render[fmt]():
        print(line)


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"--{flag} must be >= {least}, got {value}")


# ----------------------------------------------------------------------


def cmd_mul(args) -> int:
    ctx = _context(args)
    if args.product == "wick" and not ctx.is_trivial_D():
        raise ValueError("--d-series applies to --product tilde; "
                         "the Wick product does not depend on D")
    lhs = parse_expr(args.lhs, ctx.space, ctx.K)
    rhs = parse_expr(args.rhs, ctx.space, ctx.K)
    if args.product == "wick":
        result = wick_product(lhs, rhs, ctx)
    elif args.product == "tilde":
        result = equiv.tilde_star(lhs, rhs, ctx)
    else:
        result = reduction.mu_star(
            reduction.reduce_function(lhs, ctx), reduction.reduce_function(rhs, ctx), ctx
        )
    text = format_series(result)
    obj = {
        "space": args.space,
        "n": ctx.n,
        "mu": str(ctx.mu),
        "order": ctx.K,
        "product": args.product,
        "series": result.to_obj(),
        "text": text,
    }
    _emit(args.format, {"json": lambda: _json(obj), "text": lambda: [text]})
    return 0


def a_table_latex(rmax: int, smax: int) -> list:
    """The A^(r)_s matrix (rows r = 0..rmax, columns s = 0..smax) as LaTeX lines."""
    latex = [r"\begin{pmatrix}"]
    for r in range(rmax + 1):
        row = " & ".join(latex_fraction(equiv.a_coeff(r, s)) for s in range(smax + 1))
        latex.append(row + (r" \\" if r < rmax else ""))
    latex.append(r"\end{pmatrix}")
    return latex


def k_table_latex(rmax: int) -> list:
    """K~_r = sum_s c_{r,s} M~_s for r = 1..rmax as LaTeX align lines."""
    latex = [r"\begin{align*}"]
    for r in range(1, rmax + 1):
        body = ""
        for s in range(1, r + 1):
            c = reduction.k_coeff(r, s)
            if not c:
                continue
            part = f"{latex_fraction(c)}\\,\\tilde{{M}}_{{{s}}}"
            body += part if not body else (part if part.startswith("-") else "+" + part)
        latex.append(rf"\tilde{{K}}_{{{r}}} &= " + body + r" \\")
    latex.append(r"\end{align*}")
    return latex


def cmd_table(args) -> int:
    rmax = args.rmax
    if args.which == "a-coeff":
        smax = rmax if args.smax is None else args.smax
        _require_at_least("rmax", rmax, 0)
        _require_at_least("smax", smax, 0)
        cells = [(r, s, equiv.a_coeff(r, s)) for r in range(rmax + 1) for s in range(smax + 1)]
        obj = {"table": "a-coeff", "rmax": rmax, "smax": smax}
        name, latex = "A", lambda: a_table_latex(rmax, smax)
    else:
        if args.smax is not None:
            raise ValueError("--smax applies to table a-coeff")
        _require_at_least("rmax", rmax, 1)
        cells = [(r, s, reduction.k_coeff(r, s)) for r in range(1, rmax + 1) for s in range(1, r + 1)]
        obj = {"table": "k-coeff", "rmax": rmax}
        name, latex = "c", lambda: k_table_latex(rmax)
    obj["entries"] = [{"r": r, "s": s, "value": str(v)} for r, s, v in cells]
    _emit(args.format, {
        "json": lambda: _json(obj),
        "latex": latex,
        "text": lambda: [f"{name}({r},{s}) = {v}" for r, s, v in cells],
    })
    return 0


def cmd_moreno(args) -> int:
    rmax = args.rmax
    _require_at_least("rmax", rmax, 1)
    rs = range(1, rmax + 1)
    residuals = [moreno.moreno_recursion_residual(r) for r in rs]
    ok = all(res.is_zero() for res in residuals)
    shown = [str(res) for res in residuals]
    lines = [f"recursion residual r={r}: {res}" for r, res in zip(rs, shown)]
    ks = [moreno.k_poly(r, 1) for r in rs]
    _emit(args.format, {
        "json": lambda: _json({
            "rmax": rmax,
            "recursion_residuals": shown,
            "all_zero": ok,
            "k_polys": {r: str(k) for r, k in zip(rs, ks)},
        }),
        "latex": lambda: ["% " + line for line in lines]
        + [rf"\tilde{{k}}_{{{r}}}(\Delta) = {k.latex()}" for r, k in zip(rs, ks)],
        "text": lambda: lines + [f"k_{r}(Delta) = {k}" for r, k in zip(rs, ks)],
    })
    return 0 if ok else 1


def _report_text(report) -> list:
    lines = []
    for c in sorted(report.checks, key=lambda c: c.name):
        line = f"{'PASS' if c.ok else 'FAIL'}  {c.name}"
        if not c.ok and c.detail:
            line += f"  residual: {c.detail}"
        lines.append(line)
    lines.append(f"{'all passed' if report.ok else 'FAILURES'} "
                 f"({sum(c.ok for c in report.checks)}/{len(report.checks)})")
    return lines


def cmd_verify(args) -> int:
    ctx = _context(args)
    _require_at_least("rmax", args.rmax, 1)
    report = suites.run_suite(
        args.suite, n=ctx.n, order=ctx.K, mu=ctx.mu, seed=args.seed, rmax=args.rmax
    )
    _emit(args.format, {"json": lambda: _json(report.to_obj()),
                        "text": lambda: _report_text(report)})
    return 0 if report.ok else 1


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wickred", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_space=True):
        if with_space:
            p.add_argument("--space", choices=("cpn", "dn"), default="cpn")
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--mu", type=str, default="-1/2",
                       help="negative rational level, e.g. --mu -1/2")
        p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                       help=f"truncation order (default {DEFAULT_ORDER})")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("mul", help="multiply two expressions")
    common(p)
    p.add_argument("--d-series", type=str, default="1",
                   help="comma-separated d_r coefficients for --product tilde, e.g. '1,1'")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--product", choices=("mu", "tilde", "wick"), default="mu")
    p.set_defaults(fn=cmd_mul)

    p = sub.add_parser("table", help="coefficient tables")
    p.add_argument("which", choices=("a-coeff", "k-coeff"))
    p.add_argument("--rmax", type=int, default=8)
    p.add_argument("--smax", type=int, default=None)
    p.add_argument("--format", choices=("json", "latex", "text"), default="json")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("moreno", help="recursion residuals and k~ table")
    p.add_argument("--rmax", type=int, default=10)
    p.add_argument("--format", choices=("json", "latex", "text"), default="json")
    p.set_defaults(fn=cmd_moreno)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("all",) + suites.SUITE_NAMES)
    common(p, with_space=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rmax", type=int, default=10)
    p.set_defaults(fn=cmd_verify)
    return ap


def _glue_negative_values(argv):
    """Let `--mu -1/2` and `--lhs "-z0*zb0/x"` work: argparse treats a
    leading-dash value as a flag, so fuse a value that starts with a single
    dash into the `--mu=-1/2` form."""
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if (a in ("--mu", "--lhs", "--rhs") and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and not argv[i + 1].startswith("--")):
            out.append(f"{a}={argv[i + 1]}")
            i += 2
            continue
        out.append(a)
        i += 1
    return out


def main(argv=None) -> int:
    argv = _glue_negative_values(sys.argv[1:] if argv is None else list(argv))
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
