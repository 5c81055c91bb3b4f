"""Command-line interface.

Commands:
    mul       multiply two expressions (reduced product by default)
    table     coefficient tables (a-coeff, k-coeff) as JSON or LaTeX
    moreno    recursion residuals and the k~ polynomial table
    verify    run a named verification suite; exit code 0 iff all pass

The default truncation order can be overridden with the WICKRED_ORDER
environment variable.  Note: negative flag values need the `--mu=-1/2`
spelling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import equiv, moreno, reduction, suites
from .parser import format_series, parse_expr
from .poly import VarSpace
from .wick import StarContext, wick_product


DEFAULT_ORDER = 6


@dataclass
class CliConfig:
    space: str = "cpn"
    n: int = 1
    mu: Fraction = Fraction(-1, 2)
    order: int = DEFAULT_ORDER
    D: tuple = (Fraction(1),)
    seed: int = 0
    fmt: str = "json"

    def __post_init__(self):
        if self.mu >= 0:
            raise ValueError("mu must be negative")
        if self.n < 1 or self.order < 1:
            raise ValueError("need n >= 1 and order >= 1")

    def context(self) -> StarContext:
        space = VarSpace.cpn(self.n) if self.space == "cpn" else VarSpace.dn(self.n)
        return StarContext(space=space, K=self.order, D=self.D, mu=self.mu)


def _default_order() -> int:
    env = os.environ.get("WICKRED_ORDER")
    if not env:
        return DEFAULT_ORDER
    try:
        order = int(env)
    except ValueError:
        order = 0
    if order < 1:
        raise ValueError(f"WICKRED_ORDER must be a positive integer, got {env!r}")
    return order


def _parse_d_series(text: str) -> tuple:
    return tuple(Fraction(p.strip()) for p in text.split(","))


def _config_from_args(args) -> CliConfig:
    return CliConfig(
        space=getattr(args, "space", "cpn"),
        n=getattr(args, "n", 1),
        mu=Fraction(getattr(args, "mu", "-1/2")),
        order=_default_order() if getattr(args, "order", None) is None else args.order,
        D=_parse_d_series(getattr(args, "d_series", "1")),
        seed=getattr(args, "seed", 0),
        fmt=getattr(args, "format", "json"),
    )


def _emit(obj, fmt: str, latex_lines=None, text_lines=None) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    elif fmt == "latex":
        for line in latex_lines or []:
            print(line)
    else:
        for line in text_lines or [json.dumps(obj, sort_keys=True)]:
            print(line)


# ----------------------------------------------------------------------


def cmd_mul(args) -> int:
    cfg = _config_from_args(args)
    ctx = cfg.context()
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
    obj = {
        "space": cfg.space,
        "n": cfg.n,
        "mu": str(cfg.mu),
        "order": ctx.K,
        "product": args.product,
        "series": result.to_obj(),
        "text": format_series(result),
    }
    _emit(obj, cfg.fmt, text_lines=[format_series(result)])
    return 0


def cmd_table(args) -> int:
    fmt = args.format
    if args.which == "a-coeff":
        rmax, smax = args.rmax, args.smax if args.smax is not None else args.rmax
        entries = [
            {"r": r, "s": s, "value": str(equiv.a_coeff(r, s))}
            for r in range(rmax + 1)
            for s in range(smax + 1)
        ]
        obj = {"table": "a-coeff", "rmax": rmax, "smax": smax, "entries": entries}
        latex = [r"\begin{pmatrix}"]
        for r in range(rmax + 1):
            row = " & ".join(_latex_frac(equiv.a_coeff(r, s)) for s in range(smax + 1))
            latex.append(row + (r" \\" if r < rmax else ""))
        latex.append(r"\end{pmatrix}")
        _emit(obj, fmt, latex_lines=latex,
              text_lines=[f"A({r},{s}) = {equiv.a_coeff(r, s)}"
                          for r in range(rmax + 1) for s in range(smax + 1)])
        return 0
    rmax = args.rmax
    entries = [
        {"r": r, "s": s, "value": str(reduction.k_coeff(r, s))}
        for r in range(1, rmax + 1)
        for s in range(1, r + 1)
    ]
    obj = {"table": "k-coeff", "rmax": rmax, "entries": entries}
    latex = [r"\begin{align*}"]
    for r in range(1, rmax + 1):
        body = ""
        for s in range(1, r + 1):
            c = reduction.k_coeff(r, s)
            if not c:
                continue
            part = f"{_latex_frac(c)}\\,\\tilde{{M}}_{{{s}}}"
            body += part if not body else (part if part.startswith("-") else "+" + part)
        latex.append(rf"\tilde{{K}}_{{{r}}} &= " + body + r" \\")
    latex.append(r"\end{align*}")
    _emit(obj, fmt, latex_lines=latex,
          text_lines=[f"c({r},{s}) = {reduction.k_coeff(r, s)}"
                      for r in range(1, rmax + 1) for s in range(1, r + 1)])
    return 0


def _latex_frac(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return sign + rf"\frac{{{abs(f.numerator)}}}{{{f.denominator}}}"


def cmd_moreno(args) -> int:
    rmax = args.rmax
    residuals = [moreno.moreno_recursion_residual(r) for r in range(1, rmax + 1)]
    ok = all(r.is_zero() for r in residuals)
    obj = {
        "rmax": rmax,
        "recursion_residuals": [str(r) for r in residuals],
        "all_zero": ok,
        "k_polys": {r: str(moreno.k_poly(r, 1)) for r in range(1, rmax + 1)},
    }
    latex = [f"% recursion residual r={r}: {'0' if res.is_zero() else str(res)}"
             for r, res in enumerate(residuals, start=1)]
    latex += [rf"\tilde{{k}}_{{{r}}}(\Delta) = {moreno.k_poly(r, 1).latex()}"
              for r in range(1, rmax + 1)]
    text = [f"recursion residual r={r}: {'0' if res.is_zero() else str(res)}"
            for r, res in enumerate(residuals, start=1)]
    text += [f"k_{r}(Delta) = {moreno.k_poly(r, 1)}" for r in range(1, rmax + 1)]
    _emit(obj, args.format, latex_lines=latex, text_lines=text)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    report = suites.run_suite(
        args.suite, n=cfg.n, order=cfg.order, mu=cfg.mu, seed=cfg.seed, rmax=args.rmax
    )
    if cfg.fmt == "json":
        print(json.dumps(report.to_obj(), indent=2, sort_keys=True))
    else:
        for c in sorted(report.checks, key=lambda c: c.name):
            line = f"{'PASS' if c.ok else 'FAIL'}  {c.name}"
            if not c.ok and c.detail:
                line += f"  residual: {c.detail}"
            print(line)
        print(f"{'all passed' if report.ok else 'FAILURES'} "
              f"({sum(c.ok for c in report.checks)}/{len(report.checks)})")
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
                       help="negative rational level, e.g. --mu=-1/2")
        p.add_argument("--order", type=int, default=None,
                       help=f"truncation order (default {DEFAULT_ORDER}, "
                            "or the WICKRED_ORDER environment variable)")
        p.add_argument("--d-series", type=str, default="1",
                       help="comma-separated d_r coefficients, e.g. '1,1'")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "latex", "text"), default="json")

    p = sub.add_parser("mul", help="multiply two expressions")
    common(p)
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
    p.add_argument("--rmax", type=int, default=10)
    p.set_defaults(fn=cmd_verify)
    return ap


def _glue_negative_values(argv):
    """Let `--mu -1/2` work: argparse treats a leading-dash value as a flag,
    so fuse it into the `--mu=-1/2` form."""
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--mu" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            try:
                Fraction(argv[i + 1])
            except (ValueError, ZeroDivisionError):
                out.append(a)
            else:
                out.append(f"--mu={argv[i + 1]}")
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
