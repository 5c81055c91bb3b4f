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
import gc
import json
import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

# Each command imports the modules it runs, so that a process compiles and
# loads only those.  Importing this module loads no layer of the package,
# so a malformed flag exits before any is compiled; `table` adds `coeffs`
# and `scalar`, `moreno` adds those, `series` and `moreno`, and `mul` and
# `verify` load the Laurent kernel through `wick`.  `verify` adds
# `sampling` and `suites`, and each suite the layers it checks: `lemma21`
# none, `equiv` `coeffs` and `equiv`, `reduce` those and `reduction`,
# `moreno` `coeffs`, `moreno` and `chart`, `su1n` `coeffs` and
# `reduction`.  A process enters through `run`, which skips the collector's
# last full pass at exit.
from . import SUITE_NAMES

if TYPE_CHECKING:
    from .wick import StarContext


DEFAULT_ORDER = 6
# the work of `mul` and `verify` grows about as order^4
MAX_ORDER = 16
# bounds --rmax and --smax of `table`, `moreno` and `verify`, whose work
# grows without limit in them
MAX_RMAX = 60
# bounds the decimal digits of the numerator and of the denominator of --mu
# and of each --d-series entry: the products raise them to powers up to the
# order, and x -> -2 mu raises -2 mu to an operand's powers of x, so an
# unbounded value such as 1e-100000 asks for unbounded work and prints past
# Python's 4300-digit limit on integer strings
MAX_FLAG_DIGITS = 20
# bounds the bits of an operand's coefficients over their least common
# denominator, as a product takes it (after x -> -2 mu for --product mu):
# a product sums terms of both operands, so a bound on each coefficient
# alone lets the denominators multiply.  Two operands at the bound, at
# MAX_ORDER and with the largest --mu or --d-series, still print within
# the 4300-digit limit
MAX_OPERAND_BITS = 4000
# the expression grammar names the coordinates z0..z9, so CP^9 and D^9 are
# the largest spaces an expression can fill
MAX_N = 9
# the work of `verify` grows about 3x per step of n: `verify reduce --order 1`
# takes 12 s at n = 4 and 38 s at n = 5 (2-CPU x86-64 host, Python 3.11)
MAX_VERIFY_N = 4
# the top order of every derivative sum runs over the C(order + n, n)
# multi-indices beta with |beta| = order, so the two flags are bounded
# together too: within these caps a product of z0*zb1/x and z1*zb0/x takes
# at most about 34 s (n = 5, order 15) and `verify all` about 40 s (n = 4,
# order 6) on the same host
MAX_INDICES = 20000
MAX_VERIFY_INDICES = 210
# C(order + n, n) * terms(lhs) * terms(rhs): each multi-index meets each term pair
MAX_MUL_WORK = 20000


def _context(args) -> StarContext:
    """The StarContext of a `mul` or `verify` namespace, after the input checks."""
    mu = _fraction("mu", args.mu)
    d_series = getattr(args, "d_series", "1")
    D = tuple(_fraction("d-series", p.strip()) for p in d_series.split(","))
    if D[0] != 1:
        raise ValueError(f"--d-series must start with d_0 = 1, got {d_series!r}")
    if mu >= 0:
        raise ValueError(f"--mu must be negative, got {mu}")
    if args.n < 1 or args.order < 1:
        raise ValueError("need n >= 1 and order >= 1")
    if args.n > MAX_N:
        raise ValueError(f"--n must be <= {MAX_N}, got {args.n}")
    if args.order > MAX_ORDER:
        raise ValueError(f"--order must be <= {MAX_ORDER}, got {args.order}")
    verify = args.command == "verify"
    if verify and args.n > MAX_VERIFY_N:
        raise ValueError(f"--n must be <= {MAX_VERIFY_N} for verify, got {args.n}")
    cap, scope = (MAX_VERIFY_INDICES, " for verify") if verify else (MAX_INDICES, "")
    count = math.comb(args.order + args.n, args.n)
    if count > cap:
        raise ValueError(f"--n and --order must give C(order + n, n) <= {cap}{scope}, "
                         f"got C({args.order + args.n}, {args.n}) = {count}")
    from .poly import VarSpace
    from .wick import StarContext

    space = VarSpace.cpn(args.n) if getattr(args, "space", "cpn") == "cpn" else VarSpace.dn(args.n)
    return StarContext(space, args.order, D, mu)


def _fraction(flag: str, text: str) -> Fraction:
    """A rational flag value; malformed text, a zero denominator or a
    numerator or denominator past MAX_FLAG_DIGITS names the flag.  The
    digits and the exponent of the text are bounded before `Fraction`
    expands them."""
    too_large = ValueError(f"--{flag} must have a numerator and a denominator of at most "
                           f"{MAX_FLAG_DIGITS} digits")
    # digits enough for a numerator, a denominator and an exponent at the bound
    digits = sum(ch.isdigit() for ch in text)
    exponent = re.search(r"[eE][-+]?(\d+)", text)
    if digits > 3 * MAX_FLAG_DIGITS or exponent and int(exponent[1]) > MAX_FLAG_DIGITS:
        raise too_large
    try:
        value = Fraction(text)
    except ValueError:
        raise ValueError(f"--{flag} must be a rational number, got {text!r}") from None
    except ZeroDivisionError:
        raise ValueError(f"--{flag} must have a nonzero denominator, got {text}") from None
    if max(abs(value.numerator), value.denominator) >= 10 ** MAX_FLAG_DIGITS:
        raise too_large
    return value


def _json(obj) -> list:
    return [json.dumps(obj, indent=2, sort_keys=True)]


def _emit(fmt: str, render: dict) -> None:
    """Print the lines of the renderer for `fmt`; no other renderer runs."""
    for line in render[fmt]():
        print(line)


def _require_in_range(flag: str, value: int, least: int) -> None:
    """An --rmax or --smax value: at least `least` and at most MAX_RMAX."""
    if value < least:
        raise ValueError(f"--{flag} must be >= {least}, got {value}")
    if value > MAX_RMAX:
        raise ValueError(f"--{flag} must be <= {MAX_RMAX}, got {value}")


# ----------------------------------------------------------------------


def cmd_mul(args) -> int:
    ctx = _context(args)
    if args.product != "tilde" and not ctx.is_trivial_D():
        raise ValueError("--d-series applies to --product tilde; " + (
            "the Wick product does not depend on D" if args.product == "wick"
            else "the canonical reduced product is defined for D == 1"))
    from .parser import MAX_EXPONENT, format_series, parse_expr
    from .scalar import GaussianRational

    lhs = parse_expr(args.lhs, ctx.space, ctx.K)
    rhs = parse_expr(args.rhs, ctx.space, ctx.K)
    if args.product != "wick":
        # mu and tilde act on the invariant class only, and the S tables and
        # x -> -2 mu run over each power of x an operand has
        for flag, s in (("lhs", lhs), ("rhs", rhs)):
            if not all(c.is_invariant() for c in s.coeffs):
                raise ValueError(f"--{flag} must have equal z- and zb-degree in every term "
                                 f"for --product {args.product}")
            top = max((c.num.degrees(k)[0] - c.mz for c in s.coeffs for k in c.num.terms),
                      key=abs, default=0)
            if abs(top) > MAX_EXPONENT:
                raise ValueError(f"--{flag} must have powers of x within +-{MAX_EXPONENT} "
                                 f"for --product {args.product}, got x^{top}")
    t = [sum(len(c.num.terms) for c in s.coeffs) for s in (lhs, rhs)]
    work = math.comb(ctx.K + ctx.n, ctx.n) * t[0] * t[1]
    if work > MAX_MUL_WORK:
        raise ValueError(f"--n, --order and the operands must give C(order + n, n) * terms(lhs) * "
                         f"terms(rhs) <= {MAX_MUL_WORK}, got C({ctx.K + ctx.n}, {ctx.n}) * "
                         f"{t[0]} * {t[1]} = {work}")
    if args.product == "mu":
        from . import reduction

        lhs, rhs = reduction.reduce_function(lhs, ctx), reduction.reduce_function(rhs, ctx)
    for flag, s in (("lhs", lhs), ("rhs", rhs)):
        bits = GaussianRational.common_bits([c for e in s.coeffs for c in e.num.terms.values()],
                                            MAX_OPERAND_BITS)
        if bits > MAX_OPERAND_BITS:
            raise ValueError(f"--{flag} must have coefficients of at most {MAX_OPERAND_BITS} bits "
                             f"over their common denominator"
                             f"{' after x -> -2 mu' if args.product == 'mu' else ''}, got {bits}")
    if args.product == "wick":
        from .wick import wick_product

        result = wick_product(lhs, rhs, ctx)
    elif args.product == "tilde":
        from . import equiv

        result = equiv.tilde_star(lhs, rhs, ctx)
    else:
        result = reduction.mu_star(lhs, rhs, ctx)
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
    from .coeffs import a_coeff
    from .scalar import latex_fraction

    latex = [r"\begin{pmatrix}"]
    for r in range(rmax + 1):
        row = " & ".join(latex_fraction(a_coeff(r, s)) for s in range(smax + 1))
        latex.append(row + (r" \\" if r < rmax else ""))
    latex.append(r"\end{pmatrix}")
    return latex


def k_table_latex(rmax: int) -> list:
    """K~_r = sum_s c_{r,s} M~_s for r = 1..rmax as LaTeX align lines."""
    from .coeffs import k_coeff
    from .scalar import latex_fraction

    latex = [r"\begin{align*}"]
    for r in range(1, rmax + 1):
        body = ""
        for s in range(1, r + 1):
            c = k_coeff(r, s)
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
        _require_in_range("rmax", rmax, 0)
        _require_in_range("smax", smax, 0)
        from .coeffs import a_coeff

        cells = [(r, s, a_coeff(r, s)) for r in range(rmax + 1) for s in range(smax + 1)]
        obj = {"table": "a-coeff", "rmax": rmax, "smax": smax}
        name, latex = "A", lambda: a_table_latex(rmax, smax)
    else:
        if args.smax is not None:
            raise ValueError("--smax applies to table a-coeff")
        _require_in_range("rmax", rmax, 1)
        from .coeffs import k_coeff

        cells = [(r, s, k_coeff(r, s)) for r in range(1, rmax + 1) for s in range(1, r + 1)]
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
    _require_in_range("rmax", rmax, 1)
    from . import moreno

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
    _require_in_range("rmax", args.rmax, 1)
    from . import suites

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
    p.add_argument("suite", choices=("all",) + SUITE_NAMES)
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


def run() -> int:
    """The process entry: `main`, then `gc.freeze()`.  At shutdown the
    interpreter would run one full collection over every object the run
    built, only to free them; frozen, they are left to reference counting.
    Tests call `main`, which never freezes."""
    rc = main()
    gc.freeze()
    return rc


if __name__ == "__main__":
    sys.exit(run())
