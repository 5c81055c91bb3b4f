#!/usr/bin/env python3
"""Run every verification suite and print a one-line summary per check.

Equivalent to `wickred verify all` but with wall-clock timings per suite,
which is handy when tuning the truncation order.
"""

import argparse
import sys
import time

from wickred.cli import _context, _glue_negative_values, _require_at_least
from wickred.suites import SUITE_NAMES, run_suite


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--order", type=int, default=4)
    ap.add_argument("--mu", type=str, default="-1/2")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rmax", type=int, default=10)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(_glue_negative_values(sys.argv[1:]))
    try:
        ctx = _context(args)
        _require_at_least("rmax", args.rmax, 1)
    except (ValueError, ZeroDivisionError) as e:
        ap.error(str(e))

    all_ok = True
    for name in SUITE_NAMES:
        t0 = time.time()
        report = run_suite(name, n=ctx.n, order=ctx.K, mu=ctx.mu,
                           seed=args.seed, rmax=args.rmax)
        ok = report.ok
        all_ok = all_ok and ok
        npass = sum(c.ok for c in report.checks)
        print(f"{name:10s} {npass:3d}/{len(report.checks):3d} "
              f"{'ok' if ok else 'FAIL'}  ({time.time() - t0:.1f}s)")
        for c in report.checks:
            if args.verbose or not c.ok:
                line = f"    {'PASS' if c.ok else 'FAIL'} {c.name}"
                if not c.ok and c.detail:
                    line += f"  residual: {c.detail}"
                print(line)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
