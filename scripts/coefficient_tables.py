#!/usr/bin/env python3
"""Emit the coefficient tables of the construction as LaTeX.

Prints three blocks: the A^(r)_s matrix governing the action of the
equivalence transformation on negative powers of x, the reduced-product
coefficients c_{r,s} written as combinations of the M~_s operators, and
the Laplacian polynomials k~_r(Delta) for the sphere.
"""

import argparse

from wickred.cli import _require_at_least, a_table_latex, k_table_latex
from wickred.moreno import k_poly


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rmax", type=int, default=8)
    ap.add_argument("--n", type=int, default=1, help="dimension for the k~ table")
    args = ap.parse_args()
    try:
        _require_at_least("rmax", args.rmax, 1)
    except ValueError as e:
        ap.error(str(e))
    rmax = args.rmax

    print("% A^{(r)}_s for r (rows) and s (columns) up to", rmax)
    print("\n".join(a_table_latex(rmax, rmax)))
    print()

    print("% reduced-product coefficients: K~_r as combinations of M~_s")
    print("\n".join(k_table_latex(rmax)))
    print()

    print(f"% Laplacian polynomials on the n = {args.n} reduced space")
    for r in range(1, rmax + 1):
        print(rf"\tilde{{k}}_{{{r}}}(\Delta) = {k_poly(r, args.n).latex()}")


if __name__ == "__main__":
    main()
