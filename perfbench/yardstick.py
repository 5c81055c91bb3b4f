"""A fixed stdlib-only program that speed.py times as the host-speed
reference: interpreter start, a few standard imports, and a sparse
polynomial product over Fraction with tuple exponent keys (the kind of
work wickred's kernels do, with none of wickred's code).

    python3 perfbench/yardstick.py

It prints one JSON line; do not change it, or figures from before and after
the change are no longer comparable.
"""

import argparse  # noqa: F401  (imports are part of the reference work)
import dataclasses  # noqa: F401
import functools  # noqa: F401
import itertools  # noqa: F401
import json
import re  # noqa: F401
from fractions import Fraction


def mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def main() -> None:
    a = {(i % 3, i % 5, i // 7, 1): Fraction(i + 1, i % 7 + 2) for i in range(24)}
    b = {(i % 4, i // 5, i % 2, 0): Fraction(i % 9 - 4, i % 5 + 1) for i in range(24)}
    p = a
    for _ in range(5):
        p = {e: c for e, c in mul(p, b).items() if sum(e) < 16}
    print(json.dumps({"terms": len(p)}))


if __name__ == "__main__":
    main()
