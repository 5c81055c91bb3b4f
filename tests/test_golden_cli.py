"""Golden values: the sha256 of `wickred mul --format json` over CP^n and
D^n for n = 1, 2, 3, every product, two levels mu and three D series; of
both coefficient tables; and of the sphere tables `moreno --rmax 18` in
json, latex and text; recorded in golden_cli.json.

The `verify` digests pin verdicts only; these pin every coefficient that
S(x^j), the null-point certificate, the derivative tables and the three
products compute, and every printed sphere polynomial.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from wickred.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_is_pinned(capsys, command):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


def test_golden_cases_cover_every_product_and_space():
    argvs = [shlex.split(c) for c in GOLDEN if c.startswith("mul ")]
    seen = {(a[a.index("--space") + 1], a[a.index("--n") + 1], a[a.index("--product") + 1])
            for a in argvs}
    assert seen == {(s, n, p) for s in ("cpn", "dn") for n in "123"
                    for p in ("mu", "tilde", "wick")}
    assert any("--d-series" in a for a in argvs)
    assert all(int(a[a.index("--order") + 1]) <= 4 for a in argvs)
