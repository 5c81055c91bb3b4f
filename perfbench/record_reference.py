"""Record the reference digests of every CLI item the workloads can run.

Run on the commit whose outputs are the reference (the benchmark checks
later commits against it byte for byte):

    python3 perfbench/record_reference.py

It writes perfbench/reference.json, mapping each argument list (as JSON)
to the SHA-256 of its stdout.
"""

from __future__ import annotations

import hashlib
import json
import sys

import gen
import proc


def main() -> int:
    if not proc.source_present():
        print("error: no wickred sources under src/", file=sys.stderr)
        return 2
    digests = {}
    for argv in gen.reference_items():
        fin = proc.run_child(proc.cli_cmd(argv))
        if fin.rc != 0:
            print(f"error: exit {fin.rc} for {argv}\n{fin.err}", file=sys.stderr)
            return 1
        digests[gen.reference_key(argv)] = hashlib.sha256(fin.out).hexdigest()
        print(f"{fin.wall:8.3f} s {fin.rss_mb:7.1f} MB  {' '.join(argv)}", flush=True)
    out = proc.HERE / "reference.json"
    out.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {out.relative_to(proc.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
