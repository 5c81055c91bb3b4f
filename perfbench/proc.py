"""Child-process plumbing shared by the runner and the reference recorder.

Every child is a fresh interpreter on the checkout's own `src`, started
one at a time.  PYTHONHASHSEED is pinned so that traced counts repeat
exactly between runs.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench" / "tmp"


def source_present() -> bool:
    return (SRC / "wickred" / "__init__.py").is_file() and (SRC / "wickred" / "cli.py").is_file()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("WICKRED_ORDER", None)
    return env


def cli_cmd(argv: list, trace_out: Path | None = None) -> list:
    if trace_out is None:
        return [sys.executable, "-m", "wickred.cli", *argv]
    return [sys.executable, str(HERE / "child.py"), "cli", str(trace_out), *argv]


@dataclass
class Finished:
    """Outcome of one child: exit code, stdout, stderr, wall time (s) from
    spawn to exit, time (s) from spawn to its first stdout line, and peak
    resident memory (MB)."""

    rc: int
    out: bytes
    err: str
    wall: float
    first_line_s: float
    rss_mb: float


def run_child(cmd: list, timeout: float = 170.0) -> Finished:
    """Run one child to completion, timing it from spawn to exit and reading
    its peak RSS from wait4.  stderr goes through a file so that a chatty
    child cannot block on a full pipe."""
    TMP.mkdir(parents=True, exist_ok=True)
    err_path = TMP / "stderr.txt"
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                env=child_env())
        try:
            out, first_line = _read_all(proc, t0 + timeout)
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        wall = time.perf_counter() - t0
        err.seek(0)
        err_text = err.read().decode(errors="replace")
    first_line_s = wall if first_line is None else first_line - t0
    return Finished(proc.returncode, out, err_text, wall, first_line_s, usage.ru_maxrss / 1024.0)


def _read_all(proc, deadline: float):
    """All of the child's stdout, and the perf_counter time at which its
    first line was complete."""
    chunks = []
    first_line = None
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise TimeoutError(f"child exceeded its time limit: {proc.args!r}")
            if not sel.select(left):
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return b"".join(chunks), first_line
            if first_line is None and b"\n" in chunk:
                first_line = time.perf_counter()
            chunks.append(chunk)
