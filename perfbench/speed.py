"""Host-speed reference for the timed run.

On a shared host the same work can take up to twice as long from one
moment to the next: other tenants' load comes in bursts of well under a
second, and the share of time it is there drifts from a few per cent to
nearly all over minutes.  Two one-minute runs of the same code can then
differ by 40%, and no median over passes inside a run removes that.

So the timed run interleaves a fixed reference program, yardstick.py,
with its children: after each child, it runs the yardstick until the
yardstick's wall time is SHARE of the children's.  The yardstick sees the
same mix of fast and slow moments as the children, and every time the run
reports is multiplied by REF_S over the yardstick's mean wall time.  A
reported time reads as seconds on a host that runs the yardstick in REF_S.

The yardstick uses the standard library only and runs isolated (-I), so
no change to wickred can move it.  The raw figures and the factor go to
the results file.
"""

from __future__ import annotations

import sys

import proc

YARDSTICK = str(proc.HERE / "yardstick.py")
REF_S = 0.25
SHARE = 0.2


class YardstickError(Exception):
    """The reference program did not run."""


class Reference:
    """Keeps the yardstick's share of the run and converts measured
    seconds to reference seconds."""

    def __init__(self):
        self.walls = []
        self.work_s = 0.0

    def after_child(self, wall: float, timeout: float) -> None:
        """Account for a child that ran `wall` seconds, then run the
        yardstick until it has its share of the run."""
        self.work_s += wall
        while sum(self.walls) < SHARE * self.work_s:
            fin = proc.run_child([sys.executable, "-I", YARDSTICK], timeout=timeout)
            if fin.rc != 0:
                raise YardstickError(f"yardstick failed (exit {fin.rc}): {fin.err.strip()[-300:]}")
            self.walls.append(fin.wall)

    def mean_s(self) -> float:
        return sum(self.walls) / len(self.walls)

    def factor(self) -> float:
        return REF_S / self.mean_s()
