"""wickred benchmark: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works on the checkout that contains it and builds
nothing (wickred is pure Python; the first child byte-compiles it).

Load shape: a closed loop driven by this one process.  Each pass runs in
fresh interpreters, one child at a time and never two at once, so the
lru_cache state of the program never carries from one pass to the next:
a CLI user pays the same.  Passes repeat until --seconds have elapsed.

Workloads (inputs from --seed through gen.py; see BENCHMARK.json for why
each was chosen and predictions.json for what each layer should move):

    verify-cli     `wickred verify <suite> --n 1 --order 6 --seed s` for each
                   of the five suites, one invocation per item; a pass is one
                   verify seed, and runs are whole cycles over gen.VERIFY_SEEDS
    reduced-cp2    mu_star associativity and commutator identities on CP^2
                   (K = 5) and the two-point product formula (r <= 3, K = 4),
                   one identity per item, in process after set-up
    sphere-tables  `wickred moreno`, both coefficient tables and reduced
                   `mul` calls on parsed CP^1 expressions; the control

BENCHMARK.json gates verify-cli and sphere-tables only: on a host whose
speed wanders over minutes, two workloads with long runs are steadier than
three with short ones in the same total time, and verify-cli records every
layer reduced-cp2 does.  reduced-cp2 runs by name for a direct look at the
divided_by_x certificate (over 80% of its pass).

--trace 0 prints the end-to-end metrics: setup_s (median time from spawn
to imports done and inputs built, over probes spread through the run),
wall_s (median pass; for verify-cli, whose passes differ by design, the
mean pass over whole cycles), item_p50_s and item_tail_s (the median and the
highest percentile with ten items beyond it, both Harrell-Davis estimates)
and peak_rss_mb (median over passes of the largest child).  The times are
reference seconds: speed.py interleaves a fixed stdlib-only program with
the children and scales every time by how fast that program ran during
this run, which takes the host's drifting speed out of the figures (the
raw times and the factor go to the results file).  --trace 1 runs
one pass untraced and traced, twice each, and prints the per-layer metrics
of BENCHMARK.json; every count must repeat exactly between the two traced
passes, and every span that predictions.json requires on the workload must
record calls.  Every item is checked:
exact zero residuals, exit codes, `"ok": true` / `all_zero`, the k-coeff
table against the a-coeff table, and the stdout of every CLI item against
the SHA-256 digest recorded in reference.json (record_reference.py).

A results file with provenance goes to .perfbench/results/.  The last
stdout line is the JSON result.  Exit status 0 means every check passed;
2 means no result (bad arguments, or no wickred sources in this checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import gen
import proc
import spans
import speed

BENCH_FILE = proc.ROOT / "BENCHMARK.json"
REFERENCE = proc.HERE / "reference.json"
PREDICTIONS = proc.HERE / "predictions.json"
RESULTS = proc.ROOT / ".perfbench" / "results"
CHILD = str(proc.HERE / "child.py")
SETUP_PROBES = 5
SETUP_PER_PASS = 3  # a probe is ~0.15 s, short enough for the host's bursts to move it
IMPORT_PROBES = 3
TAIL_BEYOND = 10
DEADLINE_S = 170.0


class Failure(Exception):
    """The run cannot produce a result."""


@dataclass
class Item:
    name: str
    seconds: float
    ok: bool
    error: str = ""


@dataclass
class Pass:
    wall: float
    items: list
    rss_mb: float
    setup_s: float | None = None
    dumps: list = field(default_factory=list)


class Clock:
    """Bounds every child by what is left of the run's deadline and, when
    given a speed.Reference, runs the yardstick after each child."""

    def __init__(self, reference=None):
        self.t0 = time.perf_counter()
        self.reference = reference

    def run(self, cmd):
        left = DEADLINE_S - (time.perf_counter() - self.t0)
        if left <= 0:
            raise Failure("the run exceeded its time limit")
        fin = proc.run_child(cmd, timeout=left)
        if self.reference is not None:
            self.reference.after_child(fin.wall, DEADLINE_S - (time.perf_counter() - self.t0))
        return fin


def _ready_line(fin) -> dict:
    line = fin.out.split(b"\n", 1)[0]
    try:
        ready = json.loads(line)
    except ValueError:
        raise Failure(f"child did not start (exit {fin.rc}): {fin.err.strip()[-500:]}")
    src = os.path.realpath(proc.SRC)
    if not os.path.realpath(ready["wickred"]).startswith(src + os.sep):
        raise Failure(f"imported wickred from {ready['wickred']}, not from {src}")
    return ready


def _read_spans(path, fin) -> dict:
    if not path.is_file():
        raise Failure(f"a traced child wrote no spans (exit {fin.rc}): {fin.err.strip()[-500:]}")
    data = json.loads(path.read_text())
    path.unlink()
    return data


# ----------------------------------------------------------------------
# workloads


class CliWorkload:
    """Items are fresh `python -m wickred.cli ARGV` processes."""

    def __init__(self, name, stream, digests, cycle=1):
        self.name, self.stream, self.digests, self.cycle = name, stream, digests, cycle

    def probe_setup(self, clock, seed) -> float:
        fin = clock.run([sys.executable, CHILD, "import-cli"])
        _ready_line(fin)
        return fin.first_line_s

    def passes(self, seed):
        return self.stream(seed)

    def run_pass(self, clock, argvs, trace=False) -> Pass:
        items, outputs, dumps, rss = [], {}, [], 0.0
        t0 = time.perf_counter()
        for i, argv in enumerate(argvs):
            out_path = proc.TMP / f"spans-{i}.json" if trace else None
            fin = clock.run(proc.cli_cmd(argv, out_path))
            rss = max(rss, fin.rss_mb)
            error = self.check(argv, fin)
            items.append(Item(" ".join(argv[:2]), fin.wall, not error, error))
            outputs[i] = fin.out
            if trace:
                dumps.append(_read_spans(out_path, fin))
        wall = time.perf_counter() - t0
        self.check_tables(argvs, outputs, items)
        return Pass(wall, items, rss, dumps=dumps)

    def check(self, argv, fin) -> str:
        if fin.rc != 0:
            return f"exit {fin.rc}: {fin.err.strip()[-300:]}"
        want = self.digests.get(gen.reference_key(argv))
        if want is None:
            return "no reference digest for this item"
        if hashlib.sha256(fin.out).hexdigest() != want:
            return "stdout differs from the reference digest"
        if argv[0] == "verify" and json.loads(fin.out)["ok"] is not True:
            return "verify reported a failing check"
        if argv[0] == "moreno":
            text = fin.out.decode()
            if "--format" in argv:
                bad = [ln for ln in text.splitlines()
                       if ln.startswith("% recursion residual") and not ln.endswith(": 0")]
                if bad:
                    return f"nonzero recursion residual: {bad[0]}"
            elif json.loads(text)["all_zero"] is not True:
                return "moreno reported a nonzero recursion residual"
        return ""

    @staticmethod
    def check_tables(argvs, outputs, items):
        """c_{r,s} from `table k-coeff` must equal A^(s)_{r-s} / s! from
        `table a-coeff` of the same pass."""
        which = {tuple(a[:2]): i for i, a in enumerate(argvs) if a[0] == "table"}
        ia, ik = which.get(("table", "a-coeff")), which.get(("table", "k-coeff"))
        if ia is None or ik is None or not (items[ia].ok and items[ik].ok):
            return
        a = {(e["r"], e["s"]): Fraction(e["value"]) for e in json.loads(outputs[ia])["entries"]}
        for e in json.loads(outputs[ik])["entries"]:
            r, s = e["r"], e["s"]
            if (s, r - s) not in a or Fraction(e["value"]) != a[s, r - s] / factorial(s):
                items[ik].ok = False
                items[ik].error = f"c({r},{s}) does not match A({s},{r - s})/{s}!"
                return


class LibWorkload:
    """One child per pass; items are library calls after set-up."""

    name = "reduced-cp2"
    cycle = 1

    def probe_setup(self, clock, seed) -> float:
        fin = clock.run([sys.executable, CHILD, "lib", str(seed), "0", "-", "--setup-only"])
        _ready_line(fin)
        return fin.first_line_s

    def passes(self, seed):
        p = 0
        while True:
            yield (seed, p)
            p += 1

    def run_pass(self, clock, spec, trace=False) -> Pass:
        seed, p = spec
        out_path = proc.TMP / "spans-lib.json"
        fin = clock.run([sys.executable, CHILD, "lib", str(seed), str(p),
                         str(out_path) if trace else "-"])
        lines = fin.out.decode().splitlines()
        ready = _ready_line(fin)
        items, wall = [], None
        for line in lines[1:]:
            rec = json.loads(line)
            if "pass_s" in rec:
                wall = rec["pass_s"]
            else:
                items.append(Item(rec["item"], rec["s"], rec["ok"],
                                  rec["error"] or ("" if rec["ok"] else "residual is not zero")))
        for _ in range(ready["items"] - len(items)):
            items.append(Item("missing", 0.0, False, f"child exit {fin.rc}: {fin.err[-300:]}"))
        dumps = [_read_spans(out_path, fin)] if trace else []
        if wall is None:
            wall = fin.wall - fin.first_line_s
        return Pass(wall, items, fin.rss_mb, setup_s=fin.first_line_s, dumps=dumps)


def make_workload(name, digests):
    if name == "verify-cli":
        return CliWorkload(name, gen.verify_items, digests, cycle=len(gen.VERIFY_SEEDS))
    if name == "sphere-tables":
        return CliWorkload(name, gen.sphere_items, digests)
    if name == "reduced-cp2":
        return LibWorkload()
    raise Failure(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# statistics


def quantile(xs: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  Item times form clusters (one
    per suite or identity), and a single order statistic jumps between
    clusters with run-to-run noise; the weighted mean does not."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # Simpson's rule on each interval [i/n, (i+1)/n]
    total = weight_sum = 0.0
    for i, v in enumerate(xs):
        lo, h = i / n, 1.0 / (n * steps)
        s = density(lo) + density(lo + steps * h)
        s += sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        w = s * h / 3
        total += w * v
        weight_sum += w
    return total / weight_sum


def tail(times: list):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (estimate, percentile, samples beyond, sample count)."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 100.0, 0, n
    p = (n - TAIL_BEYOND) / n
    return quantile(times, p), 100.0 * p, TAIL_BEYOND, n


def end_to_end(passes, setups, cycle, factor=1.0) -> tuple:
    """Every time is multiplied by `factor` (see speed.py).  wall_s is the
    median pass where every pass asks for the same work, and the mean pass
    over whole cycles where passes differ by design (a median of unlike
    passes would rest on the one or two in the middle)."""
    times = [factor * it.seconds for p in passes for it in p.items]
    walls = [factor * p.wall for p in passes]
    value, pct, beyond, n = tail(times)
    metrics = {
        "setup_s": factor * statistics.median(setups),
        "wall_s": statistics.median(walls) if cycle == 1 else statistics.fmean(walls),
        "item_p50_s": quantile(times, 0.5),
        "item_tail_s": value,
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    return metrics, {"percentile": pct, "beyond": beyond, "samples": n}


def timed_run(wl, clock, seed, seconds) -> dict:
    wl.probe_setup(clock, seed)  # byte-compiles the sources; not timed
    stream = wl.passes(seed)
    passes, setups = [], []
    t0 = time.perf_counter()
    # whole cycles only, so that every run does the same multiset of work,
    # ending at the cycle boundary nearest to `seconds`; set-up probes are
    # spread over the run, SETUP_PER_PASS before each pass
    while True:
        setups += [wl.probe_setup(clock, seed) for _ in range(SETUP_PER_PASS)]
        passes.append(wl.run_pass(clock, next(stream)))
        if len(passes) % wl.cycle:
            continue
        elapsed = time.perf_counter() - t0
        cycle_s = elapsed * wl.cycle / len(passes)
        if elapsed + cycle_s / 2 >= seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(wl.probe_setup(clock, seed))
    setups += [p.setup_s for p in passes if p.setup_s is not None]
    ref = clock.reference
    metrics, tail_info = end_to_end(passes, setups, wl.cycle, ref.factor())
    measured, _ = end_to_end(passes, setups, wl.cycle)
    return {"metrics": metrics, "tail": tail_info, "passes": passes, "setups": setups,
            "errors": [], "measured": measured,
            "reference": {"yardstick_s": ref.walls, "ref_s": speed.REF_S,
                          "factor": ref.factor()}}


# ----------------------------------------------------------------------
# traced run


def _calls(summary, name) -> int:
    if name in summary["lru"]:
        return sum(summary["lru"][name])
    if name == "wick.deriv_cache":
        return summary["counts"]["wick.deriv_cache.calls"]
    return summary["calls"].get(name, 0)


def _counts(summary) -> dict:
    """Everything that must repeat exactly at a fixed seed."""
    out = {f"{n}.calls": c for n, c in summary["calls"].items()}
    out.update(summary["counts"])
    for n, (h, m) in summary["lru"].items():
        out[f"{n}.hits"], out[f"{n}.misses"] = h, m
    return out


def layer_metrics(summary, pass_wall) -> dict:
    calls, self_s, total_s = summary["calls"], summary["self_s"], summary["total_s"]
    out = {}
    for name in spans.SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.total_s"] = total_s.get(name, 0.0)
    c = summary["counts"]
    out["sparse.tmul.term_pairs"] = c["sparse.tmul.term_pairs"]
    out["poly.divided_by_x.hits"] = c["poly.divided_by_x.hits"]
    out["poly.divided_by_x.hit_ratio"] = _ratio(c["poly.divided_by_x.hits"],
                                                out["poly.divided_by_x.calls"])
    out["poly.divided_by_x.wall_share"] = out["poly.divided_by_x.total_s"] / pass_wall
    out["wick.deriv_cache.calls"] = c["wick.deriv_cache.calls"]
    out["wick.deriv_cache.hit_ratio"] = _ratio(c["wick.deriv_cache.hits"],
                                               c["wick.deriv_cache.calls"])
    for name, (h, m) in summary["lru"].items():
        out[f"{name}.calls"] = h + m
        out[f"{name}.hit_ratio"] = _ratio(h, h + m)
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def traced_run(wl, clock, seed) -> dict:
    for stale in proc.TMP.glob("spans-*.json"):  # left by an interrupted run
        stale.unlink()
    wl.probe_setup(clock, seed)  # byte-compiles the sources
    spec = next(wl.passes(seed))
    untraced, traced = [], []
    for _ in range(2):
        untraced.append(wl.run_pass(clock, spec))
        traced.append(wl.run_pass(clock, spec, trace=True))
    errors = []
    summaries = [spans.summarize(p.dumps) for p in traced]
    first, second = (_counts(s) for s in summaries)
    for key in sorted(set(first) | set(second)):
        if first.get(key) != second.get(key):
            errors.append(f"count {key} did not repeat: {first.get(key)} then {second.get(key)}")
    for row in json.loads(PREDICTIONS.read_text())["rows"]:
        for name in row["require"].get(wl.name, []):
            if _calls(summaries[0], name) == 0:
                errors.append(f"{name} recorded zero calls on {wl.name}")

    # counts are equal in both traced passes (checked above); times are medians
    per_pass = [layer_metrics(s, p.wall) for s, p in zip(summaries, traced)]
    metrics = {k: v if isinstance(v, int) else statistics.median(m[k] for m in per_pass)
               for k, v in per_pass[0].items()}
    metrics["trace.overhead_ratio"] = (statistics.median(p.wall for p in traced)
                                       / statistics.median(p.wall for p in untraced))
    imports = []
    for _ in range(IMPORT_PROBES):
        fin = clock.run([sys.executable, CHILD, "import-cli"])
        imports.append(_ready_line(fin)["import_s"])
    metrics["cli.import_s"] = statistics.median(imports)
    fin = clock.run([sys.executable, CHILD, "micro", str(seed)])
    if fin.rc != 0:
        raise Failure(f"microbenchmarks failed: {fin.err[-500:]}")
    metrics.update(json.loads(fin.out.decode().splitlines()[-1]))
    return {"metrics": metrics, "passes": untraced + traced, "errors": errors,
            "counts": first, "bindings": traced[0].dumps[0]["bindings"],
            "tail": None, "setups": []}


# ----------------------------------------------------------------------
# provenance and output


def provenance(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": _commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _commit() -> str:
    git = proc.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _load_json(path, what):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise Failure(f"cannot read {what} {path}: {e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.seconds < 1:
            raise Failure("--seconds must be at least 1")
        if not proc.source_present():
            raise Failure(f"no wickred sources under {proc.SRC}")
        bench = _load_json(BENCH_FILE, "benchmark definition")
        digests = _load_json(REFERENCE, "reference digests")["digests"]
        wl = make_workload(args.workload, digests)
        clock = Clock(None if args.trace else speed.Reference())
        if args.trace:
            res = traced_run(wl, clock, args.seed)
            wanted = bench["per_layer"]
        else:
            res = timed_run(wl, clock, args.seed, args.seconds)
            wanted = bench["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
        if missing:
            raise Failure(f"metrics not measured: {', '.join(missing)}")
    except (Failure, TimeoutError, speed.YardstickError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    items = [it for p in res["passes"] for it in p.items]
    failed = [it for it in items if not it.ok]
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not failed and not res["errors"]

    for it in failed:
        print(f"FAILED {it.name}: {it.error}", file=sys.stderr)
    for e in res["errors"]:
        print(f"ERROR {e}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(res['passes'])} passes, "
          f"{len(items)} items, fail_ratio = {len(failed)}/{len(items)}")
    if res["tail"]:
        t = res["tail"]
        print(f"item_tail_s is p{t['percentile']:.1f}: {t['beyond']} of {t['samples']} "
              f"samples beyond it")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    record = {
        "provenance": provenance(args),
        "correct": correct,
        "attempted": len(items),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(items),
        "metrics": res["metrics"],
        "measured_metrics": res.get("measured"),
        "reference": res.get("reference"),
        "tail": res["tail"],
        "setup_samples_s": res["setups"],
        "passes": [{"wall_s": p.wall, "rss_mb": p.rss_mb,
                    "items": [[it.name, it.seconds, it.ok, it.error] for it in p.items]}
                   for p in res["passes"]],
        "counts": res.get("counts"),
        "bindings": res.get("bindings"),
        "errors": res["errors"],
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"results: {out.relative_to(proc.ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(items), "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
