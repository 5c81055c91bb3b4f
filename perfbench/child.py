"""Work done inside one fresh interpreter; started by run.py.

    child.py import-cli                      import the CLI, report readiness
    child.py cli TRACE_OUT ARGV...           traced `wickred ARGV...`
    child.py lib SEED PASS [TRACE_OUT|-] [--setup-only]
                                             one reduced-cp2 pass
    child.py micro SEED                      layer microbenchmarks

The first stdout line of `import-cli` and `lib` is a JSON readiness
record; the parent times set-up from spawn to that line.  `lib` then
prints one JSON line per item and a final line with the pass wall time.
"""

from __future__ import annotations

import json
import sys
import time


def _ready(**extra):
    import wickred

    print(json.dumps({"ready": True, "wickred": wickred.__file__, **extra}), flush=True)


def import_cli() -> int:
    t0 = time.perf_counter()
    import wickred.cli  # noqa: F401

    _ready(import_s=time.perf_counter() - t0)
    return 0


def traced_cli(trace_out: str, argv: list) -> int:
    import wickred.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = wickred.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_out)
    return rc


def _run_item(kind: str, ctx, args) -> bool:
    from fractions import Fraction

    from wickred import GaussianRational, Series
    from wickred import reduction
    from wickred.wick import product_formula_check

    if kind == "assoc":
        f, g, h = args
        K = ctx.K
        left = reduction.mu_star(reduction.mu_star_elems(f, g, ctx), Series.const(h, K), ctx)
        right = reduction.mu_star(Series.const(f, K), reduction.mu_star_elems(g, h, ctx), ctx)
        return (left - right).is_zero()
    if kind == "comm":
        f, g = args
        comm = reduction.mu_star_elems(f, g, ctx) - reduction.mu_star_elems(g, f, ctx)
        half_i = GaussianRational(0, Fraction(1, 2))
        return (comm.coeffs[1] - reduction.reduced_poisson(f, g, ctx).scale(half_i)).is_zero()
    if kind == "formula":
        r, f, g = args
        return product_formula_check(r, f, g, ctx).is_zero()
    raise ValueError(f"unknown item kind {kind!r}")


def lib_pass(seed: int, pass_index: int, trace_out: str, setup_only: bool) -> int:
    import gen
    import wickred.reduction  # noqa: F401  (an import is set-up, not item time)

    items = gen.reduced_items(seed, pass_index)
    _ready(items=len(items))
    if setup_only:
        return 0
    tracer = None
    if trace_out != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    t_pass = time.perf_counter()
    for i, (name, kind, ctx, args) in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = time.perf_counter()
        try:
            ok, error = _run_item(kind, ctx, args), ""
        except Exception as e:  # an item that raises is a failed item, not a crash
            ok, error = False, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        print(json.dumps({"item": name, "s": dt, "ok": ok, "error": error}), flush=True)
    wall = time.perf_counter() - t_pass
    print(json.dumps({"pass_s": wall}), flush=True)
    if tracer is not None:
        tracer.dump(trace_out)
    return 0


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "import-cli":
        return import_cli()
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    if mode == "lib":
        return lib_pass(int(argv[1]), int(argv[2]), argv[3] if len(argv) > 3 else "-",
                        "--setup-only" in argv[4:])
    if mode == "micro":
        import micro

        print(json.dumps(micro.run(int(argv[1]))), flush=True)
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
