"""Layer spans recorded from outside the program.

`Tracer.install()` wraps public functions of the wickred modules in the
running interpreter.  A function imported by name into other modules
(`from .wick import m_op`) is rebound in every module that holds it, and
`check_bindings` confirms that no module still holds an unwrapped copy.

A span records its name, start, end, parent span and item id.  Spans stay
in memory and `dump` writes them once, with the counters, at the end.
The lru_cache statistics are read from the original cached functions,
which are never wrapped, so their hit counts are exact.
"""

from __future__ import annotations

import json
import sys
import time
from importlib import import_module

# span name -> (module that defines it, attribute path)
SPANS = {
    "poly.divided_by_x": ("wickred.poly", "Poly.divided_by_x"),
    "poly.laurent_diff": ("wickred.poly", "LaurentElem.diff"),
    "sparse.teval": ("wickred.sparse", "teval"),
    "sparse.tmul": ("wickred.sparse", "tmul"),
    "sparse.tadd": ("wickred.sparse", "tadd"),
    "series.Series.mul": ("wickred.series", "Series.__mul__"),
    "series.UnivarPoly.mul": ("wickred.series", "UnivarPoly.__mul__"),
    "wick.m_op": ("wickred.wick", "m_op"),
    "wick.op_calm": ("wickred.wick", "op_calm"),
    "wick.wick_product": ("wickred.wick", "wick_product"),
    "equiv.s_apply": ("wickred.equiv", "s_apply"),
    "equiv.tilde_star": ("wickred.equiv", "tilde_star"),
    "reduction.mu_star": ("wickred.reduction", "mu_star"),
    "moreno.k_poly": ("wickred.moreno", "k_poly"),
    "moreno.p_poly": ("wickred.moreno", "p_poly"),
    "parser.parse_expr": ("wickred.parser", "parse_expr"),
    "parser.format_series": ("wickred.parser", "format_series"),
    "suites.lemma21": ("wickred.suites", "suite_lemma21"),
    "suites.equiv": ("wickred.suites", "suite_equiv"),
    "suites.reduce": ("wickred.suites", "suite_reduce"),
    "suites.moreno": ("wickred.suites", "suite_moreno"),
    "suites.su1n": ("wickred.suites", "suite_su1n"),
}

# memoized mixed partials (wick.deriv_cache): counted (calls, hits), no
# span, since the method is recursive and cheap
DERIV_CACHE_GET = ("wickred.wick", "DerivCache.get")

# functools.lru_cache objects read through cache_info()
LRU = {
    "equiv.a_coeff": ("wickred.equiv", "a_coeff"),
    "equiv.s_apply_xpow": ("wickred.equiv", "s_apply_xpow"),
    "reduction.k_coeff": ("wickred.reduction", "k_coeff"),
}


def _resolve(module: str, path: str):
    owner = import_module(module)
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1], getattr(owner, parts[-1])


def _wickred_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "wickred" or name.startswith("wickred."))]


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.name_of = {n: i for i, n in enumerate(self.names)}
        # one entry per span, in start order
        self.span_name, self.span_parent, self.span_item = [], [], []
        self.span_outer, self.span_start, self.span_end = [], [], []
        self.stack = [-1]
        self.depth = [0] * len(self.names)
        self.item = 0
        self.counts = {"sparse.tmul.term_pairs": 0, "poly.divided_by_x.hits": 0,
                       "wick.deriv_cache.calls": 0, "wick.deriv_cache.hits": 0}
        self.bindings = {}
        self.lru = {}

    # ------------------------------------------------------------------
    def install(self):
        import_module("wickred.cli")  # loads every layer
        for name, (module, attr) in LRU.items():
            self.lru[name] = _resolve(module, attr)[2]
            if not hasattr(self.lru[name], "cache_info"):
                raise RuntimeError(f"{module}.{attr} is no longer an lru_cache")
        for name, (module, path) in SPANS.items():
            owner, attr, fn = _resolve(module, path)
            wrapped = self._wrap(name, fn)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self.bindings[name] = 1
            else:
                self.bindings[name] = self._rebind(fn, wrapped)
        owner, attr, fn = _resolve(*DERIV_CACHE_GET)
        setattr(owner, attr, self._count_cache_get(fn))
        self.check_bindings()

    @staticmethod
    def _rebind(fn, wrapped) -> int:
        sites = 0
        for mod in _wickred_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    sites += 1
        return sites

    def check_bindings(self):
        originals = {}
        for name, (module, path) in SPANS.items():
            fn = getattr(_resolve(module, path)[2], "__wrapped_by_perfbench__", None)
            if fn is None:
                raise RuntimeError(f"span {name}: {module}.{path} is not wrapped")
            originals[id(fn)] = name
        for mod in _wickred_modules():
            for key, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(
                        f"{mod.__name__}.{key} still binds the unwrapped {originals[id(value)]}")

    # ------------------------------------------------------------------
    def _open(self, idx: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(idx)
        self.span_parent.append(self.stack[-1])
        self.span_item.append(self.item)
        self.span_outer.append(self.depth[idx] == 0)
        self.span_end.append(0.0)
        self.depth[idx] += 1
        self.stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, idx: int):
        self.span_end[sid] = time.perf_counter()
        self.stack.pop()
        self.depth[idx] -= 1

    def _wrap(self, name: str, fn):
        idx = self.name_of[name]
        tr = self
        counts = self.counts

        if name == "sparse.tmul":
            def wrapper(a, b, *args, **kwargs):
                counts["sparse.tmul.term_pairs"] += len(a) * len(b)
                sid = tr._open(idx)
                try:
                    return fn(a, b, *args, **kwargs)
                finally:
                    tr._close(sid, idx)
        elif name == "poly.divided_by_x":
            def wrapper(*args, **kwargs):
                sid = tr._open(idx)
                try:
                    q = fn(*args, **kwargs)
                finally:
                    tr._close(sid, idx)
                if q is not None:
                    counts["poly.divided_by_x.hits"] += 1
                return q
        else:
            def wrapper(*args, **kwargs):
                sid = tr._open(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tr._close(sid, idx)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    def _count_cache_get(self, fn):
        counts = self.counts

        def get(cache, beta):
            counts["wick.deriv_cache.calls"] += 1
            if beta in cache.cache:
                counts["wick.deriv_cache.hits"] += 1
            return fn(cache, beta)

        return get

    # ------------------------------------------------------------------
    def dump(self, path):
        lru = {}
        for name, fn in self.lru.items():
            info = fn.cache_info()
            lru[name] = [info.hits, info.misses]
        data = {
            "names": self.names,
            "spans": [self.span_name, self.span_parent, self.span_item, self.span_outer,
                      self.span_start, self.span_end],
            "counts": self.counts,
            "lru": lru,
            "bindings": self.bindings,
        }
        with open(path, "w") as f:
            json.dump(data, f)


def summarize(dumps: list) -> dict:
    """Aggregate child dumps: per span name, calls, self seconds (duration
    minus direct child spans) and total seconds (outermost spans only);
    counters and lru hits/misses are summed."""
    calls, self_s, total_s = {}, {}, {}
    counts, lru = {}, {}
    for d in dumps:
        names = d["names"]
        sname, parent, _item, outer, start, end = d["spans"]
        own = [e - s for s, e in zip(start, end)]
        dur = list(own)
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= dur[i]
        for i, idx in enumerate(sname):
            n = names[idx]
            calls[n] = calls.get(n, 0) + 1
            self_s[n] = self_s.get(n, 0.0) + own[i]
            if outer[i]:
                total_s[n] = total_s.get(n, 0.0) + dur[i]
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, (h, m) in d["lru"].items():
            hh, mm = lru.get(k, (0, 0))
            lru[k] = (hh + h, mm + m)
    return {"calls": calls, "self_s": self_s, "total_s": total_s, "counts": counts, "lru": lru}
