"""Spans and work counts recorded from outside the nrtcodes package.

`install` replaces each traced library function, everywhere an nrtcodes
module binds it, by a wrapper that records a span (name, start, end,
parent) and the work counts of that call.  Spans stay in memory until the
traced pass ends and are then written out once.  `layer_metrics` turns
the spans of one pass into per-layer self times: a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names, "counts": self.counts,
                "spans": [[index[n], a, b, p] for n, a, b, p in self.spans]}


# --- work counts taken at the span boundaries ---

def _tell(args):
    try:
        return args[0].tell()
    except (AttributeError, OSError, ValueError):
        return None


def _bytes_written(tracer, args, result, before):
    after = _tell(args)
    if before is not None and after is not None:
        tracer.add("words.bytes_written", after - before)


def _bytes_read(tracer, args, result, before):
    try:
        tracer.add("words.bytes_read", os.fstat(args[0].fileno()).st_size)
    except (AttributeError, OSError, ValueError):
        pass


def _tuple_words(tracer, args, result, before):
    tracer.add("words.tuple_words", len(result))


def _span_rows(tracer, args, result, before):
    tracer.add("bulk.span_rows", len(result))


def _verify_no(tracer, args, result, before):
    if not result.ok:
        tracer.add("geometry.verify_no", 1)


def _rows_in(args):
    rows = args[1]
    return len(rows) if hasattr(rows, "__len__") else None


def _rref_counts(tracer, args, result, before):
    if before is not None:
        tracer.add("codes.rref_rows_in", before)
        tracer.add("codes.rref_rows_out", len(result))


def _points_built(tracer, args, result, before):
    tracer.add("construct.points_built", len(result))


# (module, attribute or Class.method, count hook before the call, after it)
TARGETS = (
    ("words", "write_point_set", _tell, _bytes_written),
    ("words", "read_point_set", None, _bytes_read),
    ("words", "Distribution.words", None, _tuple_words),
    ("words", "Distribution.points", None, None),
    ("bulk", "span_array", None, _span_rows),
    ("bulk", "weights", None, None),
    ("bulk", "nrt_weights", None, None),
    ("bulk", "hamming_weights", None, None),
    ("geometry", "optimum_report", None, _verify_no),
    ("geometry", "net_report", None, _verify_no),
    ("geometry", "star_discrepancy", None, None),
    ("codes", "rref", _rows_in, _rref_counts),
    ("codes", "rank", None, None),
    ("codes", "nullspace", None, None),
    ("codes", "parity_nrt_weight", None, None),
    ("codes", "LinearCode.min_weight", None, None),
    ("codes", "LinearCode.dual", None, None),
    ("codes", "LinearCode.parity_check", None, None),
    ("codes", "write_code", None, None),
    ("codes", "read_code", None, None),
    ("codes", "weight_enumerator", None, None),
    ("codes", "box_enumerator", None, None),
    ("codes", "corner_box_counts", None, None),
    ("codes", "macwilliams_n1_ok", None, None),
    ("spectra", "distance_spectrum", None, None),
    ("spectra", "mds_spectrum", None, None),
    ("construct", "build_mds_code", None, None),
    ("construct", "build_optimum_distribution", None, _points_built),
    ("poly", "hyper_eval", None, None),
    ("gf", "GF.__init__", None, None),
    ("peano", "merge_distribution", None, None),
    ("peano", "merge_code", None, None),
    ("peano", "distribution_base_change_weights", None, None),
    ("peano", "build_composite", None, None),
)


def _wrap(tracer, name, fn, before, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        state = before(args) if before else None
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after:
            after(tracer, args, result, state)
        return result
    return traced


def _count_compositions(tracer, fn):
    """Counts the compositions handed to callers; the recursive calls the
    generator makes to itself run while an outer one is open and are not
    counted again."""
    depth = [0]

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        nested = depth[0] > 0
        depth[0] += 1
        try:
            for item in fn(*args, **kwargs):
                if not nested:
                    tracer.add("geometry.families", 1)
                yield item
        finally:
            depth[0] -= 1
    return counted


def _rebind(orig, new) -> None:
    """Point every nrtcodes module name bound to `orig` at `new`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "nrtcodes" or modname.startswith("nrtcodes.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets the package no longer has."""
    import importlib

    missing = []
    for modname, attr, before, after in TARGETS:
        name = f"{modname}.{attr}"
        try:
            mod = importlib.import_module(f"nrtcodes.{modname}")
            owner = mod
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, last)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        wrapped = _wrap(tracer, name, orig, before, after)
        if isinstance(owner, type):
            setattr(owner, last, wrapped)
        else:
            _rebind(orig, wrapped)
    try:
        from nrtcodes import geometry
        orig = geometry.bounded_compositions
    except (ImportError, AttributeError):
        missing.append("geometry.bounded_compositions")
    else:
        _rebind(orig, _count_compositions(tracer, orig))
    return missing


# --- per-layer metrics of one traced pass ---

SELF_TIME = {
    "words.write_s": ("words.write_point_set",),
    "words.read_s": ("words.read_point_set",),
    "words.tuple_s": ("words.Distribution.words", "words.Distribution.points"),
    "bulk.span_s": ("bulk.span_array",),
    "bulk.weights_s": ("bulk.weights", "bulk.nrt_weights", "bulk.hamming_weights"),
    "geometry.verify_s": ("geometry.optimum_report", "geometry.net_report"),
    "geometry.discrepancy_s": ("geometry.star_discrepancy",),
    "codes.rref_s": ("codes.rref", "codes.rank"),
    "codes.min_weight_s": ("codes.LinearCode.min_weight", "codes.parity_nrt_weight"),
    "codes.dual_s": ("codes.LinearCode.dual", "codes.nullspace",
                     "codes.LinearCode.parity_check"),
    "codes.io_s": ("codes.write_code", "codes.read_code"),
    "codes.enumerators_s": ("codes.weight_enumerator", "codes.box_enumerator",
                            "codes.corner_box_counts", "codes.macwilliams_n1_ok"),
    "spectra.bruteforce_s": ("spectra.distance_spectrum",),
    "spectra.formula_s": ("spectra.mds_spectrum",),
    "construct.build_s": ("construct.build_mds_code",
                          "construct.build_optimum_distribution"),
    "poly.hyper_eval_s": ("poly.hyper_eval",),
    "gf.init_s": ("gf.GF.__init__",),
    "peano.merge_s": ("peano.merge_distribution", "peano.merge_code"),
    "peano.basechange_s": ("peano.distribution_base_change_weights",),
    "peano.composite_s": ("peano.build_composite",),
    "cli.self_s": ("cli.main",),
}

# metric -> (span name, name of its parent span or None for any parent)
SPAN_COUNTS = {
    "codes.min_weight_enumerate_calls": ("bulk.weights", "codes.LinearCode.min_weight"),
    "codes.min_weight_parity_calls": ("codes.parity_nrt_weight",
                                      "codes.LinearCode.min_weight"),
    "codes.rank_checks": ("codes.rank", "codes.parity_nrt_weight"),
    "poly.hyper_eval_calls": ("poly.hyper_eval", None),
    "gf.init_calls": ("gf.GF.__init__", None),
}

COUNTS = ("words.bytes_written", "words.bytes_read", "words.tuple_words",
          "bulk.span_rows", "geometry.families", "geometry.verify_no",
          "codes.rref_rows_in", "construct.points_built")


def layer_metrics(dump: dict) -> dict:
    names = dump["names"]
    spans = dump["spans"]
    counts = dump["counts"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_time = {}
    calls = {}
    for i, (ni, start, end, parent) in enumerate(spans):
        name = names[ni]
        self_time[name] = self_time.get(name, 0.0) + (end - start - covered[i])
        key = (name, names[spans[parent][0]] if parent >= 0 else None)
        calls[key] = calls.get(key, 0) + 1
    out = {metric: sum(self_time.get(n, 0.0) for n in span_names)
           for metric, span_names in SELF_TIME.items()}
    for metric, (name, parent) in SPAN_COUNTS.items():
        out[metric] = sum(c for (n, p), c in calls.items()
                          if n == name and (parent is None or p == parent))
    for metric in COUNTS:
        out[metric] = counts.get(metric, 0)
    rows_in = counts.get("codes.rref_rows_in", 0)
    out["codes.rref_useful_ratio"] = (counts.get("codes.rref_rows_out", 0) / rows_in
                                      if rows_in else 0.0)
    return out
