"""Span recording around kbeq's layer entry points, from outside the library.

Tracing wraps each entry point where callers look it up: every binding of a
module-level function in the ``kbeq`` package namespaces (so
``kbeq.checks.check_kb`` and ``kbeq.decompose.check_kb`` are both wrapped),
and methods on their classes.  No kbeq source file is touched.

A span is ``[name, start, end, parent, attrs]``; spans stay in memory until
:meth:`Tracer.dump` writes them out.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# Per-layer metric names; units and directions are in BENCHMARK.json.  The
# float-path metrics are computed but not compared there: only the
# float-hermitian workload, which BENCHMARK.json leaves out, reaches them.
# Layer names follow kbeq's modules; metric names drop the leading
# underscore of ``_vec`` because benchmark names must start with a letter.
PER_LAYER = (
    "groups.points_s",
    "functions.table_init_s",
    "functions.table_init_calls",
    "functions.synth_s",
    "functions.from_json_s",
    "functions.derived_s",
    "vec.encode_s",
    "vec.pair_maps_cold_s",
    "vec.pair_maps_warm_s",
    "vec.pair_keep_ratio",
    "vec.pair_cache_hit_ratio",
    "vec.index_bytes",
    "vec.peak_mb",
    "vec.triple_maps_s",
    "checks.check_kb_exact_s",
    "checks.check_kb_float_s",
    "checks.eq5_s",
    "checks.side_s",
    "checks.witness_s",
    "checks.pairs_checked",
    "decompose.T_s",
    "decompose.positive_s",
    "decompose.hermitian_s",
    "oracle.solver_setup_s",
    "oracle.search_s",
    "oracle.structural_s",
    "oracle.rows_emitted",
    "oracle.rows_extended",
    "oracle.prune_ratio",
    "oracle.peak_mb",
    "cli.startup_s",
    "cli.load_s",
    "cli.emit_s",
    "trace.overhead_ratio",
)

# span name -> per-layer metric fed by the span's self time
_SELF_TIME_METRICS = {
    "groups.points": "groups.points_s",
    "functions.table_init": "functions.table_init_s",
    "functions.synth": "functions.synth_s",
    "functions.from_json": "functions.from_json_s",
    "functions.derived": "functions.derived_s",
    "vec.encode": "vec.encode_s",
    "vec.pair_maps_cold": "vec.pair_maps_cold_s",
    "vec.pair_maps_warm": "vec.pair_maps_warm_s",
    "vec.triple_maps": "vec.triple_maps_s",
    "checks.check_kb_exact": "checks.check_kb_exact_s",
    "checks.check_kb_float": "checks.check_kb_float_s",
    "checks.eq5": "checks.eq5_s",
    "checks.side": "checks.side_s",
    "checks.witness": "checks.witness_s",
    "decompose.T": "decompose.T_s",
    "decompose.positive": "decompose.positive_s",
    "decompose.hermitian": "decompose.hermitian_s",
    "oracle.solver_setup": "oracle.solver_setup_s",
    "oracle.scan": "oracle.search_s",
    "oracle.run": "oracle.search_s",
    "oracle.structural": "oracle.structural_s",
    "cli.load": "cli.load_s",
    "cli.emit": "cli.emit_s",
}


class Tracer:
    """In-memory span store with a parent stack (one thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else None, None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, attrs: dict | None = None):
        span = self.spans[sid]
        span[2] = perf_counter()
        if attrs:
            span[4] = attrs
        self._stack.pop()

    def rename(self, sid: int, name: str):
        self.spans[sid][0] = name

    def adopt(self, spans: list[list]):
        """Append spans recorded by another process, keeping their nesting."""
        base = len(self.spans)
        for name, start, end, parent, attrs in spans:
            self.spans.append([name, start, end,
                               None if parent is None else base + parent, attrs])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# wrapping


def _kbeq_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "kbeq" or n.startswith("kbeq."))]


def _rebind(orig, new):
    """Replace every binding of ``orig`` in the kbeq module namespaces."""
    for mod in _kbeq_modules():
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def _timed(tracer: Tracer, name: str, fn, before=None, after=None):
    """Wrap ``fn`` in a span; ``before`` may rename it, ``after`` adds attrs."""

    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        state = before(sid, args) if before is not None else None
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                attrs = after(state, args, result)
            return result
        finally:
            tracer.end(sid, attrs)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _wrap_function(tracer, module, attr, name, before=None, after=None):
    orig = getattr(module, attr, None)
    if orig is None:
        return
    _rebind(orig, _timed(tracer, name, orig, before, after))


def _wrap_method(tracer, cls, attr, name, before=None, after=None):
    raw = cls.__dict__.get(attr)
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_timed(tracer, name, raw.__func__,
                                              before, after)))
    else:
        setattr(cls, attr, _timed(tracer, name, raw, before, after))


class _Peak:
    """tracemalloc peak of the allocations made inside one call."""

    def __init__(self):
        self.started = False

    def start(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self.started = True
        tracemalloc.reset_peak()

    def stop(self) -> float:
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        if self.started:
            tracemalloc.stop()
        return peak


def install(tracer: Tracer):
    """Wrap kbeq's layer entry points; returns nothing, patches in place."""
    import kbeq
    import kbeq.cli
    from kbeq import _vec, checks, decompose, functions, groups, oracle

    # groups: point enumeration of windows and whole groups
    for cls, attr in ((groups.Box, "points"), (groups.FullGroup, "points"),
                      (groups.GroupSpec, "elements")):
        _wrap_method(tracer, cls, attr, "groups.points")

    # functions: table construction/validation, synthesis, JSON, derived tables
    _wrap_method(tracer, functions.FuncTable, "__init__", "functions.table_init")
    _wrap_method(tracer, functions.FuncTable, "from_json", "functions.from_json")
    for attr in ("abs_log_table", "unimodular_part", "as_real_log"):
        _wrap_method(tracer, functions.FuncTable, attr, "functions.derived")
    _wrap_function(tracer, functions, "synth_table", "functions.synth")

    # _vec: encodings, pair and triple index maps
    for attr in ("numeric_mode", "exact_complex_encoding"):
        _wrap_function(tracer, _vec, attr, "vec.encode")

    def pair_before(sid, args):
        info, combos = args[0], args[1]
        cache = getattr(_vec, "_pair_cache", None)
        hit = cache is not None and (info.group, info.domain, combos) in cache
        tracer.rename(sid, "vec.pair_maps_warm" if hit else "vec.pair_maps_cold")
        peak = None
        if not hit:
            peak = _Peak()
            peak.start()
        return hit, peak

    def pair_after(state, args, result):
        hit, peak = state
        I, J, ks, total = result
        arrays = [I, J, *ks]
        attrs = {"hit": hit, "kept": int(len(I)), "total": int(total),
                 "index_bytes": int(sum(a.size * a.itemsize for a in arrays))}
        if peak is not None:
            attrs["peak_mb"] = peak.stop()
        return attrs

    _wrap_function(tracer, _vec, "pair_maps", "vec.pair_maps",
                   pair_before, pair_after)
    _wrap_function(tracer, _vec, "triple_maps", "vec.triple_maps")

    # checks: the equation sweep split by exact/float tables, side conditions
    exact_types = (int, Fraction, functions.Exact)

    def kb_before(sid, args):
        exact = all(isinstance(v, exact_types)
                    for table in args[:2] for v in table.values.values())
        tracer.rename(sid, "checks.check_kb_exact" if exact
                      else "checks.check_kb_float")

    def kb_after(_state, _args, rep):
        return {"pairs_checked": int(rep.pairs_checked)}

    _wrap_function(tracer, checks, "check_kb", "checks.check_kb",
                   kb_before, kb_after)
    _wrap_function(tracer, checks, "check_eq5", "checks.eq5")
    for attr in ("check_hermitian", "check_sign_eq26", "check_coset_constant"):
        _wrap_function(tracer, checks, attr, "checks.side")
    _wrap_function(tracer, checks, "_kb_witness", "checks.witness")

    # decompose: the log-domain split and the two pair decompositions
    _wrap_function(tracer, decompose, "decompose_T", "decompose.T")
    _wrap_function(tracer, decompose, "decompose_positive", "decompose.positive")
    _wrap_function(tracer, decompose, "decompose_hermitian", "decompose.hermitian")

    # oracle: solver construction, the scan, the structural check; memory
    # is traced in the search only, so solver setup keeps its own speed
    def scan_after(_state, _args, count):
        return {"rows_emitted": int(count)}

    _wrap_function(tracer, oracle, "scan_restricted_kb", "oracle.scan",
                   after=scan_after)
    _wrap_function(tracer, oracle, "restricted_rows_match_prediction",
                   "oracle.structural")
    solver = getattr(oracle, "_GridSolver", None)
    if solver is not None:
        _wrap_method(tracer, solver, "__init__", "oracle.solver_setup")

        def run_before(_sid, _args):
            peak = _Peak()
            peak.start()
            return peak

        def run_after(peak, args, _count):
            return {"rows_extended": int(getattr(args[0], "_used", 0)),
                    "peak_mb": peak.stop()}

        _wrap_method(tracer, solver, "run", "oracle.run", run_before, run_after)

    # cli: the in-process entry, table loading and report emission
    _wrap_function(tracer, kbeq.cli, "main", "cli.main")
    _wrap_function(tracer, kbeq.cli, "_load_table", "cli.load")
    _wrap_function(tracer, kbeq.cli, "_emit", "cli.emit")


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_metrics(spans: list[list], overhead_ratio: float,
                      child_walls: list[float]) -> dict:
    """Per-layer metric values from one traced round.

    ``child_walls`` are the wall times of CLI child processes, each matched
    with the child's ``cli.main`` span to give start-up time.
    """
    own = self_times(spans)
    out = {name: 0.0 for name in PER_LAYER}
    for span, t in zip(spans, own):
        metric = _SELF_TIME_METRICS.get(span[0])
        if metric is not None:
            out[metric] += t
    attrs = defaultdict(list)
    for name, _, _, _, a in spans:
        if a:
            attrs[name].append(a)
    out["functions.table_init_calls"] = sum(
        1 for s in spans if s[0] == "functions.table_init")
    pairs = attrs["vec.pair_maps_cold"] + attrs["vec.pair_maps_warm"]
    kept = sum(a["kept"] for a in pairs)
    total = sum(a["total"] for a in pairs)
    out["vec.pair_keep_ratio"] = kept / total if total else 0.0
    out["vec.pair_cache_hit_ratio"] = (
        sum(1 for a in pairs if a["hit"]) / len(pairs) if pairs else 0.0)
    out["vec.index_bytes"] = max((a["index_bytes"] for a in pairs), default=0)
    out["vec.peak_mb"] = max((a.get("peak_mb", 0.0) for a in pairs), default=0.0)
    out["checks.pairs_checked"] = sum(
        a["pairs_checked"]
        for a in attrs["checks.check_kb_exact"] + attrs["checks.check_kb_float"])
    scans = attrs["oracle.scan"]
    emitted = sum(a["rows_emitted"] for a in scans)
    extended = sum(a["rows_extended"] for a in attrs["oracle.run"])
    out["oracle.rows_emitted"] = emitted
    out["oracle.rows_extended"] = extended
    out["oracle.prune_ratio"] = emitted / extended if extended else 0.0
    out["oracle.peak_mb"] = max((a["peak_mb"] for a in attrs["oracle.run"]),
                                default=0.0)
    mains = [end - start for name, start, end, _, _ in spans if name == "cli.main"]
    out["cli.startup_s"] = sum(w - m for w, m in zip(child_walls, mains))
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def layer_table(spans: list[list]) -> list[str]:
    """Per span name: calls, total, self, and child time split by layer."""
    own = self_times(spans)
    rows: dict = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = rows.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                     "children": defaultdict(float)})
        row["calls"] += 1
        row["self"] += own[i]
        # count a span's total once even when it nests inside its own name
        anc = parent
        while anc is not None and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc is None:
            row["total"] += end - start
        if parent is not None:  # parents precede their children
            rows[spans[parent][0]]["children"][layer_of(name)] += end - start
    lines = [f"{'span':<28}{'calls':>8}{'total_s':>11}{'self_s':>11}  children by layer (s)"]
    for name in sorted(rows, key=lambda n: -rows[n]["total"]):
        row = rows[name]
        kids = ", ".join(f"{k} {v:.4f}" for k, v in
                         sorted(row["children"].items(), key=lambda kv: -kv[1]))
        lines.append(f"{name:<28}{row['calls']:>8}{row['total']:>11.4f}"
                     f"{row['self']:>11.4f}  {kids}")
    return lines
