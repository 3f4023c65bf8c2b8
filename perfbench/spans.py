"""Per-layer tracing of the staircover package from outside it.

`Tracer.install` wraps the public functions in LAYER_SPANS under their name
in every staircover module that holds them (`cli` imports `decompose`,
`run_audits` and others directly), so each call records a span: name, start,
end and parent. Spans stay in memory and are written out when the run ends.

`layer_metrics` turns the spans of the traced passes into the per-layer
metrics. Times are busy seconds per pass; a `_self_s` time excludes the
wrapped calls inside the span. Counts are computed here from the inputs and
return values that the spans keep for the first traced pass, so they repeat
exactly for a given corpus. `geom` and `rational` are primitives called
millions of times and are not wrapped; their cost shows in their callers'
self time.
"""

from __future__ import annotations

import json
import sys
import time
from math import lcm

import numpy as np

# (module, function) -> span name
LAYER_SPANS = {
    ("fileio", "load_instance"): "fileio.parse",
    ("fileio", "report_verify"): "fileio.report",
    ("fileio", "report_decompose"): "fileio.report",
    ("fileio", "report_audit"): "fileio.report",
    ("fileio", "report_bounds"): "fileio.report",
    ("fileio", "report_optimize"): "fileio.report",
    ("fileio", "dump_report"): "fileio.report",
    ("arrangement", "min_depth"): "arrangement.min_depth",
    ("decomposition", "decompose"): "decomposition.decompose",
    ("verification", "coverage_certificate"): "verification.certificate",
    ("verification", "verify_exact_tiling"): "verification.tiling",
    ("verification", "multiplicity_grid"): "verification.grid",
    ("verification", "audit_cell_shape"): "verification.cell_shape",
    ("verification", "audit_minimal_element"): "verification.minimal_element",
    ("verification", "audit_disjointness"): "verification.disjointness",
    ("verification", "audit_boundary_cut"): "verification.boundary_cut",
    ("verification", "audit_inner_corners"): "verification.inner_corners",
    ("verification", "audit_corner_counts"): "verification.corner_counts",
    ("verification", "run_audits"): "verification.run_audits",
    ("bounds", "density_chain"): "bounds.density_chain",
    ("lattice", "search_optimal_lattice"): "lattice.search",
    ("lattice", "lattice_covers"): "lattice.covers",
    ("lattice", "lattice_multiplicity"): "lattice.multiplicity",
    ("svg", "render_decomposition"): "svg.render",
}

OP_SPAN = "cli.main"

# per-layer metric -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "fileio.parse_s": "s",
    "fileio.translates": "count",
    "fileio.report_s": "s",
    "arrangement.min_depth_s": "s",
    "arrangement.min_depth_calls": "count",
    "arrangement.slabs": "count",
    "arrangement.samples": "count",
    "arrangement.bignum_calls": "count",
    "decomposition.decompose_s": "s",
    "decomposition.cutter_pairs": "count",
    "decomposition.cells": "count",
    "decomposition.stairs": "count",
    "verification.certificate_self_s": "s",
    "verification.tiling_s": "s",
    "verification.grid_builds": "count",
    "verification.grid_cells": "count",
    "verification.cell_shape_s": "s",
    "verification.minimal_element_s": "s",
    "verification.disjointness_s": "s",
    "verification.boundary_cut_s": "s",
    "verification.boundary_pairs": "count",
    "verification.inner_corners_s": "s",
    "verification.corner_counts_s": "s",
    "verification.run_audits_self_s": "s",
    "bounds.density_chain_s": "s",
    "lattice.search_s": "s",
    "lattice.covers_s": "s",
    "lattice.covers_self_s": "s",
    "lattice.multiplicity_s": "s",
    "lattice.evaluations": "count",
    "lattice.feasible_share": "ratio",
    "lattice.translates_per_check": "count",
    "svg.render_s": "s",
    "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}

_NAME, _START, _END, _PARENT, _ARGS, _RESULT = range(6)


class Tracer:
    """Span recorder; spans are [name, start_ns, end_ns, parent, args, result]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.keep = False  # keep call arguments and results for counting

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            if self.keep:
                rec[_ARGS] = (args, kwargs)
                rec[_RESULT] = result
            return result

        return traced

    def install(self, package: str = "staircover"):
        """Wrap every LAYER_SPANS function wherever the package holds it."""
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for (mod, fn_name), span in LAYER_SPANS.items():
            original = getattr(sys.modules[f"{package}.{mod}"], fn_name)
            traced = self.wrap(span, original)
            for m in modules:
                if getattr(m, fn_name, None) is original:
                    setattr(m, fn_name, traced)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for n, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": n, "name": rec[_NAME], "start_ns": rec[_START],
                                     "end_ns": rec[_END], "parent": rec[_PARENT]}) + "\n")


def _self_times(spans):
    own = [rec[_END] - rec[_START] for rec in spans]
    for rec in spans:
        if rec[_PARENT] >= 0:
            own[rec[_PARENT]] -= rec[_END] - rec[_START]
    return own


def _scaled(values, d):
    return [int(v * d) for v in values]


def arrangement_size(corners, window):
    """(slabs, samples, bignum) of the face-sample grid that an exhaustive
    depth scan of these triangles over the window covers: one sweep line per
    vertex x of the arrangement of legs, hypotenuses and window edges and
    per midpoint between consecutive ones; on each, every line crossing and
    every midpoint between consecutive crossings. `bignum` is whether the
    scaled integer frame (4 x the common denominator) reaches 2^60."""
    xs = {window.x0, window.x1, *(c.x for c in corners)}
    ys = {window.y0, window.y1, *(c.y for c in corners)}
    ss = {c.x + c.y + 1 for c in corners}
    d = lcm(*(v.denominator for v in (*xs, *ys, *ss)))
    X, Y, S = _scaled(xs, d), _scaled(ys, d), _scaled(ss, d)
    x0, x1 = int(window.x0 * d), int(window.x1 * d)
    biggest = 4 * d * max(abs(v) for v in (*xs, *ys, *ss))
    if biggest < 1 << 62:
        S_, Y_ = np.asarray(S, dtype=np.int64), np.asarray(Y, dtype=np.int64)
        cross = (S_[:, None] - Y_[None, :]).ravel()
        vx = np.unique(np.concatenate([np.asarray(X, dtype=np.int64), cross]))
        m = int(((vx >= x0) & (vx <= x1)).sum())
    else:
        vx = set(X) | {s - y for s in S for y in Y}
        m = sum(1 for v in vx if x0 <= v <= x1)
    slabs = 2 * m - 2 if m > 1 else 1
    samples = slabs * (2 * (len(Y) + len(S)) - 1)
    return slabs, samples, biggest >= 1 << 60


def cutter_pairs(corners) -> int:
    """Ordered pairs (i, j) with triangle j cutting triangle i: one per
    unordered pair of distinct intersecting triangles."""
    pts = [(c.x, c.y, c.x + c.y + 1) for c in corners]
    n = 0
    for a in range(len(pts)):
        ax, ay, as_ = pts[a]
        for b in range(a + 1, len(pts)):
            bx, by, bs = pts[b]
            if max(ax, bx) + max(ay, by) <= min(as_, bs):
                n += 1
    return n


def layer_metrics(spans, passes: int, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics per pass from the spans of `passes` traced passes.

    Counts use the spans that kept their arguments (the first pass).
    """
    own = _self_times(spans)
    busy, self_busy, calls = {}, {}, {}
    for rec, s in zip(spans, own):
        name = rec[_NAME]
        busy[name] = busy.get(name, 0) + rec[_END] - rec[_START]
        self_busy[name] = self_busy.get(name, 0) + s
    kept = [rec for rec in spans if rec[_ARGS] is not None]
    for rec in kept:
        calls[rec[_NAME]] = calls.get(rec[_NAME], 0) + 1

    def per_pass(ns):
        return ns / 1e9 / passes

    out = {
        "fileio.parse_s": per_pass(busy.get("fileio.parse", 0)),
        "fileio.report_s": per_pass(busy.get("fileio.report", 0)),
        "arrangement.min_depth_s": per_pass(busy.get("arrangement.min_depth", 0)),
        "decomposition.decompose_s": per_pass(busy.get("decomposition.decompose", 0)),
        "verification.certificate_self_s": per_pass(self_busy.get("verification.certificate", 0)),
        "verification.tiling_s": per_pass(busy.get("verification.tiling", 0)),
        "verification.run_audits_self_s": per_pass(self_busy.get("verification.run_audits", 0)),
        "bounds.density_chain_s": per_pass(busy.get("bounds.density_chain", 0)),
        "lattice.search_s": per_pass(busy.get("lattice.search", 0)),
        "lattice.covers_s": per_pass(busy.get("lattice.covers", 0)),
        "lattice.covers_self_s": per_pass(self_busy.get("lattice.covers", 0)),
        "lattice.multiplicity_s": per_pass(busy.get("lattice.multiplicity", 0)),
        "svg.render_s": per_pass(busy.get("svg.render", 0)),
        "cli.self_s": per_pass(self_busy.get(OP_SPAN, 0)),
    }
    for audit in ("cell_shape", "minimal_element", "disjointness", "boundary_cut",
                  "inner_corners", "corner_counts"):
        out[f"verification.{audit}_s"] = per_pass(busy.get(f"verification.{audit}", 0))

    translates = slabs = samples = bignum = cut = cells = stairs = 0
    grid_cells = boundary_pairs = feasible = covers_translates = 0
    cut_memo = {}
    for n, rec in enumerate(kept):
        name, (args, kwargs), result = rec[_NAME], rec[_ARGS], rec[_RESULT]
        if name == "fileio.parse" and isinstance(result, tuple):
            translates += result[0].size
        elif name == "arrangement.min_depth":
            corners, window = list(args[0]), args[1]
            sl, sa, big = arrangement_size(corners, window)
            slabs, samples, bignum = slabs + sl, samples + sa, bignum + big
            if rec[_PARENT] >= 0 and spans[rec[_PARENT]][_NAME] == "lattice.covers":
                covers_translates += len(corners)
        elif name == "decomposition.decompose":
            corners = args[0].corners
            if corners not in cut_memo:
                cut_memo[corners] = cutter_pairs(corners)
            cut += cut_memo[corners]
            cells += len(result.cells) + len(result.non_stair)
            stairs += sum(c.stair_count for _, c in result.cells)
        elif name == "verification.grid":
            xs, ys, _ = result
            grid_cells += (len(xs) - 1) * (len(ys) - 1)
        elif name == "verification.boundary_cut":
            m = len(args[1])
            boundary_pairs += m * (m - 1)
        elif name == "lattice.covers":
            feasible += bool(result)
    evaluations = calls.get("lattice.covers", 0)
    out.update({
        "fileio.translates": translates,
        "arrangement.min_depth_calls": calls.get("arrangement.min_depth", 0),
        "arrangement.slabs": slabs,
        "arrangement.samples": samples,
        "arrangement.bignum_calls": bignum,
        "decomposition.cutter_pairs": cut,
        "decomposition.cells": cells,
        "decomposition.stairs": stairs,
        "verification.grid_builds": calls.get("verification.grid", 0),
        "verification.grid_cells": grid_cells,
        "verification.boundary_pairs": boundary_pairs,
        "lattice.evaluations": evaluations,
        "lattice.feasible_share": feasible / evaluations if evaluations else 0.0,
        "lattice.translates_per_check": covers_translates / evaluations if evaluations else 0.0,
        "trace.overhead_share": traced_wall / untraced_wall - 1,
    })
    return {name: out[name] for name in LAYER_METRICS}
