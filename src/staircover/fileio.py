"""Instance and report files.

Instances and reports are JSON with every rational carried as an exact
string ("p/q" or "n"); nothing is ever written as a float. Reports are
rendered with sorted keys and a fixed layout so identical inputs produce
byte-identical files.

An instance file may carry an optional "triangle" header with three vertex
pairs [A, B, C]; translates are then interpreted as positions of that
triangle and are mapped through the (exact, rational) affine change of
coordinates that sends it to the canonical triangle. The applied linear map
is recorded in the parse metadata; reports do not include it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bounds import BoundReport
from .decomposition import CoveringInstance, DecompositionResult
from .geom import Point
from .lattice import Lattice, LatticeSearchReport
from .rational import brief_repr, int_at_least, rat, rat_str
from .verification import AuditReport, CoverageCertificate, _point_json

__all__ = [
    "InstanceFormatError",
    "parse_instance",
    "load_instance",
    "instance_to_json",
    "dump_report",
    "report_verify",
    "report_decompose",
    "report_audit",
    "report_bounds",
    "report_optimize",
    "load_results_store",
    "save_results_store",
]

SCHEMA_INSTANCE = "staircover.instance/1"
SCHEMA_REPORT = "staircover.report/1"
SCHEMA_RESULTS = "staircover.lattices/1"


class InstanceFormatError(ValueError):
    """Malformed instance file; message carries the offending field."""


def _rat_field(raw, where: str) -> Fraction:
    try:
        return rat(raw)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc


def _point_field(raw, where: str) -> Point:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise InstanceFormatError(f"{where}: expected a pair [x, y], got {brief_repr(raw)}")
    return Point(_rat_field(raw[0], f"{where}[0]"), _rat_field(raw[1], f"{where}[1]"))


def parse_instance(data: dict) -> tuple[CoveringInstance, dict]:
    """Validate a decoded instance dict; returns (instance, metadata).

    Metadata keeps the optional name/seed/provenance fields plus the affine
    normalization applied when a "triangle" header is present.
    """
    if not isinstance(data, dict):
        raise InstanceFormatError("instance file must be a JSON object")
    k = data.get("k")
    try:
        int_at_least(k, 1, "k: positive integer required")
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    l = _rat_field(data.get("l"), "l")
    if l <= 0:
        raise InstanceFormatError(f"l: window side must be positive, got {rat_str(l)}")
    raw_translates = data.get("translates")
    if not isinstance(raw_translates, list) or not raw_translates:
        raise InstanceFormatError("translates: nonempty list required")
    corners = [
        _point_field(raw, f"translates[{i}]") for i, raw in enumerate(raw_translates)
    ]
    meta = {
        key: data[key] for key in ("name", "seed", "provenance") if key in data
    }
    if "triangle" in data:
        corners, transform = _normalize_triangle(data["triangle"], corners)
        meta["transform"] = transform
    try:
        inst = CoveringInstance(k=k, window=l, corners=tuple(corners))
    except ValueError as exc:  # k, l and emptiness are checked above: repeats
        raise InstanceFormatError(f"translates: {exc}") from exc
    return inst, meta


def _normalize_triangle(raw, corners):
    if not (isinstance(raw, list) and len(raw) == 3):
        raise InstanceFormatError("triangle: expected three vertex pairs")
    a, b, c = (_point_field(v, f"triangle[{i}]") for i, v in enumerate(raw))
    m00, m01 = b.x - a.x, c.x - a.x
    m10, m11 = b.y - a.y, c.y - a.y
    det = m00 * m11 - m01 * m10
    if det == 0:
        raise InstanceFormatError("triangle: vertices are collinear")
    inv = ((m11 / det, -m01 / det), (-m10 / det, m00 / det))
    mapped = [
        Point(inv[0][0] * p.x + inv[0][1] * p.y, inv[1][0] * p.x + inv[1][1] * p.y)
        for p in corners
    ]
    transform = {
        "triangle": [_point_json(p) for p in (a, b, c)],
        "linear_map": [[rat_str(v) for v in row] for row in inv],
    }
    return mapped, transform


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, integer digit limit
        raise InstanceFormatError(f"{path}: invalid JSON ({exc})") from exc


def load_instance(path) -> tuple[CoveringInstance, dict]:
    return parse_instance(_load_json(path))


def instance_to_json(inst: CoveringInstance, meta: dict | None = None) -> dict:
    data = {
        "schema": SCHEMA_INSTANCE,
        "k": inst.k,
        "l": rat_str(inst.window),
        "translates": [_point_json(c) for c in inst.corners],
    }
    if meta:
        data.update(meta)
    return data


def dump_report(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _header(kind: str, inst: CoveringInstance) -> dict:
    return {
        "schema": SCHEMA_REPORT,
        "kind": kind,
        "k": inst.k,
        "l": rat_str(inst.window),
        "n_translates": inst.size,
    }


def report_verify(inst: CoveringInstance, cert: CoverageCertificate) -> dict:
    return {
        **_header("verify", inst),
        "min_depth": cert.min_depth,
        "witness": _point_json(cert.witness),
        "covers": cert.covers,
    }


def _cells_json(result: DecompositionResult):
    cells = [
        {
            "index": i,
            "stairs": cell.stair_count,
            "area": rat_str(cell.area()),
            "x_breaks": [rat_str(v) for v in cell.x_breaks],
            "y_breaks": [rat_str(v) for v in cell.y_breaks],
        }
        for i, cell in result.cells
    ]
    non_stair = [
        {
            "index": i,
            "diag_sum": rat_str(cell.diag_sum),
            "area": rat_str(cell.area()),
            "columns": [
                [rat_str(r.x0), rat_str(r.x1), rat_str(r.y0), rat_str(r.y1)]
                for r in cell.columns
            ],
        }
        for i, cell in result.non_stair
    ]
    return cells, non_stair


def report_decompose(
    inst: CoveringInstance, result: DecompositionResult, cert: CoverageCertificate
) -> dict:
    cells, non_stair = _cells_json(result)
    return {
        **_header("decompose", inst),
        "covers": cert.covers,
        "min_depth": cert.min_depth,
        "cells": cells,
        "non_stair_cells": non_stair,
        "empty_indices": list(result.empty_indices),
        "sum_stairs": sum(c.stair_count for _, c in result.cells),
    }


def report_audit(inst: CoveringInstance, report: AuditReport) -> dict:
    verdicts = [
        {
            "check": v.check,
            "status": v.status,
            "detail": v.detail,
            **({"witness": v.witness} if v.witness else {}),
        }
        for v in report.verdicts
    ]
    stats = dict(report.stats)
    if "anchor_counts" in stats:
        stats["anchor_counts"] = {str(i): n for i, n in sorted(stats["anchor_counts"].items())}
    return {
        **_header("audit", inst),
        "min_depth": report.certificate.min_depth,
        "witness": _point_json(report.certificate.witness),
        "verdicts": verdicts,
        "stats": stats,
        "passed": report.passed,
    }


def report_bounds(inst: CoveringInstance, report: BoundReport) -> dict:
    return {
        **_header("bounds", inst),
        "n_nonempty": report.n_nonempty,
        "sum_stairs": report.sum_stairs,
        "valid": report.valid,
        "holds": report.holds,
        "detail": report.detail,
        "links": [
            {"label": link.label, "value": rat_str(link.value), "holds": link.holds}
            for link in report.links
        ],
        "cells": [
            {"index": i, "stairs": r, "area": rat_str(area)}
            for i, r, area in report.cells
        ],
    }


def report_optimize(report: LatticeSearchReport) -> dict:
    data = {
        "schema": SCHEMA_REPORT,
        "kind": "optimize",
        "k": report.k,
        "feasible": report.feasible,
        "target_density": rat_str(report.target_density),
        "evaluations": report.evaluations,
        "budget": report.budget,
        "message": report.message,
    }
    if report.feasible:
        lat = report.lattice
        data.update(
            {
                "u": _point_json(lat.u),
                "v": _point_json(lat.v),
                "det": rat_str(lat.det),
                "multiplicity": report.multiplicity,
                "density": rat_str(report.density),
                "gap": rat_str(report.gap),
            }
        )
    return data


def load_results_store(path) -> dict:
    """Best-known lattice per fold, as {k: (Lattice, multiplicity)}."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InstanceFormatError("results file must be a JSON object")
    best = data.get("best", {})
    if not isinstance(best, dict):
        raise InstanceFormatError("best: expected an object keyed by fold")
    out = {}
    for key, entry in best.items():
        where = f"best.{key}"
        if not (key.isascii() and key.isdigit() and int(key) >= 1):
            raise InstanceFormatError(f"{where}: the key must be a fold k >= 1")
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"{where}: expected an object with u, v and multiplicity")
        u = _point_field(entry.get("u"), f"{where}.u")
        v = _point_field(entry.get("v"), f"{where}.v")
        mult = _rat_field(entry.get("multiplicity"), f"{where}.multiplicity")
        if mult.denominator != 1:
            raise InstanceFormatError(
                f"{where}.multiplicity: integer required, got {rat_str(mult)}"
            )
        try:
            lat = Lattice(u, v)
        except ValueError as exc:
            raise InstanceFormatError(f"{where}: {exc}") from exc
        out[int(key)] = (lat, int(mult))
    return out


def save_results_store(path, store: dict) -> None:
    data = {
        "schema": SCHEMA_RESULTS,
        "best": {
            str(k): {
                "u": _point_json(lat.u),
                "v": _point_json(lat.v),
                "det": rat_str(lat.det),
                "density": rat_str(lat.density),
                "multiplicity": mult,
            }
            for k, (lat, mult) in sorted(store.items())
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_report(data))
