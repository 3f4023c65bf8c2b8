"""Instance and report files.

Instances and reports are JSON with every rational carried as an exact
string ("p/q" or "n"); nothing is ever written as a float. Reports are
rendered with sorted keys and a fixed layout so identical inputs produce
byte-identical files. This module alone formats values for JSON: the result
records and audit witnesses hold exact values (points as `Point`s), and the
report functions derive the counts and totals they print.

Per-cell output is formatted from the ints that the cells hold (an area
from its int on the scale squared), each distinct value once per report.

An instance file may carry an optional "triangle" header with three vertex
pairs [A, B, C]; translates are then interpreted as positions of that
triangle and are mapped through the (exact, rational) affine change of
coordinates that sends it to the canonical triangle. The applied linear map
is recorded in the parse metadata; reports do not include it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm

from .bounds import BoundReport
from .decomposition import CoveringInstance, DecompositionResult
from .geom import Point
from .lattice import Lattice, LatticeSearchReport
from .rational import brief_repr, int_at_least, lowest, on_one_scale, rat, rat_str
from .verification import AuditReport, CoverageCertificate

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


def _point_json(p: Point):
    return [rat_str(p.x), rat_str(p.y)]


def _ratio_str(n: int, d: int) -> str:
    """`rat_str` of n/d, for a positive d."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class _Ratios(dict):
    """`_ratio_str(n, d)` by the pair (n, d), made on its first lookup: one
    report formats each distinct value once."""

    def __missing__(self, pair: tuple[int, int]) -> str:
        text = self[pair] = _ratio_str(*pair)
        return text


def _cell_rows(cells, ratios: _Ratios) -> list[dict]:
    """The report row of each (index, stair cell), its area from the int
    area on the cell's scale squared."""
    return [{"index": i, "stairs": c.stair_count, "area": ratios[c.scaled_area(), c.scale**2]}
            for i, c in cells]


def _lattice_json(lat: Lattice) -> dict:
    return {"u": _point_json(lat.u), "v": _point_json(lat.v),
            "det": rat_str(lat.det), "density": rat_str(lat.density)}


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
    meta = {key: data[key] for key in ("name", "seed", "provenance") if key in data}
    den, points = _translate_points(raw_translates)
    if "triangle" in data:
        den, points, meta["transform"] = _normalize_triangle(data["triangle"], den, points)
    try:
        inst = CoveringInstance(k, l, den, points)
    except ValueError as exc:  # k, l and emptiness are checked above: repeats
        raise InstanceFormatError(f"translates: {exc}") from exc
    return inst, meta


def _plain_literal(raw):
    """The (numerator, denominator) pair in lowest terms of a plain ASCII
    literal "n" or "p/q" (an optional minus sign, decimal digits, q > 0),
    or None for any other value, which the parser then reads, by itself,
    with `rat`."""
    if type(raw) is not str:
        return None
    num, slash, den = raw.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not (digits.isascii() and digits.isdigit()):
        return None
    if slash and not (den.isascii() and den.isdigit()):
        return None
    try:  # int() refuses more than sys.get_int_max_str_digits() digits
        n, d = int(num), int(den) if slash else 1
    except ValueError:
        return None
    return lowest(n, d) if d else None


def _translate_points(raw_translates):
    """(den, points): the corners as `CoveringInstance` holds them, ints on
    the lcm of the literals' denominators, reading each distinct str or int
    literal once: by `_plain_literal`, or else alone by `rat`, which names
    its field. A literal of any other type is read at each use, as true and
    1.0 equal 1 as dict keys and are refused."""
    values = {}  # literal -> (numerator, denominator)
    for i, raw in enumerate(raw_translates):
        if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
            raise InstanceFormatError(f"translates[{i}]: expected a pair [x, y], "
                                      f"got {brief_repr(raw)}")
        x, y = raw
        if (type(x) is not str and type(x) is not int) or x not in values:
            values[x] = _plain_literal(x) or _rat_pair(x, i, 0)
        if (type(y) is not str and type(y) is not int) or y not in values:
            values[y] = _plain_literal(y) or _rat_pair(y, i, 1)
    den = lcm(*(d for _, d in values.values()))
    scaled = {raw: n * (den // d) for raw, (n, d) in values.items()}
    return den, tuple((scaled[x], scaled[y]) for x, y in raw_translates)


def _rat_pair(raw, i: int, j: int) -> tuple[int, int]:
    """The pair of translates[i][j] by `rat`, whose refusal names the field."""
    return _rat_field(raw, f"translates[{i}][{j}]").as_integer_ratio()


def _normalize_triangle(raw, den: int, points):
    if not (isinstance(raw, list) and len(raw) == 3):
        raise InstanceFormatError("triangle: expected three vertex pairs")
    a, b, c = (_point_field(v, f"triangle[{i}]") for i, v in enumerate(raw))
    m00, m01 = b.x - a.x, c.x - a.x
    m10, m11 = b.y - a.y, c.y - a.y
    det = m00 * m11 - m01 * m10
    if det == 0:
        raise InstanceFormatError("triangle: vertices are collinear")
    inv = ((m11 / det, -m01 / det), (-m10 / det, m00 / det))
    # the map as ints over a common denominator q, applied to the ints on den
    q, (i00, i01, i10, i11) = on_one_scale(v for row in inv for v in row)
    mapped = tuple((i00 * x + i01 * y, i10 * x + i11 * y) for x, y in points)
    return q * den, mapped, {"triangle": [_point_json(p) for p in (a, b, c)],
                             "linear_map": [[rat_str(v) for v in row] for row in inv]}


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, integer digit limit
        raise InstanceFormatError(f"{path}: invalid JSON ({exc})") from exc


def load_instance(path) -> tuple[CoveringInstance, dict]:
    return parse_instance(_load_json(path))


def instance_to_json(inst: CoveringInstance, meta: dict | None = None) -> dict:
    ratios, den = _Ratios(), inst.den
    data = {
        "schema": SCHEMA_INSTANCE,
        "k": inst.k,
        "l": rat_str(inst.window),
        "translates": [[ratios[x, den], ratios[y, den]] for x, y in inst.points],
    }
    if meta:
        data.update(meta)
    return data


_escape = json.encoder.encode_basestring_ascii


def dump_report(data: dict) -> str:
    """`json.dumps(data, indent=2, sort_keys=True) + "\\n"`, byte for byte.

    `indent` sends `json.dumps` to CPython's pure-Python encoder, so this
    writes the same text itself: the records that repeat once per cell or
    translate from one f-string template per kind (`_records`), and the
    rest by `_write`, a walker with sorted keys and a two-space indent.
    """
    out = []
    _write(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, nl: str, out: list) -> None:
    """Append to *out* the text that `json.dumps(value, indent=2,
    sort_keys=True)` gives *value* on a line that starts after the line
    break and indent *nl*. A type that the report functions do not write
    (a float, a non-str key, a subclass) goes to `json.dumps` itself."""
    kind = type(value)
    if kind is str:
        out.append(_escape(value))
    elif kind is int:
        out.append(str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif (kind is list or kind is tuple) and value:
        inner = nl + "  "
        records = _records(value, nl, inner)
        if records is not None:
            out.append(f"[{inner}{records}{nl}]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif kind is dict and value and all(type(key) is str for key in value):
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(f"{sep}{_escape(key)}: ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", nl))


def _records(items, nl: str, inner: str) -> str | None:
    """The nonempty list *items* at the line break *nl*, without its
    brackets, when its items are all of the kind of its first: stair cell
    rows (`_row`), decompose's cells (`_cell`) or pairs of strings
    (`_pair`: an instance's translates); else None."""
    first = items[0]
    if type(first) is dict and "stairs" in first:
        template = _cell if "x_breaks" in first else _row
    elif type(first) is list or type(first) is tuple:
        template = _pair
    else:
        return None
    try:
        return ("," + inner).join([template(item, inner, inner + "  ") for item in items])
    except (TypeError, KeyError, ValueError):  # an item of another kind
        return None


# The templates: each writes its keys in sorted order, as `sort_keys` does,
# and refuses (by TypeError) a record with other keys or value types.

def _pair(pair, nl: str, inner: str) -> str:
    if (type(pair) is not list and type(pair) is not tuple) or len(pair) != 2:
        raise TypeError("not a pair")
    x, y = pair
    return f"[{inner}{_escape(x)},{inner}{_escape(y)}{nl}]"


def _strings(values, nl: str, inner: str) -> str:
    if type(values) is not list and type(values) is not tuple:
        raise TypeError("not a list")
    if not values:
        return "[]"
    return f"[{inner}{(',' + inner).join(map(_escape, values))}{nl}]"


def _index_stairs(record, size: int) -> tuple[int, int]:
    """The int "index" and "stairs" of a dict of *size* keys."""
    if type(record) is dict and len(record) == size:
        i, r = record["index"], record["stairs"]
        if type(i) is int and type(r) is int:
            return i, r
    raise TypeError("not a record of this kind")


def _row(row, nl: str, inner: str) -> str:
    i, r = _index_stairs(row, 3)
    return f'{{{inner}"area": {_escape(row["area"])},{inner}"index": {i},{inner}"stairs": {r}{nl}}}'


def _cell(cell, nl: str, inner: str) -> str:
    (i, r), wider = _index_stairs(cell, 5), inner + "  "
    return (f'{{{inner}"area": {_escape(cell["area"])},{inner}"index": {i},'
            f'{inner}"stairs": {r},'
            f'{inner}"x_breaks": {_strings(cell["x_breaks"], inner, wider)},'
            f'{inner}"y_breaks": {_strings(cell["y_breaks"], inner, wider)}{nl}}}')


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
    ratios = _Ratios()
    cells = _cell_rows(result.cells, ratios)
    for row, (_, cell) in zip(cells, result.cells):
        row["x_breaks"] = [ratios[v, cell.scale] for v in cell.xs]
        row["y_breaks"] = [ratios[v, cell.scale] for v in cell.ys]
    non_stair = [
        {
            "index": i,
            "diag_sum": _ratio_str(cell.diag, cell.scale),
            "area": rat_str(cell.area()),
            "columns": [
                [_ratio_str(v, cell.scale) for v in (a, b, cell.ys[-1], top)]
                for a, b, top in zip(cell.xs, cell.xs[1:], cell.ys)
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


def _witness_json(witness: dict) -> dict:
    return {k: _point_json(v) if isinstance(v, Point) else v for k, v in witness.items()}


def report_audit(inst: CoveringInstance, report: AuditReport) -> dict:
    verdicts = [
        {
            "check": v.check,
            "status": v.status,
            "detail": v.detail,
            **({"witness": _witness_json(v.witness)} if v.witness else {}),
        }
        for v in report.verdicts
    ]
    result = report.result
    stats = {
        **report.stats,
        "n_translates": inst.size,
        "n_nonempty": len(result.cells) + len(result.non_stair),
        "min_depth": report.certificate.min_depth,
        "sum_stair_counts": sum(c.stair_count for _, c in result.cells),
        "cells": _cell_rows(result.cells, _Ratios()),
    }
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
        "cells": [{"index": i, "stairs": r, "area": rat_str(area)}
                  for i, r, area in report.cells],
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
        data.update(
            _lattice_json(report.lattice),
            multiplicity=report.multiplicity,
            gap=rat_str(report.gap),
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
        # a key too long to echo whole is no fold (int() refuses 4,301 digits)
        short = brief_repr(key) == repr(key)
        where = f"best.{key if short else brief_repr(key)}"
        # plain decimal only: "01" next to "1" would silently replace it
        if not (short and key.isascii() and key.isdigit() and key[0] != "0"):
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
            str(k): {**_lattice_json(lat), "multiplicity": mult}
            for k, (lat, mult) in sorted(store.items())
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_report(data))
