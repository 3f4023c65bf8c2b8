"""Output checks made apart from the program.

Every check recomputes what a report claims from the instance file and the
report alone, in exact rational arithmetic, without importing staircover:

* a witness point's depth is recounted triangle by triangle;
* "covers" is certified by the paper's argument: every reported cell lies in
  its own closed triangle and in the window, and the cells, rasterized onto
  the grid of their own breaks, cover every window point exactly k times, so
  every point lies in k distinct triangles;
* a lattice family's depth is its closed-form multiplicity;
* the bound chain is recomputed from the cells, with A(r) = (r+1)/(2(r+2));
* a searched lattice has density in [(2k+1)/2, 1.01 (2k+1)/2] and its
  multiplicity, recounted by a plane sweep over one fundamental box, is at
  least k.

Each check function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from math import ceil, floor, lcm

import numpy as np

F = Fraction


def A(r) -> Fraction:
    """Largest area of an r-stair polygon in the triangle (closed form)."""
    return (F(r) + 1) / (2 * (F(r) + 2))


def load_instance(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    corners = [(F(x), F(y)) for x, y in data["translates"]]
    return data["k"], F(data["l"]), corners


def depth_at(corners, p) -> int:
    px, py = p
    return sum(1 for x, y in corners if px >= x and py >= y and px + py <= x + y + 1)


def parse_cells(report):
    """(index, x_breaks, y_breaks) per stair cell of a decompose report."""
    return [
        (c["index"], [F(v) for v in c["x_breaks"]], [F(v) for v in c["y_breaks"]])
        for c in report["cells"]
    ]


def cell_area(xs, ys) -> Fraction:
    bottom = ys[-1]
    return sum((xs[i + 1] - xs[i]) * (ys[i] - bottom) for i in range(len(xs) - 1))


def cell_contains(xs, ys, p) -> bool:
    """Half-open stair polygon membership."""
    px, py = p
    i = bisect_right(xs, px) - 1
    return 0 <= i < len(xs) - 1 and ys[-1] <= py < ys[i]


def multiplicity_at(cells, p) -> int:
    return sum(1 for _, xs, ys in cells if cell_contains(xs, ys, p))


def cell_problems(cells, corners, l):
    """Shape, own-triangle and window containment of every stair cell."""
    problems = []
    seen = set()
    for i, xs, ys in cells:
        if not (0 <= i < len(corners)) or i in seen:
            problems.append(f"cell index {i} out of range or repeated")
            continue
        seen.add(i)
        if len(xs) != len(ys) or len(xs) < 2:
            problems.append(f"cell {i}: malformed breaks")
            continue
        if any(a >= b for a, b in zip(xs, xs[1:])) or any(a <= b for a, b in zip(ys, ys[1:])):
            problems.append(f"cell {i}: breaks not strictly monotone")
            continue
        cx, cy = corners[i]
        if xs[0] < 0 or ys[-1] < 0 or xs[-1] > l or ys[0] > l:
            problems.append(f"cell {i} leaves the window")
        # the closure of column j is [x_j, x_j+1] x [bottom, y_j]; its
        # farthest point from the corner is the top-right one
        if xs[0] < cx or ys[-1] < cy or any(
            xs[j + 1] + ys[j] > cx + cy + 1 for j in range(len(xs) - 1)
        ):
            problems.append(f"cell {i} leaves its closed triangle")
    return problems


def raster_multiplicity(cells, l):
    """Exact multiplicity of the cells on the grid of their breaks.

    Returns (xs, ys, counts), counts[a, b] being the number of cells that
    contain the half-open grid cell [xs[a], xs[a+1]) x [ys[b], ys[b+1]).
    """
    xs = sorted({F(0), l, *(v for _, bx, _ in cells for v in bx)})
    ys = sorted({F(0), l, *(v for _, _, by in cells for v in by)})
    xi = {v: n for n, v in enumerate(xs)}
    yi = {v: n for n, v in enumerate(ys)}
    diff = np.zeros((len(xs), len(ys)), dtype=np.int64)
    for _, bx, by in cells:
        b0 = yi[by[-1]]
        for j in range(len(bx) - 1):
            x0, x1, y1 = xi[bx[j]], xi[bx[j + 1]], yi[by[j]]
            diff[x0, b0] += 1
            diff[x1, b0] -= 1
            diff[x0, y1] -= 1
            diff[x1, y1] += 1
    counts = diff.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
    return xs, ys, counts


def certify_cover(cells, corners, k, l):
    """Problems with the claim that the cells tile [0, l)^2 exactly k-fold
    inside their own triangles (which proves the instance covers k-fold)."""
    problems = cell_problems(cells, corners, l)
    if problems:
        return problems
    xs, ys, counts = raster_multiplicity(cells, l)
    bad = np.argwhere(counts != k)  # cells lie in the window, so the grid is [0, l)^2
    if len(bad):
        a, b = map(int, bad[0])
        problems.append(f"cells cover ({xs[a]}, {ys[b]}) {int(counts[a, b])} times, not {k}")
    total = sum(cell_area(xs_, ys_) for _, xs_, ys_ in cells)
    if total != k * l * l:
        problems.append(f"cell areas sum to {total}, not k*l^2 = {k * l * l}")
    n_prime = len(cells)
    stairs = sum(len(xs_) - 2 for _, xs_, _ in cells)
    if stairs > (2 * k - 1) * n_prime:
        problems.append(f"sum r_i = {stairs} exceeds (2k-1)N' = {(2 * k - 1) * n_prime}")
    return problems


def check_header(report, kind, inst):
    k, l, corners = inst
    problems = []
    if report.get("kind") != kind:
        problems.append(f"report kind {report.get('kind')!r}, expected {kind!r}")
    if report.get("k") != k or F(report.get("l", "-1")) != l:
        problems.append("report k or l differs from the instance")
    if report.get("n_translates") != len(corners):
        problems.append("report n_translates differs from the instance")
    return problems


def check_witness(report, inst):
    """The witness lies in the window and its recounted depth is min_depth."""
    k, l, corners = inst
    p = (F(report["witness"][0]), F(report["witness"][1]))
    if not (0 <= p[0] < l and 0 <= p[1] < l):
        return [f"witness {p} outside the window"]
    depth = depth_at(corners, p)
    if depth != report["min_depth"]:
        return [f"witness depth recounts to {depth}, report says {report['min_depth']}"]
    return []


def check_depth_claim(report, inst, facts, cover=None):
    """min_depth and covers against what the instance is known to be.

    `cover` is the result of `certify_cover` on the instance's reported
    cells, or None when the workload did not decompose the instance.
    """
    k, l, corners = inst
    problems = []
    depth = report["min_depth"]
    if report.get("covers", depth >= k) != (depth >= k):
        problems.append("covers disagrees with min_depth >= k")
    if "multiplicity" in facts and depth != facts["multiplicity"]:
        problems.append(
            f"lattice family depth {depth} != closed form {facts['multiplicity']}"
        )
    if facts["covers"]:
        if depth < k:
            problems.append(f"instance covers {k}-fold by construction, depth {depth}")
        if cover is not None:
            problems += cover
        elif "multiplicity" not in facts:
            problems.append("no cells or closed form to certify the covering")
    else:
        hole = (F(facts["hole"][0]), F(facts["hole"][1])) if "hole" in facts else None
        if depth >= k:
            problems.append(f"instance is not a {k}-fold covering, depth {depth}")
        if hole is not None and depth > depth_at(corners, hole):
            problems.append("min_depth exceeds the depth at the carved hole")
    return problems


def check_verify(report, inst, facts, cover=None):
    return (
        check_header(report, "verify", inst)
        + check_witness(report, inst)
        + check_depth_claim(report, inst, facts, cover)
    )


def check_decompose(report, inst, facts, cover=None, svg_text=None):
    k, l, corners = inst
    problems = check_header(report, "decompose", inst)
    cells = parse_cells(report)
    for c, (i, xs, ys) in zip(report["cells"], cells):
        if len(xs) >= 2 and (F(c["area"]) != cell_area(xs, ys) or c["stairs"] != len(xs) - 2):
            problems.append(f"cell {i}: reported area or stair count is wrong")
    if report["sum_stairs"] != sum(len(xs) - 2 for _, xs, _ in cells):
        problems.append("sum_stairs is not the sum of the cells' stair counts")
    nonempty = [c["index"] for c in report["cells"]] + [
        c["index"] for c in report["non_stair_cells"]
    ]
    if sorted(nonempty + report["empty_indices"]) != list(range(len(corners))):
        problems.append("cells and empty indices do not partition the translates")
    if facts["covers"]:
        if report["non_stair_cells"]:
            problems.append("a covering produced non-stair cells")
        if cover is None:
            cover = certify_cover(cells, corners, k, l)
        problems += check_depth_claim(report, inst, facts, cover)
    else:
        problems += cell_problems(cells, corners, l)
        problems += check_depth_claim(report, inst, facts)
    if svg_text is not None:
        shapes = len(cells) + sum(len(c["columns"]) for c in report["non_stair_cells"])
        if not svg_text.startswith("<svg") or svg_text.count("<polygon") != shapes:
            problems.append("SVG does not draw one polygon per cell column set")
    return problems


def check_audit(report, inst, facts, cells, cover=None):
    """An audit of a covering: every verdict passes, stats match the cells."""
    k, l, corners = inst
    problems = check_header(report, "audit", inst) + check_witness(report, inst)
    problems += check_depth_claim(report, inst, facts, cover)
    failed = [v["check"] for v in report["verdicts"] if v["status"] != "pass"]
    if failed or report["passed"] is not True:
        problems.append(f"audit of a covering did not pass: {failed}")
    stats_cells = [(c["index"], c["stairs"], F(c["area"])) for c in report["stats"]["cells"]]
    own = [(i, len(xs) - 2, cell_area(xs, ys)) for i, xs, ys in cells]
    if stats_cells != own:
        problems.append("audit cell stats differ from the decomposition's cells")
    n_prime = len(own)
    if report["stats"]["sum_stair_counts"] != sum(r for _, r, _ in own) or (
        report["stats"]["sum_stair_counts"] > (2 * k - 1) * n_prime
    ):
        problems.append("sum_stair_counts wrong or above (2k-1)N'")
    return problems


def corrupted(cells, mode):
    """The cell list the CLI's --corrupt mode audits (first cell changed)."""
    cells = list(cells)
    if mode == "dup-cell":
        cells.insert(0, cells[0])
    elif mode == "drop-cell":
        cells.pop(0)
    elif mode == "shrink-cell":
        i, xs, ys = cells[0]
        cells[0] = (i, [xs[0], (xs[0] + xs[1]) / 2], [(ys[-1] + ys[-2]) / 2, ys[-1]])
    else:
        raise ValueError(mode)
    return cells


def check_corrupt_audit(report, inst, cells, mode):
    """A corrupted audit fails, and its witness multiplicity is genuine."""
    k, l, corners = inst
    problems = check_header(report, "audit", inst)
    if report["passed"] is not False:
        return problems + ["corrupted audit passed"]
    broken = corrupted(cells, mode)
    witnessed = 0
    for v in report["verdicts"]:
        w = v.get("witness") or {}
        if v["status"] != "fail" or "multiplicity" not in w or "point" not in w:
            continue
        p = (F(w["point"][0]), F(w["point"][1]))
        m = multiplicity_at(broken, p)
        if m != w["multiplicity"] or m == k:
            problems.append(
                f"{v['check']}: witness multiplicity recounts to {m}, "
                f"report says {w['multiplicity']} (k = {k})"
            )
        witnessed += 1
    if not witnessed:
        problems.append("no failing verdict carries a multiplicity witness")
    return problems


def check_bounds(report, inst, cells):
    """The bound chain, link by link, recomputed from the cells."""
    k, l, corners = inst
    problems = check_header(report, "bounds", inst)
    own = [(i, len(xs) - 2, cell_area(xs, ys)) for i, xs, ys in cells]
    if [(c["index"], c["stairs"], F(c["area"])) for c in report["cells"]] != own:
        problems.append("bound-chain cells differ from the decomposition's cells")
    if not (report["valid"] and report["holds"]):
        return problems + ["bound chain invalid or broken on a covering"]
    n, n_prime = len(corners), len(own)
    sum_r = sum(r for _, r, _ in own)
    expected = [
        ("window_area", l * l),
        ("cell_area_total", sum(a for _, _, a in own) / k),
        ("per_cell_bound", sum(A(r) for _, r, _ in own) / k),
        ("jensen_bound", F(n_prime, k) * A(F(sum_r, n_prime))),
        ("stair_budget_bound", F(n_prime, k) * A(2 * k - 1)),
        ("instance_bound", F(n, k) * A(2 * k - 1)),
    ]
    got = [(link["label"], F(link["value"])) for link in report["links"]]
    if got != expected:
        problems.append("bound-chain links differ from the recomputed chain")
    values = [v for _, v in expected]
    if values[1] != values[0] or any(b < a for a, b in zip(values[1:], values[2:])):
        problems.append("recomputed chain does not hold")
    if not all(link["holds"] for link in report["links"]):
        problems.append("a link is reported as broken")
    return problems


def lattice_points_meeting_box(a, b, c):
    """Corners i(a,0) + j(b,c) whose triangle meets the box [0,a] x [0,c]."""
    out = []
    for j in range(floor(F(-1) / c), 2):
        y = j * c
        for i in range(floor((-1 - j * b) / a), ceil((a - j * b) / a) + 1):
            x = i * a + j * b
            if max(x, 0) <= a and max(y, 0) <= c and max(x, 0) + max(y, 0) <= x + y + 1:
                out.append((x, y))
    return out


def lattice_multiplicity(a, b, c) -> int:
    """Minimum depth of the family {T + i(a,0) + j(b,c)}, by a plane sweep.

    The depth is upper semicontinuous, so its minimum is taken on an open
    2-cell of the line arrangement, and by periodicity on one that meets the
    open box (0,a) x (0,c), a fundamental domain. Within each open slab
    between consecutive arrangement-vertex x's, the open 2-cells are the gaps
    between consecutive line crossings; a gap's depth is the number of
    triangle intervals [y0, y1] that span it. Coordinates are scaled to
    integers (times 2, so slab midpoints stay integral).
    """
    corners = lattice_points_meeting_box(a, b, c)
    d = 2 * lcm(a.denominator, b.denominator, c.denominator)
    A_, C_ = int(a * d), int(c * d)
    xs = [int(x * d) for x, _ in corners]
    ys = [int(y * d) for _, y in corners]
    ss = [int((x + y + 1) * d) for x, y in corners]
    verts = {0, A_, *xs, *(s for s in ss), *(s - C_ for s in ss)}
    verts.update(s - y for s in ss for y in ys)
    verts = sorted(v for v in verts if 0 <= v <= A_)
    best = None
    for x0, x1 in zip(verts, verts[1:]):
        t = (x0 + x1) // 2  # x0, x1 even, so t is strictly inside the slab
        active = [(y, s - t) for x, y, s in zip(xs, ys, ss) if x < t and y < s - t]
        lo = sorted(y for y, _ in active)
        hi = sorted(top for _, top in active)
        breaks = sorted({0, C_, *(v for v in lo + hi if 0 < v < C_)})
        for g0 in breaks[:-1]:
            depth = bisect_right(lo, g0) - bisect_right(hi, g0)
            if best is None or depth < best:
                best = depth
    return best


def check_optimize(report, k):
    problems = []
    if report.get("kind") != "optimize" or report.get("k") != k or not report.get("feasible"):
        return [f"optimize report is not a feasible k={k} search"]
    ux, uy = (F(v) for v in report["u"])
    vx, vy = (F(v) for v in report["v"])
    if uy != 0 or ux <= 0 or vy <= 0:
        return ["searched basis is not normalized to (a, 0), (b, c)"]
    det = ux * vy - uy * vx
    density = F(1, 2) / det
    target = F(2 * k + 1, 2)
    if F(report["det"]) != det or F(report["density"]) != density:
        problems.append("reported det or density differs from the basis")
    if density < target:
        problems.append(f"density {density} beats the optimum {target}")
    if density > target * F(101, 100):
        problems.append(f"density {float(density):.6f} is more than 1% above {target}")
    mult = lattice_multiplicity(ux, vx, vy)
    if mult < k or mult != report["multiplicity"]:
        problems.append(
            f"multiplicity recounts to {mult}, report says {report['multiplicity']} (k = {k})"
        )
    return problems


def check_ops(ops: dict, reports: dict, svgs: dict) -> dict:
    """Problems per op label, for one workload's ops.json and its outputs.

    `reports` and `svgs` map op labels to parsed reports and SVG texts; a
    missing report is itself a problem.
    """
    instances = {}
    cells_of = {}
    covers_of = {}
    for op in ops["ops"]:
        if op["command"] == "decompose" and op["label"] in reports:
            try:
                cells_of[op["instance"]] = parse_cells(reports[op["label"]])
            except (KeyError, TypeError, ValueError):
                pass  # the decompose op's own check reports it
    out = {}

    def cover(name):
        if name not in covers_of and name in cells_of:
            k, l, corners = instances[name]
            covers_of[name] = certify_cover(cells_of[name], corners, k, l)
        return covers_of.get(name)

    for op in ops["ops"]:
        label = op["label"]
        report = reports.get(label)
        if report is None:
            out[label] = ["no report written"]
            continue
        name = op["instance"]
        if name is not None and name not in instances:
            instances[name] = load_instance(ops["instances"][name]["path"])
        inst = instances.get(name)
        facts = ops["instances"].get(name) if name else None
        cells = cells_of.get(name)
        try:
            if op["command"] in ("audit", "bounds") and cells is None:
                problems = ["no decomposition of the instance to check against"]
            elif op["command"] == "verify":
                problems = check_verify(report, inst, facts, cover(name))
            elif op["command"] == "decompose":
                problems = check_decompose(report, inst, facts, cover(name), svgs.get(label))
            elif op["command"] == "audit" and "corrupt" in op["expect"]:
                problems = check_corrupt_audit(report, inst, cells, op["expect"]["corrupt"])
            elif op["command"] == "audit":
                problems = check_audit(report, inst, facts, cells, cover(name))
            elif op["command"] == "bounds":
                problems = check_bounds(report, inst, cells)
            elif op["command"] == "optimize":
                problems = check_optimize(report, op["expect"]["k"])
            else:
                problems = [f"no checker for {op['command']}"]
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            problems = [f"malformed report: {exc!r}"]
        out[label] = problems
    return out
