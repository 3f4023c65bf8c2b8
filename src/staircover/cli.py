"""Command-line front end.

Exit codes: 0 all requested checks passed, 1 checks failed (a report was
still produced), 2 usage or parse errors. Reports go to --out as JSON when
given, otherwise to stdout; identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from . import fileio, svg
from .bounds import density_chain
from .decomposition import decompose
from .geom import StairPolygon
from .lattice import (
    FlatShapeError,
    Lattice,
    lattice_covers,
    lattice_instance,
    perturb_instance,
    search_optimal_lattice,
)
from .rational import int_at_least, rat, rat_str
from .verification import coverage_certificate, run_audits


def _emit(report: dict, out_path: str | None) -> None:
    text = fileio.dump_report(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        summary = {"verify": "covers", "audit": "passed", "bounds": "holds"}.get(
            report.get("kind"), None
        )
        line = f"report written to {out_path}"
        if summary and summary in report:
            line += f" ({summary}={report[summary]})"
        print(line)
    else:
        sys.stdout.write(text)


def _load(path: str):
    try:
        return fileio.load_instance(path)
    except FileNotFoundError as exc:
        raise ValueError(f"instance file not found: {path}") from exc


def cmd_decompose(args) -> int:
    inst, _ = _load(args.instance)
    result = decompose(inst)
    cert = coverage_certificate(inst, result)
    report = fileio.report_decompose(inst, result, cert)
    if args.svg:
        text = svg.render_decomposition(result)  # may refuse; open no file first
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(text)
    _emit(report, args.out)
    return 0 if cert.covers and result.is_stair_decomposition else 1


def cmd_verify(args) -> int:
    inst, _ = _load(args.instance)
    cert = coverage_certificate(inst)
    _emit(fileio.report_verify(inst, cert), args.out)
    return 0 if cert.covers else 1


def _corrupt(result, mode: str):
    cells = list(result.cells)
    if not cells:
        raise ValueError("--corrupt needs at least one stair cell")
    if mode == "dup-cell":
        cells.insert(0, cells[0])
    elif mode == "drop-cell":
        cells.pop(0)
    else:  # shrink-cell; argparse's choices reject any other mode
        # a decomposed cell's breaks are multiples of 4 on its frame's
        # scale, so the midpoints are ints on that scale too
        i, cell = cells[0]
        xs, ys = cell.xs, cell.ys
        half_x, mid_y = (xs[0] + xs[1]) // 2, (ys[-1] + ys[-2]) // 2
        cells[0] = (i, StairPolygon((xs[0], half_x), (mid_y, ys[-1]), cell.scale))
    return dataclasses.replace(result, cells=tuple(cells))


def cmd_audit(args) -> int:
    inst, _ = _load(args.instance)
    result = decompose(inst)
    if args.corrupt:
        result = _corrupt(result, args.corrupt)
    report = run_audits(inst, result)
    _emit(fileio.report_audit(inst, report), args.out)
    return 0 if report.passed else 1


def cmd_bounds(args) -> int:
    inst, _ = _load(args.instance)
    report = density_chain(decompose(inst))
    _emit(fileio.report_bounds(inst, report), args.out)
    return 0 if report.holds else 1


def _stored_covering(store: dict, k: int) -> Lattice:
    """The stored lattice of fold k, refused unless it is a k-fold covering
    (before a search or an instance is built on it)."""
    lat = store[k][0]
    try:
        covers = lattice_covers(lat, k)
    except ValueError as exc:  # a flat lattice or a fold above the cap
        raise ValueError(f"best.{k}: {exc}") from exc
    if not covers:
        raise ValueError(f"best.{k}: not a {k}-fold lattice covering")
    return lat


def cmd_optimize(args) -> int:
    warm = ()
    store = {}
    if args.resume:
        try:
            store = fileio.load_results_store(args.resume)
        except FileNotFoundError:
            store = {}
        if args.k in store:
            warm = (_stored_covering(store, args.k),)
    try:
        report = search_optimal_lattice(
            args.k, budget=args.budget, seed_grid=args.seed_grid, warm_starts=warm
        )
    except FlatShapeError as exc:  # warm starts passed `_stored_covering`; shapes follow the grid
        raise ValueError(f"--seed-grid {args.seed_grid}: {exc}") from exc
    _emit(fileio.report_optimize(report), args.out)
    if report.feasible:
        print(
            f"k={args.k}: density {rat_str(report.density)} "
            f"(target {rat_str(report.target_density)}, gap {rat_str(report.gap)})",
            file=sys.stderr,
        )
        if args.resume:
            prev = store.get(args.k)
            if prev is None or report.lattice.det > prev[0].det:
                store[args.k] = (report.lattice, report.multiplicity)
            fileio.save_results_store(args.resume, store)
        return 0
    print(f"k={args.k}: {report.message}", file=sys.stderr)
    return 1


def _option(name: str, parse, raw):
    """parse(raw), its refusal named by the option: "--name <reason>"."""
    try:
        return parse(raw)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{name} {exc}") from exc


def _basis(text: str) -> Lattice:
    parts = [rat(v) for half in text.split(";") for v in half.split(",")]
    if len(parts) != 4:
        raise ValueError("expected ux,uy;vx,vy")
    return Lattice.of(*parts)


def cmd_gen_lattice(args) -> int:
    _option("--k", lambda k: int_at_least(k, 1, "fold must be a positive integer"), args.k)
    side = _option("--l", rat, args.l)
    if side <= 0:
        raise ValueError(f"--l window side must be positive, got {rat_str(side)}")
    magnitude = _option("--perturb", rat, args.perturb) if args.perturb is not None else None
    if args.basis:
        lat = _option("--basis", _basis, args.basis)
    elif args.results:
        try:
            store = fileio.load_results_store(args.results)
        except FileNotFoundError as exc:
            raise ValueError(f"results file not found: {args.results}") from exc
        if args.k not in store:
            raise ValueError(f"no stored lattice for k={args.k}")
        lat = _stored_covering(store, args.k)
    else:
        raise ValueError("need --basis or --results")
    inst = lattice_instance(lat, side, args.k)
    provenance = (
        f"lattice u={rat_str(lat.u.x)},{rat_str(lat.u.y)} "
        f"v={rat_str(lat.v.x)},{rat_str(lat.v.y)}"
    )
    if magnitude is not None:
        inst = _option("--perturb", lambda m: perturb_instance(inst, m, args.seed), magnitude)
        provenance += f" perturbed by {rat_str(magnitude)} (seed {args.seed})"
    meta = {
        "name": args.name or f"lattice-k{args.k}-l{rat_str(inst.window)}",
        "seed": args.seed,
        "provenance": provenance,
    }
    text = fileio.dump_report(fileio.instance_to_json(inst, meta))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"instance with {inst.size} translates written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staircover",
        description="Exact stair-polygon decomposition, verification and "
        "density tooling for k-fold triangle coverings of a square window.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose an instance into cells")
    p.add_argument("instance")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--svg", help="render the cells to this SVG file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="exact k-fold coverage check")
    p.add_argument("instance")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit", help="run the full structural audit suite")
    p.add_argument("instance")
    p.add_argument("--out")
    p.add_argument(
        "--corrupt",
        choices=("dup-cell", "drop-cell", "shrink-cell"),
        help="debug: corrupt the decomposition before auditing",
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("bounds", help="evaluate the window-area bound chain")
    p.add_argument("instance")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("optimize", help="search for the densest k-fold covering lattice")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--budget", type=int, default=6000,
        help="most lattice feasibility checks the search may make (default %(default)s); "
        "the search stops at the best lattice found when they run out",
    )
    p.add_argument(
        "--seed-grid", type=int, default=6, metavar="N",
        help="scan the basis shapes b/a, c/a on the 1/N grid, from (0, 1/N) on, until "
        "the budget runs out, before refining (default %(default)s); a coarser grid "
        "can waste the budget: with --k 2, N=3 uses all 6000 checks and stops 5.9%% "
        "above 5/2, while N=6 reaches 5/2 within 1%% in 2083; a shape whose critical "
        "size needs more than 1000 lattice rows is refused, and (0, 1/N) is from "
        "N = 489 to 969 on, by k",
    )
    p.add_argument("--resume", help="results file for warm starts and persistence")
    p.add_argument("--out")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("gen-lattice", help="materialize an instance from a lattice")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--results", help="stored-lattice file to read")
    p.add_argument("--basis", help='explicit basis "ux,uy;vx,vy"')
    p.add_argument("--perturb", help="random covering-preserving shift magnitude")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized fixtures")
    p.add_argument("--name")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_lattice)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. a directory given as a file
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
