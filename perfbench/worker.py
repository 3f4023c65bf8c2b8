"""Runs one workload's op list in process through `staircover.cli.main`.

Started by run.py in a fresh interpreter, with one working thread and the
checkout's `src` on PYTHONPATH. It runs one untimed warm-up pass, then whole
timed passes over the op list, always in the same order, until `--seconds`
of pass wall time have gone by. With `--trace 1` it then installs the span
tracer and runs as many traced passes again. It writes per-op wall and CPU
times, exit codes, its peak resident memory and (traced) the per-layer
metrics to `<work>/result.json`; checking the outputs is left to run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def run_pass(main, ops):
    """(pass wall s, [op wall s], [op cpu s], [exit code]) of one pass."""
    walls, cpus, codes = [], [], []
    clock, cpu = time.perf_counter, time.process_time
    start = clock()
    for op in ops:
        c0, t0 = cpu(), clock()
        try:
            code = main(op["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that raises is a failed op, not a failed run
            traceback.print_exc()
            code = None
        t1, c1 = clock(), cpu()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        codes.append(code)
    return clock() - start, walls, cpus, codes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", required=True,
                    help="corpus directory: reads ops.json, writes result.json and spans.jsonl")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    import staircover.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"staircover imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(os.path.join(args.work, "ops.json"), encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]

    run_pass(cli.main, ops)  # warm-up
    passes = []
    while not passes or sum(p[0] for p in passes) < args.seconds:
        passes.append(run_pass(cli.main, ops))
    result = {"ops_per_pass": len(ops), "passes": passes}

    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        op_main = tracer.wrap(spans.OP_SPAN, cli.main)
        traced = []
        for n in range(len(passes)):
            tracer.keep = n == 0
            traced.append(run_pass(op_main, ops))
        tracer.keep = False
        untraced_wall = sum(p[0] for p in passes) / len(passes)
        traced_wall = sum(p[0] for p in traced) / len(traced)
        result["layers"] = spans.layer_metrics(
            tracer.spans, len(traced), untraced_wall, traced_wall
        )
        result["traced_passes"] = traced
        tracer.dump(os.path.join(args.work, "spans.jsonl"))

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
