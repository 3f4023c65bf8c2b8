"""Benchmark of the staircover CLI: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It generates the workload's corpus from the
seed (corpus.py), times a fresh interpreter's import of staircover several
times (`setup_s`), runs the op list in a worker process (worker.py), checks
every report apart from the program (checks.py) and prints, as the last line
of standard output, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. Outputs of the last run of each
workload stay under perfbench/_work/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402

SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 170  # a run must end within 180 s

ONE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def child_env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, **ONE_THREAD)
    # imports read cached bytecode, as an installed CLI's do
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def time_setup(env) -> float:
    """Median wall time of a fresh interpreter importing staircover.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import staircover.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def read_outputs(ops):
    reports, svgs = {}, {}
    for op in ops["ops"]:
        try:
            with open(op["report"], encoding="utf-8") as fh:
                reports[op["label"]] = json.load(fh)
        except (OSError, ValueError):
            continue
        if "svg" in op:
            try:
                with open(op["svg"], encoding="utf-8") as fh:
                    svgs[op["label"]] = fh.read()
            except OSError:
                svgs[op["label"]] = ""
    return reports, svgs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "staircover", "cli.py")):
        print(f"error: no staircover sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = os.path.join("perfbench", "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    ops = corpus.build(args.workload, args.seed, work)
    env = child_env(src)
    setup_s = time_setup(env)

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--work", work,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with open(os.path.join(work, "stdout.txt"), "w") as out, \
            open(os.path.join(work, "stderr.txt"), "w") as err:
        proc = subprocess.run(cmd, env=env, stdout=out, stderr=err, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}; see {work}/stderr.txt",
              file=sys.stderr)
        return 1
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        res = json.load(fh)

    problems = checks.check_ops(ops, *read_outputs(ops))
    expected = [op["expect"]["exit"] for op in ops["ops"]]
    labels = [op["label"] for op in ops["ops"]]
    passes = res["passes"] + res.get("traced_passes", [])
    attempted = failed = 0
    for _, _, _, codes in passes:
        for label, code, want in zip(labels, codes, expected):
            attempted += 1
            failed += bool(problems[label]) or code != want
    for label in labels:
        for problem in problems[label]:
            print(f"FAIL {label}: {problem}", file=sys.stderr)

    if args.trace:
        from spans import LAYER_METRICS

        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        # medians over passes, so that one pass slowed by the machine
        # does not move a run's figures
        n = res["ops_per_pass"]
        walls = [w for p in res["passes"] for w in p[1]]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": statistics.median(n / p[0] for p in res["passes"]),
                          "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(walls), "unit": "s"},
            "op_cpu_s": {"value": statistics.median(sum(p[2]) / n for p in res["passes"]),
                         "unit": "s"},
            "peak_rss_mb": {"value": res["maxrss_kb"] / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
