"""Benchmark of maternbox: certified-covariance throughput on seeded workloads.

    python3 bench/run.py --workload modal_sample --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; maternbox is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics of a traced run.  Each metric is printed
on its own line with its unit, and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The full report
(environment, failures, CSV hash, tail percentile) is also written to
``bench/out/``.

All load comes from one worker process, with BLAS pinned to one thread.
Set-up time is the median over ``SETUP_RUNS`` fresh interpreters (the
worker's own set-up among them); with ``--trace 1`` the extra interpreters
run under ``-X importtime`` for the import breakdown.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 3
# every process this script starts ends before this many seconds have passed
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_s": "s",
                    "task_tail_s": "s", "peak_rss_mb": "MB", "certified_frac": "ratio",
                    "cert_tail_max": "sigma2_rel"}
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker(args, role: str, deadline: float, importtime: bool = False):
    """Run one worker interpreter to completion; (its JSON report, its stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **_ONE_THREAD),
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker ({role}) exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1]), proc.stderr


def import_seconds(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == module:
                return int(parts[1]) / 1e6
    return 0.0


def end_to_end(setup_times, run):
    n = run["attempted"]
    return {"setup_s": statistics.median(setup_times),
            "tasks_per_s": run["tasks_per_s"], "task_p50_s": run["task_p50_s"],
            "task_tail_s": run["task_tail_s"], "peak_rss_mb": run["peak_rss_mb"],
            "certified_frac": (n - run["failed"]) / n,
            "cert_tail_max": run["cert_tail_max"]}


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "maternbox" / "__init__.py").is_file():
        print(f"no maternbox sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        extra = [_worker(args, "setup", deadline, importtime=bool(args.trace))
                 for _ in range(SETUP_RUNS - 1)]
        run, _ = _worker(args, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setup_times = [r["setup_s"] for r, _ in extra] + [run["setup_s"]]

    if args.trace:
        metrics = {k: v["value"] for k, v in run["layers"].items()}
        units = {k: v["unit"] for k, v in run["layers"].items()}
        for name, module in (("import.maternbox_s", "maternbox"),
                             ("import.scipy_integrate_s", "scipy.integrate")):
            metrics[name] = statistics.median(import_seconds(e, module) for _, e in extra)
            units[name] = "s"
        correct = run["failed"] == 0 and run["bitwise_equal"]
    else:
        metrics = end_to_end(setup_times, run)
        units = END_TO_END_UNITS
        correct = run["failed"] == 0

    report = dict(run, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  setup_runs_s=setup_times, correct=correct,
                  metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    report.pop("layers", None)
    (BENCH / "out").mkdir(exist_ok=True)
    path = BENCH / "out" / f"report-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    env = run["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup runs (s): {' '.join(f'{t:.4f}' for t in setup_times)}")
    if args.trace:
        print(f"traced outputs bitwise equal to untraced: {run['bitwise_equal']}  "
              f"({run['attempted']} tasks, {run['spans']} spans)")
    else:
        print(f"tasks: {run['attempted']} attempted, {run['failed']} failed, "
              f"failed_frac {run['failed'] / run['attempted']:.6g} ratio")
        print(f"task_tail_s is p{run['task_tail_pct']:.2f} of {run['attempted']} tasks")
        if "csv_sha256" in run:
            print(f"csv_sha256 {run['csv_sha256']} (first {run['csv_rows']} rows)")
    for i, msgs in run["failures"].items():
        print(f"FAILED task {i}: {'; '.join(msgs)}")
    width = max(len(k) for k in metrics)
    for k, v in metrics.items():
        print(f"{k:<{width}}  {v:.6g} {units[k]}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
