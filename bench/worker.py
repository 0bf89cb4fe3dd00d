"""One benchmark process: set up, warm up, run the timed loop, check every certificate.

``run.py`` starts this script in fresh interpreters.  With ``--role setup``
it stops after the warm-up and reports its set-up time; with ``--role run``
it goes on to the measured loop.  The last line of its standard output is
one JSON object.

Set-up is everything a user pays before the first task: importing
maternbox, generating the seeded inputs and one warm-up task per task kind
(first calls pay for lazy initialisation in numpy and BLAS).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# tasks generated per second of run time; wrapped around if a run outpaces it
_TASK_RATE_CAP = 200
# error-curve rows whose CSV text is hashed, a prefix every run completes
_CSV_ROWS = 24


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import maternbox

    where = Path(maternbox.__file__).resolve().parent
    if where != (src / "maternbox").resolve():
        raise SystemExit(f"maternbox imported from {where}, not from {src}")
    return maternbox


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "run"), default="run")
    return p.parse_args(argv)


def attempt(wl, task):
    """A task's result, or the exception it raised: a raising task fails, it does not crash."""
    try:
        return wl.run(task)
    except Exception as exc:
        return exc


def timed_loop(wl, tasks, clock, seconds):
    """Run tasks in schedule order for ``seconds``, then to the end of the cycle.

    Whole cycles give every run the same mix of task kinds.  Returns
    (results, per-task seconds, wall seconds).
    """
    width = len(wl.cycle)
    results, times = [], []
    start = now = clock()
    while now - start < seconds or len(results) % width:
        t = clock()
        results.append(attempt(wl, tasks[len(results) % len(tasks)]))
        now = clock()
        times.append(now - t)
    return results, times, now - start


def traced_loop(wl, tasks, clock, seconds, tracer, robin_cache):
    """Run each task untraced and then traced, in whole cycles, for ``seconds``.

    Interleaving puts both runs of a task under the same machine load, so
    their time ratio is the tracing overhead.  The Robin eigenpair cache is
    emptied before each run so both start alike; tasks draw fresh box
    lengths, so no reuse across tasks is lost.  Returns (untraced results,
    traced results, untraced seconds, traced seconds, Robin cache lookups
    and hits of the traced runs).
    """
    width = len(wl.cycle)
    plain, traced = [], []
    plain_s = traced_s = 0.0
    lookups = hits = 0
    start = clock()
    while clock() - start < seconds or len(plain) % width:
        task = tasks[len(plain) % len(tasks)]
        robin_cache.cache_clear()
        t = clock()
        plain.append(attempt(wl, task))
        plain_s += clock() - t
        robin_cache.cache_clear()
        tracer.task = len(traced)
        with tracer:
            t = clock()
            traced.append(attempt(wl, task))
            traced_s += clock() - t
        info = robin_cache.cache_info()
        lookups += info.hits + info.misses
        hits += info.hits
    return plain, traced, plain_s, traced_s, lookups, hits


def check_all(wl, tasks, results):
    """Failure messages per task index, for tasks that raised or did not certify.

    Newest first, so checks that read the program's caches (the Robin
    eigenpairs) find the most entries still there.
    """
    failures = {}
    for i, res in reversed(list(enumerate(results))):
        task = tasks[i % len(tasks)]
        if isinstance(res, Exception):
            failures[i] = [f"raised {type(res).__name__}: {res}"]
            continue
        try:
            bad = wl.check(task, res)
        except Exception as exc:
            bad = [f"check raised {type(exc).__name__}: {exc}"]
        if bad:
            failures[i] = bad
    return failures


def tail_time(times):
    """The highest percentile with at least ten tasks beyond it: (seconds, percentile)."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "seed": seed}


def main(argv=None):
    args = _parse(argv)
    clock = time.perf_counter
    _import_package()
    from maternbox import spectral
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    width = len(wl.cycle)
    cycles = 1 + -(-int(args.seconds * _TASK_RATE_CAP) // width)
    schedule = wl.tasks(args.seed, cycles)
    # the first cycle warms up every task kind; the measured schedule follows it
    warm, tasks = schedule[:width], schedule[width:]
    for task in warm:
        wl.run(task)
    setup_s = clock() - _T0
    out = {"role": args.role, "setup_s": setup_s}
    if args.role == "setup":
        print(json.dumps(out))
        return 0

    out["env"] = environment(args.seed)
    if args.trace == 0:
        results, times, wall = timed_loop(wl, tasks, clock, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = check_all(wl, tasks, results)
        n = len(results)
        tail_s, tail_pct = tail_time(times)
        tails = [r.tail for r in results if not isinstance(r, Exception)]
        # throughput of one cycle at the median time of each task kind: a burst
        # of machine-speed change moves a median less than a total
        cycle_s = sum(statistics.median(times[j::width]) for j in range(width))
        out.update(attempted=n, failed=len(failures), wall_s=wall,
                   completed_per_s=(n - len(failures)) / wall,
                   tasks_per_s=(n - len(failures)) / n * width / cycle_s,
                   task_p50_s=statistics.median(times), task_tail_s=tail_s,
                   task_tail_pct=tail_pct, peak_rss_mb=rss_mb,
                   cert_tail_max=max(tails, default=0.0), task_times_s=times)
        csv = [r.csv for r in results if not isinstance(r, Exception) and r.csv]
        if csv:
            out["csv_sha256"] = hashlib.sha256("".join(csv[:_CSV_ROWS]).encode()).hexdigest()
            out["csv_rows"] = min(len(csv), _CSV_ROWS)
    else:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        plain, traced, plain_s, traced_s, lookups, hits = traced_loop(
            wl, tasks, clock, args.seconds, tracer, spectral._robin_cached)
        n = len(plain)
        failures = check_all(wl, tasks, plain)
        same = all(not isinstance(a, Exception) and not isinstance(b, Exception)
                   and a.digest == b.digest for a, b in zip(plain, traced))
        layers = layer_metrics(tracer, n)
        layers["spectral.robin_cache.reuse_ratio"] = (hits / lookups if lookups else 0.0,
                                                      "ratio")
        layers["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
        spans_dir = BENCH / "out"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"spans-{args.workload}.csv.gz")
        out.update(attempted=n, failed=len(failures), bitwise_equal=same,
                   spans=len(tracer.spans), plain_s=plain_s, traced_s=traced_s,
                   layers={k: {"value": v, "unit": u} for k, (v, u) in layers.items()})
    out["failures"] = {str(i): msgs[:3] for i, msgs in sorted(failures.items())[:20]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
