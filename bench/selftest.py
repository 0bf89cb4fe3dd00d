"""Tests of the benchmark itself: metric names and units, and checks that fire.

    python3 -m pytest -q bench/selftest.py
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import worker  # noqa: E402
from maternbox.experiments import Table  # noqa: E402
from workloads import WORKLOADS, Result  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "window_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _first(workload, kind, bc=None):
    wl = WORKLOADS[workload]()
    task = next(t for t in wl.tasks(3, 1) if t.kind == kind and bc in (None, t.bc))
    return wl, task, wl.run(task)


def _corrupt_gram(result, amount):
    gram = result.data.copy()
    gram[0, 1] += amount
    return dataclasses.replace(result, data=gram)


def _count_failed(wl, task, results):
    return len(worker.check_all(wl, [task], results))


def test_error_curve_check_fires_on_an_error_above_its_bound():
    for workload, kind, column, value in (
            ("window_sweep", "row_d1", "err_N", lambda v: 2.0 * v["window_bound"]),
            ("window_sweep", "row_d1", "dirichlet_bound", lambda v: 2.0 * v["lattice_bound"]),
            ("modal_sample", "row_R", "err_R", lambda v: 1.0)):
        wl, task, res = _first(workload, kind)
        table, tails = res.data
        assert wl.check(task, res) == []
        row = dict(zip(table.columns, table.rows[0]))
        row[column] = value(row)
        bad = Table(table.columns, (tuple(row[c] for c in table.columns),))
        assert _count_failed(wl, task, [dataclasses.replace(res, data=(bad, tails))]) == 1


@pytest.mark.parametrize("bc", ["N", "R"])
def test_modal_check_fires_on_a_perturbed_gram_entry(bc):
    wl, task, res = _first("modal_sample", "gram_d1", bc)
    assert wl.check(task, res) == []
    assert _count_failed(wl, task, [_corrupt_gram(res, 1e-3)]) == 1


def test_sampler_check_fires_on_a_large_deviation():
    wl, task, res = _first("modal_sample", "sampler")
    assert wl.check(task, res) == []
    cols, rows = res.data
    rows = rows.copy()
    rows[0, cols.index("abs_diff")] = 6.0 * rows[0, cols.index("std_error")]
    assert _count_failed(wl, task, [Result(res.digest, res.tail, (cols, rows))]) == 1


def test_wide_image_check_fires_on_a_perturbed_gram_entry():
    wl, task, res = _first("wide_image", "folded_d3")
    assert wl.check(task, res) == []
    assert len(wl.check(task, _corrupt_gram(res, 1e-1))) == 2  # asymmetric and off
    assert _count_failed(wl, task, [RuntimeError("boom")]) == 1


def test_same_seed_same_inputs_other_seed_other_inputs():
    wl = WORKLOADS["modal_sample"]()
    assert wl.tasks(5, 2) == wl.tasks(5, 2)
    assert wl.tasks(5, 2) != wl.tasks(6, 2)
    assert wl.tasks(5, 11)[:33] == wl.tasks(5, 3)  # run length does not change inputs
    deltas = np.array([t.delta for t in wl.tasks(5, 8)]).reshape(8, -1)
    # stratified: one draw in each eighth of the log band per column
    strata = np.floor(np.log(deltas / 0.1) / np.log(3.0) * 8).astype(int)
    assert all(sorted(col) == list(range(8)) for col in strata.T)


def test_tail_time_keeps_ten_tasks_beyond():
    times = list(np.arange(1.0, 101.0))
    value, pct = worker.tail_time(times)
    assert sum(t > value for t in times) == 10 and pct == 90.0
