"""tools/bench_ab.py: the verdict rule on made-up runs, and one tiny run of two checkouts."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def runs(throughputs):
    metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    return [{"metrics": {**metrics, "throughput_per_s": t}} for t in throughputs]


def verdict(parent, change):
    rows = bench_ab.compare(runs(parent), runs(change), SPEC)
    return next(r for r in rows if r[0] == "throughput_per_s")


def test_seed_range():
    assert bench_ab.seed_range("1-10") == list(range(1, 11))
    assert bench_ab.seed_range("3") == [3]
    assert bench_ab.seed_range("1,4-5") == [1, 4, 5]


@pytest.mark.parametrize(
    "parent, change, wins, expect",
    [
        ([100.0] * 10, [150.0] * 10, "10/10", "gain"),
        ([100.0] * 10, [150.0] * 8 + [90.0] * 2, "8/10", "within"),  # fewer than 9 of 10 pairs won
        ([100.0] * 10, [120.0] * 10, "10/10", "within"),  # better, but by less than the 0.24 bound
        ([100.0] * 10, [70.0] * 10, "0/10", "WORSE"),
        ([100.0] * 10, [100.0] * 10, "0/10", "within"),  # ties count for neither side
    ],
)
def test_verdict(parent, change, wins, expect):
    row = verdict(parent, change)
    assert row[6] == wins and row[7] == expect


def test_gain_needs_more_than_the_parent_iqr():
    parent = [60.0, 60.0, 60.0, 100.0, 100.0, 100.0, 140.0, 140.0, 140.0, 140.0]
    row = verdict(parent, [p * 1.3 for p in parent])  # median +30%, every pair won, parent IQR 70 > 30
    assert row[6] == "10/10" and row[7] == "within"


def test_side_by_side_rows():
    parent = {"metrics": {m["name"]: 2.0 for m in SPEC["per_layer"]}}
    change = {"metrics": {**parent["metrics"], "filtering.snapshot_bytes": 1.0, "trace.spans": 0.0}}
    parent["metrics"]["trace.spans"] = 0.0
    rows = {r[0]: r for r in bench_ab.side_by_side(parent, change, SPEC)}
    assert list(rows) == [m["name"] for m in SPEC["per_layer"]]
    assert rows["filtering.snapshot_bytes"][1:5] == ["B", "2", "1", "-50.0%"]
    assert rows["trace.spans"][4] == "-"  # no relative change from a zero base


FAKE_RUN = """\
import json, os
print("record " + json.dumps({"nproc": len(os.sched_getaffinity(0)), "python": "3", "numpy": "2"}))
print(json.dumps({"metrics": {}, "failed": 0, "attempted": 1}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_traced_runs_alone_are_pinned_to_one_cpu(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN)
    cpus = os.sched_getaffinity(0)
    assert bench_ab.run_bench(tmp_path, "w", 1, False)["host"]["nproc"] == len(cpus)
    assert bench_ab.run_bench(tmp_path, "w", 1, False, trace=1)["host"]["nproc"] == 1
    assert bench_ab.traced_cpu() == min(cpus)
    assert os.sched_getaffinity(0) == cpus  # the child was pinned, not this process


def test_tiny_run_of_one_checkout_against_itself():
    out = subprocess.run(
        [sys.executable, "tools/bench_ab.py", ".", ".", "--tiny", "--seeds", "2", "--workloads", "online_mixed",
         "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"| {m['name']} |" in out.stdout
    assert "rul_medae_cycles equal per seed: yes" in out.stdout
    assert "online_mixed, traced (--trace 1), seed 2" in out.stdout
    assert f'traced runs pinned to CPU {min(os.sched_getaffinity(0))}, host {{"nproc": 1, ' in out.stdout
    assert len(out.stderr.splitlines()) == 4  # one result line per side, untraced and traced
