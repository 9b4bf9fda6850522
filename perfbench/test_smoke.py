"""Smoke tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench -q
Every workload runs on a few cells, untraced and traced, and must print
every metric BENCHMARK.json names with 0 failed operations.
"""

import json
import shutil
import subprocess
import threading
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_and_fails_nothing(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, "--workload", "fleet_batch", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_self_time_subtracts_direct_children():
    rec = tracing.SpanRecorder()
    outer = rec.begin(rec.name_id("a.outer"))
    inner = rec.begin(rec.name_id("b.inner"))
    leaf = rec.begin(rec.name_id("c.leaf"))
    for span in (leaf, inner, outer):
        rec.finish(*span)
    buf = outer[0]
    for idx, (start, end) in enumerate([(0, 100), (10, 60), (20, 30)]):
        buf.start[idx], buf.end[idx] = start, end
    by = tracing.reduce_spans(rec)["by_name"]
    assert by["a.outer"]["self_s"] == pytest.approx(50e-9)
    assert by["b.inner"]["self_s"] == pytest.approx(40e-9)
    assert by["c.leaf"]["self_s"] == pytest.approx(10e-9)
    assert by["a.outer"]["incl_s"] == pytest.approx(100e-9)
    # wrapper cost: 5 ns inside every span, 3 ns outside every same-thread child
    by = tracing.reduce_spans(rec, (5.0, 3.0))["by_name"]
    assert by["a.outer"]["self_s"] == pytest.approx(42e-9)
    assert by["b.inner"]["self_s"] == pytest.approx(32e-9)
    assert by["c.leaf"]["self_s"] == pytest.approx(5e-9)
    assert by["a.outer"]["incl_s"] == pytest.approx(100e-9)


def test_span_cost_is_measured_and_non_negative():
    inside, outside = tracing.span_cost_ns(calls=2000, repeats=3)
    assert 0.0 <= inside < 1e6 and 0.0 < outside < 1e6


def test_patched_wraps_functions_and_class_methods_and_restores_them():
    class Codec:
        @classmethod
        def load(cls, s):
            return cls, s

        def save(self):
            return "x"

    original_save = Codec.__dict__["save"]
    rec = tracing.SpanRecorder()
    targets = [(Codec, "load", "codec.load", None), (Codec, "save", "codec.save", lambda r, a, k, out: r.count("n", 1))]
    with tracing.patched(rec, targets):
        assert Codec.load("s") == (Codec, "s")
        assert Codec().save() == "x"
    assert Codec.__dict__["save"] is original_save
    assert isinstance(Codec.__dict__["load"], classmethod)
    assert Codec().save() == "x"
    by = tracing.reduce_spans(rec)["by_name"]
    assert by["codec.load"]["calls"] == 1 and by["codec.save"]["calls"] == 1
    assert rec.counters() == {"n": 1}


def test_worker_thread_spans_count_once_under_their_command():
    rec = tracing.SpanRecorder()
    rec.request = 7
    command = rec.begin(rec.name_id("cli.simulate"))

    def worker():
        rec.finish(*rec.begin(rec.name_id("filtering.assimilate")))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    rec.finish(*command)
    # the command ran 0-100; the two workers overlapped on 10-60 and 40-70
    (main,) = [b for b in rec._buffers if b.is_main]
    main.start[0], main.end[0] = 0, 100
    for buf, (start, end) in zip([b for b in rec._buffers if not b.is_main], [(10, 60), (40, 70)]):
        buf.start[0], buf.end[0] = start, end
    by = tracing.reduce_spans(rec)["by_name"]
    assert by["cli.simulate"]["self_s"] == pytest.approx(40e-9)
    assert by["filtering.assimilate"]["self_s"] == pytest.approx(80e-9)
