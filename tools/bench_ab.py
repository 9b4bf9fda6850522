"""Compare the benchmark of two checkouts in interleaved seed pairs.

    python3 tools/bench_ab.py PARENT CHANGE [--workloads fleet_batch,online_mixed,retire_sweep] [--seeds 1-10] [--trace]

For every seed and workload, runs `python3 perfbench/run.py --workload W
--seed S --trace 0` once with PARENT and once with CHANGE as the working
directory, so each side imports its own `src/` through its own harness.
Which side runs first alternates from seed to seed.  Then prints, per
workload and end-to-end metric of BENCHMARK.json (read from CHANGE):
both medians, the parent's interquartile range, the relative change, the
bound, the number of pairs the change won (ties count for neither) and
a verdict:

- `gain`: the change won at least 9 of 10 pairs, and its median is better
  by more than the parent's interquartile range and by more than the bound;
- `WORSE`: its median is worse by more than the bound;
- `within`: anything else.

It also checks that `rul_medae_cycles` is equal per seed and that no
operation failed on either side, and it refuses to compare runs whose
nproc, Python or numpy versions differ.  Each run's result goes to
stderr as one JSON line while the comparison proceeds.  Exit status: 0
when both checks hold, 1 when one fails, 2 when the runs cannot be
compared.

With `--trace`, it then runs `--trace 1` once per side and workload on
the first seed and prints every per-layer metric of BENCHMARK.json side
by side, with the relative change: one traced run each, so it shows where
a gain lands, not whether it is beyond the noise.  Each traced run is
pinned to one CPU (the lowest this tool may use), so `simulate` runs its
cells in the traced process and the trace records every span; the traced
runs' host records (nproc 1) are compared among themselves.

`--tiny` runs the harness's smoke sizes for 1 s: a check of this tool,
not a measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SAME_HOST_KEYS = ("nproc", "python", "numpy")


def seed_range(text: str) -> list[int]:
    """'1-10' or '3' or '1,4,7' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def traced_cpu() -> int:
    """The CPU that traced runs are pinned to."""
    return min(os.sched_getaffinity(0))


def pin_to_traced_cpu():
    """Restrict the calling process, a child between fork and exec, to `traced_cpu()`."""
    os.sched_setaffinity(0, {traced_cpu()})


def run_bench(checkout: Path, workload: str, seed: int, tiny: bool, trace: int = 0) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if tiny:
        argv += ["--tiny", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          preexec_fn=pin_to_traced_cpu if trace else None)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("record "):
        sys.exit(f"bench_ab: {checkout}: {workload} seed {seed} trace {trace} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    record = json.loads(lines[-2][len("record "):])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "host": {k: record[k] for k in SAME_HOST_KEYS},
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[list[str]]:
    """One table row per end-to-end metric of one workload's paired runs."""
    rows = []
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        p_med, c_med = statistics.median(p), statistics.median(c)
        q1, q3 = quartiles(p)
        rel = c_med / p_med - 1.0 if p_med else 0.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
        if wins >= 0.9 * len(p) and abs(c_med - p_med) > q3 - q1 and sign * rel > m["bound"]:
            verdict = "gain"
        elif -sign * rel > m["bound"]:
            verdict = "WORSE"
        else:
            verdict = "within"
        rows.append([
            name, f"{p_med:.4g}", f"{c_med:.4g}", f"{q3 - q1:.3g}", f"{100 * rel:+.1f}%",
            f"{m['bound']:g}", f"{wins}/{len(p)}", verdict,
        ])
    return rows


def side_by_side(parent: dict, change: dict, spec: dict) -> list[list[str]]:
    """One table row per per-layer metric of one traced run per side."""
    rows = []
    for m in spec["per_layer"]:
        p, c = parent["metrics"][m["name"]], change["metrics"][m["name"]]
        rel = f"{100 * (c / p - 1.0):+.1f}%" if p else "-"
        rows.append([m["name"], m["unit"], f"{p:.4g}", f"{c:.4g}", rel, m["better"]])
    return rows


def print_table(header: list[str], rows: list[list[str]]):
    print("| " + " | ".join(header) + " |\n|" + "---|" * len(header))
    for row in rows:
        print("| " + " | ".join(row) + " |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", default=None, help="comma-separated (default: every workload)")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", action="store_true", help="then one traced run per side on the first seed")
    parser.add_argument("--tiny", action="store_true", help="smoke sizes for 1 s (checks this tool only)")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    runs = {(side, w): [] for side in sides for w in workloads}
    for i, seed in enumerate(args.seeds):
        for w in workloads:
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                r = run_bench(sides[side], w, seed, args.tiny)
                runs[side, w].append(r)
                print(json.dumps({"side": side, "workload": w, "seed": seed, **r}), file=sys.stderr, flush=True)
    traced = {}
    if args.trace:
        for w in workloads:
            for side in sides:
                r = traced[side, w] = run_bench(sides[side], w, args.seeds[0], args.tiny, trace=1)
                print(json.dumps({"side": side, "workload": w, "seed": args.seeds[0], "trace": 1, **r}),
                      file=sys.stderr, flush=True)

    hosts = {json.dumps(r["host"], sort_keys=True) for rs in runs.values() for r in rs}
    traced_hosts = {json.dumps(r["host"], sort_keys=True) for r in traced.values()}
    for kind, found in (("runs", hosts), ("traced runs", traced_hosts)):
        if len(found) > 1:
            print(f"bench_ab: {kind} differ in {', '.join(SAME_HOST_KEYS)}: {sorted(found)}", file=sys.stderr)
            return 2

    header = ["metric", "parent", "change", "parent IQR", "rel. change", "bound", "wins", "verdict"]
    ok = True
    print(f"seeds {args.seeds[0]}-{args.seeds[-1]} ({len(args.seeds)} pairs), host {hosts.pop()}")
    if args.trace:
        print(f"traced runs pinned to CPU {traced_cpu()}, host {traced_hosts.pop()}")
    for w in workloads:
        parent, change = runs["parent", w], runs["change", w]
        print(f"\n{w}\n")
        print_table(header, compare(parent, change, spec))
        unequal = [s for s, p, c in zip(args.seeds, parent, change)
                   if p["metrics"]["rul_medae_cycles"] != c["metrics"]["rul_medae_cycles"]]
        failed = sum(r["failed"] for r in parent), sum(r["failed"] for r in change)
        attempted = sum(r["attempted"] for r in parent), sum(r["attempted"] for r in change)
        print(f"\nrul_medae_cycles equal per seed: {'yes' if not unequal else f'no, seeds {unequal}'}; "
              f"failed {failed[0]}/{attempted[0]} parent, {failed[1]}/{attempted[1]} change")
        ok = ok and not unequal and failed == (0, 0)
        if args.trace:
            p, c = traced["parent", w], traced["change", w]
            print(f"\n{w}, traced (--trace 1), seed {args.seeds[0]}\n")
            print_table(["metric", "unit", "parent", "change", "rel. change", "better"], side_by_side(p, c, spec))
            print(f"\nfailed {p['failed']}/{p['attempted']} parent, {c['failed']}/{c['attempted']} change")
            ok = ok and p["failed"] == c["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
