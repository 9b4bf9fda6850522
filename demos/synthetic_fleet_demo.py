"""End-to-end walkthrough on a synthetic fleet.

Generates a small fleet of power-law fade trajectories, then runs the full
pipeline through the CLI entry point: ingest, calibrate, simulate, retire,
evaluate. Artifacts land in ./demo_out; headline numbers print to stdout.

Run with: python3 demos/synthetic_fleet_demo.py
"""

import json
import sys
import tempfile
from pathlib import Path

from cell_twin.cli import main
from cell_twin.synth import synth_fleet_csv


def run(cmd, cfg, *extra):
    code = main([cmd, "--config", str(cfg), *extra])
    if code != 0:
        sys.exit(f"{cmd} failed with exit code {code}")


def demo(workdir: Path) -> None:
    out = Path("demo_out")
    data_csv = workdir / "fleet.csv"
    cells = synth_fleet_csv(data_csv, n_train=12, n_test1=4, n_test2=4, seed=11)
    print(f"generated {len(cells)} synthetic cells -> {data_csv.name}")

    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps({
        "dataset": str(data_csv),
        "output_dir": str(out),
        "seed": 11,
        "filter": {"n_particles": 500},
        "thresholds": {"trigger": 0.95, "eol": 0.5, "retire_floor": 0.5},
        "schedule": {"stride": 150},
    }))

    for cmd in ("ingest", "calibrate", "simulate", "evaluate"):
        print(f"\n== cell-twin {cmd} ==")
        run(cmd, cfg_path)

    cell = cells[len(cells) - 1]  # a test2 cell
    print(f"\n== cell-twin retire --cell {cell} ==")
    run("retire", cfg_path, "--cell", cell)

    decision = json.loads((out / "retire" / cell / "decision.json").read_text())
    print(f"\nretirement for {cell}: cycle {decision['optimal_cycle']}"
          f" with utility {decision['optimal_utility']:.4f}")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        demo(Path(tmp))
