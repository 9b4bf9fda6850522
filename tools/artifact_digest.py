"""Fingerprint the CLI artifacts of a fixed pipeline run.

Runs ingest, calibrate, simulate and evaluate on a synthetic fleet
(`synth_fleet_csv(n_train=10, n_test1=5, n_test2=5, seed=13)`, 400
particles, schedule stride 150, default seed), then `retire`
on every test cell, and prints the number of files written and one
combined hash: sha256 over the sorted lines `path\\0sha256(file)\\n`,
with paths relative to the output directory.  Then one line per
top-level entry of the output tree (`cells`, `sim`, `retire`, ...): its
name, its file count and the same hash over its own lines, so a changed
hash shows which stage changed.  A last `modes:` line lists the distinct
permission modes of those files (`modes: 0o644`); it is part of no hash.

    python3 tools/artifact_digest.py [CHECKOUT]

CHECKOUT (default: the checkout holding this script) is the tree whose
`src/` is imported, so two commits can be compared with the same script.
The hash can depend on the numpy build and the CPU; compare two commits
on one host, not against a pinned value.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import stat
import sys
import tempfile
from pathlib import Path


def import_package(checkout: Path):
    """Import cell_twin from `checkout`/src, and only from there."""
    init = checkout / "src" / "cell_twin" / "__init__.py"
    if not init.is_file():
        sys.exit(f"artifact_digest: {init} not found")
    sys.path.insert(0, str(init.parent.parent))
    import cell_twin

    if Path(cell_twin.__file__).resolve() != init.resolve():
        sys.exit(f"artifact_digest: imported cell_twin from {cell_twin.__file__}, not {init}")
    return cell_twin


def run_pipeline(work: Path) -> Path:
    from cell_twin.cli import main
    from cell_twin.synth import synth_fleet_csv

    data_csv = work / "fleet.csv"
    synth_fleet_csv(data_csv, n_train=10, n_test1=5, n_test2=5, seed=13)
    out = work / "out"
    cfg = work / "config.json"
    cfg.write_text(json.dumps({
        "dataset": str(data_csv),
        "output_dir": str(out),
        "filter": {"n_particles": 400},
        "schedule": {"stride": 150},
    }))

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([argv[0], "--config", str(cfg), *argv[1:]])
        if code != 0:
            sys.exit(f"artifact_digest: {' '.join(argv)} exited {code}")

    for cmd in ["ingest", "calibrate", "simulate", "evaluate"]:
        run(cmd)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for cell_id, split in sorted(manifest.items()):
        if split != "train":
            run("retire", "--cell", cell_id)
    return out


def count_and_hash(lines: list[str]) -> tuple[int, str]:
    return len(lines), hashlib.sha256("".join(sorted(lines)).encode("utf-8")).hexdigest()


def digest(root: Path) -> tuple[int, str, dict[str, tuple[int, str]]]:
    """(file count, combined hash) of the tree at `root`, and the same pair per top-level entry."""
    entries: dict[str, list[str]] = {}
    for p in root.rglob("*"):
        if p.is_file():
            rel = p.relative_to(root)
            entries.setdefault(rel.parts[0], []).append(
                f"{rel.as_posix()}\0{hashlib.sha256(p.read_bytes()).hexdigest()}\n"
            )
    per_entry = {name: count_and_hash(lines) for name, lines in sorted(entries.items())}
    return (*count_and_hash([line for lines in entries.values() for line in lines]), per_entry)


def modes(root: Path) -> list[str]:
    """The distinct permission modes of the files under `root`, in octal, sorted."""
    return sorted({oct(stat.S_IMODE(p.stat().st_mode)) for p in root.rglob("*") if p.is_file()})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    import_package(args.checkout.resolve())
    with tempfile.TemporaryDirectory(prefix="artifact_digest_") as tmp:
        out = run_pipeline(Path(tmp))
        n_files, combined, per_entry = digest(out)
        file_modes = modes(out)
    print(f"files: {n_files}")
    print(f"sha256: {combined}")
    for name, (n, h) in per_entry.items():
        print(f"{name}: {n} files, sha256 {h}")
    print("modes: " + " ".join(file_modes))


if __name__ == "__main__":
    main()
