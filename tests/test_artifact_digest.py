"""tools/artifact_digest.py: the digest of a hand-made tree, with no pipeline run."""

import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("artifact_digest", ROOT / "tools" / "artifact_digest.py")
artifact_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digest)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


FILES = {"manifest.json": "{}", "sim/b/eol.csv": "2\n", "sim/a/eol.csv": "1\n", "retire/a/decision.json": "[]"}


def test_combined_and_per_entry_hashes(tmp_path):
    line = {rel: f"{rel}\0{sha(text)}\n" for rel, text in FILES.items()}
    n, combined, per_entry = artifact_digest.digest(make_tree(tmp_path, FILES))
    assert (n, combined) == (4, sha("".join(sorted(line.values()))))
    assert per_entry == {
        "manifest.json": (1, sha(line["manifest.json"])),
        "retire": (1, sha(line["retire/a/decision.json"])),
        "sim": (2, sha(line["sim/a/eol.csv"] + line["sim/b/eol.csv"])),
    }


def test_a_changed_file_changes_only_its_entry(tmp_path):
    _, before, entries_before = artifact_digest.digest(make_tree(tmp_path / "a", FILES))
    _, after, entries_after = artifact_digest.digest(make_tree(tmp_path / "b", {**FILES, "sim/b/eol.csv": "3\n"}))
    assert before != after
    assert [name for name in entries_before if entries_before[name] != entries_after[name]] == ["sim"]


def test_modes_lists_each_distinct_mode(tmp_path):
    root = make_tree(tmp_path, FILES)
    for rel in FILES:
        (root / rel).chmod(0o644)
    (root / "sim/a/eol.csv").chmod(0o600)
    assert artifact_digest.modes(root) == ["0o600", "0o644"]
    (root / "sim/a/eol.csv").chmod(0o644)
    assert artifact_digest.modes(root) == ["0o644"]
