import importlib.util
import json
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "demos" / "synthetic_fleet_demo.py"


def test_synthetic_fleet_demo_runs(tmp_path, monkeypatch, capsys):
    # the demo writes ./demo_out, so it runs from a scratch directory
    spec = importlib.util.spec_from_file_location("synthetic_fleet_demo", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.chdir(tmp_path)
    demo.demo(tmp_path)
    retired = [p.name for p in (tmp_path / "demo_out" / "retire").iterdir()]
    assert retired == ["test2_c003"]
    decision = json.loads((tmp_path / "demo_out" / "retire" / "test2_c003" / "decision.json").read_text())
    assert f"retirement for test2_c003: cycle {decision['optimal_cycle']}" in capsys.readouterr().out
