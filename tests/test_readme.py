import re
from pathlib import Path

from conftest import power_law_trace

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_taste_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(block, {"trace": power_law_trace()})
    assert capsys.readouterr().out.strip()
