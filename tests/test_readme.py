"""README's library example runs as written against the package exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text.split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_entry_points_block_runs(capsys):
    """Every name it imports is exported, and the n=12 example refutes with
    a soundness check that passes for every sign vector."""
    scope = {}
    exec(compile(_library_block(), str(README), "exec"), scope)
    cert = scope["run"].certificate
    assert cert["params"]["n"] == 12
    assert capsys.readouterr().out == f"{cert['combined_bound']} {cert['verdict']}\n"
