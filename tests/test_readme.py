"""The README's library quick tour runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs(capsys) -> None:
    section = README.read_text().split("## Library quick tour", 1)[1]
    tour = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(tour, f"{README} (library quick tour)", "exec"), {"__name__": "tour"})
    assert len(capsys.readouterr().out.splitlines()) == 4
