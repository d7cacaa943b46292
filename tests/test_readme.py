"""The README's library tour runs as written against the top-level package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md (Library tour)", "exec"), namespace)
    assert namespace["swap_expectation"](namespace["bell"]) > 0.999
    assert namespace["ledger"].dynamical == 0.0
