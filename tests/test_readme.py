"""The README's library tour runs as written against the top-level package, and
its circuit lexicon is the scanner's own pattern."""

import re
from pathlib import Path

from spinphase.circuits import _TOKEN

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md (Library tour)", "exec"), namespace)
    assert namespace["swap_expectation"](namespace["bell"]) > 0.999
    assert namespace["dynamical"] == 0.0


def test_circuit_lexicon_is_the_scanner_pattern():
    section = README.read_text(encoding="utf-8").split("## Circuit language", 1)[1]
    assert re.findall(r"```\n(.*?)\n```", section, re.DOTALL)[1] == _TOKEN.pattern
