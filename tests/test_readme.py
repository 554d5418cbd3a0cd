"""README's "Library quick start" block runs against the library in src/,
and every value it shows in a trailing comment is the value it computes."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library quick start\s+```python\n(.*?)```", text, re.S)
    assert match, "README has no Library quick start block"
    return match.group(1)


def test_quick_start_runs_and_shows_its_values():
    namespace: dict = {}
    shown_values = 0
    for line in quick_start().splitlines():
        code, _, note = line.partition("  #")
        if not code.strip():
            continue
        try:  # a note that is a value, such as "3.0" or "array([2., 3., 3.])"
            shown = eval(note.strip(), {"array": np.array})
        except (SyntaxError, NameError):  # prose
            exec(code, namespace)
            continue
        assert np.array_equal(eval(code, namespace), shown), line
        shown_values += 1
    assert shown_values >= 2
