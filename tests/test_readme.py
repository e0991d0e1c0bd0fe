"""The README's library example runs as printed."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The fenced Python block under the README's "Library example" heading."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under 'Library example'"
    return match.group(1)


def test_library_example_prints_a_finite_trap_time():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    label, value = out.getvalue().strip().rsplit(":", 1)
    assert label == "time trapped near the slow spot"
    assert math.isfinite(float(value))
