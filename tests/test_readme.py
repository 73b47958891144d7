"""README's Python examples run and print what the text around them says."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
# a python block, then optionally the sentence "prints `...`" after it
EXAMPLE = re.compile(r"```python\n(.*?)```\n\n(?:prints `([^`]*)`)?", re.S)


def examples():
    return EXAMPLE.findall(README.read_text(encoding="utf-8"))


def test_readme_has_two_python_examples():
    assert len(examples()) == 2


@pytest.mark.parametrize("index", [0, 1])
def test_example_prints_what_readme_states(index, capsys):
    code, stated = examples()[index]
    if not stated:   # the output is stated as a comment on the print line
        stated = "\n".join(re.findall(r"^print\(.*#\s*(.+)$", code, re.M))
    assert stated
    exec(compile(code, f"README example {index + 1}", "exec"), {})
    assert capsys.readouterr().out == stated + "\n"
