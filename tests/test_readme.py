"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_the_closed_form_p_and_the_pipeline_p(capsys):
    """The python block under "Library use" runs, so a public name it uses
    that is removed or renamed fails here, and it prints the closed-form
    P = 0.8 and then the numeric pipeline's P within 1e-10 of it."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0.8"
    assert abs(float(lines[1]) - 0.8) <= 1e-10
