"""The README's library quickstart runs as written."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_runs(capsys):
    text = README.read_text()
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    np.random.seed(0)  # the quickstart draws its payoffs from np.random
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] in ("True", "False")
    assert lines[1].split()[0] in ("True", "False")
