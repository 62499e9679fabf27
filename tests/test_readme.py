"""The README's library quickstart runs as written, and it and the modules
account for every name `import zdkit` exports."""

import ast
import pathlib
import re

import numpy as np

import zdkit

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_runs(capsys):
    block = _quickstart()
    np.random.seed(0)  # the quickstart draws its payoffs from np.random
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] in ("True", "False")
    assert lines[1].split()[0] in ("True", "False")


def test_every_export_is_used_by_a_module_or_the_quickstart():
    # the package docstring promises this, so a name only the tests call
    # (a wrapper around assemble, say) cannot come back as an export
    src = pathlib.Path(zdkit.__file__).parent
    exported = {alias.asname or alias.name
                for node in ast.parse((src / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = {node.id for node in ast.walk(ast.parse(_quickstart()))
            if isinstance(node, ast.Name)}
    for path in src.glob("*.py"):
        if path.name != "__init__.py":
            used |= {alias.name for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.ImportFrom) and node.level == 1
                     for alias in node.names}
    assert exported and sorted(exported - used) == []
