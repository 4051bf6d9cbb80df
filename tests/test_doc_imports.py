"""Every ``repro`` name the examples and the docs import still resolves.

Package ``__init__`` modules import nothing, so ``from repro.core import
HoneypotExperiment`` fails where ``from repro.core.experiment import
HoneypotExperiment`` works.  Nothing else runs the docs' snippets, and
tier-1 runs only the fast examples.  This test parses ``examples/*.py``
and every python code block of ``README.md`` and ``docs/*.md``, imports
each ``repro`` module they name and looks up each imported name, without
running the scripts.  A moved name fails here under its source, line
and dotted name.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path
from typing import Iterator, Optional, Tuple

import pytest

REPO = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def sources() -> Iterator[Tuple[str, str, int]]:
    """(path, python source, line offset of the source in the file)."""
    for path in sorted((REPO / "examples").glob("*.py")):
        yield str(path.relative_to(REPO)), path.read_text(), 0
    for path in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        text = path.read_text()
        for block in FENCE.finditer(text):
            offset = text.count("\n", 0, block.start(1))
            yield str(path.relative_to(REPO)), block.group(1), offset


def imported_names() -> Iterator[Tuple[str, int, str, Optional[str]]]:
    """(path, line, module, name or None) for each ``repro`` import."""
    for path, source, offset in sources():
        for node in ast.walk(ast.parse(source, filename=path)):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if (node.module or "").split(".")[0] != "repro":
                    continue
                for alias in node.names:
                    yield path, offset + node.lineno, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        yield path, offset + node.lineno, alias.name, None


SITES = [
    pytest.param(
        module, name,
        id=f"{path}:{line}:{module}" + (f".{name}" if name else ""),
    )
    for path, line, module, name in imported_names()
]


def test_the_sources_hold_repro_imports():
    paths = {param.id.split(":")[0] for param in SITES}
    assert "README.md" in paths
    assert "examples/paper_reproduction.py" in paths


@pytest.mark.parametrize("module, name", SITES)
def test_imported_name_resolves(module, name):
    imported = importlib.import_module(module)
    if name is None or hasattr(imported, name):
        return
    # ``from package import submodule`` imports the submodule
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError as error:
        if error.name != f"{module}.{name}":
            raise
        pytest.fail(f"'from {module} import {name}': {module} has no {name}")
