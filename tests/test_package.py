"""The package's public surface is README's Library section, and its example runs.

The Library section's Python block imports names from ``strap``, and the
paragraph after it names the rest of what the package exports. Every other
name lives in its submodule.
"""

from __future__ import annotations

import ast
import re
import types
from pathlib import Path

import strap

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section():
    text = README.read_text(encoding="utf-8")
    return text[text.index("\n## Library\n") : text.index("\n## ", text.index("\n## Library\n") + 1)]


def _library_block():
    return re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)


def _documented_exports():
    """The names the block imports from strap, and the backticked names of
    the paragraph that says what else the package exports."""
    imported = {
        alias.name
        for node in ast.walk(ast.parse(_library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "strap"
        for alias in node.names
    }
    paragraph = re.search(r"The package itself exports only.*?\n\n", _library_section(), re.S).group(0)
    named = paragraph[: paragraph.index("Every other name")]
    return imported | set(re.findall(r"`(\w+)`", named))


def test_public_names_are_readmes():
    public = {
        name for name in dir(strap)
        if not name.startswith("_") and not isinstance(getattr(strap, name), types.ModuleType)
    }
    documented = _documented_exports()
    assert "__version__" in documented and isinstance(strap.__version__, str)
    assert public == documented - {"__version__"}


def test_readme_library_example_runs(capsys):
    exec(compile(_library_block(), str(README), "exec"), {})
    reduction, coverage, apfd = capsys.readouterr().out.split()
    assert 0 < float(reduction) < 1 and 0 <= float(coverage) <= 1 and 0 <= float(apfd) <= 1
