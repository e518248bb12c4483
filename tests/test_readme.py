"""The README's library examples run as written, against the package's exports.

Every ```python block of README.md is executed in order in one namespace,
so a later block can use what an earlier one built.
"""

import ast
import re
from pathlib import Path

import driftpool

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README.md has no python block"
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_all_is_every_name_the_package_imports():
    """A name dropped from ``__init__``'s imports must leave ``__all__`` too, and back."""
    tree = ast.parse(Path(driftpool.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(driftpool.__all__) == sorted(imported)
