"""Every function, method and class in ``src/driftpool`` is used by the package.

A definition passes if some ``Name``, ``Attribute`` or import alias in the
package's own code carries its name, if it is exported in
``driftpool.__all__``, or if it is a dunder. Anything else is API that only
tests reach; such helpers belong in ``tests/``. The check matches by name
only, so it is coarse: a method passes whenever any attribute of that name is
read anywhere in the package, whatever object it is read from.
"""

import ast
from pathlib import Path

import driftpool

SRC = Path(driftpool.__file__).resolve().parent


def unused(modules, exported=()):
    """``"file:line name"`` of each definition in ``modules`` (file name -> parsed
    module) that no Name, Attribute or import alias among them carries, that is
    not ``exported`` and is not a dunder."""
    used = set(exported)
    for node in (node for tree in modules.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return [
        f"{file}:{node.lineno} {node.name}"
        for file, tree in modules.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_every_definition_is_used_by_the_package():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    assert unused(modules, driftpool.__all__) == [], "used only by tests: move it to tests/"


def test_a_method_nothing_calls_is_flagged():
    called = "class Pool:\n    def __len__(self): ...\n    def wait(self): ...\n" \
             "    def step(self):\n        return self.wait()\n"
    assert unused({"m.py": ast.parse(called)}, ["Pool"]) == ["m.py:4 step"]
    uncalled = called.replace("self.wait()", "self.served")
    assert unused({"m.py": ast.parse(uncalled)}, ["Pool", "step"]) == ["m.py:3 wait"]
