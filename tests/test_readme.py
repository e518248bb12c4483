"""The README's library examples run as written, against the package's exports.

Every ```python block of README.md is executed in order in one namespace,
so a later block can use what an earlier one built. The CLI surface is held
to the parser both ways: every flag is documented, and every documented
``driftpool`` command line parses. The settings table is held to the
dataclass declarations it lists.
"""

import argparse
import ast
import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

import driftpool
from driftpool.cli import build_parser
from driftpool.data import ConceptSpec, SyntheticSpec
from driftpool.engine import EngineConfig
from driftpool.errors import field_types
from driftpool.manifest import RunManifest
from driftpool.pool import CepConfig

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


def subcommands():
    [action] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", sorted(subcommands()))
def test_every_flag_is_documented(command):
    text = README.read_text(encoding="utf-8")
    flags = [flag for action in subcommands()[command]._actions
             for flag in action.option_strings if flag.startswith("--") and flag != "--help"]
    assert flags
    missing = [flag for flag in flags
               if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text)]
    assert not missing, f"{command} flags missing from README.md: {missing}"


def setting_rows():
    """README's settings-table row of each scalar field of the five config dataclasses,
    written from its declaration."""
    rows = []
    for cls in (EngineConfig, CepConfig, RunManifest, SyntheticSpec, ConceptSpec):
        types = field_types(cls)
        for f in dataclasses.fields(cls):
            kind, optional = types.get(f.name, (None, False))
            if kind not in (int, float, str, bool):
                continue  # a nested object: cep, engine, data, concepts, schedule
            domain = f.metadata.get("domain")
            bound = ("one of " + ", ".join(f"`{choice}`" for choice in domain)
                     if isinstance(domain, tuple) else f"`{domain}`" if domain
                     else "finite" if kind is float else "any")
            default = ("required" if f.default is dataclasses.MISSING
                       else f"`{json.dumps(f.default)}`")
            rows.append(f"| `{f.name}` | `{cls.__name__}` | {kind.__name__}"
                        f"{' or null' * optional} | {default} | {bound} |")
    return rows


def test_every_setting_is_in_the_table():
    table = re.findall(r"^\| `\w+` \| `\w+` \|.*$", README.read_text(encoding="utf-8"), flags=re.M)
    assert table == setting_rows()


def shell_lines(text):
    """Each ``driftpool`` line of README's plain fenced blocks, continuations joined."""
    blocks = [body for info, body in re.findall(r"^```(\w*)\n(.*?)^```$", text, flags=re.M | re.S)
              if not info]
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line.startswith("driftpool ")]


def test_every_documented_command_line_parses():
    lines = shell_lines(README.read_text(encoding="utf-8"))
    assert len(lines) >= 4
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.func), line
