"""The mutant catalogue of tests/mutants.py still applies to the tree."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_old_text_occurs_once_in_src(mutant):
    counts = {path: path.read_text(encoding="utf-8").count(mutant.old)
              for path in (ROOT / "src").rglob("*.py")}
    assert {path: n for path, n in counts.items() if n} == {ROOT / mutant.file: 1}
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_names_its_tests_or_why_it_is_equivalent(mutant):
    assert bool(mutant.tests) != bool(mutant.equivalent)
    for node in mutant.tests:  # file::[Class::]function, each of which exists
        file, *names = node.split("::")
        source = (ROOT / file).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(class|def) {re.escape(name)}\b", source, re.M), node


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
