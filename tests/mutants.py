"""A catalogue of mutants of ``src/``, each with the tests that should kill it.

Each entry names a file, an exact text that occurs once in ``src/`` and the
text that replaces it, and either the test node ids that should fail on the
mutant or the reason why no test can tell it apart (``equivalent``). Run

    python tests/mutants.py [--only NAME]

to apply each mutant to a copy of the repository in a temporary directory
and run only its tests there. Each line reads killed (a listed test failed),
survived (all passed) or error (pytest could not run them), with the time
taken; the exit status is 1 unless every non-equivalent mutant is killed.
``tests/test_mutants.py`` checks that every old text still occurs exactly
once in ``src/``. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...] = ()
    equivalent: str | None = None  # why no test can tell the mutant apart


PROPERTY = "tests/test_cli.py::TestWriteBundle::test_results_json_is_json_dumps_of_the_bundle"

MUTANTS = (
    Mutant("record-template-fields-swapped", "src/driftpool/manifest.py",
           '"gene_mu": %r,\n      "gene_sigma": %r,', '"gene_sigma": %r,\n      "gene_mu": %r,',
           tests=("tests/test_golden.py::test_default_stream_linear_digest", PROPERTY)),
    Mutant("record-forecast-line-indent", "src/driftpool/manifest.py",
           """},\\n      ' if "forecast" in r""", """},\\n    ' if "forecast" in r""",
           tests=("tests/test_golden.py::test_logged_forecasts_digest", PROPERTY)),
    Mutant("record-evolved-from-abandoned", "src/driftpool/manifest.py",
           '"true" if r["evolved"] else "false"', '"true" if r["abandoned"] else "false"',
           tests=("tests/test_golden.py::test_default_stream_linear_digest", PROPERTY)),
    Mutant("record-pool-size-as-str", "src/driftpool/manifest.py",
           '"pool_size": %d,', '"pool_size": %s,',
           equivalent="a record's pool_size is an exact Python int, whose str is its %d"),
    Mutant("read-json-recursion-error-dropped", "src/driftpool/manifest.py",
           "except (ValueError, RecursionError) as exc:", "except ValueError as exc:",
           tests=("tests/test_cli.py::TestMainExitCodes::test_deeply_nested_json_exits_2",)),
    Mutant("open-text-utf-8-sig-reverted", "src/driftpool/data.py",
           'encoding="utf-8-sig"', 'encoding="utf-8"',
           tests=("tests/test_cli.py::TestConfigFile::test_a_byte_order_mark_is_dropped",
                  "tests/test_data.py::TestLoadCsv::test_byte_order_mark_is_dropped")),
)

_NOT_COPIED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".benchmarks",
                                     ".perfbench_work", "__pycache__")


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """(killed, survived or error; pytest's last line) of the mutant's tests."""
    with tempfile.TemporaryDirectory(prefix="driftpool-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_NOT_COPIED)
        target = copy / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "error", f"the old text does not occur exactly once in {mutant.file}"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    last = (proc.stdout.strip().splitlines() or [proc.stderr.strip()])[-1]
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error"), last


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=[m.name for m in MUTANTS],
                        help="run this mutant alone")
    args = parser.parse_args(argv)
    start, tally = time.perf_counter(), {}
    for mutant in MUTANTS:
        if args.only not in (None, mutant.name):
            continue
        if mutant.equivalent:
            status, detail, secs = "equivalent", mutant.equivalent, 0.0
        else:
            began = time.perf_counter()
            status, detail = run_mutant(mutant)
            secs = time.perf_counter() - began
        tally[status] = tally.get(status, 0) + 1
        print(f"{status:<10} {mutant.name:<36} {secs:5.1f} s  {detail}", flush=True)
    counts = ", ".join(f"{n} {status}" for status, n in sorted(tally.items()))
    print(f"{counts} in {time.perf_counter() - start:.1f} s")
    return 0 if set(tally) <= {"killed", "equivalent"} else 1


if __name__ == "__main__":
    sys.exit(main())
