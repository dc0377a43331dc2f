"""Check the golden CLI bytes and the mnef identity on every pyenv Python.

For each ``~/.pyenv/versions/<version>/bin/python3`` with version 3.10 or
later, run every ``CASES`` entry of ``tests/test_golden.py`` as
``<python> -m tautclass.cli ...`` with ``PYTHONPATH=src`` and compare its
stdout and exit code with ``tests/data/golden/``; then check
``cubic_mnef_number(n) == cubic_mnef_closed_form(n)`` for n = 3..200.
Prints one summary line per interpreter and exits 1 on any mismatch.

    python3 tools/crossver.py

Stdlib only.  ``CASES`` is read from the test module's source, so pytest
need not be installed.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
MNEF_CHECK = """
from tautclass.hypersurfaces import cubic_mnef_closed_form, cubic_mnef_number
bad = [n for n in range(3, 201)
       if cubic_mnef_number(n) != cubic_mnef_closed_form(n)]
raise SystemExit(f"mnef differs at n = {bad}" if bad else 0)
"""


def golden_cases() -> list[tuple[str, list[str], int]]:
    """The ``CASES`` list of tests/test_golden.py, evaluated from its AST."""
    source = (ROOT / "tests" / "test_golden.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["CASES"]:
            return eval(compile(ast.Expression(node.value), "CASES", "eval"),
                        {"__builtins__": {"range": range, "str": str}})
    raise LookupError("tests/test_golden.py defines no CASES")


def interpreters() -> list[tuple[str, Path]]:
    """(version, python3) for each pyenv version 3.10 or later."""
    found = []
    for path in (Path.home() / ".pyenv" / "versions").glob("*/bin/python3"):
        version = path.parents[1].name
        parts = version.split(".")
        if (len(parts) >= 2 and parts[0] == "3" and parts[1].isdigit()
                and int(parts[1]) >= 10):
            found.append((tuple(map(int, parts[:2])), version, path))
    return [(version, path) for _, version, path in sorted(found)]


def check(python: Path, cases) -> list[str]:
    """Mismatches of one interpreter, empty when everything agrees."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    problems = []
    for name, argv, code in cases:
        run = subprocess.run([str(python), "-m", "tautclass.cli", *argv],
                             cwd=ROOT, env=env, capture_output=True)
        if run.returncode != code:
            problems.append(f"{name}: exit {run.returncode}, expected {code}")
        elif run.stdout != (GOLDEN / name).read_bytes():
            problems.append(f"{name}: output differs from the golden bytes")
    run = subprocess.run([str(python), "-c", MNEF_CHECK], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    if run.returncode != 0:
        problems.append(run.stderr.strip().splitlines()[-1]
                        if run.stderr.strip() else "mnef check failed")
    return problems


def main() -> int:
    cases = golden_cases()
    found = interpreters()
    if not found:
        print("no pyenv Python 3.10 or later found")
        return 1
    failed = False
    for version, python in found:
        problems = check(python, cases)
        failed |= bool(problems)
        status = "ok" if not problems else f"{len(problems)} mismatches"
        print(f"{version}: {len(cases)} golden cases and mnef n = 3..200: "
              f"{status}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
