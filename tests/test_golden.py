"""Byte-for-byte golden outputs of the CLI and of profile JSON.

The files under ``tests/data/golden`` hold the exact bytes of a few CLI
runs, of every del Pezzo line and conic list ``surface curves`` prints (so
their contents and order are pinned), and of
``json.dumps(profile.to_json(), sort_keys=True)`` for every fixed profile
label, one line per label.  A changed number, class rendering or report
layout shows up here as a byte difference.  After an intended output
change, rerun the command and overwrite its file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tautclass.cli import main
from tautclass.profiles import FIXED_LABELS, get_profile

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = [
    ("verify.md", ["verify", "--format", "markdown"], 1),
    ("verify.json", ["verify", "--format", "json"], 1),
    ("vmrt_table.json", ["vmrt", "table"], 0),
    ("eval_readme.txt",
     ["eval", "--profile", "dp3-degree2", "--expr", "z^2*(z+2*H)^3"], 0),
    ("eval_cubic_power.txt",
     ["eval", "--profile", "cubic-surface", "--expr", "(z+H+F)^4"], 0),
    ("eval_dp1_cubed.txt",
     ["eval", "--profile", "dp-surface-1",
      "--expr", "(2z+3H-E1-2E2+E3-E4+E5-E6+2E7-1/2E8)^3"], 0),
    ("eval_dp3_high_base.txt",
     ["eval", "--profile", "dp3-degree1", "--expr", "z*H^4"], 0),
    *((f"surface_lines_d{d}.json",
       ["surface", "curves", "--degree", str(d)], 0) for d in range(1, 8)),
    *((f"surface_conics_d{d}.json",
       ["surface", "curves", "--degree", str(d), "--conics"], 0)
      for d in range(3, 8)),
]


@pytest.mark.parametrize("name, argv, code", CASES,
                         ids=[case[0] for case in CASES])
def test_cli_output_matches_golden_bytes(name, argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
def test_verify_bytes_do_not_depend_on_the_hash_seed(seed):
    # the in-process test above sees only the hash seed of its own run
    root = Path(__file__).parents[1]
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": str(root / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "tautclass.cli", "verify", "--format", "json"],
        cwd=root, env=env, capture_output=True, check=False)
    assert run.returncode == 1
    assert run.stdout == (GOLDEN / "verify.json").read_bytes()


def test_profile_json_matches_golden_bytes():
    expected = (GOLDEN / "profiles.jsonl").read_bytes().decode().splitlines()
    assert [json.dumps(get_profile(label).to_json(), sort_keys=True)
            for label in FIXED_LABELS] == expected
