"""Tests for the diffing tools under tools/."""

import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from psthresh.cli import TARGETS

ROOT = Path(__file__).resolve().parent.parent


def test_code_map_outputs_lines():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_map_outputs.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    crash = sum(1 for row in TARGETS if row.criterion == 8 and row.compute is not None)
    # the counts that the tool's docstring gives for each kind of line
    want = {
        "fidelity": 3005,
        "golay": 2001,
        "fixed-fidelity": 4,
        "crash": crash,
        "class": 21 * 21 + 200,
        "forward-class": 501 + 200,
        "solve": 2 + 3 * 2 + 2 * 21,
    }
    assert Counter(line.split(" ", 1)[0] for line in lines) == want
    assert len(lines) == sum(want.values())
    for line in lines:
        kind, *fields = line.split(" ")
        if kind == "class" and fields[2] != "keeps-nothing":
            p_keep, *cond = (Fraction(v) for v in fields[2:])
            assert len(cond) == 4 and 0 < p_keep <= 1 and sum(cond) == 1
        elif kind == "forward-class":
            assert 0.0 <= float.fromhex(fields[1]) <= 1.0
