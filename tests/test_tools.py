"""Tests for the tools under tools/: the bit-for-bit output record of
tools/outputs.py, Monte Carlo sample path included, and the seed parser
the tools share."""

import argparse
import hashlib
import importlib.util
import platform
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from psthresh.cli import TARGETS

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
sys.path.insert(0, str(TOOLS))

import bench_record  # noqa: E402
from bench_record import parse_seeds  # noqa: E402

#: the machine the record below was made on
RECORD_MACHINE = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "cpu_model": "Intel(R) Xeon(R) Processor",
}
#: line count and sha256 of the lines of each kind that tools/outputs.py
#: prints with no flags.  A change that means to move bits pastes in the
#: table the failing test prints and says why in CHANGES.md.
RECORD = {
    "hashing": (48, "d7e628bdd6a7eeea634ca08358c0eb521ba2d956c5d473c3baf48a9c8fcdda40"),
    "teleport": (900, "1e4b83ec5a1eadd97e5a8f445952ad4ed25550a873cbffca0c1a70a451e7eded"),
    "pauli": (202, "da5e979f25bfe731da8eaa9b6c674521671756abe362a24f68ff6b5f0f60f699"),
    "fidelity": (3005, "12e295b07b855679ddeb694fab33489ff1c85042d0a22f226682c76400d7ccd2"),
    "golay": (2001, "0e46ecdaa52747654f9473d1b788cbf56f3a447c28418afe9aa0cdc8ec2ee4d8"),
    "fixed-fidelity": (4, "849a2b934a6d96fd36d86cbb4b1acee0faf18e648f2a779d923dd430b225feb2"),
    "crash": (2, "f13fb304ee15310422fd2edf27a5f5fff071da90a36857ce5c5bc115a6ffa885"),
    "crash-poly": (255, "6b374589a4762a6faf31be7dc47d2aa91e5edceb163fb6c8dbb5da11517f2a68"),
    "class": (641, "04068205827bfd2228a9cb1c02ed493326518bbc1573e466f7044d3cbc1ca4ef"),
    "forward-class": (701, "48d99495de0abe63eb07df9462946e3d462059f1eee18a4f777b9aaf0ba91f96"),
    "solve": (44, "aabf1332e95784bc559cbec4498270823acc4a2eedc3c3578b620de8141c0eda"),
    "mc-level": (24, "ad5c7df3f037fd0c9c6c936cc3be031264e659dc4ec760c04424cbe283655d10"),
    "cli": (62, "a8ed200e6b7bf77ba936d0744d913f3f9440d84a38b34c885c24024d8fd93d4d"),
}


def machine():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"numpy": np.__version__, "blas": blas_name, "cpu_model": cpu_model}


def kind_table(lines):
    """kind -> (count, sha256 of its lines, each ending in a newline)."""
    groups = {}
    for line in lines:
        groups.setdefault(line.split(" ", 1)[0], []).append(line + "\n")
    return {kind: (len(group), hashlib.sha256("".join(group).encode()).hexdigest())
            for kind, group in groups.items()}


@pytest.fixture(scope="module")
def output_lines():
    out = subprocess.run(
        [sys.executable, str(TOOLS / "outputs.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_outputs_match_record(output_lines):
    table = kind_table(output_lines)
    differ = sorted(kind for kind in table.keys() | RECORD.keys() if table.get(kind) != RECORD.get(kind))
    if differ:
        pytest.fail(
            "tools/outputs.py lines differ from the record in kinds: %s\n"
            "recorded on: %r\nrun on:      %r\nreplacement table:\nRECORD = {\n%s}"
            % (", ".join(differ), RECORD_MACHINE, machine(),
               "".join('    "%s": (%d, "%s"),\n' % (kind, *table[kind]) for kind in table)),
            pytrace=False,
        )


def test_code_map_outputs_lines(output_lines):
    crash = sum(1 for row in TARGETS if row.criterion == 8 and row.compute is not None)
    # the counts that the tool's docstring gives for each code-map kind
    want = {
        "pauli": 2 + 200,
        "fidelity": 3005,
        "golay": 2001,
        "fixed-fidelity": 4,
        "crash": crash,
        "crash-poly": 2**8 - 1,
        "class": 21 * 21 + 200,
        "forward-class": 501 + 200,
        "solve": 2 + 2 * 21,
    }
    lines = [line for line in output_lines if line.split(" ", 1)[0] in want]
    assert Counter(line.split(" ", 1)[0] for line in lines) == want
    assert len(lines) == sum(want.values())
    for line in lines:
        kind, *fields = line.split(" ")
        if kind == "class" and fields[2] != "keeps-nothing":
            p_keep, *cond = (Fraction(v) for v in fields[2:])
            assert len(cond) == 4 and 0 < p_keep <= 1 and sum(cond) == 1
        elif kind == "forward-class":
            assert 0.0 <= float.fromhex(fields[1]) <= 1.0
        elif kind == "crash-poly":
            # f(1) = 1 and f^(k)(1) = 0 for 0 < k < n
            derivs = [Fraction(v) for v in fields[2].removeprefix("D=").split(",")]
            assert derivs[:-1] == [1] + [0] * (len(derivs) - 2)


def test_mc_level_lines(output_lines):
    # six levels of each criterion-5 family, each level's mean infidelity
    # a probability
    families = [row.label.split()[0] for row in TARGETS if row.criterion == 5]
    lines = [line.split(" ") for line in output_lines if line.startswith("mc-level ")]
    assert [(fields[1], fields[3]) for fields in lines] == [
        (family, "level=%d" % level) for family in families for level in range(1, 7)
    ]
    for fields in lines:
        assert 0.0 <= float.fromhex(fields[4]) <= 1.0 and len(fields[5]) == 16


def test_pauli_lines_need_no_test_dependencies(output_lines):
    # the reference chain the pauli kind reads imports neither pytest nor
    # hypothesis, so the tool runs where only numpy is installed
    code = (
        "import sys\n"
        "sys.modules['pytest'] = sys.modules['hypothesis'] = None\n"
        "sys.path[:0] = %r\n"
        "import outputs\n"
        "for line in outputs.pauli_lines():\n"
        "    print(line)\n"
    ) % [str(TOOLS), str(ROOT / "src"), str(ROOT / "tests")]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [line for line in output_lines if line.startswith("pauli ")]


def test_parse_seeds():
    assert parse_seeds("1-3") == [1, 2, 3]
    assert parse_seeds("4-4") == [4]
    assert parse_seeds("1,3,7") == [1, 3, 7]
    for text in ("5-1", "1,1", "3,1", "1,3,2"):
        with pytest.raises(argparse.ArgumentTypeError, match="ascending"):
            parse_seeds(text)


def test_parse_op_lines():
    # bench/run.py pads a kind to 40 characters, so a longer one meets n=
    # after a single space
    stdout = (
        "calibration: 5 samples, 3.255..4.187 ms, reference 3.300 ms; raw wall 1.6257 s\n"
        "  op concat_threshold_mc knill [0.05, 0.09]   n=10   p50   127.010 ms (raw   154.903)"
        "  p90   189.036 ms (raw   230.552)\n"
        "  op concat_threshold_mc one-type [0.09, 0.13] n=10   p50    10.814 ms (raw    13.189)"
        "  p90    17.308 ms (raw    21.109)\n"
        '{"correct": true}\n'
    )
    assert bench_record.parse_op_lines(stdout) == {
        "concat_threshold_mc knill [0.05, 0.09]": {
            "n": 10, "p50_ms": 127.01, "raw_p50_ms": 154.903, "p90_ms": 189.036, "raw_p90_ms": 230.552,
        },
        "concat_threshold_mc one-type [0.09, 0.13]": {
            "n": 10, "p50_ms": 10.814, "raw_p50_ms": 13.189, "p90_ms": 17.308, "raw_p90_ms": 21.109,
        },
    }


@pytest.mark.parametrize("tool", ["outputs.py", "bench_record.py"])
def test_empty_seed_range_is_usage_error(tool):
    out = subprocess.run(
        [sys.executable, str(TOOLS / tool), "--seeds", "5-1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert "usage:" in out.stderr and "--seeds" in out.stderr


def test_bench_record_compiles_each_tree_before_its_first_run(tmp_path, monkeypatch):
    modules = [tmp_path / "src" / "pkg" / "mod.py", tmp_path / "bench" / "run.py"]
    for path in modules:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("X = 1\n")
    compiled = []

    def first_run(tree, workload, seed, seconds):
        compiled.append([Path(importlib.util.cache_from_source(str(path))).is_file() for path in modules])
        raise StopIteration

    monkeypatch.setattr(bench_record, "run_once", first_run)
    with pytest.raises(StopIteration):
        bench_record.main(["--tag", "unused", "--workload", "hashing-cli", "--tree", "t=%s" % tmp_path])
    assert compiled == [[True, True]]
