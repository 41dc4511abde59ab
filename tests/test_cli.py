"""End-to-end tests of the command line interface, run in process."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import psthresh
from psthresh import cli
from psthresh.cli import main

QUICK_MC = ["--population", "400", "--levels", "8", "--seed", "5"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# hashing


def test_hashing_text(capsys):
    code, out, _ = run(capsys, ["hashing", "--model", "forward", "--tol", "1e-7"])
    assert code == 0
    assert float(out) == pytest.approx(4.81816, abs=1e-3)
    # six significant digits of the percentage
    assert len(out.strip().replace(".", "")) == 6


def test_hashing_raw(capsys):
    code, out, _ = run(
        capsys, ["hashing", "--model", "forward", "--tol", "1e-7", "--raw"]
    )
    assert code == 0
    assert float(out) == pytest.approx(0.0481816, abs=1e-5)


def test_hashing_csv(capsys):
    code, out, _ = run(
        capsys, ["hashing", "--model", "knill", "--tol", "1e-6", "--format", "csv"]
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "model,threshold_percent"
    name, value = row.split(",")
    assert name == "knill"
    assert float(value) == pytest.approx(6.9024, abs=1e-3)


def test_hashing_json_matches_text(capsys):
    _, text_out, _ = run(capsys, ["hashing", "--model", "depolarizing"])
    code, json_out, _ = run(
        capsys, ["hashing", "--model", "depolarizing", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(json_out)
    assert payload["model"] == "depolarizing"
    # the json float comes from the same formatted string as the text
    assert payload["threshold_percent"] == float(text_out)


def test_hashing_deterministic(capsys):
    argv = ["hashing", "--model", "depolarizing", "--tol", "1e-6"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_hashing_bracket_failure(capsys):
    code, out, err = run(
        capsys,
        ["hashing", "--model", "depolarizing", "--lo", "0.2", "--no-extend"],
    )
    assert code == 2
    assert out == ""
    assert "hashing" in err


# an unset end counts at the solver's default, lo 1e-3 and hi 0.25
@pytest.mark.parametrize(
    "bracket",
    [["--lo", "0.2", "--hi", "0.1"], ["--lo", "0.1", "--hi", "0.1"], ["--lo", "0.3"], ["--hi", "0"]],
    ids=" ".join,
)
def test_hashing_bracket_not_ascending_is_usage_error(capsys, bracket):
    code, out, err = run(capsys, ["hashing", "--model", "knill"] + bracket)
    assert (code, out) == (64, "")
    assert err == "hashing: --lo must be below --hi\n"


@pytest.mark.parametrize("flag, value", [("--lo", "0.2"), ("--hi", "0.03")])
def test_hashing_widens_a_bad_bracket(capsys, flag, value):
    argv = ["hashing", "--model", "knill", "--raw"]
    _, default, _ = run(capsys, argv)
    code, out, err = run(capsys, argv + [flag, value])
    assert code == 0 and err == ""
    assert abs(float(out) - float(default)) <= 1e-6  # the default --tol


def test_usage_errors():
    for argv in (
        ["hashing"],
        ["bogus"],
        ["hashing", "--model", "bogus"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["hashing", "--model", "knill", "--tol", "0"],
        ["hashing", "--model", "knill", "--tol", "-1"],
        ["hashing", "--model", "knill", "--tol", "nan"],
        ["hashing", "--model", "knill", "--lo", "2"],
        ["hashing", "--model", "knill", "--hi", "7"],
        ["hashing", "--model", "depolarizing", "--r", "2"],
        ["sweep", "--tol", "0"],
        ["sweep", "--points", "1"],
        ["sweep", "--points", "0"],
        ["sweep", "--r-values", "1.5"],
        ["sweep", "--r-values", "0", "1", "--points", "7"],
        # the default grid size, given explicitly, still conflicts
        ["sweep", "--r-values", "0", "1", "--points", "11"],
        ["concat", "--model", "one-type", "--lo", "0.05", "--hi", "0.18", "--tol", "0"],
        ["concat", "--model", "one-type", "--at", "0.1", "--population", "0"],
        ["concat", "--model", "one-type", "--at", "0.1", "--levels", "0"],
        ["concat", "--model", "one-type", "--lo", "0.05", "--hi", "0.18", "--seeds", "0"],
        ["concat", "--model", "one-type", "--at", "-0.1"],
        ["concat", "--model", "one-type", "--at", "0.1", "--seed", "-1"],
        ["concat", "--model", "one-type", "--lo", "0.05", "--hi", "0.18", "--seed", "-1"],
        ["concat", "--model", "one-type", "--at", "0.1", "--seed", "1.5"],
    ],
    ids=" ".join,
)
def test_bad_input_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: psthresh %s" % argv[0])
    assert "error: argument %s" % argv[-2] in captured.err


# command lines with a flag the chosen mode would ignore, and that flag
_IGNORED_FLAGS = [
    (["hashing", "--model", "knill", "--r", "0.7"], "--r"),
    (["hashing", "--model", "forward", "--r", "0"], "--r"),
    (["concat", "--model", "forward", "--r", "0.4", "--at", "0.03"], "--r"),
    (["concat", "--model", "one-type", "--r", "0.9", "--at", "0.1"], "--r"),
    (["concat", "--model", "knill", "--r", "0.5", "--lo", "0.05", "--hi", "0.09"], "--r"),
    (["concat", "--model", "one-type", "--at", "0.1", "--lo", "0.05", "--hi", "0.18"], "--lo"),
    (["concat", "--model", "one-type", "--at", "0.1", "--lo", "0.05"], "--lo"),
    (["concat", "--model", "one-type", "--at", "0.1", "--hi", "0.18"], "--hi"),
    (["concat", "--model", "one-type", "--at", "0.05", "--tol", "0.5"], "--tol"),
    # the default tolerance, given explicitly, is still ignored by --at
    (["concat", "--model", "one-type", "--at", "0.05", "--tol", "2e-4"], "--tol"),
    (["concat", "--model", "one-type", "--at", "0.05", "--raw"], "--raw"),
    (["concat", "--model", "one-type", "--at", "0.05", "--tol", "0.5", "--raw"], "--raw"),
]


@pytest.mark.parametrize("argv,flag", _IGNORED_FLAGS, ids=[" ".join(a) for a, _ in _IGNORED_FLAGS])
def test_ignored_flag_is_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert (code, out) == (64, "")
    assert err.startswith("%s: " % argv[0]) and flag in err


def test_r_reaches_depolarizing(capsys):
    # depolarizing noise at r = 1 is knill noise
    _, knill_out, _ = run(capsys, ["hashing", "--model", "knill"])
    code, out, _ = run(capsys, ["hashing", "--model", "depolarizing", "--r", "1"])
    assert (code, out) == (0, knill_out)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_and_json_agree(capsys):
    argv = ["sweep", "--r-values", "0", "0.5", "1", "--tol", "1e-6"]
    code, csv_out, _ = run(capsys, argv)
    assert code == 0
    lines = csv_out.strip().split("\n")
    assert lines[0] == "r,threshold_percent"
    assert len(lines) == 4

    code, json_out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    payload = json.loads(json_out)
    assert payload["columns"] == ["r", "threshold_percent"]
    for line, row in zip(lines[1:], payload["rows"]):
        r_str, thr_str = line.split(",")
        assert row == [float(r_str), float(thr_str)]


def test_sweep_endpoints(capsys):
    _, out, _ = run(capsys, ["sweep", "--r-values", "0", "1", "--tol", "1e-7"])
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert float(rows[0][1]) == pytest.approx(8.27515, abs=1e-3)
    assert float(rows[1][1]) == pytest.approx(6.90240, abs=1e-3)


def test_sweep_monotone_flag(capsys):
    code, _, _ = run(
        capsys,
        ["sweep", "--r-values", "0", "0.5", "1", "--assert-monotone"],
    )
    assert code == 0
    code, _, err = run(
        capsys, ["sweep", "--r-values", "0.5", "0.5", "--assert-monotone"]
    )
    assert code == 2
    assert "decreasing" in err


# ---------------------------------------------------------------------------
# concat


def test_concat_verdict_below(capsys):
    code, out, _ = run(
        capsys, ["concat", "--model", "one-type", "--at", "0.05"] + QUICK_MC
    )
    assert code == 0
    verdict, level = out.split()
    assert verdict == "below"
    assert int(level) <= 4


def test_concat_verdict_above(capsys):
    code, out, _ = run(
        capsys, ["concat", "--model", "one-type", "--at", "0.22"] + QUICK_MC
    )
    assert code == 0
    assert out.split()[0] == "above"


def test_concat_verdict_inconclusive(capsys):
    # near threshold the mean infidelity rises 0.1528, 0.1638, 0.1731,
    # 0.1847, 0.2002 over five levels: it meets neither stopping bound
    code, out, _ = run(
        capsys,
        ["concat", "--model", "one-type", "--at", "0.111",
         "--population", "400", "--levels", "5", "--seed", "5"],
    )
    assert code == 3
    assert out.split() == ["inconclusive", "5"]


def test_concat_level0_breakdown_is_above(capsys):
    # forward noise at rate 1 leaves no post-selection fixed point
    argv = ["concat", "--model", "forward", "--at", "1", "--population", "200", "--levels", "3"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (0, "above 0\n", "")
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert json.loads(out) == {"level": 0, "model": "forward", "p": 1.0, "verdict": "above"}
    # bisection probes that break down count as above too
    code, out, _ = run(
        capsys, ["concat", "--model", "forward", "--lo", "0.01", "--hi", "1", "--tol", "0.05"] + QUICK_MC
    )
    assert code == 0
    assert 1 < float(out) < 10


def test_concat_requires_target(capsys):
    code, _, err = run(capsys, ["concat", "--model", "one-type"])
    assert code == 64
    assert "--at" in err


def test_concat_bisect_formats_agree(capsys):
    argv = (
        ["concat", "--model", "one-type", "--lo", "0.05", "--hi", "0.18"]
        + QUICK_MC
        + ["--tol", "5e-3"]
    )
    code, text_out, _ = run(capsys, argv)
    assert code == 0
    assert 8.0 < float(text_out) < 14.0

    code, json_out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert json.loads(json_out)["threshold_percent"] == float(text_out)

    code, repeat, _ = run(capsys, argv)
    assert repeat == text_out


def test_concat_bracket_failure(capsys):
    code, _, err = run(
        capsys,
        ["concat", "--model", "one-type", "--lo", "0.22", "--hi", "0.3"]
        + QUICK_MC
        + ["--tol", "5e-3"],
    )
    assert code == 3
    assert "concat" in err


@pytest.mark.parametrize("lo, hi", [("0.09", "0.05"), ("0.07", "0.07")])
def test_concat_bracket_not_ascending_is_usage_error(capsys, lo, hi):
    code, out, err = run(
        capsys,
        ["concat", "--model", "knill", "--lo", lo, "--hi", hi, "--population", "100", "--levels", "3"],
    )
    assert (code, out) == (64, "")
    assert err == "concat: --lo must be below --hi\n"


def test_concat_error_bar(capsys):
    argv = (
        ["concat", "--model", "one-type", "--lo", "0.05", "--hi", "0.18"]
        + QUICK_MC
        + ["--tol", "5e-3", "--seeds", "2"]
    )
    code, out, _ = run(capsys, argv)
    assert code == 0
    value, sep, err_value = out.split()
    assert sep == "+-"
    assert float(err_value) >= 0

    code, json_out, _ = run(capsys, argv + ["--format", "json"])
    payload = json.loads(json_out)
    assert payload["threshold_percent"] == float(value)
    assert payload["threshold_percent_std"] == float(err_value)


def test_concat_error_bar_bracket_failure(capsys):
    # each seed checks the bracket, as a single-seed solve does
    code, out, err = run(
        capsys,
        ["concat", "--model", "one-type", "--lo", "0.22", "--hi", "0.3"]
        + QUICK_MC
        + ["--tol", "5e-3", "--seeds", "2"],
    )
    assert (code, out) == (3, "")
    assert "does not converge" in err


def test_concat_at_rejects_seeds(capsys):
    code, out, err = run(capsys, ["concat", "--model", "one-type", "--at", "0.1", "--seeds", "5"])
    assert (code, out) == (64, "")
    assert "--seeds" in err


def test_concat_verdict_csv_and_json_agree(capsys):
    argv = ["concat", "--model", "one-type", "--at", "0.05", "--format"]
    code, csv_out, _ = run(capsys, argv + ["csv"] + QUICK_MC)
    assert code == 0
    header, row = csv_out.strip().split("\n")
    assert header == "level,model,p,verdict"
    code, json_out, _ = run(capsys, argv + ["json"] + QUICK_MC)
    assert code == 0
    payload = json.loads(json_out)
    assert sorted(payload) == header.split(",")
    level, model, p, verdict = row.split(",")
    assert (int(level), model, float(p), verdict) == (
        payload["level"], payload["model"], payload["p"], payload["verdict"]
    )


def test_concat_tol_defaults_to_solver(capsys):
    # unset, --tol bisects to concat_threshold_mc's default tolerance
    argv = ["concat", "--model", "one-type", "--lo", "0.05", "--hi", "0.18"] + QUICK_MC
    code, out, _ = run(capsys, argv)
    assert code == 0
    config = cli.McConfig(population=400, levels=8, seed=5)
    assert out == "%.6g\n" % (100 * cli.concat_threshold_mc(cli.one_type_dist, 0.05, 0.18, config))
    assert run(capsys, argv + ["--tol", "2e-4"])[1] == out


def test_hashing_and_sweep_flags_default_to_solver(monkeypatch, capsys):
    # unset, --lo, --hi and --tol reach neither solver, so their defaults
    # are the solvers' own
    for name, argv, explicit in (
        ("hashing_threshold", ["hashing", "--model", "knill"], ["--lo", "1e-3", "--hi", "0.25", "--tol", "1e-6"]),
        ("sweep_r", ["sweep", "--points", "3"], ["--tol", "1e-6"]),
    ):
        solver, received = getattr(cli, name), []

        def recorded(*args, solver=solver, received=received, **kwargs):
            received.append(set(kwargs))
            return solver(*args, **kwargs)

        monkeypatch.setattr(cli, name, recorded)
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert not received[0] & {"lo", "hi", "tol"}, name
        assert run(capsys, argv + explicit)[1] == out
        assert received[1] >= {flag.lstrip("-") for flag in explicit[::2]}


def test_concat_flags_default_to_mc_config():
    args = cli.build_parser().parse_args(["concat", "--model", "one-type"])
    assert cli.McConfig._field_defaults == {"population": 10_000, "levels": 32, "seed": 1}
    for name, default in cli.McConfig._field_defaults.items():
        assert getattr(args, name) == default, name


# ---------------------------------------------------------------------------
# capacity


def test_capacity_formats(capsys):
    code, out, _ = run(capsys, ["capacity"])
    assert code == 0
    one, three = (float(v) for v in out.split())
    assert one == pytest.approx(11.0028, abs=1e-3)
    assert three == pytest.approx(6.3097, abs=1e-3)

    code, json_out, _ = run(capsys, ["capacity", "--format", "json"])
    payload = json.loads(json_out)
    assert payload["one_type_percent"] == one
    assert payload["three_type_percent"] == three

    code, raw_out, _ = run(capsys, ["capacity", "--raw"])
    raw_one, raw_three = (float(v) for v in raw_out.split())
    assert raw_one == pytest.approx(0.110028, abs=1e-5)


# ---------------------------------------------------------------------------
# --raw


@pytest.mark.parametrize(
    "argv, columns",
    [
        (["hashing", "--model", "forward", "--tol", "1e-7"], ["model", "threshold"]),
        (
            ["concat", "--model", "one-type", "--lo", "0.05", "--hi", "0.18", "--tol", "5e-3", "--seeds", "2"]
            + QUICK_MC,
            ["model", "threshold", "threshold_std"],
        ),
        (["capacity"], ["one_type", "three_type"]),
    ],
    ids=["hashing", "concat-seeds", "capacity"],
)
def test_raw_columns(capsys, argv, columns):
    code, csv_out, _ = run(capsys, argv + ["--raw", "--format", "csv"])
    assert code == 0
    header, row = csv_out.strip().split("\n")
    assert header.split(",") == columns
    texts = dict(zip(columns, row.split(",")))
    code, json_out, _ = run(capsys, argv + ["--raw", "--format", "json"])
    assert code == 0
    payload = json.loads(json_out)
    assert sorted(payload) == sorted(columns)
    for column in columns:
        if column == "model":
            assert payload[column] == texts[column]
        else:
            # a probability, not a percentage
            assert payload[column] == float(texts[column]) and 0.0 <= payload[column] < 1.0


# ---------------------------------------------------------------------------
# reproduce


def _fast_targets():
    """The TARGETS rows of criteria 4, 6 and 10 (all solved in well under
    a second) and one recorded row."""
    rows = [row for row in cli.TARGETS if row.criterion in (4, 6, 10)]
    return rows + [next(row for row in cli.TARGETS if row.compute is None)]


def test_reproduce(monkeypatch, capsys):
    rows = _fast_targets()
    monkeypatch.setattr(cli, "TARGETS", tuple(rows))
    code, out, err = run(capsys, ["reproduce"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == len(rows)
    for row, line in zip(rows, lines):
        head, got, want, tol, verdict = line.rsplit(None, 4)
        assert head.split(None, 1) == [str(row.criterion or "-"), row.label]
        assert float(want) == row.want
        if row.compute is None:
            assert (got, tol, verdict) == ("-", "-", "-")
        else:
            assert verdict == "hit"
            assert float(tol) == row.tol
            assert abs(float(got) - row.want) <= row.tol


def test_reproduce_miss_exits_1(monkeypatch, capsys):
    miss = cli.Target(None, "deliberate miss", 1.0, 0.5, lambda: 2.0)
    monkeypatch.setattr(cli, "TARGETS", tuple(_fast_targets()) + (miss,))
    code, out, _ = run(capsys, ["reproduce"])
    assert code == 1
    verdicts = [line.rsplit(None, 1)[1] for line in out.splitlines()]
    assert verdicts.count("miss") == 1
    assert out.splitlines()[-1].split() == ["-", "deliberate", "miss", "2", "1", "0.5", "miss"]


def test_reproduce_rerun_byte_identical(monkeypatch, capsys):
    monkeypatch.setattr(cli, "TARGETS", tuple(_fast_targets()))
    _, first, _ = run(capsys, ["reproduce"])
    _, second, _ = run(capsys, ["reproduce"])
    assert first == second


def test_targets_table():
    labels = [row.label for row in cli.TARGETS]
    assert len(set(labels)) == len(labels)
    for row in cli.TARGETS:
        if row.compute is not None:
            assert row.tol > 0, row.label


def test_713_three_type_capacity_row_hits():
    # the Monte Carlo threshold of the three-type channel (p, p, p) at the
    # default McConfig (seed 1), bisected from [5%, 8%]
    row = next(row for row in cli.TARGETS if row.label == "713 three-type capacity (pp)")
    assert (row.criterion, row.want, row.tol) == (None, 6.270, 0.05)
    got = row.compute()
    assert abs(got - row.want) <= row.tol, got


def _package_imports(path):
    """Names that a file imports from the package's layer modules (not
    from psthresh.cli)."""
    layers = {"codes", "noise", "pauli", "postselect", "threshold"}
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            module = node.module if node.level else node.module.removeprefix("psthresh.")
            if module in layers:
                names.update(alias.name for alias in node.names)
    return names


def test_public_names_are_what_cli_and_acceptance_import():
    used = _package_imports(cli.__file__) | _package_imports(
        Path(__file__).with_name("test_acceptance.py")
    )
    assert sorted(psthresh.__all__) == sorted(used)


def test_src_modules_use_every_name_they_import():
    # __init__.py imports names to re-export them, so it is left out
    unused = []
    for path in sorted(Path(psthresh.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += ["%s:%d %s" % (path.name, line, name) for name, line in imported.items() if name not in read]
    assert unused == []


def test_import_leaves_dataclasses_unloaded():
    # the package's records are NamedTuples; numpy and statistics are
    # loaded first, as by the benchmark's set-up child
    src = str(Path(psthresh.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import numpy, statistics\n"
        "assert 'dataclasses' not in sys.modules\n"
        "import psthresh\n"
        "print('dataclasses' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "False"
