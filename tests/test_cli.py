"""End-to-end tests of the command line interface, run in process."""

import ast
import dataclasses
import json
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
    # near threshold the mean infidelity stays at 0.149-0.158 for five
    # levels, far from both stopping bounds
    code, out, _ = run(
        capsys,
        ["concat", "--model", "one-type", "--at", "0.11",
         "--population", "400", "--levels", "5", "--seed", "5"],
    )
    assert code == 3
    assert out.split()[0] == "inconclusive"


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


def test_concat_flags_default_to_mc_config():
    args = cli.build_parser().parse_args(["concat", "--model", "one-type"])
    for field in dataclasses.fields(cli.McConfig):
        assert getattr(args, field.name) == field.default, field.name


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
