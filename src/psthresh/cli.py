"""Command line interface.

Exit codes: 0 on success, 2 when a deterministic solve cannot bracket
its crossing (or a sweep has failed rows), 3 when a Monte Carlo verdict
is inconclusive, 64 for usage errors, which include out-of-range values
(--tol not above 0, a rate or fraction outside [0, 1], too few points,
population, levels or seeds).

Percentages are printed with 6 significant digits unless --raw asks for
plain probabilities; sweeps use 9 significant digits.  Output for a
given command line is byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import subprocess
import sys

from .noise import SOLVER_FAMILIES, model_family
from .threshold import (
    BracketError,
    McConfig,
    capacity_one_type,
    capacity_three_type,
    concat_threshold_mc,
    hashing_threshold,
    mc_threshold_error_bar,
    mc_verdict_at,
    model_level0,
    one_type_dist,
    sweep_r,
)

EXIT_OK = 0
EXIT_BRACKET = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with EXIT_USAGE."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _fmt_percent(p: float) -> str:
    return "%.6g" % (100.0 * p)


def _fmt_raw(p: float) -> str:
    return "%.9g" % p


def _git_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _checked(convert, ok, requirement):
    """argparse type: convert the text, then reject values for which ok
    is false as usage errors.  Unconvertible text keeps argparse's own
    "invalid float value" message."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError("must be %s, got %r" % (requirement, text))
        return value

    parse.__name__ = convert.__name__
    return parse


_positive = _checked(float, lambda x: x > 0, "> 0")
_unit = _checked(float, lambda x: 0 <= x <= 1, "in [0, 1]")
_count = _checked(int, lambda n: n >= 1, ">= 1")
_points = _checked(int, lambda n: n >= 2, ">= 2")


# ---------------------------------------------------------------------------
# reference tables
#
# Central values of the published tables this package reproduces; the
# tables command emits them verbatim so downstream comparisons do not
# depend on solver runtime.  Computed counterparts come from the hashing,
# sweep and concat commands and from the test suite.

_TABLE_THRESHOLDS = (
    ("code", "depolarizing", "knill", "forward"),
    ("hashing", "8.2751", "6.9024", "4.8182"),
    ("713", "8.229", "6.864", "4.8036"),
    ("1715", "8.2", "6.8", "4.790"),
    ("2317", "8.25", "6.88", "4.805"),
)

_TABLE_CAPACITY = (
    ("code", "one_type", "three_type"),
    ("hashing", "11.0028", "6.3097"),
    ("713", "10.963", "6.270"),
    ("1715", "10.927", "6.251"),
    ("2317", "10.968", "6.29"),
    ("422+622", "10.9466", "6.2719"),
)

_TABLE_HASHINGFAULT = (
    ("quantity", "depolarizing", "knill", "forward"),
    ("px_pz", "7.13361", "7.52699", "9.79217"),
    ("py", "4.78136", "4.12990", "1.21061"),
)

_TABLE_FIXEDPOINTS = (
    ("code", "model", "p_percent", "fidelity"),
    ("713", "knill", "3.472", "0.90602"),
    ("713", "depolarizing", "4.039", "0.91122"),
    ("713", "forward", "2.9595", "0.87703"),
    ("2317", "forward", "3.5471", "0.85108"),
)

_TABLE_2317VALUES = (
    ("model", "p_e", "c_e", "delta_p", "p_a", "p_r"),
    ("depolarizing", "8.25", "0.00017", "0.003", "", "8.25"),
    ("knill", "6.88", "0.00009", "0.002", "", "6.88"),
    ("forward", "4.805", "0.00035", "0.0040", "4.800", "4.801"),
)

_TABLES = {
    "thresholds.csv": _TABLE_THRESHOLDS,
    "capacity.csv": _TABLE_CAPACITY,
    "hashingfault.csv": _TABLE_HASHINGFAULT,
    "fixedpoints.csv": _TABLE_FIXEDPOINTS,
    "thresholdvalues2317.csv": _TABLE_2317VALUES,
}


# ---------------------------------------------------------------------------
# subcommands


def cmd_hashing(args) -> int:
    family = model_family(args.model, r=args.r)
    try:
        thr = hashing_threshold(
            family, lo=args.lo, hi=args.hi, tol=args.tol, extend=not args.no_extend
        )
    except BracketError as exc:
        print("hashing: %s" % exc, file=sys.stderr)
        return EXIT_BRACKET
    value = _fmt_raw(thr) if args.raw else _fmt_percent(thr)
    key = "threshold" if args.raw else "threshold_percent"
    if args.format == "json":
        print(json.dumps({"model": args.model, key: float(value)}, sort_keys=True))
    elif args.format == "csv":
        print("model,%s" % key)
        print("%s,%s" % (args.model, value))
    else:
        print(value)
    return EXIT_OK


def cmd_sweep(args) -> int:
    results = sweep_r(r_values=args.r_values, points=args.points, tol=args.tol)
    rows = [(("%.9g" % r), ("%.9g" % (100.0 * thr))) for r, thr in results]
    failed = any(thr != thr for _, thr in results)  # NaN check
    if args.format == "json":
        payload = {
            "columns": ["r", "threshold_percent"],
            "rows": [[float(a), float(b)] for a, b in rows],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("r,threshold_percent")
        for a, b in rows:
            print("%s,%s" % (a, b))
    if failed:
        print("sweep: some thresholds could not be bracketed", file=sys.stderr)
        return EXIT_BRACKET
    if args.assert_monotone:
        values = [thr for _, thr in results]
        if any(values[i] <= values[i + 1] for i in range(len(values) - 1)):
            print("sweep: thresholds are not strictly decreasing in r", file=sys.stderr)
            return EXIT_BRACKET
    return EXIT_OK


def cmd_concat(args) -> int:
    if args.model == "one-type":
        dist_fn = one_type_dist
    else:
        dist_fn = model_level0(model_family(args.model, r=args.r))
    config = McConfig(
        population=args.population, levels=args.levels, seed=args.seed
    )

    if args.at is not None:
        verdict, level = mc_verdict_at(dist_fn, args.at, config)
        if args.format == "json":
            print(
                json.dumps(
                    {"model": args.model, "p": args.at, "verdict": verdict, "level": level},
                    sort_keys=True,
                )
            )
        else:
            print("%s %d" % (verdict, level))
        return EXIT_INCONCLUSIVE if verdict == "inconclusive" else EXIT_OK

    if args.lo is None or args.hi is None:
        print("concat: need --at, or both --lo and --hi", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.seeds > 1:
            mean, std, _ = mc_threshold_error_bar(
                dist_fn, args.lo, args.hi, config, n_seeds=args.seeds, tol=args.tol
            )
            thr, err = mean, std
        else:
            thr = concat_threshold_mc(dist_fn, args.lo, args.hi, config, tol=args.tol)
            err = None
    except BracketError as exc:
        print("concat: %s" % exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE

    if args.raw:
        key, value = "threshold", _fmt_raw(thr)
        err_value = None if err is None else _fmt_raw(err)
    else:
        key, value = "threshold_percent", _fmt_percent(thr)
        err_value = None if err is None else _fmt_percent(err)
    if args.format == "json":
        payload = {"model": args.model, key: float(value)}
        if err_value is not None:
            payload[key + "_std"] = float(err_value)
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        if err_value is None:
            print("model,%s" % key)
            print("%s,%s" % (args.model, value))
        else:
            print("model,%s,%s_std" % (key, key))
            print("%s,%s,%s" % (args.model, value, err_value))
    else:
        print(value if err_value is None else "%s +- %s" % (value, err_value))
    return EXIT_OK


def cmd_tables(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    header = [
        "# generated-by: psthresh tables",
        "# git: %s" % _git_hash(),
        "# seed: %d" % args.seed,
    ]
    for name, table in sorted(_TABLES.items()):
        path = os.path.join(args.outdir, name)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in table:
            writer.writerow(row)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(header) + "\n")
            fh.write(buf.getvalue())
        print(path)
    return EXIT_OK


def cmd_capacity(args) -> int:
    c1, c3 = capacity_one_type(), capacity_three_type()
    if args.raw:
        one, three = _fmt_raw(c1), _fmt_raw(c3)
        keys = ("one_type", "three_type")
    else:
        one, three = _fmt_percent(c1), _fmt_percent(c3)
        keys = ("one_type_percent", "three_type_percent")
    if args.format == "json":
        print(json.dumps({keys[0]: float(one), keys[1]: float(three)}, sort_keys=True))
    elif args.format == "csv":
        print("%s,%s" % keys)
        print("%s,%s" % (one, three))
    else:
        print("%s %s" % (one, three))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="psthresh",
        description="Post-selected fault-tolerance threshold calculations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("hashing", help="hashing-bound threshold of a noise family")
    p.add_argument("--model", choices=SOLVER_FAMILIES, required=True)
    p.add_argument("--r", type=_unit, default=0.0, help="measurement fraction (depolarizing)")
    p.add_argument("--lo", type=_unit, default=1e-3)
    p.add_argument("--hi", type=_unit, default=0.25)
    p.add_argument("--tol", type=_positive, default=1e-6)
    p.add_argument("--no-extend", action="store_true", help="fail instead of widening the bracket")
    p.add_argument("--raw", action="store_true", help="print the probability, not a percentage")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_hashing)

    p = sub.add_parser("sweep", help="depolarizing threshold vs measurement fraction r")
    p.add_argument("--points", type=_points, default=11)
    p.add_argument("--r-values", type=_unit, nargs="+", default=None)
    p.add_argument("--tol", type=_positive, default=1e-6)
    p.add_argument("--assert-monotone", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("concat", help="Monte Carlo concatenation threshold ([[7,1,3]])")
    p.add_argument(
        "--model", choices=("one-type",) + SOLVER_FAMILIES, required=True,
        help="level-0 distribution: a raw one-type channel or a teleported model",
    )
    p.add_argument("--r", type=_unit, default=0.0)
    p.add_argument("--at", type=_unit, default=None, help="single verdict at this rate")
    p.add_argument("--lo", type=_unit, default=None)
    p.add_argument("--hi", type=_unit, default=None)
    p.add_argument("--population", type=_count, default=10_000)
    p.add_argument("--levels", type=_count, default=12)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", type=_count, default=1, help="average this many seeds (error bar)")
    p.add_argument("--tol", type=_positive, default=2e-4)
    p.add_argument("--raw", action="store_true")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_concat)

    p = sub.add_parser("capacity", help="one-type and three-type hashing capacities")
    p.add_argument("--raw", action="store_true")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("tables", help="write the reference tables as CSV files")
    p.add_argument("--outdir", default=".")
    p.add_argument("--seed", type=int, default=1, help="seed recorded in the provenance header")
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
