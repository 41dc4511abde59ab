"""Command line interface.

Exit codes: 0 on success, 1 when reproduce computes a published figure
outside its tolerance, 2 when a deterministic solve cannot bracket its
crossing (or a sweep has failed rows), 3 when a Monte Carlo verdict is
inconclusive or its bracket fails, 64 for usage errors, which include
out-of-range values (--tol not above 0, a rate or fraction outside
[0, 1], too few points, population, levels or seeds, a negative seed,
a --lo not below --hi, an unset hashing end counting at its solver
default) and flags the chosen mode would ignore:
--r with a model other than depolarizing, --points with --r-values, and
--lo, --hi, --tol, --raw or --seeds above 1 with --at.

Percentages are printed with 6 significant digits unless --raw asks for
plain probabilities; sweeps use 9 significant digits.  Output for a
given command line is byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple

from .codes import crash_poly_713, crash_poly_2317, degeneracy_correction
from .noise import SOLVER_FAMILIES, model_family
from .postselect import indep_fixed_point, model_teleport_output
from .threshold import (
    BracketError,
    McConfig,
    capacity_one_type,
    capacity_three_type,
    concat_threshold_mc,
    crash_difference_threshold,
    fixed_fidelity_point,
    forward_combined_diagonal,
    hashing_threshold,
    mc_threshold_error_bar,
    mc_verdict_at,
    model_level0,
    one_type_dist,
    overhead_success,
    sweep_r,
    three_type_dist,
)

EXIT_OK = 0
EXIT_MISS = 1
EXIT_BRACKET = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with EXIT_USAGE."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


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
_seed = _checked(int, lambda n: n >= 0, ">= 0")
_points = _checked(int, lambda n: n >= 2, ">= 2")


# ---------------------------------------------------------------------------
# published figures


class Target(NamedTuple):
    """One published figure.

    criterion is the acceptance criterion the figure belongs to, or None
    for one outside the criteria; label names the sub-check; want is the
    published value, in the unit the label gives; compute is the solve
    that reproduces it, with tol the largest accepted |computed - want|.
    compute and tol are None for figures the package only records.
    """

    criterion: int | None
    label: str
    want: float
    tol: float | None
    compute: Callable[[], float] | None


def _level0(model: str, r: float = None):
    """Level-0 distribution family of a concat --model choice."""
    if model == "one-type":
        return one_type_dist
    return model_level0(model_family(model, r=r))


def _hashing_rows(name, threshold_pp, pxz_pp, py_pp):
    """Criterion 1: the family's hashing threshold, and the teleported
    error components there (p_X and p_Z share one published value)."""

    def threshold():
        return hashing_threshold(name, tol=1e-9)

    def component(index):
        return lambda: 100 * model_teleport_output(model_family(name)(threshold()))[index]

    return (
        Target(1, "%s threshold (pp)" % name, threshold_pp, 0.0005, lambda: 100 * threshold()),
        Target(1, "%s p_X (pp)" % name, pxz_pp, 0.001, component(1)),
        Target(1, "%s p_Z (pp)" % name, pxz_pp, 0.001, component(3)),
        Target(1, "%s p_Y (pp)" % name, py_pp, 0.001, component(2)),
    )


def _forward_fixed_point():
    """Decoupled fixed point at the forward hashing threshold."""
    pf = hashing_threshold("forward", tol=1e-12)
    return indep_fixed_point(1.0 - 2.0 * pf)


def _mc_row(model, lo, hi, want_pp):
    """Criterion 5: the [[7,1,3]] Monte Carlo threshold at the default
    McConfig, bisected from the bracket [lo, hi]."""
    return Target(
        5, "%s MC threshold (pp)" % model, want_pp, 0.05,
        lambda: 100 * concat_threshold_mc(_level0(model), lo, hi),
    )


def _fixed_fidelity_rows(code, family, rate_pp, fidelity):
    """Criterion 9: where one level of encoding leaves the fidelity
    unchanged."""
    return (
        Target(
            9, "%s %s rate (pp)" % (code, family), rate_pp, 0.005,
            lambda: 100 * fixed_fidelity_point(code, family)[0],
        ),
        Target(
            9, "%s %s fidelity" % (code, family), fidelity, 5e-4,
            lambda: fixed_fidelity_point(code, family)[1],
        ),
    )


def _recorded(criterion, label, want):
    """A figure the package records but does not compute."""
    return Target(criterion, label, want, None, None)


# the [[23,1,7]] forward figures that criterion 8's solves start from
_P_E_2317_FORWARD = _recorded(None, "2317 forward threshold (pp)", 4.805)
_C_E_2317_FORWARD = Target(
    7, "2317 c_e at the forward threshold", 0.00035, 2e-5,
    lambda: degeneracy_correction("2317", (1.0 - _forward_fixed_point().x_g) / 2.0),
)

#: Every published figure, in the order `psthresh reproduce` prints
#: them and the acceptance tests check them.
TARGETS = (
    *_hashing_rows("depolarizing", 8.27515, 7.13361, 4.78136),
    *_hashing_rows("knill", 6.90240, 7.52699, 4.12990),
    *_hashing_rows("forward", 4.81816, 9.79217, 1.21061),
    Target(3, "x_g at the forward threshold", 0.98482389, 1e-7, lambda: _forward_fixed_point().x_g),
    Target(3, "x_b at the forward threshold", 0.87641757, 1e-7, lambda: _forward_fixed_point().x_b),
    Target(
        3, "combined diagonal c", 0.77994427, 1e-7,
        lambda: forward_combined_diagonal(hashing_threshold("forward", tol=1e-12)),
    ),
    Target(4, "one-type capacity (pp)", 11.0028, 0.0005, lambda: 100 * capacity_one_type()),
    Target(4, "three-type capacity (pp)", 6.3097, 0.0005, lambda: 100 * capacity_three_type()),
    _mc_row("one-type", 0.09, 0.13, 10.963),
    _mc_row("depolarizing", 0.06, 0.10, 8.229),
    _mc_row("knill", 0.05, 0.09, 6.864),
    _mc_row("forward", 0.03, 0.07, 4.8036),
    Target(6, "f7(0.78795)", 0.7147, 5e-4, lambda: float(crash_poly_713()(0.78795))),
    Target(6, "f7(0.780736)", 0.7002, 5e-4, lambda: float(crash_poly_713()(0.780736))),
    Target(
        7, "713 level-1 c_e at p_g = 0.70% (pp)", 0.62, 0.005,
        lambda: 100 * degeneracy_correction("713-L1", 0.0070),
    ),
    _C_E_2317_FORWARD,
    Target(
        7, "713 level-2 c_e at p_g = 0.70%", 6.5e-6, 1e-6,
        lambda: degeneracy_correction("713-L2", 0.0070),
    ),
    _recorded(7, "2317 depolarizing c_e", 0.00017),
    _recorded(7, "2317 knill c_e", 0.00009),
    Target(
        8, "p_r from baseline 4.805% (pp)", 4.801, 0.002,
        lambda: 100 * crash_difference_threshold(
            crash_poly_2317(), _C_E_2317_FORWARD.want, _P_E_2317_FORWARD.want / 100
        ),
    ),
    Target(
        8, "zero-margin solve returns the baseline (pp)", _P_E_2317_FORWARD.want, 1e-4,
        lambda: 100 * crash_difference_threshold(
            crash_poly_2317(), 0.0, _P_E_2317_FORWARD.want / 100
        ),
    ),
    _recorded(8, "2317 depolarizing p_r (pp)", 8.25),
    _recorded(8, "2317 knill p_r (pp)", 6.88),
    _recorded(8, "2317 depolarizing delta_p (pp)", 0.003),
    _recorded(8, "2317 knill delta_p (pp)", 0.002),
    _recorded(8, "2317 forward delta_p (pp)", 0.0040),
    _recorded(8, "2317 forward p_a (pp)", 4.800),
    *_fixed_fidelity_rows("713", "knill", 3.472, 0.90602),
    *_fixed_fidelity_rows("713", "depolarizing", 4.039, 0.91122),
    *_fixed_fidelity_rows("713", "forward", 2.9595, 0.87703),
    *_fixed_fidelity_rows("2317", "forward", 3.5471, 0.85108),
    Target(
        10, "success of 14 steps at p = 15.3% (pp)", 9.79, 0.01,
        lambda: 100 * overhead_success(0.153, 14),
    ),
    _recorded(None, "1715 depolarizing threshold (pp)", 8.2),
    _recorded(None, "1715 knill threshold (pp)", 6.8),
    _recorded(None, "1715 forward threshold (pp)", 4.790),
    _recorded(None, "2317 depolarizing threshold (pp)", 8.25),
    _recorded(None, "2317 knill threshold (pp)", 6.88),
    _P_E_2317_FORWARD,
    # read as the concatenated [[7,1,3]] Monte Carlo threshold of the
    # three-type channel, as the one-type threshold (10.963) is read
    # beside the one-type capacity (11.0028)
    Target(
        None, "713 three-type capacity (pp)", 6.270, 0.05,
        lambda: 100 * concat_threshold_mc(three_type_dist, 0.05, 0.08),
    ),
    _recorded(None, "1715 one-type capacity (pp)", 10.927),
    _recorded(None, "1715 three-type capacity (pp)", 6.251),
    _recorded(None, "2317 one-type capacity (pp)", 10.968),
    _recorded(None, "2317 three-type capacity (pp)", 6.29),
    _recorded(None, "422+622 one-type capacity (pp)", 10.9466),
    _recorded(None, "422+622 three-type capacity (pp)", 6.2719),
)


# ---------------------------------------------------------------------------
# subcommands


def _usage_error(args, message) -> int:
    """Report a flag combination the subcommand rejects."""
    print("%s: %s" % (args.command, message), file=sys.stderr)
    return EXIT_USAGE


def _probability(args, p: float, name: str = "threshold"):
    """Field of a computed probability: NAME_percent at 6 significant
    digits of the percentage, or NAME at 9 significant digits of p under
    --raw.  Its JSON value is the float of its printed text."""
    column, text = (name, "%.9g" % p) if args.raw else (name + "_percent", "%.6g" % (100.0 * p))
    return column, text, float(text)


def _print_row(args, fields, text: str) -> None:
    """Print one result in args.format.  fields are (column, printed
    text, JSON value) in column order: csv prints the columns, then the
    texts; json the values, keys sorted; text prints the line text."""
    if args.format == "json":
        print(json.dumps({column: value for column, _, value in fields}, sort_keys=True))
    elif args.format == "csv":
        print(",".join(column for column, _, _ in fields))
        print(",".join(printed for _, printed, _ in fields))
    else:
        print(text)


def _given(args, *names) -> dict:
    """The named flags that were set, as keyword arguments, so that an
    unset flag leaves the solver's own default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def cmd_hashing(args) -> int:
    family = model_family(args.model, r=args.r)
    try:
        thr = hashing_threshold(family, extend=not args.no_extend, **_given(args, "lo", "hi", "tol"))
    except BracketError as exc:
        print("hashing: %s" % exc, file=sys.stderr)
        return EXIT_BRACKET
    except ValueError:
        # the one check the flags' types leave to the solver: lo < hi, an
        # unset end at the solver's default
        return _usage_error(args, "--lo must be below --hi")
    field = _probability(args, thr)
    _print_row(args, [("model", args.model, args.model), field], field[1])
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = {"r_values": args.r_values} if args.points is None else {"points": args.points}
    results = sweep_r(**_given(args, "tol"), **grid)
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
    dist_fn = _level0(args.model, r=args.r)
    config = McConfig(
        population=args.population, levels=args.levels, seed=args.seed
    )

    if args.at is not None:
        if args.lo is not None or args.hi is not None:
            return _usage_error(args, "--at takes no --lo or --hi")
        if args.tol is not None or args.raw:
            return _usage_error(args, "--at takes no --tol or --raw")
        if args.seeds > 1:
            return _usage_error(args, "--seeds needs --lo and --hi, not --at")
        verdict, level = mc_verdict_at(dist_fn, args.at, config)
        fields = [
            ("level", str(level), level),
            ("model", args.model, args.model),
            ("p", str(args.at), args.at),
            ("verdict", verdict, verdict),
        ]
        _print_row(args, fields, "%s %d" % (verdict, level))
        return EXIT_INCONCLUSIVE if verdict == "inconclusive" else EXIT_OK

    if args.lo is None or args.hi is None:
        return _usage_error(args, "need --at, or both --lo and --hi")
    if not args.lo < args.hi:
        return _usage_error(args, "--lo must be below --hi")
    tol = _given(args, "tol")
    try:
        if args.seeds > 1:
            thr, err, _ = mc_threshold_error_bar(
                dist_fn, args.lo, args.hi, config, n_seeds=args.seeds, **tol
            )
        else:
            thr, err = concat_threshold_mc(dist_fn, args.lo, args.hi, config, **tol), None
    except BracketError as exc:
        print("concat: %s" % exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE

    fields = [("model", args.model, args.model), _probability(args, thr)]
    if err is not None:
        column, text, value = _probability(args, err)
        fields.append((column + "_std", text, value))
    _print_row(args, fields, " +- ".join(printed for _, printed, _ in fields[1:]))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    missed = False
    for row in TARGETS:
        if row.compute is None:
            got = tol = verdict = "-"
        else:
            value = row.compute()
            hit = abs(value - row.want) <= row.tol
            missed = missed or not hit
            got, tol, verdict = "%.10g" % value, "%g" % row.tol, "hit" if hit else "miss"
        criterion = "-" if row.criterion is None else row.criterion
        print(
            "%-2s %-44s %16s %12s %8s  %s"
            % (criterion, row.label, got, "%.10g" % row.want, tol, verdict)
        )
    return EXIT_MISS if missed else EXIT_OK


def cmd_capacity(args) -> int:
    fields = [
        _probability(args, capacity_one_type(), "one_type"),
        _probability(args, capacity_three_type(), "three_type"),
    ]
    _print_row(args, fields, " ".join(printed for _, printed, _ in fields))
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
    p.add_argument("--r", type=_unit, help="measurement fraction (depolarizing only)")
    p.add_argument("--lo", type=_unit)
    p.add_argument("--hi", type=_unit)
    p.add_argument("--tol", type=_positive)
    p.add_argument("--no-extend", action="store_true", help="fail instead of widening the bracket")
    p.add_argument("--raw", action="store_true", help="print the probability, not a percentage")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_hashing)

    p = sub.add_parser("sweep", help="depolarizing threshold vs measurement fraction r")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--points", type=_points, help="evenly spaced r in [0, 1]")
    grid.add_argument("--r-values", type=_unit, nargs="+")
    p.add_argument("--tol", type=_positive)
    p.add_argument("--assert-monotone", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("concat", help="Monte Carlo concatenation threshold ([[7,1,3]])")
    p.add_argument(
        "--model", choices=("one-type",) + SOLVER_FAMILIES, required=True,
        help="level-0 distribution: a raw one-type channel or a teleported model",
    )
    p.add_argument("--r", type=_unit, help="measurement fraction (depolarizing only)")
    p.add_argument("--at", type=_unit, help="single verdict at this rate")
    p.add_argument("--lo", type=_unit)
    p.add_argument("--hi", type=_unit)
    defaults = McConfig._field_defaults
    p.add_argument("--population", type=_count, default=defaults["population"])
    p.add_argument(
        "--levels", type=_count, default=defaults["levels"],
        help="levels per flow; a flow that meets neither stopping bound is inconclusive, and with far "
        "fewer than %d individuals one can settle on the wrong side" % defaults["population"],
    )
    p.add_argument("--seed", type=_seed, default=defaults["seed"])
    p.add_argument("--seeds", type=_count, default=1, help="average this many seeds (error bar)")
    p.add_argument("--tol", type=_positive, help="bisection tolerance (default: the solver's)")
    p.add_argument("--raw", action="store_true", help="print the probability, not a percentage")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_concat)

    p = sub.add_parser("capacity", help="one-type and three-type hashing capacities")
    p.add_argument("--raw", action="store_true")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("reproduce", help="compute every published figure against its value")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --r, a flag of hashing and concat
    if getattr(args, "r", None) is not None and args.model != "depolarizing":
        return _usage_error(args, "--r applies to --model depolarizing only")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
