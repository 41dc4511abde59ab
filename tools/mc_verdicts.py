"""Print every probe of the criterion-5 Monte Carlo solves as JSON lines.

    python3 tools/mc_verdicts.py --seeds 1-10 > change.jsonl
    python3 tools/mc_verdicts.py --seeds 1-10 --tree ../parent > parent.jsonl
    diff parent.jsonl change.jsonl

The solves are the criterion-5 rows of ``psthresh.cli.TARGETS``: each
family's ``concat_threshold_mc`` on its published bracket, at the default
``McConfig`` except for the seed.  ``--tree PATH`` runs the package under
``PATH/src`` instead of this checkout's.  For each seed and row, in table
order, every verdict the bisection asks for (the two bracket checks
first) is one line ``{"family", "seed", "p", "verdict", "level"}``, with
``p`` printed exactly.  Nothing else goes to stdout, so the output of two
trees can be diffed line by line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_record import parse_seeds

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=[1])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src/ to run")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from psthresh import cli, threshold

    rows = [row for row in cli.TARGETS if row.criterion == 5]
    solve, verdict_at = cli.concat_threshold_mc, threshold.mc_verdict_at
    for seed in args.seeds:
        config = threshold.McConfig(seed=seed)
        for row in rows:
            family = row.label.split()[0]

            def seeded(dist_fn, lo, hi):
                return solve(dist_fn, lo, hi, config)

            def recorded(dist_fn, p, probe_config):
                verdict, level = verdict_at(dist_fn, p, probe_config)
                print(json.dumps({"family": family, "seed": seed, "p": p,
                                  "verdict": verdict, "level": level}), flush=True)
                return verdict, level

            # the row's solve looks both names up at call time
            cli.concat_threshold_mc, threshold.mc_verdict_at = seeded, recorded
            try:
                row.compute()
            finally:
                cli.concat_threshold_mc, threshold.mc_verdict_at = solve, verdict_at
    return 0


if __name__ == "__main__":
    sys.exit(main())
