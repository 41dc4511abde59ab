"""Record a benchmark comparison as ``BENCH_<tag>.json`` at the repo root.

    python3 tools/bench_record.py --tag 6 --workload mc-threshold \
        --tree parent=../parent --tree change=. --seeds 1-5 --seconds 20

Each ``--tree LABEL=PATH`` names a source checkout holding ``bench/`` and
``src/``.  For every seed, ``bench/run.py --trace 0`` runs once on each
tree, in a fresh process with the tree as working directory; the order
of the trees alternates from one seed to the next, so that slow spells
of the machine fall on both sides.  Before the first run, each tree's
``src/`` and ``bench/`` are compiled to bytecode: the run's set-up child
(``python -I``) writes ``__pycache__`` into the tree it times, so a tree
that held no bytecode would start behind one that did.  The run's last
stdout line gives its metrics, its ``op KIND n=.. p50 .. p90 ..`` lines
the calibrated and raw per-op times of each kind of op, and the record
it writes to the tree's ``.bench_out/`` gives the machine and the commit
it ran on.

The file holds, per tree, every run's metrics and per-kind op times and,
per end-to-end metric of ``BENCHMARK.json`` and per kind's p50 and p90,
the median, quartiles and IQR over the seeds; per seed, the ratio
change/first tree of each metric when exactly two trees are given; and
the machine record shared by all runs.  Nothing under ``bench/`` is
changed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: machine fields every run must share for the runs to be comparable
MACHINE_KEYS = ("nproc", "cpu_affinity", "cpu_model", "python", "numpy", "blas", "blas_threads")


def parse_seeds(text):
    """'1-5' or '1,3,7' -> list of ints, which must be distinct and ascending."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(s) for s in text.split(",")]
    if not seeds or any(a >= b for a, b in zip(seeds, seeds[1:])):
        raise argparse.ArgumentTypeError("seeds must be a non-empty ascending list, got %r" % text)
    return seeds


def parse_tree(text):
    label, sep, path = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError("expected LABEL=PATH, got %r" % text)
    tree = Path(path).resolve()
    if not (tree / "bench" / "run.py").is_file():
        raise argparse.ArgumentTypeError("no bench/run.py under %s" % tree)
    return label, tree


def compile_tree(tree):
    """Write the bytecode of every module under the tree's src/ and bench/."""
    for sub in ("src", "bench"):
        if not compileall.compile_dir(tree / sub, quiet=1):
            raise SystemExit("bench_record: %s does not compile" % (tree / sub))


#: a per-kind line of bench/run.py: "  op KIND n=N p50 X ms (raw X)  p90 X ms (raw X)"
OP_LINE = re.compile(
    r"^\s*op (?P<kind>.+?)\s+n=(?P<n>\d+)\s+p50\s+(?P<p50_ms>\S+) ms \(raw\s+(?P<raw_p50_ms>\S+)\)"
    r"\s+p90\s+(?P<p90_ms>\S+) ms \(raw\s+(?P<raw_p90_ms>\S+)\)$"
)


def parse_op_lines(stdout):
    """kind -> {n, p50_ms, raw_p50_ms, p90_ms, raw_p90_ms} from a run's
    per-kind op lines."""
    kinds = {}
    for line in stdout.splitlines():
        match = OP_LINE.match(line)
        if match:
            fields = match.groupdict()
            kind = fields.pop("kind")
            kinds[kind] = {k: int(v) if k == "n" else float(v) for k, v in fields.items()}
    return kinds


def run_once(tree, workload, seed, seconds):
    """Metrics and machine record of one untraced benchmark run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tree / ".bench_out" / ("%s-seed%d-trace0.json" % (workload, seed))).read_text())
    return {
        "seed": seed,
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "op_kinds": parse_op_lines(proc.stdout),
    }, record["machine"]


def summarise(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1), "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="file name suffix: BENCH_<tag>.json")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--tree", type=parse_tree, action="append", required=True,
                        help="LABEL=PATH of a source checkout; give one per side")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-5"))
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    labels = [label for label, _ in args.tree]
    if len(set(labels)) != len(labels):
        parser.error("tree labels must differ")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]

    for _, tree in args.tree:
        compile_tree(tree)
    runs = {label: [] for label in labels}
    commits = {label: set() for label in labels}
    order, machine = [], None
    for i, seed in enumerate(args.seeds):
        trees = args.tree if i % 2 == 0 else args.tree[::-1]
        for label, tree in trees:
            run, rec = run_once(tree, args.workload, seed, args.seconds)
            shared = {k: rec.get(k) for k in MACHINE_KEYS}
            if machine is None:
                machine = shared
            elif shared != machine:
                raise SystemExit("bench_record: machine changed between runs: %r vs %r" % (shared, machine))
            commits[label].add(rec.get("git_commit"))
            runs[label].append(run)
            order.append([label, seed])
            print("%-8s seed %-3d %s" % (label, seed, " ".join(
                "%s=%.4g" % (n, run["metrics"][n]) for n in names)), flush=True)

    out = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "order": order,
        "machine": machine,
        "trees": {
            label: {
                "commits": sorted(commits[label]),
                "runs": runs[label],
                "summary": {n: summarise([r["metrics"][n] for r in runs[label]]) for n in names},
                "op_kind_summary": {
                    kind: {q: summarise([r["op_kinds"][kind][q] for r in runs[label]]) for q in ("p50_ms", "p90_ms")}
                    for kind in runs[label][0]["op_kinds"]
                },
            }
            for label in labels
        },
    }
    if len(labels) == 2:
        base, new = (runs[label] for label in labels)
        out["ratios"] = {
            "%s/%s" % (labels[1], labels[0]): {
                n: [b["metrics"][n] / a["metrics"][n] if a["metrics"][n] else None for a, b in zip(base, new)]
                for n in names
            }
        }
    path = ROOT / ("BENCH_%s.json" % args.tag)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for label in labels:
        print("%-8s %s" % (label, " ".join(
            "%s=%.4g[%.3g]" % (n, s["median"], s["iqr"]) for n, s in out["trees"][label]["summary"].items())))
        for kind, s in out["trees"][label]["op_kind_summary"].items():
            print("%-8s op %s: p50 %.4g[%.3g] p90 %.4g[%.3g] ms" % (
                label, kind, s["p50_ms"]["median"], s["p50_ms"]["iqr"], s["p90_ms"]["median"], s["p90_ms"]["iqr"]))
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
