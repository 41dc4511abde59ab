"""psthresh benchmark.

    python3 bench/run.py --workload {mc-threshold,hashing-cli,code-maps}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory.  The workload's item list (see
``workloads.py``) is built from the seed and run as passes, one item
after another, until the next pass would end after ``--seconds``; at
least one pass always runs.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
Times are on the calibrated scale of ``timing.py``; raw times go to the
results file.  ``setup_s`` is the median over fresh processes of
importing ``psthresh`` and building its lazy tables (numpy already
imported); ``wall_s`` is the op list's time, the sum over its ops of
each op's time over the passes (see ``timing.py``); ``ops_per_s``,
``op_ms_p50`` and ``op_ms_p90`` come from the same per-op times;
``peak_rss_mb`` is this process's peak resident set at the end of the
first pass; ``target_hits`` counts published targets reproduced within
their tolerance.

``--trace 1`` runs the same untraced passes, then passes for a quarter
of ``--seconds`` (at least one) with every public function of the layer
modules wrapped (``tracing.py``), and reports the per-layer metrics, per
pass of the item list.

Every run checks every result outside the timed passes, and compares
each later pass (and the traced passes) with the first.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with the machine it ran on,
goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from timing import CAL_REF_S, Passes  # noqa: E402
from tracing import DECOMPOSE_MACS_PER_ROW, LAYERS, Tracer, layer_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9

#: traced passes run for this share of --seconds (at least one pass)
TRACED_SHARE = 0.25

#: public calls that build the package's lazy tables: the [[7,1,3]]
#: decomposition tables, Golay enumerators, crash polynomials and
#: commutation signs
TABLE_CALLS = """
codes.first_level_fidelity([1.0, 0.0, 0.0, 0.0])
codes.golay_sector_entropy(0.01)
codes.crash_poly_713()
codes.crash_poly_2317()
noise.diagonal_q(noise.knill(0.01))
"""

#: child process timing the import of the package plus TABLE_CALLS; numpy,
#: a dependency the package does not control, is imported before the
#: clock starts, and the calibration kernel runs just before and after
#: the timed part (see timing.py)
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import numpy
from timing import Calibrator
cal = Calibrator()
cal.sample()
t0 = time.perf_counter()
import psthresh
from psthresh import codes, noise
%s
t1 = time.perf_counter()
cal.sample()
print(repr(t1 - t0), repr(cal.factor(0)))
""" % TABLE_CALLS

#: the ROADMAP's figure for one population level, for the trace summary
ROADMAP_LEVEL_MS = 333.0


def load_package():
    if not (SRC / "psthresh" / "__init__.py").is_file():
        raise SystemExit("bench: no package source at %s" % (SRC / "psthresh"))
    sys.path.insert(0, str(SRC))
    import psthresh

    if Path(psthresh.__file__).resolve().parent != (SRC / "psthresh").resolve():
        raise SystemExit("bench: imported psthresh from %s, not %s" % (psthresh.__file__, SRC))
    for layer in LAYERS:
        __import__("psthresh." + layer)
    return psthresh


def warm_up(ps):
    """Fill the lazy tables before timing, as a long-lived process would."""
    exec(TABLE_CALLS, {"codes": ps.codes, "noise": ps.noise})


def measure_setup():
    """Median set-up time over SETUP_REPEATS fresh processes, each scaled
    by its own calibration; also the raw times."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        t, factor = map(float, out.stdout.split())
        raw.append(t)
        scaled.append(t * factor)
    return statistics.median(scaled), raw


# ---------------------------------------------------------------------------
# machine record


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, asked through its
    own entry point; None when it cannot be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _pct(values, q):
    return float(np.percentile(np.asarray(values) * 1e3, q))


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer_metrics(names, tracer, n_passes, overhead_ratio):
    """Per-layer metrics, per traced pass; `<module>.self_share` is the
    module's share of all traced time."""
    stats = layer_stats(tracer)
    module_self = {}
    for name, st in stats.items():
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + st["self_ns"] / 1e9
    total = sum(module_self.values())
    out = {}
    for metric in names:
        if metric == "trace.overhead_ratio":
            out[metric] = overhead_ratio
            continue
        parts = metric.split(".")
        if len(parts) == 2 and parts[1] == "self_share":
            out[metric] = module_self.get(parts[0], 0.0) / total
            continue
        st = stats.get(parts[0] + "." + parts[1], {})
        calls = st.get("calls", 0)
        busy = st.get("busy_ns", 0) / 1e9
        value = {
            "calls": calls,
            "rows": st.get("rows", 0),
            "busy_s": busy,
            "self_s": st.get("self_ns", 0) / 1e9,
            "mflop": 2 * DECOMPOSE_MACS_PER_ROW * st.get("rows", 0) / 1e6,
            "levels": st.get("levels", 0),
            "probes": st.get("probes", 0),
            "iterations": st.get("iterations", 0),
        }.get(parts[2])
        if value is not None:
            out[metric] = value / n_passes
        elif parts[2] == "levels_per_s":
            out[metric] = st.get("levels", 0) / busy if busy else 0.0
        elif parts[2] == "inconclusive_ratio":
            out[metric] = st.get("inconclusive", 0) / calls if calls else 0.0
        elif parts[2] == "no_convergence_ratio":
            out[metric] = st.get("raised", 0) / calls if calls else 0.0
        else:
            raise KeyError("no rule for per-layer metric %r" % metric)
    return out, stats, module_self


def trace_checks(tracer, stats, module_self, traced):
    """Self times must add up to the traced wall time, and no span may
    have children that outlast it."""
    span_total = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0) / 1e9
    self_total = sum(module_self.values())
    wall = sum(traced.walls)
    negative = sum(st.get("negative_self", 0) for st in stats.values())
    return [
        ("self times add up to the pass spans", abs(self_total - span_total) <= 1e-6 * span_total,
         "%.6f s vs %.6f s" % (self_total, span_total)),
        ("pass spans cover the traced wall time", abs(span_total - wall) <= 0.01 * wall,
         "%.4f s vs %.4f s" % (span_total, wall)),
        ("no span outlasted by its children", negative == 0, "%d spans" % negative),
    ]


def print_trace_table(workload, stats, module_self, n_passes):
    total = sum(module_self.values())
    print("trace: self time per layer, %s, %d traced pass(es), %.3f s traced per pass"
          % (workload, n_passes, total / n_passes))
    for module, self_s in sorted(module_self.items(), key=lambda kv: -kv[1]):
        print("  %-10s %10.4f s/pass %6.1f%%" % (module, self_s / n_passes, 100 * self_s / total))
    top = sorted(stats.items(), key=lambda kv: -kv[1]["self_ns"])[:12]
    for name, st in top:
        print("    %-36s calls/pass %9.1f  self %8.4f s  busy %8.4f s"
              % (name, st["calls"] / n_passes, st["self_ns"] / 1e9 / n_passes, st["busy_ns"] / 1e9 / n_passes))
    mc = stats.get("threshold.mc_verdict")
    if mc and mc.get("levels"):
        codes_busy = sum(st["busy_ns"] for n, st in stats.items()
                         if n in ("codes.decompose_713", "codes.recover_713"))
        print("  per population level: %.1f ms in mc_verdict, %.1f ms in decompose_713 + recover_713"
              " (ROADMAP figure: %.0f ms)" % (mc["busy_ns"] / 1e6 / mc["levels"],
                                              codes_busy / 1e6 / mc["levels"], ROADMAP_LEVEL_MS))


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ps = load_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    machine = machine_record(args)
    print("machine: " + json.dumps(machine, sort_keys=True))

    workload = WORKLOADS[args.workload](ps, args.seed)
    items = workload.items
    setup = measure_setup() if not args.trace else None
    warm_up(ps)

    untraced = Passes(calibrate=True).run(items, args.seconds)
    traced = tracer = None
    if args.trace:
        tracer = Tracer(ps)
        tracer.install()
        try:
            traced = Passes(calibrate=False).run(items, args.seconds * TRACED_SHARE, tracer)
        finally:
            tracer.remove()

    # an op fails when it raised, failed a check or changed between passes;
    # each extra check (CLI contract, repeated probe) counts as an op
    checks = []
    failed_items = set(untraced.raised)
    for i, label, ok, detail in workload.check(untraced.results):
        checks.append((label, ok, detail))
        if not ok:
            failed_items.add(i)
    extra = workload.extra_checks(untraced.results)
    checks += extra
    attempted = untraced.ops + len(extra)
    failed = len(failed_items) + untraced.mismatched + sum(not ok for _, ok, _ in extra)
    notes = list(untraced.notes)

    op_s = untraced.op_times_s()
    raw_op_s = untraced.op_times_s(scaled=False)
    metrics = {}
    if args.trace:
        attempted += traced.ops
        failed += len(traced.raised) + traced.mismatched + untraced.compare(traced.results, "traced pass")
        notes += traced.notes
        names = [m["name"] for m in spec["per_layer"]]
        overhead = sum(traced.op_times_s()) / sum(raw_op_s) - 1
        values, stats, module_self = per_layer_metrics(names, tracer, len(traced.walls), overhead)
        tc = trace_checks(tracer, stats, module_self, traced)
        checks += tc
        attempted += len(tc)
        failed += sum(not ok for _, ok, _ in tc)
        print_trace_table(args.workload, stats, module_self, len(traced.walls))
        metrics = values
    else:
        hits = workload.targets(untraced.results)
        for label, ok, detail in hits:
            print("target: %-48s %s  %s" % (label, "hit " if ok else "MISS", detail))
        metrics = {
            "setup_s": setup[0],
            "wall_s": sum(op_s),
            "ops_per_s": len(op_s) / sum(op_s),
            "op_ms_p50": _pct(op_s, 50),
            "op_ms_p90": _pct(op_s, 90),
            "peak_rss_mb": untraced.peak_rss_mb,
            "target_hits": sum(ok for _, ok, _ in hits),
        }
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in metrics]
        if missing:
            raise KeyError("no rule for end-to-end metrics %s" % missing)

    for label, ok, detail in checks:
        if not ok:
            print("check FAILED: %s (%s)" % (label, detail))
    for note in notes:
        print(note, file=sys.stderr)
    print("passes: %d untraced, walls %.3f..%.3f s, %d ops of which %d per pass; failed %d of %d attempted"
          " (failed_ratio %.4g)" % (len(untraced.walls), min(untraced.walls), max(untraced.walls), untraced.ops,
                                    len(op_s), failed, attempted, failed / attempted))
    cal = untraced.cal
    print("calibration: %d samples, %.3f..%.3f ms, reference %.3f ms; raw wall %.4f s"
          % (len(cal.samples), 1e3 * min(cal.samples), 1e3 * max(cal.samples), 1e3 * CAL_REF_S, sum(raw_op_s)))
    by_kind = {}
    for kind, scaled, raw in zip(untraced.op_kinds, op_s, raw_op_s):
        by_kind.setdefault(kind, ([], []))
        by_kind[kind][0].append(scaled)
        by_kind[kind][1].append(raw)
    for kind, (scaled, raw) in sorted(by_kind.items()):
        print("  op %-40s n=%-4d p50 %9.3f ms (raw %9.3f)  p90 %9.3f ms (raw %9.3f)"
              % (kind, len(scaled), _pct(scaled, 50), _pct(raw, 50), _pct(scaled, 90), _pct(raw, 90)))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = dict(result, machine=machine, checks=checks, pass_walls=untraced.walls,
                  raw_wall_s=sum(raw_op_s), raw_op_ms_p50=_pct(raw_op_s, 50), raw_op_ms_p90=_pct(raw_op_s, 90),
                  calibration_s=untraced.cal.samples, setup_raw_s=setup[1] if setup else None,
                  failed_ratio=failed / attempted)
    (OUT / (stem + ".json")).write_text(json.dumps(record, default=str) + "\n")
    if tracer:
        tracer.write(OUT / (stem + "-spans.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
