"""The benchmark's three workloads, their result checks and the published
targets they are scored against.

Each workload turns a seed into a fixed list of items.  An item is one
call into the public API or the CLI; most items are one op, but a Monte
Carlo bisection item marks the start of each of its probes, and each
probe is an op.  Every workload is a closed loop with one client: items
run one after another in a single process.

Items call the package through module attributes at call time
(``ps.codes.first_level_fidelity``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

# Published targets, copied with their tolerances from
# tests/test_acceptance.py.  Values are percentages unless noted.

#: criterion 1: hashing thresholds (pp), tolerance 0.0005 pp
HASHING_TARGETS = {"depolarizing": 8.27515, "knill": 6.90240, "forward": 4.81816}
HASHING_TOL = 0.0005

#: criterion 5: Monte Carlo thresholds (pp) with their bisection brackets,
#: tolerance 0.05 pp, at the default McConfig (population 10^4, 12
#: levels, stream seed 1) and bisection tolerance 2e-4
MC_CASES = (("one-type", 0.09, 0.13, 10.963), ("knill", 0.05, 0.09, 6.86))
MC_TOL = 0.05
MC_BISECT_TOL = 2e-4
MC_STREAM_SEED = 1

#: criterion 8: relaxed crash-probability threshold p_r (pp) from the
#: 4.805% baseline at delta = 0.00035, and the zero-margin solve
CRASH_BASELINE = 0.04805
CRASH_DELTA = 0.00035
CRASH_TARGETS = ((CRASH_DELTA, 4.801, 0.002), (0.0, 4.805, 1e-4))
CRASH_TOL = 1e-9

#: criterion 9, forward cases: fixed-fidelity rate (pp, tol 0.005) and
#: fidelity (tol 5e-4)
FIXED_FIDELITY_TARGETS = (("713", 2.9595, 0.87703), ("2317", 3.5471, 0.85108))
FF_RATE_TOL = 0.005
FF_FID_TOL = 5e-4


@dataclass
class Item:
    kind: str
    call: Callable[[Callable[[float], None]], Any]  # called with the probe marker


def _near(label, got, want, tol):
    ok = got is not None and abs(float(got) - want) <= tol
    return label, ok, "got %s want %.10g tol %g" % (got, want, tol)


# ---------------------------------------------------------------------------
# mc-threshold


class McThreshold:
    """Both solves run on the stream seed of the published configuration,
    so that target_hits means what criterion 5 means; the workload seed
    orders the solves and picks the probe the checks repeat."""

    name = "mc-threshold"

    def __init__(self, ps, seed):
        rng = random.Random(seed)
        self.cases = list(MC_CASES)
        rng.shuffle(self.cases)
        self.ps = ps
        self.probes = {}
        self.repeat_case = rng.randrange(len(self.cases))
        self.items = [self._solve_item(*case[:3]) for case in self.cases]

    def _level0(self, model):
        thr = self.ps.threshold
        return thr.one_type_dist if model == "one-type" else thr.model_level0(model)

    def _solve_item(self, model, lo, hi):
        probes = self.probes[model] = []

        def call(mark):
            thr = self.ps.threshold
            base = self._level0(model)
            probes.clear()

            def dist_fn(p):
                mark(p)
                probes.append(p)
                return base(p)

            config = thr.McConfig(seed=MC_STREAM_SEED)
            return thr.concat_threshold_mc(dist_fn, lo, hi, config, tol=MC_BISECT_TOL)

        return Item("concat_threshold_mc %s [%g, %g]" % (model, lo, hi), call)

    def check(self, results):
        out = []
        for i, ((model, lo, hi, _), thr) in enumerate(zip(self.cases, results)):
            ok = isinstance(thr, float) and lo <= thr <= hi and len(self.probes[model]) >= 3
            out.append((i, "%s threshold inside [%g, %g]" % (model, lo, hi), ok, "got %r" % thr))
        return out

    def extra_checks(self, results):
        """Re-run the last probe of one bisection (chosen by the seed)
        twice: the verdict must agree with the side the bisection put the
        probe on, and both repeats must return the identical (verdict,
        level)."""
        config = self.ps.threshold.McConfig(seed=MC_STREAM_SEED)
        model, thr = self.cases[self.repeat_case][0], results[self.repeat_case]
        p_last = self.probes[model][-1]
        dist = self._level0(model)(p_last)
        first = tuple(self.ps.threshold.mc_verdict(dist, config))
        second = tuple(self.ps.threshold.mc_verdict(dist, config))
        want_below = thr is not None and p_last < thr
        return [
            (
                "%s last probe p=%.6g keeps its side" % (model, p_last),
                (first[0] == "below") == want_below,
                "verdict %s at level %d, threshold %r" % (first[0], first[1], thr),
            ),
            ("%s repeated probe is identical" % model, first == second, "%r vs %r" % (first, second)),
        ]

    def targets(self, results):
        out = []
        for (model, _, _, want), thr in zip(self.cases, results):
            got = None if thr is None else 100 * thr
            out.append(_near("criterion 5 %s MC threshold (pp)" % model, got, want, MC_TOL))
        return out


# ---------------------------------------------------------------------------
# hashing-cli


def cli_request(ps, argv):
    """Run one in-process CLI request; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = ps.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


class HashingCli:
    name = "hashing-cli"
    per_model = 34

    def __init__(self, ps, seed):
        rng = random.Random(seed)
        self.ps = ps
        self.argvs = []
        for i in range(self.per_model):
            r = 0.0 if i == 0 else rng.random()
            self.argvs.append(["hashing", "--model", "depolarizing", "--r", "%.6f" % r])
            self.argvs.append(["hashing", "--model", "knill"])
            self.argvs.append(["hashing", "--model", "forward"])
        rng.shuffle(self.argvs)
        self.argvs = [a + ["--tol", "1e-9", "--format", "json"] for a in self.argvs]
        self.items = [
            Item("hashing " + argv[2], lambda mark, argv=argv: cli_request(ps, argv))
            for argv in self.argvs
        ]

    def _family(self, argv):
        r = float(argv[argv.index("--r") + 1]) if "--r" in argv else None
        return self.ps.noise.model_family(argv[2], r=r)

    def check(self, results):
        """Exit code 0, well-formed JSON, and one bit of teleported entropy
        at the printed threshold (criterion 2)."""
        entropy = {}
        out = []
        for i, (argv, res) in enumerate(zip(self.argvs, results)):
            label = " ".join(argv[2:5] if argv[2] == "depolarizing" else argv[2:3])
            try:
                rc, text = res
                payload = json.loads(text)
                value = float(payload["threshold_percent"])
                ok = rc == 0 and payload["model"] == argv[2] and 0 < value < 50
            except (TypeError, ValueError, KeyError) as exc:
                out.append((i, label, False, "bad output %r (%s)" % (res, exc)))
                continue
            key = (label, value)
            if key not in entropy:
                fam = self._family(argv)
                entropy[key] = self.ps.threshold.teleport_entropy(fam(value / 100))
            h = entropy[key]
            ok = ok and abs(h - 1.0) <= 1e-6
            out.append((i, "%s entropy at threshold" % label, ok, "H-1 = %.3g" % (h - 1.0)))
        return out

    def extra_checks(self, results):
        """CLI contract: byte-identical reruns, text and JSON agree, exit 2
        on an unbracketable solve and 64 on a bad model."""
        ps, argv = self.ps, self.argvs[0]
        again = cli_request(ps, argv)
        out = [("rerun of %s is byte-identical" % " ".join(argv), again == results[0], repr(again))]
        base = ["hashing", "--model", "knill", "--tol", "1e-9"]
        rc_t, text = cli_request(ps, base)
        rc_j, js = cli_request(ps, base + ["--format", "json"])
        try:
            same = float(text) == json.loads(js)["threshold_percent"] and rc_t == rc_j == 0
        except (ValueError, KeyError):
            same = False
        out.append(("text and json output agree", same, "%r vs %r" % (text, js)))
        rc, _ = cli_request(ps, ["hashing", "--model", "forward", "--lo", "0.06", "--no-extend"])
        out.append(("unbracketable --no-extend exits 2", rc == 2, "exit %r" % rc))
        rc, _ = cli_request(ps, ["hashing", "--model", "bogus"])
        out.append(("bad --model exits 64", rc == 64, "exit %r" % rc))
        return out

    def targets(self, results):
        out = []
        for model, want in HASHING_TARGETS.items():
            got = None
            for argv, res in zip(self.argvs, results):
                if argv[2] == model and (model != "depolarizing" or float(argv[4]) == 0.0):
                    try:
                        got = json.loads(res[1])["threshold_percent"]
                    except (TypeError, ValueError, KeyError):
                        pass
                    break
            out.append(_near("criterion 1 %s threshold (pp)" % model, got, want, HASHING_TOL))
        return out


# ---------------------------------------------------------------------------
# code-maps


def _class_step(ps, x_anc, x_gate):
    """One step of the forward class recursion in exact arithmetic: the
    bad ancilla class distribution, post-selected against a second copy
    through a gate."""
    codes = ps.codes
    good = codes.distance_classes_from_x(x_anc)
    gate = codes.distance_classes_from_x(x_gate)
    bad = codes.combine_classes(codes.combine_classes(good, good), gate)
    return codes.postselect_classes(bad, codes.combine_classes(bad, gate))


class CodeMaps:
    name = "code-maps"
    counts = {"fidelity": 100, "fidelity-1type": 100, "golay-entropy": 100, "golay-diagonal": 100, "classes": 100}
    seeded_crash_solves = 4

    def __init__(self, ps, seed):
        rng = random.Random(seed)
        codes, thr = ps.codes, ps.threshold
        self.ps = ps
        specs = []
        for _ in range(self.counts["fidelity"]):
            p_i = rng.uniform(0.85, 0.99)
            w = [rng.random() for _ in range(3)]
            dist = [p_i] + [(1 - p_i) * v / sum(w) for v in w]
            specs.append(("fidelity", dist))
        for _ in range(self.counts["fidelity-1type"]):
            p = rng.uniform(0.005, 0.2)
            specs.append(("fidelity-1type", [1 - p, 0.0, 0.0, p]))
        for kind in ("golay-entropy", "golay-diagonal"):
            for _ in range(self.counts[kind]):
                specs.append((kind, rng.uniform(0.001, 0.2)))
        for _ in range(self.counts["classes"]):
            specs.append(("classes", (Fraction(rng.randrange(900, 1000), 1000), Fraction(rng.randrange(900, 1000), 1000))))
        for code, _, _ in FIXED_FIDELITY_TARGETS:
            specs.append(("fixed-fidelity", code))
        for delta, _, _ in CRASH_TARGETS:
            specs.append(("crash-threshold", delta))
        for _ in range(self.seeded_crash_solves):
            specs.append(("crash-threshold", round(rng.uniform(1e-4, 5e-4), 6)))
        rng.shuffle(specs)
        self.specs = specs

        def make(kind, arg):
            if kind.startswith("fidelity"):
                return lambda mark: codes.first_level_fidelity(arg)
            if kind == "golay-entropy":
                return lambda mark: codes.golay_sector_entropy(arg)
            if kind == "golay-diagonal":
                return lambda mark: codes.golay_logical_diagonal(arg)
            if kind == "classes":
                return lambda mark: _class_step(ps, *arg)
            if kind == "fixed-fidelity":
                return lambda mark: thr.fixed_fidelity_point(arg, "forward")
            return lambda mark: thr.crash_difference_threshold(
                codes.crash_poly_2317(), arg, CRASH_BASELINE, tol=CRASH_TOL
            )

        self.items = [Item(kind, make(kind, arg)) for kind, arg in specs]

    def check(self, results):
        codes, thr = self.ps.codes, self.ps.threshold
        f7, f23 = codes.crash_poly_713(), codes.crash_poly_2317()
        out = []
        for i, ((kind, arg), res) in enumerate(zip(self.specs, results)):
            if kind == "fidelity":
                ok, detail = isinstance(res, float) and arg[0] ** 7 <= res <= 1.0, "F = %r" % res
            elif kind == "fidelity-1type":
                want = (1 + f7(1 - 2 * arg[3])) / 2
                ok, detail = res is not None and abs(res - want) <= 1e-12, "F - (1+f7)/2 = %.3g" % ((res or 0) - want)
            elif kind == "golay-diagonal":
                want = f23(1 - 2 * arg)
                ok, detail = res is not None and abs(res - want) <= 1e-12, "diag - f23 = %.3g" % ((res or 0) - want)
            elif kind == "golay-entropy":
                ok, detail = isinstance(res, float) and 0.0 <= res <= 1.0, "H = %r" % res
            elif kind == "classes":
                try:
                    p_keep, cond = res
                    values = [p_keep] + list(cond)
                    ok = all(isinstance(v, Fraction) for v in values) and sum(cond) == 1 and 0 < p_keep <= 1
                except (TypeError, ValueError):
                    ok = False
                detail = "exact Fraction outputs summing to 1"
            elif kind == "fixed-fidelity":
                ok = res is not None and 0.0 < res[0] < 0.2 and 0.5 < res[1] < 1.0
                detail = "(p, F) = %r" % (res,)
            else:
                # the margin falls with p; the bisection kept margin > delta
                # at its lower end and <= delta at its upper end
                base = f23(thr.forward_combined_diagonal(CRASH_BASELINE))

                def margin(p):
                    return (f23(thr.forward_combined_diagonal(p)) - base) / 2

                try:
                    ok = 1e-4 <= res <= CRASH_BASELINE
                    ok = ok and margin(res - CRASH_TOL) > arg >= margin(res + CRASH_TOL)
                except TypeError:
                    ok = False
                detail = "p = %r for delta %g" % (res, arg)
            out.append((i, "%s %s" % (kind, arg if kind in ("fixed-fidelity", "crash-threshold") else ""), ok, detail))
        return out

    def extra_checks(self, results):
        return []

    def targets(self, results):
        found = {(k, a): r for (k, a), r in zip(self.specs, results) if k in ("fixed-fidelity", "crash-threshold")}
        out = []
        for delta, want, tol in CRASH_TARGETS:
            res = found.get(("crash-threshold", delta))
            got = None if res is None else 100 * res
            out.append(_near("criterion 8 crash threshold, delta %g (pp)" % delta, got, want, tol))
        for code, want_pp, want_fid in FIXED_FIDELITY_TARGETS:
            res = found.get(("fixed-fidelity", code))
            p, fid = (None, None) if res is None else (100 * res[0], res[1])
            out.append(_near("criterion 9 %s forward rate (pp)" % code, p, want_pp, FF_RATE_TOL))
            out.append(_near("criterion 9 %s forward fidelity" % code, fid, want_fid, FF_FID_TOL))
        return out


WORKLOADS = {w.name: w for w in (McThreshold, HashingCli, CodeMaps)}
