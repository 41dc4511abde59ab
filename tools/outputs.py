"""Print the package's outputs bit for bit, one value per line.

    python3 tools/outputs.py --tree ../parent > parent.txt
    python3 tools/outputs.py > change.txt
    diff parent.txt change.txt

``--tree PATH`` runs the package under ``PATH/src``, and the reference
code the ``pauli`` kind reads under ``PATH/tests``, instead of this
checkout's.  Every line starts with its kind, and every computed float
is exact (``float.hex()``):

* ``hashing FAMILY tol=TOL HEX``: ``hashing_threshold`` for each family
  of the ``psthresh hashing`` CLI, and ``hashing depolarizing r=R
  tol=TOL HEX`` at r = 0, 0.05, ..., 1, each at tol 1e-9 and 1e-12;
* ``teleport FAMILY p=P HEX``: the bytes of ``model_teleport_output`` at
  p = k / 300 (k = 0..299), or the ``NoConvergenceError`` message;
* ``pauli TABLE DTYPE SHAPE strides=S writeable=W SHA256``: the sha256
  of the bytes of ``commutation_signs()`` and of the dense CNOT oracle
  ``build_cnot_superoperator()`` with their layout, and ``pauli
  traceout-crosscheck draw=K HEX``: ``traceout_crosscheck`` on 200 draws
  made as acceptance criterion 11 makes them (seed 2026); the oracle and
  the crosscheck are the reference chain of ``tests/pauli_reference.py``;
* ``fidelity D0 D1 D2 D3 HEX``: ``first_level_fidelity`` on 3005 seeded
  distributions (edge cases, near-identity, one-type and simplex draws);
* ``golay p=P KEPT FLIPPED DIAGONAL ENTROPY``: ``golay_syndrome_weights``,
  ``golay_logical_diagonal`` and ``golay_sector_entropy`` at p = k / 1000
  (k = 0..1000) and at 1000 seeded rates in [0, 0.2];
* ``fixed-fidelity CODE FAMILY RATE FIDELITY``: ``fixed_fidelity_point``;
* ``crash LABEL HEX``: each criterion-8 solve of ``psthresh.cli.TARGETS``;
* ``crash-poly W,... C=N/D,... D=N/D,...``: ``crash_polynomial`` on each
  of the 255 non-empty subsets of the exponents 1, 2, 3, 5, 7, 11, 15,
  23: its exact coefficients and ``derivative_at_one(k)`` for k = 0..n;
* ``class X_ANC X_GATE P_KEEP C0 C1 C2 C3``: the exact ``n/d`` output of
  one Fraction step of the forward class recursion on the grid x = k/10
  (k = -10..10) for both arguments and at 200 seeded pairs in [0.9, 1),
  or ``keeps-nothing`` where the post-selection raises;
* ``forward-class pf=PF HEX``: ``threshold._forward_class_level1`` at
  pf = k / 1000 (k = 0..500) and at 200 seeded rates in [0, 0.1];
* ``solve NAME ... HEX``: both capacities and the rows of
  ``sweep_r(points=21)`` at tol 1e-6 and 1e-9;
* ``mc-level FAMILY p=P level=L INFIDELITY SHA256``: the Monte Carlo
  population of each criterion-5 family of ``psthresh.cli.TARGETS`` at
  its published rate, population 2048 (in-process), seed 1, at levels
  1-6, on the kernel a solve runs (``threshold._mc_flow``): the mean
  infidelity and the first 16 hex digits of the sha256 of the
  population's bytes, the flip probabilities of the one-sector kernel
  (one-type) or the class rows of the two-sector one;
* ``cli ARGV exit=CODE stdout=REPR stderr=REPR``: one in-process
  ``psthresh.cli.main`` call per line over every subcommand but
  ``reproduce``, with each output format and ``--raw``, and the failures
  and usage errors the CLI reports itself (argparse's own errors are
  left out: their usage text wraps to the terminal width);
* ``mc FAMILY seed=S p=P VERDICT LEVEL``, only with ``--seeds 1-10`` (or
  ``1,3,7``): every verdict, bracket checks first, of each criterion-5
  solve of ``psthresh.cli.TARGETS`` at the default ``McConfig`` but the
  seed, for each seed and row in order.

Nothing else goes to stdout.  ``tests/test_tools.py`` checks the count
and sha256 of each kind of line but ``mc`` against a recorded table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from bench_record import parse_seeds

ROOT = Path(__file__).resolve().parent.parent

SEED = 13
EDGE_DISTS = ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.25] * 4, [0.5, 0.5, 0.0, 0.0], [-0.0, 1.0, 0.0, 0.0])
FIXED_FIDELITY_PAIRS = (("713", "knill"), ("713", "depolarizing"), ("713", "forward"), ("2317", "forward"))
CRASH_EXPONENTS = (1, 2, 3, 5, 7, 11, 15, 23)
CLASS_GRID = [Fraction(k, 10) for k in range(-10, 11)]
FORMATS = ("text", "csv", "json")
#: small in-process Monte Carlo runs (no worker process starts below
#: 6144 individuals)
CLI_MC = ["--population", "200", "--levels", "4", "--seed", "3"]
CLI_SOLVE = ["concat", "--model", "one-type", "--lo", "0.05", "--hi", "0.18"] + CLI_MC


def hexes(values):
    return " ".join(float(v).hex() for v in values)


def fractions(values):
    return ",".join("%d/%d" % (v.numerator, v.denominator) for v in values)


def hashing_lines():
    from psthresh.noise import SOLVER_FAMILIES, model_family
    from psthresh.postselect import NoConvergenceError, model_teleport_output
    from psthresh.threshold import hashing_threshold

    tols = (1e-9, 1e-12)
    for name in SOLVER_FAMILIES:
        for tol in tols:
            yield "hashing %s tol=%g %s" % (name, tol, hashing_threshold(name, tol=tol).hex())
    for r in [k / 20 for k in range(21)]:
        for tol in tols:
            p = hashing_threshold(model_family("depolarizing", r=r), tol=tol)
            yield "hashing depolarizing r=%g tol=%g %s" % (r, tol, p.hex())
    for name in SOLVER_FAMILIES:
        family = model_family(name)
        for p in [k / 300 for k in range(300)]:
            try:
                out = model_teleport_output(family(p)).tobytes().hex()
            except NoConvergenceError as exc:
                out = str(exc)
            yield "teleport %s p=%r %s" % (name, p, out)


def pauli_lines():
    from psthresh.pauli import commutation_signs, dist_to_channel
    from pauli_reference import build_cnot_superoperator, traceout_crosscheck

    tables = (("commutation-signs", commutation_signs()), ("cnot-superoperator", build_cnot_superoperator()))
    for name, table in tables:
        yield "pauli %s %s %s strides=%s writeable=%s %s" % (
            name, table.dtype, "x".join(map(str, table.shape)), ",".join(map(str, table.strides)),
            table.flags.writeable, hashlib.sha256(table.tobytes()).hexdigest())
    rng = np.random.default_rng(2026)
    for k in range(200):
        s = dist_to_channel(rng.dirichlet(np.ones(4)))
        d = dist_to_channel(rng.dirichlet(np.ones(4)))
        q = commutation_signs() @ rng.dirichlet(np.ones(16))
        dev = traceout_crosscheck(s, d, q, m_noise=rng.uniform(0, 1))
        yield "pauli traceout-crosscheck draw=%d %s" % (k, dev.hex())


def code_map_lines():
    from psthresh import cli, codes, threshold

    def class_step(x_anc, x_gate):
        good = codes.distance_classes_from_x(x_anc)
        gate = codes.distance_classes_from_x(x_gate)
        bad = codes.combine_classes(codes.combine_classes(good, good), gate)
        return codes.postselect_classes(bad, codes.combine_classes(bad, gate))

    rng = np.random.default_rng(SEED)
    dists = [list(d) for d in EDGE_DISTS]
    for p_i, split in zip(rng.uniform(0.85, 0.99, 2000), rng.random((2000, 3))):
        dists.append([p_i, *((1 - p_i) * split / split.sum()).tolist()])
    dists += [[1 - p, 0.0, 0.0, p] for p in rng.uniform(0.0, 0.3, 500)]
    dists += rng.dirichlet(np.ones(4), 500).tolist()
    for dist in dists:
        yield "fidelity %s %s" % (hexes(dist), codes.first_level_fidelity(dist).hex())
    for p in [k / 1000 for k in range(1001)] + rng.uniform(0.0, 0.2, 1000).tolist():
        kept, flipped = codes.golay_syndrome_weights(p)
        yield "golay p=%r %s %s %s %s" % (p, hexes(kept), hexes(flipped), codes.golay_logical_diagonal(p).hex(),
                                          codes.golay_sector_entropy(p).hex())
    for code, family in FIXED_FIDELITY_PAIRS:
        yield "fixed-fidelity %s %s %s" % (code, family, hexes(threshold.fixed_fidelity_point(code, family)))
    for row in cli.TARGETS:
        if row.criterion == 8 and row.compute is not None:
            yield "crash %s %s" % (row.label, row.compute().hex())
    for n in range(1, len(CRASH_EXPONENTS) + 1):
        for weights in itertools.combinations(CRASH_EXPONENTS, n):
            poly = codes.crash_polynomial(weights)
            coeffs = [c for _, c in poly.terms]
            derivs = [poly.derivative_at_one(k) for k in range(n + 1)]
            yield "crash-poly %s C=%s D=%s" % (",".join(map(str, weights)), fractions(coeffs), fractions(derivs))
    pairs = [(a, b) for a in CLASS_GRID for b in CLASS_GRID]
    pairs += [(Fraction(int(a), 1000), Fraction(int(b), 1000)) for a, b in rng.integers(900, 1000, (200, 2))]
    for x_anc, x_gate in pairs:
        try:
            p_keep, cond = class_step(x_anc, x_gate)
        except ValueError:
            values = "keeps-nothing"
        else:
            values = " ".join("%d/%d" % (v.numerator, v.denominator) for v in [p_keep, *cond])
        yield "class %s %s %s" % (x_anc, x_gate, values)
    for pf in [k / 1000 for k in range(501)] + rng.uniform(0.0, 0.1, 200).tolist():
        yield "forward-class pf=%r %s" % (pf, threshold._forward_class_level1(pf).hex())
    yield "solve capacity-one-type %s" % threshold.capacity_one_type().hex()
    yield "solve capacity-three-type %s" % threshold.capacity_three_type().hex()
    for tol in (1e-6, 1e-9):
        for r, p in threshold.sweep_r(points=21, tol=tol):
            yield "solve sweep-r tol=%r r=%r %s" % (tol, r, p.hex())


def mc_level_lines():
    from psthresh import cli, threshold

    config = threshold.McConfig(population=2048, levels=6, seed=1)
    for row in cli.TARGETS:
        if row.criterion != 5:
            continue
        family, p = row.label.split()[0], row.want / 100
        flow = threshold._mc_flow(cli._level0(family)(p), config)
        for level, (popn, infidelity) in enumerate(flow, 1):
            digest = hashlib.sha256(popn.tobytes()).hexdigest()[:16]
            yield "mc-level %s p=%r level=%d %s %s" % (family, p, level, float(infidelity).hex(), digest)


def cli_argvs():
    from psthresh.noise import SOLVER_FAMILIES

    raw = ([], ["--raw"])
    for name in SOLVER_FAMILIES:
        for fmt in FORMATS:
            for flag in raw:
                yield ["hashing", "--model", name, "--tol", "1e-7", "--format", fmt] + flag
    yield ["hashing", "--model", "depolarizing", "--r", "0.5"]
    yield ["hashing", "--model", "forward", "--lo", "0.06", "--no-extend"]
    for fmt in ("csv", "json"):
        yield ["sweep", "--points", "3", "--format", fmt]
    for fmt in FORMATS:
        for flag in raw:
            yield ["capacity", "--format", fmt] + flag
    at = (
        ["--model", "one-type", "--at", "0.05"] + CLI_MC,
        ["--model", "forward", "--at", "1"] + CLI_MC,
        ["--model", "one-type", "--at", "0.11", "--population", "400", "--levels", "5", "--seed", "5"],
    )
    for fmt in FORMATS:
        for case in at:
            yield ["concat"] + case + ["--format", fmt]
    for fmt in FORMATS:
        for flag in raw:
            for seeds in ("1", "2"):
                yield CLI_SOLVE + ["--tol", "5e-3", "--format", fmt, "--seeds", seeds] + flag
        # both seeds agree at this tolerance: a zero std
        yield CLI_SOLVE + ["--tol", "0.05", "--format", fmt, "--seeds", "2"]
    bracket = ["concat", "--model", "one-type", "--lo", "0.22", "--hi", "0.3", "--tol", "5e-3"] + CLI_MC
    yield bracket
    yield bracket + ["--seeds", "2"]
    yield ["hashing", "--model", "knill", "--r", "0.7"]
    yield ["concat", "--model", "one-type"]
    yield ["concat", "--model", "knill", "--lo", "0.09", "--hi", "0.05"] + CLI_MC
    yield ["concat", "--model", "forward", "--r", "0.4", "--at", "0.03"]
    yield ["concat", "--model", "one-type", "--at", "0.05", "--raw"]
    yield ["concat", "--model", "one-type", "--at", "0.05", "--tol", "0.5"]
    yield ["concat", "--model", "one-type", "--at", "0.1", "--lo", "0.05"]
    yield ["concat", "--model", "one-type", "--at", "0.1", "--seeds", "5"]


def cli_lines():
    from psthresh import cli

    for argv in cli_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        yield "cli %s exit=%d stdout=%r stderr=%r" % (" ".join(argv), code, out.getvalue(), err.getvalue())


def mc_lines(seeds):
    from psthresh import cli, threshold

    solve, verdict_at = cli.concat_threshold_mc, threshold.mc_verdict_at
    for seed in seeds:
        config = threshold.McConfig(seed=seed)
        for row in cli.TARGETS:
            if row.criterion != 5:
                continue
            family, probes = row.label.split()[0], []

            def recorded(dist_fn, p, probe_config):
                verdict, level = verdict_at(dist_fn, p, probe_config)
                probes.append("mc %s seed=%d p=%r %s %d" % (family, seed, p, verdict, level))
                return verdict, level

            # the row's solve looks both names up at call time
            cli.concat_threshold_mc = lambda dist_fn, lo, hi: solve(dist_fn, lo, hi, config)
            threshold.mc_verdict_at = recorded
            try:
                row.compute()
            finally:
                cli.concat_threshold_mc, threshold.mc_verdict_at = solve, verdict_at
            yield from probes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src/ to run")
    parser.add_argument("--seeds", type=parse_seeds, default=[], help="add the Monte Carlo probes of these seeds")
    args = parser.parse_args(argv)

    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "tests")]
    kinds = (hashing_lines(), pauli_lines(), code_map_lines(), mc_level_lines(), cli_lines(), mc_lines(args.seeds))
    for lines in kinds:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
