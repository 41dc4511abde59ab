"""Print the [[7,1,3]] and Golay code maps and the solves built on them bit for bit.

    python3 tools/code_map_outputs.py > change.txt
    python3 tools/code_map_outputs.py --tree ../parent > parent.txt
    diff parent.txt change.txt

``--tree PATH`` runs the package under ``PATH/src`` instead of this
checkout's.  The output is one line per value, with every float exact
(``float.hex()``):

* ``fidelity D0 D1 D2 D3 HEX``: ``first_level_fidelity`` of the
  distribution (D0, D1, D2, D3), on a seeded set: distributions near the
  identity with random splits of the error, one-type distributions, points
  drawn uniformly from the simplex, and the edge cases [1,0,0,0],
  [0,0,0,1], [0.25]*4, [0.5,0.5,0,0] and [-0.0,1,0,0];
* ``golay p=P KEPT FLIPPED DIAGONAL ENTROPY``: ``golay_syndrome_weights``
  (four values each), ``golay_logical_diagonal`` and
  ``golay_sector_entropy`` at p = k / 1000 (k = 0..1000) and at seeded
  rates in [0, 0.2];
* ``fixed-fidelity CODE FAMILY RATE FIDELITY``: ``fixed_fidelity_point``
  for each supported pair;
* ``crash LABEL HEX``: each criterion-8 crash-difference solve of
  ``psthresh.cli.TARGETS``;
* ``class X_ANC X_GATE P_KEEP C0 C1 C2 C3``: the exact ``n/d`` output of
  one step of the forward class recursion in Fractions (as the benchmark's
  ``code-maps`` runs it) on the grid x = k/10 (k = -10..10) for both
  arguments and at 200 seeded pairs in [0.9, 1); ``keeps-nothing`` takes
  the place of the four values where the post-selection raises;
* ``forward-class pf=PF HEX``: ``threshold._forward_class_level1`` at
  pf = k / 1000 (k = 0..500) and at 200 seeded rates in [0, 0.1];
* ``solve NAME ... HEX``: the other solves built on ``threshold.bisect``:
  ``capacity-one-type`` and ``capacity-three-type``;
  ``entropy-match FAMILY target=T``, ``entropy_match_threshold`` for
  forward, knill and depolarizing noise at targets 0.5 and 1.0 on
  [0.001, 0.09] at tol 1e-9; and ``sweep-r tol=TOL r=R``, the rows of
  ``sweep_r(points=21)`` at tol 1e-6 and 1e-9 (50 lines).

Nothing else goes to stdout, so the output of two trees can be diffed
line by line.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

SEED = 13
RATE_GRID = [k / 1000 for k in range(1001)]
EDGE_DISTS = (
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.25, 0.25, 0.25, 0.25],
    [0.5, 0.5, 0.0, 0.0],
    [-0.0, 1.0, 0.0, 0.0],
)
FIXED_FIDELITY_PAIRS = (("713", "knill"), ("713", "depolarizing"), ("713", "forward"), ("2317", "forward"))
CLASS_GRID = [Fraction(k, 10) for k in range(-10, 11)]
FORWARD_GRID = [k / 1000 for k in range(501)]
ENTROPY_MATCH_FAMILIES = ("forward", "knill", "depolarizing")
ENTROPY_MATCH_TARGETS = (0.5, 1.0)
SWEEP_TOLS = (1e-6, 1e-9)


def _distributions(rng):
    """The seeded distributions of the fidelity lines, edge cases first."""
    dists = [list(d) for d in EDGE_DISTS]
    for p_i, split in zip(rng.uniform(0.85, 0.99, 2000), rng.random((2000, 3))):
        dists.append([p_i, *((1 - p_i) * split / split.sum()).tolist()])
    for p in rng.uniform(0.0, 0.3, 500):
        dists.append([1 - p, 0.0, 0.0, p])
    dists.extend(rng.dirichlet(np.ones(4), 500).tolist())
    return dists


def _class_step(codes, x_anc, x_gate):
    """One step of the forward class recursion: the bad ancilla class
    distribution, post-selected against a second copy through a gate."""
    good = codes.distance_classes_from_x(x_anc)
    gate = codes.distance_classes_from_x(x_gate)
    bad = codes.combine_classes(codes.combine_classes(good, good), gate)
    return codes.postselect_classes(bad, codes.combine_classes(bad, gate))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src/ to run")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from psthresh import cli, codes
    from psthresh import threshold
    from psthresh.threshold import _forward_class_level1, fixed_fidelity_point

    def hexes(values):
        return " ".join(float(v).hex() for v in values)

    rng = np.random.default_rng(SEED)
    for dist in _distributions(rng):
        print("fidelity %s %s" % (hexes(dist), codes.first_level_fidelity(dist).hex()))
    for p in RATE_GRID + rng.uniform(0.0, 0.2, 1000).tolist():
        kept, flipped = codes.golay_syndrome_weights(p)
        print("golay p=%r %s %s %s %s" % (p, hexes(kept), hexes(flipped),
                                          codes.golay_logical_diagonal(p).hex(),
                                          codes.golay_sector_entropy(p).hex()))
    for code, family in FIXED_FIDELITY_PAIRS:
        print("fixed-fidelity %s %s %s" % (code, family, hexes(fixed_fidelity_point(code, family))))
    for row in cli.TARGETS:
        if row.criterion == 8 and row.compute is not None:
            print("crash %s %s" % (row.label, row.compute().hex()))
    pairs = [(a, b) for a in CLASS_GRID for b in CLASS_GRID]
    pairs += [(Fraction(int(a), 1000), Fraction(int(b), 1000)) for a, b in rng.integers(900, 1000, (200, 2))]
    for x_anc, x_gate in pairs:
        try:
            p_keep, cond = _class_step(codes, x_anc, x_gate)
        except ValueError:
            values = "keeps-nothing"
        else:
            values = " ".join("%d/%d" % (v.numerator, v.denominator) for v in [p_keep, *cond])
        print("class %s %s %s" % (x_anc, x_gate, values))
    for pf in FORWARD_GRID + rng.uniform(0.0, 0.1, 200).tolist():
        print("forward-class pf=%r %s" % (pf, _forward_class_level1(pf).hex()))
    print("solve capacity-one-type %s" % threshold.capacity_one_type().hex())
    print("solve capacity-three-type %s" % threshold.capacity_three_type().hex())
    for family in ENTROPY_MATCH_FAMILIES:
        for target in ENTROPY_MATCH_TARGETS:
            p = threshold.entropy_match_threshold(family, target, 0.001, 0.09, tol=1e-9)
            print("solve entropy-match %s target=%r %s" % (family, target, p.hex()))
    for tol in SWEEP_TOLS:
        for r, p in threshold.sweep_r(points=21, tol=tol):
            print("solve sweep-r tol=%r r=%r %s" % (tol, r, p.hex()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
