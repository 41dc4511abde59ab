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
  ``psthresh.cli.TARGETS``.

Nothing else goes to stdout, so the output of two trees can be diffed
line by line.
"""

from __future__ import annotations

import argparse
import sys
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


def _distributions(rng):
    """The seeded distributions of the fidelity lines, edge cases first."""
    dists = [list(d) for d in EDGE_DISTS]
    for p_i, split in zip(rng.uniform(0.85, 0.99, 2000), rng.random((2000, 3))):
        dists.append([p_i, *((1 - p_i) * split / split.sum()).tolist()])
    for p in rng.uniform(0.0, 0.3, 500):
        dists.append([1 - p, 0.0, 0.0, p])
    dists.extend(rng.dirichlet(np.ones(4), 500).tolist())
    return dists


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src/ to run")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from psthresh import cli, codes
    from psthresh.threshold import fixed_fidelity_point

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
