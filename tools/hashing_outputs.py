"""Print the hashing thresholds and teleported distributions bit for bit.

    python3 tools/hashing_outputs.py > change.txt
    python3 tools/hashing_outputs.py --tree ../parent > parent.txt
    diff parent.txt change.txt

``--tree PATH`` runs the package under ``PATH/src`` instead of this
checkout's.  The output is one line per value, with every float exact:

* ``hashing FAMILY tol=TOL HEX``: ``float.hex()`` of ``hashing_threshold``
  for each family of the ``psthresh hashing`` CLI, at tol 1e-9 and 1e-12;
* ``hashing depolarizing r=R tol=TOL HEX``: the same for depolarizing
  noise at r = 0, 0.05, ..., 1;
* ``teleport FAMILY p=P HEX``: the bytes of ``model_teleport_output`` at
  each point p = k / 300 (k = 0..299) of the rate grid, in hex, or the
  ``NoConvergenceError`` message where the fixed point breaks down.

Nothing else goes to stdout, so the output of two trees can be diffed
line by line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TOLS = (1e-9, 1e-12)
R_GRID = [k / 20 for k in range(21)]
RATE_GRID = [k / 300 for k in range(300)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src/ to run")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from psthresh.noise import SOLVER_FAMILIES, model_family
    from psthresh.postselect import NoConvergenceError, model_teleport_output
    from psthresh.threshold import hashing_threshold

    for name in SOLVER_FAMILIES:
        for tol in TOLS:
            print("hashing %s tol=%g %s" % (name, tol, hashing_threshold(name, tol=tol).hex()))
    for r in R_GRID:
        family = model_family("depolarizing", r=r)
        for tol in TOLS:
            threshold = hashing_threshold(family, tol=tol)
            print("hashing depolarizing r=%g tol=%g %s" % (r, tol, threshold.hex()))
    for name in SOLVER_FAMILIES:
        family = model_family(name)
        for p in RATE_GRID:
            try:
                out = model_teleport_output(family(p)).tobytes().hex()
            except NoConvergenceError as exc:
                out = str(exc)
            print("teleport %s p=%r %s" % (name, p, out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
