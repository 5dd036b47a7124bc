#!/usr/bin/env python3
"""Scribability table of the inscribed cyclic polytopes C_4(n).

For the default trigonometric realization of C_4(n) (rational points on the
sphere of radius^2 = 2, from `generate_cyclic_trig`), prints one row per n
with whether each k-scribedness (k = 0..3: every k-face tangent to the
sphere) and each (i,j)-scribedness (0 <= i <= j <= 3: every i-face avoids
the ball and every j-face cuts it) holds.  All answers are exact.  n runs up
to 12, the limit of facet enumeration.

Usage: PYTHONPATH=src python3 scripts/cyclic_scribe_table.py [--n-max N]
"""

import argparse
import sys

from polyscribe.geometry import (check_ij_scribed, check_k_scribed,
                                 generate_cyclic_trig)
from polyscribe.hull import DEFAULT_MAX_POINTS, build_face_lattice

D = 4
K_QUERIES = [(k,) for k in range(D)]
IJ_QUERIES = [(i, j) for i in range(D) for j in range(i, D)]


def row(n: int) -> list[bool]:
    """The answers of the K_QUERIES, then the IJ_QUERIES, for C_4(n)."""
    pc = generate_cyclic_trig(n, D)
    lattice = build_face_lattice(pc)
    s = pc.sphere
    return ([check_k_scribed(pc, lattice, s, k).holds for (k,) in K_QUERIES]
            + [check_ij_scribed(pc, lattice, s, i, j).holds for i, j in IJ_QUERIES])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n-max", type=int, default=DEFAULT_MAX_POINTS)
    args = ap.parse_args(argv)
    if not D + 1 <= args.n_max <= DEFAULT_MAX_POINTS:
        ap.error(f"need {D + 1} <= n-max <= {DEFAULT_MAX_POINTS}")
    heads = [f"k={k}" for (k,) in K_QUERIES] + [f"({i},{j})" for i, j in IJ_QUERIES]
    print(f"{'n':>3} " + " ".join(f"{h:>5}" for h in heads))
    for n in range(D + 1, args.n_max + 1):
        answers = ["YES" if holds else "NO" for holds in row(n)]
        print(f"{n:>3} " + " ".join(f"{a:>5}" for a in answers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
