#!/usr/bin/env python3
"""Survey inscribability and circumscribability over the built-in corpus.

Prints one line per named map with graph statistics and the exact verdicts,
and cross-checks every verdict pair against polar duality; exits 1 at the
first map whose pair disagrees.

Usage: python3 scripts/corpus_survey.py
"""

import sys

from polyscribe.corpus import CORPUS_NAMES, named_polytope
from polyscribe.graphs import vertex_connectivity
from polyscribe.hrs import decide_circumscribable, decide_inscribable
from polyscribe.maps import dual_map


def main():
    print(f"{'name':<24} {'V':>3} {'E':>3} {'F':>3} {'conn':>4} "
          f"{'inscribable':>12} {'circumscribable':>16}")
    for name in CORPUS_NAMES:
        m = named_polytope(name)
        g = m.graph()
        insc = decide_inscribable(m)
        circ = decide_circumscribable(m)
        k, _ = vertex_connectivity(g)
        print(f"{name:<24} {m.n_vertices:>3} {len(m.edges):>3} "
              f"{m.n_faces:>3} {k:>4} {insc.answer.value:>12} "
              f"{circ.answer.value:>16}")
        if (insc.answer != decide_circumscribable(dual_map(m)).answer
                or circ.answer != decide_inscribable(dual_map(m)).answer):
            print(f"\nduality cross-check failed for {name}", file=sys.stderr)
            return 1
    print("\nduality cross-check passed for all maps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
