#!/usr/bin/env python3
"""Survey inscribability and circumscribability over the built-in corpus.

Prints one line per named map with graph statistics and the exact verdicts,
and re-checks every verdict from its certificates alone: a YES must carry
an angle assignment and a NO an LP dual witness, each accepted by
`hrs.verify_certificate`.  Exits 1 at the first map whose verdict does not
re-check.

Usage: python3 scripts/corpus_survey.py
"""

import sys

from polyscribe.corpus import CORPUS_NAMES, named_polytope
from polyscribe.graphs import vertex_connectivity
from polyscribe.hrs import decide_circumscribable, decide_inscribable, verify_certificate
from polyscribe.verdicts import Answer, CertKind

# The certificate kind that proves each answer.
PROOF = {Answer.YES: CertKind.ANGLE_ASSIGNMENT, Answer.NO: CertKind.LP_DUAL_WITNESS}


def proved(m, verdict) -> bool:
    """Whether the verdict's certificates prove its answer about m."""
    kind = PROOF.get(verdict.answer)
    return bool(verdict.certificates) and all(
        c.kind is kind and verify_certificate(m, c) for c in verdict.certificates)


def main():
    print(f"{'name':<24} {'V':>3} {'E':>3} {'F':>3} {'conn':>4} "
          f"{'inscribable':>12} {'circumscribable':>16}")
    for name in CORPUS_NAMES:
        m = named_polytope(name)
        insc = decide_inscribable(m)
        circ = decide_circumscribable(m)
        k, _ = vertex_connectivity(m.graph())
        print(f"{name:<24} {m.n_vertices:>3} {len(m.edges):>3} "
              f"{m.n_faces:>3} {k:>4} {insc.answer.value:>12} "
              f"{circ.answer.value:>16}")
        if not (proved(m, insc) and proved(m, circ)):
            print(f"\ncertificate re-check failed for {name}", file=sys.stderr)
            return 1
    print("\ncertificate re-check passed for all maps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
