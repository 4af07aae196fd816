#!/usr/bin/env python3
"""Analyze every bundled example and run the certificate search on each.

A quick smoke-test of the whole pipeline; prints one block per example.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from homolift import corpus
from homolift.search import (Analysis, SearchConfig, brute_force_oracle,
                             character_scan, check_anchored, check_direct,
                             check_l2, tower_search)
from homolift.transition import dilatation, is_stable, shadow, \
    subgraph_matrix, vertex_subgraph


def main():
    cfg = SearchConfig(max_cover_degree=200, max_tower_depth=2)
    for name in corpus.names():
        f = corpus.load(name)
        an = Analysis.of(f)
        print("=" * 64)
        print(f"{name}: {corpus.description(name)}")
        print(f"  edges {an.matrix.size}, homology rank {an.action.rank}, "
              f"quotient rank {an.quotient.rank}, "
              f"dilatation {dilatation(an.transition):.6f}")
        poly = shadow(an.transition)
        stable = [is_stable(subgraph_matrix(an.transition,
                                            vertex_subgraph(an.transition, u)))
                  for u in poly.vertices]
        print(f"  shadow dim {poly.dim}, vertices {list(poly.vertices)}, "
              f"stable {stable}")
        fired = [label for label, fnd in [
            ("direct", check_direct(f, an)),
            ("l2", check_l2(an.matrix, cfg)),
            ("anchored", check_anchored(an.matrix, cfg)),
            ("character", character_scan(an.matrix, cfg)),
        ] if fnd is not None]
        print(f"  criteria fired: {fired or 'none'}")
        t0 = time.time()
        diagnostics = []
        cert = tower_search(f, cfg, diagnostics)
        if cert is None:
            oracle = brute_force_oracle(f, 100)
            print(f"  search: none within bounds ({time.time()-t0:.1f}s); "
                  f"oracle<=100: {'certificate!' if oracle else 'none'}")
        else:
            tower = " -> ".join(s.quotient for s in cert.tower) or "trivial"
            print(f"  search: certificate via {cert.method}, tower {tower}, "
                  f"degree {cert.degree}, modulus {cert.modulus:.6f} "
                  f"({time.time()-t0:.1f}s)")
        for note in diagnostics:
            print(f"  note: {note}")


if __name__ == "__main__":
    main()
