#!/usr/bin/env python3
"""Search for rose maps with unipotent homology action, exponential growth,
certified train-track structure (legal turns), and a finite abelian cover
whose lifted homology action leaves the unit circle.

Used to curate the bundled example corpus; prints `.gm` documents for the
candidates it confirms, best (smallest certifying cover) first.
"""

import argparse
import itertools
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np
from generator import (abelian_vector, is_unipotent_nontrivial, reduced_words,
                       rose_gm)

from homolift import magnus
from homolift.errors import HomoliftError
from homolift.graphs import parse_graph_map
from homolift.laurent import character_grid
from homolift.search import Analysis, SearchConfig, brute_force_oracle, check_anchored, check_l2, character_scan
from homolift.transition import is_stable, shadow, subgraph_matrix, vertex_subgraph

LETTERS = "abc"


def inv(letter):
    return letter.swapcase()


def growth(words):
    counts = [[0] * 3 for _ in range(3)]
    for i, w in enumerate(words):
        for l in w:
            counts[i][LETTERS.index(l.lower())] += 1
    return float(max(abs(np.linalg.eigvals(np.array(counts, dtype=float)))))


def direction_map(words):
    dphi = {}
    for i, l in enumerate(LETTERS):
        dphi[l] = words[i][0]
        rev = "".join(inv(c) for c in reversed(words[i]))
        dphi[inv(l)] = rev[0]
    return dphi


def turns_legal(words):
    """Immersed images + all taken turns legal => all iterates immersed."""
    dphi = direction_map(words)
    taken = set()
    for w in words:
        for x, y in zip(w, w[1:]):
            taken.add(frozenset((inv(x), y)) if inv(x) != y else None)
            if inv(x) == y:
                return False  # literal backtrack
    for turn in taken:
        a, b = tuple(turn)
        for _ in range(40):
            a, b = dphi[a], dphi[b]
            if a == b:
                return False
    return True


def pi1_surjective(words):
    """Stallings folding: the images generate the whole free group iff the
    folded automaton is the rose itself."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        x, y = find(x), find(y)
        if x != y:
            parent[y] = x

    counter = [0]

    def newv():
        v = counter[0]
        counter[0] += 1
        parent[v] = v
        return v

    base = newv()
    edges = []
    for w in words:
        cur = base
        for i, l in enumerate(w):
            tgt = base if i == len(w) - 1 else newv()
            if l.islower():
                edges.append((cur, l, tgt))
            else:
                edges.append((tgt, l.lower(), cur))
            cur = tgt
    changed = True
    while changed:
        changed = False
        outm, inm = {}, {}
        seen = set()
        kept = []
        for (u, l, v) in edges:
            u, v = find(u), find(v)
            if (u, l, v) in seen:
                changed = True
                continue
            seen.add((u, l, v))
            kept.append((u, l, v))
        edges = kept
        for (u, l, v) in edges:
            u, v = find(u), find(v)
            if (u, l) in outm and find(outm[(u, l)]) != v:
                union(find(outm[(u, l)]), v)
                changed = True
                break
            outm[(u, l)] = v
            if (v, l) in inm and find(inm[(v, l)]) != u:
                union(find(inm[(v, l)]), u)
                changed = True
                break
            inm[(v, l)] = u
    verts = {find(v) for v in parent}
    final = {(find(u), l, find(v)) for (u, l, v) in edges}
    return len(verts) == 1 and len(final) == len(LETTERS)


def float_cover_prescreen(f, max_order):
    """Smallest character order whose specialization has an eigenvalue off
    the unit circle (float check; confirmed exactly later)."""
    an = Analysis.of(f)
    d = an.quotient.rank
    if d == 0:
        return None
    a = an.matrix
    for n in range(2, max_order + 1):
        for chi in character_grid(d, n):
            if all(e == 0 for e in chi.exponents):
                continue
            spec = [[complex(x.to_complex()) for x in row]
                    for row in magnus.specialize_matrix(a, chi)]
            eigs = np.linalg.eigvals(np.array(spec))
            if max(abs(eigs)) > 1 + 1e-4:
                return n
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-len", type=int, default=4)
    ap.add_argument("--samples", type=int, default=300000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--time-limit", type=float, default=600.0)
    ap.add_argument("--max-results", type=int, default=6)
    args = ap.parse_args()

    by_vec = {}
    for w in reduced_words(LETTERS, args.max_len):
        by_vec.setdefault(abelian_vector(w, len(LETTERS)), []).append(w)
    vecs = sorted(by_vec)
    rng = random.Random(args.seed)

    # enumerate unipotent abelian triples first, then word representatives
    unip_triples = []
    for va in vecs:
        for vb in vecs:
            for vc in vecs:
                if is_unipotent_nontrivial([by_vec[v][0]
                                            for v in (va, vb, vc)]):
                    unip_triples.append((va, vb, vc))
    print(f"unipotent abelian triples: {len(unip_triples)}", flush=True)
    rng.shuffle(unip_triples)

    results = []
    seen = set()
    t0 = time.time()
    tried = 0
    for triple in unip_triples:
        if time.time() - t0 > args.time_limit or len(results) >= args.max_results:
            break
        pools = [by_vec[v] for v in triple]
        combos = list(itertools.product(*pools))
        rng.shuffle(combos)
        for ws in combos[:60]:
            if time.time() - t0 > args.time_limit:
                break
            tried += 1
            if ws in seen:
                continue
            seen.add(ws)
            lam = growth(ws)
            if lam < 1.05:
                continue
            if not turns_legal(ws):
                continue
            if not pi1_surjective(ws):
                continue
            text = rose_gm(ws)
            f = parse_graph_map(text)
            n = float_cover_prescreen(f, 6)
            if n is None:
                continue
            an = Analysis.of(f)
            d = an.quotient.rank
            if n ** d > 2000:
                continue
            cert = brute_force_oracle(f, 2000)
            if cert is None:
                continue
            # extra quality data
            cfg = SearchConfig()
            crits = {
                "l2": check_l2(an.matrix, cfg) is not None,
                "anchored": check_anchored(an.matrix, cfg) is not None,
                "character": character_scan(an.matrix, cfg) is not None,
            }
            try:
                poly = shadow(an.transition)
                stable = all(
                    is_stable(subgraph_matrix(an.transition,
                                              vertex_subgraph(an.transition, u)))
                    for u in poly.vertices)
                nverts = len(poly.vertices)
            except HomoliftError as exc:   # the cycle cap, or no vertex
                stable, nverts = None, str(exc)
            results.append((cert.degree, ws, lam, d, crits, stable, nverts, text))
            print(f"FOUND degree={cert.degree} words={ws} lambda={lam:.4f} "
                  f"d={d} criteria={crits} all_stable={stable} "
                  f"shadow_verts={nverts}", flush=True)
            if len(results) >= args.max_results:
                break

    print(f"tried {tried} candidates in {time.time()-t0:.1f}s", flush=True)
    results.sort(key=lambda r: (r[0], sum(len(w) for w in r[1])))
    for deg, ws, lam, d, crits, stable, nverts, text in results:
        print("=" * 60)
        print(f"degree {deg}, lambda {lam:.4f}, d {d}, criteria {crits}, "
              f"all_stable {stable}, shadow vertices {nverts}")
        print(text)


if __name__ == "__main__":
    main()
