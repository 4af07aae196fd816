import random

import pytest

from homolift import linalg
from homolift.errors import HomoliftError
from homolift.graphs import Edge, EdgePath, Graph, empty_path, parse_graph_map
from homolift.homology import (equivariant_quotient, homology_action,
                               path_class, spanning_tree)
from oracles import mat_mul, section


def steps(word):
    return tuple((c.lower(), 1 if c.islower() else -1) for c in word)


AB_MAP = """vertices: v
edges: a: v -> v ; b: v -> v
base: v
map a -> a
map b -> b a
"""


def test_spanning_tree_rose(s3):
    st = spanning_tree(s3.graph)
    assert st.tree_edges == frozenset()
    assert st.h1_basis == ("a", "b")
    assert st.rank == 2


def test_spanning_tree_theta():
    theta = Graph(("u", "w"),
                  (Edge("a", "u", "w"), Edge("b", "u", "w"), Edge("c", "u", "w")),
                  "u")
    st = spanning_tree(theta)
    assert len(st.tree_edges) == 1
    assert st.rank == 2
    assert st.tree_path("u").is_empty()
    assert st.tree_path("w").steps == (("a", 1),)


def test_spanning_tree_single_loop():
    g = Graph(("v",), (Edge("a", "v", "v"),), "v")
    st = spanning_tree(g)
    assert st.h1_basis == ("a",)


def _declaration_scan_tree(graph):
    """Reference breadth-first tree: every dequeued vertex scans the whole
    edge list in declaration order (O(V * E))."""
    parent = {graph.base: None}
    queue = [graph.base]
    while queue:
        v = queue.pop(0)
        for e in graph.edges:
            if e.origin == v and e.terminus not in parent:
                parent[e.terminus] = (e.name, 1)
                queue.append(e.terminus)
            elif e.terminus == v and e.origin not in parent:
                parent[e.origin] = (e.name, -1)
                queue.append(e.origin)
    return parent


def test_spanning_tree_matches_declaration_scan(analyses):
    graphs = [an.graph_map.graph for an in analyses.values()]
    for name in ("unipotent_silver", "example_s3", "unipotent_rank2"):
        level = analyses[name].cover(2)
        graphs.append(level.graph_map.graph)
        graphs.append(level.cover(3).graph_map.graph)
    for g in graphs:
        parent = _declaration_scan_tree(g)
        st = spanning_tree(g)
        assert st.tree_edges == {p[0] for p in parent.values() if p}
        for v in g.vertices:
            walk, w = [], v
            while parent[w] is not None:
                walk.append(parent[w])
                w = g.step_endpoints(parent[w])[0]
            assert st.tree_path(v).steps == tuple(reversed(walk))
            assert st.tree_path(v).start(g) == g.base


def test_spanning_tree_stores_one_step_per_vertex(analyses):
    # a cyclic cover's tree is a long path: one parent step per vertex keeps
    # it linear, where a stored path per vertex would hold about V^2 / 4
    level = analyses["unipotent_silver"].cover(64)
    g = level.graph_map.graph
    st = spanning_tree(g)
    assert len(st.parents) == len(g.vertices) - 1
    assert g.base not in st.parents
    depths = [len(st.tree_path(v).validate(g)) for v in g.vertices]
    assert max(depths) >= len(g.vertices) // 2
    assert all(st.tree_path(v).end(g) == v for v in g.vertices)


def test_division_by_a_non_monic_polynomial_is_a_homolift_error():
    with pytest.raises(HomoliftError, match="monic"):
        linalg.poly_divmod_monic([1, 2, 3], [1, 2])


def test_path_class_examples(s3):
    st = spanning_tree(s3.graph)
    assert path_class(EdgePath(steps("baB")), st) == (1, 0)
    assert path_class(empty_path("v"), st) == (0, 0)
    assert path_class(EdgePath(steps("aA")), st) == (0, 0)


def test_homology_action_examples(s3, golden, identity2):
    assert homology_action(s3, spanning_tree(s3.graph)).matrix == ((1, 0), (0, 1))
    assert homology_action(golden, spanning_tree(golden.graph)).matrix == \
        ((1, 1), (1, 0))
    assert homology_action(identity2, spanning_tree(identity2.graph)).matrix == \
        ((1, 0), (0, 1))


def test_quotient_s3(s3):
    st = spanning_tree(s3.graph)
    q = equivariant_quotient(homology_action(s3, st), st)
    assert q.rank == 2
    assert q.projection == ((1, 0), (0, 1))


def test_quotient_golden(golden):
    st = spanning_tree(golden.graph)
    q = equivariant_quotient(homology_action(golden, st), st)
    assert q.rank == 0


def test_quotient_ab_map():
    f = parse_graph_map(AB_MAP)
    st = spanning_tree(f.graph)
    q = equivariant_quotient(homology_action(f, st), st)
    assert q.rank == 1
    assert q.cocycle["a"] == (0,)
    assert q.cocycle["b"] == (1,)


def test_translate_examples(s3, dense_translation):
    st = spanning_tree(s3.graph)
    q = equivariant_quotient(homology_action(s3, st), st)
    assert dense_translation(q, st, EdgePath(steps("b"))) == (0, 1)
    assert dense_translation(q, st, empty_path("v")) == (0, 0)
    assert dense_translation(q, st, EdgePath(steps("baB"))) == (1, 0)
    assert q.cocycle == {"a": (1, 0), "b": (0, 1)}


def test_projection_identities(analyses, multi_vertex_levels):
    # P (I - f*) = 0, P f* = P and P section = I, exactly, on every corpus
    # map and on multi-vertex tower levels
    for an in [*analyses.values(), *multi_vertex_levels]:
        q, fa = an.quotient, an.action
        if q.rank == 0:
            continue
        proj = [list(r) for r in q.projection]
        mat = [list(r) for r in fa.matrix]
        assert mat_mul(proj, mat) == proj
        sect = [list(r) for r in section(q)]
        assert mat_mul(proj, sect) == linalg.identity_matrix(q.rank)


def test_quotient_rank_formula(analyses):
    for an in analyses.values():
        r = an.action.rank
        m = [[int(i == j) - an.action.matrix[i][j] for j in range(r)]
             for i in range(r)]
        assert an.quotient.rank == r - linalg.mat_rank_rational(m)


def test_saturation(analyses):
    # row space of P is saturated: Smith diagonal of P is all ones
    for an in analyses.values():
        if an.quotient.rank == 0:
            continue
        _s, d, _t = linalg.smith_normal_form([list(r) for r in an.quotient.projection])
        assert all(x == 1 for x in linalg.smith_diagonal(d))


def _random_walk(graph, rng, length, start):
    incident = {v: [] for v in graph.vertices}
    for e in graph.edges:
        incident[e.origin].append((e.name, 1, e.terminus))
        incident[e.terminus].append((e.name, -1, e.origin))
    cur = start
    acc = []
    for _ in range(length):
        name, d, nxt = rng.choice(incident[cur])
        acc.append((name, d))
        cur = nxt
    return (EdgePath(tuple(acc)) if acc else empty_path(start)), cur


def _cocycle_sum(quotient, path):
    out = [0] * quotient.rank
    for name, direction in path.steps:
        for i, c in enumerate(quotient.cocycle[name]):
            out[i] += direction * c
    return tuple(out)


def test_translate_additive_on_concatenation(analyses, dense_translation):
    # the cocycle summed along any path, closed or not, is the dense
    # projection of its class, and both are additive
    rng = random.Random(20240)
    for an in analyses.values():
        g = an.graph_map.graph
        for _ in range(200):
            p, mid = _random_walk(g, rng, rng.randint(0, 6), g.base)
            qpath, _ = _random_walk(g, rng, rng.randint(0, 6), mid)
            whole = p.concat(qpath, g)
            lhs = _cocycle_sum(an.quotient, whole)
            assert lhs == dense_translation(an.quotient, an.tree, whole)
            a = dense_translation(an.quotient, an.tree, p)
            b = dense_translation(an.quotient, an.tree, qpath)
            assert lhs == tuple(x + y for x, y in zip(a, b))


def test_s3_quotient_identifies_rank_two(analyses):
    an = analyses["example_s3"]
    assert an.quotient.rank == 2
    assert an.action.matrix == ((1, 0), (0, 1))


def test_corpus_actions_are_unimodular(analyses):
    # homotopy equivalences act with determinant +-1 (diagnostic)
    for an in analyses.values():
        _s, d, _t = linalg.smith_normal_form([list(r) for r in an.action.matrix])
        det = 1
        for x in linalg.smith_diagonal(d):
            det *= x
        assert det == 1
