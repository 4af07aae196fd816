import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homolift import linalg
from homolift.errors import HomoliftError
from homolift.graphs import (Edge, EdgePath, Graph, empty_path,
                             parse_graph_map, tree_potential)
from homolift.homology import (HomologyAction, SpanningTreeData,
                               equivariant_quotient, homology_action,
                               path_class, spanning_tree)
from oracles import (concat, loop_homology_action, mat_mul, mat_rank_rational,
                     section)


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
    assert st.tree_edges == {"a"}
    assert tree_potential(theta, lambda name: (1,), 1) == {"u": (0,),
                                                           "w": (1,)}


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


def _one_hot(graph):
    """The edge function sending the i-th edge to the i-th unit vector:
    its tree potential at v counts the signed steps of the tree path to
    v."""
    index = {e.name: i for i, e in enumerate(graph.edges)}
    return lambda name: tuple(int(i == index[name])
                              for i in range(len(index)))


def _depth_two_levels(analyses):
    return [analyses[name].cover(2).cover(3)
            for name in ("unipotent_silver", "example_s3", "unipotent_rank2")]


def test_spanning_tree_matches_declaration_scan(analyses):
    graphs = [an.graph_map.graph for an in analyses.values()]
    for name in ("unipotent_silver", "example_s3", "unipotent_rank2"):
        graphs.append(analyses[name].cover(2).graph_map.graph)
    graphs += [level.graph_map.graph for level in _depth_two_levels(analyses)]
    for g in graphs:
        parent = _declaration_scan_tree(g)
        st = spanning_tree(g)
        assert st.tree_edges == {p[0] for p in parent.values() if p}
        potential = tree_potential(g, _one_hot(g), len(g.edges))
        index = {e.name: i for i, e in enumerate(g.edges)}
        for v in g.vertices:
            counts, w = [0] * len(g.edges), v
            while parent[w] is not None:
                counts[index[parent[w][0]]] += parent[w][1]
                w = g.step_endpoints(parent[w])[0]
            assert potential[v] == tuple(counts)


def test_spanning_tree_stores_one_step_per_vertex(analyses):
    # a cyclic cover's tree is a long path: one step per vertex keeps it
    # linear, where a stored path per vertex would hold about V^2 / 4
    level = analyses["unipotent_silver"].cover(64)
    g = level.graph_map.graph
    st = spanning_tree(g)
    assert len(st.tree_edges) == len(g.vertices) - 1
    potential = tree_potential(g, _one_hot(g), len(g.edges))
    assert set(potential) == set(g.vertices)
    assert max(sum(map(abs, p)) for p in potential.values()) >= \
        len(g.vertices) // 2


def test_homology_action_matches_the_loop_reference(analyses,
                                                    multi_vertex_levels):
    # f* from tree potentials against f applied to each based loop; the
    # corpus maps are roses, whose potentials vanish, so the multi-vertex
    # levels are what exercise the tree sum
    levels = [*analyses.values(), *multi_vertex_levels,
              *_depth_two_levels(analyses)]
    for level in levels:
        f, st = level.graph_map, level.tree
        assert homology_action(f, st).matrix == loop_homology_action(f, st)


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
        assert an.quotient.rank == r - mat_rank_rational(m)


def test_saturation(analyses):
    # row space of P is saturated: Smith diagonal of P is all ones
    for an in analyses.values():
        if an.quotient.rank == 0:
            continue
        diag, _t = linalg.smith_normal_form(
            [list(r) for r in an.quotient.projection])
        assert all(x == 1 for x in diag)


def _check_projection(action, quotient):
    # P is the Hermite basis of the saturated left kernel of I - f*: it
    # annihilates I - f*, has the kernel's rank, a Smith diagonal of ones,
    # and is its own Hermite form
    r = action.rank
    m = [[int(i == j) - action.matrix[i][j] for j in range(r)]
         for i in range(r)]
    p = [list(row) for row in quotient.projection]
    assert quotient.rank == len(p) == r - mat_rank_rational(m)
    assert all(len(row) == r for row in p)
    assert not any(map(any, mat_mul(p, m)))
    assert linalg.smith_normal_form(p)[0] == [1] * len(p)
    assert linalg.hermite_row_form(p) == p


@st.composite
def integer_actions(draw):
    """Integer f* of rank 0 to 5: arbitrary, singular (a product through a
    narrower middle), or unipotent (unitriangular, conjugated by elementary
    matrices)."""
    r = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["any", "singular", "unipotent"]))
    entries = st.integers(-3, 3)

    def block(rows, cols):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if kind == "any":
        return block(r, r)
    if kind == "singular":
        k = draw(st.integers(0, max(r - 1, 0)))
        a, b = block(r, k), block(k, r)
        return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(r)]
                for i in range(r)]
    upper = block(r, r)
    m = [[int(i == j) or upper[i][j] * (j > i) for j in range(r)]
         for i in range(r)]
    for _ in range(draw(st.integers(0, 4)) if r > 1 else 0):
        i, j = draw(st.permutations(range(r)))[:2]
        c = draw(st.integers(-2, 2))
        # M <- E M E^-1 with E = I + c e_ij
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    return m


@settings(max_examples=200, deadline=None)
@given(integer_actions())
def test_projection_is_the_hermite_basis_of_the_left_kernel(matrix):
    r = len(matrix)
    basis = tuple(f"e{i}" for i in range(r))
    tree = SpanningTreeData(frozenset(), basis,
                            {name: i for i, name in enumerate(basis)})
    action = HomologyAction(tuple(map(tuple, matrix)))
    _check_projection(action, equivariant_quotient(action, tree))


def test_projection_on_corpus_and_cover_levels(analyses, multi_vertex_levels):
    levels = list(analyses.values()) + multi_vertex_levels
    for an in levels:
        _check_projection(an.action, an.quotient)


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
            whole = concat(g, p, qpath)
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
        diag, _t = linalg.smith_normal_form([list(r) for r in an.action.matrix])
        det = 1
        for x in diag:
            det *= x
        assert det == 1
