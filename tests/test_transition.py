import importlib
import io
import json
import math
import pkgutil
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homolift
from homolift import corpus, geometry, linalg
from homolift.cli import main
from homolift.covers import unit_circle_test
from homolift.errors import ValidationError
from homolift.graphs import EdgePath, parse_graph_map
from homolift.homology import EquivariantQuotient
from homolift.search import Analysis
from homolift.transition import (Arc, TransitionGraph, _growth_is_one,
                                 count_matrix, dilatation,
                                 dimension_diagnostic, is_stable, shadow,
                                 simple_cycles, subgraph_matrix,
                                 transition_graph, vertex_subgraph)
from oracles import (arc_prefix, based_cycles, cycles_from_every_start,
                     extremal_subgraph, hull_vertices_rational,
                     in_convex_hull_rational, laurent_constant, laurent_zero,
                     magnus_power, mat_rank_rational, matrix_from_rows,
                     matrix_is_zero, monomial, path_data, positive_power)

AB_MAP = """vertices: v
edges: a: v -> v ; b: v -> v
base: v
map a -> a
map b -> b a
"""


def arc_by(transition, source, target, dec):
    names = transition.nodes
    for arc in transition.arcs:
        if (names[arc.source], names[arc.target], arc.dec) == (source, target, dec):
            return arc
    raise KeyError((source, target, dec))


def test_s3_arcs(analyses):
    t = analyses["example_s3"].transition
    assert len(t.arcs) == 4
    eta1 = arc_by(t, "b", "b", 1)
    eta2 = arc_by(t, "a", "a", 1)
    eta3 = arc_by(t, "a", "b", 1)
    eta4 = arc_by(t, "a", "b", 2)
    assert (eta1.sign, eta1.translation) == (1, (0, 0))
    assert arc_prefix(t, eta1).is_empty()
    assert (eta2.sign, eta2.translation) == (1, (0, 1))
    assert arc_prefix(t, eta2).steps == (("b", 1),)
    assert (eta3.sign, eta3.translation) == (1, (0, 0))
    assert arc_prefix(t, eta3).is_empty()
    assert (eta4.sign, eta4.translation) == (-1, (1, 0))
    assert arc_prefix(t, eta4).steps == (("b", 1), ("a", 1), ("b", -1))
    assert count_matrix(t) == [[1, 2], [0, 1]]


def test_identity_arcs(analyses):
    t = analyses["identity"].transition
    assert len(t.arcs) == 2
    assert all(a.sign == 1 and a.translation == (0, 0) for a in t.arcs)


def test_golden_arcs(analyses):
    t = analyses["golden_mean"].transition
    assert len(t.arcs) == 3
    assert all(a.sign == 1 and a.translation == () for a in t.arcs)
    assert {(t.nodes[a.source], t.nodes[a.target]) for a in t.arcs} == \
        {("a", "a"), ("a", "b"), ("b", "a")}


def test_path_data_examples(analyses):
    t = analyses["example_s3"].transition
    eta2 = arc_by(t, "a", "a", 1)
    eta4 = arc_by(t, "a", "b", 2)
    sign, trans, prefix = path_data(t, [eta2, eta2])
    assert sign == 1 and trans == (0, 2)
    assert prefix.steps == (("b", 1), ("b", 1))
    sign, trans, _ = path_data(t, [eta2])
    assert (sign, trans) == (eta2.sign, eta2.translation)
    sign, trans, _ = path_data(t, [eta2, eta4])
    assert sign == -1 and trans == (1, 1)
    with pytest.raises(ValidationError):
        path_data(t, [eta4, eta2])  # b -> then from a: not composable


def test_simple_cycles_examples(analyses):
    t3 = analyses["example_s3"].transition
    cycles = simple_cycles(t3)
    assert sorted((c.length, c.translation) for c in cycles) == \
        [(1, (0, 0)), (1, (0, 1))]
    tg = analyses["golden_mean"].transition
    assert sorted(c.length for c in simple_cycles(tg)) == [1, 2]


def test_simple_cycles_empty():
    empty = TransitionGraph(("a", "b"), 0, (), None)
    assert simple_cycles(empty) == []


def test_shadow_examples(analyses):
    poly = shadow(analyses["example_s3"].transition)
    assert poly.dim == 1
    assert poly.vertices == ((Fraction(0), Fraction(0)),
                             (Fraction(0), Fraction(1)))
    f = parse_graph_map(AB_MAP)
    an = Analysis.of(f)
    poly = shadow(an.transition)
    assert poly.vertices == ((Fraction(0),),) and poly.dim == 0
    poly = shadow(analyses["golden_mean"].transition)
    assert poly.vertices == ((),) and poly.dim == 0


def test_shadow_generators(analyses):
    t = analyses["example_s3"].transition
    poly = shadow(t)
    cycles = simple_cycles(t)
    for v, gens in poly.generators.items():
        assert gens, v
        for i in gens:
            assert cycles[i].normalized == v


def test_extremal_subgraph_examples(analyses):
    t = analyses["example_s3"].transition
    sel, max_value = extremal_subgraph(t, (0, 1))
    assert max_value == 1
    assert {(t.nodes[t.arcs[i].source], t.arcs[i].dec)
            for i in sel.arc_indices} == {("a", 1)}
    sel0, max_value = extremal_subgraph(t, (0, 0))
    assert max_value == 0
    assert len(sel0.arc_indices) == 2  # both one-cycles
    seln, _ = extremal_subgraph(t, (0, -1))
    assert {t.nodes[t.arcs[i].source] for i in seln.arc_indices} == {"b"}


def test_vertex_subgraph_examples(analyses):
    t = analyses["example_s3"].transition
    vu = vertex_subgraph(t, (0, 1))
    assert {t.nodes[t.arcs[i].source] for i in vu.arc_indices} == {"a"}
    v0 = vertex_subgraph(t, (0, 0))
    assert {t.nodes[t.arcs[i].source] for i in v0.arc_indices} == {"b"}
    with pytest.raises(ValidationError):
        vertex_subgraph(t, (5, 5))
    tg = analyses["golden_mean"].transition
    all_arcs = vertex_subgraph(tg, ())
    assert len(all_arcs.arc_indices) == 3


def test_subgraph_matrix_examples(analyses):
    t = analyses["example_s3"].transition
    Y = monomial((0, 1))
    mat = subgraph_matrix(t, vertex_subgraph(t, (0, 1)))
    assert mat.entries[0][0] == Y
    assert all(mat.entries[i][j].is_zero() for i in range(2) for j in range(2)
               if (i, j) != (0, 0))
    mat0 = subgraph_matrix(t, vertex_subgraph(t, (0, 0)))
    assert mat0.entries[1][1] == laurent_constant(2, 1)
    from homolift.transition import SubgraphSelection
    empty = subgraph_matrix(t, SubgraphSelection((), frozenset()))
    assert matrix_is_zero(empty)


def test_stability_examples(analyses):
    t = analyses["example_s3"].transition
    assert is_stable(subgraph_matrix(t, vertex_subgraph(t, (0, 1))))
    zero = matrix_from_rows(
        ("a", "b"), 2, [[laurent_zero(2)] * 2] * 2)
    assert not is_stable(zero)
    X = monomial((1, 0))
    nilp = matrix_from_rows(
        ("a", "b"), 2,
        [[laurent_zero(2), X], [laurent_zero(2), laurent_zero(2)]])
    assert not is_stable(nilp)


def test_stability_matches_brute_force(analyses):
    for an in analyses.values():
        t = an.transition
        poly = shadow(t)
        for u in poly.vertices:
            mat = subgraph_matrix(t, vertex_subgraph(t, u))
            assert is_stable(mat) == (
                not matrix_is_zero(magnus_power(mat, mat.size)))


def test_dilatation_examples(analyses):
    assert abs(dilatation(analyses["golden_mean"].transition)
               - (1 + math.sqrt(5)) / 2) < 1e-9
    assert abs(dilatation(analyses["identity"].transition) - 1) < 1e-12
    assert abs(dilatation(analyses["example_s3"].transition) - 1) < 1e-9
    assert abs(dilatation(analyses["unipotent_silver"].transition)
               - (1 + math.sqrt(2))) < 1e-9


def test_positive_power_examples(analyses):
    t = analyses["example_s3"].transition
    mats = [subgraph_matrix(t, vertex_subgraph(t, u))
            for u in ((0, 0), (0, 1))]
    assert positive_power(mats, [(0, 0), (0, 1)], 8) == 1
    minus_x = matrix_from_rows(
        ("e",), 1, [[monomial((1,), -1)]])
    assert positive_power([minus_x], [(1,)], 8) == 2
    zero = matrix_from_rows(("e",), 1, [[laurent_zero(1)]])
    with pytest.raises(ValidationError):
        positive_power([zero], [(0,)], 8)


def test_positive_power_none_within_bound():
    minus_x = matrix_from_rows(
        ("e",), 1, [[monomial((1,), -1)]])
    assert positive_power([minus_x], [(1,)], 1) is None


def test_dimension_diagnostic(analyses):
    gm = analyses["golden_mean"]
    diag = dimension_diagnostic(gm.transition, shadow(gm.transition))
    assert diag.mode == "free" and diag.applicable and diag.matches
    s3 = analyses["example_s3"]
    diag = dimension_diagnostic(s3.transition, shadow(s3.transition))
    assert not diag.applicable
    ident = analyses["identity"]
    diag = dimension_diagnostic(ident.transition, shadow(ident.transition))
    assert diag.shadow_dim == 0 and diag.expected_dim == 2 and not diag.matches


def test_dimension_diagnostic_surface_mode():
    f = parse_graph_map("""vertices: v
edges: a: v -> v ; b: v -> v
base: v
boundary: 1
map a -> a b
map b -> a
""")
    an = Analysis.of(f)
    diag = dimension_diagnostic(an.transition, shadow(an.transition))
    assert diag.mode == "surface"
    assert diag.expected_dim == an.quotient.rank  # b = 1


def test_growth_one_is_exact(tmp_path):
    # the count matrix has characteristic polynomial (x-1)^2 (x+1)^2; a
    # float spectral radius lands just above 1 and used to pass for growth
    path = tmp_path / "growth_one.gm"
    path.write_text("""vertices: v
edges: a: v -> v ; b: v -> v ; c: v -> v ; d: v -> v
base: v
map a -> d
map b -> c
map c -> b d
map d -> a
""")
    out, err = io.StringIO(), io.StringIO()
    assert main(["analyze", str(path), "--json"], out, err) == 0
    report = json.loads(out.getvalue())
    assert report["dilatation"] == 1.0
    diag = report["dimension_diagnostic"]
    assert not diag["applicable"]
    assert diag["note"].startswith("growth rate is 1")


def test_counting_consistency(analyses):
    # row sums are image lengths; paths in the transition graph of length k
    # from i to j count the traversals of j in the k-th iterate of i
    from oracles import iterate_edge_image
    for an in analyses.values():
        f, t = an.graph_map, an.transition
        counts = count_matrix(t)
        for i, name in enumerate(t.nodes):
            assert sum(counts[i]) == len(f.edge_image[name])
        n = len(t.nodes)
        for k in range(1, 5):
            power = counts
            for _ in range(k - 1):
                power = [[sum(power[i][x] * counts[x][j] for x in range(n))
                          for j in range(n)] for i in range(n)]
            for i in range(n):
                img = iterate_edge_image(f, t.nodes[i], k)
                for j in range(n):
                    traversals = sum(1 for nm, _ in img.steps
                                     if nm == t.nodes[j])
                    assert power[i][j] == traversals


def _random_arc_path(transition, rng, max_len):
    arcs = transition.arcs
    if not arcs:
        return []
    out = [rng.choice(arcs)]
    for _ in range(rng.randint(0, max_len - 1)):
        nxt = [a for a in arcs if a.source == out[-1].target]
        if not nxt:
            break
        out.append(rng.choice(nxt))
    return out


def test_groupoid_homomorphism(analyses, dense_translation):
    # translation of a path = sum of arc translations = translation of the
    # recursively built prefix (single-vertex base graphs)
    rng = random.Random(99)
    for an in analyses.values():
        t = an.transition
        for _ in range(500):
            arcs = _random_arc_path(t, rng, 5)
            if not arcs:
                continue
            sign, trans, prefix = path_data(t, arcs)
            assert trans == tuple(sum(x) for x in
                                  zip(*(a.translation for a in arcs)))
            assert dense_translation(an.quotient, an.tree, prefix) == trans
            assert sign == math.prod(a.sign for a in arcs)


def _assert_translations_are_dense(level, dense_translation):
    # the cocycle of an edge is the projected class of its one-step path,
    # and an arc's translation is the projected class of its prefix
    q, st = level.quotient, level.tree
    for e in level.graph_map.graph.edges:
        step = EdgePath(((e.name, 1),))
        assert q.cocycle[e.name] == dense_translation(q, st, step)
    for arc in level.transition.arcs:
        assert arc.translation == dense_translation(
            q, st, arc_prefix(level.transition, arc))


@pytest.mark.parametrize("name", corpus.names())
def test_arc_translations_match_dense_projection(analyses, name,
                                                 dense_translation):
    _assert_translations_are_dense(analyses[name], dense_translation)


@pytest.mark.parametrize("name", ["unipotent_silver", "example_s3"])
def test_arc_translations_match_dense_projection_on_covers(analyses, name,
                                                           dense_translation):
    top = analyses[name].cover(2).cover(2)
    assert len(top.graph_map.graph.vertices) > 1
    assert any(a.sign < 0 for a in top.transition.arcs)
    _assert_translations_are_dense(top, dense_translation)


def test_cycle_translations_in_shadow(analyses):
    for an in analyses.values():
        t = an.transition
        if not t.arcs:
            continue
        poly = shadow(t)
        pts = [tuple(v) for v in poly.vertices]
        for k in range(1, 7):
            for cyc in based_cycles(t, k):
                total = [0] * t.dim
                for idx in cyc:
                    for i, x in enumerate(t.arcs[idx].translation):
                        total[i] += x
                norm = tuple(Fraction(x, k) for x in total)
                assert geometry.in_convex_hull(norm, pts), (k, norm)


@st.composite
def rational_point_sets(draw):
    """0-12 points in dimension 0-4 on the affine span of 0-3 random
    rational directions through a rational base point, some repeated: empty
    sets, single points, and collinear and coplanar sets with non-integral
    coordinates."""
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    d = draw(st.integers(0, 4))
    base = draw(st.tuples(*[fractions] * d))
    spans = draw(st.lists(st.tuples(*[fractions] * d), max_size=3))
    points = [tuple(b + sum(c * v[i] for c, v in zip(cs, spans))
                    for i, b in enumerate(base))
              for cs in draw(st.lists(st.lists(fractions, min_size=3,
                                               max_size=3), max_size=8))]
    points += draw(st.lists(st.sampled_from(points), max_size=4)) \
        if points else []
    return points


@settings(max_examples=200, deadline=None)
@given(rational_point_sets())
def test_affine_dimension_is_the_rational_rank(points):
    uniq = sorted(set(points))
    expected = -1 if not uniq else mat_rank_rational(
        [[a - b for a, b in zip(p, uniq[0])] for p in uniq[1:]])
    assert geometry.affine_dimension(points) == expected


@st.composite
def grid_point_sets(draw):
    """0-14 points of the grid (1/q)Z^d in [-3, 3]^d, d in 1..4 and q in
    1..6: crowded sets, many points on the boundary of their hull."""
    d = draw(st.integers(1, 4))
    q = draw(st.integers(1, 6))
    coord = st.integers(-3 * q, 3 * q).map(lambda n: Fraction(n, q))
    return draw(st.lists(st.tuples(*[coord] * d), max_size=14))


@st.composite
def hull_queries(draw):
    """A point set of ``rational_point_sets`` with up to 3 arbitrary points
    of its dimension added (so full-dimensional sets occur in dimension 4
    too), or of ``grid_point_sets``; its integral coordinates sometimes as
    ints; and a query point: one of the points, a point on the line through
    two of them (inside their segment or past its ends), or an arbitrary
    point."""
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    points = draw(st.one_of(rational_point_sets(), grid_point_sets()))
    if not points:
        return points, ()
    d = len(points[0])
    points += draw(st.lists(st.tuples(*[fractions] * d), max_size=3))
    if draw(st.booleans()):
        points = [tuple(int(x) if x.denominator == 1 else x for x in p)
                  for p in points]
    p, q = draw(st.sampled_from(points)), draw(st.sampled_from(points))
    c = draw(st.fractions(min_value=-1, max_value=2, max_denominator=4))
    query = draw(st.sampled_from([
        p, tuple((1 - c) * x + c * y for x, y in zip(p, q)),
        draw(st.tuples(*[fractions] * d))]))
    return points, query


@settings(max_examples=200, deadline=None)
@given(hull_queries())
def test_hull_agrees_with_the_fraction_simplex(case):
    # the integer-pivoting tableau decides as the rational one does, on
    # empty and single-point sets, repeated points, collinear, coplanar and
    # full-dimensional sets in dimensions 0-4, and crowded grid sets
    points, query = case
    assert geometry.hull_vertices(points) == hull_vertices_rational(points)
    assert (geometry.in_convex_hull(query, points)
            == in_convex_hull_rational(query, points))


def test_extremal_lemma(analyses):
    # every cycle inside the extremal subgraph achieves the maximum
    rng = random.Random(5)
    for an in analyses.values():
        t = an.transition
        if not t.arcs or t.dim == 0:
            continue
        for _ in range(20):
            omega = tuple(Fraction(rng.randint(-3, 3)) for _ in range(t.dim))
            sel, max_value = extremal_subgraph(t, omega)
            if max_value is None:
                continue
            for k in range(1, 7):
                for cyc in based_cycles(t, k, sel.arc_indices):
                    total = [0] * t.dim
                    for idx in cyc:
                        for i, x in enumerate(t.arcs[idx].translation):
                            total[i] += x
                    val = sum(w * Fraction(x, k)
                              for w, x in zip(omega, total))
                    assert val == max_value


def test_cycle_cap_fails_loudly(analyses):
    from homolift.errors import ResourceLimitError
    t = analyses["example_s3"].transition
    fresh = TransitionGraph(t.nodes, t.dim, t.arcs, t.graph_map)
    with pytest.raises(ResourceLimitError):
        simple_cycles(fresh, cap=1)


def test_smaller_cap_raises_on_the_cached_count(analyses, monkeypatch):
    # the cycles are enumerated once per graph; a later, smaller cap is
    # refused from the stored count, with the enumeration's own message
    from homolift import transition
    from homolift.errors import ResourceLimitError
    t = analyses["unipotent_rank2"].transition
    fresh, again = (TransitionGraph(t.nodes, t.dim, t.arcs, t.graph_map)
                    for _ in range(2))
    cycles = simple_cycles(fresh)
    poly = shadow(fresh)
    n = len(cycles)
    with pytest.raises(ResourceLimitError) as enumerated:
        simple_cycles(again, cap=n - 1)
    made = []
    monkeypatch.setattr(transition, "_make_cycle",
                        lambda *args: made.append(1))
    assert simple_cycles(fresh, cap=n) is cycles
    assert shadow(fresh, cap=n) is poly
    for call in (simple_cycles, shadow):
        with pytest.raises(ResourceLimitError) as cached:
            call(fresh, cap=n - 1)
        assert str(cached.value) == str(enumerated.value)
    assert made == []


def test_simple_cycles_long_path_needs_no_recursion():
    # one 2000-arc cycle: far deeper than Python's recursion limit
    n = 2000
    arcs = tuple(Arc(i, (i + 1) % n, 1, 0, 1, ()) for i in range(n))
    tg = TransitionGraph(tuple(f"e{i}" for i in range(n)), 0, arcs, None)
    cycles = simple_cycles(tg)
    assert len(cycles) == 1
    assert cycles[0].length == n


def test_simple_cycles_against_brute_force():
    # Johnson enumeration vs exhaustive search on random small multigraphs
    def brute(nodes_n, arcs):
        adj = [[] for _ in range(nodes_n)]
        for idx, (src, dst) in enumerate(arcs):
            adj[src].append((idx, dst))
        found = set()

        def walk(start, v, used_nodes, seq):
            for idx, w in adj[v]:
                if w == start:
                    cyc = tuple(seq + [idx])
                    best = min(cyc[i:] + cyc[:i] for i in range(len(cyc)))
                    found.add(best)
                elif w not in used_nodes and w > start:
                    walk(start, w, used_nodes | {w}, seq + [idx])

        for s in range(nodes_n):
            walk(s, s, {s}, [])
        return found

    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 4)
        arc_pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, 7))]
        arcs = tuple(Arc(s, t, 1, 0, 1, ()) for s, t in arc_pairs)
        tg = TransitionGraph(tuple(f"e{i}" for i in range(n)), 0, arcs, None)
        got = {min((c.arc_indices[i:] + c.arc_indices[:i]
                    for i in range(len(c.arc_indices))))
               for c in simple_cycles(tg)}
        assert got == brute(n, arc_pairs)


def test_simple_cycles_match_the_search_from_every_start(analyses):
    # narrowing each start to its strongly connected component changes
    # neither the cycles nor their order
    rng = random.Random(16)
    graphs = [an.transition for an in analyses.values()]
    for _ in range(300):
        n = rng.randint(1, 8)
        graphs.append(TransitionGraph(
            tuple(f"e{i}" for i in range(n)), 0,
            tuple(Arc(rng.randrange(n), rng.randrange(n), 1, 0, 1, ())
                  for _ in range(rng.randint(0, 16))), None))
    for tg in graphs:
        assert [c.arc_indices for c in simple_cycles(tg)] == \
            cycles_from_every_start(tg)


def test_simple_cycles_skip_starts_off_every_cycle():
    # a 3000-node path into a 3000-node cycle: one search from the cycle's
    # least node, not one per node that merely reaches the cycle
    n = 3000
    arcs = tuple(Arc(i, i + 1, 1, 0, 1, ()) for i in range(2 * n - 1)) + \
        (Arc(2 * n - 1, n, 1, 0, 1, ()),)
    tg = TransitionGraph(tuple(f"e{i}" for i in range(2 * n)), 0, arcs, None)
    started = time.perf_counter()
    cycles = simple_cycles(tg)
    assert time.perf_counter() - started < 1.0
    assert [c.arc_indices for c in cycles] == [tuple(range(n, 2 * n))]


def test_transition_graph_stores_no_count_matrix(analyses):
    # a degree-1024 cover of example_s3 has 2048 edges and 4096 arcs; the
    # rank-0 quotient keeps the Smith form out of the test
    level = analyses["example_s3"].cover(32).graph_map
    names = tuple(level.edge_image)
    q = EquivariantQuotient(0, (), dict.fromkeys(names, ()))
    tracemalloc.start()
    try:
        t = transition_graph(level, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(t.arcs) == 2 * len(names) == 4096
    assert peak < len(names) ** 2    # bytes: one per matrix slot


def test_analyze_and_search_call_no_dense_charpoly(monkeypatch):
    # growth rate 1 comes from the transition graph's components, and a
    # level's polynomial from its Galois orbits: the dense charpoly is the
    # tests' reference only
    calls = []
    charpoly = linalg.charpoly_int
    for info in pkgutil.iter_modules(homolift.__path__):
        module = importlib.import_module(f"homolift.{info.name}")
        if hasattr(module, "charpoly_int"):
            monkeypatch.setattr(module, "charpoly_int", lambda rows: (
                calls.append(rows) or charpoly(rows)))
    for name in corpus.names():
        for command in ("analyze", "search"):
            code = main([command, f"corpus:{name}", "--json"], io.StringIO(),
                        io.StringIO())
            assert code in (0, 3) and calls == [], (command, name)


def _kronecker_growth_is_one(t):
    """The reference: every eigenvalue of the count matrix is 0 or a root of
    unity."""
    return unit_circle_test(linalg.charpoly_int(count_matrix(t))).all_on_circle


@st.composite
def small_multigraphs(draw):
    """Transition graphs of 1-8 nodes whose arcs are drawn at random, so
    self-loops, parallel arcs and acyclic parts all occur."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n))
    return TransitionGraph(tuple(f"e{i}" for i in range(n)), 0,
                           tuple(Arc(a, b, 1, 0, 1, ()) for a, b in pairs),
                           None)


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
def test_growth_one_from_components_is_kroneckers_test(tg):
    assert _growth_is_one(tg) == _kronecker_growth_is_one(tg)


def test_growth_one_from_components_on_tower_levels(analyses,
                                                     growth_one_maps):
    levels = [Analysis.of(f) for f in growth_one_maps.values()]
    for an in analyses.values():
        levels += [an] + [an.cover(k) for k in (2, 3)
                          if k ** an.quotient.rank <= 9]
    verdicts = [_growth_is_one(level.transition) for level in levels]
    assert verdicts == [_kronecker_growth_is_one(level.transition)
                        for level in levels]
    assert True in verdicts and False in verdicts


def test_growth_test_answers_on_a_3072_node_graph(analyses):
    # the dense charpoly of this count matrix exhausts the CRT prime pool;
    # the rank-0 quotient keeps the Smith form out of the test
    level = analyses["unipotent_silver"].cover(1024).graph_map
    q = EquivariantQuotient(0, (), dict.fromkeys(level.edge_image, ()))
    t = transition_graph(level, q)
    assert len(t.nodes) == 3072
    assert not _growth_is_one(t)
