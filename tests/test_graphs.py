import pytest

from homolift import corpus
from homolift.errors import ParseError, ValidationError
from homolift.graphs import (EdgePath, check_immersion, empty_path,
                             iterate_edge_image, parse_graph_map,
                             serialize_graph_map)


def steps(word):
    return tuple((c.lower(), 1 if c.islower() else -1) for c in word)


def test_parse_s3_example(s3):
    assert len(s3.graph.vertices) == 1
    assert len(s3.graph.edges) == 2
    assert s3.edge_image["a"].steps == steps("baB")
    assert s3.edge_image["b"].steps == steps("b")


def test_parse_identity(identity2):
    assert identity2.edge_image["a"].steps == steps("a")


def test_parse_undeclared_edge():
    with pytest.raises(ParseError) as exc:
        parse_graph_map("""vertices: v
edges: a: v -> v ; b: v -> v
base: v
map a -> b c
map b -> b
""")
    assert "undeclared" in str(exc.value)
    assert exc.value.line == 4


def test_parse_missing_map():
    with pytest.raises(ParseError, match="missing map"):
        parse_graph_map("""vertices: v
edges: a: v -> v
base: v
""")


def test_parse_endpoint_mismatch():
    with pytest.raises(ParseError):
        parse_graph_map("""vertices: u w
edges: t: u -> w ; x: u -> u ; y: w -> w
base: u
map t -> y t
map x -> x
map y -> y
""")


def test_parse_base_not_fixed():
    # image of t starts at w, forcing base u -> w
    with pytest.raises(ParseError, match="fix the base"):
        parse_graph_map("""vertices: u w
edges: t: u -> w ; y: w -> w
base: u
map t -> y
map y -> y
""")


def test_parse_empty_image():
    with pytest.raises(ParseError, match="empty image"):
        parse_graph_map("""vertices: v
edges: a: v -> v
base: v
map a ->
""")


def test_parse_comments_and_boundary():
    f = parse_graph_map("""# a comment
vertices: v
edges: a: v -> v ; b: v -> v
base: v
boundary: 1   # trailing comment
map a -> b a B
map b -> b
""")
    assert f.boundary_count == 1


def test_iterate_s3():
    f = corpus.load("example_s3")
    p = iterate_edge_image(f, "a", 2)
    assert p.steps == steps("bbaBB")


def test_iterate_identity(identity2):
    assert iterate_edge_image(identity2, "a", 5).steps == steps("a")


def test_iterate_golden(golden):
    assert iterate_edge_image(golden, "a", 3).steps == steps("abaab")


def test_iterate_functoriality(corpus_maps):
    # f^(j+k)(e) equals substituting f^j images into f^k(e)
    for f in corpus_maps.values():
        for e in f.graph.edges:
            for j in range(1, 3):
                for k in range(1, 3):
                    whole = iterate_edge_image(f, e.name, j + k)
                    outer = iterate_edge_image(f, e.name, k)
                    acc = []
                    for name, d in outer.steps:
                        img = iterate_edge_image(f, name, j)
                        if d > 0:
                            acc.extend(img.steps)
                        else:
                            acc.extend((n, -dd) for n, dd in reversed(img.steps))
                    assert whole.steps == tuple(acc)


def test_iterate_length_matches_count_matrix(analyses):
    for an in analyses.values():
        f = an.graph_map
        counts = an.transition.counts
        names = [e.name for e in f.graph.edges]
        power = counts
        for k in range(1, 5):
            if k > 1:
                power = [[sum(power[i][t] * counts[t][j]
                              for t in range(len(names)))
                          for j in range(len(names))] for i in range(len(names))]
            for i, name in enumerate(names):
                assert len(iterate_edge_image(f, name, k)) == sum(power[i])


def test_immersion_clean(s3, golden):
    assert check_immersion(s3, 3).is_clean
    assert check_immersion(golden, 5).is_clean


def test_immersion_backtrack():
    f = parse_graph_map("""vertices: v
edges: a: v -> v ; b: v -> v
base: v
map a -> a A a
map b -> b
""")
    rep = check_immersion(f, 1)
    assert rep.backtracks == (("a", 1, 0),)


def test_immersion_unipotent_corpus(silver, rank2):
    assert check_immersion(silver, 6).is_clean
    assert check_immersion(rank2, 6).is_clean


def test_serialize_roundtrip_corpus():
    for name in corpus.names():
        f = corpus.load(name)
        text = serialize_graph_map(f)
        again = parse_graph_map(text)
        assert serialize_graph_map(again) == text
        assert again.edge_image == f.edge_image
        assert again.vertex_image == f.vertex_image


def test_serialize_roundtrip_multivertex():
    text = """vertices: u w
edges: t: u -> w ; x: u -> u ; y: w -> w
base: u
boundary: 2
map t -> t y
map x -> x
map y -> y
"""
    f = parse_graph_map(text)
    assert parse_graph_map(serialize_graph_map(f)).boundary_count == 2


def test_edgepath_validation(s3):
    g = s3.graph
    EdgePath(steps("baB")).validate(g)
    p = empty_path("v")
    assert p.start(g) == p.end(g) == "v"
    with pytest.raises(ValidationError):
        empty_path(None)


def test_edgepath_multivertex_composability():
    f = parse_graph_map("""vertices: u w
edges: t: u -> w ; y: w -> w
base: u
map t -> t y
map y -> y
""")
    g = f.graph
    EdgePath(steps("ty")).validate(g)
    with pytest.raises(ValidationError):
        EdgePath(steps("tt")).validate(g)
    rev = EdgePath(steps("ty")).reverse(g)
    assert rev.steps == steps("YT")
    joined = EdgePath(steps("t")).concat(EdgePath(steps("y")), g)
    assert joined.steps == steps("ty")
    with pytest.raises(ValidationError):
        EdgePath(steps("y")).concat(EdgePath(steps("t")), g)


def test_disconnected_graph_rejected():
    with pytest.raises(ParseError, match="connected"):
        parse_graph_map("""vertices: u w
edges: x: u -> u ; y: w -> w
base: u
map x -> x
map y -> y
""")


def test_edge_by_name_is_built_once(s3):
    g = s3.graph
    assert g.edge_by_name is g.edge_by_name
    assert g.edge_by_name == {e.name: e for e in g.edges}
    # a property, so a tracer can wrap its getter
    assert isinstance(vars(type(g))["edge_by_name"], property)
