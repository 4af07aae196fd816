import random
from dataclasses import replace
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homolift import corpus, linalg, magnus
from homolift.covers import (CoverGraph, FiniteQuotient, _connected,
                             _fiber_zero, _galois_orbits, _root_bound,
                             _value_mod, abelian_cover, h1_action_on_cover,
                             lift_map, orbit_polynomials, spectral_radius,
                             unit_circle_test)
from homolift.errors import LiftError, ResourceLimitError, ValidationError
from homolift.graphs import Edge, Graph, parse_graph_map
from homolift.homology import (EquivariantQuotient, equivariant_quotient,
                               homology_action, spanning_tree)
from homolift.laurent import Character
from homolift.search import Analysis
from homolift.transition import (SubgraphSelection, _growth_is_one,
                                 dilatation, subgraph_matrix,
                                 transition_graph, vertex_subgraph)
from oracles import (Laurent, chain_action_matrix, charpoly_berkowitz,
                     cover_chain_action_check, deck_action_on_quotient,
                     deck_commutes, deck_edge, deck_vertex, edge_info,
                     mat_vec, project_path)

AB_MAP = """vertices: v
edges: a: v -> v ; b: v -> v
base: v
map a -> a
map b -> b a
"""

SINGULAR_MAP = """vertices: v
edges: a: v -> v ; b: v -> v ; c: v -> v
base: v
map a -> a
map b -> b
map c -> a b
"""


def cover_of(an, spec):
    return abelian_cover(an.graph_map.graph, an.quotient, spec)


def test_cover_counts_s3(analyses):
    an = analyses["example_s3"]
    cov = cover_of(an, 2)
    assert cov.degree == 4
    assert len(cov.graph.vertices) == 4
    assert len(cov.graph.edges) == 8
    assert spanning_tree(cov.graph).rank == 5


def test_cover_trivial(analyses):
    an = analyses["example_s3"]
    cov = cover_of(an, 1)
    assert cov.degree == 1
    assert len(cov.graph.edges) == 2


def test_cover_ab_map():
    an = Analysis.of(parse_graph_map(AB_MAP))
    cov = cover_of(an, 3)
    assert cov.degree == 3
    assert len(cov.graph.vertices) == 3
    assert len(cov.graph.edges) == 6
    assert spanning_tree(cov.graph).rank == 4


def test_cover_infinite_quotient_rejected(analyses):
    an = analyses["example_s3"]
    with pytest.raises(ValidationError):
        cover_of(an, [[1, 0], [0, 0]])


def test_lift_identity(analyses):
    an = analyses["identity"]
    cov = cover_of(an, 2)
    lm = lift_map(an.graph_map, cov)
    for e in cov.graph.edges:
        assert lm.map.edge_image[e.name].steps == ((e.name, 1),)
    matrix = h1_action_on_cover(lm)
    n = len(matrix)
    assert n == 5
    assert matrix == [[int(i == j) for j in range(n)] for i in range(n)]


def _lifted_levels(analyses):
    """(label, base level, lifted map): every corpus map at k <= 3, and the
    multi-vertex levels silver/2 -> {2, 3}, s3/2 -> {2, 3} and rank2/2 ->
    2, whose sheet offsets reach below zero before they are reduced."""
    for name, an in analyses.items():
        for k in range(1, 4) if an.quotient.rank else (1,):
            yield f"{name}/{k}", an, lift_map(an.graph_map, cover_of(an, k))
    for name, ks in (("unipotent_silver", (2, 3)), ("example_s3", (2, 3)),
                     ("unipotent_rank2", (2,))):
        level = analyses[name].cover(2)
        for k in ks:
            yield (f"{name}/2/{k}", level,
                   lift_map(level.graph_map, cover_of(level, k)))


def test_lift_projects_and_commutes(analyses):
    multi_vertex = 0
    for label, an, lm in _lifted_levels(analyses):
        f, cov = an.graph_map, lm.cover
        multi_vertex += len(f.graph.vertices) > 1
        for ename, (base_e, _x) in edge_info(cov).items():
            proj = project_path(cov, lm.map.edge_image[ename])
            assert proj.steps == f.edge_image[base_e].steps, label
        for vname, (v, _x) in cov.vertex_info.items():
            assert cov.vertex_info[lm.map.vertex_image[vname]][0] == \
                f.vertex_image[v], label
        assert deck_commutes(lm), label
        # the fiber-zero rows name elements of G, reduced
        edge_rows, vertex_rows = lm.rows
        elements = set(cov.elements)
        assert {x for row in edge_rows for _n, x, _d in row} | \
            {y for _w, y in vertex_rows} <= elements, label
    assert multi_vertex >= 4


def test_lift_of_a_non_invariant_cocycle_is_refused():
    # on AB_MAP the cocycle a -> 1, b -> 0 is not f-invariant: the lift of
    # f(b) = b a from fiber 0 ends one sheet off the lift of b
    an = Analysis.of(parse_graph_map(AB_MAP))
    assert an.quotient.rank == 1
    q = an.quotient
    skewed = EquivariantQuotient(q.rank, q.projection,
                                 {"a": (1,), "b": (0,)})
    cov = abelian_cover(an.graph_map.graph, skewed, 3)
    with pytest.raises(LiftError, match="does not close up"):
        lift_map(an.graph_map, cov)


def test_lift_golden_trivial(analyses):
    an = analyses["golden_mean"]
    cov = cover_of(an, 5)
    assert cov.degree == 1
    lm = lift_map(an.graph_map, cov)
    assert h1_action_on_cover(lm) == [[1, 1], [1, 0]]


def test_s3_cover_action_roots_of_unity(analyses):
    an = analyses["example_s3"]
    cov = cover_of(an, 2)
    lm = lift_map(an.graph_map, cov)
    matrix = h1_action_on_cover(lm)
    assert len(matrix) == 5
    verdict = unit_circle_test(linalg.charpoly_int(matrix))
    assert verdict.all_on_circle


def _scanned_bound(n, radius):
    """max_i C(n, i) * radius^i, by a scan over every term, for an int or a
    Fraction radius num / den: the terms times den^n are the integers
    C(n, i) * num^i * den^(n - i)."""
    radius = Fraction(radius)
    num, den = radius.numerator, radius.denominator
    bound = term = den ** n
    for i in range(1, n + 1):
        term = term * (n - i + 1) * num // (i * den)
        bound = max(bound, term)
    return Fraction(bound, den ** n)


def _primes_past(bound, order=1):
    """The first pool primes whose product exceeds 2 * bound + 1, or one
    more than the cap's worth of them if that does not."""
    primes, modulus = [], 1
    while modulus <= 2 * bound + 1 and len(primes) <= linalg.CRT_PRIME_CAP:
        primes.append(linalg.pool_prime(order, len(primes)))
        modulus *= primes[-1]
    return primes


def test_coefficient_bound_is_the_largest_term():
    # crt_primes's bound against the scan over every term C(n, i) * radius^i,
    # for the integer radii L and rational radii like the count-matrix
    # bounds R (99/41 is near the silver ratio)
    rational = [Fraction(1, 3), Fraction(3, 2), Fraction(12, 5),
                Fraction(99, 41), Fraction(26, 7)]
    for n in range(120):
        for radius in [*range(7), *rational]:
            assert linalg.crt_primes(n, radius) == \
                _primes_past(_scanned_bound(n, radius)), (n, radius)


def test_prime_cap_check_refuses_as_the_exact_bound_does():
    # past degree 2 * 62 * CRT_PRIME_CAP = 7936 crt_primes refuses from the
    # mean of the bound's terms; on both sides of it, and of the degree
    # where the cap's primes run out, it agrees with the scanned bound
    for n in (1, 4000, 4050, 4100, 7936, 7937, 8064, 8065, 20000):
        for radius in (0, 1, 3):
            bound = _scanned_bound(n, radius)
            for order in (1, 192):
                exact = _primes_past(bound, order)
                if len(exact) > linalg.CRT_PRIME_CAP:
                    with pytest.raises(ResourceLimitError):
                        linalg.crt_primes(n, radius, order)
                else:
                    assert linalg.crt_primes(n, radius, order) == exact, \
                        (n, radius, order)


def test_charpoly_mod_of_a_prime_product_is_each_primes():
    # modulo a product of 2 to 4 pool primes the polynomial reduces to
    # each prime's own
    rng = random.Random(11)
    for size in (2, 3, 4):
        primes = [linalg.pool_prime(1, i) for i in range(size)]
        for n in (1, 2, 3, 6, 10):
            rows = [[rng.randint(-2 ** 70, 2 ** 70) for _ in range(n)]
                    for _ in range(n)]
            got = linalg.charpoly_mod(rows, prod(primes))
            for q in primes:
                assert [c % q for c in got] == linalg.charpoly_mod(rows, q)


def test_charpoly_mod_splits_the_modulus_at_a_zero_divisor(monkeypatch):
    # the subdiagonal pivot q is zero modulo q, where the reduction pivots
    # on the row below instead: modulo q * r it splits into q and r
    q, r = linalg.pool_prime(1, 0), linalg.pool_prime(1, 1)
    rows = [[1, 2, 3], [q, 5, 6], [7, 8, 9]]
    exact = charpoly_berkowitz(rows)
    calls = []
    real = linalg.charpoly_mod
    monkeypatch.setattr(linalg, "charpoly_mod",
                        lambda rows, m: calls.append(m) or real(rows, m))
    got = linalg.charpoly_mod(rows, q * r)
    assert calls == [q * r, q, r]
    assert got == [c % (q * r) for c in exact]
    assert [c % q for c in got] == real(rows, q)


@pytest.mark.parametrize("n, entry, primes", [
    (4, 9, 1), (6, 10 ** 9, 4), (8, 10 ** 9, 5), (8, 2 ** 63, 9)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_charpoly_int_matches_berkowitz(n, entry, primes, data):
    # within one group of CRT primes, at its boundary and across groups;
    # the first row's entries are +-entry, so the row-sum norm, and with it
    # the prime count, is fixed
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n,
                               max_size=n))
    rest = data.draw(st.lists(st.lists(st.integers(-entry, entry),
                                       min_size=n, max_size=n),
                              min_size=n - 1, max_size=n - 1))
    rows = [[s * entry for s in signs]] + rest
    assert len(linalg.crt_primes(n, n * entry)) == primes
    assert linalg.charpoly_int(rows) == charpoly_berkowitz(rows)


def test_charpoly_prime_pool_exhausted_is_resource_limit():
    # the coefficient bound 2^5000 is beyond the 64 primes of 62 bits
    with pytest.raises(ResourceLimitError, match="prime pool"):
        linalg.charpoly_int([[2 ** 5000]])


def test_growth_test_computes_no_display_modulus(monkeypatch):
    # the growth test reads the transition graph's components, and a
    # verdict computes the np.roots modulus only when something reads it,
    # once
    calls = []
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda p: calls.append(1) or roots(p))
    an = Analysis.of(corpus.load("golden_mean"))
    assert not _growth_is_one(an.transition)
    v = unit_circle_test([-1, -1, 1])
    assert calls == []
    assert v.modulus == v.modulus == roots([1, -1, -1]).max()
    assert len(calls) == 1


def test_unit_circle_examples():
    v = unit_circle_test([-1, -1, 1])
    assert not v.all_on_circle
    assert v.witness == (-1, -1, 1)
    assert abs(v.modulus - (1 + 5 ** 0.5) / 2) < 1e-9
    assert unit_circle_test([1, -1, 1]).all_on_circle          # order 6
    v = unit_circle_test([-1, 3, -3, 1])                        # (x-1)^3
    assert v.all_on_circle and v.cyclotomic_factors == ((1, 3),)
    v = unit_circle_test([0, 0, 1])
    assert v.all_on_circle and v.zero_multiplicity == 2
    with pytest.raises(ValidationError):
        unit_circle_test([1, 2])


def test_unit_circle_mixed():
    # (x^2 - x - 1)(x + 1): cyclotomic part stripped, witness survives
    v = unit_circle_test([-1, -2, 0, 1])
    assert not v.all_on_circle
    assert v.witness == (-1, -1, 1)
    assert (2, 1) in v.cyclotomic_factors


def _matches_dense(level):
    """The level's block charpoly against the dense oracle: exactly, or
    modulo one 62-bit prime for H1 matrices above 150 x 150, whose full
    CRT reconstruction takes about a minute.  The charpoly is read off the
    verdict, so it must also be the product of the orbit factors."""
    assert level.charpoly == linalg.poly_product(
        [poly for _o, poly in level.orbit_factors])
    dense = h1_action_on_cover(level.lifted)
    if len(dense) <= 150:
        return level.charpoly == linalg.charpoly_int(dense)
    q, _w = linalg.prime_root(1, 0)
    return ([c % q for c in level.charpoly]
            == linalg.charpoly_mod(dense, q))


@pytest.mark.parametrize("name", corpus.names())
def test_block_charpoly_matches_dense_on_corpus(analyses, name):
    an = analyses[name]
    assert an.charpoly == linalg.charpoly_int(an.action.matrix)   # G = 1
    for k in range(2, 5) if an.quotient.rank else ():
        level = an.cover(k)
        assert _matches_dense(level)


def test_block_charpoly_keeps_zero_eigenvalues():
    # the charpoly is read off the verdict, x^z included: c -> a b makes
    # the H1 action singular, at the base and on every cover
    an = Analysis.of(parse_graph_map(SINGULAR_MAP))
    assert an.verdict.zero_multiplicity == 1
    assert an.charpoly == linalg.charpoly_int(an.action.matrix)
    for k in (2, 3):
        level = an.cover(k)
        assert level.verdict.zero_multiplicity == k * k
        assert _matches_dense(level)


@pytest.mark.parametrize("name, k1, k2", [
    ("unipotent_silver", 2, 2), ("unipotent_silver", 2, 3),
    ("example_s3", 2, 2), ("example_s3", 2, 3),
    ("unipotent_rank2", 2, 2), ("unipotent_rank2", 2, 3),
    ("identity", 2, 2)])
def test_block_charpoly_matches_dense_on_multi_vertex_levels(analyses, name,
                                                            k1, k2):
    level = analyses[name].cover(k1)
    assert len(level.graph_map.graph.vertices) > 1
    top = level.cover(k2)
    assert _matches_dense(top)


def test_a_tampered_vertex_label_is_not_a_chain_map(multi_vertex_levels):
    # a vertex's label s(v) moved by a generator of G no longer matches the
    # edge rows: some character's det(xI - V(chi)), read off the vertex
    # map's cycles, does not divide det(xI - A(chi))
    for level in multi_vertex_levels:
        lifted = level.lifted
        edge_rows, vertex_rows = lifted.rows
        q = lifted.cover.quotient
        step = tuple(int(d == max(q.diag)) for d in q.diag)
        for v, (w, y) in enumerate(vertex_rows):
            rows = list(vertex_rows)
            rows[v] = (w, q.add(y, step))
            with pytest.raises(LiftError, match="not a chain map"):
                orbit_polynomials(replace(lifted, rows=(edge_rows, rows)))


TRANSIENT_MAP = """vertices: v w
edges: a: v -> v ; b: v -> v ; c: v -> w ; d: w -> v
base: v
map a -> a b a
map b -> b
map c -> a
map d -> b
"""


@pytest.mark.parametrize("k", [2, 3, 4])
def test_block_charpoly_matches_dense_with_a_transient_vertex(k):
    # w -> v: the vertex map is not a bijection, so every lift of w lies on
    # no cycle and each character's det(xI - V(chi)) has a factor x
    an = Analysis.of(parse_graph_map(TRANSIENT_MAP))
    assert an.quotient.rank == 1
    level = an.cover(k)
    assert {w for w, _y in level.lifted.rows[1]} == {"v"}
    assert _matches_dense(level)


@pytest.mark.parametrize("name", ["example_s3", "identity", "unipotent_rank2"])
@pytest.mark.parametrize("basis", [[[2, 1], [0, 4]], [[3, 0], [0, 6]]])
def test_block_charpoly_matches_dense_on_lattice_quotients(analyses, name,
                                                           basis):
    level = analyses[name].cover(basis)
    assert len(set(level.lifted.cover.quotient.diag)) == 2   # not k * I
    assert _matches_dense(level)


@pytest.mark.parametrize("diag", [(1,), (12,), (30,), (2, 4), (3, 6),
                                  (6, 6), (2, 2, 4)])
def test_galois_orbits_are_the_unit_classes(diag):
    # brute force: a ~ u * a for every unit u modulo the exponent of G
    order = lcm(*diag)
    orbits = _galois_orbits(diag)
    for orbit in orbits:
        a = orbit[0]
        assert sorted(orbit) == sorted({
            tuple(u * ai % d for ai, d in zip(a, diag))
            for u in range(1, order + 1) if gcd(u, order) == 1})
    group = sorted(product(*map(range, diag)))
    assert sorted(chain.from_iterable(orbits)) == group
    assert orbits[0] == [(0,) * len(diag)]


@pytest.mark.parametrize("name, k, sizes, count", [
    ("unipotent_silver", 12, {1, 2, 4}, 6),
    ("unipotent_silver", 30, {1, 2, 4, 8}, 8),
    # (Z/6)^2: one orbit per cyclic subgroup, (1 + 3) * (1 + 4) of them
    ("unipotent_rank2", 6, {1, 2}, 20)])
def test_orbit_charpoly_matches_dense(analyses, name, k, sizes, count):
    level = analyses[name].cover(k)
    diag = level.lifted.cover.quotient.diag
    orbits = _galois_orbits(diag)
    assert {len(o) for o in orbits} == sizes and len(orbits) == count
    if len(diag) > 1:    # some orbit moves both components at once
        assert any(len(o) > 1 and all(o[0]) for o in orbits)
    assert _matches_dense(level)


def test_orbit_charpoly_makes_few_block_charpolys(silver, monkeypatch):
    # one CRT over the whole level would pay 13 primes x 192 characters x
    # 2 blocks = 4992 calls, and per-orbit bounds one call per prime 1216.
    # V(chi) is read off the vertex map's cycles, so a character has one
    # block; one call per group of up to 4 primes evaluates it once, and
    # every orbit needs one group: the 64 characters of order 192 (degree
    # 128) take 5 primes against L = 3 but 4 against the count matrix's
    # radius, below 2.4143.  One A(chi) per character: 192
    level = Analysis.of(silver).cover(192)
    calls = []
    real = linalg.charpoly_mod
    monkeypatch.setattr(linalg, "charpoly_mod",
                        lambda rows, p: calls.append(p) or real(rows, p))
    assert len(level.charpoly) == 192 * 2 + 2
    assert len(calls) == 192


def test_orbit_prime_cap_is_checked_before_any_residue(analyses,
                                                       monkeypatch):
    # Z/96: the orbit of the order-96 characters (degree 64) needs 3 primes
    lifted = analyses["unipotent_silver"].cover(96).lifted
    calls = []
    real = linalg.charpoly_mod
    monkeypatch.setattr(linalg, "charpoly_mod",
                        lambda rows, p: calls.append(p) or real(rows, p))
    cap = 1
    while True:
        monkeypatch.setattr(linalg, "CRT_PRIME_CAP", cap)
        try:
            orbit_polynomials(lifted)
            break
        except ResourceLimitError as exc:
            assert "prime pool" in str(exc)
            assert calls == []      # refused before any orbit's residue
            cap += 1
    # the trivial orbit alone needs one prime, so a per-orbit check would
    # have computed its residues before refusing at cap - 1
    assert cap > 2 and calls


def test_restricted_cover_is_refused(analyses):
    # doubling the cocycle makes it generate only 2Z/4 inside Z/4: the
    # cover graph would fall apart into two components
    an = analyses["unipotent_silver"]
    q = an.quotient
    doubled = EquivariantQuotient(
        q.rank, q.projection,
        {e: tuple(2 * x for x in v) for e, v in q.cocycle.items()})
    with pytest.raises(LiftError, match="H_f/4H_f.*does not generate"):
        abelian_cover(an.graph_map.graph, doubled, 4)


THETA = Graph(("u", "v"), (Edge("a", "u", "v"), Edge("b", "u", "v"),
                           Edge("c", "v", "u")), "u")
TRIANGLE = Graph(("u", "v", "w"), (
    Edge("a", "u", "v"), Edge("b", "v", "w"), Edge("c", "w", "u"),
    Edge("d", "u", "w"), Edge("e", "v", "v")), "u")


@pytest.mark.parametrize("graph", [parse_graph_map(AB_MAP).graph, THETA,
                                   TRIANGLE], ids=["rose", "theta",
                                                   "triangle"])
@pytest.mark.parametrize("dim, spec", [
    (1, 2), (1, 6), (2, 2), (2, 3), (2, [[2, 0], [0, 3]]),
    (2, [[2, 1], [0, 4]]), (3, 2)])
def test_connectivity_check_matches_the_built_graph(graph, dim, spec):
    # abelian_cover decides connectivity from the loop voltages before any
    # graph exists; the graph built anyway must agree, on cocycles that
    # generate the deck group and on cocycles that do not
    fq = FiniteQuotient.of(dim, spec)
    rng = random.Random(f"{dim} {spec}")
    seen = set()
    for _ in range(60):
        cocycle = {e.name: tuple(rng.randrange(m) for m in fq.diag)
                   for e in graph.edges}
        try:
            CoverGraph(graph, fq, cocycle).graph
            built = True
        except ValidationError:
            built = False
        assert _connected(graph, fq, cocycle) == built
        seen.add(built)
    # fewer independent loops than the deck group's generators never span it
    rank = len(graph.edges) - len(graph.vertices) + 1
    assert seen == ({True, False} if rank >= sum(m > 1 for m in fq.diag)
                    else {False})


def test_exact_poly_product_matches_schoolbook():
    rng = random.Random(5)
    polys = [[rng.choice([0, 1, -1, rng.randint(-2 ** 200, 2 ** 200)])
              for _ in range(rng.randint(1, 9))] + [rng.choice([1, -3])]
             for _ in range(7)]
    expected = [1]
    for p in polys:
        out = [0] * (len(expected) + len(p) - 1)
        for i, x in enumerate(expected):
            for j, y in enumerate(p):
                out[i + j] += x * y
        expected = out
    assert linalg.poly_product(polys) == expected
    assert linalg.poly_mul([-1], [-1]) == [1]
    assert linalg.poly_mul([], [1, 2]) == []


@pytest.mark.parametrize("n", [1, 2, 12, 385])
def test_prime_root_has_a_primitive_root(n):
    previous = 1 << 62
    for i in range(3):
        q, w = linalg.prime_root(n, i)
        assert q > previous and (q - 1) % n == 0
        assert pow(w, n, q) == 1
        assert all(pow(w, n // p, q) != 1 for p in linalg.prime_factors(n))
        previous = q


def _trial_division(coeffs):
    """Reference cyclotomic stripping: divide by every Phi_n with
    phi(n) <= degree, ascending, with no sieve."""
    zero_mult = 0
    while coeffs[0] == 0:
        zero_mult += 1
        coeffs = coeffs[1:]
    factors = []
    for n in linalg.cyclotomic_orders_up_to_degree(len(coeffs) - 1):
        phi = list(linalg.cyclotomic_polynomial(n))
        mult = 0
        while len(coeffs) >= len(phi):
            quo, rem = linalg.poly_divmod_monic(coeffs, phi)
            if rem:
                break
            coeffs = quo
            mult += 1
        if mult:
            factors.append((n, mult))
    return zero_mult, tuple(factors), tuple(coeffs) if coeffs != [1] else ()


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_poly_mul_mod_is_multiply_then_reduce(data):
    # moduli of 1 to 4 pool primes; operands of 0 to 20 coefficients, with
    # 0 and m - 1 among them, so a slot may hold min(len) products (m - 1)^2
    m = prod(linalg.pool_prime(1, i) for i in range(data.draw(
        st.integers(1, 4))))
    coeffs = st.one_of(st.sampled_from([0, m - 1]), st.integers(0, m - 1))
    a, b = (data.draw(st.lists(coeffs, max_size=20)) for _ in range(2))
    expected = [c % m for c in _poly_mul(a, b)] if a and b else []
    assert linalg.poly_mul_mod(a, b, m) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3),
       st.lists(st.tuples(st.integers(1, 40), st.integers(1, 2)), max_size=4),
       st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
                max_size=2),
       st.randoms(use_true_random=False))
def test_sieve_matches_trial_division(zeros, cyclotomic, others, rng):
    atoms = [[0, 1]] * zeros + [
        list(linalg.cyclotomic_polynomial(n))
        for n, mult in cyclotomic for _ in range(mult)] + [
        low + [1] for low in others]
    poly = [1]
    for atom in atoms:
        poly = _poly_mul(poly, atom)
    v = unit_circle_test(poly)
    assert (v.zero_multiplicity, v.cyclotomic_factors, v.witness) == \
        _trial_division(poly)
    assert v.all_on_circle == (not v.witness)
    # the same product split into random factors, some of them 1: every
    # field agrees, the display modulus bit for bit
    factors = [[1] for _ in range(rng.randint(1, len(atoms) + 1))]
    for atom in atoms:
        i = rng.randrange(len(factors))
        factors[i] = _poly_mul(factors[i], atom)
    split = unit_circle_test(*factors)
    assert split == v and split.modulus.hex() == v.modulus.hex()


def test_factored_verdict_on_cover_levels(analyses, multi_vertex_levels):
    # the orbit factors multiply to the dense oracle's polynomial, and the
    # verdict decided one factor at a time is the whole polynomial's
    silver, rank2 = analyses["unipotent_silver"], analyses["unipotent_rank2"]
    levels = [*multi_vertex_levels, rank2.cover(6)]
    levels += [silver.cover(k) for k in range(2, 65)]
    for level in levels:
        diag = level.lifted.cover.quotient.diag
        assert len(level.orbit_factors) == len(_galois_orbits(diag))
        assert _matches_dense(level)
        assert level.verdict == unit_circle_test(level.charpoly)


def _modulus_levels(an, max_degree):
    """The H_f/kH_f levels of ``an``, k >= 2, of degree at most
    ``max_degree``."""
    d, k, out = an.quotient.rank, 2, []
    while d and k ** d <= max_degree:
        out.append(an.cover(k))
        k += 1
    return out


@pytest.mark.parametrize("name", ["example_s3", "identity", "u3", "u22"])
def test_growth_one_keeps_every_cover_on_the_circle(growth_one_maps, name):
    # the theorem behind search.GROWTH_ONE, checked without it: the dense H1
    # action of every H_f/kH_f level up to degree 36, and of a depth-2
    # level, the index-2 cyclic cover of H_f/2H_f
    an = Analysis.of(growth_one_maps[name])
    assert _growth_is_one(an.transition)
    mid = an.cover(2)
    d = mid.quotient.rank
    top = mid.cover([[(1 + (i == 0)) * (i == j) for j in range(d)]
                     for i in range(d)])
    assert len(top.tower) == 2 and top.degree == 2 * mid.degree
    for level in _modulus_levels(an, 36) + [top]:
        dense = linalg.charpoly_int(h1_action_on_cover(level.lifted))
        assert unit_circle_test(dense).all_on_circle, level.tower


def test_sieve_by_character_order_matches_the_whole_polynomial(
        analyses, multi_vertex_levels):
    # an orbit of characters of order o is sieved only at the n with
    # phi(lcm(o, n)) at most its degree; field by field the verdict is the
    # whole polynomial's, also where orbits of order > 1 carry cyclotomic
    # factors (example_s3 and identity)
    levels = list(multi_vertex_levels)
    for an in analyses.values():
        levels += _modulus_levels(an, 4 ** an.quotient.rank)
    for name in ("example_s3", "identity"):
        levels += [analyses[name].cover(k) for k in range(2, 13)]
    cyclotomic_orbits = 0
    for level in levels:
        split, whole = level.verdict, unit_circle_test(level.charpoly)
        for field in ("witness", "zero_multiplicity", "cyclotomic_factors",
                      "all_on_circle"):
            assert getattr(split, field) == getattr(whole, field), field
        cyclotomic_orbits += sum(
            1 for o, poly in level.orbit_factors
            if o > 1 and unit_circle_test(poly).cyclotomic_factors)
    assert cyclotomic_orbits > 100


def test_sieve_evaluates_few_orders(silver, monkeypatch):
    # silver H_f/192H_f: 771 evaluations when every n with phi(n) at most
    # the factor's degree was tried
    level = Analysis.of(silver).cover(192)
    assert len(level.orbit_factors) == 14
    calls = []
    monkeypatch.setattr("homolift.covers._value_mod", lambda *args: (
        calls.append(1) or _value_mod(*args)))
    assert not level.verdict.all_on_circle
    assert len(calls) <= 192


def _block_radius(level):
    """The largest eigenvalue modulus of the character blocks A(chi) of a
    cover level, in floating point from the lift's fiber-zero rows."""
    lifted = level.lifted
    diag = lifted.cover.quotient.diag
    edge_rows, _vertex_rows = _fiber_zero(
        lifted.base_map, lifted.cover.quotient, lifted.cover.cocycle)
    index = {e.name: i for i, e in enumerate(lifted.base_map.graph.edges)}
    radius = 0.0
    for a in product(*map(range, diag)):
        block = np.zeros((len(index), len(index)), complex)
        for i, row in enumerate(edge_rows):
            for name, x, d in row:
                turns = sum(ai * xi / n for ai, xi, n in zip(a, x, diag))
                block[i, index[name]] += d * np.exp(2j * np.pi * turns)
        radius = max(radius, max(abs(np.linalg.eigvals(block))))
    return radius


def test_block_radius_is_the_silver_ratio(analyses):
    level = analyses["unipotent_rank2"].cover(6)
    assert abs(_block_radius(level) - (1 + 2 ** 0.5)) < 1e-12


def test_count_matrix_radius_bounds_every_block(analyses,
                                                multi_vertex_levels):
    # rho(C) >= rho(A(chi)) for every character, as C dominates |A(chi)|,
    # and the Collatz-Wielandt bound lies between rho(C) and L, C's
    # largest row sum
    levels = [an.cover(k) for an in analyses.values() if an.quotient.rank
              for k in range(2, 7)]
    for level in [*levels, *multi_vertex_levels]:
        lifted = level.lifted
        edge_rows, _vertex_rows = lifted.rows
        index = {e.name: i for i, e in enumerate(lifted.base_map.graph.edges)}
        bound = _root_bound(edge_rows, index)
        assert 1 <= bound <= max(map(len, edge_rows))
        assert _block_radius(level) <= bound * (1 + 1e-12)


@pytest.mark.xfail(strict=True, reason="np.roots on the degree-50 witness "
                   "is off by 7e-6 (ROADMAP item 6)")
def test_modulus_is_the_largest_block_eigenvalue(analyses):
    level = analyses["unipotent_rank2"].cover(6)
    assert abs(level.verdict.modulus - _block_radius(level)) < 1e-9


def test_spectral_radius_examples():
    assert abs(spectral_radius([[1, 1], [1, 0]]) - (1 + 5 ** 0.5) / 2) < 1e-9
    assert spectral_radius([[1, 0], [0, 1]]) == 1.0
    assert spectral_radius([[0, 0], [0, 0]]) == 0.0


def test_chain_action_check_examples(analyses):
    an = analyses["example_s3"]
    cov = cover_of(an, 2)
    lm = lift_map(an.graph_map, cov)
    assert cover_chain_action_check(lm, Character(2, 2, (1, 0)), an.matrix)
    trivial_cov = cover_of(an, 1)
    lm1 = lift_map(an.graph_map, trivial_cov)
    assert cover_chain_action_check(lm1, Character(2, 1, (0, 0)), an.matrix)
    gm = analyses["golden_mean"]
    cov_g = cover_of(gm, 3)
    lm_g = lift_map(gm.graph_map, cov_g)
    assert cover_chain_action_check(lm_g, Character(0, 1, ()), gm.matrix)


def test_chain_action_check_incompatible(analyses):
    an = analyses["example_s3"]
    cov = cover_of(an, 2)
    lm = lift_map(an.graph_map, cov)
    with pytest.raises(ValidationError):
        cover_chain_action_check(lm, Character(2, 3, (1, 0)), an.matrix)


def test_chain_action_check_takes_reduction_covers_only(analyses):
    # a basis quotient's labels are Smith coordinates, not lattice points
    an = analyses["example_s3"]
    lm = lift_map(an.graph_map, cover_of(an, [[2, 0], [0, 1]]))
    with pytest.raises(ValidationError):
        cover_chain_action_check(lm, Character(2, 2, (1, 0)), an.matrix)


def test_covering_axioms_random(analyses):
    rng = random.Random(11)
    checked = 0
    pool = [an for an in analyses.values() if an.quotient.rank > 0]
    while checked < 20:
        an = rng.choice(pool)
        d = an.quotient.rank
        k = rng.randint(1, 5)
        if k ** d > 27:
            continue
        cov = cover_of(an, k)
        checked += 1
        g = an.graph_map.graph
        # fiber sizes
        assert len(cov.graph.vertices) == len(g.vertices) * cov.degree
        assert len(cov.graph.edges) == len(g.edges) * cov.degree
        # free deck action on vertices and edges
        for s in cov.elements:
            if all(x == 0 for x in s):
                continue
            for vname in list(cov.vertex_info)[:8]:
                assert deck_vertex(cov, vname, s) != vname
            for ename in list(edge_info(cov))[:8]:
                assert deck_edge(cov, ename, s) != ename
        # projection commutes with incidence
        for e in cov.graph.edges:
            base_e, _x = edge_info(cov)[e.name]
            be = g.edge_by_name[base_e]
            assert cov.vertex_info[e.origin][0] == be.origin
            assert cov.vertex_info[e.terminus][0] == be.terminus


def _apply_matrix_to_exponents(mat, element):
    moved = {}
    for vec, c in element.terms.items():
        nv = tuple(mat_vec(mat, list(vec))) if mat else vec
        moved[nv] = moved.get(nv, 0) + c
    return Laurent(element.dim, moved)


def test_deck_invariance_and_multiplicity(analyses):
    # traces of powers of the lifted matrix are fixed by the deck action,
    # with coefficients divisible by the stabilizer order
    for name in ("example_s3", "unipotent_silver"):
        an = analyses[name]
        k = 2 if an.quotient.rank > 1 else 3
        cov = cover_of(an, k)
        lm = lift_map(an.graph_map, cov)
        stc = spanning_tree(cov.graph)
        qc = equivariant_quotient(homology_action(lm.map, stc), stc)
        tc = transition_graph(lm.map, qc)
        ac = magnus.magnus_matrix(tc)
        actions = [deck_action_on_quotient(lm, stc, qc, s)
                   for s in cov.elements]
        for kk in range(1, 6):
            tr = magnus.trace_power(ac, kk)
            for sigma in actions:
                assert _apply_matrix_to_exponents(sigma, tr) == tr
            for vec, coeff in tr.terms.items():
                stab = sum(
                    1 for sigma in actions
                    if tuple(mat_vec(sigma, list(vec))) == tuple(vec))
                assert coeff % stab == 0


def _cyclic_quotient_basis(d, weights, p):
    # kernel of x -> <weights, x> mod p, as a full-rank sublattice basis
    s = next(i for i, w in enumerate(weights) if w % p)
    inv = pow(weights[s] % p, -1, p)
    rows = []
    for i in range(d):
        if i == s:
            rows.append([p if j == s else 0 for j in range(d)])
        else:
            row = [0] * d
            row[i] = 1
            row[s] = -(weights[i] * inv) % p
            rows.append(row)
    return rows


def _lifted_vertex_selection(an, lm, t_cover, u):
    base_t = an.transition
    sel = vertex_subgraph(base_t, u)
    base_keys = {(base_t.arcs[i].source, base_t.arcs[i].step_index)
                 for i in sel.arc_indices}
    base_names = list(base_t.nodes)
    lifted = set()
    for idx, arc in enumerate(t_cover.arcs):
        cov_edge = t_cover.nodes[arc.source]
        base_e, _x = edge_info(lm.cover)[cov_edge]
        if (base_names.index(base_e), arc.step_index) in base_keys:
            lifted.add(idx)
    return SubgraphSelection(u, frozenset(lifted))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cyclic_cover_multiplicity(analyses, p):
    # vertex subgraph lifted to a degree-p cyclic cover: every trace
    # coefficient divisible by p when the vertex generates mod p
    cases = [("example_s3", (0, 1), (0, 1)),
             ("unipotent_rank2", (0, 1), (0, 1))]
    for name, u, weights in cases:
        an = analyses[name]
        d = an.quotient.rank
        basis = _cyclic_quotient_basis(d, list(weights), p)
        cov = cover_of(an, basis)
        assert cov.degree == p
        lm = lift_map(an.graph_map, cov)
        stc = spanning_tree(cov.graph)
        qc = equivariant_quotient(homology_action(lm.map, stc), stc)
        tc = transition_graph(lm.map, qc)
        sel = _lifted_vertex_selection(an, lm, tc, u)
        mat = subgraph_matrix(tc, sel)
        for k in range(1, 7):
            tr = magnus.trace_power(mat, k)
            for coeff in tr.terms.values():
                assert coeff % p == 0


def test_spectral_bounds_on_covers(analyses):
    # 1 <= spectral radius of the cover homology action <= dilatation;
    # and a chain-level radius above 1 forces a homology radius above 1
    for an in analyses.values():
        lam = dilatation(an.transition)
        d = an.quotient.rank
        k = 1
        while (k ** d if d else 1) <= 27:
            cov = cover_of(an, k)
            lm = lift_map(an.graph_map, cov)
            h1 = spectral_radius(h1_action_on_cover(lm))
            assert 1 - 1e-9 <= h1 <= lam + 1e-9
            chain = spectral_radius(chain_action_matrix(lm))
            if chain > 1 + 1e-6:
                assert h1 > 1 + 1e-6
                assert h1 >= chain - 1e-6
            if d == 0:
                break
            k += 1


def test_chain_check_all_compatible(analyses):
    # every compatible (cover, character) pair on the corpus, degree <= 27
    for an in analyses.values():
        d = an.quotient.rank
        k = 1
        while (k ** d if d else 1) <= 27:
            cov = cover_of(an, k)
            lm = lift_map(an.graph_map, cov)
            from homolift.laurent import character_grid
            for chi in character_grid(d, k):
                assert cover_chain_action_check(lm, chi, an.matrix)
            if d == 0:
                break
            k += 1


def test_restricted_cover_path():
    # a quotient the cocycle cannot generate never arises from the dynamical
    # quotient itself; exercise the machinery to document the invariant
    an = Analysis.of(parse_graph_map(AB_MAP))
    cov = cover_of(an, 4)
    assert sorted(cov.elements) == [(i,) for i in range(4)]
