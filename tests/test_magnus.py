import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homolift import magnus
from homolift.errors import ResourceLimitError
from homolift.laurent import Character, specialize
from homolift.search import (SearchConfig, character_scan, check_anchored,
                             check_l2)
from homolift.transition import (Arc, TransitionGraph, is_stable, shadow,
                                 subgraph_matrix, vertex_subgraph)
from oracles import (Laurent, charpoly_complex_exact, coefficient, cyc_mat_mul,
                     cyc_trace, equivariant_charpoly, identity_magnus,
                     laurent_constant, laurent_zero, magnus_mat_mul,
                     magnus_power, matrix_from_rows, matrix_is_zero,
                     monomial, stored_powers)

X = monomial((1, 0))
Y = monomial((0, 1))
ONE = laurent_constant(2, 1)


def test_magnus_matrix_s3(analyses):
    a = analyses["example_s3"].matrix
    assert a.entries[0][0] == Y
    assert a.entries[0][1] == ONE - X
    assert a.entries[1][0].is_zero()
    assert a.entries[1][1] == ONE


def test_magnus_matrix_golden(analyses):
    a = analyses["golden_mean"].matrix
    vals = [[coefficient(e, ()) for e in row] for row in a.entries]
    assert vals == [[1, 1], [1, 0]]


def test_magnus_matrix_identity(analyses):
    a = analyses["identity"].matrix
    assert a.entries[0][0] == ONE and a.entries[1][1] == ONE
    assert a.entries[0][1].is_zero() and a.entries[1][0].is_zero()


def test_fox_calculus_cross_check(analyses):
    # abelianized Fox derivatives of (a -> b a b^-1, b -> b), rows indexed by
    # the source generator: [[Y, 1 - X], [0, 1]]
    fox = [[Y, ONE - X], [laurent_zero(2), ONE]]
    a = analyses["example_s3"].matrix
    for i in range(2):
        for j in range(2):
            assert a.entries[i][j] == fox[i][j]


def test_trace_power_examples(analyses):
    a3 = analyses["example_s3"].matrix
    assert magnus.trace_power(a3, 2) == ONE + Y * Y
    ag = analyses["golden_mean"].matrix
    assert coefficient(magnus.trace_power(ag, 2), ()) == 3
    ai = analyses["identity"].matrix
    for k in (1, 3, 5):
        assert magnus.trace_power(ai, k) == 2 * ONE


def test_specialize_matrix_examples(analyses):
    a = analyses["example_s3"].matrix
    spec = magnus.specialize_matrix(a, Character(2, 1, (0, 0)))
    assert [[x.rational_value() for x in row] for row in spec] == \
        [[1, 0], [0, 1]]
    spec = magnus.specialize_matrix(a, Character(2, 2, (1, 0)))
    assert [[x.rational_value() for x in row] for row in spec] == \
        [[1, 2], [0, 1]]


def test_specialize_matrix_trivial_is_augmentation(analyses):
    for an in analyses.values():
        a = an.matrix
        chi = Character(a.dim, 1, (0,) * a.dim)
        spec = magnus.specialize_matrix(a, chi)
        for i in range(a.size):
            for j in range(a.size):
                total = sum(a.entries[i][j].terms.values(), Fraction(0))
                assert spec[i][j].rational_value() == total


def test_equivariant_charpoly_examples(analyses):
    a3 = analyses["example_s3"].matrix
    cp = equivariant_charpoly(a3)
    assert cp.coefficients[2] == ONE
    assert cp.coefficients[1] == -(ONE + Y)
    assert cp.coefficients[0] == Y
    ag = analyses["golden_mean"].matrix
    cpg = equivariant_charpoly(ag)
    assert [coefficient(c, ()) for c in cpg.coefficients] == [-1, -1, 1]
    ai = analyses["identity"].matrix
    cpi = equivariant_charpoly(ai)
    assert [coefficient(c, (0, 0)) for c in cpi.coefficients] == [1, -2, 1]


def test_charpoly_size_cap():
    big = identity_magnus(tuple(f"e{i}" for i in range(13)), 0)
    with pytest.raises(ResourceLimitError):
        equivariant_charpoly(big)


def _random_characters(rng, d, n, max_order=8):
    out = []
    for _ in range(n):
        order = rng.randint(1, max_order)
        out.append(Character(d, order,
                             tuple(rng.randint(0, order - 1) for _ in range(d))))
    return out


def test_specialization_commutes_with_charpoly(analyses):
    rng = random.Random(4)
    for an in analyses.values():
        a = an.matrix
        cp = equivariant_charpoly(a)
        for chi in _random_characters(rng, a.dim, 12):
            spec = magnus.specialize_matrix(a, chi)
            lhs = charpoly_complex_exact(spec)
            rhs = cp.specialize(chi)
            assert len(lhs) == len(rhs)
            for x, y in zip(lhs, rhs):
                assert (x - y).is_zero()


def test_trace_power_specialization_identity(analyses):
    rng = random.Random(6)
    for an in analyses.values():
        a = an.matrix
        for chi in _random_characters(rng, a.dim, 6):
            spec = magnus.specialize_matrix(a, chi)
            power = spec
            for k in range(1, 7):
                if k > 1:
                    power = cyc_mat_mul(power, spec)
                lhs = specialize(magnus.trace_power(a, k), chi)
                rhs = cyc_trace(power)
                assert (lhs - rhs).is_zero()


@pytest.fixture(scope="module")
def levels(analyses):
    """Every corpus map and the multi-vertex levels s3/2, silver/2 -> 2 and
    rank2/2."""
    silver2 = analyses["unipotent_silver"].cover(2)
    return (list(analyses.values())
            + [analyses["example_s3"].cover(2), silver2.cover(2),
               analyses["unipotent_rank2"].cover(2)])


def _no_zero_terms(terms):
    return all(type(c) is int and c for c in terms.values())


def _check_stored_powers(a, k):
    """After traces 1..k the cache holds one power, A^ceil(k/2), or none
    for k = 1, equal to the repeated product, with no zero term."""
    stored = stored_powers(a)
    assert [n for n, _terms in stored] == ([(k + 1) // 2] if k > 1 else [])
    for n, terms in stored:
        assert _no_zero_terms(terms)
        assert terms == magnus_power(a, n).terms


def test_search_path_builds_no_dense_rows(levels):
    cfg = SearchConfig()
    for an in levels:
        t = an.transition
        a = magnus.magnus_matrix(t)    # fresh: no view, no cached powers
        for criterion in (check_l2, check_anchored, character_scan):
            criterion(a, cfg)
        _check_stored_powers(a, cfg.max_power)
        vertex_mats = [subgraph_matrix(t, vertex_subgraph(t, u))
                       for u in shadow(t).vertices]
        for mat in vertex_mats:
            is_stable(mat)
        for mat in [a] + vertex_mats:
            assert "entries" not in vars(mat)
            assert _no_zero_terms(mat.terms)
        fresh = magnus.magnus_matrix(t)
        for k in range(1, 9):
            magnus.trace_power(fresh, k)
            _check_stored_powers(fresh, k)
        assert matrix_from_rows(a.edge_order, a.dim, a.entries) == a


def test_cancelling_arcs_leave_no_term():
    arcs = (Arc(0, 1, 1, 0, 1, (2,)), Arc(0, 1, 2, 1, -1, (2,)))
    t = TransitionGraph(("a", "b"), 1, arcs, None)
    a = magnus.magnus_matrix(t)
    assert a.terms == {} and matrix_is_zero(a)
    assert a == matrix_from_rows(("a", "b"), 1,
                                 [[laurent_zero(1)] * 2] * 2)
    assert not matrix_is_zero(magnus.magnus_matrix(
        TransitionGraph(("a", "b"), 1, arcs[:1], None)))


def test_trace_equals_based_cycle_sum(levels):
    # trace of the k-th power expands over based cycles of length k, on the
    # roses and on multi-vertex tower levels
    from oracles import based_cycles
    for an in levels:
        t = an.transition
        a = an.matrix
        for k in range(1, 5):
            expected = laurent_zero(a.dim)
            for cyc in based_cycles(t, k):
                sign = 1
                total = (0,) * a.dim
                for idx in cyc:
                    arc = t.arcs[idx]
                    sign *= arc.sign
                    total = tuple(x + y for x, y in
                                  zip(total, arc.translation))
                expected = expected + monomial(total, sign)
            assert magnus.trace_power(a, k) == expected


def test_newton_identities(analyses):
    # power sums of the matrix vs elementary symmetric functions from the
    # characteristic polynomial, over the group ring
    for an in analyses.values():
        a = an.matrix
        m = a.size
        cp = equivariant_charpoly(a)
        # e_i = (-1)^i * coefficient of x^(m-i)
        es = [cp.coefficients[m - i] * ((-1) ** i) for i in range(m + 1)]
        ps = [None] + [magnus.trace_power(a, k) for k in range(1, m + 1)]
        # p_k = sum_{i=1}^{k-1} (-1)^(i-1) e_i p_{k-i} + (-1)^(k-1) k e_k
        for k in range(1, m + 1):
            acc = laurent_zero(a.dim)
            for i in range(1, k):
                acc = acc + ((-1) ** (i - 1)) * es[i] * ps[k - i]
            rhs = acc + ((-1) ** (k - 1)) * (k * es[k])
            assert ps[k] == rhs


def test_trace_power_cache_consistency(analyses):
    a = magnus.magnus_matrix(analyses["example_s3"].transition)  # fresh cache
    assert Laurent.of(magnus.trace_power(a, 3)) == \
        magnus.trace(magnus_power(a, 3))
    _check_stored_powers(a, 3)
    # read back out of order from the cache, which keeps A^2 only
    assert Laurent.of(magnus.trace_power(a, 2)) == \
        magnus.trace(magnus_power(a, 2))
    assert Laurent.of(magnus.trace_power(a, 1)) == magnus.trace(a)
    _check_stored_powers(a, 3)


@st.composite
def magnus_matrices(draw, max_arcs=5):
    """Matrices of 1 to 6 edges over Z^d, d from 0 to 3, from at most
    ``max_arcs`` arcs with translations in [-50, 50]^d, some with a twin
    of opposite sign that cancels it; each surviving term is scaled by a
    factor up to 2^66."""
    d = draw(st.integers(0, 3))
    m = draw(st.integers(1, 6))
    node = st.integers(0, m - 1)
    coordinate = st.sampled_from((-1, 0, 1)) | st.integers(-50, 50)
    arcs = []
    for source, target, translation, sign, twin in draw(st.lists(
            st.tuples(node, node, st.tuples(*[coordinate] * d),
                      st.sampled_from((1, -1)), st.booleans()),
            max_size=max_arcs)):
        arcs.append(Arc(source, target, 1, 0, sign, translation))
        if twin:
            arcs.append(Arc(source, target, 2, 0, -sign, translation))
    t = TransitionGraph(tuple(f"e{i}" for i in range(m)), d, tuple(arcs),
                        None)
    a = magnus.magnus_matrix(t)
    scale = st.integers(1, 3) | st.integers(2 ** 64, 2 ** 66)
    return magnus.MagnusMatrix(a.size, a.dim, a.edge_order,
                               {key: c * draw(scale)
                                for key, c in a.terms.items()})


def _integer_matrix(rows):
    return matrix_from_rows([f"e{i}" for i in range(len(rows))], 0,
                            [[laurent_constant(0, c) for c in row]
                             for row in rows])


# products that cancel: A^2 = 0 for the first, and (A^2)_01 = 1 - 1 = 0
NILPOTENT = matrix_from_rows(("a", "b"), 1, [[monomial((1,)), monomial((1,))],
                                           [monomial((1,), -1),
                                            monomial((1,), -1)]])
CANCELLING = _integer_matrix([[1, 1, 1], [1, -1, 0], [0, 0, 1]])


@settings(max_examples=150, deadline=None)
@given(a=magnus_matrices(), order=st.permutations(range(1, 21)))
@example(a=NILPOTENT, order=list(range(1, 21)))
@example(a=CANCELLING, order=list(range(20, 0, -1)))
def test_trace_power_matches_repeated_products(a, order):
    # k read in random order: a first small k sizes the packing for 2k
    # factors, and a later larger one widens it partway through
    powers = [a]
    for _ in range(19):
        powers.append(magnus_mat_mul(powers[-1], a))
    top = 0
    for k in order:
        t = magnus.trace_power(a, k)
        assert _no_zero_terms(t.terms)
        assert t.terms == magnus.trace(powers[k - 1]).terms
        top = max(top, k)
        _check_stored_powers(a, top)
        if top > 1:
            assert a._cache["powers"].capacity >= top   # no slot carries


@settings(max_examples=150, deadline=None)
@given(a=magnus_matrices(max_arcs=8), triangular=st.booleans(),
       order=st.permutations(range(6)))
@example(a=NILPOTENT, triangular=False, order=list(range(6)))
@example(a=CANCELLING, triangular=True, order=list(range(6)))
def test_is_stable_matches_brute_force_power(a, triangular, order):
    # nilpotent by construction: the terms above the diagonal in a drawn
    # order of the edges
    if triangular:
        a = magnus.MagnusMatrix(a.size, a.dim, a.edge_order,
                                {(i, j, v): c
                                 for (i, j, v), c in a.terms.items()
                                 if order.index(i) < order.index(j)})
        assert not is_stable(a)
    assert is_stable(a) == (not matrix_is_zero(magnus_power(a, a.size)))


def test_magnus_and_trace_coefficients_are_ints(analyses):
    # no division on the way to the criteria, so no Fraction arithmetic
    for an in analyses.values():
        a = an.matrix
        elements = [e for row in a.entries for e in row]
        elements += [magnus.trace_power(a, k) for k in range(1, 9)]
        for e in elements:
            assert all(type(c) is int for c in e.terms.values())
