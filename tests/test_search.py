import json
import random
import runpy
import time
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homolift
from homolift import corpus, linalg, magnus, search
from homolift.covers import (CoverCertificate, FiniteQuotient, TowerStep,
                             _value_mod)
from homolift.cyclotomic import Cyclotomic
from homolift.errors import (CertificateError, ResourceLimitError,
                             ValidationError)
from homolift.graphs import Graph, parse_graph_map, serialize_graph_map
from homolift.homology import spanning_tree
from homolift.laurent import (Lattice, LaurentElement, lattice_restriction,
                              specialize)
from homolift.search import (GROWTH_ONE, Analysis, Finding, SearchConfig,
                             brute_force_oracle, character_scan,
                             check_anchored, check_direct, check_l2,
                             rebuild_tower, tower_search, verify_certificate)
from homolift.transition import _growth_is_one
from oracles import (annihilator_characters, build_certificate,
                     character_scan_every_grid, laurent_zero,
                     locate_in_sorted_union, matrix_from_rows, monomial,
                     root_of_unity)
from test_magnus import magnus_matrices

CFG = SearchConfig()


def test_check_direct(analyses):
    fnd = check_direct(analyses["golden_mean"].graph_map,
                       analyses["golden_mean"])
    assert fnd is not None and fnd.kind == "direct"
    assert fnd.witness == (-1, -1, 1)
    assert check_direct(analyses["example_s3"].graph_map,
                        analyses["example_s3"]) is None
    assert check_direct(analyses["identity"].graph_map,
                        analyses["identity"]) is None


def test_check_l2(analyses):
    fnd = check_l2(analyses["golden_mean"].matrix, CFG)
    assert fnd is not None and fnd.power == 2
    assert check_l2(analyses["example_s3"].matrix, CFG) is None
    zero = matrix_from_rows(("a", "b"), 0,
                            [[laurent_zero(0)] * 2] * 2)
    assert check_l2(zero, CFG) is None


def test_check_anchored(analyses):
    fnd = check_anchored(analyses["golden_mean"].matrix, CFG)
    assert fnd is not None and fnd.power == 2 and fnd.value == "3"
    assert check_anchored(analyses["example_s3"].matrix, CFG) is None
    assert check_anchored(analyses["identity"].matrix, CFG) is None


def _per_translate_scan(a, cfg):
    """The anchored scan by definition: a Lattice and its restriction for
    every (power, j, translate), in check_anchored's order."""
    m = a.size
    d = a.dim
    js = [1] + [j for j in range(2, cfg.max_lattice_index + 1)
                if d > 0 and j ** d <= cfg.max_lattice_index]
    for k in range(1, cfg.max_power + 1):
        t = magnus.trace_power(a, k)
        translates = [(0,) * d] + [v for v in t.support() if v != (0,) * d]
        for j in js:
            for w in translates:
                lat = Lattice.scaled(d, j, w)
                val = lattice_restriction(t, lat)
                if val > m:
                    return Finding("anchored", power=k, value=str(val),
                                   lattice=lat)
    return None


def _finding_json(fnd):
    return None if fnd is None else fnd.to_json()


def test_anchored_matches_per_translate_scan_on_corpus(analyses):
    for an in analyses.values():
        assert (_finding_json(check_anchored(an.matrix, CFG))
                == _finding_json(_per_translate_scan(an.matrix, CFG)))


@st.composite
def laurent_matrices(draw):
    d = draw(st.integers(0, 3))
    size = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-4, 4)] * d)
    entry = st.dictionaries(vec, st.integers(-5, 5), max_size=3).map(
        lambda terms: LaurentElement(d, terms))
    row = st.lists(entry, min_size=size, max_size=size)
    rows = draw(st.lists(row, min_size=size, max_size=size))
    return matrix_from_rows([f"e{i}" for i in range(size)], d, rows)


def test_anchored_matches_per_translate_scan_on_random_matrices():
    fired = set()

    @settings(max_examples=150, deadline=None)
    @given(laurent_matrices())
    def check(a):
        found = check_anchored(a, CFG)
        assert _finding_json(found) == _finding_json(
            _per_translate_scan(a, CFG))
        fired.add(found is not None)

    check()
    assert fired == {True, False}


@st.composite
def wide_laurent_matrices(draw):
    """1x1 and 2x2 matrices in d = 1, 2 whose exponents reach up to a
    bound drawn in 1..20, so both wide and narrow supports occur, with
    coefficients in -9..9 or, for mostly negative traces, in -9..2."""
    d = draw(st.integers(1, 2))
    size = draw(st.integers(1, 2))
    reach = draw(st.integers(1, 20))
    vec = st.tuples(*[st.integers(-reach, reach)] * d)
    coeff = st.integers(-9, draw(st.sampled_from([2, 9])))
    entry = st.dictionaries(vec, coeff, max_size=3).map(
        lambda terms: LaurentElement(d, terms))
    row = st.lists(entry, min_size=size, max_size=size)
    rows = draw(st.lists(row, min_size=size, max_size=size))
    return matrix_from_rows([f"e{i}" for i in range(size)], d, rows)


def _anchoring_cuts(a, cfg, found):
    """Which of check_anchored's cuts the scan up to ``found`` meets: a
    nonzero power skipped for its positive mass, a power whose j loop
    stops after j = width + 1 before the index cap, and a finding at that
    last j."""
    js = [j for j in range(1, cfg.max_lattice_index + 1)
          if a.dim > 0 and j ** a.dim <= cfg.max_lattice_index] or [1]
    cuts = set()
    for k in range(1, (found.power if found else cfg.max_power) + 1):
        t = magnus.trace_power(a, k)
        if sum(c for c in t.terms.values() if c > 0) <= a.size:
            if t.terms:
                cuts.add("skip")
            continue
        width = search._support_width(t)
        if width + 1 < len(js):
            cuts.add("cut")
        if found and found.power == k and \
                found.lattice.basis[0][0] == width + 1:
            cuts.add("last j")
    return cuts


def test_anchoring_cuts_on_fixed_traces():
    # 5 - 4x fires only at j = 2 = width + 1, and its j loop stops there;
    # -3 + x^20 has positive mass 1 = size at power 1, so power 1 is
    # skipped, and fires at power 2 with 9 - 6x^20 + x^40 of mass 4 on Z
    cfg = SearchConfig(max_power=2)
    cases = [({(0,): 5, (1,): -4}, (1, "5", 2)),
             ({(0,): -3, (20,): 1}, (2, "4", 1))]
    cuts = set()
    for terms, expected in cases:
        a = matrix_from_rows(["e0"], 1, [[LaurentElement(1, terms)]])
        found = check_anchored(a, cfg)
        assert _finding_json(found) == _finding_json(
            _per_translate_scan(a, cfg))
        assert (found.power, found.value,
                found.lattice.basis[0][0]) == expected
        cuts |= _anchoring_cuts(a, cfg, found)
    assert cuts == {"skip", "cut", "last j"}


def test_anchoring_cuts_match_per_translate_scan_on_wide_supports():
    # the positive-mass skip and the stop after j = width + 1 leave the
    # finding the scan by definition gives, on wide and on mostly negative
    # traces; every cut is met, and a finding at the last j it leaves
    cfg = SearchConfig(max_power=3)
    cuts = set()

    @settings(max_examples=150, deadline=None)
    @given(wide_laurent_matrices())
    def check(a):
        found = check_anchored(a, cfg)
        assert _finding_json(found) == _finding_json(
            _per_translate_scan(a, cfg))
        cuts.update(_anchoring_cuts(a, cfg, found))

    check()
    assert cuts == {"skip", "cut", "last j"}


def test_criteria_make_no_smith_form(analyses, monkeypatch):
    # the base-level criteria run on the trace coefficients alone
    matrices = [magnus.magnus_matrix(an.transition)  # fresh trace caches
                for an in analyses.values()]
    calls = []
    smith = linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form",
                        lambda *args: calls.append(1) or smith(*args))
    for a in matrices:
        for crit in (check_l2, check_anchored, character_scan):
            crit(a, CFG)
    assert not calls


def test_anchored_conversion_makes_no_smith_form(analyses, monkeypatch):
    # check_anchored's lattices are jZ^d, whose annihilator is the j-grid:
    # locating the character takes no Smith form once the level is built
    found = [(an, check_anchored(an.matrix, CFG)) for an in analyses.values()]
    found = [(an, fnd) for an, fnd in found if fnd is not None]
    assert any(an.quotient.rank for an, _fnd in found)
    calls = []
    smith = linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form",
                        lambda *args: calls.append(1) or smith(*args))
    for an, fnd in found:
        search._locate_character(an, fnd, CFG.max_cover_degree)
    assert not calls


def test_threshold_filter_agrees_with_the_exact_comparison(monkeypatch):
    # the float filter settles values certainly below and certainly above
    # on its own; exact ties |z| = m and random near-ties reach the exact
    # comparison and decide as it does
    rng = random.Random(3)
    ties = [(Cyclotomic(4, [3, 4, 0, 0]), 5), (Cyclotomic(1, [7]), 7),
            (root_of_unity(97, 5) * 9, 9)]
    cases = list(ties)
    far = [(Cyclotomic(1, [7]), 6), (root_of_unity(97, 5) * 9, 8),
           (Cyclotomic(4, [3, 4, 0, 0]), 6)]
    for _ in range(100):
        n = rng.choice([1, 2, 3, 5, 12, 60, 97])
        z = Cyclotomic(n, [rng.randint(-9, 9) if rng.random() < 0.2 else 0
                           for _ in range(n)])
        r = abs(z.to_complex())
        m = round(r)
        cases += [(z, m), (z, m + 1), (z, max(m - 1, 0))]
        far += [(z, 2 * m + 1)] + ([(z, 0), (z, int(r / 2))] if r > 1 else [])
    exact = {id(case): case[0].magnitude_squared().compare(
        Fraction(case[1] ** 2)) > 0 for case in cases + far}
    assert {exact[id(case)] for case in far} == {True, False}
    calls = []
    magnitude_squared = Cyclotomic.magnitude_squared
    monkeypatch.setattr(Cyclotomic, "magnitude_squared",
                        lambda z: calls.append(1) or magnitude_squared(z))
    for case in far:
        assert search._above(*case) == exact[id(case)]
    assert not calls
    for case in cases:
        assert search._above(*case) == exact[id(case)]
    for case in ties:
        calls.clear()
        search._above(*case)
        assert calls, case


def test_golden_anchored_value_is_trace():
    # with the trivial lattice the anchored value at power 2 is the trace 3
    an = Analysis.of(__import__("homolift.corpus", fromlist=["load"]).load(
        "golden_mean"))
    t2 = magnus.trace_power(an.matrix, 2)
    assert lattice_restriction(t2, Lattice(0, ())) == 3


def test_character_scan(analyses):
    fnd = character_scan(analyses["golden_mean"].matrix, CFG)
    assert fnd is not None and fnd.power == 2
    assert fnd.character.order == 1
    assert character_scan(analyses["example_s3"].matrix, CFG) is None
    one_var = matrix_from_rows(
        ("e",), 1, [[monomial((1,))]])
    assert character_scan(one_var, CFG) is None


def test_s3_anchored_values_bounded(analyses):
    # the trace mass over any scanned lattice never exceeds the edge count
    a = analyses["example_s3"].matrix
    for k in range(1, 9):
        t = magnus.trace_power(a, k)
        for j in (1, 2, 3):
            for w in [(0, 0)] + t.support():
                val = lattice_restriction(t, Lattice.scaled(2, j, w))
                assert val <= 2


def test_build_certificate_golden(analyses):
    f = analyses["golden_mean"].graph_map
    cert = build_certificate(f, check_direct(f, analyses["golden_mean"]), CFG)
    assert cert.method == "direct"
    assert cert.degree == 1 and cert.tower == ()
    assert cert.witness_factor == (-1, -1, 1)
    assert abs(cert.modulus - 1.6180339887) < 1e-6
    assert verify_certificate(cert)["ok"]


def test_build_certificate_unipotent_mod2(analyses):
    f = analyses["unipotent_silver"].graph_map
    fnd = check_l2(analyses["unipotent_silver"].matrix, CFG)
    cert = build_certificate(f, fnd, CFG)
    assert cert.method == "l2trace"
    assert [s.quotient for s in cert.tower] == ["H_f/2H_f"]
    assert cert.degree == 2
    assert cert.witness_factor == (-1, -2, 1)
    assert verify_certificate(cert)["ok"]


def test_criterion_to_certificate_on_corpus(analyses):
    # whenever a criterion fires on a corpus map, conversion succeeds
    for an in analyses.values():
        for crit in (check_l2, check_anchored, character_scan):
            fnd = crit(an.matrix, CFG)
            if fnd is not None:
                cert = build_certificate(an.graph_map, fnd, CFG)
                assert verify_certificate(cert)["ok"]


def test_criteria_share_one_trace_sequence(analyses, monkeypatch):
    calls = []
    mul = magnus.mat_mul
    monkeypatch.setattr(magnus, "mat_mul",
                        lambda *args: calls.append(1) or mul(*args))
    for an in analyses.values():
        a = magnus.magnus_matrix(an.transition)  # fresh trace cache
        calls.clear()
        for crit in (check_l2, check_anchored, character_scan):
            crit(a, CFG)
        # character_scan reads every trace up to max_power, and traces
        # from half powers form A^2..A^ceil(max_power/2) only
        assert len(calls) == (CFG.max_power + 1) // 2 - 1 == 3


def test_conversion_cap_bounds_the_character_grid(analyses, monkeypatch):
    # silver's l2 hit needs a degree-2 cover; under cap 1 only the trivial
    # character may be tried, and the cap is reported, not a contradiction
    orders = []
    grid = search.character_grid
    monkeypatch.setattr(search, "character_grid",
                        lambda d, q: orders.append(q) or grid(d, q))
    an = analyses["unipotent_silver"]
    with pytest.raises(ResourceLimitError):
        build_certificate(an.graph_map, check_l2(an.matrix, CFG),
                          SearchConfig(max_cover_degree=1))
    assert orders == [1]


# perfbench/generator.unipotent_maps(5, 60) items 0, 4 and 51 answer "none"
# within max_cover_degree 16 and depth 2; scanning their cover levels to
# order 12, past every order whose cover fits, takes minutes and gigabytes
SCAN_BOUND_ITEMS = (0, 4, 51)


def _scan_bound_cases():
    generator = runpy.run_path(str(Path(__file__).parent.parent /
                                   "perfbench" / "generator.py"))
    items = generator["unipotent_maps"](5, 60)
    return [pytest.param(corpus.load(name), SearchConfig(max_cover_degree=cap),
                         False, id=f"{name}-{cap}")
            for name in ("unipotent_silver", "unipotent_rank2")
            for cap in (1, 4, 16)] + [
        pytest.param(parse_graph_map(items[i]),
                     SearchConfig(max_cover_degree=16, max_tower_depth=2),
                     True, id=f"unipotent_maps-{i}") for i in SCAN_BOUND_ITEMS]


@pytest.mark.parametrize("f, cfg, answers_none", _scan_bound_cases())
def test_scan_stops_at_the_order_bound(monkeypatch, f, cfg, answers_none):
    # each tower level builds no character grid above its order bound: no
    # cover of a higher order fits under the cap, so no hit there converts
    bounds = []
    tower, grid = search._tower_search, search.character_grid

    def level(an, config, diagnostics):
        bounds.append(search._order_bound(an.degree, an.quotient.rank,
                                          config.max_cover_degree))
        try:
            return tower(an, config, diagnostics)
        finally:
            bounds.pop()

    def bounded_grid(d, q):
        assert q <= bounds[-1], f"order {q} grid above bound {bounds[-1]}"
        return grid(d, q)

    monkeypatch.setattr(search, "_tower_search", level)
    monkeypatch.setattr(search, "character_grid", bounded_grid)
    cert = tower_search(f, cfg)
    assert cert is None or not answers_none


def _leaf_maps():
    generator = runpy.run_path(str(Path(__file__).parent.parent /
                                   "perfbench" / "generator.py"))
    return [*(corpus.load(name) for name in corpus.names()),
            *map(parse_graph_map, generator["unipotent_maps"](5, 60)[:20])]


@pytest.mark.parametrize("cap, depth", [(1, 3), (4, 3), (64, 1)])
def test_leaf_levels_run_no_criterion(monkeypatch, cap, depth):
    # a level whose order bound is below 2 leaves once its direct check is
    # silent: no finding there can convert and no child fits, so it runs
    # no criterion, and at twice the degree past the cap it builds no
    # quotient either (the base level's growth check builds one first)
    cfg = SearchConfig(max_cover_degree=cap, max_tower_depth=depth)
    tower = search._tower_search
    levels, stack, ran = [], [], set()

    def level(an, config, diagnostics):
        levels.append(an)
        stack.append(an)
        try:
            return tower(an, config, diagnostics)
        finally:
            stack.pop()

    def spy(criterion):
        def run(a, config):
            ran.add(id(stack[-1]))
            return criterion(a, config)
        return run

    monkeypatch.setattr(search, "_tower_search", level)
    for name in ("check_l2", "check_anchored", "character_scan"):
        monkeypatch.setattr(search, name, spy(getattr(search, name)))
    for f in _leaf_maps():
        tower_search(f, cfg)
    searched = 0
    for an in levels:
        if 2 * an.degree > cap:
            assert not an.tower or "quotient" not in vars(an), an.tower
            assert id(an) not in ran, an.tower
            continue
        bound = search._order_bound(an.degree, an.quotient.rank, cap)
        silent = an.verdict.all_on_circle and (
            bool(an.tower) or not _growth_is_one(an.transition))
        assert (id(an) in ran) == (bound >= 2 and silent), an.tower
        searched += id(an) in ran
    assert (searched > 0) == (cap > 1)


def test_build_certificate_matches_tower_search(analyses):
    # one conversion path: the first finding that converts on the base
    # level gives the same certificate bytes either way
    cfg = SearchConfig(max_tower_depth=1)
    converted = 0
    for an in analyses.values():
        f = an.graph_map
        findings = [check_direct(f, an)] + [
            crit(an.matrix, cfg)
            for crit in (check_l2, check_anchored, character_scan)]
        for fnd in findings:
            if fnd is None:
                continue
            try:
                cert = build_certificate(f, fnd, cfg)
            except (CertificateError, ResourceLimitError):
                continue
            found = tower_search(f, cfg)
            assert (json.dumps(found.to_json(), sort_keys=True)
                    == json.dumps(cert.to_json(), sort_keys=True))
            converted += 1
            break
    assert converted == 3  # golden_mean, unipotent_silver, unipotent_rank2


def test_oracle_golden(golden):
    cert = brute_force_oracle(golden, 100)
    assert cert is not None and cert.degree == 1
    assert cert.method == "brute-force"
    assert verify_certificate(cert)["ok"]


@pytest.mark.parametrize("max_degree", [-3, 0])
def test_oracle_below_degree_one_is_refused(golden, max_degree):
    # the base level has degree 1 and certifies golden_mean there, so a
    # bound below 1 is refused, as SearchConfig refuses max_cover_degree 0
    with pytest.raises(ValidationError, match="max_degree must be positive"):
        brute_force_oracle(golden, max_degree)
    with pytest.raises(ValidationError, match="max_cover_degree"):
        SearchConfig(max_cover_degree=max_degree)


def test_order_bound_is_exact_in_integers():
    for degree in (1, 2, 3, 36, 1000):
        for d in range(5):
            for cap in range(-2, 300):
                if degree > cap:
                    expected = 0
                elif d == 0:       # every character is trivial
                    expected = 1
                else:
                    expected = max(b for b in range(1, cap + 1)
                                   if degree * b ** d <= cap)
                assert search._order_bound(degree, d, cap) == expected
    huge = 10 ** 400
    assert search._order_bound(1, 1, huge) == huge
    assert search._order_bound(1, 2, huge) == 10 ** 200
    assert search._order_bound(7, 3, 7 * 10 ** 300 - 1) == 10 ** 100 - 1
    assert search._order_bound(2, 0, huge) == 1


def test_oracle_s3_none(s3):
    assert brute_force_oracle(s3, 100) is None


def test_oracle_identity_none(identity2):
    assert brute_force_oracle(identity2, 100) is None


def test_oracle_unipotent(silver):
    cert = brute_force_oracle(silver, 2000)
    assert cert is not None
    assert cert.degree == 2
    assert [s.quotient for s in cert.tower] == ["H_f/2H_f"]
    assert verify_certificate(cert)["ok"]


def test_tower_golden(golden):
    cert = tower_search(golden, CFG)
    assert cert is not None and cert.method == "direct" and cert.degree == 1


def test_tower_s3_none_within_bounds(s3):
    cfg = SearchConfig(max_cover_degree=64, max_tower_depth=1)
    assert tower_search(s3, cfg) is None


def test_tower_unipotent_matches_oracle(silver, rank2):
    for f in (silver, rank2):
        oracle = brute_force_oracle(f, 2000)
        tower = tower_search(f, CFG)
        assert tower is not None
        assert tower.degree <= oracle.degree
        assert all(s.modulus is not None for s in tower.tower)
        assert verify_certificate(tower)["ok"]


@pytest.mark.parametrize("name", ["example_s3", "identity", "u3", "u22"])
def test_growth_one_builds_no_cover(growth_one_maps, monkeypatch, name):
    # growth rate 1 answers "none" at the base level, after its direct check
    f = growth_one_maps[name]
    calls = []
    cover = search.abelian_cover
    monkeypatch.setattr(search, "abelian_cover",
                        lambda *args: calls.append(1) or cover(*args))
    diagnostics = []
    assert tower_search(f, SearchConfig(), diagnostics) is None
    assert brute_force_oracle(f, 256) is None
    assert diagnostics == [GROWTH_ONE]
    assert calls == []


@pytest.mark.parametrize("name", ["unipotent_silver", "unipotent_rank2"])
def test_growth_above_one_still_searches(analyses, name):
    # the direct check is silent and the growth rate is above 1, so the
    # criteria run and convert into a cover
    an = analyses[name]
    assert check_direct(an.graph_map, an) is None
    assert not _growth_is_one(an.transition)
    diagnostics = []
    cert = tower_search(an.graph_map, SearchConfig(), diagnostics)
    assert cert.method == "l2trace" and cert.tower and diagnostics == []


RUNS = {
    "tower_search": lambda f: tower_search(f, CFG),
    "oracle": lambda f: brute_force_oracle(f, 2000),
    "build_certificate": lambda f: build_certificate(
        f, check_l2(Analysis.of(f).matrix, CFG)),
}


@pytest.mark.parametrize("name, run, charpolys, covers", [
    ("golden_mean", "tower_search", 1, 0),
    ("golden_mean", "oracle", 1, 0),
    ("unipotent_silver", "tower_search", 3, 2),
    ("unipotent_silver", "oracle", 3, 2),
    ("unipotent_rank2", "oracle", 3, 2),
    ("unipotent_silver", "build_certificate", 2, 2),
])
def test_each_level_is_built_once(corpus_maps, monkeypatch, name, run,
                                  charpolys, covers):
    # every level's cover and characteristic polynomial is computed once,
    # base or lifted; verify_certificate's replay rebuilds only the cover
    # levels, as its base level is the one Analysis.of already holds, and
    # that is the only second build
    calls = dict.fromkeys(("orbit_factors", "abelian_cover",
                           "rebuild_tower"), 0)

    def count(fn, orig):
        def counted(*args):
            calls[fn] += 1
            return orig(*args)
        return counted
    for fn in ("abelian_cover", "rebuild_tower"):
        monkeypatch.setattr(search, fn, count(fn, getattr(search, fn)))
    factors = cached_property(count("orbit_factors",
                                    Analysis.orbit_factors.func))
    factors.__set_name__(Analysis, "orbit_factors")
    monkeypatch.setattr(Analysis, "orbit_factors", factors)
    assert RUNS[run](corpus_maps[name]) is not None
    assert calls == {"orbit_factors": charpolys, "abelian_cover": covers,
                     "rebuild_tower": 1}


def test_base_level_forms_one_h1_matrix(corpus_maps, monkeypatch):
    # the base level's verdict and its dynamical quotient read the one H1
    # matrix its Analysis holds
    calls = []
    real = search.homology_action
    for module in ("search", "covers"):
        monkeypatch.setattr(f"homolift.{module}.homology_action",
                            lambda *args: calls.append(args) or real(*args))
    for f in corpus_maps.values():
        an = Analysis.of(f)
        an.verdict
        an.quotient
    assert len(calls) == len(corpus_maps)


@pytest.mark.parametrize("name", ["golden_mean", "unipotent_silver"])
def test_analyze_search_and_verify_share_one_base_level(corpus_maps,
                                                        monkeypatch, name):
    # the base level's H1 action, polynomial and dynamical quotient are
    # derived once for analyze, the search, its own verification and a
    # later verify of the certificate; cover levels are rebuilt
    f = corpus_maps[name]
    base = []
    action, quotient = search.homology_action, search.equivariant_quotient
    monkeypatch.setattr(search, "homology_action", lambda g, tree: (
        base.append("homology_action") if g.graph == f.graph else None)
        or action(g, tree))
    basis = spanning_tree(f.graph).h1_basis
    monkeypatch.setattr(search, "equivariant_quotient", lambda h1, tree: (
        base.append("equivariant_quotient") if tree.h1_basis == basis
        else None) or quotient(h1, tree))
    orbit_factors = Analysis.orbit_factors.func

    def counted(level):
        if not level.tower:
            base.append("orbit_factors")
        return orbit_factors(level)
    factors = cached_property(counted)
    factors.__set_name__(Analysis, "orbit_factors")
    monkeypatch.setattr(Analysis, "orbit_factors", factors)

    an = Analysis.of(parse_graph_map(serialize_graph_map(f)))
    an.verdict
    an.transition
    cert = tower_search(f, CFG)
    assert verify_certificate(cert)["ok"]
    assert sorted(base) == ["equivariant_quotient", "homology_action",
                            "orbit_factors"]


def test_a_map_equal_in_value_hits_the_slot(golden):
    twin = parse_graph_map(serialize_graph_map(golden))
    assert twin is not golden and twin == golden
    an = Analysis.of(golden)
    assert Analysis.of(twin) is an and an.level is golden


def test_a_traced_run_spans_analysis_of(silver):
    # perfbench's --trace recorder wraps Analysis.of where the class holds
    # it, a staticmethod: the search, its own verification and a later
    # verify each ask for the base level
    spans = runpy.run_path(str(Path(__file__).parent.parent / "perfbench" /
                               "spans.py"))
    recorder = spans["Recorder"](homolift)
    recorder.install()
    try:
        assert verify_certificate(tower_search(silver, CFG))["ok"]
    finally:
        recorder.uninstall()
    assert recorder.layer_metrics()["search.Analysis.of.calls"] == 3


GOLDEN_B_TO_B = """vertices: v
edges: a: v -> v ; b: v -> v
base: v
map a -> a b
map b -> b
"""


@pytest.mark.parametrize("other", ["boundary", "edge image"])
def test_a_map_that_differs_misses_the_slot(golden, other):
    # one slot: a miss replaces it, so the first map misses again after
    g = (replace(golden, boundary_count=1) if other == "boundary"
         else parse_graph_map(GOLDEN_B_TO_B))
    an = Analysis.of(golden)
    other_an = Analysis.of(g)
    assert other_an is not an and other_an.level is g
    assert Analysis.of(golden) is not an
    assert Analysis.of(golden).level is golden


def test_alternating_maps_keep_their_verdicts(golden, s3):
    # f, g, f: each call answers for the map it was given
    for f, witness in ((golden, (-1, -1, 1)), (s3, None),
                       (golden, (-1, -1, 1))):
        finding = check_direct(f)
        assert (finding and finding.witness) == witness
        assert Analysis.of(f).verdict.all_on_circle == (witness is None)
        assert Analysis.of(f).level == f


@pytest.mark.parametrize("name", ["golden_mean", "unipotent_silver"])
def test_tampering_after_the_search_is_detected(corpus_maps, name):
    # the certificate's own base level is in the slot when it is tampered
    f = corpus_maps[name]
    cert = tower_search(f, CFG)
    assert Analysis._last[0] == serialize_graph_map(f)
    data = cert.to_json()
    data["charpoly"][1] += 1
    report = verify_certificate(CoverCertificate.from_json(data))
    assert report["failures"] == [CHARPOLY_DIFFERS]
    data = cert.to_json()
    data["input_text"] = data["input_text"].replace("map a -> a",
                                                    "map a -> b")
    assert data["input_text"] != cert.input_text
    report = verify_certificate(CoverCertificate.from_json(data))
    assert not report["ok"] and "input-digest" in {
        c["name"] for c in report["checks"] if not c["ok"]}


def _count_graphs(monkeypatch):
    """The Graphs constructed from now on, as a list that grows."""
    built = []
    init = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__",
                        lambda self: built.append(self) or init(self))
    return built


def test_oracle_levels_build_no_cover_graph(s3, monkeypatch):
    # a level's verdict reads the deck group, the cocycle and the lift's
    # fiber-zero rows, never the cover graph or the lifted map
    built = _count_graphs(monkeypatch)
    assert brute_force_oracle(s3, 256) is None
    assert built == []


def test_oracle_levels_above_growth_one_build_no_cover_graph(monkeypatch):
    # a 3-rose of growth rate above 1 whose H_f/kH_f levels all stay on the
    # circle: the oracle decides 63 cover levels without a cover graph
    f = parse_graph_map("vertices: v\nedges: a: v -> v ; b: v -> v ; "
                        "c: v -> v\nbase: v\nmap a -> B a a c\n"
                        "map b -> a C C C\nmap c -> b c B\n")
    covers = []
    cover = search.abelian_cover
    monkeypatch.setattr(search, "abelian_cover",
                        lambda *args: covers.append(1) or cover(*args))
    built = _count_graphs(monkeypatch)
    assert brute_force_oracle(f, 64) is None
    assert len(covers) == 63 and built == []


def _two_step_certificate(f):
    return search._certificate(Analysis.of(f).cover(2).cover(3), "tower",
                               None)


@pytest.mark.parametrize("name, make, steps", [
    ("golden_mean", tower_search, 0), ("unipotent_silver", tower_search, 1),
    ("unipotent_rank2", tower_search, 1),
    ("unipotent_silver", _two_step_certificate, 2)],
    ids=["golden", "silver", "rank2", "silver-two-step"])
def test_replayed_level_carries_its_tower(corpus_maps, name, make, steps):
    f = corpus_maps[name]
    cert = make(f)
    level = rebuild_tower(f, cert.tower)
    assert len(cert.tower) == steps
    assert level.tower == cert.tower and level.degree == cert.degree
    assert serialize_graph_map(level.base) == cert.input_text


@pytest.mark.parametrize("name, make", [
    ("unipotent_silver", lambda f: brute_force_oracle(f, 2000)),
    ("unipotent_rank2", lambda f: brute_force_oracle(f, 2000)),
    ("unipotent_silver", _two_step_certificate)],
    ids=["silver-oracle", "rank2-oracle", "silver-two-step"])
def test_replay_builds_no_final_cover_graph(corpus_maps, monkeypatch, name,
                                            make):
    # the replay parses the embedded input (one graph) and builds the
    # graph of every level but the last: the next step is a quotient of
    # that level's dynamical quotient, which reads its graph
    cert = make(corpus_maps[name])
    built = _count_graphs(monkeypatch)
    assert verify_certificate(cert)["ok"]
    assert len(built) == len(cert.tower)


def test_conversion_level_builds_no_cover_graph(silver, monkeypatch):
    levels = []
    certificate = search._certificate
    monkeypatch.setattr(search, "_certificate", lambda *args: levels.append(
        args[0]) or certificate(*args))
    fnd = check_l2(Analysis.of(silver).matrix, CFG)
    built = _count_graphs(monkeypatch)
    cert = build_certificate(silver, fnd, CFG)
    assert len(cert.tower) == 1 and len(built) == 1    # the replay's parse
    lifted = levels[0].lifted
    assert "map" not in vars(lifted) and "graph" not in vars(lifted.cover)


def test_replay_skips_the_final_quotient(silver, monkeypatch):
    # the final level of a replay needs only its H1 action: the Smith form
    # of its dynamical quotient is never computed
    cert = brute_force_oracle(silver, 2000)
    Analysis._last = None    # verify runs as in a new process
    calls = []
    quotient = search.equivariant_quotient
    monkeypatch.setattr(search, "equivariant_quotient",
                        lambda *args: calls.append(1) or quotient(*args))
    assert verify_certificate(cert)["ok"]
    assert len(calls) == len(cert.tower) == 1


def test_certificate_json_roundtrip(golden):
    cert = tower_search(golden, CFG)
    data = cert.to_json()
    text = json.dumps(data, sort_keys=True)
    again = CoverCertificate.from_json(json.loads(text))
    assert again == cert
    assert verify_certificate(again)["ok"]


CHARPOLY_DIFFERS = ("charpoly-rebuild: characteristic polynomial of the "
                    "rebuilt tower differs")


def test_certificate_tamper_detected(silver):
    # a stored polynomial the tower does not rebuild fails on that alone:
    # no verdict is taken from it
    cert = brute_force_oracle(silver, 2000)
    data = cert.to_json()
    data["charpoly"][1] += 1
    report = verify_certificate(CoverCertificate.from_json(data))
    assert report["failures"] == [CHARPOLY_DIFFERS]
    assert "verdict" not in {c["name"] for c in report["checks"]}


def test_crafted_charpoly_reaches_no_sieve(silver, monkeypatch):
    # a random monic polynomial in place of the rebuilt one is only
    # compared: one of degree 2000 fails on its length and reaches no sieve,
    # and for one of the level's own degree the sieve sees the rebuilt
    # level's orbit factors and nothing longer
    level = Analysis.of(silver).cover(12)
    cert = search._certificate(level, "brute-force", None)
    rng = random.Random(5)
    largest = max(len(poly) for _o, poly in level.orbit_factors)
    sizes = []
    monkeypatch.setattr("homolift.covers._value_mod", lambda coeffs, w, q: (
        sizes.append(len(coeffs)) or _value_mod(coeffs, w, q)))
    crafted = [rng.randint(-9, 9) for _ in range(2000)] + [1]
    report = verify_certificate(replace(cert, charpoly=tuple(crafted)))
    assert report["failures"] == [CHARPOLY_DIFFERS]
    assert sizes == []
    crafted = [rng.randint(-9, 9) for _ in cert.charpoly[1:]] + [1]
    report = verify_certificate(replace(cert, charpoly=tuple(crafted)))
    assert report["failures"] == [CHARPOLY_DIFFERS]
    assert sizes and max(sizes) <= largest


def test_charpoly_of_the_wrong_degree_fails_before_the_level_is_read(
        monkeypatch):
    # the identity of a 4-petal rose with the step H_f/2H_f, of degree 16:
    # the rebuilt level is a connected cover, of H1 rank 16 * (4 - 1) + 1,
    # so a stored polynomial of degree 1 fails on its length and the
    # level's own polynomial is never formed
    f = parse_graph_map("vertices: v\nedges: " + " ; ".join(
        f"{e}: v -> v" for e in "abcd") + "\nbase: v\n" + "".join(
        f"map {e} -> {e}\n" for e in "abcd"))
    step = TowerStep.of(FiniteQuotient.of(4, 2))
    cert = CoverCertificate(
        input_digest=search.input_digest(f),
        input_text=serialize_graph_map(f), power=1, tower=(step,),
        degree=16, charpoly=(0, 1), verdict="off_unit_circle",
        witness_factor=(0, 1), modulus=2.0, zero_multiplicity=0,
        method="tower")

    def refuse(*args):
        raise AssertionError("the level's polynomial was formed")

    monkeypatch.setattr(search, "orbit_polynomials", refuse)
    report = verify_certificate(cert)
    assert report["failures"] == [CHARPOLY_DIFFERS]


@pytest.mark.parametrize("k", [1000003, 2 ** 61 - 1])
def test_a_circle_map_lists_no_character(monkeypatch, k):
    # on a graph with E = V every nontrivial orbit factor has degree 0, so
    # the level's polynomial is its trivial orbit's, which needs no root of
    # unity, and verify stays fast at any degree: the step H_f/kH_f rebuilds
    # x - 1 with no character listed and k never factored
    f = parse_graph_map("vertices: v\nedges: a: v -> v\nbase: v\n"
                        "map a -> a\n")
    cert = CoverCertificate(
        input_digest=search.input_digest(f),
        input_text=serialize_graph_map(f), power=1,
        tower=(TowerStep.of(FiniteQuotient.of(1, k)),), degree=k,
        charpoly=(-1, 1), verdict="off_unit_circle", witness_factor=(-1, 1),
        modulus=1.0, zero_multiplicity=0, method="tower")

    def refuse(*args):
        raise AssertionError("a character was listed")

    real = linalg.prime_factors

    def factor(n):
        assert n != k, "the modulus was factored"
        return real(n)

    monkeypatch.setattr("homolift.covers._galois_orbits", refuse)
    monkeypatch.setattr(linalg, "prime_factors", factor)
    start = time.perf_counter()
    report = verify_certificate(cert)
    assert time.perf_counter() - start < 1
    assert [c["name"] for c in report["checks"] if not c["ok"]] == [
        "verdict", "witness"]


@pytest.mark.parametrize("charpoly", [(), (1, 2), (-1, 2, 3)])
def test_non_monic_charpoly_fails_before_any_cover(silver, monkeypatch,
                                                   charpoly):
    cert = brute_force_oracle(silver, 2000)
    calls = []
    cover = search.abelian_cover
    monkeypatch.setattr(search, "abelian_cover",
                        lambda *args: calls.append(1) or cover(*args))
    report = verify_certificate(replace(cert, charpoly=charpoly))
    assert [c["name"] for c in report["checks"] if not c["ok"]] == \
        ["charpoly-monic"]
    assert calls == []


def test_valid_certificate_sieves_orbit_factors_only(silver, monkeypatch):
    # the verdict of a rebuilt level is decided one Galois orbit at a time:
    # no polynomial above the largest orbit factor reaches the sieve
    level = Analysis.of(silver).cover(12)
    cert = search._certificate(level, "brute-force", None)
    largest = max(len(poly) for _o, poly in level.orbit_factors)
    assert largest < len(cert.charpoly)
    sizes = []
    monkeypatch.setattr("homolift.covers._value_mod", lambda coeffs, w, q: (
        sizes.append(len(coeffs)) or _value_mod(coeffs, w, q)))
    assert verify_certificate(cert)["ok"]
    assert sizes and max(sizes) <= largest


def test_certificate_wrong_input_detected(silver, golden):
    from homolift.graphs import serialize_graph_map
    cert = brute_force_oracle(silver, 2000)
    data = cert.to_json()
    data["input_text"] = serialize_graph_map(golden)
    bad = CoverCertificate.from_json(data)
    report = verify_certificate(bad)
    assert not report["ok"]


def test_rebuild_tower_deterministic(silver):
    cert = brute_force_oracle(silver, 2000)
    level = rebuild_tower(silver, cert.tower)
    assert level.degree == 2
    level2 = rebuild_tower(silver, cert.tower)
    assert level.graph_map.edge_image == level2.graph_map.edge_image


@pytest.mark.parametrize("field, value", [
    ("modulus", 128), ("degree", 4096), ("quotient", "H_f/128H_f")])
def test_tampered_step_fails_before_its_cover(silver, monkeypatch, field,
                                             value):
    # a recorded step is compared with the step its spec rebuilds before
    # the cover is built, so a tampered modulus costs no cover at all
    cert = brute_force_oracle(silver, 2000)
    tampered = replace(cert, tower=(replace(cert.tower[0], **{field: value}),))
    calls = []
    cover = search.abelian_cover
    monkeypatch.setattr(search, "abelian_cover",
                        lambda *args: calls.append(1) or cover(*args))
    report = verify_certificate(tampered)
    assert [c["name"] for c in report["checks"] if not c["ok"]] == \
        ["tower-rebuild"]
    assert calls == []


def test_search_determinism(analyses):
    for name in ("golden_mean", "unipotent_silver"):
        f = analyses[name].graph_map
        c1 = tower_search(f, CFG)
        c2 = tower_search(f, CFG)
        assert json.dumps(c1.to_json(), sort_keys=True) == \
            json.dumps(c2.to_json(), sort_keys=True)


def test_trace_of_powers_recurrence(analyses):
    # the lattice-restricted trace sequence obeys the linear recurrence whose
    # roots are the eigenvalues of the specializations at the annihilator
    for an in analyses.values():
        a = an.matrix
        d = a.dim
        m = a.size
        for j in (1, 2, 3, 4):
            if d > 0 and j ** d > 16:
                continue
            lat = Lattice.scaled(d, j)
            chars = annihilator_characters(lat)
            roots = []
            for chi in chars:
                spec = np.array([[x.to_complex() for x in row]
                                 for row in magnus.specialize_matrix(a, chi)])
                roots.extend(np.linalg.eigvals(spec))
            coeffs = np.poly(np.array(roots))  # highest degree first
            degree = len(roots)
            traces = [float(lattice_restriction(magnus.trace_power(a, k), lat))
                      for k in range(1, degree + 2 * m + 1)]
            scale = max(1.0, max(abs(t) for t in traces))
            for s in range(1, 2 * m + 1):
                acc = 0.0
                for i, c in enumerate(coeffs):
                    acc += c.real * traces[s + degree - i - 1]
                assert abs(acc) / scale < 1e-6
            if d == 0:
                break


def test_oracle_tower_consistency(analyses):
    # the two search routes agree about existence within matching bounds
    cfg = SearchConfig(max_cover_degree=100, max_tower_depth=1)
    for name, an in analyses.items():
        oracle = brute_force_oracle(an.graph_map, 100)
        tower = tower_search(an.graph_map, cfg)
        assert (oracle is None) == (tower is None), name


def _located(locate):
    """The exact order of the character ``locate()`` returns, or the class
    and text of the conversion error it raises."""
    try:
        return locate().exact_order()
    except (CertificateError, ResourceLimitError) as exc:
        return type(exc).__name__, str(exc)


# 1 - x vanishes at the trivial character and is 2 at x = -1, so each
# criterion's character has exact order 2; so has 1 - xy's, at (-1, 1)
ONE_MINUS_X = magnus.MagnusMatrix(1, 1, ("e0",), {(0, 0, (0,)): 1,
                                                  (0, 0, (1,)): -1})
ONE_MINUS_XY = magnus.MagnusMatrix(1, 2, ("e0",), {(0, 0, (0, 0)): 1,
                                                   (0, 0, (1, 1)): -1})

# the sorted-union oracle lists every grid up to the bound, so an l2
# finding's bounds are tried while that union holds at most this many
UNION_CAP = 3000


def test_characters_are_tried_once_at_their_exact_order():
    # the scan and the conversion walk the orders q ascending and try only
    # the q-grid's characters of exact order q: a lower-order one repeats
    # a character of its own smaller grid, so the findings and the located
    # orders are those of every grid, errors included.  A scan cut at order
    # b finds the full scan's character when its order is at most b, else
    # nothing: a search that scans only to its order bound loses no hit
    # that could convert
    cfg = SearchConfig(max_power=4, max_character_order=6)
    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(magnus_matrices())
    @example(ONE_MINUS_X)
    @example(ONE_MINUS_XY)
    def check(a):
        tried, located = [], []
        level = SimpleNamespace(matrix=a)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "specialize",
                       lambda t, chi: tried.append(chi) or specialize(t, chi))
            found = character_scan(a, cfg)
            for fnd in (check_l2(a, cfg), check_anchored(a, cfg)):
                if fnd is None:
                    continue
                width = search._support_width(
                    magnus.trace_power(a, fnd.power))
                for bound in range(width + 3):
                    if fnd.kind == "l2" and sum(
                            q ** a.dim for q in range(
                                1, min(bound, width + 1) + 1)) > UNION_CAP:
                        break
                    located.append((fnd, bound, _located(
                        lambda: search._locate_character(level, fnd, bound))))
        assert all(chi.exact_order() == chi.order for chi in tried)
        assert _finding_json(found) == _finding_json(
            character_scan_every_grid(a, cfg))
        for b in range(1, cfg.max_character_order + 1):
            cut = character_scan(a, replace(cfg, max_character_order=b))
            assert _finding_json(cut) == _finding_json(
                found if found is not None and found.character.order <= b
                else None)
        for fnd, bound, outcome in located:
            assert outcome == _located(
                lambda: locate_in_sorted_union(a, fnd, bound))
            seen.add(outcome[0] if isinstance(outcome, tuple) else
                     f"{fnd.kind} order {min(outcome, 2)}")
        if found is not None:
            seen.add(f"scan order {min(found.character.order, 2)}")

    check()
    assert seen >= {"ResourceLimitError", "l2 order 1", "l2 order 2",
                    "anchored order 1", "anchored order 2", "scan order 1",
                    "scan order 2"}, seen
