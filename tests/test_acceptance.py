"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Tolerances are pinned here, not deferred.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import io
import json
import random
import time
from fractions import Fraction

import numpy as np

from homolift import corpus, magnus
from homolift.cli import main as cli_main
from homolift.covers import (abelian_cover, h1_action_on_cover, lift_map,
                             spectral_radius)
from homolift.graphs import parse_graph_map
from homolift.homology import (equivariant_quotient, homology_action,
                               spanning_tree)
from homolift.laurent import (Character, Lattice, character_grid,
                              l2_norm_squared, lattice_restriction,
                              specialize)
from homolift.search import (SearchConfig, brute_force_oracle, tower_search,
                             verify_certificate)
from homolift.transition import (SubgraphSelection, dilatation, is_stable,
                                 shadow, subgraph_matrix, transition_graph,
                                 vertex_subgraph)
from oracles import (Laurent, annihilator_characters, arc_prefix,
                     average_over_annihilator, based_cycles,
                     chain_action_matrix, charpoly_complex_exact,
                     cover_chain_action_check, cyc_mat_mul, cyc_trace,
                     cyclotomic_zero, deck_action_on_quotient, edge_info,
                     equivariant_charpoly, extremal_subgraph, is_finite_index,
                     lattice_index, laurent_constant, laurent_zero, mat_vec,
                     monomial, path_data, positive_power)


def _report(number, started, budget, detail):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s < {budget}s): {detail}")
    assert elapsed < budget


def _cli(*args):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(list(args), out, err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_01_worked_example(tmp_path, analyses):
    started = time.time()
    path = tmp_path / "example_s3.gm"
    path.write_text(corpus.text("example_s3"))
    f = parse_graph_map(path.read_text())
    st = spanning_tree(f.graph)
    q = equivariant_quotient(homology_action(f, st), st)
    t = transition_graph(f, q)

    assert len(t.arcs) == 4
    by_key = {(t.nodes[a.source], t.nodes[a.target], a.dec): a for a in t.arcs}
    eta1 = by_key[("b", "b", 1)]
    eta2 = by_key[("a", "a", 1)]
    eta3 = by_key[("a", "b", 1)]
    eta4 = by_key[("a", "b", 2)]
    assert eta4.sign == -1
    assert eta2.translation == (0, 1)
    assert eta4.translation == (1, 0)
    assert arc_prefix(t, eta1).is_empty() and arc_prefix(t, eta3).is_empty()
    assert eta1.sign == eta2.sign == eta3.sign == 1
    assert eta3.translation == (0, 0) and eta1.translation == (0, 0)

    a = magnus.magnus_matrix(t)
    one = laurent_constant(2, 1)
    x = monomial((1, 0))
    y = monomial((0, 1))
    assert a.entries[0][0] == y
    assert a.entries[0][1] == one - x
    assert a.entries[1][0].is_zero()
    assert a.entries[1][1] == one

    poly = shadow(t)
    assert poly.dim == 1
    assert poly.vertices == ((Fraction(0), Fraction(0)),
                             (Fraction(0), Fraction(1)))
    for u in poly.vertices:
        assert is_stable(subgraph_matrix(t, vertex_subgraph(t, u)))
    _report(1, started, 1.0,
            "worked example: 4 decorated arcs, magnus matrix, stable segment")


def test_criterion_02_lattice_averaging():
    started = time.time()
    rng = random.Random(1002)
    for _ in range(100):
        d = rng.randint(1, 3)
        t = laurent_zero(d)
        for _ in range(rng.randint(1, 8)):
            t = t + monomial(
                tuple(rng.randint(-4, 4) for _ in range(d)),
                rng.randint(-5, 5))
        while True:
            rows = [[0] * d for _ in range(d)]
            for i in range(d):
                rows[i][i] = rng.randint(1, 3)
                for j in range(d):
                    if j != i:
                        rows[i][j] = rng.randint(-2, 2)
            lat = Lattice(d, tuple(tuple(r) for r in rows))
            if is_finite_index(lat) and lattice_index(lat) <= 27:
                break
        assert average_over_annihilator(t, lat).rational_value() == \
            lattice_restriction(t, lat)
    _report(2, started, 30.0,
            "100 random lattice restrictions equal annihilator averages, exact")


def test_criterion_03_finite_parseval():
    started = time.time()
    rng = random.Random(1003)
    for _ in range(100):
        d = rng.randint(1, 3)
        bound = 2
        t = laurent_zero(d)
        for _ in range(rng.randint(1, 8)):
            t = t + monomial(
                tuple(rng.randint(-bound, bound) for _ in range(d)),
                rng.randint(-5, 5))
        q = 2 * bound + 1
        total = cyclotomic_zero(1)
        for chi in character_grid(d, q):
            total = total + specialize(t, chi).magnitude_squared()
        assert (total / q ** d).rational_value() == l2_norm_squared(t)
    _report(3, started, 30.0,
            "100 random squared norms match grid averages of |t(chi)|^2, exact")


def test_criterion_04_specialization_coherence(analyses):
    started = time.time()
    rng = random.Random(1004)
    for an in analyses.values():
        a = an.matrix
        cp = equivariant_charpoly(a)
        for _ in range(50):
            order = rng.randint(1, 8)
            chi = Character(a.dim, order,
                            tuple(rng.randint(0, order - 1)
                                  for _ in range(a.dim)))
            spec = magnus.specialize_matrix(a, chi)
            lhs = charpoly_complex_exact(spec)
            rhs = cp.specialize(chi)
            for u, v in zip(lhs, rhs):
                assert (u - v).is_zero()
            power = spec
            for k in range(1, 7):
                if k > 1:
                    power = cyc_mat_mul(power, spec)
                assert (specialize(magnus.trace_power(a, k), chi)
                        - cyc_trace(power)).is_zero()
    _report(4, started, 60.0,
            "charpoly and trace powers commute with specialization, exact")


def _corpus_covers(analyses, max_degree=27):
    for name, an in analyses.items():
        d = an.quotient.rank
        k = 1
        while (k ** d if d else 1) <= max_degree:
            cov = abelian_cover(an.graph_map.graph, an.quotient, k)
            yield name, an, k, cov, lift_map(an.graph_map, cov)
            if d == 0:
                break
            k += 1


def test_criterion_05_chain_action(analyses):
    started = time.time()
    pairs = 0
    for _name, an, k, _cov, lm in _corpus_covers(analyses):
        for chi in character_grid(an.quotient.rank, k):
            assert cover_chain_action_check(lm, chi, an.matrix)
            pairs += 1
    _report(5, started, 60.0,
            f"{pairs} compatible (cover, character) pairs match the "
            f"specialized matrix exactly")


def test_criterion_06_groupoid_and_extremal(analyses, dense_translation):
    started = time.time()
    rng = random.Random(1006)
    for an in analyses.values():
        t = an.transition
        arcs = t.arcs
        for _ in range(500):
            seq = [rng.choice(arcs)]
            for _ in range(rng.randint(0, 4)):
                nxt = [a for a in arcs if a.source == seq[-1].target]
                if not nxt:
                    break
                seq.append(rng.choice(nxt))
            sign, trans, prefix = path_data(t, seq)
            assert trans == tuple(
                sum(vals) for vals in zip(*(a.translation for a in seq)))
            assert dense_translation(an.quotient, an.tree, prefix) == trans
        if t.dim == 0:
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
                        for i, v in enumerate(t.arcs[idx].translation):
                            total[i] += v
                    val = sum(w * Fraction(v, k)
                              for w, v in zip(omega, total))
                    assert val == max_value
    _report(6, started, 60.0,
            "500 random paths per map are translation-additive; extremal "
            "subgraph cycles all achieve the maximum")


def test_criterion_07_spectral_bounds(analyses):
    started = time.time()
    covers = 0
    for _name, an, _k, _cov, lm in _corpus_covers(analyses):
        lam = dilatation(an.transition)
        h1 = spectral_radius(h1_action_on_cover(lm))
        assert 1 - 1e-9 <= h1 <= lam + 1e-9
        chain = spectral_radius(chain_action_matrix(lm))
        if chain > 1 + 1e-6:
            assert h1 > 1 + 1e-6
        covers += 1
    _report(7, started, 120.0,
            f"{covers} covers: homology radius within [1, dilatation], and "
            f"chain growth forces homology growth")


def test_criterion_08_trace_properties(analyses):
    started = time.time()
    # (a) deck invariance + stabilizer divisibility
    for name in ("example_s3", "unipotent_silver"):
        an = analyses[name]
        k = 2 if an.quotient.rank > 1 else 3
        cov = abelian_cover(an.graph_map.graph, an.quotient, k)
        lm = lift_map(an.graph_map, cov)
        stc = spanning_tree(cov.graph)
        qc = equivariant_quotient(homology_action(lm.map, stc), stc)
        ac = magnus.magnus_matrix(transition_graph(lm.map, qc))
        actions = [deck_action_on_quotient(lm, stc, qc, s)
                   for s in cov.elements]
        for kk in range(1, 6):
            tr = magnus.trace_power(ac, kk)
            for sigma in actions:
                moved = {}
                for vec, c in tr.terms.items():
                    nv = tuple(mat_vec(sigma, list(vec)))
                    moved[nv] = moved.get(nv, 0) + c
                assert Laurent(tr.dim, moved) == tr
            for vec, coeff in tr.terms.items():
                stab = sum(1 for sigma in actions
                           if tuple(mat_vec(sigma, list(vec)))
                           == tuple(vec))
                assert coeff % stab == 0

    # (b) cyclic-cover coefficient divisibility for p in {2, 3, 5}
    for p in (2, 3, 5):
        for name, u, weights in (("example_s3", (0, 1), (0, 1)),
                                 ("unipotent_rank2", (0, 1), (0, 1))):
            an = analyses[name]
            d = an.quotient.rank
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
            cov = abelian_cover(an.graph_map.graph, an.quotient, rows)
            assert cov.degree == p
            lm = lift_map(an.graph_map, cov)
            stc = spanning_tree(cov.graph)
            qc = equivariant_quotient(homology_action(lm.map, stc), stc)
            tc = transition_graph(lm.map, qc)
            base_t = an.transition
            sel = vertex_subgraph(base_t, u)
            keys = {(base_t.arcs[i].source, base_t.arcs[i].step_index)
                    for i in sel.arc_indices}
            names = list(base_t.nodes)
            info = edge_info(lm.cover)
            lifted = frozenset(
                idx for idx, arc in enumerate(tc.arcs)
                if (names.index(info[tc.nodes[arc.source]][0]),
                    arc.step_index) in keys)
            mat = subgraph_matrix(tc, SubgraphSelection(u, lifted))
            for kk in range(1, 7):
                for coeff in magnus.trace_power(mat, kk).terms.values():
                    assert coeff % p == 0

    # (c) trace-of-powers recurrence, numerically to 1e-6
    for an in analyses.values():
        a = an.matrix
        d, m = a.dim, a.size
        for j in (1, 2, 3, 4):
            if d > 0 and j ** d > 16:
                continue
            lat = Lattice.scaled(d, j)
            roots = []
            for chi in annihilator_characters(lat):
                spec = np.array([[x.to_complex() for x in row]
                                 for row in magnus.specialize_matrix(a, chi)])
                roots.extend(np.linalg.eigvals(spec))
            coeffs = np.poly(np.array(roots))
            degree = len(roots)
            traces = [float(lattice_restriction(magnus.trace_power(a, k), lat))
                      for k in range(1, degree + 2 * m + 1)]
            scale = max(1.0, max(abs(v) for v in traces))
            for s in range(1, 2 * m + 1):
                acc = sum(c.real * traces[s + degree - i - 1]
                          for i, c in enumerate(coeffs))
                assert abs(acc) / scale < 1e-6
            if d == 0:
                break

    # (d) positive_power terminates within 64 on all-stable vertex sets
    for name, an in analyses.items():
        poly = shadow(an.transition)
        mats = [subgraph_matrix(an.transition, vertex_subgraph(an.transition, u))
                for u in poly.vertices]
        if not mats or not all(is_stable(mm) for mm in mats):
            continue
        k = positive_power(mats, list(poly.vertices), 64)
        assert k is not None and k <= 64, name
    _report(8, started, 120.0,
            "deck invariance, cyclic divisibility (p=2,3,5), trace recurrence, "
            "positive powers within 64")


def test_criterion_09_end_to_end(tmp_path, analyses):
    started = time.time()
    # golden mean: depth-0 certificate with the expected witness
    code, out, _ = _cli("search", "corpus:golden_mean", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["witness_factor"] == [-1, -1, 1]
    assert abs(report["modulus"] - 1.618034) < 1e-6
    assert report["tower"] == []

    # inner twist: no certificate within bounds; oracle to degree 100 agrees
    code, out, _ = _cli("search", "corpus:example_s3", "--json",
                        "--max-degree", "100", "--max-tower-depth", "2")
    assert code == 3
    assert json.loads(out)["result"] == "none_within_bounds"
    assert brute_force_oracle(analyses["example_s3"].graph_map, 100) is None

    # unipotent example: oracle finds a certificate, the tower search
    # reproduces one through abelian steps only, and both re-verify exactly
    f = analyses["unipotent_silver"].graph_map
    oracle_cert = brute_force_oracle(f, 2000)
    assert oracle_cert is not None
    assert verify_certificate(oracle_cert)["ok"]
    tower_cert = tower_search(f, SearchConfig())
    assert tower_cert is not None
    assert tower_cert.degree <= oracle_cert.degree
    assert all(step.modulus is not None or step.basis is not None
               for step in tower_cert.tower)
    assert verify_certificate(tower_cert)["ok"]
    _report(9, started, 600.0,
            "golden-mean certified directly; inner twist honestly "
            "inconclusive; unipotent map certified via an abelian tower")


def test_criterion_10_determinism(tmp_path):
    started = time.time()
    cert_path = tmp_path / "cert.json"
    commands = [
        ("analyze", "corpus:example_s3", "--json"),
        ("analyze", "corpus:unipotent_silver", "--json"),
        ("magnus", "corpus:golden_mean", "--json"),
        ("shadow", "corpus:unipotent_rank2", "--json"),
        ("stability", "corpus:example_s3", "--json"),
        ("search", "corpus:golden_mean", "--json"),
        ("search", "corpus:unipotent_silver", "--json",
         "--emit-certificate", str(cert_path)),
        ("corpus", "--json"),
    ]
    for args in commands:
        c1, o1, _ = _cli(*args)
        c2, o2, _ = _cli(*args)
        assert c1 == c2
        assert o1 == o2, args
    c1, o1, _ = _cli("verify", str(cert_path), "--json")
    c2, o2, _ = _cli("verify", str(cert_path), "--json")
    assert (c1, o1) == (c2, o2)
    _report(10, started, 120.0,
            "every subcommand emits byte-identical JSON across runs")
