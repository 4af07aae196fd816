"""Tests of the benchmark's own code (generator, spans, failure accounting).

Run with the repository's suite:  PYTHONPATH=src python -m pytest perfbench
"""

import json
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402
import generator  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from homolift import HomoliftError, ResourceLimitError, corpus  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_generator_is_deterministic_per_seed():
    assert generator.rose_maps(3, 50) == generator.rose_maps(3, 50)
    assert generator.unipotent_maps(3, 20) == generator.unipotent_maps(3, 20)
    assert generator.rose_maps(3, 50) != generator.rose_maps(4, 50)
    assert generator.unipotent_maps(3, 20) != generator.unipotent_maps(4, 20)


def test_generated_maps_are_in_their_family():
    for text in generator.rose_maps(1, 100):
        words = generator.words_of(text)
        assert 2 <= len(words) <= 4
        assert all(1 <= len(w) <= 5 for w in words)
    unipotent = generator.unipotent_maps(1, 30)
    assert len(set(unipotent)) == 30
    for text in unipotent:
        assert generator.is_unipotent_nontrivial(generator.words_of(text))


@pytest.mark.parametrize("name, expected", [
    ("unipotent_silver", True), ("unipotent_rank2", True),
    ("golden_mean", False), ("identity", False)])
def test_unipotent_filter_on_corpus(name, expected):
    words = generator.words_of(corpus.text(name))
    assert generator.is_unipotent_nontrivial(words) is expected


def test_self_time_on_hand_built_span_tree():
    # root [0, 10] with children [1, 4] and [5, 9]; the second child has a
    # grandchild [6, 8]
    tree = [("root", 0, -1, 0.0, 10.0), ("a", 0, 0, 1.0, 4.0),
            ("b", 0, 0, 5.0, 9.0), ("c", 0, 2, 6.0, 8.0)]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    tree = [("root", 0, -1, 0.0, 10.0), ("a", 0, 0, 2.0, 6.0),
            ("b", 0, 0, 4.0, 12.0)]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)


def test_recorder_reaches_names_bound_by_import():
    hl = env.import_homolift()
    original = hl.search.abelian_cover
    recorder = spans.Recorder(hl)
    recorder.install()
    try:
        f = hl.parse_graph_map(corpus.text("unipotent_silver"))
        cert = hl.tower_search(f, hl.SearchConfig(max_cover_degree=4,
                                                  max_tower_depth=1))
    finally:
        recorder.uninstall()
    assert hl.search.abelian_cover is original
    metrics = recorder.layer_metrics()
    assert set(metrics) == {name for name, _unit in spans.metric_names()}
    assert metrics["graphs.parse_graph_map.calls"] == 2  # ours and verify's
    # search calls its own binding of abelian_cover while rebuilding
    assert metrics["covers.abelian_cover.max_degree"] == cert.degree == 2
    assert metrics["search.verify_certificate.calls"] == 1
    assert all(s[2] < i for i, s in enumerate(recorder.spans))


def _op(fn, expect=None):
    return workloads.Op("injected", fn, expect)


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, old)


def _raise(exc):
    def fn():
        raise exc
    return fn


@pytest.mark.parametrize("fn, outcome", [
    (lambda: {"found": True}, "ok"),
    (_raise(MemoryError()), "memory"),
    (_raise(ResourceWarning("prime pool exhausted")), "resource_warning"),
    (_raise(RecursionError()), "recursion"),
    (_raise(ResourceLimitError("cap")), "homolift_error"),
    (_raise(workloads.VerdictMismatch("bad")), "mismatch"),
    (_raise(KeyError("x")), "other_error"),
])
def test_failure_classification(alarm, fn, outcome):
    assert run.attempt(_op(fn), HomoliftError, 5.0)[0] == outcome


def test_wrong_answer_is_a_mismatch(alarm):
    op = _op(lambda: {"found": True, "degree": 4}, {"degree": 2})
    assert run.attempt(op, HomoliftError, 5.0)[0] == "mismatch"


def test_time_limit_interrupts_an_operation(alarm):
    def spin():
        while True:
            pass
    outcome, seconds, _ = run.attempt(_op(spin), HomoliftError, limit=0.05)
    assert outcome == "timeout" and seconds < 1


def test_calibration_scale_is_reference_over_median():
    calibration = run.Calibration()
    calibration.samples = [(1.0, 0.011), (2.0, 0.010), (3.0, 0.030)]
    assert calibration.scale() == pytest.approx(run.CALIBRATION_REF_S / 0.011)


def test_calibration_scale_is_local_to_the_interval():
    w = run.CALIBRATION_WINDOW_S
    calibration = run.Calibration()
    calibration.samples = [(0.0, 0.010), (10.0, 0.020), (10.0 + w, 0.040),
                           (20.0, 0.010)]
    ref = run.CALIBRATION_REF_S
    assert calibration.reference(10.0, 0.0) == 0.0
    assert calibration.reference(10.0, 2.0) == pytest.approx(2.0 * ref / 0.030)
    assert calibration.scale(15.0, 16.0) == pytest.approx(ref / 0.015)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
