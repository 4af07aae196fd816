import re

import pytest

from homolift import corpus
from homolift.homology import path_class
from homolift.search import Analysis


def pytest_runtest_logreport(report):
    # acceptance tests print their own PASS lines; mirror failures
    if report.when == "call" and report.failed:
        match = re.search(r"test_criterion_(\d+)", report.nodeid)
        if match:
            print(f"\nACCEPTANCE {int(match.group(1))} FAIL: {report.nodeid}")


@pytest.fixture(scope="session")
def corpus_maps():
    return {name: corpus.load(name) for name in corpus.names()}


@pytest.fixture(scope="session")
def analyses(corpus_maps):
    return {name: Analysis.of(f) for name, f in corpus_maps.items()}


@pytest.fixture(scope="session")
def s3(corpus_maps):
    return corpus_maps["example_s3"]


@pytest.fixture(scope="session")
def golden(corpus_maps):
    return corpus_maps["golden_mean"]


@pytest.fixture(scope="session")
def identity2(corpus_maps):
    return corpus_maps["identity"]


@pytest.fixture(scope="session")
def silver(corpus_maps):
    return corpus_maps["unipotent_silver"]


@pytest.fixture(scope="session")
def rank2(corpus_maps):
    return corpus_maps["unipotent_rank2"]


@pytest.fixture(scope="session")
def multi_vertex_levels(analyses):
    """The multi-vertex cover levels silver/2 -> 2, s3/2 -> {2, 3} and
    rank2/{2, 3}."""
    silver2 = analyses["unipotent_silver"].cover(2)
    s3_2 = analyses["example_s3"].cover(2)
    levels = [level.cover(k) for level, k in (
        (silver2, 2), (s3_2, 2), (s3_2, 3), (analyses["unipotent_rank2"], 2),
        (analyses["unipotent_rank2"], 3))]
    assert all(len(top.graph_map.graph.vertices) > 1 for top in levels)
    return levels


@pytest.fixture(scope="session")
def dense_translation():
    """Oracle for a path's translation in the dynamical quotient: the dense
    product of the quotient's projection with the path's H1 class."""
    def translation(quotient, tree, path):
        vec = path_class(path, tree)
        return tuple(sum(p * c for p, c in zip(row, vec))
                     for row in quotient.projection)
    return translation
