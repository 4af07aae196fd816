"""The benchmark's workloads: seeded operation lists with known answers.

Each workload is a closed loop with one client: the runner executes the
operations in list order, one at a time, cycling through the list.  The
operations call only homolift's public functions.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import generator

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
ANSWERS = HERE / "known_answers.json"
DEFAULT_SEED = 0

# rose_stream: random roses with the corpus maps visited after every block.
# The search stays at the base level: with cover degree 2, 3 or 4 allowed,
# some seeds' maps reach the character-grid blow-up on a cover level and
# fail (README.md, "Failure accounting"); unipotent_towers measures that.
ROSE_MAPS = 2048
ROSE_BLOCK = 32
ROSE_BOUNDS = {"max_cover_degree": 1, "max_tower_depth": 1}
# unipotent_towers: unipotent 3-roses plus the corpus maps whose direct
# check does not fire, all under one bounded search configuration
UNIPOTENT_MAPS = 512
UNIPOTENT_BLOCK = 8
UNIPOTENT_BOUNDS = {"max_cover_degree": 4, "max_tower_depth": 2}
UNIPOTENT_CORPUS = ("example_s3", "identity", "unipotent_silver",
                    "unipotent_rank2")
# cover_ladder: the oracle run next to the certificate files
ORACLE = ("example_s3", 256)
# per-operation time limits: far above every operation that finishes at
# all, far below the minutes the character-grid blow-up takes to fail
STREAM_TIME_LIMIT_S = 2.0
LADDER_TIME_LIMIT_S = 60.0


class VerdictMismatch(Exception):
    """An operation's output disagrees with its known answer or fails an
    independent check."""


@dataclass
class Op:
    label: str
    run: object          # () -> answer dict
    expect: dict = None  # known answer; None when not known for this seed


@dataclass
class Workload:
    name: str
    ops: list
    fixed: bool          # a fixed list: warmed up by one untimed run of
                         # the top rung, then measured in whole passes
    top_rung: str        # label of the fixed operation behind top_rung_s
    time_limit_s: float  # per operation; longer counts as a failure


def charpoly_digest(coeffs):
    return hashlib.sha256(
        ",".join(str(int(c)) for c in coeffs).encode()).hexdigest()


def witness_off_circle(coeffs):
    """Independent float check that the witness has a root off |z| = 1.

    A monic integer witness with no cyclotomic factor has a root of modulus
    above 1, so the largest root modulus is compared with 1 directly."""
    roots = np.roots(list(reversed([int(c) for c in coeffs])))
    return len(roots) > 0 and float(max(abs(roots))) > 1 + 1e-9


def certified(hl, cert):
    """Answer for an emitted certificate (or none), after a canonical-JSON
    round trip, ``verify_certificate`` and the independent witness check."""
    if cert is None:
        return {"found": False}
    text = json.dumps(cert.to_json(), sort_keys=True)
    back = hl.CoverCertificate.from_json(json.loads(text))
    if json.dumps(back.to_json(), sort_keys=True) != text:
        raise VerdictMismatch("canonical JSON round trip changed the "
                              "certificate")
    report = hl.verify_certificate(back)
    if not report["ok"]:
        raise VerdictMismatch("emitted certificate failed verification: "
                              + "; ".join(report["failures"]))
    if not witness_off_circle(back.witness_factor):
        raise VerdictMismatch("witness has no root off the unit circle")
    return {"found": True, "method": back.method,
            "tower": [s.quotient for s in back.tower],
            "degree": back.degree,
            "charpoly_sha256": charpoly_digest(back.charpoly)}


def analyze_and_search(hl, f, cfg):
    """The interactive per-map path: analyze, bounded search, certificate."""
    an = hl.Analysis.of(f)
    hl.shadow(an.transition, cfg.cycle_cap)
    hl.dilatation(an.transition)
    hits = [("direct", hl.check_direct(f, an)),
            ("l2", hl.check_l2(an.matrix, cfg)),
            ("anchored", hl.check_anchored(an.matrix, cfg)),
            ("character", hl.character_scan(an.matrix, cfg))]
    out = search(hl, f, cfg)
    out["fired"] = [name for name, hit in hits if hit is not None]
    return out


def search(hl, f, cfg):
    diagnostics = []
    out = certified(hl, hl.tower_search(f, cfg, diagnostics))
    out["conversion_failures"] = len(diagnostics)
    return out


def verify(hl, cert):
    return {"valid": hl.verify_certificate(cert)["ok"]}


def oracle(hl, f, max_degree):
    return certified(hl, hl.brute_force_oracle(f, max_degree))


def known_answers(name):
    """Recorded answers by operation label: corpus and oracle operations,
    and the default seed's maps as ``map:<i>``."""
    return json.loads(ANSWERS.read_text())[name]


def _stream(hl, maps, seed, corpus_names, block, op, cfg, answers):
    """The corpus maps, then ``block`` pairs of a reference map and a map of
    this seed, repeated.  The reference maps are the default seed's, the
    same in every run: they halve how much the seed's draw moves the
    figures, while the seed's own maps keep every run on new inputs."""
    corpus = [(f"corpus:{c}", hl.parse_graph_map(hl.corpus.text(c)))
              for c in corpus_names]
    ops = []
    for i, (ref, text) in enumerate(zip(maps(DEFAULT_SEED), maps(seed))):
        if i % block == 0:
            ops += [Op(label, partial(op, hl, f, cfg), answers.get(label))
                    for label, f in corpus]
        known = answers.get(f"map:{i}")
        ops.append(Op(f"ref:{i}", partial(op, hl, hl.parse_graph_map(ref),
                                          cfg), known))
        ops.append(Op(f"map:{i}", partial(op, hl, hl.parse_graph_map(text),
                                          cfg),
                      known if seed == DEFAULT_SEED else None))
    return ops


def rose_stream(hl, seed, answers):
    ops = _stream(hl, partial(generator.rose_maps, count=ROSE_MAPS), seed,
                  hl.corpus.names(), ROSE_BLOCK, analyze_and_search,
                  hl.SearchConfig(**ROSE_BOUNDS), answers)
    return Workload("rose_stream", ops, False, "corpus:example_s3",
                    STREAM_TIME_LIMIT_S)


def unipotent_towers(hl, seed, answers):
    ops = _stream(hl, partial(generator.unipotent_maps,
                              count=UNIPOTENT_MAPS), seed,
                  UNIPOTENT_CORPUS, UNIPOTENT_BLOCK, search,
                  hl.SearchConfig(**UNIPOTENT_BOUNDS), answers)
    return Workload("unipotent_towers", ops, False, "corpus:example_s3",
                    STREAM_TIME_LIMIT_S)


def cover_ladder(hl, seed, answers):
    ops = []
    for entry in json.loads((FIXTURES / "ladder.json").read_text())[
            "certificates"]:
        cert = hl.CoverCertificate.from_json(
            json.loads((FIXTURES / entry["file"]).read_text()))
        if charpoly_digest(cert.charpoly) != entry["charpoly_sha256"]:
            raise ValueError(f"fixture {entry['file']} does not match "
                             f"ladder.json")
        label = f"ladder:{entry['file'].removesuffix('.json')}"
        ops.append(Op(label, partial(verify, hl, cert),
                      {"valid": entry["expect"] == "valid"}))
    name, degree = ORACLE
    label = f"oracle:{name}"
    ops.append(Op(label, partial(oracle, hl,
                                 hl.parse_graph_map(hl.corpus.text(name)),
                                 degree), answers.get(label)))
    random.Random(f"ladder:{seed}").shuffle(ops)
    return Workload("cover_ladder", ops, True,
                    "ladder:unipotent_silver-192", LADDER_TIME_LIMIT_S)


WORKLOADS = {"rose_stream": rose_stream,
             "unipotent_towers": unipotent_towers,
             "cover_ladder": cover_ladder}
