#!/usr/bin/env python3
"""Write the benchmark's fixtures: ladder certificates and known answers.

Each rung is a ``homolift-certificate-1`` certificate for the reduction-mod-k
cover of a corpus map, built from public homolift functions and checked
with ``verify_certificate`` before it is written; one more file is a copy
of the smallest rung with one charpoly coefficient changed, which must be
rejected.  ``fixtures/ladder.json`` lists every file with its known answer
and the sha256 of its characteristic polynomial.

``known_answers.json`` holds, per workload and operation label, the answer
of every operation of the default seed that finished within the benchmark's
time limit: found or none, method, tower, degree and charpoly sha256 (and
the criteria that fired, on rose_stream).

Run from the repository root:
    python3 perfbench/make_fixtures.py [ladder | answers [workload ...]]
Without an argument everything is written; this takes several minutes,
while the benchmark itself only loads the files.
"""

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402
from env import import_homolift  # noqa: E402
from workloads import charpoly_digest  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# (corpus map, modulus k): the cover degree is k ** quotient_rank
RUNGS = [("unipotent_silver", 64), ("unipotent_silver", 128),
         ("unipotent_silver", 192), ("unipotent_rank2", 6),
         ("unipotent_rank2", 8)]
TAMPERED_FROM = "unipotent_silver-64"


def rung_certificate(hl, name, k):
    f = hl.parse_graph_map(hl.corpus.text(name))
    an = hl.Analysis.of(f)
    cover = hl.abelian_cover(f.graph, an.quotient, k)
    lifted = hl.lift_map(f, cover)
    cp = hl.linalg.charpoly_int(hl.h1_action_on_cover(lifted))
    verdict = hl.unit_circle_test(cp)
    return hl.CoverCertificate(
        input_digest=hl.input_digest(f),
        input_text=hl.serialize_graph_map(f),
        power=1,
        tower=(hl.TowerStep(f"H_f/{k}H_f", cover.degree, modulus=k),),
        degree=cover.degree,
        charpoly=tuple(cp),
        verdict=verdict.tag,
        witness_factor=verdict.witness,
        modulus=verdict.modulus,
        zero_multiplicity=verdict.zero_multiplicity,
        method="brute-force")


def write_ladder(hl):
    FIXTURES.mkdir(exist_ok=True)
    entries = []
    texts = {}
    for name, k in RUNGS:
        cert = rung_certificate(hl, name, k)
        report = hl.verify_certificate(cert)
        if not report["ok"]:
            sys.exit(f"{name} mod {k}: {report['failures']}")
        label = f"{name}-{cert.degree}"
        texts[label] = cert.to_json()
        entries.append({"file": f"{label}.json", "map": name,
                        "degree": cert.degree, "expect": "valid",
                        "charpoly_sha256": charpoly_digest(cert.charpoly)})
        print(f"{label}: charpoly degree {len(cert.charpoly) - 1}", flush=True)

    tampered = dict(texts[TAMPERED_FROM])
    cp = list(tampered["charpoly"])
    cp[len(cp) // 2] += 1
    tampered["charpoly"] = cp
    if hl.verify_certificate(hl.CoverCertificate.from_json(tampered))["ok"]:
        sys.exit("tampered certificate verified")
    texts["tampered"] = tampered
    entries.append({"file": "tampered.json", "map": "unipotent_silver",
                    "degree": tampered["degree"], "expect": "invalid",
                    "charpoly_sha256": charpoly_digest(cp)})

    for label, obj in texts.items():
        (FIXTURES / f"{label}.json").write_text(
            json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    (FIXTURES / "ladder.json").write_text(
        json.dumps({"certificates": entries}, indent=1) + "\n")


def record_answers(hl, names):
    """Answers of the default seed's operations, by label, for the named
    workloads; the other workloads keep their recorded answers."""
    signal.signal(signal.SIGALRM, run._on_alarm)
    out = (json.loads(workloads.ANSWERS.read_text())
           if workloads.ANSWERS.exists() else {})
    for name in names:
        answers = {}
        wl = workloads.WORKLOADS[name](hl, workloads.DEFAULT_SEED, {})
        for op in wl.ops:
            if (op.label in answers
                    or op.label.startswith(("ladder:", "ref:"))):
                continue
            outcome, seconds, answer = run.attempt(op, hl.HomoliftError,
                                                   wl.time_limit_s)
            if outcome == "ok":
                answer.pop("conversion_failures", None)
                answers[op.label] = answer
            else:
                print(f"{name} {op.label}: {outcome} after {seconds:.2f} s",
                      flush=True)
        out[name] = answers
        print(f"{name}: {len(answers)} answers", flush=True)
    workloads.ANSWERS.write_text(json.dumps(out, indent=0, sort_keys=True)
                                 + "\n")


def main(argv):
    hl = import_homolift()
    what = argv[1] if len(argv) > 1 else "all"
    if what in ("ladder", "all"):
        write_ladder(hl)
    if what in ("answers", "all"):
        record_answers(hl, argv[2:] or list(workloads.WORKLOADS))


if __name__ == "__main__":
    main(sys.argv)
