import hashlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homolift import corpus, linalg
from homolift.cli import CONFIG_FLAGS, main
from homolift.search import (GROWTH_ONE, Analysis, SearchConfig,
                             character_scan, check_anchored, check_direct,
                             check_l2, input_digest, tower_search)


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(args), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "example_s3.gm"
    path.write_text(corpus.text("example_s3"))
    return str(path)


def test_corpus_listing():
    code, out, _ = run("corpus")
    assert code == 0
    for name in ("example_s3", "golden_mean", "identity",
                 "unipotent_silver", "unipotent_rank2"):
        assert name in out


def test_corpus_print():
    code, out, _ = run("corpus", "golden_mean")
    assert code == 0 and out == corpus.text("golden_mean")
    code, _, err = run("corpus", "nope")
    assert code == 1 and "unknown" in err


def test_analyze_s3(s3_file):
    code, out, _ = run("analyze", s3_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["shadow"]["vertices"] == [["0", "0"], ["0", "1"]]
    assert report["magnus"]["entries"] == [["1*X2^1", "1 + -1*X1^1"],
                                           ["0", "1"]]
    assert report["criteria"]["direct"] is None
    # round-trips through JSON
    assert json.loads(json.dumps(report)) == report


def test_analyze_matches_library(s3_file):
    code, out, _ = run("analyze", s3_file, "--json")
    report = json.loads(out)
    f = corpus.load("example_s3")
    an = Analysis.of(f)
    cfg = SearchConfig()
    assert report["input"]["digest"] == input_digest(f)
    assert report["homology"]["action"] == [list(r) for r in an.action.matrix]
    assert report["homology"]["quotient_rank"] == an.quotient.rank
    assert report["magnus"]["entries"] == an.matrix.to_text_rows()
    lib = {
        "direct": check_direct(f, an),
        "l2": check_l2(an.matrix, cfg),
        "anchored": check_anchored(an.matrix, cfg),
        "character": character_scan(an.matrix, cfg),
    }
    for key, val in lib.items():
        got = report["criteria"][key]
        assert got == (None if val is None else val.to_json())


def test_magnus_subcommand():
    code, out, _ = run("magnus", "corpus:golden_mean", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["entries"] == [["1", "1"], ["1", "0"]]


def test_shadow_subcommand():
    code, out, _ = run("shadow", "corpus:example_s3", "--json")
    report = json.loads(out)
    assert report["dimension"] == 1
    assert report["integral_vertices"]
    assert all(e["stable"] for e in report["stability"])


def test_shadow_non_integral_note():
    code, out, _ = run("shadow", "corpus:unipotent_silver", "--json")
    report = json.loads(out)
    assert not report["integral_vertices"]
    assert "power" in report["note"]


def test_stability_subcommand():
    code, out, _ = run("stability", "corpus:exampLE_s3".lower(), "--json")
    report = json.loads(out)
    assert [e["stable"] for e in report["stability"]] == [True, True]


def test_search_golden(tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run("search", "corpus:golden_mean", "--json",
                       "--emit-certificate", str(cert_path))
    assert code == 0
    report = json.loads(out)
    assert report["witness_factor"] == [-1, -1, 1]
    assert abs(report["modulus"] - 1.618034) < 1e-6
    assert report["method"] == "direct"
    emitted = json.loads(cert_path.read_text())
    assert emitted["witness_factor"] == [-1, -1, 1]


def test_search_matches_library():
    code, out, _ = run("search", "corpus:unipotent_silver", "--json")
    assert code == 0
    report = json.loads(out)
    cert = tower_search(corpus.load("unipotent_silver"), SearchConfig())
    assert report == cert.to_json()


def test_search_none_within_bounds(s3_file):
    code, out, _ = run("search", s3_file, "--json",
                       "--max-degree", "64", "--max-tower-depth", "1")
    assert code == 3
    report = json.loads(out)
    assert report["result"] == "none_within_bounds"


@pytest.mark.parametrize("name", ["example_s3", "identity"])
def test_search_at_growth_one_says_why(name):
    # at the default bounds: growth rate 1 answers before any cover
    code, out, _ = run("search", f"corpus:{name}", "--json")
    assert code == 3
    report = json.loads(out)
    assert report["result"] == "none_within_bounds"
    assert report["diagnostics"] == [GROWTH_ONE]
    code, out, _ = run("search", f"corpus:{name}")
    assert code == 3 and f"note: {GROWTH_ONE}\n" in out


def test_verify_ok_and_tampered(tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run("search", "corpus:unipotent_silver", "--json",
                     "--emit-certificate", str(cert_path))
    assert code == 0
    code, out, _ = run("verify", str(cert_path))
    assert code == 0 and "certificate OK" in out
    data = json.loads(cert_path.read_text())
    data["charpoly"][0] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run("verify", str(bad), "--json")
    assert code == 1
    assert not json.loads(out)["ok"]


@pytest.fixture(scope="module")
def silver_cert():
    cert = tower_search(corpus.load("unipotent_silver"), SearchConfig())
    return cert.to_json()


@pytest.mark.parametrize("witness", [[1, 2], []])
def test_verify_non_monic_witness_is_invalid(tmp_path, silver_cert, witness):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(silver_cert, witness_factor=witness)))
    code, out, err = run("verify", str(path))
    assert code == 1 and not err
    assert "certificate INVALID" in out
    assert "witness-divides: FAIL stored witness is not monic" in out


@pytest.mark.parametrize("field, value", [
    ("modulus", "x"), ("modulus", 2.0), ("degree", "4"),
    ("basis", [[1, "a"], [0, 1]]), ("basis", 3)])
def test_verify_malformed_tower_step_is_error(tmp_path, silver_cert, field,
                                              value):
    data = json.loads(json.dumps(silver_cert))
    data["tower"][0][field] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, _, err = run("verify", str(path))
    assert code == 1
    assert err.startswith(f"error: tower step {field}")


@pytest.mark.parametrize("field, value, failed", [
    ("power", 7, "power"), ("zero_eigenvalues", 3, "zero-eigenvalues"),
    ("tower", [{"quotient": "H_f/3H_f", "degree": 2, "modulus": 2}],
     "tower-rebuild")])
def test_verify_rejects_tampered_values(tmp_path, silver_cert, field, value,
                                        failed):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(silver_cert, **{field: value})))
    code, out, err = run("verify", str(path))
    assert code == 1 and not err
    assert "certificate INVALID" in out and f"{failed}: FAIL" in out


@pytest.mark.parametrize("name, modulus", [("unipotent_silver", 10 ** 6),
                                           ("unipotent_silver", 10 ** 30),
                                           ("unipotent_silver", 2 ** 61 - 1),
                                           ("unipotent_rank2", 20000)])
def test_verify_refuses_a_huge_cover_before_listing_characters(
        tmp_path, monkeypatch, name, modulus):
    # the largest Galois orbit's prime count is known from the deck group's
    # exponent, so the cap is checked before its |G| characters are listed
    f = corpus.load(name)
    degree = modulus ** Analysis.of(f).quotient.rank
    data = dict(tower_search(f, SearchConfig()).to_json(), degree=degree,
                tower=[{"quotient": f"H_f/{modulus}H_f", "degree": degree,
                        "modulus": modulus}])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    # the exact coefficient bound's binomial is never evaluated: a lower
    # bound already needs more primes than the cap; and a prime order, whose
    # trial division would not finish, is refused before it is factored
    binomials, factored = [], []
    comb = linalg.comb
    monkeypatch.setattr(linalg, "comb",
                        lambda *args: binomials.append(args) or comb(*args))
    if modulus == 2 ** 61 - 1:
        def refuse(n):     # raise at once, rather than spend minutes on n
            factored.append(n)
            raise AssertionError(f"{n} is factored before the cap check")
        monkeypatch.setattr(linalg, "prime_factors", refuse)
    started = time.perf_counter()
    code, out, err = run("verify", str(path))
    assert time.perf_counter() - started < 15
    assert code == 1 and not out
    assert err == "error: charpoly: prime pool exhausted\n"
    assert binomials == [] and factored == []


MISSING = object()    # the field is deleted


@pytest.mark.parametrize("field, value", [
    ("witness_factor", [-1.2, -2, 1]), ("witness_factor", None),
    ("charpoly", ["x", 1]), ("charpoly", [1, True]), ("power", 1.0),
    ("degree", "2"), ("zero_eigenvalues", 0.5), ("modulus", "big"),
    ("tower", "abc"), ("tower", ["abc"]),
    ("tower", [{"quotient": "H_f/2H_f", "modulus": 2}]),
    ("format", MISSING), ("format", "homolift-certificate-9"),
    ("format", None), ("charpoly", MISSING), ("method", MISSING),
    ("input_text", 5), ("input_text", None), ("input_text", ["x"]),
    ("input_digest", 5), ("verdict", None), ("verdict", ["x"])])
def test_verify_malformed_field_is_error(tmp_path, silver_cert, field, value):
    data = {k: v for k, v in dict(silver_cert, **{field: value}).items()
            if v is not MISSING}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, out, err = run("verify", str(path))
    assert code == 1 and not out and err.count("\n") == 1
    assert err.startswith("error: certificate") or \
        err.startswith("error: tower step")
    if value is MISSING:
        assert err == f"error: certificate has no field {field}\n"
    elif field in ("input_text", "input_digest", "verdict"):
        assert err == f"error: certificate {field} {value!r} is not a string\n"


def test_verify_non_object_is_error(tmp_path, silver_cert):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps([silver_cert]))
    code, _, err = run("verify", str(path))
    assert code == 1 and err == "error: certificate is not a JSON object\n"
    path.write_text('{"a":' * 100000)     # nested past the parser's depth
    code, out, err = run("verify", str(path))
    assert code == 1 and not out and err.startswith("error: ")


# Every field verify reads, with the certificate's path to it; a value
# is replaced, or the field deleted (MISSING).  Integers stay below 1000
# because verify builds the cover a step modulus names.
TAMPERED = [("format",), ("input_digest",), ("input_text",), ("power",),
            ("tower",), ("degree",), ("charpoly",), ("verdict",),
            ("witness_factor",), ("modulus",), ("zero_eigenvalues",),
            ("method",), ("finding",), ("tower", 0), ("tower", 0, "quotient"),
            ("tower", 0, "degree"), ("tower", 0, "modulus")]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-999, 999) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.sampled_from(TAMPERED),
       value=JSON_VALUES | st.just(MISSING))
def test_verify_tampered_field_fails_cleanly(tmp_path, silver_cert, where,
                                             value):
    # a changed or deleted field fails verification, or is refused with one
    # error line; it never escapes main as an exception
    data = json.loads(json.dumps(silver_cert))
    holder = data
    for key in where[:-1]:
        holder = holder[key]
    key = where[-1]
    old = holder.get(key, MISSING) if isinstance(holder, dict) else holder[key]
    if old == value:
        return
    if value is MISSING:
        del holder[key]
    else:
        holder[key] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, out, err = run("verify", str(path))
    clean = ("certificate INVALID" in out and not err) or \
        (err.startswith("error: ") and err.count("\n") == 1)
    if key in ("method", "finding"):     # recorded, but not replayed
        assert code == 0 or (code == 1 and clean)
    else:
        assert code == 1 and clean


CORRUPTIONS = ["", "x", "->", ";", ":", "#", "0", "-1", "A", "v9", "map",
               "edges:", "boundary:"]


@st.composite
def gm_documents(draw):
    """Small `.gm` documents: 1-3 vertices (a rose half the time, so that
    many documents parse), 1-3 edges, images of 0-4 letters either way
    round, an optional boundary line, and now and then one token replaced
    by a stray one."""
    vertices = [f"v{i}" for i in range(draw(st.sampled_from((1, 1, 2, 3))))]
    names = "abc"[:draw(st.integers(1, 3))]
    ends = [(draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
            for _ in names]
    lines = ["vertices: " + " ".join(vertices),
             "edges: " + " ; ".join(f"{e}: {o} -> {t}"
                                    for e, (o, t) in zip(names, ends)),
             "base: v0"]
    if draw(st.booleans()):
        lines.append(f"boundary: {draw(st.integers(-1, 3))}")
    for e in names:
        word = draw(st.lists(st.sampled_from(names + names.upper()),
                             max_size=4))
        lines.append(f"map {e} -> " + " ".join(word))
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = \
            draw(st.sampled_from(CORRUPTIONS))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=gm_documents().map(str.encode) | st.binary(max_size=48))
def test_random_documents_exit_cleanly(tmp_path, doc):
    path = tmp_path / "fuzz.gm"
    path.write_bytes(doc)
    for argv in (("analyze", str(path), "--json"),
                 ("search", str(path), "--json", "--max-degree", "16"),
                 ("verify", str(path))):
        code, out, err = run(*argv)
        assert code in (0, 1, 2, 3), (argv, doc)
        assert code != 1 or err.startswith("error: "), (argv, doc, err)


def test_missing_file_is_error():
    code, _, err = run("analyze", "/nonexistent/file.gm")
    assert code == 1
    assert "error" in err


def test_byte_identical_json():
    for args in (("analyze", "corpus:example_s3", "--json"),
                 ("magnus", "corpus:unipotent_rank2", "--json"),
                 ("shadow", "corpus:golden_mean", "--json"),
                 ("stability", "corpus:unipotent_silver", "--json"),
                 ("search", "corpus:golden_mean", "--json"),
                 ("corpus", "--json")):
        c1, o1, _ = run(*args)
        c2, o2, _ = run(*args)
        assert c1 == c2 and o1 == o2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run("bogus-subcommand")
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", sorted(CONFIG_FLAGS))
@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_bound_flag_below_one_is_a_usage_error(capsys, flag, value):
    # argparse refuses the bound and names the flag, before any search
    with pytest.raises(SystemExit) as exc:
        run("search", "corpus:golden_mean", flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid positive_int value: '{value}'" in err
    assert "must be positive" not in err


def test_resource_cap_is_an_error_not_a_miss():
    # distinct from exit 3: hitting a cap is a loud failure
    code, _, err = run("analyze", "corpus:example_s3", "--cycle-cap", "1")
    assert code == 1
    assert "cap" in err


def test_search_with_a_degree_cap_past_float_range():
    # the cover-order bound is decided in integers, so a cap of 10^400
    # searches like the default one and finds the same certificate
    code, out, err = run("search", "corpus:unipotent_silver", "--json",
                         "--max-degree", "1" + "0" * 400)
    assert (code, err) == (0, "")
    assert out == run("search", "corpus:unipotent_silver", "--json")[1]


@pytest.mark.parametrize("flags", [(), ("--cycle-cap", "1000")],
                         ids=["default-cap", "cap-1000"])
def test_shadow_enumerates_cycles_and_builds_the_hull_once(monkeypatch,
                                                          flags):
    # the polytope's vertex subgraphs reuse its cycles and its hull, under
    # the cap the command was given
    from homolift import geometry, transition
    t = Analysis.of(corpus.load("unipotent_rank2")).transition
    count = len(transition.simple_cycles(t))
    made, hulls = [], []
    make_cycle, hull = transition._make_cycle, geometry.hull_vertices
    monkeypatch.setattr(transition, "_make_cycle",
                        lambda *args: made.append(1) or make_cycle(*args))
    monkeypatch.setattr(geometry, "hull_vertices",
                        lambda *args: hulls.append(1) or hull(*args))
    code, out, _ = run("shadow", "corpus:unipotent_rank2", "--json", *flags)
    assert code == 0
    assert len(json.loads(out)["stability"]) > 1
    assert len(made) == count and len(hulls) == 1


# sha256 of the canonical --json output and the exit code, per command line;
# any change to a corpus report's bytes must show up here
CLI_DIGESTS = [
    ("analyze corpus:example_s3 --json", 0,
     "62274ae8187f8d4e61986ceb3df6e540cdd9c7cd4d52b0ec05d9db6290f052d4"),
    ("magnus corpus:example_s3 --json", 0,
     "f3b045d5558e164835d2e33298f26a746750365d9d7761bf8c462983395b78f6"),
    ("shadow corpus:example_s3 --json", 0,
     "1cac6e3d19a7f91f114da233313be29fbd55f2e8c9bcf8021b50760a80ac72a6"),
    ("stability corpus:example_s3 --json", 0,
     "b03999f33e9f653d815f4751a644ce987ea2ff7c41c0d8119e2c06dfb8f08c45"),
    ("analyze corpus:golden_mean --json", 0,
     "f6c1e930f6d7654813e270c11944d83c84934faf67866c9da7bafb2688acda87"),
    ("magnus corpus:golden_mean --json", 0,
     "6eb258f17eab513e9fd706a3ae8d021f3f5d4e9cd1e9b72c5939d9d539f3ddd8"),
    ("shadow corpus:golden_mean --json", 0,
     "2bf41fc8e6e713075679857fb843aa8f0bb974f3d19e5c125695cf533ca16e5c"),
    ("stability corpus:golden_mean --json", 0,
     "5dd167cc36faba2beba12b99cd889b87efcf243de0240f0dad32f2cedbe9d79c"),
    ("analyze corpus:identity --json", 0,
     "136b0a7218567e52751c0a2f484d38ac563b37a6c874dbf373f6768ef02baa0f"),
    ("magnus corpus:identity --json", 0,
     "3631548f424d305ded0a38bd89166ff871ab7609741600a86a6d5fd5e57d2843"),
    ("shadow corpus:identity --json", 0,
     "165a9f001cdde427bd004ffa8f7f73a3729562df9e9131d81a55978d0e2d8274"),
    ("stability corpus:identity --json", 0,
     "e703d3c0917763923822a2715855b5c957b0d65291ec3e74867478a4832d2727"),
    ("analyze corpus:unipotent_rank2 --json", 0,
     "7f094a4622f2d9b6a9fa3297d198600cf55c320f9950b917b56774e50b4b06a2"),
    ("magnus corpus:unipotent_rank2 --json", 0,
     "5ce2770bd7fb436f4ea511cc0d6122a132d2d1a988098caf7dbf719c4e9f0002"),
    ("shadow corpus:unipotent_rank2 --json", 0,
     "e0d0cd8ef53d27a7d9b1a8890a30facb2ef0b790dd780898701420bf7945c20b"),
    ("stability corpus:unipotent_rank2 --json", 0,
     "2833cbec114461b4b37aad59fad997232b89b3d75ed7841e9526b7bd058cc446"),
    ("analyze corpus:unipotent_silver --json", 0,
     "98836049e6e75c4dad4aad78bec162ed5b3290ce4c9d198b5f96c84849644fe2"),
    ("magnus corpus:unipotent_silver --json", 0,
     "9e82123fd18dc7a28d349c432e52134c2b5c6d714782f3eaf3bfca42fab3ab6e"),
    ("shadow corpus:unipotent_silver --json", 0,
     "8acf333512c7fce687b8fd96835bb8b4cb8ae54413d3c9fdd1888e552946ef16"),
    ("stability corpus:unipotent_silver --json", 0,
     "3e04121e992d286cc04971dae17755ef90ef2a314fe5eb479dddfbf5721b259e"),
    ("search corpus:golden_mean --json", 0,
     "b1970910b8cc38d59b2ad3da84729b496dda450025f379bcbc5db8586f2e4a7e"),
    ("search corpus:unipotent_silver --json", 0,
     "00ac89535e3545713aa448fd778873b0c7ba6e30222929dc654122aff38e698f"),
    ("search corpus:unipotent_rank2 --json", 0,
     "62d6431fc6941e50ecbfc34de08720d41e0051232e8b7f730555981c56319b32"),
    ("search corpus:example_s3 --max-degree 64 --max-tower-depth 2 --json", 3,
     "9e9e3f5ef174c3a6819a771457d732dda7e12abdc63b8352e57c68e1bdffa384"),
    ("search corpus:identity --max-degree 64 --max-tower-depth 2 --json", 3,
     "9e9e3f5ef174c3a6819a771457d732dda7e12abdc63b8352e57c68e1bdffa384"),
]


@pytest.mark.parametrize("argv, code, digest", CLI_DIGESTS)
def test_corpus_json_digest(argv, code, digest):
    got, out, _ = run(*argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
