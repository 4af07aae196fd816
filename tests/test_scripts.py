import runpy
from pathlib import Path

from homolift import corpus

SCRIPTS = Path(__file__).parent.parent / "scripts"


def test_corpus_report_covers_every_example(capsys):
    # one block per corpus map, each ending in its search line and notes
    report = runpy.run_path(str(SCRIPTS / "run_corpus_report.py"))
    report["main"]()
    out = capsys.readouterr().out
    for name in corpus.names():
        assert f"\n{name}: {corpus.description(name)}\n" in out
    assert out.count("  search: ") == len(corpus.names())
    assert out.count("  note: depth 0: growth rate is 1") == 2
