"""Command-line front end.

Subcommands orchestrate library calls and print either a human summary or,
with --json, canonical JSON (sorted keys, fixed indentation) so identical
inputs produce byte-identical output.  No mathematics lives here.

Exit codes: 0 success / certificate found, 1 computation or verification
error, 2 usage error, 3 search exhausted its bounds without a certificate.
"""

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import corpus
from .covers import CoverCertificate
from .errors import CertificateError, HomoliftError
from .graphs import check_immersion, parse_graph_map
from .search import (Analysis, SearchConfig, character_scan, check_anchored,
                     check_direct, check_l2, input_digest, tower_search,
                     verify_certificate)
from .transition import (dilatation, dimension_diagnostic, is_stable, shadow,
                         simple_cycles, subgraph_matrix, vertex_subgraph)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3


def _read(path):
    """The file's text, decoded as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise HomoliftError(f"{path} is not UTF-8 text: {exc.reason} at "
                            f"byte {exc.start}") from None


def _load_map(spec):
    if spec.startswith("corpus:"):
        name = spec.split(":", 1)[1]
        if name not in corpus.CORPUS:
            raise HomoliftError(
                f"unknown corpus example {name!r}; try the corpus subcommand")
        return parse_graph_map(corpus.text(name)), spec
    return parse_graph_map(_read(spec)), spec


def _emit(obj, as_json, human_lines, out):
    if as_json:
        out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    else:
        for line in human_lines:
            out.write(line + "\n")


def _frac_str(x):
    return str(Fraction(x))


def _cycle_arcs(transition, cycle):
    out = []
    for idx in cycle.arc_indices:
        arc = transition.arcs[idx]
        out.append(f"{transition.nodes[arc.source]}->"
                   f"{transition.nodes[arc.target]}#{arc.dec}")
    return out


def _shadow_report(an, cap):
    poly = shadow(an.transition, cap)
    cycles = simple_cycles(an.transition, cap)
    vertices = [[_frac_str(x) for x in v] for v in poly.vertices]
    generators = {}
    stability = []
    for v in poly.vertices:
        key = "(" + ", ".join(_frac_str(x) for x in v) + ")"
        gens = [_cycle_arcs(an.transition, cycles[i])
                for i in poly.generators[v]]
        generators[key] = gens
        mat = subgraph_matrix(an.transition,
                              vertex_subgraph(an.transition, v, cap))
        stability.append({"vertex": [_frac_str(x) for x in v],
                          "stable": is_stable(mat)})
    integral = all(Fraction(x).denominator == 1 for v in poly.vertices
                   for x in v)
    report = {
        "ambient_dimension": poly.ambient_dim,
        "dimension": poly.dim,
        "vertices": vertices,
        "generating_cycles": generators,
        "stability": stability,
        "integral_vertices": integral,
    }
    if not integral:
        report["note"] = ("vertices are not integral; analyze a power of the "
                          "map to clear denominators")
    return report, poly


def _finding_json(finding):
    return None if finding is None else finding.to_json()


def _analysis_report(spec, an, cfg):
    f = an.graph_map
    poly_report, poly = _shadow_report(an, cfg.cycle_cap)
    diag = dimension_diagnostic(an.transition, poly)
    report = {
        "input": {
            "source": spec,
            "digest": input_digest(f),
            "vertices": len(f.graph.vertices),
            "edges": len(f.graph.edges),
            "boundary": f.boundary_count,
        },
        "homology": {
            "rank": an.action.rank,
            "action": [list(r) for r in an.action.matrix],
            "quotient_rank": an.quotient.rank,
            "projection": [list(r) for r in an.quotient.projection],
            "cocycle": {e: list(v) for e, v in an.quotient.cocycle.items()},
        },
        "magnus": {
            "size": an.matrix.size,
            "entries": an.matrix.to_text_rows(),
        },
        "shadow": poly_report,
        "dimension_diagnostic": {
            "mode": diag.mode,
            "shadow_dim": diag.shadow_dim,
            "expected_dim": diag.expected_dim,
            "matches": diag.matches,
            "applicable": diag.applicable,
            "note": diag.note,
        },
        "dilatation": round(dilatation(an.transition), 9),
        "immersion_clean": check_immersion(f, 4).is_clean,
        "criteria": {
            "direct": _finding_json(check_direct(f, an)),
            "l2": _finding_json(check_l2(an.matrix, cfg)),
            "anchored": _finding_json(check_anchored(an.matrix, cfg)),
            "character": _finding_json(character_scan(an.matrix, cfg)),
        },
        "certificate": None,
    }
    return report


def _stability_line(entry):
    return (f"vertex ({', '.join(entry['vertex'])}): "
            + ("stable" if entry["stable"] else "not stable"))


def _human_analysis(report):
    lines = [f"input {report['input']['source']}: "
             f"{report['input']['vertices']} vertex(es), "
             f"{report['input']['edges']} edge(s)",
             f"homology rank {report['homology']['rank']}, "
             f"quotient rank {report['homology']['quotient_rank']}",
             "magnus matrix:"]
    for row in report["magnus"]["entries"]:
        lines.append("  [" + ", ".join(row) + "]")
    sh = report["shadow"]
    lines.append(f"shadow: dimension {sh['dimension']}, vertices "
                 + "; ".join("(" + ", ".join(v) + ")" for v in sh["vertices"]))
    lines += ["  " + _stability_line(e) for e in sh["stability"]]
    lines.append(f"dilatation: {report['dilatation']}")
    dd = report["dimension_diagnostic"]
    lines.append(f"dimension diagnostic [{dd['mode']}]: {dd['note']}")
    crit = report["criteria"]
    fired = [k for k, v in crit.items() if v is not None]
    lines.append("criteria fired: " + (", ".join(fired) if fired else "none"))
    return lines


# command-line flag -> the SearchConfig field it sets, which gives its default
CONFIG_FLAGS = {
    "--max-power": "max_power",
    "--max-order": "max_character_order",
    "--max-lattice-index": "max_lattice_index",
    "--max-tower-depth": "max_tower_depth",
    "--max-degree": "max_cover_degree",
    "--cycle-cap": "cycle_cap",
}


def positive_int(text):
    """The bound flags' argument type: an int of at least 1, so a bound of 0
    or less is a usage error that names its flag."""
    value = int(text)
    if value < 1:
        raise ValueError(value)
    return value


# subcommand -> the bound flags it reads; no other bound flag is accepted
COMMAND_FLAGS = {
    "analyze": ("--max-power", "--max-order", "--max-lattice-index",
                "--cycle-cap"),
    "magnus": (),
    "shadow": ("--cycle-cap",),
    "stability": ("--cycle-cap",),
    "search": ("--max-power", "--max-order", "--max-lattice-index",
               "--max-tower-depth", "--max-degree"),
}


def _add_config_flags(p, flags):
    for flag in flags:
        p.add_argument(flag, type=positive_int, dest=CONFIG_FLAGS[flag],
                       metavar=flag[2:].upper().replace("-", "_"),
                       default=getattr(SearchConfig, CONFIG_FLAGS[flag]))


def _config_from(args):
    """The SearchConfig of the flags given; a field the subcommand takes no
    flag for keeps its default."""
    return SearchConfig(**{name: getattr(args, name)
                           for name in CONFIG_FLAGS.values()
                           if hasattr(args, name)})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="homolift",
        description="transition-graph invariants and homological eigenvalue "
                    "certificates for graph self-maps")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
            ("analyze", "full report: homology, magnus matrix, shadow, criteria"),
            ("magnus", "print the equivariant matrix"),
            ("shadow", "print the shadow polytope and stability data"),
            ("stability", "per-vertex stability flags"),
            ("search", "look for a certified cover"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to a .gm file, or corpus:NAME")
        p.add_argument("--json", action="store_true")
        _add_config_flags(p, COMMAND_FLAGS[name])
        if name == "search":
            p.add_argument("--emit-certificate", metavar="FILE")

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("certificate")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("corpus", help="list bundled examples or print one")
    p.add_argument("name", nargs="?")
    p.add_argument("--json", action="store_true")
    return parser


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, out, err)
    except HomoliftError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_ERROR


def _dispatch(args, out, err):
    if args.command == "corpus":
        if args.name:
            if args.name not in corpus.CORPUS:
                err.write(f"error: unknown corpus example {args.name!r}\n")
                return EXIT_ERROR
            out.write(corpus.text(args.name))
            return EXIT_OK
        entries = [{"name": n, "description": corpus.description(n)}
                   for n in corpus.names()]
        _emit({"examples": entries}, args.json,
              [f"{e['name']}: {e['description']}" for e in entries], out)
        return EXIT_OK

    if args.command == "verify":
        try:
            data = json.loads(_read(args.certificate))
        except RecursionError:
            raise CertificateError(
                "certificate JSON nests too deeply") from None
        cert = CoverCertificate.from_json(data)
        report = verify_certificate(cert)
        lines = [("certificate OK" if report["ok"] else "certificate INVALID")]
        lines += [f"  {c['name']}: {'ok' if c['ok'] else 'FAIL ' + c['detail']}"
                  for c in report["checks"]]
        _emit(report, args.json, lines, out)
        return EXIT_OK if report["ok"] else EXIT_ERROR

    f, spec = _load_map(args.input)
    cfg = _config_from(args)
    an = Analysis.of(f)

    if args.command == "analyze":
        report = _analysis_report(spec, an, cfg)
        _emit(report, args.json, _human_analysis(report), out)
        return EXIT_OK

    if args.command == "magnus":
        report = {
            "input_digest": input_digest(f),
            "size": an.matrix.size,
            "quotient_rank": an.matrix.dim,
            "edges": list(an.matrix.edge_order),
            "entries": an.matrix.to_text_rows(),
        }
        lines = ["magnus matrix (rows are source edges):"]
        for name, row in zip(report["edges"], report["entries"]):
            lines.append(f"  {name}: [" + ", ".join(row) + "]")
        _emit(report, args.json, lines, out)
        return EXIT_OK

    if args.command == "shadow":
        report, _poly = _shadow_report(an, cfg.cycle_cap)
        report["input_digest"] = input_digest(f)
        lines = [f"shadow dimension {report['dimension']} "
                 f"in rank {report['ambient_dimension']}"]
        lines += ["  " + _stability_line(e) for e in report["stability"]]
        _emit(report, args.json, lines, out)
        return EXIT_OK

    if args.command == "stability":
        poly_report, poly = _shadow_report(an, cfg.cycle_cap)
        report = {"input_digest": input_digest(f),
                  "stability": poly_report["stability"]}
        lines = [_stability_line(e) for e in report["stability"]]
        _emit(report, args.json, lines, out)
        return EXIT_OK

    if args.command == "search":
        diagnostics = []
        cert = tower_search(f, cfg, diagnostics)
        if cert is None:
            bounds = {k: v for k, v in asdict(cfg).items() if k != "cycle_cap"}
            report = {"result": "none_within_bounds", "bounds": bounds,
                      "diagnostics": diagnostics}
            _emit(report, args.json,
                  ["no certificate within the configured bounds"]
                  + [f"note: {d}" for d in diagnostics], out)
            return EXIT_NOT_FOUND
        payload = cert.to_json()
        if diagnostics:
            payload["diagnostics"] = diagnostics
        if args.emit_certificate:
            Path(args.emit_certificate).write_text(
                json.dumps(cert.to_json(), indent=2, sort_keys=True) + "\n")
        lines = [
            "certificate found",
            f"  method: {cert.method}",
            "  tower: " + (" -> ".join(
                f"{s.quotient} (degree {s.degree})" for s in cert.tower)
                if cert.tower else "trivial (base graph)"),
            f"  total degree: {cert.degree}",
            f"  witness factor: {list(cert.witness_factor)}",
            f"  eigenvalue modulus: {cert.modulus:.6f}",
        ]
        _emit(payload, args.json, lines, out)
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
