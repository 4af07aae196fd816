"""Span recorder for the traced run.

Public homolift functions are wrapped from outside the package: every
module attribute bound to the original function is rebound to the wrapper,
because modules such as ``homolift.search`` import ``abelian_cover`` or
``specialize`` by name.  Spans stay in memory as tuples
``(label, operation, parent span, start, end)`` and are written out once,
after the run.
"""

import gzip
import json
from time import perf_counter

FIRED = ("fired", sum, lambda a, r: r is not None)

# label (the attribute path inside homolift) -> (reported stats, size
# statistic).  A size statistic is (stat name, combine, f(args, result));
# combine folds the per-call values into one number.
SPANNED = {
    "graphs.parse_graph_map": (("calls", "self_s"), None),
    "homology.spanning_tree": (("self_s",), None),
    "homology.homology_action": (("self_s",), None),
    "homology.equivariant_quotient": (("self_s",), None),
    "linalg.smith_normal_form": (("calls", "self_s"), None),
    "linalg.charpoly_int": (("calls", "self_s"),
                            ("max_dim", max, lambda a, r: len(a[0]))),
    "transition.transition_graph": (("self_s",),
                                    ("max_arcs", max,
                                     lambda a, r: len(r.arcs))),
    "transition.shadow": (("self_s",), None),
    "geometry.hull_vertices": (("self_s",), None),
    "magnus.magnus_matrix": (("self_s",), None),
    "magnus.mat_mul": (("calls", "self_s"), None),
    "laurent.lattice_restriction": (("calls", "self_s"), None),
    "laurent.specialize": (("calls", "self_s"), None),
    "laurent.character_grid": ((), ("chars", sum, lambda a, r: len(r))),
    "covers.abelian_cover": (("self_s",),
                             ("max_degree", max, lambda a, r: r.degree)),
    "covers.lift_map": (("self_s",), None),
    "covers.h1_action_on_cover": (("self_s",), None),
    "covers.unit_circle_test": (("calls", "self_s"),
                                ("max_poly_degree", max,
                                 lambda a, r: len(a[0]) - 1)),
    "search.Analysis.of": (("calls", "self_s"), None),
    "search.check_l2": (("self_s",), FIRED),
    "search.check_anchored": (("self_s",), FIRED),
    "search.character_scan": (("self_s",), FIRED),
    "search.verify_certificate": (("calls", "self_s"), None),
}

# called too often for a span each: only counted
COUNTED = {
    "graphs.edge_by_name": "graphs.Graph.edge_by_name",
    "cyclotomic.magnitude_squared": "cyclotomic.Cyclotomic.magnitude_squared",
}


def metric_names():
    """Every per-layer metric ``layer_metrics`` reports, with its unit."""
    out = []
    for label, (stats, size) in SPANNED.items():
        for stat in stats:
            out.append((f"{label}.{stat}", "s" if stat == "self_s"
                        else "count"))
        if size is not None:
            out.append((f"{label}.{size[0]}", "count"))
    out += [(f"{label}.calls", "count") for label in COUNTED]
    return out


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals clipped to it.  ``spans`` holds (label, op, parent, t0, t1)
    with parent an index into ``spans`` or -1."""
    children = [[] for _ in spans]
    for span in spans:
        if span[2] >= 0:
            children[span[2]].append((span[3], span[4]))
    out = []
    for span, kids in zip(spans, children):
        t0, t1 = span[3], span[4]
        covered = 0.0
        end = t0
        for c0, c1 in sorted(kids):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((t1 - t0) - covered)
    return out


def _resolve(hl, path):
    """(owner object, attribute name) of a dotted path inside homolift."""
    owner = hl
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Recorder:
    """Wraps homolift's public functions and records one span per call."""

    def __init__(self, hl):
        self.hl = hl
        self.spans = []
        self.stack = []
        self.op = -1
        self.sizes = {}
        self.counts = dict.fromkeys(COUNTED, 0)
        self._undo = []

    def start_op(self, op):
        self.op = op
        self.stack.clear()  # a time-out may have left frames behind

    def _span(self, label, fn, size):
        spans, stack, sizes = self.spans, self.stack, self.sizes

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            t0 = perf_counter()
            # reserved as an empty span, so a time-out striking before the
            # call still leaves a well-formed record
            spans.append((label, self.op, parent, t0, t0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                if stack and stack[-1] == idx:
                    stack.pop()
                spans[idx] = (label, self.op, parent, t0, perf_counter())
            if size is not None:
                value = size[2](args, result)
                old = sizes.get(label)
                sizes[label] = value if old is None else size[1]((old, value))
            return result
        return wrapper

    def _counter(self, label, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def install(self):
        hl = self.hl
        modules = [hl] + [v for v in vars(hl).values()
                          if type(v) is type(hl)]
        for label, (_stats, size) in SPANNED.items():
            owner, attr = _resolve(hl, label)
            original = vars(owner)[attr]
            if isinstance(original, staticmethod):
                self._set(owner, attr, staticmethod(
                    self._span(label, original.__func__, size)))
                continue
            wrapped = self._span(label, original, size)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)
        for label, path in COUNTED.items():
            owner, attr = _resolve(hl, path)
            original = vars(owner)[attr]
            if isinstance(original, property):
                self._set(owner, attr,
                          property(self._counter(label, original.fget)))
            else:
                self._set(owner, attr, self._counter(label, original))

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def layer_metrics(self):
        """The values of ``metric_names()``, from the spans and counters."""
        spans = self.spans
        calls = {}
        own = {}
        for span, s in zip(spans, self_times(spans)):
            calls[span[0]] = calls.get(span[0], 0) + 1
            own[span[0]] = own.get(span[0], 0.0) + s
        out = {}
        for label, (stats, size) in SPANNED.items():
            if "calls" in stats:
                out[f"{label}.calls"] = calls.get(label, 0)
            if "self_s" in stats:
                out[f"{label}.self_s"] = own.get(label, 0.0)
            if size is not None:
                out[f"{label}.{size[0]}"] = int(self.sizes.get(label, 0))
        for label, n in self.counts.items():
            out[f"{label}.calls"] = n
        return out

    def write(self, path):
        """Gzipped JSON lines, one per span: label, operation, parent,
        start, end, with times in seconds from the first span."""
        base = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for label, op, parent, t0, t1 in self.spans:
                fh.write(json.dumps([label, op, parent, round(t0 - base, 7),
                                     round(t1 - base, 7)]) + "\n")

