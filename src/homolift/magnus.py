"""The equivariant Magnus matrix: a square matrix over the group ring of the
dynamical quotient, assembled from transition-graph arc decorations.  Row i,
column j collects sign * translation-monomial over the arcs from edge i to
edge j.  The matrix stores only its nonzero terms, keyed by (row, column,
exponent); the dense rows are a view for display and for entrywise
specialization at a character.

Traces of exact powers live here too: the criteria read them, and the
averaging identity that relates them to a cover's chain action is the
tests' reference (``tests/oracles.py``), with the characteristic
polynomial over the group ring.
"""

from dataclasses import dataclass, field
from functools import cached_property
from operator import add

from .errors import DimensionMismatchError
from .laurent import LaurentElement, specialize


@dataclass(frozen=True)
class MagnusMatrix:
    size: int
    dim: int
    edge_order: tuple     # edge names indexing rows/columns
    terms: dict           # (row, column, exponent) -> nonzero coefficient
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __eq__(self, other):
        if not isinstance(other, MagnusMatrix):
            return NotImplemented
        return (self.size == other.size and self.dim == other.dim
                and self.terms == other.terms)

    @cached_property
    def entries(self):
        """Dense size x size rows of LaurentElements, built on first read."""
        rows = [[{} for _ in range(self.size)] for _ in range(self.size)]
        for (i, j, v), c in self.terms.items():
            rows[i][j][v] = c
        return tuple(tuple(LaurentElement._raw(self.dim, t) for t in row)
                     for row in rows)

    def to_text_rows(self):
        return [[e.to_text() for e in row] for row in self.entries]


def magnus_matrix(transition):
    """Assemble the matrix from a transition graph's arcs."""
    return arcs_matrix(transition, transition.arcs)


def arcs_matrix(transition, arcs):
    """The matrix of some of a transition graph's arcs: entry (i, j) sums
    sign * X^translation over the given arcs from edge i to edge j."""
    terms = {}
    for arc in arcs:
        key = (arc.source, arc.target, arc.translation)
        terms[key] = terms.get(key, 0) + arc.sign
    return MagnusMatrix(len(transition.nodes), transition.dim,
                        transition.nodes,
                        {key: c for key, c in terms.items() if c})


def mat_mul(a, b):
    """Product of the two term lists, with b's terms grouped by row once."""
    if a.dim != b.dim or a.size != b.size:
        raise DimensionMismatchError("matrix shapes/dimensions differ")
    rows_b = {}
    for (t, j, v), c in b.terms.items():
        rows_b.setdefault(t, []).append((j, v, c))
    out = {}
    for (i, t, v1), c1 in a.terms.items():
        for j, v2, c2 in rows_b.get(t, ()):
            key = (i, j, tuple(map(add, v1, v2)))
            out[key] = out.get(key, 0) + c1 * c2
    return MagnusMatrix(a.size, a.dim, a.edge_order,
                        {key: c for key, c in out.items() if c})


def trace(a):
    acc = {}
    for (i, j, v), c in a.terms.items():
        if i == j:
            acc[v] = acc.get(v, 0) + c
    return LaurentElement(a.dim, acc)


def trace_power(a, k):
    """trace(A^k) from the matrix's one trace sequence, extended on demand.

    The cache keeps the traces of A^1..A^n and only the latest power A^n, so
    a matrix held across a search costs one power, not all of them.
    """
    if k < 1:
        raise ValueError("exponent must be >= 1")
    traces = a._cache.get("traces")
    if traces is None:
        traces = a._cache["traces"] = [trace(a)]
        a._cache["power"] = a
    while len(traces) < k:
        power = a._cache["power"] = mat_mul(a._cache["power"], a)
        traces.append(trace(power))
    return traces[k - 1]


def specialize_matrix(a, chi):
    """Entrywise specialization; exact (cyclotomic) when the character is."""
    if a.dim != chi.dim:
        raise DimensionMismatchError("matrix and character dimensions differ")
    return [[specialize(a.entries[i][j], chi) for j in range(a.size)]
            for i in range(a.size)]
