"""The equivariant Magnus matrix: a square matrix over the group ring of the
dynamical quotient, assembled from transition-graph arc decorations.  Row i,
column j collects sign * translation-monomial over the arcs from edge i to
edge j.  The matrix stores only its nonzero terms, keyed by (row, column,
exponent); the dense rows are a view for display and for entrywise
specialization at a character.

Traces of exact powers live here too.  The criteria read them from one
sequence per matrix (``trace_power``), formed from half powers with every
term packed into one int key, so that a product of two terms is one int
addition, and a longer sequence re-keys its stored power into a wider
packing.  The averaging identity that relates the traces to a cover's
chain action is the tests' reference (``tests/oracles.py``), with the
term-by-term product on exponent tuples and the characteristic polynomial
over the group ring.
"""

from dataclasses import dataclass, field
from functools import cached_property
from math import inf

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


class _PackedPowers:
    """A matrix packed for products, and its latest power A^n.

    A term (i, j, v) of A^n is one int key: the column j in the low
    ``col_bits`` bits, the row i in the next ``col_bits``, and above them
    one slot per coordinate of v, shifted by n times the matrix's minimum
    there so that it lies in [0, n * spread].  Every slot but the top one
    has ``(capacity * spread).bit_length()`` bits, so up to ``capacity``
    factors no slot carries into the next, and none borrows, as no shifted
    coordinate is negative: the exponent part of a product's key is the
    sum of its factors'.  The top slot has no neighbour to carry into.
    ``capacity`` is the largest n the slots hold, at least the one asked
    for, and unbounded when no slot below the top one spreads.

    ``power`` is (n, entries of A^n), the entries keyed by the transposed
    position (j, i) and listing (exponent part, coefficient) with no zero;
    ``factor[t]`` lists A's row t as (exponent part + column, coefficient).
    The slots are fixed: ``trace_power`` re-keys the power into a new,
    wider packing, each exponent part e as ``encode(n, 0, 0, decode(n, e))``.
    """

    __slots__ = ("col_bits", "slots", "capacity", "factor", "power")

    def __init__(self, a, capacity):
        vs = [v for _i, _j, v in a.terms]
        self.col_bits = (a.size - 1).bit_length()
        self.capacity = inf
        slots = []
        shift = 2 * self.col_bits
        for c in range(a.dim):
            lo = min((v[c] for v in vs), default=0)
            spread = max((v[c] for v in vs), default=0) - lo
            if c == a.dim - 1:
                slots.append((shift, -1, lo))
                break
            width = (capacity * spread).bit_length()
            slots.append((shift, (1 << width) - 1, lo))
            shift += width
            if spread:
                self.capacity = min(self.capacity,
                                    ((1 << width) - 1) // spread)
        self.slots = tuple(slots)
        self.factor = [[] for _ in range(a.size)]
        for (t, j, v), c in a.terms.items():
            self.factor[t].append((self.encode(1, 0, j, v), c))
        self.power = (1, _transposed_entries(
            {self.encode(1, i, j, v): c for (i, j, v), c in a.terms.items()},
            self.col_bits))

    def encode(self, n, i, j, v):
        return sum(((x - n * lo) << off
                    for x, (off, _m, lo) in zip(v, self.slots)),
                   (i << self.col_bits) | j)

    def decode(self, n, key):
        """The exponent vector of a key of A^n."""
        return tuple(((key >> off) & mask) + n * lo
                     for off, mask, lo in self.slots)


def _transposed_entries(terms, col_bits):
    """Packed terms grouped into entries keyed by the transposed position,
    zero coefficients dropped."""
    pos_mask = (1 << 2 * col_bits) - 1
    col_mask = (1 << col_bits) - 1
    out = {}
    for key, c in terms.items():
        if c:
            pos = key & pos_mask
            at = ((pos & col_mask) << col_bits) | (pos >> col_bits)
            out.setdefault(at, []).append((key - pos, c))
    return out


def mat_mul(p, factor, col_bits):
    """A^n times A on packed entries: entry (i, t) of the power against
    row t of the factor, one int addition per pair of terms."""
    col_mask = (1 << col_bits) - 1
    acc = {}
    for at, terms in p.items():
        row = (at & col_mask) << col_bits
        for key2, c2 in factor[at >> col_bits]:
            base = row + key2
            for e1, c1 in terms:
                k = e1 + base
                acc[k] = acc.get(k, 0) + c1 * c2
    return _transposed_entries(acc, col_bits)


def _trace_of_product(p, q, col_bits):
    """trace(PQ), the sum over i, j of P_ij Q_ji, keyed by exponent part,
    from both powers' entries.  For P = Q each pair of entries ij, ji with
    i != j is read once and counted twice."""
    col_mask = (1 << col_bits) - 1
    acc = {}
    square = p is q
    for at, terms in p.items():
        pos = ((at & col_mask) << col_bits) | (at >> col_bits)
        if square and pos > at:
            continue
        other = q.get(pos)
        if other is None:
            continue
        weight = 2 if square and pos != at else 1
        for e1, c1 in terms:
            c1 *= weight
            for e2, c2 in other:
                k = e1 + e2
                acc[k] = acc.get(k, 0) + c1 * c2
    return acc


def trace(a):
    """trace(A), read off the diagonal terms."""
    acc = {}
    for (i, j, v), c in a.terms.items():
        if i == j:
            acc[v] = acc.get(v, 0) + c
    return LaurentElement._raw(a.dim, {v: c for v, c in acc.items() if c})


def trace_power(a, k):
    """trace(A^k) from the matrix's one trace sequence, extended on demand.

    trace(A^k) = sum over i, j of (A^h)_ij (A^(k-h))_ji with h = ceil(k/2),
    so traces read in order need the products A^2..A^h only, h - 1 of
    them: trace 2h reads A^h twice, and trace 2h + 1 reads A^(h+1) and the
    A^h it was just formed from.  The cache keeps the traces read so far,
    the packed matrix and one power, the latest, so a matrix held across a
    search costs one power, not all of them.

    Terms are packed int keys (``_PackedPowers``) whose slots hold 2k
    factors for the largest k asked for so far; a larger k later repacks
    for 2k and re-keys the stored power, so no slot ever carries and no
    power is formed again.  The traces come back as LaurentElements with
    the exponent tuples of a term-by-term product.

    The cache is written only once a repacking or a trace is complete, so
    a call stopped partway (a time limit, Ctrl-C) leaves it as it was.
    """
    if k < 1:
        raise ValueError("exponent must be >= 1")
    traces = a._cache.setdefault("traces", [])
    if not traces:
        traces.append(trace(a))
    if len(traces) >= k:
        return traces[k - 1]
    state = a._cache.get("powers")
    if state is None:
        state = a._cache["powers"] = _PackedPowers(a, 2 * k)
    elif k > state.capacity:
        wider, (n, entries) = _PackedPowers(a, 2 * k), state.power
        wider.power = (n, {at: [(wider.encode(n, 0, 0, state.decode(n, e)),
                                 c) for e, c in terms]
                           for at, terms in entries.items()})
        state = a._cache["powers"] = wider
    while len(traces) < k:
        m = len(traces) + 1
        lower = upper = state.power
        if m % 2:
            upper = (lower[0] + 1, mat_mul(lower[1], state.factor,
                                           state.col_bits))
        acc = _trace_of_product(upper[1], lower[1], state.col_bits)
        t = LaurentElement._raw(a.dim, {state.decode(m, key): c
                                        for key, c in acc.items() if c})
        state.power = upper
        traces.append(t)
    return traces[k - 1]


def specialize_matrix(a, chi):
    """Entrywise specialization; exact (cyclotomic) when the character is."""
    if a.dim != chi.dim:
        raise DimensionMismatchError("matrix and character dimensions differ")
    return [[specialize(a.entries[i][j], chi) for j in range(a.size)]
            for i in range(a.size)]
