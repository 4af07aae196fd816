"""The decorated transition graph of a graph self-map.

Nodes are the edges of the underlying graph; each traversal of edge j inside
the image of edge i contributes one arc i -> j, decorated with its ordinal,
its position in the image, its sign, and the translation of its prefix in
the dynamical quotient: the running sum of the quotient's per-edge cocycle
along the image.  The prefix is the image's steps before the traversal,
including the reversed step for a negative traversal, so it always ends at
the origin of edge j; it is determined by the position and the sign, so
only the tests spell it out (``tests/oracles.py``).  The graph is its arcs:
the traversal count matrix is built from them only for the displayed
dilatation.

Simple cycles, the rational polytope spanned by their normalized
translations, its vertex subgraphs, per-vertex stability and the growth
rate all live here.  Growth rate 1 is decided exactly from the strongly
connected components that the cycle search also reads (``_growth_is_one``).
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import geometry, magnus
from .covers import spectral_radius
from .errors import ResourceLimitError, ValidationError

DEFAULT_CYCLE_CAP = 10 ** 6


@dataclass(frozen=True)
class Arc:
    source: int          # node index (edge of the base graph)
    target: int
    dec: int             # 1-based ordinal among traversals of the target edge
    step_index: int      # 0-based position inside the image path
    sign: int
    translation: tuple


@dataclass(frozen=True)
class TransitionGraph:
    nodes: tuple          # edge names, declaration order
    dim: int
    arcs: tuple
    graph_map: object
    _cache: dict = field(default_factory=dict, compare=False, repr=False)


def transition_graph(f, q):
    """The transition graph of ``f``, with translations in the dynamical
    quotient ``q``: a positive step's arc takes the cocycle sum before the
    step, a negative step's the sum after it."""
    nodes = tuple(e.name for e in f.graph.edges)
    index = {name: i for i, name in enumerate(nodes)}
    arcs = []
    for i, name in enumerate(nodes):
        before = (0,) * q.rank
        dec = {}
        for idx, (target, direction) in enumerate(f.edge_image[name].steps):
            j = index[target]
            dec[j] = dec.get(j, 0) + 1
            after = tuple(x + direction * c
                          for x, c in zip(before, q.cocycle[target]))
            arcs.append(Arc(i, j, dec[j], idx, direction,
                            before if direction > 0 else after))
            before = after
    return TransitionGraph(nodes, q.rank, tuple(arcs), f)


def count_matrix(transition):
    """The unsigned traversal counts: entry (i, j) is the number of arcs
    i -> j."""
    n = len(transition.nodes)
    counts = [[0] * n for _ in range(n)]
    for arc in transition.arcs:
        counts[arc.source][arc.target] += 1
    return counts


@dataclass(frozen=True)
class Cycle:
    arc_indices: tuple
    length: int
    sign: int
    translation: tuple
    normalized: tuple     # translation / length, Fractions


def simple_cycles(transition, cap=DEFAULT_CYCLE_CAP):
    """All simple directed cycles (no repeated node), Johnson's algorithm.

    Each round moves the start s to the least node of the least strongly
    connected component among the nodes >= s that carries a cycle, and
    searches for the cycles through s inside that component only: every
    other node starts blocked.  Deterministic order: by smallest node, then
    discovery order.  Raises ResourceLimitError beyond the cap rather than
    truncating.  The list is enumerated once per transition graph; a later
    call checks its cap against the stored count.
    """
    cached = transition._cache.get("cycles")
    if cached is not None:
        if len(cached) > cap:
            raise ResourceLimitError(f"simple cycle count exceeds cap {cap}")
        return cached
    n = len(transition.nodes)
    adj = _adjacency(transition)
    out = []
    s = 0
    while (component := min(_cyclic_components(adj, s), key=min,
                            default=None)) is not None:
        s = min(component)
        blocked = [v not in component or v == s for v in range(n)]
        bsets = [set() for _ in range(n)]
        arc_stack = []
        # one frame per node on the current path: node, next arc position,
        # whether a cycle was found below it
        frames = [[s, 0, False]]
        while frames:
            frame = frames[-1]
            v, pos, found = frame
            if pos < len(adj[v]):
                frame[1] += 1
                aidx, w = adj[v][pos]
                if w == s:
                    seq = tuple(arc_stack) + (aidx,)
                    out.append(_make_cycle(transition, seq))
                    if len(out) > cap:
                        raise ResourceLimitError(
                            f"simple cycle count exceeds cap {cap}")
                    frame[2] = True
                elif not blocked[w]:
                    arc_stack.append(aidx)
                    blocked[w] = True
                    frames.append([w, 0, False])
                continue
            frames.pop()
            if found:
                # unblock v and, through the B sets, everything waiting on it
                blocked[v] = False
                todo = [v]
                while todo:
                    u = todo.pop()
                    for w in bsets[u]:
                        if blocked[w]:
                            blocked[w] = False
                            todo.append(w)
                    bsets[u].clear()
            else:
                for _aidx, w in adj[v]:
                    bsets[w].add(v)
            if frames:
                arc_stack.pop()
                frames[-1][2] |= found
        s += 1
    transition._cache["cycles"] = out
    return out


def _adjacency(transition):
    """``adj[v]`` lists the (arc index, target) pairs leaving node v."""
    adj = [[] for _ in transition.nodes]
    for idx, arc in enumerate(transition.arcs):
        adj[arc.source].append((idx, arc.target))
    return adj


def _cyclic_components(adj, s):
    """The strongly connected components among the nodes >= s that carry a
    cycle (more than one node, or a loop), each as a set, in the order
    Tarjan's algorithm, on explicit stacks, completes them; ``adj`` is
    ``_adjacency``'s."""
    index, low, on_stack = {}, {}, set()
    stack = []
    for root in range(s, len(adj)):
        if root in index:
            continue
        frames = [(root, iter(adj[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while frames:
            v, targets = frames[-1]
            for _aidx, w in targets:
                if w >= s and w not in index:
                    frames.append((w, iter(adj[w])))
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] < index[v]:
                    continue
                component = set()
                while v not in component:
                    component.add(stack.pop())
                on_stack -= component
                if len(component) > 1 or any(w == v for _a, w in adj[v]):
                    yield component


def _make_cycle(transition, arc_indices):
    sign = 1
    trans = (0,) * transition.dim
    for i in arc_indices:
        arc = transition.arcs[i]
        sign *= arc.sign
        trans = tuple(x + y for x, y in zip(trans, arc.translation))
    k = len(arc_indices)
    normalized = tuple(Fraction(x, k) for x in trans)
    return Cycle(tuple(arc_indices), k, sign, trans, normalized)


@dataclass(frozen=True)
class ShadowPolytope:
    ambient_dim: int
    dim: int
    vertices: tuple       # sorted tuples of Fractions
    generators: dict      # vertex -> tuple of cycle indices achieving it


def shadow(transition, cap=DEFAULT_CYCLE_CAP):
    """Convex hull of normalized translations of simple cycles, exact;
    built once per transition graph, and the cap checked on every call."""
    cycles = simple_cycles(transition, cap)
    if "shadow" not in transition._cache:
        verts = geometry.hull_vertices([c.normalized for c in cycles])
        gens = {v: tuple(i for i, c in enumerate(cycles) if c.normalized == v)
                for v in verts}
        transition._cache["shadow"] = ShadowPolytope(
            transition.dim, max(geometry.affine_dimension(verts), 0),
            tuple(verts), gens)
    return transition._cache["shadow"]


@dataclass(frozen=True)
class SubgraphSelection:
    data: tuple           # the shadow vertex the arcs were selected by
    arc_indices: frozenset


def vertex_subgraph(transition, u, cap=DEFAULT_CYCLE_CAP):
    u = tuple(Fraction(x) for x in u)
    poly = shadow(transition, cap)
    if u not in poly.vertices:
        raise ValidationError(f"{u} is not a vertex of the shadow polytope")
    cycles = simple_cycles(transition, cap)
    arcs = frozenset(i for j in poly.generators[u]
                     for i in cycles[j].arc_indices)
    return SubgraphSelection(u, arcs)


def subgraph_matrix(transition, selection):
    return magnus.arcs_matrix(
        transition, (transition.arcs[i] for i in selection.arc_indices))


def is_stable(matrix):
    """Not nilpotent, decided by traces of powers up to the size.

    Over a characteristic-zero integral domain, vanishing of the first m
    power traces forces nilpotency, so this test is exact.
    """
    return any(not magnus.trace_power(matrix, k).is_zero()
               for k in range(1, matrix.size + 1))


def _growth_is_one(transition):
    """Whether the count matrix C has spectral radius at most 1 (growth rate
    1, as edge images are non-empty): in each cyclic strongly connected
    component, every node has exactly one arc into the component, counted
    with multiplicity.

    rho(C) is the largest spectral radius of the components' blocks, and an
    acyclic node's block is 0.  A cyclic block is irreducible, and its rows
    sum to at least 1, as each node lies on a cycle in it; by
    Perron-Frobenius its radius is at least its least row sum, with equality
    only when all row sums are equal.  Linear in the arcs."""
    adj = _adjacency(transition)
    return all(sum(w in component for _a, w in adj[v]) == 1
               for component in _cyclic_components(adj, 0)
               for v in component)


def dilatation(transition):
    """Spectral radius of the unsigned traversal count matrix; exactly 1.0
    when the growth is 1."""
    if not transition.nodes:
        return 0.0
    if _growth_is_one(transition):
        return 1.0
    return spectral_radius(count_matrix(transition))


@dataclass(frozen=True)
class DimensionDiagnostic:
    mode: str             # "surface" or "free"
    shadow_dim: int
    quotient_rank: int
    boundary_count: int
    expected_dim: int
    matches: bool
    applicable: bool      # exponential growth is necessary for the formula
    note: str


def dimension_diagnostic(transition, poly):
    """Compare the polytope dimension against the rank formula; advisory.

    Surface mode (boundary count given): expected rank + 1 - b; free mode:
    expected rank.  Inputs with dilatation 1 are flagged as outside the
    formula's hypotheses rather than as mismatches.
    """
    b = transition.graph_map.boundary_count
    rank = transition.dim
    applicable = not _growth_is_one(transition)
    if b is not None:
        mode = "surface"
        expected = rank + 1 - b
    else:
        mode = "free"
        expected = rank
    matches = poly.dim == expected
    if not applicable:
        note = "growth rate is 1; dimension formula assumes exponential growth"
    elif matches:
        note = "dimension matches"
    else:
        note = f"dimension {poly.dim} differs from expected {expected}"
    return DimensionDiagnostic(mode, poly.dim, rank,
                               -1 if b is None else b,
                               expected, matches, applicable, note)
