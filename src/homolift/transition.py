"""The decorated transition graph of a graph self-map.

Nodes are the edges of the underlying graph; each traversal of edge j inside
the image of edge i contributes one arc i -> j, decorated with its ordinal,
its sign, the prefix path before the traversal (including the reversed step
for a negative traversal, so the prefix always ends at the origin of edge j),
and the translation of that prefix in the dynamical quotient: the running
sum of the quotient's per-edge cocycle along the image.

Simple cycles, the rational polytope spanned by their normalized
translations, its vertex subgraphs, per-vertex stability and the growth
rate all live here.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import geometry, magnus
from .covers import spectral_radius, unit_circle_test
from .errors import ResourceLimitError, ValidationError
from .graphs import EdgePath, empty_path
from .linalg import charpoly_int

DEFAULT_CYCLE_CAP = 10 ** 6


@dataclass(frozen=True)
class Arc:
    source: int          # node index (edge of the base graph)
    target: int
    dec: int             # 1-based ordinal among traversals of the target edge
    step_index: int      # 0-based position inside the image path
    sign: int
    prefix: EdgePath
    translation: tuple


@dataclass(frozen=True)
class TransitionGraph:
    nodes: tuple          # edge names, declaration order
    dim: int
    arcs: tuple
    counts: tuple         # counts[i][j] = number of arcs i -> j
    graph_map: object
    tree: object
    quotient: object
    _cache: dict = field(default_factory=dict, compare=False, repr=False)


def transition_graph(f, st, q):
    g = f.graph
    nodes = tuple(e.name for e in g.edges)
    index = {name: i for i, name in enumerate(nodes)}
    m = len(nodes)
    counts = [[0] * m for _ in range(m)]
    arcs = []
    for e in g.edges:
        i = index[e.name]
        img = f.edge_image[e.name]
        start_vertex = img.start(g)
        before = (0,) * q.rank
        for idx, (name, direction) in enumerate(img.steps):
            j = index[name]
            counts[i][j] += 1
            after = tuple(x + direction * c
                          for x, c in zip(before, q.cocycle[name]))
            if direction > 0:
                prefix_steps, translation = img.steps[:idx], before
            else:
                prefix_steps, translation = img.steps[:idx + 1], after
            prefix = (EdgePath(prefix_steps) if prefix_steps
                      else empty_path(start_vertex))
            arcs.append(Arc(
                source=i, target=j, dec=counts[i][j], step_index=idx,
                sign=1 if direction > 0 else -1,
                prefix=prefix, translation=translation))
            before = after
    return TransitionGraph(nodes, q.rank, tuple(arcs),
                           tuple(tuple(r) for r in counts), f, st, q)


@dataclass(frozen=True)
class Cycle:
    arc_indices: tuple
    length: int
    sign: int
    translation: tuple
    normalized: tuple     # translation / length, Fractions


def simple_cycles(transition, cap=DEFAULT_CYCLE_CAP):
    """All simple directed cycles (no repeated node), Johnson's algorithm.

    Deterministic order: by smallest node, then discovery order.  Raises
    ResourceLimitError beyond the cap rather than truncating.
    """
    cached = transition._cache.get("cycles")
    if cached is not None and transition._cache.get("cycle_cap") == cap:
        return cached
    n = len(transition.nodes)
    adj = [[] for _ in range(n)]
    for idx, arc in enumerate(transition.arcs):
        adj[arc.source].append(idx)
    out = []

    for s in range(n):
        blocked = [False] * n
        bsets = [set() for _ in range(n)]
        arc_stack = []
        # one frame per node on the current path: node, next arc position,
        # whether a cycle was found below it
        blocked[s] = True
        frames = [[s, 0, False]]
        while frames:
            frame = frames[-1]
            v, pos, found = frame
            if pos < len(adj[v]):
                frame[1] += 1
                aidx = adj[v][pos]
                w = transition.arcs[aidx].target
                if w == s:
                    seq = tuple(arc_stack) + (aidx,)
                    out.append(_make_cycle(transition, seq))
                    if len(out) > cap:
                        raise ResourceLimitError(
                            f"simple cycle count exceeds cap {cap}")
                    frame[2] = True
                elif w > s and not blocked[w]:
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
                for aidx in adj[v]:
                    w = transition.arcs[aidx].target
                    if w >= s:
                        bsets[w].add(v)
            if frames:
                arc_stack.pop()
                frames[-1][2] |= found
    transition._cache["cycles"] = out
    transition._cache["cycle_cap"] = cap
    return out


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
    """Convex hull of normalized translations of simple cycles, exact."""
    cycles = simple_cycles(transition, cap)
    d = transition.dim
    points = [c.normalized for c in cycles]
    verts = geometry.hull_vertices(points)
    dim = geometry.affine_dimension(verts) if verts else -1
    gens = {}
    for v in verts:
        gens[v] = tuple(i for i, c in enumerate(cycles) if c.normalized == v)
    return ShadowPolytope(d, max(dim, 0) if verts else 0, tuple(verts), gens)


@dataclass(frozen=True)
class SubgraphSelection:
    kind: str             # "extremal" or "vertex"
    data: tuple           # the functional, or the vertex
    arc_indices: frozenset
    max_value: Fraction = None


def vertex_subgraph(transition, u, cap=DEFAULT_CYCLE_CAP):
    u = tuple(Fraction(x) for x in u)
    poly = shadow(transition, cap)
    if u not in poly.vertices:
        raise ValidationError(f"{u} is not a vertex of the shadow polytope")
    cycles = simple_cycles(transition, cap)
    arcs = frozenset(i for c in cycles if c.normalized == u
                     for i in c.arc_indices)
    return SubgraphSelection("vertex", u, arcs)


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
    """Kronecker's exact test that the count matrix has spectral radius 1.

    Every edge image is non-empty, so the radius is at least 1, and it is
    at most 1 exactly when every eigenvalue is 0 or a root of unity.
    Decided once per transition graph: ``dilatation`` and
    ``dimension_diagnostic`` both ask.
    """
    cached = transition._cache.get("growth_is_one")
    if cached is None:
        cached = transition._cache["growth_is_one"] = unit_circle_test(
            charpoly_int(transition.counts)).all_on_circle
    return cached


def dilatation(transition):
    """Spectral radius of the unsigned traversal count matrix; exactly 1.0
    when the growth is 1."""
    if not transition.counts:
        return 0.0
    if _growth_is_one(transition):
        return 1.0
    return spectral_radius(transition.counts)


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
    q = transition.quotient
    applicable = not _growth_is_one(transition)
    if b is not None:
        mode = "surface"
        expected = q.rank + 1 - b
    else:
        mode = "free"
        expected = q.rank
    matches = poly.dim == expected
    if not applicable:
        note = "growth rate is 1; dimension formula assumes exponential growth"
    elif matches:
        note = "dimension matches"
    else:
        note = f"dimension {poly.dim} differs from expected {expected}"
    return DimensionDiagnostic(mode, poly.dim, q.rank,
                               -1 if b is None else b,
                               expected, matches, applicable, note)
