"""Finite graphs, oriented edge paths, and graph self-maps.

The `.gm` text format (one statement per line, ``#`` starts a comment):

    vertices: v0 v1
    edges: a: v0 -> v1 ; b: v1 -> v0
    base: v0
    boundary: 1          # optional metadata
    map a -> b a B

A lowercase token in a map line traverses the edge positively, the
all-uppercase token traverses it in reverse.  Edge names must be lowercase.
Edge images are stored literally: no free reduction is ever performed, since
the traversal counts of iterated images are the whole point.
"""

from collections import deque
from dataclasses import dataclass
from operator import add, sub

from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class Edge:
    name: str
    origin: str
    terminus: str


@dataclass(frozen=True)
class Graph:
    vertices: tuple
    edges: tuple          # tuple of Edge, declaration order
    base: str

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex identifiers")
        names = [e.name for e in self.edges]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate edge identifiers")
        vset = set(self.vertices)
        for e in self.edges:
            if e.origin not in vset:
                raise ValidationError(f"edge {e.name}: undeclared origin {e.origin}")
            if e.terminus not in vset:
                raise ValidationError(f"edge {e.name}: undeclared terminus {e.terminus}")
        if self.base not in vset:
            raise ValidationError(f"undeclared base vertex {self.base}")
        # the tree and the name index are built once; attributes, not
        # fields, so they stay out of the dataclass's equality and repr
        object.__setattr__(self, "_tree", tuple(_breadth_first_tree(self)))
        if len(self._tree) != len(self.vertices) - 1:
            raise ValidationError("graph is not connected")
        object.__setattr__(self, "_edge_by_name",
                           {e.name: e for e in self.edges})

    @property
    def edge_by_name(self):
        return self._edge_by_name

    @property
    def tree_edges(self):
        """The names of the spanning tree's edges (``tree_potential``)."""
        return frozenset(e.name for e, _d in self._tree)

    def step_endpoints(self, step):
        """(start, end) of a single traversal (edge name, direction)."""
        name, direction = step
        e = self.edge_by_name[name]
        return (e.origin, e.terminus) if direction > 0 else (e.terminus, e.origin)


def _breadth_first_tree(graph):
    """The steps (edge, direction) of the breadth-first spanning tree from
    the base, in the order they reach a new vertex; each vertex's
    incidences (+1 at the origin, -1 at the terminus) are scanned in edge
    declaration order.  O(V + E)."""
    incidence = {v: [] for v in graph.vertices}
    for e in graph.edges:
        incidence[e.origin].append((e, 1))
        incidence[e.terminus].append((e, -1))
    seen = {graph.base}
    queue = deque([graph.base])
    while queue:
        v = queue.popleft()
        for e, d in incidence[v]:
            w = e.terminus if d > 0 else e.origin
            if w not in seen:
                seen.add(w)
                queue.append(w)
                yield e, d


def tree_potential(graph, value, dim):
    """The potential P of an edge function: P(v) is the sum of the integer
    tuples ``value(edge name)``, of length ``dim``, along the spanning
    tree's path from the base to v, each counted with the sign of its
    traversal; so P(base) = 0 and P(t(e)) = P(o(e)) + value(e) on each tree
    edge e.  The tree is the breadth-first one the graph was checked
    connected with (``_breadth_first_tree``), so every tree sum is over the
    same paths.  A vertex -> tuple dict, in O(V * dim)."""
    out = {graph.base: (0,) * dim}
    for e, d in graph._tree:
        if d > 0:
            out[e.terminus] = tuple(map(add, out[e.origin], value(e.name)))
        else:
            out[e.origin] = tuple(map(sub, out[e.terminus], value(e.name)))
    return out


@dataclass(frozen=True)
class EdgePath:
    """A finite edge path: steps are (edge name, +1|-1).

    The empty path carries an explicit anchor vertex so that trivial prefix
    paths stay composable.
    """

    steps: tuple
    anchor: str = None  # required iff steps is empty

    def __post_init__(self):
        if not self.steps and self.anchor is None:
            raise ValidationError("empty path needs an anchor vertex")

    def __len__(self):
        return len(self.steps)

    def is_empty(self):
        return not self.steps

    def start(self, graph):
        if not self.steps:
            return self.anchor
        return graph.step_endpoints(self.steps[0])[0]

    def end(self, graph):
        if not self.steps:
            return self.anchor
        return graph.step_endpoints(self.steps[-1])[1]

    def validate(self, graph):
        prev_end = None
        for step in self.steps:
            name, direction = step
            if name not in graph.edge_by_name:
                raise ValidationError(f"path uses undeclared edge {name}")
            if direction not in (1, -1):
                raise ValidationError("step direction must be +1 or -1")
            a, b = graph.step_endpoints(step)
            if prev_end is not None and a != prev_end:
                raise ValidationError(f"non-composable path at edge {name}")
            prev_end = b
        if not self.steps and self.anchor not in graph.vertices:
            raise ValidationError(f"anchor {self.anchor} not a vertex")
        return self

    def has_backtrack(self):
        """First index i where step i is immediately undone by step i+1."""
        for i in range(len(self.steps) - 1):
            a, b = self.steps[i], self.steps[i + 1]
            if a[0] == b[0] and a[1] == -b[1]:
                return i
        return None


def empty_path(vertex):
    return EdgePath((), vertex)


@dataclass(frozen=True)
class GraphMap:
    """A self-map of a graph fixing the base vertex, edges to edge paths."""

    graph: Graph
    vertex_image: dict
    edge_image: dict
    boundary_count: int = None

    def __post_init__(self):
        g = self.graph
        if self.vertex_image.get(g.base) != g.base:
            raise ValidationError("map must fix the base vertex")
        vset = set(g.vertices)
        for v in g.vertices:
            if v not in self.vertex_image:
                raise ValidationError(f"no image for vertex {v}")
            if self.vertex_image[v] not in vset:
                raise ValidationError(f"vertex image of {v} undeclared")
        for e in g.edges:
            img = self.edge_image.get(e.name)
            if img is None:
                raise ValidationError(f"no image for edge {e.name}")
            if img.is_empty():
                raise ValidationError(f"image of edge {e.name} is empty")
            img.validate(g)
            if img.start(g) != self.vertex_image[e.origin]:
                raise ValidationError(
                    f"image of {e.name} starts at {img.start(g)}, "
                    f"expected {self.vertex_image[e.origin]}")
            if img.end(g) != self.vertex_image[e.terminus]:
                raise ValidationError(
                    f"image of {e.name} ends at {img.end(g)}, "
                    f"expected {self.vertex_image[e.terminus]}")

    def apply_to_path(self, path):
        """Image of an edge path, unreduced."""
        g = self.graph
        if path.is_empty():
            return empty_path(self.vertex_image[path.anchor])
        steps = []
        for name, direction in path.steps:
            img = self.edge_image[name]
            if direction > 0:
                steps.extend(img.steps)
            else:
                steps.extend((n, -d) for n, d in reversed(img.steps))
        return EdgePath(tuple(steps))


@dataclass(frozen=True)
class ImmersionReport:
    max_power: int
    backtracks: tuple  # (edge name, power, step index)

    @property
    def is_clean(self):
        return not self.backtracks


def check_immersion(f, max_power):
    """Scan f^k(e) for backtracks, all edges, k <= max_power.

    A train-track representative reports none; the scan is a diagnostic,
    never a constructor gate.
    """
    found = []
    for e in f.graph.edges:
        path = EdgePath(((e.name, 1),))
        for k in range(1, max_power + 1):
            path = f.apply_to_path(path)
            idx = path.has_backtrack()
            if idx is not None:
                found.append((e.name, k, idx))
                break
    return ImmersionReport(max_power, tuple(found))


# ---------------------------------------------------------------------------
# parsing / serialization


def _token_to_step(tok, edge_names, line_no, col):
    lower = tok.lower()
    if lower not in edge_names:
        raise ParseError(f"undeclared edge {tok!r}", line_no, col)
    if tok == lower:
        return (lower, 1)
    if tok == tok.upper():
        return (lower, -1)
    raise ParseError(f"mixed-case edge token {tok!r}", line_no, col)


def parse_graph_map(text):
    """Parse a `.gm` document into a validated GraphMap."""
    vertices = None
    edges = None
    base = None
    boundary = None
    map_lines = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = raw.index(stripped[0]) + 1
        if stripped.startswith("vertices:"):
            body = stripped[len("vertices:"):].replace(",", " ")
            vertices = tuple(body.split())
            if not vertices:
                raise ParseError("empty vertex list", line_no, col)
        elif stripped.startswith("edges:"):
            body = stripped[len("edges:"):]
            edges = []
            for part in body.split(";"):
                part = part.strip()
                if not part:
                    continue
                try:
                    name, rest = part.split(":", 1)
                    origin, terminus = rest.split("->", 1)
                except ValueError:
                    raise ParseError(f"malformed edge declaration {part!r}",
                                     line_no, col) from None
                name = name.strip()
                if name != name.lower():
                    raise ParseError(f"edge name {name!r} must be lowercase",
                                     line_no, col)
                edges.append(Edge(name, origin.strip(), terminus.strip()))
            edges = tuple(edges)
        elif stripped.startswith("base:"):
            base = stripped[len("base:"):].strip()
        elif stripped.startswith("boundary:"):
            body = stripped[len("boundary:"):].strip()
            try:
                boundary = int(body)
            except ValueError:
                raise ParseError(f"boundary count {body!r} is not an integer",
                                 line_no, col) from None
            if boundary < 0:
                raise ParseError("boundary count must be nonnegative", line_no, col)
        elif stripped.startswith("map "):
            body = stripped[len("map "):]
            try:
                lhs, rhs = body.split("->", 1)
            except ValueError:
                raise ParseError(f"malformed map line {stripped!r}", line_no, col) from None
            map_lines.append((lhs.strip(), rhs.split(), line_no, col))
        else:
            raise ParseError(f"unrecognized statement {stripped!r}", line_no, col)

    if vertices is None:
        raise ParseError("missing 'vertices:' statement")
    if edges is None:
        raise ParseError("missing 'edges:' statement")
    if base is None:
        raise ParseError("missing 'base:' statement")

    try:
        graph = Graph(vertices, edges, base)
    except ValidationError as exc:
        raise ParseError(str(exc)) from None

    edge_names = {e.name for e in edges}
    images = {}
    for lhs, toks, line_no, col in map_lines:
        if lhs not in edge_names:
            raise ParseError(f"map for undeclared edge {lhs!r}", line_no, col)
        if lhs in images:
            raise ParseError(f"duplicate map for edge {lhs!r}", line_no, col)
        if not toks:
            raise ParseError(f"empty image for edge {lhs!r}", line_no, col)
        steps = tuple(_token_to_step(t, edge_names, line_no, col) for t in toks)
        images[lhs] = EdgePath(steps)
    for e in edges:
        if e.name not in images:
            raise ParseError(f"missing map line for edge {e.name}")

    # derive vertex images from edge-image endpoints
    vertex_image = {}

    def assign(v, w, what):
        if v in vertex_image and vertex_image[v] != w:
            raise ParseError(
                f"inconsistent vertex image for {v}: {vertex_image[v]} vs {w} ({what})")
        vertex_image[v] = w

    for e in edges:
        img = images[e.name]
        try:
            img.validate(graph)
        except ValidationError as exc:
            raise ParseError(f"image of {e.name}: {exc}") from None
        assign(e.origin, img.start(graph), f"image of {e.name}")
        assign(e.terminus, img.end(graph), f"image of {e.name}")
    for v in vertices:
        vertex_image.setdefault(v, v)  # isolated vertex: only the base can occur

    if vertex_image.get(base) != base:
        raise ParseError("map does not fix the base vertex")

    try:
        return GraphMap(graph, vertex_image, images, boundary)
    except ValidationError as exc:
        raise ParseError(str(exc)) from None


def serialize_graph_map(f):
    """Canonical `.gm` text; parse(serialize(.)) is the identity."""
    g = f.graph
    lines = []
    lines.append("vertices: " + " ".join(g.vertices))
    lines.append("edges: " + " ; ".join(
        f"{e.name}: {e.origin} -> {e.terminus}" for e in g.edges))
    lines.append("base: " + g.base)
    if f.boundary_count is not None:
        lines.append(f"boundary: {f.boundary_count}")
    for e in g.edges:
        toks = " ".join(
            name if d > 0 else name.upper() for name, d in f.edge_image[e.name].steps)
        lines.append(f"map {e.name} -> {toks}")
    return "\n".join(lines) + "\n"
