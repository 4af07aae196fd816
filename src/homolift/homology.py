"""Integer homology of a graph via a spanning tree, the induced action of a
self-map, and the torsion-free dynamical quotient it acts trivially on.

The quotient is the torsion-free part of coker(I - f*), computed by Smith
normal form; the projection matrix is put into Hermite form so identical
inputs give identical matrices.

The quotient's per-edge cocycle is the one map from paths to the quotient:
a path's translation is the sum of the cocycle over its signed steps.  The
cocycle of a basis edge is its column of the projection and a tree edge's
is zero, so this sum is the projection of the path's closed-up class.  The
transition graph's arc translations (hence the Magnus matrix) and the
covers' edge labels both read it, so the Magnus matrix specialized at a
character is the lift's chain action on that character's isotypic part.
"""

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .errors import ValidationError
from .graphs import EdgePath, empty_path


@dataclass(frozen=True)
class SpanningTreeData:
    tree_edges: frozenset
    parents: dict         # vertex -> (parent, tree step into it); no base
    h1_basis: tuple       # non-tree edge names, declaration order
    basis_index: dict     # non-tree edge name -> position in h1_basis

    @property
    def rank(self):
        return len(self.h1_basis)

    def tree_path(self, v):
        """The tree path from the base to ``v``, walked up the parents."""
        steps = []
        while v in self.parents:
            v, step = self.parents[v]
            steps.append(step)
        return EdgePath(tuple(reversed(steps))) if steps else empty_path(v)


def spanning_tree(graph):
    """Breadth-first spanning tree from the base, edges in declaration order
    (``Graph.tree_steps``), stored as one parent step per vertex: O(V + E)."""
    parents = {}
    for e, d in graph.tree_steps():
        parent, child = (e.origin, e.terminus) if d > 0 else (e.terminus,
                                                                e.origin)
        parents[child] = (parent, (e.name, d))
    if len(parents) != len(graph.vertices) - 1:
        raise ValidationError("graph is not connected")
    tree = frozenset(step[0] for _parent, step in parents.values())
    basis = tuple(e.name for e in graph.edges if e.name not in tree)
    return SpanningTreeData(tree, parents, basis,
                            {name: i for i, name in enumerate(basis)})


def path_class(path, st):
    """Class in H1 of the path closed up through the tree.

    Tree paths contribute no basis edges, so this is just the signed count
    of basis-edge traversals in the path itself.
    """
    out = [0] * len(st.h1_basis)
    for name, direction in path.steps:
        i = st.basis_index.get(name)
        if i is not None:
            out[i] += direction
    return tuple(out)


def basis_loop(graph, st, edge_name):
    """The based loop tree_path(o(e)) . e . tree_path(t(e))^-1."""
    e = graph.edge_by_name[edge_name]
    p = st.tree_path(e.origin).concat(EdgePath(((edge_name, 1),)), graph)
    return p.concat(st.tree_path(e.terminus).reverse(graph), graph)


@dataclass(frozen=True)
class HomologyAction:
    matrix: tuple  # rows; column j is the class of f(loop of j-th basis edge)

    @property
    def rank(self):
        return len(self.matrix)


def homology_action(f, st):
    r = len(st.h1_basis)
    cols = []
    for name in st.h1_basis:
        loop = basis_loop(f.graph, st, name)
        cols.append(path_class(f.apply_to_path(loop), st))
    matrix = tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))
    return HomologyAction(matrix)


@dataclass(frozen=True)
class EquivariantQuotient:
    """Projection of H1 onto the torsion-free cokernel of (I - f*).

    ``projection`` is d x r of full row rank with saturated row space.
    ``cocycle`` sends each edge to the image of its one-step path: its
    projection column for a basis edge, zero for a tree edge.
    """

    rank: int
    projection: tuple       # d rows of length r
    cocycle: dict           # edge name -> tuple of length d

    @cached_property
    def section(self):
        """An integer right inverse (projection @ section = I_d), from the
        projection alone: it is onto, so S P T = [I 0] and T[:, :d] S is
        one.  Any right inverse serves the deck actions P sigma section,
        since sigma commutes with f* and so preserves ker P."""
        if self.rank == 0:
            return ()
        s, _d, t = linalg.smith_normal_form([list(r) for r in self.projection])
        return tuple(map(tuple, linalg.mat_mul([r[:self.rank] for r in t], s)))


def equivariant_quotient(fa, st):
    """Torsion-free cokernel of (I - f*) via Smith normal form, with the
    per-edge cocycle on the spanning tree ``st`` that ``fa`` was taken in.
    """
    r = fa.rank
    m = [[int(i == j) - fa.matrix[i][j] for j in range(r)] for i in range(r)]
    s, dmat, _t = linalg.smith_normal_form(m)
    rank_m = sum(1 for x in linalg.smith_diagonal(dmat) if x)
    d = r - rank_m
    bottom = [list(s[i]) for i in range(rank_m, r)]
    proj = linalg.hermite_row_form(bottom)[0] if d else []
    projection = tuple(tuple(row) for row in proj)

    cocycle = {name: tuple(row[i] for row in projection)
               for i, name in enumerate(st.h1_basis)}
    cocycle.update(dict.fromkeys(st.tree_edges, (0,) * d))
    return EquivariantQuotient(d, projection, cocycle)

