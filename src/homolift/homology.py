"""Integer homology of a graph via a spanning tree, the induced action of a
self-map, and the torsion-free dynamical quotient it acts trivially on.

H1 has a basis of the non-tree edges e_j, the j-th being the based loop
T(o(e_j)) e_j T(t(e_j))^-1, with T(v) the tree path from the base to v.
The class of a path is additive along it, so f* needs no loop: with c(e)
the class of f(e), the class of f(T(v)) is P(v), the tree potential of c
(``graphs.tree_potential``), and column j of f* is c(e_j) + P(o(e_j)) -
P(t(e_j)).  The covers sum their cocycles along the same tree.

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

from . import linalg
from .graphs import tree_potential


@dataclass(frozen=True)
class SpanningTreeData:
    tree_edges: frozenset
    h1_basis: tuple       # non-tree edge names, declaration order
    basis_index: dict     # non-tree edge name -> position in h1_basis

    @property
    def rank(self):
        return len(self.h1_basis)


def spanning_tree(graph):
    """The graph's breadth-first spanning tree from the base
    (``tree_potential``) and the H1 basis it leaves: the non-tree edges, in
    declaration order."""
    tree = graph.tree_edges
    basis = tuple(e.name for e in graph.edges if e.name not in tree)
    return SpanningTreeData(tree, basis,
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


@dataclass(frozen=True)
class HomologyAction:
    matrix: tuple  # rows; column j is the class of f(loop of j-th basis edge)

    @property
    def rank(self):
        return len(self.matrix)


def homology_action(f, st):
    """f* on H1 from the tree potential of the edge images' classes (see
    the module docstring); column j is c(e_j) + P(o(e_j)) - P(t(e_j))."""
    g, r = f.graph, st.rank
    c = {e.name: path_class(f.edge_image[e.name], st) for e in g.edges}
    potential = tree_potential(g, c.__getitem__, r)
    cols = []
    for name in st.h1_basis:
        e = g.edge_by_name[name]
        cols.append(tuple(x + y - z for x, y, z in zip(
            c[name], potential[e.origin], potential[e.terminus])))
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

