"""Finite abelian covers of a graph, lifting a self-map, and exact
certification that an integer characteristic polynomial has roots off the
unit circle.

A cover holds its deck group G and the cocycle c of the dynamical
quotient reduced into G, and a lift holds its fiber-zero rows; a level's
verdict reads nothing else.  The cover's graph and the lifted map are
built on first read, as an ordinary Graph whose vertices are (base vertex,
group element) pairs, so the homology and transition machinery applies to
lifted maps unchanged.  The edge e@x runs from o(e)@x to t(e)@(x + c(e)).
The cover is connected exactly when the loop voltages of c generate G,
which ``abelian_cover`` decides before any graph exists.  The lift is
anchored at the fiber point over the base with the zero label and commutes
with G, so it is fixed by fiber 0: v@0 goes to f(v)@s(v), with s(base) = 0
and s(t(e)) = s(o(e)) + c(f(e)) - c(e) (c summed along the path), and e@0
to the lift of f(e) from f(o(e))@s(o(e)), which must end at
f(t(e))@(c(e) + s(t(e))).  The lifted map is the translates of these
fiber-zero rows by every x in G.

A cover's characteristic polynomial comes from the deck group's
characters, never from its dense H1 matrix.  The lift commutes with the
deck group G, so its chain maps are matrices over Z[G]: A (edges x edges)
on 1-chains and V (vertices x vertices) on 0-chains, which are the same
fiber-zero rows.  Modulo a prime q = 1 (mod the exponent of G), and
q > 2^62 does not divide |G|, every character chi is a ring map
Z[G] -> F_q, and the chain complex C1 -> C0 splits into blocks
A(chi) -> V(chi).  The blocks are evaluated modulo a product m of up to
four such primes at once, with w a primitive root modulo each: Z/m is the
product of the fields F_q, so every step is the per-prime step in each
coordinate.  In the cover the cycles Z1 = H1 are an invariant
subspace of C1 with C1/Z1 = B0, the boundaries, and C0 = B0 + (one class
on which the map is the identity), so

    charpoly(H1) = (x - 1) * prod det(xI - A(chi)) / prod det(xI - V(chi)),

and character by character det(xI - V(chi)) divides det(xI - A(chi)),
times (x - 1) for the trivial character: every edge's lift closes up, so
the lift is a chain map, and the cover is connected, so only the trivial
character sees H0.  det(xI - A(chi)) is computed modulo m by
``linalg.charpoly_mod``: from the sums of the principal minors
(``linalg.small_charpoly``) when the base graph has at most four edges,
which divides by nothing, and by the Hessenberg reduction otherwise,
which splits m where a pivot is zero modulo some of its primes.  V(chi)
has one entry per row, chi(s(v)) in the column of f(v), so
det(xI - V(chi)) is read off the vertex map's cycles: x^l - chi(s summed
along the cycle) per cycle of length l, and x per vertex on no cycle;
each is divided out exactly.  The base is a fixed point with s(base) =
0, whose x - 1 cancels the trivial character's H0 factor, so neither is
formed.

The characters come in Galois orbits: the automorphism zeta -> zeta^u of
Q(zeta), u a unit mod the exponent of G, sends chi_a to chi_ua = chi_a^u,
so the orbit of a character of order o is {chi_ua : u a unit mod o}, of
size phi(o), and chi_ua(x) = chi_a(x)^u: one member's exponents, times u,
are every member's.  The product of the blocks over one orbit O,

    N_O = prod_{chi in O} det(xI - A(chi)) / det(xI - V(chi))

(times x - 1 for the trivial orbit), is fixed by every Galois automorphism
and has algebraic-integer coefficients, so it lies in Z[x]; modulo q,
with zeta -> w, it is the product of the blocks' quotients.  Its degree
is m_O = |O| (E - V) (plus 1 for the trivial orbit) and its roots are
eigenvalues of the A(chi).  They are bounded by the spectral radius of
the count matrix C of the level's base map (C_ij the number of times e_j
occurs in f(e_i)), which dominates every |A(chi)| entrywise, and so by
any R >= rho(C); so CRT recombines N_O on its own against C(m_O, i) *
R^i, one evaluation of the orbit's blocks per group of up to four primes
(``linalg.multimodular``), and charpoly(H1) is the product of the N_O
over Z.  R is the Collatz-Wielandt bound max_i (C^17 1)_i / (C^16 1)_i, a
rational between rho(C) >= 1 and L, C's largest row sum.  The primes are
shared by the orbits.  How many a degree needs, and whether that is past
the cap, is ``linalg.crt_primes``'s decision alone, and the largest
orbit's count, against L, is asked of it before any character is listed:
a character of order the exponent of G has the largest orbit, of size
phi(exponent) >= sqrt(exponent / 2), so a first count at that lower bound
refuses a huge exponent before it is factored.  A cover by the trivial
quotient is read the same way, as its one trivial orbit.  A level's
polynomial stays factored as the tuple of its N_O all the way to the
verdict, and the whole polynomial is the verdict's witness times its
powers of x and cyclotomic factors.  The dense charpoly of the
cover's H1 matrix (``h1_action_on_cover``) is the reference the tests
hold it to; the chain-level references (the lift's chain action, on the
whole cover and on each isotypic part, and the deck actions) live with
the tests, in ``tests/oracles.py``.

The off-circle decision is Kronecker's: a monic integer polynomial with
nonzero constant term has all roots on the unit circle exactly when it is a
product of cyclotomic polynomials, so stripping powers of x and all
cyclotomic factors leaves 1 or an exact witness.  Each orbit factor N_O is
stripped on its own, and the witness is the product of the remainders:
factorisation in Z[x] is unique, so it is the remainder of the whole
product, at the cost of polynomials of degree m_O.  Before dividing by
Phi_n a polynomial is evaluated at a primitive n-th root of unity w
modulo a prime q = 1 (mod n).  Phi_n(w) = 0 in F_q, since w is a root of
x^n - 1 and of no x^d - 1 with d | n, d < n; so Phi_n | p forces p(w) = 0,
and a nonzero value rules Phi_n out rigorously.  Only the orders that pass
are confirmed by exact division.  An orbit factor whose characters have
order o is evaluated only at the n with phi(lcm(o, n)) at most its degree
(``unit_circle_test`` gives the argument).
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import product
from math import gcd, isqrt, lcm

import numpy as np

from . import linalg
from .errors import CertificateError, LiftError, ValidationError
from .graphs import Edge, EdgePath, Graph, GraphMap, tree_potential
from .homology import homology_action, spanning_tree
from .laurent import character_order


@dataclass(frozen=True)
class FiniteQuotient:
    """A finite quotient of Z^d presented by a full-rank sublattice."""

    dim: int
    basis: tuple          # rows; kI for the reduction-mod-k quotient
    diag: tuple           # Smith diagonal
    transform: tuple      # T with S*B*T = diag for some unimodular S
    modulus: int = None   # set when basis is k*I

    @staticmethod
    def from_modulus(dim, k):
        if k < 1:
            raise ValidationError("modulus must be >= 1")
        basis = tuple(tuple(k if i == j else 0 for j in range(dim))
                      for i in range(dim))
        ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        diag = tuple(k for _ in range(dim))
        return FiniteQuotient(dim, basis, diag, ident, modulus=k)

    @staticmethod
    def of(dim, spec):
        """The quotient a spec names: a modulus k (reduction mod k) or a
        basis matrix; a FiniteQuotient stands for itself."""
        if isinstance(spec, FiniteQuotient):
            return spec
        if isinstance(spec, int):
            return FiniteQuotient.from_modulus(dim, spec)
        return FiniteQuotient.from_basis(dim, spec)

    @staticmethod
    def from_basis(dim, rows):
        rows = [list(r) for r in rows]
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValidationError("quotient basis must be square of full size")
        if dim == 0:
            return FiniteQuotient(0, (), (), (), modulus=1)
        diag, t = linalg.smith_normal_form(rows)
        if any(x == 0 for x in diag):
            raise ValidationError("infinite quotient requested")
        return FiniteQuotient(dim, tuple(tuple(r) for r in rows), tuple(diag),
                              tuple(tuple(r) for r in t))

    @property
    def degree(self):
        out = 1
        for x in self.diag:
            out *= x
        return out

    def describe(self):
        if self.dim == 0 or self.degree == 1:
            return "trivial"
        if self.modulus is not None:
            return f"H_f/{self.modulus}H_f"
        return f"H_f/L(index={self.degree})"

    def reduce(self, vec):
        """Canonical coordinates of a lattice point in the quotient."""
        if self.dim == 0:
            return ()
        vt = linalg.vec_mat(list(vec), [list(r) for r in self.transform])
        return tuple(x % d for x, d in zip(vt, self.diag))

    def add(self, a, b):
        return tuple(map(operator.mod, map(operator.add, a, b), self.diag))

    def neg(self, a):
        return tuple(map(operator.mod, map(operator.neg, a), self.diag))

    def zero(self):
        return (0,) * len(self.diag)

    def elements(self):
        return [tuple(e) for e in product(*[range(d) for d in self.diag])]


def _at(name, elem):
    """The name of a base vertex's or edge's copy on the sheet ``elem``."""
    return f"{name}@{'.'.join(map(str, elem))}"


@dataclass(frozen=True)
class CoverGraph:
    """The cover of ``base_graph`` that ``cocycle`` labels in the deck group
    ``quotient``.  Its graph is built on first read."""

    base_graph: Graph
    quotient: FiniteQuotient   # the deck group G
    cocycle: dict         # base edge name -> quotient element

    @property
    def degree(self):
        return self.quotient.degree

    @cached_property
    def elements(self):
        return tuple(self.quotient.elements())

    @cached_property
    def vertex_info(self):
        """cover vertex -> (base vertex, element)"""
        return {_at(v, x): (v, x)
                for v in self.base_graph.vertices for x in self.elements}

    @cached_property
    def graph(self):
        g, q = self.base_graph, self.quotient
        edges = tuple(Edge(_at(e.name, x), _at(e.origin, x),
                           _at(e.terminus, q.add(x, self.cocycle[e.name])))
                      for e in g.edges for x in self.elements)
        return Graph(tuple(self.vertex_info), edges, _at(g.base, q.zero()))


def _offsets(graph, quotient, value):
    """The tree potential of ``value`` (``graphs.tree_potential``), each
    vertex's reduced into the deck group ``quotient``."""
    return {v: tuple(map(operator.mod, p, quotient.diag))
            for v, p in tree_potential(graph, value,
                                       len(quotient.diag)).items()}


def _connected(graph, fq, cocycle):
    """Whether the cover that ``cocycle`` labels in ``fq`` is connected.

    With s the cocycle summed along the base graph's spanning tree
    (``_offsets``), the copy v@x is reached from the base's copy at zero
    exactly when x - s(v) lies in the subgroup H generated by the loop
    voltages s(o(e)) + c(e) - s(t(e)); so the cover is connected exactly
    when H = G, that is when the voltages and diag Z^d span Z^d.  The
    Hermite basis of that lattice is updated one voltage at a time, and the
    cover is connected once its pivots are all 1."""
    s = _offsets(graph, fq, cocycle.__getitem__)
    dim = len(fq.diag)
    basis = [[m * (i == j) for j in range(dim)] for i, m in enumerate(fq.diag)]
    for e in graph.edges:
        if all(basis[i][i] == 1 for i in range(dim)):
            return True
        voltage = fq.add(fq.add(s[e.origin], cocycle[e.name]),
                         fq.neg(s[e.terminus]))
        basis = linalg.hermite_row_form(basis + [list(voltage)])[:dim]
    return all(basis[i][i] == 1 for i in range(dim))


def abelian_cover(graph, quot, spec):
    """Cover of the graph determined by a finite quotient of the dynamical
    quotient: an integer modulus k (reduction mod k), a basis matrix, or
    the FiniteQuotient itself.

    The cocycle of the dynamical quotient always generates the deck group;
    one that does not would give a disconnected graph, refused with
    LiftError before any graph is built.
    """
    fq = FiniteQuotient.of(quot.rank, spec)
    cocycle = {e.name: fq.reduce(quot.cocycle[e.name]) for e in graph.edges}
    if not _connected(graph, fq, cocycle):
        raise LiftError(f"cover {fq.describe()}: the cover graph is not "
                        "connected; the cocycle does not generate the deck "
                        "group")
    return CoverGraph(graph, fq, cocycle)


@dataclass(frozen=True)
class LiftedMap:
    """The lift of ``base_map`` to ``cover``, held as its fiber-zero rows
    (``_fiber_zero``); the lifted GraphMap is built on first read."""

    cover: CoverGraph
    base_map: GraphMap
    rows: tuple           # (edge rows, vertex rows)

    @cached_property
    def map(self):
        """The deck group's translates of the fiber-zero rows."""
        f, cover = self.base_map, self.cover
        g, q = f.graph, cover.quotient
        edge_rows, vertex_rows = self.rows
        vertex_image = {_at(v, x): _at(w, q.add(y, x))
                        for v, (w, y) in zip(g.vertices, vertex_rows)
                        for x in cover.elements}
        edge_image = {
            _at(e.name, x): EdgePath(tuple((_at(n, q.add(y, x)), d)
                                           for n, y, d in row))
            for e, row in zip(g.edges, edge_rows) for x in cover.elements}
        return GraphMap(cover.graph, vertex_image, edge_image,
                        f.boundary_count)


def _fiber_zero(f, quotient, cocycle):
    """The lift of ``f`` at fiber 0 to the cover that ``cocycle`` (base
    edge -> element of ``quotient``) labels; every lift commuting with the
    deck group is its translate.

    The lift sends v@0 to f(v)@s(v), with s(base) = 0 and s(t(e)) =
    s(o(e)) + c(f(e)) - c(e), c the cocycle sum, so s is the tree
    potential of c(f(e)) - c(e) (``_offsets``).  Returns, per base edge,
    the steps (base edge, element, sign) of the lift of f(e) from
    f(o(e))@s(o(e)), and per base vertex the pair (f(v), s(v)).  The lift
    of every edge must end at f(t(e))@(c(e) + s(t(e))); otherwise the
    cocycle is not f-invariant and LiftError is raised.
    """
    g, q = f.graph, quotient

    def delta(name):     # c(f(e)) - c(e)
        steps = f.edge_image[name].steps
        return tuple(sum(d * cocycle[n][i] for n, d in steps) - ci
                     for i, ci in enumerate(cocycle[name]))

    shift = _offsets(g, q, delta)
    edge_rows = []
    for e in g.edges:
        x, row = shift[e.origin], []
        for n, d in f.edge_image[e.name].steps:
            if d > 0:
                row.append((n, x, 1))
                x = q.add(x, cocycle[n])
            else:
                x = q.add(x, q.neg(cocycle[n]))
                row.append((n, x, -1))
        if x != q.add(cocycle[e.name], shift[e.terminus]):
            raise LiftError(f"the lift of {e.name} does not close up over "
                            f"{q.describe()}: the cocycle is not invariant "
                            "under the map")
        edge_rows.append(row)
    return edge_rows, [(f.vertex_image[v], shift[v]) for v in g.vertices]


def lift_map(f, cover):
    """Lift the map to the cover, anchored at the fiber point over the base
    with the zero label: the deck group's translates of the lift at fiber 0
    (``_fiber_zero``), whose rows are computed here, so a cocycle the map
    does not preserve is refused at once."""
    if f.graph is not cover.base_graph and f.graph != cover.base_graph:
        raise ValidationError("cover was built over a different graph")
    return LiftedMap(cover, f, _fiber_zero(f, cover.quotient, cover.cocycle))


@lru_cache(maxsize=None)
def _units(o):
    """The units modulo o, ascending; 1 first."""
    return tuple(u for u in range(1, o + 1) if gcd(u, o) == 1)


def _galois_orbits(diag):
    """The characters a of G = prod Z/diag_i, chi_a(x) = w^(sum a_i x_i
    order/diag_i) with w of exact order lcm(diag), grouped into Galois
    orbits [u a mod diag for u in _units(o)], o the order of chi_a, each of
    size phi(o), the trivial character's first.  An orbit's first member is
    a, and its k-th is _units(o)[k] a.  O(|G|): a character already placed
    is skipped."""
    seen, orbits = set(), []
    for a in product(*map(range, diag)):
        if a in seen:
            continue
        orbit = [tuple(u * ai % d for ai, d in zip(a, diag))
                 for u in _units(character_order(a, diag))]
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def _vertex_cycles(vertex_rows, vidx, base, quotient):
    """The cycles of the vertex map v -> f(v), read off the fiber-zero
    vertex rows (f(v), s(v)): a pair (length, label) per cycle, the label
    the sum of the s(v) along it, the base's fixed point (label 0) first,
    and the number of vertices on no cycle.  V(chi) has one entry chi(s(v))
    per row, so det(xI - V(chi)) is x per vertex on no cycle times x^length
    - chi(label) per cycle."""
    succ = [vidx[w] for w, _y in vertex_rows]
    seen, cycles = set(), []
    for v in (vidx[base], *range(len(succ))):
        path = []
        while v not in seen:
            seen.add(v)
            path.append(v)
            v = succ[v]
        if v in path:           # the path closed a new cycle at v
            cycle = path[path.index(v):]
            cycles.append((len(cycle), reduce(
                quotient.add, (vertex_rows[u][1] for u in cycle))))
    return cycles, len(succ) - sum(length for length, _label in cycles)


def _divide_binomial(p, length, c, m):
    """p / (x^length - c) in (Z/m)[x], in place; LiftError unless exact."""
    if c:
        for i in range(len(p) - 1, length - 1, -1):
            p[i - length] = (p[i - length] + c * p[i]) % m
    if any(p[:length]):
        raise LiftError("the fiber-zero rows are not a chain map")
    return p[length:]


def _root_bound(edge_rows, eidx):
    """A rational upper bound on the spectral radius of the count matrix C
    of the level's base map, C_ij the number of times edge j occurs in the
    image of edge i: Collatz-Wielandt's max_i (C^17 1)_i / (C^16 1)_i.
    C^16 1 is positive, as every edge image is non-empty.  The bound only
    falls as the power grows from 0, where it is the longest edge image;
    at 16, unipotent_silver's is within 1e-6 of its spectral radius, the
    silver ratio."""
    cols = [[eidx[name] for name, _x, _d in row] for row in edge_rows]
    x = y = [1] * len(cols)
    for _ in range(17):
        x, y = y, [sum(map(y.__getitem__, col)) for col in cols]
    return max(map(Fraction, y, x))


def orbit_polynomials(f):
    """The exact characteristic polynomial of the H1 action of a tower
    level, factored: one pair (o, N_O) per Galois orbit of the deck group's
    characters, the trivial orbit's first, with o the exact order of the
    orbit's characters and N_O its integer norm polynomial (ascending); the
    N_O multiply to the charpoly (see the module docstring).  When the base
    graph has E = V, every other orbit's N_O has degree |O| (E - V) = 0 and
    is 1, so the trivial orbit's pair is the only one: no other character
    is listed, and as the trivial character reads no root of unity, its
    primes need not be 1 modulo the order.  The level is
    the LiftedMap ``f``, read from its stored fiber-zero rows and
    recombined from its residues by CRT."""
    quotient, (edge_rows, vertex_rows) = f.cover.quotient, f.rows
    graph, diag = f.base_map.graph, quotient.diag
    eidx = {e.name: i for i, e in enumerate(graph.edges)}
    vidx = {v: i for i, v in enumerate(graph.vertices)}
    cycles, transient = _vertex_cycles(vertex_rows, vidx, graph.base,
                                       quotient)
    order = lcm(*diag)
    scale = [order // d for d in diag]

    # chi_a(x) = w^exponent(a, weight(x)), w of exact order `order`
    def weight(x):
        return tuple(map(operator.mul, x, scale))

    def exponent(a, t):
        return sum(map(operator.mul, a, t)) % order

    sheets = {}    # label x -> {(i, j): signed count of e_j@x in f(e_i@0)}
    for i, row in enumerate(edge_rows):
        for name, x, d in row:
            terms = sheets.setdefault(x, {})
            terms[i, eidx[name]] = terms.get((i, eidx[name]), 0) + d
    sheets = [(weight(x), [(i, j, c) for (i, j), c in terms.items() if c])
              for x, terms in sheets.items()]
    cycles = [(length, weight(label)) for length, label in cycles]
    powers = {}    # m -> [w^k mod m for k < order], or [1] until a
                   # nontrivial character reads it; shared by every orbit

    def orbit_residues(o, a):
        # the exponents of chi_ua are u times chi_a's; the trivial
        # character skips the base's x - 1, its H0 factor
        edges = [(exponent(a, t), terms) for t, terms in sheets]
        vertices = [(length, exponent(a, t))
                    for length, t in cycles[0 if any(a) else 1:]]
        blocks = [([(u * k % order, terms) for k, terms in edges],
                   [(length, u * k % order) for length, k in vertices])
                  for u in _units(o)]
        size = order if any(a) else 1    # the trivial one reads w^0 alone

        def residues(m, w):
            table, out = powers.setdefault(m, [1]), []
            while len(table) < size:
                table.append(table[-1] * w % m)
            for edge_terms, factors in blocks:
                am = [[0] * len(eidx) for _ in eidx]
                for k, terms in edge_terms:
                    value = table[k]
                    for i, j, c in terms:
                        am[i][j] += c * value
                quo = linalg.charpoly_mod(am, m)
                for length, k in factors:
                    quo = _divide_binomial(quo, length, table[k], m)
                out.append(_divide_binomial(quo, transient, 0, m))
            return linalg.poly_product(out, m)
        return residues

    rank = len(eidx) - len(vidx)
    bound = _root_bound(edge_rows, eidx)
    if rank == 0:
        # E = V: every other orbit's N_O has degree |O| (E - V) = 0 and is
        # 1, and the trivial character's blocks read no root of unity, so
        # no character is listed and the order is never factored
        return ((1, linalg.multimodular(
            1, bound, orbit_residues(1, (0,) * len(diag)))),)
    # the cap, before any character is listed: the largest orbit has size
    # phi(order) >= sqrt(order / 2), so a huge order is refused before it
    # is factored
    longest = max((len(row) for row in edge_rows), default=1)
    linalg.crt_primes(isqrt(order // 2) * rank, longest, order)
    linalg.crt_primes(max(linalg.totient(order) * rank, rank + 1), longest,
                      order)
    out = []
    for orbit in _galois_orbits(diag):
        o = character_order(orbit[0], diag)
        n = len(orbit) * rank + (o == 1)       # H0, in the trivial orbit
        out.append((o, linalg.multimodular(n, bound,
                                           orbit_residues(o, orbit[0]),
                                           order)))
    return tuple(out)


def h1_action_on_cover(lm):
    """Integer matrix of the induced homology action on the cover."""
    st = spanning_tree(lm.cover.graph)
    fa = homology_action(lm.map, st)
    return [list(row) for row in fa.matrix]


def spectral_radius(matrix):
    arr = np.array(matrix, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(max(abs(np.linalg.eigvals(arr))))


# ---------------------------------------------------------------------------
# exact unit-circle decision


@dataclass(frozen=True)
class UnitCircleVerdict:
    all_on_circle: bool
    witness: tuple            # non-cyclotomic factor when off circle, else ()
    zero_multiplicity: int
    cyclotomic_factors: tuple  # ((order, multiplicity), ...)

    @cached_property
    def modulus(self):
        """Largest root modulus of the witness: display only, in floating
        point, on first read.  The eigenvalues of the witness's companion
        matrix, built as ``np.roots`` builds it (its first row the negated
        coefficients, from the second highest down), so the float is
        ``np.roots``'s to the bit."""
        if self.all_on_circle:
            return 1.0
        companion = np.eye(len(self.witness) - 1, k=-1)
        companion[0] = [-float(c) for c in reversed(self.witness[:-1])]
        return float(max(abs(np.linalg.eigvals(companion))))

    @property
    def tag(self):
        return "all_on_unit_circle" if self.all_on_circle else "off_unit_circle"


def _value_mod(coeffs, w, q):
    value = 0
    for c in reversed(coeffs):
        value = (value * w + c) % q
    return value


def monic_coefficients(coeffs):
    """The coefficients as ints; ValidationError unless they are those of a
    monic polynomial."""
    coeffs = [int(c) for c in coeffs]
    if not coeffs or coeffs[-1] != 1:
        raise ValidationError("polynomial must be monic with integer coefficients")
    return coeffs


def unit_circle_test(*factors, orders=None):
    """Decide whether the product of monic integer polynomials has all
    roots on the unit circle; exact, no floating point in the verdict.

    Each factor is stripped of powers of x and cyclotomic factors on its
    own.  The multiplicities add up, and the witness is the product of the
    remainders, which by unique factorisation is that of the product; only
    the display modulus, on first read, is computed on it in floating
    point.

    ``orders`` gives each factor an order o, 1 when omitted, and Phi_n is
    tried on it only when phi(lcm(o, n)) is at most its current degree.
    This is exact for a norm N_O over a Galois orbit of characters of exact
    order o (``orbit_polynomials``): the orbit's block polynomials have
    coefficients in Q(zeta_o) and are conjugate, a primitive n-th root of
    unity has degree phi(lcm(o, n)) / phi(o) over Q(zeta_o), so when Phi_n
    divides N_O the norm of its minimal polynomial, of degree
    phi(lcm(o, n)), divides N_O too; and what is left after x and each
    Phi_m are stripped is again such a norm.  At o = 1 the rule is
    phi(n) <= degree."""
    zero_mult, mults, rests = 0, {}, []
    for coeffs, o in zip(factors, orders or [1] * len(factors)):
        coeffs = monic_coefficients(coeffs)
        while coeffs[0] == 0:
            zero_mult += 1
            coeffs = coeffs[1:]
        for n in linalg.cyclotomic_orders_up_to_degree(len(coeffs) - 1):
            if len(coeffs) == 1:
                break
            if linalg.totient(lcm(o, n)) > len(coeffs) - 1:
                continue
            q, w = linalg.prime_root(n, 0)
            while _value_mod(coeffs, w, q) == 0:   # else Phi_n cannot divide
                quo, rem = linalg.poly_divmod_monic(
                    coeffs, list(linalg.cyclotomic_polynomial(n)))
                if rem:
                    break
                coeffs = quo
                mults[n] = mults.get(n, 0) + 1
        rests.append(coeffs)
    cyclotomic = tuple(sorted(mults.items()))
    witness = linalg.poly_product(rests)
    if witness == [1]:
        return UnitCircleVerdict(True, (), zero_mult, cyclotomic)
    return UnitCircleVerdict(False, tuple(witness), zero_mult, cyclotomic)


# ---------------------------------------------------------------------------
# certificates


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x):
    return isinstance(x, list) and all(map(_is_int, x))


def _checked(value, ok, name, kind):
    if not ok(value):
        raise CertificateError(f"{name} {value!r} is not {kind}")


def _require(obj, keys, what):
    for key in keys:
        if key not in obj:
            raise CertificateError(f"{what} has no field {key}")


@dataclass(frozen=True)
class TowerStep:
    quotient: str
    degree: int
    modulus: int = None
    basis: tuple = None

    @staticmethod
    def of(fq):
        """The step recording the cover by the finite quotient ``fq``."""
        return TowerStep(fq.describe(), fq.degree, modulus=fq.modulus,
                         basis=None if fq.modulus is not None else fq.basis)

    def to_json(self):
        out = {"quotient": self.quotient, "degree": self.degree}
        if self.modulus is not None:
            out["modulus"] = self.modulus
        if self.basis is not None:
            out["basis"] = [list(r) for r in self.basis]
        return out

    @staticmethod
    def from_json(obj):
        _checked(obj, lambda x: isinstance(x, dict), "tower step", "an object")
        _require(obj, ("quotient", "degree"), "tower step")
        degree, modulus = obj["degree"], obj.get("modulus")
        basis = obj.get("basis")
        _checked(degree, _is_int, "tower step degree", "an integer")
        if modulus is not None:
            _checked(modulus, _is_int, "tower step modulus", "an integer")
        if basis is not None:
            _checked(basis, lambda x: isinstance(x, list) and all(
                map(_is_int_list, x)), "tower step basis", "an integer matrix")
        return TowerStep(obj["quotient"], degree, modulus,
                         tuple(tuple(r) for r in basis) if basis else None)


CERTIFICATE_FORMAT = "homolift-certificate-1"

_CERTIFICATE_FIELDS = (
    *((key, lambda x: isinstance(x, str), "a string")
      for key in ("input_digest", "input_text", "verdict")),
    ("power", _is_int, "an integer"), ("degree", _is_int, "an integer"),
    ("zero_eigenvalues", _is_int, "an integer"),
    ("charpoly", _is_int_list, "a list of integers"),
    ("witness_factor", _is_int_list, "a list of integers"),
    ("modulus", lambda x: isinstance(x, float) or _is_int(x), "a number"),
    ("tower", lambda x: isinstance(x, list), "a list"))


@dataclass(frozen=True)
class CoverCertificate:
    input_digest: str
    input_text: str
    power: int
    tower: tuple              # TowerStep sequence, base upward
    degree: int               # total degree of the final cover
    charpoly: tuple           # ascending integer coefficients
    verdict: str
    witness_factor: tuple
    modulus: float
    zero_multiplicity: int
    method: str
    finding: dict = None

    def to_json(self):
        return {
            "format": CERTIFICATE_FORMAT,
            "input_digest": self.input_digest,
            "input_text": self.input_text,
            "power": self.power,
            "tower": [s.to_json() for s in self.tower],
            "degree": self.degree,
            "charpoly": [int(c) for c in self.charpoly],
            "verdict": self.verdict,
            "witness_factor": [int(c) for c in self.witness_factor],
            "modulus": self.modulus,
            "zero_eigenvalues": self.zero_multiplicity,
            "method": self.method,
            "finding": self.finding,
        }

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict):
            raise CertificateError("certificate is not a JSON object")
        _require(obj, ("format", "method",
                       *(f[0] for f in _CERTIFICATE_FIELDS)), "certificate")
        _checked(obj["format"], lambda x: x == CERTIFICATE_FORMAT,
                 "certificate format", CERTIFICATE_FORMAT)
        for key, ok, kind in _CERTIFICATE_FIELDS:
            _checked(obj[key], ok, f"certificate {key}", kind)
        return CoverCertificate(
            input_digest=obj["input_digest"],
            input_text=obj["input_text"],
            power=obj["power"],
            tower=tuple(TowerStep.from_json(s) for s in obj["tower"]),
            degree=obj["degree"],
            charpoly=tuple(obj["charpoly"]),
            verdict=obj["verdict"],
            witness_factor=tuple(obj["witness_factor"]),
            modulus=obj["modulus"],
            zero_multiplicity=obj["zero_eigenvalues"],
            method=obj["method"],
            finding=obj.get("finding"),
        )
