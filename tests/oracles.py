"""Reference computations for the paper's identities, and the test-only
helpers they need.

The shipped path certifies a tower level from its Galois-orbit norm
polynomials (``covers.orbit_polynomials``) and Kronecker's test.  The
functions here compute the same objects the direct way, over the whole
cover or in exact cyclotomic arithmetic, so the tests can check one
against the other:

- the lifted chain action on cover 1-chains, and on the isotypic part of a
  character, which the specialized Magnus matrix must equal;
- the deck group's action on a cover, on its paths and on the lift's own
  dynamical quotient;
- the averaging identity, which recovers a lattice restriction from the
  specializations at the characters annihilating the lattice;
- the product of Magnus matrices term by term on exponent tuples, against
  which the packed power kernel behind ``trace_power`` is checked;
- the characteristic polynomial over the group ring (Faddeev-LeVerrier),
  whose specialization at a character is that of the specialized matrix;
- an integer characteristic polynomial with no modular arithmetic
  (Berkowitz), against which the multimodular one is checked;
- the homology action from based loops through the spanning tree, against
  which the one from tree potentials is checked;
- a rank over the rationals by Gauss-Jordan elimination, against which the
  Hermite-form affine dimension is checked;
- convex-hull membership and hull vertices by the simplex method over
  Fractions, against which the integer-pivoting hull is checked;
- composite arc data, based cycles, extremal subgraphs and positive powers
  of the transition graph;
- the character scan over every character of each grid, and the
  conversion's character from the sorted union of the grids, against
  which the walks that try each character once, at its exact order, are
  checked.

Only the tests import this module; nothing under ``src/homolift`` does.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm, sqrt

from homolift import linalg
from homolift.covers import _at
from homolift.cyclotomic import Cyclotomic
from homolift.errors import (CertificateError, DimensionMismatchError,
                             ResourceLimitError, ValidationError)
from homolift.graphs import EdgePath, empty_path
from homolift.homology import path_class
from homolift.laurent import (Character, LaurentElement, character_grid,
                              l2_norm_squared, specialize)
from homolift.magnus import MagnusMatrix, specialize_matrix, trace_power
from homolift.search import (Analysis, Finding, SearchConfig, _above,
                             _certify, _order_bound, _support_width)
from homolift.transition import (DEFAULT_CYCLE_CAP, SubgraphSelection,
                                 is_stable, simple_cycles)


# ---------------------------------------------------------------------------
# elements of the group ring and of Q(zeta)


class Laurent(LaurentElement):
    """A LaurentElement with the ring operations and equality, which only
    the tests use; ``Laurent.of`` reads a package element as one."""

    __slots__ = ()

    @classmethod
    def of(cls, t):
        return cls._raw(t.dim, t.terms)

    def _coerce(self, other):
        """``other`` as a Laurent of this dimension; a number is a
        constant."""
        if isinstance(other, (int, Fraction)):
            return laurent_constant(self.dim, other)
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}")
        return Laurent.of(other)

    def __add__(self, other):
        out = dict(self.terms)
        for v, c in self._coerce(other).terms.items():
            out[v] = out.get(v, 0) + c
        return Laurent(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent(self.dim, {v: -c for v, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other, out = self._coerce(other), {}
        for v1, c1 in self.terms.items():
            for v2, c2 in other.terms.items():
                v = tuple(a + b for a, b in zip(v1, v2))
                out[v] = out.get(v, 0) + c1 * c2
        return Laurent(self.dim, out)

    __rmul__ = __mul__

    def __truediv__(self, k):
        return Laurent(self.dim,
                       {v: Fraction(c) / k for v, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = laurent_constant(self.dim, other)
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms


def laurent_zero(dim):
    return Laurent(dim)


def laurent_constant(dim, value):
    return Laurent(dim, {(0,) * dim: value})


def monomial(vec, coeff=1):
    return Laurent(len(vec), {tuple(vec): coeff})


def coefficient(t, vec):
    return t.terms.get(tuple(vec), 0)


def l2_norm(t):
    return sqrt(l2_norm_squared(t))


def cyclotomic_zero(order=1):
    return Cyclotomic(order, (0,) * order)


@lru_cache(maxsize=None)
def root_of_unity(order, exponent):
    """zeta_order^exponent."""
    coeffs = [0] * order
    coeffs[exponent % order] = 1
    return Cyclotomic(order, coeffs)


def character_value(chi, vec):
    """chi(vec), a root of unity of order dividing chi.order."""
    return root_of_unity(chi.order, chi.value_exponent(vec))


# ---------------------------------------------------------------------------
# lattices and the averaging identity


def is_finite_index(lat):
    if lat.dim == 0:
        return True
    if not lat.basis:
        return False
    diag, _t = lat._snf_data()
    return sum(1 for x in diag if x) == lat.dim


def lattice_index(lat):
    if not is_finite_index(lat):
        raise ValidationError("lattice does not have finite index")
    if lat.dim == 0:
        return 1
    diag, _t = lat._snf_data()
    out = 1
    for x in diag:
        out *= x
    return out


def annihilator_characters(lat):
    """The characters of Z^d trivial on the lattice (finite index required).

    There are index-many; they are the character group of Z^d / L, read off
    the Smith form of the basis.
    """
    if not is_finite_index(lat):
        raise ValidationError("annihilator requires a finite-index lattice")
    d = lat.dim
    if d == 0:
        return [Character(0, 1, ())]
    diag, t = lat._snf_data()
    n = lcm(*diag)
    chars = []
    for ys in product(*[range(x) for x in diag]):
        # with D = S B T, exponent vectors a with B a^T = 0 mod n are
        # a^T = T y^T where y_i runs over multiples of n/d_i
        weights = [y * (n // dd) for y, dd in zip(ys, diag)]
        exps = tuple(sum(t[j][i] * weights[i] for i in range(d)) % n
                     for j in range(d))
        chars.append(Character(d, n, exps))
    return chars


def average_over_annihilator(t, lat):
    """(1/|N_L|) sum over annihilator characters of conj(chi(w)) * t(chi).

    Equals the lattice restriction of t over L + w; with w = 0 this is the
    plain averaging identity.
    """
    chars = annihilator_characters(lat)
    total = cyclotomic_zero()
    for chi in chars:
        twist = root_of_unity(chi.order, -chi.value_exponent(lat.translate))
        total = total + twist * specialize(t, chi)
    return total / len(chars)


# ---------------------------------------------------------------------------
# dense integer matrices


def mat_mul(a, b):
    m = len(b[0]) if b else 0
    return [[sum(ai[t] * b[t][j] for t in range(len(b))) for j in range(m)]
            for ai in a]


def mat_vec(a, v):
    return [sum(ai[j] * v[j] for j in range(len(v))) for ai in a]


def mat_rank_rational(a):
    """Rank over the rationals, by Gauss-Jordan elimination over Fractions:
    the reference for ``geometry.affine_dimension``'s Hermite rank."""
    rows = [[Fraction(x) for x in row] for row in a]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / pr[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        rank += 1
        col += 1
    return rank


def section(quotient):
    """An integer right inverse of the dynamical quotient's projection
    (projection @ section = I_d), from the projection alone: it is onto, so
    S P T = [I 0] for a unimodular S, A = P T[:, :d] = S^-1 is unimodular,
    and T[:, :d] A^-1 is one; A^-1 is the right block of the Hermite form
    [I | A^-1] of [A | I].  Any right inverse serves the deck actions P
    sigma section, since sigma commutes with f* and so preserves ker P."""
    d = quotient.rank
    if d == 0:
        return ()
    _diag, t = linalg.smith_normal_form([list(r) for r in quotient.projection])
    left = [r[:d] for r in t]
    a = mat_mul(quotient.projection, left)
    inverse = [row[d:] for row in linalg.hermite_row_form(
        [list(row) + [int(i == j) for j in range(d)]
         for i, row in enumerate(a)])]
    return tuple(map(tuple, mat_mul(left, inverse)))


# ---------------------------------------------------------------------------
# convex hulls over the rationals


def simplex_feasible_rational(cols, rhs):
    """Is there x >= 0 with A x = rhs?  cols = columns of A (rational).
    Phase 1 of the simplex method with Bland's rule over Fractions: the
    reference for ``geometry``'s integer-pivoting tableau."""
    m = len(rhs)
    n = len(cols)
    # tableau with artificial variables; minimize their sum
    rows = []
    for i in range(m):
        row = [Fraction(cols[j][i]) for j in range(n)]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row + [Fraction(int(k == i)) for k in range(m)] + [b])
    # objective: sum of artificial rows (to be driven to zero)
    obj = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            obj[j] += rows[i][j]
    for k in range(m):
        obj[n + k] = Fraction(0)
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(n + m) if obj[j] > 0), None)
        if enter is None:
            break
        ratios = [(rows[i][-1] / rows[i][enter], i)
                  for i in range(m) if rows[i][enter] > 0]
        if not ratios:
            break
        _best, leave = min(ratios, key=lambda p: (p[0], basis[p[1]]))
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        f = obj[enter]
        obj = [x - f * y for x, y in zip(obj, rows[leave])]
        basis[leave] = enter
    return obj[-1] == 0


def in_convex_hull_rational(point, points):
    """point in conv(points), by the Fraction simplex."""
    if not points:
        return False
    return simplex_feasible_rational([list(p) + [1] for p in points],
                                     list(point) + [1])


def hull_vertices_rational(points):
    """The points of a finite set that are not convex combinations of the
    others, sorted, duplicates removed, by the Fraction simplex."""
    uniq = sorted({tuple(Fraction(x) for x in p) for p in points})
    if len(uniq) <= 1:
        return uniq
    return [p for i, p in enumerate(uniq)
            if not in_convex_hull_rational(p, uniq[:i] + uniq[i + 1:])]


# ---------------------------------------------------------------------------
# paths, based loops and the homology action they give


def reverse(path):
    """The path walked backwards."""
    if not path.steps:
        return path
    return EdgePath(tuple((name, -d) for name, d in reversed(path.steps)))


def concat(graph, first, second):
    """``first`` then ``second``; ValidationError unless they compose."""
    if not first.steps:
        return second if second.steps else first
    if not second.steps:
        return first
    if first.end(graph) != second.start(graph):
        raise ValidationError("concatenation of non-composable paths")
    return EdgePath(first.steps + second.steps)


def tree_paths(graph, st):
    """vertex -> the path from the base to it through the tree edges of
    ``st``, found by a search of its own: a tree has one such path."""
    paths = {graph.base: empty_path(graph.base)}
    queue = [graph.base]
    for v in queue:
        for e in graph.edges:
            if e.name not in st.tree_edges:
                continue
            for a, b, d in ((e.origin, e.terminus, 1),
                            (e.terminus, e.origin, -1)):
                if a == v and b not in paths:
                    paths[b] = concat(graph, paths[v], EdgePath(((e.name, d),)))
                    queue.append(b)
    return paths


def basis_loop(graph, paths, edge_name):
    """The based loop T(o(e)) . e . T(t(e))^-1, T = ``tree_paths``."""
    e = graph.edge_by_name[edge_name]
    p = concat(graph, paths[e.origin], EdgePath(((edge_name, 1),)))
    return concat(graph, p, reverse(paths[e.terminus]))


def loop_homology_action(f, st):
    """f* as rows, column j the class of f applied to the j-th basis loop:
    the reference ``homology.homology_action`` reads from tree potentials."""
    paths = tree_paths(f.graph, st)
    cols = [path_class(f.apply_to_path(basis_loop(f.graph, paths, name)), st)
            for name in st.h1_basis]
    return tuple(zip(*cols)) if cols else ()


# ---------------------------------------------------------------------------
# the deck group on a cover, and the lifted chain action


def edge_info(cover):
    """cover edge -> (base edge, element)"""
    return {_at(e.name, x): (e.name, x)
            for e in cover.base_graph.edges for x in cover.elements}


def deck_vertex(cover, name, elem):
    v, x = cover.vertex_info[name]
    return _at(v, cover.quotient.add(x, elem))


def deck_edge(cover, name, elem):
    e, x = edge_info(cover)[name]
    return _at(e, cover.quotient.add(x, elem))


def deck_path(cover, path, elem):
    if path.is_empty():
        return empty_path(deck_vertex(cover, path.anchor, elem))
    return EdgePath(tuple((deck_edge(cover, n, elem), d)
                          for n, d in path.steps))


def project_path(cover, path):
    if path.is_empty():
        return empty_path(cover.vertex_info[path.anchor][0])
    info = edge_info(cover)
    return EdgePath(tuple((info[n][0], d) for n, d in path.steps))


def deck_commutes(lm):
    """Check the lift commutes with every deck transformation."""
    cover = lm.cover
    for s in cover.elements:
        for name in lm.map.edge_image:
            lhs = lm.map.edge_image[deck_edge(cover, name, s)]
            if lhs != deck_path(cover, lm.map.edge_image[name], s):
                return False
    return True


def chain_action_matrix(lm):
    """Signed edge-traversal counts of the lifted map: row e, column e'."""
    names = [e.name for e in lm.cover.graph.edges]
    index = {n: i for i, n in enumerate(names)}
    mat = [[0] * len(names) for _ in names]
    for i, name in enumerate(names):
        for sname, d in lm.map.edge_image[name].steps:
            mat[i][index[sname]] += d
    return mat


def cover_chain_action_check(lm, chi, base_magnus):
    """Compare the lifted chain action on the isotypic subspace of cover
    1-chains with the specialized matrix; exact cyclotomic equality.

    The isotypic vector for base edge e is the sum over fiber labels x of
    conj(chi(x)) times the cover edge (e, x).  The cover must be a
    reduction-mod-k one, whose fiber labels are lattice points themselves.
    """
    cover = lm.cover
    q = cover.quotient
    if q.modulus is None:
        raise ValidationError("the chain check takes a reduction-mod-k cover")
    for row in q.basis:
        if chi.value_exponent(row) != 0:
            raise ValidationError("character incompatible with the cover quotient")

    names = [e.name for e in cover.graph.edges]
    index = {n: i for i, n in enumerate(names)}
    chain = chain_action_matrix(lm)
    spec = specialize_matrix(base_magnus, chi)
    base_edges = [e.name for e in cover.base_graph.edges]
    order = chi.order
    weights = {x: root_of_unity(order, -chi.value_exponent(x))
               for x in cover.elements}

    for i, base_e in enumerate(base_edges):
        lhs = [cyclotomic_zero(order) for _ in names]
        for x in cover.elements:
            row = chain[index[_at(base_e, x)]]
            wx = weights[x]
            for jj, c in enumerate(row):
                if c:
                    lhs[jj] = lhs[jj] + wx * c
        for j, base_e2 in enumerate(base_edges):
            aij = spec[i][j]
            for x in cover.elements:
                target = index[_at(base_e2, x)]
                if not (lhs[target] - aij * weights[x]).is_zero():
                    return False
    return True


def deck_action_on_quotient(lm, st_cover, q_cover, elem):
    """Matrix of the deck element's action on the lift's dynamical quotient."""
    cover = lm.cover
    if q_cover.rank == 0:
        return []
    paths = tree_paths(cover.graph, st_cover)
    cols = [path_class(deck_path(cover, basis_loop(cover.graph, paths, name),
                                 elem), st_cover)
            for name in st_cover.h1_basis]
    r = len(st_cover.h1_basis)
    sigma = [[cols[j][i] for j in range(r)] for i in range(r)]
    proj = [list(row) for row in q_cover.projection]
    sect = [list(row) for row in section(q_cover)]
    return mat_mul(mat_mul(proj, sigma), sect)


# ---------------------------------------------------------------------------
# Magnus matrices and characteristic polynomials over the group ring


def matrix_from_rows(edge_order, dim, rows):
    return MagnusMatrix(len(rows), dim, tuple(edge_order),
                        {(i, j, v): c for i, row in enumerate(rows)
                         for j, e in enumerate(row)
                         for v, c in e.terms.items()})


def identity_magnus(edge_order, dim):
    m = len(edge_order)
    return MagnusMatrix(m, dim, tuple(edge_order),
                        {(i, i, (0,) * dim): 1 for i in range(m)})


def matrix_is_zero(a):
    return not a.terms


def magnus_mat_mul(a, b):
    """Product of two Magnus matrices term by term, exponent tuples added
    coordinatewise: the reference for the packed power kernel."""
    if a.dim != b.dim or a.size != b.size:
        raise DimensionMismatchError("matrix shapes/dimensions differ")
    rows_b = {}
    for (t, j, v), c in b.terms.items():
        rows_b.setdefault(t, []).append((j, v, c))
    out = {}
    for (i, t, v1), c1 in a.terms.items():
        for j, v2, c2 in rows_b.get(t, ()):
            key = (i, j, tuple(x + y for x, y in zip(v1, v2)))
            out[key] = out.get(key, 0) + c1 * c2
    return MagnusMatrix(a.size, a.dim, a.edge_order,
                        {key: c for key, c in out.items() if c})


def stored_powers(a):
    """The powers ``trace_power``'s cache holds on a matrix, as (n, terms
    of A^n) with the packed entries read back as (row, column, exponent)
    keys."""
    state = a._cache.get("powers")
    if state is None:
        return []
    n, entries = state.power
    cb = state.col_bits
    mask = (1 << cb) - 1
    return [(n, {(at & mask, at >> cb, state.decode(n, e)): c
                 for at, terms in entries.items() for e, c in terms})]


def magnus_power(a, k):
    """A^k by k - 1 repeated products, k >= 1."""
    power = a
    for _ in range(k - 1):
        power = magnus_mat_mul(power, a)
    return power


@dataclass(frozen=True)
class EquivariantCharPoly:
    """det(xI - A) with group-ring coefficients, lowest degree first."""

    dim: int
    coefficients: tuple   # m+1 LaurentElements, leading one is 1

    def specialize(self, chi):
        return [specialize(c, chi) for c in self.coefficients]


def charpoly_generic(entries, zero, one):
    """Characteristic polynomial over any commutative Q-algebra.

    Faddeev-LeVerrier: only ring operations plus exact division by integers.
    Returns coefficients lowest degree first (monic).
    """
    n = len(entries)
    coeffs_desc = [one]
    mk = [[zero for _ in range(n)] for _ in range(n)]
    ck = one
    for k in range(1, n + 1):
        b = [[mk[i][j] + (ck if i == j else zero) for j in range(n)]
             for i in range(n)]
        mk = [[sum((entries[i][t] * b[t][j] for t in range(n)), zero)
               for j in range(n)] for i in range(n)]
        tr = sum((mk[i][i] for i in range(n)), zero)
        ck = tr / (-k)
        coeffs_desc.append(ck)
    return list(reversed(coeffs_desc))


def equivariant_charpoly(a, max_size=12):
    if a.size > max_size:
        raise ResourceLimitError(
            f"characteristic polynomial over the group ring limited to "
            f"size {max_size}, got {a.size}")
    coeffs = charpoly_generic([list(r) for r in a.entries],
                              laurent_zero(a.dim), laurent_constant(a.dim, 1))
    return EquivariantCharPoly(a.dim, tuple(coeffs))


def charpoly_complex_exact(entries):
    """Characteristic polynomial of a square matrix of Cyclotomic numbers."""
    order = lcm(*{e.order for row in entries for e in row})
    ents = [[e.promoted(order) for e in row] for row in entries]
    return charpoly_generic(ents, cyclotomic_zero(order),
                            Cyclotomic.from_rational(1, order))


def charpoly_berkowitz(rows):
    """det(xI - M) of a square integer matrix, ascending, by Berkowitz's
    division-free algorithm on plain ints: the exact reference for
    ``linalg.charpoly_int``, which reconstructs by CRT.

    With A the leading k x k block, C the column and R the row that extend
    it, and a the new diagonal entry, det(xI - A') is the Toeplitz product
    of (1, -a, -RC, -RAC, ..., -RA^(k-1)C) with det(xI - A), both written
    highest degree first."""
    poly = [1]
    for k in range(len(rows)):
        col = [rows[i][k] for i in range(k)]
        toeplitz = [1, -rows[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(r * c for r, c in zip(rows[k], col)))
            col = [sum(rows[i][j] * col[j] for j in range(k))
                   for i in range(k)]
        poly = [sum(toeplitz[i - j] * poly[j]
                    for j in range(max(0, i - k - 1), min(i, k) + 1))
                for i in range(k + 2)]
    return poly[::-1]


def cyc_mat_mul(a, b):
    n = len(a)
    return [[sum((a[i][t] * b[t][j] for t in range(n)), cyclotomic_zero())
             for j in range(n)] for i in range(n)]


def cyc_trace(a):
    return sum((a[i][i] for i in range(len(a))), cyclotomic_zero())


# ---------------------------------------------------------------------------
# paths and cycles of the transition graph


def iterate_edge_image(f, edge_name, k):
    """The literal, unreduced path f^k(e)."""
    if k < 1:
        raise ValidationError("iteration exponent must be >= 1")
    if edge_name not in f.graph.edge_by_name:
        raise ValidationError(f"unknown edge {edge_name}")
    path = EdgePath(((edge_name, 1),))
    for _ in range(k):
        path = f.apply_to_path(path)
    return path


def arc_prefix(transition, arc):
    """The arc's prefix: the image steps before its traversal, and the
    reversed step itself for a negative traversal, so it ends at the origin
    of the target edge; the empty path at the image's start when there are
    none."""
    f = transition.graph_map
    img = f.edge_image[transition.nodes[arc.source]]
    steps = img.steps[:arc.step_index + (arc.sign < 0)]
    return EdgePath(steps) if steps else empty_path(img.start(f.graph))


def path_data(transition, arcs):
    """Sign, translation, and prefix path of a composable arc sequence.

    The prefix follows the left-to-right recursion
    prefix(d . a) = f(prefix(d)) . prefix(a); the translation is the sum of
    the arc translations, which agrees with the closed-up class of the
    recursive prefix because the map acts trivially on the quotient.
    """
    if not arcs:
        raise ValidationError("arc sequence must be nonempty")
    f = transition.graph_map
    sign = 1
    translation = (0,) * transition.dim
    prefix = None
    prev = None
    for arc in arcs:
        if prev is not None and arc.source != prev.target:
            raise ValidationError("arcs do not form a composable path")
        sign *= arc.sign
        translation = tuple(x + y for x, y in zip(translation, arc.translation))
        step = arc_prefix(transition, arc)
        prefix = step if prefix is None else \
            concat(f.graph, f.apply_to_path(prefix), step)
        prev = arc
    return sign, translation, prefix


def cycles_from_every_start(transition):
    """The simple cycles as arc index tuples, in ``simple_cycles``' order,
    by Johnson's search from every start node s over all the nodes above s,
    without narrowing to a strongly connected component first."""
    n = len(transition.nodes)
    adj = [[] for _ in range(n)]
    for idx, arc in enumerate(transition.arcs):
        adj[arc.source].append(idx)
    out = []
    for s in range(n):
        blocked = [False] * n
        bsets = [set() for _ in range(n)]
        arc_stack = []
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
                    out.append(tuple(arc_stack) + (aidx,))
                    frame[2] = True
                elif w > s and not blocked[w]:
                    arc_stack.append(aidx)
                    blocked[w] = True
                    frames.append([w, 0, False])
                continue
            frames.pop()
            if found:
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
    return out


def based_cycles(transition, length, arc_subset=None):
    """All based cycles of exactly the given length, as arc index tuples."""
    n = len(transition.nodes)
    allowed = (set(range(len(transition.arcs))) if arc_subset is None
               else set(arc_subset))
    adj = [[] for _ in range(n)]
    for idx in sorted(allowed):
        adj[transition.arcs[idx].source].append(idx)
    out = []

    def walk(start, v, depth, acc):
        if depth == length:
            if v == start:
                out.append(tuple(acc))
            return
        for aidx in adj[v]:
            acc.append(aidx)
            walk(start, transition.arcs[aidx].target, depth + 1, acc)
            acc.pop()

    for s in range(n):
        walk(s, s, 0, [])
    return out


def extremal_subgraph(transition, omega, cap=DEFAULT_CYCLE_CAP):
    """Union of the simple cycles maximizing the functional on normalized
    translations, and the maximum (None when there is no cycle).  Every
    cycle decomposes into simple ones, so this union carries all
    maximizing cycles."""
    omega = tuple(Fraction(x) for x in omega)
    cycles = simple_cycles(transition, cap)
    if not cycles:
        return SubgraphSelection(omega, frozenset()), None
    values = [sum(w * x for w, x in zip(omega, c.normalized)) for c in cycles]
    m = max(values)
    arcs = frozenset(i for c, v in zip(cycles, values) if v == m
                     for i in c.arc_indices)
    return SubgraphSelection(omega, arcs), m


def positive_power(vertex_matrices, vertices, bound):
    """Smallest k <= bound with every vertex trace a single positive monomial
    at k times the vertex; None if no such k within the bound."""
    for mat in vertex_matrices:
        if not is_stable(mat):
            raise ValidationError("positive_power requires stable vertices")

    def positive_monomial(mat, v, k):
        tr = trace_power(mat, k)
        return len(tr.terms) == 1 and coefficient(
            tr, tuple(k * x for x in v)) > 0

    for k in range(1, bound + 1):
        if all(positive_monomial(mat, v, k)
               for mat, v in zip(vertex_matrices, vertices)):
            return k
    return None


# ---------------------------------------------------------------------------
# characters by every grid


def character_scan_every_grid(a, cfg):
    """``search.character_scan`` over every character of each q-grid, so a
    character of exact order e < q is tried again in the q-grid; with
    d = 0 the one trivial character is tried once."""
    m = a.size
    traces = [trace_power(a, k) for k in range(1, cfg.max_power + 1)]
    viable = [sum(abs(c) for c in t.terms.values()) > m for t in traces]
    if not any(viable):
        return None
    for q in range(1, cfg.max_character_order + 1):
        for chi in character_grid(a.dim, q):
            for k in range(1, cfg.max_power + 1):
                if not viable[k - 1]:
                    continue
                z = specialize(traces[k - 1], chi)
                if _above(z, m):
                    return Finding("character", power=k,
                                   value=str(abs(z.to_complex())),
                                   character=chi)
        if a.dim == 0:
            break
    return None


def locate_in_sorted_union(a, finding, bound):
    """``search._locate_character`` on the matrix ``a`` by sorting every
    candidate: the j-grid of an anchored finding, or the union of the
    grids up to min(width + 1, bound) for an l2 one, ordered by exact
    order, grid order and exponents, with the trivial character once per
    grid.  A cap that removed a candidate is a ResourceLimitError."""
    m = a.size
    k = finding.power
    t = trace_power(a, k)
    if finding.kind == "anchored":
        basis = finding.lattice.basis
        found = character_grid(a.dim, basis[0][0] if basis else 1)
        chars = [chi for chi in found if chi.exact_order() <= bound]
        cut = len(chars) < len(found)
    else:
        width = _support_width(t)
        top = min(width + 1, bound)
        chars = [chi for q in range(1, top + 1)
                 for chi in character_grid(a.dim, q)]
        cut = top < width + 1
    chars.sort(key=lambda c: (c.exact_order(), c.order, c.exponents))
    for chi in chars:
        if _above(specialize(t, chi), m):
            return chi
    if cut:
        raise ResourceLimitError(
            f"no character of order at most {bound} is above the threshold "
            f"at power {k}; higher orders exceed the cover degree cap")
    raise CertificateError(
        f"{finding.kind} finding at power {k} produced no character above "
        f"the threshold; this contradicts the averaging identity")


# ---------------------------------------------------------------------------
# certificates


def build_certificate(f, finding, cfg=None):
    """Convert a criterion hit on the base map into an exactly verified
    cover certificate, as the search does for the finding it acts on,
    within the base level's order bound."""
    if finding is None:
        raise ValidationError("no finding to convert")
    an = Analysis.of(f)
    cap = (cfg or SearchConfig()).max_cover_degree
    return _certify(an, finding, _order_bound(1, an.quotient.rank, cap))
