"""Exact convex geometry over the rationals, at the small scales that show
up here (ambient dimension a handful, point sets in the hundreds).

Membership in a convex hull is a phase-1 simplex feasibility check with
Bland's rule, in integers: the points are scaled by the lcm of their
denominators, and the tableau is pivoted by the integer-preserving rule of
Edmonds and Bareiss, so no rational is ever formed.  Hull vertices are the
points that are not convex combinations of the others.  Coordinates are
ints or Fractions; only their numerators and denominators are read.
"""

from math import lcm

from . import linalg


def _scaled(points):
    """The points times the lcm of all their coordinates' denominators, as
    tuples of ints."""
    scale = lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (scale // x.denominator) for x in p)
            for p in points]


def _feasible(cols, rhs):
    """Is there x >= 0 with A x = rhs?  cols = columns of A (integers).

    The tableau, with an artificial variable per row whose sum phase 1
    drives to zero, is kept as D times the rational one, D the last pivot
    (the basis determinant, positive as every pivot is).  A pivot p =
    T[r][c] keeps row r and turns every other row x into (p x - x[c] T[r])
    // D, which divides exactly; signs and the ratio test's cross-multiplied
    comparisons are those of the rational tableau, so the pivots are the
    rational simplex's own.
    """
    m = len(rhs)
    n = len(cols)
    rows = []
    for i in range(m):
        row = [col[i] for col in cols]
        b = rhs[i]
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row + [int(k == i) for k in range(m)] + [b])
    # objective: sum of artificial rows (to be driven to zero)
    obj = [sum(col) for col in zip(*rows)]
    obj[n:n + m] = [0] * m
    basis = list(range(n, n + m))
    last = 1
    while True:
        enter = next((j for j in range(n + m) if obj[j] > 0), None)
        if enter is None:
            break
        rising = [i for i in range(m) if rows[i][enter] > 0]
        if not rising:
            break  # unbounded cannot happen for phase 1, but bail safely
        leave = rising[0]
        for i in rising[1:]:
            # least ratio rows[i][-1] / rows[i][enter], ties to the least
            # basis index (Bland)
            diff = (rows[i][-1] * rows[leave][enter]
                    - rows[leave][-1] * rows[i][enter])
            if diff < 0 or diff == 0 and basis[i] < basis[leave]:
                leave = i
        top = rows[leave]
        piv = top[enter]
        for i, row in enumerate(rows):
            if i != leave:
                f = row[enter]
                rows[i] = [(piv * x - f * y) // last for x, y in zip(row, top)]
        f = obj[enter]
        obj = [(piv * x - f * y) // last for x, y in zip(obj, top)]
        basis[leave] = enter
        last = piv
    return obj[-1] == 0


def in_convex_hull(point, points):
    """Exact test: point in conv(points)?"""
    if not points:
        return False
    scaled = _scaled([point, *points])
    return _feasible([p + (1,) for p in scaled[1:]], scaled[0] + (1,))


def hull_vertices(points):
    """Extreme points of the hull of a finite set, sorted, duplicates removed."""
    uniq = sorted({tuple(p) for p in points})
    if len(uniq) <= 1:
        return uniq
    scaled = _scaled(uniq)
    return [p for i, p in enumerate(uniq)
            if not in_convex_hull(scaled[i], scaled[:i] + scaled[i + 1:])]


def affine_dimension(points):
    """Dimension of the affine hull, -1 when empty: the rank of the
    differences from the least point, scaled to integers, counted as the
    nonzero rows of their Hermite form."""
    uniq = sorted({tuple(p) for p in points})
    if not uniq:
        return -1
    scaled = _scaled(uniq)
    rows = [[a - b for a, b in zip(p, scaled[0])] for p in scaled[1:]]
    return sum(map(any, linalg.hermite_row_form(rows)[0]))
