"""Exact convex geometry over the rationals, at the small scales that show
up here (ambient dimension a handful, point sets in the hundreds).

Membership in a convex hull is a phase-1 simplex feasibility check with
Fraction arithmetic and Bland's rule; hull vertices are the points that are
not convex combinations of the others.
"""

from fractions import Fraction
from math import lcm

from . import linalg


def _simplex_feasible(cols, rhs):
    """Is there x >= 0 with A x = rhs?  cols = columns of A (rational)."""
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
            break  # unbounded cannot happen for phase 1, but bail safely
        _best, leave = min(ratios, key=lambda p: (p[0], basis[p[1]]))
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        if obj[enter]:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, rows[leave])]
        basis[leave] = enter
    return obj[-1] == 0


def in_convex_hull(point, points):
    """Exact test: point in conv(points)?"""
    if not points:
        return False
    d = len(point)
    cols = [list(p) + [Fraction(1)] for p in points]
    rhs = list(point) + [Fraction(1)]
    return _simplex_feasible(cols, rhs)


def hull_vertices(points):
    """Extreme points of the hull of a finite set, sorted, duplicates removed."""
    uniq = sorted({tuple(Fraction(x) for x in p) for p in points})
    if len(uniq) <= 1:
        return uniq
    verts = []
    for i, p in enumerate(uniq):
        others = [q for j, q in enumerate(uniq) if j != i]
        if not in_convex_hull(p, others):
            verts.append(p)
    return verts


def affine_dimension(points):
    """Dimension of the affine hull, -1 when empty: the rank of the
    differences from the least point, each scaled to integers by the lcm of
    its denominators, counted as the nonzero rows of their Hermite form."""
    uniq = sorted({tuple(p) for p in points})
    if not uniq:
        return -1
    rows = []
    for p in uniq[1:]:
        diff = [a - b for a, b in zip(p, uniq[0])]
        scale = lcm(*(x.denominator for x in diff))
        rows.append([int(x * scale) for x in diff])
    return sum(map(any, linalg.hermite_row_form(rows)[0]))
