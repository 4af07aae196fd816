from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homolift.laurent import Lattice
from homolift.linalg import (cyclotomic_orders_up_to_degree, hermite_row_form,
                             identity_matrix, smith_normal_form)
from oracles import mat_mul, mat_rank_rational


@st.composite
def int_matrices(draw):
    """Small integer matrices, 0 x 0 and rectangular among them: arbitrary,
    zero, of lower rank (a product through a narrower middle), or with no
    entry +-1, so no pivot is a unit."""
    nr = draw(st.integers(0, 5))
    nc = draw(st.integers(0, 5)) if nr else 0
    kind = draw(st.sampled_from(["any", "zero", "low rank", "no unit"]))

    def block(rows, cols, entries):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if kind == "zero":
        return [[0] * nc for _ in range(nr)]
    if kind == "no unit":
        return block(nr, nc, st.integers(-9, 9).filter(lambda x: abs(x) != 1))
    if kind == "low rank":
        k = draw(st.integers(0, min(nr, nc)))
        a, b = block(nr, k, st.integers(-4, 4)), block(k, nc, st.integers(-4, 4))
        return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(nc)]
                for i in range(nr)]
    return block(nr, nc, st.integers(-9, 9))


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_smith_normal_form(mat):
    nr, nc = len(mat), len(mat[0]) if mat else 0
    diag, t = smith_normal_form(mat)
    rank = mat_rank_rational(mat)
    # nonnegative, d1 | d2 | ..., zeros last, and as many nonzeros as the rank
    assert len(diag) == min(nr, nc) and all(x >= 0 for x in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    assert sum(map(bool, diag)) == rank
    # d1 is the gcd of the entries; the transpose has the same diagonal
    assert diag[:1] == [reduce(gcd, sum(mat, []), 0)][:len(diag)]
    assert smith_normal_form(_transpose(mat))[0] == diag
    # T is unimodular; mat*T = S^-1 D: column i is divisible by d_i, and
    # the columns past the rank are zero
    assert len(t) == nc and hermite_row_form(t) == identity_matrix(nc)
    cols = _transpose(mat_mul(mat, t)) if nr else [[]] * nc
    for i, col in enumerate(cols):
        if i < rank:
            assert all(x % diag[i] == 0 for x in col)
        else:
            assert not any(col)


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_hermite_row_form(mat):
    h = hermite_row_form(mat)
    assert len(h) == len(mat) and all(len(r) == len(mat[0]) for r in h)
    nonzero = [row for row in h if any(row)]
    assert len(nonzero) == mat_rank_rational(mat)
    assert h[len(nonzero):] == [[0] * len(row) for row in h[len(nonzero):]]
    # echelon, with positive pivots and the entries above them reduced
    pivots = [next(j for j, x in enumerate(row) if x) for row in nonzero]
    assert pivots == sorted(set(pivots))
    for r, j in enumerate(pivots):
        assert h[r][j] > 0
        assert all(0 <= h[i][j] < h[r][j] for i in range(r))
    assert hermite_row_form(h) == h
    # the same row lattice: each basis lies in the other's span
    if nonzero:
        dim = len(mat[0])
        for a, b in ((nonzero, mat), (mat, nonzero)):
            lattice = Lattice(dim, tuple(map(tuple, a)))
            assert all(lattice.contains(row) for row in b)


def test_cyclotomic_orders_are_a_cached_tuple():
    # phi(n) counted by gcds, up to n = 999, past every cutoff 6 deg + 30
    phi = [0] + [sum(gcd(n, i) == 1 for i in range(1, n + 1))
                 for n in range(1, 1000)]
    for deg in range(-1, 31):
        orders = cyclotomic_orders_up_to_degree(deg)
        assert type(orders) is tuple
        assert orders == tuple(n for n in range(1, 1000) if phi[n] <= deg)
        assert cyclotomic_orders_up_to_degree(deg) is orders


@pytest.mark.xfail(strict=True, reason="the fixed-pivot elimination grows "
                   "entries exponentially in the size on dense matrices")
def test_smith_transform_entries_stay_small():
    # a 5 x 5 matrix with entries below 10 and no unit: its diagonal is
    # (1, 1, 1, 1, 30314), yet T's entries reach thousands of bits, and on
    # dense 6 x 6 matrices the elimination does not finish in minutes
    mat = [[-4, 0, 9, 4, 9], [-9, -8, -7, 6, 2], [-9, -7, -4, -4, 6],
           [4, -5, -5, -6, -5], [6, 4, -6, -2, -5]]
    diag, t = smith_normal_form(mat)
    assert diag == [1, 1, 1, 1, 30314]
    assert max(abs(x) for row in t for x in row).bit_length() <= 64
