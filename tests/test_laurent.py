import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homolift import cyclotomic
from homolift.cyclotomic import Cyclotomic
from homolift.errors import (DimensionMismatchError, HomoliftError,
                             ResourceLimitError, ValidationError)
from homolift.laurent import (Character, Lattice, character_grid,
                              l2_norm_squared, lattice_restriction,
                              specialize)
from oracles import (annihilator_characters, average_over_annihilator,
                     character_value, coefficient, cyclotomic_zero,
                     is_finite_index, l2_norm, lattice_index,
                     laurent_constant, laurent_zero, monomial, root_of_unity)

X = monomial((1, 0))
Y = monomial((0, 1))
ONE = laurent_constant(2, 1)


def laurent_elements(dim, max_terms=5, coeff_bound=5, exp_bound=3):
    vec = st.tuples(*[st.integers(-exp_bound, exp_bound)] * dim)
    term = st.tuples(vec, st.integers(-coeff_bound, coeff_bound))
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum((monomial(v, c) for v, c in terms),
                          laurent_zero(dim)))


def test_ring_examples():
    assert (ONE + Y) * (ONE - Y) == ONE - Y * Y
    assert X * monomial((-1, 0)) == ONE
    assert (ONE - X) + X == ONE


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        X * monomial((1,))


@settings(max_examples=60)
@given(laurent_elements(2), laurent_elements(2), laurent_elements(2))
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


def test_specialize_examples():
    assert specialize(ONE + Y, Character(2, 1, (0, 0))) == 2
    assert specialize(ONE + Y, Character(2, 2, (0, 1))) == 0
    v = specialize(ONE - X, Character(2, 4, (1, 0)))
    assert abs(v.to_complex() - (1 - 1j)) < 1e-12


@settings(max_examples=40)
@given(laurent_elements(2, exp_bound=2), laurent_elements(2, exp_bound=2),
       st.integers(1, 6), st.tuples(st.integers(0, 5), st.integers(0, 5)))
def test_specialize_is_ring_homomorphism(a, b, order, exps):
    chi = Character(2, order, exps)
    lhs = specialize(a * b, chi)
    rhs = specialize(a, chi) * specialize(b, chi)
    assert (lhs - rhs).is_zero()
    assert (specialize(a + b, chi) - specialize(a, chi) - specialize(b, chi)).is_zero()


def test_l2_examples():
    assert abs(l2_norm(ONE + Y) - math.sqrt(2)) < 1e-12
    assert l2_norm(laurent_zero(2)) == 0
    assert l2_norm(3 * X - 4 * Y) == 5.0
    assert l2_norm_squared(ONE + Y) == 2


def test_lattice_restriction_examples():
    L2 = Lattice.scaled(2, 2)
    assert lattice_restriction(ONE + Y, L2) == 1
    assert lattice_restriction(ONE + Y, Lattice.scaled(2, 1)) == 2
    assert lattice_restriction(X * X + Y * Y, L2) == 2


def test_lattice_membership_and_index():
    lat = Lattice(2, ((2, 1), (0, 3)))
    assert lattice_index(lat) == 6
    assert lat.contains((2, 1))
    assert lat.contains((2, 4))
    assert not lat.contains((1, 0))
    shifted = Lattice(2, ((2, 1), (0, 3)), (1, 0))
    assert shifted.contains((3, 1))
    assert not shifted.contains((2, 1))


def test_degenerate_lattice():
    point = Lattice(2, (), (1, 2))
    assert point.contains((1, 2))
    assert not point.contains((1, 3))
    assert not is_finite_index(point)
    with pytest.raises(ValidationError):
        annihilator_characters(point)


def test_character_grid_examples():
    assert [c.exponents for c in character_grid(1, 2)] == [(0,), (1,)]
    assert len(character_grid(2, 1)) == 1
    grid3 = character_grid(1, 3)
    assert len(grid3) == 3
    vals = sorted(round(character_value(c, (1,)).to_complex().real, 6)
                  for c in grid3)
    assert vals == [-0.5, -0.5, 1.0]


def test_average_examples():
    L2 = Lattice.scaled(2, 2)
    assert average_over_annihilator(ONE + Y, L2).rational_value() == 1
    assert average_over_annihilator(ONE, L2).rational_value() == 1
    assert average_over_annihilator(X, Lattice.scaled(2, 1)).rational_value() == 1


def _random_element(rng, d, max_terms=8, coeff=5, exp=4):
    t = laurent_zero(d)
    for _ in range(rng.randint(1, max_terms)):
        vec = tuple(rng.randint(-exp, exp) for _ in range(d))
        t = t + monomial(vec, rng.randint(-coeff, coeff))
    return t


def _random_lattice(rng, d, max_index=27):
    while True:
        basis = [[0] * d for _ in range(d)]
        for i in range(d):
            basis[i][i] = rng.randint(1, 3)
            for j in range(d):
                if j != i:
                    basis[i][j] = rng.randint(-2, 2)
        lat = Lattice(d, tuple(tuple(r) for r in basis))
        if is_finite_index(lat) and lattice_index(lat) <= max_index:
            return lat


def test_averaging_identity_randomized():
    # restriction equals the average of specializations over the annihilator
    rng = random.Random(7)
    for _ in range(100):
        d = rng.randint(1, 3)
        t = _random_element(rng, d)
        lat = _random_lattice(rng, d)
        assert average_over_annihilator(t, lat).rational_value() == \
            lattice_restriction(t, lat)


def test_averaging_identity_translated():
    rng = random.Random(8)
    for _ in range(40):
        d = rng.randint(1, 2)
        t = _random_element(rng, d)
        w = tuple(rng.randint(-2, 2) for _ in range(d))
        lat = Lattice.scaled(d, rng.randint(1, 4), w)
        assert average_over_annihilator(t, lat).rational_value() == \
            lattice_restriction(t, lat)


def test_finite_parseval_randomized():
    # sum over the full grid of |t(chi)|^2 equals q^d times the squared norm
    rng = random.Random(9)
    for _ in range(100):
        d = rng.randint(1, 3)
        bound = 2
        t = _random_element(rng, d, exp=bound)
        q = 2 * bound + 1
        total = cyclotomic_zero(1)
        for chi in character_grid(d, q):
            total = total + specialize(t, chi).magnitude_squared()
        assert (total / q ** d).rational_value() == l2_norm_squared(t)


def test_annihilator_characters_kill_lattice():
    rng = random.Random(10)
    for _ in range(30):
        d = rng.randint(1, 3)
        lat = _random_lattice(rng, d)
        chars = annihilator_characters(lat)
        assert len(chars) == lattice_index(lat)
        for chi in chars[:5]:
            for row in lat.basis:
                assert chi.value_exponent(row) == 0


def test_annihilator_of_a_scaled_lattice_is_the_grid():
    # the anchored conversion enumerates character_grid(d, j) for jZ^d:
    # the same characters in the same order as the Smith-form annihilator
    pairs = [(0, 1)] + [(d, j) for d in range(1, 7) for j in range(1, 65)
                        if j ** d <= 64]
    assert len(pairs) == 83
    for d, j in pairs:
        assert annihilator_characters(Lattice.scaled(d, j)) == \
            character_grid(d, j)


def test_text_form():
    t = ONE - X + 2 * monomial((-1, 3))
    assert t.to_text() == "2*X1^-1*X2^3 + 1 + -1*X1^1"
    assert laurent_zero(2).to_text() == "0"
    assert laurent_constant(0, 3).to_text() == "3"


def test_cyclotomic_compare():
    z5 = root_of_unity(5, 1)
    golden_ratio_part = z5 + z5.conjugate()   # 2cos(72) = golden ratio - 1
    assert golden_ratio_part.compare(Fraction(618, 1000)) == 1
    assert golden_ratio_part.compare(Fraction(619, 1000)) == -1
    assert (z5 * z5.conjugate()).rational_value() == 1


def test_sign_of_a_non_real_element_is_a_homolift_error():
    with pytest.raises(HomoliftError, match="non-real"):
        root_of_unity(5, 1).real_sign()


def test_sign_refinement_that_never_separates_is_a_resource_limit(
        monkeypatch):
    # cos enclosures that never tighten: the refinement must give up loudly
    monkeypatch.setattr(cyclotomic, "_cos_enclosure",
                        lambda num, den, prec: (Fraction(-1), Fraction(1)))
    z5 = root_of_unity(5, 1)
    with pytest.raises(ResourceLimitError, match="did not converge"):
        (z5 + z5.conjugate()).real_sign()


def test_cos_enclosure_tightens_with_the_precision():
    # pi is computed to the requested precision, so the enclosure keeps
    # shrinking past the 335 bits a 100-digit pi allows
    for prec in (64, 512, 1024):
        lo, hi = cyclotomic._cos_enclosure(1, 7, prec)
        assert 0 < hi - lo < Fraction(1, 2 ** (prec - 2))
    # exact values stay inside: cos(2pi/3) = -1/2, (4 cos(2pi/5) + 1)^2 = 5
    lo, hi = cyclotomic._cos_enclosure(1, 3, 1024)
    assert lo <= Fraction(-1, 2) <= hi
    lo, hi = cyclotomic._cos_enclosure(1, 5, 1024)
    assert (4 * lo + 1) ** 2 <= 5 <= (4 * hi + 1) ** 2


def test_cyclotomic_mixed_orders():
    z6 = root_of_unity(6, 1)
    z3 = root_of_unity(3, 1)
    assert z6 * z6 == z3
    assert (1 + z3 + z3 * z3).is_zero()


def test_division_is_exact():
    # an int coefficient over an int divisor is a Fraction, never a float
    third = laurent_constant(1, 1) / 3
    assert coefficient(third, (0,)) == Fraction(1, 3)
    assert (Cyclotomic(1, [1]) / 3).coeffs == (Fraction(1, 3),)
    assert (Cyclotomic(2, [2, 0]) / 2).coeffs == (1, 0)


@pytest.mark.parametrize("bad", [0.5, 2.0, 1j, float("nan")])
def test_inexact_coefficients_are_refused(bad):
    with pytest.raises(ValidationError):
        laurent_constant(1, bad)
    with pytest.raises(ValidationError):
        Cyclotomic(2, [1, bad])


def test_integral_coefficients_become_ints():
    t = monomial((1,), np.int64(3))
    assert type(coefficient(t, (1,))) is int and coefficient(t, (1,)) == 3
    z = Cyclotomic(2, [np.int32(-2), Fraction(1, 2)])
    assert [type(c) for c in z.coeffs] == [int, Fraction]
    assert z.coeffs == (-2, Fraction(1, 2))
