"""Exact arithmetic in the group ring of Z^d: finitely supported rational
combinations of lattice points, i.e. multivariate Laurent polynomials.

Includes characters (evaluation homomorphisms into C^x, stored exactly as
roots of unity), the exact specialization of an element at a character, and
sublattices with optional translates, to which an element restricts as the
sum of its coefficients there.  The averaging identity, which recovers that
restriction from the specializations at the characters annihilating the
lattice, is the tests' reference (``tests/oracles.py``); the anchoring
criterion reads the restriction off residue classes directly.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from . import linalg
from .cyclotomic import Cyclotomic, exact_coefficient
from .errors import DimensionMismatchError, ValidationError


class LaurentElement:
    """Finitely supported map Z^d -> Q; no zero coefficients are stored.

    Coefficients stay plain ints as long as no division happens, which keeps
    the hot paths (matrix products, trace powers) off Fraction arithmetic;
    ints and Fractions compare and hash consistently so mixing is safe.
    Inexact coefficients (floats, complex numbers) are refused.  The
    package builds elements from term dicts; the ring operations are the
    tests' (``tests/oracles.py``).
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = dim
        clean = {}
        for vec, coeff in (terms or {}).items():
            if not isinstance(coeff, (int, Fraction)):
                coeff = exact_coefficient(coeff)
            if coeff:
                v = tuple(int(x) for x in vec)
                if len(v) != dim:
                    raise DimensionMismatchError(
                        f"exponent {v} has wrong length for dimension {dim}")
                clean[v] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, dim, terms):
        """Internal: terms already clean (no zeros, tuple keys)."""
        obj = cls.__new__(cls)
        obj.dim = dim
        obj.terms = terms
        return obj

    def is_zero(self):
        return not self.terms

    def support(self):
        return sorted(self.terms)

    def __repr__(self):
        return f"LaurentElement({self.to_text()!r})"

    def to_text(self):
        """Canonical text: monomials in lexicographic exponent order."""
        if not self.terms:
            return "0"
        parts = []
        for vec in sorted(self.terms):
            c = self.terms[vec]
            mono = "*".join(f"X{i + 1}^{e}" for i, e in enumerate(vec) if e)
            if mono:
                parts.append(f"{c}*{mono}")
            else:
                parts.append(f"{c}")
        return " + ".join(parts)


def character_order(a, orders):
    """The exact order of the character a of prod Z/orders_i, whose i-th
    component has order orders_i / gcd(a_i, orders_i)."""
    return lcm(*(n // gcd(ai, n) for ai, n in zip(a, orders)))


@dataclass(frozen=True)
class Character:
    """A homomorphism Z^d -> C^x with values among roots of unity.

    A common order n and exponents (a_1..a_d): the i-th value is
    exp(2*pi*i*a_i/n).
    """

    dim: int
    order: int
    exponents: tuple

    def __post_init__(self):
        if len(self.exponents) != self.dim:
            raise DimensionMismatchError("wrong number of exponents")
        object.__setattr__(self, "exponents",
                           tuple(a % self.order for a in self.exponents))

    def exact_order(self):
        """Order of the image group (lcm of component orders)."""
        return character_order(self.exponents, (self.order,) * self.dim)

    def value_exponent(self, vec):
        """Exponent e with value = zeta_order^e on the lattice point vec."""
        return sum(a * x for a, x in zip(self.exponents, vec)) % self.order


@dataclass(frozen=True)
class Lattice:
    """A sublattice of Z^d given by basis rows, plus an optional translate;
    membership is read off the Smith form of the basis, of any rank."""

    dim: int
    basis: tuple                 # rows, each of length dim
    translate: tuple = None

    def __post_init__(self):
        for row in self.basis:
            if len(row) != self.dim:
                raise DimensionMismatchError("basis row of wrong length")
        if self.translate is None:
            object.__setattr__(self, "translate", (0,) * self.dim)
        elif len(self.translate) != self.dim:
            raise DimensionMismatchError("translate of wrong length")
        object.__setattr__(self, "_snf", None)

    @staticmethod
    def scaled(dim, j, translate=None):
        """The lattice j*Z^d."""
        basis = tuple(tuple(j if i == k else 0 for k in range(dim))
                      for i in range(dim))
        return Lattice(dim, basis, translate)

    def _snf_data(self):
        if self._snf is None:
            s, d, t = linalg.smith_normal_form([list(r) for r in self.basis])
            object.__setattr__(self, "_snf",
                               (s, linalg.smith_diagonal(d), t))
        return self._snf

    def contains(self, vec):
        """Membership of vec in (translate + row span)."""
        v = [x - w for x, w in zip(vec, self.translate)]
        if not self.basis:
            return all(x == 0 for x in v)
        _s, diag, t = self._snf_data()
        vt = linalg.vec_mat(v, t)
        r = len(diag)
        for i, x in enumerate(vt):
            if i < r and diag[i]:
                if x % diag[i]:
                    return False
            elif x:
                return False
        return True


# ---------------------------------------------------------------------------
# operations


def specialize(t, chi):
    """Exact (cyclotomic) value of the element at the character."""
    if t.dim != chi.dim:
        raise DimensionMismatchError("element and character dimensions differ")
    n = chi.order
    acc = [0] * n
    for v, c in t.terms.items():
        acc[chi.value_exponent(v)] += c
    return Cyclotomic(n, acc)


def l2_norm_squared(t):
    return sum(c * c for c in t.terms.values())


def lattice_restriction(t, lat):
    """Sum of coefficients over support points lying in the lattice translate."""
    if t.dim != lat.dim:
        raise DimensionMismatchError("element and lattice dimensions differ")
    return sum((c for v, c in t.terms.items() if lat.contains(v)), Fraction(0))


def character_grid(d, q):
    """All q^d characters with values among the q-th roots of unity."""
    if q < 1:
        raise ValidationError("grid order must be >= 1")
    return [Character(d, q, exps) for exps in product(range(q), repeat=d)]
