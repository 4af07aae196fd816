"""Exact arithmetic in the group ring of Z^d: finitely supported rational
combinations of lattice points, i.e. multivariate Laurent polynomials.

Includes characters (evaluation homomorphisms into C^x, stored exactly as
roots of unity), finite-index sublattices with optional translates, and the
averaging identity that recovers a lattice restriction from specializations
at the characters annihilating the lattice.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, sqrt

from . import linalg
from .cyclotomic import Cyclotomic, exact_coefficient
from .errors import DimensionMismatchError, ValidationError


class LaurentElement:
    """Finitely supported map Z^d -> Q; no zero coefficients are stored.

    Coefficients stay plain ints as long as no division happens, which keeps
    the hot paths (matrix products, trace powers) off Fraction arithmetic;
    ints and Fractions compare and hash consistently so mixing is safe.
    Inexact coefficients (floats, complex numbers) are refused.
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

    @staticmethod
    def zero(dim):
        return LaurentElement._raw(dim, {})

    @staticmethod
    def constant(dim, value):
        return LaurentElement(dim, {(0,) * dim: value})

    @staticmethod
    def monomial(vec, coeff=1):
        return LaurentElement(len(vec), {tuple(vec): coeff})

    # -- ring structure ------------------------------------------------------

    def _check(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentElement.constant(self.dim, other)
        self._check(other)
        out = dict(self.terms)
        for v, c in other.terms.items():
            out[v] = out.get(v, 0) + c
        return LaurentElement(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentElement(self.dim, {v: -c for v, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentElement.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentElement(self.dim,
                                  {v: c * other for v, c in self.terms.items()})
        self._check(other)
        out = {}
        for v1, c1 in self.terms.items():
            for v2, c2 in other.terms.items():
                v = tuple(a + b for a, b in zip(v1, v2))
                out[v] = out.get(v, 0) + c1 * c2
        return LaurentElement(self.dim, out)

    __rmul__ = __mul__

    def __truediv__(self, k):
        return LaurentElement(
            self.dim, {v: Fraction(c) / k for v, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentElement.constant(self.dim, other)
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        raise TypeError("LaurentElement is not hashable")

    def is_zero(self):
        return not self.terms

    def support(self):
        return sorted(self.terms)

    def coefficient(self, vec):
        return self.terms.get(tuple(vec), 0)

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
        n = 1
        for a in self.exponents:
            k = self.order // gcd(a, self.order)
            n = n * k // gcd(n, k)
        return n

    def value_exponent(self, vec):
        """Exponent e with value = zeta_order^e on the lattice point vec."""
        return sum(a * x for a, x in zip(self.exponents, vec)) % self.order

    def eval(self, vec):
        return Cyclotomic.root_of_unity(self.order, self.value_exponent(vec))


@dataclass(frozen=True)
class Lattice:
    """A sublattice of Z^d given by basis rows, plus an optional translate.

    Full rank (nonzero determinant) means finite index; lower-rank bases are
    allowed for membership and restriction but have no character theory.
    """

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

    def rank(self):
        if not self.basis:
            return 0
        _s, diag, _t = self._snf_data()
        return sum(1 for x in diag if x)

    def is_finite_index(self):
        return self.dim == 0 or self.rank() == self.dim

    def index(self):
        if not self.is_finite_index():
            raise ValidationError("lattice does not have finite index")
        if self.dim == 0:
            return 1
        _s, diag, _t = self._snf_data()
        out = 1
        for x in diag:
            out *= x
        return out

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


def l2_norm(t):
    return sqrt(l2_norm_squared(t))


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


def annihilator_characters(lat):
    """The characters of Z^d trivial on the lattice (finite index required).

    There are index-many; they are the character group of Z^d / L, read off
    the Smith form of the basis.
    """
    if not lat.is_finite_index():
        raise ValidationError("annihilator requires a finite-index lattice")
    d = lat.dim
    if d == 0:
        return [Character(0, 1, ())]
    _s, diag, t = lat._snf_data()
    n = 1
    for x in diag:
        n = n * x // gcd(n, x)
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
    total = Cyclotomic.zero(1)
    w = lat.translate
    for chi in chars:
        val = specialize(t, chi)
        twist = Cyclotomic.root_of_unity(chi.order, -chi.value_exponent(w))
        total = total + twist * val
    return total / len(chars)
