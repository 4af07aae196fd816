"""Exact arithmetic with roots of unity.

An element of Q(zeta_n) is stored as rational coefficients on the powers
zeta_n^0 .. zeta_n^{n-1}.  This representation makes products a cyclic
convolution; equality and zero tests reduce modulo the n-th cyclotomic
polynomial, which cuts the representation down to a basis.

Sign decisions for real elements never use floating point: after the exact
zero test, the element is evaluated in rational interval arithmetic with
enough Taylor terms of cos to separate it from zero.  Termination is
guaranteed because zero was excluded exactly.
"""

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import linalg
from .errors import ResourceLimitError, ValidationError

def exact_coefficient(c):
    """An int or Fraction as is, any other integral type (numpy ints) as an
    int; inexact values (floats, complex numbers) raise ValidationError."""
    if isinstance(c, (int, Fraction)):
        return c
    try:
        return operator.index(c)
    except TypeError:
        raise ValidationError(
            f"coefficient {c!r} is not an exact rational") from None


@lru_cache(maxsize=None)
def _pi_fixed(bits):
    """(p, e) with |p - pi * 2**bits| <= e, in integers by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239)."""
    p = e = 0
    for weight, x in ((16, 5), (-4, 239)):
        power, k = (1 << bits) // x, 1    # floor(2**bits / x**k)
        while power:
            p += weight * (power // k if k % 4 == 1 else -(power // k))
            e += 2 * abs(weight)          # each floored term is off by < 2
            power //= x * x
            k += 2
        e += abs(weight)                  # the alternating tail is below 1
    return p, e


@lru_cache(maxsize=4096)
def _cos_enclosure(num, den, prec):
    """Certified enclosure of cos(2*pi*num/den), 0 <= num < den, with
    denominators 2**prec and width below 2**(2 - prec).

    Fixed point with 32 guard bits: theta = 2*pi*num/den is known to
    ``err`` units, |cos a - cos b| <= |a - b|, and the Taylor series at
    theta carries a bound on every floored term.
    """
    g = prec + 32
    one = 1 << g
    pi, pi_err = _pi_fixed(g)
    theta = 2 * num * pi // den              # in [0, 2*pi), scaled by 2**g
    err = 2 * pi_err + 1
    x2 = theta * theta >> g                  # theta^2, off by < 1 unit
    acc, term, term_err, k = 0, one, 0, 0
    # from k = 5 on each true term is below half the previous (theta^2 <
    # 49), so once the terms vanish the tail is at most twice the next one
    while k < 5 or term:
        acc += -term if k % 2 else term
        err += term_err
        c = one * (2 * k + 1) * (2 * k + 2)
        term, term_err = (term * x2 // c,
                          (term_err * x2 + term + term_err) // c + 2)
        k += 1
    err += 2 * (term + term_err)
    return (Fraction((acc - err) >> 32, 1 << prec),
            Fraction(-(-(acc + err) >> 32), 1 << prec))


class Cyclotomic:
    """An element of Q(zeta_order).

    Coefficients stay plain ints until a division forces Fractions; the two
    types compare and hash consistently, so mixing is harmless.  Inexact
    coefficients (floats, complex numbers) are refused.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        if len(coeffs) != order:
            raise ValueError("coefficient vector must have length = order")
        self.order = order
        self.coeffs = tuple(c if isinstance(c, (int, Fraction))
                            else exact_coefficient(c) for c in coeffs)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rational(value, order=1):
        c = [0] * order
        c[0] = value
        return Cyclotomic(order, c)

    # -- structural helpers ------------------------------------------------

    def promoted(self, order):
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only promote to a multiple order")
        step = order // self.order
        c = [0] * order
        for j, x in enumerate(self.coeffs):
            c[j * step] = x
        return Cyclotomic(order, c)

    @staticmethod
    def _common(a, b):
        n = a.order * b.order // gcd(a.order, b.order)
        return a.promoted(n), b.promoted(n)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, 1)
        a, b = Cyclotomic._common(self, other)
        return Cyclotomic(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, 1)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, tuple(x * other for x in self.coeffs))
        a, b = Cyclotomic._common(self, other)
        n = a.order
        out = [0] * n
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        k = i + j
                        out[k - n if k >= n else k] += x * y
        return Cyclotomic(n, out)

    __rmul__ = __mul__

    def __truediv__(self, k):
        return Cyclotomic(self.order,
                          tuple(Fraction(x) / k for x in self.coeffs))

    def conjugate(self):
        n = self.order
        out = [0] * n
        for j, x in enumerate(self.coeffs):
            out[(-j) % n] += x
        return Cyclotomic(n, out)

    def magnitude_squared(self):
        return self * self.conjugate()

    # -- decision procedures -------------------------------------------------

    def _reduced(self):
        """Remainder modulo the cyclotomic polynomial, trailing zeros
        trimmed."""
        return linalg.poly_divmod_monic(
            self.coeffs, linalg.cyclotomic_polynomial(self.order))[1]

    def is_zero(self):
        return not self._reduced()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, 1)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("unhashable (equality is modulo the cyclotomic ideal)")

    def rational_value(self):
        """The element as a Fraction if it is rational, else None."""
        rem = self._reduced()
        if not rem:
            return Fraction(0)
        if len(rem) == 1:
            return Fraction(rem[0])
        return None

    def is_real(self):
        return (self - self.conjugate()).is_zero()

    def real_sign(self):
        """Sign (-1, 0, 1) of a real element, decided exactly."""
        if not self.is_real():
            raise ValidationError("sign of a non-real element")
        r = self.rational_value()
        if r is not None:
            return (r > 0) - (r < 0)
        n = self.order
        prec = 64
        while True:
            lo = Fraction(0)
            hi = Fraction(0)
            for j, c in enumerate(self.coeffs):
                if not c:
                    continue
                clo, chi = _cos_enclosure(j % n, n, prec)
                if c > 0:
                    lo += c * clo
                    hi += c * chi
                else:
                    lo += c * chi
                    hi += c * clo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2
            if prec > 1 << 16:
                raise ResourceLimitError("sign refinement did not converge")

    def compare(self, rational):
        """Sign of (self - rational) for real self."""
        return (self - Fraction(rational)).real_sign()

    def to_complex(self):
        import cmath
        n = self.order
        return sum(complex(c) * cmath.exp(2j * cmath.pi * j / n)
                   for j, c in enumerate(self.coeffs) if c)

    def __repr__(self):
        r = self.rational_value()
        if r is not None:
            return f"Cyclotomic({r})"
        parts = [f"{c}*z{self.order}^{j}" for j, c in enumerate(self.coeffs) if c]
        return "Cyclotomic(" + " + ".join(parts) + ")"
