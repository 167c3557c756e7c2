"""Exact scalars: the field of Gaussian rationals.

Every coefficient in the symbolic layer is a Scalar, a complex number
whose real and imaginary parts are exact rationals: a Python int where
the part is an integer, else a Fraction in lowest terms.  Integer
coefficients, which most rewriting rules have, thus skip Fraction's
gcd and object cost.  Arithmetic is exact, conjugation is the field
automorphism negating the imaginary part, and equality is decidable.
Floating point enters only in the numeric operator layer, never here.

File formats carry scalars as four integers
``[re_num, re_den, im_num, im_den]``; see ``from_quad``/``to_quad``.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> int | Fraction:
    """x as an exact rational part: an int if it is integral, else a
    Fraction in lowest terms."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Scalar:
    """An element of Q(i) with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @classmethod
    def from_quad(cls, quad) -> "Scalar":
        """The Scalar of [re_num, re_den, im_num, im_den]; a part over 1
        is read as an int, and a zero denominator raises
        ZeroDivisionError."""
        rn, rd, im_n, im_d = map(int, quad)
        return cls(rn if rd == 1 else Fraction(rn, rd),
                   im_n if im_d == 1 else Fraction(im_n, im_d))

    def to_quad(self):
        return [self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator]

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        # through Fraction, so that int parts never divide into a float
        return Scalar(Fraction(self.re * o.re + self.im * o.im, d),
                      Fraction(self.im * o.re - self.re * o.im, d))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def is_positive_real(self) -> bool:
        return not self.im and self.re > 0

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return "Scalar(%s)" % (self,)

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return "%s*i" % self.im
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else "%s*i" % mag
        return "%s %s %s" % (self.re, sign, imag)


def as_scalar(c) -> Scalar:
    return c if isinstance(c, Scalar) else Scalar(c)


ZERO = Scalar(0)
ONE = Scalar(1)
IMAG = Scalar(0, 1)
