"""Exact scalars: the field of Gaussian rationals.

Every coefficient in the symbolic layer is a Scalar, a complex number
with exact rational real and imaginary parts, held as one Gaussian
integer over one denominator: the integer triple (a, b, d) with value
(a + b i) / d.  The form is canonical: d >= 1 and gcd(a, b, d) = 1, so
zero is (0, 0, 1), two Scalars are equal exactly when their triples are,
and an integral value has d = 1.  Arithmetic works on the triples with
integer operations only and normalizes each result with one
three-argument gcd, which it skips where the denominator is 1, as it is
for most rewriting rules.  The exact layers (``linalg``, ``states``,
``localization``, ``formulas``) read the triple directly; ``re`` and
``im`` give each part as an int where it is integral, else as a Fraction
in lowest terms.  Conjugation is the field automorphism negating b, and
equality is decidable.  Floating point enters only in the numeric
operator layer, never here.

File formats carry scalars as four integers
``[re_num, re_den, im_num, im_den]``; see ``from_quad``/``to_quad``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_new = object.__new__


def gaussian_over(a: int, b: int, d: int) -> "Scalar":
    """The Scalar (a + b i) / d of integers a, b and d >= 1, brought to
    the canonical form by one gcd; none is taken when d is 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    s = _new(Scalar)
    s.a = a
    s.b = b
    s.d = d
    return s


def _ratio(x):
    """(numerator, positive denominator) of a rational part: an int, a
    Fraction, or anything Fraction accepts."""
    if type(x) is not int:
        if not isinstance(x, Fraction):
            x = Fraction(x)
        return x.numerator, x.denominator
    return x, 1


def _part(n: int, d: int):
    """n / d as an exact rational part: an int if it is integral, else a
    Fraction in lowest terms."""
    if d == 1:
        return n
    g = gcd(n, d)
    return n // d if g == d else Fraction(n // g, d // g)


def _from_parts(rn: int, rd: int, im_n: int, im_d: int) -> "Scalar":
    """The Scalar rn / rd + i im_n / im_d, for rd and im_d positive."""
    if rd != im_d:
        rn, im_n, rd = rn * im_d, im_n * rd, rd * im_d
    return gaussian_over(rn, im_n, rd)


def _coerce(x):
    if type(x) is Scalar:
        return x
    if isinstance(x, int):
        return gaussian_over(int(x), 0, 1)
    if isinstance(x, Fraction):
        return gaussian_over(x.numerator, 0, x.denominator)
    return None


class Scalar:
    """An element of Q(i): (a + b i) / d in canonical form."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        s = _from_parts(*_ratio(re), *_ratio(im))
        self.a, self.b, self.d = s.a, s.b, s.d

    @classmethod
    def from_quad(cls, quad) -> "Scalar":
        """The Scalar of [re_num, re_den, im_num, im_den], normalized by
        one gcd; a zero denominator raises ZeroDivisionError, which names
        the bit length of a numerator too long to print."""
        rn, rd, im_n, im_d = map(int, quad)
        if rd <= 0 or im_d <= 0:
            for n, d in ((rn, rd), (im_n, im_d)):
                if not d:
                    try:
                        text = str(n)
                    except ValueError:   # past the int-to-str digit limit
                        text = "<%d-bit integer>" % n.bit_length()
                    raise ZeroDivisionError("Fraction(%s, 0)" % text)
            if rd < 0:
                rn, rd = -rn, -rd
            if im_d < 0:
                im_n, im_d = -im_n, -im_d
        return _from_parts(rn, rd, im_n, im_d)

    def to_quad(self):
        a, b, d = self.a, self.b, self.d
        g, h = gcd(a, d), gcd(b, d)
        return [a // g, d // g, b // h, d // h]

    @property
    def re(self):
        return _part(self.a, self.d)

    @property
    def im(self):
        return _part(self.b, self.d)

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return gaussian_over(self.a + other.a, self.b + other.b, d)
        return gaussian_over(self.a * e + other.a * d,
                             self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return gaussian_over(self.a - other.a, self.b - other.b, d)
        return gaussian_over(self.a * e - other.a * d,
                             self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return gaussian_over(a * c - b * e, a * e + b * c,
                             self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero scalar")
        # (a + b i)/d over (c + e i)/f is (a + b i)(c - e i) f / (d n)
        return gaussian_over((a * c + b * e) * f, (b * c - a * e) * f,
                             self.d * n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        s = _new(Scalar)
        s.a, s.b, s.d = -self.a, -self.b, self.d
        return s

    def conjugate(self) -> "Scalar":
        s = _new(Scalar)
        s.a, s.b, s.d = self.a, -self.b, self.d
        return s

    def is_positive_real(self) -> bool:
        return not self.b and self.a > 0

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.d == other.d)

    def __hash__(self):
        # the hash of the value, so that Scalar(3) and 3 hash alike
        if not self.b:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        a, b, d = self.a, self.b, self.d
        if d == 1:
            return complex(float(a), float(b))
        # int / int rounds correctly, as Fraction.__float__ does; past
        # the float range, the part itself raises its own message
        try:
            re = a / d
        except OverflowError:
            re = float(self.re)
        try:
            im = b / d
        except OverflowError:
            im = float(self.im)
        return complex(re, im)

    def __repr__(self):
        return "Scalar(%s)" % (self,)

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return "%s*i" % im
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imag = "i" if mag == 1 else "%s*i" % mag
        return "%s %s %s" % (re, sign, imag)


def over_common_denominator(M):
    """(D, rows) with M = rows / D for a matrix M of Scalars: D is the
    lcm of the triples' denominators, and each row is a pair (re, im) of
    integer lists, D / d times the a's and b's of the triples."""
    D = lcm(*(s.d for row in M for s in row))
    if D == 1:
        return 1, [([s.a for s in row], [s.b for s in row]) for row in M]
    out = []
    for row in M:
        scale = [D // s.d for s in row]
        out.append(([s.a * k for s, k in zip(row, scale)],
                    [s.b * k for s, k in zip(row, scale)]))
    return D, out


def as_scalar(c) -> Scalar:
    return c if isinstance(c, Scalar) else Scalar(c)


ZERO = Scalar(0)
ONE = Scalar(1)
IMAG = Scalar(0, 1)
