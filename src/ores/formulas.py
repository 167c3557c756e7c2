"""Closed coefficient formulas for operator bands.

A Formula is a finite sum  sum_i  r_i(n) * sqrt(q_i(n))  with r_i a
polynomial over the Gaussian rationals and q_i a canonical radicand
polynomial over the rationals.  The class is closed under addition,
conjugation, index shifts n -> n+k, and products, which is exactly what
band arithmetic of operator sums/products/adjoints needs.

Canonicalization of radicands: square factors are moved out of the root
into the amplitude (via squarefree decomposition and a rational square
split), but only when the extracted amplitude is provably nonnegative on
all natural numbers (positive leading coefficient plus an integer scan
up to the Cauchy root bound); otherwise the radicand is kept whole.
Both rules are deterministic functions of the radicand polynomial, so
algebraically equal band expressions normalize to identical term data
and evaluate to bit-identical floats.

The rational split factors integers only by the primes below 512, so
its cost stays bounded for any coefficient.  It is exact for every
numerator and denominator below 512**3; past that, a square factor p^2
with p >= 512 can stay under the root.  Such a radicand is still a
deterministic function of its polynomial and evaluates correctly, but
two equal formulas that carry it in different forms compare unequal;
equal data always means equal formulas.
"""

from __future__ import annotations

import math
from fractions import Fraction as Rational

from .errors import FormulaDomainError
from .scalars import Scalar, as_scalar


class _Poly:
    """Shared body of QPoly and CPoly: coefficients in ascending order
    with trailing zeros trimmed.  A subclass fixes the coefficient type
    through _coerce and _zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        fixed = [self._coerce(c) for c in coeffs]
        while fixed and not fixed[-1]:
            fixed.pop()
        self.coeffs = tuple(fixed)

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def of(cls, *coeffs):
        return cls(coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, o):
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [self._zero] * (n - len(self.coeffs))
        for i, c in enumerate(o.coeffs):
            a[i] = a[i] + c
        return type(self)(a)

    def __neg__(self):
        return type(self)(-c for c in self.coeffs)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if not self.coeffs or not o.coeffs:
            return type(self)()
        out = [self._zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return type(self)(out)

    def scale(self, c):
        c = self._coerce(c)
        return type(self)(a * c for a in self.coeffs)

    def shift(self, k: int):
        """Compose with n -> n+k."""
        if not k or self.is_zero():
            return self
        out = [self._zero] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            kp = 1
            for j in range(i, -1, -1):
                out[j] = out[j] + c * (math.comb(i, j) * kp)
                kp *= k
        return type(self)(out)

    def eval(self, n):
        """Horner evaluation, exact in the coefficient type."""
        acc = self._zero
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def key(self):
        return self.coeffs

    def __eq__(self, o):
        return type(o) is type(self) and self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = " + ".join(self._term % (c, i)
                           for i, c in enumerate(self.coeffs) if c)
        return "%s(%s)" % (type(self).__name__, terms or 0)


class QPoly(_Poly):
    """Polynomial over the rationals."""

    __slots__ = ()
    _coerce = Rational
    _zero = Rational(0)
    _term = "%s*n^%d"

    @property
    def leading(self) -> Rational:
        return self.coeffs[-1]

    def monic(self) -> "QPoly":
        if self.is_zero():
            return self
        lead = self.leading
        return QPoly(a / lead for a in self.coeffs)

    def derivative(self) -> "QPoly":
        return QPoly(i * c for i, c in enumerate(self.coeffs) if i)

    def divmod(self, d: "QPoly"):
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Rational(0)] * max(len(rem) - len(d.coeffs) + 1, 0)
        dl = d.leading
        dn = len(d.coeffs)
        for i in range(len(rem) - dn, -1, -1):
            f = rem[i + dn - 1] / dl
            if f:
                q[i] = f
                for j, c in enumerate(d.coeffs):
                    rem[i + j] -= f * c
        return QPoly(q), QPoly(rem)

    def __floordiv__(self, d):
        return self.divmod(d)[0]


QP_ZERO = QPoly()
QP_ONE = QPoly.const(1)


def qpoly_gcd(a: QPoly, b: QPoly) -> QPoly:
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


def squarefree_decomposition(p: QPoly):
    """Yun decomposition: returns (lc, [(f_1, 1), (f_2, 2), ...]) with
    p = lc * prod f_i^i, each f_i monic squarefree, possibly trivial."""
    if p.is_zero():
        raise ValueError("zero polynomial has no decomposition")
    lc = p.leading
    p = p.monic()
    if p.degree() == 0:
        return lc, []
    d0 = qpoly_gcd(p, p.derivative())
    if d0.degree() == 0:
        return lc, [(p, 1)]
    b = p // d0
    c = p.derivative() // d0
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree() > 0:
        a = qpoly_gcd(b, d)
        if a.degree() > 0:
            out.append((a, i))
        b = b // a
        c = d // a
        d = c - b.derivative()
        i += 1
    return lc, out


# primes below _PRIME_BOUND, the only trial divisors of radicand content
_PRIME_BOUND = 512
_SMALL_PRIMES = tuple(p for p in range(2, _PRIME_BOUND)
                      if all(p % d for d in range(2, math.isqrt(p) + 1)))


def _square_split_int(n: int):
    """n = s^2 * f for n >= 1; returns (s, f).

    Trial division by the primes below _PRIME_BOUND; the cofactor left
    after them moves out of the root whole when it is a perfect square
    and stays under it otherwise.  So f is squarefree whenever that
    cofactor is below _PRIME_BOUND**3, in particular for every
    n < _PRIME_BOUND**3."""
    s, f = 1, 1
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            f *= p
    r = math.isqrt(n)
    if r * r == n:
        return s * r, f
    return s, f * n


def rational_square_split(c: Rational):
    """c = s^2 * f with s a positive rational and f a squarefree-integer
    rational carrying the sign of c."""
    c = Rational(c)
    if not c:
        return Rational(1), Rational(0)
    sign = 1 if c > 0 else -1
    sn, fn = _square_split_int(abs(c.numerator))
    sd, fd = _square_split_int(c.denominator)
    s = Rational(sn, sd * fd)
    f = Rational(sign * fn * fd)
    return s, f


def nonneg_on_naturals(p: QPoly) -> bool:
    """Exact check that p(n) >= 0 for every natural n: the leading
    coefficient must be positive and every integer up to the Cauchy root
    bound must evaluate nonnegative (p is positive beyond the bound)."""
    if p.is_zero():
        return True
    if p.degree() == 0:
        return p.coeffs[0] >= 0
    if p.leading <= 0:
        return False
    bound = 1 + max(abs(c / p.leading) for c in p.coeffs[:-1])
    for n in range(int(bound) + 2):
        if p.eval(n) < 0:
            return False
    return True


def normalize_radicand(q: QPoly):
    """Split q = amp^2 * rad with rad canonical (squarefree content and
    squarefree polynomial part); the fold is applied only when amp is
    provably nonnegative on the naturals, else returns (1, q)."""
    if q.is_zero():
        return QP_ONE, QP_ZERO
    lc, factors = squarefree_decomposition(q)
    s, cf = rational_square_split(lc)
    amp = QPoly.const(s)
    rad = QPoly.const(cf)
    for f, mult in factors:
        for _ in range(mult // 2):
            amp = amp * f
        if mult % 2:
            rad = rad * f
    if amp.degree() == 0 or nonneg_on_naturals(amp):
        return amp, rad
    return QP_ONE, q


class CPoly(_Poly):
    """Polynomial over the Gaussian rationals."""

    __slots__ = ()
    _coerce = staticmethod(as_scalar)
    _zero = Scalar(0)
    _term = "(%s)*n^%d"

    @classmethod
    def from_qpoly(cls, q: QPoly) -> "CPoly":
        return cls(q.coeffs)

    def conj(self) -> "CPoly":
        return CPoly(c.conjugate() for c in self.coeffs)

    def key(self):
        return tuple((c.re, c.im) for c in self.coeffs)


CP_ZERO = CPoly()
CP_ONE = CPoly.const(Scalar(1))


class Formula:
    """A finite sum of amplitude * sqrt(radicand) terms in the index n."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict mapping radicand QPoly -> amplitude CPoly
        fixed = {}
        if terms:
            for rad, amp in terms.items():
                if amp.is_zero() or rad.is_zero():
                    continue
                fixed[rad] = amp
        self.terms = fixed

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "Formula":
        return cls()

    @classmethod
    def const(cls, c) -> "Formula":
        c = as_scalar(c)
        if not c:
            return cls()
        return cls({QP_ONE: CPoly.const(c)})

    @classmethod
    def poly(cls, coeffs) -> "Formula":
        p = coeffs if isinstance(coeffs, CPoly) else CPoly(coeffs)
        if p.is_zero():
            return cls()
        return cls({QP_ONE: p})

    @classmethod
    def sqrt(cls, radicand) -> "Formula":
        q = radicand if isinstance(radicand, QPoly) else QPoly(radicand)
        amp, rad = normalize_radicand(q)
        if rad.is_zero():
            return cls()
        return cls({rad: CPoly.from_qpoly(amp)})

    def is_zero(self) -> bool:
        return not self.terms

    # -- algebra ----------------------------------------------------------------

    def __add__(self, o: "Formula") -> "Formula":
        acc = dict(self.terms)
        for rad, amp in o.terms.items():
            prev = acc.get(rad)
            amp = amp + prev if prev is not None else amp
            if amp.is_zero():
                acc.pop(rad, None)
            else:
                acc[rad] = amp
        return Formula(acc)

    def __neg__(self) -> "Formula":
        return Formula({rad: -amp for rad, amp in self.terms.items()})

    def __sub__(self, o: "Formula") -> "Formula":
        return self + (-o)

    def scale(self, c) -> "Formula":
        c = as_scalar(c)
        if not c:
            return Formula()
        return Formula({rad: amp.scale(c) for rad, amp in self.terms.items()})

    def conj(self) -> "Formula":
        return Formula({rad: amp.conj() for rad, amp in self.terms.items()})

    def shift(self, k: int) -> "Formula":
        """Compose with n -> n+k; radicands are re-normalized."""
        if not k:
            return self
        out = Formula()
        for rad, amp in self.terms.items():
            amp2, rad2 = normalize_radicand(rad.shift(k))
            term = Formula({rad2: amp.shift(k) * CPoly.from_qpoly(amp2)}
                           if not rad2.is_zero() else {})
            out = out + term
        return out

    def mul_shifted(self, o: "Formula", k: int) -> "Formula":
        """self(n) * o(n+k); square roots merge into one radicand, which
        is the pointwise-correct product on the common domain."""
        acc = Formula()
        for rad1, amp1 in self.terms.items():
            for rad2, amp2 in o.terms.items():
                rad = rad1 * rad2.shift(k)
                extra, radc = normalize_radicand(rad)
                if radc.is_zero():
                    continue
                amp = amp1 * amp2.shift(k) * CPoly.from_qpoly(extra)
                acc = acc + Formula({radc: amp})
        return acc

    def __mul__(self, o: "Formula") -> "Formula":
        return self.mul_shifted(o, 0)

    # -- evaluation ---------------------------------------------------------------

    def sorted_terms(self):
        return tuple(sorted(self.terms.items(), key=lambda t: t[0].coeffs))

    def is_zero_at(self, n: int) -> bool:
        """Exact test that every term vanishes at n (a sufficient test:
        terms that cancel only in sum count as nonzero)."""
        return all(not amp.eval(n) or not rad.eval(n)
                   for rad, amp in self.terms.items())

    def eval(self, n: int) -> complex:
        total = 0j
        for rad, amp in self.sorted_terms():
            a = amp.eval(n)
            if not a:
                continue
            r = rad.eval(n)
            if r < 0:
                raise FormulaDomainError(
                    "radicand %r is negative at n = %d" % (rad, n))
            total += complex(a.to_complex()) * math.sqrt(r)
        return total

    # -- identity -------------------------------------------------------------------

    def key(self):
        return tuple((rad.coeffs, amp.key()) for rad, amp in self.sorted_terms())

    def __eq__(self, o):
        return isinstance(o, Formula) and self.terms == o.terms

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if not self.terms:
            return "Formula(0)"
        parts = []
        for rad, amp in self.sorted_terms():
            if rad == QP_ONE:
                parts.append("%r" % (amp,))
            else:
                parts.append("%r*sqrt(%r)" % (amp, rad))
        return "Formula(%s)" % " + ".join(parts)
