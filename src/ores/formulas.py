"""Closed coefficient formulas for operator bands.

A Formula is a finite sum  sum_i  r_i(n) * sqrt(q_i(n))  with r_i a
polynomial over the Gaussian rationals and q_i a canonical radicand
polynomial over the rationals.  The class is closed under addition,
conjugation, index shifts n -> n+k, and products, which is exactly what
band arithmetic of operator sums/products/adjoints needs.

Canonicalization of radicands: square factors are moved out of the root
into the amplitude (via squarefree decomposition and a rational square
split), but only when the extracted amplitude is provably nonnegative on
all natural numbers (positive leading coefficient, and no negative value
at the integers up to the Cauchy root bound, decided by Sturm
bisection); otherwise the radicand is kept whole.
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

import cmath
import math
from fractions import Fraction as Rational

import numpy as np

from .algebra import _add_into, _remember
from .errors import FormulaDomainError
from .scalars import Scalar, as_scalar, over_common_denominator


class _Poly:
    """Shared body of QPoly and CPoly: coefficients in ascending order
    with trailing zeros trimmed.  A subclass fixes the coefficient type
    through _coerce and _zero."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=()):
        fixed = [self._coerce(c) for c in coeffs]
        while fixed and not fixed[-1]:
            fixed.pop()
        self.coeffs = tuple(fixed)
        self._hash = None

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def of(cls, *coeffs):
        return cls(coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

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

    def __eq__(self, o):
        return type(o) is type(self) and self.coeffs == o.coeffs

    def __hash__(self):
        # the coefficients never change, and a tuple of Fractions is slow
        # to hash: a formula compares its terms dicts by their radicands
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

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
    """Exact check that p(n) >= 0 for every natural n.

    The leading coefficient must be positive; p is then positive from the
    Cauchy root bound B on.  The integers 0..B are decided by bisection
    with Sturm root counts (Basu, Pollack and Roy, Algorithms in Real
    Algebraic Geometry, sec. 2.2): an integer interval with no real root
    strictly inside has one sign there, so only intervals that hold a
    root are split, about deg p * log2 B steps in all."""
    if p.is_zero():
        return True
    if p.degree() == 0:
        return p.coeffs[0] >= 0
    if p.leading <= 0:
        return False
    bound = int(1 + max(abs(c / p.leading) for c in p.coeffs[:-1])) + 1
    q = p // qpoly_gcd(p, p.derivative())   # the roots of p, all simple
    sturm = [q, q.derivative()]
    while sturm[-1].degree() > 0:
        sturm.append(-sturm[-2].divmod(sturm[-1])[1])

    def variations(x):
        signs = [v > 0 for v in (s.eval(x) for s in sturm) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    if p.eval(0) < 0:
        return False
    # p(a), p(b) >= 0 on every interval on the stack; since q is
    # squarefree, variations(a) - variations(b) counts its roots in (a, b]
    stack = [(0, bound)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        inside = variations(a) - variations(b) - (not q.eval(b))
        m = a + 1 if not inside else (a + b) // 2
        if p.eval(m) < 0:
            return False
        if inside:
            stack += [(a, m), (m, b)]
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
        return tuple((c.a, c.b, c.d) for c in self.coeffs)


class Formula:
    """A finite sum of amplitude * sqrt(radicand) terms in the index n."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        # terms: dict mapping radicand QPoly -> amplitude CPoly
        fixed = {}
        if terms:
            for rad, amp in terms.items():
                if amp.is_zero() or rad.is_zero():
                    continue
                fixed[rad] = amp
        self.terms = fixed
        self._hash = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def const(cls, c) -> "Formula":
        return cls.poly((c,))

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

    def __bool__(self):
        return bool(self.terms)

    # -- algebra ----------------------------------------------------------------

    def __add__(self, o: "Formula") -> "Formula":
        return Formula(_add_into(dict(self.terms), o.terms.items()))

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
        """Compose with n -> n+k, as the product 1 * self(n + k); radicands
        are re-normalized."""
        if not k:
            return self
        return Formula.const(1).mul_shifted(self, k)

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

    def eval(self, n: int, stop: int | None = None, inputs=None):
        """The value at index n, a complex; OverflowError where it is too
        large for a float.  With stop, the values at n <= k < stop as a
        read-only complex array: sampled by a Sampler, bit for bit the
        values index by index, and raising the error the first index that
        raises.  With inputs too, the stop - n values that these samples
        will multiply: only an index whose input is nonzero raises, and
        an index that would raise under a zero input gets 0, so every
        sample returned is finite."""
        if stop is not None:
            return _sample(self, n, stop, inputs)
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
        if not cmath.isfinite(total):
            raise OverflowError(
                "formula value at n = %d is too large for a float" % n)
        return total

    # -- identity -------------------------------------------------------------------

    def key(self):
        return tuple((rad.coeffs, amp.key()) for rad, amp in self.sorted_terms())

    def __eq__(self, o):
        return isinstance(o, Formula) and self.terms == o.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

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


# -- sampling on index ranges -----------------------------------------------------

_EXACT = 2 ** 53   # every integer of smaller magnitude is a float exactly


def _quotient(num: int, den: int) -> float:
    """num / den correctly rounded, or nan where it is too large for a
    float (int / int raises OverflowError there)."""
    try:
        return num / den
    except OverflowError:
        return math.nan


_quotients = np.frompyfunc(_quotient, 2, 1)


def _exact_values(poly, lo: int, hi: int):
    """(p(n), p(n) / den) for lo <= n < hi, poly = (p, den) with p over
    the integers: the exact integers and their correctly rounded
    quotients, nan where a quotient is too large for a float.  Horner
    runs in int64 when sum |c_i| hi^i < 2**53, which bounds every partial
    sum, and in Python ints otherwise."""
    coeffs, den = poly
    top = int(hi)   # a Python int, so the bound itself cannot overflow
    small = den < _EXACT and sum(abs(c) * top ** i
                                 for i, c in enumerate(coeffs)) < _EXACT
    n = np.arange(lo, hi, dtype=np.int64)
    if not small:
        n = n.astype(object)
    acc = np.zeros(len(n), dtype=n.dtype)
    for c in reversed(coeffs):
        acc = acc * n + c
    if small:
        # both operands are exact floats, so IEEE division rounds the
        # exact quotient once, as int / int does
        return acc, acc.astype(np.float64) / float(den)
    return acc, _quotients(acc, den).astype(np.float64)


class Sampler:
    """A Formula compiled for evaluation on whole index ranges.

    Each term's radicand and the real and imaginary parts of its
    amplitude become integer polynomials over a common denominator.  A
    range is evaluated exactly, each value is rounded once by a
    correctly rounded division, which is how Fraction.__float__ rounds,
    and the terms are combined in sorted_terms() order with the float
    operations of eval (a complex times a float, summed from 0j,
    skipping terms whose amplitude is exactly zero).  So every sample is
    bit-identical to Formula.eval.  The samples of 0 <= n < size are kept
    for size up to PREFIX_LIMIT, the solvers' default size cap, in
    read-only arrays, with the indices where eval raises; the sample
    kept at such an index is 0.
    """

    PREFIX_LIMIT = 4096

    __slots__ = ("terms", "prefix")

    def __init__(self, f: Formula):
        terms = []
        for rad, amp in f.sorted_terms():
            D, ((re, im),) = over_common_denominator([amp.coeffs])
            R, ((rad_num, _),) = over_common_denominator(
                [CPoly.from_qpoly(rad).coeffs])
            terms.append(((re, D), (im, D), (rad_num, R)))
        self.terms = tuple(terms)
        self.prefix = (np.zeros(0, dtype=complex), np.zeros(0, dtype=np.intp))

    def _evaluate(self, lo: int, hi: int):
        re = np.zeros(hi - lo)
        im = np.zeros(hi - lo)
        bad = np.zeros(hi - lo, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for amp_re, amp_im, rad in self.terms:
                a_num, ar = _exact_values(amp_re, lo, hi)
                b_num, ai = _exact_values(amp_im, lo, hi)
                live = (a_num != 0) | (b_num != 0)
                r_num, r = _exact_values(rad, lo, hi)
                # eval raises at a live term whose radicand is negative
                # or whose parts are too large for a float
                bad |= live & ((r_num < 0) | np.isnan(ar) | np.isnan(ai)
                               | np.isnan(r))
                s = np.sqrt(np.maximum(r, 0.0))
                # CPython's complex(ar, ai) * s multiplies by (s, 0.0)
                np.add(re, ar * s - ai * 0.0, out=re, where=live)
                np.add(im, ar * 0.0 + ai * s, out=im, where=live)
        # and at a value that is too large for a float
        bad |= ~(np.isfinite(re) & np.isfinite(im))
        re[bad] = im[bad] = 0.0
        values = np.empty(hi - lo, dtype=complex)
        values.real = re
        values.imag = im
        return values, lo + np.flatnonzero(bad)

    def samples(self, hi: int):
        """(values, bad) for 0 <= n < len(values), read-only, where
        len(values) >= hi: bad holds the ascending indices where eval
        raises, and values[n] is f(n) elsewhere and 0 there."""
        values, bad = self.prefix
        size = len(values)
        if hi > size:
            more, more_bad = self._evaluate(size, hi)
            values = np.concatenate((values, more))
            bad = np.concatenate((bad, more_bad))
            values.flags.writeable = bad.flags.writeable = False
            if hi <= self.PREFIX_LIMIT:
                self.prefix = values, bad
        return values, bad


_SAMPLER_LIMIT = 128   # band formulas whose compiled form and samples are kept
_SAMPLERS = {}


def _sample(f: Formula, lo: int, hi: int, inputs=None) -> np.ndarray:
    """Formula.eval on a range: samplers are kept per formula, keyed by
    equality, so freshly built copies of an operator reuse them; a full
    cache keeps what it has and takes nothing new."""
    hi = max(lo, hi)
    sampler = _SAMPLERS.get(f)
    if sampler is None:
        sampler = _remember(_SAMPLERS, f, Sampler(f), _SAMPLER_LIMIT)
    values, bad = sampler.samples(hi)
    if len(bad):
        bad = bad[np.searchsorted(bad, lo):np.searchsorted(bad, hi)]
        if inputs is not None:
            bad = bad[inputs[bad - lo] != 0]
        if len(bad):
            n = int(bad[0])
            f.eval(n)   # raises the error of the scalar path at n
            raise AssertionError("Sampler and eval disagree at n = %d" % n)
    return values[lo:hi]
