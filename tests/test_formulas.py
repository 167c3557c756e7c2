"""Closed entry formulas: square-root sums with canonical radicands."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as Rational

import pytest

import ores.formulas
from ores.errors import FormulaDomainError
from ores.formulas import (_PRIME_BOUND, CPoly, Formula, QPoly,
                           _square_split_int, nonneg_on_naturals,
                           normalize_radicand, qpoly_gcd,
                           rational_square_split, squarefree_decomposition)
from ores.scalars import IMAG, Scalar

from oracles import reference_formula_shift


def _random_qpoly(rng, max_deg=3):
    return QPoly([Rational(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(rng.randint(1, max_deg + 1))])


def test_qpoly_arithmetic():
    one_plus = QPoly.of(1, 1)
    one_minus = QPoly.of(1, -1)
    assert one_plus * one_minus == QPoly.of(1, 0, -1)
    rng = random.Random(61)
    for _ in range(40):
        a = _random_qpoly(rng)
        b = _random_qpoly(rng)
        assert (a + b) - b == a
        assert a * b == b * a
        n = rng.randint(0, 6)
        assert (a * b).eval(n) == a.eval(n) * b.eval(n)


def test_qpoly_divmod():
    rng = random.Random(62)
    for _ in range(40):
        a = _random_qpoly(rng, 4)
        b = _random_qpoly(rng, 2)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()


def test_qpoly_shift():
    rng = random.Random(63)
    for _ in range(30):
        a = _random_qpoly(rng)
        k = rng.randint(-3, 3)
        for n in range(0, 5):
            assert a.shift(k).eval(n) == a.eval(n + k)


def test_qpoly_gcd():
    n1 = QPoly.of(1, 1)
    n2 = QPoly.of(2, 1)
    n3 = QPoly.of(3, 1)
    g = qpoly_gcd(n1 * n1 * n2, n1 * n3)
    assert g == n1
    assert qpoly_gcd(n1, n2).degree() == 0


def test_yun_decomposition():
    n1 = QPoly.of(1, 1)
    q2 = QPoly.of(2, 0, 1)  # n^2 + 2, squarefree
    p = n1 * n1 * q2 * QPoly.const(Rational(3, 2))
    lc, parts = squarefree_decomposition(p)
    rebuilt = QPoly.const(lc)
    for f, mult in parts:
        assert qpoly_gcd(f, f.derivative()).degree() == 0
        for _ in range(mult):
            rebuilt = rebuilt * f
    assert rebuilt == p
    # multiplicity structure: n^2+2 at power 1, n+1 at power 2
    by_mult = {m: f for f, m in parts if f.degree() > 0}
    assert by_mult[2] == n1
    assert by_mult[1] == q2.monic()


def test_rational_square_split():
    s, f = rational_square_split(Rational(9, 4))
    assert s == Rational(3, 2) and f == 1
    s, f = rational_square_split(Rational(8))
    assert s * s * f == 8 and f == 2
    s, f = rational_square_split(Rational(-12, 25))
    assert s * s * f == Rational(-12, 25)
    assert f < 0
    s, f = rational_square_split(Rational(1, 3))
    assert s * s * f == Rational(1, 3)


def test_square_split_matches_full_factoring_below_bound_squared():
    # full factorization through a smallest-prime-factor sieve
    top = _PRIME_BOUND ** 2
    spf = list(range(top))
    for d in range(2, math.isqrt(top) + 1):
        if spf[d] == d:
            for m in range(d * d, top, d):
                if spf[m] == m:
                    spf[m] = d
    for n in range(1, top):
        s, f, m = 1, 1, n
        while m > 1:
            d, e = spf[m], 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            f *= d ** (e % 2)
        assert _square_split_int(n) == (s, f), n
    # a square cofactor of large primes still leaves the root
    assert _square_split_int(521 ** 2 * 6) == (521, 6)
    assert _square_split_int((521 * 523) ** 2) == (521 * 523, 1)


def test_large_prime_radicand_does_not_hang():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    # the leading coefficient is prime, so the radicand stays whole
    code = ("from ores.formulas import Formula, QPoly\n"
            "q = QPoly.of(1, 10**20 + 39)\n"
            "print(list(Formula.sqrt(q).terms) == [q])\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_nonneg_on_naturals():
    assert nonneg_on_naturals(QPoly.of(0, 1))          # n
    assert nonneg_on_naturals(QPoly.of(1, 1))          # n + 1
    assert not nonneg_on_naturals(QPoly.of(-3, 1))     # n - 3
    assert not nonneg_on_naturals(QPoly.of(0, -1))
    # (n-1)(n-2) dips negative on the reals but not at integers
    assert nonneg_on_naturals(QPoly.of(2, -3, 1))
    assert nonneg_on_naturals(QPoly.const(Rational(0)))
    assert not nonneg_on_naturals(QPoly.const(Rational(-1)))


def _scan_nonneg(p):
    """The exhaustive check: every integer up to the Cauchy bound."""
    if p.is_zero():
        return True
    if p.degree() == 0:
        return p.coeffs[0] >= 0
    if p.leading <= 0:
        return False
    bound = 1 + max(abs(c / p.leading) for c in p.coeffs[:-1])
    return all(p.eval(n) >= 0 for n in range(int(bound) + 2))


def test_nonneg_on_naturals_matches_the_scan():
    rng = random.Random(31)
    for _ in range(1500):
        if rng.random() < 0.5:
            p = QPoly([Rational(rng.randint(-30, 30), rng.choice([1, 2, 3]))
                       for _ in range(rng.randint(1, 5))])
        else:
            # products of (n - r): roots at, between and near integers
            p = QPoly.const(Rational(rng.choice([1, 2]), rng.choice([1, 3])))
            for _ in range(rng.randint(1, 4)):
                r = Rational(rng.randint(-2, 40), rng.choice([1, 2, 3]))
                p = p * QPoly.of(-r, 1)
        assert nonneg_on_naturals(p) == _scan_nonneg(p), p


def test_nonneg_on_naturals_with_large_roots():
    big = 10 ** 12
    # negative only between the roots big and big + 1/2, or big and big + 1
    half = Rational(1, 2)
    assert nonneg_on_naturals(QPoly.of(-big, 1) * QPoly.of(-big - half, 1))
    assert nonneg_on_naturals(QPoly.of(-big, 1) * QPoly.of(-big - 1, 1))
    assert not nonneg_on_naturals(QPoly.of(-big, 1) * QPoly.of(-big - 2, 1))
    assert nonneg_on_naturals(QPoly.of(-big, 1) * QPoly.of(-big, 1))
    assert not nonneg_on_naturals(QPoly.of(-big, 1) * QPoly.of(-big, 1)
                                  * QPoly.of(-big - 3, 1))


def test_large_root_bound_does_not_hang():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    # the square factor n + 10^12 folds out; n - 10^12 dips negative and
    # stays under the root
    code = ("from ores.formulas import Formula, QPoly, nonneg_on_naturals\n"
            "p, m = QPoly.of(10**12, 1), QPoly.of(-10**12, 1)\n"
            "print(Formula.sqrt(p * p) == Formula.poly([10**12, 1]),\n"
            "      list(Formula.sqrt(m * m).terms) == [m * m],\n"
            "      nonneg_on_naturals(QPoly.of(10**6, 1)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True True\n"


def test_normalize_radicand_folds():
    n1 = QPoly.of(1, 1)
    amp, rad = normalize_radicand(n1 * n1)
    assert amp == n1 and rad == QPoly.const(Rational(1))
    amp, rad = normalize_radicand(n1.scale(Rational(4)))
    assert amp == QPoly.const(Rational(2)) and rad == n1
    # dips-negative square factor must not fold
    m3 = QPoly.of(-3, 1)
    amp, rad = normalize_radicand(m3 * m3)
    assert amp == QPoly.const(Rational(1)) and rad == m3 * m3
    # integer-nonneg square factor folds even though it dips on the reals
    d = QPoly.of(2, -3, 1)
    amp, rad = normalize_radicand(d * d)
    assert amp == d and rad == QPoly.const(Rational(1))


def test_normalize_radicand_value_is_preserved():
    rng = random.Random(64)
    for _ in range(60):
        q = _random_qpoly(rng, 3)
        if q.is_zero():
            continue
        amp, rad = normalize_radicand(q)
        for n in range(6):
            assert amp.eval(n) ** 2 * rad.eval(n) == q.eval(n)
            assert amp.eval(n) >= 0


def test_formula_square_root_canonicalization():
    # sqrt((2n+1)^2) collapses to the polynomial 2n+1
    assert Formula.sqrt(QPoly.of(1, 4, 4)) == Formula.poly([1, 2])
    # sqrt(n) * sqrt(n+1) squared collapses to n(n+1)
    s = Formula.sqrt(QPoly.of(0, 1))
    t = Formula.sqrt(QPoly.of(1, 1))
    st = s * t
    assert st * st == Formula.poly([0, 1, 1])


def test_formula_eval_matches_pointwise_math():
    rng = random.Random(65)
    for _ in range(40):
        q = _random_qpoly(rng, 2)
        amp = Scalar(rng.randint(-3, 3), rng.randint(-2, 2))
        f = Formula.sqrt(q).scale(amp)
        g = Formula.poly([Rational(rng.randint(-3, 3)) for _ in range(3)])
        h = f + g
        for n in range(5):
            qv = q.eval(n)
            if qv < 0:
                if amp:
                    with pytest.raises(FormulaDomainError):
                        h.eval(n)
                continue
            want = amp.to_complex() * math.sqrt(qv) + g.eval(n)
            assert abs(h.eval(n) - want) <= 1e-12 * (1 + abs(want))


def test_formula_mul_shifted_is_pointwise():
    rng = random.Random(66)
    f = Formula.sqrt(QPoly.of(1, 1)).scale(Scalar(1, 1))
    g = Formula.sqrt(QPoly.of(2, 1)) + Formula.poly([1])
    for k in range(-2, 3):
        h = f.mul_shifted(g, k)
        for n in range(3, 8):
            want = f.eval(n) * g.eval(n + k)
            assert abs(h.eval(n) - want) <= 1e-12 * (1 + abs(want))
    del rng


def test_formula_shift_and_conj():
    f = Formula.sqrt(QPoly.of(0, 1)).scale(IMAG) + Formula.poly([0, 1])
    for k in range(-1, 3):
        g = f.shift(k)
        for n in range(2, 6):
            assert abs(g.eval(n) - f.eval(n + k)) <= 1e-12
    c = f.conj()
    for n in range(2, 6):
        assert abs(c.eval(n) - f.eval(n).conjugate()) <= 1e-12


def test_formula_shift_matches_the_term_by_term_shift():
    # the shift as a product with the constant 1 gives the term data of
    # the shift taken term by term, radicands that fold only once shifted
    # among them: (n - 3)^2 n is kept whole, n^2 (n + 3) is not
    rng = random.Random(68)
    folds = Formula.sqrt(QPoly.of(0, 9, -6, 1))
    assert [rad.degree() for rad in folds.terms] == [3]
    assert [rad.degree() for rad in folds.shift(3).terms] == [1]
    formulas = [folds, Formula(), Formula.poly([1, 2])]
    for _ in range(40):
        f = Formula.poly([Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
                          for _ in range(rng.randint(0, 3))])
        for _ in range(rng.randint(1, 3)):
            f = f + Formula.sqrt(_random_qpoly(rng, 3)).scale(
                Scalar(rng.randint(-2, 2), rng.randint(-1, 1)))
        formulas.append(f)
    for f in formulas:
        for k in range(-3, 4):
            got, want = f.shift(k), reference_formula_shift(f, k)
            assert list(got.terms.items()) == list(want.terms.items())
            assert got.key() == want.key()


def test_formula_linearity():
    rng = random.Random(67)
    for _ in range(30):
        f = Formula.sqrt(_random_qpoly(rng, 2))
        g = Formula.sqrt(_random_qpoly(rng, 2))
        lam = Scalar(rng.randint(-2, 2), rng.randint(-2, 2))
        h = f.scale(lam) + g
        assert h - g == f.scale(lam)
        assert f - f == Formula()
        assert f + g == g + f


def test_formula_zero_and_domain():
    z = Formula()
    assert z.eval(0) == 0
    f = Formula.sqrt(QPoly.of(-1, -1))
    with pytest.raises(FormulaDomainError):
        f.eval(0)
    # the dips-negative radicand evaluates fine where it is nonnegative
    m3 = QPoly.of(-3, 1)
    g = Formula.sqrt(m3 * m3)
    assert abs(g.eval(1) - 2.0) <= 1e-12


def test_value_too_large_for_a_float_raises(monkeypatch):
    monkeypatch.setattr(ores.formulas, "_SAMPLERS", {})
    # 10^308 sqrt(n + 1) is a float up to n = 2 and not from n = 3 on;
    # the sum of the two floats 10^308 and 10^308 sqrt(2) is not a float
    band = Formula.sqrt(QPoly.of(1, 1)).scale(10 ** 308)
    total = Formula.poly([10 ** 308]) + Formula.sqrt(QPoly.of(2)).scale(
        10 ** 308)
    assert band.eval(0) == 1e308
    for f, n in ((band, 3), (band, 8), (total, 0), (total, 5)):
        message = "formula value at n = %d is too large for a float" % n
        with pytest.raises(OverflowError, match=message):
            f.eval(n)
    # a range raises the error of its first index, as the scalar path
    assert band.eval(0, 3).tolist() == [band.eval(n) for n in range(3)]
    with pytest.raises(OverflowError, match="at n = 3 is too large"):
        band.eval(1, 6)
    with pytest.raises(OverflowError, match="at n = 2 is too large"):
        total.eval(2, 4)


def test_cpoly_complex_coefficients():
    c = CPoly((Scalar(1), IMAG))
    assert c.eval(2) == Scalar(1, 2)
    assert c.conj().eval(2) == Scalar(1, -2)
    assert c.shift(1).eval(1) == c.eval(2)
