"""Exact Gaussian-rational scalar arithmetic."""

import operator
import random
from fractions import Fraction as Rational

import pytest

from ores.scalars import IMAG, ONE, ZERO, Scalar

from oracles import ReferenceScalar


def _random_scalar(rng):
    return Scalar(Rational(rng.randint(-9, 9), rng.randint(1, 9)),
                  Rational(rng.randint(-9, 9), rng.randint(1, 9)))


def test_constructor_and_equality():
    assert Scalar(2) == Scalar(Rational(4, 2))
    assert Scalar(1, 1) == ONE + IMAG
    assert Scalar(0) == ZERO
    assert not ZERO
    assert ONE
    assert Scalar(3) == 3
    assert 3 == Scalar(3)
    assert Scalar(1, 2) != Scalar(1, 3)


def test_field_identities_sampled():
    rng = random.Random(101)
    for _ in range(200):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        if b:
            assert (a / b) * b == a


def test_conjugation():
    rng = random.Random(102)
    for _ in range(100):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        assert a.conjugate().conjugate() == a
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert not (a * a.conjugate()).im


def test_imaginary_unit():
    assert IMAG * IMAG == -ONE
    assert IMAG.conjugate() == -IMAG


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_quad_round_trip():
    rng = random.Random(103)
    for _ in range(50):
        a = _random_scalar(rng)
        assert Scalar.from_quad(a.to_quad()) == a
    assert Scalar.from_quad((1, 2, -3, 4)) == Scalar(Rational(1, 2),
                                                     Rational(-3, 4))
    # a part over 1 is an int, as every Scalar holds it
    s = Scalar.from_quad([-3, 1, 5, 1])
    assert type(s.re) is int and type(s.im) is int
    assert s == Scalar(-3, 5) and s.to_quad() == [-3, 1, 5, 1]
    for quad in ([1, 0, 0, 1], [1, 1, 0, 0]):
        with pytest.raises(ZeroDivisionError):
            Scalar.from_quad(quad)


def test_a_zero_denominator_under_an_unprintable_numerator():
    # a numerator past Python's 4,300-digit limit for int -> str once
    # raised ValueError from the message instead of ZeroDivisionError
    big = 10 ** 5000
    for quad, bits in (([big, 0, 0, 1], big.bit_length()),
                       ([1, 1, -big, 0], (-big).bit_length())):
        with pytest.raises(ZeroDivisionError) as err:
            Scalar.from_quad(quad)
        assert str(err.value) == "Fraction(<%d-bit integer>, 0)" % bits


def test_predicates_and_str():
    assert Scalar(2).is_positive_real()
    assert not Scalar(-2).is_positive_real()
    assert not IMAG.is_positive_real()
    assert str(Scalar(Rational(1, 2))) == "1/2"
    assert str(IMAG) == "i"
    assert str(-IMAG) == "-i"
    assert str(Scalar(0)) == "0"


def test_hash_consistency():
    rng = random.Random(104)
    for _ in range(50):
        a = _random_scalar(rng)
        assert hash(a) == hash(Scalar(a.re, a.im))
        if not a.im:
            assert hash(a) == hash(a.re)


def test_to_complex():
    a = Scalar(Rational(1, 4), Rational(-3, 2))
    assert a.to_complex() == 0.25 - 1.5j


def test_int_and_fraction_coercion():
    a = Scalar(1, 2)
    assert a + 1 == Scalar(2, 2)
    assert 1 + a == Scalar(2, 2)
    assert a * Rational(1, 2) == Scalar(Rational(1, 2), 1)
    assert Rational(3) - a == Scalar(2, -2)
    with pytest.raises(TypeError):
        a + 1.5


def test_integer_parts_divide_exactly():
    q = Scalar(1) / Scalar(3)
    assert isinstance(q.re, Rational) and q.re == Rational(1, 3)
    assert str(q) == "1/3"
    assert Scalar(6) / Scalar(3) == 2 and str(Scalar(6) / Scalar(3)) == "2"
    assert Scalar(1) / Scalar(0, 2) == Scalar(0, Rational(-1, 2))
    assert 1 / Scalar(3) == Scalar(Rational(1, 3))


def test_integral_fraction_is_the_same_scalar():
    a, b = Scalar(3), Scalar(Rational(6, 2))
    assert a == b and hash(a) == hash(b)
    assert a.to_quad() == b.to_quad() == [3, 1, 0, 1]
    assert str(a) == str(b) == "3"
    c, d = Scalar(-2, 5), Scalar(Rational(-4, 2), Rational(10, 2))
    assert c == d and hash(c) == hash(d)
    assert c.to_quad() == d.to_quad() == [-2, 1, 5, 1]
    assert str(c) == str(d) == "-2 + 5*i"


# -- differential check against the int-or-Fraction pair --------------------------


def _reading(x):
    """What a caller sees of a scalar: each part with its type."""
    return type(x.re), x.re, type(x.im), x.im


def _outcome(fn, *args):
    """fn(*args) read as above, or the type and message it raised."""
    try:
        v = fn(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(v, (Scalar, ReferenceScalar)):
        return _reading(v)
    return type(v), v


def _random_part(rng):
    r = rng.random()
    if r < 0.3:
        return rng.randint(-9, 9)
    if r < 0.5:
        return 0
    if r < 0.9:
        return Rational(rng.randint(-30, 30), rng.randint(1, 12))
    return rng.choice((10 ** 400, -(10 ** 400), Rational(10 ** 400, 3),
                       Rational(1, 10 ** 400), 2 ** 1023 + 2 ** 970))


def test_operations_match_the_reference_pair():
    rng = random.Random(105)
    for _ in range(400):
        parts = [(_random_part(rng), _random_part(rng)) for _ in range(2)]
        (x, y), (u, v) = ([Scalar(re, im) for re, im in parts],
                          [ReferenceScalar(re, im) for re, im in parts])
        assert _reading(x) == _reading(u) and _reading(y) == _reading(v)
        k = rng.choice((0, 1, -3, Rational(2, 7)))
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv):
            assert _outcome(op, x, y) == _outcome(op, u, v)
            assert _outcome(op, x, k) == _outcome(op, u, k)
            assert _outcome(op, k, x) == _outcome(op, k, u)
        assert _outcome(operator.neg, x) == _outcome(operator.neg, u)
        assert _outcome(Scalar.conjugate, x) \
            == _outcome(ReferenceScalar.conjugate, u)
        assert (x == y) == (u == v) and (x != y) == (u != v)
        assert (x == k) == (u == k) and (k == x) == (k == u)
        assert (x == u.re) == (u == u.re)
        assert hash(x) == hash(u) and bool(x) == bool(u)
        assert str(x) == str(u) and repr(x) == repr(u)
        assert x.to_quad() == u.to_quad()
        assert _outcome(Scalar.to_complex, x) \
            == _outcome(ReferenceScalar.to_complex, u)


def test_unreduced_quads_and_constructor_inputs_match_the_reference():
    rng = random.Random(106)
    quads = [[rng.randint(-40, 40), rng.choice((1, 2, 4, 6, -6, 12, 0)),
              rng.randint(-40, 40), rng.choice((1, 3, 6, -4, 9, 0))]
             for _ in range(300)]
    quads += [[10 ** 400, 1, 0, 1], [3 * 10 ** 400, 3, 1, 3], [5, 10, 7, 14],
              ["3", "6", 2.0, 4]]
    for quad in quads:
        assert _outcome(Scalar.from_quad, quad) \
            == _outcome(ReferenceScalar.from_quad, quad), quad
        got = Scalar.from_quad(quad) if quad[1] and quad[3] else None
        if got is not None:
            assert _outcome(Scalar.to_complex, got) == _outcome(
                ReferenceScalar.to_complex, ReferenceScalar.from_quad(quad))
    inputs = [3, -7, True, Rational(6, 4), Rational(-5, 1), 0.5, -1.25,
              1e300, 0.1, float("nan"), float("inf"), "2/3", 10 ** 400,
              Rational(10 ** 400 + 1, 10 ** 400)]
    for re in inputs:
        for im in (0, Rational(1, 3), 2.5, 10 ** 400):
            want = _outcome(ReferenceScalar, re, im)
            assert _outcome(Scalar, re, im) == want, (re, im)
            if isinstance(want[0], type) and issubclass(want[0], Exception):
                continue
            x, u = Scalar(re, im), ReferenceScalar(re, im)
            assert hash(x) == hash(u) and str(x) == str(u)
            assert x.to_quad() == u.to_quad()
            assert _outcome(Scalar.to_complex, x) \
                == _outcome(ReferenceScalar.to_complex, u)
