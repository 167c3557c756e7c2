"""Exact Gaussian-rational scalar arithmetic."""

import random
from fractions import Fraction as Rational

import pytest

from ores.scalars import IMAG, ONE, ZERO, Scalar


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
