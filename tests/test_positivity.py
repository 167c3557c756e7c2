"""Positivity cone certificates and cofinal dominators."""

import random
from fractions import Fraction as Rational

import pytest

from ores.algebra import load_preset, random_element
from ores.localization import SProduct
from ores.positivity import (PositivityCertificate, cofinal_dominator,
                             square_expansion_certificate, verify_certificate)
from ores.scalars import IMAG, Scalar

from oracles import naive_product_normal_form

PRESET_NAMES = ("poly_x", "poly_xy", "heisenberg", "free_xy")


def test_certificate_value_is_exact():
    p = load_preset("heisenberg")
    a = p.generator("a")
    cert = PositivityCertificate(((Rational(1, 2), a), (2, a + 1)))
    # (1/2) a'a + 2 (a+1)'(a+1) expanded by the naive rewriter
    expected = naive_product_normal_form(p, (a.dagger().scale(Rational(1, 2)),
                                             a))
    for w, c in naive_product_normal_form(p, ((a + 1).dagger().scale(2),
                                              a + 1)).items():
        acc = expected.get(w, Scalar(0)) + c
        if acc:
            expected[w] = acc
        else:
            del expected[w]
    assert dict(cert.value().terms) == expected
    assert verify_certificate(cert.value(), cert)


def test_certificate_rejects_bad_weights():
    p = load_preset("poly_x")
    x = p.generator("x")
    with pytest.raises(ValueError):
        PositivityCertificate(((-1, x),))
    with pytest.raises(ValueError):
        PositivityCertificate(((0, x),))
    with pytest.raises(ValueError):
        PositivityCertificate(((IMAG, x),))


def test_empty_certificate_is_zero():
    p = load_preset("poly_x")
    cert = PositivityCertificate(())
    assert verify_certificate(p.zero(), cert)
    assert not verify_certificate(p.one(), cert)


def test_square_expansion_certificate_all_presets():
    rng = random.Random(41)
    for name in PRESET_NAMES:
        p = load_preset(name)
        for _ in range(25):
            b = random_element(p, rng, max_degree=2, max_terms=2)
            factor = 1 + b.dagger() * b
            target = factor * factor - 1
            cert = square_expansion_certificate(b)
            assert verify_certificate(target, cert)
            assert not verify_certificate(target + 1, cert)


def test_cofinal_dominator_chain():
    for name in PRESET_NAMES:
        p = load_preset(name)
        g = p.generator(p.generators[0])
        t = SProduct(p, (g, g + 1))
        res = cofinal_dominator(g, t)
        assert res.dominator == g.dagger() * g
        assert len(res.chain) == 2
        assert res.all_verified
        for fc in res.chain:
            factor = 1 + fc.p.dagger() * fc.p
            assert fc.target == factor * factor - 1
            assert verify_certificate(fc.target, fc.certificate)
