"""Expression surface syntax: parsing, printing, and element bridging."""

import random

import pytest

from ores.algebra import format_element, load_preset, random_element
from ores.errors import ExpressionError
from ores.exprparse import (Dagger, Neg, ParseError, Paren, Prod, ScalarLit,
                            Sum, Sym, ast_to_element, fraction_to_text, parse,
                            parse_element, parse_fraction_text,
                            parse_sproduct_text)
from ores.localization import Fraction, SProduct, eq_fraction
from ores.scalars import Scalar


def test_commutator_shape():
    ast = parse("a*a' - a'*a")
    assert isinstance(ast, Sum)
    first, second = ast.terms
    assert first == Prod((Sym("a"), Dagger(Sym("a"))))
    assert second == Neg(Prod((Dagger(Sym("a")), Sym("a"))))


def test_dagger_binds_to_parenthesized_group():
    ast = parse("(1+ x*x)'")
    assert isinstance(ast, Dagger)
    assert isinstance(ast.child, Paren)
    inner = ast.child.child
    assert isinstance(inner, Sum)
    assert inner.terms[0] == ScalarLit(Scalar(1))


def test_scalar_literals():
    from fractions import Fraction as Rational
    assert parse("3/4") == ScalarLit(Scalar(Rational(3, 4)))
    assert parse("i") == ScalarLit(Scalar(0, 1))
    assert parse("7") == ScalarLit(Scalar(7))


def test_print_is_canonical():
    p = load_preset("free_xy")
    assert format_element(parse_element("x * y- y *x", p)) == "x*y - y*x"
    assert format_element(parse_element("( 1+ x*x )'", p)) == "1 + x*x"
    assert format_element(parse_element("2 * x + 1/2", p)) == "1/2 + 2*x"


def test_print_parse_fixpoint():
    rng = random.Random(81)
    for name in ("poly_x", "heisenberg"):
        p = load_preset(name)
        for _ in range(40):
            el = random_element(p, rng, max_degree=3, max_terms=4)
            text = format_element(el)
            assert parse_element(text, p) == el
            assert format_element(parse_element(text, p)) == text


def test_positioned_errors():
    with pytest.raises(ParseError) as e:
        parse("x + ")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse("x + + y")
    assert e.value.col == 5
    with pytest.raises(ParseError):
        parse("(x")
    with pytest.raises(ParseError):
        parse("x)")
    with pytest.raises(ParseError):
        parse("1/0")
    with pytest.raises(ParseError):
        parse("x $ y")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError) as e:
        parse("x +\n* y")
    assert e.value.line == 2


def test_reserved_words():
    # i is a scalar literal, never a symbol
    ast = parse("i*x")
    assert ast == Prod((ScalarLit(Scalar(0, 1)), Sym("x")))


def test_fuzz_never_crashes_uncontrolled():
    rng = random.Random(82)
    alphabet = "xy'*+-()c;, 123/ifrac"
    for _ in range(300):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(1, 24)))
        try:
            parse(text)
        except ParseError:
            continue


def test_ast_to_element_and_unknown_symbols():
    p = load_preset("heisenberg")
    el = parse_element("a*a' - a'*a", p)
    assert el == p.one()
    el2 = parse_element("i*(a + a')", p)
    assert el2 == (p.generator("a") + p.generator("ad")).scale(Scalar(0, 1))
    with pytest.raises(ExpressionError) as e:
        parse_element("a*z", p)
    assert "z" in str(e.value)
    assert "a" in str(e.value) or "generators" in str(e.value)


def test_dagger_names_map_to_partners():
    p = load_preset("heisenberg")
    assert parse_element("a'", p) == p.generator("ad")
    assert parse_element("a''", p) == p.generator("a")
    assert parse_element("x'", load_preset("poly_x")) \
        == load_preset("poly_x").generator("x")


def test_sproduct_text_round_trip():
    p = load_preset("heisenberg")
    s = parse_sproduct_text("(1 + a'*a)*(1 + (a + a')'*(a + a'))", p)
    assert len(s.ps) == 2
    assert s.ps[0] == p.generator("a")
    assert s.ps[1] == p.generator("a") + p.generator("ad")
    one = parse_sproduct_text("1", p)
    assert one.is_one()


def test_sproduct_text_rejects_wrong_shapes():
    p = load_preset("heisenberg")
    for bad in ("1 + a*a", "(1 + a'*a) + 1", "2 + a'*a", "(1 + a'*a)*(a)"):
        with pytest.raises(ExpressionError):
            parse_sproduct_text(bad, p)
    q = load_preset("poly_xy")
    with pytest.raises(ExpressionError):
        parse_sproduct_text("1 + x*y", q)


def test_fraction_text_round_trip():
    p = load_preset("heisenberg")
    a = p.generator("a")
    f = Fraction(a, SProduct(p, (a,)))
    text = fraction_to_text(f)
    g = parse_fraction_text(text, p)
    assert g.num == f.num
    assert g.den.key() == f.den.key()
    # two factors, one of them not atomic, survive the round trip too
    h = Fraction(a * a, SProduct(p, (a, a + p.generator("ad"))))
    back = parse_fraction_text(fraction_to_text(h), p)
    assert back.num == h.num and back.den.key() == h.den.key()


def test_fraction_text_slash_form():
    p = load_preset("poly_x")
    x = p.generator("x")
    f = parse_fraction_text("(x + 1) / (1 + x*x)", p)
    assert f.num == x + 1
    assert f.den.ps == (x,)
    g = parse_fraction_text("(x) / (1)", p)
    assert g.den.is_one()
    got = fraction_to_text(g)
    assert parse_fraction_text(got, p).num == x


def test_fraction_with_two_factors():
    p = load_preset("poly_x")
    x = p.generator("x")
    f = parse_fraction_text("(x + x*x) / (1+x*x)*(1+x'*x)", p)
    assert f.num == x + x * x
    assert len(f.den.ps) == 2
    expected = Fraction(f.num, SProduct(p, (x, x)))
    assert eq_fraction(f, expected)


def test_scalar_one_factors_are_skipped_in_fractions():
    p = load_preset("poly_x")
    f = parse_fraction_text("(x) / (1)", p)
    assert f.den.is_one()
    g = parse_fraction_text("(x) / (1)*(1+x*x)*(1)", p)
    assert g.den.ps == (p.generator("x"),)


def test_bad_integer_literals_are_parse_errors():
    # str.isdigit accepts superscript digits that int() rejects, and int()
    # refuses a literal past the interpreter's digit limit (4,300 by
    # default); both escaped parse as a bare ValueError
    for text in ("²", "x + ²", "1/²", "1" * 5000, "x + 2/" + "3" * 5000):
        with pytest.raises(ParseError):
            parse(text)
    with pytest.raises(ParseError) as e:
        parse("x + " + "1" * 5000)
    assert e.value.col == 5
    assert parse("٣") == ScalarLit(Scalar(3))
