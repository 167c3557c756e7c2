"""Expression surface syntax: parsing, printing, and element bridging."""

import random
from fractions import Fraction as Rational

import pytest

import ores.exprparse
from ores.algebra import (PRESETS, AlgebraElement, Presentation,
                          format_element, load_preset, random_element)
from ores.errors import DegreeOverflow, ExpressionError, OresError
from ores.exprparse import (MAX_NESTING, Dagger, Neg, ParseError, Paren, Prod,
                            ScalarLit, Sum, Sym, ast_to_element,
                            fraction_to_text, parse, parse_element,
                            parse_fraction_text, parse_sproduct_text)
from ores.localization import Fraction, SProduct, eq_fraction
from ores.scalars import Scalar

from oracles import (reference_ast_to_element,
                     reference_match_one_plus_dagger_product)


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


@pytest.mark.parametrize("factor", ["1", "(a*ad - ad*a)", "(a - a + 1)"])
def test_denominator_cuts_evaluate_each_factor_a_bounded_number_of_times(
        factor, monkeypatch):
    # each cut of a product q*p used to evaluate both of its sides from
    # scratch, about n^2 evaluations for n factors of value 1, be the
    # value a Scalar or the element 1
    p = load_preset("heisenberg")
    n = 1000
    calls = []
    evaluate = ores.exprparse._eval

    def counted(node, presentation):
        calls.append(node)
        return evaluate(node, presentation)

    monkeypatch.setattr(ores.exprparse, "_eval", counted)
    assert ast_to_element(parse(factor), p).is_one()
    per_factor = len(calls)
    s = parse_sproduct_text("(1 + " + (factor + "*") * n + "a'*a)", p)
    assert s.ps == (p.generator("a"),)
    assert len(calls) < 4 * n * per_factor


def _dagger_product(rng, names):
    """The factors of a product q*p, q written as the dagger of p factor
    by factor, with scalars strewn among them, and now and then a factor
    changed or an unknown symbol."""
    ps = [rng.choice(names) + rng.choice(("", "'")) for _ in
          range(rng.randint(1, 3))]
    ps += [rng.choice(("(%s + 1)" % rng.choice(names), "2"))
           for _ in range(rng.randint(0, 1))]
    qs = [f[:-1] if f.endswith("'") else
          f if f == "2" else f + "'" for f in reversed(ps)]
    fs = qs + ps
    for _ in range(rng.randint(0, 4)):
        fs.insert(rng.randint(0, len(fs)),
                  rng.choice(("1", "1", "2", "1/2", "i", "0", "(1 + i)")))
    if rng.random() < 0.3:
        fs[rng.randrange(len(fs))] = rng.choice(names + ["z", "1", "x*y"])
    return fs


@pytest.mark.parametrize("name", ["heisenberg", "free_xy", "lowering"])
def test_denominator_cuts_match_the_cut_by_cut_reference(name, monkeypatch):
    p = _lowering() if name == "lowering" else load_preset(name)
    rng = random.Random("cuts/" + name)
    names = list(p.generators)
    texts = []
    for _ in range(150):
        fs = _dagger_product(rng, names)
        texts.append(rng.choice(("(1 + %s)", "(%s + 1)")) % "*".join(fs))
    got = [_outcome(parse_sproduct_text, text, p) for text in texts]
    monkeypatch.setattr(ores.exprparse, "_match_one_plus_dagger_product",
                        reference_match_one_plus_dagger_product)
    for text, outcome in zip(texts, got):
        assert outcome == _outcome(parse_sproduct_text, text, p), text
    # the draw finds parameters and meets each error
    errors = {o[0] for o in got
              if isinstance(o, tuple) and o and isinstance(o[0], type)}
    assert sum(not isinstance(o[0], type) for o in got) > 20
    assert ExpressionError in errors
    assert DegreeOverflow in errors or name != "lowering"


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


# -- folded evaluation against the element-by-element reference ---------------------


def _lowering():
    """x*x -> 1 lowers degree, and products of four letters pass cap 3."""
    return Presentation(("x", "y"), (("x",), ("y",)),
                        ((("x", "x"), ((1, ()),)),), 3)


def _random_expr(rng, names, depth=0):
    terms = ["*".join(_random_factor(rng, names, depth)
                      for _ in range(rng.randint(1, 6)))
             for _ in range(rng.randint(1, 3))]
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", " - ")) + term
    return text


def _random_factor(rng, names, depth):
    r = rng.random()
    if r < 0.6 or depth >= 2:
        factor = rng.choice(names)
    elif r < 0.8:
        factor = rng.choice(("0", "1", "2", "1/2", "3/4", "i"))
    else:
        factor = "(" + _random_expr(rng, names, depth + 1) + ")"
    return factor + "'" * rng.choice((0, 0, 0, 1, 1, 2, 3))


def _random_cases(rng, p, count):
    """(function, text) pairs: elements, S-products and fractions over
    the generators and, now and then, the unknown symbol z."""
    names = list(p.generators) * 8 + ["z"]
    cases = []
    for _ in range(count):
        factors = []
        for _ in range(rng.randint(1, 2)):
            e = _random_expr(rng, names, 1)
            factors.append(rng.choice((
                "(1 + (%s)'*(%s))" % (e, e), "((%s)'*(%s) + 1)" % (e, e),
                "(1 + (%s)*(%s))" % (e, e), "(1)")))
        den = "*".join(factors)
        cases.append((parse_element, _random_expr(rng, names)))
        cases.append((parse_sproduct_text, den))
        cases.append((parse_fraction_text,
                      "(%s) / %s" % (_random_expr(rng, names), den)))
    return cases


def _outcome(fn, text, p):
    try:
        v = fn(text, p)
    except OresError as exc:
        return type(exc), str(exc)
    if isinstance(v, AlgebraElement):
        return v.terms
    if isinstance(v, SProduct):
        return v.key()
    return v.num.terms, v.den.key()


@pytest.mark.parametrize("name", ["heisenberg", "free_xy", "lowering"])
def test_evaluation_matches_the_element_by_element_reference(name,
                                                            monkeypatch):
    p = _lowering() if name == "lowering" else load_preset(name)
    cases = _random_cases(random.Random("reference/" + name), p, 100)
    got = [_outcome(fn, text, p) for fn, text in cases]
    monkeypatch.setattr(ores.exprparse, "ast_to_element",
                        reference_ast_to_element)
    for (fn, text), outcome in zip(cases, got):
        assert outcome == _outcome(fn, text, p), text
    # the draw reaches the cap and names the unknown symbol
    errors = {o[0] for o in got
              if isinstance(o, tuple) and o and isinstance(o[0], type)}
    assert DegreeOverflow in errors and ExpressionError in errors


def test_a_run_past_the_cap_raises_where_products_do():
    p = _lowering()
    # y*y*y*x passes the cap at its last step, though x*x would lower
    # the degree again; x*x*x*x never passes it, nor y*y*y*(x*x)
    for text in ("y*y*y*x*x", "(y*y*y)*x*x", "y*y*y*x'*x", "2*y*y*y*x*x"):
        with pytest.raises(DegreeOverflow):
            parse_element(text, p)
    assert parse_element("x*x*x*x*y*x*x", p) == p.generator("y")
    assert parse_element("y*y*y*(x*x)'", p) == parse_element("y*y*y", p)
    # a zero factor stops multiplying, but a later unknown symbol and a
    # run past the cap before it still raise
    assert parse_element("y*y*y*0*y*y", p).is_zero()
    with pytest.raises(ExpressionError, match="unknown symbol 'z'"):
        parse_element("y*0*y*z", p)
    with pytest.raises(DegreeOverflow):
        parse_element("y*y*y*x*z", p)
    with pytest.raises(DegreeOverflow):
        parse_element("y*y*y*x*(z)", p)


def test_mutated_texts_raise_only_ores_errors():
    p = load_preset("heisenberg")
    rng = random.Random(211)
    names = list(p.generators) * 8 + ["z"]
    mutations = (
        lambda t: "(" * 300 + t + ")" * 300,
        lambda t: "(" + t + ")" + "'" * 5000,
        lambda t: t + " * " + "7" * 5000,
        lambda t: t + " + 2/" + "3" * 5000,
        lambda t: "*".join(["(%s)" % t] * 30),
        lambda t: "(%s) / (1 + (%s)'*(%s))" % (t, t, t),
    )
    for _ in range(60):
        text = _random_expr(rng, names)
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            if r < 0.4:
                text = rng.choice(mutations)(text)
            elif r < 0.7:
                k = rng.randrange(len(text) + 1)
                text = text[:k] + rng.choice("$²٣\n\t;.(')*/_") \
                    + text[k:]
            else:
                k = rng.randrange(len(text) + 1)
                text = text[:k] + text[k + rng.randint(1, 4):]
        for fn in (parse_element, parse_sproduct_text, parse_fraction_text):
            try:
                fn(text, p)
            except OresError:
                continue


def test_parentheses_nest_at_most_max_nesting_deep():
    p = load_preset("heisenberg")
    n = MAX_NESTING
    assert parse_element("(" * n + "a" + ")" * n, p) == p.generator("a")
    with pytest.raises(ParseError, match="deeper than %d" % n) as e:
        parse("(" * (n + 1) + "a" + ")" * (n + 1))
    assert e.value.col == n + 1
    with pytest.raises(ParseError, match="deeper than %d" % n):
        parse_sproduct_text("(" * (n + 1) + "1" + ")" * (n + 1), p)
    # the shape with the most frames per level still fits the stack at
    # the limit, through evaluation, == and repr of its tree
    text = "a"
    for _ in range(n):
        text = "(ad - 2*" + text + "'')"
    assert parse(text) == parse(text) and repr(parse(text))
    assert parse_element(text, p) == reference_ast_to_element(parse(text), p)


def test_dagger_runs_fold_by_parity():
    # one node for an odd run and two for an even one, so a'' keeps its
    # tree and no chain grows the stack
    assert parse("a'''") == Dagger(Sym("a"))
    assert parse("a''''") == Dagger(Dagger(Sym("a")))
    p = load_preset("heisenberg")
    assert parse_element("a" + "'" * 5001, p) == p.generator("ad")
    assert parse_element("(a*ad)" + "'" * 5000, p) \
        == p.generator("a") * p.generator("ad")
    # a dagger on the numerator or on a denominator factor is still refused
    for text in ("(a)'' / (1)", "(a) / ((1)'')", "(a) / (1 + (a'*a)'')"):
        with pytest.raises(ExpressionError):
            parse_fraction_text(text, p)


def test_parsing_a_fraction_makes_no_element_products(monkeypatch):
    # the element-by-element evaluation made 7 products here, one per
    # factor of each product, from the element 1
    p = Presentation(*PRESETS["heisenberg"], name="heisenberg")
    text = "((0 + 2/3 + 1/2*i)*ad*a + ad*ad) / (1 + (a + ad)'*(a + ad))"
    parse_fraction_text(text, p)  # fills the presentation's value caches
    calls = []
    mul = AlgebraElement.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    f = parse_fraction_text(text, p)
    assert len(calls) == 0
    ad, a = p.generator("ad"), p.generator("a")
    assert f.num == (ad * a).scale(Scalar(Rational(2, 3), Rational(1, 2))) \
        + ad * ad
