"""Expression surface syntax: tokenizer and recursive-descent parser.

Grammar (dagger is the postfix apostrophe; no unary minus):

    expr      := term (('+' | '-') term)*
    term      := factor ('*' factor)*
    factor    := scalar | ident | factor "'" | '(' expr ')'
    scalar    := INT ['/' INT] | 'i'
    fraction  := '(' expr ')' '/' factors
    sproduct  := '1' | factors
    factors   := '(' expr ')' ('*' '(' expr ')')*

``i`` is a reserved word.  algebra.format_element prints an element in
this grammar and fraction_to_text prints a fraction; both reparse to the
same value.

Each parenthesized denominator factor is either the scalar 1, which
contributes no factor, or has the shape 1 + q*p with q the dagger of p;
the fraction builder checks that exactly and refuses anything else,
since the localization only inverts such factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rational

from .algebra import AlgebraElement, Presentation, format_element
from .errors import ExpressionError
from .localization import Fraction, SProduct
from .scalars import Scalar


class ParseError(ExpressionError):
    """Syntax error with position information."""

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


# -- AST -----------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarLit:
    """A literal scalar token: a nonnegative rational or the unit i."""
    value: Scalar


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Dagger:
    child: object


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Neg:
    """A '-'-attached term; valid only as a non-leading summand."""
    child: object


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Paren:
    child: object


# -- tokenizer -------------------------------------------------------------------

_PUNCT = "+-*/'()"


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        # isdecimal accepts exactly the digits int() reads
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "i" if word == "i" else "ident"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# -- parser ------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            self.fail("expected %r" % kind)
        return self.advance()

    def fail(self, message):
        t = self.peek()
        got = t.text if t.kind != "eof" else "end of input"
        raise ParseError("%s, got %s" % (message, got), t.line, t.col)

    @staticmethod
    def integer(t: _Token) -> int:
        try:
            return int(t.text)
        except ValueError:  # past the interpreter's limit on int digits
            raise ParseError("integer literal too long", t.line,
                             t.col) from None

    def parse_expr(self):
        terms = [self.parse_term()]
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            term = self.parse_term()
            terms.append(Neg(term) if op.kind == "-" else term)
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    def parse_term(self):
        factors = [self.parse_factor()]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    def parse_factor(self):
        node = self.parse_primary()
        while self.peek().kind == "'":
            self.advance()
            node = Dagger(node)
        return node

    def parse_primary(self):
        t = self.peek()
        if t.kind == "int":
            self.advance()
            num = self.integer(t)
            if self.peek().kind == "/":
                self.advance()
                d = self.expect("int")
                den = self.integer(d)
                if den == 0:
                    raise ParseError("zero denominator in scalar literal",
                                     d.line, d.col)
                return ScalarLit(Scalar(Rational(num, den)))
            return ScalarLit(Scalar(num))
        if t.kind == "i":
            self.advance()
            return ScalarLit(Scalar(0, 1))
        if t.kind == "ident":
            self.advance()
            return Sym(t.text)
        if t.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return Paren(inner)
        self.fail("expected a scalar, symbol, or parenthesized expression")


def parse(text: str):
    """Parse text into an AST; raises ParseError with position."""
    p = _Parser(text)
    node = p.parse_expr()
    if p.peek().kind != "eof":
        p.fail("unexpected trailing input")
    return node


# -- conversion to algebra elements ---------------------------------------------------


def ast_to_element(node, presentation: Presentation) -> AlgebraElement:
    """Evaluate an AST in the presentation."""
    p = presentation
    if isinstance(node, ScalarLit):
        return p.scalar(node.value)
    if isinstance(node, Sym):
        if node.name not in p.generators:
            raise ExpressionError(
                "unknown symbol %r (generators: %s)"
                % (node.name, ", ".join(p.generators)))
        return p.generator(node.name)
    if isinstance(node, Dagger):
        return ast_to_element(node.child, p).dagger()
    if isinstance(node, Paren):
        return ast_to_element(node.child, p)
    if isinstance(node, Neg):
        return -ast_to_element(node.child, p)
    if isinstance(node, Sum):
        acc = p.zero()
        for t in node.terms:
            acc = acc + ast_to_element(t, p)
        return acc
    if isinstance(node, Prod):
        acc = p.one()
        for f in node.factors:
            acc = acc * ast_to_element(f, p)
        return acc
    raise TypeError("not an AST node: %r" % (node,))


def parse_element(text: str, presentation: Presentation) -> AlgebraElement:
    return ast_to_element(parse(text), presentation)


# -- fractions --------------------------------------------------------------------------


def _strip_paren(node):
    while isinstance(node, Paren):
        node = node.child
    return node


def _match_one_plus_dagger_product(node, presentation) -> AlgebraElement:
    """Match a denominator factor written as 1 + q*p (either order) with
    q equal to the dagger of p; returns the parameter p."""
    node = _strip_paren(node)
    shape = ("a denominator factor must have the shape 1 + q*p with "
             "q the dagger of p")
    if not isinstance(node, Sum) or len(node.terms) != 2:
        raise ExpressionError(shape)
    first, second = node.terms
    if isinstance(first, Neg) or isinstance(second, Neg):
        raise ExpressionError(shape)
    for one_part, prod_part in ((first, second), (second, first)):
        try:
            one_el = ast_to_element(one_part, presentation)
        except ExpressionError:
            continue
        if not one_el.is_one():
            continue
        prod_part = _strip_paren(prod_part)
        if not isinstance(prod_part, Prod):
            continue
        fs = prod_part.factors
        for cut in range(1, len(fs)):
            q = ast_to_element(
                Prod(fs[:cut]) if cut > 1 else fs[0], presentation)
            p_el = ast_to_element(
                Prod(fs[cut:]) if len(fs) - cut > 1 else fs[cut],
                presentation)
            if q == p_el.dagger():
                return p_el
    raise ExpressionError(shape)


def _factor_text(el: AlgebraElement) -> str:
    txt = format_element(el)
    if _is_atomic_text(el):
        return txt
    return "(" + txt + ")"


def _dagger_text(el: AlgebraElement) -> str:
    if _is_atomic_text(el):
        dag = el.dagger()
        if dag == el:
            return format_element(el)
        if _is_atomic_text(dag):
            return format_element(dag)
    return "(" + format_element(el.dagger()) + ")"


def _is_atomic_text(el: AlgebraElement) -> bool:
    terms = el.sorted_terms()
    if len(terms) != 1:
        return False
    w, c = terms[0]
    return c == Scalar(1) and len(w) >= 1


def _parse_factor_chain(p: _Parser, presentation) -> tuple:
    """``(factor)*(factor)*...`` with each factor either the scalar 1 or
    a 1 + q*p shape; returns the tuple of parameters p."""
    ps = []
    while True:
        t = p.peek()
        if t.kind != "(":
            p.fail("expected a parenthesized denominator factor")
        p.advance()
        inner = p.parse_expr()
        p.expect(")")
        stripped = _strip_paren(inner)
        if not (isinstance(stripped, ScalarLit)
                and stripped.value == Scalar(1)):
            ps.append(_match_one_plus_dagger_product(stripped, presentation))
        if p.peek().kind != "*":
            break
        p.advance()
    return tuple(ps)


def parse_sproduct_text(text: str, presentation: Presentation):
    """Parse denominator text: either the literal 1 or a chain of
    parenthesized 1 + q*p factors joined by '*'."""
    p = _Parser(text)
    t = p.peek()
    if t.kind == "int" and t.text == "1":
        p.advance()
        if p.peek().kind != "eof":
            p.fail("unexpected trailing input")
        return SProduct(presentation)
    ps = _parse_factor_chain(p, presentation)
    if p.peek().kind != "eof":
        p.fail("unexpected trailing input")
    return SProduct(presentation, ps)


def parse_fraction_text(text: str, presentation: Presentation):
    """Parse the CLI fraction syntax ``(expr) / (factor)*(factor)...``."""
    p = _Parser(text)
    first = p.parse_factor()
    if not isinstance(first, Paren):
        tok = p.tokens[0]
        raise ParseError("a fraction starts with a parenthesized numerator",
                         tok.line, tok.col)
    num = ast_to_element(first.child, presentation)
    p.expect("/")
    ps = _parse_factor_chain(p, presentation)
    if p.peek().kind != "eof":
        p.fail("unexpected trailing input")
    den = SProduct(presentation, ps)
    return Fraction(num, den)


def fraction_to_text(f) -> str:
    """Canonical CLI fraction syntax ``(expr) / (factor)*(factor)...``."""
    num = format_element(f.num)
    if not f.den.ps:
        return "(%s) / (1)" % num
    dens = "*".join(
        "(1 + %s*%s)" % (_dagger_text(p), _factor_text(p)) for p in f.den.ps)
    return "(%s) / %s" % (num, dens)
