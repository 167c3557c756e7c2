"""Expression surface syntax: tokenizer, recursive-descent parser, and
evaluation into algebra elements.

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

Parentheses nest at most MAX_NESTING deep, and deeper text is a
ParseError that names the limit, so neither the parser nor the evaluator
runs out of stack.  Since x'' = x, a run of postfix daggers folds by
parity: one Dagger node for an odd run, two for an even one, so a run of
any length adds at most two nodes.  An even run keeps its nodes because
the fraction syntax reads the shape of the numerator and of each
denominator factor, and refuses a dagger there: ``(a)'' / (1)`` is not a
fraction, though ``a''`` is the element a.

Evaluation is exact, and it computes what the left-to-right product of
one element per factor computes, with less work:

- a subtree without symbols evaluates to a Scalar;
- in a product, the nonzero scalar factors multiply into one coefficient
  that scales the product once at the end; once a factor makes the
  product zero nothing more is multiplied, but every later factor is
  still evaluated, so that its own errors surface;
- a run of generator letters (symbols, each with at most one dagger)
  becomes one word, normalized once.

The exactness rule: an element product checks the degree cap on each
pair of words, and a rule may lower degree (x*x -> 1), so folding a run
past the cap could hide, or raise, a DegreeOverflow that the product
letter by letter does not.  A run is therefore folded only when
deg(product so far) + len(run) <= degree cap, the empty product counting
as degree 0; under that bound no step of the letter-by-letter product
can raise.  Otherwise, or when rewriting the whole word nests too
deeply, the run is multiplied letter by letter.  A factor whose
evaluation raises first multiplies in the pending run, as the
left-to-right order does, so a DegreeOverflow there comes first.

Each parenthesized denominator factor is either the scalar 1, which
contributes no factor, or has the shape 1 + q*p with q the dagger of p;
the fraction builder checks that exactly and refuses anything else,
since the localization only inverts such factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, Presentation, _add_into, format_element
from .errors import DegreeOverflow, ExpressionError, OresError
from .localization import Fraction, SProduct
from .scalars import ONE, ZERO, Scalar, as_scalar, gaussian_over

MAX_NESTING = 32    # parenthesis depth; far below what the stack holds


class ParseError(ExpressionError):
    """Syntax error with position information."""

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


# -- AST -----------------------------------------------------------------------


@dataclass(slots=True)
class ScalarLit:
    """A literal scalar token: a nonnegative rational or the unit i."""
    value: Scalar


@dataclass(slots=True)
class Sym:
    name: str


@dataclass(slots=True)
class Dagger:
    child: object


@dataclass(slots=True)
class Prod:
    factors: tuple


@dataclass(slots=True)
class Neg:
    """A '-'-attached term; valid only as a non-leading summand."""
    child: object


@dataclass(slots=True)
class Sum:
    terms: tuple


@dataclass(slots=True)
class Paren:
    child: object


# -- tokenizer -------------------------------------------------------------------

_PUNCT = "+-*/'()"


def tokenize(text: str):
    """The tokens of text as tuples (kind, text, line, col), closed by an
    "eof" token."""
    tokens = []
    append = tokens.append
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch in _PUNCT:
            append((ch, ch, line, col))
        elif ch in " \t\r":
            pass
        elif ch == "\n":
            line += 1
            col = 1
            i = j
            continue
        # isdecimal accepts exactly the digits int() reads
        elif ch.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            append(("int", text[i:j], line, col))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            append(("i" if word == "i" else "ident", word, line, col))
        else:
            raise ParseError("unexpected character %r" % ch, line, col)
        col += j - i
        i = j
    append(("eof", "", line, col))
    return tokens


# -- parser ------------------------------------------------------------------------


class _Parser:
    __slots__ = ("tokens", "pos", "depth")

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def expect(self, kind: str):
        t = self.tokens[self.pos]
        if t[0] != kind:
            self.fail("expected %r" % kind)
        self.pos += 1
        return t

    def fail(self, message):
        kind, text, line, col = self.tokens[self.pos]
        got = text if kind != "eof" else "end of input"
        raise ParseError("%s, got %s" % (message, got), line, col)

    def end(self):
        if self.tokens[self.pos][0] != "eof":
            self.fail("unexpected trailing input")

    @staticmethod
    def integer(t) -> int:
        try:
            return int(t[1])
        except ValueError:  # past the interpreter's limit on int digits
            raise ParseError("integer literal too long", t[2], t[3]) from None

    def parse_expr(self):
        term = self.parse_term()
        op = self.tokens[self.pos][0]
        if op != "+" and op != "-":
            return term
        terms = [term]
        while op == "+" or op == "-":
            self.pos += 1
            term = self.parse_term()
            terms.append(Neg(term) if op == "-" else term)
            op = self.tokens[self.pos][0]
        return Sum(tuple(terms))

    def parse_term(self):
        factor = self.parse_factor()
        if self.tokens[self.pos][0] != "*":
            return factor
        factors = [factor]
        while self.tokens[self.pos][0] == "*":
            self.pos += 1
            factors.append(self.parse_factor())
        return Prod(tuple(factors))

    def parse_group(self, t):
        """The expression inside the parenthesis that token t opened."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("parentheses nest deeper than %d" % MAX_NESTING,
                             t[2], t[3])
        inner = self.parse_expr()
        self.expect(")")
        self.depth -= 1
        return inner

    def parse_factor(self):
        tokens = self.tokens
        t = tokens[self.pos]
        kind = t[0]
        self.pos += 1
        if kind == "ident":
            node = Sym(t[1])
        elif kind == "int":
            num = self.integer(t)
            if tokens[self.pos][0] == "/":
                self.pos += 1
                d = self.expect("int")
                den = self.integer(d)
                if den == 0:
                    raise ParseError("zero denominator in scalar literal",
                                     d[2], d[3])
                node = ScalarLit(gaussian_over(num, 0, den))
            else:
                node = ScalarLit(Scalar(num))
        elif kind == "(":
            node = Paren(self.parse_group(t))
        elif kind == "i":
            node = ScalarLit(Scalar(0, 1))
        else:
            self.pos -= 1
            self.fail("expected a scalar, symbol, or parenthesized expression")
        start = self.pos
        while tokens[self.pos][0] == "'":
            self.pos += 1
        daggers = self.pos - start
        if daggers:
            node = Dagger(node) if daggers % 2 else Dagger(Dagger(node))
        return node


def parse(text: str):
    """Parse text into an AST; raises ParseError with position."""
    p = _Parser(text)
    node = p.parse_expr()
    p.end()
    return node


# -- conversion to algebra elements ---------------------------------------------------


def ast_to_element(node, presentation: Presentation) -> AlgebraElement:
    """Evaluate an AST in the presentation."""
    v = _eval(node, presentation)
    return presentation.scalar(v) if isinstance(v, Scalar) else v


def _unknown(name, p) -> ExpressionError:
    return ExpressionError("unknown symbol %r (generators: %s)"
                           % (name, ", ".join(p.generators)))


def _eval(node, p):
    """The value of node: a Scalar where it is a constant (it holds no
    symbol, or it is a zero product), else an AlgebraElement."""
    t = type(node)
    if t is Prod:
        return _eval_prod(node.factors, p)
    if t is Sym:
        g = p._index.get(node.name)
        if g is None:
            raise _unknown(node.name, p)
        return p.normalize_raw({(g,): ONE})
    if t is ScalarLit:
        return as_scalar(node.value)
    if t is Paren:
        return _eval(node.child, p)
    if t is Sum:
        return _eval_sum(node.terms, p)
    if t is Dagger:
        v = _eval(node.child, p)
        return v.conjugate() if isinstance(v, Scalar) else v.dagger()
    if t is Neg:
        return -_eval(node.child, p)
    raise TypeError("not an AST node: %r" % (node,))


def _eval_sum(terms, p):
    total = ZERO     # the sum while every term is a Scalar
    acc = None       # the terms of the sum from the first element on
    for node in terms:
        v = _eval(node, p)
        if not isinstance(v, Scalar):
            if acc is None:
                acc = {(): total} if total else {}
            _add_into(acc, v.terms.items())
        elif acc is None:
            total = total + v
        else:
            _add_into(acc, (((), v),))
    return total if acc is None else AlgebraElement(p, acc)


def _eval_prod(factors, p):
    coeff = ONE      # the product of the nonzero scalar factors
    acc = None       # the product of the other factors so far; None is 1
    run = []         # generator letters not yet multiplied into acc
    zero = False     # the product is zero: multiply nothing more
    index = p._index
    for f in factors:
        t = type(f)
        sym = f if t is Sym else (
            f.child if t is Dagger and type(f.child) is Sym else None)
        if sym is not None:
            g = index.get(sym.name)
            if g is None:
                if run:
                    _times_run(acc, run, p)
                raise _unknown(sym.name, p)
            if not zero:
                run.append(g if sym is f else p.dagger_map[g])
            continue
        try:
            v = _eval(f, p)
        except OresError:
            if run:  # the left-to-right order multiplies the run in first
                _times_run(acc, run, p)
            raise
        if zero:
            continue
        if isinstance(v, Scalar) and v:
            coeff = coeff * v
            continue
        if run:
            acc = _times_run(acc, run, p)
            run = []
            zero = not acc.terms
        if isinstance(v, Scalar):
            zero = True
        elif not zero:
            acc = v if acc is None else acc * v
            zero = not acc.terms
    if run:
        acc = _times_run(acc, run, p)
        zero = not acc.terms
    if zero:
        return ZERO
    if acc is None:
        return coeff
    return acc if coeff is ONE else acc.scale(coeff)


def _times_run(acc, run, p) -> AlgebraElement:
    """acc, None standing for 1, times the word of the generator letters
    in run; see the exactness rule in the module docstring."""
    if (0 if acc is None else acc.degree()) + len(run) <= p.degree_cap:
        try:
            word = p.normalize_raw({tuple(run): ONE})
            return word if acc is None else acc * word
        except DegreeOverflow:  # rewriting the whole word nests too deeply
            pass
    if acc is None:
        acc = p.one()
    for g in run:
        acc = acc * p.normalize_raw({(g,): ONE})
    return acc


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
        if len(fs) == 2 and type(fs[0]) is Dagger and fs[0].child == fs[1]:
            # q is written as the dagger of p, so q equals p's dagger
            return ast_to_element(fs[1], presentation)
        # the first cut evaluates every factor, so that each factor's own
        # error surfaces there, in the left-to-right order
        q = ast_to_element(fs[0], presentation)
        p_el = ast_to_element(Prod(fs[1:]) if len(fs) > 2 else fs[1],
                              presentation)
        if q == p_el.dagger():
            return p_el
        p_el = _match_later_cut(fs, presentation)
        if p_el is not None:
            return p_el
    raise ExpressionError(shape)


def _match_later_cut(fs, p):
    """The product of fs[cut:] at the first cut from 2 on where the
    product of fs[:cut] is its dagger, or None.

    Every factor evaluates without error: the first cut evaluated them
    all.  A factor whose value is a nonzero Scalar c, or the element c
    times 1 (such as a*ad - ad*a where a*ad -> ad*a + 1), only scales a
    product: c times 1 has degree 0, so no pair of words it enters
    passes the cap, and c != 0 keeps a zero product zero (see
    _eval_prod).  So the product of fs[i:k] raises where the product of
    its other factors raises, and equals that product times the c's.
    The other factors are therefore multiplied once for each number j of
    them before the cut, the head before the tail as each cut does, and
    the c's once in all: n factors of which m are not such constants
    cost O(n + m^2) factor evaluations, not O(n^2).
    """
    scalar = []
    for f in fs:
        sym = type(f) is Sym or type(f) is Dagger and type(f.child) is Sym
        v = None if sym else _eval(f, p)
        if isinstance(v, AlgebraElement) and len(v.terms) == 1:
            v = v.terms.get(())     # c for c times 1, else None
        scalar.append(v if isinstance(v, Scalar) and v else None)
    rest = [f for f, c in zip(fs, scalar) if c is None]
    after = [ONE] * (len(fs) + 1)   # the scalars of fs[k:], at k
    for k in range(len(fs) - 1, -1, -1):
        c = scalar[k]
        after[k] = after[k + 1] if c is None else after[k + 1] * c
    before, j, done = ONE, 0, None  # the scalars and others of fs[:cut]
    for cut in range(1, len(fs)):
        c = scalar[cut - 1]
        if c is None:
            j += 1
        else:
            before = before * c
        if cut == 1:
            continue
        if j != done:
            head, tail = _eval_prod(rest[:j], p), _eval_prod(rest[j:], p)
            done = j
        q = _scaled(head, before, p)
        p_el = _scaled(tail, after[cut], p)
        if q == p_el.dagger():
            return p_el
    return None


def _scaled(v, c: Scalar, p) -> AlgebraElement:
    """The element v c, v a value of _eval_prod and c a nonzero Scalar."""
    return p.scalar(v * c) if isinstance(v, Scalar) else v.scale(c)


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
    tokens = p.tokens
    while True:
        t = tokens[p.pos]
        if t[0] != "(":
            p.fail("expected a parenthesized denominator factor")
        p.pos += 1
        stripped = _strip_paren(p.parse_group(t))
        if not (isinstance(stripped, ScalarLit)
                and stripped.value == Scalar(1)):
            ps.append(_match_one_plus_dagger_product(stripped, presentation))
        if tokens[p.pos][0] != "*":
            break
        p.pos += 1
    return tuple(ps)


def parse_sproduct_text(text: str, presentation: Presentation):
    """Parse denominator text: either the literal 1 or a chain of
    parenthesized 1 + q*p factors joined by '*'."""
    p = _Parser(text)
    if p.tokens[0][:2] == ("int", "1"):
        p.pos = 1
        p.end()
        return SProduct(presentation)
    ps = _parse_factor_chain(p, presentation)
    p.end()
    return SProduct(presentation, ps)


def parse_fraction_text(text: str, presentation: Presentation):
    """Parse the CLI fraction syntax ``(expr) / (factor)*(factor)...``."""
    p = _Parser(text)
    first = p.parse_factor()
    if not isinstance(first, Paren):
        _, _, line, col = p.tokens[0]
        raise ParseError("a fraction starts with a parenthesized numerator",
                         line, col)
    num = ast_to_element(first.child, presentation)
    p.expect("/")
    ps = _parse_factor_chain(p, presentation)
    p.end()
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
