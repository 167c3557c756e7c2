"""Finitely presented unital *-algebras with exact normal forms.

A Presentation fixes an ordered list of generators, an involutive
pairing of generators (the dagger), and rewrite rules sending a word to
a linear combination of strictly smaller words in the degree-
lexicographic order on generator indices.  The order condition makes
rewriting terminate; all critical pairs up to the degree cap are checked
at load time, which makes normal forms canonical on the checked range.
Because rule right-hand sides never exceed the left-hand side in degree,
rewriting never lengthens a word, so the degree cap is enforced purely
at word-construction sites (raw input and products).

Each presentation also carries its weight grading: integer weights per
generator under which the left side of every rule and every term on its
right have one weight, so that rewriting keeps the weight of a word
(Bergman, "The diamond lemma for ring theory", Adv. Math. 29, 1978).
It comes from linalg's exact kernel, on first use by the moment layer,
which reads it to skip words whose value is zero by weight.

Elements are immutable linear combinations of irreducible words over
the Gaussian rationals.  Words are tuples of generator indices.

The presentation owns the coordinates of its words: basis_words lists
the irreducible words up to a degree, and positions maps each of them to
its place in that list, the one table by which the witness search and
the GNS construction turn elements into vectors.
"""

from __future__ import annotations

import bisect
import itertools
from functools import cached_property

from .errors import (DegreeOverflow, PresentationError, PresentationMismatch)
from .linalg import nullspace
from .scalars import ONE, ZERO, Scalar, as_scalar, over_common_denominator

Word = tuple


def _deglex_key(w: Word):
    return (len(w), w)


# Cache limits of a presentation.  A full cache keeps what it has and
# takes nothing new, so the words met first stay cached.
_NF_LIMIT = 1 << 15        # normal forms of single words
_BASIS_LIMIT = 1 << 16     # words in one basis_words table


def _is_name(g) -> bool:
    """Whether g is a str that the expression tokenizer reads as one
    identifier other than the imaginary unit i."""
    return (isinstance(g, str) and g != "i"
            and (g[:1].isalpha() or g[:1] == "_")
            and all(ch.isalnum() or ch == "_" for ch in g[1:]))


def _remember(cache: dict, key, value, limit: int):
    """Store value under key unless the cache is full; return value."""
    if key in cache or len(cache) < limit:
        cache[key] = value
    return value


def _add_into(acc: dict, items, scale=None) -> dict:
    """Add the (key, coefficient) pairs of items into the sparse sum acc,
    each coefficient times scale where one is given, and drop every key
    whose sum is zero; return acc."""
    for k, c in items:
        if scale is not None:
            c = scale * c
        prev = acc.get(k)
        if prev is not None:
            c = prev + c
        if c:
            acc[k] = c
        elif k in acc:
            del acc[k]
    return acc


class RewriteRule:
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Word, rhs: dict):
        self.lhs = lhs
        self.rhs = rhs


class Presentation:
    """A *-algebra presentation with a terminating, confluence-checked
    rewriting system.

    generators   ordered names; the position is the generator index used
                 by the degree-lexicographic term order
    dagger_pairs groups of one name (hermitian generator) or two names
                 (a generator and its adjoint)
    relations    list of (lhs_word, rhs_terms) with words as name tuples
                 and rhs_terms as a list of (coeff, word) pairs
    degree_cap   hard bound on word length; exceeding it raises
                 DegreeOverflow rather than silently truncating

    grading      integer weight vectors over the generators, a basis of
                 the gradings that every rule keeps, from linalg's exact
                 kernel on first use by the moment layer; the weight of a
                 word is read by weight()
    """

    def __init__(self, generators, dagger_pairs, relations, degree_cap,
                 name=None):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("duplicate generator names")
        for g in self.generators:
            if not _is_name(g):
                raise PresentationError(
                    "generator name %r is not an identifier of the "
                    "expression grammar" % (g,))
        self.name = name
        if degree_cap < 1:
            raise PresentationError("degree_cap must be at least 1")
        self.degree_cap = int(degree_cap)
        self._index = {g: i for i, g in enumerate(self.generators)}

        dag = [None] * len(self.generators)
        for pair in dagger_pairs:
            pair = tuple(pair)
            if len(pair) == 1:
                g = self._gen_index(pair[0])
                dag[g] = g
            elif len(pair) == 2:
                g, h = (self._gen_index(pair[0]), self._gen_index(pair[1]))
                dag[g], dag[h] = h, g
            else:
                raise PresentationError("dagger pair must have 1 or 2 names")
        if any(d is None for d in dag):
            raise PresentationError("every generator needs a dagger pairing")
        self.dagger_map = tuple(dag)
        # None where every generator is its own dagger
        self._dagger_of = (None if all(d == g for g, d in enumerate(dag))
                           else self.dagger_map.__getitem__)
        self._dagger_pairs = tuple(tuple(p) for p in dagger_pairs)

        rules = []
        for lhs_names, rhs_pairs in relations:
            lhs = self._word(lhs_names)
            if not lhs:
                raise PresentationError("rule left-hand side must be nonempty")
            if len(lhs) > self.degree_cap:
                raise PresentationError("rule left-hand side exceeds degree cap")
            rhs = _add_into({}, ((self._word(word_names), as_scalar(coeff))
                                 for coeff, word_names in rhs_pairs))
            for w in rhs:
                if _deglex_key(w) >= _deglex_key(lhs):
                    raise PresentationError(
                        "rule does not decrease the term order: %s -> %s"
                        % (self.word_str(lhs), self.word_str(w)))
            rules.append(RewriteRule(lhs, rhs))
        rules.sort(key=lambda r: _deglex_key(r.lhs))
        self.rules = tuple(rules)
        by_first = {}
        for r in self.rules:
            by_first.setdefault(r.lhs[0], []).append(r)
        self._rules_by_first = {g: tuple(rs) for g, rs in by_first.items()}

        self._nf_cache = {}
        self._basis_cache = {}
        # the lowest degree whose basis passed _BASIS_LIMIT, if any
        self._basis_overflow = self.degree_cap + 1
        self._positions = (-1, {})   # (degree, word -> position)

        self._check_dagger_closure()
        self._check_confluence()
        self.commutative = self._detect_commutative()

    # -- construction helpers ------------------------------------------------

    def _gen_index(self, name) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PresentationError("unknown generator %r" % (name,)) from None

    def _word(self, names) -> Word:
        return tuple(self._gen_index(n) for n in names)

    def as_word(self, word) -> Word:
        """The word as a tuple of generator indices, given as indices or
        as generator names."""
        word = tuple(word)
        if word and isinstance(word[0], str):
            return self._word(word)
        return word

    def word_str(self, w: Word) -> str:
        if not w:
            return "1"
        return "*".join(self.generators[g] for g in w)

    def dagger_word(self, w: Word) -> Word:
        """The word w' = dagger(w_n) ... dagger(w_1), not rewritten: the
        reversed word where every generator is its own dagger, as in
        poly_x, poly_xy and free_xy."""
        dagger_of = self._dagger_of
        if dagger_of is None:
            return w[::-1]
        return tuple(map(dagger_of, reversed(w)))

    # -- rewriting -----------------------------------------------------------

    def _find_redex(self, w: Word):
        by_first = self._rules_by_first
        if not by_first:
            return None
        n = len(w)
        for pos in range(n):
            rules = by_first.get(w[pos])
            if not rules:
                continue
            for rule in rules:
                L = len(rule.lhs)
                if pos + L <= n and w[pos:pos + L] == rule.lhs:
                    return pos, rule
        return None

    def normal_form_word(self, w: Word) -> dict:
        """Normal form of a single word as a dict word -> Scalar.

        Each rewrite step is one recursive call; a chain of steps deeper
        than Python's recursion limit raises DegreeOverflow."""
        if len(w) > self.degree_cap:
            raise DegreeOverflow(
                "word of length %d exceeds degree cap %d"
                % (len(w), self.degree_cap))
        cached = self._nf_cache.get(w)
        if cached is not None:
            return cached
        hit = self._find_redex(w)
        if hit is None:
            result = {w: ONE}
        else:
            pos, rule = hit
            u, v = w[:pos], w[pos + len(rule.lhs):]
            result = {}
            for rw, rc in rule.rhs.items():
                try:
                    nf = self.normal_form_word(u + rw + v)
                except RecursionError:
                    raise DegreeOverflow(
                        "rewriting a word of length %d nests too deeply"
                        % len(w)) from None
                _add_into(result, nf.items(), rc)
        return _remember(self._nf_cache, w, result, _NF_LIMIT)

    def normalize_raw(self, raw: dict) -> "AlgebraElement":
        """Normalize a raw word combination (dict word -> Scalar)."""
        acc = {}
        for w, c in raw.items():
            if c:
                _add_into(acc, self.normal_form_word(w).items(), c)
        return AlgebraElement(self, acc)

    # -- load-time checks ----------------------------------------------------

    def _check_dagger_closure(self):
        for rule in self.rules:
            lhs_d = self.normalize_raw({self.dagger_word(rule.lhs): ONE})
            rhs_d = self.normalize_raw(
                {self.dagger_word(w): c.conjugate() for w, c in rule.rhs.items()})
            if lhs_d.terms != rhs_d.terms:
                raise PresentationError(
                    "relation %s is not dagger-closed" % self.word_str(rule.lhs))

    def _check_confluence(self):
        """Every ambiguity is a word w with the left side of r1 at 0 and
        that of r2 at pos: an overlap w = l1 + l2[k:] with pos = len(l1)
        - k, where a suffix of l1 is a prefix of l2, and an inclusion w =
        l1, where l2 occurs inside l1."""
        def check(w, pos, r1, r2, message):
            left = self.normalize_raw(
                {u + w[len(r1.lhs):]: c for u, c in r1.rhs.items()})
            right = self.normalize_raw(
                {w[:pos] + u + w[pos + len(r2.lhs):]: c
                 for u, c in r2.rhs.items()})
            if left.terms != right.terms:
                raise PresentationError(message % self.word_str(w))

        for r1, r2 in itertools.product(self.rules, repeat=2):
            l1, l2 = r1.lhs, r2.lhs
            for k in range(1, min(len(l1), len(l2))):
                if (l1[-k:] == l2[:k]
                        and len(l1) + len(l2) - k <= self.degree_cap):
                    check(l1 + l2[k:], len(l1) - k, r1, r2,
                          "critical pair %s does not resolve")
            for pos in range(len(l1) - len(l2) + 1):
                if r1 is not r2 and l1[pos:pos + len(l2)] == l2:
                    check(l1, pos, r1, r2,
                          "embedded critical pair in %s does not resolve")

    @cached_property
    def grading(self):
        """A basis of the integer weightings of the generators under
        which every rule is homogeneous: the exact kernel of the matrix
        with one row per rule and right-hand term, holding the letter
        counts of the left side minus those of the term, each vector
        scaled to integers by its common denominator.  Without rows the
        kernel is that of one zero row, the letter counts.  Two words
        have equal weights under one basis of the kernel exactly when
        they do under any other, so any basis serves."""
        n = len(self.generators)
        rows = []
        for rule in self.rules:
            for w in rule.rhs:
                row = [0] * n
                for g in rule.lhs:
                    row[g] += 1
                for g in w:
                    row[g] -= 1
                rows.append([Scalar(a) for a in row])
        return tuple(tuple(over_common_denominator([v])[1][0][0])
                     for v in nullspace(rows or [[ZERO] * n]))

    def weight(self, w: Word):
        """The weight of the word w under the grading, one integer per
        grading vector; every word of its normal form has it too."""
        return tuple(sum(v[g] for g in w) for v in self.grading)

    def _detect_commutative(self) -> bool:
        n = len(self.generators)
        for i in range(n):
            for j in range(i + 1, n):
                ab = self.normal_form_word((i, j))
                ba = self.normal_form_word((j, i))
                if ab != ba:
                    return False
        return True

    # -- element constructors ------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {(): ONE})

    def scalar(self, c) -> "AlgebraElement":
        c = as_scalar(c)
        return AlgebraElement(self, {(): c} if c else {})

    def generator(self, name) -> "AlgebraElement":
        g = self._gen_index(name)
        return self.normalize_raw({(g,): ONE})

    # -- word enumeration ----------------------------------------------------

    def basis_words(self, max_degree: int):
        """All irreducible words of length <= max_degree, deglex sorted.

        Each layer extends the words of the one before, which are
        irreducible, so a redex of a new word is a suffix.  A word is
        extended only by the letters allowed after its last letter: a
        rule of one letter removes that letter, and a rule of two
        letters forbids its second letter after its first.  Only the
        rules of three or more letters are checked as suffixes, and only
        on the words that end in their last letter.

        Tables are sorted by length first, so the table of a lower degree
        is a prefix of any larger one; it is cut from a larger cached
        table where there is one, not enumerated again.  A table of more
        than _BASIS_LIMIT words raises DegreeOverflow as soon as the count
        passes the limit, and at once from then on."""
        if max_degree < 0:
            return ()
        if max_degree > self.degree_cap:
            raise DegreeOverflow(
                "basis up to degree %d exceeds degree cap %d"
                % (max_degree, self.degree_cap))
        cache = self._basis_cache
        cached = cache.get(max_degree)
        if cached is not None:
            return cached
        larger = [d for d in cache if d > max_degree]
        if larger:
            table = cache[min(larger)]
            words = table[:bisect.bisect_right(table, max_degree, key=len)]
            cache[max_degree] = words
            return words
        if max_degree >= self._basis_overflow:
            raise DegreeOverflow(
                "basis up to degree %d has more than %d words"
                % (max_degree, _BASIS_LIMIT))
        removed, forbidden, longer = set(), set(), {}
        for r in self.rules:
            lhs = r.lhs
            if len(lhs) == 1:
                removed.add(lhs)
            elif len(lhs) == 2:
                forbidden.add(lhs)
            else:
                longer.setdefault(lhs[-1:], []).append(lhs)
        letters = [(g,) for g in range(len(self.generators))
                   if (g,) not in removed]
        # keyed by a word's last letter as a slice, () for the empty word:
        # the letters allowed next, each as a one-letter word with the
        # left sides of three or more letters that end in it, or None
        after = {last: [(g, longer.get(g)) for g in letters
                        if last + g not in forbidden]
                 for last in [()] + letters}
        layers = [[()]]
        count = 1
        for d in range(1, max_degree + 1):
            layer = []
            append = layer.append
            for w in layers[d - 1]:
                for g, lhss in after[w[-1:]]:
                    w2 = w + g
                    if not (lhss and any(w2[-len(lhs):] == lhs
                                         for lhs in lhss)):
                        append(w2)
                if count + len(layer) > _BASIS_LIMIT:
                    self._basis_overflow = d
                    return self.basis_words(max_degree)  # raises
            count += len(layer)
            layers.append(layer)
        words = tuple(itertools.chain.from_iterable(layers))
        self._basis_cache[max_degree] = words
        return words

    def positions(self, max_degree: int) -> dict:
        """word -> position in basis_words(max_degree) for each of its
        words.  The presentation keeps one table, built from the largest
        degree asked for: a lower basis table is a prefix of a higher
        one, so a word has one position in all of them."""
        degree, table = self._positions
        if max_degree > degree:
            table = {w: i for i, w in enumerate(self.basis_words(max_degree))}
            self._positions = (max_degree, table)
        return table

    def __repr__(self):
        label = self.name or ",".join(self.generators)
        return "Presentation(%s)" % label


def _check_same(p: Presentation, q: Presentation):
    """Presentations compare by identity: two loads of one file are two
    presentations, and their elements do not mix."""
    if p is not q:
        raise PresentationMismatch(
            "operands belong to different presentations: %r vs %r" % (p, q))


class AlgebraElement:
    """An immutable normalized linear combination of irreducible words;
    the constructor stores terms as given (see Presentation.normalize_raw)."""

    __slots__ = ("presentation", "terms", "_hash")

    def __init__(self, presentation, terms):
        self.presentation = presentation
        self.terms = terms
        self._hash = None

    # -- ring structure -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgebraElement):
            _check_same(self.presentation, other.presentation)
            return other
        if isinstance(other, (int, Scalar)):
            return self.presentation.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraElement(self.presentation,
                              _add_into(dict(self.terms), o.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return AlgebraElement(
            self.presentation, {w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "AlgebraElement":
        c = as_scalar(c)
        if not c:
            return self.presentation.zero()
        return AlgebraElement(
            self.presentation, {w: c * v for w, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.presentation
        cap = p.degree_cap
        raw = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in o.terms.items():
                if len(w1) + len(w2) > cap:
                    raise DegreeOverflow(
                        "product word %s * %s exceeds degree cap %d"
                        % (p.word_str(w1), p.word_str(w2), cap))
                w = w1 + w2
                c = c1 * c2
                prev = raw.get(w)
                raw[w] = c + prev if prev is not None else c
        return p.normalize_raw(raw)

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = self.presentation.one()
        for _ in range(n):
            out = out * self
        return out

    def dagger(self) -> "AlgebraElement":
        # dagger_word is a bijection, so no two terms meet
        p = self.presentation
        return p.normalize_raw({p.dagger_word(w): c.conjugate()
                                for w, c in self.terms.items()})

    # -- inspection ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): ONE}

    def degree(self) -> int:
        """Maximal word length, or -1 for the zero element."""
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def coefficient(self, word_names) -> Scalar:
        w = self.presentation._word(tuple(word_names))
        return self.terms.get(w, Scalar(0))

    def sorted_terms(self):
        return tuple(sorted(self.terms.items(), key=lambda t: _deglex_key(t[0])))

    def key(self):
        """Hashable canonical key of the terms; it does not name the
        presentation."""
        return tuple((w, c.re, c.im) for w, c in self.sorted_terms())

    def __eq__(self, other):
        if isinstance(other, (int, Scalar)):
            other = self.presentation.scalar(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _check_same(self.presentation, other.presentation)
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return "<%s>" % format_element(self)


# -- canonical text form -------------------------------------------------------


def _format_coeff_word(c: Scalar, word_txt: str):
    """Return (negate, text) for one term, with negate pulling a leading minus."""
    neg = (c.re < 0) or (c.re == 0 and c.im < 0)
    if neg:
        c = -c
    if c == ONE and word_txt:
        return neg, word_txt
    base = "(%s)" % c if c.re and c.im else str(c)
    if word_txt:
        return neg, "%s*%s" % (base, word_txt)
    return neg, base


def format_element(e: AlgebraElement) -> str:
    """Canonical text of an element in the expression grammar."""
    if not e.terms:
        return "0"
    p = e.presentation
    parts = []
    for w, c in e.sorted_terms():
        neg, txt = _format_coeff_word(c, p.word_str(w) if w else "")
        parts.append((neg, txt))
    first_neg, first = parts[0]
    out = ("0 - " + first) if first_neg else first
    for neg, txt in parts[1:]:
        out += (" - " if neg else " + ") + txt
    return out


# -- presets ---------------------------------------------------------------------


# name -> (generators, dagger_pairs, relations, degree_cap)
PRESETS = {
    # C[x]: one hermitian generator, no relations
    "poly_x": (("x",), (("x",),), (), 24),
    # C[x,y]: two commuting hermitian generators
    "poly_xy": (("x", "y"), (("x",), ("y",)),
                ((("y", "x"), ((1, ("x", "y")),)),), 16),
    # a and its adjoint ad with a*ad = ad*a + 1; ad is listed first so the
    # normal ordering rule decreases the term order, and normal words are
    # ad^j a^k
    "heisenberg": (("ad", "a"), (("a", "ad"),),
                   ((("a", "ad"), ((1, ("ad", "a")), (1, ()))),), 20),
    # the free *-algebra on two hermitian generators
    "free_xy": (("x", "y"), (("x",), ("y",)), (), 10),
}

_PRESET_CACHE = {}


def load_preset(name: str) -> Presentation:
    """The named preset, built once per process."""
    if name not in _PRESET_CACHE:
        try:
            data = PRESETS[name]
        except KeyError:
            raise PresentationError(
                "unknown preset %r (have: %s)"
                % (name, ", ".join(sorted(PRESETS)))) from None
        _PRESET_CACHE[name] = Presentation(*data, name=name)
    return _PRESET_CACHE[name]


# -- sampling --------------------------------------------------------------------


def random_scalar(rng) -> Scalar:
    from fractions import Fraction
    num = rng.randint(-3, 3)
    den = rng.randint(1, 3)
    re = Fraction(num, den)
    im = Fraction(0)
    if rng.random() < 0.4:
        im = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return Scalar(re, im)


def random_element(presentation, rng, max_degree=2,
                   max_terms=3) -> AlgebraElement:
    """A deterministic pseudo-random element driven by the given rng."""
    words = presentation.basis_words(max_degree)
    return presentation.normalize_raw(_add_into(
        {}, ((words[rng.randrange(len(words))], random_scalar(rng))
             for _ in range(rng.randint(1, max_terms)))))
