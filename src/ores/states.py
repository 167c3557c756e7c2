"""States as exact moment tables.

A MomentFunctional stores f on every irreducible word of degree at most
2d, which is enough to build the degree-d Gram matrix G[w, w'] = f(w'w')
and to evaluate f on any element of degree at most 2d.  All stored
values are Gaussian rationals, so positivity can be decided exactly.

Rewriting keeps the weight of a word under the presentation's grading
(Presentation.grading), so f(NF(u x)) is zero wherever the weight of
u x is not the weight of a table word with a nonzero value.  On a
presentation with rules, the Gram matrix evaluates only the pairs whose
weight the table supports, found by grouping the words by weight once;
every other entry is an exact zero.  The vacuum table is nonzero at one
weight only, so at degree 9 on the oscillator 10 of the 55 Gram rows are
nonzero.  Without rules every evaluation is one table read, and nothing
is pruned by weight.

A state also kills whole rows.  The null space {x : f(x'x) = 0} of a
state is a left ideal (Schmuedgen, Unbounded Operator Algebras and
Representation Theory, 1990), and a generator g with f(NF(y g)) = 0 for
every basis word y of degree < 2d puts every word x0 g of degree <= d
in it: NF(u x0 g) = sum_y c_y NF(y g) over the words y of NF(u x0), so
f(u x0 g) = 0 for every u of degree <= d.  gram() finds these killed
generators once, with one table read per irreducible y g, and evaluates
no entry in the row or column of a word that ends in one.  The vacuum
kills a, which leaves 6 of the 21 rows at degree 5 to evaluate; the
Dirac state at 0 kills every generator.

The hermitian check reads f at the dagger of a word directly where that
dagger word is a basis word, and rewrites only a reducible one.

Shipped states: the Dirac/vacuum table (1 on the empty word, 0 on every
other normal word; on the normal-ordered oscillator presentation this is
exactly the vacuum expectation), the Gaussian moment state on the one
variable presentation, and a numeric import path that snaps floating
moments to nearby rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .algebra import (_NF_LIMIT, AlgebraElement, Presentation, _check_same,
                      _remember)
from .errors import DegreeOverflow, InsufficientDegree, StateAxiomError
from .linalg import PsdReport, graded_hermitian_reduce
from .scalars import ONE, ZERO, Scalar, as_scalar, gaussian_over


# The largest Gram matrix gram() builds, in rows: the basis words of
# degree <= d.  On a 2-CPU machine (Python 3.11) the state, axiom check
# and GNS build of the heisenberg vacuum at degree 16 (153 words, 17 rows
# evaluated, as the vacuum kills a) take about 0.010 s.  It bounds rows,
# not work: the Gaussian Hankel table on one variable and its exact
# reduction take about 0.9 s at 81 rows and 4.3 s at 101, as its entries
# grow with the degree.
_GRAM_LIMIT = 160


def _at(table: dict, nf: dict) -> Scalar:
    """f at the combination nf of normal words, from a table on them; an
    irreducible word is its own normal form."""
    if len(nf) == 1:
        (w, c), = nf.items()
        if c == ONE:
            return table.get(w, ZERO)
    out = ZERO
    for w, c in nf.items():
        out = out + c * table.get(w, ZERO)
    return out


class MomentFunctional:
    """An exact linear functional given by a full word table up to 2d.

    The constructor refuses a table with words outside the basis, without
    f(1) = 1, or without hermitian symmetry, so every MomentFunctional is
    normalized and hermitian.  It reads the table once per basis word,
    keeping a value that is already a Scalar as it is.  Hermitian
    symmetry conj f(w) = f(NF(w')) compares the triples of f(w) and
    f(w') where the dagger word w' is a basis word, its own normal form,
    and rewrites w' only where it is not; each pair is compared from both
    ends, which names the first word of the pair that fails.
    """

    __slots__ = ("presentation", "degree", "table", "_phi", "_killed",
                 "_reduction")

    def __init__(self, presentation: Presentation, degree: int, table: dict):
        if degree < 1:
            raise InsufficientDegree("moment degree must be at least 1")
        if 2 * degree > presentation.degree_cap:
            raise InsufficientDegree(
                "moment degree %d needs words of degree %d > cap %d"
                % (degree, 2 * degree, presentation.degree_cap))
        self.presentation = presentation
        self.degree = int(degree)
        words = presentation.basis_words(2 * degree)
        fixed = {w: as_scalar(table.get(w, ZERO)) for w in words}
        if not table.keys() <= fixed.keys():
            raise StateAxiomError("table contains non-basis words: %s"
                                  % sorted(k for k in table
                                           if k not in fixed)[:3])
        if fixed[()] != ONE:
            raise StateAxiomError("state normalization f(1) = 1 fails")
        # conj f(w) = f(NF(w'))
        dagger = presentation.dagger_word
        for w, x in fixed.items():
            wd = dagger(w)
            y = fixed.get(wd)
            if y is None:
                ok = x.conjugate() == _at(
                    fixed, presentation.normal_form_word(wd))
            else:
                ok = x.a == y.a and x.b == -y.b and x.d == y.d
            if not ok:
                raise StateAxiomError(
                    "hermitian symmetry fails at word %s"
                    % presentation.word_str(w))
        self.table = fixed
        self._phi = {}      # f at words outside the table, filled by phi
        self._killed = None  # the generators f kills, found by gram()
        self._reduction = None

    @classmethod
    def from_function(cls, presentation, degree, fn):
        words = presentation.basis_words(2 * degree)
        return cls(presentation, degree, {w: fn(w) for w in words})

    def evaluate(self, el: AlgebraElement) -> Scalar:
        """f extended linearly; exact."""
        _check_same(self.presentation, el.presentation)
        if el.degree() > 2 * self.degree:
            raise InsufficientDegree(
                "element of degree %d exceeds the table degree 2*%d"
                % (el.degree(), self.degree))
        return _at(self.table, el.terms)

    def phi(self, u, x) -> Scalar:
        """phi(u, x) = f(NF(u x)) for a word u and a normal word x.

        An irreducible u x of degree <= 2d is a table word, read directly.
        Otherwise, for u = v g, NF(u x) = NF(v NF(g x)), so with NF(g x) =
        sum_y c_y y from the presentation's normal-form cache, phi(v g, x)
        = sum_y c_y phi(v, y); with u empty, x is a normal word outside
        the table, where f is taken as 0.  The value depends on the word
        u x only, so values are memoized per functional on it, up to the
        normal-form cache limit.  The recursion is len(u) deep.

        Once gram() has found the generators f kills (_killed_generators),
        phi(u, x) is zero at once where x ends in one of them and u x has
        degree <= 2d: with x = x0 g, NF(u x) = sum_y c_y NF(y g) over the
        normal words y of NF(u x0), of degree < 2d, and f(NF(y g)) = 0 for
        each.
        """
        w = u + x
        got = self.table.get(w)
        if got is None:
            got = self._phi.get(w)
        if got is not None:
            return got
        if not u:
            return ZERO
        killed = self._killed
        if killed and x and x[-1] in killed and len(w) <= 2 * self.degree:
            return ZERO
        v = u[:-1]
        acc = ZERO
        for y, c in self.presentation.normal_form_word(u[-1:] + x).items():
            val = self.phi(v, y)
            if val:
                acc = acc + (val if c == ONE else c * val)
        return _remember(self._phi, w, acc, _NF_LIMIT)

    def _killed_generators(self):
        """The generators g with f(NF(y g)) = 0 for every basis word y of
        degree < 2d, found once.  f is read from the table where y g is
        irreducible and at NF(y g) only where it is not; the scan of a
        generator stops at its first nonzero value."""
        if self._killed is None:
            p = self.presentation
            table = self.table

            def value(w):
                got = table.get(w)
                if got is None:
                    return _at(table, p.normal_form_word(w))
                return got

            ys = p.basis_words(2 * self.degree - 1)
            self._killed = frozenset(
                g for g in range(len(p.generators))
                if not any(value(y + (g,)) for y in ys))
        return self._killed

    def gram(self):
        """Exact Gram matrix G[i][j] = f(w_i' w_j) = phi(w_i', w_j) on the
        words of degree <= the table's degree.

        Only the entries with j >= i that can be nonzero are evaluated;
        the others below the diagonal are G[i][j] = conj(G[j][i]).  That
        is exact: the presentation's rules are dagger-closed and
        confluent, so NF(x') = NF(NF(x)'), and the constructor checked
        conj f(w) = f(NF(w')) on every table word, so f(x') = conj f(x)
        for every x of degree <= 2d.

        On a graded presentation with rules, normal forms keep the weight
        of a word, and phi reads a normal word outside the table as 0, so
        f(NF(u x)) = 0 unless weight(u) + weight(x) is the weight of a
        nonzero table word.  The words are grouped by weight once, and
        row i evaluates only the columns whose weight completes weight(u)
        to such a weight; the rest are zero.  Without rules every phi
        call is one table read, and nothing is pruned: weighing every
        table word would cost more than it saves.

        A generator g that f kills (_killed_generators) zeroes the row and
        column of every word x0 g: NF(w' x0) = sum_y c_y y with deg y <
        2d, so f(w' x0 g) = sum_y c_y f(NF(y g)) = 0, and the row is the
        conjugate of the column.  The null space of a state is a left
        ideal (Schmuedgen, Unbounded Operator Algebras and Representation
        Theory, 1990); these words lie in it, and none of their entries is
        evaluated.

        Raises DegreeOverflow when the matrix would have more than
        _GRAM_LIMIT rows.
        """
        p = self.presentation
        words = p.basis_words(self.degree)
        n = len(words)
        if n > _GRAM_LIMIT:
            raise DegreeOverflow(
                "moment degree %d needs a Gram matrix of dimension %d > %d"
                % (self.degree, n, _GRAM_LIMIT))
        killed = self._killed_generators()
        live = [j for j, x in enumerate(words)
                if not (x and x[-1] in killed)]
        support = None
        if p.rules and p.grading:
            weight = p.weight
            support = {weight(w) for w, c in self.table.items() if c}
            by_weight = {}
            for j in live:
                by_weight.setdefault(weight(words[j]), []).append(j)
        G = [[ZERO] * n for _ in range(n)]
        for k, i in enumerate(live):
            u = p.dagger_word(words[i])
            if support is None:
                cols = live[k:]
            else:
                wu = weight(u)
                cols = [j for s in support for j in by_weight.get(
                    tuple(a - b for a, b in zip(s, wu)), ()) if j >= i]
            row = G[i]
            for j in cols:
                v = self.phi(u, words[j])
                G[j][i] = v.conjugate()
                row[j] = v
        return words, G

    def _reduced(self):
        """(words, Gram matrix, PsdReport) at the table's own degree, with
        the words as grades.  The table is fixed after __init__, so the
        matrix is built and reduced once, for the axiom check and the GNS
        construction alike."""
        if self._reduction is None:
            words, G = self.gram()
            report = graded_hermitian_reduce(G, [len(w) for w in words])
            self._reduction = (words, G, report)
        return self._reduction


@dataclass
class StateReport:
    psd: PsdReport

    @property
    def ok(self) -> bool:
        return self.psd.psd


def check_state_axioms(f: MomentFunctional) -> StateReport:
    """Gram positivity, by exact pivot reduction.  Hermitian symmetry and
    normalization hold by construction of f.  No Cauchy-Schwarz sample is
    taken: for a, b of degree <= d, |f(a'b)|^2 <= f(a'a) f(b'b) is the
    2 x 2 minor of the Gram form, which a verified PSD Gram matrix gives
    for every pair at once.
    """
    return StateReport(f._reduced()[2])


# -- shipped states ------------------------------------------------------------


def dirac_state(presentation: Presentation, degree: int) -> MomentFunctional:
    """f(w) = 1 if w is empty else 0.

    On commutative polynomial presentations this is evaluation at the
    origin; on the normal-ordered oscillator presentation it is the
    vacuum vector expectation, since every nonempty normal word
    annihilates or escapes the vacuum.
    """
    return MomentFunctional.from_function(
        presentation, degree, lambda w: ONE if not w else ZERO)


def double_factorial_moments(max_power: int):
    """m_0..m_max, as ints, with m_{2k} = (2k-1)!! by recurrence, odd
    moments 0."""
    ms = [1]
    for k in range(1, max_power + 1):
        ms.append(0 if k % 2 else ms[k - 2] * (k - 1))
    return ms


def gaussian_state(presentation: Presentation, degree: int) -> MomentFunctional:
    """Standard Gaussian moments on a single hermitian generator:
    f(x^(2k)) = (2k-1)!!, odd moments zero."""
    if len(presentation.generators) != 1:
        raise StateAxiomError(
            "the Gaussian moment table needs a single-generator presentation")
    ms = double_factorial_moments(2 * degree)
    return MomentFunctional.from_function(
        presentation, degree, lambda w: Scalar(ms[len(w)]))


_SNAP_TOL = 1e-9
_SNAP_DENOMINATOR = 10 ** 6


def _snap(x: float):
    """(p, q): the fraction p / q closest to the finite float x with 1 <=
    q <= _SNAP_DENOMINATOR, in lowest terms; the pair that
    Fraction(x).limit_denominator(_SNAP_DENOMINATOR) gives, found in
    integer steps on x.as_integer_ratio() = n / den.

    Past the limit, the continued fraction of n / den runs to the last
    convergent p1 / q1 within it; the other candidate is the
    semiconvergent (p0 + k p1) / (q0 + k q1) with the largest k allowed.
    The two lie 1 / (q1 (q0 + k q1)) apart, and p1 / q1 lies d / (q1 den)
    from x, with d the remainder the expansion stopped at, so p1 / q1 is
    at least as close exactly when 2 d (q0 + k q1) <= den; it wins ties.
    """
    n, den = x.as_integer_ratio()
    limit = _SNAP_DENOMINATOR
    if den <= limit:
        return n, den
    d = den
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > limit:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (limit - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def from_numeric(presentation: Presentation, degree: int,
                 values: dict) -> MomentFunctional:
    """Build an exact table from floating moments.

    Each value is snapped to the nearest rational with denominator up to
    10**6 (_snap); the snap must land within 1e-9 or the value is
    rejected, and so is a value that is not finite.  The table is then
    hermitian-symmetrized exactly (averaging w against the conjugate at
    the normal form of w'), so tiny float asymmetries cannot fail the
    state axioms.
    """
    def snap(x: float):
        n, d = _snap(x)
        if abs(n / d - x) > _SNAP_TOL:
            raise StateAxiomError(
                "moment %r does not snap to a rational within %g"
                % (x, _SNAP_TOL))
        return n, d

    raw = {}
    for w, v in values.items():
        w = presentation.as_word(w)
        v = complex(v)
        if not (isfinite(v.real) and isfinite(v.imag)):
            raise StateAxiomError("moment %r at word %s is not finite"
                                  % (v, presentation.word_str(w)))
        raw[w] = Scalar.from_quad(snap(v.real) + snap(v.imag))
    half = gaussian_over(1, 0, 2)
    # a word outside the basis stays in, for the constructor to refuse
    table = dict(raw)
    words = presentation.basis_words(2 * degree)
    basis = set(words)
    dagger = presentation.dagger_word
    for w in words:
        # the dagger word need not be normal: in poly_xy the dagger of
        # x*y is y*x
        wd = dagger(w)
        nf = {wd: ONE} if wd in basis else presentation.normal_form_word(wd)
        a = raw.get(w, ZERO)
        b = _at(raw, nf).conjugate()
        has_b = all(w2 in raw for w2 in nf)
        if w not in raw and not has_b:
            table[w] = ZERO
        elif not has_b:
            table[w] = a
        elif w not in raw:
            table[w] = b
        else:
            table[w] = (a + b) * half
    return MomentFunctional(presentation, degree, table)

