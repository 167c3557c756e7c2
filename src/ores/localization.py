"""Right fractions over the multiplicative set of shifted squares.

The denominator set S consists of finite products of elements 1 + p'p
(p any algebra element, ' the dagger).  Membership in S is certified
syntactically: an SProduct carries its factor list, and products of
SProducts concatenate factor lists.  A right fraction [a, s] denotes
a s^{-1} once the localization exists; here everything is witness
driven and budgeted, and "not found within budget" is a first-class
outcome rather than an error.

The witness solver enumerates candidate denominators t deterministically
(the empty product, the query denominator itself, then products of
1 + p'p over monomials and pairwise integer combinations of monomials)
and decides membership of a*t in s*A by exact linear algebra over the
span of bounded-degree words.  Before that exact product, every
candidate passes a modular screen (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 5): t, a*t and s*A are reduced modulo a prime
p = 1 mod 4 that the rules choose (see _PRIMES), with i sent to a square
root of -1 mod p, and a*t mod p must lie in the span of s*A mod p; a, s
and t are read up to a nonzero scalar, which keeps that membership, as
coprime Gaussian integers.  Reduction mod p can only lower the
rank of a subspace, so the screen is used only where s*A has full rank
mod p, and so the same exact rank; then it never rejects a true member
(the argument is in _MulSubspace).  The screen works on ranges of
candidates in scan order: one matrix K*M_a mod p (K an annihilator of
s*A mod p, M_a left multiplication by a) is applied at once to the
vectors of all candidates of one degree in the range.  The products of
a factor count are taken in chunks of 8, 16, 32 and so on up to 1,024
candidates, so a search that ends early screens few it never reaches.
Every search reads a count in scan order, so the search state caches a
prefix of each count; from the count's second chunk on, a range runs to
the end of that prefix, and a warm search screens it in one product per
degree.  These are dense float64 products of residues in [0, p), cut
into chunks of at most 2,048 terms so that every partial sum stays
below 2**53 and is exact (Dumas, Giorgi and Pernet, "Dense linear
algebra over word-size prime fields: the FFLAS and FFPACK packages", ACM
TOMS 35(3), 2008).
One M_a serves a query: a candidate of a higher degree adds its new
columns, and the first build goes as far as the cached word maps of a
reach, so a query after a search that went as far builds it once.
Only survivors get the exact products t and a*t and the exact solve;
the scan visits them alone and counts the candidates between them, so
the scan order, the witness and the number of candidates tried are
those of the exact scan.  A candidate is its position in the scan, and
t is rebuilt from the position only for a survivor.  Each candidate's
vector mod p is written once, straight into the stack of its degree;
the cached prefixes hold one stack per degree and count, counted
against the stacks' limit of 2**22 residues (a stack that grows holds
its old rows twice while it copies them).  A prefix grows by a chunk
only while the stacks fit under the limit; from the first chunk that
does not fit, the count caches nothing more, and each later chunk is
built again from the cached values and word maps whenever a search
reaches it, even where a smaller one would still fit.  No vector is
built for a degree whose chunk would pass the limit of one dense
matrix, where M_a is past it too and the screen is off.
Returned witnesses are always re-verified exactly.

The bounded regularity check of a denominator s reads the same spans:
s has no zero divisor of degree <= depth when the maps w -> s*w and
w -> w*s on the words of degree <= depth have full rank (Goodearl and
Warfield, An Introduction to Noncommutative Noetherian Rings, ch. 10).
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, fields
from math import gcd

import numpy as np

from .algebra import AlgebraElement, Presentation, _check_same, _remember
from .errors import (DegreeOverflow, IrregularDenominator, OreWitnessNotFound,
                     WitnessCheckError)
from .linalg import RowSpace
from .scalars import ONE, Scalar, over_common_denominator


@dataclass(frozen=True)
class OreBudget:
    """Search budget for witness enumeration.

    max_factors  most factors 1 + p'p in a candidate denominator t
    max_degree   highest degree of p in candidate factors

    Every field must be a nonnegative int; anything else is a ValueError.
    The scan also stops after MAX_CANDIDATES candidates, whatever the
    budget allows.
    """
    max_factors: int = 2
    max_degree: int = 2

    def __post_init__(self):
        for field in fields(self):
            v = getattr(self, field.name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValueError("budget %s must be a nonnegative int, got %r"
                                 % (field.name, v))


DEFAULT_BUDGET = OreBudget()

# Depth of the bounded zero-divisor check on denominators entering Fraction.
REGULARITY_DEPTH = 2

# Most candidates one witness search tries; past it the answer is "not
# within budget".  Without it a search at max_factors 6 on the oscillator
# would scan about 25**6 candidates, hours of work.
MAX_CANDIDATES = 2 ** 14


class SProduct:
    """An element of S, stored as the list of its factor parameters p.

    The value is the normalized product of the factors 1 + p'p, in
    order.  The dagger reverses the factor list; each factor is
    hermitian, so membership in S is preserved syntactically.
    """

    __slots__ = ("presentation", "ps", "_value")

    def __init__(self, presentation: Presentation, ps=()):
        self.presentation = presentation
        ps = tuple(ps)
        for p in ps:
            _check_same(presentation, p.presentation)
        self.ps = ps
        self._value = None

    @classmethod
    def one(cls, presentation: Presentation) -> "SProduct":
        return cls(presentation, ())

    @property
    def value(self) -> AlgebraElement:
        if self._value is None:
            values = _search_state(self.presentation).values
            key = self.key()
            val = values.get(key)
            if val is None:
                val = self.presentation.one()
                for p in self.ps:
                    val = val * factor_value(p)
                _remember(values, key, val, _VALUE_LIMIT)
            self._value = val
        return self._value

    def key(self):
        return tuple(p.key() for p in self.ps)

    def dagger(self) -> "SProduct":
        return SProduct(self.presentation, tuple(reversed(self.ps)))

    def __mul__(self, other):
        if not isinstance(other, SProduct):
            return NotImplemented
        _check_same(self.presentation, other.presentation)
        return SProduct(self.presentation, self.ps + other.ps)

    def is_one(self) -> bool:
        return not self.ps

    def __repr__(self):
        if not self.ps:
            return "<S: 1>"
        return "<S: %s>" % " * ".join("(1 + (%s)'(%s))" % (p, p)
                                      for p in self.ps)


def factor_value(p: AlgebraElement) -> AlgebraElement:
    """The normalized value 1 + p'p of a single factor."""
    return p.presentation.one() + p.dagger() * p


@dataclass(frozen=True)
class RegularityResult:
    regular: bool
    witness: AlgebraElement | None = None


def is_regular_up_to(s: AlgebraElement, depth: int) -> RegularityResult:
    """Search for zero divisors of s among elements of degree <= depth.

    Checks s*a = 0, then a*s = 0, on the spans s * A and A * s
    (_MulSubspace): a witness is the first kernel vector of the span's
    RowSpace, the reduced-echelon one.  A trivial kernel only certifies
    regularity up to the depth.  When deg s + depth passes the degree
    cap, building the span's basis raises DegreeOverflow.
    """
    p = s.presentation
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if s.is_zero():
        return RegularityResult(False, p.one())
    state, key = _search_state(p), s.key()
    for right in (False, True):
        sub = state.subspace(s, key, depth, right)
        kernel = sub.rowspace().kernel
        if kernel:
            return RegularityResult(False, p.normalize_raw(
                {w: c for w, c in zip(sub.basis, kernel[0]) if c}))
    return RegularityResult(True)


def check_denominator(s: SProduct):
    """Bounded regularity check for a denominator; raises on a witness.

    The check runs to REGULARITY_DEPTH, clamped so the product s * witness
    stays under the degree cap; a clamp to zero degenerates to checking
    s != 0, which is the honest bounded statement available at that
    degree.
    """
    p = s.presentation
    val = s.value
    if val.is_zero():
        raise IrregularDenominator("denominator is zero")
    room = p.degree_cap - val.degree()
    use = min(REGULARITY_DEPTH, room)
    res = is_regular_up_to(val, use)
    if not res.regular:
        raise IrregularDenominator(
            "denominator has a zero divisor at depth %d: %s"
            % (use, res.witness))


class Fraction:
    """A right fraction [a, s] with a in the algebra and s in S."""

    __slots__ = ("num", "den")

    def __init__(self, num: AlgebraElement, den: SProduct):
        _check_same(num.presentation, den.presentation)
        if not den.is_one():
            check_denominator(den)
        self.num = num
        self.den = den

    @property
    def presentation(self) -> Presentation:
        return self.num.presentation

    def __repr__(self):
        return "[%s | %s]" % (self.num, self.den)


def embed(a: AlgebraElement) -> Fraction:
    """The canonical map a -> [a, 1]."""
    return Fraction(a, SProduct.one(a.presentation))


@dataclass(frozen=True)
class OreWitness:
    """Witness (b, t), t in S, for one Ore condition on (a, s): a t = s b
    from ore_solve_right, t a = b s from ore_solve_left."""
    b: AlgebraElement
    t: SProduct


@dataclass(frozen=True)
class OreSolveResult:
    witness: object | None
    candidates_tried: int = 0

    @property
    def found(self) -> bool:
        return self.witness is not None


# -- the search state: bounded caches and the modular images -----------------

# A presentation's screen works modulo the first of these primes that
# divides no rule denominator, and it has none where each divides one (a,
# s and t are read up to a scalar: _SearchState.residues).  p = 1 mod 4
# gives i an image in F_p.  Residues are held as float64 in [0, p).  A
# product of two is below p**2 < 2**53, and a dot product of n of them is
# exact while n (p - 1)**2 < 2**53, for n <= 2,048 as p < 2**21
# (_SearchState.max_dot); _SearchState.matmul cuts longer ones into chunks
# of that many terms and reduces each chunk mod p (Dumas, Giorgi and
# Pernet, ACM TOMS 35(3), 2008).
_PRIMES = (2097133, 2097097, 2097041)

# Cache limits, sized so that a few hundred searches on one presentation
# at the default budget never fill them.  A full cache keeps what it has
# and takes nothing new: the entries it keeps are the first candidates of
# the scan, which every search reaches.
_VALUE_LIMIT = 4096      # values of denominators in S
_SUBSPACE_LIMIT = 512    # spans s * A_{<=bound} and A_{<=bound} * s
_LEFT_LIMIT = 256        # left multiplications by single words, mod p
_PARAM_LIMIT = 8         # candidate factor parameters per max_degree
_ARRAY_LIMIT = 2 ** 22   # residues in one dense matrix mod p, 32 MB

# Residues in the cached counts' stacks, 32 MB.  A count's cached prefix
# grows by whole chunks and stops at the first chunk that would pass the
# limit: every search that reaches the rest of the count builds it again,
# although a smaller later chunk may still fit.
_STACK_LIMIT = 2 ** 22

# The products of each factor count are screened in chunks of
# _FIRST_BLOCK candidates, then twice as many each time up to _LAST_BLOCK
# (see _ranges).
_FIRST_BLOCK = 8
_LAST_BLOCK = 1024


def _sqrt_minus_one(prime: int) -> int:
    """A square root of -1 mod a prime = 1 mod 4."""
    for g in range(2, prime):
        if pow(g, (prime - 1) // 2, prime) == prime - 1:
            return pow(g, (prime - 1) // 4, prime)
    raise ValueError("%d is not a prime = 1 mod 4" % prime)


def _mod(x, prime: int):
    """x mod prime for a float64 array of integers in
    [-(2**53 - prime), 2**53), exactly and several times faster than
    np.remainder: x / prime is correctly rounded, so its error is below
    1 / prime and its floor is the exact quotient q, and q * prime lies
    in the same range."""
    q = x / prime
    np.floor(q, out=q)
    q *= prime
    return np.subtract(x, q, out=q)


def _left_kernel_mod(m, prime: int):
    """Rank of the float64 matrix m of residues mod prime and a basis K
    (as rows) of its left kernel, K m = 0 mod prime, by row reduction of
    m transposed.  Every entry stays a residue and every product of two
    is below prime**2 < 2**53, so the float64 arithmetic is exact."""
    a = m.T.copy()
    nrows, ncols = a.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        i = r + nz[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = _mod(a[r] * pow(int(a[r, c]), -1, prime), prime)
        col = a[:, c].copy()
        col[r] = 0
        rows = np.flatnonzero(col)
        if rows.size:
            a[rows] = _mod(a[rows] - np.outer(col[rows], a[r]), prime)
        pivots.append(c)
    rank = len(pivots)
    free = np.setdiff1d(np.arange(ncols), pivots)
    kernel = np.zeros((len(free), ncols))
    kernel[np.arange(len(free)), free] = 1
    if rank:
        kernel[:, pivots] = _mod(-a[:rank, free].T, prime)
    return rank, kernel


class _SearchState:
    """The witness search's caches on one presentation, all bounded, and
    the reductions mod p that its screen uses; regularity reads its spans."""

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        dens = {c.d for rule in presentation.rules for c in rule.rhs.values()}
        self.prime = next((q for q in _PRIMES if all(d % q for d in dens)),
                          None)
        self.imag = self.prime and _sqrt_minus_one(self.prime)
        # the most terms of an exact float64 dot product of residues
        self.max_dot = (2 ** 53 - 1) // (max(_PRIMES) - 1) ** 2
        self.params = {}       # max_degree -> (parameters, key -> position)
        self.values = {}       # SProduct key -> value
        self.counts = {}       # (max_degree, count) or "1, s" key -> _Count
        self.stacked = 0       # residues in the cached counts' stacks
        self.left = {}         # word -> (degree, map mod p)
        self.subspaces = {}    # (s key, bound, right) -> _MulSubspace

    def factor_parameters(self, max_degree: int):
        """(parameters p of the factors 1 + p'p, key -> position): the
        irreducible monomials of degree 1..max_degree in deglex order, then
        their pairwise sums and differences, cut after MAX_CANDIDATES."""
        hit = self.params.get(max_degree)
        if hit is None:
            p = self.presentation
            words = [w for w in p.basis_words(max_degree) if w]
            mons = [AlgebraElement(p, {w: ONE}) for w in words]
            # the first MAX_CANDIDATES only: the scan stops before a later one
            sums = ((u + v, u - v) for u, v in itertools.combinations(mons, 2))
            ps = tuple(itertools.islice(
                itertools.chain(mons, itertools.chain.from_iterable(sums)),
                MAX_CANDIDATES))
            hit = _remember(self.params, max_degree,
                            (ps, {q.key(): i for i, q in enumerate(ps)}),
                            _PARAM_LIMIT)
        return hit

    def pair(self, s: SProduct):
        """The _Count of the candidates 1 and s."""
        key = ("1, s", s.key())
        hit = self.counts.get(key)
        if hit is None:
            values = (self.presentation.one(), s.value)
            hit = self._fill(key, _Count(), 2, [(None, [
                (i, f.degree(), i) for i, f in enumerate(values)])], values)
        return hit

    def count(self, max_degree: int, count: int, start: int, stop: int):
        """A _Count that holds the products of count factor parameters at
        positions start..stop-1 of their scan order: the cached prefix of
        the count, extended to stop when it ends at start and the stacks
        have room, or else one of that range alone."""
        key = (max_degree, count)
        cached = self.counts.get(key)
        if cached is None:
            cached = _Count()
        elif stop <= cached.stop:
            return cached
        if start != cached.stop:
            key, cached = None, _Count(start)
        return self._fill(key, cached, stop,
                          *self.candidates_at(max_degree, count, start, stop))

    def candidates_at(self, max_degree: int, count: int, start: int,
                      stop: int):
        """The runs that give the vectors mod p of the products t of count
        factor parameters at positions start..stop-1 of their scan order
        (see _fill), and the values of their last factors by parameter
        index.  The scan runs through every last factor of one head in a
        row, and each head is one run (u, [(i, degree, j)]): u the value
        of the product of the head's factors and j the index of the last
        factor f of the candidate at position i, so t = u * f and degree =
        deg u + deg f >= deg t; for one factor u is None and t = f.  A
        position is in no run exactly where t.value passes the degree cap:
        the left fold that builds t.value passes it at u, or at the
        product u * (1 + q'q) with the last parameter q, which f shows."""
        p = self.presentation
        ps = self.factor_parameters(max_degree)[0]
        n = len(ps)
        lasts, runs = {}, []
        for head in range(start // n, (stop - 1) // n + 1):
            u = None
            if count > 1:
                u = _value(SProduct(p, _combo(ps, head, count - 1)))
                if u is None:
                    continue
            items = []
            for i in range(max(start, head * n), min(stop, head * n + n)):
                j = i - head * n
                if j not in lasts:
                    lasts[j] = _value(SProduct(p, ps[j:j + 1]))
                if lasts[j] is None:
                    continue
                degree = lasts[j].degree()
                if u is not None:
                    degree += u.degree()
                if degree <= p.degree_cap:
                    items.append((i, degree, j))
            runs.append((u, items))
        return runs, lasts

    def _fill(self, key, count, stop, runs, lasts):
        """count extended to stop by the candidates of these runs (see
        candidates_at), cached under key while the stacks of all cached
        counts hold at most _STACK_LIMIT residues (a full stack of free_xy
        at max_degree 10 would hold 16,384 x 2,047); past it, or without a
        key, a new _Count of these candidates alone.
        No vector is built without a prime, for a degree whose basis
        passes the basis limit, or for one whose new rows would pass
        _ARRAY_LIMIT: a range holds at most _LAST_BLOCK new candidates, so
        that degree has more than 4,096 words, and M_a on them passes
        _ARRAY_LIMIT too.  The screen is off on such a degree, and its
        candidates are unscreened.  Each vector is written into its row:
        the residues of f for a run without head, and for the run of a
        head u one product M_u F mod p per degree of f, the columns of F
        the vectors of those f, each built once per call: the image of a
        multiple of t.value.  A row stays zero where M_u passes
        _ARRAY_LIMIT, and a zero vector passes every screen."""
        positions = {}         # degree -> the new positions
        for _, items in runs:
            for i, degree, _ in items:
                positions.setdefault(degree, []).append(i)
        widths = {}
        for degree, found in positions.items():
            try:
                width = self.dim(degree)
            except DegreeOverflow:
                continue
            if self.prime and width * len(found) <= _ARRAY_LIMIT:
                widths[degree] = width
        new = sum(w * len(positions[d]) for d, w in widths.items())
        if key is None or self.stacked + new > _STACK_LIMIT:
            count = _Count(count.stop)
        else:
            self.counts[key] = count
            self.stacked += new
        count.stop = stop
        count.unscreened += sorted(itertools.chain.from_iterable(
            found for d, found in positions.items() if d not in widths))
        rows = {}              # position -> (array, row)
        for degree, width in widths.items():
            array, first = count.reserve(degree, width, positions[degree])
            rows.update((i, (array, first + k))
                        for k, i in enumerate(positions[degree]))
        vectors = {}           # j -> the vector of lasts[j]
        for u, items in runs:
            items = [(i, j) for i, _, j in items if i in rows]
            if u is None:
                for i, j in items:
                    array, row = rows[i]
                    self._write(array[row], lasts[j])
                continue
            by_degree = {}     # deg f -> [(i, j)]
            for i, j in items:
                by_degree.setdefault(lasts[j].degree(), []).append((i, j))
            for f_deg, group in by_degree.items():
                m = self.left_matrix(u, f_deg)
                if m is None:
                    continue
                for _, j in group:
                    if j not in vectors:
                        vectors[j] = np.zeros(m.shape[1])
                        self._write(vectors[j], lasts[j])
                factors = np.array([vectors[j] for _, j in group])
                array = rows[group[0][0]][0]
                array[[rows[i][1] for i, _ in group]] = self.matmul(
                    m, factors.T).T
        return count

    def subspace(self, s_value: AlgebraElement, s_key, bound: int,
                 right: bool):
        """The _MulSubspace of the s*w, or of the w*s when right.  The
        search reads left maps, regularity both; every map is cached, and
        one past _ARRAY_LIMIT returns None from solve and annihilator."""
        key = (s_key, bound, right)
        sub = self.subspaces.get(key)
        if sub is None:
            sub = _remember(self.subspaces, key,
                            _MulSubspace(self, s_value, bound, right),
                            _SUBSPACE_LIMIT)
        return sub

    # -- reduction mod p --------------------------------------------------------

    def matmul(self, a, b):
        """a @ b mod p for float64 arrays of residues, exactly: the inner
        dimension is cut into chunks of at most max_dot terms, and each
        chunk's product is reduced mod p before it is added."""
        step, prime = self.max_dot, self.prime
        out = _mod(a[:, :step] @ b[:step], prime)
        for i in range(step, a.shape[1], step):
            out = _mod(out + _mod(a[:, i:i + step] @ b[i:i + step], prime),
                       prime)
        return out

    def dim(self, degree: int) -> int:
        return len(self.presentation.basis_words(degree))

    def residues(self, el: AlgebraElement):
        """(word, residue mod p) of each term of r el, r > 0 the rational
        that makes its coefficients coprime Gaussian integers: they all
        reduce, and r keeps whether a*t lies in s*A.  They may still all
        be zero, where the Gaussian prime over p that sends i to imag
        divides each: a zero t passes the screen, and a zero s gets none."""
        _, ((re, im),) = over_common_denominator([el.terms.values()])
        g, prime, imag = gcd(*re, *im), self.prime, self.imag
        return [(w, (x + imag * y) // g % prime)
                for w, x, y in zip(el.terms, re, im)]

    def _write(self, vec, value: AlgebraElement):
        """Write the residues of value into the zero vector vec over the
        basis words."""
        index = self.presentation.positions(value.degree())
        for w, v in self.residues(value):
            vec[index[w]] = v

    def left_word(self, u, degree: int):
        """Left multiplication by the word u mod p on the words of degree
        <= degree, as (rows, cols, values) in column order; every normal
        form reduces, as p divides no rule denominator."""
        hit = self.left.get(u)
        if hit is None or hit[0] < degree:
            hit = _remember(self.left, u, (degree, self._left_word(u, degree)),
                            _LEFT_LIMIT)
        built, triples = hit
        if built == degree:
            return triples
        k = np.searchsorted(triples[1], self.dim(degree))
        return tuple(arr[:k] for arr in triples)

    def _left_word(self, u, degree: int):
        p, prime, imag = self.presentation, self.prime, self.imag
        index = p.positions(len(u) + degree)
        rows, cols, vals = [], [], []
        for j, w in enumerate(p.basis_words(degree)):
            for w2, c in p.normal_form_word(u + w).items():
                rows.append(index[w2])
                cols.append(j)
                # (a + b i) / d mod p is (a + imag b) / d
                vals.append((c.a + imag * c.b) * pow(c.d, -1, prime) % prime)
        return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                np.array(vals, dtype=np.int64))

    def left_matrix(self, el: AlgebraElement, degree: int, known=None):
        """Dense float64 matrix mod p of left multiplication by the
        multiple of el that residues reads, from the words of degree <=
        degree to those of degree <= deg el + degree; None past
        _ARRAY_LIMIT.  Given known, the matrix for a lower degree, only
        the new columns are built: the basis words are deglex sorted, so
        known is the leading block."""
        shape = (self.dim(max(el.degree(), 0) + degree), self.dim(degree))
        if shape[0] * shape[1] > _ARRAY_LIMIT:
            return None
        out = np.zeros(shape)
        done = 0
        if known is not None:
            done = known.shape[1]
            out[:known.shape[0], :done] = known
        for u, cu in self.residues(el):
            rows, cols, vals = self.left_word(u, degree)
            if done:
                k = np.searchsorted(cols, done)
                rows, cols, vals = rows[k:], cols[k:], vals[k:]
            # the (row, col) pairs of one word's map are distinct
            out[rows, cols] = _mod(out[rows, cols] + cu * vals, self.prime)
        return out


def _search_state(presentation: Presentation) -> _SearchState:
    state = getattr(presentation, "_ore_search", None)
    if state is None:
        state = presentation._ore_search = _SearchState(presentation)
    return state


# -- candidate enumeration ---------------------------------------------------


def _value(t: SProduct):
    """t.value, or None where it passes the degree cap."""
    try:
        return t.value
    except DegreeOverflow:
        return None


def _combo(ps, i: int, count: int):
    """The factor parameters of the product at position i of the scan of
    count factors, the i-th element of itertools.product(ps, repeat=count):
    the base-n digits of i, n = len(ps), most significant first."""
    combo = []
    for _ in range(count):
        i, k = divmod(i, len(ps))
        combo.append(ps[k])
    return tuple(reversed(combo))


class _Count:
    """Candidates of one factor count, or the pair 1 and s, at positions
    start..stop-1 of their scan order: one stack of vectors mod p per
    degree with the ascending positions of its rows, and the positions
    left unscreened (see _SearchState._fill).  A position where t.value
    passes the degree cap is in neither.  A cached count starts at 0 and
    grows as the scan reaches further; one that the stack limit leaves
    uncached holds one range and is built again when a search reaches it.
    A stack is held transposed, one vector per row of a float64 array,
    and grows by exactly the rows it adds."""

    __slots__ = ("start", "stop", "stacks", "unscreened")

    def __init__(self, start: int = 0):
        self.start = self.stop = start
        self.stacks = {}       # degree -> (array, positions of its rows)
        self.unscreened = []

    def reserve(self, degree: int, width: int, found):
        """The stack of this degree with zero rows added for the vectors
        at the positions found, and the first of those rows."""
        array, positions = self.stacks.get(degree, (None, []))
        grown = np.zeros((len(positions) + len(found), width))
        if array is not None:
            grown[:len(array)] = array
        self.stacks[degree] = grown, positions + found
        return grown, len(positions)


def _ranges(state: _SearchState, s: SProduct, budget: OreBudget):
    """The candidates in scan order, as ranges (count, start, stop, skip,
    t_at) of a _Count: 1 and s, then the products of one to max_factors
    parameters, as far as the scan can reach; t_at maps a position of the
    range to its candidate t.  A range takes
    min(start + _FIRST_BLOCK, _LAST_BLOCK) candidates, so the chunks of
    a count double from _FIRST_BLOCK up to _LAST_BLOCK: a search that
    succeeds early screens few candidates it never reaches, and a long
    one takes few ranges.  From a count's second chunk on, a range runs
    at least to the end of the count's cached prefix, which is screened
    in one product per degree.  skip is the position of the product
    equal to s, or stop where it is not in the range; s's combo c is at
    position sum(c_k n**k), its last factor k = 0, the inverse of _combo.
    It tries at most MAX_CANDIDATES candidates, 1 and s among them, and
    skips the product equal to s (the parameters are distinct, so no
    other product repeats), so it reaches at most MAX_CANDIDATES - 1
    products."""
    p = state.presentation
    yield state.pair(s), 0, 2, 2, (SProduct.one(p), s).__getitem__
    ps, position = state.factor_parameters(budget.max_degree)
    n = len(ps)
    s_combo = [position.get(k) for k in s.key()]
    left = MAX_CANDIDATES - 1
    for count in range(1, budget.max_factors + 1):
        if not n or left <= 0:
            return
        at = total = n ** count
        if len(s_combo) == count and None not in s_combo:
            at = sum(c * n ** k for k, c in enumerate(reversed(s_combo)))
        cached = state.counts.get((budget.max_degree, count))
        start = 0
        while start < total and left > 0:
            stop = start + min(start + _FIRST_BLOCK, _LAST_BLOCK)
            if start and cached is not None:
                stop = max(stop, cached.stop)
            stop = min(stop, total, start + left)
            yield (state.count(budget.max_degree, count, start, stop),
                   start, stop, at if start <= at < stop else stop,
                   lambda i, count=count: SProduct(p, _combo(ps, i, count)))
            left -= stop - start
            start = stop


# -- the spans s * A and A * s of bounded degree ----------------------------


class _MulSubspace:
    """The span of { s * w : w irreducible word, deg w <= bound } inside
    the words of degree <= bound + deg s, or of the w * s when right.

    The columns of M are the vectors s * w (w * s); the kernel of their
    lazily built RowSpace decides regularity.  On a left map, solve()
    decides membership exactly with it, and annihilator() gives the
    modular screen a basis K of the left kernel of M mod p; K kills the
    image mod p of every member of the span.  Both return None where M,
    its transpose or K could pass _ARRAY_LIMIT: each holds up to
    ntarget**2 residues.  Why a rejection is safe:

    - Reduction mod p is a ring map onto F_p from the Gaussian
      rationals whose denominators p does not divide, as it divides no
      rule's, so every normal form reduces.  a, s and the factors of t
      are read through residues, as nonzero multiples whose coefficients
      reduce, which keeps membership (M is that of the multiple of s).
      a*t mod p is then computed as the matrix of left multiplication by
      a mod p applied to t mod p, the image of a multiple of a*t; t mod p
      of a product u*f is likewise M_u mod p applied to f mod p.
    - The rank of M mod p is at most the exact rank, since a minor that
      is nonzero mod p is nonzero.  K is built only when the rank mod p
      is the number of columns; then the exact rank is the same, and no
      exact work is needed.  Otherwise this subspace gets no screen:
      s has a zero divisor at this bound, which Fraction refuses, or p
      divides every maximal minor of M, as where s mod p is zero.
    - With equal ranks k, some k x k minor of M is a unit mod p, so its k
      columns span the column space of M, and by Cramer's rule a member
      r with reducible coefficients is a combination of them whose
      coefficients reduce too.  So r mod p lies in the span of M mod p,
      and K (r mod p) = 0.
    - The screen asks about the bound B = deg a + D - deg s (at least 0,
      at most the room under the degree cap), where D >= deg t
      is the degree the candidate carries; B is never below the bound of
      the exact check, and the span grows with the bound, so a member
      for the exact bound is a member for B.
    - Every product mod p is exact in float64: residues lie in [0, p),
      and a dot product is cut into chunks of at most 2,048 terms, each
      reduced mod p, since 2,048 (p - 1)**2 < 2**53 (see _PRIMES; Dumas,
      Giorgi and Pernet, ACM TOMS 35(3), 2008).

    This is the modular method of von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 5, used as a filter: the exact check still
    decides every candidate that passes.
    """

    def __init__(self, state: _SearchState, s_value: AlgebraElement,
                 bound: int, right: bool):
        self.state = state
        self.s_value = s_value
        self.bound = bound
        self.right = right
        p = state.presentation
        self.basis = p.basis_words(bound)
        self.ntarget = state.dim(bound + max(s_value.degree(), 0))
        self.small = self.ntarget ** 2 <= _ARRAY_LIMIT
        self._rowspace = None
        self._annihilator = None
        self._screened = not self.small or state.prime is None  # no screen

    def _vector(self, el: AlgebraElement):
        """The coordinates of el, of degree at most bound + deg s, on the
        target words.  Rewriting never raises the degree, and the basis
        words are deglex sorted, so each word of el has an index below
        ntarget."""
        index = self.state.presentation.positions(
            self.bound + max(self.s_value.degree(), 0))
        vec = [Scalar(0)] * self.ntarget
        for w, c in el.terms.items():
            vec[index[w]] = c
        return vec

    def rowspace(self) -> RowSpace:
        """The RowSpace of the vectors s * w (w * s), exact, added in the
        order of the words; its kernel holds one vector per dependent
        word."""
        if self._rowspace is None:
            p = self.state.presentation
            self._rowspace = RowSpace(self.ntarget)
            for w in self.basis:
                word = AlgebraElement(p, {w: ONE})
                self._rowspace.add(self._vector(
                    word * self.s_value if self.right
                    else self.s_value * word))
        return self._rowspace

    def annihilator(self):
        """K as a float64 array of residues, or None when the screen is
        off here."""
        if not self._screened:
            self._screened = True
            m = self.state.left_matrix(self.s_value, self.bound)
            if m is not None:
                rank, kernel = _left_kernel_mod(m, self.state.prime)
                if rank == len(self.basis):
                    self._annihilator = kernel
        return self._annihilator

    def solve(self, el: AlgebraElement) -> AlgebraElement | None:
        """Exact b with s*b = el and deg b <= bound, or None; el has
        degree at most bound + deg s."""
        if not self.small:
            return None
        coeffs = self.rowspace().represent(self._vector(el))
        if coeffs is None:
            return None
        raw = {w: c for w, c in zip(self.basis, coeffs) if c}
        return self.state.presentation.normalize_raw(raw)


class _Screen:
    """The modular screen of one query a t = s b.  survivors() leaves
    out only a candidate t with a*t mod p outside s*A mod p, so a*t is
    not in s*A.  One matrix M_a serves the whole query: a candidate of a
    higher degree extends it by the new columns (see _reach for how far
    the first build goes)."""

    def __init__(self, state: _SearchState, a: AlgebraElement,
                 s_value: AlgebraElement, s_key):
        self.state = state
        self.a = a
        self.s_value = s_value
        self.s_key = s_key
        self.a_deg = a.degree()
        self.s_deg = s_value.degree()
        self.cap = state.presentation.degree_cap
        self.precomposed = {}  # degree -> K M_a mod p, or None
        self.matrix = None     # left multiplication by a mod p, built lazily
        self.degree = -1       # the matrix covers t of degree <= this
        self.off = False       # M_a is past _ARRAY_LIMIT

    def survivors(self, count: _Count, start: int, stop: int):
        """The positions start..stop-1 of the count, in scan order, of
        the candidates under the degree cap that pass: one product
        (K M_a) T mod p screens the vectors T of one degree in the
        range, consecutive rows of its stack."""
        passing = count.unscreened[bisect.bisect_left(count.unscreened, start):
                                   bisect.bisect_left(count.unscreened, stop)]
        for t_deg, (array, positions) in count.stacks.items():
            lo = bisect.bisect_left(positions, start)
            hi = bisect.bisect_left(positions, stop, lo)
            if lo == hi:
                continue
            if t_deg not in self.precomposed:
                self.precomposed[t_deg] = self._precompose(t_deg)
            q = self.precomposed[t_deg]
            found = positions[lo:hi]
            if q is not None:
                found = itertools.compress(found, (~self.state.matmul(
                    q, array[lo:hi].T).any(axis=0)).tolist())
            passing += found
        return sorted(passing)

    def _precompose(self, t_deg: int):
        """K M_a mod p for candidates t of degree at most t_deg, K the
        annihilator of s * A at the bound for a*t; None where the screen
        is off, and all of them pass.  It is None too where a basis it
        needs passes the basis limit (DegreeOverflow): the exact check
        then decides each such candidate, as it would without a screen,
        or skips it where its own span passes the limit."""
        if self.off or self.a_deg + t_deg > self.cap:
            return None
        state = self.state
        bound = min(max(self.a_deg + t_deg - self.s_deg, 0),
                    self.cap - self.s_deg)
        try:
            kernel = state.subspace(self.s_value, self.s_key, bound,
                                    False).annihilator()
            if kernel is not None and t_deg > self.degree:
                # the first build covers s too, the scan's second
                # candidate, and goes as far as the cached word maps
                degree = max(t_deg, min(self.s_deg, self.cap - self.a_deg),
                             self._reach())
                self.matrix = state.left_matrix(self.a, degree, self.matrix)
                self.degree = degree
                self.off = self.matrix is None
        except DegreeOverflow:
            return None
        if kernel is None or self.off:
            return None
        # no larger than the span's target basis, so neither passes the limit
        nrows, ncols = state.dim(self.a_deg + t_deg), state.dim(t_deg)
        return state.matmul(kernel[:, :nrows], self.matrix[:nrows, :ncols])

    def _reach(self) -> int:
        """The highest degree on which the word maps of every word of a
        are cached, within the degree cap and with M_a within
        _ARRAY_LIMIT, or -1: M_a built that far costs no normal form,
        and a query after a search that went as far builds it once."""
        state = self.state
        reach = min(min(state.left[u][0] if u in state.left else -1
                        for u in self.a.terms), self.cap - self.a_deg)
        if reach < 0 or state.dim(self.a_deg + reach) * state.dim(
                reach) > _ARRAY_LIMIT:
            return -1
        return reach


def _verify(lhs: AlgebraElement, rhs: AlgebraElement, what: str):
    """The exact re-check of a witness before it is returned."""
    if lhs.terms != rhs.terms:
        raise WitnessCheckError("%s fails its exact re-check" % what)


# -- the solver ----------------------------------------------------------------


def ore_solve_right(a: AlgebraElement, s: SProduct,
                    budget: OreBudget = DEFAULT_BUDGET) -> OreSolveResult:
    """Search for (b, t) with a t = s b, t in S, within the budget.

    The search is deterministic; a Found result is re-verified exactly
    before it is returned.  NotFound only ever means "not within this
    budget"; so does a scan stopped after MAX_CANDIDATES candidates.
    """
    p = a.presentation
    _check_same(p, s.presentation)
    if a.is_zero():
        return OreSolveResult(OreWitness(p.zero(), SProduct.one(p)))
    if s.is_one():
        return OreSolveResult(OreWitness(a, SProduct.one(p)))
    s_value = s.value
    if p.commutative:
        # a s = s a exactly, so (b, t) = (a, s) is always a witness
        _verify(a * s_value, s_value * a, "commutative Ore witness")
        return OreSolveResult(OreWitness(a, s))

    state = _search_state(p)
    s_key = s_value.key()
    s_deg = s_value.degree()
    screen = _Screen(state, a, s_value, s_key)
    tried = 0
    for count, start, stop, skip, t_at in _ranges(state, s, budget):
        # the walk visits the candidates that pass, numbered by their
        # place in the scan; the product equal to s is skipped and not
        # counted
        for i in screen.survivors(count, start, stop):
            if i == skip:
                continue
            number = tried + i - start + (i < skip)
            if number > MAX_CANDIDATES:
                return OreSolveResult(None, MAX_CANDIDATES)
            t = t_at(i)
            # a product past the cap or a span past the basis limit skips t
            try:
                r = a * t.value
                b = state.subspace(s_value, s_key, max(r.degree() - s_deg, 0),
                                   False).solve(r)
            except DegreeOverflow:
                continue
            if b is None:
                continue
            _verify(r, s_value * b, "right Ore witness")
            return OreSolveResult(OreWitness(b, t), number)
        tried += stop - start - (skip < stop)
    return OreSolveResult(None, min(tried, MAX_CANDIDATES))


def ore_solve_left(a: AlgebraElement, s: SProduct,
                   budget: OreBudget = DEFAULT_BUDGET) -> OreSolveResult:
    """Search for (b, t) with t a = b s, t in S, within the budget.

    Reduces to the right problem through the dagger: a' t' = s' b'
    daggers to t'' a = b'' s with t'' in S because S is dagger closed.
    """
    res = ore_solve_right(a.dagger(), s.dagger(), budget)
    if not res.found:
        return OreSolveResult(None, res.candidates_tried)
    w = res.witness
    left = OreWitness(w.b.dagger(), w.t.dagger())
    _verify(left.t.value * a, left.b * s.value, "left Ore witness")
    return OreSolveResult(left, res.candidates_tried)


# -- fraction arithmetic ---------------------------------------------------------


def _require_witness(res: OreSolveResult, what: str) -> object:
    if not res.found:
        raise OreWitnessNotFound(
            "%s: no witness within budget (%d candidates tried)"
            % (what, res.candidates_tried))
    return res.witness


def frac_add(lam, f: Fraction, g: Fraction,
             budget: OreBudget = DEFAULT_BUDGET) -> Fraction:
    """lam*f + g via a common denominator: with s1 t = s2 b the sum is
    [lam*a1*t + a2*b, s1*t]."""
    if not isinstance(lam, Scalar):
        lam = Scalar(lam)
    w = _require_witness(
        ore_solve_right(f.den.value, g.den, budget), "fraction addition")
    num = f.num.scale(lam) * w.t.value + g.num * w.b
    den = f.den * w.t
    return Fraction(num, den)


def frac_mul(f: Fraction, g: Fraction,
             budget: OreBudget = DEFAULT_BUDGET) -> Fraction:
    """f * g: with a2 t = s1 b the product is [a1*b, s2*t]."""
    w = _require_witness(
        ore_solve_right(g.num, f.den, budget), "fraction multiplication")
    return Fraction(f.num * w.b, g.den * w.t)


def frac_dagger(f: Fraction, budget: OreBudget = DEFAULT_BUDGET) -> Fraction:
    """The involution [a, s] -> [1, s'] * [a', 1] = [b, t] where a' t = s' b."""
    if f.den.is_one():
        return Fraction(f.num.dagger(), f.den)
    w = _require_witness(
        ore_solve_right(f.num.dagger(), f.den.dagger(), budget),
        "fraction dagger")
    return Fraction(w.b, w.t)


@dataclass(frozen=True)
class EqResult:
    """Outcome of a fraction comparison.

    equal    the verdict (meaningful when decided)
    decided  True when a common-denominator witness or commutative
             cross-multiplication settled the question exactly under the
             standing assumptions; False when the budget ran out
    u, v     certificate: num_f*u = num_g*v and den_f*u = den_g*v in S
    """
    equal: bool
    decided: bool
    u: AlgebraElement | None = None
    v: AlgebraElement | None = None

    def __bool__(self):
        return self.equal and self.decided


def eq_fraction(f: Fraction, g: Fraction,
                budget: OreBudget = DEFAULT_BUDGET) -> EqResult:
    """Decide [a,s] = [b,t] via a common denominator.

    With s w = t c in S, equality holds iff a w = b c; in commutative
    presentations this reduces to cross multiplication.  When no common
    denominator witness is found within budget the result is undecided
    and reported as not-equal-up-to-budget.
    """
    _check_same(f.presentation, g.presentation)
    p = f.presentation
    a, s = f.num, f.den
    b, t = g.num, g.den
    if p.commutative:
        equal = (a * t.value).terms == (b * s.value).terms
        return EqResult(equal, True, t.value, s.value)
    if s.key() == t.key():
        # same syntactic denominator: compare numerators directly
        return EqResult(a.terms == b.terms, True, p.one(), p.one())
    res = ore_solve_right(s.value, t, budget)
    if not res.found:
        return EqResult(False, False)
    c, w = res.witness.b, res.witness.t
    try:
        left = a * w.value
        right = b * c
    except DegreeOverflow:
        return EqResult(False, False)
    return EqResult(left.terms == right.terms, True, w.value, c)


def remark_mult_property_check(a: AlgebraElement, s: SProduct, u: SProduct,
                               budget: OreBudget = DEFAULT_BUDGET) -> EqResult:
    """Check [1, u*s] * [u*a, 1] = [1, s] * [a, 1]; the result is that of
    the comparison, undecided when a product finds no witness.

    The left-side denominator u*s is certified in S by concatenating the
    factor lists, which is why u is taken from S here.
    """
    p = a.presentation
    us = u * s
    try:
        lhs = frac_mul(Fraction(p.one(), us), embed(u.value * a), budget)
        rhs = frac_mul(Fraction(p.one(), s), embed(a), budget)
    except OreWitnessNotFound:
        return EqResult(False, False)
    return eq_fraction(lhs, rhs, budget)
