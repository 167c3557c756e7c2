"""Independent reference implementations used by the tests.

Everything here recomputes expected values through a different algorithm
than the package: rewriting by rightmost-redex worklist instead of
memoized leftmost recursion, commutative fractions as explicit rational
functions, dense numpy linear algebra instead of banded solvers, and
kernels, row spaces and a hermitian reduction in Gaussian-rational
Scalars (the reduction carrying its whole transform) instead of
fraction-free elimination over Z[i], and expressions evaluated one
element per AST node, multiplied left to right, instead of with
constants and generator runs folded, Gaussian rationals as a pair of an
int or Fraction per part instead of one Gaussian integer over one
denominator, critical pairs checked by one loop for overlaps and one for
inclusions instead of one check per ambiguous word, and a band shifted
term by term instead of as a product with the constant 1.  Tests freeze
or compare against these, never against the code under test.
"""

import heapq
import itertools
from fractions import Fraction as Rational

import numpy as np
import scipy.sparse

from ores.errors import ExpressionError, PresentationError
from ores.exprparse import Dagger, Neg, Paren, Prod, ScalarLit, Sum, Sym
from ores.formulas import CPoly, Formula, normalize_radicand
from ores.linalg import PsdReport
from ores.scalars import Scalar

ZERO = Scalar(0)
ONE = Scalar(1)


# -- naive rewriting ---------------------------------------------------------------


def _find_redex(p, w):
    """Rightmost rule match inside w; returns (position, rule) or None."""
    best = None
    for rule in p.rules:
        L = len(rule.lhs)
        for i in range(len(w) - L, -1, -1):
            if w[i:i + L] == rule.lhs:
                if best is None or i > best[0]:
                    best = (i, rule)
                break
    return best


def naive_normal_form(p, terms: dict) -> dict:
    """Normalize a raw word->coef dict by worklist rewriting.

    A rewrite only makes words smaller in the deglex order, so taking the
    largest pending word first, with equal words merged, rewrites each
    word once, with all its coefficient."""
    out = {}
    work = {}
    heap = []

    def push(w, c):
        if w in work:
            work[w] = work[w] + c
        else:
            work[w] = c
            heapq.heappush(heap, (-len(w), tuple(-g for g in w), w))

    for w, c in terms.items():
        push(tuple(w), c)
    while heap:
        w = heapq.heappop(heap)[2]
        c = work.pop(w)
        if not c:
            continue
        red = _find_redex(p, w)
        if red is None:
            out[w] = c
        else:
            i, rule = red
            L = len(rule.lhs)
            for w2, c2 in rule.rhs.items():
                push(w[:i] + w2 + w[i + L:], c * c2)
    return out


def naive_mul_terms(a_terms: dict, b_terms: dict) -> dict:
    out = {}
    for wa, ca in a_terms.items():
        for wb, cb in b_terms.items():
            w = tuple(wa) + tuple(wb)
            c = ca * cb
            acc = out.get(w, ZERO) + c
            if acc:
                out[w] = acc
            else:
                out.pop(w, None)
    return out


def naive_product_normal_form(p, elements) -> dict:
    """Normal form of a product of elements, computed naively."""
    terms = {(): Scalar(1)}
    for el in elements:
        terms = naive_mul_terms(terms, el.terms)
    return naive_normal_form(p, terms)


def same_terms(terms: dict, el) -> bool:
    return {tuple(w): c for w, c in terms.items() if c} == dict(el.terms)


def witness_identity_holds(a, s, b, t) -> bool:
    """Re-verify a*t == s*b by naive expansion (right Ore identity)."""
    p = a.presentation
    lhs = naive_product_normal_form(p, (a, t.value))
    rhs = naive_product_normal_form(p, (s.value, b))
    return lhs == rhs


def left_witness_identity_holds(a, s, b, t) -> bool:
    """Re-verify t*a == b*s by naive expansion (left Ore identity)."""
    p = a.presentation
    lhs = naive_product_normal_form(p, (t.value, a))
    rhs = naive_product_normal_form(p, (b, s.value))
    return lhs == rhs


# -- commutative rational functions ------------------------------------------------------


class XPoly:
    """One-variable polynomial over the Gaussian rationals, as a degree
    map; the oracle for the single-generator commutative preset."""

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {d: c for d, c in (coeffs or {}).items() if c}

    @classmethod
    def from_element(cls, el) -> "XPoly":
        out = {}
        for w, c in el.terms.items():
            out[len(w)] = out.get(len(w), ZERO) + c
        return cls(out)

    def __add__(self, o):
        out = dict(self.coeffs)
        for d, c in o.coeffs.items():
            out[d] = out.get(d, ZERO) + c
        return XPoly(out)

    def __mul__(self, o):
        out = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in o.coeffs.items():
                out[d1 + d2] = out.get(d1 + d2, ZERO) + c1 * c2
        return XPoly(out)

    def conj(self):
        return XPoly({d: c.conjugate() for d, c in self.coeffs.items()})

    def __eq__(self, o):
        return self.coeffs == o.coeffs

    def __hash__(self):
        raise TypeError("unhashable")


X_ONE = XPoly({0: Scalar(1)})


def fraction_as_rational_function(f):
    """(numerator, denominator) of a fraction over the x preset."""
    num = XPoly.from_element(f.num)
    den = X_ONE
    for p_el in f.den.ps:
        q = XPoly.from_element(p_el)
        den = den * (X_ONE + q.conj() * q)
    return num, den


def rational_function_dagger_equal(f, g) -> bool:
    """Does conj(f) equal g as a rational function?  Denominators of
    S-fractions are conjugation invariant, so only numerators flip."""
    nf, df = fraction_as_rational_function(f)
    ng, dg = fraction_as_rational_function(g)
    return nf.conj() * dg == ng * df


# -- critical pairs and band shifts, one loop per case ------------------------------------


def reference_check_confluence(p):
    """Check every critical pair of p's rules up to its degree cap, the
    proper overlaps (a suffix of l1 is a prefix of l2) in one loop and
    the inclusions (l2 inside l1) in another, for each ordered pair of
    rules; raise the PresentationError of the first that does not
    resolve."""
    cap = p.degree_cap
    for r1, r2 in itertools.product(p.rules, repeat=2):
        l1, l2 = r1.lhs, r2.lhs
        for k in range(1, min(len(l1), len(l2))):
            if l1[-k:] != l2[:k]:
                continue
            sup = l1 + l2[k:]
            if len(sup) > cap:
                continue
            left = p.normalize_raw({w + l2[k:]: c for w, c in r1.rhs.items()})
            right = p.normalize_raw(
                {l1[:-k] + w: c for w, c in r2.rhs.items()})
            if left.terms != right.terms:
                raise PresentationError(
                    "critical pair %s does not resolve" % p.word_str(sup))
        if len(l2) <= len(l1):
            for pos in range(len(l1) - len(l2) + 1):
                if r1 is r2 and pos == 0 and len(l1) == len(l2):
                    continue
                if l1[pos:pos + len(l2)] != l2:
                    continue
                left = p.normalize_raw(dict(r1.rhs))
                right = p.normalize_raw(
                    {l1[:pos] + w + l1[pos + len(l2):]: c
                     for w, c in r2.rhs.items()})
                if left.terms != right.terms:
                    raise PresentationError(
                        "embedded critical pair in %s does not resolve"
                        % p.word_str(l1))


def reference_formula_shift(f, k: int):
    """f(n + k), term by term: each radicand shifted and split again into
    a square and a radicand, the square's root multiplied into the
    shifted amplitude."""
    if not k:
        return f
    out = Formula()
    for rad, amp in f.terms.items():
        amp2, rad2 = normalize_radicand(rad.shift(k))
        term = Formula({rad2: amp.shift(k) * CPoly.from_qpoly(amp2)}
                       if not rad2.is_zero() else {})
        out = out + term
    return out


# -- dense operator oracles ----------------------------------------------------------------


def dense_matrix(op, N: int) -> np.ndarray:
    """Entrywise dense truncation: entry (i, j) is band j - i at row i,
    asked for within the bandwidth only (the others are zero)."""
    M = np.zeros((N, N), dtype=complex)
    w = op.bandwidth
    for i in range(N):
        for j in range(max(0, i - w), min(N, i + w + 1)):
            f = op.bands.get(j - i)
            if f is not None:
                M[i, j] = f.eval(i)
    return M


def dense_apply(op, xi, N: int) -> np.ndarray:
    v = np.zeros(N, dtype=complex)
    v[:len(xi)] = xi
    return dense_matrix(op, N) @ v


def dense_one_plus_AstarA_solve(A, y, N: int) -> np.ndarray:
    Ad = scipy.sparse.csr_matrix(dense_matrix(A, N))
    M = np.eye(N, dtype=complex) + (Ad.conj().T @ Ad).toarray()
    rhs = np.zeros(N, dtype=complex)
    rhs[:len(y)] = y
    return np.linalg.solve(M, rhs)


def dense_annihilation(N: int) -> np.ndarray:
    M = np.zeros((N, N), dtype=complex)
    for n in range(N - 1):
        M[n, n + 1] = np.sqrt(n + 1.0)
    return M


def dense_creation(N: int) -> np.ndarray:
    return dense_annihilation(N).conj().T


# -- classical moment data ---------------------------------------------------------------


def double_factorial(k: int) -> int:
    if k <= 0:
        return 1
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def gaussian_moment(k: int) -> int:
    return 0 if k % 2 else double_factorial(k - 1)


def hermite_jacobi(d: int) -> np.ndarray:
    """The d x d Jacobi matrix of the unit Gaussian: zero diagonal,
    off-diagonals sqrt(1..d-1) from the Hermite three-term recurrence."""
    J = np.zeros((d, d))
    for k in range(d - 1):
        J[k, k + 1] = J[k + 1, k] = np.sqrt(k + 1.0)
    return J


# -- exact dense linear algebra (fractions) ----------------------------------------------


def exact_rank(rows) -> int:
    """Row rank of a matrix of Scalars by fraction Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    col = 0
    while rank < len(m) and col < ncols:
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] / inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def reference_nullspace(rows):
    """Reduced-echelon kernel basis by Gauss-Jordan elimination in
    Scalars: one vector per free column j, e_j minus column j of the
    reduced row echelon form on the pivot columns."""
    if not rows:
        return []
    m = [list(r) for r in rows]
    ncols = len(m[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = ONE / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -m[r][free]
        basis.append(vec)
    return basis


class ReferenceRowSpace:
    """Incremental row space in Scalars with combination tracking: each
    generator is reduced against normalized echelon rows (pivot 1), and
    each row carries its combination of the generators as Scalars.
    represent(v) returns coefficients over the added generators whenever
    v lies in their span, else None."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = []        # echelon rows
        self.pivot_cols = []
        self.combos = []      # combos[k][j]: row k as combination of gen j
        self.ngens = 0

    def _reduce(self, vec):
        vec = list(vec)
        combo = [ZERO] * len(self.rows)
        for k, (row, pc) in enumerate(zip(self.rows, self.pivot_cols)):
            f = vec[pc]
            if f:
                vec = [a - f * b for a, b in zip(vec, row)]
                combo[k] = f
        return vec, combo

    def add(self, vec) -> bool:
        """Add a generator; returns True if it enlarged the span."""
        red, combo = self._reduce(vec)
        gen_combo = [ZERO] * (self.ngens + 1)
        gen_combo[self.ngens] = ONE
        for k, f in enumerate(combo):
            if f:
                for j, v in enumerate(self.combos[k]):
                    if v:
                        gen_combo[j] = gen_combo[j] - f * v
        self.ngens += 1
        for c in range(self.ncols):
            if red[c]:
                inv = ONE / red[c]
                self.rows.append([v * inv for v in red])
                self.pivot_cols.append(c)
                self.combos.append([v * inv for v in gen_combo])
                return True
        return False

    def represent(self, vec):
        """Coefficients (length ngens) with sum(c_j gen_j) = vec, or None."""
        red, combo = self._reduce(vec)
        if any(red):
            return None
        out = [ZERO] * self.ngens
        for k, f in enumerate(combo):
            if f:
                for j, v in enumerate(self.combos[k]):
                    if v:
                        out[j] = out[j] + f * v
        return out


def random_scalar_matrix(rng, rows: int, cols: int, span: int = 3):
    return [[Scalar(Rational(rng.randint(-span, span)),
                    Rational(rng.randint(-span, span)))
             for _ in range(cols)] for _ in range(rows)]


def reference_hermitian_reduce(G, grades=None) -> PsdReport:
    """The graded pivoted reduction in Scalars, carrying the dense
    transform U (work = U* G U) through every step.

    Same pivot rule as ``linalg.graded_hermitian_reduce``: stage by
    stage, the largest positive diagonal among open indices of grade at
    most the stage, first index on ties; a negative diagonal, or a zero
    diagonal with a nonzero open row, ends it with a witness.
    """
    n = len(G)
    if grades is None:
        grades = [0] * n
    work = [[G[i][j] for j in range(n)] for i in range(n)]
    U = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    state = ["open"] * n
    pivots = []

    def eliminate(p):
        d = work[p][p]
        for j in range(n):
            if j == p or state[j] != "open":
                continue
            f = work[p][j] / d
            if not f:
                continue
            for i in range(n):
                U[i][j] = U[i][j] - f * U[i][p]
            fc = f.conjugate()
            for i in range(n):
                work[i][j] = work[i][j] - f * work[i][p]
            for i in range(n):
                work[j][i] = work[j][i] - fc * work[p][i]

    max_grade = max(grades) if n else 0
    for stage in range(max_grade + 1):
        while True:
            best = None
            for i in range(n):
                if state[i] != "open" or grades[i] > stage:
                    continue
                d = work[i][i]
                if d.im:
                    raise ValueError("matrix is not hermitian")
                if d.re < 0:
                    return PsdReport(False, pivots, [],
                                     [row[i] for row in U], i)
                if d.re > 0 and (best is None or d.re > work[best][best].re):
                    best = i
            if best is None:
                break
            pivots.append(best)
            eliminate(best)
            state[best] = "pivot"
        for i in range(n):
            if state[i] != "open" or grades[i] > stage:
                continue
            bad = None
            for j in range(n):
                if state[j] == "open" and j != i and work[i][j]:
                    bad = j
                    break
            if bad is not None:
                z = work[i][bad]
                witness = [U[r][i] - z.conjugate() * U[r][bad]
                           for r in range(n)]
                return PsdReport(False, pivots, [],
                                 witness, i)
            state[i] = "null"
    kernel = [[U[r][i] for r in range(n)]
              for i in range(n) if state[i] == "null"]
    return PsdReport(True, pivots, kernel, None, None)


def hermitian_quadratic_form(G, x):
    """x* G x as an exact Scalar."""
    n = len(G)
    total = ZERO
    for i in range(n):
        if not x[i]:
            continue
        acc = ZERO
        for j in range(n):
            if x[j]:
                acc = acc + G[i][j] * x[j]
        total = total + x[i].conjugate() * acc
    return total


# -- expressions ----------------------------------------------------------------------


def reference_ast_to_element(node, p):
    """An AST evaluated one element per node, a product left to right from
    the element 1, each step through AlgebraElement.__mul__."""
    if isinstance(node, ScalarLit):
        return p.scalar(node.value)
    if isinstance(node, Sym):
        if node.name not in p.generators:
            raise ExpressionError(
                "unknown symbol %r (generators: %s)"
                % (node.name, ", ".join(p.generators)))
        return p.generator(node.name)
    if isinstance(node, Dagger):
        return reference_ast_to_element(node.child, p).dagger()
    if isinstance(node, Paren):
        return reference_ast_to_element(node.child, p)
    if isinstance(node, Neg):
        return -reference_ast_to_element(node.child, p)
    if isinstance(node, Sum):
        acc = p.zero()
        for t in node.terms:
            acc = acc + reference_ast_to_element(t, p)
        return acc
    if isinstance(node, Prod):
        acc = p.one()
        for f in node.factors:
            acc = acc * reference_ast_to_element(f, p)
        return acc
    raise TypeError("not an AST node: %r" % (node,))


def reference_match_one_plus_dagger_product(node, p):
    """The parameter p of a denominator factor 1 + q*p with q the dagger
    of p, tried at every cut of the product in turn, each side evaluated
    element by element from scratch."""
    def strip(node):
        while isinstance(node, Paren):
            node = node.child
        return node

    node = strip(node)
    shape = ("a denominator factor must have the shape 1 + q*p with "
             "q the dagger of p")
    if not isinstance(node, Sum) or len(node.terms) != 2:
        raise ExpressionError(shape)
    first, second = node.terms
    if isinstance(first, Neg) or isinstance(second, Neg):
        raise ExpressionError(shape)
    for one_part, prod_part in ((first, second), (second, first)):
        try:
            one_el = reference_ast_to_element(one_part, p)
        except ExpressionError:
            continue
        prod_part = strip(prod_part)
        if not one_el.is_one() or not isinstance(prod_part, Prod):
            continue
        fs = prod_part.factors
        for cut in range(1, len(fs)):
            q = reference_ast_to_element(Prod(fs[:cut]), p)
            p_el = reference_ast_to_element(Prod(fs[cut:]), p)
            if q == p_el.dagger():
                return p_el
    raise ExpressionError(shape)


# -- scalars ------------------------------------------------------------------------


def _rational_part(x):
    """x as an int where it is integral, else a Fraction in lowest terms."""
    if type(x) is int:
        return x
    if type(x) is not Rational:
        x = Rational(x)
    return x.numerator if x.denominator == 1 else x


class ReferenceScalar:
    """A Gaussian rational as the pair (re, im), each an int where it is
    integral and else a Fraction in lowest terms, with the arithmetic of
    the parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _rational_part(re)
        self.im = _rational_part(im)

    @classmethod
    def from_quad(cls, quad):
        rn, rd, im_n, im_d = map(int, quad)
        return cls(rn if rd == 1 else Rational(rn, rd),
                   im_n if im_d == 1 else Rational(im_n, im_d))

    def to_quad(self):
        return [self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator]

    @staticmethod
    def _coerce(other):
        if isinstance(other, ReferenceScalar):
            return other
        if isinstance(other, (int, Rational)):
            return ReferenceScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ReferenceScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ReferenceScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ReferenceScalar(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ReferenceScalar(self.re * o.re - self.im * o.im,
                               self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return ReferenceScalar(Rational(self.re * o.re + self.im * o.im, d),
                               Rational(self.im * o.re - self.re * o.im, d))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return ReferenceScalar(-self.re, -self.im)

    def conjugate(self):
        return ReferenceScalar(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return "Scalar(%s)" % (self,)

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return "%s*i" % self.im
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else "%s*i" % mag
        return "%s %s %s" % (self.re, sign, imag)
