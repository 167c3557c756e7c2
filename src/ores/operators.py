"""Banded operators on l2(N) with exact band formulas.

A BandedOperator stores finitely many bands: offset k maps to a closed
coefficient formula c_k(n), and the action is (A xi)_n = sum_k c_k(n) *
xi_{n+k}, i.e. matrix entry [n, n+k] = c_k(n).  Band formulas live in the
exact radical-formula algebra, so adjoints, sums, and products are
computed symbolically and identities between operators are decidable as
data equality; floating point enters only when a formula is evaluated at
a concrete index, where each exact rational is rounded once, correctly,
before the square root and the sum of the terms, and a value too large
for a float raises OverflowError.  Bands are sampled on whole index
ranges by Formula.eval(lo, hi), bit-identical to evaluating index by
index.  The action reads each band's samples and its input as one
contiguous slice, and its sums are bit-identical to adding only the
terms with a nonzero input: an index where a band formula raises (a
negative radicand, a value too large for a float) raises only under a
nonzero input, and adds 0 otherwise.  The compiled bands and their
samples are kept per formula, so repeated solves and freshly built
copies of an operator reuse them.  Built products of factors 1 + A*A
are kept too, keyed by the factor operators compared as band data;
formulas and operators hash that data once.  Every cache here has a
fixed size and stops taking entries when full.

Truncated inversion of 1 + A*A uses the positive-definite banded solver
and reports the global residual recomputed from the band formulas.  In
exact arithmetic ||x - x_true|| <= residual, as the inverse has norm at
most 1; the residual is computed in float64 and its rounding is not
counted, so it estimates that bound and does not certify it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraElement, Presentation, _add_into, _check_same,
                      _remember)
from .errors import (ConfigError, FormulaDomainError, PresentationError,
                     TruncationLimit)
from .formulas import Formula, QPoly
from .localization import DEFAULT_BUDGET, SProduct, ore_solve_left


class BandedOperator:
    """Finitely many bands of closed formulas; immutable."""

    __slots__ = ("bands", "_hash")

    def __init__(self, bands: dict):
        self.bands = {int(k): f for k, f in bands.items() if not f.is_zero()}
        self._hash = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls) -> "BandedOperator":
        return cls({})

    @classmethod
    def identity(cls) -> "BandedOperator":
        return cls({0: Formula.const(1)})

    @classmethod
    def weighted_shift(cls, offset: int, formula: Formula) -> "BandedOperator":
        return cls({offset: formula})

    @classmethod
    def annihilation(cls) -> "BandedOperator":
        """A e_j = sqrt(j) e_{j-1}: band +1 with c(n) = sqrt(n+1)."""
        return cls({1: Formula.sqrt(QPoly.of(1, 1))})

    @classmethod
    def creation(cls) -> "BandedOperator":
        """A e_j = sqrt(j+1) e_{j+1}: band -1 with c(n) = sqrt(n)."""
        return cls({-1: Formula.sqrt(QPoly.of(0, 1))})

    # -- structure ----------------------------------------------------------------

    @property
    def min_offset(self) -> int:
        return min(self.bands) if self.bands else 0

    @property
    def max_offset(self) -> int:
        return max(self.bands) if self.bands else 0

    @property
    def bandwidth(self) -> int:
        return max(-self.min_offset, self.max_offset)

    # -- action ----------------------------------------------------------------------

    def apply(self, xi) -> np.ndarray:
        """Exact banded action on a finitely supported vector.

        The input is zero-extended conceptually; the output has length
        len(xi) + max(0, -min_offset) so no support is lost.  A band
        raises the error of its formula at the first row whose input is
        nonzero and where the formula raises; other rows where it raises
        add nothing.
        """
        xi = np.asarray(xi, dtype=complex)
        L = len(xi)
        out_len = L + max(0, -self.min_offset)
        out = np.zeros(out_len, dtype=complex)
        re, im = out.real, out.imag
        for k, f in sorted(self.bands.items()):
            lo = max(0, -k)
            hi = min(out_len, L - k)
            if hi <= lo:
                continue
            x = xi[lo + k:hi + k]
            c = f.eval(lo, hi, x)
            # the complex product of numpy's scalar type, part by part; a
            # zero input adds +-0 to a sum that is never -0, a bit-exact
            # no-op, as the samples under it are finite
            re[lo:hi] += c.real * x.real - c.imag * x.imag
            im[lo:hi] += c.real * x.imag + c.imag * x.real
        return out

    def matrix(self, N: int) -> np.ndarray:
        """Dense N x N truncation."""
        M = np.zeros((N, N), dtype=complex)
        for k, f in self.bands.items():
            lo, hi = max(0, -k), min(N, N - k)
            rows = np.arange(lo, hi)
            M[rows, rows + k] = f.eval(lo, hi)
        return M

    # -- adjoint / sum / product -------------------------------------------------------

    def adjoint(self) -> "BandedOperator":
        """Band j of the adjoint is conj(c_{-j}(n + j))."""
        return BandedOperator(
            {-k: f.shift(-k).conj() for k, f in self.bands.items()})

    def __add__(self, o: "BandedOperator") -> "BandedOperator":
        return BandedOperator(_add_into(dict(self.bands), o.bands.items()))

    def __neg__(self) -> "BandedOperator":
        return BandedOperator({k: -f for k, f in self.bands.items()})

    def __sub__(self, o: "BandedOperator") -> "BandedOperator":
        return self + (-o)

    def scale(self, c) -> "BandedOperator":
        return BandedOperator({k: f.scale(c) for k, f in self.bands.items()})

    def __mul__(self, o: "BandedOperator") -> "BandedOperator":
        """Composition: (AB)[n, n+k] = sum_j a_j(n) b_{k-j}(n+j).

        For j < 0 the rows n < -j have no row n+j in the right factor, so
        the symbolic term must vanish there wherever its column n+j+l
        exists; a term that does not is refused with FormulaDomainError.
        """
        acc = {}
        for j, fa in self.bands.items():
            for l, fb in o.bands.items():
                k = j + l
                term = fa.mul_shifted(fb, j)
                for n in range(max(0, -k), -j):
                    if not term.is_zero_at(n):
                        raise FormulaDomainError(
                            "band %+d times band %+d is nonzero at row %d, "
                            "where the right factor has no row %d"
                            % (j, l, n, n + j))
                _add_into(acc, ((k, term),))
        return BandedOperator(acc)

    # -- identity --------------------------------------------------------------------------

    def key(self):
        return tuple((k, f.key()) for k, f in sorted(self.bands.items()))

    def __eq__(self, o):
        return isinstance(o, BandedOperator) and self.bands == o.bands

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        if not self.bands:
            return "BandedOperator(0)"
        return "BandedOperator({%s})" % ", ".join(
            "%+d: %r" % (k, f) for k, f in sorted(self.bands.items()))


def _gap(u, v) -> np.ndarray:
    """u - v with the shorter vector zero-padded."""
    r = np.zeros(max(len(u), len(v)), dtype=complex)
    r[:len(u)] = u
    r[:len(v)] -= v
    return r


def _residual(out, y) -> float:
    """||out - y||, as _gap pads it, for a fresh output vector out, from
    which y is subtracted in place where out is not the shorter; it is
    not shorter unless y passes SIZE_CAP."""
    if len(out) < len(y):
        out = _gap(out, y)
    else:
        out[:len(y)] -= y
    return float(np.linalg.norm(out))


# -- assignments -----------------------------------------------------------------

_WORD_LIMIT = 1024      # word operators kept per assignment
_ELEMENT_LIMIT = 1024   # element operators kept per assignment


class FockAssignment:
    """A map from presentation generators to banded operators.

    Validation is symbolic: the adjoint generator must carry the exact
    band-formula adjoint, and every rewrite rule must hold as an identity
    of band formulas, so the relations hold on every finitely supported
    vector with no truncation-boundary caveat.
    """

    def __init__(self, presentation: Presentation, ops: dict):
        self.presentation = p = presentation
        fixed = {}
        for name in presentation.generators:
            if name not in ops:
                raise PresentationError(
                    "no operator assigned to generator %r" % name)
            fixed[name] = ops[name]
        self.ops = fixed
        self._word_cache = {(): BandedOperator.identity()}
        self._el_cache = {}
        for gi, name in enumerate(p.generators):
            partner = p.generators[p.dagger_map[gi]]
            if self.ops[partner] != self.ops[name].adjoint():
                raise PresentationError(
                    "operator for %r is not the adjoint of the operator "
                    "for %r" % (partner, name))
        for rule in p.rules:
            lhs_op = self._word_operator(rule.lhs)
            rhs_op = BandedOperator.zero()
            for w, c in rule.rhs.items():
                rhs_op = rhs_op + self._word_operator(w).scale(c)
            if lhs_op != rhs_op:
                raise PresentationError(
                    "assignment violates the relation at %s"
                    % p.word_str(rule.lhs))

    def operator(self, gen_name: str) -> BandedOperator:
        return self.ops[gen_name]

    def _word_operator(self, w) -> BandedOperator:
        cached = self._word_cache.get(w)
        if cached is None:
            head = self.ops[self.presentation.generators[w[0]]]
            cached = _remember(self._word_cache, w,
                               head * self._word_operator(w[1:]), _WORD_LIMIT)
        return cached

    def operator_of(self, el: AlgebraElement) -> BandedOperator:
        """The banded operator of an algebra element, linear over words."""
        _check_same(self.presentation, el.presentation)
        cached = self._el_cache.get(el)
        if cached is None:
            cached = BandedOperator.zero()
            for w, c in el.sorted_terms():
                cached = cached + self._word_operator(w).scale(c)
            _remember(self._el_cache, el, cached, _ELEMENT_LIMIT)
        return cached


def fock_assignment(presentation: Presentation) -> FockAssignment:
    """The weighted-shift assignment on the normal-ordered oscillator
    presentation: the annihilator symbol acts by the annihilation shift
    and its adjoint generator by the creation shift."""
    p = presentation
    if len(p.generators) != 2:
        raise PresentationError(
            "the shift assignment needs the two oscillator generators")
    if any(p.dagger_map[gi] == gi for gi in range(2)):
        raise PresentationError(
            "the shift assignment needs a non-hermitian generator pair")
    # the presentation lists the creation symbol first (term order), and
    # its rule normal-orders annihilator-after-creator products
    ops = {
        p.generators[0]: BandedOperator.creation(),
        p.generators[1]: BandedOperator.annihilation(),
    }
    return FockAssignment(p, ops)


# products of factors 1 + A*A, keyed by the tuple of factor operators
_PRODUCT_LIMIT = 256
_PRODUCTS = {}


def _factor_product(ops: tuple) -> BandedOperator:
    """(1 + A_1*A_1) ... (1 + A_k*A_k), multiplied left to right.

    Keys compare operators by band data, so an equal operator built
    afresh reuses the product; a build that raises is not stored.
    """
    cached = _PRODUCTS.get(ops)
    if cached is None:
        cached = BandedOperator.identity()
        for A in ops:
            cached = cached * (BandedOperator.identity() + A.adjoint() * A)
        _remember(_PRODUCTS, ops, cached, _PRODUCT_LIMIT)
    return cached


def one_plus_AstarA(A: BandedOperator) -> BandedOperator:
    return _factor_product((A,))


def sproduct_operator(assignment: FockAssignment, s: SProduct) -> BandedOperator:
    """The left-to-right product of the factor operators of s."""
    return _factor_product(tuple(assignment.operator_of(p) for p in s.ps))


# -- truncated inversion of 1 + A*A ------------------------------------------------

# the largest truncation a solver builds
SIZE_CAP = 4096


@dataclass(frozen=True)
class InversionResult:
    x: np.ndarray
    residual: float
    truncation_size: int


def _banded_cholesky_solve(M: BandedOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve the N x N truncation of the hermitian positive definite
    banded operator M against rhs (length N).  A diagonal M is one
    division; scipy is imported past it, its only use, so commands that
    solve no banded system do not pay its import.  A float64 Cholesky can
    fail on such a truncation when it is too badly conditioned; the
    LinAlgError then names N and that cause."""
    N = len(rhs)
    K = M.max_offset
    if K == 0:
        return rhs / M.bands[0].eval(0, N)
    import scipy.linalg

    ab = np.zeros((K + 1, N), dtype=complex)
    for k, f in M.bands.items():
        if k >= 0:
            ab[K - k, k:] = f.eval(0, N - k)
    try:
        return scipy.linalg.solveh_banded(ab, rhs, lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise scipy.linalg.LinAlgError(
            "float64 conditioning fails the Cholesky of the truncation at "
            "N = %d (%s), though the operator is positive definite"
            % (N, exc)) from None


def invert_one_plus_AstarA(A: BandedOperator, y, tol: float) -> InversionResult:
    """Solve (1 + A*A) x = y on growing truncations, up to SIZE_CAP,
    until the recomputed global residual meets tol.

    The residual is ||(1+A*A) x - y|| with x zero-extended, evaluated
    through the band formulas.  In exact arithmetic 1 + A*A >= 1, so
    ||x - x_true|| <= residual would follow by contraction.  But the
    residual is computed in float64, and its rounding error is not
    counted: on sampled inputs the exact residual of the returned x
    exceeds the reported one, by up to 45 times.  Until a rounding term
    is added, the residual estimates that bound and does not guarantee
    it.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    y = np.asarray(y, dtype=complex)
    M = one_plus_AstarA(A)
    L = len(y)
    K = max(M.bandwidth, 1)
    N = min(max(2 * L, L + 4 * K, 16), SIZE_CAP)
    while True:
        rhs = np.zeros(N, dtype=complex)
        rhs[:min(L, N)] = y[:min(L, N)]
        x = _banded_cholesky_solve(M, rhs)
        residual = _residual(M.apply(x), y)
        if residual <= tol:
            return InversionResult(x, residual, N)
        if N >= SIZE_CAP:
            raise TruncationLimit(
                "residual %.3g > tol %.3g at the size cap %d"
                % (residual, tol, SIZE_CAP))
        N = min(2 * N, SIZE_CAP)


@dataclass(frozen=True)
class ChainSolveResult:
    x: np.ndarray
    residual: float
    truncation_sizes: tuple
    inner_residuals: tuple


def chain_solve(assignment: FockAssignment, s: SProduct, y,
                tol: float) -> ChainSolveResult:
    """Solve pi(s) x = y by chaining factor inversions.

    pi(s) factors as the product of the operators 1 + A_i*A_i, so x is
    obtained by inverting the factors left to right; the final residual
    is recomputed against the full product operator and inner tolerances
    are tightened, up to five rounds, until it meets tol.

    An inner solve returns the first truncation whose residual meets its
    tol, so a round whose inner residuals all meet the tightened tol
    would return the same truncations and vectors again; it is not
    solved.  A TruncationLimit of an inner solve in the first round
    propagates; past it, and when the rounds run out, TruncationLimit
    reports the last chained residual.
    """
    y = np.asarray(y, dtype=complex)
    if s.is_one():
        return ChainSolveResult(y, 0.0, (), ())
    ops = [assignment.operator_of(p) for p in s.ps]
    total = sproduct_operator(assignment, s)
    inner_tol = tol / (10 * len(ops))
    last = None
    for _ in range(5):
        if last is None or max(last.inner_residuals) > inner_tol:
            z = y
            sizes = []
            inner = []
            try:
                for A in ops:
                    res = invert_one_plus_AstarA(A, z, inner_tol)
                    z = res.x
                    sizes.append(res.truncation_size)
                    inner.append(res.residual)
            except TruncationLimit:
                if last is None:
                    raise
                break
            residual = _residual(total.apply(z), y)
            last = ChainSolveResult(z, residual, tuple(sizes), tuple(inner))
            if residual <= tol:
                return last
        inner_tol /= 100
    raise TruncationLimit(
        "chained residual %.3g did not reach tol %.3g" % (last.residual, tol))


# -- probes -----------------------------------------------------------------------


@dataclass
class ProbeItem:
    label: str
    residual: float
    truncation: int
    passed: bool


@dataclass
class ProbeReport:
    probe: str
    tol: float
    items: list

    @property
    def ok(self) -> bool:
        return all(it.passed for it in self.items)


def pi_s_surjectivity_probe(assignment: FockAssignment, s: SProduct,
                            targets, tol: float) -> ProbeReport:
    """For each target y, find x with ||pi(s) x - y|| <= tol."""
    items = []
    for idx, y in enumerate(targets):
        label = "target_%d" % idx
        try:
            res = chain_solve(assignment, s, y, tol)
            items.append(ProbeItem(label, res.residual,
                                   max(res.truncation_sizes, default=0),
                                   res.residual <= tol))
        except TruncationLimit:
            items.append(ProbeItem(label, float("inf"), SIZE_CAP, False))
    return ProbeReport("surjectivity", tol, items)


def lemma_pis_equals_S_check(assignment: FockAssignment, s: SProduct,
                             samples) -> ProbeReport:
    """Compare the operator of the normalized product s.value against the
    product of the factor operators: the band formulas must be equal as
    data, and the two actions must agree bit for bit on every sample."""
    route_a = assignment.operator_of(s.value)
    route_b = sproduct_operator(assignment, s)
    formulas_equal = route_a == route_b
    items = [ProbeItem("band_formulas", 0.0, 0, formulas_equal)]
    for idx, xi in enumerate(samples):
        va = route_a.apply(xi)
        vb = route_b.apply(xi)
        same = va.shape == vb.shape and bool(np.all(va == vb))
        gap = 0.0 if same else float(np.linalg.norm(_gap(va, vb)))
        items.append(ProbeItem("sample_%d" % idx, gap, len(np.asarray(xi)),
                               same))
    return ProbeReport("composite_equals_product", 0.0, items)


def core_density_probe(assignment: FockAssignment, a: AlgebraElement,
                       s: SProduct, xi, tol: float) -> ProbeReport:
    """Approximate xi from pi(s) applied to finitely supported vectors in
    the graph norm of the operator of a: solve pi(s) x = xi[:N] for N =
    max(8, len(xi)) and measure the graph distance of pi(s) x from the
    whole of xi.  A solve that raises TruncationLimit gives an infinite
    distance at SIZE_CAP.  A xi longer than SIZE_CAP raises ConfigError:
    the solves stop at the cap, so its tail would be measured unsolved."""
    xi = np.asarray(xi, dtype=complex)
    if len(xi) > SIZE_CAP:
        raise ConfigError("vector must have at most %d entries, the "
                          "solvers' size cap" % SIZE_CAP)
    Aop = assignment.operator_of(a)
    total = sproduct_operator(assignment, s)
    N = max(8, len(xi))
    try:
        res = chain_solve(assignment, s, xi[:N], tol / 4)
    except TruncationLimit:
        dist, N = float("inf"), SIZE_CAP
    else:
        diff = _gap(total.apply(res.x), xi)
        dist = (float(np.linalg.norm(diff)) ** 2
                + float(np.linalg.norm(Aop.apply(diff))) ** 2) ** 0.5
    return ProbeReport("core_density", tol,
                       [ProbeItem("graph_distance", dist, N, dist <= tol)])


# -- fraction extension -------------------------------------------------------------


@dataclass
class ExtensionResult:
    vector: np.ndarray
    inverse_residual: float
    truncation_sizes: tuple
    witness_found: bool
    route_gap: float | None = None


def extend_representation(assignment: FockAssignment, frac, xi, tol: float,
                          budget=DEFAULT_BUDGET) -> ExtensionResult:
    """Evaluate the extended representation on a right fraction [a, s]:
    the primary route solves pi(s) u = xi and applies the operator of a.

    When a left witness t a = b s is found within budget, the alternate
    route solves pi(t) v = pi(b) xi and the gap between the two routes is
    reported; the containment of the two compositions predicts agreement
    up to the solve tolerances.
    """
    xi = np.asarray(xi, dtype=complex)
    a, s = frac.num, frac.den
    sol = chain_solve(assignment, s, xi, tol)
    vector = assignment.operator_of(a).apply(sol.x)

    solved = ore_solve_left(a, s, budget)
    if not solved.found:
        return ExtensionResult(vector, sol.residual, sol.truncation_sizes,
                               False)
    w = solved.witness
    bxi = assignment.operator_of(w.b).apply(xi)
    alt = chain_solve(assignment, w.t, bxi, tol).x
    route_gap = float(np.linalg.norm(_gap(vector, alt)))
    return ExtensionResult(vector, sol.residual, sol.truncation_sizes,
                           True, route_gap)
