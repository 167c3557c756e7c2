"""Reference computations the benchmark checks results against.

Nothing here imports ``ores``: the checks must not reuse the code they
check.  Algebra elements are plain dicts mapping words (tuples of
generator names) to Gaussian rationals ``(re, im)`` of
``fractions.Fraction``; normal forms come from naive worklist rewriting
with the relations written out below as data.  Fock-space operators are
applied from their closed-form matrix entries with numpy vector
operations.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def conj(x):
    return (x[0], -x[1])


class NaiveAlgebra:
    """Words over generator names modulo rewrite rules ``lhs -> rhs``.

    ``rules`` is a list of ``(lhs_word, [(coeff, word), ...])``; rewriting
    replaces the leftmost occurrence of any left-hand side until no rule
    applies.  The relations of the presets are terminating, so the
    worklist empties.
    """

    def __init__(self, generators, dagger, rules):
        self.generators = tuple(generators)
        self.dagger_of = dict(dagger)
        self.rules = tuple((tuple(lhs), tuple((c, tuple(w)) for c, w in rhs))
                           for lhs, rhs in rules)

    def _redex(self, w):
        for pos in range(len(w)):
            for lhs, rhs in self.rules:
                if w[pos:pos + len(lhs)] == lhs:
                    return pos, lhs, rhs
        return None

    def reduce(self, raw: dict) -> dict:
        out = {}
        work = dict(raw)
        while work:
            w, c = work.popitem()
            if c == ZERO:
                continue
            hit = self._redex(w)
            if hit is None:
                out[w] = cadd(out.get(w, ZERO), c)
                continue
            pos, lhs, rhs = hit
            for rc, rw in rhs:
                w2 = w[:pos] + rw + w[pos + len(lhs):]
                work[w2] = cadd(work.get(w2, ZERO), cmul(c, rc))
        return {w: c for w, c in out.items() if c != ZERO}

    def one(self) -> dict:
        return {(): ONE}

    def add(self, x: dict, y: dict) -> dict:
        out = dict(x)
        for w, c in y.items():
            out[w] = cadd(out.get(w, ZERO), c)
        return {w: c for w, c in out.items() if c != ZERO}

    def scale(self, c, x: dict) -> dict:
        out = {w: cmul(c, v) for w, v in x.items()}
        return {w: v for w, v in out.items() if v != ZERO}

    def mul(self, x: dict, y: dict) -> dict:
        raw = {}
        for w1, c1 in x.items():
            for w2, c2 in y.items():
                w = w1 + w2
                raw[w] = cadd(raw.get(w, ZERO), cmul(c1, c2))
        return self.reduce(raw)

    def dagger(self, x: dict) -> dict:
        raw = {}
        for w, c in x.items():
            wd = tuple(self.dagger_of[g] for g in reversed(w))
            raw[wd] = cadd(raw.get(wd, ZERO), conj(c))
        return self.reduce(raw)

    def factor(self, p: dict) -> dict:
        """1 + p'p."""
        return self.add(self.one(), self.mul(self.dagger(p), p))

    def sproduct(self, ps) -> dict:
        """The product of the factors 1 + p'p, left to right."""
        out = self.one()
        for p in ps:
            out = self.mul(out, self.factor(p))
        return out


HEISENBERG = NaiveAlgebra(
    ("ad", "a"), {"a": "ad", "ad": "a"},
    [(("a", "ad"), [(ONE, ("ad", "a")), (ONE, ())])])
POLY_X = NaiveAlgebra(("x",), {"x": "x"}, [])

ALGEBRAS = {"heisenberg": HEISENBERG, "poly_x": POLY_X}


# -- Fock space: a e_j = sqrt(j) e_{j-1}, ad e_j = sqrt(j+1) e_{j+1} ----------


def apply_generator(name: str, x: np.ndarray) -> np.ndarray:
    """The annihilator has matrix entries [n, n+1] = sqrt(n+1), the creator
    entries [n+1, n] = sqrt(n+1); the output keeps every nonzero entry."""
    x = np.asarray(x, dtype=complex)
    n = np.arange(len(x), dtype=float)
    if name == "a":
        return np.sqrt(n[1:]) * x[1:] if len(x) > 1 else np.zeros(1, complex)
    if name == "ad":
        out = np.zeros(len(x) + 1, dtype=complex)
        out[1:] = np.sqrt(n + 1.0) * x
        return out
    raise ValueError("no closed form for generator %r" % name)


def pad_add(u: np.ndarray, v: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """u + sign * v, the shorter one zero-extended."""
    out = np.zeros(max(len(u), len(v)), dtype=complex)
    out[:len(u)] += u
    out[:len(v)] += sign * v
    return out


def pad_sub(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return pad_add(u, v, -1.0)


def apply_element(el: dict, x: np.ndarray) -> np.ndarray:
    """pi(el) x for an element written in the generators a and ad."""
    out = np.zeros(len(x), dtype=complex)
    for w, (re, im) in el.items():
        v = np.asarray(x, dtype=complex)
        for g in reversed(w):
            v = apply_generator(g, v)
        out = pad_add(out, complex(float(re), float(im)) * v)
    return out


def apply_sproduct(ps, x: np.ndarray) -> np.ndarray:
    """pi(s) x for s the product of the factors 1 + p'p; each factor is
    applied as x + pi(p)' pi(p) x, the rightmost factor first."""
    for p in reversed(ps):
        x = pad_add(x, apply_element(HEISENBERG.dagger(p), apply_element(p, x)))
    return x


def number_operator_residual(x, y) -> float:
    """||(1 + N) x - y|| with N = diag(n)."""
    x = np.asarray(x, dtype=complex)
    return float(np.linalg.norm(
        pad_sub((1.0 + np.arange(len(x))) * x, np.asarray(y, complex))))


def weighted_shift_residual(coeffs, x, y) -> float:
    """||(1 + A'A) x - y|| for the shift (A x)_n = c(n) x_{n+1} with the
    polynomial weight c(n) = sum_k coeffs[k] n^k."""
    x = np.asarray(x, dtype=complex)
    n = np.arange(len(x), dtype=float)
    c = sum(float(ck) * n ** k for k, ck in enumerate(coeffs))
    ax = c[:-1] * x[1:]                       # (A x)_n, n < len(x) - 1
    aax = np.zeros(len(x), dtype=complex)     # (A' z)_m = conj(c(m-1)) z_{m-1}
    aax[1:] = np.conj(c[:-1]) * ax
    return float(np.linalg.norm(pad_sub(x + aax, np.asarray(y, complex))))


# -- exact linear algebra for the expected Gram ranks -------------------------


def exact_rank(rows) -> int:
    """Rank of a matrix of Gaussian rationals by plain elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != ZERO),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][c]
        d = p[0] * p[0] + p[1] * p[1]
        inv = (p[0] / d, -p[1] / d)
        rows[rank] = [cmul(inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != ZERO:
                f = rows[i][c]
                rows[i] = [cadd(v, cmul((-f[0], -f[1]), u))
                           for v, u in zip(rows[i], rows[rank])]
        rank += 1
    return rank
