"""Exact linear algebra over the Gaussian rationals.

Row reduction, kernels, an incremental row space with
combination tracking, and a pivoted semidefinite reduction for hermitian
matrices.  Matrices are plain lists of lists of Scalar.  Row reduction
works in Scalars on systems of tens of rows.  The semidefinite reduction
meets Gram matrices whose denominators grow with the degree, so it
scales them by the lcm of their denominators and works over the
Gaussian integers throughout: fraction-free symmetric elimination for
the verdict, fraction-free Gauss-Jordan for the kernel and witness
vectors, whose Scalars are built once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import Scalar

_ZERO = Scalar(0)
_ONE = Scalar(1)


def _rref(rows):
    """Reduced row echelon form in place; returns list of pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = _ONE / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def nullspace(rows):
    """Basis of the exact kernel of the matrix given as a list of rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    work = [list(row) for row in rows]
    pivots = _rref(work)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * ncols
        vec[free] = _ONE
        for r, c in enumerate(pivots):
            vec[c] = -work[r][free]
        basis.append(vec)
    return basis


class RowSpace:
    """Incremental exact row space with combination tracking.

    Each added generator vector is reduced against the stored echelon
    rows.  represent(v) returns coefficients over the added generators
    whenever v lies in their span, else None.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = []        # echelon rows
        self.pivot_cols = []
        self.combos = []      # combos[k][j]: row k as combination of gen j
        self.ngens = 0

    def _reduce(self, vec):
        vec = list(vec)
        combo = [_ZERO] * len(self.rows)
        for k, (row, pc) in enumerate(zip(self.rows, self.pivot_cols)):
            f = vec[pc]
            if f:
                vec = [a - f * b for a, b in zip(vec, row)]
                combo[k] = f
        return vec, combo

    def add(self, vec) -> bool:
        """Add a generator; returns True if it enlarged the span."""
        red, combo = self._reduce(vec)
        gen_combo = [_ZERO] * (self.ngens + 1)
        gen_combo[self.ngens] = _ONE
        for k, f in enumerate(combo):
            if f:
                old = self.combos[k]
                for j, v in enumerate(old):
                    if v:
                        gen_combo[j] = gen_combo[j] - f * v
        self.ngens += 1
        for c in range(self.ncols):
            if red[c]:
                inv = _ONE / red[c]
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
        out = [_ZERO] * self.ngens
        for k, f in enumerate(combo):
            if f:
                for j, v in enumerate(self.combos[k]):
                    if v:
                        out[j] = out[j] + f * v
        return out


@dataclass
class PsdReport:
    psd: bool
    rank: int
    pivots: list = field(default_factory=list)
    kernel: list = field(default_factory=list)
    witness: list | None = None
    failure_index: int | None = None

    def __bool__(self):
        return self.psd


def graded_hermitian_reduce(G, grades=None) -> PsdReport:
    """Pivoted exact reduction of a hermitian matrix.

    Pivots are chosen stage by stage: within stage g only indices i with
    grades[i] <= g are eligible, and among them the largest positive
    diagonal entry is taken, the first index on ties.  Any positive
    diagonal is a valid semidefiniteness-preserving pivot, so the verdict
    is exact: the matrix is PSD iff the reduction never meets a negative
    diagonal entry or a zero diagonal with a nonzero row.  For a PSD
    matrix the kernel vectors, one per non-pivot index i with entry 1 at
    i, span the kernel.

    The elimination is fraction-free (Bareiss): G is scaled by the lcm D
    of its denominators into a matrix over Z[i], and each symmetric step
    divides exactly by the previous pivot.  With pivots P taken, every
    open entry is the Schur complement of G_PP in G times det((D G)_PP)
    * D, the same positive factor throughout, so the pivots and signs
    are those of the reduction in Gaussian rationals.  Kernel vectors and
    witnesses are the columns e_i - G_PP^-1 G_Pi of the congruence that
    reduces G, solved exactly.

    The staging makes the pivot set nested along grades, which downstream
    code uses to build nested orthonormal bases.
    """
    n = len(G)
    if grades is None:
        grades = [0] * n
    for i in range(n):
        for j in range(i, n):
            if G[i][j] != G[j][i].conjugate():
                raise ValueError("matrix is not hermitian")
    D, re, im = _over_lcm(G)
    open_ = list(range(n))   # row and column k of re, im are index open_[k]
    pivots = []
    prev = 1                 # det((D G)_PP), the last pivot taken
    for stage in range(max(grades, default=0) + 1):
        while True:
            best = None
            for k, i in enumerate(open_):
                if grades[i] > stage:
                    continue
                d = re[k][k]
                if d < 0:
                    witness, = _transform_columns(G, pivots, [i])
                    return PsdReport(False, len(pivots), pivots, [],
                                     witness, i)
                if d > 0 and (best is None or d > re[best][best]):
                    best = k
            if best is None:
                break
            pivots.append(open_.pop(best))
            re, im, prev = _bareiss_step(re, im, best, prev)
        # zero-diagonal entries of this stage must have fully zero rows
        nulls = set()
        for k, i in enumerate(open_):
            if grades[i] > stage:
                continue
            re_k, im_k = re[k], im[k]
            bad = next((b for b in range(len(open_))
                        if b != k and (re_k[b] or im_k[b])), None)
            if bad is not None:
                # conj(z) for the entry z = a[k][bad] / (prev * D) of G's
                # Schur complement
                zc = Scalar(Fraction(re_k[bad], prev * D),
                            Fraction(-im_k[bad], prev * D))
                u_i, u_bad = _transform_columns(G, pivots, [i, open_[bad]])
                witness = [a - zc * b for a, b in zip(u_i, u_bad)]
                return PsdReport(False, len(pivots), pivots, [], witness, i)
            nulls.add(k)
        if nulls:
            keep = [k for k in range(len(open_)) if k not in nulls]
            re = [[re[a][b] for b in keep] for a in keep]
            im = [[im[a][b] for b in keep] for a in keep]
            open_ = [open_[k] for k in keep]
    # every index is now a pivot or null; a null i's column is the same
    # for every later pivot prefix, since its Schur row stays zero
    pivot_set = set(pivots)
    kernel = _transform_columns(
        G, pivots, [i for i in range(n) if i not in pivot_set])
    return PsdReport(True, len(pivots), pivots, kernel, None, None)


def _bareiss_step(re, im, t, prev):
    """Eliminate position t of the hermitian matrix re + i*im over Z[i]:
    a[k][j] <- (a[t][t] a[k][j] - a[k][t] a[t][j]) / prev on the other
    positions, with a[k][t] = conj(a[t][k]) read from row t.  The
    division by prev, the previous pivot, is exact (Bareiss).  Returns
    the matrix without row and column t, and the pivot a[t][t]."""
    piv = re[t][t]
    px = re[t][:t] + re[t][t + 1:]
    py = im[t][:t] + im[t][t + 1:]
    new_re, new_im = [], []
    for k in range(len(re)):
        if k == t:
            continue
        xa, ya = re[t][k], im[t][k]
        row_re = re[k][:t] + re[k][t + 1:]
        row_im = im[k][:t] + im[k][t + 1:]
        if xa or ya:
            new_re.append([(piv * v - xa * xb - ya * yb) // prev
                           for v, xb, yb in zip(row_re, px, py)])
            new_im.append([(piv * v - xa * yb + ya * xb) // prev
                           for v, xb, yb in zip(row_im, px, py)])
        else:
            new_re.append([piv * v // prev for v in row_re])
            new_im.append([piv * v // prev for v in row_im])
    return new_re, new_im, piv


def _over_lcm(M):
    """(D, re, im) with M = (re + i*im) / D: D is the lcm of the
    denominators of the Scalar matrix M, and re, im are integer matrices."""
    D = math.lcm(*(x.denominator for row in M for s in row
                   for x in (s.re, s.im)))
    re = [[s.re.numerator * (D // s.re.denominator) for s in row]
          for row in M]
    im = [[s.im.numerator * (D // s.im.denominator) for s in row]
          for row in M]
    return D, re, im


def _transform_columns(G, pivots, targets):
    """For each index i in targets, outside the pivots P, the vector
    e_i - G_PP^-1 G_Pi: the column at i of the congruence that takes G
    to its Schur complement on P.

    One solve serves all targets: fraction-free Gauss-Jordan over Z[i]
    (Bareiss; Nakos, Turner & Williams 1997) on [G_PP | G_P,targets]
    scaled by the lcm of its denominators.  Step k divides exactly by
    the previous pivot and leaves the pivot a_kk equal to the leading
    principal minor of order k + 1 of the scaled G_PP.  The pivots P
    were taken with positive Schur complements, in this order, so G_PP
    is positive definite and every such minor is a positive integer: no
    row swaps are needed.  After the last step, with det the last pivot,
    row k holds det * (G_PP^-1 G_P,targets)[k], so each entry of the
    result is built once, as Fraction(x, det).
    """
    r = len(pivots)
    _, re, im = _over_lcm([[G[a][b] for b in pivots]
                           + [G[a][i] for i in targets] for a in pivots])
    prev = 1
    for k in range(r):
        piv = re[k][k]
        xr, xi = re[k][k + 1:], im[k][k + 1:]
        for i in range(r):
            if i == k:
                continue
            ri, ii = re[i], im[i]
            a, b = ri[k], ii[k]
            if a or b:
                ri[k + 1:] = [(piv * v - a * c + b * d) // prev
                              for v, c, d in zip(ri[k + 1:], xr, xi)]
                ii[k + 1:] = [(piv * v - a * d - b * c) // prev
                              for v, c, d in zip(ii[k + 1:], xr, xi)]
            elif piv != prev:
                ri[k + 1:] = [piv * v // prev for v in ri[k + 1:]]
                ii[k + 1:] = [piv * v // prev for v in ii[k + 1:]]
        prev = piv
    out = []
    for t, i in enumerate(targets):
        vec = [_ZERO] * len(G)
        vec[i] = _ONE
        for k, a in enumerate(pivots):
            vec[a] = Scalar(Fraction(-re[k][r + t], prev),
                            Fraction(-im[k][r + t], prev))
        out.append(vec)
    return out
