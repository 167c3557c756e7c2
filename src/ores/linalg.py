"""Exact linear algebra over the Gaussian rationals.

Kernels, an incremental row space with combination tracking, and a
pivoted semidefinite reduction for hermitian matrices, on lists of lists
of Scalar.  Every elimination scales its input by the lcm of the
denominators and works over the Gaussian integers, with rows as pairs
(re, im) of integer lists and one row operation: the fraction-free step
(p row - q other) / d of Bareiss, whose division by the previous pivot
is exact.  The hermitian reduction keeps only the upper triangle of its
matrix, row k from column k on.  The Scalars of a result are built
once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import ONE, ZERO, gaussian_over, over_common_denominator


def _combine(p, x, q, y, d):
    """The fraction-free row operation (p x - q y) / d over Z[i].

    x and y are rows (re, im) of integer lists, and p, q and d Gaussian
    integers given as (re, im) pairs; d divides every entry exactly
    (Bareiss, Math. Comp. 22, 1968).  Shorter exact paths: q = 0 only
    scales x, and leaves a zero x as it is; real p and d, which both
    hermitian eliminations have, skip the complex division.
    """
    (pr, pi), (qr, qi), (dr, di) = p, q, d
    xr, xi = x
    if not qr and not qi:
        if p == d or not any(xr) and not any(xi):
            return x
        if not pi and not di:
            return [pr * v // dr for v in xr], [pr * v // dr for v in xi]
        y = x                # any row of the length of x
    yr, yi = y
    if not pi and not di:
        return ([(pr * a - qr * c + qi * e) // dr
                 for a, c, e in zip(xr, yr, yi)],
                [(pr * b - qr * e - qi * c) // dr
                 for b, c, e in zip(xi, yr, yi)])
    nr = [pr * a - pi * b - qr * c + qi * e
          for a, b, c, e in zip(xr, xi, yr, yi)]
    ni = [pr * b + pi * a - qr * e - qi * c
          for a, b, c, e in zip(xr, xi, yr, yi)]
    # divide through the conjugate: z / d = z conj(d) / |d|^2
    n = dr * dr + di * di
    return ([(a * dr + b * di) // n for a, b in zip(nr, ni)],
            [(b * dr - a * di) // n for a, b in zip(nr, ni)])


def nullspace(rows):
    """Basis of the exact kernel of the matrix given as a list of rows:
    the kernel vectors of a RowSpace of the columns, added in order,
    padded with zeros to the full width.  This is the reduced-echelon
    basis, one vector per column j that does not enlarge the span."""
    if not rows:
        return []
    ncols = len(rows[0])
    space = RowSpace(len(rows))
    for j in range(ncols):
        space.add([row[j] for row in rows])
    return [vec + [ZERO] * (ncols - len(vec)) for vec in space.kernel]


class RowSpace:
    """Incremental exact row space with combination tracking.

    A generator g_j enters as the integer row D_j g_j with D_j at
    trailing column j, and is reduced by one step against each stored
    echelon row.  A stored row is sum_j c_j g_j, then the c_j, one
    trailing column per generator added.  A generator that does not
    enlarge the span leaves a row whose leading columns are zero and
    whose trailing entries y satisfy sum_i y_i g_i = 0 with y_j != 0;
    kernel gets [y_i / y_j], the reduced-echelon kernel vector: e_j
    minus the combination of the earlier pivot generators that equals
    g_j.  represent(v) returns coefficients over the added generators
    whenever v lies in their span, else None; they are nonzero, and
    unique, only on the generators that enlarged the span.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = []        # echelon rows (re, im), combination trailing
        self.pivot_cols = []
        self.ngens = 0
        self.kernel = []      # one vector, of length j + 1, per dependent g_j

    def _reduce(self, row):
        """The row after one step against each stored row, and the
        factor the steps scaled it by: the last pivot."""
        prev = (1, 0)
        for other, c in zip(self.rows, self.pivot_cols):
            piv = (other[0][c], other[1][c])
            row = _combine(piv, row, (row[0][c], row[1][c]), other, prev)
            prev = piv
        return row, prev

    def add(self, vec) -> bool:
        """Add a generator; returns True if it enlarged the span, and
        otherwise appends its kernel vector."""
        for re, im in self.rows:
            re.append(0)
            im.append(0)
        D, ((re, im),) = over_common_denominator([vec])
        tail = [0] * self.ngens
        self.ngens += 1
        (re, im), _ = self._reduce((re + tail + [D], im + tail + [0]))
        n = self.ncols
        for c in range(n):
            if re[c] or im[c]:
                self.rows.append((re, im))
                self.pivot_cols.append(c)
                return True
        self.kernel.append(_divide(re[n:], im[n:], (re[-1], im[-1]), 1))
        return False

    def represent(self, vec):
        """Coefficients (length ngens) with sum(c_j gen_j) = vec, or None."""
        D, ((re, im),) = over_common_denominator([vec])
        tail = [0] * self.ngens
        (re, im), (pr, pi) = self._reduce((re + tail, im + tail))
        n = self.ncols
        if any(re[:n]) or any(im[:n]):
            return None
        # the reduced row is piv * D * vec + sum_j y_j g_j = 0, with y
        # its trailing entries, so c_j = y_j / (-piv D)
        return _divide(re[n:], im[n:], (-pr, -pi), D)


def _divide(re, im, d, scale):
    """The Scalars y / (d scale) for the Gaussian integers y = re + i im,
    d a nonzero Gaussian integer (re, im) and scale a positive integer:
    y conj(d) / (|d|^2 scale)."""
    dr, di = d
    den = (dr * dr + di * di) * scale
    return [gaussian_over(a * dr + b * di, b * dr - a * di, den)
            for a, b in zip(re, im)]


@dataclass
class PsdReport:
    psd: bool
    pivots: list = field(default_factory=list)
    kernel: list = field(default_factory=list)
    witness: list | None = None
    failure_index: int | None = None


def graded_hermitian_reduce(G, grades) -> PsdReport:
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
    are those of the reduction in Gaussian rationals.  Every matrix of
    the reduction is hermitian, so only its upper triangle is stored and
    updated: row k holds the open columns k, k+1, ..., and an entry
    below the diagonal is read as the conjugate of the one above it
    (Golub & Van Loan, Matrix Computations, 4th ed., 4.1-4.2).  Kernel
    vectors and witnesses are the columns e_i - G_PP^-1 G_Pi of the
    congruence that reduces G, solved exactly, and a PSD matrix of full
    rank needs no solve.

    An all-zero row i, found by the same pass that checks hermitian
    symmetry, is null from the start: it takes no part in the
    elimination, the scaling or the pivot choice, and its kernel vector
    is e_i.  The report is the one the full elimination gives, since
    such a row is never a pivot candidate nor the nonzero entry of
    another null row, and every other kernel vector or witness is zero
    at i.  A moment matrix has many such rows where the state is
    supported on few weights (45 of 55 for the oscillator vacuum at
    degree 9).  A row found null at a later stage stays open and zero,
    since _combine returns a zero row as it is, so it is never a pivot
    and never names a witness.

    The staging makes the pivot set nested along grades, which downstream
    code uses to build nested orthonormal bases.
    """
    n = len(G)
    nonzero = [False] * n
    for i, row in enumerate(G):
        for j in range(i, n):
            x, y = row[j], G[j][i]
            if x.a != y.a or x.b != -y.b or x.d != y.d:
                raise ValueError("matrix is not hermitian")
            if x.a or x.b:
                nonzero[i] = nonzero[j] = True
    live = [i for i in range(n) if nonzero[i]]
    D, rows = over_common_denominator([[G[i][j] for j in live[k:]]
                                       for k, i in enumerate(live)])
    open_ = list(live)       # row k of rows is index open_[k], from column k
    pivots = []
    prev = 1                 # det((D G)_PP), the last pivot taken
    for stage in range(max(grades, default=0) + 1):
        while True:
            best = None
            for k, i in enumerate(open_):
                if grades[i] > stage:
                    continue
                d = rows[k][0][0]
                if d < 0:
                    witness, = _transform_columns(G, pivots, [i])
                    return PsdReport(False, pivots, [],
                                     witness, i)
                if d > 0 and (best is None or d > rows[best][0][0]):
                    best = k
            if best is None:
                break
            pivots.append(open_.pop(best))
            rows, prev = _bareiss_step(rows, best, prev)
        # zero-diagonal entries of this stage must have fully zero rows
        for k, i in enumerate(open_):
            if grades[i] > stage:
                continue
            re_k, im_k = _full_row(rows, k)
            bad = next((b for b in range(len(open_))
                        if b != k and (re_k[b] or im_k[b])), None)
            if bad is not None:
                # conj(z) for the entry z = a[k][bad] / (prev * D) of G's
                # Schur complement
                zc = gaussian_over(re_k[bad], -im_k[bad], prev * D)
                u_i, u_bad = _transform_columns(G, pivots, [i, open_[bad]])
                witness = [a - zc * b for a, b in zip(u_i, u_bad)]
                return PsdReport(False, pivots, [], witness, i)
    # every index is now a pivot or null; a null i's column is the same
    # for every later pivot prefix, since its Schur row stays zero, and
    # a zero row's is e_i
    pivot_set = set(pivots)
    solved = iter(_transform_columns(
        G, pivots, [i for i in live if i not in pivot_set]))
    kernel = []
    for i in range(n):
        if nonzero[i]:
            if i not in pivot_set:
                kernel.append(next(solved))
        else:
            kernel.append([ONE if j == i else ZERO for j in range(n)])
    return PsdReport(True, pivots, kernel, None, None)


def _full_row(rows, k):
    """Row k, all open columns, of the hermitian matrix over Z[i] whose
    rows (re, im) hold their entries from the diagonal on: a[k][b] =
    conj(a[b][k]) for b < k, read from row b, then row k itself."""
    re, im = rows[k]
    return ([r[k - b] for b, (r, _) in enumerate(rows[:k])] + re,
            [-i[k - b] for b, (_, i) in enumerate(rows[:k])] + im)


def _bareiss_step(rows, t, prev):
    """Eliminate position t of the hermitian matrix over Z[i] whose rows
    hold their entries from the diagonal on: a[k][j] <- (a[t][t] a[k][j]
    - a[k][t] a[t][j]) / prev for j >= k, with the pivot row a[t][.]
    built once and a[k][t] = conj(a[t][k]) read from it.  Returns the
    matrix without row and column t, in the same form, and the pivot
    a[t][t]."""
    tr, ti = _full_row(rows, t)
    piv = tr[t]
    p, d = (piv, 0), (prev, 0)
    tr, ti = tr[:t] + tr[t + 1:], ti[:t] + ti[t + 1:]
    # row k keeps its index above t and moves up one below it; a row
    # above t drops its entry in column t, at offset t - k
    above = [(re[:t - k] + re[t - k + 1:], im[:t - k] + im[t - k + 1:])
             for k, (re, im) in enumerate(rows[:t])]
    return [_combine(p, row, (tr[k], -ti[k]), (tr[k:], ti[k:]), d)
            for k, row in enumerate(above + rows[t + 1:])], piv


def _transform_columns(G, pivots, targets):
    """For each index i in targets, outside the pivots P, the vector
    e_i - G_PP^-1 G_Pi: the column at i of the congruence that takes G
    to its Schur complement on P.

    One solve serves all targets: fraction-free Gauss-Jordan over Z[i]
    (Bareiss; Nakos, Turner & Williams 1997) on [G_PP | G_P,targets]
    scaled by the lcm of its denominators.  Step k divides exactly by
    the previous pivot, drops the eliminated column, and leaves the
    pivot equal to the leading principal minor of order k + 1 of the
    scaled G_PP.  The pivots P were taken with positive Schur
    complements, in this order, so G_PP is positive definite and every
    such minor is a positive integer: no row swaps are needed.  After
    the last step, with det the last pivot, row k holds det *
    (G_PP^-1 G_P,targets)[k], so each nonzero entry of the result is
    built once, as x / det.  No targets need no solve.
    """
    if not targets:
        return []
    _, rows = over_common_denominator([[G[a][b] for b in pivots]
                                       + [G[a][i] for i in targets]
                                       for a in pivots])
    prev = (1, 0)
    for k in range(len(pivots)):
        kr, ki = rows[k]
        piv = (kr[0], ki[0])
        pivot_row = (kr[1:], ki[1:])
        rows = [pivot_row if i == k else
                _combine(piv, (re[1:], im[1:]), (re[0], im[0]), pivot_row,
                         prev)
                for i, (re, im) in enumerate(rows)]
        prev = piv
    det = prev[0]
    out = []
    for t, i in enumerate(targets):
        vec = [ZERO] * len(G)
        vec[i] = ONE
        for (re, im), a in zip(rows, pivots):
            if re[t] or im[t]:
                vec[a] = gaussian_over(-re[t], -im[t], det)
        out.append(vec)
    return out
