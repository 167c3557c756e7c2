"""Exact linear algebra over the Gaussian rationals."""

import itertools
import random
from fractions import Fraction as Rational

import pytest

from ores.linalg import RowSpace, graded_hermitian_reduce, nullspace
from ores.scalars import IMAG, ONE, Scalar

from oracles import (ReferenceRowSpace, exact_rank, gaussian_moment,
                     hermitian_quadratic_form, random_scalar_matrix,
                     reference_hermitian_reduce, reference_nullspace)

ZERO = Scalar(0)


def _matvec(rows, x):
    return [sum((r[j] * x[j] for j in range(len(x))), ZERO) for r in rows]


def _gram(B):
    # B is rows x cols; G = B* B is cols x cols and PSD by construction
    cols = len(B[0])
    return [[sum((B[k][i].conjugate() * B[k][j] for k in range(len(B))),
                 ZERO) for j in range(cols)] for i in range(cols)]


def _hermitian(rng, n, span):
    rows = random_scalar_matrix(rng, n, n, span)
    return [[rows[i][j] + rows[j][i].conjugate() for j in range(n)]
            for i in range(n)]


def test_nullspace():
    rng = random.Random(21)
    for _ in range(25):
        rows = random_scalar_matrix(rng, 4, 4)
        kernel = nullspace(rows)
        assert kernel == reference_nullspace(rows)
        assert len(kernel) == 4 - exact_rank(rows)
        for k in kernel:
            assert any(k)
            assert _matvec(rows, k) == [ZERO] * 4
    rows = [[Scalar(1), Scalar(1)], [Scalar(1), Scalar(1)]]
    assert [_matvec(rows, k) for k in nullspace(rows)] == [[ZERO, ZERO]]


def test_rowspace_matches_exact_rank():
    rng = random.Random(22)
    for _ in range(25):
        rows = random_scalar_matrix(rng, 5, 7)
        space, reference = RowSpace(7), ReferenceRowSpace(7)
        added = [space.add(r) for r in rows]
        assert added == [reference.add(r) for r in rows]
        assert sum(added) == exact_rank(rows)
        # every original row must now be representable
        for r in rows:
            combo = space.represent(r)
            assert combo is not None
            assert combo == reference.represent(r)


def test_rowspace_represent_rejects_outsiders():
    space = RowSpace(3)
    space.add([Scalar(1), Scalar(0), Scalar(0)])
    assert space.represent([Scalar(0), Scalar(1), Scalar(0)]) is None
    assert space.represent([Scalar(5), Scalar(0), Scalar(0)]) is not None


def _gaussian_rational(rng, kind):
    """A random Gaussian rational, real, purely imaginary or complex."""
    def part():
        return Rational(rng.randint(-3, 3), rng.randint(1, 4))
    if kind == "real":
        return Scalar(part())
    if kind == "imaginary":
        return Scalar(0, part())
    return Scalar(part(), part())


def _low_rank(rng, m, n, r, kind):
    """An m x n product of m x r and r x n random matrices, of rank at
    most r; in about three cases of ten some entries are then set to
    zero, which can raise the rank."""
    A = [[_gaussian_rational(rng, kind) for _ in range(r)] for _ in range(m)]
    B = [[_gaussian_rational(rng, kind) for _ in range(n)] for _ in range(r)]
    M = [[sum((A[i][k] * B[k][j] for k in range(r)), ZERO)
          for j in range(n)] for i in range(m)]
    if rng.random() < 0.3:
        M = [[ZERO if rng.random() < 0.3 else x for x in row] for row in M]
    return M


def test_elimination_equals_reference_on_rank_deficient_matrices():
    """nullspace bases, RowSpace.add verdicts, RowSpace.kernel vectors
    and RowSpace.represent coefficients equal those of the reference in
    Scalars, on matrices whose pivots are real, purely imaginary and
    complex."""
    rng = random.Random(27)
    # pivots 1, then 1 + i: representing the first row takes a step
    # against the second that only scales, by a complex pivot over a
    # real one with the same real part
    cases = [[[Scalar(1), ZERO, ZERO], [ZERO, Scalar(1, 1), ZERO]]]
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        kind = rng.choice(("real", "imaginary", "complex"))
        cases.append(_low_rank(rng, m, n, rng.randint(1, min(m, n)), kind))
    first_pivots = set()
    deficient = 0
    for M in cases:
        n = len(M[0])
        rank = exact_rank(M)
        deficient += rank < min(len(M), n)
        first = next((x for row in M for x in row if x), None)
        if first is not None:
            first_pivots.add((first.re != 0, first.im != 0))
        assert nullspace(M) == reference_nullspace(M)
        # the rows, a sum of two rows and a random vector, in and out of
        # the span
        probes = M + [[a + b for a, b in zip(M[0], M[-1])],
                      [_gaussian_rational(rng, "complex") for _ in range(n)]]
        space, reference = RowSpace(n), ReferenceRowSpace(n)
        for row in M:
            assert space.add(row) == reference.add(row)
            # stored rows grow in place, one column per generator, so no
            # two may share a list, such as the zero imaginary part of a
            # real row
            for re, im in space.rows:
                assert len(re) == len(im) == n + space.ngens
            for v in probes:
                assert space.represent(v) == reference.represent(v)
        assert len(space.rows) == rank
        # the rows' dependencies: the kernel of the transpose
        assert [v + [ZERO] * (len(M) - len(v)) for v in space.kernel] \
            == reference_nullspace([list(col) for col in zip(*M)])
    assert first_pivots == {(True, False), (False, True), (True, True)}
    assert deficient > 100


def test_gram_matrices_are_recognized_psd():
    rng = random.Random(23)
    for _ in range(20):
        B = random_scalar_matrix(rng, rng.randint(1, 5), 4)
        G = _gram(B)
        rep = graded_hermitian_reduce(G, [0] * len(G))
        assert rep.psd
        assert len(rep.pivots) == exact_rank(B)
        for k in rep.kernel:
            assert _matvec(G, k) == [ZERO] * 4
        assert len(rep.pivots) + len(rep.kernel) == 4


def test_indefinite_matrix_yields_exact_witness():
    rng = random.Random(24)
    hits = 0
    for _ in range(40):
        G = _hermitian(rng, 3, 3)   # in general indefinite
        rep = graded_hermitian_reduce(G, [0] * len(G))
        if not rep.psd:
            hits += 1
            q = hermitian_quadratic_form(G, rep.witness)
            assert not q.im
            assert q.re < 0
    assert hits > 10


def test_graded_pivots_are_nested():
    rng = random.Random(25)
    for _ in range(10):
        B = random_scalar_matrix(rng, 4, 6)
        G = _gram(B)
        grades = [0, 0, 1, 1, 2, 2]
        rep = graded_hermitian_reduce(G, grades)
        assert rep.psd
        stage = [grades[p] for p in rep.pivots]
        assert stage == sorted(stage)


def test_non_hermitian_input_rejected():
    G = [[Scalar(0), IMAG], [IMAG, Scalar(0)]]
    G[0][0] = IMAG
    with pytest.raises(ValueError):
        graded_hermitian_reduce(G, [0] * len(G))


def test_asymmetric_off_diagonal_rejected():
    # real diagonal, G[0][1] != conj(G[1][0]): the elimination reads the
    # pivot row for the pivot column too, so it must refuse such a matrix
    # rather than decide it
    for G in ([[Scalar(2), Scalar(1)], [Scalar(3), Scalar(2)]],
              [[Scalar(1), IMAG], [IMAG, Scalar(1)]],
              [[Scalar(0), Scalar(0)], [Scalar(1), Scalar(0)]]):
        with pytest.raises(ValueError):
            graded_hermitian_reduce(G, [0] * len(G))


def _vector_state_gram(rng, m, d):
    """Gram matrix <X_u e0, X_w e0> over words u, w of degree <= d in two
    hermitian m x m matrices with entries in Z[i]/6, so that entries
    carry denominators 6^k; grades are the word lengths."""
    def herm():
        return [[Scalar(Rational(c.re, 6), Rational(c.im, 6)) for c in row]
                for row in _hermitian(rng, m, 2)]

    mats = (herm(), herm())
    layer = [((), [Scalar(int(i == 0)) for i in range(m)])]
    vecs = list(layer)
    for _ in range(d):
        layer = [((g,) + w, [sum((M[i][j] * v[j] for j in range(m)),
                                 Scalar(0)) for i in range(m)])
                 for w, v in layer for g, M in enumerate(mats)]
        vecs += layer
    G = [[sum((a.conjugate() * b for a, b in zip(u, v)), Scalar(0))
          for _, v in vecs] for _, u in vecs]
    return G, [len(w) for w, _ in vecs]


def test_reduction_equals_reference_reduction():
    """The fraction-free reduction returns the reference's report in
    full (verdict, pivots, kernel, witness, failure index)."""
    rng = random.Random(26)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 7)
        B = random_scalar_matrix(rng, rng.randint(1, n), n, 1)
        cases.append((_gram(B), [0] * n))                      # PSD, ties
        cases.append((_gram(B), [rng.randint(0, 2) for _ in range(n)]))
        G = _hermitian(rng, n, 1)
        cases.append((G, [0] * n))                             # indefinite
        cases.append((G, [rng.randint(0, 2) for _ in range(n)]))
        # a zero column made nonzero off the diagonal: a zero diagonal
        # entry with a nonzero row
        G = _gram([row[:-1] + [Scalar(0)] for row in B])
        if n > 1:
            j = rng.randrange(n - 1)
            G[n - 1][j] = Scalar(rng.choice((1, -1)), rng.randint(-1, 1))
            G[j][n - 1] = G[n - 1][j].conjugate()
        cases.append((G, [0] * n))
    # (5, 4) is the largest free_xy vector state of gns-build: its Gram
    # entries carry denominators up to 6^8
    for m, d in ((3, 2), (4, 2), (3, 3), (5, 4)):
        cases.append(_vector_state_gram(rng, m, d))
    assert max(x.denominator for s in itertools.chain(*cases[-1][0])
               for x in (s.re, s.im)) % 6 ** 8 == 0
    verdicts = {True: 0, False: 0}
    zero_diagonal_failures = tied = 0
    for G, grades in cases:
        want = reference_hermitian_reduce(G, grades)
        got = graded_hermitian_reduce(G, grades)
        assert got == want
        verdicts[want.psd] += 1
        # a zero-diagonal failure's witness reaches the offending index
        # outside the pivots; a negative diagonal's stays on them
        if not want.psd and any(
                c for r, c in enumerate(want.witness)
                if r != want.failure_index and r not in want.pivots):
            zero_diagonal_failures += 1
        diag = [G[i][i].re for i in range(len(G))]
        tied += diag.count(max(diag)) > 1
    assert min(verdicts.values()) > 50
    assert zero_diagonal_failures > 20 and tied > 50


def test_reduction_and_quads_build_no_fraction(monkeypatch):
    # the exact layers read each Scalar's integer triple: reducing the
    # largest gns-build vector-state Gram, and reading reduced and
    # unreduced quads, construct no fractions.Fraction
    G, grades = _vector_state_gram(random.Random(27), 5, 4)
    quads = [[1, 2, -3, 4], [6, 4, 10, -6], [-3, 1, 5, 1], [0, 7, 0, 3],
             [12, 18, 0, 1], [1, 3, 2, 3]]
    made = []
    new = Rational.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Rational, "__new__", counted)
    report = graded_hermitian_reduce(G, grades)
    scalars = [Scalar.from_quad(q) for q in quads]
    assert made == []
    assert report.psd and len(report.pivots) == 5 and report.kernel
    assert scalars[1] == Scalar(Rational(3, 2), Rational(-5, 3))


def _hankel(rng, n):
    """A full-rank n x n Hankel moment matrix m_(i+j): of the standard
    Gaussian, or of a measure on at least n rational atoms."""
    if rng.random() < 0.3:
        return [[Scalar(gaussian_moment(i + j)) for j in range(n)]
                for i in range(n)]
    xs = rng.sample([Rational(a, b) for a in range(-6, 7) for b in (1, 2, 3)
                     if a % b or b == 1], n + rng.randint(0, 2))
    ws = [Rational(rng.randint(1, 5), rng.randint(1, 4)) for _ in xs]
    return [[Scalar(sum(w * x ** (i + j) for w, x in zip(ws, xs)))
             for j in range(n)] for i in range(n)]


def test_triangle_reduction_equals_reference_reduction():
    """The reduction stores and updates one triangle: the full report
    equals the reference's on real Gram matrices with zero rows, as the
    vacuum state has, on full-rank Hankel tables, which need no kernel
    solve, on complex vector-state Gram matrices, and on zero diagonals
    whose offending column lies before or after their row."""
    rng = random.Random(28)
    cases = []
    for _ in range(80):
        # real, with zero rows and columns
        n = rng.randint(2, 8)
        zero = set(rng.sample(range(n), rng.randint(1, n - 1)))
        B = [[Scalar(0 if j in zero else rng.randint(-2, 2))
              for j in range(n)] for _ in range(rng.randint(1, n))]
        grades = sorted(rng.randint(0, 3) for _ in range(n))
        cases.append(("vacuum", _gram(B), grades))
        # full-rank Hankel
        n = rng.randint(1, 9)
        cases.append(("hankel", _hankel(rng, n),
                      rng.choice(([0] * n, list(range(n))))))
        # a zero diagonal entry r with a nonzero entry at c, on either
        # side; c may be a pivot or open at r's stage
        n = rng.randint(3, 7)
        zero = rng.sample(range(n), rng.randint(1, 3))
        B = [[ZERO if j in zero else _gaussian_rational(rng, "complex")
              for j in range(n)] for _ in range(rng.randint(1, n))]
        G = _gram(B)
        r = zero[0]
        c = rng.choice([j for j in range(n) if j != r])
        G[r][c] = _gaussian_rational(rng, rng.choice(("real", "complex")))
        G[r][c] = G[r][c] or Scalar(1, -1)
        G[c][r] = G[r][c].conjugate()
        cases.append(("zero", G, [rng.randint(0, 2) for _ in range(n)]))
    for m, d in ((2, 2), (3, 2), (2, 3), (4, 2)):
        G, grades = _vector_state_gram(rng, m, d)
        cases.append(("vector", G, grades))
        cases.append(("vector", G, [0] * len(G)))
    sides = {"before": 0, "after": 0}
    for kind, G, grades in cases:
        want = reference_hermitian_reduce(G, grades)
        got = graded_hermitian_reduce(G, grades)
        assert got == want
        if kind == "hankel":
            assert got.psd and len(got.pivots) == len(G) and got.kernel == []
        elif kind == "zero":
            assert not got.psd
            # a zero-diagonal failure's witness reaches the offending
            # column outside the pivots
            i = got.failure_index
            off = [b for b, x in enumerate(got.witness)
                   if x and b != i and b not in got.pivots]
            if off:
                sides["before" if off[0] < i else "after"] += 1
        else:
            assert got.psd and got.kernel
    assert min(sides.values()) > 15


def _with_zero_rows(rng, L, n):
    """L placed on a random set of len(L) indices of an n x n matrix,
    zero elsewhere."""
    at = sorted(rng.sample(range(n), len(L)))
    G = [[ZERO] * n for _ in range(n)]
    for a, i in enumerate(at):
        for b, j in enumerate(at):
            G[i][j] = L[a][b]
    return G


def test_zero_rows_keep_the_reference_report():
    """All-zero rows are null from the start and take no part in the
    elimination: the report, failure index and witness on the full index
    range included, equals the reference's with the zero rows
    interleaved among live parts that fail by a negative diagonal or by
    a zero diagonal with a nonzero entry, that are PSD with complex
    entries, or that are empty."""
    rng = random.Random(31)
    cases = [("empty", [[ZERO] * n for _ in range(n)], [g % 3 for g in
                                                       range(n)])
             for n in (1, 4, 7)]
    for _ in range(40):
        n = rng.randint(4, 10)
        m = rng.randint(2, n - 1)
        # grades cover every stage, so zero rows sit at each of them
        grades = [rng.randint(0, 3) for _ in range(n)]
        B = random_scalar_matrix(rng, rng.randint(1, m), m, 2)
        cases.append(("psd", _with_zero_rows(rng, _gram(B), n), grades))
        L = _hermitian(rng, m, 2)
        L[0][0] = Scalar(-rng.randint(1, 3))
        cases.append(("negative", _with_zero_rows(rng, L, n), grades))
        B = [[ZERO] + [_gaussian_rational(rng, "complex")
                       for _ in range(m - 1)] for _ in range(m)]
        L = _gram(B)
        c = rng.randrange(1, m)
        L[0][c] = Scalar(rng.randint(1, 2), rng.choice((-1, 1)))
        L[c][0] = L[0][c].conjugate()
        cases.append(("zero", _with_zero_rows(rng, L, n), grades))
    kinds = dict.fromkeys(("empty", "psd", "negative", "zero"), 0)
    for kind, G, grades in cases:
        want = reference_hermitian_reduce(G, grades)
        got = graded_hermitian_reduce(G, grades)
        assert got == want
        zero = [i for i, row in enumerate(G) if not any(row)]
        assert zero and not set(zero) & set(got.pivots)
        if got.psd:
            for i in zero:
                assert [ONE if j == i else ZERO for j in range(len(G))] \
                    in got.kernel
        else:
            assert got.failure_index not in zero
            assert not any(got.witness[i] for i in zero)
        kinds[kind] += got.psd == (kind in ("empty", "psd"))
    assert min(kinds.values()) >= 3 and kinds["zero"] > 20
    assert kinds["negative"] > 20


def test_quadratic_form_known_value():
    G = [[Scalar(2), IMAG], [-IMAG, Scalar(2)]]
    x = [Scalar(1), IMAG]
    # by hand: 2 + (1)(i)(i) + (-i)(-i)(1) + (-i)(2)(i) = 2 - 1 - 1 + 2 = 2
    assert hermitian_quadratic_form(G, x) == Scalar(2)
