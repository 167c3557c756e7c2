"""GNS construction from an exact moment table.

The Gram matrix on words of degree at most d is built exactly and
reduced by exact graded hermitian pivoting, fraction-free over the
Gaussian integers, which certifies positivity, yields the null ideal,
and selects a pivot set that is nested along the degree filtration.
The moment table keeps that reduction, so a state whose axioms were
checked is not reduced a second time here.  Entries that the weight
grading proves zero are never evaluated, nor are the rows of words that
end in a generator the state kills, and the all-zero Gram rows (15 of 21
for the oscillator vacuum at degree 5) are null from the start and take
no part in the elimination.  The generator entries are read
off the Gram rows, and are orthonormalized on the certified-positive
pivot block in floating point.

Truncation convention: generator matrices map the degree-(d-1) block
into the degree-d block, so adjoint identities are only claimed on the
inner window; the top layer is unfaithful because multiplication raises
degree.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement
from .errors import DegreeOverflow, InsufficientDegree, StateAxiomError
from .scalars import ZERO
from .states import MomentFunctional


class GnsRepresentation:
    """Generator matrices on the compressed quotient of a moment table.

    words        pivot words, in nested (degree-graded) order
    ranks        ranks[g] = dim of the quotient spanned by words of
                 degree <= g; gram_rank = ranks[degree]
    basis        upper triangular change of basis: orthonormal vector j is
                 sum_i basis[i, j] * [pivot word i]
    matrices     generator name -> (gram_rank x ranks[degree-1]) matrix
    cyclic       coordinates of the class [1]
    kernel       exact elements spanning the null ideal at degree <= d
    """

    def __init__(self, functional, words, ranks, basis, matrices, cyclic,
                 kernel):
        self.functional = functional
        self.presentation = functional.presentation
        self.degree = functional.degree
        self.words = words
        self.ranks = tuple(ranks)
        self.basis = basis
        self.matrices = matrices
        self.cyclic = cyclic
        self.kernel = tuple(kernel)

    @property
    def gram_rank(self) -> int:
        return self.ranks[-1]

    @property
    def inner_rank(self) -> int:
        return self.ranks[self.degree - 1]

    def matrix(self, gen_name: str) -> np.ndarray:
        return self.matrices[gen_name]

    def window(self, gen_name: str) -> np.ndarray:
        """The square inner block of a generator matrix."""
        r = self.inner_rank
        return self.matrices[gen_name][:r, :]

    def adjoint_defect(self, gen_name: str) -> float:
        """Spectral-norm gap between the window of the adjoint generator
        and the conjugate transpose of the generator's window."""
        return float(np.linalg.norm(_adjoint_gap(
            self.presentation, self.matrices, self.inner_rank, gen_name), 2))

    def apply_word(self, word) -> np.ndarray:
        """Coordinates of pi(word) applied to the cyclic vector.

        The word must have degree <= degree-1 so every intermediate stays
        inside the faithful inner block.
        """
        word = self.presentation.as_word(word)
        if len(word) > self.degree - 1:
            raise InsufficientDegree(
                "word of degree %d leaves the inner block (max %d)"
                % (len(word), self.degree - 1))
        r_in = self.inner_rank
        x = np.array(self.cyclic[:r_in], dtype=complex)
        full = np.zeros(self.gram_rank, dtype=complex)
        full[:len(self.cyclic)] = self.cyclic
        for g in reversed(word):
            full = self.matrices[self.presentation.generators[g]] @ x
            x = full[:r_in]
        return full

    def moment(self, word) -> complex:
        """<Omega, pi(word) Omega> for words of degree <= 2*(degree-1),
        computed through the matrices by splitting the word in half."""
        p = self.presentation
        word = p.as_word(word)
        if len(word) > 2 * (self.degree - 1):
            raise InsufficientDegree(
                "word of degree %d is not representable at degree %d"
                % (len(word), self.degree))
        h = (len(word) + 1) // 2
        u = p.dagger_word(word[:h])
        v = word[h:]
        psi_u = self.apply_word(u)
        psi_v = self.apply_word(v)
        return complex(np.vdot(psi_u, psi_v))


def _adjoint_gap(p, matrices, r_in: int, gen_name: str) -> np.ndarray:
    """The window of the adjoint generator minus the conjugate transpose
    of the generator's window, the windows being the first r_in rows."""
    gd_name = p.generators[p.dagger_map[p._gen_index(gen_name)]]
    return matrices[gd_name][:r_in, :] - matrices[gen_name][:r_in, :].conj().T


def generator_entries(f: MomentFunctional, words, cols: int, g: int):
    """Exact F[k][l] = f(w_k' g w_l) for the words w_k and the first cols
    of them, read off the Gram matrix G[u][v] = f(u' v) of f._reduced():
    with NF(g w_l) = sum_y c_y y, F[k][l] = sum_y c_y G[w_k][y], as
    pi(g)[w] = [g w] in the GNS representation (Schmuedgen, Unbounded
    Operator Algebras and Representation Theory, 1990).  The words must
    be basis words of degree <= f.degree, the first cols of them of
    degree < f.degree; rewriting never raises degree, so each y is a
    basis word of degree <= f.degree, a row of G."""
    _, G, _ = f._reduced()
    index = f.presentation.positions(f.degree)
    columns = [[(index[y], c) for y, c in
                f.presentation.normal_form_word((g,) + w).items()]
               for w in words[:cols]]
    F = []
    for w in words:
        row = G[index[w]]
        out = []
        for column in columns:
            acc = ZERO
            for j, c in column:
                if row[j]:
                    acc = acc + c * row[j]
            out.append(acc)
        F.append(out)
    return F


def gns(f: MomentFunctional) -> GnsRepresentation:
    """Build the representation carried by the moment table.

    Exact steps: Gram assembly and graded hermitian reduction (positivity
    verdict, nested pivots, null ideal), both taken from the functional,
    which makes them once, and the generator entries f(w_k' g w_l), read
    off the Gram rows (generator_entries), so f is not evaluated again.
    Floating steps: Cholesky of the pivot block and the generator
    matrices, with invariants holding to 1e-10 on the inner window.
    Raises DegreeOverflow when the certified pivot block is not positive
    definite in float64, or when a generator's adjoint defect on the
    inner window (adjoint_defect) passes 1e-10, as high-degree moment
    matrices can be too ill-conditioned for float64.
    """
    p = f.presentation
    d = f.degree
    all_words, G, report = f._reduced()
    if not report.psd:
        raise StateAxiomError(
            "the moment table is not positive semidefinite "
            "(failure at word %s)" % p.word_str(all_words[report.failure_index]))

    pivots = report.pivots
    r = len(pivots)
    piv_words = tuple(all_words[i] for i in pivots)
    ranks = [sum(1 for w in piv_words if len(w) <= g) for g in range(d + 1)]

    GP = np.array([[G[i][j].to_complex() for j in pivots] for i in pivots],
                  dtype=complex)
    try:
        L = np.linalg.cholesky(GP)
    except np.linalg.LinAlgError:
        raise DegreeOverflow(
            "the certified pivot block (%d words at degree %d) is not "
            "positive definite in float64; lower the degree"
            % (r, d)) from None
    # basis B solves L^H B = I, so B is upper triangular and B^H GP B = I
    B = np.linalg.solve(L.conj().T, np.eye(r, dtype=complex))

    r_in = ranks[d - 1]
    Bsub = B[:r_in, :r_in]
    matrices = {}
    for gi, gen_name in enumerate(p.generators):
        F = np.array([[c.to_complex() for c in row]
                      for row in generator_entries(f, piv_words, r_in, gi)],
                     dtype=complex)
        matrices[gen_name] = B.conj().T @ F @ Bsub
    for gen_name in p.generators:
        gap = _adjoint_gap(p, matrices, r_in, gen_name)
        # the Frobenius norm bounds the spectral one and needs no SVD
        if np.linalg.norm(gap) <= 1e-10:
            continue
        defect = np.linalg.norm(gap, 2)
        if defect > 1e-10:
            raise DegreeOverflow(
                "the generator matrices at degree %d miss the adjoint "
                "identity of %s by %.2g > 1e-10 in float64; lower the degree"
                % (d, gen_name, defect))

    col = np.array([G[pi][0].to_complex() for pi in pivots])
    cyclic = B.conj().T @ col

    # the kernel vectors are over basis words, which are already normal
    kernel = [AlgebraElement(p, {all_words[i]: c for i, c in enumerate(vec)
                                 if c.a or c.b})
              for vec in report.kernel]

    return GnsRepresentation(f, piv_words, ranks, B, matrices, cyclic, kernel)

