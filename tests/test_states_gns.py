"""Moment functionals, state axioms, and the compressed representation."""

import itertools
import math
import random
from fractions import Fraction as Rational

import numpy as np
import pytest

from ores import linalg, states
from ores.algebra import PRESETS, Presentation, load_preset
from ores.errors import InsufficientDegree, StateAxiomError
from ores.gns import generator_entries, gns
from ores.scalars import Scalar
from ores.states import (MomentFunctional, check_state_axioms, dirac_state,
                         double_factorial_moments, from_numeric,
                         gaussian_state)

from oracles import (dense_annihilation, double_factorial, gaussian_moment,
                     hermite_jacobi, naive_normal_form)


def test_double_factorial_recurrence_matches_oracle():
    ms = double_factorial_moments(12)
    for k in range(13):
        assert ms[k] == gaussian_moment(k)
    assert double_factorial(7) == 105
    assert double_factorial(0) == 1


def test_moment_table_validation():
    p = load_preset("poly_x")
    with pytest.raises(InsufficientDegree):
        MomentFunctional(p, 0, {})
    with pytest.raises(InsufficientDegree):
        MomentFunctional(p, 13, {})  # 2*13 exceeds the preset degree cap
    with pytest.raises(StateAxiomError):
        MomentFunctional(p, 1, {(): Scalar(2)})
    # hermitian symmetry needs conj(f(w)) = f(w') ; x is hermitian so
    # f(x) must be real
    with pytest.raises(StateAxiomError):
        MomentFunctional(p, 1, {(): Scalar(1), (0,): Scalar(0, 1)})
    with pytest.raises(StateAxiomError):
        MomentFunctional(p, 1, {(): Scalar(1), (0, 0, 0): Scalar(1)})


def test_evaluate_and_gram_degree_guards():
    p = load_preset("poly_x")
    f = gaussian_state(p, 2)
    x = p.generator("x")
    assert f.evaluate(x ** 4) == Scalar(3)
    with pytest.raises(InsufficientDegree):
        f.evaluate(x ** 5)


def test_gaussian_state_axioms_and_moments():
    p = load_preset("poly_x")
    f = gaussian_state(p, 6)
    x = p.generator("x")
    for k in range(13):
        assert f.evaluate(x ** k) == Scalar(gaussian_moment(k))
    report = check_state_axioms(f)
    assert report.ok
    assert len(report.psd.pivots) == 7


def test_shipped_states_satisfy_axioms():
    for name in ("poly_x", "poly_xy", "heisenberg", "free_xy"):
        p = load_preset(name)
        f = dirac_state(p, 2)
        assert check_state_axioms(f).ok
    p = load_preset("heisenberg")
    assert check_state_axioms(dirac_state(p, 4)).ok


def test_non_psd_table_detected_and_rejected():
    p = load_preset("poly_x")
    f = MomentFunctional(p, 1, {(): Scalar(1), (0,): Scalar(0),
                                (0, 0): Scalar(-1)})
    report = check_state_axioms(f)
    assert not report.psd.psd
    assert not report.ok
    with pytest.raises(StateAxiomError):
        gns(f)


def _naive_value(f, w):
    """f at the word w, read from the table at the normal form given by
    rightmost-redex rewriting."""
    nf = naive_normal_form(f.presentation, {w: Scalar(1)})
    return sum((c * f.table[u] for u, c in nf.items()), Scalar(0))


def _naive_gram(f):
    """The full Gram matrix, every entry read by _naive_value."""
    p = f.presentation
    words = p.basis_words(f.degree)
    return words, [[_naive_value(f, p.dagger_word(wi) + wj) for wj in words]
                   for wi in words]


def _vector_moments(p, mats, degree):
    """<e0, X_w e0> on the words of degree <= 2*degree, as complex
    numbers, for one 2 x 2 matrix per generator."""
    values = {}
    for w in p.basis_words(2 * degree):
        v = np.array([1.0, 0.0], dtype=complex)
        for g in reversed(w):
            v = mats[g] @ v
        values[w] = complex(v[0])
    return values


def _twisted_plane_state(degree):
    """A hermitian table on x, y with y*x = i x*y + (1 - i), a
    dagger-closed rule whose coefficients are neither 1 nor real; the
    table is the symmetrized image of seeded values, not a positive
    state."""
    p = Presentation(("x", "y"), (("x",), ("y",)),
                     ((("y", "x"), ((Scalar(0, 1), ("x", "y")),
                                    (Scalar(1, -1), ()))),), 2 * degree)
    rng = random.Random(12)
    values = {w: complex(rng.randint(-4, 4), rng.randint(-4, 4)) / 4
              for w in p.basis_words(2 * degree)}
    values[()] = 1.0
    return from_numeric(p, degree, values)


def test_gram_equals_naive_rewriting_oracle():
    # every entry, below the diagonal too, so the hermitian fill is
    # compared with an independent normal form rather than assumed
    cases = [dirac_state(load_preset(name), 3)
             for name in ("heisenberg", "poly_x", "poly_xy", "free_xy")]
    cases.append(gaussian_state(load_preset("poly_x"), 4))
    p = load_preset("poly_xy")
    points = ((Rational(1, 2), Rational(-1, 3)), (Rational(2), Rational(1)))
    cases.append(MomentFunctional.from_function(p, 3, lambda w: Scalar(sum(
        math.prod(pt[g] for g in w) for pt in points) / 2)))
    p = load_preset("free_xy")
    mats = (np.array([[1, (1 + 1j) / 2], [(1 - 1j) / 2, -1]]),
            np.array([[0, 1j], [-1j, 0.5]]))
    g = from_numeric(p, 2, _vector_moments(p, mats, 2))
    assert any(c.im for c in g.table.values())
    cases += [g, _twisted_plane_state(3)]
    for f in cases:
        assert f.gram() == _naive_gram(f)


def _first_asymmetric_word(p, table, words):
    """The first of words with conj f(w) != f at the normal form of w'
    given by rightmost-redex rewriting, or None."""
    for w in words:
        nf = naive_normal_form(p, {p.dagger_word(w): Scalar(1)})
        if table[w].conjugate() != sum(
                (c * table[u] for u, c in nf.items()), Scalar(0)):
            return w
    return None


def test_symmetry_error_names_the_first_asymmetric_word():
    # the word the constructor names must be the first whose check
    # fails, whichever word of a pair {w, NF(w')} is broken: where w' is
    # the reversed word (free_xy), where it is mapped through a dagger
    # pair (heisenberg, a coherent state f(ad^m a^n) = conj(z)^m z^n),
    # and where it is rewritten (poly_xy, and the twisted plane, whose
    # NF(w') has several terms)
    p = load_preset("free_xy")
    mats = (np.array([[1, (1 + 1j) / 2], [(1 - 1j) / 2, -1]]),
            np.array([[0, 1j], [-1j, 0.5]]))
    free = from_numeric(p, 2, _vector_moments(p, mats, 2))
    p = load_preset("poly_xy")
    points = ((Rational(1, 2), Rational(-1, 3)), (Rational(2), Rational(1)))
    poly = MomentFunctional.from_function(p, 3, lambda w: Scalar(sum(
        math.prod(pt[g] for g in w) for pt in points) / 2))
    p = load_preset("heisenberg")
    z = Scalar(Rational(1, 2), Rational(-1, 3))
    coherent = MomentFunctional.from_function(
        p, 3, lambda w: math.prod([z.conjugate()] * w.count(0)
                                  + [z] * w.count(1), start=Scalar(1)))
    named_partner = accepted = 0
    for f in (free, coherent, poly, _twisted_plane_state(3)):
        p = f.presentation
        words = p.basis_words(2 * f.degree)
        assert _first_asymmetric_word(p, f.table, words) is None
        for w in words[1:]:
            table = dict(f.table)
            table[w] = table[w] + Scalar(1, 1)
            first = _first_asymmetric_word(p, table, words)
            if first is None:
                # f(w) + 1 + i is still hermitian where NF(w') = -i w
                MomentFunctional(p, f.degree, table)
                accepted += 1
                continue
            with pytest.raises(StateAxiomError) as err:
                MomentFunctional(p, f.degree, table)
            assert str(err.value) == \
                "hermitian symmetry fails at word %s" % p.word_str(first)
            named_partner += first != w
    assert named_partner > 5 and accepted < 5


def test_phi_needs_no_recursion():
    # a^36 ad^36 takes 36^2 leftmost rewrites one below the other; phi
    # reaches it by 36 products a * (normal word), or by 72 from the empty
    # word, and its vacuum expectation is 36!
    gens, pairs, rules, _ = PRESETS["heisenberg"]
    p = Presentation(gens, pairs, rules, 80)
    f = dirac_state(p, 36)
    a, ad = p._word(("a", "ad"))
    assert f.phi((a,) * 36, (ad,) * 36) == Scalar(math.factorial(36))
    assert f.phi((a,) * 36 + (ad,) * 36, ()) == Scalar(math.factorial(36))


def test_phi_memo_is_bounded(monkeypatch):
    # past the limit, values are found afresh and stay exact
    monkeypatch.setattr(states, "_NF_LIMIT", 8)
    for f in (dirac_state(Presentation(*PRESETS["heisenberg"]), 3),
              _twisted_plane_state(3)):
        pres = f.presentation
        normal = pres.basis_words(6)
        for n in range(7):
            for u in itertools.product(range(len(pres.generators)), repeat=n):
                for x in normal[:len(pres.basis_words(6 - n))]:
                    assert f.phi(u, x) == states._at(
                        f.table, pres.normal_form_word(u + x))
                    assert len(f._phi) <= 8
        assert len(f._phi) == 8


def _naive_generator_entries(f, words, cols, g):
    p = f.presentation
    return [[_naive_value(f, p.dagger_word(wk) + (g,) + wl)
             for wl in words[:cols]] for wk in words]


def test_generator_entries_equal_naive_rewriting_oracle():
    # exact f(w_k' g w_l) on every basis word of degree <= d against the
    # first of degree <= d - 1, and, for the positive states, the
    # generator matrices gns() builds on its pivot words
    p = load_preset("free_xy")
    mats = (np.array([[0.5, 1 - 1j], [1 + 1j, 0]]),
            np.array([[-1, 0.25j], [-0.25j, 2]]))
    positive = [dirac_state(load_preset("heisenberg"), 4),
                gaussian_state(load_preset("poly_x"), 5),
                from_numeric(p, 3, _vector_moments(p, mats, 3))]
    for f in positive + [_twisted_plane_state(3)]:
        p = f.presentation
        words = p.basis_words(f.degree)
        cols = len(p.basis_words(f.degree - 1))
        for g in range(len(p.generators)):
            assert generator_entries(f, words, cols, g) == \
                _naive_generator_entries(f, words, cols, g)
    for f in positive:
        rep = gns(f)
        r_in = rep.inner_rank
        B = rep.basis
        for g, name in enumerate(f.presentation.generators):
            F = np.array([[c.to_complex() for c in row] for row in
                          _naive_generator_entries(f, rep.words, r_in, g)])
            assert np.array_equal(rep.matrix(name),
                                  B.conj().T @ F @ B[:r_in, :r_in])


def _matrix_units(cap):
    """M_2(C) by matrix units: e11 hermitian, e21 = e12', the nine rules
    e_ij e_kl -> delta_jk e_il, and e21 e12 -> 1 - e11."""
    unit = {"e11": (1, 1), "e12": (1, 2), "e21": (2, 1)}
    rules = []
    for u, (i, j) in unit.items():
        for v, (k, m) in unit.items():
            if j != k:
                rhs = ()
            elif (i, m) == (2, 2):
                rhs = ((1, ()), (-1, ("e11",)))
            else:
                rhs = ((1, ("e%d%d" % (i, m),)),)
            rules.append(((u, v), rhs))
    return Presentation(("e11", "e12", "e21"), (("e11",), ("e12", "e21")),
                        rules, cap)


def _two_weights(cap):
    """x hermitian, z = y', and z*y -> x: the rule row (-1, 1, 1) leaves
    a two-dimensional kernel."""
    return Presentation(("x", "y", "z"), (("x",), ("y", "z")),
                        ((("z", "y"), ((1, ("x",)),)),), cap)


def _graded_presentations():
    """Every preset, the twisted plane, M_2(C) and _two_weights, with the
    grading each must have, up to sign; None where it is the letter
    counts, and a list of the rule rows where the kernel is not pinned."""
    cases = [(load_preset(name), {"heisenberg": (1, -1)}.get(name))
             for name in PRESETS]
    cases.append((_twisted_plane_state(3).presentation, (1, -1)))
    cases.append((_matrix_units(8), (0, 1, -1)))
    cases.append((_two_weights(8), [(-1, 1, 1)]))
    return cases


def test_every_rule_is_homogeneous_under_the_grading():
    for p, want in _graded_presentations():
        n = len(p.generators)
        if want is None:
            assert p.grading == tuple(
                tuple(int(g == h) for h in range(n)) for g in range(n))
        elif isinstance(want, list):
            # integer vectors in the kernel of the rows, n - rank of
            # them and independent: a basis, whichever one
            rank = np.linalg.matrix_rank(np.array(want))
            assert len(p.grading) == n - rank
            assert np.linalg.matrix_rank(np.array(p.grading)) == n - rank
            for v in p.grading:
                assert all(type(c) is int for c in v)
                assert all(sum(a * c for a, c in zip(row, v)) == 0
                           for row in want)
        else:
            assert p.grading in ((want,), (tuple(-c for c in want),))
        # on M_2(C), e12 * e12 -> 0 adds no row: a row (0, 2, 0) would
        # leave only the zero weighting
        for rule in p.rules:
            for w in rule.rhs:
                assert p.weight(w) == p.weight(rule.lhs)


def test_normal_forms_keep_the_weight():
    rng = random.Random(29)
    for p, _ in _graded_presentations():
        seen = 0
        for _ in range(150):
            w = tuple(rng.randrange(len(p.generators))
                      for _ in range(rng.randint(0, p.degree_cap)))
            nf = p.normal_form_word(w)
            assert all(p.weight(u) == p.weight(w) for u in nf)
            seen += len(nf)
        assert seen > 50


def test_pruned_entries_equal_naive_rewriting_oracle(monkeypatch):
    # Gram matrices and generator entries where the weight grading
    # prunes: the vacuum, a table nonzero at the weights 0 and +-2 only,
    # a state on M_2(C) nonzero at weight 0 only, and a table on
    # _two_weights nonzero at three of its two-integer weights.  Where a
    # generator is killed: the vacuum at degree 9 (a) and the Dirac
    # states on poly_x (x) and poly_xy (x and y).  Nearly killed, where
    # one value alone keeps the generator live: a poly_x table nonzero at
    # 1 and x^(2d) only, read at the last word of the scan, and a
    # heisenberg table nonzero at 1 and ad*a only, where ad is kept live
    # by the reducible word a*ad alone
    p = Presentation(*PRESETS["heisenberg"])
    rng = random.Random(30)
    values = {(): 1.0}
    for w in p.basis_words(8):
        if w and abs(p.weight(w)[0]) in (0, 2):
            values[w] = complex(rng.randint(-4, 4), rng.randint(-4, 4)) / 4
    m2 = _matrix_units(8)
    cases = [dirac_state(Presentation(*PRESETS["heisenberg"]), 6),
             from_numeric(p, 4, values),
             from_numeric(m2, 3, {(): 1.0, ("e11",): 0.75}),
             from_numeric(_two_weights(8), 3,
                          {(): 1.0, ("x",): 0.5, ("y", "z"): 0.25,
                           ("x", "y", "z"): -1.5 + 0.5j}),
             dirac_state(Presentation(*PRESETS["heisenberg"]), 9),
             dirac_state(Presentation(*PRESETS["poly_x"]), 5),
             dirac_state(Presentation(*PRESETS["poly_xy"]), 3),
             from_numeric(Presentation(*PRESETS["poly_x"]), 5,
                          {(): 1.0, ("x",) * 10: 2.0}),
             from_numeric(Presentation(*PRESETS["heisenberg"]), 4,
                          {(): 1.0, ("ad", "a"): 0.5})]
    assert {abs(p.weight(w)[0]) for w, c in cases[1].table.items()
            if c} == {0, 2}
    killed = [f._killed_generators() for f in cases]
    assert killed[4:] == [{1}, {0}, {0, 1}, set(), set()]
    calls = []
    phi = MomentFunctional.phi

    def counted(self, u, x):
        calls.append(u + x)
        return phi(self, u, x)

    monkeypatch.setattr(MomentFunctional, "phi", counted)
    for f in cases:
        p = f.presentation
        words = p.basis_words(f.degree)
        cols = len(p.basis_words(f.degree - 1))
        calls.clear()
        assert f.gram() == _naive_gram(f)
        assert len(calls) < len(words) ** 2
        for g in range(len(p.generators)):
            assert generator_entries(f, words, cols, g) == \
                _naive_generator_entries(f, words, cols, g)


def test_gns_reads_f_only_through_the_gram_matrix(monkeypatch):
    # the generator entries are the Gram rows times left multiplication
    # by g, so once the Gram matrix is built gns() evaluates f nowhere
    p = load_preset("free_xy")
    mats = (np.array([[0.5, 1 - 1j], [1 + 1j, 0]]),
            np.array([[-1, 0.25j], [-0.25j, 2]]))
    cases = [dirac_state(Presentation(*PRESETS["heisenberg"]), 6),
             gaussian_state(Presentation(*PRESETS["poly_x"]), 5),
             from_numeric(p, 3, _vector_moments(p, mats, 3))]
    for f in cases:
        f._reduced()
    calls = []
    phi = MomentFunctional.phi

    def counted(self, u, x):
        calls.append(u + x)
        return phi(self, u, x)

    monkeypatch.setattr(MomentFunctional, "phi", counted)
    for f in cases:
        assert gns(f).gram_rank > 1
    assert calls == []


def test_vacuum_work_stays_on_the_live_weights(monkeypatch):
    # the degree-9 vacuum Gram has 10 nonzero rows of 55: its axiom
    # check and GNS build evaluate few entries, and the elimination
    # never holds a zero row
    seen = []
    step = linalg._bareiss_step

    def counted(rows, t, prev):
        seen.append(len(rows))
        return step(rows, t, prev)

    monkeypatch.setattr(linalg, "_bareiss_step", counted)
    f = dirac_state(Presentation(*PRESETS["heisenberg"]), 9)
    assert check_state_axioms(f).ok
    rep = gns(f)
    assert rep.gram_rank == 10 and len(rep.kernel) == 45
    assert len(f._phi) <= 200
    assert seen and max(seen) <= 10


def test_gram_evaluates_no_entry_of_a_killed_word(monkeypatch):
    # the vacuum kills a, so at degree 9 the Gram build makes no
    # top-level phi call for a row or a column whose word ends in a, and
    # those rows are zero
    p = Presentation(*PRESETS["heisenberg"])
    f = dirac_state(p, 9)
    a = p._word(("a",))
    top = []
    depth = [0]
    phi = MomentFunctional.phi

    def counted(self, u, x):
        if not depth[0]:
            top.append((p.dagger_word(u), x))
        depth[0] += 1
        try:
            return phi(self, u, x)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(MomentFunctional, "phi", counted)
    words, G = f.gram()
    assert top
    assert all(w[-1:] != a and x[-1:] != a for w, x in top)
    assert all(not any(G[i]) for i, w in enumerate(words) if w[-1:] == a)


def test_constructor_rewrites_only_reducible_dagger_words(monkeypatch):
    # every dagger word of the heisenberg vacuum (ad^j a^k to ad^k a^j)
    # and of a free_xy table is a basis word, read from the table without
    # rewriting; on poly_xy the dagger of x*y is y*x, which is rewritten
    heis = Presentation(*PRESETS["heisenberg"])
    free = Presentation(*PRESETS["free_xy"])
    poly = Presentation(*PRESETS["poly_xy"])
    mats = (np.array([[0.5, 1 - 1j], [1 + 1j, 0]]),
            np.array([[-1, 0.25j], [-0.25j, 2]]))
    values = _vector_moments(free, mats, 3)
    calls = []
    nf = Presentation.normal_form_word

    def counted(self, w):
        calls.append(w)
        return nf(self, w)

    monkeypatch.setattr(Presentation, "normal_form_word", counted)
    dirac_state(heis, 5)
    from_numeric(free, 3, values)
    assert calls == []
    dirac_state(poly, 3)
    assert calls


def test_gaussian_gns_structure():
    p = load_preset("poly_x")
    rep = gns(gaussian_state(p, 6))
    assert rep.ranks == (1, 2, 3, 4, 5, 6, 7)
    assert rep.gram_rank == 7
    assert rep.inner_rank == 6
    assert rep.kernel == ()
    J = rep.window("x")
    assert np.max(np.abs(J - hermite_jacobi(6))) <= 1e-10
    assert rep.adjoint_defect("x") <= 1e-10
    # the cyclic vector is the first orthonormal basis vector
    e0 = np.zeros(7, dtype=complex)
    e0[0] = 1.0
    assert np.linalg.norm(rep.cyclic - e0) <= 1e-10


def test_gaussian_gns_moment_recovery():
    p = load_preset("poly_x")
    rep = gns(gaussian_state(p, 6))
    for k in range(11):
        word = (0,) * k
        assert abs(rep.moment(word) - gaussian_moment(k)) <= 1e-10
    with pytest.raises(InsufficientDegree):
        rep.moment((0,) * 11)


def test_fock_gns_recovers_truncated_oscillator():
    p = load_preset("heisenberg")
    rep = gns(dirac_state(p, 6))
    assert rep.gram_rank == 7
    assert rep.ranks == (1, 2, 3, 4, 5, 6, 7)
    # null ideal is nontrivial: any word containing the annihilator
    # kills the vacuum
    assert len(rep.kernel) > 0
    for el in rep.kernel:
        assert rep.functional.evaluate(el.dagger() * el) == Scalar(0)
    A = rep.window("a")
    assert np.max(np.abs(A - dense_annihilation(6))) <= 1e-10
    assert np.max(np.abs(rep.window("ad") - dense_annihilation(6).conj().T)) \
        <= 1e-10
    assert rep.adjoint_defect("a") <= 1e-10
    assert rep.adjoint_defect("ad") <= 1e-10
    assert abs(rep.moment(("a", "ad")) - 1.0) <= 1e-12
    assert abs(rep.moment(("ad", "a"))) <= 1e-12


def test_dirac_gns_is_evaluation_at_origin():
    p = load_preset("poly_xy")
    rep = gns(dirac_state(p, 3))
    assert rep.gram_rank == 1
    assert np.allclose(rep.matrix("x"), 0.0)
    assert np.allclose(rep.matrix("y"), 0.0)


def test_point_evaluation_on_commuting_variables():
    # the dagger of x*y is y*x, whose normal form is x*y: hermitian
    # symmetry compares f(x*y)* with f(x*y), not with a missing entry
    from fractions import Fraction as Rational
    p = load_preset("poly_xy")
    point = (Rational(1, 2), Rational(1, 3))

    def at_point(w):
        return Scalar(math.prod(point[g] for g in w))

    f = MomentFunctional.from_function(p, 3, at_point)
    report = check_state_axioms(f)
    assert report.ok
    rep = gns(f)
    assert rep.gram_rank == 1
    for names in (("x",), ("y",), ("x", "y"), ("x", "x", "y"), ("y", "y")):
        want = float(at_point(p._word(names)).re)
        assert abs(rep.moment(names) - want) <= 1e-12
    g = from_numeric(p, 2, {w: float(at_point(w).re)
                            for w in p.basis_words(4)})
    assert g.table == MomentFunctional.from_function(p, 2, at_point).table


def test_from_numeric_snapping():
    p = load_preset("poly_x")
    f = from_numeric(p, 2, {(): 1.0, (0, 0): 1.0000000000001,
                            (0, 0, 0, 0): 3.0})
    assert f.table[(0, 0)] == Scalar(1)
    assert f.table[(0, 0, 0, 0)] == Scalar(3)
    with pytest.raises(StateAxiomError):
        # 1/3 is the nearest snap, 1.0e-8 away
        from_numeric(p, 1, {(): 1.0, (0,): 1 / 3 + 1e-8})


def _snap_inputs(rng):
    """Seeded floats for the snap: signed zeros, subnormals, integers,
    values near and far past the float range's ends, ratios with
    denominators near 10**6, and random magnitudes."""
    xs = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
          1e300, -1e300, 1.7976931348623157e308, 0.5, -1 / 3, 2 ** 53 + 1.0]
    xs += [float(rng.randint(-10 ** 6, 10 ** 6)) for _ in range(500)]
    for _ in range(3000):
        d = rng.choice((rng.randint(999_000, 1_001_000),
                        rng.randint(1, 10 ** 7)))
        xs.append(rng.randint(-3 * d, 3 * d) / d)
    for _ in range(3000):
        xs.append(rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 300))
    for _ in range(3000):
        a, b = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
        xs.append(a / b + rng.choice((-1, 1)) * rng.random() * 1e-12)
    xs += [-x for x in xs[:1000]]
    return xs


def test_snap_equals_limit_denominator(monkeypatch):
    rng = random.Random(32)
    xs = _snap_inputs(rng)
    assert len(xs) >= 10_000
    for x in xs:
        r = Rational(x).limit_denominator(10 ** 6)
        assert states._snap(x) == (r.numerator, r.denominator), x
    # no float lies halfway between the two candidates at 10**6, but
    # at a power-of-two limit L, (2k + 1) / (2L) can: limit_denominator
    # then keeps the convergent
    ties = 0
    for limit in (1, 2, 4, 64, 1024, 2 ** 19):
        monkeypatch.setattr(states, "_SNAP_DENOMINATOR", limit)
        for k in range(-40, 40):
            x = (2 * k + 1) / (2 * limit) + rng.randint(-3, 3)
            r = Rational(x).limit_denominator(limit)
            assert states._snap(x) == (r.numerator, r.denominator), x
            ties += (2 * Rational(x) - r).denominator <= limit
    assert ties > 100


def test_from_numeric_builds_no_fraction(monkeypatch):
    # an atomic table snaps and symmetrizes in integers
    p = load_preset("poly_x")
    atoms = ((Rational(-3, 2), Rational(1, 3)),
             (Rational(1, 2), Rational(1, 6)), (Rational(2), Rational(1, 2)))
    values = {(0,) * j: float(sum(w * x ** j for x, w in atoms))
              for j in range(9)}
    made = []
    new = Rational.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Rational, "__new__", counted)
    f = from_numeric(p, 4, values)
    assert made == []
    assert f.table[(0, 0)] == Scalar(sum(w * x * x for x, w in atoms))


def test_from_numeric_rejects_non_finite_values():
    p = load_preset("poly_x")
    for bad in (math.nan, math.inf, -math.inf, complex(0.5, math.nan)):
        with pytest.raises(StateAxiomError, match="at word x is not finite"):
            from_numeric(p, 1, {(): 1.0, (0,): bad, (0, 0): 1.0})
    with pytest.raises(StateAxiomError, match="at word x\\*x is not"):
        from_numeric(p, 1, {(): 1.0, ("x", "x"): math.inf})


def test_from_numeric_refuses_words_outside_the_table():
    # a word past degree 2d, or one that is not normal, is refused as
    # MomentFunctional refuses it, not dropped
    for name, word in (("poly_x", (0, 0, 0)), ("poly_xy", ("y", "x"))):
        p = load_preset(name)
        with pytest.raises(StateAxiomError, match="non-basis words"):
            from_numeric(p, 1, {(): 1.0, word: 5.0, (0, 0): 2.0})


def test_from_numeric_symmetrizes():
    p = load_preset("heisenberg")
    # ad*a is hermitian, so its moment is symmetrized to the real part
    vals = {(): 1.0, ("ad", "a"): 0.25 + 0.5j}
    f = from_numeric(p, 1, vals)
    from fractions import Fraction as Rational
    assert f.table[p._word(("ad", "a"))] == Scalar(Rational(1, 4))
    # hermitian symmetry holds exactly after the bridge
    for w, c in f.table.items():
        assert c.conjugate() == f.table[p.dagger_word(w)]
