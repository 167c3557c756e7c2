"""Banded operators on square-summable sequences: calculus, inversion,
probes, and fraction extension."""

import math
import random
import warnings
from fractions import Fraction as Rational

import numpy as np
import pytest

from ores.algebra import load_preset, random_element
from ores.errors import (ConfigError, FormulaDomainError,
                         OreWitnessNotFound, PresentationError,
                         TruncationLimit)
from ores.formulas import CPoly, Formula, QPoly
from ores.localization import (Fraction, SProduct, frac_add, frac_dagger,
                                frac_mul)
from ores.operators import (SIZE_CAP, BandedOperator, FockAssignment, _gap,
                            chain_solve, core_density_probe, extend_representation,
                            fock_assignment,
                            invert_one_plus_AstarA, lemma_pis_equals_S_check,
                            one_plus_AstarA, pi_s_surjectivity_probe,
                            sproduct_operator)
from ores.scalars import IMAG, Scalar

import ores.formulas
import ores.operators
from oracles import (dense_annihilation, dense_apply, dense_creation,
                     dense_matrix, dense_one_plus_AstarA_solve)


def _basis(n, length=None):
    v = np.zeros(length or (n + 1), dtype=complex)
    v[n] = 1.0
    return v


def _random_operator(rng):
    terms = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-2, 2)
        if rng.random() < 0.5:
            f = Formula.poly([rng.randint(-2, 2) for _ in range(2)])
        else:
            f = Formula.sqrt(QPoly.of(rng.randint(0, 3), rng.randint(0, 2))) \
                .scale(Scalar(rng.randint(-2, 2), rng.randint(-1, 1)))
        terms.append(BandedOperator.weighted_shift(k, f))
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def test_shift_generators_against_dense_oracles():
    A = BandedOperator.annihilation()
    C = BandedOperator.creation()
    assert np.array_equal(A.matrix(7), dense_annihilation(7))
    assert np.array_equal(C.matrix(7), dense_creation(7))
    # actions on basis vectors, including the boundary
    assert np.allclose(A.apply(_basis(3, 6)),
                       math.sqrt(3.0) * _basis(2, 6))
    assert np.allclose(A.apply(_basis(0, 4)), np.zeros(4))
    out = C.apply(_basis(2, 3))
    assert len(out) == 4
    assert abs(out[3] - math.sqrt(3.0)) == 0.0


def test_apply_matches_dense_matrix():
    rng = random.Random(71)
    for _ in range(25):
        op = _random_operator(rng)
        L = rng.randint(1, 8)
        xi = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for _ in range(L)])
        got = op.apply(xi)
        N = len(got)
        want = dense_apply(op, xi, N)
        assert np.allclose(got, want[:len(got)], atol=1e-12)
        assert np.array_equal(op.matrix(6), dense_matrix(op, 6))


def test_adjoint_is_exact_on_matrices():
    rng = random.Random(72)
    for _ in range(20):
        op = _random_operator(rng)
        adj = op.adjoint()
        assert np.array_equal(adj.matrix(8), op.matrix(8).conj().T)
        assert adj.adjoint() == op


def test_adjoint_antihomomorphism_as_data():
    A = BandedOperator.annihilation()
    C = BandedOperator.creation()
    D = BandedOperator({0: Formula.poly([1, 1])})
    assert A.adjoint() == C
    assert C.adjoint() == A
    assert (A * D).adjoint() == D.adjoint() * C
    assert (A + C.scale(IMAG)).adjoint() == C + A.scale(-IMAG)


def test_number_operator_identities():
    A = BandedOperator.annihilation()
    C = BandedOperator.creation()
    N = BandedOperator({0: Formula.poly([0, 1])})
    assert C * A == N
    assert A * C == BandedOperator({0: Formula.poly([1, 1])})
    # the canonical commutation relation holds as band data
    assert A * C - C * A == BandedOperator.identity()


def test_product_refuses_terms_on_missing_rows():
    # A*A with weight 1+2n keeps (2n-1)^2 at row 0, where A has no row -1:
    # the dense (0,0) entry of 1 + A*A is 1, the symbolic one would be 2
    bad = BandedOperator.weighted_shift(1, Formula.poly([1, 2]))
    with pytest.raises(FormulaDomainError):
        one_plus_AstarA(bad)
    # weight 1+n gives n^2, which vanishes at row 0
    A = BandedOperator.weighted_shift(1, Formula.poly([1, 1]))
    N = 12
    Ad = dense_matrix(A, N)
    want = np.eye(N, dtype=complex) + Ad.conj().T @ Ad
    assert np.array_equal(one_plus_AstarA(A).matrix(N), want)


def test_operator_equality_and_bandwidth():
    I = BandedOperator.identity()
    assert I == BandedOperator({0: Formula.const(1)})
    assert I.bandwidth == 0
    A = BandedOperator.annihilation()
    assert A.min_offset == 1 and A.max_offset == 1
    B = A + A.adjoint()
    assert B.bandwidth == 1
    assert A - A == BandedOperator.zero()
    assert hash(A) == hash(BandedOperator.annihilation())


def test_fock_assignment_satisfies_relations():
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    assert asg.operator("a") == BandedOperator.annihilation()
    assert asg.operator("ad") == BandedOperator.creation()
    ad = p.generator("ad")
    a = p.generator("a")
    num = asg.operator_of(ad * a + 1)
    assert num == BandedOperator({0: Formula.poly([1, 1])})
    # words evaluate through normal forms: operator of a*ad must agree
    assert asg.operator_of(a * ad) == num


def test_fock_assignment_rejects_broken_ops():
    p = load_preset("heisenberg")
    A = BandedOperator.annihilation()
    C = BandedOperator.creation()
    with pytest.raises(PresentationError):
        FockAssignment(p, {"a": A, "ad": A})
    with pytest.raises(PresentationError):
        FockAssignment(p, {"a": C, "ad": A})
    with pytest.raises(PresentationError):
        fock_assignment(load_preset("poly_x"))


def test_operator_of_matches_dense_composition():
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    rng = random.Random(73)
    from ores.algebra import random_element
    for _ in range(15):
        el = random_element(p, rng, max_degree=3, max_terms=3)
        op = asg.operator_of(el)
        N = 10
        want = np.zeros((N, N), dtype=complex)
        for w, c in el.terms.items():
            M = np.eye(N, dtype=complex)
            for g in w:
                name = p.generators[g]
                M = M @ (dense_annihilation(N) if name == "a"
                         else dense_creation(N))
            want += complex(c.to_complex()) * M
        # compare on the interior where the truncations cannot differ
        inner = N - 4
        assert np.allclose(op.matrix(N)[:inner, :inner],
                           want[:inner, :inner], atol=1e-10)


def test_sproduct_operator_and_factors():
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    a = p.generator("a")
    ad = p.generator("ad")
    f = one_plus_AstarA(asg.operator_of(a))
    assert f == BandedOperator({0: Formula.poly([1, 1])})
    s = SProduct(p, (a, ad))
    prod = sproduct_operator(asg, s)
    assert prod == asg.operator_of(s.value)
    one = sproduct_operator(asg, SProduct.one(p))
    assert one == BandedOperator.identity()


def test_diagonal_inversion_is_float_exact():
    A = BandedOperator.annihilation()
    for n in range(21):
        y = _basis(n)
        res = invert_one_plus_AstarA(A, y, 1e-10)
        want = y.astype(complex) / (1.0 + np.arange(len(y)))
        assert np.array_equal(res.x[:len(y)], want)
        assert not np.any(res.x[len(y):])
        assert res.residual <= 1e-10


def test_banded_inversion_against_dense_oracle():
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    a = p.generator("a")
    ad = p.generator("ad")
    A = asg.operator_of(a + ad)
    y = _basis(0, 6) + 0.5 * _basis(5, 6)
    res = invert_one_plus_AstarA(A, y, 1e-10)
    N4 = 4 * res.truncation_size
    oracle = dense_one_plus_AstarA_solve(A, y, N4)
    M = one_plus_AstarA(A)
    z = M.apply(oracle)
    r = np.zeros(max(len(z), len(y)), dtype=complex)
    r[:len(z)] = z
    r[:len(y)] -= y
    oracle_residual = float(np.linalg.norm(r))
    m = max(len(res.x), N4)
    diff = np.zeros(m, dtype=complex)
    diff[:len(res.x)] = res.x
    diff[:N4] -= oracle
    err = float(np.linalg.norm(diff))
    # both solves carry contraction bounds, so the gap is bounded by the
    # sum of the recomputed residuals
    assert err <= res.residual + oracle_residual
    assert err <= 1e-9


def test_inversion_argument_validation_and_cap():
    A = BandedOperator.annihilation()
    with pytest.raises(ValueError):
        invert_one_plus_AstarA(A, _basis(0), 0.0)
    B = A + A.adjoint()
    with pytest.raises(TruncationLimit):
        invert_one_plus_AstarA(B, np.ones(30), 1e-30)


def test_chain_solve_two_factors():
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    a = p.generator("a")
    ad = p.generator("ad")
    s = SProduct(p, (a, ad))
    y = _basis(2, 8)
    res = chain_solve(asg, s, y, 1e-10)
    assert res.residual <= 1e-10
    assert len(res.truncation_sizes) == 2
    assert len(res.inner_residuals) == 2
    total = sproduct_operator(asg, s)
    v = total.apply(res.x)
    r = np.zeros(max(len(v), len(y)), dtype=complex)
    r[:len(v)] = v
    r[:len(y)] -= y
    assert float(np.linalg.norm(r)) == res.residual
    # trivial chain
    triv = chain_solve(asg, SProduct.one(p), y, 1e-10)
    assert triv.residual == 0.0
    assert np.array_equal(triv.x, y)


def test_a_failed_chain_solves_no_round_twice(monkeypatch):
    # three factors 1 + (a + ad)'(a + ad) on a length-6 vector: the first
    # round's inner residuals, about 5e-16 to 9e-16, already meet the
    # second round's inner tol, so that round would repeat the first and
    # is not solved; the third round's first inner solve reaches the size
    # cap, and the chain reports its own residual, not the inner one
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    q = p.generator("a") + p.generator("ad")
    tols = []
    invert = ores.operators.invert_one_plus_AstarA

    def counted(A, y, tol):
        tols.append(tol)
        return invert(A, y, tol)

    monkeypatch.setattr(ores.operators, "invert_one_plus_AstarA", counted)
    with pytest.raises(TruncationLimit,
                       match=r"^chained residual \S+ did not reach tol 1e-11$"):
        chain_solve(asg, SProduct(p, (q, q, q)), np.ones(6), 1e-11)
    inner = 1e-11 / 30
    assert tols == [inner] * 3 + [inner / 100 / 100]


def test_surjectivity_probe():
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    s = SProduct(p, (p.generator("a"),))
    report = pi_s_surjectivity_probe(asg, s, [_basis(n, 6) for n in range(3)],
                                     1e-8)
    assert report.ok
    assert report.probe == "surjectivity"
    assert len(report.items) == 3
    assert all(item.passed for item in report.items)


def test_lemma_check_routes_agree_bitwise():
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    a = p.generator("a")
    ad = p.generator("ad")
    for params in ((a,), (a, a), (a, a + ad)):
        s = SProduct(p, params)
        report = lemma_pis_equals_S_check(asg, s,
                                          [_basis(n, 9) for n in range(9)])
        assert report.ok
        assert all(item.residual == 0.0 for item in report.items)


def test_lemma_check_gap_pads_with_zeros(monkeypatch):
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    a = p.generator("a")
    s = SProduct(p, (a,))
    plain = ores.operators.sproduct_operator
    monkeypatch.setattr(
        ores.operators, "sproduct_operator",
        lambda asg, s: plain(asg, s) + BandedOperator.weighted_shift(
            -2, Formula.const(1)))
    xi = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    report = lemma_pis_equals_S_check(asg, s, [xi])
    va = asg.operator_of(s.value).apply(xi)
    vb = ores.operators.sproduct_operator(asg, s).apply(xi)
    assert len(vb) == len(va) + 2
    want = np.linalg.norm(np.concatenate([va, np.zeros(2)]) - vb)
    assert not report.items[1].passed
    assert report.items[1].residual == float(want)


def test_core_density_probe():
    # one solve of pi(s) x = xi[:N], N = max(8, len(xi)), and
    # the graph distance of pi(s) x from the whole of xi in the graph
    # norm of the operator of a
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    a, ad = p.generator("a"), p.generator("ad")
    for xi, s, N in ((np.array([1, 0.5, 0.25]), SProduct(p, (a,)), 8),
                     (0.5 ** np.arange(40), SProduct(p, (a, ad)), 40)):
        tol = 1e-6
        report = core_density_probe(asg, a, s, xi, tol)
        assert report.probe == "core_density" and report.ok
        (item,) = report.items
        x = chain_solve(asg, s, xi[:N], tol / 4).x
        diff = _gap(sproduct_operator(asg, s).apply(x), xi)
        dist = (float(np.linalg.norm(diff)) ** 2 + float(
            np.linalg.norm(asg.operator_of(a).apply(diff))) ** 2) ** 0.5
        assert (item.label, item.residual, item.truncation, item.passed) \
            == ("graph_distance", dist, N, True)
    # a chain that cannot reach tol / 4 gives an infinite distance at the
    # size cap
    q = a + ad
    report = core_density_probe(asg, a, SProduct(p, (q, q, q)), np.ones(6),
                                4e-11)
    assert not report.ok
    (item,) = report.items
    assert (item.label, item.residual, item.truncation, item.passed) \
        == ("graph_distance", float("inf"), 4096, False)


def test_core_density_probe_refuses_a_vector_past_the_size_cap():
    # the solves stop at the size cap, so the tail of a longer xi would be
    # measured unsolved and the probe would report FAIL; a xi of exactly
    # SIZE_CAP entries is solved whole
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    a = p.generator("a")
    s = SProduct(p, (a,))
    xi = 0.999 ** np.arange(SIZE_CAP + 1)
    with pytest.raises(ConfigError) as err:
        core_density_probe(asg, a, s, xi, 1e-6)
    assert str(err.value) == ("vector must have at most 4096 entries, the "
                              "solvers' size cap")
    (item,) = core_density_probe(asg, a, s, xi[:SIZE_CAP], 1e-6).items
    assert item.passed and item.truncation == SIZE_CAP


def test_extension_known_value():
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    a = p.generator("a")
    frac = Fraction(a, SProduct(p, (a,)))
    res = extend_representation(asg, frac, _basis(3, 4), 1e-10)
    want = (math.sqrt(3.0) / 4.0) * _basis(2, len(res.vector))
    assert np.linalg.norm(res.vector - want) <= 1e-10
    assert res.witness_found
    assert res.route_gap is not None and res.route_gap <= 1e-8


def test_extension_embedded_element():
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    from ores.localization import embed
    res = extend_representation(asg, embed(p.generator("ad")), _basis(1, 3),
                                1e-10)
    assert res.inverse_residual == 0.0
    want = math.sqrt(2.0) * _basis(2, len(res.vector))
    assert np.linalg.norm(res.vector - want) == 0.0


# -- band sampling -------------------------------------------------------------


def _bits(v):
    return np.asarray(v, dtype=complex).view(np.float64)


def _loop_apply(op, xi):
    """The per-index action: f.eval(n) * xi[n+k] where xi[n+k] != 0."""
    xi = np.asarray(xi, dtype=complex)
    L = len(xi)
    out_len = L + max(0, -op.min_offset)
    out = np.zeros(out_len, dtype=complex)
    for k, f in sorted(op.bands.items()):
        for n in range(max(0, -k), min(out_len, L - k)):
            x = xi[n + k]
            if x:
                out[n] += f.eval(n) * x
    return out


def _panel_bands():
    A = BandedOperator.annihilation()
    C = BandedOperator.creation()
    N = C * A
    field = A + C
    bands = list(one_plus_AstarA(N).bands.values())             # 1 + N^2
    bands += one_plus_AstarA(N * field).bands.values()
    bands += one_plus_AstarA(field).bands.values()
    for w in ([1, 1], [2, 3, 1]):
        shift = BandedOperator.weighted_shift(1, Formula.poly(w))
        bands += one_plus_AstarA(shift).bands.values()
    m3 = QPoly.of(-3, 1)
    return bands + [Formula.poly([1, 2]), _GAUSSIAN, Formula.sqrt(m3 * m3)]


_GAUSSIAN = (Formula.poly([Scalar(Rational(1, 3), Rational(-2, 7)),
                           Scalar(Rational(5, 11), 1)])
             + Formula.sqrt(QPoly.of(Rational(1, 3), Rational(2, 5)))
             .scale(Scalar(Rational(-1, 7), Rational(2, 9))))


# 10^4 n^5 + 1 and 7 + 3 10^6 n^4 pass 2^53 below n = 4000, so they are
# evaluated in Python ints there
_HUGE_RADICAND = Formula.sqrt(QPoly.of(1, 0, 0, 0, 0, 10 ** 4))
_HUGE_AMPLITUDE = Formula.poly([Rational(1, 3), 0, 0, 0, Rational(10 ** 6, 7)])


def test_sampling_is_bit_identical_to_eval(monkeypatch):
    monkeypatch.setattr(ores.formulas, "_SAMPLERS", {})
    assert 7 + 3 * 10 ** 6 * 3999 ** 4 > 2 ** 53
    for f in _panel_bands() + [_HUGE_RADICAND, _HUGE_AMPLITUDE]:
        want = np.array([f.eval(n) for n in range(4000)], dtype=complex)
        # a fresh range, a cached one, and one that extends the prefix
        for lo, hi in ((3, 40), (0, 17), (5, 700), (0, 4000)):
            got = f.eval(lo, hi)
            assert np.array_equal(_bits(got), _bits(want[lo:hi])), (f, lo, hi)
            assert not got.flags.writeable


def test_sampling_bound_with_a_numpy_size(monkeypatch):
    # 1499^6 passes 2^63: the int64 bound must be computed in Python ints
    monkeypatch.setattr(ores.formulas, "_SAMPLERS", {})
    f = Formula.poly([0, 0, 0, 0, 0, 0, 1])
    diag = BandedOperator({0: f}).matrix(np.int64(1500)).diagonal().copy()
    assert np.array_equal(_bits(diag), _bits([f.eval(n) for n in range(1500)]))


def test_sampling_past_the_kept_prefix(monkeypatch):
    monkeypatch.setattr(ores.formulas, "_SAMPLERS", {})
    monkeypatch.setattr(ores.formulas.Sampler, "PREFIX_LIMIT", 64)
    f = _panel_bands()[0]
    want = np.array([f.eval(n) for n in range(200)], dtype=complex)
    for lo, hi in ((0, 50), (10, 200), (0, 60), (0, 200)):
        got = f.eval(lo, hi)
        assert np.array_equal(_bits(got), _bits(want[lo:hi]))
    assert len(ores.formulas._SAMPLERS[f].prefix[0]) == 60


def test_apply_is_bit_identical_to_the_index_loop():
    rng = np.random.default_rng(5)
    A = BandedOperator.annihilation()
    C = BandedOperator.creation()
    N = C * A
    ops = [one_plus_AstarA(N), one_plus_AstarA(N * (A + C)), N * (A + C),
           one_plus_AstarA(BandedOperator.weighted_shift(1, Formula.poly(
               [2, 3, 1]))),
           BandedOperator.weighted_shift(-2, _GAUSSIAN),
           BandedOperator({0: _HUGE_RADICAND}) + A.scale(Scalar(1, 2))]
    for op in ops:
        for L in (1, 2, 9, 300, 3000):
            xi = rng.normal(size=L) + 1j * rng.normal(size=L)
            xi[rng.random(L) < 0.4] = 0.0
            xi[rng.random(L) < 0.1] = -0.0
            xi[rng.random(L) < 0.1] *= 1e-300
            assert np.array_equal(_bits(op.apply(xi)),
                                  _bits(_loop_apply(op, xi)))
        for L in (0, 1, 9, 300):
            for xi in (np.zeros(L, dtype=complex), -np.zeros(L)):
                assert np.array_equal(_bits(op.apply(xi)),
                                      _bits(_loop_apply(op, xi)))


def _domain_message(f, n):
    with pytest.raises(FormulaDomainError) as scalar:
        f.eval(n)
    return str(scalar.value)


def test_sampling_from_above_a_negative_prefix(monkeypatch):
    monkeypatch.setattr(ores.formulas, "_SAMPLERS", {})
    f = Formula.sqrt(QPoly.of(-1, 1))               # sqrt(n - 1)
    want = np.array([f.eval(n) for n in range(1, 30)], dtype=complex)
    got = f.eval(1, 30)
    assert np.array_equal(_bits(got), _bits(want))
    with pytest.raises(FormulaDomainError) as err:
        f.eval(0, 5)
    assert str(err.value) == _domain_message(f, 0)
    # the cached prefix holds the bad index 0; a range above it is fine
    assert np.array_equal(_bits(f.eval(1, 10)),
                          _bits(want[:9]))
    assert np.array_equal(_bits(f.eval(1, 60)[:29]),
                          _bits(want))


def test_apply_skips_negative_radicands_under_zero_inputs(monkeypatch):
    monkeypatch.setattr(ores.formulas, "_SAMPLERS", {})
    op = BandedOperator.weighted_shift(1, Formula.sqrt(QPoly.of(-2, 1)))
    # band +1 reads xi[n+1]; rows 0 and 1 have negative radicands
    xi = np.array([5.0, 0.0, 0.0, 1.0, 2.0], dtype=complex)
    assert np.array_equal(_bits(op.apply(xi)), _bits(_loop_apply(op, xi)))
    xi[2] = 1.0
    with pytest.raises(FormulaDomainError) as err:
        op.apply(xi)
    with pytest.raises(FormulaDomainError) as loop:
        _loop_apply(op, xi)
    assert (str(err.value) == str(loop.value)
            == _domain_message(op.bands.get(1), 1))


def test_domain_error_names_the_first_failing_term(monkeypatch):
    monkeypatch.setattr(ores.formulas, "_SAMPLERS", {})
    # terms in sorted order: sqrt(n - 2), then (n - 4) * sqrt(1/2 - n);
    # both radicands are negative at n = 1, and the second amplitude
    # vanishes at n = 4, the one index where eval does not raise
    f = Formula.sqrt(QPoly.of(-2, 1)) + Formula(
        {QPoly.of(Rational(1, 2), -1): CPoly.from_qpoly(QPoly.of(-4, 1))})
    got = f.eval(4, 5)
    assert np.array_equal(_bits(got), _bits([f.eval(4)]))
    assert _domain_message(f, 1).startswith("radicand QPoly(-2")
    for lo, n in ((0, 0), (1, 1), (2, 2), (3, 3), (4, 5)):
        with pytest.raises(FormulaDomainError) as err:
            f.eval(lo, 9)
        assert str(err.value) == _domain_message(f, n)


# 10^308 n is too large for a float from n = 2; so is the squarefree
# radicand M607 M521 n, a product of two Mersenne primes, from n = 1
@pytest.mark.parametrize("f, first", [
    (Formula.poly([0, 10 ** 308]), 2),
    (Formula.sqrt(QPoly.of(0, (2 ** 607 - 1) * (2 ** 521 - 1))), 1)])
def test_overflow_only_at_requested_rows(monkeypatch, f, first):
    monkeypatch.setattr(ores.formulas, "_SAMPLERS", {})
    with pytest.raises(OverflowError) as scalar:
        f.eval(first)
    want = [f.eval(n) for n in range(first)]
    assert np.array_equal(_bits(f.eval(0, first)), _bits(want))
    with pytest.raises(OverflowError) as err:
        f.eval(0, 6)
    assert str(err.value) == str(scalar.value)
    # band +1 reads xi[n+1]: only row 0 is asked for, then row 2 too
    op = BandedOperator.weighted_shift(1, f)
    xi = np.array([7.0, 1.0, 0.0, 0.0, 0.0], dtype=complex)
    assert np.array_equal(_bits(op.apply(xi)), _bits(_loop_apply(op, xi)))
    xi[3] = 1.0
    with pytest.raises(OverflowError) as err:
        op.apply(xi)
    assert str(err.value) == str(scalar.value)


def test_apply_under_bands_too_large_for_a_float(monkeypatch):
    monkeypatch.setattr(ores.formulas, "_SAMPLERS", {})
    # 10^250 sqrt(M607), about 1.6e341, overflows at every n
    f = Formula.poly([10 ** 250]) * Formula.sqrt(QPoly.of(2 ** 607 - 1))
    with pytest.raises(OverflowError) as scalar:
        f.eval(2)
    op = BandedOperator.weighted_shift(1, f) + BandedOperator.identity()
    # band +1 reads xi[n+1], and every input it reads is zero
    for xi in ([], [3 + 1j], [3 + 1j, 0, -0.0, 0, complex(0, -0.0)],
               np.zeros(40, dtype=complex)):
        xi = np.asarray(xi, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = op.apply(xi)
        assert not np.isnan(got).any()
        assert np.array_equal(_bits(got), _bits(_loop_apply(op, xi)))
    xi = np.array([3.0, 0.0, 0.0, 2.0, 5.0], dtype=complex)
    with pytest.raises(OverflowError) as err:
        op.apply(xi)
    assert str(err.value) == str(scalar.value)


def _count_key_calls(monkeypatch, calls):
    for cls in (Formula, BandedOperator):
        def counted(self, key=cls.key):
            calls.append(type(self).__name__)
            return key(self)
        monkeypatch.setattr(cls, "key", counted)


def test_equal_band_data_hashes_once_and_shares_the_caches(monkeypatch):
    monkeypatch.setattr(ores.formulas, "_SAMPLERS", {})
    monkeypatch.setattr(ores.operators, "_PRODUCTS", {})
    p = load_preset("heisenberg")
    a, ad = p.generator("a"), p.generator("ad")
    A, C = BandedOperator.annihilation(), BandedOperator.creation()
    pairs = [(C * A, fock_assignment(p).operator_of(ad * a)),
             (BandedOperator.weighted_shift(1, Formula.poly([2, 3, 1])),
              BandedOperator.weighted_shift(1, Formula.poly([2, 3, 1])))]
    xi = np.arange(1, 12, dtype=complex)
    for u, v in pairs:
        assert u is not v and u == v
        assert hash(u) == hash(v) == hash(u.key())
        for k, f in u.bands.items():
            assert hash(f) == hash(v.bands[k]) == hash(f.key())
        calls = []
        with monkeypatch.context() as m:
            _count_key_calls(m, calls)
            assert hash(u) == hash(v) == hash(u.key())
        # only the explicit u.key() keys band data
        assert calls == ["BandedOperator"] + ["Formula"] * len(u.bands)
        products = len(ores.operators._PRODUCTS)
        M = one_plus_AstarA(u)
        assert len(ores.operators._PRODUCTS) == products + 1
        assert one_plus_AstarA(v) is M
        assert len(ores.operators._PRODUCTS) == products + 1
        samplers = len(ores.formulas._SAMPLERS)
        want = u.apply(xi)
        assert len(ores.formulas._SAMPLERS) == samplers + len(u.bands)
        assert np.array_equal(_bits(v.apply(xi)), _bits(want))
        assert len(ores.formulas._SAMPLERS) == samplers + len(u.bands)


def test_a_second_chain_solve_keys_no_band_data(monkeypatch):
    monkeypatch.setattr(ores.formulas, "_SAMPLERS", {})
    monkeypatch.setattr(ores.operators, "_PRODUCTS", {})
    p = load_preset("heisenberg")
    a, ad = p.generator("a"), p.generator("ad")
    asg = fock_assignment(p)
    chains = [SProduct(p, (a, a)), SProduct(p, (a, a + ad))]
    y = np.random.default_rng(3).normal(size=40) + 0j
    calls = []
    _count_key_calls(monkeypatch, calls)
    for _ in range(2):
        calls.clear()
        for s in chains:
            assert chain_solve(asg, s, y, 1e-8).residual <= 1e-8
    assert calls == []


def test_operator_layer_caches_are_bounded(monkeypatch):
    monkeypatch.setattr(ores.formulas, "_SAMPLERS", {})
    limit = ores.formulas._SAMPLER_LIMIT
    xi = np.arange(1, 9, dtype=complex)
    for k in range(limit + 20):
        op = BandedOperator.weighted_shift(1, Formula.poly([k, 1]))
        want = np.array([(k + n) * xi[n + 1] for n in range(7)] + [0])
        assert np.array_equal(op.apply(xi), want)
        assert len(ores.formulas._SAMPLERS) <= limit
    p = load_preset("heisenberg")
    a = p.generator("a")
    # a^j shifted by c, for 24 distinct elements over 9 words
    els = [(j, c, p.one().scale(c) + _power(p, a, j)) for j in range(8)
           for c in range(3)]
    reference = [fock_assignment(p).operator_of(el) for _, _, el in els]
    monkeypatch.setattr(ores.operators, "_WORD_LIMIT", 6)
    monkeypatch.setattr(ores.operators, "_ELEMENT_LIMIT", 5)
    asg = fock_assignment(p)
    e5 = _basis(5, 8)
    for (j, c, el), ref in zip(els, reference):
        op = asg.operator_of(el)
        assert op == ref
        want = c * e5
        if j <= 5:
            want = want + math.perm(5, j) ** 0.5 * _basis(5 - j, 8)
        assert np.allclose(op.apply(e5), want, rtol=1e-15, atol=0)
        assert len(asg._word_cache) <= 6
        assert len(asg._el_cache) <= 5


def _power(p, x, j):
    out = p.one()
    for _ in range(j):
        out = out * x
    return out


# -- products of factors 1 + A*A ---------------------------------------------------


def _hand_product(ops):
    out = BandedOperator.identity()
    for A in ops:
        out = out * (BandedOperator.identity() + A.adjoint() * A)
    return out


def _factor_operators():
    """The Fock operators of a, a + ad and a*a, and the shifts of weights
    (1, 1), (2, 2), (1, 2, 1) and (2, 3, 1), each built afresh."""
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    a, ad = p.generator("a"), p.generator("ad")
    ops = [asg.operator_of(el) for el in (a, a + ad, a * a)]
    return ops + [BandedOperator.weighted_shift(1, Formula.poly(w))
                  for w in ((1, 1), (2, 2), (1, 2, 1), (2, 3, 1))]


def test_factor_products_equal_the_hand_built_ones(monkeypatch):
    monkeypatch.setattr(ores.operators, "_PRODUCTS", {})
    for A, fresh in zip(_factor_operators(), _factor_operators()):
        want = BandedOperator.identity() + A.adjoint() * A
        got = one_plus_AstarA(A)
        assert got == want
        assert np.array_equal(_bits(got.matrix(64)), _bits(want.matrix(64)))
        # an equal operator built afresh finds the kept product
        assert fresh is not A and fresh == A
        again = one_plus_AstarA(fresh)
        assert again == want and again is got
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    a, ad = p.generator("a"), p.generator("ad")
    for params in ((a,), (a, a), (a, a + ad)):               # N, N^2, N(a+a')
        s = SProduct(p, params)
        want = _hand_product([asg.operator_of(q) for q in params])
        got = sproduct_operator(asg, s)
        assert got == want
        assert np.array_equal(_bits(got.matrix(64)), _bits(want.matrix(64)))
        assert sproduct_operator(fock_assignment(p), s) is got


def test_factor_product_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(ores.operators, "_PRODUCTS", {})
    monkeypatch.setattr(ores.operators, "_PRODUCT_LIMIT", 2)
    ops = _factor_operators()
    chains = [(ops[0],), (ops[1],), (ops[0], ops[1]), (ops[3], ops[4]),
              (ops[5],)]
    for _ in range(2):
        for chain in chains:
            want = _hand_product(chain)
            if len(chain) == 1:
                assert one_plus_AstarA(chain[0]) == want
            assert ores.operators._factor_product(chain) == want
            assert len(ores.operators._PRODUCTS) <= 2


def test_failed_factor_product_is_not_kept(monkeypatch):
    monkeypatch.setattr(ores.operators, "_PRODUCTS", {})
    bad = BandedOperator.weighted_shift(1, Formula.poly([1, 2]))
    for _ in range(2):
        with pytest.raises(FormulaDomainError):
            one_plus_AstarA(BandedOperator.weighted_shift(
                1, Formula.poly([1, 2])))
        with pytest.raises(FormulaDomainError):
            ores.operators._factor_product(
                (BandedOperator.annihilation(), bad))
    assert ores.operators._PRODUCTS == {}


def test_fraction_arithmetic_agrees_with_the_extended_representation():
    # pi([a, s]) xi = pi(a) pi(s)^-1 xi on the Fock assignment, so the
    # exact fraction layer and the float64 operator layer must agree on
    # products, sums and the involution.  S is not Ore on heisenberg, so
    # a pair without a witness within budget is skipped, never failed;
    # so is a chain whose float64 residual cannot reach the tolerance
    # (three factors 1 + (a + ad)'(a + ad) do not), which the solver
    # reports as TruncationLimit.
    p = load_preset("heisenberg")
    fock = fock_assignment(p)
    a, ad = p.generator("a"), p.generator("ad")
    pool = (a, ad, a + ad)
    rng = random.Random(10)

    def fraction():
        return Fraction(random_element(p, rng, max_degree=2, max_terms=2),
                        SProduct(p, (pool[rng.randrange(3)],)))

    def vector():
        return np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                         for _ in range(6)])

    def pi(f, xi):
        x = chain_solve(fock, f.den, xi, 1e-12).x
        return fock.operator_of(f.num).apply(x)

    def inner(u, v):
        n = min(len(u), len(v))
        return np.vdot(u[:n], v[:n])

    def identity(kind, f, g, xi, eta):
        """The two sides of the identity and the scale of their gap."""
        if kind == "mul":
            lhs, rhs = pi(frac_mul(f, g), xi), pi(f, pi(g, xi))
            return lhs, rhs, np.linalg.norm(rhs)
        if kind == "add":
            lhs, rhs = pi(frac_add(1, f, g), xi), _gap(pi(f, xi), -pi(g, xi))
            return lhs, rhs, np.linalg.norm(rhs)
        fxi = pi(f, xi)
        lhs, rhs = inner(fxi, eta), inner(xi, pi(frac_dagger(f), eta))
        return [lhs], [rhs], np.linalg.norm(fxi) * np.linalg.norm(eta)

    checked = {"mul": 0, "add": 0, "dagger": 0}
    skipped = dict(checked)
    for _ in range(60):
        f, g, xi, eta = fraction(), fraction(), vector(), vector()
        for kind in checked:
            try:
                lhs, rhs, scale = identity(kind, f, g, xi, eta)
            except (OreWitnessNotFound, TruncationLimit):
                skipped[kind] += 1
                continue
            gap = np.linalg.norm(_gap(np.asarray(lhs), np.asarray(rhs)))
            assert gap <= 1e-12 * scale, (kind, gap / scale)
            checked[kind] += 1
    assert min(checked.values()) >= 15, (checked, skipped)
