"""Banded operators on square-summable sequences: calculus, inversion,
probes, and fraction extension."""

import math
import random

import numpy as np
import pytest

from ores.algebra import load_preset
from ores.errors import (FormulaDomainError, PresentationError,
                         TruncationLimit)
from ores.formulas import Formula, QPoly
from ores.localization import Fraction, SProduct
from ores.operators import (BandedOperator, FockAssignment, chain_solve,
                            core_density_probe, extend_representation,
                            fock_assignment,
                            invert_one_plus_AstarA, lemma_pis_equals_S_check,
                            one_plus_AstarA, pi_s_surjectivity_probe,
                            sproduct_operator)
from ores.scalars import IMAG, Scalar

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
    D = BandedOperator.diagonal(Formula.poly([1, 1]))
    assert A.adjoint() == C
    assert C.adjoint() == A
    assert (A * D).adjoint() == D.adjoint() * C
    assert (A + C.scale(IMAG)).adjoint() == C + A.scale(-IMAG)


def test_number_operator_identities():
    A = BandedOperator.annihilation()
    C = BandedOperator.creation()
    N = BandedOperator.diagonal(Formula.poly([0, 1]))
    assert C * A == N
    assert A * C == BandedOperator.diagonal(Formula.poly([1, 1]))
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
    assert I == BandedOperator.diagonal(Formula.const(1))
    assert I.bandwidth == 0
    A = BandedOperator.annihilation()
    assert A.min_offset == 1 and A.max_offset == 1
    B = A + A.adjoint()
    assert B.bandwidth == 1
    assert (A - A).is_zero()
    assert hash(A) == hash(BandedOperator.annihilation())


def test_fock_assignment_satisfies_relations():
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    assert asg.operator("a") == BandedOperator.annihilation()
    assert asg.operator("ad") == BandedOperator.creation()
    ad = p.generator("ad")
    a = p.generator("a")
    num = asg.operator_of(ad * a + 1)
    assert num == BandedOperator.diagonal(Formula.poly([1, 1]))
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
    assert f == BandedOperator.diagonal(Formula.poly([1, 1]))
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
        invert_one_plus_AstarA(B, np.ones(30), 1e-30, size_cap=32)


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


def test_surjectivity_probe():
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    s = SProduct(p, (p.generator("a"),))
    report = pi_s_surjectivity_probe(asg, s, [_basis(n, 6) for n in range(3)],
                                     1e-8)
    assert report.ok
    d = report.as_dict()
    assert d["probe"] == "surjectivity"
    assert d["pass"]
    assert len(d["items"]) == 3
    assert all(item["pass"] for item in d["items"])


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
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    a = p.generator("a")
    xi = np.array([0.5 ** n for n in range(12)], dtype=complex)
    report = core_density_probe(asg, a, SProduct(p, (a,)), xi, 1e-6)
    assert report.ok


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
    quiet = extend_representation(asg, frac, _basis(3, 4), 1e-10,
                                  cross_check=False)
    assert not quiet.witness_found
    assert quiet.route_gap is None
    assert np.array_equal(quiet.vector, res.vector)


def test_extension_embedded_element():
    p = load_preset("heisenberg")
    asg = fock_assignment(p)
    from ores.localization import embed
    res = extend_representation(asg, embed(p.generator("ad")), _basis(1, 3),
                                1e-10)
    assert res.inverse_residual == 0.0
    want = math.sqrt(2.0) * _basis(2, len(res.vector))
    assert np.linalg.norm(res.vector - want) == 0.0
