"""Acceptance gate: ten end-to-end criteria at their stated tolerances.

One test per criterion; the pytest -v status line is the pass/fail
record and each test also prints a one-line summary with the measured
numbers.  Scenario-backed criteria read the session-shared runs from
conftest so every scenario is executed exactly twice per session, which
is what the determinism criterion needs.
"""

import random

import numpy as np

from ores.algebra import load_preset, random_element
from ores.errors import DegreeOverflow
from ores.gns import gns
from ores.localization import (Fraction, SProduct, ore_solve_left,
                               ore_solve_right)
from ores.operators import (extend_representation, fock_assignment,
                            invert_one_plus_AstarA)
from ores.positivity import square_expansion_certificate, verify_certificate
from ores.scalars import Scalar
from ores.states import dirac_state, gaussian_state
from ores.files import canonical_json, render_text_report

from oracles import (gaussian_moment, hermite_jacobi,
                     left_witness_identity_holds, witness_identity_holds)

PRESETS = ("poly_x", "poly_xy", "heisenberg", "free_xy")


def _line(n: int, detail: str):
    print("criterion %02d: PASS  (%s)" % (n, detail))


def _items(report):
    return {it["id"]: it for it in report["items"]}


def test_criterion_01_involution_suite(scenario_reports):
    by_id = _items(scenario_reports["involution-proposition"])
    rates = []
    for tag in ("antilinear", "antimult", "involutive"):
        exact = by_id["poly_x_%s" % tag]
        assert exact["checked"] == 200
        assert exact["found"] == 200
        assert exact["violations"] == 0
        budgeted = by_id["heisenberg_%s" % tag]
        assert budgeted["violations"] == 0
        rates.append("%s %d/%d" % (tag, budgeted["found"],
                                   budgeted["checked"]))
    _line(1, "C[x] 200/200 per law, 0 failures; "
             "Heisenberg found-rates " + ", ".join(rates))


def test_criterion_02_embedding_star_morphism(scenario_reports):
    by_id = _items(scenario_reports["ore-axioms"])
    for preset in PRESETS:
        item = by_id["embedding_%s" % preset]
        assert item["pass"] is True
        assert item["checked"] == 300
        assert item["violations"] == 0
    _line(2, "4 presets x 100 samples x 3 identities, every case decided "
             "equal")


def test_criterion_03_witness_soundness():
    rng = random.Random(2026)
    found = checked = 0
    for preset in PRESETS:
        p = load_preset(preset)
        gens = [p.generator(g) for g in p.generators]
        pool = gens + [gens[0] + (gens[1] if len(gens) > 1 else p.one())]
        for _ in range(16):
            a = random_element(p, rng, max_degree=2, max_terms=2)
            s = SProduct(p, tuple(rng.choice(pool)
                                  for _ in range(rng.randint(0, 1))))
            checked += 1
            try:
                res = ore_solve_right(a, s)
            except DegreeOverflow:
                continue
            if res.found:
                found += 1
                assert witness_identity_holds(a, s, res.witness.b,
                                              res.witness.t)
        for _ in range(8):
            a = random_element(p, rng, max_degree=1, max_terms=2)
            s = SProduct(p, (rng.choice(pool),))
            checked += 1
            try:
                res = ore_solve_left(a, s)
            except DegreeOverflow:
                continue
            if res.found:
                found += 1
                assert left_witness_identity_holds(a, s, res.witness.b,
                                                   res.witness.t)
    assert found >= 40
    _line(3, "%d found witnesses out of %d searches re-verified by naive "
             "expansion, 0 violations" % (found, checked))


def test_criterion_04_cofinality_certificates(scenario_reports):
    by_id = _items(scenario_reports["cofinality"])
    for preset in PRESETS:
        squares = by_id["squares_%s" % preset]
        assert squares["pass"] is True
        assert squares["checked"] == 50
        assert squares["violations"] == 0
        chains = by_id["chains_%s" % preset]
        assert chains["pass"] is True
        assert chains["violations"] == 0
    # the shipped certificate is exactly [(2, b), (1, b'b)]
    rng = random.Random(4)
    for preset in PRESETS:
        p = load_preset(preset)
        b = random_element(p, rng, max_degree=2, max_terms=2)
        cert = square_expansion_certificate(b)
        assert cert.terms == ((Scalar(2), b), (Scalar(1), b.dagger() * b))
        target = (p.one() + b.dagger() * b) ** 2 - p.one()
        assert verify_certificate(target, cert)
    _line(4, "50 squares per preset and all 2-factor chains verified "
             "exactly")


def test_criterion_05_hermite_window_and_moments():
    p = load_preset("poly_x")
    rep = gns(gaussian_state(p, 6))
    W = rep.window("x")
    J = hermite_jacobi(6)
    assert W.shape == (6, 6)
    gap = max(abs(complex(W[i, j]) - J[i][j])
              for i in range(6) for j in range(6))
    assert gap <= 1e-10
    worst = 0.0
    for k in range(11):
        worst = max(worst,
                    abs(rep.moment(("x",) * k) - gaussian_moment(k)))
    assert worst <= 1e-10
    _line(5, "Jacobi window error %.2e, moment recovery error %.2e for "
             "k <= 10" % (gap, worst))


def test_criterion_06_adjoint_windows():
    gauss = gns(gaussian_state(load_preset("poly_x"), 6))
    defects = {"x": gauss.adjoint_defect("x")}
    fock = gns(dirac_state(load_preset("heisenberg"), 6))
    defects["a"] = fock.adjoint_defect("a")
    defects["ad"] = fock.adjoint_defect("ad")
    assert all(d <= 1e-10 for d in defects.values())
    _line(6, "adjoint window defects " + ", ".join(
        "%s=%.2e" % (k, v) for k, v in sorted(defects.items())))


def test_criterion_07_resolvent_inversion(scenario_reports):
    A = fock_assignment(load_preset("heisenberg")).operator("a")
    for n in range(21):
        y = np.zeros(n + 1, dtype=complex)
        y[n] = 1.0
        res = invert_one_plus_AstarA(A, y, 1e-10)
        expected = np.zeros(len(res.x), dtype=complex)
        expected[n] = 1.0 / (1.0 + n)
        assert np.array_equal(res.x, expected)
    by_id = _items(scenario_reports["fock-integrability"])
    shift = by_id["inversion_poly_shift"]
    assert shift["pass"] is True
    assert shift["oracle_error"] <= 1e-9
    assert shift["oracle_error"] <= (shift["residual"]
                                     + shift["oracle_residual"])
    assert by_id["inversion_number_operator"]["pass"] is True
    _line(7, "e_n/(1+n) float-exact for n <= 20; poly shift vs 4x dense "
             "oracle error %.2e within residual bound"
             % shift["oracle_error"])


def test_criterion_08_integrability_probes(scenario_reports):
    by_id = _items(scenario_reports["fock-integrability"])
    residuals = []
    for label in ("1+N", "1+N_squared", "1+N_times_field"):
        surj = by_id["surjectivity_%s" % label]
        assert surj["pass"] is True
        assert surj["targets"] == 6
        assert surj["max_residual"] <= 1e-8
        residuals.append(surj["max_residual"])
        fact = by_id["factorization_%s" % label]
        assert fact["pass"] is True
        assert fact["samples"] == 9
    _line(8, "surjectivity residuals %.2e / %.2e / %.2e on e_0..e_5; "
             "factor products exact on e_0..e_8" % tuple(residuals))


def test_criterion_09_fraction_extension(scenario_reports):
    p = load_preset("heisenberg")
    assignment = fock_assignment(p)
    frac = Fraction(p.generator("a"), SProduct(p, (p.generator("a"),)))
    xi = np.zeros(4, dtype=complex)
    xi[3] = 1.0
    res = extend_representation(assignment, frac, xi, 1e-10)
    expected = np.zeros(len(res.vector), dtype=complex)
    expected[2] = np.sqrt(3.0) / 4.0
    err = float(np.max(np.abs(res.vector - expected)))
    assert err <= 1e-10
    by_id = _items(scenario_reports["extend-representation"])
    agreement = by_id["witness_route_agreement"]
    assert agreement["pass"] is True
    assert agreement["checked"] == 20
    assert agreement["found"] >= 1
    assert agreement["violations"] == 0
    assert agreement["max_gap"] <= 1e-8
    _line(9, "known extension error %.2e; route agreement on %d/%d "
             "witness-found samples, max gap %.2e"
             % (err, agreement["found"], agreement["checked"],
                agreement["max_gap"]))


def test_criterion_10_deterministic_reports(scenario_runs):
    for name, (first, second) in scenario_runs.items():
        assert canonical_json(first) == canonical_json(second), name
        assert render_text_report(first) == render_text_report(second), name
    _line(10, "%d scenarios re-run with seed 0 are byte-identical "
              "(timestamp header excluded)" % len(scenario_runs))
