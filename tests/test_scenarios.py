"""End-to-end scenario checks: config validation, report structure,
pass status, and byte-level determinism of repeated runs.

The heavy lifting (running every scenario twice) happens once per
session in the shared fixtures from conftest.
"""

import hashlib

from ores.errors import ConfigError
from ores.files import canonical_json
from ores.scenarios import (SCENARIOS, ScenarioConfig, run_scenario,
                            write_scenario_report)

import pytest

EXPECTED_ITEM_IDS = {
    "ore-axioms": {
        "axioms_poly_x", "axioms_heisenberg",
        "eq_amplified_poly_x", "eq_amplified_heisenberg",
        "embedding_poly_x", "embedding_poly_xy", "embedding_heisenberg",
        "embedding_free_xy",
        "remark_mult_poly_x", "remark_mult_heisenberg",
    },
    "involution-proposition": {
        "poly_x_antilinear", "poly_x_antimult", "poly_x_involutive",
        "heisenberg_antilinear", "heisenberg_antimult",
        "heisenberg_involutive",
    },
    "cofinality": {
        "squares_poly_x", "squares_poly_xy", "squares_heisenberg",
        "squares_free_xy",
        "chains_poly_x", "chains_poly_xy", "chains_heisenberg",
        "chains_free_xy",
    },
    "gaussian-gns": {
        "rank", "jacobi_window", "moment_recovery", "adjoint_window",
        "cyclic_vector",
    },
    "fock-integrability": {
        "gns_adjoint_window", "inversion_number_operator",
        "inversion_poly_shift",
        "surjectivity_1+N", "surjectivity_1+N_squared",
        "surjectivity_1+N_times_field",
        "factorization_1+N", "factorization_1+N_squared",
        "factorization_1+N_times_field",
    },
    "extend-representation": {
        "annihilator_over_number", "witness_route_agreement",
    },
}


def test_config_rejects_bad_types_and_ranges():
    for bad in ({"seed": -1}, {"solve_tol": 0.0}, {"probe_tol": -1e-8},
                {"max_degree": -2}):
        with pytest.raises((ConfigError, ValueError)):
            ScenarioConfig(**bad).validate()


def test_budget_mirrors_config():
    b = ScenarioConfig(max_factors=3, max_degree=4).budget()
    assert (b.max_factors, b.max_degree) == (3, 4)


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        run_scenario("no-such-scenario", ScenarioConfig())


def test_registry_matches_expectations():
    assert set(SCENARIOS) == set(EXPECTED_ITEM_IDS)


def test_all_scenarios_pass(scenario_reports):
    for name, report in scenario_reports.items():
        assert report["scenario"] == name
        assert report["seed"] == 0
        assert report["pass"] is True, (
            "%s failed items: %s"
            % (name, [it["id"] for it in report["items"] if not it["pass"]]))
        ids = [it["id"] for it in report["items"]]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        assert set(ids) == EXPECTED_ITEM_IDS[name]
        assert report["budget"] == {"max_factors": 2, "max_degree": 2,
                                    "degree_slack": 0,
                                    "regularity_depth": 2}


def test_witness_counts_are_reported(scenario_reports):
    report = scenario_reports["ore-axioms"]
    by_id = {it["id"]: it for it in report["items"]}
    exact = by_id["axioms_poly_x"]
    assert exact["found"] == exact["checked"] > 0
    budgeted = by_id["axioms_heisenberg"]
    assert 0 < budgeted["found"] <= budgeted["checked"]
    assert budgeted["violations"] == 0


def test_repeated_runs_are_byte_identical(scenario_runs):
    for name, (first, second) in scenario_runs.items():
        assert canonical_json(first) == canonical_json(second), name


# sha256 of canonical_json of each report.  A change that must alter a
# report updates its value here and says why in CHANGES.md.
REPORT_SHA256 = {
    "cofinality":
        "a7c02186b84e476987e22b7278aa141b2fa98a8cc78db7dcaeb550418449054c",
    "extend-representation":
        "07a2c9b9df2dec3ea8af77fa4f8b0f191c4491ec063ea9a85a2ee36c693624fe",
    "fock-integrability":
        "d2b66a3088868804dff426f67a894dcdf48553f4b3c5ae99b19f5807ad19add0",
    "gaussian-gns":
        "4d007ebf7937ed15f9cd0838955bc0250a9ec33a6b14df0f38c9186ecd81bfc2",
    "involution-proposition":
        "d64e8eee35233c78a88934d373c4d311ad12401414a94e38346d20f61de7a68b",
    "ore-axioms":
        "2909c1b99190fd644aff625494d7f6847710020680a4f43ccf42a301d400e521",
}


def test_reports_match_pinned_hashes(scenario_runs):
    got = {name: hashlib.sha256(
               canonical_json(first).encode("utf-8")).hexdigest()
           for name, (first, _) in scenario_runs.items()}
    assert got == REPORT_SHA256


def test_write_scenario_report(tmp_path, scenario_reports):
    report = scenario_reports["cofinality"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    ja, ta = write_scenario_report(report, str(out_a), generated="T0")
    jb, tb = write_scenario_report(report, str(out_b), generated="T0")
    assert ja.endswith("cofinality.json")
    assert ta.endswith("cofinality.txt")
    with open(ja) as fh:
        assert fh.read() == canonical_json(report)
    with open(ta) as fh:
        text = fh.read()
    assert text.startswith("# generated: T0\n")
    with open(jb) as fh:
        assert fh.read() == canonical_json(report)
    with open(tb) as fh:
        assert fh.read() == text
