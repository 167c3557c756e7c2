"""Deterministic end-to-end scenarios with reproducible reports.

Every scenario is a pure function of a ScenarioConfig: all sampling goes
through one random.Random seeded from the config, items are emitted in a
fixed order and sorted by id, and the report dict contains no clocks, so
re-running a scenario with the same seed reproduces the JSON report byte
for byte.  The text rendering adds a single generated-at header line.

Checks that search for Ore witnesses on noncommutative presets report a
found count next to the pass flag: absence of a witness inside the
budget is not a failure, only a found witness that misbehaves is.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

import numpy as np

from . import files
from .algebra import load_preset, random_element, random_scalar
from .errors import ConfigError, DegreeOverflow, OreWitnessNotFound
from .formulas import Formula
from .gns import gns
from .localization import (REGULARITY_DEPTH, EqResult, Fraction, OreBudget,
                           SProduct, embed, eq_fraction, frac_add,
                           frac_dagger, frac_mul, remark_mult_property_check)
from .operators import (BandedOperator, _gap, extend_representation,
                        fock_assignment, invert_one_plus_AstarA,
                        lemma_pis_equals_S_check, one_plus_AstarA,
                        pi_s_surjectivity_probe)
from .positivity import (cofinal_dominator, square_expansion_certificate,
                         verify_certificate)
from .scalars import Scalar
from .states import dirac_state, double_factorial_moments, gaussian_state


_GNS_DEGREE = 6   # truncation degree of the scenarios' GNS builds


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    max_factors: int = 2
    max_degree: int = 2
    solve_tol: float = 1e-10
    probe_tol: float = 1e-8

    def validate(self):
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not (0 < self.solve_tol < np.inf and 0 < self.probe_tol < np.inf):
            raise ConfigError("tolerances must be positive and finite")
        self.budget()

    def budget(self) -> OreBudget:
        """The search budget; OreBudget rejects negative fields."""
        return OreBudget(self.max_factors, self.max_degree)


def _item(item_id: str, ok, **extra) -> dict:
    out = {"id": item_id, "pass": bool(ok)}
    out.update(extra)
    return out


def _report(name: str, cfg: ScenarioConfig, items) -> dict:
    items = sorted(items, key=lambda it: it["id"])
    b = cfg.budget()
    return {
        "scenario": name,
        "seed": cfg.seed,
        "budget": {"max_factors": b.max_factors,
                   "max_degree": b.max_degree,
                   "degree_slack": 0,
                   "regularity_depth": REGULARITY_DEPTH},
        "items": items,
        "pass": all(it["pass"] for it in items),
    }


# -- sampling helpers ----------------------------------------------------------------


def _den_pool(p):
    gens = [p.generator(n) for n in p.generators]
    pool = list(gens)
    if len(gens) >= 2:
        pool.append(gens[0] + gens[1])
    else:
        pool.append(gens[0] + p.one())
    return tuple(pool)


def _random_sproduct(p, rng, pool, max_factors: int,
                     allow_empty: bool = True) -> SProduct:
    lo = 0 if allow_empty else 1
    count = rng.randint(lo, max_factors)
    ps = tuple(pool[rng.randrange(len(pool))] for _ in range(count))
    return SProduct(p, ps)


def _random_fraction(p, rng, pool, max_den_factors: int = 1,
                     max_num_degree: int = 2) -> Fraction:
    num = random_element(p, rng, max_degree=max_num_degree, max_terms=2)
    den = _random_sproduct(p, rng, pool, max_den_factors)
    return Fraction(num, den)


_SEARCH_MISSES = (OreWitnessNotFound, DegreeOverflow)


class _Tally:
    """Counts of one identity battery: cases checked, cases a witness
    decided, and decided cases where the identity failed."""

    def __init__(self):
        self.checked = self.found = self.violations = 0

    def record(self, res):
        """Count one case: an EqResult, or None for a search miss."""
        self.checked += 1
        if res is not None and res.decided:
            self.found += 1
            if not res.equal:
                self.violations += 1

    def item(self, item_id: str, exact: bool) -> dict:
        """The report item; an exact battery must also decide every case."""
        ok = self.violations == 0 and (not exact or self.found == self.checked)
        return _item(item_id, ok, checked=self.checked, found=self.found,
                     violations=self.violations)


def _eq_or_none(f, g, budget):
    try:
        return eq_fraction(f, g, budget)
    except _SEARCH_MISSES:
        return None


# -- ore-axioms ----------------------------------------------------------------------


def _axiom_counts(p, rng, pool, budget, samples: int) -> _Tally:
    """Run the ring/equality axiom battery."""
    tally = _Tally()
    for _ in range(samples):
        f = _random_fraction(p, rng, pool, max_den_factors=1,
                             max_num_degree=2)
        g = _random_fraction(p, rng, pool, max_den_factors=1,
                             max_num_degree=1)
        h = _random_fraction(p, rng, pool, max_den_factors=1,
                             max_num_degree=1)
        lam = random_scalar(rng)
        try:
            tally.record(_eq_or_none(
                frac_mul(frac_mul(f, g, budget), h, budget),
                frac_mul(f, frac_mul(g, h, budget), budget), budget))
            tally.record(_eq_or_none(
                frac_mul(f, frac_add(Scalar(1), g, h, budget), budget),
                frac_add(Scalar(1), frac_mul(f, g, budget),
                         frac_mul(f, h, budget), budget),
                budget))
            tally.record(_eq_or_none(
                frac_add(lam, f, frac_add(Scalar(1), g, h, budget), budget),
                frac_add(Scalar(1), frac_add(lam, f, g, budget), h, budget),
                budget))
            # units and inverses
            tally.record(_eq_or_none(frac_mul(embed(p.one()), f, budget), f,
                                     budget))
            tally.record(_eq_or_none(
                frac_add(Scalar(1), f, embed(p.zero()), budget), f, budget))
            tally.record(_eq_or_none(frac_add(Scalar(-1), f, f, budget),
                                     embed(p.zero()), budget))
            # reflexivity / symmetry; symmetry counts only when both
            # directions were decided
            r1 = _eq_or_none(f, g, budget)
            r2 = _eq_or_none(g, f, budget)
            tally.record(_eq_or_none(f, f, budget))
            if r1 is not None and r2 is not None and r1.decided and r2.decided:
                tally.record(EqResult(r1.equal == r2.equal, True))
        except _SEARCH_MISSES:
            # a miss while the operands are built ends the sample as one case
            tally.record(None)
    return tally


def _amplified_counts(p, rng, pool, budget, samples: int) -> _Tally:
    """f = [a, s] against [a*u, s*u] for u in S: equal by construction;
    transitivity is checked along the two-step amplification chain."""
    tally = _Tally()
    for _ in range(samples):
        f = _random_fraction(p, rng, pool, max_den_factors=1)
        u1 = _random_sproduct(p, rng, pool, 1, allow_empty=False)
        u2 = _random_sproduct(p, rng, pool, 1, allow_empty=False)
        try:
            f2 = Fraction(f.num * u1.value, f.den * u1)
            f3 = Fraction(f2.num * u2.value, f2.den * u2)
        except DegreeOverflow:
            continue
        for lhs, rhs in ((f, f2), (f2, f3), (f, f3)):
            tally.record(_eq_or_none(lhs, rhs, budget))
    return tally


def scenario_ore_axioms(cfg: ScenarioConfig) -> dict:
    rng = random.Random(cfg.seed)
    budget = cfg.budget()
    items = []

    # ring and equality axioms: exact on the commutative preset, budgeted
    # witness search on the noncommutative one
    for preset_name, samples, exact in (("poly_x", 20, True),
                                        ("heisenberg", 8, False)):
        p = load_preset(preset_name)
        pool = _den_pool(p)
        items.append(_axiom_counts(p, rng, pool, budget, samples)
                     .item("axioms_%s" % preset_name, exact))
        items.append(_amplified_counts(p, rng, pool, budget, 6 if exact else 4)
                     .item("eq_amplified_%s" % preset_name, exact))

    # the embedding is a unital *-morphism on every preset
    for preset_name in ("poly_x", "poly_xy", "heisenberg", "free_xy"):
        p = load_preset(preset_name)
        pool = _den_pool(p)
        bad = 0
        total = 100
        for _ in range(total):
            a = random_element(p, rng, max_degree=2, max_terms=2)
            b = random_element(p, rng, max_degree=2, max_terms=2)
            s = _random_sproduct(p, rng, pool, 1, allow_empty=False)
            if not eq_fraction(frac_mul(embed(a), embed(b), budget),
                               embed(a * b), budget):
                bad += 1
            if not eq_fraction(frac_dagger(embed(a), budget),
                               embed(a.dagger()), budget):
                bad += 1
            if not eq_fraction(
                    frac_mul(embed(s.value), Fraction(p.one(), s), budget),
                    embed(p.one()), budget):
                bad += 1
        items.append(_item("embedding_%s" % preset_name, bad == 0,
                           checked=3 * total, violations=bad))

    # simple property of the multiplication: [1, u s][u a, 1] = [1, s][a, 1]
    for preset_name, samples, exact in (("poly_x", 15, True),
                                        ("heisenberg", 8, False)):
        p = load_preset(preset_name)
        pool = _den_pool(p)
        tally = _Tally()
        for _ in range(samples):
            a = random_element(p, rng, max_degree=1, max_terms=2)
            s = _random_sproduct(p, rng, pool, 1)
            u = _random_sproduct(p, rng, pool, 1, allow_empty=False)
            try:
                tally.record(remark_mult_property_check(a, s, u, budget))
            except DegreeOverflow:
                tally.record(None)
        items.append(tally.item("remark_mult_%s" % preset_name, exact))

    return _report("ore-axioms", cfg, items)


# -- involution-proposition -------------------------------------------------------------


def _involution_counts(p, rng, pool, budget, samples: int,
                       max_den_factors: int) -> dict:
    tallies = {tag: _Tally() for tag in ("antilinear", "antimult",
                                         "involutive")}
    for _ in range(samples):
        f = _random_fraction(p, rng, pool, max_den_factors)
        g = _random_fraction(p, rng, pool, max_den_factors)
        lam = random_scalar(rng)
        pairs = (
            ("antilinear", lambda: (
                frac_dagger(frac_add(lam, f, g, budget), budget),
                frac_add(lam.conjugate(), frac_dagger(f, budget),
                         frac_dagger(g, budget), budget))),
            ("antimult", lambda: (
                frac_dagger(frac_mul(f, g, budget), budget),
                frac_mul(frac_dagger(g, budget), frac_dagger(f, budget),
                         budget))),
            ("involutive", lambda: (
                frac_dagger(frac_dagger(f, budget), budget), f)),
        )
        for tag, pair in pairs:
            try:
                res = eq_fraction(*pair(), budget)
            except _SEARCH_MISSES:
                res = None
            tallies[tag].record(res)
    return tallies


def scenario_involution(cfg: ScenarioConfig) -> dict:
    rng = random.Random(cfg.seed)
    items = []
    for preset_name, samples, exact, max_den_factors in (
            ("poly_x", 200, True, 2), ("heisenberg", 24, False, 1)):
        p = load_preset(preset_name)
        tallies = _involution_counts(p, rng, _den_pool(p), cfg.budget(),
                                     samples, max_den_factors)
        for tag, tally in sorted(tallies.items()):
            items.append(tally.item("%s_%s" % (preset_name, tag), exact))
    return _report("involution-proposition", cfg, items)


# -- cofinality ---------------------------------------------------------------------------


def scenario_cofinality(cfg: ScenarioConfig) -> dict:
    rng = random.Random(cfg.seed)
    items = []
    for preset_name in ("poly_x", "poly_xy", "heisenberg", "free_xy"):
        p = load_preset(preset_name)
        bad = 0
        total = 50
        for _ in range(total):
            b = random_element(p, rng, max_degree=2, max_terms=2)
            target = (p.one() + b.dagger() * b) ** 2 - p.one()
            if not verify_certificate(target,
                                      square_expansion_certificate(b)):
                bad += 1
        items.append(_item("squares_%s" % preset_name, bad == 0,
                           checked=total, violations=bad))

        pool = _den_pool(p)
        bad = 0
        total = 10
        for _ in range(total):
            b = random_element(p, rng, max_degree=1, max_terms=2)
            t = _random_sproduct(p, rng, pool, 2, allow_empty=False)
            res = cofinal_dominator(b, t)
            if not res.all_verified:
                bad += 1
            if res.dominator != b.dagger() * b:
                bad += 1
        items.append(_item("chains_%s" % preset_name, bad == 0,
                           checked=total, violations=bad))
    return _report("cofinality", cfg, items)


# -- gaussian-gns ----------------------------------------------------------------------------


def scenario_gaussian_gns(cfg: ScenarioConfig) -> dict:
    items = []
    d = _GNS_DEGREE
    p = load_preset("poly_x")
    f = gaussian_state(p, d)
    rep = gns(f)
    tol = 1e-10

    items.append(_item("rank", rep.gram_rank == d + 1, rank=rep.gram_rank,
                       expected=d + 1))

    W = rep.window("x")
    r = W.shape[0]
    worst = 0.0
    for i in range(r):
        for j in range(r):
            expected = 0.0
            if abs(i - j) == 1:
                expected = float(np.sqrt(min(i, j) + 1))
            worst = max(worst, abs(W[i, j] - expected))
    items.append(_item("jacobi_window", worst <= tol, max_error=float(worst),
                       size=r))

    worst = 0.0
    moments = double_factorial_moments(2 * (d - 1))
    for k in range(0, 2 * (d - 1) + 1):
        expected = float(moments[k])
        got = rep.moment(("x",) * k)
        worst = max(worst, abs(got - expected))
    items.append(_item("moment_recovery", worst <= tol,
                       max_error=float(worst), max_power=2 * (d - 1)))

    defect = rep.adjoint_defect("x")
    items.append(_item("adjoint_window", defect <= tol,
                       defect=float(defect)))

    omega = np.asarray(rep.cyclic, dtype=complex)
    e0 = np.zeros_like(omega)
    e0[0] = 1.0
    gap = float(np.linalg.norm(omega - e0))
    items.append(_item("cyclic_vector", gap <= tol, gap=gap))

    return _report("gaussian-gns", cfg, items)


# -- fock-integrability ----------------------------------------------------------------------


def _fock_denominators(p):
    a = p.generator("a")
    ad = p.generator("ad")
    return (
        ("1+N", SProduct(p, (a,))),
        ("1+N_squared", SProduct(p, (a, a))),
        ("1+N_times_field", SProduct(p, (a, a + ad))),
    )


def _basis_vector(n: int, length: int | None = None) -> np.ndarray:
    length = length or (n + 1)
    v = np.zeros(length, dtype=complex)
    v[n] = 1.0
    return v


def scenario_fock(cfg: ScenarioConfig) -> dict:
    items = []
    p = load_preset("heisenberg")
    assignment = fock_assignment(p)

    # vacuum-state GNS adjoint window
    rep = gns(dirac_state(p, _GNS_DEGREE))
    worst = max(rep.adjoint_defect("a"), rep.adjoint_defect("ad"))
    items.append(_item("gns_adjoint_window", worst <= 1e-10,
                       defect=float(worst), degree=_GNS_DEGREE))

    # resolvent of the number operator on basis vectors, float-exact
    A = assignment.operator("a")
    worst = -1.0
    max_residual = 0.0
    exact = True
    for n in range(0, 21):
        y = _basis_vector(n)
        res = invert_one_plus_AstarA(A, y, cfg.solve_tol)
        err = float(np.max(np.abs(_gap(res.x, y / (1.0 + n)))))
        if err != 0.0:
            exact = False
        worst = max(worst, err)
        max_residual = max(max_residual, res.residual)
    items.append(_item("inversion_number_operator", exact,
                       max_error=float(worst),
                       max_residual=float(max_residual)))

    # polynomial-weight shift against a 4x dense oracle; the two residuals
    # bound the gap rigorously since the inverse is a contraction
    shift = BandedOperator.weighted_shift(1, Formula.poly([1, 1]))
    M = one_plus_AstarA(shift)
    y = _basis_vector(0, 6) + _basis_vector(5, 6)
    res = invert_one_plus_AstarA(shift, y, cfg.solve_tol)
    N4 = 4 * res.truncation_size
    dense = M.matrix(N4)
    rhs = np.zeros(N4, dtype=complex)
    rhs[:len(y)] = y
    oracle = np.linalg.solve(dense, rhs)
    oracle_residual = float(np.linalg.norm(_gap(M.apply(oracle), y)))
    err = float(np.linalg.norm(_gap(res.x, oracle)))
    items.append(_item("inversion_poly_shift",
                       err <= 1e-9 and err <= res.residual + oracle_residual,
                       oracle_error=err, residual=float(res.residual),
                       oracle_residual=oracle_residual,
                       truncation_size=res.truncation_size))

    # surjectivity probes on the three denominators
    targets = [_basis_vector(n) for n in range(6)]
    for label, s in _fock_denominators(p):
        report = pi_s_surjectivity_probe(assignment, s, targets,
                                         cfg.probe_tol)
        worst = max((it.residual for it in report.items), default=0.0)
        items.append(_item("surjectivity_%s" % label, report.ok,
                           max_residual=float(worst), targets=len(targets)))

    # composite operator equals the product of the factors, bit for bit
    samples = [_basis_vector(n) for n in range(9)]
    for label, s in _fock_denominators(p):
        report = lemma_pis_equals_S_check(assignment, s, samples)
        items.append(_item("factorization_%s" % label, report.ok,
                           samples=len(samples)))

    return _report("fock-integrability", cfg, items)


# -- extend-representation ----------------------------------------------------------------------


def scenario_extend(cfg: ScenarioConfig) -> dict:
    rng = random.Random(cfg.seed)
    items = []
    p = load_preset("heisenberg")
    assignment = fock_assignment(p)
    budget = cfg.budget()
    a = p.generator("a")
    ad = p.generator("ad")

    # [a, 1+a'a] applied to e_3 must give sqrt(3)/4 e_2
    frac = Fraction(a, SProduct(p, (a,)))
    xi = _basis_vector(3)
    res = extend_representation(assignment, frac, xi, cfg.solve_tol,
                                budget=budget)
    expected = _basis_vector(2, len(res.vector)) * (np.sqrt(3.0) / 4.0)
    err = float(np.max(np.abs(res.vector - expected)))
    items.append(_item("annihilator_over_number", err <= 1e-10,
                       error=err, residual=float(res.inverse_residual),
                       witness_found=res.witness_found,
                       route_gap=(float(res.route_gap)
                                  if res.route_gap is not None else None)))

    # sampled fractions: the two evaluation routes agree when a left
    # witness is found
    pool = (a, ad, a + ad)
    checked = found = bad = 0
    worst = 0.0
    for _ in range(20):
        num = random_element(p, rng, max_degree=2, max_terms=2)
        den = _random_sproduct(p, rng, pool, 1, allow_empty=False)
        f = Fraction(num, den)
        xi = np.array([complex(2 * rng.random() - 1, 2 * rng.random() - 1)
                       for _ in range(6)])
        checked += 1
        try:
            res = extend_representation(assignment, f, xi, cfg.solve_tol,
                                        budget=budget)
        except _SEARCH_MISSES:
            continue
        if not res.witness_found:
            continue
        found += 1
        worst = max(worst, res.route_gap)
        if res.route_gap > 1e-8:
            bad += 1
    items.append(_item("witness_route_agreement", bad == 0, checked=checked,
                       found=found, violations=bad, max_gap=float(worst)))

    return _report("extend-representation", cfg, items)


# -- runner ------------------------------------------------------------------------------------


SCENARIOS = {
    "ore-axioms": scenario_ore_axioms,
    "involution-proposition": scenario_involution,
    "cofinality": scenario_cofinality,
    "gaussian-gns": scenario_gaussian_gns,
    "fock-integrability": scenario_fock,
    "extend-representation": scenario_extend,
}


def run_scenario(name: str, cfg: ScenarioConfig) -> dict:
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            "unknown scenario %r (have: %s)"
            % (name, ", ".join(sorted(SCENARIOS)))) from None
    return fn(cfg)


def write_scenario_report(report: dict, out_dir: str,
                          generated: str | None = None) -> tuple:
    """Write <scenario>.json (fully deterministic) and <scenario>.txt
    (deterministic modulo the generated header); returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    if generated is None:
        generated = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    base = os.path.join(out_dir, report["scenario"])
    json_path = base + ".json"
    text_path = base + ".txt"
    files.write_json_report(report, json_path)
    files.write_text_report(report, text_path, generated)
    return json_path, text_path
