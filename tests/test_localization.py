"""Right-fraction localization at the multiplicative set S.

S is generated by elements 1 + p'p; membership is certified
syntactically by factor lists.  Witness searches are budgeted, so
not-found outcomes are asserted only where they are structural.
"""

import itertools
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from fractions import Fraction as Rational

import numpy as np
import pytest

import ores
from ores import algebra, localization
from ores.algebra import AlgebraElement, load_preset, random_element, \
    Presentation
from ores.errors import (DegreeOverflow, IrregularDenominator,
                         OreWitnessNotFound, PresentationError)
from ores.localization import (DEFAULT_BUDGET, Fraction, OreBudget, SProduct,
                               check_denominator, embed, eq_fraction,
                               factor_value, frac_add, frac_dagger, frac_mul,
                               ore_solve_left, ore_solve_right,
                               remark_mult_property_check)
from ores.scalars import IMAG, ONE, Scalar

from oracles import (ReferenceRowSpace, XPoly, X_ONE,
                     fraction_as_rational_function,
                     left_witness_identity_holds, naive_product_normal_form,
                     rational_function_dagger_equal, witness_identity_holds)


def _sproduct(p, params):
    return SProduct(p, tuple(params))


def _param_pool(p):
    gens = [p.generator(g) for g in p.generators]
    if len(gens) >= 2:
        return gens + [gens[0] + gens[1]]
    return gens + [gens[0] + 1]


def _random_sproduct(p, rng, max_factors=1):
    pool = _param_pool(p)
    return _sproduct(p, (rng.choice(pool)
                         for _ in range(rng.randint(0, max_factors))))


def _random_fraction(p, rng, max_factors=1):
    num = random_element(p, rng, max_degree=2, max_terms=2)
    return Fraction(num, _random_sproduct(p, rng, max_factors))


def test_sproduct_structure():
    p = load_preset("heisenberg")
    a = p.generator("a")
    ad = p.generator("ad")
    s = _sproduct(p, (a,))
    t = _sproduct(p, (ad, a + ad))
    assert s.value == 1 + ad * a
    assert not s.is_one()
    assert SProduct(p).is_one()
    assert (s * t).key() == _sproduct(p, (a, ad, a + ad)).key()
    # factors are hermitian, so the dagger only reverses the list
    assert (s * t).dagger().key() == _sproduct(p, (a + ad, ad, a)).key()
    assert (s * t).dagger().value == (s * t).value.dagger()


def test_sproduct_value_matches_naive_expansion():
    rng = random.Random(31)
    for name in ("poly_xy", "heisenberg", "free_xy"):
        p = load_preset(name)
        for _ in range(10):
            s = _random_sproduct(p, rng, max_factors=2)
            expanded = naive_product_normal_form(
                p, tuple(factor_value(q) for q in s.ps))
            assert expanded == dict(s.value.terms)


def test_zero_denominator_rejected():
    # e*e -> -1 collapses the canonical factor 1 + e'e to zero
    p = Presentation(("e",), (("e",),), ((("e", "e"), ((-1, ()),)),), 12)
    s = _sproduct(p, (p.generator("e"),))
    assert s.value.is_zero()
    with pytest.raises(IrregularDenominator):
        check_denominator(s)
    with pytest.raises(IrregularDenominator):
        Fraction(p.one(), s)


def test_embed_and_fraction_basics():
    p = load_preset("poly_x")
    x = p.generator("x")
    f = embed(x)
    assert f.den.is_one()
    assert f.num == x
    from ores.errors import PresentationMismatch
    with pytest.raises(PresentationMismatch):
        Fraction(load_preset("poly_xy").one(), _sproduct(p, (x,)))


def test_candidate_parameters_deterministic_and_complete():
    for name in ("poly_x", "heisenberg"):
        p = load_preset(name)
        c1 = list(localization._search_state(p).factor_parameters(2)[0])
        c2 = list(localization._search_state(p).factor_parameters(2)[0])
        assert [e.key() for e in c1] == [e.key() for e in c2]
        keys = {e.key() for e in c1}
        for g in p.generators:
            assert p.generator(g).key() in keys


def test_right_solve_commutative_shortcut():
    p = load_preset("poly_x")
    rng = random.Random(32)
    for _ in range(20):
        a = random_element(p, rng)
        s = _random_sproduct(p, rng, max_factors=2)
        res = ore_solve_right(a, s)
        assert res.found
        assert witness_identity_holds(a, s, res.witness.b, res.witness.t)


def test_right_solve_heisenberg_normal_ordering_witness():
    p = load_preset("heisenberg")
    a = p.generator("a")
    ad = p.generator("ad")
    # a * (1 + a'a) = (1 + a a') * a, so (b, t) = (a, 1 + a'a) works
    res = ore_solve_right(a, _sproduct(p, (ad,)))
    assert res.found
    w = res.witness
    assert witness_identity_holds(a, _sproduct(p, (ad,)), w.b, w.t)
    # the twin pair in the other order has no witness in reach: moving a
    # past 1 + a'a would need the denominator to divide a shifted factor
    res2 = ore_solve_right(a, _sproduct(p, (a,)))
    assert not res2.found
    assert res2.candidates_tried > 0


def test_left_solve_heisenberg():
    p = load_preset("heisenberg")
    a = p.generator("a")
    ad = p.generator("ad")
    s = _sproduct(p, (a,))
    res = ore_solve_left(a, s)
    assert res.found
    w = res.witness
    assert left_witness_identity_holds(a, s, w.b, w.t)
    # the found witness is the normal-ordering shift: (1+aa') a = a (1+a'a)
    assert w.t.key() == _sproduct(p, (ad,)).key()
    assert w.b == a


def test_witness_soundness_random_heisenberg():
    p = load_preset("heisenberg")
    rng = random.Random(33)
    found = checked = 0
    for _ in range(30):
        a = random_element(p, rng, max_degree=2, max_terms=2)
        s = _random_sproduct(p, rng, max_factors=1)
        checked += 1
        res = ore_solve_right(a, s)
        if res.found:
            found += 1
            assert witness_identity_holds(a, s, res.witness.b, res.witness.t)
    assert found >= checked // 3


def test_solver_not_found_is_honest_on_free_algebra():
    p = load_preset("free_xy")
    x = p.generator("x")
    y = p.generator("y")
    res = ore_solve_right(x, _sproduct(p, (y,)),
                          OreBudget(max_factors=1, max_degree=1))
    assert not res.found
    with pytest.raises(OreWitnessNotFound):
        frac_mul(Fraction(p.one(), _sproduct(p, (y,))), embed(x),
                 OreBudget(max_factors=1, max_degree=1))


def test_solver_determinism():
    p = load_preset("heisenberg")
    a = p.generator("a")
    s = _sproduct(p, (p.generator("ad"),))
    r1 = ore_solve_right(a, s)
    r2 = ore_solve_right(a, s)
    assert r1.found and r2.found
    assert r1.witness.b == r2.witness.b
    assert r1.witness.t.key() == r2.witness.t.key()
    # not-found outcomes are deterministic too
    miss = _sproduct(p, (a,))
    n1 = ore_solve_right(a, miss)
    n2 = ore_solve_right(a, miss)
    assert not n1.found and not n2.found
    assert n1.candidates_tried == n2.candidates_tried


def _check_add(lam, f, g, r):
    nf, df = fraction_as_rational_function(f)
    ng, dg = fraction_as_rational_function(g)
    nr, dr = fraction_as_rational_function(r)
    lam_p = XPoly({0: lam})
    assert nr * (df * dg) == dr * (lam_p * nf * dg + ng * df)


def _check_mul(f, g, r):
    nf, df = fraction_as_rational_function(f)
    ng, dg = fraction_as_rational_function(g)
    nr, dr = fraction_as_rational_function(r)
    assert nr * (df * dg) == dr * (nf * ng)


def test_fraction_arithmetic_matches_rational_functions():
    p = load_preset("poly_x")
    rng = random.Random(34)
    for _ in range(40):
        f = _random_fraction(p, rng, max_factors=2)
        g = _random_fraction(p, rng, max_factors=2)
        lam = Scalar(rng.randint(-3, 3), rng.randint(-2, 2))
        _check_add(lam, f, g, frac_add(lam, f, g))
        _check_mul(f, g, frac_mul(f, g))
        assert rational_function_dagger_equal(f, frac_dagger(f))


def test_fraction_units_and_inverses():
    rng = random.Random(35)
    for name in ("poly_x", "heisenberg"):
        p = load_preset(name)
        one = embed(p.one())
        zero = embed(p.zero())
        for _ in range(10):
            f = _random_fraction(p, rng, max_factors=1)
            assert eq_fraction(frac_mul(f, one), f)
            assert eq_fraction(frac_mul(one, f), f)
            assert eq_fraction(frac_add(1, f, zero), f)
            assert frac_add(-1, f, f).num.is_zero()
            # embedded denominator times its fraction collapses to one
            if not f.den.is_one():
                g = frac_mul(embed(f.den.value),
                             Fraction(p.one(), f.den))
                assert eq_fraction(g, one)


def test_eq_fraction_amplification_and_certificates():
    rng = random.Random(36)
    for name in ("poly_x", "heisenberg"):
        p = load_preset(name)
        decided = 0
        for _ in range(12):
            f = _random_fraction(p, rng, max_factors=1)
            u = _random_sproduct(p, rng, max_factors=1)
            try:
                g = Fraction(f.num * u.value, f.den * u)
            except Exception:
                continue
            res = eq_fraction(f, g)
            if not res.decided:
                continue
            decided += 1
            assert res.equal
            # certificate: num_f*u = num_g*v and den_f*u = den_g*v
            lhs = naive_product_normal_form(p, (f.num, res.u))
            rhs = naive_product_normal_form(p, (g.num, res.v))
            assert lhs == rhs
            lhs = naive_product_normal_form(p, (f.den.value, res.u))
            rhs = naive_product_normal_form(p, (g.den.value, res.v))
            assert lhs == rhs
        assert decided >= 6


def test_eq_fraction_detects_inequality():
    p = load_preset("poly_x")
    x = p.generator("x")
    s = _sproduct(p, (x,))
    res = eq_fraction(Fraction(x, s), Fraction(x * x, s))
    assert res.decided and not res.equal
    res2 = eq_fraction(embed(x), embed(x + 1))
    assert res2.decided and not res2.equal


def test_dagger_on_hermitian_fraction():
    p = load_preset("poly_x")
    x = p.generator("x")
    f = Fraction(x, _sproduct(p, (x,)))
    assert eq_fraction(frac_dagger(f), f)
    g = Fraction(x.scale(IMAG), _sproduct(p, (x,)))
    assert eq_fraction(frac_dagger(g), Fraction(x.scale(-IMAG),
                                                _sproduct(p, (x,))))


def test_dagger_heisenberg_known_value():
    p = load_preset("heisenberg")
    a = p.generator("a")
    ad = p.generator("ad")
    f = Fraction(a, _sproduct(p, (a,)))
    fd = frac_dagger(f)
    expected = Fraction(ad, _sproduct(p, (ad,)))
    res = eq_fraction(fd, expected)
    assert res.decided and res.equal


def test_dagger_is_involutive_where_decided():
    rng = random.Random(37)
    p = load_preset("heisenberg")
    decided = 0
    for _ in range(12):
        f = _random_fraction(p, rng, max_factors=1)
        try:
            fdd = frac_dagger(frac_dagger(f))
        except OreWitnessNotFound:
            continue
        res = eq_fraction(f, fdd)
        if res.decided:
            decided += 1
            assert res.equal
    assert decided >= 4


def test_remark_mult_property():
    rng = random.Random(38)
    p = load_preset("poly_x")
    for _ in range(10):
        a = random_element(p, rng)
        s = _random_sproduct(p, rng, max_factors=1)
        u = _random_sproduct(p, rng, max_factors=1)
        chk = remark_mult_property_check(a, s, u)
        assert chk.decided and chk.equal
    p = load_preset("heisenberg")
    a = p.generator("a")
    chk = remark_mult_property_check(
        a, _sproduct(p, (p.generator("ad"),)),
        _sproduct(p, (p.generator("ad"),)))
    assert chk.decided and chk.equal


def test_budget_defaults():
    assert DEFAULT_BUDGET == OreBudget()
    assert DEFAULT_BUDGET.max_factors == 2
    assert DEFAULT_BUDGET.max_degree == 2


def test_budget_fields_must_be_nonnegative_ints():
    for bad in ({"max_factors": -1}, {"max_degree": -3},
                {"max_degree": 1.5}, {"max_factors": True},
                {"max_degree": "2"}):
        with pytest.raises(ValueError, match="nonnegative int"):
            OreBudget(**bad)
    assert OreBudget(0, 0).max_factors == 0


# -- the modular screen against an unscreened exact scan -----------------------


def _exact_scan(a, s, budget):
    """The witness search with no screen: every candidate, in scan order,
    gets the exact product a*t and an exact solve of s*b = a*t in the
    reference row space.

    Returns (b, key of t, candidates tried), with b and the key None when
    no witness is within the budget.
    """
    p = a.presentation
    s_value = s.value
    s_deg = s_value.degree()
    ps = localization._search_state(p).factor_parameters(budget.max_degree)[0]
    candidates = [SProduct(p), s]
    for count in range(1, budget.max_factors + 1):
        candidates += [SProduct(p, tuple(ps[i] for i in combo))
                       for combo in itertools.product(range(len(ps)),
                                                      repeat=count)]
    spans = {}
    seen = set()
    tried = 0
    for t in candidates:
        if t.key() in seen:
            continue
        seen.add(t.key())
        tried += 1
        try:
            r = a * t.value
        except DegreeOverflow:
            continue
        bound = max(r.degree() - s_deg, 0)
        if bound > p.degree_cap - s_deg:
            continue
        basis = p.basis_words(bound)
        target = p.basis_words(bound + s_deg)
        if any(w not in target for w in r.terms):
            continue
        if bound not in spans:
            rs = ReferenceRowSpace(len(target))
            for w in basis:
                col = s_value * AlgebraElement(p, {w: ONE})
                rs.add([col.terms.get(w2, Scalar(0)) for w2 in target])
            spans[bound] = rs
        coeffs = spans[bound].represent(
            [r.terms.get(w2, Scalar(0)) for w2 in target])
        if coeffs is not None:
            b = p.normalize_raw({w: c for w, c in zip(basis, coeffs) if c})
            return b, t.key(), tried
    return None, None, tried


def _assert_same_as_exact_scan(a, s, budget):
    res = ore_solve_right(a, s, budget)
    b, t_key, tried = _exact_scan(a, s, budget)
    assert res.candidates_tried == tried
    assert res.found == (b is not None)
    if res.found:
        assert res.witness.t.key() == t_key
        assert res.witness.b.terms == b.terms
        assert witness_identity_holds(a, s, res.witness.b, res.witness.t)
    return res.found


# Small budgets keep the unscreened scan fast: it runs an exact solve for
# every candidate.  Pairs of degree-one factors and single factors of
# degree two reach candidates of degree 4 and several bounds per query.
SMALL_BUDGETS = (OreBudget(max_factors=2, max_degree=1),
                 OreBudget(max_factors=1, max_degree=2))


def test_screen_matches_exact_scan_heisenberg():
    p = load_preset("heisenberg")
    rng = random.Random(41)
    outcomes = []
    for i in range(8):
        a = random_element(p, rng, max_degree=2, max_terms=2)
        while a.is_zero():
            a = random_element(p, rng, max_degree=2, max_terms=2)
        s = _sproduct(p, (rng.choice(_param_pool(p)),))
        outcomes.append(_assert_same_as_exact_scan(a, s, SMALL_BUDGETS[i % 2]))
    assert True in outcomes and False in outcomes


def test_screen_matches_exact_scan_free_xy():
    p = load_preset("free_xy")
    x, y = p.generator("x"), p.generator("y")
    rng = random.Random(42)
    queries = [(x, (x,)), (y, (x,)), (x * y, (x + y,))]
    for _ in range(5):
        a = random_element(p, rng, max_degree=2, max_terms=2)
        while a.is_zero():
            a = random_element(p, rng, max_degree=2, max_terms=2)
        queries.append((a, (rng.choice(_param_pool(p)),)))
    outcomes = [_assert_same_as_exact_scan(a, _sproduct(p, ps),
                                           SMALL_BUDGETS[i % 2])
                for i, (a, ps) in enumerate(queries)]
    assert True in outcomes and False in outcomes


def _fresh_heisenberg(cap=20):
    # a new object, so that its search state is built with the patched prime
    return Presentation(("ad", "a"), (("a", "ad"),),
                        ((("a", "ad"), ((1, ("ad", "a")), (1, ()))),),
                        cap, name="heisenberg")


def _heisenberg_plus(c):
    # heisenberg with the rule a*ad -> ad*a + c
    return Presentation(("ad", "a"), (("a", "ad"),),
                        ((("a", "ad"), ((1, ("ad", "a")), (c, ()))),),
                        20, name="heisenberg")


def _first_past_cap(p, budget):
    """How many candidates the scan tries up to and with the first whose
    value passes the degree cap (the scan tries 1 and s first)."""
    ps = localization._search_state(p).factor_parameters(budget.max_degree)[0]
    tried = 2
    for count in range(1, budget.max_factors + 1):
        for combo in itertools.product(range(len(ps)), repeat=count):
            tried += 1
            try:
                SProduct(p, tuple(ps[i] for i in combo)).value
            except DegreeOverflow:
                return tried
    return None


def test_screen_skips_candidates_past_the_degree_cap():
    # at cap 5 a product of two factors of degree 4, or of three of
    # degree 2, passes the cap: the scan skips it and goes on
    p = _fresh_heisenberg(cap=5)
    a, ad = p.generator("a"), p.generator("ad")
    queries = [(a, ad + a), (p.one() + a, ad - a), (a, a), (a * a, ad)]
    for budget in (OreBudget(max_factors=2, max_degree=2),
                   OreBudget(max_factors=3, max_degree=1)):
        assert _first_past_cap(p, budget) is not None
        found = [_assert_same_as_exact_scan(x, _sproduct(p, (q,)), budget)
                 for x, q in queries]
        assert found == [True, True, False, False]
    # with pairs of degree-2 parameters, both witnesses come after the
    # first candidate past the cap
    budget = OreBudget(max_factors=2, max_degree=2)
    first = _first_past_cap(p, budget)
    for x, q in queries[:2]:
        assert ore_solve_right(x, _sproduct(p, (q,)),
                               budget).candidates_tried > first
    # at cap 3 every pair passes the cap, and so does every triple that
    # starts with one
    p = _fresh_heisenberg(cap=3)
    a = p.generator("a")
    assert not _assert_same_as_exact_scan(
        a, _sproduct(p, (a,)), OreBudget(max_factors=3, max_degree=1))


def test_screen_passes_a_group_past_the_basis_limit(monkeypatch):
    # with at most 15 words a heisenberg basis reaches degree 4, not 5.
    # The block after 1 and s holds t = 1 + a'a, of degree 2, and factors
    # of degree 4, whose screen would need the words of degree 5 for a*t:
    # that group passes unscreened, and the witness is still found
    monkeypatch.setattr(algebra, "_BASIS_LIMIT", 15)
    p = _fresh_heisenberg()
    a, ad = p.generator("a"), p.generator("ad")
    budget = OreBudget(max_factors=1, max_degree=2)
    s = _sproduct(p, (ad,))
    assert _assert_same_as_exact_scan(a, s, budget)
    assert ore_solve_right(a, s, budget).candidates_tried == 3


def test_candidates_past_the_basis_limit_are_not_within_budget(monkeypatch):
    # pairs of degree-4 factors have degree 8, and with at most 15 words a
    # heisenberg basis reaches degree 4: such a candidate gets no vector
    # and no exact check, and the search ends not within budget; building
    # its vector raised DegreeOverflow out of the search
    monkeypatch.setattr(algebra, "_BASIS_LIMIT", 15)
    p = _fresh_heisenberg()
    a = p.generator("a")
    res = ore_solve_right(a, _sproduct(p, (a,)), DEFAULT_BUDGET)
    assert not res.found and res.candidates_tried == 651


def _exact_checks(monkeypatch, queries, budget):
    """(candidates tried, witness, exact solves) of each query (a, s)."""
    calls = []
    solve = localization._MulSubspace.solve

    def count_solve(self, el):
        calls[-1] += 1
        return solve(self, el)

    out = []
    with monkeypatch.context() as m:
        m.setattr(localization._MulSubspace, "solve", count_solve)
        for a, s in queries:
            calls.append(0)
            res = ore_solve_right(a, s, budget)
            out.append((res.candidates_tried, res.found and
                        (res.witness.b.key(), res.witness.t.key()),
                        calls[-1]))
    return out


def test_screen_reads_a_s_and_t_up_to_a_scalar(monkeypatch):
    # the screen reads a, s and t as multiples whose coefficients reduce
    # mod p, so a denominator of a or s that p divides, or an s that is
    # zero mod p, screens as well as any other
    fifth = Scalar(Rational(1, 5))

    def queries(p):
        a, ad = p.generator("a"), p.generator("ad")
        s1 = factor_value(a + ad)
        s2 = factor_value(ad + a.scale(fifth))
        return [
            # p = 5 divides a denominator of a; the first is s1 (1/5 + a'a)
            (s1.scale(fifth) + s1 * ad * a, (a + ad,)),
            (a.scale(fifth), (a,)),
            (a, (a,)),
            # p = 5 divides a denominator of s; the first is s2 (25 a')
            ((s2 * ad).scale(Scalar(25)), (ad + a.scale(fifth),)),
            (ad * ad, (a.scale(fifth),)),
            # s = 5 (1 + a'a) is zero mod 5
            (a, (p.scalar(2), ad)),
            (a * a, (p.scalar(2), a)),
        ]

    def outcomes(p):
        return _exact_checks(monkeypatch, [
            (a, _sproduct(p, ps)) for a, ps in queries(p)], budget)

    budget = SMALL_BUDGETS[0]
    want = outcomes(_fresh_heisenberg())
    assert {found is not False for _, found, _ in want} == {True, False}
    # the primes are drawn below 8: 5 is the only one
    monkeypatch.setattr(localization, "_PRIME_BOUND", 8)
    p = _fresh_heisenberg()
    got = outcomes(p)
    assert p._ore_search.prime == 5
    assert [out[:2] for out in got] == [out[:2] for out in want]
    # a / 5 makes as many exact checks as a, and they screen some out
    assert got[1] == got[2] and got[1][2] < got[1][0]
    # the spans of s with a denominator 5 and of s = 0 mod 5 are screened
    for ps in (queries(p)[4][1], (p.scalar(2), p.generator("ad"))):
        s = _sproduct(p, ps).value
        subs = [sub for (k, _, right), sub in p._ore_search.subspaces.items()
                if k == s and not right]
        assert subs and all(sub.annihilator() is not None for sub in subs)

    # a rule coefficient 1/5 takes the next prime below the bound: 13
    # below 16, where 9 is no prime; below 8 there is none
    monkeypatch.setattr(localization, "_PRIME_BOUND", 16)
    p = _heisenberg_plus(Rational(1, 5))
    a, ad = p.generator("a"), p.generator("ad")
    found = [_assert_same_as_exact_scan(x, _sproduct(p, (q,)), budget)
             for x, q in ((a, ad), (a, a), (ad * a, ad - a))]
    assert True in found and False in found
    assert p._ore_search.prime == 13
    assert all(sub.annihilator() is not None
               for sub in p._ore_search.subspaces.values())
    monkeypatch.setattr(localization, "_PRIME_BOUND", 8)
    p = _heisenberg_plus(Rational(1, 5))
    with pytest.raises(PresentationError, match="below 8 divides"):
        ore_solve_right(p.generator("a"), _sproduct(p, (p.generator("a"),)))

    # at the default prime, a * (1/2097133) / (1 + a'a) at the default
    # budget makes as many exact checks as a / (1 + a'a)
    monkeypatch.undo()
    p = _fresh_heisenberg()
    a = p.generator("a")
    unlucky, lucky = _exact_checks(monkeypatch, [
        (a.scale(Scalar(Rational(1, 2097133))), _sproduct(p, (a,))),
        (a, _sproduct(p, (a,)))], DEFAULT_BUDGET)
    assert unlucky == lucky and lucky[:2] == (651, False)


# -- the blocked screen ----------------------------------------------------------


def test_chunked_product_mod_p_is_exact():
    # every residue p - 1 is the largest sum; p - 2 has an odd square, so
    # an unreduced sum past 2**53 cannot be represented
    state = localization._search_state(load_preset("heisenberg"))
    prime = state.prime
    assert localization._MAX_DOT == 2048
    rng = random.Random(43)
    for n in (1, 2047, 2048, 2049, 5000):
        for fill in (prime - 1, prime - 2):
            a = np.full((2, n), float(fill))
            b = np.full((n, 3), float(fill))
            assert (state.matmul(a, b) == n * fill * fill % prime).all()
        rows = [[rng.randrange(prime) for _ in range(n)] for _ in range(2)]
        cols = [[rng.randrange(prime - 3, prime) for _ in range(n)]
                for _ in range(3)]
        got = state.matmul(np.array(rows, dtype=float),
                           np.array(cols, dtype=float).T)
        assert got.tolist() == [[sum(x * y for x, y in zip(r, c)) % prime
                                 for c in cols] for r in rows]
    # the reduction itself, at both ends of the exact range and next to
    # multiples of p, where a rounded quotient would be off by one
    top, low = 2 ** 53 - 1, -(2 ** 53 - prime)
    xs = [0, 1, prime - 1, prime, top, low, top - top % prime,
          (prime - 1) ** 2, -(prime - 1) ** 2]
    xs += [x + d for x in (top // 2 - top // 2 % prime,
                           low - low % prime + prime) for d in (-1, 0, 1)]
    assert localization._mod(np.array(xs, dtype=float), prime).tolist() == [
        x % prime for x in xs]


def _count_vectors(count, t_at):
    """(t, degree, vector mod p) of each candidate of the _Count that has
    a vector, read from its stacks; t_at maps a position to its t."""
    out = []
    for degree, (array, positions) in count.stacks.items():
        out += [(t_at(i), degree, row) for i, row in zip(positions, array)]
    return out


def _exact_vector(state, t):
    """The coefficients (a + b i) / d of t.value reduced mod p one by one,
    to (a + imag b) / d, over the words of degree <= deg t."""
    val, prime = t.value, state.prime
    words = state.presentation.basis_words(val.degree())
    return val.degree(), [
        (c.a + state.imag * c.b) * pow(c.d, -1, prime) % prime
        for c in (val.terms.get(w, Scalar(0)) for w in words)]


def test_product_vectors_are_images_of_the_exact_products():
    # the vector of u * f is built as M_u F mod p, without the product
    for name in ("heisenberg", "free_xy"):
        p = load_preset(name)
        state = localization._search_state(p)
        ps = state.factor_parameters(1)[0]
        n = len(ps)
        for count in (2, 3):
            vectors = _count_vectors(
                state.count(1, count, 0, n ** count),
                lambda i: _sproduct(p, localization._combo(ps, i, count)))
            assert len(vectors) == n ** count
            for t, degree, vec in vectors:
                exact_degree, exact = _exact_vector(state, t)
                assert degree >= exact_degree
                assert vec[:len(exact)].tolist() == exact
                assert not vec[len(exact):].any()


def test_combo_decodes_a_scan_position():
    # position i of the scan of count factors is the i-th element of
    # itertools.product, and the position formula of _ranges inverts it
    for n in (1, 2, 5, 7):
        ps = tuple(range(10, 10 + n))
        for count in (1, 2, 3):
            for i, combo in enumerate(itertools.product(ps, repeat=count)):
                assert localization._combo(ps, i, count) == combo
                assert sum((c - 10) * n ** k
                           for k, c in enumerate(reversed(combo))) == i


def test_a_cold_miss_reduces_each_last_factor_once_per_build(monkeypatch):
    # each range's last factors are reduced mod p once, not once per
    # head: 17,625 reductions for this miss when each (head, last factor)
    # pair had its own
    calls = []
    residues = localization._SearchState.residues

    def count_residues(self, el):
        calls.append(el)
        return residues(self, el)

    monkeypatch.setattr(localization._SearchState, "residues",
                        count_residues)
    p = _fresh("heisenberg")
    a = p.generator("a")
    res = ore_solve_right(a, _sproduct(p, (a,)), OreBudget(3, 2))
    assert not res.found and res.candidates_tried == 16276
    assert len(calls) < 2500


def _blocks(p, s, budget):
    """The ranges the scan for s screens, as (first, last, products,
    past): the first and last candidate, numbered as candidates_tried
    counts them, the number of products of factor parameters in the
    range, and the candidates in it whose value passes the degree cap.
    Walked to the end, so on a presentation with no search state the
    ranges are the chunks of a cold scan.  The position skipped decodes
    to s, and a position has a vector or is unscreened exactly where its
    candidate is under the cap."""
    state = localization._search_state(p)
    out, tried = [], 0
    for k, (count, start, stop, skip, t_at) in enumerate(
            localization._ranges(state, s, budget)):
        if skip < stop:
            assert t_at(skip).key() == s.key()
        held = set(count.unscreened).union(*(
            positions for _, positions in count.stacks.values()))
        first, past = tried + 1, []
        for i in range(start, stop):
            under = _under_cap(t_at(i))
            assert under == (i in held)
            if i != skip:
                tried += 1
                if not under:
                    past.append(tried)
        out.append((first, tried, stop - start if k else 0, past))
    return out


def _under_cap(t):
    try:
        t.value
    except DegreeOverflow:
        return False
    return True


def _query(p, a_text, q_text):
    return (ores.parse_element(a_text, p),
            _sproduct(p, (ores.parse_element(q_text, p),)))


# (preset, a, parameter of s, budget, candidates tried, edge of its block)
_BLOCK_QUERIES = [
    ("heisenberg", "a + ad*a*a", "a", DEFAULT_BUDGET, 1, None),
    ("heisenberg", "ad*a", "ad", DEFAULT_BUDGET, 2, None),
    # the product equal to s comes later in the witness's block
    ("heisenberg", "ad - ad*ad", "a - a*a", DEFAULT_BUDGET, 11, "first"),
    # the product equal to s comes earlier in it
    ("heisenberg", "ad*a + a*a", "ad*ad + ad*a", DEFAULT_BUDGET, 25, "last"),
    ("heisenberg", "ad - ad*ad", "a - a*a", SMALL_BUDGETS[1], 11, "first"),
    ("heisenberg", "ad*a + a*a", "ad*ad + ad*a", SMALL_BUDGETS[1], 25, "last"),
    ("heisenberg", "a + ad*a*a", "a", SMALL_BUDGETS[0], 1, None),
    ("heisenberg", "ad", "ad - a", SMALL_BUDGETS[0], 21, "last"),
    ("free_xy", "x + x*x*x", "x", DEFAULT_BUDGET, 1, None),
    ("free_xy", "x", "x", DEFAULT_BUDGET, 2, None),
    ("free_xy", "x*x + x*y", "x*x + y*x", DEFAULT_BUDGET, 27, "first"),
    ("free_xy", "y*x - y*y", "x*y - y*y", DEFAULT_BUDGET, 37, "last"),
    ("free_xy", "x", "x", SMALL_BUDGETS[0], 2, None),
    ("free_xy", "x*x + x*y", "x*x + y*x", SMALL_BUDGETS[1], 27, "first"),
    ("free_xy", "y*x - y*y", "x*y - y*y", SMALL_BUDGETS[1], 37, "last"),
]


def test_screen_matches_exact_scan_at_block_boundaries():
    # each search runs cold first, on chunks of 8, 16, ... products, then
    # warm, where a count's second range runs to the end of its prefix
    for name, a_text, q_text, budget, tried, edge in _BLOCK_QUERIES:
        p = _fresh(name)
        a, s = _query(p, a_text, q_text)
        assert ore_solve_right(a, s, budget).candidates_tried == tried
        assert _assert_same_as_exact_scan(a, s, budget)
        [(k, first, last)] = [(k, b[0], b[1]) for k, b in enumerate(
            _blocks(_fresh(name), _query(_fresh(name), a_text, q_text)[1],
                    budget)) if b[0] <= tried <= b[1]]
        if edge is not None:
            # ranges 0 and 1 are (1, s) and the first chunk of products
            assert k >= 2 and tried == (first if edge == "first" else last)
    # at cap 5 the witness's chunk holds products past the cap before the
    # witness, which the scan counts and skips
    for x, q, tried in (("a", "ad + a", 157), ("1 + a", "ad - a", 183)):
        p = _fresh_heisenberg(cap=5)
        a, s = _query(p, x, q)
        assert ore_solve_right(a, s, DEFAULT_BUDGET).candidates_tried == tried
        assert _assert_same_as_exact_scan(a, s, DEFAULT_BUDGET)
        p = _fresh_heisenberg(cap=5)
        [past] = [b[3] for b in _blocks(p, _query(p, x, q)[1], DEFAULT_BUDGET)
                  if b[0] <= tried <= b[1]]
        assert past and past[0] < tried
    # an s of two factor parameters is skipped at its place in the count
    # of pairs: 1, s, 4 singles and 16 pairs, one of them s
    p = _fresh("heisenberg")
    ps = localization._search_state(p).factor_parameters(1)[0]
    for i, j in ((1, 2), (2, 1)):
        s = _sproduct(p, (ps[i], ps[j]))
        assert not _assert_same_as_exact_scan(p.generator("a"), s,
                                              SMALL_BUDGETS[0])
        assert _blocks(p, s, SMALL_BUDGETS[0])[-1][1] == 21


def _block_cache_queries(p):
    a, ad = p.generator("a"), p.generator("ad")
    return [(ad - ad * ad, (a - a * a,)), (ad, (ad + a,)), (ad * a, (ad,)),
            (a, (a,))]


def _outcomes(p, budget):
    out = []
    for a, ps in _block_cache_queries(p):
        res = ore_solve_right(a, _sproduct(p, ps), budget)
        out.append((res.candidates_tried, res.found
                    and (res.witness.b.key(), res.witness.t.key())))
    return out


def test_block_cache_is_bounded_and_lazy(monkeypatch):
    want = _outcomes(_fresh_heisenberg(), DEFAULT_BUDGET)
    assert [tried for tried, _ in want] == [11, 157, 2, 651]
    assert [found is False for _, found in want] == [False] * 3 + [True]
    monkeypatch.setattr(localization, "_STACK_LIMIT", 1)
    p = _fresh_heisenberg()
    assert _outcomes(p, DEFAULT_BUDGET) == want
    assert not p._ore_search.counts and not p._ore_search.stacked
    monkeypatch.undo()
    p = _fresh_heisenberg()
    assert _outcomes(p, DEFAULT_BUDGET) == want
    assert 0 < p._ore_search.stacked <= localization._STACK_LIMIT
    # a search builds the candidates of the chunks it reaches, no more
    for k, (tried, _) in enumerate(want):
        p = _fresh_heisenberg()
        a, ps = _block_cache_queries(p)[k]
        ore_solve_right(a, _sproduct(p, ps), DEFAULT_BUDGET)
        built = sum(c.stop - c.start
                    for key, c in p._ore_search.counts.items()
                    if key[0] != "1, s")
        q = _fresh_heisenberg()
        blocks = _blocks(q, _sproduct(q, _block_cache_queries(q)[k][1]),
                         DEFAULT_BUDGET)
        assert built == sum(b[2] for b in blocks if b[0] <= tried)


def _fresh(name):
    # a new object, with empty normal-form caches and no search state
    return Presentation(*algebra.PRESETS[name], name=name)


# (preset, a, parameter of s) of searches that end not within the default
# budget; the last heisenberg one has an s that is no product of factor
# parameters, so the scan skips nothing and tries 652 candidates
_MISS_QUERIES = [
    ("heisenberg", "a", "a"), ("heisenberg", "a*a", "a"),
    ("heisenberg", "ad*a + a", "a"), ("heisenberg", "a", "a*a"),
    ("heisenberg", "a*a*a", "ad*a"), ("heisenberg", "ad*a*a", "a + ad*a"),
    ("heisenberg", "a*a", "ad - a"), ("heisenberg", "a", "a + 1"),
    ("free_xy", "x", "x*y - y*x"), ("free_xy", "x*x", "x*y"),
    ("free_xy", "y*x*y", "x + y"), ("free_xy", "x*y*x", "y"),
]


def _search_outcomes(presentation, queries):
    """candidates_tried and the witness of each query, on the
    presentation that presentation(name) gives."""
    out = []
    for name, a_text, q_text, budget in queries:
        p = presentation(name)
        a = ores.parse_element(a_text, p)
        s = _sproduct(p, (ores.parse_element(q_text, p),))
        res = ore_solve_right(a, s, budget)
        out.append((res.candidates_tried, res.found
                    and (res.witness.b.key(), res.witness.t.key())))
    return out


def test_warm_and_cold_screens_agree(monkeypatch):
    # a warm search screens a count from its second chunk to the end of
    # the cached prefix in one product per degree: cold, warm and partly
    # cached searches must pass the same candidates at each position they
    # reach, and so try the same candidates and return the same witnesses
    queries = [(name, a, q, budget)
               for name, a, q, budget, _, _ in _BLOCK_QUERIES]
    queries += [(name, a, q, DEFAULT_BUDGET) for name, a, q in _MISS_QUERIES]
    fates, ranges = [], []
    survivors, scan = localization._Screen.survivors, localization._ranges

    def record(screen, count, start, stop):
        out = survivors(screen, count, start, stop)
        t_at = ranges[-1][3]
        fates.extend((t_at(i).key(), i in out) for i in range(start, stop))
        return out

    def record_ranges(state, s, budget):
        for count, start, stop, skip, t_at in scan(state, s, budget):
            ranges.append((count, start, stop, t_at))
            yield count, start, stop, skip, t_at

    monkeypatch.setattr(localization._Screen, "survivors", record)
    monkeypatch.setattr(localization, "_ranges", record_ranges)

    def outcomes(presentation):
        out = []
        for query in queries:
            fates.clear()
            out.append((_search_outcomes(presentation, [query]), fates[:]))
        return out

    def agree(got, want):
        # a warm range may run past the cold search's last chunk
        for (res, seen), (cold_res, cold_seen) in zip(got, want):
            assert res == cold_res and seen[:len(cold_seen)] == cold_seen
            assert cold_res[0][1] or seen == cold_seen

    cold = outcomes(_fresh)
    assert [out[0][0] for out, _ in cold[len(_BLOCK_QUERIES):]] == \
        [651] * 7 + [652] + [1333] * 4
    assert not any(out[0][1] for out, _ in cold[len(_BLOCK_QUERIES):])
    shared = {}

    def warm(name):
        return shared.setdefault(name, _fresh(name))

    agree(outcomes(warm), cold)
    ranges.clear()
    agree(outcomes(warm), cold)
    # the second pass screened at least three chunks of a count at once,
    # [8, 24), [24, 56) and [56, 120)
    assert any(start == 8 and stop >= 120 for _, start, stop, _ in ranges)
    # with the stacks half as large each count of pairs caches a prefix of
    # its first chunks, and the later ones are built and screened alone
    limit = min(p._ore_search.stacked for p in shared.values()) // 2
    monkeypatch.setattr(localization, "_STACK_LIMIT", limit)
    shared.clear()
    ranges.clear()
    agree(outcomes(warm), cold)
    agree(outcomes(warm), cold)
    for p in shared.values():
        counts = p._ore_search.counts
        n = len(p._ore_search.factor_parameters(2)[0])
        assert all(c.start == 0 for c in counts.values())
        assert 24 <= counts[2, 2].stop < n ** 2
    cached = [id(c) for p in shared.values()
              for c in p._ore_search.counts.values()]
    alone = [c for c, _, _, _ in ranges if c.start]
    assert alone and not any(id(c) in cached for c in alone)


def _stack_residues(p):
    """The residues the cached stacks hold; each stack has one row per
    position it holds."""
    stacks = [s for c in p._ore_search.counts.values()
              for s in c.stacks.values()]
    assert all(len(array) == len(positions) for array, positions in stacks)
    return sum(array.size for array, _ in stacks)


def test_cached_stacks_count_their_rows(monkeypatch):
    # a count's stack grows by the rows it adds, and they count against
    # _STACK_LIMIT, so the cached stacks never hold more than the limit,
    # and a tight limit only leaves chunks uncached
    queries = [(name, a, q, DEFAULT_BUDGET)
               for name, a, q in _MISS_QUERIES if name == "heisenberg"]
    p = _fresh("heisenberg")
    want = _search_outcomes(lambda name: p, queries)
    full = _stack_residues(p)
    assert full == p._ore_search.stacked
    for eighths in range(2, 8):
        limit = full * eighths // 8
        monkeypatch.setattr(localization, "_STACK_LIMIT", limit)
        p = _fresh("heisenberg")
        assert _search_outcomes(lambda name: p, queries) == want
        assert _stack_residues(p) == p._ore_search.stacked <= limit


def test_cached_pairs_are_bounded(monkeypatch):
    # the count of 1 and s is cached once per denominator value, for at
    # most _VALUE_LIMIT values; past it each query builds its own
    queries = [("heisenberg", "a", "a + %d*ad" % k, SMALL_BUDGETS[0])
               for k in range(20)]
    want = _search_outcomes(lambda name: _fresh_heisenberg(), queries)
    monkeypatch.setattr(localization, "_VALUE_LIMIT", 4)
    p = _fresh_heisenberg()
    assert _search_outcomes(lambda name: p, queries) == want
    state = p._ore_search
    pairs = [key for key in state.counts if key[0] == "1, s"]
    assert len(pairs) == 4
    assert state.pairs == 4
    assert _stack_residues(p) == state.stacked
    assert _search_outcomes(lambda name: p, queries) == want


def test_rules_that_divide_the_first_primes_take_the_next():
    for name in algebra.PRESETS:
        assert localization._search_state(load_preset(name)).prime == 2097133
    # a*ad -> ad*a + 1/D, D the product of the three largest primes = 1
    # mod 4 below 2**21: the screen works mod the fourth
    p = _heisenberg_plus(Rational(1, 2097133 * 2097097 * 2097041))
    state = localization._search_state(p)
    assert state.prime == 2097013
    a, ad = p.generator("a"), p.generator("ad")
    assert state.subspace(factor_value(a), 2, False).annihilator() is not None
    found = [_assert_same_as_exact_scan(x, _sproduct(p, (q,)),
                                        SMALL_BUDGETS[i % 2])
             for i, (x, q) in enumerate(((a, ad), (a, a), (ad * a, ad - a)))]
    assert True in found and False in found


def test_a_warm_miss_screens_each_count_in_one_product_per_degree(
        monkeypatch):
    # on a warm presentation a miss screens 1 and s, the first block of
    # singles, the rest of the singles, the first block of pairs and the
    # rest of the pairs: 10 products over the degrees 0-8, after the 5 of
    # K with M_a, which is built once; block by block it took 21 + 5
    # products and 4 builds of M_a
    p = _fresh_heisenberg()
    a = p.generator("a")
    s = _sproduct(p, (a,))
    assert ore_solve_right(a, s).candidates_tried == 651
    calls = Counter()
    state = localization._SearchState
    matmul, left_matrix = state.matmul, state.left_matrix

    def count_matmul(self, *args):
        calls["matmul"] += 1
        return matmul(self, *args)

    def count_left_matrix(self, el, *args):
        calls["M_a"] += el is a
        return left_matrix(self, el, *args)

    monkeypatch.setattr(state, "matmul", count_matmul)
    monkeypatch.setattr(state, "left_matrix", count_left_matrix)
    assert ore_solve_right(a, s).candidates_tried == 651
    assert calls == {"matmul": 15, "M_a": 1}


def test_a_block_holds_each_vector_once(monkeypatch):
    # each vector is written straight into its stack; none is built for a
    # degree whose stack would pass _ARRAY_LIMIT, where M_a is past the
    # limit too and the screen is off
    monkeypatch.setattr(localization, "_STACK_LIMIT", 0)   # never cached
    state = localization._search_state(_fresh("free_xy"))
    key = (2, 2, 504, 1016)        # heads 14 to 27, a range of 512 pairs
    count = state.count(*key)      # the values and normal forms, cached
    sizes = Counter({d: array.size        # degree -> residues of its stack
                     for d, (array, _) in count.stacks.items()})
    assert sorted(sizes) == [6, 8]
    peaks, groups = [], []
    for limit in (localization._ARRAY_LIMIT, 100_000):
        monkeypatch.setattr(localization, "_ARRAY_LIMIT", limit)
        tracemalloc.start()
        count = state.count(*key)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        groups.append([(d, len(positions))
                       for d, (_, positions) in count.stacks.items()])
    # a list of the vectors besides the stack took twice their bytes
    full = 8 * sum(sizes.values())
    assert peaks[0] < 1.5 * full
    # the degree-8 stack of 452 vectors of 511 residues is not built
    assert sizes[8] > 100_000 and peaks[1] < full / 4
    assert groups == [[(6, 60), (8, 452)], [(6, 60)]]


def test_factor_parameters_stop_at_the_candidate_cap(monkeypatch):
    # parameters past MAX_CANDIDATES were built but never scanned: about
    # 4.2 million elements for free_xy at max_degree 10
    monkeypatch.setattr(localization, "MAX_CANDIDATES", 40)
    p = Presentation(("x", "y"), (("x",), ("y",)), (), 10)  # empty caches
    mons = [p.normalize_raw({w: ONE}) for w in p.basis_words(3) if w]
    full = mons + [e for i, u in enumerate(mons) for v in mons[i + 1:]
                   for e in (u + v, u - v)]
    assert len(full) == 196
    ps = localization._search_state(p).factor_parameters(3)[0]
    assert [q.key() for q in ps] == [q.key() for q in full[:40]]
    res = ore_solve_right(p.generator("y"), _sproduct(p, (p.generator("x"),)),
                          OreBudget(max_factors=1, max_degree=3))
    assert not res.found and res.candidates_tried == 40


def test_witness_recheck_survives_python_O():
    # under -O an assert would be stripped and the wrong b returned
    code = textwrap.dedent("""
        from ores import localization as loc
        from ores.algebra import load_preset
        from ores.errors import WitnessCheckError
        p = load_preset("heisenberg")
        a, ad = p.generator("a"), p.generator("ad")
        loc._MulSubspace.solve = lambda self, el: p.one()
        # unpatched, both searches find a witness at the third candidate
        for solve, s in ((loc.ore_solve_right, ad), (loc.ore_solve_left, a)):
            try:
                solve(a, loc.SProduct(p, (s,)))
            except WitnessCheckError:
                print("raised")
            else:
                print("returned")
    """)
    out = _run_python(code, "-O")
    assert out.stdout.split() == ["raised", "raised"], out.stderr


def _run_python(code, *flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ores.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [e for e in [env.get("PYTHONPATH")] if e])
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_search_stops_at_the_candidate_cap():
    # with 25 parameters a full scan at max_factors 3 tries 16,276
    # candidates, under the cap; at max_factors 6 it would try about
    # 25**6, so the search runs in a child process with a time limit
    code = textwrap.dedent("""
        from ores import localization as loc
        from ores.algebra import load_preset
        p = load_preset("heisenberg")
        a = p.generator("a")
        s = loc.SProduct(p, (a,))
        for factors in (3, 6):
            res = loc.ore_solve_right(a, s, loc.OreBudget(max_factors=factors))
            print(res.found, res.candidates_tried)
        print(loc.MAX_CANDIDATES)
    """)
    out = _run_python(code)
    assert out.returncode == 0, out.stderr
    three, six, cap = out.stdout.strip().split("\n")
    assert three == "False 16276", out.stderr
    assert six == "False %s" % cap
