"""Presented *-algebras: normal forms, involution, regularity, presets."""

import itertools
import random

import pytest

from ores import algebra, localization
from ores.algebra import (Presentation, format_element, load_preset,
                          random_element)
from ores.errors import DegreeOverflow, PresentationError
from ores.linalg import RowSpace
from ores.localization import is_regular_up_to
from ores.scalars import IMAG, Scalar

from oracles import (naive_normal_form, naive_product_normal_form,
                     reference_check_confluence, reference_nullspace,
                     same_terms)

PRESET_NAMES = ("poly_x", "poly_xy", "heisenberg", "free_xy")


def test_heisenberg_normal_ordering():
    p = load_preset("heisenberg")
    a = p.generator("a")
    ad = p.generator("ad")
    assert a * ad == ad * a + 1
    assert a * ad - ad * a == p.one()
    # one normal-ordering step per crossing
    assert a * a * ad == ad * a * a + 2 * a
    assert a * (ad * ad) == ad * ad * a + 2 * ad


def test_normal_forms_match_naive_rewriter():
    rng = random.Random(7)
    for name in PRESET_NAMES:
        p = load_preset(name)
        for _ in range(40):
            u = random_element(p, rng, max_degree=2, max_terms=3)
            v = random_element(p, rng, max_degree=2, max_terms=3)
            prod = u * v
            assert same_terms(naive_product_normal_form(p, (u, v)), prod)


def test_dagger_is_an_antihomomorphism():
    rng = random.Random(8)
    for name in PRESET_NAMES:
        p = load_preset(name)
        for _ in range(30):
            u = random_element(p, rng)
            v = random_element(p, rng)
            assert (u * v).dagger() == v.dagger() * u.dagger()
            assert (u + v).dagger() == u.dagger() + v.dagger()
            assert u.dagger().dagger() == u
            assert u.scale(IMAG).dagger() == u.dagger().scale(-IMAG)


def test_basis_word_counts():
    assert len(load_preset("poly_x").basis_words(5)) == 6
    assert len(load_preset("poly_xy").basis_words(4)) == 15
    assert len(load_preset("heisenberg").basis_words(4)) == 15
    assert len(load_preset("free_xy").basis_words(3)) == 15


def test_basis_words_stop_at_the_size_limit(monkeypatch):
    # 2^16 - 1 free words up to degree 15 fit; 2^17 - 1 up to 16 do not
    p = Presentation(("x", "y"), (("x",), ("y",)), (), 20)
    assert len(p.basis_words(15)) == algebra._BASIS_LIMIT - 1
    with pytest.raises(DegreeOverflow):
        p.basis_words(16)
    q = Presentation(("x", "y", "z"), (("x",), ("y",), ("z",)), (), 60)
    monkeypatch.setattr(algebra, "_BASIS_LIMIT", 40)
    assert len(q.basis_words(3)) == 40
    with pytest.raises(DegreeOverflow):
        q.basis_words(4)
    assert sorted(q._basis_cache) == [3]


def test_basis_words_past_the_limit_raise_at_once(monkeypatch):
    # the first degree whose basis passed the limit is kept, so a later
    # call at or above it raises without building the basis again; with
    # the limit raised, a fresh build would succeed
    q = Presentation(("x", "y", "z"), (("x",), ("y",), ("z",)), (), 60)
    monkeypatch.setattr(algebra, "_BASIS_LIMIT", 40)
    with pytest.raises(DegreeOverflow):
        q.basis_words(9)
    monkeypatch.setattr(algebra, "_BASIS_LIMIT", 10 ** 6)
    for degree in (4, 9):
        with pytest.raises(DegreeOverflow):
            q.basis_words(degree)
    assert len(q.basis_words(3)) == 40


def test_lower_tables_are_cut_from_a_larger_one():
    # each lower table equals a fresh enumeration and holds the very word
    # objects of the larger table, so nothing was enumerated again
    for name in PRESET_NAMES:
        p = Presentation(*algebra.PRESETS[name])
        big = p.basis_words(6)
        degrees = list(range(-1, 6))
        random.Random(name).shuffle(degrees)
        for d in degrees:
            q = Presentation(*algebra.PRESETS[name])
            words = p.basis_words(d)
            assert words == q.basis_words(d)
            assert all(w is v for w, v in zip(words, big))
            assert p.basis_words(d) is words


def test_positions_index_every_basis_table():
    # one table serves every degree, asked for rising or falling
    for name in PRESET_NAMES:
        for degrees in (range(-1, 7), range(6, -2, -1)):
            p = Presentation(*algebra.PRESETS[name])
            for d in degrees:
                words = p.basis_words(d)
                positions = p.positions(d)
                assert all(positions[w] == words.index(w) for w in words)


def test_basis_words_sorted_by_graded_order():
    for name in PRESET_NAMES:
        p = load_preset(name)
        words = p.basis_words(4)
        keys = [(len(w), w) for w in words]
        assert keys == sorted(keys)
        assert len(set(words)) == len(words)


def _brute_force_basis(p, degree):
    """Every word up to degree with no rule left side as a factor, in
    deglex order, from all words over the generators."""
    lhss = [r.lhs for r in p.rules]
    words = [w for d in range(degree + 1) for w in itertools.product(
                 range(len(p.generators)), repeat=d)
             if not any(w[i:i + len(lhs)] == lhs for lhs in lhss
                        for i in range(d - len(lhs) + 1))]
    return tuple(sorted(words, key=lambda w: (len(w), w)))


def test_basis_words_equal_a_brute_force_enumeration(monkeypatch):
    # left sides of one letter (z -> 0), two (y*x -> x*y) and three
    # (x*x*x -> 0, and a*a*a -> 0 with its dagger b*b*b -> 0)
    mixed = (("x", "y", "z"), (("x",), ("y",), ("z",)),
             ((("z",), ()), (("y", "x"), ((1, ("x", "y")),)),
              (("x", "x", "x"), ())), 8)
    cubes = (("a", "b"), (("a", "b"),),
             ((("a", "a", "a"), ()), (("b", "b", "b"), ())), 8)
    cases = [mixed, cubes] + [algebra.PRESETS[name] for name in PRESET_NAMES]
    for data in cases:
        p = Presentation(*data)
        assert p.basis_words(6) == _brute_force_basis(p, 6)
    # the overflow degree: the limit admits every word up to degree 4 and
    # not those up to degree 5
    for data in (mixed, cubes):
        limit = len(_brute_force_basis(Presentation(*data), 4))
        monkeypatch.setattr(algebra, "_BASIS_LIMIT", limit)
        p = Presentation(*data)
        with pytest.raises(DegreeOverflow):
            p.basis_words(5)
        assert p._basis_overflow == 5
        assert p.basis_words(4) == _brute_force_basis(p, 4)


def test_element_operations():
    p = load_preset("poly_x")
    x = p.generator("x")
    q = (1 + x) ** 3
    assert q == 1 + 3 * x + 3 * x * x + x * x * x
    assert q.degree() == 3
    assert q.coefficient(("x", "x")) == Scalar(3)
    assert q.coefficient(()) == Scalar(1)
    assert (q - q).is_zero()
    assert p.one().is_one()
    assert p.scalar(IMAG) * p.scalar(IMAG) == p.scalar(-1)


def test_degree_cap_enforced():
    p = Presentation(("x",), (("x",),), (), 4)
    x = p.generator("x")
    with pytest.raises(DegreeOverflow):
        (x ** 2) * (x ** 3)


def test_cross_presentation_operations_rejected():
    from ores.errors import PresentationMismatch
    x = load_preset("poly_x").generator("x")
    y = load_preset("poly_xy").generator("y")
    with pytest.raises(PresentationMismatch):
        x * y


def test_rule_must_decrease_term_order():
    with pytest.raises(PresentationError):
        Presentation(("x", "y"), (("x",), ("y",)),
                     ((("x", "y"), ((1, ("y", "x")),)),), 8)


def test_rule_must_respect_dagger():
    # y*x -> i*x*y + 1 conflicts with its own adjoint relation
    with pytest.raises(PresentationError):
        Presentation(("x", "y"), (("x",), ("y",)),
                     ((("y", "x"), ((IMAG, ("x", "y")), (1, ()))),), 8)
    # without the inhomogeneous part the i-twisted commutation is fine
    Presentation(("x", "y"), (("x",), ("y",)),
                 ((("y", "x"), ((IMAG, ("x", "y")),)),), 8)


def test_non_confluent_system_rejected():
    # z*z*z rewrites to different normal forms through the two rules
    with pytest.raises(PresentationError):
        Presentation(("z",), (("z",),),
                     ((("z", "z"), ((1, ("z",)),)),
                      (("z", "z", "z"), ((1, ()),))), 8)


def _twin_rhs(rng, names, lhs):
    """Up to two terms below lhs; on a palindrome lhs, a real coefficient
    on a word and its reverse, so that the rule is its own twin."""
    rhs = []
    for _ in range(rng.randint(0, 2)):
        w = tuple(rng.choice(names)
                  for _ in range(rng.randint(0, len(lhs) - 1)))
        if lhs == lhs[::-1]:
            c = Scalar(rng.randint(-2, 2))
            rhs += [(c, w), (c, w[::-1])]
        else:
            rhs.append((Scalar(rng.randint(-2, 2), rng.randint(-1, 1)), w))
    return rhs


def _twin_rule_set(rng):
    """A presentation's data over 1-3 hermitian generators: rules with
    left sides of 2-4 letters, each with its reversed twin.  In about a
    third of the sets the first two rules are a*b*c*a and b*c -> const,
    whose inclusion is the first ambiguity checked."""
    rules = []
    if rng.random() < 0.3:
        names = "xyz"
        a, b, c = rng.sample(names, 3)
        rules = [((a, b, c, a), _twin_rhs(rng, names, (a, b, c, a))),
                 ((b, c), [(Scalar(rng.randint(-1, 1)), ())])]
    else:
        names = "xyz"[:rng.randint(1, 3)]
    for _ in range(rng.randint(0, 1) if rules else rng.randint(1, 2)):
        lhs = tuple(rng.choice(names) for _ in range(rng.randint(2, 4)))
        rules.append((lhs, _twin_rhs(rng, names, lhs)))
    relations = []
    for lhs, rhs in rules:
        relations.append((lhs, rhs))
        if lhs != lhs[::-1]:
            relations.append((lhs[::-1], [(c.conjugate(), w[::-1])
                                          for c, w in rhs]))
    return names, [(g,) for g in names], relations, rng.randint(4, 8)


def test_confluence_check_matches_the_two_loop_reference(monkeypatch):
    # every seeded set gives the reference's verdict, or its exact
    # message, with enough sets of each kind to see the three outcomes
    def outcome(data):
        try:
            Presentation(*data)
        except PresentationError as exc:
            return str(exc)
        return None

    seen = {"resolves": 0, "critical pair": 0, "embedded critical pair": 0}
    for seed in range(200):
        data = _twin_rule_set(random.Random(seed))
        got = outcome(data)
        with monkeypatch.context() as m:
            m.setattr(Presentation, "_check_confluence",
                      reference_check_confluence)
            assert got == outcome(data), seed
        for kind in seen:
            if (got or "resolves").startswith(kind):
                seen[kind] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("names", [
    # "1" is also the empty word of the moment file format
    pytest.param(("1",), id="one"),
    # i*x would read as the imaginary unit times x
    pytest.param(("x", "i"), id="i"),
])
def test_generator_names_the_grammar_cannot_read_are_refused(names):
    with pytest.raises(PresentationError,
                       match="'%s' is not an identifier" % names[-1]):
        Presentation(names, [(g,) for g in names], (), 4)


def test_idempotent_presentation_has_zero_divisors():
    p = Presentation(("e",), (("e",),), ((("e", "e"), ((1, ("e",)),)),), 12)
    e = p.generator("e")
    f = 1 - e
    assert not e.is_zero() and not f.is_zero()
    assert (e * f).is_zero()
    reg = is_regular_up_to(e, 2)
    assert not reg.regular
    assert (e * reg.witness).is_zero() or (reg.witness * e).is_zero()


def test_regularity_check_adds_each_column_once(monkeypatch):
    # the witness is the kernel vector of the span's own elimination: the
    # columns e * 1 and e * e enter one RowSpace, and no second one
    calls = []
    add = RowSpace.add

    def counted(self, vec):
        calls.append(vec)
        return add(self, vec)

    monkeypatch.setattr(RowSpace, "add", counted)
    p = Presentation(("e",), (("e",),), ((("e", "e"), ((1, ("e",)),)),), 12)
    assert not is_regular_up_to(p.generator("e"), 2).regular
    assert len(calls) == 2


def _reference_zero_divisor(s, depth):
    """The first reduced-echelon kernel vector, by the reference, of
    w -> s w over the words w of degree <= depth, else of w -> w s, as an
    element; None when both kernels are trivial."""
    p = s.presentation
    basis = p.basis_words(depth)
    target = p.basis_words(depth + s.degree())
    for side in ("left", "right"):
        cols = []
        for w in basis:
            word = p.normalize_raw({w: Scalar(1)})
            prod = s * word if side == "left" else word * s
            cols.append([prod.terms.get(t, Scalar(0)) for t in target])
        kernel = reference_nullspace([list(row) for row in zip(*cols)])
        if kernel:
            return p.normalize_raw(
                {w: c for w, c in zip(basis, kernel[0]) if c})
    return None


def test_regularity_witness_is_the_first_echelon_kernel_vector():
    # the witness printed for an irregular denominator is pinned: the
    # first reduced-echelon kernel vector, not any zero divisor
    p = Presentation(("e",), (("e",),), ((("e", "e"), ((1, ("e",)),)),), 12)
    e = p.generator("e")
    for el, want in ((e, e - 1), (1 - e, e)):
        witness = is_regular_up_to(el, 2).witness
        assert witness.terms == _reference_zero_divisor(el, 2).terms
        assert witness == want
    # an isometry: v is left-regular, and only (v vd - 1) v = 0 fails, so
    # the witness comes from the map w -> w v
    q = Presentation(("v", "vd"), (("v", "vd"),),
                     ((("vd", "v"), ((1, ()),)),), 8)
    v, vd = q.generator("v"), q.generator("vd")
    witness = is_regular_up_to(v, 2).witness
    assert witness.terms == _reference_zero_divisor(v, 2).terms
    assert witness == v * vd - 1


def test_full_caches_take_no_new_entries(monkeypatch):
    # past the limits, normal forms and regularity verdicts are computed
    # afresh and stay correct; the caches never grow beyond the limits
    monkeypatch.setattr(algebra, "_NF_LIMIT", 16)
    monkeypatch.setattr(localization, "_SUBSPACE_LIMIT", 2)
    p = Presentation(*algebra.PRESETS["heisenberg"])
    rng = random.Random(10)
    for _ in range(30):
        u = random_element(p, rng, max_degree=3, max_terms=3)
        v = random_element(p, rng, max_degree=3, max_terms=3)
        assert same_terms(naive_product_normal_form(p, (u, v)), u * v)
        assert len(p._nf_cache) <= 16
    # e is idempotent, so e and 1 - e are zero divisors and 1 + e is a unit
    q = Presentation(("e",), (("e",),), ((("e", "e"), ((1, ("e",)),)),), 12)
    e = q.generator("e")
    for _ in range(2):
        for el, regular in ((e, False), (1 - e, False), (1 + e, True)):
            assert is_regular_up_to(el, 2).regular == regular
            assert len(localization._search_state(q).subspaces) <= 2


def test_regularity_of_preset_generators():
    for name in PRESET_NAMES:
        p = load_preset(name)
        g = p.generator(p.generators[0])
        assert is_regular_up_to(1 + g.dagger() * g, 2).regular


def test_format_is_stable_and_deterministic():
    rng = random.Random(9)
    p = load_preset("heisenberg")
    for _ in range(25):
        u = random_element(p, rng, max_degree=3, max_terms=4)
        assert format_element(u) == format_element(1 * u)
    assert format_element(p.zero()) == "0"
    assert format_element(p.one()) == "1"


def test_random_element_is_seed_deterministic():
    p = load_preset("poly_xy")
    a = random_element(p, random.Random(42), max_degree=3)
    b = random_element(p, random.Random(42), max_degree=3)
    assert a == b


def test_naive_rewriter_agrees_on_words():
    p = load_preset("heisenberg")
    # generator indices: ad = 0, a = 1; the word is a*a*ad*ad
    raw = {(1, 1, 0, 0): Scalar(1)}
    el = p.normalize_raw(raw)
    assert same_terms(naive_normal_form(p, raw), el)
    # normal form of a^2 ad^2 = ad^2 a^2 + 4 ad a + 2
    ad = p.generator("ad")
    a = p.generator("a")
    assert el == ad * ad * a * a + 4 * ad * a + 2
