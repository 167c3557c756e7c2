"""File format round-trips: presentations, moment tables, operator specs,
representation dumps, and report rendering.

Round-trips are checked at byte level where the format promises it
(canonical JSON with sorted keys) and at value level elsewhere.  Floats
travel as 17-significant-digit decimals, so parsing them back must
reproduce the exact double.
"""

import copy
import json
import os
import pickle
import random
import resource
import subprocess
import sys
from fractions import Fraction as Rational

from ores.algebra import load_preset, random_element
from ores.errors import (ConfigError, OresError, PresentationMismatch,
                         StateAxiomError)
from ores.files import (
    canonical_json,
    gns_to_dict,
    load_moments,
    load_operator,
    load_presentation,
    moments_from_dict,
    moments_to_dict,
    operator_from_dict,
    operator_to_dict,
    presentation_from_dict,
    presentation_hash,
    presentation_to_dict,
    render_text_report,
    save_gns,
    save_moments,
    save_operator,
    save_presentation,
    str_to_word,
    word_to_str,
    write_json_report,
    write_text_report,
)
from ores.formulas import Formula, QPoly
from ores.gns import gns
from ores.operators import SIZE_CAP, BandedOperator
from ores.scalars import IMAG, Scalar
from ores.states import dirac_state, gaussian_state

import pytest

PRESET_NAMES = ("poly_x", "poly_xy", "heisenberg", "free_xy")


def test_presentation_round_trip_is_byte_stable(tmp_path):
    for name in PRESET_NAMES:
        p = load_preset(name)
        first = tmp_path / ("%s_a.json" % name)
        second = tmp_path / ("%s_b.json" % name)
        save_presentation(p, first)
        q = load_presentation(first)
        save_presentation(q, second)
        assert first.read_bytes() == second.read_bytes()
        assert q.generators == p.generators
        assert q.degree_cap == p.degree_cap
        assert q.name == p.name
        assert presentation_hash(q) == presentation_hash(p)


def test_presentation_round_trip_preserves_rules():
    p = load_preset("heisenberg")
    q = presentation_from_dict(presentation_to_dict(p))
    rng = random.Random(11)
    for _ in range(20):
        el = random_element(p, rng, max_degree=4)
        mirrored = q.normalize_raw({w: c for w, c in el.terms.items()})
        assert tuple(sorted(mirrored.terms.items())) == tuple(
            sorted(el.terms.items()))


def test_presentation_hash_separates_presets():
    hashes = {presentation_hash(load_preset(n)) for n in PRESET_NAMES}
    assert len(hashes) == len(PRESET_NAMES)


def test_malformed_presentation_rejected():
    good = presentation_to_dict(load_preset("poly_x"))
    missing = dict(good)
    del missing["generators"]
    with pytest.raises(ConfigError):
        presentation_from_dict(missing)
    bad_coeff = json.loads(canonical_json(
        presentation_to_dict(load_preset("heisenberg"))))
    bad_coeff["relations"][0]["rhs"][0]["coeff"] = "one"
    with pytest.raises(ConfigError):
        presentation_from_dict(bad_coeff)


def test_moment_table_round_trip(tmp_path):
    p = load_preset("poly_x")
    f = gaussian_state(p, 8)
    first = tmp_path / "moments_a.json"
    second = tmp_path / "moments_b.json"
    save_moments(f, first)
    g = load_moments(first, p)
    save_moments(g, second)
    assert first.read_bytes() == second.read_bytes()
    assert g.degree == f.degree
    assert g.table == f.table


def test_moment_words_are_dot_joined():
    p = load_preset("heisenberg")
    from ores.states import dirac_state
    d = moments_to_dict(dirac_state(p, 3))
    assert "1" in d["moments"]
    assert d["moments"]["1"] == [1, 1, 0, 1]
    assert "ad.a" in d["moments"]
    assert word_to_str(()) == "1"
    assert str_to_word("1") == ()
    assert str_to_word(word_to_str(("ad", "a", "a"))) == ("ad", "a", "a")


def test_moment_loading_validates_state_axioms():
    p = load_preset("poly_x")
    d = moments_to_dict(gaussian_state(p, 4))
    d["moments"]["1"] = [2, 1, 0, 1]
    with pytest.raises(StateAxiomError):
        moments_from_dict(d, p)
    broken = {"degree": "four", "moments": {}}
    with pytest.raises(ConfigError):
        moments_from_dict(broken, p)


def test_arithmetic_faults_in_files_are_config_errors(tmp_path):
    # a zero denominator raised ZeroDivisionError, and 1e400, which json
    # reads as infinity, raised OverflowError from int(); a zero
    # denominator is refused in either part, also next to a real part
    # over 1, which is read as an int
    p = load_preset("heisenberg")
    zero_den = presentation_to_dict(p)
    zero_den["relations"][0]["rhs"][0]["coeff"] = [1, 0, 0, 1]
    zero_im_den = presentation_to_dict(p)
    zero_im_den["relations"][0]["rhs"][0]["coeff"] = [1, 1, 0, 0]
    huge_cap = json.dumps(presentation_to_dict(p)).replace(
        '"degree_cap": 20', '"degree_cap": 1e400')
    assert "1e400" in huge_cap
    moments = moments_to_dict(dirac_state(p, 2))
    moments["moments"]["1"] = [1, 0, 0, 1]
    moments_im = moments_to_dict(dirac_state(p, 2))
    moments_im["moments"]["1"] = [1, 1, 0, 0]

    def load_heisenberg_moments(path):
        return load_moments(path, p)

    cases = [
        (load_presentation, json.dumps(zero_den)),
        (load_presentation, json.dumps(zero_im_den)),
        (load_presentation, huge_cap),
        (load_heisenberg_moments, json.dumps(moments)),
        (load_heisenberg_moments, json.dumps(moments_im)),
        (load_heisenberg_moments, '{"degree": 1e400, "moments": {}}'),
        (load_operator,
         '{"bands": [{"offset": 0, "kind": "const", "coeffs": [[1, 0]]}]}'),
        (load_operator,
         '{"bands": [{"offset": 1e400, "kind": "const", "coeffs": [[1, 1]]}]}'),
    ]
    for i, (load, text) in enumerate(cases):
        path = tmp_path / ("case%d.json" % i)
        path.write_text(text)
        with pytest.raises(ConfigError):
            load(path)


def test_operator_round_trip(tmp_path):
    ops = [
        BandedOperator.annihilation(),
        BandedOperator.creation(),
        BandedOperator.identity(),
        BandedOperator({0: Formula.poly(
            [Scalar(1), Scalar(Rational(3, 2))])}),
        BandedOperator.weighted_shift(2, Formula.sqrt(QPoly([2, 1]))),
        BandedOperator.annihilation() + BandedOperator.creation(),
    ]
    for i, op in enumerate(ops):
        path = tmp_path / ("op_%d.json" % i)
        save_operator(op, path)
        back = load_operator(path)
        assert back == op
        again = tmp_path / ("op_%d_b.json" % i)
        save_operator(back, again)
        assert path.read_bytes() == again.read_bytes()


def test_unrepresentable_bands_rejected():
    mixed = Formula.sqrt(QPoly([0, 1])) * Formula.poly([Scalar(2)])
    with pytest.raises(ConfigError):
        operator_to_dict(BandedOperator.weighted_shift(1, mixed))
    radical_sum = Formula.sqrt(QPoly([1, 1])) + Formula.sqrt(QPoly([2, 1]))
    with pytest.raises(ConfigError):
        operator_to_dict(BandedOperator({0: radical_sum}))
    with pytest.raises(ConfigError):
        operator_to_dict(BandedOperator({0: Formula.poly([IMAG])}))


def test_malformed_operator_file_rejected():
    with pytest.raises(ConfigError):
        operator_from_dict({"bands": [
            {"offset": 0, "kind": "cubic", "coeffs": []}]})
    with pytest.raises(ConfigError):
        operator_from_dict({"bands": [
            {"offset": 1, "kind": "const", "coeffs": [[1, 1]]},
            {"offset": 1, "kind": "const", "coeffs": [[2, 1]]}]})
    with pytest.raises(ConfigError):
        operator_from_dict({"bands": [
            {"offset": 0, "kind": "const", "coeffs": [[1, 1], [2, 1]]}]})
    with pytest.raises(ConfigError):
        operator_from_dict({"rows": []})


def test_unreadable_json_files_are_config_errors(tmp_path):
    # the JSON reader's own ValueErrors escaped every loader: a file that
    # is not JSON raised JSONDecodeError, one with an integer literal past
    # Python's 4,300-digit limit a plain ValueError
    p = load_preset("heisenberg")
    texts = ["{not json", '{"degree": %s, "moments": {}}' % ("9" * 5000)]
    loaders = (load_presentation, load_operator,
               lambda path: load_moments(path, p))
    for i, text in enumerate(texts):
        path = tmp_path / ("case%d.json" % i)
        path.write_text(text)
        for load in loaders:
            with pytest.raises(ConfigError, match="case%d.json" % i):
                load(path)


def test_float_literals_in_files_are_config_errors(tmp_path):
    # every number of the file formats is an integer, and int() truncated
    # a float: the moment f(x) = 0.9 loaded as 0, the band coefficient
    # 1.7 as 1 and the degree cap 4.9 as 4
    p = load_preset("poly_x")
    moments = moments_to_dict(gaussian_state(p, 2))
    moments["moments"]["x"] = [0.9, 1, 0, 1]
    operator = {"bands": [{"offset": 0, "kind": "const",
                           "coeffs": [[1.7, 1]]}]}
    presentation = presentation_to_dict(load_preset("heisenberg"))
    presentation["degree_cap"] = 4.9
    for name, d, load, literal in (
            ("moments", moments, lambda path: load_moments(path, p), "0.9"),
            ("operator", operator, load_operator, "1.7"),
            ("presentation", presentation, load_presentation, "4.9")):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError,
                           match=r"%s\.json holds the float %s"
                           % (name, literal)):
            load(path)


def test_two_loads_of_one_file_are_two_presentations(tmp_path):
    path = tmp_path / "heisenberg.json"
    save_presentation(load_preset("heisenberg"), path)
    first, second = load_presentation(path), load_presentation(path)
    with pytest.raises(PresentationMismatch):
        first.generator("a") * second.generator("ad")


_DAMAGE = (None, [], {}, "x", [[]], 10 ** 9)


def _paths(node, prefix=()):
    """The path of every field and nested field below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(d, path):
    for key in path:
        d = d[key]
    return d


def _damaged(d, path, value):
    out = copy.deepcopy(d)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("loader, valid", [
    pytest.param(presentation_from_dict,
                 presentation_to_dict(load_preset("heisenberg")),
                 id="presentation"),
    pytest.param(lambda d: moments_from_dict(d, load_preset("poly_x")),
                 moments_to_dict(gaussian_state(load_preset("poly_x"), 2)),
                 id="moments"),
    pytest.param(operator_from_dict, operator_to_dict(BandedOperator({
        -1: Formula.sqrt(QPoly([0, 1])),
        0: Formula.poly([Scalar(1), Scalar(Rational(3, 2))]),
        2: Formula.const(2)})), id="operator"),
])
def test_damaged_fields_load_or_raise_ores_errors(loader, valid):
    # each field and nested field in turn replaced by a value of the
    # wrong shape: the loader raises an OresError, which the CLI turns
    # into exit code 2, and never another exception; or it returns, and
    # a returned operator has no band further out than the size cap,
    # where applying it would allocate a vector past that size
    loader(valid)
    escaped = []
    for path in _paths(valid):
        for value in _DAMAGE:
            try:
                loaded = loader(_damaged(valid, path, value))
            except OresError:
                continue
            except Exception as exc:
                escaped.append((path, value, repr(exc)))
                continue
            if (isinstance(loaded, BandedOperator)
                    and any(abs(k) > SIZE_CAP for k in loaded.bands)):
                escaped.append((path, value, "band past the size cap"))
    assert not escaped


@pytest.mark.parametrize("loader, valid, kind", [
    pytest.param(presentation_from_dict,
                 presentation_to_dict(load_preset("heisenberg")),
                 "presentation", id="presentation"),
    pytest.param(lambda d: moments_from_dict(d, load_preset("poly_x")),
                 moments_to_dict(gaussian_state(load_preset("poly_x"), 2)),
                 "moment", id="moments"),
    pytest.param(operator_from_dict, operator_to_dict(BandedOperator({
        -1: Formula.sqrt(QPoly([0, 1])),
        0: Formula.poly([Scalar(1), Scalar(Rational(3, 2))])})),
        "operator", id="operator"),
])
def test_integer_fields_take_json_integers_only(loader, valid, kind):
    # every integer of a valid file in turn replaced by a string or a
    # boolean that int() would read
    paths = [path for path in _paths(valid) if type(_at(valid, path)) is int]
    assert paths
    for path in paths:
        for value in ("1", True):
            with pytest.raises(ConfigError,
                               match="malformed %s file" % kind):
                loader(_damaged(valid, path, value))


# Loads each pickled moment dict on poly_x: from a JSON file where every
# key is a string, else as a dict; prints one JSON line per dict.
_MOMENT_LIMITS_CHILD = """
import json, pickle, sys
from ores.algebra import load_preset
from ores.errors import ConfigError
from ores.files import load_moments, moments_from_dict
p = load_preset("poly_x")
for i, (key, d) in enumerate(pickle.load(sys.stdin.buffer)):
    try:
        if all(isinstance(k, str) for k in d["moments"]):
            path = "%s/%d.json" % (sys.argv[1], i)
            with open(path, "w") as fh:
                json.dump(d, fh)
            f = load_moments(path, p)
        else:
            f = moments_from_dict(d, p)
    except ConfigError as exc:
        out = ["ConfigError", str(exc)]
    except Exception as exc:
        out = [type(exc).__name__, str(exc)]
    else:
        out = ["loaded", f.table[key].to_quad()]
    print(json.dumps(out))
"""


def test_moment_files_under_limits_load_or_raise_config_errors(tmp_path):
    # damaged keys and extreme quads, in a child process under a 2 GiB
    # address space and a time bound: each file loads, with the exact
    # value, or raises ConfigError with the message of the reader
    valid = moments_to_dict(gaussian_state(load_preset("poly_x"), 2))
    words = [k for k in valid["moments"] if k != "1"]
    cases, expected = [], []
    for k in list(valid["moments"]):
        for bad in ("", "x..x", "y", 7):
            d = copy.deepcopy(valid)
            d["moments"] = {bad if key == k else key: v
                            for key, v in valid["moments"].items()}
            cases.append(((), d))
            if bad == 7:
                message = "'int' object has no attribute 'split'"
                expected.append(["ConfigError",
                                 "malformed moment file: %s" % message])
            else:
                expected.append(["ConfigError",
                                 "moment word %r uses unknown generator %r"
                                 % (bad, "y" if bad == "y" else "")])
    nested = "malformed moment file: list where an integer belongs"
    big = 10 ** 400
    quads = [([big, 1, 0, 1], Rational(big)),
             ([1, big, 0, 1], Rational(1, big)),
             ([-big, -3, 0, 1], Rational(big, 3)),
             ([2, -4, 0, -7], Rational(-1, 2)),
             ([6, 4, 0, big], Rational(3, 2)),
             ([1, 0, 0, 1], "malformed moment file: Fraction(1, 0)"),
             ([1, 1, 0, 0], "malformed moment file: Fraction(0, 0)"),
             ([big, 0, 0, 0], "malformed moment file: Fraction(%d, 0)" % big),
             ([[1], 1, 0, 1], nested),
             ([1, [[[1]]], 0, 1], nested),
             ([1, 1, 0], "malformed moment file: not enough values to "
                         "unpack (expected 4, got 3)")]
    for k in words:
        for quad, want in quads:
            d = copy.deepcopy(valid)
            d["moments"][k] = quad
            cases.append(((0,) * len(str_to_word(k)), d))
            if isinstance(want, Rational):
                expected.append(["loaded",
                                 [want.numerator, want.denominator, 0, 1]])
            else:
                expected.append(["ConfigError", want])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _MOMENT_LIMITS_CHILD, str(tmp_path)],
        input=pickle.dumps(cases), env=env, capture_output=True,
        timeout=60, preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    assert proc.returncode == 0, proc.stderr.decode()
    outcomes = [json.loads(line) for line in proc.stdout.splitlines()]
    assert outcomes == expected


def test_representation_dump_structure(tmp_path):
    p = load_preset("poly_x")
    rep = gns(gaussian_state(p, 5))
    d = gns_to_dict(rep)
    meta = d["metadata"]
    assert meta["degree"] == 5
    assert meta["rank"] == rep.gram_rank
    assert meta["ranks"] == list(rep.ranks)
    assert meta["generators"] == ["x"]
    assert meta["presentation_hash"] == presentation_hash(p)
    assert len(d["cyclic"]) == rep.gram_rank
    M = rep.matrix("x")
    block = d["matrices"]["x"]
    assert (block["rows"], block["cols"]) == M.shape
    # 17 significant digits reproduce each double exactly
    k = 0
    for r in range(block["rows"]):
        for c in range(block["cols"]):
            re_s, im_s = block["entries"][k]
            assert float(re_s) == complex(M[r, c]).real
            assert float(im_s) == complex(M[r, c]).imag
            k += 1
    path = tmp_path / "rep.json"
    save_gns(rep, path)
    assert json.loads(path.read_text()) == d


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"b": 1, "a": [2, {"z": 0, "y": False}]})
    b = canonical_json({"a": [2, {"y": False, "z": 0}], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, {"y": False, "z": 0}], "b": 1}


def test_text_report_rendering(tmp_path):
    report = {
        "scenario": "demo",
        "seed": 7,
        "pass": True,
        "items": [
            {"id": "first", "pass": True, "residual": 1.25e-11, "n": 3},
            {"id": "second", "pass": False, "count": 2},
        ],
    }
    text = render_text_report(report)
    assert text == render_text_report(dict(report))
    lines = text.splitlines()
    assert lines[0] == "scenario: demo"
    assert lines[1] == "seed: 7"
    assert lines[2] == "pass: true"
    assert lines[3] == "items: 2"
    assert "first: pass" in lines[4]
    assert "residual=1.25e-11" in lines[4]
    assert "second: FAIL" in lines[5]
    path = tmp_path / "report.txt"
    write_text_report(report, path, generated="2026-01-01T00:00:00Z")
    body = path.read_text()
    assert body.startswith("# generated: 2026-01-01T00:00:00Z\n")
    assert body[body.index("\n") + 1:] == text
    jpath = tmp_path / "report.json"
    write_json_report(report, jpath)
    assert jpath.read_text() == canonical_json(report)
