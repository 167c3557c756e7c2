"""Command-line interface: exit codes and printed output.

Exit code contract: 0 when the command and its checks pass, 1 when a
check fails (no witness, inequality, failed probe, truncation cap),
2 on usage, parse, or configuration errors.  Tests drive main(argv)
in-process and read captured stdout/stderr.
"""

import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import ores.algebra
import ores.localization
import ores.states
from ores.cli import main
from ores.errors import DegreeOverflow
from ores.exprparse import MAX_NESTING
from ores.gns import gns
from ores.files import (presentation_to_dict, save_moments, save_operator,
                        save_presentation)
from ores.algebra import Presentation, load_preset
from ores.formulas import Formula
from ores.operators import BandedOperator
from ores.states import gaussian_state

import pytest


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, _ = run(capsys, ["normalize", "a*a' - a'*a"])
    assert code == 0
    assert out == "1\n"
    code, out, _ = run(capsys, ["normalize", "a*a'"])
    assert code == 0
    assert out == "1 + ad*a\n"
    code, out, _ = run(capsys,
                       ["normalize", "--presentation", "poly_xy", "y*x"])
    assert code == 0
    assert out == "x*y\n"


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "ores", "normalize",
                           "a*a' - a'*a"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_cli_import_leaves_scipy_unloaded():
    # scipy.linalg took about half of the CLI's import time, and only the
    # banded solve uses it; inverting 1 + a*a, which is diagonal, is one
    # division and needs no banded solve
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for command in ("", "ores.cli.main(['op', 'invert', '--expr', 'a', "
                        "'--vector', '1,2']); "):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, ores.cli; " + command +
             "print('scipy.linalg' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False", proc.stdout


def test_normalize_usage_errors(capsys):
    code, _, err = run(capsys, ["normalize", "a +"])
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, ["normalize", "--presentation", "nope", "a"])
    assert code == 2
    code, _, err = run(capsys, ["normalize", "--presentation", "poly_x", "a"])
    assert code == 2

    code, _, err = run(capsys, [])
    assert code == 2


def test_presentation_file_flag(tmp_path, capsys):
    path = tmp_path / "pres.json"
    save_presentation(load_preset("heisenberg"), path)
    code, out, _ = run(capsys,
                       ["normalize", "--presentation", str(path), "a*a'"])
    assert code == 0
    assert out == "1 + ad*a\n"


def test_ore_solve_witness_found(capsys):
    code, out, _ = run(capsys, ["ore", "solve", "a", "(1 + ad'*ad)"])
    assert code == 0
    assert "b: a" in out
    assert "t: (1 + ad*a)" in out
    assert "check: a*t == s*b" in out


def test_ore_solve_no_witness(capsys):
    code, out, _ = run(capsys, ["ore", "solve", "a", "(1 + a'*a)"])
    assert code == 1
    assert "no witness within budget" in out
    assert "candidates tried:" in out


def _limit_address_space():
    limit = 3 * 2 ** 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_ore_solve_on_a_large_free_algebra_stays_in_memory(tmp_path):
    # At degree cap 14 the span s * A has 32,767 target words; its dense
    # annihilator mod p would take about 6.4 GB
    path = tmp_path / "free14.json"
    save_presentation(Presentation(("x", "y"), (("x",), ("y",)), (), 14),
                      path)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "ores", "ore", "solve", "--presentation",
         str(path), "--budget-factors", "1", "--budget-degree", "6", "x*y",
         "(1 + x'*x)"], env=env, capture_output=True, text=True,
        timeout=60, preexec_fn=_limit_address_space)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1
    assert proc.stdout == ("no witness within budget (factors <= 1, "
                           "degree <= 6); candidates tried: 15877\n")


def test_ore_solve_past_the_basis_limit_is_not_within_budget(
        tmp_path, capsys):
    # at degree cap 16 the exact check of a late candidate needs the basis
    # of all 2^17 - 1 words up to degree 16, past the basis limit: that
    # candidate is undecided, and the search still ends not within budget
    path = tmp_path / "free16.json"
    save_presentation(Presentation(("x", "y"), (("x",), ("y",)), (), 16),
                      path)
    code, out, err = run(capsys, [
        "ore", "solve", "--presentation", str(path), "--budget-factors", "1",
        "--budget-degree", "4", "x*x*x*x*y*y*y*y", "(1 + x'*x)"])
    assert (code, err) == (1, "")
    assert out == ("no witness within budget (factors <= 1, degree <= 4); "
                   "candidates tried: 901\n")


def test_far_band_offset_is_a_usage_error(tmp_path):
    # a band at offset -10**9 made op apply allocate a 15 GiB vector
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"bands": [
        {"offset": -10 ** 9, "kind": "const", "coeffs": [[1, 1]]}]}))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "ores", "op", "apply", "--operator",
         str(path), "--vector", "1"], env=env, capture_output=True,
        text=True, timeout=60, preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "size cap" in line


def test_frac_add(capsys):
    code, out, _ = run(capsys, [
        "frac", "add", "--presentation", "poly_x",
        "2", "(x) / (1 + x*x)", "(x) / (1 + x*x)"])
    assert code == 0
    assert out == "(3*x + 3*x*x*x) / (1 + x*x)*(1 + x*x)\n"


def test_frac_mul(capsys):
    code, out, _ = run(capsys, [
        "frac", "mul", "--presentation", "poly_x",
        "(x) / (1 + x*x)", "(x) / (1 + x*x)"])
    assert code == 0
    assert out == "(x*x) / (1 + x*x)*(1 + x*x)\n"


def test_frac_dagger_known_value(capsys):
    code, out, _ = run(capsys, ["frac", "dagger", "(a) / (1 + a'*a)"])
    assert code == 0
    assert out == "(ad) / (1 + a*ad)\n"


def test_frac_eq_amplified_pair(capsys):
    code, out, _ = run(capsys, [
        "frac", "eq", "--presentation", "poly_x",
        "(x) / (1 + x*x)", "(x + x*x*x) / (1 + x*x)*(1 + x*x)"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "equal"
    assert lines[1] == "u: 1 + 2*x*x + x*x*x*x"
    assert lines[2] == "v: 1 + x*x"


def test_frac_eq_distinguishes(capsys):
    code, out, _ = run(capsys, [
        "frac", "eq", "(1) / (1 + a'*a)", "(1) / (1 + ad'*ad)"])
    assert code == 1
    assert "not equal" in out


def test_frac_eq_undecided(capsys):
    code, out, _ = run(capsys, [
        "frac", "eq", "--presentation", "free_xy",
        "(1) / (1 + x*x)", "(1) / (1 + y*y)"])
    assert code == 1
    assert "undecided" in out


def test_cone_verify(capsys):
    code, out, _ = run(capsys, [
        "cone", "verify", "--presentation", "poly_x", "x*x",
        "--term", "1", "x"])
    assert code == 0
    assert "verified" in out
    code, out, _ = run(capsys, [
        "cone", "verify", "--presentation", "poly_x", "1 + x*x",
        "--term", "1", "x"])
    assert code == 1
    assert "FAILED" in out
    code, _, err = run(capsys, [
        "cone", "verify", "--presentation", "poly_x", "x*x",
        "--term", "x", "x"])
    assert code == 2
    assert "expected a scalar" in err


def test_gns_build_gaussian(tmp_path, capsys):
    code, out, _ = run(capsys, [
        "gns", "build", "--presentation", "poly_x", "--state", "gaussian",
        "--degree", "4", "--out", str(tmp_path)])
    assert code == 0
    assert "degree: 4" in out
    assert "ranks: [1, 2, 3, 4, 5]" in out
    assert "adjoint defect x:" in out
    dump = json.loads((tmp_path / "gns.json").read_text())
    assert dump["metadata"]["rank"] == 5
    assert dump["metadata"]["generators"] == ["x"]


def test_gns_build_from_moment_file(tmp_path, capsys):
    p = load_preset("poly_x")
    path = tmp_path / "moments.json"
    save_moments(gaussian_state(p, 3), path)
    code, out, _ = run(capsys, [
        "gns", "build", "--presentation", "poly_x", "--moments", str(path),
        "--out", str(tmp_path)])
    assert code == 0
    assert "ranks: [1, 2, 3, 4]" in out


def test_gns_build_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, ["gns", "build", "--presentation", "poly_x"])
    assert code == 2
    assert "exactly one of --moments or --state" in err
    code, _, err = run(capsys, [
        "gns", "build", "--presentation", "poly_x", "--state", "gaussian",
        "--moments", str(tmp_path / "m.json")])
    assert code == 2


def test_gns_build_past_the_basis_limit_exits_with_code_2(
        tmp_path, capsys, monkeypatch):
    # three free generators at degree 12 ask for 3^24 words; the limit is
    # lowered so that a missing bound fails here rather than filling memory
    monkeypatch.setattr(ores.algebra, "_BASIS_LIMIT", 1 << 12)
    path = tmp_path / "free3.json"
    save_presentation(Presentation(("x", "y", "z"),
                                   (("x",), ("y",), ("z",)), (), 60), path)
    code, _, err = run(capsys, [
        "gns", "build", "--presentation", str(path), "--state", "vacuum",
        "--degree", "12", "--out", str(tmp_path)])
    assert code == 2
    assert "more than 4096 words" in err


def test_gns_build_past_the_gram_limit_exits_with_code_2(tmp_path, capsys):
    # heisenberg vacuum at degree 20 with a degree cap of 80 ran for 44 s;
    # the Gram limit refuses every degree past the last one it allows
    p = Presentation(("ad", "a"), (("a", "ad"),),
                     ((("a", "ad"), ((1, ("ad", "a")), (1, ()))),), 80,
                     name="heisenberg")
    limit = ores.states._GRAM_LIMIT
    degree = next(d for d in range(1, 40) if len(p.basis_words(d)) > limit)
    assert len(p.basis_words(degree - 1)) <= limit
    path = tmp_path / "heisenberg80.json"
    save_presentation(p, path)
    code, _, err = run(capsys, [
        "gns", "build", "--presentation", str(path), "--state", "vacuum",
        "--degree", str(degree), "--out", str(tmp_path)])
    assert code == 2
    assert "Gram matrix of dimension" in err
    assert not (tmp_path / "gns.json").exists()


def test_gns_build_past_float64_exits_with_code_2(tmp_path, capsys):
    # the exact reduction certifies the degree-40 Gaussian table, whose
    # Hankel pivot block is too ill-conditioned for a float64 Cholesky;
    # numpy's LinAlgError came out as "Matrix is not positive definite"
    p = Presentation(("x",), (("x",),), (), 80, name="poly_x")
    f = gaussian_state(p, 40)
    assert ores.states.check_state_axioms(f).ok
    with pytest.raises(DegreeOverflow, match="positive definite in float64"):
        gns(f)
    path = tmp_path / "poly_x80.json"
    save_presentation(p, path)
    code, _, err = run(capsys, [
        "gns", "build", "--presentation", str(path), "--state", "gaussian",
        "--degree", "40", "--out", str(tmp_path)])
    assert code == 2
    assert "certified pivot block" in err
    assert not (tmp_path / "gns.json").exists()


def test_gns_build_past_its_adjoint_accuracy_exits_with_code_2(
        tmp_path, capsys):
    # gns() promises its invariants to 1e-10 on the inner window; on the
    # Gaussian table the adjoint defect is 6.2e-11 at degree 16, 3.9e-10
    # at 18 and 7.6e-5 at 30, where the Cholesky still succeeds, and
    # those representations were returned with exit code 0
    p = Presentation(("x",), (("x",),), (), 80, name="poly_x")
    rep = gns(gaussian_state(p, 16))
    assert rep.adjoint_defect("x") <= 1e-10
    for degree in (18, 30):
        with pytest.raises(DegreeOverflow, match="adjoint identity of x"):
            gns(gaussian_state(p, degree))
    path = tmp_path / "poly_x80.json"
    save_presentation(p, path)
    code, _, err = run(capsys, [
        "gns", "build", "--presentation", str(path), "--state", "gaussian",
        "--degree", "18", "--out", str(tmp_path)])
    assert code == 2
    assert "> 1e-10 in float64" in err
    assert not (tmp_path / "gns.json").exists()
    code, _, _ = run(capsys, [
        "gns", "build", "--presentation", str(path), "--state", "gaussian",
        "--degree", "16", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "gns.json").exists()


def test_unreadable_files_exit_with_code_2(tmp_path, capsys):
    # an OSError, or a zero denominator in a file, escaped main() as a
    # traceback with exit code 1, the code of a failed check
    missing = str(tmp_path / "missing.json")
    bad_op = tmp_path / "op.json"
    bad_op.write_text(
        '{"bands": [{"offset": 0, "kind": "const", "coeffs": [[1, 0]]}]}')
    for argv in (
            ["gns", "build", "--presentation", "poly_x", "--moments", missing],
            ["op", "apply", "--operator", missing, "--vector", "1"],
            ["normalize", "--presentation", str(tmp_path), "x"],
            ["op", "apply", "--operator", str(bad_op), "--vector", "1"]):
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert "error:" in err


# each of the next three inputs ended in a RecursionError traceback
# with exit code 1


def test_deeply_nested_parentheses_exit_with_code_2(capsys):
    code, _, err = run(capsys, ["normalize", "(" * 300 + "a" + ")" * 300])
    assert code == 2
    assert err.startswith(
        "error: parentheses nest deeper than %d" % MAX_NESTING)
    assert len(err.splitlines()) == 1


def test_a_too_deep_json_file_exits_with_code_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, _, err = run(capsys, ["normalize", "--presentation", str(deep), "a"])
    assert code == 2
    assert err.startswith("error: ") and "nests too deeply" in err
    assert len(err.splitlines()) == 1


def _limit_address_space_2gib():
    limit = 2 * 2 ** 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_a_product_past_the_term_limit_exits_with_code_2(tmp_path):
    # the product (x+y)*...*(x+y) of 22 factors has 2^22 terms under
    # degree cap 60; it ran out of memory after about 33 s with exit code
    # 1, and from 17 factors on a product is refused before it is formed
    path = tmp_path / "free60.json"
    save_presentation(Presentation(("x", "y"), (("x",), ("y",)), (), 60),
                      path)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ores", "normalize", "--presentation",
         str(path), "*".join(["(x+y)"] * 22)], env=env, capture_output=True,
        text=True, timeout=20, preexec_fn=_limit_address_space_2gib)
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: product of 65536 by 2 terms has 131072 "
                           "word pairs, more than 65536\n")


def test_ore_solve_without_a_screen_prime_exits_with_code_2(
        tmp_path, capsys, monkeypatch):
    # with the primes drawn below 8, a rule coefficient 1/5 leaves none
    monkeypatch.setattr(ores.localization, "_PRIME_BOUND", 8)
    path = tmp_path / "fifth.json"
    save_presentation(Presentation(
        ("ad", "a"), (("a", "ad"),),
        ((("a", "ad"), ((1, ("ad", "a")), (Fraction(1, 5), ()))),), 20),
        path)
    code, out, err = run(capsys, ["ore", "solve", "--presentation", str(path),
                                  "a", "(1 + a'*a)"])
    assert (code, out) == (2, "")
    assert err == ("error: every prime = 1 mod 4 below 8 divides a rule "
                   "denominator: no screen\n")


def test_a_long_dagger_chain_folds_by_parity(capsys):
    # a valid expression, and x'' = x
    code, out, err = run(capsys, ["normalize", "a" + "'" * 5000])
    assert (code, out, err) == (0, "a\n", "")


def test_op_apply(capsys):
    code, out, _ = run(capsys,
                       ["op", "apply", "--expr", "a", "--vector", "0,1,0"])
    assert code == 0
    assert out == "result: [1+0j, 0+0j, 0+0j]\n"
    code, out, _ = run(capsys,
                       ["op", "apply", "--expr", "a'*a", "--vector", "0,1"])
    assert code == 0
    assert out == "result: [0+0j, 1+0j]\n"


def test_op_apply_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, ["op", "apply", "--vector", "1"])
    assert code == 2
    assert "exactly one of --operator or --expr" in err
    code, _, err = run(capsys, [
        "op", "apply", "--expr", "a", "--operator",
        str(tmp_path / "op.json"), "--vector", "1"])
    assert code == 2
    code, _, err = run(capsys,
                       ["op", "apply", "--expr", "a", "--vector", "one,two"])
    assert code == 2
    assert "comma-separated" in err


def test_op_apply_operator_file(tmp_path, capsys):
    path = tmp_path / "op.json"
    save_operator(BandedOperator.annihilation(), path)
    code, out, _ = run(capsys, [
        "op", "apply", "--operator", str(path), "--vector", "0,1,0"])
    assert code == 0
    assert out == "result: [1+0j, 0+0j, 0+0j]\n"


def test_op_invert(capsys):
    code, out, _ = run(capsys,
                       ["op", "invert", "--expr", "a", "--vector", "1,0,0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("x: [1+0j")
    assert lines[1] == "residual: 0.000000e+00"
    assert lines[2].startswith("truncation_size:")


def test_op_invert_truncation_cap_is_check_failure(tmp_path, capsys):
    path = tmp_path / "field.json"
    save_operator(BandedOperator.annihilation() + BandedOperator.creation(),
                  path)
    code, _, err = run(capsys, [
        "op", "invert", "--operator", str(path), "--vector", "1",
        "--tol", "1e-30"])
    assert code == 1
    assert "check failed:" in err


def test_op_invert_refuses_product_on_missing_rows(tmp_path, capsys):
    path = tmp_path / "shift.json"
    save_operator(BandedOperator.weighted_shift(1, Formula.poly([1, 2])),
                  path)
    code, _, err = run(capsys, [
        "op", "invert", "--operator", str(path), "--vector", "1"])
    assert code == 2
    assert "no row" in err


def test_op_probe_surjectivity(capsys):
    code, out, _ = run(capsys,
                       ["op", "probe", "--den", "(1 + a'*a)",
                        "--targets", "3"])
    assert code == 0
    assert "target_0: pass" in out
    assert "probe surjectivity: pass" in out


def test_op_probe_factorization(capsys):
    code, out, _ = run(capsys, [
        "op", "probe", "--probe", "factorization", "--den", "(1 + a'*a)",
        "--targets", "3"])
    assert code == 0
    assert "band_formulas: pass" in out
    assert "probe composite_equals_product: pass" in out


def test_op_probe_core_density(capsys):
    code, out, _ = run(capsys, [
        "op", "probe", "--probe", "core-density", "--den", "(1 + a'*a)",
        "--num", "a", "--vector", "1,0.5,0.25,0.125"])
    assert code == 0
    assert "probe core_density: pass" in out
    code, _, err = run(capsys, [
        "op", "probe", "--probe", "core-density", "--den", "(1 + a'*a)"])
    assert code == 2
    assert "core-density needs --num" in err


def test_scenario_run(tmp_path, capsys):
    code, out, _ = run(capsys,
                       ["scenario", "run", "gaussian-gns",
                        "--out", str(tmp_path)])
    assert code == 0
    assert "gaussian-gns: pass" in out
    assert (tmp_path / "gaussian-gns.json").exists()
    assert (tmp_path / "gaussian-gns.txt").exists()


def test_op_probe_needs_a_target(capsys):
    for n in ("0", "-1"):
        code, out, err = run(capsys, ["op", "probe", "--den", "(1 + a'*a)",
                                      "--targets", n])
        assert code == 2
        assert "--targets must be at least 1" in err
        assert out == ""


def test_op_probe_targets_are_bounded_by_the_size_cap(capsys, monkeypatch):
    import ores.cli

    def refuse(n):
        raise AssertionError("a target was built before the bound check")

    monkeypatch.setattr(ores.cli, "_basis_vector", refuse)
    for n in ("4097", str(10 ** 5)):
        code, out, err = run(capsys, ["op", "probe", "--den", "(1 + a'*a)",
                                      "--targets", n])
        assert code == 2
        assert "--targets must be at most 4096" in err
        assert out == ""


def test_negative_budget_is_a_usage_error(capsys):
    for flag, value in (("--budget-factors", "-1"), ("--budget-degree", "-3")):
        code, out, err = run(capsys, ["ore", "solve", flag, value,
                                      "a", "(1 + a'*a)"])
        assert code == 2
        assert "must be a nonnegative int" in err
        assert "no witness" not in out
    code, _, err = run(capsys, ["frac", "dagger", "--budget-degree", "-1",
                                "(a) / (1 + a'*a)"])
    assert code == 2


# the flags several commands share, with a valid value for each
SHARED_FLAGS = {"--presentation": "heisenberg", "--budget-factors": "1",
                "--budget-degree": "1", "--tol": "1e-9", "--probe-tol": "1e-7",
                "--seed": "1", "--out": "out"}
BUDGET_FLAGS = ("--presentation", "--budget-factors", "--budget-degree")
# a valid invocation of every command and the shared flags its handler reads
COMMANDS = (
    (["normalize", "a"], ("--presentation",)),
    (["ore", "solve", "a", "(1 + ad'*ad)"], BUDGET_FLAGS),
    (["frac", "add", "2", "(a) / (1 + a'*a)", "(a) / (1 + a'*a)"],
     BUDGET_FLAGS),
    (["frac", "mul", "(1) / (1 + a'*a)", "(1) / (1 + a'*a)"], BUDGET_FLAGS),
    (["frac", "dagger", "(a) / (1 + a'*a)"], BUDGET_FLAGS),
    (["frac", "eq", "(a) / (1 + a'*a)", "(a) / (1 + a'*a)"], BUDGET_FLAGS),
    (["cone", "verify", "a'*a", "--term", "1", "a"], ("--presentation",)),
    (["gns", "build", "--state", "vacuum", "--degree", "2"],
     ("--presentation", "--out")),
    (["op", "apply", "--expr", "a", "--vector", "0,1"], ("--presentation",)),
    (["op", "invert", "--expr", "a", "--vector", "1,0"],
     ("--presentation", "--tol")),
    (["op", "probe", "--den", "(1 + a'*a)", "--targets", "2"],
     ("--presentation", "--probe-tol")),
    (["scenario", "run", "gaussian-gns"],
     ("--budget-factors", "--budget-degree", "--tol", "--probe-tol",
      "--seed", "--out")),
)


def test_commands_reject_shared_flags_they_do_not_read(tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    pairs = [(argv, flag) for argv, kept in COMMANDS
             for flag in SHARED_FLAGS if flag not in kept]
    assert len(pairs) == 54
    accepted = []
    for argv, flag in pairs:
        code, _, err = run(capsys, argv + [flag, SHARED_FLAGS[flag]])
        if code != 2 or "unrecognized arguments: %s" % flag not in err:
            accepted.append((argv[0], argv[1], flag, code))
    assert accepted == []


def test_commands_accept_the_shared_flags_they_read(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert sum(len(kept) for _, kept in COMMANDS) == 30
    for argv, kept in COMMANDS:
        flags = [tok for flag in kept for tok in (flag, SHARED_FLAGS[flag])]
        code, _, err = run(capsys, argv + flags)
        assert code == 0, (argv, err)


def test_shared_flags_reach_the_handler(tmp_path, capsys):
    code, out, _ = run(capsys, ["ore", "solve", "--budget-factors", "1",
                                "--budget-degree", "1", "a", "(1 + a'*a)"])
    assert code == 1
    assert out == ("no witness within budget (factors <= 1, degree <= 1); "
                   "candidates tried: 5\n")
    code, _, _ = run(capsys, [
        "scenario", "run", "gaussian-gns", "--seed", "3",
        "--budget-factors", "1", "--budget-degree", "0", "--tol", "1e-9",
        "--probe-tol", "1e-7", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "gaussian-gns.json").read_text())
    assert report["seed"] == 3
    assert report["budget"] == {"max_factors": 1, "max_degree": 0,
                                "degree_slack": 0, "regularity_depth": 2}


def test_scenario_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys,
                       ["scenario", "run", "nope", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown scenario" in err
    code, _, err = run(capsys, [
        "scenario", "run", "gaussian-gns", "--seed", "-1",
        "--out", str(tmp_path)])
    assert code == 2
    assert "seed must be nonnegative" in err
    code, _, err = run(capsys, [
        "scenario", "run", "all", "--presentation", "pres.json",
        "--out", str(tmp_path)])
    assert code == 2


_LONG_WORD = "(%s)*(%s)" % ("*".join(["a"] * 35), "*".join(["ad"] * 35))
# xi_n = 0.999^n for n < 5,000, past the solvers' size cap of 4,096
_LONG_VECTOR = ",".join(repr(0.999 ** n) for n in range(5000))


# malformed invocations that printed a traceback, ran to the size cap
# and exited 1, or passed vacuously with an infinite tolerance: (argv,
# part of the error line); {dir} is a scratch dir
@pytest.mark.parametrize("argv, message", [
    pytest.param(["frac", "dagger", "a / (1)"], "parenthesized numerator",
                 id="frac-unparenthesized-numerator"),
    pytest.param(["frac", "dagger", "1"], "parenthesized numerator",
                 id="frac-without-denominator"),
    pytest.param(["frac", "eq", "(a) / (1)", "b"], "parenthesized numerator",
                 id="frac-eq-second-operand"),
    pytest.param(["op", "invert", "--expr", "a", "--vector", "1,0,0",
                  "--tol", "nan"], "tol must be positive", id="op-invert-nan"),
    pytest.param(["scenario", "run", "fock-integrability", "--tol", "nan",
                  "--out", "{dir}"], "tolerances must be positive",
                 id="scenario-nan"),
    pytest.param(["op", "probe", "--den", "(1 + a'*a)", "--targets", "1",
                  "--probe-tol", "nan"], "tol must be positive",
                 id="op-probe-nan"),
    pytest.param(["op", "invert", "--expr", "a", "--vector", "nan,1"],
                 "entries must be finite", id="op-invert-nan-vector"),
    pytest.param(["op", "probe", "--probe", "core-density", "--den",
                  "(1 + a'*a)", "--num", "a", "--vector", "nan"],
                 "entries must be finite", id="op-probe-nan-vector"),
    # a vector whose tail past the size cap no solver reaches
    pytest.param(["op", "probe", "--probe", "core-density", "--den",
                  "(1 + a'*a)", "--num", "a", "--vector", _LONG_VECTOR],
                 "at most 4096 entries", id="op-probe-core-density-long"),
    pytest.param(["op", "probe", "--probe", "surjectivity", "--den",
                  "(1 + a'*a)", "--vector", _LONG_VECTOR],
                 "at most 4096 entries", id="op-probe-surjectivity-long"),
    pytest.param(["op", "invert", "--expr", "a", "--vector", _LONG_VECTOR],
                 "at most 4096 entries", id="op-invert-long-vector"),
    pytest.param(["op", "invert", "--expr", "a", "--vector", "1,0,0",
                  "--tol", "inf"], "tol must be positive", id="op-invert-inf"),
    pytest.param(["op", "probe", "--den", "(1 + a'*a)", "--targets", "1",
                  "--probe-tol", "inf"], "tol must be positive",
                 id="op-probe-inf"),
    # a rewrite chain deeper than Python's recursion limit
    pytest.param(["normalize", "--presentation", "{dir}/heisenberg80.json",
                  _LONG_WORD], "nests too deeply", id="normalize-deep-chain"),
    # damaged files that got past the loaders' handlers, and a band
    # coefficient and a band value too large for a float
    pytest.param(["normalize", "--presentation", "{dir}/list-names.json",
                  "1"], "malformed presentation file",
                 id="presentation-unhashable-generator"),
    pytest.param(["normalize", "--presentation", "{dir}/numbers.json", "x"],
                 "generator name 1 is not an identifier",
                 id="presentation-numeric-generators"),
    pytest.param(["gns", "build", "--moments", "{dir}/moment-list.json"],
                 "malformed moment file", id="moments-not-a-table"),
    pytest.param(["op", "apply", "--operator", "{dir}/huge-coeff.json",
                  "--vector", "0,1"], "too large to convert to float",
                 id="op-apply-float-overflow"),
    # 10^308 sqrt(n + 1), a float at n = 2 and too large for one at n = 3
    pytest.param(["op", "apply", "--expr", "1%s*a" % ("0" * 308),
                  "--vector", "0,0,0,0,1"],
                 "formula value at n = 3 is too large for a float",
                 id="op-apply-band-value-overflow"),
    # 1 + A*A is positive definite, but the float64 Cholesky of its
    # truncation is not
    pytest.param(["op", "invert", "--expr", "*".join(["(a + ad + 1)"] * 8),
                  "--vector", "1,0,0"],
                 "float64 conditioning fails the Cholesky of the truncation "
                 "at N = 134", id="op-invert-float64-cholesky"),
])
def test_malformed_invocations_exit_with_code_2(tmp_path, capsys, argv,
                                                message):
    save_presentation(Presentation(
        ("ad", "a"), (("a", "ad"),),
        ((("a", "ad"), ((1, ("ad", "a")), (1, ()))),), 80,
        name="heisenberg"), tmp_path / "heisenberg80.json")
    list_names = presentation_to_dict(load_preset("heisenberg"))
    list_names["generators"] = [["ad"], ["a"]]
    (tmp_path / "list-names.json").write_text(json.dumps(list_names))
    (tmp_path / "numbers.json").write_text(json.dumps({
        "generators": [1, 2], "dagger_pairs": [[1], [2]], "relations": [],
        "degree_cap": 4}))
    (tmp_path / "moment-list.json").write_text(
        json.dumps({"degree": 1, "moments": [1, 2]}))
    (tmp_path / "huge-coeff.json").write_text(json.dumps({"bands": [
        {"offset": 0, "kind": "poly", "coeffs": [[10 ** 400, 1], [1, 1]]}]}))
    code, _, err = run(capsys, [arg.format(dir=tmp_path) for arg in argv])
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith("error: ") and message in line


# Runs in a child process: every numeric flag of the commands below, at
# each extreme value, through cli.main; one JSON line per case holds the
# argv, the exit code (None for an exception out of main) and stderr.
_EXTREME_FLAGS_CHILD = r"""
import contextlib, io, json, sys, traceback
from ores.cli import main

out_dir = sys.argv[1]
values = ("0", "-1", "nan", "inf", str(10 ** 9), str(10 ** 400))
budget = ("budget-factors", "budget-degree")
scenario = budget + ("tol", "probe-tol", "seed")
frac = "(x) / (1 + x*x)"
commands = [
    (["ore", "solve", "a", "(1 + ad'*ad)"], budget),
    (["frac", "add", "--presentation", "poly_x", "2", frac, frac], budget),
    (["frac", "mul", "--presentation", "poly_x", frac, frac], budget),
    (["frac", "dagger", "(a) / (1 + a'*a)"], budget),
    (["frac", "eq", "--presentation", "poly_x", frac, frac], budget),
    (["op", "invert", "--expr", "a", "--vector", "1"], ("tol",)),
    (["op", "probe", "--den", "(1 + a'*a)"], ("probe-tol", "targets")),
    (["gns", "build", "--state", "vacuum"], ("degree",)),
    (["scenario", "run", "cofinality", "--out", out_dir], scenario),
    (["scenario", "run", "gaussian-gns", "--out", out_dir], scenario),
]
for base, flags in commands:
    for flag in flags:
        for value in values:
            argv = base + ["--" + flag, value]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    traceback.print_exc()
                    code = None
            print(json.dumps([argv, code, err.getvalue()]))
"""


def test_numeric_flags_at_extreme_values_exit_cleanly(tmp_path):
    # 0, -1, nan, inf, 10**9 and 10**400 for each numeric flag: a clean
    # exit with code 0, 1 or 2, in bounded memory and time
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _EXTREME_FLAGS_CHILD, str(tmp_path)], env=env,
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (2 << 30, 2 << 30)))
    assert proc.returncode == 0, proc.stderr
    cases = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(cases) == 6 * (2 * 5 + 1 + 2 + 1 + 5 * 2)
    for argv, code, err in cases:
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
