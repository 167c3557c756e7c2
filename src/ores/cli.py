"""Command-line interface.

Exit codes: 0 when the command and all its checks pass, 1 when a check
fails (inequality, missing witness, failed probe, state axiom violation,
truncation cap), 2 on usage, parse, or configuration errors, and on a file
that cannot be read or written.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import files
from .algebra import PRESETS, format_element, load_preset
from .errors import (ConfigError, DegreeOverflow, ExpressionError,
                     FormulaDomainError, InsufficientDegree,
                     IrregularDenominator, OreWitnessNotFound,
                     PresentationError, PresentationMismatch, StateAxiomError,
                     TruncationLimit)
from .exprparse import (fraction_to_text, parse_element, parse_fraction_text,
                        parse_sproduct_text)
from .gns import gns
from .localization import OreBudget, eq_fraction, factor_value, frac_add, \
    frac_dagger, frac_mul, ore_solve_right
from .operators import (SIZE_CAP, core_density_probe, fock_assignment,
                        invert_one_plus_AstarA, lemma_pis_equals_S_check,
                        pi_s_surjectivity_probe)
from .positivity import PositivityCertificate, verify_certificate
from .scalars import Scalar
from .scenarios import SCENARIOS, ScenarioConfig, _basis_vector, \
    run_scenario, write_scenario_report
from .states import dirac_state, gaussian_state

USAGE_ERRORS = (ConfigError, ExpressionError, PresentationError,
                PresentationMismatch, FormulaDomainError,
                IrregularDenominator, InsufficientDegree, DegreeOverflow,
                ValueError, OverflowError, OSError)
CHECK_ERRORS = (OreWitnessNotFound, TruncationLimit, StateAxiomError)


# each command takes only the flags its handler reads
_FLAGS = {
    "presentation": dict(default="heisenberg",
                         help="preset name or presentation file path "
                              "(default: heisenberg)"),
    "budget-factors": dict(type=int, default=2, metavar="N",
                           help="max denominator factors in witness search"),
    "budget-degree": dict(type=int, default=2, metavar="N",
                          help="max parameter degree in witness search"),
    "tol": dict(type=float, default=1e-10, metavar="X",
                help="linear solve tolerance"),
    "probe-tol": dict(type=float, default=1e-8, metavar="X",
                      help="probe tolerance"),
    "seed": dict(type=int, default=0, metavar="N", help="random seed"),
    "out": dict(default=None, metavar="DIR",
                help="output directory for report files"),
}
_BUDGET_FLAGS = ("presentation", "budget-factors", "budget-degree")


def _command(sub, name, handler, summary, flags=("presentation",)):
    p = sub.add_parser(name, help=summary)
    for flag in flags:
        p.add_argument("--" + flag, **_FLAGS[flag])
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="ores",
        description="Ore localization, moment-functional representations, "
                    "and banded operator calculus.")
    sub = root.add_subparsers(dest="command", required=True)

    p = _command(sub, "normalize", cmd_normalize,
                 "normalize an expression to canonical form")
    p.add_argument("expr")

    ore = sub.add_parser("ore", help="Ore condition witness search")
    ore_sub = ore.add_subparsers(dest="ore_command", required=True)
    p = _command(ore_sub, "solve", cmd_ore_solve,
                 "find (b, t) with a*t = s*b", _BUDGET_FLAGS)
    p.add_argument("numerator", help="expression a")
    p.add_argument("denominator",
                   help="denominator: 1 or (1 + q*p)*(1 + q*p)...")

    frac = sub.add_parser("frac", help="right-fraction arithmetic")
    frac_sub = frac.add_subparsers(dest="frac_command", required=True)
    p = _command(frac_sub, "add", cmd_frac_add, "lambda*f + g", _BUDGET_FLAGS)
    p.add_argument("scalar", help="expression for lambda")
    p.add_argument("f")
    p.add_argument("g")
    p = _command(frac_sub, "mul", cmd_frac_mul, "f * g", _BUDGET_FLAGS)
    p.add_argument("f")
    p.add_argument("g")
    p = _command(frac_sub, "dagger", cmd_frac_dagger, "f dagger",
                 _BUDGET_FLAGS)
    p.add_argument("f")
    p = _command(frac_sub, "eq", cmd_frac_eq,
                 "decide equality of two fractions", _BUDGET_FLAGS)
    p.add_argument("f")
    p.add_argument("g")

    cone = sub.add_parser("cone", help="positivity certificates")
    cone_sub = cone.add_subparsers(dest="cone_command", required=True)
    p = _command(cone_sub, "verify", cmd_cone_verify,
                 "check target = sum lambda_i a_i' a_i")
    p.add_argument("target")
    p.add_argument("--term", nargs=2, action="append", required=True,
                   metavar=("LAMBDA", "EXPR"),
                   help="certificate term (repeatable)")

    gns_cmd = sub.add_parser("gns", help="representations from moments")
    gns_sub = gns_cmd.add_subparsers(dest="gns_command", required=True)
    p = _command(gns_sub, "build", cmd_gns_build,
                 "build the representation of a state",
                 ("presentation", "out"))
    p.add_argument("--moments", default=None, metavar="FILE",
                   help="moment table file")
    p.add_argument("--state", default=None, choices=("gaussian", "vacuum"),
                   help="built-in state instead of a moment file")
    p.add_argument("--degree", type=int, default=6,
                   help="truncation degree d (moments to 2d)")

    op = sub.add_parser("op", help="banded operator calculus")
    op_sub = op.add_subparsers(dest="op_command", required=True)
    p = _command(op_sub, "apply", cmd_op_apply,
                 "apply an operator to a vector")
    _op_source_args(p)
    p.add_argument("--vector", required=True,
                   help="comma-separated complex entries")
    p = _command(op_sub, "invert", cmd_op_invert, "solve (1 + A*A) x = y",
                 ("presentation", "tol"))
    _op_source_args(p)
    p.add_argument("--vector", required=True, help="the right-hand side y")
    p = _command(op_sub, "probe", cmd_op_probe,
                 "integrability probes for a denominator",
                 ("presentation", "probe-tol"))
    p.add_argument("--probe", default="surjectivity",
                   choices=("surjectivity", "factorization", "core-density"))
    p.add_argument("--den", required=True,
                   help="denominator: 1 or (1 + q*p)*...")
    p.add_argument("--targets", type=int, default=6,
                   help="probe basis vectors e_0..e_{N-1}")
    p.add_argument("--num", default=None,
                   help="graph-norm element for core-density")
    p.add_argument("--vector", default=None,
                   help="explicit target vector")

    scen = sub.add_parser("scenario", help="reproducible scenario reports")
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)
    p = _command(scen_sub, "run", cmd_scenario_run, "run scenarios",
                 ("budget-factors", "budget-degree", "tol", "probe-tol",
                  "seed", "out"))
    p.add_argument("name", help="scenario name or 'all'")

    return root


def _op_source_args(p):
    p.add_argument("--operator", default=None, metavar="FILE",
                   help="operator spec file")
    p.add_argument("--expr", default=None,
                   help="algebra expression mapped through the shift "
                        "assignment")


# -- shared helpers ----------------------------------------------------------------


def _load_presentation(args):
    name = args.presentation
    if os.path.exists(name):
        return files.load_presentation(name)
    if name in PRESETS:
        return load_preset(name)
    raise ConfigError(
        "presentation %r is neither a file nor a preset (presets: %s)"
        % (name, ", ".join(sorted(PRESETS))))


def _budget(args) -> OreBudget:
    return OreBudget(max_factors=args.budget_factors,
                     max_degree=args.budget_degree)


def _parse_scalar(text: str, presentation) -> Scalar:
    el = parse_element(text, presentation)
    if el.degree() > 0:
        raise ConfigError("expected a scalar, got %r" % format_element(el))
    return el.coefficient(())


def _parse_vector(text: str) -> np.ndarray:
    try:
        vec = np.array([complex(tok.strip()) for tok in text.split(",")],
                       dtype=complex)
    except ValueError:
        raise ConfigError(
            "vector must be comma-separated complex numbers") from None
    if not np.isfinite(vec).all():
        raise ConfigError("vector entries must be finite")
    if len(vec) > SIZE_CAP:
        # the solvers truncate at the cap, so a longer tail is never solved
        raise ConfigError("vector must have at most %d entries, the "
                          "solvers' size cap" % SIZE_CAP)
    return vec


def _format_complex(z: complex) -> str:
    return "%.12g%+.12gj" % (z.real, z.imag)


def _print_vector(label: str, v) -> None:
    print("%s: [%s]" % (label, ", ".join(_format_complex(z) for z in v)))


def _load_operator_arg(args, presentation):
    if (args.operator is None) == (args.expr is None):
        raise ConfigError("give exactly one of --operator or --expr")
    if args.operator is not None:
        return files.load_operator(args.operator)
    assignment = fock_assignment(presentation)
    return assignment.operator_of(parse_element(args.expr, presentation))


# -- handlers -----------------------------------------------------------------------


def cmd_normalize(args) -> int:
    p = _load_presentation(args)
    el = parse_element(args.expr, p)
    print(format_element(el))
    return 0


def cmd_ore_solve(args) -> int:
    p = _load_presentation(args)
    a = parse_element(args.numerator, p)
    s = parse_sproduct_text(args.denominator, p)
    res = ore_solve_right(a, s, _budget(args))
    if not res.found:
        print("no witness within budget (factors <= %d, degree <= %d); "
              "candidates tried: %d"
              % (args.budget_factors, args.budget_degree,
                 res.candidates_tried))
        return 1
    w = res.witness
    print("b: %s" % format_element(w.b))
    print("t: %s" % " * ".join(
        "(%s)" % format_element(factor_value(q))
        for q in w.t.ps) if w.t.ps else "t: 1")
    print("check: a*t == s*b  (exact)")
    return 0


def cmd_frac_add(args) -> int:
    p = _load_presentation(args)
    lam = _parse_scalar(args.scalar, p)
    f = parse_fraction_text(args.f, p)
    g = parse_fraction_text(args.g, p)
    print(fraction_to_text(frac_add(lam, f, g, _budget(args))))
    return 0


def cmd_frac_mul(args) -> int:
    p = _load_presentation(args)
    f = parse_fraction_text(args.f, p)
    g = parse_fraction_text(args.g, p)
    print(fraction_to_text(frac_mul(f, g, _budget(args))))
    return 0


def cmd_frac_dagger(args) -> int:
    p = _load_presentation(args)
    f = parse_fraction_text(args.f, p)
    print(fraction_to_text(frac_dagger(f, _budget(args))))
    return 0


def cmd_frac_eq(args) -> int:
    p = _load_presentation(args)
    f = parse_fraction_text(args.f, p)
    g = parse_fraction_text(args.g, p)
    res = eq_fraction(f, g, _budget(args))
    if not res.decided:
        print("undecided: no common-denominator witness within budget")
        return 1
    if res.equal:
        print("equal")
        print("u: %s" % format_element(res.u))
        print("v: %s" % format_element(res.v))
        return 0
    print("not equal (no equality up to the searched budget)")
    return 1


def cmd_cone_verify(args) -> int:
    p = _load_presentation(args)
    target = parse_element(args.target, p)
    terms = []
    for lam_text, expr_text in args.term:
        lam = _parse_scalar(lam_text, p)
        terms.append((lam, parse_element(expr_text, p)))
    cert = PositivityCertificate(tuple(terms))
    if verify_certificate(target, cert):
        print("verified: target equals the certificate sum exactly")
        return 0
    print("FAILED: certificate sum differs from target")
    return 1


def cmd_gns_build(args) -> int:
    p = _load_presentation(args)
    if (args.moments is None) == (args.state is None):
        raise ConfigError("give exactly one of --moments or --state")
    if args.moments is not None:
        f = files.load_moments(args.moments, p)
    elif args.state == "gaussian":
        f = gaussian_state(p, args.degree)
    else:
        f = dirac_state(p, args.degree)
    rep = gns(f)
    print("degree: %d" % rep.degree)
    print("ranks: %s" % (list(rep.ranks),))
    for name in p.generators:
        print("adjoint defect %s: %.3e" % (name, rep.adjoint_defect(name)))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "gns.json")
    files.save_gns(rep, path)
    print("wrote %s" % path)
    return 0


def cmd_op_apply(args) -> int:
    p = _load_presentation(args)
    op = _load_operator_arg(args, p)
    xi = _parse_vector(args.vector)
    _print_vector("result", op.apply(xi))
    return 0


def cmd_op_invert(args) -> int:
    p = _load_presentation(args)
    op = _load_operator_arg(args, p)
    y = _parse_vector(args.vector)
    res = invert_one_plus_AstarA(op, y, args.tol)
    _print_vector("x", res.x[:max(len(y), 12)])
    print("residual: %.6e" % res.residual)
    print("truncation_size: %d" % res.truncation_size)
    return 0


def cmd_op_probe(args) -> int:
    p = _load_presentation(args)
    assignment = fock_assignment(p)
    s = parse_sproduct_text(args.den, p)
    if args.vector is not None:
        targets = [_parse_vector(args.vector)]
    elif args.targets < 1:
        raise ConfigError("--targets must be at least 1")
    elif args.targets > SIZE_CAP:
        # e_n needs a truncation beyond n, and the targets are built
        # before the first probe: N of them hold N(N+1)/2 entries
        raise ConfigError("--targets must be at most %d, the solvers' "
                          "size cap" % SIZE_CAP)
    else:
        targets = [_basis_vector(n) for n in range(args.targets)]
    if args.probe == "surjectivity":
        report = pi_s_surjectivity_probe(assignment, s, targets,
                                         args.probe_tol)
    elif args.probe == "factorization":
        report = lemma_pis_equals_S_check(assignment, s, targets)
    else:
        if args.num is None:
            raise ConfigError("core-density needs --num")
        a = parse_element(args.num, p)
        if len(targets) != 1:
            raise ConfigError("core-density probes one vector; use --vector")
        report = core_density_probe(assignment, a, s, targets[0],
                                    args.probe_tol)
    for item in report.items:
        line = "%s: %s" % (item.label, "pass" if item.passed else "FAIL")
        if item.residual:
            line += "  residual=%.6e" % item.residual
        if item.truncation:
            line += "  truncation=%d" % item.truncation
        print(line)
    print("probe %s: %s" % (report.probe, "pass" if report.ok else "FAIL"))
    return 0 if report.ok else 1


def cmd_scenario_run(args) -> int:
    cfg = ScenarioConfig(
        seed=args.seed,
        max_factors=args.budget_factors,
        max_degree=args.budget_degree,
        solve_tol=args.tol,
        probe_tol=args.probe_tol,
    )
    cfg.validate()
    names = sorted(SCENARIOS) if args.name == "all" else [args.name]
    out_dir = args.out or "reports"
    all_ok = True
    for name in names:
        report = run_scenario(name, cfg)
        json_path, text_path = write_scenario_report(report, out_dir)
        status = "pass" if report["pass"] else "FAIL"
        print("%s: %s  (%s, %s)" % (name, status, json_path, text_path))
        if not report["pass"]:
            all_ok = False
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CHECK_ERRORS as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1
    except USAGE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
