"""Structured file formats and report writers.

All files are JSON-shaped text.  Scalars travel as exact 4-tuples
[re_num, re_den, im_num, im_den]; words as dot-joined generator names
with "1" for the empty word; floating entries are decimal at 17
significant digits so round-trips preserve the double exactly.  JSON
reports contain no timestamps; the text rendering carries a single
"# generated:" header line and is otherwise deterministic.

Each loader turns a malformed file into a ConfigError in one handler,
and refuses an operator band further from the diagonal than SIZE_CAP;
a file nested too deeply for the JSON reader, one it cannot read, or one
that holds a float literal, is a ConfigError too.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction as Rational

from .algebra import AlgebraElement, Presentation
from .errors import ConfigError
from .formulas import CPoly, Formula, QPoly
from .operators import SIZE_CAP, BandedOperator
from .scalars import Scalar
from .states import MomentFunctional


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _int(x) -> int:
    """x, which must be a JSON integer: a string or a boolean that int()
    would read raises TypeError, which each loader reports as malformed."""
    if type(x) is not int:
        raise TypeError("%s where an integer belongs" % type(x).__name__)
    return x


def _read_json(path):
    """The JSON value of the file; a float literal is a ConfigError, since
    every number of the file formats is an integer and int() would
    truncate it."""
    def refuse(literal):
        raise ConfigError("%s holds the float %s where an integer belongs"
                          % (path, literal))

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=refuse)
        except RecursionError:
            raise ConfigError("%s nests too deeply to read" % path) from None
        except ValueError as exc:
            # not JSON, not UTF-8, or an integer past Python's digit limit
            raise ConfigError("%s is not readable JSON: %s"
                              % (path, exc)) from None


# -- presentations ---------------------------------------------------------------


def presentation_to_dict(p: Presentation) -> dict:
    relations = []
    for rule in p.rules:
        rhs = []
        for w, c in sorted(rule.rhs.items(), key=lambda t: (len(t[0]), t[0])):
            rhs.append({
                "coeff": [int(x) for x in c.to_quad()],
                "word": [p.generators[g] for g in w],
            })
        relations.append({
            "lhs": [p.generators[g] for g in rule.lhs],
            "rhs": rhs,
        })
    out = {
        "generators": list(p.generators),
        "dagger_pairs": [list(pair) for pair in p._dagger_pairs],
        "relations": relations,
        "degree_cap": p.degree_cap,
    }
    if p.name is not None:
        out["name"] = p.name
    return out


def presentation_from_dict(d: dict) -> Presentation:
    try:
        generators = tuple(d["generators"])
        dagger_pairs = tuple(tuple(pair) for pair in d["dagger_pairs"])
        relations = tuple(
            (tuple(rel["lhs"]),
             tuple((Scalar.from_quad(map(_int, t["coeff"])), tuple(t["word"]))
                   for t in rel["rhs"]))
            for rel in d["relations"])
        return Presentation(generators, dagger_pairs, relations,
                            _int(d["degree_cap"]), name=d.get("name"))
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError("malformed presentation file: %s" % exc) from None


def save_presentation(p: Presentation, path):
    _write_text(path, canonical_json(presentation_to_dict(p)))


def load_presentation(path) -> Presentation:
    return presentation_from_dict(_read_json(path))


def presentation_hash(p: Presentation) -> str:
    return hashlib.sha256(
        canonical_json(presentation_to_dict(p)).encode("utf-8")).hexdigest()


# -- moment tables ------------------------------------------------------------------


def word_to_str(names) -> str:
    return ".".join(names) if names else "1"


def str_to_word(s: str):
    return () if s == "1" else tuple(s.split("."))


def moments_to_dict(f: MomentFunctional) -> dict:
    p = f.presentation
    table = {}
    for w, c in f.table.items():
        names = tuple(p.generators[g] for g in w)
        table[word_to_str(names)] = [int(x) for x in c.to_quad()]
    return {"degree": f.degree, "moments": table}


def moments_from_dict(d: dict, presentation: Presentation) -> MomentFunctional:
    """The moment table of a dict of the file format, its words read with
    one split each and looked up name by name in the generator index; a
    malformed dict or an unknown name is a ConfigError."""
    index = {g: i for i, g in enumerate(presentation.generators)}
    position = index.__getitem__
    try:
        degree = _int(d["degree"])
        raw = d["moments"]
        table = {}
        for k, v in raw.items():
            names = str_to_word(k)
            try:
                w = tuple(map(position, names))
            except KeyError:
                raise ConfigError(
                    "moment word %r uses unknown generator %r"
                    % (k, next(g for g in names if g not in index))) from None
            table[w] = Scalar.from_quad(map(_int, v))
    except (KeyError, TypeError, ValueError, ArithmeticError,
            AttributeError) as exc:
        raise ConfigError("malformed moment file: %s" % exc) from None
    return MomentFunctional(presentation, degree, table)


def save_moments(f: MomentFunctional, path):
    _write_text(path, canonical_json(moments_to_dict(f)))


def load_moments(path, presentation: Presentation) -> MomentFunctional:
    return moments_from_dict(_read_json(path), presentation)


# -- operator specs -------------------------------------------------------------------


def _rational_pairs(coeffs) -> list:
    return [[c.numerator, c.denominator] for c in coeffs]


def _band_to_dict(offset: int, f: Formula) -> dict:
    terms = f.sorted_terms()
    if len(terms) != 1:
        raise ConfigError(
            "band %+d is a sum of radical terms; not representable in the "
            "operator file format" % offset)
    rad, amp = terms[0]
    if rad == QPoly.const(1):
        coeffs = []
        for c in amp.coeffs:
            if c.im:
                raise ConfigError(
                    "band %+d has non-real coefficients; not representable"
                    % offset)
            coeffs.append(c.re)
        kind = "const" if len(coeffs) <= 1 else "poly"
        return {"offset": offset, "kind": kind,
                "coeffs": _rational_pairs(coeffs)}
    if amp == CPoly.const(Scalar(1)):
        return {"offset": offset, "kind": "sqrt_poly",
                "coeffs": _rational_pairs(rad.coeffs)}
    raise ConfigError(
        "band %+d mixes an amplitude with a radical; not representable"
        % offset)


def operator_to_dict(op: BandedOperator) -> dict:
    return {"bands": [_band_to_dict(k, f)
                      for k, f in sorted(op.bands.items())]}


def operator_from_dict(d: dict) -> BandedOperator:
    bands = {}
    try:
        for band in d["bands"]:
            offset = _int(band["offset"])
            if abs(offset) > SIZE_CAP:
                raise ConfigError("band offset %+d exceeds the size cap %d"
                                  % (offset, SIZE_CAP))
            kind = band["kind"]
            coeffs = [Rational(_int(n), _int(dn)) for n, dn in band["coeffs"]]
            if kind == "const":
                if len(coeffs) > 1:
                    raise ConfigError("const band with several coefficients")
                c = coeffs[0] if coeffs else Rational(0)
                f = Formula.const(Scalar(c))
            elif kind == "poly":
                f = Formula.poly([Scalar(c) for c in coeffs])
            elif kind == "sqrt_poly":
                f = Formula.sqrt(QPoly(coeffs))
            else:
                raise ConfigError("unknown band kind %r" % kind)
            if offset in bands:
                raise ConfigError("duplicate band offset %+d" % offset)
            bands[offset] = f
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError("malformed operator file: %s" % exc) from None
    return BandedOperator(bands)


def save_operator(op: BandedOperator, path):
    _write_text(path, canonical_json(operator_to_dict(op)))


def load_operator(path) -> BandedOperator:
    return operator_from_dict(_read_json(path))


# -- GNS output ------------------------------------------------------------------------


def _float_str(x: float) -> str:
    return "%.17g" % x


def _matrix_to_dict(M) -> dict:
    rows, cols = M.shape
    entries = []
    for r in range(rows):
        for c in range(cols):
            z = complex(M[r, c])
            entries.append([_float_str(z.real), _float_str(z.imag)])
    return {"rows": rows, "cols": cols, "entries": entries}


def gns_to_dict(rep) -> dict:
    p = rep.functional.presentation
    matrices = {name: _matrix_to_dict(rep.matrix(name))
                for name in p.generators}
    return {
        "metadata": {
            "degree": rep.degree,
            "rank": rep.gram_rank,
            "ranks": list(rep.ranks),
            "presentation_hash": presentation_hash(p),
            "generators": list(p.generators),
        },
        "cyclic": [[_float_str(complex(z).real), _float_str(complex(z).imag)]
                   for z in rep.cyclic],
        "matrices": matrices,
    }


def save_gns(rep, path):
    _write_text(path, canonical_json(gns_to_dict(rep)))


# -- reports ---------------------------------------------------------------------------


def write_json_report(report: dict, path):
    _write_text(path, canonical_json(report))


def _render_value(v) -> str:
    if isinstance(v, float):
        return _float_str(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def render_text_report(report: dict) -> str:
    lines = []
    lines.append("scenario: %s" % report.get("scenario", "?"))
    if "seed" in report:
        lines.append("seed: %d" % report["seed"])
    lines.append("pass: %s" % _render_value(bool(report.get("pass"))))
    items = report.get("items", ())
    lines.append("items: %d" % len(items))
    for item in items:
        extra = []
        for k in sorted(item):
            if k in ("id", "pass"):
                continue
            extra.append("%s=%s" % (k, _render_value(item[k])))
        lines.append("  %s: %s%s" % (
            item.get("id", "?"),
            "pass" if item.get("pass") else "FAIL",
            ("  [" + " ".join(extra) + "]") if extra else ""))
    return "\n".join(lines) + "\n"


def write_text_report(report: dict, path, generated: str):
    _write_text(path,
                "# generated: %s\n" % generated + render_text_report(report))
