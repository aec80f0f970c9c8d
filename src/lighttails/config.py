"""Experiment configuration: one JSON file describes distribution, weights,
expansion order, evaluation grid and oracle budget.

CONFIG_SCHEMA, a JSON Schema (draft 2020-12), is checked by this module's own
interpreter of the few keywords it uses, so a violation reports the offending
key's path with jsonschema's message; jsonschema itself is the tests'
reference.  Builders turn the validated document into package objects.  Each
command's artifacts come from one function as (file name, content) pairs, a
CSV as its (column name, column) pairs and a JSON file as its dict, and
run_command writes them in one loop, atomically and formatted
deterministically (shortest round-trip float repr, sorted JSON keys), so
identical (config, seed) pairs give byte-identical outputs.
"""

from __future__ import annotations

import json
import operator
import os
from contextlib import contextmanager
from dataclasses import asdict, fields
from json.encoder import encode_basestring_ascii

import numpy as np

from . import expansion as xp
from . import oracle as orc
from .distributions import (TailDistribution, custom_hazard, log_power_mixture,
                            log_weibull, lognormal_type, weibull_type)
from .errors import ConfigError
from .hazard import validate_metadata
from .weights import WeightSequence

__all__ = ["CONFIG_SCHEMA", "load_config", "build_distribution", "build_weights",
           "build_grid", "run_command", "COMMANDS"]

COMMANDS = ("classify", "expand", "evaluate", "oracle", "compare", "report")

# an artifact's regime always comes from the declared metadata: asymptotic
# hypotheses cannot be decided from finitely many values (see validate_metadata)
PROVENANCE = "declared"

# every object but params, whose keys depend on the family, refuses unnamed keys
CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["distribution", "weights"],
    "additionalProperties": False,
    "properties": {
        "distribution": {
            "type": "object",
            "required": ["family", "params"],
            "additionalProperties": False,
            "properties": {
                "family": {"enum": ["weibull", "logweibull", "lognormal2",
                                    "custom", "log_power_mixture"]},
                "params": {"type": "object"},
                "two_sided": {"type": "boolean"},
                "symmetric": {"type": "boolean"},
                "t0": {"type": "number", "exclusiveMinimum": 1.0},
            },
        },
        "weights": {
            "type": "object",
            "required": ["weights", "delta"],
            "additionalProperties": False,
            "properties": {
                # no zeros, so from_index counts the weights WeightSequence keeps
                "weights": {"type": "array", "minItems": 1,
                            "items": {"type": "number", "not": {"const": 0}}},
                "generator": {
                    "type": ["object", "null"],
                    "required": ["type", "ratio", "from_index"],
                    "additionalProperties": False,
                    "properties": {
                        "type": {"const": "geometric"},
                        "ratio": {"type": "number"},
                        "from_index": {"type": "integer", "minimum": 2},
                    },
                },
                # the declared summability exponent: validated, read by nothing,
                # since a head plus a geometric tail is summable for every delta
                "delta": {"type": "number", "exclusiveMinimum": 0.0,
                          "exclusiveMaximum": 1.0},
            },
        },
        "expansion": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "order": {"type": "integer", "minimum": 0},
                # null only: classify alone decides the regime; the key stays
                # because every shipped config sets it
                "regime_override": {"type": "null"},
            },
        },
        "grid": {
            "type": "object",
            "required": ["t_min", "t_max", "points"],
            "additionalProperties": False,
            "properties": {
                "t_min": {"type": "number", "exclusiveMinimum": 0.0},
                "t_max": {"type": "number", "exclusiveMinimum": 0.0},
                "points": {"type": "integer", "minimum": 1},
                "spacing": {"enum": ["geometric", "linear"]},
            },
        },
        "oracle": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "method": {"enum": ["conditional_mc", "plain_mc", "quadrature"]},
                "n": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "eps_trunc": {"type": "number", "exclusiveMinimum": 0.0},
                "slack": {"type": "number", "exclusiveMinimum": 0.0},
            },
        },
    },
}


# JSON Schema draft 2020-12's types: a bool is not a number, and 3.0 is an integer
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": (int, float), "integer": (int, float)}
# each bound keyword: the comparison that breaks it and the words of its message
_BOUNDS = {"minimum": (operator.lt, "less than the minimum of"),
           "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
           "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of")}


def _is_type(value, name: str) -> bool:
    if isinstance(value, bool) and name in ("number", "integer"):
        return False
    return isinstance(value, _TYPES[name]) and (
        name != "integer" or isinstance(value, int) or value.is_integer())


def _schema_errors(schema: dict, value, path: tuple):
    """(path, message) of each keyword of schema that value breaks, in
    jsonschema's order and words.  A bound binds only numbers, so a NaN passes
    it; a keyword that has no check here raises."""
    for key, arg in schema.items():
        if key == "type":
            names = [arg] if isinstance(arg, str) else arg
            if not any(_is_type(value, name) for name in names):
                yield path, f"{value!r} is not of type {', '.join(map(repr, names))}"
        elif key == "required":
            for name in arg if isinstance(value, dict) else ():
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, sub in arg.items() if isinstance(value, dict) else ():
                if name in value:
                    yield from _schema_errors(sub, value[name], path + (name,))
        elif key == "additionalProperties" and arg is False:
            extra = sorted(value.keys() - schema.get("properties", {}).keys()
                           if isinstance(value, dict) else ())
            if extra:
                yield path, ("Additional properties are not allowed ("
                             f"{', '.join(map(repr, extra))} "
                             f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        elif key in ("enum", "const"):
            # JSON equality with the schema's scalars: true is not 1, -0.0 is 0
            if not any(value == each and isinstance(value, bool) == isinstance(each, bool)
                       for each in (arg if key == "enum" else [arg])):
                yield path, (f"{value!r} is not one of {arg!r}" if key == "enum"
                             else f"{arg!r} was expected")
        elif key == "not":
            if next(_schema_errors(arg, value, path), None) is None:
                yield path, f"{value!r} should not be valid under {arg!r}"
        elif key in _BOUNDS:
            broken, words = _BOUNDS[key]
            if _is_type(value, "number") and broken(value, arg):
                yield path, f"{value!r} is {words} {arg!r}"
        elif key == "items":
            for index, item in enumerate(value if isinstance(value, list) else ()):
                yield from _schema_errors(arg, item, path + (index,))
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key != "$schema":
            raise NotImplementedError(f"schema keyword {key!r}: {arg!r}")


def validate_config(doc: dict) -> None:
    """Refuse doc at the first path, in path order, where it breaks
    CONFIG_SCHEMA: a ConfigError with jsonschema's message."""
    errors = list(_schema_errors(CONFIG_SCHEMA, doc, ()))
    if errors:
        path, message = min(errors, key=lambda error: error[0])
        raise ConfigError(message, path="/".join(map(str, path)) or "<root>")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", path=path) from exc
    validate_config(doc)
    # json.load reads NaN, Infinity and -Infinity, which no config number means
    for name, section in doc.items():
        try:
            json.dumps(section, allow_nan=False)
        except ValueError:
            raise ConfigError("NaN and Infinity are not config numbers", path=name) from None
    return doc


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


@contextmanager
def _rejected_at(path: str):
    """A ValueError raised inside is the config's fault: a ConfigError at path."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc), path=path) from exc


def build_distribution(doc: dict) -> TailDistribution:
    section = doc["distribution"]
    family = section["family"]
    params = section["params"]
    symmetric = section.get("symmetric", False)
    if section.get("two_sided", symmetric) != symmetric:
        raise ConfigError("two_sided, when given, must equal symmetric",
                          path="distribution/two_sided")
    if symmetric and family in ("custom", "log_power_mixture"):
        raise ConfigError(f"{family} tails are one-sided", path="distribution/symmetric")
    # each key the config omits keeps the constructor's default
    kwargs = {"t0": section["t0"]} if "t0" in section else {}
    try:
        if family == "weibull":
            return weibull_type(params["a"], symmetric=symmetric, **kwargs)
        if family == "logweibull":
            return log_weibull(params["a"], symmetric=symmetric, **kwargs)
        if family == "lognormal2":
            return lognormal_type(params["theta"], symmetric=symmetric, **kwargs)
        if family == "custom":
            kwargs.update((k, params[k]) for k in ("sbar_t0", "log_exponent",
                                                   "lambda_coeff", "smooth_order")
                          if k in params)
            return custom_hazard([tuple(t) for t in params["terms"]],
                                 rv_index=params["rv_index"], **kwargs)
        if family == "log_power_mixture":
            comps = [(c["coeff"], c["scale"], [tuple(t) for t in c["log_powers"]])
                     for c in params["components"]]
            return log_power_mixture(comps, **kwargs)
    except KeyError as exc:
        raise ConfigError(f"missing parameter {exc}", path="distribution/params") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), path="distribution") from exc
    raise ConfigError(f"unknown family {family!r}", path="distribution/family")


def build_weights(doc: dict, dist: TailDistribution) -> WeightSequence:
    section = doc["weights"]
    weights = section["weights"]
    gen_spec = section.get("generator")
    if gen_spec and gen_spec["from_index"] != len(weights) + 1:
        raise ConfigError("generator must start right after the explicit weights",
                          path="weights/generator/from_index")
    with _rejected_at("weights"):
        seq = WeightSequence(weights, ratio=gen_spec["ratio"] if gen_spec else None)
    if seq.has_negative and not dist.symmetric:
        raise ConfigError("a negative weight needs symmetric=true", path="weights")
    return seq


def build_grid(doc: dict) -> np.ndarray:
    section = doc.get("grid")
    if section is None:
        raise ConfigError("this command needs a grid section", path="grid")
    lo, hi, n = section["t_min"], section["t_max"], section["points"]
    if hi < lo:
        raise ConfigError("t_max must be at least t_min", path="grid/t_max")
    if section.get("spacing", "geometric") == "geometric":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def build_budget(doc: dict, seed_override: int | None = None) -> orc.OracleBudget:
    """The oracle section as a budget; each field it omits keeps OracleBudget's
    default."""
    section = doc.get("oracle", {})
    given = {f.name: section[f.name] for f in fields(orc.OracleBudget) if f.name in section}
    if seed_override is not None:
        given["seed"] = seed_override
    return orc.OracleBudget(**given)


def build_expansion(doc: dict, dist, seq, order_override: int | None = None):
    section = doc.get("expansion", {})
    order = order_override if order_override is not None else section.get("order", 1)
    with _rejected_at("expansion/order"):
        return xp.expand(dist, seq, order)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

# oracle.csv's header: the column name of each OracleEstimate field, in field order
ORACLE_HEADER = {"t": "t", "p_hat": "oracle_p", "std_err": "oracle_stderr",
                 "n_samples": "n_samples", "truncation_n": "truncation_N",
                 "truncation_bias_bound": "truncation_bias_bound", "seed": "seed",
                 "method": "method"}
# the compare.csv columns that compare.json repeats per row
COMPARE_ROW = ("t", "expansion_total", "oracle_p", "oracle_stderr", "deviation",
               "deviation_over_benchmark", "passed")


def write_atomic(path: str, data: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # "x" gives the file the mode open(path, "w") would, 0o666 less the umask;
    # a mkstemp file would stay 0600 through the replace
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Spelled(list):
    """A float column as the repr of each cell.  A command spells each float
    cell of its artifacts once and hands the texts to every writer: write_csv
    writes them as they are (nan, inf), write_json as JSON does (NaN, Infinity)."""


# the JSON words of a list of bools and None
_JSON_WORDS = {True: "true", False: "false", None: "null"}


def _json_text(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2, sort_keys=True) byte for byte, nested at
    `indent`, for str dict keys, with a Spelled column as its floats.  json
    indents only in its pure-Python encoder, one generator step per item, so a
    list of plain floats, a Spelled column, a list of Spelled rows, or a list of
    bools and None, is joined here in one pass instead."""
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in sorted(obj.items()))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "[]"
    sep = ",\n" + inner
    kinds = {float} if isinstance(obj, Spelled) else set(map(type, obj))
    if kinds <= {bool, type(None)}:
        text = sep.join(map(_JSON_WORDS.__getitem__, obj))
    elif kinds == {float}:
        text = sep.join(obj if isinstance(obj, Spelled) else map(float.__repr__, obj))
    elif kinds == {Spelled}:  # rows of floats, as report.json's term_values
        cells = sep + "  "
        text = sep.join(f"[\n{inner}  {cells.join(row)}\n{inner}]" if row else "[]"
                        for row in obj)
    else:
        text = sep.join(_json_text(v, inner) for v in obj)
    # nan and inf, the only floats whose repr has an n, are NaN and Infinity in JSON
    if kinds in ({float}, {Spelled}) and "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return "[\n" + inner + text + "\n" + indent + "]"


def write_json(path: str, obj) -> None:
    write_atomic(path, _json_text(obj) + "\n")


def write_csv(path: str, named) -> None:
    """CSV of (column name, column) pairs, each column formatted by its numpy
    kind: floats in shortest round-trip repr, integers in decimal, booleans
    as 1/0, strings and a Spelled column's texts as they are."""
    cells = []
    for _, col in named:
        if not isinstance(col, Spelled):
            col = np.asarray(col)
            col = map(str, (col.astype(int) if col.dtype.kind == "b" else col).tolist())
        cells.append(col)
    rows = [",".join(name for name, _ in named)] + [",".join(row) for row in zip(*cells)]
    write_atomic(path, "\n".join(rows) + "\n")


def expansion_to_json(exp: xp.TailExpansion) -> dict:
    return {
        "regime": exp.regime.kind.value,
        "lambda": exp.regime.lam,
        "provenance": PROVENANCE,
        "order_request": exp.order_request,
        "terms": [
            {
                "c": t.scale,
                "j": t.deriv_index,
                "coeff": t.coeff,
                "source_level": t.source_level,
                "operator_order": t.operator_order,
                "decay_power": t.decay_power,
                "decay_log": t.decay_log,
            }
            for t in exp.terms
        ],
        "remainder": {
            "hazard_power": exp.remainder.hazard_power,
            "scale": exp.remainder.scale,
            "describes": exp.remainder.describe(),
        },
        "characters": [
            {"scale": c, "order": m, "coeffs": list(coeffs)}
            for c, m, coeffs in exp.characters
        ],
        "flags": list(exp.flags),
    }


def _evaluation_columns(table, inserted=()):
    """(name, column) pairs of an evaluation; the pairs in `inserted` go
    between the remainder benchmark and the cancellation flag."""
    named = [("t", table.t), ("expansion_total", table.totals)]
    named += [(f"term_{k}_{lab}", table.term_values[:, k])
              for k, lab in enumerate(table.term_labels)]
    return named + [("remainder_benchmark", table.benchmark), *inserted,
                    ("cancellation_flag", table.cancellation)]


def _evaluation_fields(table) -> dict:
    """An evaluation's JSON fields, the float ones as the table's arrays and
    the others in plain Python values."""
    return {
        "t": table.t,
        "totals": table.totals,
        "term_labels": list(table.term_labels),
        "term_values": table.term_values,
        "benchmark": table.benchmark,
        "cancellation": table.cancellation.tolist(),
        "domain_ok": table.domain_ok.tolist(),
        "notes": list(table.notes),
    }


# ---------------------------------------------------------------------------
# command runners
# ---------------------------------------------------------------------------


def _evaluate(doc: dict, order_override: int | None):
    """Expansion and evaluation table of a validated config document."""
    dist = build_distribution(doc)
    seq = build_weights(doc, dist)
    exp = build_expansion(doc, dist, seq, order_override)
    return exp, xp.evaluate(exp, dist, build_grid(doc))


def _same_bits(want: np.ndarray, stored) -> bool:
    """Each stored cell a float, NaN where NaN, else equal to want on the int64 view."""
    cells = np.asarray(stored, dtype=object)
    if cells.shape != want.shape or not {float}.issuperset(map(type, cells.flat)):
        return False
    got = cells.astype(float)
    return bool((np.isnan(want) & np.isnan(got)
                 | (want.view(np.int64) == got.view(np.int64))).all())


def _verify_report(report_path: str) -> dict:
    """Re-ingest an evaluation report and check that its tables reproduce
    exactly: the float fields bit for bit (_same_bits), the others as JSON
    text, where true is not 1."""
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid report JSON: {exc}", path=report_path) from exc
    if "config" not in report or "evaluation" not in report:
        raise ConfigError("report file must embed 'config' and 'evaluation'",
                          path=report_path)
    doc = report["config"]
    validate_config(doc)
    _, table = _evaluate(doc, report.get("order_override"))
    stored = report["evaluation"]
    mismatches = [key for key, value in _evaluation_fields(table).items()
                  if not (_same_bits(value, stored.get(key)) if isinstance(value, np.ndarray)
                          else json.dumps(value) == json.dumps(stored.get(key)))]
    return {
        "roundtrip_ok": not mismatches,
        "mismatched_fields": mismatches,
        "source": os.path.basename(report_path),
    }


def _artifacts(command: str, config_path: str, seed_override: int | None,
               order_override: int | None) -> tuple[list[tuple[str, object]], dict]:
    """A command's artifacts as (file name, content) pairs, its JSON file last,
    and that file's content in plain Python values: a CSV's content is its
    (column name, column) pairs, a JSON file's its dict."""
    if command == "report":
        verdict = _verify_report(config_path)
        return [("report_verified.json", verdict)], verdict
    doc = load_config(config_path)
    if command == "evaluate":
        exp, table = _evaluate(doc, order_override)
        # each float cell is spelled once, for evaluation.csv and report.json alike
        named = [(name, col if col.dtype.kind == "b"
                  else Spelled(map(float.__repr__, col.tolist())))
                 for name, col in _evaluation_columns(table)]
        t, totals, *terms, benchmark, _ = (col for _, col in named)
        fields = _evaluation_fields(table)
        report = {"config": doc, "seed": build_budget(doc).seed,
                  "order_override": order_override, "expansion": expansion_to_json(exp)}
        spelled = {**fields, "t": t, "totals": totals, "benchmark": benchmark,
                   "term_values": list(map(Spelled, zip(*terms)))}
        plain = {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in fields.items()}
        return ([("evaluation.csv", named), ("report.json", {**report, "evaluation": spelled})],
                {**report, "evaluation": plain})

    dist = build_distribution(doc)
    seq = build_weights(doc, dist)
    if command == "classify":
        model = dist.upper
        regime = xp.classify(model)
        diag = validate_metadata(model, xp.default_diagnostic_grid(model))
        summary = {
            "regime": regime.kind.value,
            "lambda": regime.lam,
            "provenance": PROVENANCE,
            "declared": {
                "rv_index": model.rv_index,
                "log_exponent": model.log_exponent,
                "lambda_coeff": model.lambda_coeff,
                "smooth_order": model.smooth_order,
            },
            "diagnostics": asdict(diag),
        }
        return [("classify.json", summary)], summary
    if command == "expand":
        summary = expansion_to_json(build_expansion(doc, dist, seq, order_override))
        return [("expansion.json", summary)], summary

    grid = build_grid(doc)
    budget = build_budget(doc, seed_override)
    # an oracle's ValueError: the law or the truncation is outside its method's scope
    if command == "oracle":
        with _rejected_at("oracle"):
            estimates = [orc._estimate(dist, seq, float(t), budget) for t in grid]
        summary = {"estimates": [vars(e) for e in estimates]}
        return [("oracle.csv", [(name, [getattr(e, f) for e in estimates])
                                for f, name in ORACLE_HEADER.items()]),
                ("oracle.json", summary)], summary

    # compare
    exp = build_expansion(doc, dist, seq, order_override)
    with _rejected_at("oracle"):
        table = orc.compare_with_oracle(exp, dist, seq, grid, budget)
    named = _evaluation_columns(table.evaluation, [
        (name, getattr(table, name)) for name in
        ("oracle_p", "oracle_stderr", "deviation", "deviation_over_benchmark")])
    named.append(("passed", table.passed))
    columns = dict(named)
    summary = {
        "config": doc,
        "budget": {k: getattr(table.estimates[0], k) for k in
                   ("n_samples", "seed", "method")} if table.estimates else {},
        "rows": [dict(zip(COMPARE_ROW, row)) for row in
                 zip(*(columns[name].tolist() for name in COMPARE_ROW))],
    }
    return [("compare.csv", named), ("compare.json", summary)], summary


def run_command(command: str, config_path: str, out_dir: str,
                seed_override: int | None = None,
                order_override: int | None = None) -> dict:
    """Execute one CLI command: write each of its artifacts into out_dir and
    return the content of its JSON file."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}", path="<command>")
    os.makedirs(out_dir, exist_ok=True)
    artifacts, summary = _artifacts(command, config_path, seed_override, order_override)
    for name, content in artifacts:
        write = write_csv if name.endswith(".csv") else write_json
        write(os.path.join(out_dir, name), content)
    if command == "report" and not summary["roundtrip_ok"]:
        raise ConfigError(f"report tables failed to reproduce: "
                          f"{summary['mismatched_fields']}", path=config_path)
    return summary
