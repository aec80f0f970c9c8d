"""Experiment configuration: one JSON file describes distribution, weights,
expansion order, evaluation grid and oracle budget.

The schema is validated with jsonschema so violations report the offending
key's path.  Builders turn the validated document into package objects.  Each
command's artifacts come from one function as (file name, content) pairs, a
CSV as its (column name, column) pairs and a JSON file as its dict, and
run_command writes them in one loop, atomically and formatted
deterministically (shortest round-trip float repr, sorted JSON keys), so
identical (config, seed) pairs give byte-identical outputs.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields

import numpy as np
from jsonschema import Draft202012Validator

from . import expansion as xp
from . import oracle as orc
from .distributions import (TailDistribution, custom_hazard, log_power_mixture,
                            log_weibull, lognormal_type, weibull_type)
from .errors import ConfigError
from .hazard import validate_metadata
from .weights import GeometricTail, WeightSequence

__all__ = ["CONFIG_SCHEMA", "load_config", "build_distribution", "build_weights",
           "build_grid", "run_command", "COMMANDS"]

COMMANDS = ("classify", "expand", "evaluate", "oracle", "compare", "report")

# an artifact's regime always comes from the declared metadata: asymptotic
# hypotheses cannot be decided from finitely many values (see validate_metadata)
PROVENANCE = "declared"

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["distribution", "weights"],
    "properties": {
        "distribution": {
            "type": "object",
            "required": ["family", "params"],
            "properties": {
                "family": {"enum": ["weibull", "logweibull", "lognormal2",
                                    "custom", "log_power_mixture"]},
                "params": {"type": "object"},
                "two_sided": {"type": "boolean", "default": False},
                "symmetric": {"type": "boolean", "default": False},
                "t0": {"type": "number", "exclusiveMinimum": 1.0},
            },
        },
        "weights": {
            "type": "object",
            "required": ["weights", "delta"],
            "properties": {
                # no zeros, so from_index counts the weights WeightSequence keeps
                "weights": {"type": "array", "minItems": 1,
                            "items": {"type": "number", "not": {"const": 0}}},
                "generator": {
                    "type": ["object", "null"],
                    "required": ["type", "ratio", "from_index"],
                    "properties": {
                        "type": {"const": "geometric"},
                        "ratio": {"type": "number"},
                        "from_index": {"type": "integer", "minimum": 2},
                    },
                },
                "delta": {"type": "number", "exclusiveMinimum": 0.0,
                          "exclusiveMaximum": 1.0},
            },
        },
        "expansion": {
            "type": "object",
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
            "properties": {
                "t_min": {"type": "number", "exclusiveMinimum": 0.0},
                "t_max": {"type": "number", "exclusiveMinimum": 0.0},
                "points": {"type": "integer", "minimum": 1},
                "spacing": {"enum": ["geometric", "linear"], "default": "geometric"},
            },
        },
        "oracle": {
            "type": "object",
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


def validate_config(doc: dict) -> None:
    validator = Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(err.message, path=path)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", path=path) from exc
    validate_config(doc)
    return doc


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_distribution(doc: dict) -> TailDistribution:
    section = doc["distribution"]
    family = section["family"]
    params = section["params"]
    symmetric = section.get("symmetric", False)
    if section.get("two_sided", symmetric) != symmetric:
        raise ConfigError("two_sided, when given, must equal symmetric",
                          path="distribution/two_sided")
    kwargs = {}
    if "t0" in section:
        kwargs["t0"] = section["t0"]
    try:
        if family == "weibull":
            return weibull_type(params["a"], symmetric=symmetric, **kwargs)
        if family == "logweibull":
            return log_weibull(params["a"], symmetric=symmetric, **kwargs)
        if family == "lognormal2":
            return lognormal_type(params["theta"], symmetric=symmetric, **kwargs)
        if family == "custom":
            if symmetric:
                raise ConfigError("custom hazards are one-sided",
                                  path="distribution/symmetric")
            return custom_hazard(
                terms=[tuple(t) for t in params["terms"]],
                t0=section.get("t0", 2.0),
                sbar_t0=params.get("sbar_t0", 0.5),
                rv_index=params["rv_index"],
                log_exponent=params.get("log_exponent", 0.0),
                lambda_coeff=params.get("lambda_coeff"),
                smooth_order=params.get("smooth_order", 8),
            )
        if family == "log_power_mixture":
            if symmetric:
                raise ConfigError("mixture tails are one-sided",
                                  path="distribution/symmetric")
            comps = [(c["coeff"], c["scale"], [tuple(t) for t in c["log_powers"]])
                     for c in params["components"]]
            return log_power_mixture(comps, t0=section.get("t0", 2.0))
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
    try:
        generator = None
        if gen_spec:
            generator = GeometricTail(ratio=gen_spec["ratio"],
                                      start_index=gen_spec["from_index"],
                                      first_value=weights[-1] * gen_spec["ratio"])
        seq = WeightSequence(weights, delta=section["delta"], generator=generator)
    except ValueError as exc:
        raise ConfigError(str(exc), path="weights") from exc
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
    try:
        return xp.expand(dist, seq, order)
    except ValueError as exc:
        raise ConfigError(str(exc), path="expansion/order") from exc


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
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, named) -> None:
    """CSV of (column name, column) pairs, each column formatted by its numpy
    kind: floats in shortest round-trip repr, integers in decimal, booleans
    as 1/0, strings as they are."""
    cells = []
    for _, col in named:
        col = np.asarray(col)
        cells.append(map(str, (col.astype(int) if col.dtype.kind == "b" else col).tolist()))
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


def evaluation_to_json(table) -> dict:
    return {
        "t": table.t.tolist(),
        "totals": table.totals.tolist(),
        "term_labels": list(table.term_labels),
        "term_values": table.term_values.tolist(),
        "benchmark": table.benchmark.tolist(),
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


def _verify_report(report_path: str) -> dict:
    """Re-ingest an evaluation report and check that its tables reproduce
    exactly.  A field that fails plain equality, as one with a NaN domain gap
    does, is compared as JSON text, where NaN matches NaN and -0.0 is not 0.0."""
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
    mismatches = [key for key, value in evaluation_to_json(table).items()
                  if value != stored.get(key)
                  and json.dumps(value) != json.dumps(stored.get(key))]
    return {
        "roundtrip_ok": not mismatches,
        "mismatched_fields": mismatches,
        "source": os.path.basename(report_path),
    }


def _artifacts(command: str, config_path: str, seed_override: int | None,
               order_override: int | None) -> list[tuple[str, object]]:
    """A command's artifacts as (file name, content) pairs, its JSON file last:
    a CSV's content is its (column name, column) pairs, a JSON file's its dict."""
    if command == "report":
        return [("report_verified.json", _verify_report(config_path))]
    doc = load_config(config_path)
    if command == "evaluate":
        exp, table = _evaluate(doc, order_override)
        return [("evaluation.csv", _evaluation_columns(table)),
                ("report.json", {"config": doc, "seed": build_budget(doc).seed,
                                 "order_override": order_override,
                                 "expansion": expansion_to_json(exp),
                                 "evaluation": evaluation_to_json(table)})]

    dist = build_distribution(doc)
    seq = build_weights(doc, dist)
    if command == "classify":
        model = dist.upper
        regime = xp.classify(model)
        diag = validate_metadata(model, xp.default_diagnostic_grid(model))
        return [("classify.json", {
            "regime": regime.kind.value,
            "lambda": regime.lam,
            "provenance": PROVENANCE,
            "declared": {
                "rv_index": model.rv_index,
                "log_exponent": model.log_exponent,
                "lambda_coeff": model.lambda_coeff,
                "smooth_order": model.smooth_order,
            },
            "diagnostics": {
                "rv_index_est": diag.rv_index_est,
                "log_exponent_est": diag.log_exponent_est,
                "lambda_est": diag.lambda_est,
                "subcritical_bounded": diag.subcritical_bounded,
                "flags": diag.flags,
                "inconclusive": diag.inconclusive,
            },
        })]
    if command == "expand":
        return [("expansion.json",
                 expansion_to_json(build_expansion(doc, dist, seq, order_override)))]

    grid = build_grid(doc)
    budget = build_budget(doc, seed_override)
    if command == "oracle":
        estimates = [orc._estimate(dist, seq, float(t), budget) for t in grid]
        return [("oracle.csv", [(name, [getattr(e, f) for e in estimates])
                                for f, name in ORACLE_HEADER.items()]),
                ("oracle.json", {"estimates": [vars(e) for e in estimates]})]

    # compare
    exp = build_expansion(doc, dist, seq, order_override)
    table = orc.compare_with_oracle(exp, dist, seq, grid, budget)
    named = _evaluation_columns(table.evaluation, [
        (name, getattr(table, name)) for name in
        ("oracle_p", "oracle_stderr", "deviation", "deviation_over_benchmark")])
    named.append(("passed", table.passed))
    columns = dict(named)
    return [("compare.csv", named),
            ("compare.json", {
                "config": doc,
                "budget": {k: getattr(table.estimates[0], k) for k in
                           ("n_samples", "seed", "method")} if table.estimates else {},
                "rows": [dict(zip(COMPARE_ROW, row)) for row in
                         zip(*(columns[name].tolist() for name in COMPARE_ROW))],
            })]


def run_command(command: str, config_path: str, out_dir: str,
                seed_override: int | None = None,
                order_override: int | None = None) -> dict:
    """Execute one CLI command: write each of its artifacts into out_dir and
    return the content of its JSON file."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}", path="<command>")
    os.makedirs(out_dir, exist_ok=True)
    artifacts = _artifacts(command, config_path, seed_override, order_override)
    for name, content in artifacts:
        write = write_csv if name.endswith(".csv") else write_json
        write(os.path.join(out_dir, name), content)
    summary = artifacts[-1][1]
    if command == "report" and not summary["roundtrip_ok"]:
        raise ConfigError(f"report tables failed to reproduce: "
                          f"{summary['mismatched_fields']}", path=config_path)
    return summary
