"""CLI and config-layer behavior: schema errors, exit codes, artifacts."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import lighttails as lt
from lighttails import config
from lighttails.cli import (EXIT_ERROR, EXIT_OK, EXIT_REGIME, EXIT_SCHEMA,
                            EXIT_SMOOTHNESS, main)
from lighttails.config import (COMPARE_ROW, CONFIG_SCHEMA, ORACLE_HEADER, Spelled,
                               build_distribution, build_weights, load_config,
                               run_command, validate_config, write_csv, write_json)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg(name):
    return os.path.join(CONFIG_DIR, name)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {
    "distribution": {"family": "weibull", "params": {"a": 0.4}},
    "weights": {"weights": [1.0, 0.5], "generator": None, "delta": 0.5},
    "expansion": {"order": 2, "regime_override": None},
    "grid": {"t_min": 50.0, "t_max": 200.0, "points": 3, "spacing": "geometric"},
    "oracle": {"method": "conditional_mc", "n": 10000, "seed": 4, "eps_trunc": 1e-9},
}


def with_changes(**sections):
    """A copy of BASE with each section updated by, or set to, its keys."""
    doc = json.loads(json.dumps(BASE))
    for name, updates in sections.items():
        doc.setdefault(name, {}).update(updates)
    return doc


# -- config layer ---------------------------------------------------------------


SHIPPED_REGIMES = {
    "cancellation_pair.json": "subcritical",
    "lognormal_gate_above.json": "critical",
    "lognormal_gate_below.json": "critical",
    "lognormal_gate_boundary.json": "critical",
    "logweibull_second_order.json": "subcritical",
    "multiplicity_pair.json": "supercritical",
    "symmetric_moments.json": "supercritical",
    "weibull_oracle_check.json": "supercritical",
    "weibull_third_order.json": "supercritical",
}


def test_load_and_build_shipped_configs():
    names = sorted(os.listdir(CONFIG_DIR))
    assert names == sorted(SHIPPED_REGIMES)
    for name in names:
        doc = load_config(cfg(name))
        dist = build_distribution(doc)
        seq = build_weights(doc, dist)
        assert seq.entries
        assert lt.classify(dist.upper).kind.value == SHIPPED_REGIMES[name]


def test_schema_violation_reports_path(tmp_path):
    doc = json.loads(json.dumps(BASE))
    doc["weights"]["weights"] = []
    path = write_config(tmp_path, doc)
    with pytest.raises(lt.ConfigError) as err:
        load_config(path)
    assert "weights/weights" in str(err.value)


def test_generator_from_index_checked(tmp_path):
    doc = json.loads(json.dumps(BASE))
    doc["weights"]["generator"] = {"type": "geometric", "ratio": 0.5, "from_index": 5}
    path = write_config(tmp_path, doc)
    with pytest.raises(lt.ConfigError):
        build_weights(load_config(path), build_distribution(doc))


def test_build_distribution_logweibull_family():
    doc = json.loads(json.dumps(BASE))
    doc["distribution"] = {"family": "logweibull", "params": {"a": 1.5},
                           "symmetric": True, "t0": 4.0}
    dist = build_distribution(doc)
    want = lt.log_weibull(1.5, t0=4.0, symmetric=True)
    assert dist.symmetric and dist.upper.t0 == 4.0
    assert lt.classify(dist.upper).kind is lt.RegimeKind.SUBCRITICAL
    assert [dist.sf(t) for t in (-50.0, 5.0, 50.0)] == [want.sf(t) for t in (-50.0, 5.0, 50.0)]


def test_symmetric_distribution_gets_balanced_weights():
    doc = json.loads(json.dumps(BASE))
    doc["distribution"] = {"family": "weibull", "params": {"a": 0.5},
                           "two_sided": True, "symmetric": True}
    doc["weights"]["weights"] = [1.0, -0.5]
    dist = build_distribution(doc)
    seq = build_weights(doc, dist)
    assert dist.symmetric and seq.has_negative


GEOMETRIC = {"type": "geometric", "ratio": 0.5, "from_index": 3}


@pytest.mark.parametrize("sections, path", [
    ({"weights": {"generator": {**GEOMETRIC, "ratio": 1.5}}}, "weights"),
    ({"weights": {"generator": {**GEOMETRIC, "ratio": 0}}}, "weights"),
    ({"weights": {"weights": [1.0, 0.0], "generator": GEOMETRIC}}, "weights/weights/1"),
    ({"weights": {"weights": [1.0, 0.0, 0.5], "generator": {**GEOMETRIC, "from_index": 4}}},
     "weights/weights/1"),
    ({"distribution": {"symmetric": True, "two_sided": False}}, "distribution/two_sided"),
    ({"weights": {"weights": [1.0, -0.5]}}, "weights"),
    ({"distribution": {"params": {"a": "0.4"}}}, "distribution"),
    ({"distribution": {"params": {"a": None}}}, "distribution"),
    ({"distribution": {"family": "custom", "symmetric": True}}, "distribution/symmetric"),
    ({"weights": {"weights": [1.0, math.inf]}}, "weights"),
], ids=["ratio_above_one", "ratio_zero", "trailing_zero", "zero_with_generator",
        "two_sided_contradicts_symmetric", "negative_on_one_sided",
        "string_parameter", "null_parameter", "symmetric_custom", "infinite_weight"])
def test_cli_bad_weights_exit_at_their_path(tmp_path, sections, path):
    out = tmp_path / "out"
    assert main(["expand", "--config", write_config(tmp_path, with_changes(**sections)),
                 "--out", str(out)]) == EXIT_SCHEMA
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["path"] == path


@pytest.mark.parametrize("sections, path", [
    ({"oracle": {"samples": 1000}}, "oracle"),
    ({"expansion": {"ordr": 3}}, "expansion"),
    ({"grid": {"point": 3}}, "grid"),
    ({"distribution": {"t_0": 3.0}}, "distribution"),
    ({"weights": {"ratio": 0.5}}, "weights"),
    ({"weights": {"generator": {**GEOMETRIC, "start": 3}}}, "weights/generator"),
    ({"orcale": {"n": 1000}}, "<root>"),
], ids=["oracle_samples", "expansion_ordr", "grid_point", "distribution_t_0",
        "weights_ratio", "generator_start", "unknown_section"])
def test_cli_unknown_key_exits_at_its_section(tmp_path, sections, path):
    # a misspelled key is refused, not silently ignored; params alone is open
    out = tmp_path / "out"
    assert main(["classify", "--config", write_config(tmp_path, with_changes(**sections)),
                 "--out", str(out)]) == EXIT_SCHEMA
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["path"] == path
    assert "Additional properties are not allowed" in err["message"]


# -- the schema interpreter against jsonschema --------------------------------------


def verdict(doc):
    """validate_config's refusal of doc as (path, message), None if it accepts."""
    try:
        validate_config(doc)
    except lt.ConfigError as exc:
        return exc.path, str(exc)
    return None


def reference_verdict(doc):
    """The same from jsonschema: its first error once sorted by path."""
    errors = sorted(Draft202012Validator(CONFIG_SCHEMA).iter_errors(doc),
                    key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    path = "/".join(map(str, errors[0].absolute_path)) or "<root>"
    return path, f"{errors[0].message} (at {path})"


def schema_words(node):
    """Every key and string value of a schema: the names a config may use."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from schema_words(value)
    elif isinstance(node, list):
        for value in node:
            yield from schema_words(value)
    elif isinstance(node, str):
        yield node


def containers(node):
    """Every object and array in a JSON document, the document first."""
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from containers(child)


SHIPPED_DOCS = [load_config(cfg(name)) for name in sorted(SHIPPED_REGIMES)]
_names = st.one_of(st.sampled_from(sorted(set(schema_words(CONFIG_SCHEMA)))),
                   st.text(max_size=3))
_values = st.recursive(
    st.one_of(st.booleans(), st.integers(-3, 3), st.integers(), st.floats(),
              st.sampled_from([0.0, -0.0, 1.0, 3.0, 0.5, math.nan, math.inf, -math.inf]),
              _names, st.none()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_names, inner, max_size=3),
    max_leaves=6)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_validate_config_agrees_with_jsonschema(data):
    # replace, delete and add keys and items at random places in a shipped config
    doc = json.loads(json.dumps(data.draw(st.sampled_from(SHIPPED_DOCS))))
    for _ in range(data.draw(st.integers(1, 3))):
        parent = data.draw(st.sampled_from(list(containers(doc))))
        keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
        action = data.draw(st.sampled_from(["replace", "delete", "add"] if keys else ["add"]))
        if action == "delete":
            del parent[data.draw(st.sampled_from(keys))]
        elif action == "replace":
            parent[data.draw(st.sampled_from(keys))] = data.draw(_values)
        elif isinstance(parent, dict):
            parent[data.draw(_names)] = data.draw(_values)
        else:
            parent.append(data.draw(_values))
    assert verdict(doc) == reference_verdict(doc)


@pytest.mark.parametrize("doc, expected", [
    (BASE, None),
    (with_changes(grid={"points": 3.0}), None),  # 3.0 is an integer
    (with_changes(grid={"points": True}), ("grid/points", "True is not of type 'integer'")),
    (with_changes(weights={"delta": False}), ("weights/delta", "False is not of type 'number'")),
    (with_changes(weights={"weights": [1.0, -0.0]}),
     ("weights/weights/1", "-0.0 should not be valid under {'const': 0}")),
    (with_changes(weights={"delta": math.nan}, grid={"t_min": math.nan}), None),
    (with_changes(weights={"delta": math.inf}),
     ("weights/delta", "inf is greater than or equal to the maximum of 1.0")),
    (with_changes(oracle={"y": 1, "x": 2}),
     ("oracle", "Additional properties are not allowed ('x', 'y' were unexpected)")),
    ({"distribution": BASE["distribution"], "weights": {"weights": [], "x": 1}},
     ("weights", "'delta' is a required property")),
    (with_changes(weights={"weights": []}), ("weights/weights", "[] should be non-empty")),
    # the first path in path order, not the first error found
    (with_changes(grid={"points": 0}, distribution={"family": "gamma"}),
     ("distribution/family", "'gamma' is not one of ['weibull', 'logweibull', "
      "'lognormal2', 'custom', 'log_power_mixture']")),
    ([BASE], ("<root>", f"{[BASE]!r} is not of type 'object'")),
], ids=["valid", "float_integer", "bool_integer", "bool_number", "negative_zero_weight",
        "nan_passes_bounds", "inf_above_delta", "extra_keys_sorted",
        "required_before_additional", "empty_weights", "path_order", "root_not_object"])
def test_validate_config_refuses_as_jsonschema_does(doc, expected):
    if expected is not None:
        expected = expected[0], f"{expected[1]} (at {expected[0]})"
    assert verdict(doc) == reference_verdict(doc) == expected


@pytest.mark.parametrize("schema, value", [
    ({"type": "number"}, True), ({"type": "integer"}, False), ({"type": "integer"}, 3.0),
    ({"type": "integer"}, 3.5), ({"type": "integer"}, math.inf), ({"type": "integer"}, 10**400),
    ({"type": ["object", "null"]}, "x"), ({"type": ["object", "null"]}, None),
    ({"enum": [1, "a"]}, True), ({"enum": [1, "a"]}, 1.0), ({"const": 1}, True),
    ({"const": False}, 0), ({"const": 0}, -0.0),
    ({"not": {"const": 0}}, 0), ({"not": {"const": 0}}, -0.0), ({"not": {"const": 0}}, False),
    ({"minimum": 2, "exclusiveMinimum": 0.0, "exclusiveMaximum": 1.0}, math.nan),
    ({"minimum": 2, "exclusiveMinimum": 0.0, "exclusiveMaximum": 1.0}, -math.inf),
    ({"minimum": 2, "exclusiveMinimum": 0.0, "exclusiveMaximum": 1.0}, 1),
    ({"minimum": 2, "exclusiveMinimum": 0.0}, "0"), ({"minimum": 2}, False),
    ({"minItems": 1, "items": {"minimum": 0}}, []),
    ({"minItems": 3, "items": {"minimum": 0}}, [-1, 0.5]),
    ({"properties": {"a": {"type": "null"}}, "additionalProperties": False},
     {"z": 1, "a": 0, "b": 2}),
    ({"properties": {"a": {}}, "additionalProperties": False}, {"a": 1, "q": 2}),
    ({"required": ["b", "a"], "properties": {"a": {}}, "additionalProperties": False}, {"c": 1}),
    ({"required": ["a"], "properties": {"a": {"minimum": 1}}, "minItems": 1}, [0]),
])
def test_schema_interpreter_keeps_draft_2020_12_semantics(schema, value):
    # every error, in order: the keywords in turn, each with jsonschema's words
    expected = [(tuple(e.absolute_path), e.message)
                for e in Draft202012Validator(schema).iter_errors(value)]
    assert list(config._schema_errors(schema, value, ())) == expected


@pytest.mark.parametrize("keyword", [{"minProperties": 1}, {"additionalProperties": {}},
                                     {"pattern": "^w"}, {"default": 100}])
def test_a_schema_keyword_without_a_check_raises(monkeypatch, keyword):
    # so a keyword added to CONFIG_SCHEMA can never be skipped in silence
    schema = json.loads(json.dumps(CONFIG_SCHEMA))
    schema["properties"]["grid"].update(keyword)
    monkeypatch.setattr(config, "CONFIG_SCHEMA", schema)
    with pytest.raises(NotImplementedError):
        validate_config(BASE)


# -- CLI commands ------------------------------------------------------------------


@pytest.mark.parametrize("name, order", [
    ("lognormal_gate_above.json", "0"),
    ("cancellation_pair.json", "0"),
    ("weibull_oracle_check.json", "-1"),
], ids=["critical_order_0", "subcritical_order_0", "order_minus_1"])
def test_cli_rejected_order_exits_at_its_path(tmp_path, name, order):
    out = tmp_path / "out"
    assert main(["expand", "--config", cfg(name), "--out", str(out),
                 "--order", order]) == EXIT_SCHEMA
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["path"] == "expansion/order"


def test_cli_classify_expand_evaluate(tmp_path):
    path = write_config(tmp_path, BASE)
    out = str(tmp_path / "out")
    assert main(["classify", "--config", path, "--out", out]) == EXIT_OK
    classify = json.loads((tmp_path / "out" / "classify.json").read_text())
    assert classify["regime"] == "supercritical"
    assert main(["expand", "--config", path, "--out", out]) == EXIT_OK
    expansion = json.loads((tmp_path / "out" / "expansion.json").read_text())
    assert [t["j"] for t in expansion["terms"]] == [0, 1, 2]
    for spacing, t_col in (("geometric", [50.0, 100.0, 200.0]),
                           ("linear", [50.0, 125.0, 200.0])):
        doc = {**BASE, "grid": {**BASE["grid"], "spacing": spacing}}
        assert main(["evaluate", "--config", write_config(tmp_path, doc),
                     "--out", out]) == EXIT_OK
        lines = (tmp_path / "out" / "evaluation.csv").read_text().splitlines()
        assert lines[0].startswith("t,expansion_total,term_0_c1_j0")
        assert [float(line.split(",")[0]) for line in lines[1:]] == pytest.approx(
            t_col, rel=1e-15)


def test_cli_order_override(tmp_path):
    path = write_config(tmp_path, BASE)
    out = str(tmp_path / "out")
    assert main(["expand", "--config", path, "--out", out, "--order", "1"]) == EXIT_OK
    expansion = json.loads((tmp_path / "out" / "expansion.json").read_text())
    assert [t["j"] for t in expansion["terms"]] == [0, 1]


def test_cli_oracle_and_compare_deterministic(tmp_path):
    path = write_config(tmp_path, BASE)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert main(["compare", "--config", path, "--out", out]) == EXIT_OK
        assert main(["oracle", "--config", path, "--out", out]) == EXIT_OK
    assert (tmp_path / "a" / "compare.csv").read_bytes() == \
        (tmp_path / "b" / "compare.csv").read_bytes()
    assert (tmp_path / "a" / "oracle.csv").read_bytes() == \
        (tmp_path / "b" / "oracle.csv").read_bytes()


def test_cli_compare_with_plain_mc(tmp_path):
    # the config's method reaches compare: each row's oracle_p is plain_mc's
    doc = {**BASE, "oracle": {**BASE["oracle"], "method": "plain_mc"}}
    out = tmp_path / "out"
    assert main(["compare", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_OK
    got = json.loads((out / "compare.json").read_text())
    assert got["budget"]["method"] == "plain_mc"
    dist = build_distribution(doc)
    seq = build_weights(doc, dist)
    oracle = doc["oracle"]
    want = [lt.plain_mc(dist, seq, t, oracle["n"], oracle["seed"], oracle["eps_trunc"]).p_hat
            for t in np.geomspace(50.0, 200.0, 3)]
    assert [row["oracle_p"] for row in got["rows"]] == want
    assert all(p > 0.0 for p in want)


def test_cli_oracle_csv_layout(tmp_path):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["oracle", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = (out / "oracle.csv").read_text().splitlines()
    estimates = json.loads((out / "oracle.json").read_text())["estimates"]
    assert lines[0] == ("t,oracle_p,oracle_stderr,n_samples,truncation_N,"
                        "truncation_bias_bound,seed,method")
    assert lines[0].split(",") == list(ORACLE_HEADER.values())
    assert list(ORACLE_HEADER) == [f.name for f in fields(lt.OracleEstimate)]
    assert len(lines) == len(estimates) + 1
    for line, est in zip(lines[1:], estimates):
        cells = dict(zip(lines[0].split(","), line.split(",")))
        assert est["method"] == "conditional_mc"
        for key, name in ORACLE_HEADER.items():
            assert type(est[key])(cells[name]) == est[key], key


def test_cli_seed_override_changes_oracle(tmp_path):
    path = write_config(tmp_path, BASE)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["oracle", "--config", path, "--out", out1, "--seed", "11"]) == EXIT_OK
    assert main(["oracle", "--config", path, "--out", out2, "--seed", "12"]) == EXIT_OK
    assert (tmp_path / "a" / "oracle.csv").read_text() != \
        (tmp_path / "b" / "oracle.csv").read_text()


def test_cli_report_round_trip(tmp_path):
    path = write_config(tmp_path, BASE)
    out = str(tmp_path / "out")
    assert main(["evaluate", "--config", path, "--out", out]) == EXIT_OK
    report_path = str(tmp_path / "out" / "report.json")
    assert main(["report", "--config", report_path, "--out", out]) == EXIT_OK
    verdict = json.loads((tmp_path / "out" / "report_verified.json").read_text())
    assert verdict["roundtrip_ok"] is True


def test_cli_report_verified_independent_of_directory(tmp_path):
    path = write_config(tmp_path, BASE)
    verified = []
    for name in ("a", "deeper/b"):
        out = str(tmp_path / name)
        assert main(["evaluate", "--config", path, "--out", out]) == EXIT_OK
        assert main(["report", "--config", os.path.join(out, "report.json"),
                     "--out", out]) == EXIT_OK
        verified.append((tmp_path / name / "report_verified.json").read_bytes())
    assert verified[0] == verified[1]
    assert json.loads(verified[0])["source"] == "report.json"


def test_cli_report_detects_tampering(tmp_path):
    path = write_config(tmp_path, BASE)
    out = str(tmp_path / "out")
    main(["evaluate", "--config", path, "--out", out])
    report_path = tmp_path / "out" / "report.json"
    doc = json.loads(report_path.read_text())
    doc["evaluation"]["totals"][0] *= 1.5
    report_path.write_text(json.dumps(doc))
    assert main(["report", "--config", str(report_path), "--out", out]) == EXIT_SCHEMA


def test_cli_report_checks_every_field(tmp_path):
    path = write_config(tmp_path, BASE)
    out = str(tmp_path / "out")
    main(["evaluate", "--config", path, "--out", out])
    report_path = tmp_path / "out" / "report.json"
    doc = json.loads(report_path.read_text())
    doc["evaluation"]["term_labels"][0] = "S(t/0.25)"
    report_path.write_text(json.dumps(doc))
    assert main(["report", "--config", str(report_path), "--out", out]) == EXIT_SCHEMA
    verdict = json.loads((tmp_path / "out" / "report_verified.json").read_text())
    assert verdict["mismatched_fields"] == ["term_labels"]


# t0 = 2 for the Weibull type: the grid's first point is a domain gap (NaN row)
BELOW_ANCHOR = {**BASE, "grid": {**BASE["grid"], "t_min": 1.5}}


def _evaluated_report(tmp_path, tamper=lambda rows: None):
    path = write_config(tmp_path, BELOW_ANCHOR)
    out = str(tmp_path / "out")
    assert main(["evaluate", "--config", path, "--out", out]) == EXIT_OK
    report_path = tmp_path / "out" / "report.json"
    doc = json.loads(report_path.read_text())
    tamper(doc["evaluation"]["term_values"])
    report_path.write_text(json.dumps(doc))
    return str(report_path), out


def test_cli_report_round_trips_domain_gaps(tmp_path):
    report_path, out = _evaluated_report(tmp_path)
    stored = json.loads((tmp_path / "out" / "report.json").read_text())["evaluation"]
    assert stored["domain_ok"] == [False, True, True] and math.isnan(stored["totals"][0])
    assert main(["report", "--config", report_path, "--out", out]) == EXIT_OK
    verdict = json.loads((tmp_path / "out" / "report_verified.json").read_text())
    assert verdict["roundtrip_ok"] is True


def _one_ulp(rows):
    rows[1][0] = math.nextafter(rows[1][0], math.inf)


def _fill_gap(rows):
    assert math.isnan(rows[0][0])
    rows[0][0] = 0.0


@pytest.mark.parametrize("tamper", [_one_ulp, _fill_gap])
def test_cli_report_detects_one_ulp_and_a_filled_gap(tmp_path, tamper):
    report_path, out = _evaluated_report(tmp_path, tamper)
    assert main(["report", "--config", report_path, "--out", out]) == EXIT_SCHEMA
    verdict = json.loads((tmp_path / "out" / "report_verified.json").read_text())
    assert verdict["mismatched_fields"] == ["term_values"]


def _cell(v) -> str:
    """Each CSV cell as the writer formatted it one cell at a time."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_artifacts_get_the_mode_of_a_plainly_opened_file(tmp_path, umask_022):
    # 0644 under umask 022, as open(path, "w") makes it: a temporary file
    # replaced into place would keep its 0600 and hide the results directory
    out = tmp_path / "out"
    assert main(["evaluate", "--config", cfg("weibull_oracle_check.json"),
                 "--out", str(out)]) == EXIT_OK
    with open(out / "plain.txt", "w"):
        pass
    modes = {path.name: path.stat().st_mode for path in out.iterdir()}
    plain = modes.pop("plain.txt")
    assert oct(plain) == oct(0o100644)
    assert sorted(modes) == ["evaluation.csv", "report.json"]
    assert all(mode == plain for mode in modes.values()), {k: oct(v) for k, v in modes.items()}


def test_write_csv_matches_the_per_cell_format(tmp_path):
    floats = np.array([0.1, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 2.0])
    columns = [
        floats,
        np.arange(16.0).reshape(8, 2)[:, 1] / 3.0,  # a strided column, as term_values gives
        np.array([True, False, False, True, True, False, True, False]),
        # the column kinds of oracle.csv: lists of its field values
        [float(v) for v in floats],
        list(range(8)),
        [int(i) ** 5 for i in range(8)],
        ["conditional_mc", "plain_mc", "quadrature", "a", "b", "c", "d", "e"],
        # the float column spelled beforehand, as evaluate hands it to the writers
        Spelled(map(repr, floats.tolist())),
    ]
    named = [(f"col{i}", col) for i, col in enumerate(columns)]
    path = tmp_path / "table.csv"
    write_csv(str(path), named)
    want = "\n".join([",".join(name for name, _ in named)]
                     + [",".join(_cell(col[r]) for col in columns) for r in range(8)]) + "\n"
    assert path.read_text() == want
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == [row[0] for row in rows]


# JSON documents as the artifacts hold them, and the corners around them:
# non-finite floats, non-ASCII and control characters, empty containers
_json_scalars = st.one_of(st.floats(), st.integers(), st.booleans(), st.none(), st.text())
_json_docs = st.recursive(
    st.one_of(_json_scalars, st.lists(st.floats()),
              st.lists(st.one_of(st.booleans(), st.none()))),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(st.text(), inner)),
    max_leaves=20)


@given(doc=_json_docs)
@settings(max_examples=150, deadline=None)
def test_write_json_matches_json_dumps(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "doc.json"
    write_json(str(path), doc)
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [
    [math.nan, math.inf, -math.inf],
    [0.5, math.inf],  # no artifact writes Infinity, so this is its only check
    {"t": [-0.0, 5e-324, 1e308, 0.1], "flags": [True, None, False]},
    [1.0, 2, 3.5], [1.0, True], [False, 0, None], [np.float64(0.25), 0.5],
    {"outer": ({"é\n\x00": [[], {}, ()]},), "": [[1.0, math.nan], [2.0, -0.0]]},
    # rows of floats, spelled as report.json's term_values rows are: an empty
    # row, one row, and rows holding nan and inf
    [[], [0.5]], [[0.1, -0.0, 5e-324]], [[math.nan, 1.0], [math.inf], [-math.inf, 2.5]],
    -math.inf, "naïve", None,
])
def test_write_json_formats_the_corners_as_json_does(tmp_path, doc):
    path = tmp_path / "doc.json"
    write_json(str(path), doc)
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # each list of plain floats spelled beforehand writes the same bytes
    write_json(str(tmp_path / "spelled.json"), _spell_float_lists(doc))
    assert (tmp_path / "spelled.json").read_text() == path.read_text()


def _spell_float_lists(doc):
    """doc with each list of plain floats, an empty one included, as the
    Spelled column of their reprs."""
    if isinstance(doc, dict):
        return {key: _spell_float_lists(value) for key, value in doc.items()}
    if isinstance(doc, list) and {type(v) for v in doc} <= {float}:
        return Spelled(map(repr, doc))
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(_spell_float_lists, doc))
    return doc


def test_evaluate_spells_each_float_cell_alike_in_both_files(tmp_path):
    out = tmp_path / "out"
    assert main(["evaluate", "--config", write_config(tmp_path, BELOW_ANCHOR),
                 "--out", str(out)]) == EXIT_OK
    lines = (out / "evaluation.csv").read_text().splitlines()
    header = lines[0].split(",")
    csv_columns = dict(zip(header, zip(*(line.split(",") for line in lines[1:]))))
    # each float of report.json as the text it is written in
    stored = json.loads((out / "report.json").read_text(),
                        parse_float=str, parse_constant=str)["evaluation"]
    json_columns = {"t": stored["t"], "expansion_total": stored["totals"],
                    "remainder_benchmark": stored["benchmark"],
                    **{f"term_{k}_{label}": column for k, (label, column) in
                       enumerate(zip(stored["term_labels"], zip(*stored["term_values"])))}}
    assert sorted(json_columns) == sorted(header[:-1])
    json_spelling = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
    for name, column in json_columns.items():
        assert [json_spelling.get(v, v) for v in csv_columns[name]] == list(column), name
    assert "nan" in csv_columns["expansion_total"]  # the grid's first point is a gap
    assert main(["report", "--config", str(out / "report.json"), "--out", str(out)]) == EXIT_OK


def test_run_command_returns_the_report_in_plain_floats(tmp_path):
    out = tmp_path / "out"
    summary = run_command("evaluate", write_config(tmp_path, BELOW_ANCHOR), str(out))
    evaluation = summary["evaluation"]
    columns = [evaluation[key] for key in ("t", "totals", "benchmark")]
    for column in columns + [evaluation["term_values"]] + evaluation["term_values"]:
        assert type(column) is list
    for column in columns + evaluation["term_values"]:
        assert {type(v) for v in column} == {float}
    # json.dumps spells NaN alike on both sides, so equal texts mean equal up to NaN
    written = json.loads((out / "report.json").read_text())
    assert json.dumps(summary, sort_keys=True) == json.dumps(written, sort_keys=True)


def test_compare_json_rows_are_compare_csv_columns(tmp_path):
    out = tmp_path / "out"
    assert main(["compare", "--config", write_config(tmp_path, BELOW_ANCHOR),
                 "--out", str(out)]) == EXIT_OK
    lines = (out / "compare.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = json.loads((out / "compare.json").read_text())["rows"]
    assert len(rows) == len(lines) - 1 == 3
    for line, row in zip(lines[1:], rows):
        cells = dict(zip(header, line.split(",")))
        assert sorted(row) == sorted(COMPARE_ROW)
        for name in COMPARE_ROW:
            # a float cell is the JSON value's repr; NaN marks the domain gap
            want = str(int(row[name])) if name == "passed" else repr(row[name])
            assert cells[name] == want, name


def test_cli_report_tells_negative_zero_from_zero(tmp_path):
    # a symmetric law's odd moments vanish: the order-1 term's cells are 0.0;
    # the grid starts below the anchor, so term_values also holds a NaN gap
    below = {**BELOW_ANCHOR, "distribution": {**BASE["distribution"], "symmetric": True}}
    out = tmp_path / "out"
    assert main(["evaluate", "--config", write_config(tmp_path, below),
                 "--out", str(out)]) == EXIT_OK
    report_path = out / "report.json"
    report = json.loads(report_path.read_text())
    rows = report["evaluation"]["term_values"]
    assert math.isnan(rows[0][1]) and rows[1][1] == 0.0
    assert math.copysign(1.0, rows[1][1]) > 0
    rows[1][1] = -0.0
    report_path.write_text(json.dumps(report))
    assert main(["report", "--config", str(report_path), "--out", str(out)]) == EXIT_SCHEMA
    verdict = json.loads((out / "report_verified.json").read_text())
    assert verdict["mismatched_fields"] == ["term_values"]


def _negative_zero(evaluation):
    # the symmetric law's order-1 term vanishes: its cell is 0.0
    assert evaluation["term_values"][1][1] == 0.0
    evaluation["term_values"][1][1] = -0.0
    return "term_values"


def _integral_float(evaluation):
    assert evaluation["t"][0] == 50.0
    evaluation["t"][0] = 50
    return "t"


@pytest.mark.parametrize("tamper", [_negative_zero, _integral_float])
def test_cli_report_compares_bits_where_no_gap_is(tmp_path, tamper):
    # a field without a NaN gap, where plain equality takes -0.0 for 0.0 and 50
    # for 50.0
    doc = {**BASE, "distribution": {**BASE["distribution"], "symmetric": True}}
    out = tmp_path / "out"
    assert main(["evaluate", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_OK
    report_path = out / "report.json"
    report = json.loads(report_path.read_text())
    assert report["evaluation"]["domain_ok"] == [True] * 3
    field = tamper(report["evaluation"])
    report_path.write_text(json.dumps(report))
    assert main(["report", "--config", str(report_path), "--out", str(out)]) == EXIT_SCHEMA
    verdict = json.loads((out / "report_verified.json").read_text())
    assert verdict["mismatched_fields"] == [field]


def test_regime_override_must_be_null(tmp_path):
    doc = json.loads(json.dumps(BASE))
    doc["expansion"]["regime_override"] = "subcritical"
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["expand", "--config", path, "--out", out]) == EXIT_SCHEMA
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"]["path"] == "expansion/regime_override"


def test_cli_schema_violation_exit_code(tmp_path):
    doc = json.loads(json.dumps(BASE))
    doc["weights"]["weights"] = []
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["classify", "--config", path, "--out", out]) == EXIT_SCHEMA
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"]["exit_code"] == EXIT_SCHEMA
    assert "weights/weights" in err["error"]["path"]


def test_cli_regime_error_exit_code(tmp_path):
    doc = json.loads(json.dumps(BASE))
    doc["distribution"] = {"family": "custom",
                           "params": {"terms": [[1.0, -1.0, 1.0]],
                                      "rv_index": -1.0, "log_exponent": 1.0}}
    path = write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["classify", "--config", path, "--out", out]) == EXIT_REGIME
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"]["kind"] == "regime"


@pytest.mark.parametrize("command", ["classify", "expand"])
@pytest.mark.parametrize("lam", [-1.0, 0.0])
def test_cli_nonpositive_lambda_exits_at_distribution(tmp_path, command, lam):
    doc = json.loads(json.dumps(BASE))
    doc["distribution"] = {"family": "custom",
                           "params": {"terms": [[1.0, -1.0, 1.0]], "rv_index": -1.0,
                                      "log_exponent": 1.0, "lambda_coeff": lam}}
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_SCHEMA
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["path"] == "distribution"


@pytest.mark.parametrize("command", ["oracle", "compare"])
@pytest.mark.parametrize("sections", [
    {"weights": {"weights": [1.0, 0.5, 0.25, 0.125, 0.0625]}},
    {"distribution": {"symmetric": True}, "weights": {"weights": [1.0, 0.5, 0.25]}},
], ids=["five_factors", "three_unbounded_below"])
def test_cli_quadrature_out_of_scope_exits_at_oracle(tmp_path, command, sections):
    doc = json.loads(json.dumps(BASE))
    doc["oracle"]["method"] = "quadrature"
    for name, updates in sections.items():
        doc[name].update(updates)
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_SCHEMA
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["path"] == "oracle"


def test_cli_smoothness_exit_code(tmp_path):
    path = write_config(tmp_path, BASE)
    out = str(tmp_path / "out")
    assert main(["expand", "--config", path, "--out", out,
                 "--order", "9"]) == EXIT_SMOOTHNESS


def test_cli_unmet_quadrature_tolerance_exit_code(tmp_path):
    # at a = 0.2 an order-3 residual moment misses its quad tolerance
    with open(cfg("weibull_oracle_check.json")) as fh:
        doc = json.load(fh)
    doc["distribution"]["params"]["a"] = 0.2
    doc["expansion"]["order"] = 3
    out = tmp_path / "out"
    assert main(["expand", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_ERROR
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["kind"] == "quadrature" and err["exit_code"] == EXIT_ERROR
    assert err["message"].startswith("quadrature achieved error bound ")


def test_cli_underflowed_quadrature_exit_code(tmp_path):
    # at t = 2e7 the pair's quadrature value underflows to 0.0: the row may
    # not read as passed
    doc = json.loads(json.dumps(BASE))
    doc["oracle"]["method"] = "quadrature"
    doc["grid"].update(t_min=2e7, t_max=2e7, points=1)
    out = tmp_path / "out"
    assert main(["compare", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_ERROR
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["kind"] == "quadrature" and err["exit_code"] == EXIT_ERROR


def test_cli_oracle_ignores_expansion_settings(tmp_path):
    # the oracle builds no expansion: an order the model cannot support
    # changes nothing in its output
    with open(cfg("weibull_oracle_check.json")) as fh:
        doc = json.load(fh)
    doc["oracle"]["n"] = 20000
    outs = []
    for order in (2, 40):
        doc["expansion"]["order"] = order
        path = write_config(tmp_path, doc, f"order{order}.json")
        out = tmp_path / f"order{order}"
        assert main(["oracle", "--config", path, "--out", str(out)]) == EXIT_OK
        outs.append((out / "oracle.json").read_bytes())
    assert outs[0] == outs[1]


def test_cli_missing_config_file(tmp_path):
    assert main(["classify", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == EXIT_SCHEMA


def test_cli_env_out_dir(tmp_path, monkeypatch):
    path = write_config(tmp_path, BASE)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("LIGHTTAILS_OUT", str(env_out))
    assert main(["classify", "--config", path]) == EXIT_OK
    assert (env_out / "classify.json").exists()


def test_cli_boundary_weight_round_trips(tmp_path):
    # the boundary config carries exp(-1) through JSON at full precision
    doc = load_config(cfg("lognormal_gate_boundary.json"))
    assert doc["weights"]["weights"][1] == math.exp(-1.0)


NO_A = {**BASE, "distribution": {"family": "weibull", "params": {}}}
NO_GRID = {name: section for name, section in BASE.items() if name != "grid"}
BACKWARD_GRID = {**BASE, "grid": {**BASE["grid"], "t_min": 200.0, "t_max": 50.0}}


@pytest.mark.parametrize("command, content, path", [
    ("classify", "not json {", None),
    ("classify", NO_A, "distribution/params"),
    ("evaluate", NO_GRID, "grid"),
    ("evaluate", BACKWARD_GRID, "grid/t_max"),
    ("report", "not json {", None),
    ("report", {"evaluation": {}}, None),
    ("report", {"config": BASE}, None),
], ids=["config_not_json", "weibull_without_a", "evaluate_without_grid",
        "t_max_below_t_min", "report_not_json", "report_without_config",
        "report_without_evaluation"])
def test_cli_refusals_exit_at_their_path(tmp_path, command, content, path):
    # path None: the refusal names the input file itself
    source = tmp_path / "input.json"
    source.write_text(content if isinstance(content, str) else json.dumps(content))
    out = tmp_path / "out"
    assert main([command, "--config", str(source), "--out", str(out)]) == EXIT_SCHEMA
    assert json.loads((out / "error.json").read_text())["error"]["path"] == (path or str(source))


@pytest.mark.parametrize("command, sections", [
    ("evaluate", {"grid": {"t_min": math.nan}}),
    ("compare", {"oracle": {"slack": math.nan}}),
    ("oracle", {"oracle": {"eps_trunc": math.nan}}),
    ("evaluate", {"grid": {"t_max": math.inf}}),
], ids=["t_min_nan", "slack_nan", "eps_trunc_nan", "t_max_infinity"])
def test_cli_refuses_non_finite_numbers_in_a_config(tmp_path, command, sections):
    # json.dumps writes NaN and Infinity, which json.load reads back
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, with_changes(**sections)),
                 "--out", str(out)]) == EXIT_SCHEMA
    err = json.loads((out / "error.json").read_text())["error"]
    assert (err["kind"], err["path"]) == ("config", *sections)


def test_run_command_refuses_an_unknown_command(tmp_path):
    with pytest.raises(lt.ConfigError) as err:
        run_command("bogus", write_config(tmp_path, BASE), str(tmp_path / "out"))
    assert err.value.path == "<command>"


# -- start-up ----------------------------------------------------------------------


COLD_START = """
import json, sys
from lighttails.cli import main

def loaded():
    return sorted(m for m in sys.modules if m == sys.argv[2] or m.startswith(sys.argv[2] + "."))

seen = [["import", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    seen.append([" ".join(argv[:3]), main(argv), loaded()])
print(json.dumps(seen))
"""


def cold_start(tmp_path, runs, package):
    """[step, exit code, the modules of package loaded after it] for importing
    the CLI and then each run of main, in one fresh interpreter."""
    runs = [argv + ["--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(runs)]
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(runs), package],
                          env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def one_point(tmp_path, name, **sections):
    """A shipped config cut to one grid point and 2000 oracle samples."""
    doc = {**load_config(cfg(name)), **sections}
    doc["grid"].update(points=1, t_max=doc["grid"]["t_min"])
    doc["oracle"]["n"] = 2000
    return write_config(tmp_path, doc, "custom.json" if sections else name)


def test_scipy_loads_only_at_the_first_integral(tmp_path):
    # a fresh interpreter: importing the CLI and every command that integrates
    # nothing leave scipy unloaded; a supercritical expand reaches its moments,
    # and a three-factor quadrature compare its interpolants, and each loads
    # scipy itself, for its compiled QUADPACK, but none of its packages
    weibull = one_point(tmp_path, "weibull_oracle_check.json")
    pair = one_point(tmp_path, "cancellation_pair.json")
    # every hazard term has a closed-form antiderivative
    custom = one_point(tmp_path, "weibull_oracle_check.json", distribution={
        "family": "custom", "params": {"terms": [[0.4, -0.6, 0.0], [0.1, -1.0, 1.0]],
                                       "rv_index": -0.6}})
    triple = load_config(cfg("weibull_oracle_check.json"))
    triple["weights"]["weights"] = [1.0, 0.5, 0.25]
    triple["oracle"]["method"] = "quadrature"
    triple["grid"].update(points=1, t_min=700.0, t_max=700.0)
    runs = [["classify", "--config", cfg("weibull_oracle_check.json")],
            ["classify", "--config", custom],
            ["oracle", "--config", weibull], ["oracle", "--config", pair],
            ["compare", "--config", pair],
            ["expand", "--config", cfg("weibull_oracle_check.json")],
            ["compare", "--config", write_config(tmp_path, triple, "triple.json")]]
    seen = cold_start(tmp_path, runs, "scipy")
    assert [code for _, code, _ in seen] == [EXIT_OK] * (1 + len(runs))
    for step, _, modules in seen[:-2]:
        assert modules == [], step
    packages = {"scipy.integrate", "scipy.interpolate", "scipy.special", "scipy.linalg",
                "scipy.sparse", "scipy.optimize"}
    for step, _, modules in seen[-2:]:
        assert "scipy" in modules, step
        assert not packages & {".".join(m.split(".")[:2]) for m in modules}, step


def test_no_command_loads_jsonschema(tmp_path):
    # configs are checked by config's own interpreter: jsonschema is test-only,
    # also where a command integrates or a config is refused
    weibull = one_point(tmp_path, "weibull_oracle_check.json")
    invalid = write_config(tmp_path, with_changes(weights={"weights": []}), "invalid.json")
    runs = [[command, "--config", weibull]
            for command in ("classify", "expand", "evaluate", "oracle", "compare")]
    runs += [["report", "--config", str(tmp_path / "out2" / "report.json")],  # evaluate's
             ["classify", "--config", invalid]]
    seen = cold_start(tmp_path, runs, "jsonschema")
    assert [code for _, code, _ in seen] == [EXIT_OK] * len(runs) + [EXIT_SCHEMA]
    assert [modules for _, _, modules in seen] == [[]] * len(seen)
