"""CLI and config-layer behavior: schema errors, exit codes, artifacts."""

import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest

import lighttails as lt
from lighttails.cli import (EXIT_OK, EXIT_REGIME, EXIT_SCHEMA, EXIT_SMOOTHNESS,
                            main)
from lighttails.config import (COMPARE_ROW, ORACLE_HEADER, build_distribution,
                               build_weights, load_config, write_csv)

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
], ids=["ratio_above_one", "ratio_zero", "trailing_zero", "zero_with_generator",
        "two_sided_contradicts_symmetric", "negative_on_one_sided",
        "string_parameter", "null_parameter"])
def test_cli_bad_weights_exit_at_their_path(tmp_path, sections, path):
    doc = json.loads(json.dumps(BASE))
    for name, updates in sections.items():
        doc[name].update(updates)
    out = tmp_path / "out"
    assert main(["expand", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_SCHEMA
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["path"] == path


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
    ]
    named = [(f"col{i}", col) for i, col in enumerate(columns)]
    path = tmp_path / "table.csv"
    write_csv(str(path), named)
    want = "\n".join([",".join(name for name, _ in named)]
                     + [",".join(_cell(col[r]) for col in columns) for r in range(8)]) + "\n"
    assert path.read_text() == want


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


def test_cli_smoothness_exit_code(tmp_path):
    path = write_config(tmp_path, BASE)
    out = str(tmp_path / "out")
    assert main(["expand", "--config", path, "--out", out,
                 "--order", "9"]) == EXIT_SMOOTHNESS


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
