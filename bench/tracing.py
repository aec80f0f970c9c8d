"""Spans around the library's layer boundaries, recorded from the outside.

``instrument(tracer)`` wraps, for the duration of a ``with`` block, the
public functions that ``config.run_command`` calls into (``config``,
``expansion``, ``laplace``, ``hazard``, ``weights``, ``oracle``) and the
distribution callables the oracles call per block of draws (``ppf``,
``sf_batch``, ``cdf_batch``, ``moment``).  Nothing in the library is edited:
module attributes and class methods are swapped for recording wrappers and
put back afterwards, and each built distribution gets a recording ``ppf``
through ``dataclasses.replace``.

A span is ``[name, start, end, parent, op, count, extra]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the operation id,
``count`` the work the call did (draws, evaluations, grid points, bytes,
factors) and ``extra`` what the call returned that the benchmark checks.
Spans stay in memory and are written out when the run ends.  Self time is a
span's duration minus the durations of its direct children (one thread, so
children never overlap).
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import time
from contextlib import contextmanager

import numpy as np

from lighttails import config, distributions, expansion, hazard, laplace, oracle, weights

NAME, START, END, PARENT, OP, COUNT, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None, extra=None):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            span = self.spans[idx]
            if count is not None:
                span[COUNT] = count(args, result)
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result
        return recorded

    def estimates(self, first: int = 0) -> list[dict]:
        """What the oracle estimators returned, from span ``first`` on."""
        return [s[EXTRA] for s in self.spans[first:] if s[NAME] in ESTIMATORS]


ESTIMATORS = ("oracle.conditional_mc", "oracle.plain_mc", "oracle.quadrature_estimate")


def write_spans(path: str, tracers: list[Tracer]) -> None:
    """Gzipped, one JSON array per line: the traced pass's number, then the span."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps(["pass", "name", "start", "end", "parent", "op", "count",
                             "extra"]) + "\n")
        for number, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps([number] + span) + "\n")


def _size(i):
    return lambda args, result: int(np.size(args[i]))


def _estimate(args, result):
    return {"p_hat": result.p_hat, "std_err": result.std_err,
            "n_samples": result.n_samples, "truncation_n": result.truncation_n}


def _quad_error(args, result):
    value, err = result
    return {"err_rel": err / value if value > 0 else 0.0}


# (owner, attribute, span name, count, extra); a method is patched on its class
_TARGETS = (
    (config, "load_config", "config.load_config", None, None),
    (config, "build_weights", "config.build_weights", None, None),
    (config, "build_grid", "config.build_grid", None, None),
    (config, "build_budget", "config.build_budget", None, None),
    (config, "build_expansion", "config.build_expansion", None, None),
    (config, "validate_metadata", "hazard.validate_metadata", None, None),
    (config, "write_json", "config.write_json", None, None),
    (config, "write_csv", "config.write_csv", None, None),
    (config, "write_atomic", "config.write_atomic",
     lambda args, result: len(args[1].encode()), None),
    (expansion, "classify", "expansion.classify", None, None),
    (expansion, "expand", "expansion.expand", None, None),
    (expansion, "evaluate", "expansion.evaluate", _size(2), None),
    (oracle, "evaluate", "expansion.evaluate", _size(2), None),
    (expansion, "residual_moments", "laplace.residual_moments", None, None),
    (laplace, "residual_moments", "laplace.residual_moments", None, None),
    (hazard.HazardModel, "survival_derivative_signed_log", "hazard.survival_derivative",
     None, None),
    (weights.WeightSequence, "truncation_index", "weights.truncation_index", None, None),
    (distributions.TailDistribution, "sf_batch", "distributions.sf_batch", _size(1), None),
    (distributions.TailDistribution, "cdf_batch", "distributions.cdf_batch", _size(1), None),
    (distributions.TailDistribution, "moment", "distributions.moment", None, None),
    (oracle, "compare_with_oracle", "oracle.compare_with_oracle", None, None),
    (oracle, "conditional_mc", "oracle.conditional_mc", None, _estimate),
    (oracle, "plain_mc", "oracle.plain_mc", None, _estimate),
    (oracle, "quadrature_estimate", "oracle.quadrature_estimate", None, _estimate),
    # quadrature_estimate drops the error bound convolved_sf returns; the
    # wrapper keeps it.  count is the number of factors convolved.
    (oracle, "convolved_sf", "oracle.convolved_sf", lambda args, result: len(args[0]),
     _quad_error),
)


@contextmanager
def instrument(tracer: Tracer):
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in _TARGETS]
    saved.append((config, "build_distribution", config.build_distribution))
    build_distribution = config.build_distribution

    def traced_build_distribution(doc):
        idx = tracer.open("config.build_distribution")
        try:
            dist = build_distribution(doc)
        finally:
            tracer.close(idx)
        return dataclasses.replace(dist, ppf=tracer.wrap("distributions.ppf", dist.ppf,
                                                         count=_size(0)))

    try:
        for owner, attr, name, count, extra in _TARGETS:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count, extra))
        config.build_distribution = traced_build_distribution
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


LAYER_UNITS = {
    "config.load_s": "s",
    "config.write_s": "s",
    "config.write_bytes": "bytes",
    "distributions.ppf_us_per_draw": "us",
    "distributions.ppf_draws": "count",
    "distributions.ppf_projected_shipped_logweibull_s": "s",
    "distributions.sf_batch_us_per_eval": "us",
    "distributions.moment_s": "s",
    "laplace.residual_moments_s": "s",
    "oracle.conditional_mc_s": "s",
    "oracle.conditional_mc_self_s": "s",
    "oracle.conditional_mc_sample_vars_per_s": "1/s",
    "oracle.plain_mc_sample_vars_per_s": "1/s",
    "oracle.pair_quad_s_per_point": "s",
    "oracle.triple_quad_s_per_point": "s",
    "oracle.quad_err_rel_max": "ratio",
    "weights.truncation_n": "count",
    "expansion.classify_s": "s",
    "expansion.expand_s": "s",
    "expansion.evaluate_us_per_point": "us",
    "hazard.survival_derivative_us_per_call": "us",
    "trace.overhead_frac": "ratio",
}


def _per(a: float, b: float) -> float:
    # a layer the workload never calls reports 0
    return a / b if b else 0.0


def layer_metrics(spans: list[list], source_of: dict[str, str],
                  shipped_logweibull_draws: int) -> dict[str, float]:
    """Per-layer figures of one traced pass (all but ``trace.overhead_frac``).

    Times are totals over the pass; ``*_per_*`` figures divide a total time by
    the work count recorded at the same boundary.
    """
    dur = [s[END] - s[START] for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]] += dur[i]

    def select(name, where=lambda s: True):
        return [i for i, s in enumerate(spans) if s[NAME] == name and where(s)]

    def time_of(idx):
        return sum(dur[i] for i in idx)

    def count_of(idx):
        return sum(spans[i][COUNT] for i in idx)

    def sample_vars(idx):
        return sum(spans[i][EXTRA]["n_samples"] * spans[i][EXTRA]["truncation_n"]
                   for i in idx)

    ppf = select("distributions.ppf")
    ppf_logw = select("distributions.ppf",
                      lambda s: source_of[s[OP]] == "logweibull_second_order")
    batch = select("distributions.sf_batch") + select("distributions.cdf_batch")
    cmc = select("oracle.conditional_mc")
    pmc = select("oracle.plain_mc")
    pair = select("oracle.convolved_sf", lambda s: s[COUNT] == 2)
    triple = select("oracle.convolved_sf", lambda s: s[COUNT] == 3)
    quad = select("oracle.convolved_sf")
    estimators = [i for i, s in enumerate(spans) if s[NAME] in ESTIMATORS]
    writes = [i for i, s in enumerate(spans) if s[NAME].startswith("config.write_")
              and not (s[PARENT] >= 0 and spans[s[PARENT]][NAME].startswith("config.write_"))]
    evaluate = select("expansion.evaluate")
    deriv = select("hazard.survival_derivative")
    return {
        "config.load_s": time_of(select("config.load_config")),
        "config.write_s": time_of(writes),
        "config.write_bytes": count_of(select("config.write_atomic")),
        "distributions.ppf_us_per_draw": _per(time_of(ppf), count_of(ppf)) * 1e6,
        "distributions.ppf_draws": count_of(ppf),
        "distributions.ppf_projected_shipped_logweibull_s":
            _per(time_of(ppf_logw), count_of(ppf_logw)) * shipped_logweibull_draws,
        "distributions.sf_batch_us_per_eval": _per(time_of(batch), count_of(batch)) * 1e6,
        "distributions.moment_s": time_of(select("distributions.moment")),
        "laplace.residual_moments_s": time_of(select("laplace.residual_moments")),
        "oracle.conditional_mc_s": time_of(cmc),
        "oracle.conditional_mc_self_s": sum(dur[i] - children[i] for i in cmc),
        "oracle.conditional_mc_sample_vars_per_s": _per(sample_vars(cmc), time_of(cmc)),
        "oracle.plain_mc_sample_vars_per_s": _per(sample_vars(pmc), time_of(pmc)),
        "oracle.pair_quad_s_per_point": _per(time_of(pair), len(pair)),
        "oracle.triple_quad_s_per_point": _per(time_of(triple), len(triple)),
        "oracle.quad_err_rel_max": max((spans[i][EXTRA]["err_rel"] for i in quad),
                                       default=0.0),
        "weights.truncation_n": sum(spans[i][EXTRA]["truncation_n"] for i in estimators),
        "expansion.classify_s": time_of(select("expansion.classify")),
        "expansion.expand_s": time_of(select("expansion.expand")),
        "expansion.evaluate_us_per_point": _per(time_of(evaluate), count_of(evaluate)) * 1e6,
        "hazard.survival_derivative_us_per_call": _per(time_of(deriv), len(deriv)) * 1e6,
    }
