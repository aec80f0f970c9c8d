"""The benchmark's four workloads and the configs they run.

Each workload is a list of operations.  One operation is one
``config.run_command(command, config_path, out_dir)`` call, exactly what
``lighttails <command> --config <config_path> --out <out_dir>`` does.
Every config the benchmark generates is written, from the workload seed,
into the run's work directory; the shipped ``configs/`` are only read.

The workload seed picks the oracle seed (one of ``REFERENCE_SEEDS``, so that
every run can be checked exactly against a stored reference) and the order
in which the operations run within a pass.

Why each workload exists (each optimised layer does most of the work in one
workload and almost none in another):

mc-closed-form   ``compare`` with conditional Monte Carlo on the seven shipped
                 configs whose quantile is closed form, plus ``plain_mc`` on
                 the inputs of ``weibull_oracle_check``.  The MC kernel
                 dominates: Philox streams, the sort across variables,
                 ``sf_batch`` and the mirrored quantile over 31 variables in
                 ``symmetric_moments``.  Running ``plain_mc`` beside it shows
                 a shared sampling loop that helps one estimator and costs the
                 other.  The scalar root-finding quantile is never called.
mc-root-find     ``compare`` on ``cancellation_pair`` and on
                 ``logweibull_second_order``, both at reduced sample counts on
                 twice their grid points.
                 Their quantile is a scalar ``brentq`` per draw, which takes
                 most of the time here and none in mc-closed-form.
quadrature-deep  ``compare`` with ``method: quadrature``: two factors deep in
                 the tail (Weibull 700..3e5, the crossover window of the
                 remainder claim; lognormal at the critical boundary weights)
                 and three factors at one point.  No random draws: the time is
                 scalar ``quad`` callbacks and ``ConvolvedFactor`` interpolant
                 builds.  MC changes predict no change here.
analytic-dense   ``classify`` and ``expand`` on all nine shipped configs, and
                 ``evaluate`` with the ``report`` round trip on two dense
                 grids each: across the config's window, and from its top
                 three decades deeper, where the remainder claims are
                 asymptotic.  Two thirds of the operations are dense, so the
                 latency percentiles fall among them rather than at the edge
                 between a group of millisecond commands and one of slow ones.
                 Without it
                 ``expansion``, ``laplace``, ``hazard`` and the artifact
                 writers take under 1% of every other workload; it reads the
                 distributions through exact survival derivatives.

Compare operations run one grid point each: a shipped config with ``n``
points becomes ``n`` single-point configs.  Every oracle stream is keyed by
(seed, variable, block), so each point's estimate is the one the whole config
gives, while the latency percentiles get one sample per point.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import numpy as np

SHIPPED_SEED = 9
HELD_OUT_SEED = 424242
REFERENCE_SEEDS = (SHIPPED_SEED, HELD_OUT_SEED)

CLOSED_FORM = ("weibull_oracle_check", "weibull_third_order", "multiplicity_pair",
               "symmetric_moments", "lognormal_gate_above", "lognormal_gate_below",
               "lognormal_gate_boundary")
ALL_SHIPPED = tuple(sorted(CLOSED_FORM + ("cancellation_pair",
                                          "logweibull_second_order")))

# the root-finding configs run on twice the shipped grid points at sample
# counts cut from the shipped 20000, so that a pass takes seconds and still
# has 30 operations for the latency percentiles; the quantile cost per draw
# is what they measure
ROOT_FIND_GRID_FACTOR = 2
CANCELLATION_N = 2000
LOGWEIBULL_N = 50
DENSE_POINTS = 1000
DEEP_FACTOR = 1000.0

# the draws the shipped logweibull_second_order budget needs for compare:
# 20000 samples x 9 grid points x 31 truncated variables
SHIPPED_LOGWEIBULL_DRAWS = 20000 * 9 * 31


@dataclass(frozen=True)
class Op:
    id: str           # unique within the workload
    command: str
    config: str       # path handed to run_command
    out_dir: str
    source: str       # the shipped or generated config the op derives from


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    oracle_seed: int
    ops: tuple[Op, ...]
    setup_configs: tuple[str, ...]   # every config the workload loads and builds


WHY = {
    "mc-closed-form": "conditional-MC kernel on closed-form quantiles, plain MC beside it",
    "mc-root-find": "scalar brentq quantile per draw dominates (mixture tails)",
    "quadrature-deep": "pair and triple quadrature convolution, no random draws",
    "analytic-dense": "classify, expand, dense evaluate and report round trip, all writers",
}

NAMES = tuple(WHY)


def _write(path: str, doc: dict) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _shipped(root: str, name: str) -> dict:
    with open(os.path.join(root, "configs", name + ".json")) as fh:
        return json.load(fh)


def _grid(doc: dict) -> list[float]:
    g = doc["grid"]
    if g.get("spacing", "geometric") == "geometric":
        return [float(t) for t in np.geomspace(g["t_min"], g["t_max"], g["points"])]
    return [float(t) for t in np.linspace(g["t_min"], g["t_max"], g["points"])]


def _point_ops(name: str, doc: dict, seed: int, work: str) -> list[Op]:
    """One compare op per grid point of ``doc``, the oracle seed set to ``seed``."""
    ops = []
    for i, t in enumerate(_grid(doc)):
        point = json.loads(json.dumps(doc))
        point["grid"] = {"t_min": t, "t_max": t, "points": 1, "spacing": "geometric"}
        point.setdefault("oracle", {})["seed"] = seed
        op_id = f"{name}@{i}"
        path = _write(os.path.join(work, "configs", op_id + ".json"), point)
        ops.append(Op(op_id, "compare", path, os.path.join(work, "out", op_id), name))
    return ops


def _quadrature_doc(family: str, params: dict, weights: list[float], order: int,
                    t_min: float, t_max: float, points: int) -> dict:
    return {
        "distribution": {"family": family, "params": params},
        "weights": {"weights": weights, "delta": 0.5},
        "expansion": {"order": order},
        "grid": {"t_min": t_min, "t_max": t_max, "points": points,
                 "spacing": "geometric"},
        "oracle": {"method": "quadrature", "eps_trunc": 1e-9},
    }


def _mc_closed_form(root: str, seed: int, work: str) -> list[Op]:
    ops = []
    for name in CLOSED_FORM:
        ops += _point_ops(name, _shipped(root, name), seed, work)
    plain = _shipped(root, "weibull_oracle_check")
    plain["oracle"]["method"] = "plain_mc"
    ops += _point_ops("weibull_oracle_check_plain_mc", plain, seed, work)
    return ops


def _mc_root_find(root: str, seed: int, work: str) -> list[Op]:
    ops = []
    for name, n in (("cancellation_pair", CANCELLATION_N),
                    ("logweibull_second_order", LOGWEIBULL_N)):
        doc = _shipped(root, name)
        doc["oracle"]["n"] = n
        doc["grid"]["points"] *= ROOT_FIND_GRID_FACTOR
        ops += _point_ops(name, doc, seed, work)
    return ops


def _quadrature_deep(root: str, seed: int, work: str) -> list[Op]:
    boundary = _shipped(root, "lognormal_gate_boundary")["weights"]["weights"]
    docs = {
        "weibull_pair_deep": _quadrature_doc("weibull", {"a": 0.4}, [1.0, 0.5], 2,
                                             700.0, 3e5, 20),
        "lognormal_boundary_deep": _quadrature_doc("lognormal2", {"theta": 0.5},
                                                   boundary, 1, 50.0, 1e7, 10),
        "weibull_triple": _quadrature_doc("weibull", {"a": 0.4}, [1.0, 0.5, 0.25], 2,
                                          700.0, 700.0, 1),
    }
    ops = []
    for name, doc in docs.items():
        ops += _point_ops(name, doc, seed, work)
    return ops


def _analytic_dense(root: str, seed: int, work: str) -> list[Op]:
    ops = []
    for name in ALL_SHIPPED:
        shipped = os.path.join(root, "configs", name + ".json")
        out = os.path.join(work, "out", name)
        for command in ("classify", "expand"):
            ops.append(Op(f"{name}:{command}", command, shipped, out, name))
        doc = _shipped(root, name)
        t_max = doc["grid"]["t_max"]
        windows = {"window": (doc["grid"]["t_min"], t_max),
                   "deep": (t_max, DEEP_FACTOR * t_max)}
        for label, (lo, hi) in windows.items():
            doc["grid"] = {"t_min": lo, "t_max": hi, "points": DENSE_POINTS,
                           "spacing": "geometric"}
            path = _write(os.path.join(work, "configs", f"{name}-{label}.json"), doc)
            out = os.path.join(work, "out", f"{name}-{label}")
            ops.append(Op(f"{name}:evaluate-{label}", "evaluate", path, out, name))
            ops.append(Op(f"{name}:report-{label}", "report",
                          os.path.join(out, "report.json"), out, name))
    return ops


_BUILDERS = {
    "mc-closed-form": _mc_closed_form,
    "mc-root-find": _mc_root_find,
    "quadrature-deep": _quadrature_deep,
    "analytic-dense": _analytic_dense,
}


def oracle_seed_for(seed: int) -> int:
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def build(name: str, seed: int, root: str, work: str,
          oracle_seed: int | None = None) -> Workload:
    """Write the workload's configs under ``work`` and list its operations.

    The op order is shuffled from ``seed``; ops that read another op's output
    (``report`` reads ``evaluate``'s report.json) keep their relative order.
    """
    if oracle_seed is None:
        oracle_seed = oracle_seed_for(seed)
    ops = _BUILDERS[name](root, oracle_seed, work)
    groups: dict[str, list[Op]] = {}
    for op in ops:
        groups.setdefault(op.source if op.command != "compare" else op.id, []).append(op)
    keys = list(groups)
    random.Random(seed).shuffle(keys)
    ordered = tuple(op for k in keys for op in groups[k])
    setup = tuple(dict.fromkeys(op.config for op in ordered if op.command != "report"))
    return Workload(name=name, why=WHY[name], oracle_seed=oracle_seed, ops=ordered,
                    setup_configs=setup)
