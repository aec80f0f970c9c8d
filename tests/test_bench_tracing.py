"""The benchmark's tracer (bench/tracing.py) patches library functions and
methods by name, where it expects them to live: each must be found there,
and each must be put back when the traced block ends."""

import importlib.util
import os

import numpy as np

import lighttails as lt
from lighttails import config

TRACING = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_restores_every_patched_attribute():
    tracing = _load_tracing()
    targets = [(owner, attr) for owner, attr, *_ in tracing._TARGETS]
    targets.append((config, "build_distribution"))
    # a target that moved off its owner is a KeyError here, not in a bench run
    before = [owner.__dict__[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        during = [owner.__dict__[attr] for owner, attr in targets]
        d = lt.weibull_type(0.4)
        for c in (1.0, -0.5):
            lt.ScaledFactor(d, c).sf_batch(np.array([3.0, 30.0]))
    after = [owner.__dict__[attr] for owner, attr in targets]
    assert all(w is not b for w, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
    # a scaled survival still lands in the spans the per-layer figures read
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names == ["distributions.sf_batch", "distributions.cdf_batch"]
