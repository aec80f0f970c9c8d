"""sha256 of every CLI artifact, as JSON on stdout; `--check OLD.json` instead
exits 1 and names each artifact whose hash differs from OLD.json.

Runs classify, expand, evaluate, oracle, compare, then report, on each
configs/*.json at its shipped budget; weibull_oracle_check also with method
plain_mc and quadrature, with log_weibull(a = 1.5) under conditional_mc,
under quadrature and symmetric, and with a closed-form custom hazard, and
symmetric with a negative weight: plain, under quadrature, and log_weibull
with alternating geometric tail weights, and on a grid that starts below the
tail anchor; lognormal_gate_above also symmetric, with and without a negative
weight; lognormal_gate_below also symmetric; lognormal_gate_boundary also
under quadrature, and its two scales on a grid that starts below the anchor;
multiplicity_pair also at expansion order 2; symmetric_moments also with
method plain_mc, the mirrored quantile over 31 variables; weibull_oracle_check
also with the command line's --order and --seed overrides.  Output goes to a
temporary directory; no artifact records it.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from lighttails import config  # noqa: E402

# per config: artifact-name suffix -> sections laid over the shipped ones, so
# every closed-form family runs one-sided and symmetric
LOGWEIBULL = {"family": "logweibull", "params": {"a": 1.5}}
QUADRATURE = {"method": "quadrature"}
# a Weibull-type power plus a critical-scale log power, both integrated in
# closed form, so the hazard and its derivatives sum terms with and without logs
CUSTOM = {"family": "custom",
          "params": {"terms": [[0.4, -0.6, 0.0], [0.1, -1.0, 1.0]], "rv_index": -0.6}}
# negative scales need a two-sided law: weights [1, -0.5], then (alternating)
# a geometric tail continuing the sign flip
SYMMETRIC = {"symmetric": True}
NEGATIVE = {"weights": [1.0, -0.5]}
ALTERNATING = {**NEGATIVE, "generator": {"type": "geometric", "ratio": -0.5, "from_index": 3}}
# a grid whose first point lies below the top scale's tail anchor (t0 = 2 for
# Weibull, e for the lognormal type), so a NaN row and its DomainError note
# reach evaluation.csv, report.json and compare.csv
BELOW_ANCHOR = {"t_min": 1.5}
VARIANTS = {
    "weibull_oracle_check": {
        "": {},
        "+plain_mc": {"oracle": {"method": "plain_mc"}},
        "+quadrature": {"oracle": QUADRATURE},
        "+logweibull": {"distribution": LOGWEIBULL},
        "+logweibull+quadrature": {"distribution": LOGWEIBULL, "oracle": QUADRATURE},
        "+logweibull+symmetric": {"distribution": {**LOGWEIBULL, "symmetric": True}},
        "+custom": {"distribution": CUSTOM},
        "+symmetric+negative": {"distribution": SYMMETRIC, "weights": NEGATIVE},
        "+symmetric+negative+quadrature": {"distribution": SYMMETRIC, "weights": NEGATIVE,
                                           "oracle": QUADRATURE},
        "+logweibull+symmetric+alternating": {"distribution": {**LOGWEIBULL, **SYMMETRIC},
                                              "weights": ALTERNATING},
        "+below_anchor": {"grid": BELOW_ANCHOR},
        "+overrides": {},
    },
    "lognormal_gate_above": {
        "": {},
        "+symmetric": {"distribution": SYMMETRIC},
        "+symmetric+negative": {"distribution": SYMMETRIC, "weights": NEGATIVE},
    },
    "lognormal_gate_below": {"": {}, "+symmetric": {"distribution": SYMMETRIC}},
    "lognormal_gate_boundary": {"": {}, "+quadrature": {"oracle": QUADRATURE},
                                "+below_anchor": {"grid": BELOW_ANCHOR}},
    "multiplicity_pair": {"": {}, "+order2": {"expansion": {"order": 2}}},
    "symmetric_moments": {"": {}, "+plain_mc": {"oracle": {"method": "plain_mc"}}},
}
# run_command keywords per variant, as --order and --seed pass them, so that
# report.json's order_override and the oracle's seed override are hashed
OVERRIDES = {"weibull_oracle_check+overrides": {"order_override": 1, "seed_override": 3}}


def manifest(work: str) -> dict:
    out = {}
    for fn in sorted(os.listdir(os.path.join(ROOT, "configs"))):
        with open(os.path.join(ROOT, "configs", fn)) as fh:
            doc = json.load(fh)
        for suffix, patch in VARIANTS.get(fn[:-5], {"": {}}).items():
            name = fn[:-5] + suffix
            path, out_dir = os.path.join(work, name + ".json"), os.path.join(work, name)
            with open(path, "w") as fh:
                json.dump({**doc, **{key: {**doc.get(key, {}), **section}
                                     for key, section in patch.items()}}, fh)
            for command in ("classify", "expand", "evaluate", "oracle", "compare"):
                config.run_command(command, path, out_dir, **OVERRIDES.get(name, {}))
            config.run_command("report", os.path.join(out_dir, "report.json"), out_dir)
            for art in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, art), "rb") as fh:
                    out[f"{name}/{art}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", metavar="OLD.json")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as work:
        got = manifest(work)
    if args.check:
        with open(args.check) as fh:
            old = json.load(fh)
        bad = sorted(k for k in old.keys() | got.keys() if old.get(k) != got.get(k))
        for k in bad:
            print(f"differs: {k}", file=sys.stderr)
        print(f"{len(got)} artifacts, {len(bad)} differ", file=sys.stderr)
        sys.exit(1 if bad else 0)
    print(json.dumps(got, indent=2, sort_keys=True))
