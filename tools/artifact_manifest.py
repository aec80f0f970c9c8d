"""sha256 of every CLI artifact, as JSON on stdout; `--against REV` instead
exits 1 and names each artifact whose hash differs from those of REV's src/.

    python tools/artifact_manifest.py --against HEAD    # the byte gate of a change

Runs classify, expand, evaluate, oracle, compare, then report, on each
configs/*.json at its shipped budget; cancellation_pair, a signed mixture,
also under quadrature; weibull_oracle_check also with method plain_mc and
quadrature, with log_weibull(a = 1.5) under conditional_mc, under
quadrature and symmetric, and with a closed-form custom hazard, also under
quadrature, and symmetric with a negative weight: plain, under quadrature,
and log_weibull with alternating geometric tail weights, on a grid that
starts below the tail anchor, with weights [1, 0.5, 0.25] under quadrature
at the one point t = 700, and with weights [1, 0.5] continued by a
geometric tail of ratio 0.3, whose generated weights are not dyadic;
lognormal_gate_above also symmetric, with and without a negative weight;
lognormal_gate_below also symmetric, and at expansion order 2 with
weights [1, 0.5] continued by ratio 0.9, whose 12 generated classes lie
above the floor, and with weights [1, 0.25, 0.5] continued by ratio 0.5,
whose generated c_4 ties c_2; cancellation_pair also with those tied
weights at order 3, and with the subcritical custom hazard
t^-1 (log t)^0.5; lognormal_gate_boundary also under
quadrature, and its two scales on a grid that starts below the anchor;
multiplicity_pair also at expansion order 2; symmetric_moments also with
method plain_mc, the mirrored quantile over 31 variables, and at n = 300000
on two grid points, so its 31 rows' streamed draws cross a block edge, and
with generator ratio 0.9 at n = 20000, 219 rows of which most are past
their zero point over whole tiles; weibull_oracle_check also with the
command line's --order and --seed overrides.  A dense section runs evaluate, then report, on the
1000-point window and deep grids of each shipped config, built as the
benchmark's analytic-dense workload builds them.
Output goes to a temporary directory; no artifact records it.  The configs
and the workloads are this checkout's; --src names the lighttails source
tree to run, this checkout's src/ by default.  --against extracts REV's src/
with `git archive` and hashes it in a child process, beside this one.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import workloads  # noqa: E402

# per config: artifact-name suffix -> sections laid over the shipped ones, so
# every closed-form family runs one-sided and symmetric
LOGWEIBULL = {"family": "logweibull", "params": {"a": 1.5}}
QUADRATURE = {"method": "quadrature"}
# a Weibull-type power plus a critical-scale log power, both integrated in
# closed form, so the hazard and its derivatives sum terms with and without logs
CUSTOM = {"family": "custom",
          "params": {"terms": [[0.4, -0.6, 0.0], [0.1, -1.0, 1.0]], "rv_index": -0.6}}
# a subcritical custom hazard, t^-1 (log t)^0.5 in closed form: classify's
# array-read regime check and the subcritical expansion on a law without mixtures
CUSTOM_SUBCRITICAL = {"family": "custom", "params": {"terms": [[1.0, -1.0, 0.5]],
                                                     "rv_index": -1.0, "log_exponent": 0.5}}
# negative scales need a two-sided law: weights [1, -0.5], then (alternating)
# a geometric tail continuing the sign flip
SYMMETRIC = {"symmetric": True}
NEGATIVE = {"weights": [1.0, -0.5]}
ALTERNATING = {**NEGATIVE, "generator": {"type": "geometric", "ratio": -0.5, "from_index": 3}}
# a grid whose first point lies below the top scale's tail anchor (t0 = 2 for
# Weibull, e for the lognormal type), so a NaN row and its DomainError note
# reach evaluation.csv, report.json and compare.csv
BELOW_ANCHOR = {"t_min": 1.5}
# [1, 0.5] continued by ratio 0.9: at order 2 on the critical lognormal_gate_below
# the 12 generated classes 0.45 .. 0.141 lie above the floor e^-2, so the
# expansion reads generated weights and their residual power sums
GENERATED = {"weights": [1.0, 0.5], "generator": {"type": "geometric", "ratio": 0.9,
                                                  "from_index": 3}}
# [1, 0.25, 0.5] continued by ratio 0.5: the generated c_4 = 0.25 ties the head's
# c_2, so one class holds a head weight and a generated one
TIE = {"weights": [1.0, 0.25, 0.5], "generator": {"type": "geometric", "ratio": 0.5,
                                                  "from_index": 4}}
VARIANTS = {
    "weibull_oracle_check": {
        "": {},
        "+plain_mc": {"oracle": {"method": "plain_mc"}},
        "+quadrature": {"oracle": QUADRATURE},
        "+logweibull": {"distribution": LOGWEIBULL},
        "+logweibull+quadrature": {"distribution": LOGWEIBULL, "oracle": QUADRATURE},
        "+logweibull+symmetric": {"distribution": {**LOGWEIBULL, "symmetric": True}},
        "+custom": {"distribution": CUSTOM},
        "+custom+quadrature": {"distribution": CUSTOM, "oracle": QUADRATURE},
        "+symmetric+negative": {"distribution": SYMMETRIC, "weights": NEGATIVE},
        "+symmetric+negative+quadrature": {"distribution": SYMMETRIC, "weights": NEGATIVE,
                                           "oracle": QUADRATURE},
        "+logweibull+symmetric+alternating": {"distribution": {**LOGWEIBULL, **SYMMETRIC},
                                              "weights": ALTERNATING},
        "+below_anchor": {"grid": BELOW_ANCHOR},
        "+overrides": {},
        "+triple+quadrature": {"weights": {"weights": [1.0, 0.5, 0.25]}, "oracle": QUADRATURE,
                               "grid": {"t_min": 700.0, "t_max": 700.0, "points": 1}},
        "+geometric0.3": {"weights": {"generator": {"type": "geometric", "ratio": 0.3,
                                                    "from_index": 3}}},
    },
    "cancellation_pair": {"": {}, "+quadrature": {"oracle": QUADRATURE},
                          "+tie": {"weights": TIE, "expansion": {"order": 3}},
                          "+custom_subcritical": {"distribution": CUSTOM_SUBCRITICAL}},
    "lognormal_gate_above": {
        "": {},
        "+symmetric": {"distribution": SYMMETRIC},
        "+symmetric+negative": {"distribution": SYMMETRIC, "weights": NEGATIVE},
    },
    "lognormal_gate_below": {"": {}, "+symmetric": {"distribution": SYMMETRIC},
                             "+generated": {"weights": GENERATED, "expansion": {"order": 2},
                                            "oracle": {"n": 20000}},
                             "+tie": {"weights": TIE, "expansion": {"order": 2}}},
    "lognormal_gate_boundary": {"": {}, "+quadrature": {"oracle": QUADRATURE},
                                "+below_anchor": {"grid": BELOW_ANCHOR}},
    "multiplicity_pair": {"": {}, "+order2": {"expansion": {"order": 2}}},
    "symmetric_moments": {"": {}, "+plain_mc": {"oracle": {"method": "plain_mc"}},
                          "+two_blocks": {"oracle": {"n": 300000}, "grid": {"points": 2}},
                          "+ratio0.9": {"weights": {"generator": {"type": "geometric",
                                                                  "ratio": 0.9,
                                                                  "from_index": 2}},
                                        "oracle": {"n": 20000}}},
}
# run_command keywords per variant, as --order and --seed pass them, so that
# report.json's order_override and the oracle's seed override are hashed
OVERRIDES = {"weibull_oracle_check+overrides": {"order_override": 1, "seed_override": 3}}


def _hash_dir(out: dict, name: str, out_dir: str):
    for art in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, art), "rb") as fh:
            out[f"{name}/{art}"] = hashlib.sha256(fh.read()).hexdigest()


def dense_manifest(work: str) -> dict:
    """evaluation.csv, report.json and report_verified.json of each dense grid."""
    out = {}
    ops = workloads.build("analytic-dense", 0, ROOT, work).ops
    for op in ops:
        if op.command in ("evaluate", "report"):
            config.run_command(op.command, op.config, op.out_dir)
    for op in ops:
        if op.command == "report":
            _hash_dir(out, "dense/" + os.path.basename(op.out_dir), op.out_dir)
    return out


def manifest(work: str) -> dict:
    out = dense_manifest(os.path.join(work, "dense"))
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
            _hash_dir(out, name, out_dir)
    return out


def _start_child(rev: str, tmp: str) -> subprocess.Popen:
    """This script, hashing REV's src/ extracted under tmp, with its manifest
    on the child's stdout."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(tmp, filter="data")
    return subprocess.Popen([sys.executable, os.path.abspath(__file__),
                             "--src", os.path.join(tmp, "src")], stdout=subprocess.PIPE)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REV")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), metavar="DIR")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from lighttails import config  # the functions above read this module global
    with tempfile.TemporaryDirectory() as rev_src, tempfile.TemporaryDirectory() as work:
        if not args.against:
            print(json.dumps(manifest(work), indent=2, sort_keys=True))
            sys.exit(0)
        with _start_child(args.against, rev_src) as child:  # waits for it on exit
            got = manifest(work)
            stdout = child.stdout.read()
    if child.returncode:
        sys.exit(f"hashing {args.against} failed")
    old = json.loads(stdout)
    bad = sorted(k for k in old.keys() | got.keys() if old.get(k) != got.get(k))
    for k in bad:
        print(f"differs: {k}", file=sys.stderr)
    print(f"{len(got)} artifacts, {len(bad)} differ", file=sys.stderr)
    sys.exit(1 if bad else 0)
