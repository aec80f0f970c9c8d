"""Correctness references: what each operation must produce.

``observe`` reads what one operation left behind and reduces it to the
values the reference pins:

* ``compare`` ops: every column of ``compare.csv``, kept by name as the
  exact strings written, and (in traced passes, where the oracle's return
  value is seen) ``p_hat``, ``std_err`` and ``truncation_n`` of each estimate;
* ``classify``/``expand``/``evaluate``/``report`` ops: the sha256 of each
  artifact.  ``report_verified.json`` records the absolute path of the report
  it read, so its digest is taken with that field reduced to the file name.

``mismatches`` compares an observation with its reference.  Numbers agree
when within 1e-9 relative (NaN matches NaN); ``passed`` and
``cancellation_flag`` must be equal; digests must be equal.  Only the
reference's columns are looked up, so a column the program adds later is not
a mismatch, while a column it drops is.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REL_TOL = 1e-9
EXACT_COLUMNS = ("passed", "cancellation_flag")
ARTIFACTS = {
    "classify": ("classify.json",),
    "expand": ("expansion.json",),
    "evaluate": ("evaluation.csv", "report.json"),
    "report": ("report_verified.json",),
}
ESTIMATE_FIELDS = ("p_hat", "std_err", "truncation_n")

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "references.json")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "report_verified.json":
        doc = json.loads(data)
        doc["source"] = os.path.basename(doc["source"])
        data = json.dumps(doc, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _columns(path: str) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[k] for row in body] for k, name in enumerate(header)}


def observe(command: str, out_dir: str, estimates=None) -> dict:
    if command == "compare":
        obs = {"columns": _columns(os.path.join(out_dir, "compare.csv"))}
        if estimates is not None:
            obs["estimates"] = [{k: e[k] for k in ESTIMATE_FIELDS} for e in estimates]
        return obs
    return {"sha256": {name: _digest(os.path.join(out_dir, name))
                       for name in ARTIFACTS[command]}}


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


def mismatches(observed: dict, reference: dict) -> list[str]:
    out = []
    for name, digest in reference.get("sha256", {}).items():
        if observed.get("sha256", {}).get(name) != digest:
            out.append(f"{name}: sha256 differs")
    got_cols = observed.get("columns", {})
    for name, ref_vals in reference.get("columns", {}).items():
        vals = got_cols.get(name)
        if vals is None:
            out.append(f"column {name} missing")
        elif len(vals) != len(ref_vals):
            out.append(f"column {name}: {len(vals)} rows, reference {len(ref_vals)}")
        elif name in EXACT_COLUMNS:
            if vals != ref_vals:
                out.append(f"column {name}: {vals} != reference {ref_vals}")
        elif not all(close(float(v), float(r)) for v, r in zip(vals, ref_vals)):
            out.append(f"column {name}: {vals} != reference {ref_vals}")
    # estimates are seen only in traced passes
    if "estimates" in observed and "estimates" in reference:
        got, ref = observed["estimates"], reference["estimates"]
        if len(got) != len(ref):
            out.append(f"{len(got)} estimates, reference {len(ref)}")
        for g, r in zip(got, ref):
            if g["truncation_n"] != r["truncation_n"]:
                out.append(f"truncation_n {g['truncation_n']} != reference "
                           f"{r['truncation_n']}")
            for key in ("p_hat", "std_err"):
                if not close(g[key], r[key]):
                    out.append(f"{key} {g[key]!r} != reference {r[key]!r}")
    return out


def load_references(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)
