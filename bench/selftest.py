"""Show that the reference check catches a perturbed reference.

    python3 bench/selftest.py

Run from the repository root.  It runs two cheap operations for real -- one
conditional-MC ``compare`` point (traced, so the oracle estimate is seen) and
one dense ``evaluate`` -- and checks each against its stored reference and
against perturbed copies of it.  Exit status 0 means every case came out as
stated: the stored reference matches, each perturbation beyond the tolerance
is caught, a perturbation inside it is not, and a column the program adds is
not a mismatch.
"""

import copy
import os
import shutil
import sys

import run  # sets the single-thread environment before numpy loads

sys.path.insert(0, run.SRC)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lighttails import config  # noqa: E402


def _scaled(values, factor):
    return [repr(float(v) * factor) for v in values]


def _observe(workload: str, op_id: str, work: str) -> tuple[dict, dict]:
    seed = workloads.SHIPPED_SEED
    wl = workloads.build(workload, 0, run.ROOT, work, oracle_seed=seed)
    ops = {op.id: op for op in wl.ops}
    needed = [ops[op_id]]
    if needed[0].command == "report":
        needed.insert(0, ops[op_id.replace(":report", ":evaluate")])
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for op in needed:
            tracer.op = op.id
            config.run_command(op.command, op.config, op.out_dir)
    op = needed[-1]
    estimates = tracer.estimates() if op.command == "compare" else None
    reference = checks.load_references()["workloads"][workload][str(seed)][op_id]
    return checks.observe(op.command, op.out_dir, estimates), reference


def _compare_cases(obs: dict, ref: dict):
    def with_ref(edit):
        r = copy.deepcopy(ref)
        edit(r)
        return obs, r

    def with_obs(edit):
        o = copy.deepcopy(obs)
        edit(o)
        return o, ref

    cols = "columns"
    yield "stored reference", True, (obs, ref)
    yield "oracle_p off by 1e-8 relative", False, with_ref(
        lambda r: r[cols].__setitem__("oracle_p", _scaled(r[cols]["oracle_p"], 1 + 1e-8)))
    yield "oracle_p off by 1e-11 relative (inside 1e-9)", True, with_ref(
        lambda r: r[cols].__setitem__("oracle_p", _scaled(r[cols]["oracle_p"], 1 + 1e-11)))
    yield "passed verdict flipped", False, with_ref(
        lambda r: r[cols].__setitem__("passed", ["1" if v == "0" else "0"
                                                 for v in r[cols]["passed"]]))
    yield "reference column missing from the output", False, with_obs(
        lambda o: o[cols].pop("oracle_stderr"))
    yield "output gains a column", True, with_obs(
        lambda o: o[cols].__setitem__("verdict", ["pass"]))
    def bump(key, change):
        return lambda r: r["estimates"][0].__setitem__(key, change(r["estimates"][0][key]))

    yield "estimate std_err off by 1e-6 relative", False, with_ref(
        bump("std_err", lambda v: v * (1 + 1e-6)))
    yield "estimate truncation_n off by one", False, with_ref(
        bump("truncation_n", lambda v: v + 1))


def _artifact_cases(obs: dict, ref: dict):
    yield "stored digests", True, (obs, ref)
    for name in ref["sha256"]:
        r = copy.deepcopy(ref)
        r["sha256"][name] = "0" * 64
        yield f"{name} digest changed", False, (obs, r)


def main() -> int:
    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    failures = 0
    try:
        cases = []
        obs, ref = _observe("mc-closed-form", "lognormal_gate_above@3", work)
        cases += list(_compare_cases(obs, ref))
        for op_id in ("multiplicity_pair:evaluate-window", "multiplicity_pair:report-window"):
            obs, ref = _observe("analytic-dense", op_id, work)
            cases += [(f"{op_id}: {label}", ok, pair)
                      for label, ok, pair in _artifact_cases(obs, ref)]
        for label, should_match, (o, r) in cases:
            found = checks.mismatches(o, r)
            right = (not found) == should_match
            failures += not right
            verdict = "matches" if not found else "caught: " + "; ".join(found)
            print(f"{'ok  ' if right else 'FAIL'} {label}: {verdict}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(cases) - failures} of {len(cases)} cases as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
