"""Write references.json: what every operation of every workload produces.

    python3 bench/make_references.py

Run from the repository root, on the commit whose outputs are to be pinned.
Each workload is built for each of ``workloads.REFERENCE_SEEDS`` and every
operation runs once, traced so that the oracle estimates are seen; what
``checks.observe`` reads from its artifacts becomes its reference.
"""

import json
import os
import shutil
import sys

import run  # sets the single-thread environment before numpy loads

sys.path.insert(0, run.SRC)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lighttails import config  # noqa: E402


def main() -> int:
    out = {"rel_tol": checks.REL_TOL, "workloads": {}}
    for name in workloads.NAMES:
        for seed in workloads.REFERENCE_SEEDS:
            work = os.path.join(run.WORK, f"references-{name}-{seed}")
            try:
                wl = workloads.build(name, 0, run.ROOT, work, oracle_seed=seed)
                refs = out["workloads"].setdefault(name, {}).setdefault(str(seed), {})
                tracer = tracing.Tracer()
                with tracing.instrument(tracer):
                    for op in wl.ops:
                        tracer.op = op.id
                        first = len(tracer.spans)
                        config.run_command(op.command, op.config, op.out_dir)
                        estimates = tracer.estimates(first) if op.command == "compare" else None
                        refs[op.id] = checks.observe(op.command, op.out_dir, estimates)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} oracle seed {seed}: {len(wl.ops)} operations", flush=True)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
