"""Benchmark of the lighttails expansion-and-oracle pipeline.

    python3 bench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root.  One run is one fresh process on one workload
(see ``workloads.py`` for the four and why each exists).  It makes passes
over the workload's operations, in an order shuffled from the seed, while
the next pass fits in S seconds of wall clock, and at least one (two with
``--trace 1``).  Every operation is ``config.run_command`` -- the CLI's own
code path, artifacts included -- and is checked against ``references.json``;
an operation fails when it raises, passes its deadline, or misses its
reference.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s``, the
median over fresh interpreters of importing lighttails and loading,
validating and building every config of the workload; ``wall_s``, one pass;
``op_p50_s`` and ``op_tail_s``, the latency of one operation (median, and the
highest percentile with at least ten samples beyond it, over the workload's
operations, each taken as its median over the passes); ``peak_rss_mb``.
Failures are counted in the result's ``attempted``/``failed``.

Operation times are reported in reference seconds.  The cores of a shared
machine change speed by up to a factor of two over tens of seconds as other
tenants load them, which no amount of repetition inside a 20 s run averages
out.  So every operation is bracketed by a fixed probe kernel
(``SpeedProbe``: interpreter arithmetic and a numpy sort, independent of
lighttails), also run every quarter second of CPU time inside it, and
scaled by ``C_REF_S`` over the mean of those probe times: the result is the
time the operation would take on a core where the probe takes ``C_REF_S``.
The raw wall-clock figures are kept in the run's record and printed beside.

With ``--trace 1`` untraced and traced passes alternate; the traced passes
record spans at every layer boundary (``tracing.py``) and the run reports
the per-layer metrics, plus ``trace.overhead_frac``, the traced pass time
over the untraced one, minus one.

The last line of standard output is the result as one JSON object.  Numpy,
BLAS and OpenMP run single-threaded; LIGHTTAILS_THREADS is unset, so the
oracles use one thread.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LIGHTTAILS_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_REPEATS = 3
# the probe's time on an uncontended core of the 2-core Xeon the benchmark was
# defined on: about the 3rd percentile of 5000 probe times there
C_REF_S = 0.0017
TICK_CPU_S = 0.25
OP_DEADLINE_S = 60.0
RUN_BUDGET_S = 150.0   # no operation starts after this; the run ends well within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# run in a fresh interpreter: argv[1] is the monotonic clock at spawn, the
# rest are the workload's configs
SETUP_CODE = """
import sys, time
spawned = float(sys.argv[1])
import lighttails
from lighttails import config
for path in sys.argv[2:]:
    doc = config.load_config(path)
    dist = config.build_distribution(doc)
    config.build_weights(doc, dist)
    config.build_grid(doc)
    config.build_budget(doc)
print(time.clock_gettime(time.CLOCK_MONOTONIC) - spawned)
"""


class DeadlineExceeded(BaseException):
    """Raised into an operation that ran past its deadline.

    A BaseException, so that no ``except Exception`` in the library swallows it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline(seconds: float):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def environment() -> dict:
    import numpy
    import scipy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "lighttails")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


class SpeedProbe:
    """A fixed few milliseconds of interpreter and numpy work.

    Its time tracks how fast the core currently runs; it calls nothing in
    lighttails, so no change to the library moves it.  Inside ``sampling()``
    it also runs every ``TICK_CPU_S`` of process CPU time, from a SIGPROF
    handler, so that an operation lasting seconds is scaled by the speed
    during it, not only at its ends.
    """

    def __init__(self):
        import numpy as np
        self._sort = np.sort
        self._data = np.random.default_rng(0).random(20000)
        self._during: list[float] = []
        self.last = self()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += math.sqrt(i)
        self._sort(self._data)
        return time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        def tick(signum, frame):
            self._during.append(self())
        previous = signal.signal(signal.SIGPROF, tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_CPU_S, TICK_CPU_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def scale(self, seconds: float) -> tuple[float, float]:
        """(reference, raw) seconds of an interval of ``seconds`` measured since
        the previous call, raw meaning without the probes run inside it."""
        during, self._during = self._during, []
        before, self.last = self.last, self()
        raw = seconds - sum(during)
        return raw * C_REF_S / statistics.mean([before, *during, self.last]), raw


def setup_once(configs) -> float:
    """Seconds from spawning a fresh interpreter until it has every config built.

    Wall clock, not reference seconds: the child may run on another core than
    the probe, and over ten runs the probe widened this figure's spread.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, repr(spawned), *configs],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """(value, percentile level) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Tally:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, op_id: str, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{op_id}: {why}")


def run_pass(wl, references, tally: Tally, started: float, probe: SpeedProbe,
             tracer=None):
    """One pass over the workload's operations.

    Returns each operation's time in reference seconds and in raw seconds, or
    None when the run's budget ran out before the pass finished.
    """
    import checks
    from lighttails import config
    times, raw = {}, {}
    probe.scale(0.0)
    for op in wl.ops:
        remaining = RUN_BUDGET_S - (time.perf_counter() - started)
        if remaining <= 0:
            return None
        tally.attempted += 1
        first = 0
        if tracer is not None:
            tracer.op = op.id
            first = len(tracer.spans)
        t0 = time.perf_counter()
        try:
            with deadline(min(OP_DEADLINE_S, remaining)), probe.sampling():
                config.run_command(op.command, op.config, op.out_dir)
        except (DeadlineExceeded, Exception) as exc:
            tally.fail(op.id, f"{type(exc).__name__}: {exc}")
            continue
        finally:
            times[op.id], raw[op.id] = probe.scale(time.perf_counter() - t0)
        estimates = tracer.estimates(first) if tracer is not None else None
        miss = checks.mismatches(checks.observe(op.command, op.out_dir, estimates),
                                 references[op.id])
        if miss:
            tally.fail(op.id, "; ".join(miss))
    return times, raw


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "lighttails", "__init__.py")) or \
            not os.path.isdir(os.path.join(ROOT, "configs")):
        print(f"error: no lighttails sources under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import tracing
    import workloads

    work = os.path.join(WORK, f"{name}-s{seed}-p{os.getpid()}")
    try:
        wl = workloads.build(name, seed, ROOT, work)
        references = checks.load_references()["workloads"][name][str(wl.oracle_seed)]
        setup = [] if trace else [setup_once(wl.setup_configs)
                                  for _ in range(SETUP_REPEATS)]
        probe = SpeedProbe()
        tally = Tally()
        untraced, traced, tracers = [], [], []
        measuring, last = time.perf_counter(), 0.0
        while (len(untraced) + len(traced) < (2 if trace else 1)
               or time.perf_counter() - measuring + last <= seconds):
            tracer = tracing.Tracer() if trace and len(untraced) > len(traced) else None
            t0 = time.perf_counter()
            with tracing.instrument(tracer) if tracer else nullcontext():
                done = run_pass(wl, references, tally, started, probe, tracer)
            last = time.perf_counter() - t0
            if done is None:
                break
            (traced if tracer else untraced).append(done)
            if tracer:
                tracers.append(tracer)
        if not untraced or (trace and not traced):
            print(f"error: no complete pass within {RUN_BUDGET_S} s", file=sys.stderr)
            return 1

        def latency(k):
            """wall_s, op_p50_s, op_tail_s over the untraced passes; k = 0
            reference seconds, 1 raw seconds.  Each operation contributes one
            latency sample, its median over the passes."""
            samples = [statistics.median(p[k][op.id] for p in untraced) for op in wl.ops]
            value, level = tail(samples)
            return ({"wall_s": statistics.median(sum(p[k].values()) for p in untraced),
                     "op_p50_s": statistics.median(samples), "op_tail_s": value},
                    level, len(samples))

        (ref, tail_level, n_samples), (raw, _, _) = latency(0), latency(1)
        if trace:
            source_of = {op.id: op.source for op in wl.ops}
            layers = [tracing.layer_metrics(t.spans, source_of,
                                            workloads.SHIPPED_LOGWEIBULL_DRAWS)
                      for t in tracers]
            metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
            metrics["trace.overhead_frac"] = (
                statistics.median(sum(p[0].values()) for p in traced) / ref["wall_s"] - 1.0)
            units = tracing.LAYER_UNITS
        else:
            metrics = {"setup_s": statistics.median(setup), **ref,
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0}
            units = END_TO_END_UNITS
        fail_frac = tally.failed / tally.attempted
        env = environment()
        record = {
            "workload": name, "why": wl.why, "seed": seed, "oracle_seed": wl.oracle_seed,
            "seconds": seconds, "trace": int(trace), "ops_per_pass": len(wl.ops),
            "environment": env, "attempted": tally.attempted, "failed": tally.failed,
            "fail_frac": fail_frac, "problems": tally.problems, "metrics": metrics,
            "raw_wall_clock": raw, "op_tail_level": tail_level, "op_samples": n_samples,
            "setup_runs_s": setup,
            "passes": [{"traced": bool(i), "reference_s": p[0], "raw_s": p[1]}
                       for i, group in enumerate((untraced, traced)) for p in group],
        }
        print(f"workload {name}: {wl.why}")
        print(f"seed {seed} (oracle seed {wl.oracle_seed}), {len(untraced)} untraced"
              f" + {len(traced)} traced passes of {len(wl.ops)} operations")
        print("environment " + json.dumps(env, sort_keys=True))
        for key, value in metrics.items():
            line = f"  {key:<52} {value:>16.6g} {units[key]}"
            if key in raw:
                line += f"  (wall clock {raw[key]:.6g} s)"
            print(line)
        print(f"  {'fail_frac':<52} {fail_frac:>16.6g} ratio"
              f"  ({tally.failed} of {tally.attempted} operations)")
        if not trace:
            print(f"  op_tail_s is the p{tail_level:.1f} latency over {n_samples} samples")
        for line in tally.problems[:20]:
            print("  FAILED " + line, file=sys.stderr)
        os.makedirs(WORK, exist_ok=True)
        stem = os.path.join(WORK, f"{name}-s{seed}-trace{int(trace)}")
        with open(stem + ".result.json", "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
        if trace:
            tracing.write_spans(stem + ".spans.jsonl.gz", tracers)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own fresh process; prints a table of all metrics."""
    import workloads
    rows, totals = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, cwd=ROOT, timeout=300)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            totals["metrics"][f"{name}.{key}"] = m
            rows.append((name, key, m["value"], m["unit"]))
        rows.append((name, "fail_frac", result["failed"] / result["attempted"], "ratio"))
    print()
    for name, key, value, unit in rows:
        print(f"{name:<16} {key:<52} {value:>16.6g} {unit}")
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
