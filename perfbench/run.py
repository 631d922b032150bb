"""walklab benchmark: one workload, end to end or traced layer by layer.

    python3 perfbench/run.py --workload train-cv --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics from a separate, traced run. Details of every run
(machine, per-call timings, checks) go to ``.perfbench/`` at the root of
the checkout. See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
# Two passes at least: train-cv compares results.csv between repeats, and
# a traced run needs one untraced pass to measure its own overhead.
MIN_PASSES = 2
# Time of the reference kernel on the nominal host that ops_per_s is
# expressed for (about its time on a 2-core x86-64 cloud VM, Python 3.11).
REFERENCE_NOMINAL_S = 0.005
IMPORT_PROBE = ("import time; t = time.perf_counter(); import walklab.cli; "
                "print(time.perf_counter() - t)")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _machine(nproc: int) -> dict:
    import numpy
    import scipy

    info = {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    return info


def _import_seconds() -> float:
    """Import time of the program in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=os.environ,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children count too, so a process pool
    # in the program shows up.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Reference:
    """A fixed piece of pure-Python work that uses nothing from walklab.

    On shared virtual machines a core's speed drifts by up to 2x over tens
    of seconds. The kernel is timed just before and just after every call,
    and the call's time is divided by the mean of the two, which cancels
    most of that drift. The garbage collector is off while it runs, so the
    program's heap does not change its cost.
    """

    def __init__(self):
        rng = random.Random(0)
        self.labels = [rng.randrange(50) for _ in range(1000)]

    def seconds(self) -> float:
        labels = self.labels
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(8):
                sorted(tuple(sorted(labels[i:i + 4])) for i in range(0, len(labels), 2))
                {v: i for i, v in enumerate(labels)}
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


class Tally:
    """Ops attempted and failed, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def run_pass(calls, tally: Tally, ref: Reference, tracer=None) -> dict[str, list[float]]:
    """Run each call once and check it.

    Returns, per call key, the call's seconds and the reference kernel's
    seconds just before and just after it. Only the program call is timed;
    checking happens after the clock stops. An exception or failed check
    is recorded and the pass goes on.
    """
    times = {}
    refs = [ref.seconds()]
    for call in calls:
        tally.attempted += call.ops
        t0 = time.perf_counter()
        try:
            result = tracer.call(call.span, call.run) if tracer else call.run()
        except Exception:  # the program's failure is a measured outcome
            times[call.key] = [time.perf_counter() - t0]
            refs.append(ref.seconds())
            tally.failed += call.ops
            tally.errors.append(f"{call.key}: {traceback.format_exc(limit=3)}")
            continue
        times[call.key] = [time.perf_counter() - t0]
        refs.append(ref.seconds())
        out = call.check(result)
        tally.failed += min(out.failed, call.ops)
        tally.errors.extend(out.errors)
        if tracer is not None:
            tracer.counts.update(out.counts)
    for sample, before, after in zip(times.values(), refs, refs[1:]):
        sample += [before, after]
    return times


def median_pass(samples, host_corrected: bool) -> float:
    """A pass's duration as the sum over calls of each call's median time,
    so a slow burst in one call of one pass does not move the result.

    Host-corrected times scale each call by the nominal reference time
    over the mean of the reference times measured around it.
    """
    def seconds(sample):
        t, before, after = sample
        return t * REFERENCE_NOMINAL_S / ((before + after) / 2) if host_corrected else t

    return sum(statistics.median(seconds(s[key]) for s in samples) for key in samples[0])


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "walklab" / "__init__.py").is_file():
        print(f"error: no walklab sources in {SRC}", file=sys.stderr)
        return 2
    # Cap BLAS threads at the usable cores before numpy is first imported,
    # here and in the import probe.
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        return _run(args, trace, nproc, work, WORKLOADS[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, trace, nproc, work, workload_cls) -> int:
    machine = _machine(nproc)
    import_s = [] if trace else [_import_seconds() for _ in range(IMPORT_REPEATS)]
    import walklab.cli  # noqa: F401  (in-process import after the probe)

    workload = workload_cls(args.seed, work)
    setup_tracer = tracing.Tracer()
    prep_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if trace:
            with tracing.Hooks(setup_tracer):
                workload.prepare(setup_tracer.call)
        else:
            workload.prepare(lambda _span, fn, *a, **k: fn(*a, **k))
        prep_s.append(time.perf_counter() - t0)
    tally = Tally()
    tally.errors.extend(workload.check_setup())
    workload.make_inputs(trace)

    ref = Reference()
    run_pass(workload.warm_up_calls(), tally, ref)
    pass_tracer = tracing.Tracer()
    samples: dict[bool, list] = {False: [], True: []}
    start = time.perf_counter()
    while len(samples[False]) + len(samples[True]) < MIN_PASSES \
            or time.perf_counter() - start < args.seconds:
        traced = trace and len(samples[False]) > len(samples[True])
        if traced:
            with tracing.Hooks(pass_tracer):
                samples[True].append(run_pass(workload.calls(), tally, ref, pass_tracer))
        else:
            samples[False].append(run_pass(workload.calls(), tally, ref))
    info = workload.finish()

    pass_s = median_pass(samples[False], host_corrected=True)
    wall_pass_s = median_pass(samples[False], host_corrected=False)
    ops_per_pass = sum(c.ops for c in workload.calls())
    info["ops_per_s_wall"] = ops_per_pass / wall_pass_s
    info["reference_s"] = statistics.median(
        r for s in samples[False] for sample in s.values() for r in sample[1:])
    for unit, amount in workload.units().items():
        info[f"{unit}_per_s"] = amount / pass_s
    if trace:
        metrics = tracing.per_layer_metrics(setup_tracer, SETUP_REPEATS,
                                            pass_tracer, len(samples[True]))
        overhead = median_pass(samples[True], host_corrected=False) - wall_pass_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(import_s) + statistics.median(prep_s),
                        "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            "ops_per_s": {"value": ops_per_pass / pass_s, "unit": "1/s"},
            "ops_ok_frac": {"value": 1.0 - tally.failed / tally.attempted, "unit": "ratio"},
        }
    correct = tally.failed == 0 and not tally.errors
    tag = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": trace,
        "machine": machine, "import_s": import_s, "prepare_s": prep_s,
        "passes": {"untraced": samples[False], "traced": samples[True]},
        "info": info, "errors": tally.errors, "metrics": metrics,
    }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    if trace:
        tracing.write_trace(OUT / f"{tag}.spans.jsonl.gz",
                            {"workload": args.workload, "seed": args.seed, "machine": machine},
                            {"setup": setup_tracer, "passes": pass_tracer})

    print(f"# machine: {json.dumps(machine)}")
    print(f"# passes: {len(samples[False])} untraced, {len(samples[True])} traced;"
          f" details in {OUT.name}/{tag}.json")
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for err in tally.errors[:20]:
        print("# error: " + err.strip().replace("\n", " | "))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
