"""The dopplertrack benchmark: one command, every metric by name and unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eva-batch --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json: units
of the workload are repeated until ``--seconds`` have passed, each
unit's outputs are checked, and rates are medians over units. Only
``tracker.step`` is timed, by a thin wrapper. ``setup_s`` is the median
wall time of five fresh interpreters running ``setup_probe.py``.
Outputs of the pinned seed are compared with ``perfbench/reference/``;
other seeds are checked for invariants, and every unit of a run must
reproduce the first one byte for byte.

``--trace 1`` runs one untraced unit, then the same unit with a span at
every layer boundary, and reports the per-layer metrics. The traced
unit runs serially, so the spans of pool workers are not lost; for a
pool workload an untraced serial unit is run as well, which gives the
parallel efficiency and checks that the output does not depend on
``parallelism``.

The last line of stdout is the result object; a run record (machine,
software, config, every sample) and, for traced runs, the spans are
written under ``.perfbench-out/``. ``--write-reference`` stores the
pinned seed's outputs under ``perfbench/reference/`` instead of
measuring.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types

import numpy as np
import scipy

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_package():
    """Import dopplertrack from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dopplertrack", "__init__.py")):
        raise SystemExit("perfbench: no dopplertrack sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import dopplertrack
    from dopplertrack import channel, frontend, harness, numerics, tracker
    if not os.path.abspath(dopplertrack.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported dopplertrack from %s" % dopplertrack.__file__)
    try:
        from dopplertrack import kernels
    except ImportError:
        kernels = None
    return types.SimpleNamespace(package=dopplertrack, channel=channel,
                                 frontend=frontend, harness=harness,
                                 numerics=numerics, tracker=tracker,
                                 kernels=kernels)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def run_record(dt, args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "config": workloads.make_config(args.workload, args.seed),
        "parallelism": workloads.parallelism(args.workload),
        "machine": {"nproc": workloads.nproc(), "cpu_count": os.cpu_count(),
                    "cpu_model": _cpu_model(), "platform": platform.platform()},
        "software": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            # recorded, never set: the benchmark runs what a user would run
            "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        },
        "dopplertrack": {
            "version": getattr(dt.package, "__version__", None),
            "kernels_backend": getattr(dt.kernels, "BACKEND", None),
            "git_commit": _git_commit(),
        },
    }


def time_setup(name, seed):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, SETUP_PROBE, name, str(seed)], cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Tally:
    """Operations attempted and failed, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, unit, scenarios, reference=None, baseline=None):
        failed, problems = checks.check_unit(unit, scenarios, reference, baseline)
        self.attempted += unit.trials
        self.failed += failed
        self.problems += problems

    def fail(self, problem):
        self.failed += 1
        self.problems.append(problem)


def prepare(dt, name, seed, tmp):
    """Expand the workload's config and run its warm-up grid once.

    Returns (scenarios, unit runner, parallelism, stored reference or None).
    """
    doc = workloads.make_config(name, seed)
    run = workloads.runner(name)
    run(dt, dt.harness.scenarios_from_config(workloads.warmup_config(doc)), 1, tmp)
    reference = checks.load_reference(name) if seed == workloads.PINNED_SEED else None
    return (dt.harness.scenarios_from_config(doc), run,
            workloads.parallelism(name), reference)


def measure(dt, name, seed, seconds, tmp, tally, record):
    """Untraced: repeat units for `seconds`; return the end-to-end metrics."""
    setup = [time_setup(name, seed) for _ in range(SETUP_REPEATS)]
    scenarios, run, par, reference = prepare(dt, name, seed, tmp)

    clock = tracing.StepClock().install(dt)
    first, units, step_ns = None, [], []
    try:
        t_end = time.perf_counter() + seconds
        while first is None or time.perf_counter() < t_end:
            unit = run(dt, scenarios, par, tmp, clock)
            tally.check(unit, scenarios, reference if first is None else None, first)
            units.append((unit.wall_s, unit.trials, unit.symbols))
            step_ns += unit.step_ns
            first = first or unit
    finally:
        clock.uninstall()

    step_us = np.asarray(step_ns, dtype=float) / 1e3
    p50, p90 = np.percentile(step_us, [50, 90])
    record["samples"] = {
        "setup_s": setup,
        "units": [dict(zip(("wall_s", "trials", "symbols"), u)) for u in units],
        "step_latency_samples": int(step_us.size),
    }
    return {
        "trials_per_s": statistics.median(t / w for w, t, _ in units),
        "symbols_per_s": statistics.median(s / w for w, _, s in units),
        "step_p50_us": float(p50),
        "step_p90_us": float(p90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }


LAYERS = ("channel", "kernels", "frontend", "tracker", "numerics", "harness")
FUNCTION_TOTALS = ("channel.make_fading", "channel.time_avg_cfr",
                   "kernels.sos_gains", "frontend.ls_observe", "tracker.step",
                   "tracker.update_lag0", "tracker.update_lagbeta",
                   "tracker.accumulate", "tracker.eigh", "tracker.mdl_order",
                   "numerics.poly_coeffs", "numerics.newton_solve",
                   "harness.emit_csv")


def trace(dt, name, seed, tmp, tally, record):
    """One untraced unit, then the same unit traced; return per-layer metrics."""
    scenarios, run, par, reference = prepare(dt, name, seed, tmp)

    clock = tracing.StepClock().install(dt)
    try:
        untraced = run(dt, scenarios, par, tmp, clock)
        tally.check(untraced, scenarios, reference)
        serial = untraced
        if par > 1:
            clock.reset()
            serial = run(dt, scenarios, 1, tmp, clock)
            tally.check(serial, scenarios, baseline=untraced)
    finally:
        clock.uninstall()

    tracer = tracing.Tracer().install(dt)
    try:
        traced = run(dt, scenarios, 1, tmp, tracer=tracer)
    finally:
        tracer.uninstall()
    tally.check(traced, scenarios, baseline=untraced)

    total, own, calls, top = tracer.summarize()
    counts = tracer.counts
    steps = calls["tracker.step"]
    if steps != len(untraced.step_ns):
        tally.fail("traced run made %d step calls, untraced %d"
                   % (steps, len(untraced.step_ns)))
    spans_path = os.path.join(OUT_DIR, "%s-seed%d.spans.jsonl.gz" % (name, seed))
    tracer.write(spans_path)
    record["spans_file"] = os.path.relpath(spans_path, ROOT)
    record["samples"] = {"untraced_wall_s": untraced.wall_s,
                         "serial_wall_s": serial.wall_s,
                         "traced_wall_s": traced.wall_s,
                         "step_latency_samples": len(untraced.step_ns)}

    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(v for k, v in own.items()
                                   if k.startswith(layer + ".")) / 1e9
    for fn in FUNCTION_TOTALS:
        m[fn + ".s"] = total[fn] / 1e9
    m["channel.time_avg_cfr.self_s"] = own["channel.time_avg_cfr"] / 1e9
    m["channel.time_avg_cfr.calls"] = calls["channel.time_avg_cfr"]
    m["kernels.sos_gains.osc_evals"] = counts["kernels.sos_gains.osc_evals"]
    m["tracker.step.self_s"] = own["tracker.step"] / 1e9
    m["tracker.step.calls"] = steps
    m["tracker.step.p99_us"] = float(np.percentile(untraced.step_ns, 99)) / 1e3
    m["tracker.valid_frac"] = counts["tracker.step.valid"] / max(steps, 1)
    m["tracker.eta_clamped_frac"] = counts["tracker.step.eta_clamped"] / max(steps, 1)
    m["numerics.newton.iters_mean"] = (counts["numerics.newton.iters"]
                                       / max(counts["numerics.newton.solved"], 1))
    m["harness.emit_csv.bytes"] = len(traced.per_symbol) + len(traced.summary)
    m["harness.parallel_eff"] = serial.wall_s / (par * untraced.wall_s)
    m["harness.norm_err_mean"] = float(np.mean([r.norm_err for r in untraced.results]))
    m["trace.wall_s"] = traced.wall_s
    m["trace.unattributed_s"] = traced.wall_s - top / 1e9
    m["trace.overhead_frac"] = traced.wall_s / serial.wall_s - 1.0
    m["trace.spans"] = len(tracer.spans)
    layer_sum = sum(m[layer + ".self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
    if abs(layer_sum - traced.wall_s) > 1e-6:
        tally.fail("layer self times add up to %.9f s, traced wall %.9f s"
                   % (layer_sum, traced.wall_s))
    return m


def write_reference(dt, name):
    """Store the pinned seed's outputs, produced serially, as the reference."""
    doc = workloads.make_config(name, workloads.PINNED_SEED)
    scenarios = dt.harness.scenarios_from_config(doc)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        unit = workloads.runner(name)(dt, scenarios, 1, tmp)
    tally = Tally()
    tally.check(unit, scenarios)
    if tally.failed:
        raise SystemExit("perfbench: not storing a failing reference: %s" % tally.problems)
    checks.write_reference(name, unit)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    spec = load_spec()
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    dt = load_package()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.write_reference:
        write_reference(dt, args.workload)
        return 0

    record = run_record(dt, args)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if args.trace:
            units = layer_units
            values = trace(dt, args.workload, args.seed, tmp, tally, record)
        else:
            units = e2e_units
            values = measure(dt, args.workload, args.seed, args.seconds,
                             tmp, tally, record)
    if set(values) != set(units):
        raise SystemExit("perfbench: metrics %r do not match BENCHMARK.json %r"
                         % (sorted(values), sorted(units)))
    record["problems"] = tally.problems
    record_path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                               % (args.workload, args.seed, args.trace))
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    for problem in tally.problems[:20]:
        print("perfbench: check failed: %s" % problem, file=sys.stderr)
    print("perfbench: run record in %s" % os.path.relpath(record_path, ROOT),
          file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
