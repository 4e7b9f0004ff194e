"""The benchmark's workloads: configs made from the seed, and one unit of work each.

Every workload is a closed loop with one caller: the next unit starts
only after the previous one has returned, and all load comes from this
process (plus, for ``sweep-par``, the harness's own process pool).

The seed only picks the configs' ``master_seed`` (and from it the
per-stream seeds of ``flat-stream``); the program sees nothing but the
generated config mapping, expanded by ``harness.scenarios_from_config``.
Layer functions are always looked up as module attributes at call time,
so that the timing wrappers in ``tracing`` are the ones called.
"""

import os
import time

import numpy as np

# Seed whose outputs are stored under reference/ and compared on every run.
PINNED_SEED = 1

FLAT_PROFILE = {"name": "flat", "delays_ns": [0.0], "powers_db": [0.0]}

WORKLOADS = {
    # The ROADMAP's north-star trial through the default user path
    # (run_grid serially, then emit_csv). Synthesis dominates.
    "eva-batch": {
        "config": {"profile": "eva", "fd_hz": 400.0, "snr_db": 15.0,
                   "duration_ms": 40.0, "trials": 3},
        "parallelism": 1,
    },
    # The README "Library" receiver loop on a 1-tap flat Rayleigh
    # channel: synthesis is cheap, so the tracker dominates, and every
    # step call is timed. 5 dB keeps L_hat small via MDL/noise floor.
    "flat-stream": {
        "config": {"profile": [FLAT_PROFILE], "fd_hz": 400.0, "snr_db": 5.0,
                   "duration_ms": 100.0, "trials": 2},
        "parallelism": 1,
    },
    # The snr-sweep axes over a process pool: pool fan-out, result
    # pickling, large CSV output, short trials (more fixed cost per
    # trial), eta_clamped exits at 30 dB and per-symbol delay drift.
    "sweep-par": {
        "config": {"profile": ["eva", "etu"], "fd_hz": [200.0, 400.0, 600.0],
                   "snr_db": [0.0, 15.0, 30.0], "duration_ms": 20.0,
                   "trials": 1, "delay_drift_ns_per_s": 1e4},
        "parallelism": "nproc",
    },
}

# Short grids run once before timing so lazy set-up (first LAPACK calls,
# page faults in new buffers) is paid outside the measured units.
WARMUP_DURATION_MS = 3.0


def nproc():
    return len(os.sched_getaffinity(0))


def parallelism(name):
    p = WORKLOADS[name]["parallelism"]
    return nproc() if p == "nproc" else p


def make_config(name, seed):
    """The config mapping the program receives for (workload, seed)."""
    doc = dict(WORKLOADS[name]["config"])
    doc["master_seed"] = int(np.random.SeedSequence(seed).generate_state(1)[0])
    return doc


def warmup_config(doc):
    return dict(doc, duration_ms=WARMUP_DURATION_MS, trials=1)


class Unit:
    """What one unit of work produced, with its wall time."""

    def __init__(self, wall_s, results, errors, paths, step_ns):
        self.wall_s = wall_s
        self.results = results
        self.errors = errors
        self.step_ns = step_ns
        with open(paths[0], "rb") as f:
            self.per_symbol = f.read()
        with open(paths[1], "rb") as f:
            self.summary = f.read()

    @property
    def trials(self):
        return len(self.results) + len(self.errors)

    @property
    def symbols(self):
        return sum(len(r.estimates) for r in self.results)


def run_grid_unit(dt, scenarios, par, out_dir, clock=None, tracer=None):
    """run_grid(parallelism=par) then emit_csv: the CLI's `run` path.

    A tracer needs no help here: its run_trial wrapper sets trace ids.
    """
    if clock is not None:
        clock.reset()
    t0 = time.perf_counter()
    results, errors = dt.harness.run_grid(scenarios, parallelism=par)
    paths = dt.harness.emit_csv(results, out_dir)
    wall = time.perf_counter() - t0
    step_ns = []
    if clock is not None:
        for r in results:
            step_ns.extend(clock.samples_of(r))
    return Unit(wall, results, errors, paths, step_ns)


def _stream_seeds(master_seed, k):
    ss = np.random.SeedSequence((master_seed, k))
    return [int(w) for w in ss.generate_state(2, dtype=np.uint64)]


def run_stream_unit(dt, scenarios, par, out_dir, clock=None, tracer=None):
    """The README receiver loop, one stream per trial, then emit_csv."""
    channel, frontend, tracker = dt.channel, dt.frontend, dt.tracker
    if clock is not None:
        clock.reset()
    t0 = time.perf_counter()
    results = []
    for sc in scenarios:
        for k in range(sc.trials):
            if tracer is not None:
                tracer.trace_id = "%s/%d" % (sc.scenario_id, k)
            fading_seed, noise_seed = _stream_seeds(sc.master_seed, k)
            fad = channel.make_fading(sc.profile, sc.f_d, fading_seed,
                                      sc.n_oscillators)
            rng = np.random.default_rng(noise_seed)
            state = tracker.TrackerState(sc.geo.n_pilots, sc.tracker_cfg)
            estimates = []
            for n in range(sc.n_symbols):
                h = channel.time_avg_cfr(fad, sc.geo, sc.profile, n,
                                         m_avg=sc.m_avg)
                estimates.append(tracker.step(
                    state, frontend.ls_observe(h, sc.snr_db, rng, n=n)))
            results.append(dt.harness.TrialResult(
                scenario=sc, trial=k, estimates=tuple(estimates)))
    if tracer is not None:
        tracer.trace_id = "-"
    paths = dt.harness.emit_csv(results, out_dir)
    wall = time.perf_counter() - t0
    step_ns = list(clock.ns) if clock is not None else []
    return Unit(wall, results, [], paths, step_ns)


def runner(name):
    return run_stream_unit if name == "flat-stream" else run_grid_unit
