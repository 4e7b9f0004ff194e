"""Timing wrappers installed around dopplertrack's layers from outside.

The package is never edited. Each wrapper replaces a function in the
namespace where its caller looks the name up: ``harness`` binds
``make_fading``/``time_avg_cfr`` by name at import, ``channel`` calls
``kernels.sos_gains`` through the module, and ``step`` calls its stages
as ``tracker`` globals. A target the package no longer has is skipped,
so its metrics read 0 rather than the run failing.

Two kinds of instrumentation exist:

* ``StepClock`` (untraced runs) times only ``tracker.step``, for the
  end-to-end step latency. Process-pool workers are forked with the
  clock installed; ``_timed_run_trial`` ships their samples back on the
  ``TrialResult`` it returns.
* ``Tracer`` (traced runs) records a span at every layer boundary and
  counts work where it happens.
"""

import gzip
import json
import time
from collections import Counter

import numpy as np

now_ns = time.perf_counter_ns


def _patch(targets, make_wrapper):
    """Replace each present (module, attr) by make_wrapper(...); return an undo list."""
    undo = []
    for module, attr, *spec in targets:
        if module is None or not hasattr(module, attr):
            continue
        fn = getattr(module, attr)
        setattr(module, attr, make_wrapper(fn, *spec))
        undo.append((module, attr, fn))
    return undo


def _restore(undo):
    for module, attr, fn in reversed(undo):
        setattr(module, attr, fn)


# The installed StepClock. Pool workers are forked from this process and
# find it here, because pickled callables are looked up by module name.
_clock = None


def _timed_run_trial(scenario, trial_index):
    ns = _clock.ns
    start = len(ns)
    result = _clock.run_trial(scenario, trial_index)
    object.__setattr__(result, "bench_step_ns", ns[start:])
    return result


class StepClock:
    """Times every ``tracker.step`` call and nothing else."""

    def __init__(self):
        self.ns = []
        self.run_trial = None
        self._undo = []

    def reset(self):
        del self.ns[:]

    @staticmethod
    def samples_of(result):
        return result.bench_step_ns

    def install(self, dt):
        global _clock
        ns = self.ns

        def wrap_step(fn):
            def step(*args, **kwargs):
                t0 = now_ns()
                out = fn(*args, **kwargs)
                ns.append(now_ns() - t0)
                return out
            return step

        self.run_trial = dt.harness.run_trial
        self._undo = _patch([(dt.tracker, "step")], wrap_step)
        self._undo += _patch([(dt.harness, "run_trial")],
                             lambda fn: _timed_run_trial)
        _clock = self
        return self

    def uninstall(self):
        global _clock
        _restore(self._undo)
        self._undo = []
        _clock = None


def _count_sos(counts, args, out):
    omegas, times = args[1], args[4]
    counts["kernels.sos_gains.osc_evals"] += omegas.shape[0] * omegas.shape[1] * len(times)


def _count_step(counts, args, out):
    labels = out.flags.labels()
    for label in labels:
        counts["tracker.step." + label] += 1
    if not labels:
        counts["tracker.step.valid"] += 1


def _count_newton(counts, args, out):
    counts["numerics.newton.solved"] += 1
    counts["numerics.newton.iters"] += out.iterations


def _trial_id(args):
    return "%s/%d" % (args[0].scenario_id, args[1])


class Tracer:
    """Spans (name, start, end, parent, trace id) kept in memory.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because everything runs in one thread.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.trace_id = "-"
        self._stack = []
        self._undo = []

    def _wrapper(self, fn, name, count=None, trace_key=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer_id = self.trace_id
            if trace_key is not None:
                self.trace_id = trace_key(args)
            t0 = now_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = now_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.trace_id)
                self.trace_id = outer_id
            if count is not None:
                count(counts, args, out)
            return out
        return traced

    def install(self, dt):
        h, c, t, nm = dt.harness, dt.channel, dt.tracker, dt.numerics
        self._undo = _patch([
            (h, "run_grid", "harness.run_grid"),
            (h, "run_trial", "harness.run_trial", None, _trial_id),
            (h, "emit_csv", "harness.emit_csv"),
            (h, "make_fading", "channel.make_fading"),
            (c, "make_fading", "channel.make_fading"),
            (h, "time_avg_cfr", "channel.time_avg_cfr"),
            (c, "time_avg_cfr", "channel.time_avg_cfr"),
            (dt.kernels, "sos_gains", "kernels.sos_gains", _count_sos),
            (dt.frontend, "ls_observe", "frontend.ls_observe"),
            (t, "step", "tracker.step", _count_step),
            (t, "update_lag0", "tracker.update_lag0"),
            (t, "update_lagbeta", "tracker.update_lagbeta"),
            (t, "_accumulate", "tracker.accumulate"),
            (np.linalg, "eigh", "tracker.eigh"),
            (t, "mdl_order", "tracker.mdl_order"),
            (nm, "poly_coeffs", "numerics.poly_coeffs"),
            (nm, "newton_solve", "numerics.newton_solve", _count_newton),
        ], self._wrapper)
        return self

    def uninstall(self):
        _restore(self._undo)
        self._undo = []

    def summarize(self):
        """Per span name: total ns, self ns and calls; plus top-level ns."""
        child = [0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, own, calls = Counter(), Counter(), Counter()
        top = 0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            d = t1 - t0
            total[name] += d
            own[name] += d - child[i]
            calls[name] += 1
            if parent < 0:
                top += d
        return total, own, calls, top

    def write(self, path):
        """One JSON object per span, in start order."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            for i, (name, t0, t1, parent, trace) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start_ns": t0,
                                    "end_ns": t1, "parent": parent,
                                    "trace": trace}) + "\n")
