"""Output checks: stored reference on the pinned seed, invariants on any seed.

Outputs are checked as the user gets them, from the bytes of
``per_symbol.csv`` and ``summary.csv`` written by ``harness.emit_csv``.
A check failure marks the trial it belongs to as failed.
"""

import gzip
import math
import os

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
FLAG_LABELS = {"warmup", "eta_clamped", "not_converged"}
# ROADMAP gate: estimates within 1e-12 (relative above 1), the rest exact.
TOL = 1e-12


def per_trial_lines(per_symbol):
    """{(scenario_id, trial): [row line, ...]} from per_symbol.csv bytes."""
    lines = per_symbol.decode("utf-8").splitlines()
    out = {}
    for line in lines[1:]:
        sid, trial, _ = line.split(",", 2)
        out.setdefault((sid, int(trial)), []).append(line)
    return out


def _parse(line):
    sid, trial, n, fd, eta, l_hat, s2, iters, flags = line.split(",")
    return (int(n), float(fd), float(eta), int(l_hat), float(s2), int(iters),
            flags)


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _check_invariants(rows, n_symbols, max_rank):
    if len(rows) != n_symbols:
        return "%d rows, expected %d" % (len(rows), n_symbols)
    for i, (n, fd, eta, l_hat, s2, iters, flags) in enumerate(rows):
        if n != i:
            return "row %d has n=%d" % (i, n)
        if not (math.isfinite(fd) and fd >= 0.0):
            return "n=%d fd_hat=%r" % (n, fd)
        if not 0 <= l_hat <= max_rank or iters < 0:
            return "n=%d L_hat=%d newton_iters=%d" % (n, l_hat, iters)
        if flags and not set(flags.split("|")) <= FLAG_LABELS:
            return "n=%d unknown flags %r" % (n, flags)
    return None


def _check_against(rows, ref_rows):
    if len(rows) != len(ref_rows):
        return "%d rows, reference has %d" % (len(rows), len(ref_rows))
    for r, ref in zip(rows, ref_rows):
        n, fd, eta, l_hat, s2, iters, flags = r
        rn, rfd, reta, rl, rs2, riters, rflags = ref
        if (n, l_hat, iters, flags) != (rn, rl, riters, rflags):
            return "n=%d L_hat/newton_iters/flags %r vs reference %r" % (
                n, (l_hat, iters, flags), (rl, riters, rflags))
        if not (_close(fd, rfd) and _close(eta, reta) and _close(s2, rs2)):
            return "n=%d estimates %r vs reference %r" % (
                n, (fd, eta, s2), (rfd, reta, rs2))
    return None


def _summary_problems(summary, ref_summary, scenario_ids):
    lines = summary.decode("utf-8").splitlines()[1:]
    ids = sorted(line.split(",", 1)[0] for line in lines)
    if ids != sorted(scenario_ids):
        return ["summary.csv scenarios %r, expected %r" % (ids, sorted(scenario_ids))]
    if ref_summary is None:
        return []
    ref = ref_summary.decode("utf-8").splitlines()[1:]
    problems = []
    for a, b in zip(lines, ref):
        fa, fb = a.split(","), b.split(",")
        same = fa[0] == fb[0] and all(
            x == y or (x and y and _close(float(x), float(y)))
            for x, y in zip(fa[1:], fb[1:]))
        if not same:
            problems.append("summary row %r vs reference %r" % (a, b))
    return problems


def reference_paths(workload):
    base = os.path.join(REF_DIR, workload)
    return base + ".per_symbol.csv.gz", base + ".summary.csv"


def load_reference(workload):
    per_path, sum_path = reference_paths(workload)
    with gzip.open(per_path, "rb") as f:
        per_symbol = f.read()
    with open(sum_path, "rb") as f:
        summary = f.read()
    return per_symbol, summary


def write_reference(workload, unit):
    per_path, sum_path = reference_paths(workload)
    os.makedirs(REF_DIR, exist_ok=True)
    with open(per_path, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as f:
            f.write(unit.per_symbol)
    with open(sum_path, "wb") as f:
        f.write(unit.summary)


def check_unit(unit, scenarios, reference=None, baseline=None):
    """Return (failed trial count, problem strings) for one unit's outputs.

    reference: (per_symbol, summary) bytes compared with tolerance.
    baseline: an earlier unit on the same inputs, whose output bytes
    this unit must reproduce exactly.
    """
    got = per_trial_lines(unit.per_symbol)
    base = per_trial_lines(baseline.per_symbol) if baseline is not None else None
    ref = per_trial_lines(reference[0]) if reference is not None else None
    problems = ["trial failed: %s/%d: %s" % e for e in unit.errors]
    failed = len(unit.errors)
    for sc in scenarios:
        max_rank = sc.tracker_cfg.max_rank
        for t in range(sc.trials):
            key = (sc.scenario_id, t)
            if any(e[:2] == key for e in unit.errors):
                continue
            lines = got.get(key, [])
            rows = [_parse(line) for line in lines]
            problem = _check_invariants(rows, sc.n_symbols, max_rank)
            if problem is None and ref is not None:
                problem = _check_against(rows, [_parse(x) for x in ref.get(key, [])])
            if problem is None and base is not None and lines != base.get(key):
                problem = "differs from an earlier run on the same inputs"
            if problem is not None:
                failed += 1
                problems.append("%s/%d: %s" % (key + (problem,)))
    ref_summary = reference[1] if reference is not None else None
    summary_problems = _summary_problems(
        unit.summary, ref_summary, [sc.scenario_id for sc in scenarios])
    if baseline is not None and unit.summary != baseline.summary:
        summary_problems.append("summary.csv differs from an earlier run on the same inputs")
    if summary_problems:
        failed = max(failed, 1)
        problems += summary_problems
    return failed, problems
