"""Acceptance suite: one test per shipped claim, one PASS line each.

These are the end-of-line checks for the whole pipeline; module-level
tests cover the finer-grained contracts. Monte-Carlo criteria use
pinned master seeds so the suite is deterministic.
"""

import math

import numpy as np
import pytest
from scipy import special

from dopplertrack import tracker
from dopplertrack.channel import ChannelProfile, OfdmGeometry, make_fading, time_avg_cfr
from dopplertrack.frontend import PilotSnapshot, ls_observe
from dopplertrack.harness import Scenario, emit_csv, run_grid, run_trial
from dopplertrack.numerics import (doppler_from_root, newton_solve,
                                   poly_coeffs, xi_exact)

GEO = OfdmGeometry()
T83 = 83.33e-9
PARALLELISM = 4


def report(name, ok, detail=""):
    print("%s: %s %s" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s failed: %s" % (name, detail)


def test_criterion_1_closed_loop_inversion():
    """Doppler recovered within 1% from exact correlation ratios."""
    worst = 0.0
    for fd in range(100, 801, 100):
        eta = xi_exact(fd, 1024, T83, beta=1) / xi_exact(fd, 1024, T83, beta=0)
        res = newton_solve(poly_coeffs(eta, 1.125, 8))
        assert res.converged and res.iterations <= 4
        fd_hat = doppler_from_root(res.root, 1024, T83)
        worst = max(worst, abs(fd_hat - fd) / fd)
    report("criterion 1 (closed-loop inversion)", worst < 0.01,
           "worst rel err %.2e" % worst)


def test_criterion_2_series_oracle_agreement():
    """K=8 series forms track the exact double sum to 1e-4 relative."""
    worst = 0.0
    for beta in (1, 2, 3, 4):
        for fd in range(50, 801, 50):
            x = -(math.pi * fd * 1024 * T83) ** 2
            # the eta = 0 inversion polynomial is the xi_beta series
            series = poly_coeffs(0.0, beta * 1.125, 8).eval_with_derivative(x)[0]
            exact = xi_exact(fd, 1024, T83, beta=beta)
            worst = max(worst, abs(series - exact) / abs(exact))
            series0 = poly_coeffs(0.0, 0.0, 8).eval_with_derivative(x)[0]
            exact0 = xi_exact(fd, 1024, T83, beta=0)
            worst = max(worst, abs(series0 - exact0) / exact0)
    report("criterion 2 (series vs oracle)", worst < 1e-4,
           "worst rel err %.2e" % worst)


def test_criterion_3_fading_tcf_fidelity():
    """Per-path sample TCF matches sigma_l^2 J0(2 pi f_d dt) to 0.03."""
    prof = ChannelProfile.preset("eva")
    fd, ts, nsym, reals = 400.0, GEO.symbol_duration, 8000, 50
    powers = prof.powers_linear
    acc = np.zeros((9, 4))
    times = np.arange(nsym) * ts
    for s in range(reals):
        g = make_fading(prof, fd, seed=42_000 + s).gains(times)
        for k in range(4):
            if k:
                c = np.mean(g[:, k:] * np.conj(g[:, :nsym - k]), axis=1)
            else:
                c = np.mean(np.abs(g) ** 2, axis=1)
            acc[:, k] += c.real
    acc /= reals
    worst = 0.0
    for k in range(4):
        want = powers * special.j0(2 * math.pi * fd * k * ts)
        worst = max(worst, float(np.max(np.abs(acc[:, k] - want))))
    report("criterion 3 (fading TCF fidelity)", worst < 0.03,
           "worst abs dev %.4f" % worst)


def test_criterion_4_tracker_batch_equivalence():
    """Tracked diag(R0) matches batch eigenvalues; Q stays orthonormal."""
    rng = np.random.default_rng(2468)
    taus = np.array([0.0, 2.7, 5.1])
    powers = np.array([0.5, 0.3, 0.2])
    steering = np.exp(-2j * math.pi * np.outer(GEO.pilot_indices, taus) / 1024)
    s2 = 0.01  # SNR 20 dB
    cfg = tracker.TrackerConfig(geo=GEO)
    state = tracker.TrackerState(GEO.n_pilots, cfg)
    cov = np.zeros((128, 128), dtype=complex)
    eye = np.eye(cfg.max_rank)
    worst_orth = 0.0
    for n in range(2000):
        g = (rng.normal(size=3) + 1j * rng.normal(size=3)) * np.sqrt(powers / 2)
        h = steering @ g
        h += (rng.normal(size=128) + 1j * rng.normal(size=128)) * math.sqrt(s2 / 2)
        tracker.step(state, PilotSnapshot(n=n, values=h, snr_db=20.0))
        cov = cfg.alpha * cov + (1 - cfg.alpha) * np.outer(h, h.conj())
        q = state.q
        worst_orth = max(worst_orth, float(np.linalg.norm(q.conj().T @ q - eye)))
    batch = np.linalg.eigvalsh(cov)[::-1][:3]
    tracked = np.abs(np.diagonal(state.r))[:3]
    worst_eig = float(np.max(np.abs(tracked - batch) / batch))
    report("criterion 4 (tracker-batch equivalence)",
           worst_eig < 0.05 and worst_orth < 1e-10,
           "eig dev %.3f, orth %.1e" % (worst_eig, worst_orth))


def test_criterion_5_end_to_end_robustness():
    """Median error <10% at 400/600 Hz and <20% at 200 Hz, SNR >= 5 dB."""
    scenarios = []
    for prof in ("eva", "etu"):
        for fd in (200.0, 400.0, 600.0):
            for snr in (5.0, 15.0, 25.0):
                scenarios.append(Scenario(
                    scenario_id="%s_fd%g_snr%g" % (prof, fd, snr),
                    profile=ChannelProfile.preset(prof), f_d=fd, snr_db=snr,
                    duration_ms=40.0, trials=20, master_seed=20_240_817))
    results, errors = run_grid(scenarios, parallelism=PARALLELISM)
    assert not errors, errors
    by_id = {}
    for r in results:
        by_id.setdefault(r.scenario.scenario_id, []).append(r.norm_err)
    failures = []
    for s in scenarios:
        med = float(np.median(by_id[s.scenario_id]))
        limit = 0.20 if s.f_d == 200.0 else 0.10
        if med >= limit:
            failures.append("%s median %.3f >= %.2f" % (s.scenario_id, med, limit))
    report("criterion 5 (end-to-end robustness)", not failures,
           "; ".join(failures) if failures else "all 18 cells in tolerance")


def test_criterion_6_convergence_ordering():
    """Convergence is faster at 600 Hz than at 200 Hz, both < 1000 symbols."""
    trials = 20
    scenarios = {fd: Scenario(scenario_id="conv_fd%g" % fd,
                              profile=ChannelProfile.preset("eva"), f_d=fd,
                              snr_db=15.0, duration_ms=100.0, trials=trials,
                              master_seed=31_415)
                 for fd in (200.0, 600.0)}
    results, errors = run_grid(list(scenarios.values()), parallelism=PARALLELISM)
    assert not errors, errors
    conv = {fd: [None] * trials for fd in scenarios}
    for r in results:
        conv[r.scenario.f_d][r.trial] = r.convergence_symbol
    pairs = list(zip(conv[200.0], conv[600.0]))
    usable = [(a, b) for a, b in pairs if a is not None and b is not None]
    faster = sum(1 for a, b in usable if b < a)
    all_bounded = all(c is not None and c < 1000
                      for fd in scenarios for c in conv[fd])
    ok = len(usable) == trials and faster / trials >= 0.80 and all_bounded
    report("criterion 6 (convergence ordering)", ok,
           "600 Hz faster in %d/%d pairs, all < 1000 symbols: %s"
           % (faster, trials, all_bounded))


def test_criterion_7_zero_doppler_fixed_point():
    """Static channel drives the estimate to (almost exactly) zero."""
    prof = ChannelProfile.preset("eva")
    fad = make_fading(prof, 0.0, seed=8642)
    cfg = tracker.TrackerConfig(geo=GEO)
    state = tracker.TrackerState(GEO.n_pilots, cfg)
    rng = np.random.default_rng(1)
    ests = []
    for n in range(2000):
        cfr = time_avg_cfr(fad, GEO, prof, n)
        ests.append(tracker.step(state, ls_observe(cfr, math.inf, rng, n=n)))
    tail = ests[-200:]
    fd_ok = all(e.fd_hat < 20.0 for e in tail)
    etas = [e.eta_hat for e in tail if math.isfinite(e.eta_hat)]
    eta_ok = bool(etas) and all(0.99 <= x <= 1.01 for x in etas)
    report("criterion 7 (zero-Doppler fixed point)", fd_ok and eta_ok,
           "max tail fd %.2f Hz, eta range [%.4f, %.4f]"
           % (max(e.fd_hat for e in tail), min(etas), max(etas)))


def test_criterion_8_determinism(tmp_path):
    """Same scenario and seed give byte-identical CSV output."""
    s = Scenario(scenario_id="det", profile=ChannelProfile.preset("etu"),
                 f_d=300.0, snr_db=10.0, duration_ms=15.0, trials=2,
                 master_seed=13_579)
    blobs = []
    for d in ("x", "y"):
        results, errors = run_grid([s], parallelism=1)
        assert not errors
        per, summ = emit_csv(results, str(tmp_path / d))
        with open(per, "rb") as f:
            blob = f.read()
        with open(summ, "rb") as f:
            blob += f.read()
        blobs.append(blob)
    report("criterion 8 (determinism)", blobs[0] == blobs[1],
           "%d bytes compared" % len(blobs[0]))
