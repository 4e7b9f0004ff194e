"""Monte-Carlo experiment runner.

Wires channel -> frontend -> tracker for configured scenario grids,
computes per-trial error metrics, and writes per-symbol and summary CSV
files. Scenarios come from YAML config files or built-in presets.
"""

import math
import os
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import frontend, kernels, tracker
from .channel import (ChannelError, ChannelProfile, OfdmGeometry, drifted_delays,
                      make_fading, time_avg_cfr)

# convergence metric: first symbol where the rolling median (window 50)
# of normalized error stays below the threshold for 100 symbols
CONV_WINDOW = 50
CONV_THRESHOLD = 0.25
CONV_HOLD = 100
FINAL_WINDOW = 50


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    profile: ChannelProfile
    f_d: float
    snr_db: float
    duration_ms: float
    trials: int = 20
    master_seed: int = 12345
    tracker_cfg: tracker.TrackerConfig = field(default_factory=tracker.TrackerConfig)
    m_avg: int = 64
    n_oscillators: int = 64
    delay_drift_ns_per_s: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.duration_ms) and self.duration_ms > 0):
            raise ConfigError("duration_ms must be finite and positive")
        if self.n_symbols < 1:
            raise ConfigError(
                "duration_ms=%g is shorter than one OFDM symbol (%.4g ms)"
                % (self.duration_ms, self.geo.symbol_duration * 1e3))
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.master_seed < 0:  # SeedSequence takes no negative entropy
            raise ConfigError("master_seed must be >= 0")
        if not (math.isfinite(self.f_d) and self.f_d >= 0):
            raise ConfigError("f_d must be finite and non-negative")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ConfigError("snr_db must be finite or +inf (noiseless)")
        if not math.isfinite(self.delay_drift_ns_per_s):
            raise ConfigError("delay_drift_ns_per_s must be finite")
        if not (1 <= self.m_avg <= self.geo.n_tones):
            raise ConfigError("m_avg must lie in [1, %d], the tone count"
                              % self.geo.n_tones)
        if self.n_oscillators < 16:
            raise ConfigError("n_oscillators must be >= 16")
        self.profile.normalized_delays(self.geo)  # validates CP fit
        # the drift is linear in time, so the last symbol bounds every other
        t_last = (self.n_symbols - 1) * self.geo.symbol_duration
        try:
            drifted_delays(self.profile, self.geo, t_last, self.delay_drift_ns_per_s)
        except ChannelError as exc:
            raise ConfigError(str(exc)) from exc
        if self.f_d * self.geo.symbol_duration > 0.1:
            warnings.warn(
                "f_d*T_s = %.3f exceeds 0.1; outside the model's validity region"
                % (self.f_d * self.geo.symbol_duration), stacklevel=2)
        if self.profile.n_paths >= self.tracker_cfg.max_rank:
            # MDL reports at most max_rank - 1 paths, so the rest fall
            # into the noise floor and fd_hat runs low, unflagged
            warnings.warn(
                "profile %r has %d paths, at least max_rank=%d; estimates "
                "may run low without a flag" % (self.profile.name,
                                                 self.profile.n_paths,
                                                 self.tracker_cfg.max_rank),
                stacklevel=2)

    @property
    def geo(self):
        """The OFDM geometry, the one the tracker runs on."""
        return self.tracker_cfg.geo

    @property
    def n_symbols(self):
        """Whole symbols in duration_ms. A ratio within 1e-9 relative of
        an integer counts as that integer, so a duration of whole symbols
        keeps its last one despite rounding (9.6 ms is 100 symbols)."""
        ratio = self.duration_ms * 1e-3 / self.geo.symbol_duration
        whole = round(ratio)
        return whole if math.isclose(ratio, whole, rel_tol=1e-9) else int(ratio)


@dataclass(frozen=True)
class TrialResult:
    scenario: Scenario
    trial: int
    estimates: tuple  # of tracker.DopplerEstimate

    @property
    def fd_series(self):
        return np.array([e.fd_hat for e in self.estimates])

    @property
    def final_fd_hat(self):
        """Median of the trailing window of per-symbol estimates."""
        s = self.fd_series
        return float(np.median(s[-min(FINAL_WINDOW, len(s)):]))

    @property
    def norm_err(self):
        if self.scenario.f_d == 0:
            return math.nan
        return abs(self.final_fd_hat - self.scenario.f_d) / self.scenario.f_d

    @property
    def convergence_symbol(self):
        """First index where the rolling-median error holds below threshold.

        None if the trial never converges (or f_d is zero, where the
        normalized error is undefined).
        """
        fd = self.scenario.f_d
        if fd == 0:
            return None
        err = np.abs(self.fd_series - fd) / fd
        n = len(err)
        if n < CONV_WINDOW:
            return None
        below = _rolling_median(err) < CONV_THRESHOLD
        run = 0
        for i in range(n):
            run = run + 1 if below[i] else 0
            if run >= CONV_HOLD:
                return i - run + 1
        return None


def _rolling_median(err):
    """Median of the CONV_WINDOW values ending at each index of err.

    The first CONV_WINDOW - 1 windows are shorter: they start at index 0.
    err holds at least CONV_WINDOW values.
    """
    head = [np.median(err[:i + 1]) for i in range(CONV_WINDOW - 1)]
    full = np.median(sliding_window_view(err, CONV_WINDOW), axis=1)
    return np.concatenate([head, full])


def _trial_seed_words(scenario, trial_index):
    sc_hash = zlib.crc32(scenario.scenario_id.encode("utf-8"))
    ss = np.random.SeedSequence((scenario.master_seed, sc_hash, trial_index))
    return [int(w) for w in ss.generate_state(2, dtype=np.uint64)]


def run_trial(scenario, trial_index):
    """Run one end-to-end trial, deterministic in (scenario, trial_index).

    The trial's true CFRs are synthesized first, in one time_avg_cfr
    call over every symbol (n_symbols x pilots complex values), then
    observed and tracked symbol by symbol, so the tracker's steps run
    back to back. The noise draws keep their symbol order, so the result
    equals the interleaved receiver loop's.
    """
    fading_seed, noise_seed = _trial_seed_words(scenario, trial_index)
    fad = make_fading(scenario.profile, scenario.f_d, fading_seed,
                      scenario.n_oscillators)
    cfrs = time_avg_cfr(fad, scenario.geo, scenario.profile,
                        range(scenario.n_symbols), m_avg=scenario.m_avg,
                        drift_ns_per_s=scenario.delay_drift_ns_per_s)
    noise_rng = np.random.default_rng(noise_seed)
    state = tracker.TrackerState(scenario.geo.n_pilots, scenario.tracker_cfg)
    estimates = tuple(
        tracker.step(state, frontend.ls_observe(cfr, scenario.snr_db, noise_rng, n=n))
        for n, cfr in enumerate(cfrs))
    return TrialResult(scenario=scenario, trial=trial_index, estimates=estimates)


def _error_message(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def run_grid(scenarios, parallelism=1):
    """Run every (scenario, trial) pair; failures are recorded, not fatal.

    Trials run on min(parallelism, jobs, cpu count) worker processes; with
    one worker no pool is started and trials run in this process. Each
    pool worker synthesizes on its share of the CPUs, at least one.

    Returns (results, errors): results sorted by (scenario_id, trial),
    errors as (scenario_id, trial, "<ExceptionType>: <message>") tuples.
    """
    jobs = [(s, t) for s in scenarios for t in range(s.trials)]
    cpus = kernels.cpu_count()
    workers = min(parallelism, len(jobs), cpus)
    results, errors = [], []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=kernels._init_pool_worker,
                                 initargs=(max(1, cpus // workers),)) as pool:
            futures = [(s, t, pool.submit(run_trial, s, t)) for s, t in jobs]
            for s, t, fut in futures:
                try:
                    results.append(fut.result())
                except Exception as exc:
                    errors.append((s.scenario_id, t, _error_message(exc)))
    else:
        for s, t in jobs:
            try:
                results.append(run_trial(s, t))
            except Exception as exc:  # grid keeps going
                errors.append((s.scenario_id, t, _error_message(exc)))
    results.sort(key=lambda r: (r.scenario.scenario_id, r.trial))
    return results, errors


def emit_csv(results, out_dir):
    """Write per_symbol.csv and summary.csv into out_dir.

    Rows are sorted by (scenario_id, fd_true, snr_db, trial, n) so byte
    output is stable regardless of execution order.
    """
    os.makedirs(out_dir, exist_ok=True)
    results = sorted(results, key=lambda r: (r.scenario.scenario_id,
                                             r.scenario.f_d,
                                             r.scenario.snr_db, r.trial))
    per_path = os.path.join(out_dir, "per_symbol.csv")
    with open(per_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("scenario_id,trial,n,fd_hat_hz,eta_hat,L_hat,"
                "sigma_n2_hat,newton_iters,flags\n")
        for r in results:
            sid = r.scenario.scenario_id
            for e in r.estimates:
                f.write("%s,%d,%d,%r,%r,%d,%r,%d,%s\n" % (
                    sid, r.trial, e.n, e.fd_hat, e.eta_hat,
                    e.L_hat, e.sigma_n2_hat, e.newton_iters,
                    "|".join(e.flags.labels())))

    groups = {}
    for r in results:
        groups.setdefault(r.scenario.scenario_id, []).append(r)
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("scenario_id,fd_true,snr_db,duration_ms,median_fd_hat,"
                "mean_norm_err,p10_fd_hat,p90_fd_hat,convergence_symbol\n")
        for sid in sorted(groups):
            rs = groups[sid]
            s = rs[0].scenario
            finals = np.array([r.final_fd_hat for r in rs])
            errs = np.array([r.norm_err for r in rs])
            conv = [r.convergence_symbol for r in rs]
            conv_known = [c for c in conv if c is not None]
            f.write("%s,%r,%r,%r,%r,%r,%r,%r,%s\n" % (
                sid, float(s.f_d), float(s.snr_db), float(s.duration_ms),
                float(np.median(finals)),
                float(np.mean(errs)),
                float(np.percentile(finals, 10)),
                float(np.percentile(finals, 90)),
                repr(float(np.median(conv_known))) if conv_known else ""))
    return per_path, summary_path


def _as_list(v):
    return list(v) if isinstance(v, (list, tuple)) else [v]


def _whole(value):
    """An integer config value: a whole number, but not a boolean."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError("%r is not a whole number" % (value,))
    return int(value)


# config key -> (dataclass field, conversion); a key the config omits
# takes the dataclass default
_GEOMETRY_KEYS = {"tones": ("n_tones", _whole), "cp_length": ("cp_len", _whole),
                 "sample_period_ns": ("t_sample", lambda ns: float(ns) * 1e-9),
                 "pilots": ("n_pilots", _whole)}
_TRACKER_KEYS = {"alpha": ("alpha", float), "lag": ("beta", _whole),
                "max_rank": ("max_rank", _whole)}
_SCENARIO_KEYS = {"trials": ("trials", _whole), "master_seed": ("master_seed", _whole),
                 "m_avg": ("m_avg", _whole),
                 "delay_drift_ns_per_s": ("delay_drift_ns_per_s", float)}
# the top-level keys that are not scenario fields
_GRID_KEYS = ("geometry", "tracker", "profile", "fd_hz", "snr_db", "duration_ms")


def _given(section, keys, also=()):
    """Converted keyword arguments for the keys that a config section sets.

    A key outside keys and also is rejected, so that a misspelt key
    cannot silently take its default.
    """
    if not isinstance(section, dict):
        raise TypeError("section must be a mapping, got %r" % (section,))
    for key in section:
        if key not in keys and key not in also:
            raise ConfigError("unknown key %r (known: %s)"
                              % (key, ", ".join(sorted([*keys, *also]))))
    out = {}
    for key, (name, conv) in keys.items():
        if key in section:
            try:
                out[name] = conv(section[key])
            except Exception as exc:
                raise ConfigError("%s: %s" % (key, exc)) from exc
    return out


def scenarios_from_config(doc, seed_override=None):
    """Expand a config mapping into a scenario list.

    fd_hz, snr_db, duration_ms and profile may be lists; the cartesian
    product over those axes defines the grid. Every key is optional; an
    omitted geometry, tracker or scenario key takes the dataclass default.
    Scenario ids must be distinct, as each seeds its trials and names its
    output rows.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    if seed_override is not None:
        doc = dict(doc, master_seed=seed_override)
    try:
        geo = OfdmGeometry(**_given(doc.get("geometry", {}), _GEOMETRY_KEYS))
    except Exception as exc:
        raise ConfigError("bad geometry section: %s" % exc) from exc
    try:
        trk = tracker.TrackerConfig(geo=geo, **_given(doc.get("tracker", {}),
                                                      _TRACKER_KEYS))
    except Exception as exc:
        raise ConfigError("bad tracker section: %s" % exc) from exc

    profiles = []
    for p in _as_list(doc.get("profile", "eva")):
        try:
            if isinstance(p, str):
                profiles.append(ChannelProfile.preset(p))
            else:
                profiles.append(ChannelProfile.from_dict(p))
        except Exception as exc:
            raise ConfigError("bad profile entry %r: %s" % (p, exc)) from exc

    scenarios, ids = [], set()
    try:
        fds = [float(x) for x in _as_list(doc.get("fd_hz", 400.0))]
        snrs = [float(x) for x in _as_list(doc.get("snr_db", 15.0))]
        durs = [float(x) for x in _as_list(doc.get("duration_ms", 40.0))]
        given = _given(doc, _SCENARIO_KEYS, _GRID_KEYS)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad scalar field: %s" % exc) from exc
    for prof in profiles:
        for fd in fds:
            for snr in snrs:
                for dur in durs:
                    sid = "%s_fd%g_snr%g_dur%g" % (prof.name, fd, snr, dur)
                    if sid in ids:
                        raise ConfigError(
                            "scenario id %r occurs twice; an id holds the profile "
                            "name and 6 significant digits of each axis value" % sid)
                    ids.add(sid)
                    try:
                        scenarios.append(Scenario(
                            scenario_id=sid, profile=prof, f_d=fd, snr_db=snr,
                            duration_ms=dur, tracker_cfg=trk, **given))
                    except ConfigError:
                        raise
                    except Exception as exc:
                        raise ConfigError("bad scenario %s: %s" % (sid, exc)) from exc
    if not scenarios:
        raise ConfigError("config expands to zero scenarios")
    return scenarios


def load_config(path, seed_override=None):
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = yaml.safe_load(f)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    except yaml.YAMLError as exc:
        raise ConfigError("config parse error in %s: %s" % (path, exc)) from exc
    return scenarios_from_config(doc, seed_override=seed_override)


PRESETS = {
    "eva": {"profile": "eva", "fd_hz": 400.0, "snr_db": 15.0,
            "duration_ms": 40.0, "trials": 20},
    "etu": {"profile": "etu", "fd_hz": 400.0, "snr_db": 15.0,
            "duration_ms": 40.0, "trials": 20},
    # full accuracy grid: both profiles, three Doppler spreads, SNR sweep
    "snr-sweep": {"profile": ["eva", "etu"],
                  "fd_hz": [200.0, 400.0, 600.0],
                  "snr_db": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
                  "duration_ms": [20.0, 40.0], "trials": 20},
    # long observations at fixed SNR for per-symbol convergence traces
    "convergence": {"profile": ["eva", "etu"],
                    "fd_hz": [200.0, 400.0, 600.0],
                    "snr_db": 15.0, "duration_ms": 100.0, "trials": 20},
}


def preset_scenarios(name, seed_override=None):
    if name not in PRESETS:
        raise ConfigError("unknown preset %r (have %s)"
                          % (name, ", ".join(sorted(PRESETS))))
    return scenarios_from_config(dict(PRESETS[name]), seed_override=seed_override)
