import dataclasses
import math
import os
import re
import threading
import warnings

import numpy as np
import pytest

from dopplertrack import harness, kernels, tracker
from dopplertrack.channel import (ChannelProfile, OfdmGeometry, make_fading,
                                  time_avg_cfr)
from dopplertrack.frontend import ls_observe
from dopplertrack.harness import (ConfigError, Scenario, emit_csv,
                                  load_config, preset_scenarios, run_grid,
                                  run_trial, scenarios_from_config)
from dopplertrack.tracker import TrackerConfig


def _trial_without_channel(scenario, trial_index):
    raise ValueError("no channel for trial %d" % trial_index)


def small_scenario(**kw):
    args = dict(scenario_id="t", profile=ChannelProfile.preset("eva"),
                f_d=400.0, snr_db=15.0, duration_ms=10.0, trials=2,
                master_seed=777)
    args.update(kw)
    return Scenario(**args)


class TestScenario:
    def test_symbol_count(self):
        s = small_scenario(duration_ms=40.0)
        assert s.geo.symbol_duration == pytest.approx(96e-6)
        assert s.n_symbols == 416

    @pytest.mark.parametrize("duration_ms, n", [(9.6, 100), (4.8, 50), (40.032, 417),
                                                (0.096, 1), (3.0, 31), (40.0, 416),
                                                (100.0, 1041), (120.0, 1250)])
    def test_whole_symbols_keep_the_last(self, duration_ms, n):
        # 9.6e-3 / 96e-6 is 99.99999999999999 in floating point; it used to
        # truncate to 99. A ratio that is not near an integer truncates.
        assert small_scenario(duration_ms=duration_ms).n_symbols == n

    def test_negative_seed_rejected(self):
        # SeedSequence would reject it in every trial, after validation
        with pytest.raises(ConfigError, match="master_seed must be >= 0"):
            small_scenario(master_seed=-1)
        assert small_scenario(master_seed=0).master_seed == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_scenario(duration_ms=0.0)
        with pytest.raises(ConfigError):
            small_scenario(trials=0)
        with pytest.raises(ConfigError):
            small_scenario(f_d=-5.0)
        for kw in (dict(f_d=math.nan), dict(f_d=math.inf),
                   dict(snr_db=math.nan), dict(snr_db=-math.inf),
                   dict(duration_ms=math.nan), dict(duration_ms=math.inf),
                   dict(delay_drift_ns_per_s=math.nan),
                   dict(delay_drift_ns_per_s=math.inf),
                   dict(m_avg=0), dict(m_avg=-2), dict(m_avg=1025),
                   dict(n_oscillators=15)):
            with pytest.raises(ConfigError):
                small_scenario(**kw)
        small_scenario(snr_db=math.inf)  # noiseless
        # the ends of the ranges the fading synthesis accepts
        small_scenario(m_avg=1)
        small_scenario(m_avg=1024)
        small_scenario(n_oscillators=16)

    def test_shorter_than_one_symbol(self):
        # 0.05 ms holds no 96 us symbol: n_symbols would be 0
        with pytest.raises(ConfigError, match=r"0\.096 ms"):
            small_scenario(duration_ms=0.05)
        assert small_scenario(duration_ms=0.1).n_symbols == 1

    def test_drifted_delays_must_fit_cp(self):
        # ETU spans 60 samples; +-1e6 ns/s moves it 1200 samples in 100 ms
        etu = ChannelProfile.preset("etu")
        for drift in (1e6, -1e6):
            with pytest.raises(ConfigError):
                small_scenario(profile=etu, duration_ms=100.0,
                               delay_drift_ns_per_s=drift)
        small_scenario(profile=etu, duration_ms=20.0, delay_drift_ns_per_s=1e4)

    def test_validity_region_warning(self):
        with pytest.warns(UserWarning):
            small_scenario(f_d=1200.0)

    def test_rank_warning(self):
        # EVA has 9 paths; MDL reports at most max_rank - 1 of them
        with pytest.warns(UserWarning, match="9 paths, at least max_rank=9"):
            small_scenario(tracker_cfg=TrackerConfig(max_rank=9))
        with pytest.warns(UserWarning, match="max_rank=4"):
            small_scenario(tracker_cfg=TrackerConfig(max_rank=4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small_scenario(tracker_cfg=TrackerConfig(max_rank=10))
            small_scenario(profile=ChannelProfile.preset("etu"))


class TestRunTrial:
    def test_series_length(self):
        r = run_trial(small_scenario(), 0)
        assert len(r.estimates) == small_scenario().n_symbols

    def test_determinism(self, tmp_path):
        s = small_scenario()
        paths = []
        for d in ("a", "b"):
            r = run_trial(s, 1)
            out = tmp_path / d
            emit_csv([r], str(out))
            paths.append((out / "per_symbol.csv").read_bytes())
        assert paths[0] == paths[1]

    def test_trials_differ(self):
        s = small_scenario()
        r0, r1 = run_trial(s, 0), run_trial(s, 1)
        assert r0.fd_series[-1] != r1.fd_series[-1]

    def test_seed_independence(self):
        # estimate innovations of distinct trials should be uncorrelated;
        # differencing removes the convergence trend every trial shares
        s = small_scenario(duration_ms=120.0, snr_db=10.0)
        e = []
        for t in range(4):
            err = np.diff(run_trial(s, t).fd_series[50:])
            e.append((err - err.mean()) / (err.std() + 1e-12))
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.mean(e[i] * e[j])) < 0.1

    def test_no_thread_outlives_trial(self, monkeypatch):
        monkeypatch.setattr(kernels, "_threads", 2)
        before = threading.active_count()
        run_trial(small_scenario(), 0)
        assert threading.active_count() == before

    def test_accuracy_eva_400(self):
        s = small_scenario(duration_ms=40.0, trials=20)
        errs = [run_trial(s, t).norm_err for t in range(20)]
        assert float(np.median(errs)) < 0.10

    @pytest.mark.parametrize("snr_db", [15.0, math.inf])
    def test_equals_interleaved_receiver_loop(self, snr_db):
        # run_trial synthesizes every CFR before tracking; the README loop
        # interleaves synthesis, observation and step per symbol
        s = small_scenario(snr_db=snr_db, duration_ms=5.0,
                           delay_drift_ns_per_s=1e4)
        assert s.n_symbols >= 40
        fading_seed, noise_seed = harness._trial_seed_words(s, 1)
        fad = make_fading(s.profile, s.f_d, fading_seed, s.n_oscillators)
        rng = np.random.default_rng(noise_seed)
        state = tracker.TrackerState(s.geo.n_pilots, s.tracker_cfg)
        want = []
        for n in range(s.n_symbols):
            h = time_avg_cfr(fad, s.geo, s.profile, n, m_avg=s.m_avg,
                             drift_ns_per_s=s.delay_drift_ns_per_s)
            want.append(tracker.step(state, ls_observe(h, s.snr_db, rng, n=n)))
        got = run_trial(s, 1).estimates
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for f in dataclasses.fields(w):
                a, b = getattr(g, f.name), getattr(w, f.name)
                assert a == b or (a != a and b != b), (g.n, f.name, a, b)
        assert any(not w.flags.warmup for w in want)


class TestRunGrid:
    def test_single_equals_trial(self):
        s = small_scenario(trials=1)
        results, errors = run_grid([s], parallelism=1)
        assert not errors
        direct = run_trial(s, 0)
        assert [e.fd_hat for e in results[0].estimates] \
            == [e.fd_hat for e in direct.estimates]

    def test_parallel_matches_serial(self, tmp_path):
        s = small_scenario(trials=3)
        blobs = []
        for par, d in ((1, "ser"), (3, "par")):
            results, errors = run_grid([s], parallelism=par)
            assert not errors
            out = tmp_path / d
            emit_csv(results, str(out))
            blobs.append((out / "per_symbol.csv").read_bytes()
                         + (out / "summary.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_one_job_starts_no_pool(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started for one job")

        s = small_scenario(trials=1)
        serial, _ = run_grid([s], parallelism=1)
        monkeypatch.setattr(ProcessPoolExecutor, "__init__", no_pool)
        results, errors = run_grid([s], parallelism=4)
        assert not errors
        assert [e.fd_hat for e in results[0].estimates] \
            == [e.fd_hat for e in serial[0].estimates]

    # (workers, threads per worker) of each pool started
    @pytest.mark.parametrize("cpus, pools", [(8, [(3, 2)]), (2, [(2, 1)]),
                                             (None, [])])
    def test_workers_fit_jobs_and_cpus(self, monkeypatch, cpus, pools):
        import concurrent.futures

        started = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            # records the pool worker initializer without running it here
            def __init__(self, max_workers, initializer, initargs):
                assert initializer is kernels._init_pool_worker
                started.append((max_workers,) + initargs)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "run_trial", _trial_without_channel)
        if cpus is None:  # no affinity mask and no CPU count: one CPU
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
        _, errors = run_grid([small_scenario(trials=3)], parallelism=4)
        assert started == pools
        assert len(errors) == 3

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_errors_keep_exception_type(self, monkeypatch, parallelism):
        # the failing trial is a module-level function, so pool workers
        # can unpickle it; two cpus make the two jobs take the pool branch
        monkeypatch.setattr(harness, "run_trial", _trial_without_channel)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        results, errors = run_grid([small_scenario(trials=2)],
                                   parallelism=parallelism)
        assert results == []
        assert errors == [("t", 0, "ValueError: no channel for trial 0"),
                          ("t", 1, "ValueError: no channel for trial 1")]


class TestEmitCsv:
    def test_empty_results_header_only(self, tmp_path):
        per, summ = emit_csv([], str(tmp_path / "o"))
        with open(per) as f:
            lines = f.readlines()
        assert len(lines) == 1 and lines[0].startswith("scenario_id,trial,n,")
        with open(summ) as f:
            lines = f.readlines()
        assert len(lines) == 1 and "median_fd_hat" in lines[0]

    def test_warmup_only_trial(self, tmp_path):
        s = small_scenario(duration_ms=1.0, trials=1)  # 10 symbols, all warmup
        results, _ = run_grid([s], parallelism=1)
        per, _ = emit_csv(results, str(tmp_path / "o"))
        with open(per) as f:
            rows = f.readlines()[1:]
        assert rows and all(row.rstrip("\n").endswith("warmup") for row in rows)

    def test_summary_recomputable_from_per_symbol(self, tmp_path):
        s = small_scenario(duration_ms=20.0, trials=3)
        results, _ = run_grid([s], parallelism=1)
        per, summ = emit_csv(results, str(tmp_path / "o"))
        # re-derive final estimates from the per-symbol rows
        series = {}
        with open(per) as f:
            next(f)
            for line in f:
                parts = line.rstrip("\n").split(",")
                series.setdefault(int(parts[1]), []).append(float(parts[3]))
        finals = [np.median(np.array(v[-50:])) for _, v in sorted(series.items())]
        with open(summ) as f:
            next(f)
            row = f.readline().rstrip("\n").split(",")
        assert float(row[4]) == float(np.median(finals))
        errs = [abs(x - s.f_d) / s.f_d for x in finals]
        assert float(row[5]) == float(np.mean(errs))

    def test_sorted_by_keys(self, tmp_path):
        scenarios = [small_scenario(scenario_id="b_fd600", f_d=600.0, trials=1),
                     small_scenario(scenario_id="a_fd200", f_d=200.0, trials=1)]
        results, _ = run_grid(scenarios, parallelism=1)
        _, summ = emit_csv(results, str(tmp_path / "o"))
        with open(summ) as f:
            ids = [line.split(",")[0] for line in f.readlines()[1:]]
        assert ids == sorted(ids)


class TestConfig:
    def test_load_and_expand(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "profile: [eva, etu]\n"
            "fd_hz: [200, 400]\n"
            "snr_db: 15\n"
            "duration_ms: 10\n"
            "trials: 2\n"
            "master_seed: 5\n")
        scenarios = load_config(str(cfg))
        assert len(scenarios) == 4
        assert {s.profile.name for s in scenarios} == {"eva", "etu"}
        assert all(s.master_seed == 5 for s in scenarios)

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("profile: eva\nfd_hz: 300\nduration_ms: 10\n")
        scenarios = load_config(str(cfg), seed_override=99)
        assert scenarios[0].master_seed == 99

    def test_inline_profile(self):
        doc = {"profile": {"name": "toy", "delays_ns": [0, 200],
                           "powers_db": [0, -3]},
               "fd_hz": 100, "duration_ms": 5}
        scenarios = scenarios_from_config(doc)
        assert scenarios[0].profile.n_paths == 2

    def test_bad_configs(self, tmp_path):
        for text in ("profile: nosuch\n", "fd_hz: [-4]\nprofile: eva\n",
                     "- just\n- a list\n", "tracker: {lag: 9}\n"):
            cfg = tmp_path / "bad.yaml"
            cfg.write_text(text)
            with pytest.raises(ConfigError):
                load_config(str(cfg))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/nope.yaml")

    def test_geometry_reaches_tracker(self):
        # the tracker runs on the scenario's one geometry
        doc = {"geometry": {"tones": 512, "cp_length": 64, "pilots": 64,
                            "sample_period_ns": 100.0},
               "tracker": {"max_rank": 6}, "duration_ms": 10}
        with pytest.warns(UserWarning, match="max_rank=6"):
            sc = scenarios_from_config(doc)[0]
        assert sc.tracker_cfg.geo == OfdmGeometry(n_tones=512, cp_len=64,
                                                  t_sample=100.0 * 1e-9, n_pilots=64)
        assert sc.geo is sc.tracker_cfg.geo
        assert sc.tracker_cfg.max_rank == 6

    def test_omitted_keys_take_defaults(self):
        sc = scenarios_from_config({})[0]
        assert sc.tracker_cfg == TrackerConfig()
        assert sc.geo == OfdmGeometry()
        want = Scenario(scenario_id=sc.scenario_id, profile=sc.profile,
                        f_d=sc.f_d, snr_db=sc.snr_db, duration_ms=sc.duration_ms)
        assert sc == want

    @pytest.mark.parametrize("section", ["geometry", "tracker"])
    @pytest.mark.parametrize("value", [None, [1, 2]])
    def test_section_must_be_mapping(self, section, value):
        with pytest.raises(ConfigError, match="bad %s section" % section):
            scenarios_from_config({section: value})

    # each of these used to be truncated, or ignored, without a word
    @pytest.mark.parametrize("doc, message", [
        ({"m_avg": 2.5}, "m_avg: 2.5 is not a whole number"),
        ({"trials": 1.9}, "trials: 1.9"), ({"trials": True}, "trials: True"),
        ({"master_seed": 1.5}, "master_seed: 1.5"), ({"m_avg": "64"}, "m_avg: '64'"),
        ({"trials": math.inf}, "trials: cannot convert"),
        ({"tracker": {"lag": 1.7}}, "lag: 1.7"), ({"tracker": {"lag": True}}, "lag: True"),
        ({"tracker": {"max_rank": 10.9}}, "max_rank: 10.9"),
        ({"geometry": {"pilots": 64.5}}, "pilots: 64.5"),
        ({"geometry": {"tones": 1024.5}}, "tones: 1024.5"),
        ({"geometry": {"cp_length": True}}, "cp_length: True"),
        ({"m_avgs": 2}, "unknown key 'm_avgs'"), ({"fd": 300.0}, "unknown key 'fd'"),
        ({"tracker": {"lags": 3}}, "bad tracker section: unknown key 'lags'"),
        ({"geometry": {"pilot": 64}}, "bad geometry section: unknown key 'pilot'"),
        # the series order is no longer a setting
        ({"tracker": {"series_order": 8}},
         "bad tracker section: unknown key 'series_order'")])
    def test_rejection_names_key(self, doc, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            scenarios_from_config(doc)

    # each expands to scenarios that share an id, and so share seeds and
    # mix in one summary row
    @pytest.mark.parametrize("doc, sid", [
        ({"profile": [{"delays_ns": [0], "powers_db": [0]},
                      {"delays_ns": [0, 100], "powers_db": [0, -3]}],
          "fd_hz": [100, 400]}, "custom_fd100_snr15_dur40"),
        ({"fd_hz": [400, 400]}, "eva_fd400_snr15_dur40"),
        ({"fd_hz": [400.0001, 400.0002]}, "eva_fd400_snr15_dur40")])
    def test_duplicate_scenario_ids_rejected(self, doc, sid):
        with pytest.raises(ConfigError, match=re.escape("%r occurs twice" % sid)):
            scenarios_from_config(doc)

    def test_whole_float_accepted(self):
        sc = scenarios_from_config({"m_avg": 32.0, "tracker": {"lag": 2.0}})[0]
        assert sc.m_avg == 32 and type(sc.m_avg) is int
        assert sc.tracker_cfg.beta == 2 and type(sc.tracker_cfg.beta) is int

    def test_presets(self):
        for name in ("eva", "etu", "snr-sweep", "convergence"):
            scenarios = preset_scenarios(name)
            assert scenarios
        assert len(preset_scenarios("snr-sweep")) == 2 * 3 * 7 * 2
        with pytest.raises(ConfigError):
            preset_scenarios("nope")


class TestConvergenceMetric:
    def test_converged_trial_has_index(self):
        s = small_scenario(duration_ms=40.0)
        r = run_trial(s, 0)
        idx = r.convergence_symbol
        assert idx is not None and 0 <= idx < s.n_symbols

    def test_never_converging(self):
        s = small_scenario(duration_ms=40.0)
        r = run_trial(s, 0)
        # truth far away from the estimates: the metric must return None
        bogus = Scenario(scenario_id="t", profile=s.profile, f_d=50.0,
                         snr_db=15.0, duration_ms=40.0, trials=1,
                         master_seed=777)
        shifted = harness.TrialResult(scenario=bogus, trial=0,
                                      estimates=r.estimates)
        assert shifted.convergence_symbol is None

    @pytest.mark.parametrize("n", [49, 50, 51, 160, 416])
    def test_scan_equals_loop(self, n):
        rng = np.random.default_rng(n)
        # errors that fall below the threshold part-way, with a NaN run
        fd = 400.0 * (1.0 + np.geomspace(2.0, 0.01, n) * rng.normal(size=n))
        fd[n // 3:n // 3 + 5] = np.nan
        s = small_scenario(duration_ms=40.0)
        ests = tuple(tracker.DopplerEstimate(
            n=i, fd_hat=float(x), eta_hat=0.5, L_hat=1, sigma_n2_hat=0.1,
            newton_iters=1, flags=tracker.EstimateFlags()) for i, x in enumerate(fd))
        r = harness.TrialResult(scenario=s, trial=0, estimates=ests)
        if n >= harness.CONV_WINDOW:
            err = np.abs(r.fd_series - 400.0) / 400.0
            assert harness._rolling_median(err).tobytes() \
                == rolling_median_loop_oracle(err).tobytes()
        assert r.convergence_symbol == convergence_loop_oracle(r)
        clean = harness.TrialResult(scenario=s, trial=0, estimates=tuple(
            dataclasses.replace(e, fd_hat=400.0 + 10.0 * math.sin(e.n))
            for e in ests))
        want = 0 if n >= harness.CONV_HOLD else None
        assert clean.convergence_symbol == convergence_loop_oracle(clean) == want


def rolling_median_loop_oracle(err):
    """The one-median-per-symbol loop convergence_symbol used before."""
    return np.array([np.median(err[max(0, i - harness.CONV_WINDOW + 1):i + 1])
                     for i in range(len(err))])


def convergence_loop_oracle(result):
    """convergence_symbol as it was, on the loop's rolling medians."""
    fd = result.scenario.f_d
    err = np.abs(result.fd_series - fd) / fd
    n = len(err)
    if n < harness.CONV_WINDOW:
        return None
    below = rolling_median_loop_oracle(err) < harness.CONV_THRESHOLD
    run = 0
    for i in range(n):
        run = run + 1 if below[i] else 0
        if run >= harness.CONV_HOLD:
            return i - run + 1
    return None
