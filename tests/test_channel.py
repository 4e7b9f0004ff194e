import math

import numpy as np
import pytest
from scipy import special

from dopplertrack import kernels
from dopplertrack.channel import (ChannelError, ChannelProfile,
                                  FadingRealization, OfdmGeometry,
                                  drifted_delays, make_fading, time_avg_cfr)

GEO = OfdmGeometry()


class TestGeometry:
    def test_defaults(self):
        assert GEO.r_cp == 0.125
        assert GEO.symbol_duration == pytest.approx(96e-6)
        assert list(GEO.pilot_indices[:3]) == [0, 8, 16]
        assert len(GEO.pilot_indices) == 128

    def test_pilot_divisibility(self):
        with pytest.raises(ChannelError):
            OfdmGeometry(n_tones=1000, n_pilots=128)


class TestProfile:
    def test_presets(self):
        eva = ChannelProfile.preset("eva")
        etu = ChannelProfile.preset("ETU")
        assert eva.n_paths == 9 and etu.n_paths == 9
        assert eva.delays_ns[-1] == 2510.0
        assert etu.delays_ns[-1] == 5000.0
        assert eva.powers_db[4] == -0.6
        assert etu.powers_db[:3] == (-1.0, -1.0, -1.0)

    def test_power_normalization(self):
        for name in ("eva", "etu"):
            p = ChannelProfile.preset(name).powers_linear
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p > 0)

    def test_normalized_delays_real_valued(self):
        tau = ChannelProfile.preset("eva").normalized_delays(GEO)
        assert tau[1] == pytest.approx(30e-9 * 12e6)  # 0.36, off the grid
        assert tau[-1] < GEO.cp_len

    def test_delay_exceeding_cp(self):
        prof = ChannelProfile("bad", (0.0, 20000.0), (0.0, 0.0))
        with pytest.raises(ChannelError):
            prof.normalized_delays(GEO)

    def test_validation(self):
        with pytest.raises(ChannelError):
            ChannelProfile("x", (0.0, 1.0), (0.0,))
        with pytest.raises(ChannelError):
            ChannelProfile("x", (5.0, 1.0), (0.0, 0.0))
        with pytest.raises(ChannelError):
            ChannelProfile.preset("nosuch")

    def test_from_dict(self):
        prof = ChannelProfile.from_dict(
            {"name": "toy", "delays_ns": [0, 100], "powers_db": [0, -3]})
        assert prof.n_paths == 2
        with pytest.raises(ChannelError):
            ChannelProfile.from_dict({"delays_ns": [0]})


class TestFading:
    def test_zero_doppler_frozen(self):
        fad = make_fading(ChannelProfile.preset("eva"), 0.0, seed=7)
        g1 = fad.gains(0.0)[0, 0]
        g2 = fad.gains(1.234)[0, 0]
        assert g1 == pytest.approx(g2)
        gains = fad.gains(np.linspace(0, 1, 50))
        assert np.allclose(gains, gains[:, :1])

    def test_determinism(self):
        prof = ChannelProfile.preset("etu")
        a = make_fading(prof, 300.0, seed=42).gains(np.linspace(0, 0.01, 200))
        b = make_fading(prof, 300.0, seed=42).gains(np.linspace(0, 0.01, 200))
        np.testing.assert_array_equal(a, b)
        assert make_fading(prof, 300.0, 42).gains(0.005)[3, 0] \
            == make_fading(prof, 300.0, 42).gains(0.005)[3, 0]

    def test_preconditions(self):
        prof = ChannelProfile.preset("eva")
        with pytest.raises(ChannelError):
            make_fading(prof, -1.0, seed=0)
        with pytest.raises(ChannelError):
            make_fading(prof, 100.0, seed=0, n_oscillators=8)

    def test_per_path_variance(self):
        # long window so sample variance sees many coherence times
        prof = ChannelProfile.preset("eva")
        fad = make_fading(prof, 400.0, seed=2024)
        times = np.arange(400_000) * 5e-5
        g = fad.gains(times)
        var = np.mean(np.abs(g) ** 2, axis=1)
        np.testing.assert_allclose(var, prof.powers_linear, rtol=0.03)

    def test_zero_mean(self):
        prof = ChannelProfile("one", (0.0,), (0.0,))
        vals = [make_fading(prof, 200.0, seed=s).gains(0.3)[0, 0]
                for s in range(10_000)]
        assert abs(np.mean(vals)) < 0.05

    def test_tcf_against_j0(self):
        # sample TCF at dt = k*T_s averaged over 50 realizations
        prof = ChannelProfile("one", (0.0,), (0.0,))
        fd, ts = 400.0, GEO.symbol_duration
        nsym = 20_000
        acc = np.zeros(4, dtype=complex)
        norm = 0.0
        for s in range(50):
            g = make_fading(prof, fd, seed=900 + s).gains(np.arange(nsym) * ts)[0]
            norm += np.mean(np.abs(g) ** 2)
            for k in range(4):
                acc[k] += np.mean(g[k:] * np.conj(g[:nsym - k])) if k else np.mean(np.abs(g) ** 2)
        for k in range(4):
            want = special.j0(2 * math.pi * fd * k * ts)
            assert abs(acc[k].real / norm - want) < 0.02


def _cfr_one_symbol(fad, prof, n, m_avg, drift):
    """The per-symbol synthesis, written out step by step."""
    stride = GEO.n_tones / m_avg
    m_positions = np.arange(m_avg) * stride + (stride - 1.0) / 2.0
    t0 = n * GEO.symbol_duration
    times = t0 + (GEO.cp_len + m_positions) * GEO.t_sample
    mean_gain = fad.gains(times).mean(axis=1)
    tau = drifted_delays(prof, GEO, t0, drift)
    steering = np.exp(-2j * math.pi * np.outer(GEO.pilot_indices, tau) / GEO.n_tones)
    return steering @ mean_gain


class TestTimeAvgCfr:
    def test_flat_static_channel(self):
        prof = ChannelProfile("one", (0.0,), (0.0,))
        fad = make_fading(prof, 0.0, seed=5)
        h = fad.gains(GEO.cp_len * GEO.t_sample)[0, 0]
        out = time_avg_cfr(fad, GEO, prof, n=0)
        np.testing.assert_allclose(out, h, rtol=1e-12)

    def test_single_delay_phase_ramp(self):
        # delay of 4.5 samples = 375 ns at 12 MHz
        prof = ChannelProfile("one", (375.0,), (0.0,))
        fad = make_fading(prof, 0.0, seed=5)
        h = fad.gains(0.0)[0, 0]
        out = time_avg_cfr(fad, GEO, prof, n=0)
        theta = GEO.pilot_indices
        expect = h * np.exp(-2j * math.pi * theta * 4.5 / GEO.n_tones)
        np.testing.assert_allclose(out, expect, rtol=1e-10)
        np.testing.assert_allclose(np.abs(out), abs(h), rtol=1e-12)

    def test_decimated_average_accuracy(self):
        prof = ChannelProfile.preset("eva")
        fad = make_fading(prof, 400.0, seed=11)
        full = time_avg_cfr(fad, GEO, prof, n=3, m_avg=GEO.n_tones)
        fast = time_avg_cfr(fad, GEO, prof, n=3, m_avg=64)
        assert np.max(np.abs(full - fast) / np.abs(full)) < 1e-3

    def test_m_avg_bounds(self):
        prof = ChannelProfile.preset("eva")
        fad = make_fading(prof, 100.0, seed=1)
        with pytest.raises(ChannelError):
            time_avg_cfr(fad, GEO, prof, n=0, m_avg=0)
        with pytest.raises(ChannelError):
            time_avg_cfr(fad, GEO, prof, n=0, m_avg=2048)

    def test_power_conservation_static(self):
        prof = ChannelProfile.preset("eva")
        total = 0.0
        trials = 4000
        for s in range(trials):
            fad = make_fading(prof, 0.0, seed=3000 + s)
            out = time_avg_cfr(fad, GEO, prof, n=0, m_avg=1)
            total += np.mean(np.abs(out) ** 2)
        assert total / trials == pytest.approx(1.0, rel=0.02)

    def test_delay_drift_moves_phase(self):
        prof = ChannelProfile("one", (100.0,), (0.0,))
        fad = make_fading(prof, 0.0, seed=9)
        still = time_avg_cfr(fad, GEO, prof, n=1000, drift_ns_per_s=0.0)
        moved = time_avg_cfr(fad, GEO, prof, n=1000, drift_ns_per_s=50.0)
        assert not np.allclose(still, moved)
        np.testing.assert_allclose(np.abs(still), np.abs(moved), rtol=1e-12)

    def test_drift_outside_cp_rejected(self):
        # 100 ns is 1.2 samples; at n=1000 (96 ms) -2e3 ns/s moves it to -1.1
        # samples and +2e5 ns/s to 231.6, past the 128-sample CP
        prof = ChannelProfile("one", (100.0,), (0.0,))
        fad = make_fading(prof, 0.0, seed=9)
        for drift in (-2e3, 2e5):
            with pytest.raises(ChannelError):
                time_avg_cfr(fad, GEO, prof, n=1000, drift_ns_per_s=drift)

    @pytest.mark.parametrize("name", ["eva", "etu"])
    @pytest.mark.parametrize("drift", [0.0, 1e4])
    @pytest.mark.parametrize("m_avg", [1, 64, GEO.n_tones])
    def test_range_equals_stacked_calls(self, name, drift, m_avg):
        # the range starts at 5 and ends 3 symbols into the kernel's
        # second chunk of runs
        prof = ChannelProfile.preset(name)
        fad = make_fading(prof, 400.0, seed=3)
        per_chunk = max(1, kernels.CHUNK_ELEMENTS // (fad.omegas.size * m_avg))
        symbols = range(5, 5 + per_chunk + 3)
        got = time_avg_cfr(fad, GEO, prof, symbols, m_avg=m_avg,
                           drift_ns_per_s=drift)
        want = np.stack([_cfr_one_symbol(fad, prof, n, m_avg, drift)
                         for n in symbols])
        assert got.shape == (len(symbols), GEO.n_pilots)
        np.testing.assert_array_equal(got, want)
        for k in (0, len(symbols) - 1):
            np.testing.assert_array_equal(
                time_avg_cfr(fad, GEO, prof, symbols[k], m_avg=m_avg,
                             drift_ns_per_s=drift), want[k])

    def test_range_drift_outside_cp_rejected(self):
        # -2e3 ns/s moves a 100 ns delay (1.2 samples) below 0 after
        # symbol 520, so only ranges that reach symbol 521 fail
        prof = ChannelProfile("one", (100.0,), (0.0,))
        fad = make_fading(prof, 0.0, seed=9)
        time_avg_cfr(fad, GEO, prof, range(500, 521), drift_ns_per_s=-2e3)
        for symbols in (range(500, 530), range(521, 522)):
            with pytest.raises(ChannelError):
                time_avg_cfr(fad, GEO, prof, symbols, drift_ns_per_s=-2e3)

    def test_stationarity_across_symbols(self):
        # lag-1 sample autocorrelation should not depend on where the
        # window sits: compare early/late halves of a long stream
        prof = ChannelProfile.preset("eva")
        fad = make_fading(prof, 300.0, seed=77)
        nsym = 1200
        h = np.stack([time_avg_cfr(fad, GEO, prof, n) for n in range(nsym)])
        def lag1(x):
            return np.mean(np.sum(x[1:] * np.conj(x[:-1]), axis=1)).real
        a = lag1(h[:nsym // 2])
        b = lag1(h[nsym // 2:])
        assert abs(a - b) < 0.25 * abs(a)
