import math

import numpy as np
import pytest

from dopplertrack.frontend import PilotSnapshot, ls_observe, noise_variance


@pytest.fixture
def rng():
    return np.random.default_rng(321)


def test_noiseless_passthrough(rng):
    h = rng.normal(size=128) + 1j * rng.normal(size=128)
    snap = ls_observe(h, math.inf, rng, n=7)
    np.testing.assert_array_equal(snap.values, h)
    assert snap.n == 7
    assert snap.values is not h  # defensive copy


def test_snr0_unit_variance(rng):
    h = np.zeros(128, dtype=complex)
    draws = np.concatenate([ls_observe(h, 0.0, rng).values
                            for _ in range(800)])
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=0.02)


def test_snr15_variance(rng):
    assert noise_variance(15.0) == pytest.approx(0.0316, abs=2e-4)
    h = np.zeros(128, dtype=complex)
    draws = np.concatenate([ls_observe(h, 15.0, rng).values
                            for _ in range(800)])
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(noise_variance(15.0), rel=0.03)


def test_circularity(rng):
    h = np.zeros(128, dtype=complex)
    draws = np.concatenate([ls_observe(h, 10.0, rng).values
                            for _ in range(800)])
    s2 = noise_variance(10.0)
    assert np.var(draws.real) == pytest.approx(s2 / 2, rel=0.05)
    assert np.var(draws.imag) == pytest.approx(s2 / 2, rel=0.05)
    # pseudo-variance of a circular variable vanishes
    assert abs(np.mean(draws ** 2)) < 0.02 * s2


def test_noise_whiteness(rng):
    h = np.zeros(128, dtype=complex)
    block = np.stack([ls_observe(h, 0.0, rng).values for _ in range(800)])
    corr = block[:, :-1] * np.conj(block[:, 1:])
    assert abs(np.mean(corr)) < 0.02


def test_noise_added_to_signal(rng):
    h = np.ones(64, dtype=complex)
    snap = ls_observe(h, 20.0, rng, n=3)
    assert snap.values.shape == (64,)
    assert not np.array_equal(snap.values, h)
    assert np.mean(np.abs(snap.values - h) ** 2) == pytest.approx(0.01, rel=0.5)


def test_invalid_snr(rng):
    with pytest.raises(ValueError):
        ls_observe(np.zeros(4, dtype=complex), math.nan, rng)


def test_snapshot_rejects_nonfinite():
    with pytest.raises(ValueError):
        PilotSnapshot(n=0, values=np.array([1.0 + 0j, math.inf + 0j]), snr_db=10.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            PilotSnapshot(n=0, values=np.array([1.0, bad], dtype=np.complex64),
                          snr_db=10.0)


def test_snapshot_accepts_strided_view():
    x = np.arange(8, dtype=np.complex128)
    snap = PilotSnapshot(n=0, values=x[::2], snr_db=10.0)
    np.testing.assert_array_equal(snap.values, [0, 2, 4, 6])
