import math
import threading

import numpy as np
import pytest

from dopplertrack import kernels


def make_inputs(seed=0, n_l=9, n_m=64, n_t=257):
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.05, 0.4, size=n_l)
    omegas = rng.uniform(-2500.0, 2500.0, size=(n_l, n_m))
    phases_i = rng.uniform(0, 2 * np.pi, size=(n_l, n_m))
    phases_q = rng.uniform(0, 2 * np.pi, size=(n_l, n_m))
    times = np.sort(rng.uniform(0, 0.05, size=n_t))
    return amps, omegas, phases_i, phases_q, times


def test_matches_python_loop():
    # independent oracle: the sum-of-sinusoids definition, term by term
    a, w, pi_, pq, t = make_inputs(seed=11, n_l=2, n_m=16, n_t=7)
    g = kernels.sos_gains(a, w, pi_, pq, t)
    assert g.shape == (2, 7)
    for l in range(2):
        for k in range(7):
            acc = 0j
            for m in range(16):
                acc += (math.cos(w[l, m] * t[k] + pi_[l, m])
                        + 1j * math.cos(w[l, m] * t[k] + pq[l, m]))
            assert abs(g[l, k] - a[l] * acc) <= 1e-12


# chunk width, in instants, at L=9, M=64
WIDTH = kernels.CHUNK_ELEMENTS // (9 * 64)


def test_reference_chunking_consistent():
    # 1.5 chunks of instants cross one chunk boundary, and the split
    # point lies inside the first chunk
    args = make_inputs(seed=3, n_t=WIDTH + WIDTH // 2)
    whole = kernels.sos_gains(*args)
    a, w, pi_, pq, t = args
    cut = WIDTH // 3
    parts = np.concatenate([kernels.sos_gains(a, w, pi_, pq, t[:cut]),
                            kernels.sos_gains(a, w, pi_, pq, t[cut:])],
                           axis=1)
    np.testing.assert_array_equal(whole, parts)


def test_instant_independent_of_batch():
    # WIDTH + 1 instants leave a one-instant tail after the first chunk;
    # every instant must come out bit-equal whether it is requested
    # alone, in a pair or in the whole batch
    a, w, pi_, pq, t = make_inputs(seed=9, n_t=WIDTH + 1)
    whole = kernels.sos_gains(a, w, pi_, pq, t)
    for k in (0, 1, 17, WIDTH // 2, WIDTH - 1, WIDTH):
        alone = kernels.sos_gains(a, w, pi_, pq, t[k:k + 1])
        pair = kernels.sos_gains(a, w, pi_, pq, t[k - 1:k + 1] if k else t[:2])
        assert alone.shape == (9, 1)
        np.testing.assert_array_equal(alone[:, 0], whole[:, k])
        np.testing.assert_array_equal(pair[:, 1 if k else 0], whole[:, k])


# 1, 2, 3 and 5 chunks; 2 * WIDTH + 1 folds its one-instant tail into
# the second chunk
@pytest.mark.parametrize("n_t", [WIDTH, 2 * WIDTH, 3 * WIDTH - 5, 5 * WIDTH,
                                 2 * WIDTH + 1])
@pytest.mark.parametrize("threads", [2, 3])
def test_threads_match_single_thread(monkeypatch, n_t, threads):
    args = make_inputs(seed=13, n_t=n_t)
    monkeypatch.setattr(kernels, "_threads", 1)
    single = kernels.sos_gains(*args)
    monkeypatch.setattr(kernels, "_threads", threads)
    np.testing.assert_array_equal(kernels.sos_gains(*args), single)


def test_no_thread_outlives_call(monkeypatch):
    monkeypatch.setattr(kernels, "_threads", 3)
    before = threading.active_count()
    kernels.sos_gains(*make_inputs(seed=15, n_t=4 * WIDTH))
    assert threading.active_count() == before


def test_determinism():
    args = make_inputs(seed=5)
    np.testing.assert_array_equal(kernels.sos_gains(*args), kernels.sos_gains(*args))


def test_zero_frequencies_constant():
    a, w, pi_, pq, t = make_inputs(seed=7)
    w = np.zeros_like(w)
    g = kernels.sos_gains(a, w, pi_, pq, t)
    assert np.max(np.abs(g - g[:, :1])) == 0.0
