"""Fading synthesis kernel: sum-of-sinusoids path gains in NumPy."""

import numpy as np


def sos_gains(amps, omegas, phases_i, phases_q, times):
    """Evaluate sum-of-sinusoids path gains on a time grid.

    Parameters
    ----------
    amps : (L,) float array
        Per-path amplitude sqrt(sigma_l^2 / M).
    omegas : (L, M) float array
        Oscillator angular Doppler frequencies.
    phases_i, phases_q : (L, M) float arrays
        In-phase / quadrature oscillator phases.
    times : (nt,) float array
        Evaluation instants in seconds.

    Returns
    -------
    (L, nt) complex array of path gains.
    """
    amps = np.asarray(amps, dtype=np.float64)
    omegas = np.asarray(omegas, dtype=np.float64)
    phases_i = np.asarray(phases_i, dtype=np.float64)
    phases_q = np.asarray(phases_q, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    # arg has shape (L, M, nt); chunk over time to bound the workspace
    n_l, n_m = omegas.shape
    n_t = times.shape[0]
    out = np.empty((n_l, n_t), dtype=np.complex128)
    chunk = max(1, int(4e6 // (n_l * n_m)))
    for start in range(0, n_t, chunk):
        t = times[start:start + chunk]
        arg = omegas[:, :, None] * t[None, None, :]
        re = np.cos(arg + phases_i[:, :, None]).sum(axis=1)
        im = np.cos(arg + phases_q[:, :, None]).sum(axis=1)
        out[:, start:start + chunk] = re + 1j * im
    out *= amps[:, None]
    return out
