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
    # The workspace has shape (L, M, chunk); chunk over time to bound it.
    # No chunk holds a single instant: NumPy sums a one-instant chunk over
    # the oscillators pairwise, wider ones in sequence, so a lone instant
    # would not bit-equal the same instant requested with others.
    lone = times.shape[0] == 1
    if lone:
        times = np.repeat(times, 2)
    n_l, n_m = omegas.shape
    n_t = times.shape[0]
    out = np.empty((n_l, n_t), dtype=np.complex128)
    chunk = max(2, int(4e6 // (n_l * n_m)))
    starts = list(range(0, n_t, chunk))
    if len(starts) > 1 and n_t - starts[-1] == 1:
        starts.pop()  # fold a one-instant tail into the previous chunk
    for start, stop in zip(starts, starts[1:] + [n_t]):
        t = times[start:stop]
        # one workspace, reused in place: fresh temporaries of this size are
        # mapped and page-faulted on every call
        work = np.multiply(omegas[:, :, None], t)
        work += phases_i[:, :, None]
        re = np.cos(work, out=work).sum(axis=1)
        np.multiply(omegas[:, :, None], t, out=work)
        work += phases_q[:, :, None]
        im = np.cos(work, out=work).sum(axis=1)
        out[:, start:stop] = re + 1j * im
    out *= amps[:, None]
    return out[:, :1] if lone else out
