"""Fading synthesis kernel: sum-of-sinusoids path gains in NumPy."""

import os
import threading

import numpy as np

# Workspace elements per thread: the (L, M, chunk) float64 workspace
# (288 KiB) holds one symbol's 64 instants at L=9, M=64, so a per-symbol
# EVA or ETU call is one chunk and starts no thread.
CHUNK_ELEMENTS = 9 * 64 * 64

# Threads per sos_gains call; None means one per CPU. A run_grid pool
# worker sets its share of the CPUs here when it starts.
_threads = None


def cpu_count():
    """CPUs available to run_grid's pool and to the kernel's threads."""
    return os.cpu_count() or 1


def _init_pool_worker(threads):
    global _threads
    _threads = threads


def sos_gains(amps, omegas, phases_i, phases_q, times):
    """Evaluate sum-of-sinusoids path gains on a time grid.

    The time chunks are shared out among up to one thread per CPU. Every
    instant's value is independent of the chunking and of the threads.

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
    chunk = max(2, CHUNK_ELEMENTS // (n_l * n_m))
    starts = list(range(0, n_t, chunk))
    if len(starts) > 1 and n_t - starts[-1] == 1:
        starts.pop()  # fold a one-instant tail into the previous chunk
    chunks = list(zip(starts, starts[1:] + [n_t]))
    if len(chunks) == 1:
        n_threads = 1  # skips cpu_count(), which reads a file on Linux
    else:
        n_threads = min(_threads or cpu_count(), len(chunks))
    # one workspace per thread, reused in place: fresh temporaries of this
    # size are mapped and page-faulted on every chunk. The threads take
    # chunks from one shared iterator, so one on a busier CPU takes fewer.
    size = n_l * n_m * max(stop - start for start, stop in chunks)
    todo = iter(chunks)
    args = [(omegas, phases_i, phases_q, times, out, todo, np.empty(size))
            for _ in range(n_threads)]
    errors = []
    helpers = [threading.Thread(target=_fill_helper, args=(errors,) + a)
               for a in args[1:]]
    for h in helpers:
        h.start()
    try:
        _fill(*args[0])
    finally:
        for h in helpers:
            h.join()
    if errors:
        raise errors[0]
    out *= amps[:, None]
    return out[:, :1] if lone else out


def _fill(omegas, phases_i, phases_q, times, out, chunks, buf):
    """Write the unscaled gains of the time chunks taken from chunks into out."""
    n_l, n_m = omegas.shape
    for start, stop in chunks:
        t = times[start:stop]
        work = buf[:n_l * n_m * (stop - start)].reshape(n_l, n_m, stop - start)
        np.multiply(omegas[:, :, None], t, out=work)
        work += phases_i[:, :, None]
        re = np.cos(work, out=work).sum(axis=1)
        np.multiply(omegas[:, :, None], t, out=work)
        work += phases_q[:, :, None]
        im = np.cos(work, out=work).sum(axis=1)
        out[:, start:stop] = re + 1j * im


def _fill_helper(errors, *args):
    """_fill on a helper thread; its exception is raised by the caller."""
    try:
        _fill(*args)
    except Exception as exc:
        errors.append(exc)
