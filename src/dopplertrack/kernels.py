"""Fading synthesis kernel: sum-of-sinusoids path gains in NumPy."""

import os
import threading

import numpy as np

# Workspace elements per thread: the (L, M, chunk) float64 workspace
# (288 KiB) holds one symbol's 64 instants at L=9, M=64, so a per-symbol
# EVA or ETU call is one chunk and starts no thread. A chunk holds whole
# runs of m_avg instants, at least one: 4.7 MB at m_avg = 1024.
CHUNK_ELEMENTS = 9 * 64 * 64

# Threads per sos_gains call; None means one per CPU. A run_grid pool
# worker sets its share of the CPUs here when it starts.
_threads = None


def cpu_count():
    """CPUs this process may run on: run_grid's pool and the kernel's threads.

    The affinity mask where the platform has one (taskset, cgroup
    cpusets), else every CPU of the machine.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _init_pool_worker(threads):
    global _threads
    _threads = threads


def sos_gains(amps, omegas, phases_i, phases_q, times, m_avg=1):
    """Evaluate sum-of-sinusoids path gains, averaged over runs of instants.

    The instants are taken in runs of m_avg consecutive ones, and each
    run's mean gain is returned; m_avg = 1 gives every instant's gain.
    The time chunks, each of whole runs, are shared out among up to one
    thread per CPU. Every run's value is independent of the chunking and
    of the threads.

    Parameters
    ----------
    amps : (L,) float array
        Per-path amplitude sqrt(sigma_l^2 / M).
    omegas : (L, M) float array
        Oscillator angular Doppler frequencies.
    phases_i, phases_q : (L, M) float arrays
        In-phase / quadrature oscillator phases.
    times : (nt,) float array
        Evaluation instants in seconds; nt is a multiple of m_avg.
    m_avg : int
        Instants per run.

    Returns
    -------
    (L, nt // m_avg) complex array of mean path gains.
    """
    amps = np.asarray(amps, dtype=np.float64)
    omegas = np.asarray(omegas, dtype=np.float64)
    phases_i = np.asarray(phases_i, dtype=np.float64)
    phases_q = np.asarray(phases_q, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if m_avg < 1:
        raise ValueError("m_avg must be >= 1, got %r" % (m_avg,))
    if times.shape[0] % m_avg:
        raise ValueError("%d instants are not whole runs of %d"
                         % (times.shape[0], m_avg))
    # The workspace has shape (L, M, chunk); chunk over time to bound it.
    # No chunk holds a single instant: NumPy sums a one-instant chunk over
    # the oscillators pairwise, wider ones in sequence, so a lone instant
    # would not bit-equal the same instant requested with others (a chunk
    # holds whole runs, so this concerns m_avg = 1 only).
    lone = times.shape[0] == 1
    if lone:
        times = np.repeat(times, 2)
    n_l, n_m = omegas.shape
    n_runs = times.shape[0] // m_avg
    out = np.empty((n_l, n_runs), dtype=np.complex128)
    # the chunk width in instants, rounded down to whole runs
    per_chunk = max(1, max(2, CHUNK_ELEMENTS // (n_l * n_m)) // m_avg)
    starts = list(range(0, n_runs, per_chunk)) or [0]  # no runs: one empty chunk
    if len(starts) > 1 and (n_runs - starts[-1]) * m_avg == 1:
        starts.pop()  # fold a one-instant tail into the previous chunk
    chunks = list(zip(starts, starts[1:] + [n_runs]))
    if len(chunks) == 1:
        n_threads = 1  # skips the cpu_count() system call
    else:
        n_threads = min(_threads or cpu_count(), len(chunks))
    # one workspace per thread, reused in place: fresh temporaries of this
    # size are mapped and page-faulted on every chunk. The threads take
    # chunks from one shared iterator, so one on a busier CPU takes fewer.
    size = n_l * n_m * m_avg * max(stop - start for start, stop in chunks)
    todo = iter(chunks)
    args = [(amps, omegas, phases_i, phases_q, times, m_avg, out, todo,
             np.empty(size)) for _ in range(n_threads)]
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
    return out[:, :1] if lone else out


def _fill(amps, omegas, phases_i, phases_q, times, m_avg, out, chunks, buf):
    """Write the mean gains of the run chunks taken from chunks into out."""
    n_l, n_m = omegas.shape
    for start, stop in chunks:
        t = times[start * m_avg:stop * m_avg]
        work = buf[:n_l * n_m * t.size].reshape(n_l, n_m, t.size)
        np.multiply(omegas[:, :, None], t, out=work)
        work += phases_i[:, :, None]
        re = np.cos(work, out=work).sum(axis=1)
        np.multiply(omegas[:, :, None], t, out=work)
        work += phases_q[:, :, None]
        im = np.cos(work, out=work).sum(axis=1)
        gains = re + 1j * im
        gains *= amps[:, None]
        out[:, start:stop] = gains.reshape(n_l, stop - start, m_avg).mean(axis=2)


def _fill_helper(errors, *args):
    """_fill on a helper thread; its exception is raised by the caller."""
    try:
        _fill(*args)
    except Exception as exc:
        errors.append(exc)
