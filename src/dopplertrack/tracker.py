"""Streaming Doppler spread estimator.

Per OFDM symbol, :func:`step` runs one QR-based low-rank recursion, for
the 0-lag pilot autocorrelation matrix, and advances two projected
covariance accumulators in its basis: ``cov0`` (0-lag) and ``covb``
(beta-lag, see ``_accumulate``). From the eigendecomposition of
``cov0`` it selects the model order with MDL, estimates the noise floor
and the correlation ratio eta, and inverts eta into a Doppler estimate
through the series polynomial. The projected form subtracts the noise
floor without the bias the raw R diagonal picks up at low SNR, which is
what makes the low-SNR operating points usable.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .channel import OfdmGeometry


# estimates flagged warmup from the start of a stream and from each reset
WARMUP_SYMBOLS = 20


class TrackerError(Exception):
    pass


class EtaUndefinedError(TrackerError):
    """No signal-subspace energy to form the eta denominator."""


@dataclass(frozen=True)
class TrackerConfig:
    alpha: float = 0.995
    beta: int = 1
    max_rank: int = 10
    series_order: int = 8
    geo: OfdmGeometry = field(default_factory=OfdmGeometry)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise TrackerError("alpha must lie in (0, 1)")
        if not (1 <= self.beta <= 4):
            raise TrackerError("beta must be in {1, 2, 3, 4}")
        if self.max_rank < 1:
            raise TrackerError("max_rank must be >= 1")
        if self.series_order < 2:
            raise TrackerError("series_order must be >= 2")


@dataclass(frozen=True)
class EstimateFlags:
    warmup: bool = False
    eta_clamped: bool = False
    not_converged: bool = False

    def labels(self):
        out = []
        if self.warmup:
            out.append("warmup")
        if self.eta_clamped:
            out.append("eta_clamped")
        if self.not_converged:
            out.append("not_converged")
        return out


@dataclass(frozen=True)
class DopplerEstimate:
    n: int
    fd_hat: float
    eta_hat: float
    L_hat: int
    sigma_n2_hat: float
    newton_iters: int
    flags: EstimateFlags


class _LagState:
    """Q/A/C/R quadruple of one low-rank QR recursion."""

    __slots__ = ("q", "a", "c", "r")

    def __init__(self, dim, rank):
        self.q = np.zeros((dim, rank), dtype=np.complex128)
        self.q[:rank, :rank] = np.eye(rank)
        self.a = np.zeros((dim, rank), dtype=np.complex128)
        self.c = np.eye(rank, dtype=np.complex128)
        self.r = np.zeros((rank, rank), dtype=np.complex128)


class TrackerState:
    """Mutable per-stream state; single writer, updates in symbol order."""

    def __init__(self, dim, cfg):
        self.dim = int(dim)
        self.cfg = cfg
        self.n = 0
        self.last_fd = 0.0
        self.reset()

    def reset(self):
        """Forget every tracked statistic; ``n`` and ``last_fd`` carry on.

        The estimates of symbols ``n`` to ``n + WARMUP_SYMBOLS - 1`` are
        flagged warmup.
        """
        rank = self.cfg.max_rank
        self.warmup_end = self.n + WARMUP_SYMBOLS
        self.lag0 = _LagState(self.dim, rank)
        self.buffer = deque(maxlen=self.cfg.beta + 1)
        # projected covariance accumulators in the lag0 basis
        self.cov0 = np.zeros((rank, rank), dtype=np.complex128)
        self.covb = np.zeros((rank, rank), dtype=np.complex128)
        self.energy = 0.0


def update_lag0(state, snap):
    """One exponentially weighted QR step for the 0-lag autocorrelation.

    With Z0 = h h^H (a rank-1 right product):
    A <- alpha A C + (1 - alpha) Z0 Q_prev; QR-factorize; rotate phases
    so diag(R) is real non-negative; C <- Q_prev^H Q_new.
    Returns True if the new A was not finite; the whole stream state has
    then been reset (:meth:`TrackerState.reset`).
    """
    h = snap.values
    if h.shape[0] != state.dim:
        raise TrackerError("snapshot length %d != %d" % (h.shape[0], state.dim))
    lag = state.lag0
    alpha = state.cfg.alpha
    zq = np.outer(h, h.conj() @ lag.q)
    a_new = alpha * (lag.a @ lag.c) + (1.0 - alpha) * zq
    if not np.all(np.isfinite(a_new.view(np.float64))):
        state.reset()
        return True
    q_new, r_new = np.linalg.qr(a_new)
    d = np.diagonal(r_new)
    mag = np.abs(d)
    nonzero = mag > 0.0
    ph = np.where(nonzero, d / np.where(nonzero, mag, 1.0), 1.0)
    q_new = q_new * ph[None, :]
    r_new = r_new * np.conj(ph)[:, None]
    lag.c = lag.q.conj().T @ q_new
    lag.q = q_new
    lag.a = a_new
    lag.r = r_new
    return False


def _accumulate(state, snap):
    """Advance the projected covariance accumulators in the lag0 basis.

    With y = Q0(n)^H h(n) and C0 = Q0(n-1)^H Q0(n):
    G0 <- alpha C0^H G0 C0 + (1-alpha) y y^H, and likewise for the
    beta-lag accumulator with the buffered snapshot; the C0 transport
    keeps past contributions expressed in the current basis. A scalar
    exponentially weighted ||h||^2 tracks the total energy for the
    trace-based noise floor.

    Returns True if that energy overflowed; the whole stream state has
    then been reset (:meth:`TrackerState.reset`).
    """
    cfg = state.cfg
    alpha = cfg.alpha
    h = snap.values
    c0 = state.lag0.c
    y = state.lag0.q.conj().T @ h
    state.energy = alpha * state.energy + (1.0 - alpha) * float(np.real(h.conj() @ h))
    state.cov0 = alpha * (c0.conj().T @ state.cov0 @ c0) + (1.0 - alpha) * np.outer(y, y.conj())
    if len(state.buffer) >= cfg.beta:
        y_lag = state.lag0.q.conj().T @ state.buffer[-cfg.beta]
        state.covb = alpha * (c0.conj().T @ state.covb @ c0) + (1.0 - alpha) * np.outer(y, y_lag.conj())
    if not math.isfinite(state.energy):
        state.reset()
        return True
    return False


def _mdl_order(eigs, n_eff):
    """MDL order of eigenvalues already sorted descending (see mdl_order).

    The tail means of the eigenvalues and of their logs come from reverse
    cumulative sums, so every candidate k is scored at once. A NaN score
    is never chosen; with no finite score the order is 0.
    """
    eigs = np.maximum(eigs, 1e-15)
    lm = eigs.size
    k = np.arange(lm)
    tail = lm - k
    geo = np.add.accumulate(np.log(eigs)[::-1])[::-1] / tail
    arith = np.add.accumulate(eigs[::-1])[::-1] / tail
    val = -n_eff * tail * (geo - np.log(arith)) \
        + 0.5 * k * (2 * lm - k) * math.log(n_eff)
    # fmin maps NaN to inf, so argmin skips it
    return int(np.fmin(val, math.inf).argmin())


def mdl_order(eigs, n_eff):
    """Minimum description length model order from descending eigenvalues.

    Returns argmin over k in [0, L_m - 1] of
    -n_eff (L_m - k) ln(geoMean / arithMean of the trailing L_m - k
    eigenvalues) + k (2 L_m - k) ln(n_eff) / 2.
    """
    eigs = np.asarray(eigs, dtype=float)
    lm = eigs.size
    if n_eff < lm:
        raise TrackerError("n_eff must be >= the eigenvalue count")
    if np.any(np.diff(eigs) > 1e-12 * max(1.0, abs(eigs[0]))):
        raise TrackerError("eigenvalues must be sorted descending")
    return _mdl_order(eigs, n_eff)


def _eta_subspace(state, l_hat, sigma_n2, eigs, vecs):
    """Eta from the projected covariance accumulators (see module doc)."""
    proj_b = vecs.conj().T @ state.covb @ vecs
    num = float(np.sum(np.abs(np.diagonal(proj_b))[:l_hat] ** 2))
    den = float(np.sum((eigs[:l_hat] - sigma_n2) ** 2))
    if den <= 0.0:
        raise EtaUndefinedError("no signal subspace energy")
    return math.sqrt(num / den)


def step(state, snap):
    """Process one snapshot and emit a per-symbol Doppler estimate.

    Inner numerics failures surface as flags, never as exceptions, so a
    stream keeps running through transient bad estimates. A snapshot
    that overflows the tracked statistics resets the stream state
    without being kept; its estimate and the next WARMUP_SYMBOLS - 1
    are flagged warmup.
    """
    cfg = state.cfg
    n = state.n
    # a reset inside these calls starts its warmup window at symbol n
    restarted = update_lag0(state, snap) or _accumulate(state, snap)
    state.n = n + 1
    if not restarted:
        state.buffer.append(snap.values)

    # covb gets its first beta-lag product within beta + 1 symbols of the
    # window start, and beta + 1 <= 5 < WARMUP_SYMBOLS, so the window
    # also covers the buffer fill
    if n < state.warmup_end:
        return DopplerEstimate(n=n, fd_hat=state.last_fd, eta_hat=math.nan,
                               L_hat=0, sigma_n2_hat=math.nan, newton_iters=0,
                               flags=EstimateFlags(warmup=True))

    herm = 0.5 * (state.cov0 + state.cov0.conj().T)
    eigs, vecs = np.linalg.eigh(herm)
    eigs = eigs[::-1]
    vecs = vecs[:, ::-1]
    n_eff = min(n + 1, int(round(1.0 / (1.0 - cfg.alpha))))
    l_hat = max(_mdl_order(eigs, max(n_eff, cfg.max_rank)), 1)
    sigma_n2 = max((state.energy - float(eigs[:l_hat].sum())) / (state.dim - l_hat), 0.0)

    try:
        eta = _eta_subspace(state, l_hat, sigma_n2, eigs, vecs)
    except EtaUndefinedError:
        return DopplerEstimate(n=n, fd_hat=state.last_fd, eta_hat=math.nan,
                               L_hat=l_hat, sigma_n2_hat=sigma_n2, newton_iters=0,
                               flags=EstimateFlags(not_converged=True))

    if eta >= 1.0:
        state.last_fd = 0.0
        return DopplerEstimate(n=n, fd_hat=0.0, eta_hat=eta, L_hat=l_hat,
                               sigma_n2_hat=sigma_n2, newton_iters=0,
                               flags=EstimateFlags(eta_clamped=True))

    phi = cfg.beta * (1.0 + cfg.geo.r_cp)
    try:
        poly = numerics.poly_coeffs(eta, phi, cfg.series_order)
        result = numerics.newton_solve(poly)
        fd = numerics.doppler_from_root(result.root, cfg.geo.n_tones,
                                        cfg.geo.t_sample)
    except numerics.NumericsError:
        return DopplerEstimate(n=n, fd_hat=state.last_fd, eta_hat=eta,
                               L_hat=l_hat, sigma_n2_hat=sigma_n2, newton_iters=0,
                               flags=EstimateFlags(not_converged=True))
    state.last_fd = fd
    return DopplerEstimate(n=n, fd_hat=fd, eta_hat=eta, L_hat=l_hat,
                           sigma_n2_hat=sigma_n2, newton_iters=result.iterations,
                           flags=EstimateFlags(not_converged=not result.converged))
