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

import functools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from . import numerics
from .channel import OfdmGeometry


# estimates flagged warmup from the start of a stream and from each reset
WARMUP_SYMBOLS = 20


class TrackerError(Exception):
    pass


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
        if not (1 <= self.max_rank <= self.geo.n_pilots):
            raise TrackerError("max_rank must lie in [1, %d], the pilot count"
                               % self.geo.n_pilots)
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


# the four flag values step emits, shared by every estimate
_VALID = EstimateFlags()
_WARMUP = EstimateFlags(warmup=True)
_ETA_CLAMPED = EstimateFlags(eta_clamped=True)
_NOT_CONVERGED = EstimateFlags(not_converged=True)


@dataclass(frozen=True)
class DopplerEstimate:
    n: int
    fd_hat: float
    eta_hat: float
    L_hat: int
    sigma_n2_hat: float
    newton_iters: int
    flags: EstimateFlags


class TrackerState:
    """Mutable per-stream state; single writer, updates in symbol order.

    ``q``, ``a``, ``c`` and ``r`` are the lag-0 QR recursion (see
    :func:`update_lag0`); ``qh`` is ``q.conj().T``, formed once per
    symbol when ``q`` is set and read by the next ``c`` and by
    ``_accumulate``. ``cov0`` and ``covb`` are the projected covariance
    accumulators in its basis (see ``_accumulate``).
    """

    def __init__(self, dim, cfg):
        dim = int(dim)
        if dim != cfg.geo.n_pilots:
            raise TrackerError("dim %d != the geometry's pilot count %d"
                               % (dim, cfg.geo.n_pilots))
        self.dim = dim
        self.cfg = cfg
        # per-stream constants of every step: the blend weights alpha and
        # 1 - alpha (complex, so NumPy casts no float per call), MDL's cap
        # on the effective window and the series' lag phi
        self.weights = (np.complex128(cfg.alpha), np.complex128(1.0 - cfg.alpha))
        self.n_eff_cap = int(round(1.0 / (1.0 - cfg.alpha)))
        self.phi = cfg.beta * (1.0 + cfg.geo.r_cp)
        self.n = 0
        self.last_fd = 0.0
        self.reset()

    def reset(self):
        """Forget every tracked statistic; ``n`` and ``last_fd`` carry on.

        ``start`` becomes ``n``: the first symbol whose snapshot the
        statistics hold. The estimates of symbols ``start`` to
        ``start + WARMUP_SYMBOLS - 1`` are flagged warmup.
        """
        dim, rank = self.dim, self.cfg.max_rank
        self.start = self.n
        self.q = np.zeros((dim, rank), dtype=np.complex128)
        self.q[:rank, :rank] = np.eye(rank)
        self.qh = self.q.conj().T
        self.a = np.zeros((dim, rank), dtype=np.complex128)
        self.c = np.eye(rank, dtype=np.complex128)
        self.r = np.zeros((rank, rank), dtype=np.complex128)
        self.buffer = deque(maxlen=self.cfg.beta + 1)
        self.cov0 = np.zeros((rank, rank), dtype=np.complex128)
        self.covb = np.zeros((rank, rank), dtype=np.complex128)
        self.energy = 0.0


def _blend(weights, old, col, row):
    """alpha * old + (1 - alpha) * outer(col, row), computed in old's buffer.

    weights is (alpha, 1 - alpha); old must be a temporary the caller owns.
    """
    keep, gain = weights
    outer = col[:, None] * row
    outer *= gain
    old *= keep
    old += outer
    return old


@functools.cache
def _strict_lower(rank):
    """Mask of a rank x rank matrix's strict lower triangle."""
    mask = np.tri(rank, k=-1, dtype=bool)
    mask.flags.writeable = False  # shared by every call
    return mask


def _qr(a):
    """``np.linalg.qr(a)`` of a tall complex128 ``a``, bit for bit.

    Calls the two LAPACK gufuncs ``np.linalg.qr`` calls, without its
    per-call wrapping; R is the upper triangle of the factored copy's
    first rows.
    """
    rank = a.shape[1]
    fac = a.copy()
    tau = _umath_linalg.qr_r_raw(fac)  # factors fac in place
    q = _umath_linalg.qr_reduced(fac, tau)
    r = fac[:rank]
    r[_strict_lower(rank)] = 0.0
    return q, r


def _unit_phase(d):
    """d / |d| for a complex vector d, and 1 where |d| is not positive."""
    mag = abs(d)
    if mag.min() > 0.0:  # also False if some magnitude is NaN
        return d / mag
    # a plain divide would warn on a zero magnitude
    return np.divide(d, mag, out=np.ones_like(d), where=mag > 0.0)


def _sq_norm(h):
    """||h||^2 of a complex vector as a float, without a conjugate copy."""
    return float(np.vdot(h, h).real)


def update_lag0(state, snap):
    """One exponentially weighted QR step for the 0-lag autocorrelation.

    With Z0 = h h^H (a rank-1 right product):
    A <- alpha A C + (1 - alpha) Z0 Q_prev; QR-factorize; rotate phases
    so diag(R) is real non-negative; C <- Q_prev^H Q_new.
    """
    h = snap.values
    if h.shape[0] != state.dim:
        raise TrackerError("snapshot length %d != %d" % (h.shape[0], state.dim))
    a_new = _blend(state.weights, state.a @ state.c, h, h.conj() @ state.q)
    q_new, r_new = _qr(a_new)
    ph = _unit_phase(r_new.diagonal())
    q_new *= ph
    r_new *= ph.conj()[:, None]
    state.c = state.qh @ q_new
    state.q = q_new
    state.qh = q_new.conj().T
    state.a = a_new
    state.r = r_new


def _accumulate(state, snap):
    """Advance the projected covariance accumulators in the lag-0 basis.

    With y = Q0(n)^H h(n) and C0 = Q0(n-1)^H Q0(n):
    G0 <- alpha C0^H G0 C0 + (1-alpha) y y^H, and likewise for the
    beta-lag accumulator with the buffered snapshot; the C0 transport
    keeps past contributions expressed in the current basis.
    """
    cfg = state.cfg
    h = snap.values
    c0 = state.c
    c0h = c0.conj().T
    qh = state.qh
    y = qh @ h
    state.cov0 = _blend(state.weights, c0h @ state.cov0 @ c0, y, y.conj())
    if len(state.buffer) >= cfg.beta:
        y_lag = qh @ state.buffer[-cfg.beta]
        state.covb = _blend(state.weights, c0h @ state.covb @ c0, y, y_lag.conj())


@functools.cache
def _mdl_index(lm):
    """MDL's per-candidate tail lengths L_m - k and 0.5 k (2 L_m - k)."""
    k = np.arange(lm)
    tail, penalty = lm - k, 0.5 * k * (2 * lm - k)
    tail.flags.writeable = penalty.flags.writeable = False  # shared by every call
    return tail, penalty


def _mdl_order(eigs, n_eff):
    """Minimum description length model order of descending eigenvalues.

    Returns argmin over k in [0, L_m - 1] of
    -n_eff (L_m - k) ln(geoMean / arithMean of the trailing L_m - k
    eigenvalues) + k (2 L_m - k) ln(n_eff) / 2, with n_eff >= L_m.

    The tail means of the eigenvalues and of their logs come from reverse
    cumulative sums, so every candidate k is scored at once. A NaN score
    is never chosen; with no finite score the order is 0.
    """
    eigs = np.maximum(eigs, 1e-15)
    tail, penalty = _mdl_index(eigs.size)
    geo = np.add.accumulate(np.log(eigs)[::-1])[::-1] / tail
    arith = np.add.accumulate(eigs[::-1])[::-1] / tail
    val = -n_eff * tail * (geo - np.log(arith)) + penalty * math.log(n_eff)
    # fmin maps NaN to inf, so argmin skips it
    return int(np.fmin(val, math.inf).argmin())


def _eta_subspace(state, l_hat, sigma_n2, eigs, vecs):
    """Eta from the projected covariance accumulators (see module doc)."""
    proj_b = vecs.conj().T @ state.covb @ vecs
    num = float((abs(proj_b.diagonal()[:l_hat]) ** 2).sum())
    den = float(((eigs[:l_hat] - sigma_n2) ** 2).sum())
    if den <= 0.0:
        return math.nan  # no signal subspace energy: eta is undefined
    return math.sqrt(num / den)


def step(state, snap):
    """Process one snapshot and emit a per-symbol Doppler estimate.

    Inner numerics failures surface as flags, never as exceptions or
    warnings, so a stream keeps running through transient bad estimates.
    A snapshot whose tracked energy would overflow resets the stream
    state before it touches the statistics; its estimate and the next
    WARMUP_SYMBOLS are flagged warmup, and from then on the stream emits
    what a new stream fed the later snapshots would.
    """
    # an overflow or NaN in the estimate (eta's sums on a huge stream)
    # ends in a flag, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        cfg = state.cfg
        n = state.n
        h = snap.values
        # The exponentially weighted ||h||^2, for the trace-based noise
        # floor. It also bounds the rest of the state: with Q and C of unit
        # 2-norm, ||A||_F and ||cov0||_F stay below it and covb below the
        # weighted ||h(n)|| ||h(n - beta)||, so screening it alone keeps
        # every statistic finite.
        energy = cfg.alpha * state.energy + (1.0 - cfg.alpha) * _sq_norm(h)
        # advanced first, so a reset sets start = n + 1: the screened-out
        # snapshot is not in the restarted statistics
        state.n = n + 1
        if math.isfinite(energy):
            update_lag0(state, snap)
            _accumulate(state, snap)
            state.energy = energy
            state.buffer.append(h)
        else:
            state.reset()

        # covb gets its first beta-lag product within beta + 1 symbols of
        # start, and beta + 1 <= 5 < WARMUP_SYMBOLS, so the window also
        # covers the buffer fill
        if n < state.start + WARMUP_SYMBOLS:
            return DopplerEstimate(n=n, fd_hat=state.last_fd,
                                   eta_hat=math.nan, L_hat=0,
                                   sigma_n2_hat=math.nan, newton_iters=0,
                                   flags=_WARMUP)

        herm = state.cov0 + state.cov0.conj().T
        herm *= 0.5
        # the LAPACK gufunc np.linalg.eigh calls, without its wrapping
        eigs, vecs = _umath_linalg.eigh_lo(herm)
        eigs = eigs[::-1]
        vecs = vecs[:, ::-1]
        n_eff = min(n + 1 - state.start, state.n_eff_cap)
        l_hat = max(_mdl_order(eigs, max(n_eff, cfg.max_rank)), 1)
        sigma_n2 = max((state.energy - float(eigs[:l_hat].sum()))
                       / (state.dim - l_hat), 0.0)
        eta = _eta_subspace(state, l_hat, sigma_n2, eigs, vecs)

        if eta >= 1.0:
            state.last_fd = 0.0
            return DopplerEstimate(n=n, fd_hat=0.0, eta_hat=eta, L_hat=l_hat,
                                   sigma_n2_hat=sigma_n2, newton_iters=0,
                                   flags=_ETA_CLAMPED)

        try:
            poly = numerics.poly_coeffs(eta, state.phi, cfg.series_order)
            result = numerics.newton_solve(poly)
            fd = numerics.doppler_from_root(result.root, cfg.geo.n_tones,
                                            cfg.geo.t_sample)
        except numerics.NumericsError:
            # also the exit of an undefined (NaN) eta, which poly_coeffs rejects
            return DopplerEstimate(n=n, fd_hat=state.last_fd, eta_hat=eta,
                                   L_hat=l_hat, sigma_n2_hat=sigma_n2,
                                   newton_iters=0, flags=_NOT_CONVERGED)
        state.last_fd = fd
        return DopplerEstimate(
            n=n, fd_hat=fd, eta_hat=eta, L_hat=l_hat, sigma_n2_hat=sigma_n2,
            newton_iters=result.iterations,
            flags=_VALID if result.converged else _NOT_CONVERGED)
