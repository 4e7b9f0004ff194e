"""Streaming Doppler spread estimator.

Per OFDM symbol, :func:`step` first updates the stream state: one
QR-based low-rank recursion for the 0-lag pilot autocorrelation matrix
and two projected covariance accumulators in its basis, ``cov0``
(0-lag) and ``covb`` (beta-lag, see ``_accumulate``). It then reads the
estimate out of those accumulators with ``_read_out``, a pure function
of them: from the eigendecomposition of ``cov0`` it selects the model
order with MDL, estimates the noise floor and the correlation ratio
eta, and inverts eta into a Doppler estimate through the series
polynomial. The projected form subtracts the noise floor without the
bias the raw R diagonal picks up at low SNR, which is what makes the
low-SNR operating points usable.
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

# terms of the series polynomial that Newton's method inverts
SERIES_ORDER = 8

# The largest tracked energy E (the exponentially weighted ||h||^2) that
# step lets into the state; a snapshot that would lift E above it, or
# make it NaN, resets the stream instead. With Q and C of unit 2-norm,
# ||A||_F and trace(cov0) stay below E, so every eigenvalue of cov0 does
# too, and by Cauchy-Schwarz over the weighted sums ||covb||_F stays
# below the largest screened E. Hence in _eta_subspace num <= ||covb||_F^2
# <= 2^1000, and with sigma_n2 <= E / (P - L) over P pilots, den <= P E^2:
# both sums stay below 2^1024 for fewer than 2^23 pilots. cov0 + cov0^H
# stays below 2^501, and _blend's outer product below 2^500 / (1 - alpha).
# So no statistic and no read-out sum can overflow.
ENERGY_MAX = 2.0 ** 500


class TrackerError(Exception):
    pass


@dataclass(frozen=True)
class TrackerConfig:
    alpha: float = 0.995
    beta: int = 1
    max_rank: int = 10
    geo: OfdmGeometry = field(default_factory=OfdmGeometry)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise TrackerError("alpha must lie in (0, 1)")
        if not (1 <= self.beta <= 4):
            raise TrackerError("beta must be in {1, 2, 3, 4}")
        if not (1 <= self.max_rank <= self.geo.n_pilots):
            raise TrackerError("max_rank must lie in [1, %d], the pilot count"
                               % self.geo.n_pilots)


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

    ``q``, ``a`` and ``c`` are the lag-0 QR recursion (see
    :func:`update_lag0`); ``a = q r`` carries the R factor, which is not
    kept. ``qh`` is ``q.conj().T``, formed once per symbol when ``q`` is
    set and read by the next ``c`` and by ``_accumulate``. ``cov0`` and
    ``covb`` are the projected covariance accumulators in its basis (see
    ``_accumulate``), and ``energy`` the tracked ``||h||^2``; ``step``
    reads its estimate from these three alone.
    """

    def __init__(self, dim, cfg):
        dim = int(dim)
        if dim != cfg.geo.n_pilots:
            raise TrackerError("dim %d != the geometry's pilot count %d"
                               % (dim, cfg.geo.n_pilots))
        self.dim = dim
        self.cfg = cfg
        # per-stream constants of every step: the blend weights alpha and
        # 1 - alpha (complex, so NumPy casts no float per call) and MDL's
        # cap on the effective window
        self.weights = (np.complex128(cfg.alpha), np.complex128(1.0 - cfg.alpha))
        self.n_eff_cap = int(round(1.0 / (1.0 - cfg.alpha)))
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


def _qr(a):
    """Q and R's diagonal of ``np.linalg.qr(a)``, a tall complex128 ``a``,
    bit for bit.

    Calls the two LAPACK gufuncs ``np.linalg.qr`` calls, without its
    per-call wrapping; R's diagonal is that of the factored copy.
    """
    fac = a.copy()
    tau = _umath_linalg.qr_r_raw(fac)  # factors fac in place
    return _umath_linalg.qr_reduced(fac, tau), fac.diagonal()


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
    A <- alpha A C + (1 - alpha) Z0 Q_prev; QR-factorize; rotate Q's
    column phases so that diag(Q^H A) is real non-negative;
    C <- Q_prev^H Q_new.
    """
    h = snap.values
    if h.shape[0] != state.dim:
        raise TrackerError("snapshot length %d != %d" % (h.shape[0], state.dim))
    a_new = _blend(state.weights, state.a @ state.c, h, h.conj() @ state.q)
    q_new, r_diag = _qr(a_new)
    q_new *= _unit_phase(r_diag)
    state.c = state.qh @ q_new
    state.q = q_new
    state.qh = q_new.conj().T
    state.a = a_new


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


def _eta_subspace(covb, l_hat, sigma_n2, eigs, vecs):
    """Eta from the projected covariance accumulators (see module doc)."""
    proj_b = vecs.conj().T @ covb @ vecs
    num = float((abs(proj_b.diagonal()[:l_hat]) ** 2).sum())
    den = float(((eigs[:l_hat] - sigma_n2) ** 2).sum())
    if den <= 0.0:
        return math.nan  # no signal subspace energy: eta is undefined
    return math.sqrt(num / den)


def _read_out(cov0, covb, energy, n_eff, cfg, last_fd):
    """(fd_hat, eta_hat, L_hat, sigma_n2_hat, newton_iters, flags) read
    from the accumulators, the tracked ||h||^2 and the n_eff symbols they
    hold; fd_hat is last_fd where eta cannot be inverted. Touches no state.
    """
    herm = cov0 + cov0.conj().T
    herm *= 0.5
    # the LAPACK gufunc np.linalg.eigh calls, without its wrapping
    eigs, vecs = _umath_linalg.eigh_lo(herm)
    eigs = eigs[::-1]
    vecs = vecs[:, ::-1]
    l_hat = max(_mdl_order(eigs, max(n_eff, cfg.max_rank)), 1)
    sigma_n2 = max((energy - float(eigs[:l_hat].sum()))
                   / (cfg.geo.n_pilots - l_hat), 0.0)
    eta = _eta_subspace(covb, l_hat, sigma_n2, eigs, vecs)
    if eta >= 1.0:
        return 0.0, eta, l_hat, sigma_n2, 0, _ETA_CLAMPED
    try:
        poly = numerics.poly_coeffs(eta, cfg.beta * (1.0 + cfg.geo.r_cp),
                                    SERIES_ORDER)
        result = numerics.newton_solve(poly)
        fd = numerics.doppler_from_root(result.root, cfg.geo.n_tones,
                                        cfg.geo.t_sample)
    except numerics.NumericsError:
        # also the exit of an undefined (NaN) eta, which poly_coeffs rejects
        return last_fd, eta, l_hat, sigma_n2, 0, _NOT_CONVERGED
    return (fd, eta, l_hat, sigma_n2, result.iterations,
            _VALID if result.converged else _NOT_CONVERGED)


def step(state, snap):
    """Process one snapshot and emit a per-symbol Doppler estimate.

    Inner numerics failures surface as flags, never as exceptions or
    warnings, so a stream keeps running through transient bad estimates.
    A snapshot of the wrong length raises TrackerError and leaves the
    state as it was. A snapshot that would lift the tracked energy above
    ENERGY_MAX resets the stream state before it touches the statistics; its
    estimate and the next WARMUP_SYMBOLS are flagged warmup, and from
    then on the stream emits what a new stream fed the later snapshots
    would.
    """
    h = snap.values
    if h.shape[0] != state.dim:
        raise TrackerError("snapshot length %d != %d" % (h.shape[0], state.dim))
    cfg = state.cfg
    n = state.n
    # the exponentially weighted ||h||^2, for the trace-based noise floor;
    # bounded by ENERGY_MAX, it bounds every other statistic
    energy = cfg.alpha * state.energy + (1.0 - cfg.alpha) * _sq_norm(h)
    # advanced first, so a reset sets start = n + 1: the screened-out
    # snapshot is not in the restarted statistics
    state.n = n + 1
    if energy <= ENERGY_MAX:  # False for NaN too
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
    n_eff = min(n + 1 - state.start, state.n_eff_cap)
    est = DopplerEstimate(n, *_read_out(state.cov0, state.covb, state.energy,
                                        n_eff, cfg, state.last_fd))
    state.last_fd = est.fd_hat
    return est
