"""Multipath Rayleigh channel synthesis with Jakes Doppler spectrum.

A :class:`ChannelProfile` holds the tapped-delay-line description
(non-sample-spaced delays, normalized powers). :func:`make_fading`
draws a sum-of-sinusoids realization whose per-path gains are evaluable
at arbitrary continuous time, and :func:`time_avg_cfr` produces the
per-symbol time-averaged channel frequency response on the equispaced
pilot tones.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels


class ChannelError(Exception):
    pass


# 3GPP E-UTRA tapped-delay-line presets
_EVA_DELAYS_NS = (0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0)
_EVA_POWERS_DB = (0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9)
_ETU_DELAYS_NS = (0.0, 50.0, 120.0, 200.0, 230.0, 500.0, 1600.0, 2300.0, 5000.0)
_ETU_POWERS_DB = (-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, -3.0, -5.0, -7.0)


@dataclass(frozen=True)
class OfdmGeometry:
    """OFDM numerology: FFT size, CP length, sample period, pilot count."""

    n_tones: int = 1024
    cp_len: int = 128
    t_sample: float = 1.0 / 12e6
    n_pilots: int = 128

    def __post_init__(self):
        if self.n_tones <= 0 or self.cp_len <= 0 or self.n_pilots <= 0:
            raise ChannelError("geometry counts must be positive")
        if self.n_tones % self.n_pilots != 0:
            raise ChannelError("pilot count must divide the tone count")

    @property
    def r_cp(self):
        return self.cp_len / self.n_tones

    @property
    def symbol_duration(self):
        """Whole-symbol duration T_s = (1 + r_cp) N T."""
        return (1.0 + self.r_cp) * self.n_tones * self.t_sample

    @property
    def pilot_indices(self):
        """Equispaced pilot tone indices theta_p = p * N / P."""
        return np.arange(self.n_pilots) * (self.n_tones // self.n_pilots)


@dataclass(frozen=True)
class ChannelProfile:
    """Tapped-delay-line profile; powers renormalized so they sum to 1."""

    name: str
    delays_ns: tuple
    powers_db: tuple

    def __post_init__(self):
        if len(self.delays_ns) != len(self.powers_db):
            raise ChannelError("delays and powers must have equal length")
        if len(self.delays_ns) == 0:
            raise ChannelError("profile needs at least one path")
        d = np.asarray(self.delays_ns, dtype=float)
        if d[0] < 0 or np.any(np.diff(d) <= 0):
            raise ChannelError("delays must be non-negative and strictly increasing")

    @property
    def n_paths(self):
        return len(self.delays_ns)

    @property
    def powers_linear(self):
        """Per-path linear powers sigma_l^2, normalized to unit sum."""
        p = 10.0 ** (np.asarray(self.powers_db, dtype=float) / 10.0)
        return p / p.sum()

    def normalized_delays(self, geo):
        """Real-valued delays tau_l = delay / T, checked against the CP."""
        tau = np.asarray(self.delays_ns, dtype=float) * 1e-9 / geo.t_sample
        if tau[-1] > geo.cp_len:
            raise ChannelError(
                "max delay %.1f samples exceeds CP length %d" % (tau[-1], geo.cp_len)
            )
        return tau

    @classmethod
    def preset(cls, name):
        key = name.lower()
        if key == "eva":
            return cls("eva", _EVA_DELAYS_NS, _EVA_POWERS_DB)
        if key == "etu":
            return cls("etu", _ETU_DELAYS_NS, _ETU_POWERS_DB)
        raise ChannelError("unknown profile preset %r" % name)

    @classmethod
    def from_dict(cls, d):
        """Build from a config mapping: {name, delays_ns, powers_db}."""
        try:
            return cls(
                name=str(d.get("name", "custom")),
                delays_ns=tuple(float(x) for x in d["delays_ns"]),
                powers_db=tuple(float(x) for x in d["powers_db"]),
            )
        except KeyError as exc:
            raise ChannelError("profile mapping missing key %s" % exc) from exc


@dataclass(frozen=True)
class FadingRealization:
    """One drawn sum-of-sinusoids realization, immutable after creation.

    Each path carries M oscillators at angular Doppler frequencies
    2 pi f_d cos(theta_i) with independent uniform phases per quadrature
    branch, so the ensemble time correlation is sigma_l^2 J0(2 pi f_d dt).
    """

    f_d: float
    seed: int
    amps: np.ndarray      # (L,)
    omegas: np.ndarray    # (L, M)
    phases_i: np.ndarray  # (L, M)
    phases_q: np.ndarray  # (L, M)

    @property
    def n_paths(self):
        return self.amps.shape[0]

    def gains(self, times):
        """Path gains, shape (L, len(times))."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return kernels.sos_gains(self.amps, self.omegas, self.phases_i,
                                 self.phases_q, times)


def make_fading(profile, f_d, seed, n_oscillators=64):
    """Draw a fading realization for every path of a profile.

    Angles of arrival are stratified over [0, 2pi) with a uniform jitter
    inside each stratum; this keeps the per-oscillator marginal uniform
    (so the ensemble TCF is exactly J0) while reducing realization-to-
    realization TCF variance. Paths use independent spawned sub-seeds.
    """
    if f_d < 0:
        raise ChannelError("f_d must be non-negative")
    if n_oscillators < 16:
        raise ChannelError("need at least 16 oscillators per path")
    m = int(n_oscillators)
    powers = profile.powers_linear
    n_l = profile.n_paths
    children = np.random.SeedSequence(seed).spawn(n_l)
    omegas = np.empty((n_l, m))
    phases_i = np.empty((n_l, m))
    phases_q = np.empty((n_l, m))
    for l in range(n_l):
        rng = np.random.default_rng(children[l])
        theta = 2.0 * math.pi * (np.arange(m) + rng.uniform(size=m)) / m
        omegas[l] = 2.0 * math.pi * f_d * np.cos(theta)
        phases_i[l] = rng.uniform(0.0, 2.0 * math.pi, size=m)
        phases_q[l] = rng.uniform(0.0, 2.0 * math.pi, size=m)
    amps = np.sqrt(powers / m)
    return FadingRealization(f_d=float(f_d), seed=int(seed), amps=amps,
                             omegas=omegas, phases_i=phases_i, phases_q=phases_q)


def drifted_delays(profile, geo, t0, drift_ns_per_s):
    """Delays in samples at time t0 under a linear drift, checked against the CP."""
    tau = profile.normalized_delays(geo)
    if drift_ns_per_s:
        tau = tau + drift_ns_per_s * 1e-9 * t0 / geo.t_sample
        if tau[0] < 0 or tau[-1] > geo.cp_len:
            raise ChannelError(
                "delays drift to [%.1f, %.1f] samples at t=%.4g s, outside the CP [0, %d]"
                % (tau[0], tau[-1], t0, geo.cp_len))
    return tau


# Instants per gains request when a call covers many symbols: 16 symbols
# at m_avg=64, a 144 KiB block of complex gains and 16 kernel chunks at
# L=9.
BLOCK_INSTANTS = 1024


@functools.cache
def _sample_offsets(geo, m_avg):
    """Sample instants inside a symbol, relative to its start (read-only)."""
    stride = geo.n_tones / m_avg
    m_positions = np.arange(m_avg) * stride + (stride - 1.0) / 2.0
    offsets = (geo.cp_len + m_positions) * geo.t_sample
    offsets.flags.writeable = False
    return offsets


def _steering(geo, tau):
    """(P, L) pilot-tone phase ramps of delays tau (in samples)."""
    return np.exp(-2j * math.pi * np.outer(geo.pilot_indices, tau) / geo.n_tones)


@functools.cache
def _still_steering(geo, profile):
    """The steering matrix without delay drift (read-only)."""
    steering = _steering(geo, profile.normalized_delays(geo))
    steering.flags.writeable = False
    return steering


def time_avg_cfr(fad, geo, profile, n, m_avg=64, drift_ns_per_s=0.0):
    """Time-averaged CFR on pilot tones for symbol index n, or a range of them.

    Averages H(n, m, theta_p) = sum_l h_l(nT_s + (L_cp+m)T) F_p(tau_l)
    over m_avg evenly spaced sample positions inside the useful part of
    the symbol. Positions sit at the center of each decimation block
    (gains are evaluable at continuous time), which keeps the decimated
    mean within ~1e-5 of the full average; m_avg = N reproduces the
    exact full average over m = 0..N-1.

    n is a symbol index or a range of them. An index returns a complex
    vector of length P. A range returns a (len(n), P) array whose row k
    bit-equals the call for index n[k]; its gains are requested in
    blocks of about BLOCK_INSTANTS instants.
    """
    if not (1 <= m_avg <= geo.n_tones):
        raise ChannelError("m_avg must lie in [1, n_tones]")
    single = np.ndim(n) == 0
    symbols = [n] if single else n
    offsets = _sample_offsets(geo, m_avg)
    steering = _still_steering(geo, profile)
    out = np.empty((len(symbols), geo.n_pilots), dtype=np.complex128)
    per_block = max(1, BLOCK_INSTANTS // m_avg)
    for b in range(0, len(symbols), per_block):
        t0 = np.asarray(symbols[b:b + per_block]) * geo.symbol_duration
        gains = fad.gains((t0[:, None] + offsets).ravel())
        # (K, L) with contiguous rows, so that a symbol's matvec does not
        # depend on how many symbols share its block
        mean_gain = gains.reshape(fad.n_paths, len(t0), m_avg).mean(axis=2).T.copy()
        for k, g in enumerate(mean_gain):
            if drift_ns_per_s:
                steering = _steering(geo, drifted_delays(profile, geo, t0[k],
                                                         drift_ns_per_s))
            out[b + k] = steering @ g
    return out[0] if single else out
