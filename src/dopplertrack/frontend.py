"""Receiver frontend: LS pilot channel estimation.

Pilots are modeled as unit-modulus, so LS estimation is the true
time-averaged CFR plus circular white Gaussian noise with per-entry
variance 10^(-snr_db/10) against unit total channel power.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PilotSnapshot:
    """LS-estimated time-averaged CFR for one OFDM symbol."""

    n: int
    values: np.ndarray
    snr_db: float

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise ValueError("snapshot contains non-finite entries")


def noise_variance(snr_db):
    """Per-entry complex noise variance for a given SNR in dB."""
    if snr_db == math.inf:
        return 0.0
    return 10.0 ** (-snr_db / 10.0)


def ls_observe(true_cfr, snr_db, rng, n=0):
    """Add LS estimation noise to a true CFR vector.

    Parameters
    ----------
    true_cfr : complex vector, length P
    snr_db : float
        math.inf is the noiseless flag value (exact passthrough).
    rng : numpy Generator
    n : int
        Symbol index stamped on the snapshot.
    """
    if not math.isfinite(snr_db) and snr_db != math.inf:
        raise ValueError("snr_db must be finite or +inf")
    h = np.asarray(true_cfr, dtype=np.complex128)
    if snr_db == math.inf:
        return PilotSnapshot(n=n, values=h.copy(), snr_db=snr_db)
    sigma2 = noise_variance(snr_db)
    scale = math.sqrt(sigma2 / 2.0)
    w = rng.normal(scale=scale, size=h.shape) + 1j * rng.normal(scale=scale, size=h.shape)
    return PilotSnapshot(n=n, values=h + w, snr_db=snr_db)
