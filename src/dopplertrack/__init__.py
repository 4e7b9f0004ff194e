"""Doppler spread estimation for comb-pilot OFDM.

Simulates doubly-selective Rayleigh fading channels and recovers the
maximum Doppler spread from streaming LS pilot estimates by tracking
the delay subspace of lagged autocorrelation matrices and inverting a
series polynomial in the correlation ratio.
"""

from .channel import (ChannelProfile, FadingRealization, OfdmGeometry,
                      make_fading, time_avg_cfr)
from .frontend import PilotSnapshot, ls_observe
from .numerics import (DopplerPolynomial, doppler_from_root, newton_solve,
                       poly_coeffs, xi_exact)
from .tracker import (DopplerEstimate, TrackerConfig, TrackerState,
                      mdl_order, step, update_lag0)
from .harness import Scenario, TrialResult, emit_csv, run_grid, run_trial

__version__ = "0.1.0"

__all__ = [
    "ChannelProfile", "FadingRealization", "OfdmGeometry",
    "make_fading", "time_avg_cfr",
    "PilotSnapshot", "ls_observe",
    "DopplerPolynomial", "doppler_from_root", "newton_solve", "poly_coeffs",
    "xi_exact",
    "DopplerEstimate", "TrackerConfig", "TrackerState",
    "mdl_order", "step", "update_lag0",
    "Scenario", "TrialResult", "emit_csv", "run_grid", "run_trial",
    "__version__",
]
