"""Scalar and polynomial math for Doppler inversion.

Everything here is a pure function of its arguments: the exact
time-average correlation factors xi_0 / xi_beta (the oracle), the
inversion polynomial in x = -(pi f_d N T)^2, whose eta = 0 form is the
truncated xi_beta series, and the Newton solver that recovers x from an
observed correlation ratio eta.
"""

import math
from dataclasses import dataclass

import numpy as np


class NumericsError(Exception):
    """Base class for numerics failures."""


class DomainError(NumericsError):
    """Input outside the function's domain."""


class SingularDerivativeError(NumericsError):
    """Newton iteration hit a (numerically) zero derivative."""


class NonConvergenceError(NumericsError):
    """Newton iterate escaped the divergence bound."""


class InvalidRootError(NumericsError):
    """Root is positive beyond tolerance, i.e. eta outside the model."""


def xi_exact(f_d, n_tones, t_sample, beta=0, r_cp=0.125):
    """Exact time-average correlation factor (the series oracle).

    Evaluates (1/N^2) sum_m sum_q J0(2 pi f_d (m - q + beta(1+r_cp)N) T)
    over m, q in [0, N). The double sum collapses exactly to a single
    sum over the difference d = m - q with weight (N - |d|), which is
    what is computed here, with J0 from scipy. SciPy is imported on the
    first call, so code that never asks for the oracle never loads it.

    Parameters
    ----------
    f_d : float
        Maximum Doppler spread in Hz, >= 0.
    n_tones : int
        FFT size N, >= 2.
    t_sample : float
        Sample period T in seconds.
    beta : int
        Symbol lag (0 gives xi_0).
    r_cp : float
        Cyclic prefix ratio L_cp / N.

    Returns
    -------
    float
    """
    from scipy import special

    if f_d < 0:
        raise DomainError("f_d must be non-negative")
    n = int(n_tones)
    if n < 2:
        raise DomainError("n_tones must be >= 2")
    d = np.arange(-(n - 1), n)
    w = n - np.abs(d)
    args = 2.0 * math.pi * f_d * (d + beta * (1.0 + r_cp) * n) * t_sample
    return float(np.dot(w, special.j0(args)) / (n * n))


@dataclass(frozen=True)
class DopplerPolynomial:
    """Polynomial p(x) = sum_k c_k x^k whose near-zero negative root
    encodes the Doppler spread through x = -(pi f_d N T)^2."""

    coeffs: tuple

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.coeffs):
            raise DomainError("polynomial coefficients must be finite")

    def eval_with_derivative(self, x):
        """Horner evaluation of (p(x), p'(x))."""
        p = 0.0
        dp = 0.0
        for c in reversed(self.coeffs):
            dp = dp * x + p
            p = p * x + c
        return p, dp


def poly_coeffs(eta, phi, K):
    """Assemble the inversion polynomial coefficients.

    c_k = ([(1+phi)^(2k+2) + (1-phi)^(2k+2) - 2 phi^(2k+2)] - 2 eta)
          / (2 k! (k+1)! (2k+1))

    The k = 0 bracket equals 2 identically, so c_0 is set to 1 - eta
    directly to keep the algebraic identity exact in floating point.

    The polynomial is also the truncated series of the correlation
    factors: with eta = 0, p(-psi^2) is the K-term series of xi_beta at
    psi = pi f_d N T, phi = beta (1 + r_cp), and phi = 0 gives xi_0. So
    p(x) = xi_beta(x) - eta xi_0(x), whose root is where the series
    ratio equals eta. Denominators come from a ratio recursion, never
    from raw factorials.
    """
    if K < 2:
        raise DomainError("K must be >= 2")
    if not math.isfinite(eta):
        raise DomainError("eta must be finite")
    a, b, c = 1.0 + phi, 1.0 - phi, float(phi)
    coeffs = [1.0 - eta]
    pa, pb, pc = a * a, b * b, c * c
    denom = 2.0  # 2 * k! * (k+1)! * (2k+1) at k = 0
    for k in range(1, K):
        pa *= a * a
        pb *= b * b
        pc *= c * c
        denom *= k * (k + 1) * (2 * k + 1) / (2 * k - 1)
        coeffs.append(((pa + pb - 2.0 * pc) - 2.0 * eta) / denom)
    return DopplerPolynomial(coeffs=tuple(coeffs))


# Newton stops at the first step below NEWTON_TOLERANCE; a solve still
# moving after NEWTON_MAX_ITERS steps is reported as not converged
NEWTON_TOLERANCE = 1e-4
NEWTON_MAX_ITERS = 4


@dataclass(frozen=True)
class NewtonResult:
    root: float
    iterations: int
    converged: bool


def newton_solve(poly):
    """Newton's method on the Doppler polynomial.

    The derivative is evaluated analytically from the coefficients. The
    initial guess -c0/c1 (the exact K=2 solution) sits next to the
    wanted near-zero negative root for beta <= 4.

    Returns
    -------
    NewtonResult
        root, iteration count and convergence flag (|dx| <
        NEWTON_TOLERANCE reached within NEWTON_MAX_ITERS).
    """
    c0, c1 = poly.coeffs[0], poly.coeffs[1]
    if abs(c1) < 1e-30:
        raise SingularDerivativeError("c1 too small for the -c0/c1 start")
    x = -c0 / c1
    bound = 10.0 * abs(x) + 10.0
    converged = False
    iters = 0
    for iters in range(1, NEWTON_MAX_ITERS + 1):
        p, dp = poly.eval_with_derivative(x)
        if abs(dp) < 1e-30:
            raise SingularDerivativeError(
                "derivative magnitude %g below 1e-30 at x=%g" % (abs(dp), x)
            )
        dx = p / dp
        x -= dx
        if abs(x) > bound:
            raise NonConvergenceError("iterate |x|=%g exceeded bound %g" % (abs(x), bound))
        if abs(dx) < NEWTON_TOLERANCE:
            converged = True
            break
    return NewtonResult(root=x, iterations=iters, converged=converged)


def doppler_from_root(x_star, n_tones, t_sample):
    """Map a polynomial root back to Doppler spread: f_d = sqrt(-x*)/(pi N T).

    Tiny positive roots (<= 1e-12, numerical noise around eta = 1) are
    clamped to zero; larger positive roots mean eta was outside the
    model and raise.
    """
    if x_star > 1e-12:
        raise InvalidRootError("positive root %g: eta outside model range" % x_star)
    x = min(x_star, 0.0)
    return math.sqrt(-x) / (math.pi * n_tones * t_sample)
