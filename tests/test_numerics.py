import math

import pytest

from dopplertrack import numerics
from dopplertrack.numerics import (DomainError, InvalidRootError,
                                   NonConvergenceError,
                                   SingularDerivativeError, doppler_from_root,
                                   newton_solve, poly_coeffs, xi_exact)

T83 = 83.33e-9


def xi_series(psi, phi, K):
    """K-term xi_beta series (xi_0 at phi = 0): the eta = 0 polynomial at -psi^2."""
    return poly_coeffs(0.0, phi, K).eval_with_derivative(-psi * psi)[0]


class TestXiExact:
    def test_zero_doppler(self):
        assert xi_exact(0.0, 1024, T83, beta=0) == pytest.approx(1.0)
        assert xi_exact(0.0, 512, 1e-7, beta=3) == pytest.approx(1.0)

    def test_regression_anchor(self):
        # frozen value of the N=1024 double sum at 400 Hz
        val = xi_exact(400.0, 1024, T83, beta=0)
        assert val == pytest.approx(0.9980858699385349, abs=1e-12)
        assert round(val, 5) == 0.99809

    def test_psi_invariance(self):
        a = xi_exact(400.0, 1024, T83, beta=1)
        b = xi_exact(800.0, 1024, T83 / 2, beta=1)
        assert abs(a - b) < 1e-6

    def test_matches_literal_double_sum(self):
        from scipy.special import j0
        n, fd, beta, rcp = 64, 500.0, 1, 0.125
        acc = 0.0
        for m in range(n):
            for q in range(n):
                acc += j0(2 * math.pi * fd * (m - q + beta * (1 + rcp) * n) * T83)
        assert xi_exact(fd, n, T83, beta=beta) == pytest.approx(acc / n**2, abs=1e-14)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            xi_exact(-1.0, 1024, T83)
        with pytest.raises(DomainError):
            xi_exact(100.0, 1, T83)


class TestSeries:
    def test_xi0_at_zero(self):
        assert xi_series(0.0, 0.0, 8) == 1.0

    def test_xi0_matches_oracle(self):
        psi = math.pi * 400.0 * 1024 * T83
        approx = xi_series(psi, 0.0, 8)
        exact = xi_exact(400.0, 1024, T83, beta=0)
        assert abs(approx - exact) / exact < 1e-6

    def test_xi0_truncation_tail(self):
        a = xi_series(0.5, 0.0, 8)
        b = xi_series(0.5, 0.0, 16)
        assert abs(a - b) < 1e-10

    def test_truncation_monotone(self):
        psi = 1.0
        gaps = []
        for k in (2, 4, 6, 8):
            gaps.append(abs(xi_series(psi, 0.0, k) - xi_series(psi, 0.0, k + 4)))
        # strictly shrinking while above rounding noise, never growing after
        assert gaps[1] < gaps[0]
        assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_beta_at_zero_psi(self):
        for phi in (0.5, 1.125, 3.0):
            assert xi_series(0.0, phi, 8) == pytest.approx(1.0)

    def test_beta_matches_oracle(self):
        psi = math.pi * 400.0 * 1024 * T83
        approx = xi_series(psi, 1.125, 8)
        exact = xi_exact(400.0, 1024, T83, beta=1)
        assert abs(approx - exact) / exact < 1e-5

    @pytest.mark.parametrize("beta", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("fd", [50.0, 200.0, 450.0, 800.0])
    def test_series_oracle_grid(self, beta, fd):
        psi = math.pi * fd * 1024 * T83
        approx = xi_series(psi, beta * 1.125, 8)
        exact = xi_exact(fd, 1024, T83, beta=beta)
        assert abs(approx - exact) / abs(exact) < 1e-4


class TestPolyCoeffs:
    def test_c0_identity(self):
        for eta in (0.0, 0.5, 0.9, 1.0, 1.1):
            for phi in (0.0, 1.125, 2.25, 4.5):
                poly = poly_coeffs(eta, phi, 8)
                assert poly.coeffs[0] == 1.0 - eta

    def test_c1_anchor(self):
        poly = poly_coeffs(0.995, 1.125, 8)
        # hand evaluation of the k=1 coefficient
        phi = 1.125
        bracket = (1 + phi) ** 4 + (1 - phi) ** 4 - 2 * phi ** 4
        c1 = (bracket - 2 * 0.995) / (2 * math.factorial(1) * math.factorial(2) * 3)
        assert poly.coeffs[1] == pytest.approx(c1, rel=1e-15)
        assert poly.coeffs[1] == pytest.approx(1.2664583333333332, abs=1e-14)

    def test_length_and_finite(self):
        poly = poly_coeffs(0.98, 2.25, 12)
        assert len(poly.coeffs) == 12
        assert all(math.isfinite(c) for c in poly.coeffs)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            poly_coeffs(math.nan, 1.125, 8)
        with pytest.raises(DomainError):
            poly_coeffs(0.5, 1.125, 1)


class TestNewton:
    def test_zero_root_immediate(self):
        poly = poly_coeffs(1.0, 1.125, 8)  # c0 = 0, so the start is the root
        res = newton_solve(poly)
        assert res.root == 0.0
        assert res.converged and res.iterations == 1

    def test_linear_exact(self):
        poly = numerics.DopplerPolynomial(coeffs=(0.004, 1.25))
        res = newton_solve(poly)
        assert res.root == pytest.approx(-0.004 / 1.25, rel=1e-12)
        assert res.iterations == 1

    def test_closed_loop_300hz(self):
        eta = xi_exact(300.0, 1024, T83, beta=1) / xi_exact(300.0, 1024, T83, beta=0)
        poly = poly_coeffs(eta, 1.125, 8)
        res = newton_solve(poly)
        assert res.converged and res.iterations <= 4
        fd = doppler_from_root(res.root, 1024, T83)
        assert abs(fd - 300.0) / 300.0 < 0.01

    def test_singular_derivative(self):
        # c1 = 0 leaves the -c0/c1 start undefined
        poly = numerics.DopplerPolynomial(coeffs=(1.0, 0.0, 0.0))
        with pytest.raises(SingularDerivativeError):
            newton_solve(poly)
        # 1 + 2x + 2x^2 starts at x = -0.5, where p'(x) = 2 + 4x is 0
        poly = numerics.DopplerPolynomial(coeffs=(1.0, 2.0, 2.0))
        with pytest.raises(SingularDerivativeError, match="derivative"):
            newton_solve(poly)

    def test_divergence_detected(self):
        # 1 + x + 0.26 x^2 has no real root; from the start x = -1 the
        # iterates leave the bound 10|x0| + 10 within four steps
        poly = numerics.DopplerPolynomial(coeffs=(1.0, 1.0, 0.26))
        with pytest.raises(NonConvergenceError):
            newton_solve(poly)


class TestDopplerFromRoot:
    def test_zero(self):
        assert doppler_from_root(0.0, 1024, T83) == 0.0

    def test_inverse_of_psi(self):
        psi = math.pi * 400.0 * 1024 * T83
        assert doppler_from_root(-psi * psi, 1024, T83) == pytest.approx(400.0)

    def test_tiny_positive_clamped(self):
        assert doppler_from_root(5e-13, 1024, T83) == 0.0

    def test_positive_rejected(self):
        with pytest.raises(InvalidRootError):
            doppler_from_root(1e-6, 1024, T83)


def test_closed_loop_sweep():
    """Forward-oracle eta inverted back across the Doppler range."""
    for fd in range(100, 801, 100):
        eta = xi_exact(fd, 1024, T83, beta=1) / xi_exact(fd, 1024, T83, beta=0)
        res = newton_solve(poly_coeffs(eta, 1.125, 8))
        assert res.converged and res.iterations <= 4
        fd_hat = doppler_from_root(res.root, 1024, T83)
        assert abs(fd_hat - fd) / fd < 0.01
