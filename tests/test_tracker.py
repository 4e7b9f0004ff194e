import collections
import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dopplertrack import numerics, tracker
from dopplertrack.channel import ChannelProfile, OfdmGeometry, make_fading, time_avg_cfr
from dopplertrack.frontend import PilotSnapshot, ls_observe
from dopplertrack.numerics import xi_exact
from dopplertrack.tracker import (DopplerEstimate, TrackerConfig, TrackerError,
                                  TrackerState, _eta_subspace, _mdl_order, _qr,
                                  _read_out, _sq_norm, _unit_phase, step,
                                  update_lag0)

GEO = OfdmGeometry()


def snap_of(values, n=0):
    return PilotSnapshot(n=n, values=np.asarray(values, dtype=complex),
                         snr_db=math.inf)


def three_tap_stream(nsym, snr_db, seed, p=128):
    """Stationary synthetic 3-tap data: random taps each symbol + noise."""
    rng = np.random.default_rng(seed)
    taus = np.array([0.0, 2.7, 5.1])
    powers = np.array([0.5, 0.3, 0.2])
    theta = np.arange(p) * (1024 // p)
    steering = np.exp(-2j * math.pi * np.outer(theta, taus) / 1024)
    s2 = 10.0 ** (-snr_db / 10.0)
    for n in range(nsym):
        g = (rng.normal(size=3) + 1j * rng.normal(size=3)) * np.sqrt(powers / 2)
        h = steering @ g
        h += (rng.normal(size=p) + 1j * rng.normal(size=p)) * math.sqrt(s2 / 2)
        yield snap_of(h, n)


def drive_channel(fd, nsym, seed, snr_db=math.inf, profile="eva", cfg=None,
                  nudge_at=None):
    """Run a preset channel through step; nudge_at moves one CFR entry of
    that symbol by one ulp."""
    prof = ChannelProfile.preset(profile)
    fad = make_fading(prof, fd, seed)
    cfg = cfg or TrackerConfig(geo=GEO)
    state = TrackerState(GEO.n_pilots, cfg)
    rng = np.random.default_rng(seed + 1)
    ests = []
    for n in range(nsym):
        cfr = time_avg_cfr(fad, GEO, prof, n)
        if n == nudge_at:
            cfr = cfr.copy()
            cfr[0] = complex(np.nextafter(cfr[0].real, np.inf), cfr[0].imag)
        ests.append(step(state, ls_observe(cfr, snr_db, rng, n=n)))
    return state, ests


@pytest.fixture(scope="module")
def eva400_noiseless():
    """Shared long noiseless run at f_d=400 Hz (5000 symbols)."""
    return drive_channel(400.0, 5000, seed=101)


class TestConfig:
    def test_defaults(self):
        cfg = TrackerConfig()
        assert cfg.alpha == 0.995
        assert cfg.beta == 1
        assert cfg.max_rank == 10
        assert tracker.SERIES_ORDER == 8

    @pytest.mark.parametrize("kw", [dict(alpha=0.0), dict(alpha=1.0),
                                    dict(beta=0), dict(beta=5),
                                    dict(max_rank=0), dict(max_rank=129)])
    def test_validation(self, kw):
        with pytest.raises(TrackerError):
            TrackerConfig(**kw)

    def test_series_order_is_no_field(self):
        # the inversion always uses SERIES_ORDER terms
        with pytest.raises(TypeError, match="series_order"):
            TrackerConfig(series_order=8)

    # one length below the default max_rank, one above it; neither is the
    # default geometry's 128 pilots
    @pytest.mark.parametrize("dim", [8, 64])
    def test_state_dim_must_match_pilots(self, dim):
        with pytest.raises(TrackerError, match="pilot count 128"):
            TrackerState(dim, TrackerConfig())
        cfg = TrackerConfig(geo=OfdmGeometry(n_pilots=dim), max_rank=8)
        assert TrackerState(dim, cfg).q.shape == (dim, 8)


class TestUpdateLag0:
    def test_constant_input_rank_one(self):
        cfg = TrackerConfig(alpha=0.5, geo=GEO)
        state = TrackerState(GEO.n_pilots, cfg)
        rng = np.random.default_rng(0)
        h = rng.normal(size=128) + 1j * rng.normal(size=128)
        snap = snap_of(h)
        for _ in range(60):
            update_lag0(state, snap)
        d = np.abs(np.diagonal(state.qh @ state.a))  # |diag(R)|, as A = Q R
        assert d[0] == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-6)
        assert np.all(d[1:] < 1e-8 * d[0])

    def test_zero_input_scales_a(self):
        cfg = TrackerConfig(geo=GEO)
        state = TrackerState(GEO.n_pilots, cfg)
        for s in three_tap_stream(30, 20.0, seed=4):
            update_lag0(state, s)
        a_prev = state.a.copy()
        c_prev = state.c.copy()
        update_lag0(state, snap_of(np.zeros(128)))
        np.testing.assert_allclose(state.a, cfg.alpha * (a_prev @ c_prev),
                                   atol=1e-14)

    def test_batch_eigenvalue_match(self):
        cfg = TrackerConfig(geo=GEO)
        state = TrackerState(GEO.n_pilots, cfg)
        cov = np.zeros((128, 128), dtype=complex)
        for s in three_tap_stream(2000, 20.0, seed=8):
            update_lag0(state, s)
            cov = cfg.alpha * cov + (1 - cfg.alpha) * np.outer(s.values, s.values.conj())
        batch = np.linalg.eigvalsh(cov)[::-1][:3]
        tracked = np.abs(np.diagonal(state.qh @ state.a))[:3]
        np.testing.assert_allclose(tracked, batch, rtol=0.05)

    def test_orthonormality(self):
        cfg = TrackerConfig(geo=GEO)
        state = TrackerState(GEO.n_pilots, cfg)
        eye = np.eye(cfg.max_rank)
        for s in three_tap_stream(100, 10.0, seed=3):
            update_lag0(state, s)
            q = state.q
            assert np.linalg.norm(q.conj().T @ q - eye) < 1e-10

    def test_wrong_length_rejected(self):
        state = TrackerState(128, TrackerConfig(geo=GEO))
        with pytest.raises(TrackerError):
            update_lag0(state, snap_of(np.zeros(64)))


def lag0_numpy_route(state, h):
    """update_lag0's new C, Q and A through np.linalg.qr and the two
    np.where calls of its phase fix; state is not changed."""
    a_new = tracker._blend(state.weights, state.a @ state.c, h, h.conj() @ state.q)
    q_new, r_new = np.linalg.qr(a_new)
    d = np.diagonal(r_new)
    mag = np.abs(d)
    nonzero = mag > 0.0
    ph = np.where(nonzero, d / np.where(nonzero, mag, 1.0), 1.0)
    q_new *= ph
    return state.q.conj().T @ q_new, q_new, a_new


@st.composite
def tall_complex(draw):
    """Tall complex matrices (128x10 and a few other tracker shapes), scaled
    by 2^k, with some columns zeroed so some R diagonal is 0."""
    dim, rank = draw(st.sampled_from([(128, 10), (128, 10), (32, 8), (16, 16), (128, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    a[:, draw(st.lists(st.booleans(), min_size=rank, max_size=rank))] = 0.0
    return a * 2.0 ** draw(st.integers(-300, 300))


@st.composite
def hermitian_repeated(draw):
    """Hermitian 10x10 matrices U diag(lam) U^H whose eigenvalues are drawn
    from a pool of at most 4 values, so most of them repeat."""
    pool = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
    lam = np.array(draw(st.lists(st.sampled_from(pool), min_size=10, max_size=10)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = np.eye(10) if draw(st.booleans()) else np.linalg.qr(
        rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10)))[0]
    m = (u * lam) @ u.conj().T
    herm = m + m.conj().T
    herm *= 0.5 * 2.0 ** draw(st.integers(-300, 300))
    return herm


class TestDirectLapack:
    """The tracker calls NumPy's LAPACK gufuncs directly; these pin them
    bit for bit to the public np.linalg routines they stand in for."""

    @settings(max_examples=300, deadline=None)
    @given(tall_complex())
    def test_qr_equals_numpy(self, a):
        q, r_diag = _qr(a)
        q_ref, r_ref = np.linalg.qr(a)
        assert np.array_equal(q, q_ref) and np.array_equal(r_diag, np.diagonal(r_ref))

    def test_qr_of_reset_basis(self):
        state = TrackerState(GEO.n_pilots, TrackerConfig(geo=GEO))
        for a in (state.q, state.a):
            q, r_diag = _qr(a)
            q_ref, r_ref = np.linalg.qr(a)
            assert np.array_equal(q, q_ref) and np.array_equal(r_diag, np.diagonal(r_ref))

    @settings(max_examples=300, deadline=None)
    @given(hermitian_repeated())
    def test_eigh_equals_numpy(self, herm):
        w, v = tracker._umath_linalg.eigh_lo(herm)
        w_ref, v_ref = np.linalg.eigh(herm)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.lists(st.booleans(), min_size=10, max_size=10),
                    min_size=1, max_size=3))
    def test_update_lag0_equals_numpy_route(self, seed, zeros):
        # zeroed entries among a fresh state's first 10 pilots zero those
        # columns of A, so diag(R) has zeros and their phase stays 1
        rng = np.random.default_rng(seed)
        state = TrackerState(GEO.n_pilots, TrackerConfig(geo=GEO))
        for zero in zeros:
            h = rng.normal(size=128) + 1j * rng.normal(size=128)
            h[:10][zero] = 0.0
            want = lag0_numpy_route(state, h)
            update_lag0(state, snap_of(h))
            for got, ref in zip((state.c, state.q, state.a), want):
                assert np.array_equal(got, ref)
            assert np.array_equal(state.qh, state.q.conj().T)


SPECIALS = [math.inf, -math.inf, math.nan, 1.7e308, -1.7e308]


@st.composite
def complex_with_specials(draw):
    """Complex tracker-shaped matrices scaled by 2^k, with up to 3 entries
    (real or imaginary parts) set to +-inf, NaN or +-1.7e308."""
    dim, rank = draw(st.sampled_from([(128, 10), (128, 10), (32, 8), (16, 16), (128, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    a *= 2.0 ** draw(st.integers(-300, 300))
    flat = a.view(np.float64).reshape(-1)
    for value in draw(st.lists(st.sampled_from(SPECIALS), max_size=3)):
        flat[rng.integers(flat.size)] = value
    return a


@st.composite
def scaled_vectors(draw):
    """Complex vectors of length 1-256 scaled by 2^k, k in [-500, 500],
    with some entries zeroed."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 256))
    h = rng.normal(size=n) + 1j * rng.normal(size=n)
    h[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))] = 0.0
    return h * 2.0 ** draw(st.integers(-500, 500))


@st.composite
def r_diagonals(draw):
    """The diagonal view of a square complex matrix: real (as a QR's R
    has) or complex entries scaled by 2^k, some zero, -0, NaN or inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 16))
    d = rng.normal(size=n) + (1j * rng.normal(size=n) if draw(st.booleans()) else 0j)
    d *= 2.0 ** draw(st.integers(-500, 500))
    for value in draw(st.lists(st.sampled_from([0.0, -0.0, 0j, math.nan, math.inf]),
                               max_size=3)):
        d[rng.integers(n)] = value
    r = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    np.fill_diagonal(r, d)
    return r.diagonal()


class TestStepRewrites:
    """The expressions these helpers replaced in step, kept verbatim as
    their oracles; every comparison is bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(scaled_vectors())
    def test_sq_norm(self, h):
        with np.errstate(over="ignore"):  # 2^500 squared overflows
            want = float(np.real(h.conj() @ h))
        got = _sq_norm(h)
        assert type(got) is float  # as repr() writes it to the CSV
        assert got == want

    @settings(max_examples=500, deadline=None)
    @given(r_diagonals())
    def test_unit_phase(self, d):
        with np.errstate(invalid="ignore"):  # a NaN or inf entry
            mag = np.abs(d)
            want = np.divide(d, mag, out=np.ones_like(d), where=mag > 0.0)
            got = _unit_phase(d)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(128, 10), (10, 10)]),
           st.sampled_from([0.5, 0.9, 0.995, 0.9999]), st.integers(-300, 300))
    def test_blend_weights(self, seed, shape, alpha, k):
        # entries of -0.0, 0.0 and 2^k-scaled values in every operand
        rng = np.random.default_rng(seed)

        def operand(*size):
            x = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 2.0 ** k
            x.view(np.float64).reshape(-1)[rng.random(2 * x.size) < 0.2] = -0.0
            x.view(np.float64).reshape(-1)[rng.random(2 * x.size) < 0.2] = 0.0
            return x

        old, col, row = operand(*shape), operand(shape[0]), operand(shape[1])
        want = old.copy()
        outer = col[:, None] * row
        outer *= 1.0 - alpha
        want *= alpha
        want += outer
        state = TrackerState(GEO.n_pilots, TrackerConfig(alpha=alpha, geo=GEO))
        got = tracker._blend(state.weights, old, col, row)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10),
           st.floats(0.0, 2.0), st.integers(-300, 300))
    def test_eta_subspace(self, seed, l_hat, noise, k):
        rng = np.random.default_rng(seed)
        scale = 2.0 ** k
        covb = (rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))) * scale
        g = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        eigs, vecs = np.linalg.eigh(g @ g.conj().T)
        # the descending views step passes
        eigs, vecs = (eigs * scale)[::-1], vecs[:, ::-1]
        sigma_n2 = noise * float(eigs[-1])
        proj_b = vecs.conj().T @ covb @ vecs
        num = float(np.sum(np.abs(np.diagonal(proj_b)[:l_hat]) ** 2))
        den = float(np.sum((eigs[:l_hat] - sigma_n2) ** 2))
        want = math.sqrt(num / den) if den > 0.0 else math.nan
        got = _eta_subspace(covb, l_hat, sigma_n2, eigs, vecs)
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestStateQh:
    def test_after_reset(self):
        state = TrackerState(GEO.n_pilots, TrackerConfig(geo=GEO))
        assert np.array_equal(state.qh, state.q.conj().T)
        for s in three_tap_stream(30, 20.0, seed=4):
            step(state, s)
        state.reset()
        assert np.array_equal(state.qh, state.q.conj().T)

    def test_after_update_lag0(self):
        state = TrackerState(GEO.n_pilots, TrackerConfig(geo=GEO))
        for s in three_tap_stream(30, 20.0, seed=4):
            update_lag0(state, s)
            assert np.array_equal(state.qh, state.q.conj().T)


class TestMdl:
    def test_all_equal_gives_zero(self):
        assert _mdl_order(np.full(10, 2.5), 200) == 0

    def test_three_strong(self):
        eigs = np.array([10.0, 10.0, 10.0] + [0.1] * 7)
        assert _mdl_order(eigs, 200) == 3

    def test_nonpositive_floored(self):
        eigs = np.array([1.0, 0.5, 0.0, 0.0, -0.0])
        assert _mdl_order(eigs, 50) in range(5)

    def test_three_tap_monte_carlo(self):
        hits = 0
        trials = 100
        cfg = TrackerConfig(geo=OfdmGeometry(n_tones=1024, n_pilots=32))
        for t in range(trials):
            state = TrackerState(32, cfg)
            for s in three_tap_stream(2000, 20.0, seed=10_000 + t, p=32):
                step(state, s)
            herm = 0.5 * (state.cov0 + state.cov0.conj().T)
            eigs = np.linalg.eigvalsh(herm)[::-1]
            if _mdl_order(np.maximum(eigs, 0.0), 200) == 3:
                hits += 1
        assert hits >= 95


def mdl_loop_oracle(eigs, n_eff):
    """The per-candidate loop _mdl_order replaced with its closed form."""
    eigs = np.asarray(eigs, dtype=float)
    lm = eigs.size
    if n_eff < lm:
        raise TrackerError("n_eff must be >= the eigenvalue count")
    if np.any(np.diff(eigs) > 1e-12 * max(1.0, abs(eigs[0]))):
        raise TrackerError("eigenvalues must be sorted descending")
    eigs = np.maximum(eigs, 1e-15)
    logs = np.log(eigs)
    best_k, best_val = 0, math.inf
    for k in range(lm):
        tail = lm - k
        geo = logs[k:].mean()
        arith = eigs[k:].mean()
        val = -n_eff * tail * (geo - math.log(arith)) \
            + 0.5 * k * (2 * lm - k) * math.log(n_eff)
        if val < best_val:
            best_k, best_val = k, val
    return best_k


@st.composite
def sorted_spectra(draw):
    """Descending spectra of 1..12 values between 1e-12 and 1e6, with zeros
    and ties (values are drawn from a small pool), plus n_eff in [L_m, 1e4]."""
    magnitude = st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e)
    pool = draw(st.lists(st.one_of(st.just(0.0), magnitude), min_size=1, max_size=12))
    lm = draw(st.integers(1, 12))
    eigs = sorted(draw(st.lists(st.sampled_from(pool), min_size=lm, max_size=lm)),
                  reverse=True)
    return np.array(eigs), draw(st.integers(lm, 10_000))


class TestMdlClosedForm:
    @settings(max_examples=2000, deadline=None)
    @given(sorted_spectra())
    def test_matches_loop(self, case):
        eigs, n_eff = case
        assert _mdl_order(eigs, n_eff) == mdl_loop_oracle(eigs, n_eff)

    @pytest.mark.parametrize("eigs", [
        [math.nan] * 4,
        [5.0, math.nan, 1.0],
        [math.inf, 1.0, 1.0],
        [math.inf, math.inf],
    ])
    def test_nonfinite_like_loop(self, eigs):
        # a NaN score is never chosen; with no finite score the order is 0.
        # The inf cases form inf - inf on purpose.
        with np.errstate(invalid="ignore"):
            assert _mdl_order(np.array(eigs), 50) == mdl_loop_oracle(np.array(eigs), 50)


def eva400_fd_track(nudge_at):
    """fd_hat over 60 symbols of EVA 400 Hz / 15 dB, seed 1."""
    _, ests = drive_channel(400.0, 60, seed=1, snr_db=15.0, nudge_at=nudge_at)
    return np.array([e.fd_hat for e in ests])


class TestEarlyStartSensitivity:
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 4: during the rank-deficient start the tracker "
        "amplifies a one-ulp CFR change at symbol 0 to ~5e-4 relative in "
        "fd_hat"))
    def test_ulp_at_symbol_0(self):
        base, nudged = eva400_fd_track(None), eva400_fd_track(0)
        np.testing.assert_allclose(nudged[20:], base[20:], rtol=1e-9, atol=0.0)

    def test_ulp_after_start(self):
        base, nudged = eva400_fd_track(None), eva400_fd_track(30)
        np.testing.assert_allclose(nudged[20:], base[20:], rtol=1e-9, atol=0.0)


class TestStep:
    def test_first_symbol_warmup(self):
        cfg = TrackerConfig(geo=GEO)
        state = TrackerState(GEO.n_pilots, cfg)
        est = step(state, snap_of(np.ones(128)))
        assert est.flags.warmup
        assert est.fd_hat == 0.0
        assert est.n == 0

    @pytest.mark.parametrize("scale", [0.0, 1e200])
    def test_rejected_snapshot_changes_nothing(self, scale):
        # a 64-entry snapshot among 128-pilot ones; at 1e200 its energy
        # would also overflow, which must not turn it into a reset
        good = list(three_tap_stream(4, 15.0, seed=6))
        state = TrackerState(GEO.n_pilots, TrackerConfig(geo=GEO))
        for s in good[:3]:
            step(state, s)
        before = {k: v.copy() if isinstance(v, np.ndarray) else v
                  for k, v in vars(state).items()}
        buffer = list(state.buffer)
        with pytest.raises(TrackerError, match="snapshot length 64"):
            step(state, snap_of(np.full(64, scale), 3))
        assert vars(state).keys() == before.keys()
        for k, v in vars(state).items():
            if isinstance(v, np.ndarray):
                assert np.array_equal(v, before[k]), k
            elif k != "buffer":
                assert v == before[k], k
        assert len(state.buffer) == len(buffer)
        assert all(x is y for x, y in zip(state.buffer, buffer))
        assert (state.n, state.start) == (3, 0)
        assert step(state, good[3]).n == 3

    def test_warmup_duration(self):
        cfg = TrackerConfig(geo=GEO)
        state = TrackerState(GEO.n_pilots, cfg)
        flags = []
        for s in three_tap_stream(30, 15.0, seed=2):
            flags.append(step(state, s).flags.warmup)
        assert all(flags[:20])
        assert not any(flags[20:])

    def test_ring_buffer_invariant(self):
        cfg = TrackerConfig(beta=3, geo=GEO)
        state = TrackerState(GEO.n_pilots, cfg)
        for i, s in enumerate(three_tap_stream(10, 15.0, seed=6)):
            step(state, s)
            assert len(state.buffer) == min(i + 1, cfg.beta + 1)

    def test_eta_clamp_flag(self):
        # a decaying-amplitude stream makes the lagged correlation exceed
        # the zero-lag one (eta ~ 1/decay^beta > 1), forcing the clamp
        cfg = TrackerConfig(alpha=0.9, geo=GEO)
        state = TrackerState(GEO.n_pilots, cfg)
        rng = np.random.default_rng(13)
        h0 = rng.normal(size=128) + 1j * rng.normal(size=128)
        ests = [step(state, snap_of(h0 * 0.99 ** n, n)) for n in range(100)]
        tail = ests[-20:]
        assert all(e.flags.eta_clamped for e in tail)
        assert all(e.fd_hat == 0.0 for e in tail)
        assert all(e.eta_hat > 1.0 for e in tail)

    def test_phase_rotation_invariance(self):
        # a common phase on every snapshot cancels inside both Z products
        prof = ChannelProfile.preset("eva")
        fad = make_fading(prof, 400.0, seed=41)
        snaps = [time_avg_cfr(fad, GEO, prof, n) for n in range(150)]
        cfg = TrackerConfig(geo=GEO)
        runs = []
        for phase in (1.0, np.exp(1.234j)):
            state = TrackerState(GEO.n_pilots, cfg)
            ests = [step(state, snap_of(phase * h, n))
                    for n, h in enumerate(snaps)]
            runs.append([e.fd_hat for e in ests])
        np.testing.assert_allclose(runs[0], runs[1], rtol=1e-6, atol=1e-3)

    def test_monotone_eta_in_doppler(self):
        etas = []
        for fd in (200.0, 400.0, 600.0):
            _, ests = drive_channel(fd, 416, seed=31)
            etas.append(np.median([e.eta_hat for e in ests[-50:]]))
        assert etas[0] > etas[1] > etas[2]

    def test_noiseless_eva400_endtoend(self):
        finals = []
        for seed in range(20):
            _, ests = drive_channel(400.0, 416, seed=500 + seed)
            finals.append(np.median([e.fd_hat for e in ests[-50:]]))
        assert 360.0 <= float(np.median(finals)) <= 440.0

    def test_newton_iterations_bounded(self, eva400_noiseless):
        _, ests = eva400_noiseless
        live = [e for e in ests if not e.flags.warmup and not e.flags.eta_clamped]
        assert live
        assert max(e.newton_iters for e in live) <= 4

    def test_zero_doppler_fixed_point(self):
        state, ests = drive_channel(0.0, 2000, seed=99)
        tail = [e for e in ests[-200:]]
        assert all(e.fd_hat < 20.0 for e in tail)
        etas = [e.eta_hat for e in tail if math.isfinite(e.eta_hat)]
        assert etas and all(0.99 <= x <= 1.01 for x in etas)

    def test_eta_matches_xi_ratio(self, eva400_noiseless):
        _, ests = eva400_noiseless
        t83 = GEO.t_sample
        want = xi_exact(400.0, 1024, t83, beta=1) / xi_exact(400.0, 1024, t83, beta=0)
        got = float(np.median([e.eta_hat for e in ests[-200:]]))
        assert abs(got - want) / want < 0.05

    def test_pure_noise_level(self):
        # SNR 10 dB noise-only stream: the trace-based noise floor recovers 0.1
        state = TrackerState(GEO.n_pilots, TrackerConfig(geo=GEO))
        rng = np.random.default_rng(77)
        scale = math.sqrt(0.1 / 2)
        for n in range(2000):
            w = (rng.normal(size=128) + 1j * rng.normal(size=128)) * scale
            est = step(state, snap_of(w, n))
        assert est.sigma_n2_hat == pytest.approx(0.1, rel=0.10)

    def test_no_signal_energy_not_converged(self):
        # an all-zero stream leaves no signal energy to form eta from
        state = TrackerState(GEO.n_pilots, TrackerConfig(geo=GEO))
        state.last_fd = 321.0
        ests = [step(state, snap_of(np.zeros(128), n)) for n in range(30)]
        for e in ests[20:]:
            assert e.flags.labels() == ["not_converged"]
            assert math.isnan(e.eta_hat)
            assert e.fd_hat == 321.0


class TestReadOut:
    """_read_out alone, on the exact accumulators of three paths of power
    LAM in white noise of power SIGMA at the default lag 1."""

    LAM = np.array([0.5, 0.3, 0.2])
    SIGMA = 0.01
    CFG = TrackerConfig(geo=GEO)

    @pytest.mark.parametrize("fd", [100.0, 400.0, 800.0])
    def test_exact_accumulators(self, fd):
        xi = [xi_exact(fd, GEO.n_tones, GEO.t_sample, beta=b, r_cp=GEO.r_cp)
              for b in (0, 1)]
        eta = xi[1] / xi[0]
        rank = self.CFG.max_rank
        cov0 = np.diag(np.r_[self.LAM, np.zeros(rank - 3)] + self.SIGMA).astype(complex)
        covb = np.diag(np.r_[eta * self.LAM, np.zeros(rank - 3)]).astype(complex)
        # the tracked ||h||^2: the signal eigenvalues plus the noise of the
        # other P - 3 pilots
        energy = float(self.LAM.sum()) + GEO.n_pilots * self.SIGMA
        inputs = (cov0.copy(), covb.copy())
        est = DopplerEstimate(0, *_read_out(cov0, covb, energy, 200, self.CFG, 0.0))
        assert est.L_hat == 3
        assert est.sigma_n2_hat == pytest.approx(self.SIGMA, rel=0, abs=1e-12)
        assert est.eta_hat == pytest.approx(eta, rel=0, abs=1e-12)
        assert est.flags.labels() == []
        assert est.fd_hat == pytest.approx(fd, rel=1e-6)
        assert all(np.array_equal(x, y) for x, y in zip((cov0, covb), inputs))

    def test_zero_accumulators(self):
        zero = np.zeros((self.CFG.max_rank,) * 2, dtype=complex)
        est = DopplerEstimate(0, *_read_out(zero, zero, 0.0, 200, self.CFG, 321.0))
        assert est.flags.labels() == ["not_converged"]
        assert math.isnan(est.eta_hat)
        assert est.fd_hat == 321.0


@pytest.fixture(scope="module")
def eva400_snapshots():
    """200 snapshots of EVA 400 Hz at 15 dB (fading seed 1, noise seed 2)."""
    prof = ChannelProfile.preset("eva")
    fad = make_fading(prof, 400.0, 1)
    rng = np.random.default_rng(2)
    return [ls_observe(time_avg_cfr(fad, GEO, prof, n), 15.0, rng, n=n)
            for n in range(200)]


class TestOverflowRecovery:
    # each scale lifts the tracked energy at symbol 50 above
    # tracker.ENERGY_MAX, so step's energy screen resets the stream before
    # the snapshot touches any statistic; the same single screen covers
    # the smallest scale, which overflows nothing, and the largest
    SCALES = [1e78, 3e153, 1e155, 1e200, 1e300]

    @staticmethod
    def run(snaps, bad=1.0):
        state = TrackerState(GEO.n_pilots, TrackerConfig(geo=GEO))
        out = []
        for s in snaps:
            if s.n == 50:
                s = PilotSnapshot(n=50, values=s.values * bad, snr_db=s.snr_db)
            out.append(step(state, s))
        return out

    @pytest.mark.parametrize("scale", SCALES)
    def test_one_overflowing_snapshot(self, eva400_snapshots, scale):
        clean, ests = self.run(eva400_snapshots), self.run(eva400_snapshots, scale)
        # the reset symbol and a fresh 20-symbol warmup window are flagged
        flagged = [e.n for e in ests[20:] if e.flags.labels()]
        assert flagged == list(range(50, 71))
        assert all(ests[n].flags.labels() == ["warmup"] for n in flagged)
        # the restarted stream forgets symbols 0-50 and converges again
        assert ests[-1].fd_hat == pytest.approx(clean[-1].fd_hat, rel=0.02)

    @pytest.mark.parametrize("scale", SCALES)
    def test_restart_equals_fresh_stream(self, eva400_snapshots, scale):
        # after its warmup the restarted stream is a new stream fed
        # snapshots 51 onward: same history length for MDL, same bits
        ests = self.run(eva400_snapshots, scale)[71:]
        fresh = self.run(eva400_snapshots[51:])[20:]
        assert len(ests) == len(fresh)
        for e, f in zip(ests, fresh):
            np.testing.assert_equal(dataclasses.astuple(dataclasses.replace(e, n=0)),
                                    dataclasses.astuple(dataclasses.replace(f, n=0)))


    @pytest.mark.parametrize("scale", SCALES)
    def test_qh_tracks_q_through_reset(self, eva400_snapshots, scale):
        state = TrackerState(GEO.n_pilots, TrackerConfig(geo=GEO))
        for s in eva400_snapshots[:60]:
            if s.n == 50:
                s = PilotSnapshot(n=50, values=s.values * scale, snr_db=s.snr_db)
            step(state, s)
            assert np.array_equal(state.qh, state.q.conj().T)
        assert state.start == 51


class TestEnergyScreen:
    """step screens each snapshot by the tracked energy it would give.

    That one screen guards the whole state and the read-out: below
    tracker.ENERGY_MAX the energy bounds every statistic and every sum
    the read-out forms (see the constant's comment). So after every step
    either the screened energy exceeded ENERGY_MAX, or was NaN, and the
    stream was reset without the snapshot, or every statistic is finite;
    and no step raises under the suite's np.errstate.
    """

    FIELDS = ("q", "qh", "a", "c", "cov0", "covb")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-300 * 4, 512 * 4),
           st.none() | st.tuples(st.integers(0, 199), st.integers(10, 308)),
           st.sampled_from([0.9, 0.995, 0.999]), st.integers(1, 4),
           st.sampled_from([10, 128]))
    # resets on most symbols
    @example(quarter=508 * 4 + 2, spike=None, alpha=0.995, beta=1, rank=10)
    # near the bound: 128 pilots of rank 128 are the worst case for den
    @example(quarter=248 * 4, spike=None, alpha=0.999, beta=4, rank=128)
    # one snapshot whose energy overflows, and one whose energy passes the
    # bound without overflowing
    @example(quarter=0, spike=(50, 154), alpha=0.995, beta=1, rank=10)
    @example(quarter=0, spike=(50, 78), alpha=0.995, beta=1, rank=10)
    def test_reset_or_finite(self, eva400_snapshots, quarter, spike, alpha, beta,
                             rank):
        # the stream scaled by 2^(quarter / 4), and optionally one symbol by
        # a further 10^j, capped so that the snapshot stays finite
        cfg = TrackerConfig(alpha=alpha, beta=beta, max_rank=rank, geo=GEO)
        state, fresh = TrackerState(GEO.n_pilots, cfg), TrackerState(GEO.n_pilots, cfg)
        for s in eva400_snapshots:
            h = s.values * 2.0 ** (quarter / 4)
            if spike is not None and spike[0] == s.n:
                peak = float(abs(h.view(np.float64)).max())
                h *= min(10.0 ** spike[1], 0.5 * sys.float_info.max / peak)
            with np.errstate(over="ignore", invalid="ignore"):  # inf - inf
                energy = (cfg.alpha * state.energy
                          + (1.0 - cfg.alpha) * float(np.real(h.conj() @ h)))
            step(state, PilotSnapshot(n=s.n, values=h, snr_db=s.snr_db))
            if energy <= tracker.ENERGY_MAX:
                assert state.energy == energy
                for f in self.FIELDS:
                    assert np.isfinite(getattr(state, f)).all(), (s.n, f)
            else:
                assert state.start == s.n + 1 and state.energy == 0.0
                assert not state.buffer
                for f in self.FIELDS:
                    assert np.array_equal(getattr(state, f), getattr(fresh, f))


@pytest.fixture(scope="module")
def eva400_seed2_snapshots():
    """200 snapshots of EVA 400 Hz at 15 dB (fading seed 2, noise seed 102)."""
    prof = ChannelProfile.preset("eva")
    cfrs = time_avg_cfr(make_fading(prof, 400.0, 2), GEO, prof, range(200))
    rng = np.random.default_rng(102)
    return [ls_observe(h, 15.0, rng, n=n) for n, h in enumerate(cfrs)]


class TestWarningFree:
    # (scale, symbol scaled or None for all): the first three made NumPy
    # warn from the blend in update_lag0 or from _eta_subspace while step
    # suppressed floating-point faults; 2^248 resets near ENERGY_MAX, and
    # 1e78 lifts one snapshot's energy above it without overflowing
    CASES = {"1e200-at-50": (1e200, 50), "1e153-at-50": (1e153, 50),
             "2^300-all": (2.0 ** 300, None), "clean": (1.0, None),
             "2^-30-all": (2.0 ** -30, None), "2^248-all": (2.0 ** 248, None),
             "1e78-at-50": (1e78, 50)}

    @pytest.mark.parametrize("case", CASES)
    def test_step_never_warns(self, eva400_seed2_snapshots, case):
        scale, at = self.CASES[case]
        snaps = [PilotSnapshot(n=s.n, values=s.values * scale, snr_db=s.snr_db)
                 if at in (None, s.n) else s for s in eva400_seed2_snapshots]

        def run(fault, action):
            state = TrackerState(GEO.n_pilots, TrackerConfig(geo=GEO))
            with np.errstate(over=fault, invalid=fault, divide=fault), \
                    warnings.catch_warnings():
                warnings.simplefilter(action)
                return [dataclasses.astuple(step(state, s)) for s in snaps]

        np.testing.assert_equal(run("raise", "error"), run("ignore", "ignore"))


class TestTracedStages:
    """perfbench's Tracer times step's stages by wrapping these module
    attributes, so step must look each of them up on every call."""

    HOOKS = ((tracker, "update_lag0"), (tracker, "_accumulate"),
             (numerics, "poly_coeffs"), (numerics, "newton_solve"))

    def test_step_calls_each_hook_per_symbol(self, monkeypatch):
        counts = collections.Counter()
        for module, name in self.HOOKS:
            def counting(*args, _inner=getattr(module, name), _name=name):
                counts[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(module, name, counting)
        state = TrackerState(GEO.n_pilots, TrackerConfig(geo=GEO))
        ests = [step(state, s) for s in three_tap_stream(30, 20.0, seed=5)]
        # symbols 20-29 leave warmup and each reaches the Newton inversion
        assert [e.flags.labels() for e in ests[20:]] == [[]] * 10
        assert counts == {"update_lag0": 30, "_accumulate": 30,
                          "poly_coeffs": 10, "newton_solve": 10}
