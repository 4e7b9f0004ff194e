"""Pinned numeric fixture: the shipped estimates, not a second run of the code.

``tests/data/golden.*`` holds ``per_symbol.csv``/``summary.csv`` for a
small EVA+ETU grid at the default tracker, and ``golden_<name>.*`` the
same for each further grid in ``GRIDS``: other lags, forgetting factors,
ranks, pilot counts and a noiseless cell. Estimates must agree within
1e-12 (relative above 1); ``L_hat``, ``newton_iters`` and flags must
match exactly. Regenerate the files only for an intended change to the
estimates:

    PYTHONPATH=src python tests/test_golden.py
"""

import gzip
import math
import os

import pytest

from dopplertrack.harness import emit_csv, run_grid, scenarios_from_config

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
# grid name -> config; "" is the default tracker, pinned as golden.*
GRIDS = {
    "": {"profile": ["eva", "etu"], "fd_hz": 300.0, "snr_db": [5.0, 30.0],
         "duration_ms": 15.0, "trials": 1, "master_seed": 20_081},
    # slow forgetting at the longest lag; MDL reaches rank 9 at 900 Hz
    "lag4_alpha0999": {"tracker": {"lag": 4, "alpha": 0.999}, "profile": "eva",
                       "fd_hz": [30.0, 900.0], "snr_db": 15.0,
                       "duration_ms": 15.0, "trials": 1, "master_seed": 20_082},
    # a smaller pilot comb and rank on a custom 3-path profile
    "lag2_rank6_p32": {"geometry": {"pilots": 32},
                       "tracker": {"lag": 2, "max_rank": 6},
                       "profile": {"name": "tri", "delays_ns": [0.0, 410.0, 1200.0],
                                   "powers_db": [0.0, -3.0, -6.0]},
                       "fd_hz": 400.0, "snr_db": [5.0, 30.0],
                       "duration_ms": 15.0, "trials": 1, "master_seed": 20_083},
    # fast forgetting, noiseless and at 5 dB; about a third of it eta_clamped
    "lag3_alpha09": {"tracker": {"lag": 3, "alpha": 0.9}, "profile": ["eva", "etu"],
                     "fd_hz": 200.0, "snr_db": [math.inf, 5.0],
                     "duration_ms": 10.0, "trials": 1, "master_seed": 20_084},
}
TOL = 1e-12


def _paths(grid):
    stem = os.path.join(DATA, "golden_" + grid if grid else "golden")
    return stem + ".per_symbol.csv.gz", stem + ".summary.csv"


def _emit(grid, out_dir):
    results, errors = run_grid(scenarios_from_config(dict(GRIDS[grid])))
    assert not errors
    per, summ = emit_csv(results, str(out_dir))
    with open(per, "rb") as f, open(summ, "rb") as g:
        return f.read(), g.read()


def _close(a, b):
    if a == b:  # also an infinite SNR column, where a - b is NaN
        return True
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _same_row(got, ref, exact_cols):
    """Columns in exact_cols compare as text, empty cells must match, the
    rest as floats within TOL."""
    a, b = got.split(","), ref.split(",")
    if len(a) != len(b):
        return False
    for i, (x, y) in enumerate(zip(a, b)):
        if i in exact_cols or not (x and y):
            if x != y:
                return False
        elif not _close(float(x), float(y)):
            return False
    return True


def _check(grid, out_dir):
    per, summ = _emit(grid, out_dir)
    per_path, summ_path = _paths(grid)
    with gzip.open(per_path, "rb") as f:
        ref_per = f.read()
    with open(summ_path, "rb") as f:
        ref_summ = f.read()
    for name, got, ref, exact in (
            # scenario_id, trial, n, L_hat, newton_iters, flags
            ("per_symbol", per, ref_per, {0, 1, 2, 5, 7, 8}),
            ("summary", summ, ref_summ, {0})):
        got_lines = got.decode("utf-8").splitlines()
        ref_lines = ref.decode("utf-8").splitlines()
        assert len(got_lines) == len(ref_lines), name
        assert got_lines[0] == ref_lines[0], name
        for g, r in zip(got_lines[1:], ref_lines[1:]):
            assert _same_row(g, r, exact), "%s row %r vs pinned %r" % (name, g, r)


def test_matches_pinned_fixture(tmp_path):
    _check("", tmp_path)


@pytest.mark.parametrize("grid", [g for g in GRIDS if g])
def test_matches_pinned_grid(tmp_path, grid):
    _check(grid, tmp_path)


if __name__ == "__main__":
    import tempfile

    os.makedirs(DATA, exist_ok=True)
    for grid in GRIDS:
        with tempfile.TemporaryDirectory() as tmp:
            per, summ = _emit(grid, tmp)
        per_path, summ_path = _paths(grid)
        with open(per_path, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as f:
                f.write(per)
        with open(summ_path, "wb") as f:
            f.write(summ)
