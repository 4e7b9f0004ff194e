"""Pinned numeric fixture: the shipped estimates, not a second run of the code.

``tests/data/golden.*`` holds ``per_symbol.csv``/``summary.csv`` for a
small EVA+ETU grid. Estimates must agree within 1e-12 (relative above
1); ``L_hat``, ``newton_iters`` and flags must match exactly. Regenerate
the files only for an intended change to the estimates:

    PYTHONPATH=src python tests/test_golden.py
"""

import gzip
import math
import os

from dopplertrack.harness import emit_csv, run_grid, scenarios_from_config

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PER_SYMBOL = os.path.join(DATA, "golden.per_symbol.csv.gz")
SUMMARY = os.path.join(DATA, "golden.summary.csv")
CONFIG = {"profile": ["eva", "etu"], "fd_hz": 300.0, "snr_db": [5.0, 30.0],
          "duration_ms": 15.0, "trials": 1, "master_seed": 20_081}
TOL = 1e-12


def _emit(out_dir):
    results, errors = run_grid(scenarios_from_config(dict(CONFIG)))
    assert not errors
    per, summ = emit_csv(results, str(out_dir))
    with open(per, "rb") as f, open(summ, "rb") as g:
        return f.read(), g.read()


def _close(a, b):
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


def test_matches_pinned_fixture(tmp_path):
    per, summ = _emit(tmp_path)
    with gzip.open(PER_SYMBOL, "rb") as f:
        ref_per = f.read()
    with open(SUMMARY, "rb") as f:
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        per, summ = _emit(tmp)
    os.makedirs(DATA, exist_ok=True)
    with open(PER_SYMBOL, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as f:
            f.write(per)
    with open(SUMMARY, "wb") as f:
        f.write(summ)
