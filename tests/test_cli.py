import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from dopplertrack.cli import main
from dopplertrack.numerics import xi_exact


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_validate_ok(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("profile: eva\nfd_hz: 300\nduration_ms: 10\ntrials: 2\n")
    res = invoke("validate", "--config", str(cfg))
    assert res.exit_code == 0
    assert "1 scenario(s)" in res.output


def test_validate_bad_config(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("profile: nosuch\n")
    res = invoke("validate", "--config", str(cfg))
    assert res.exit_code == 1
    assert "config error" in res.output


def test_validate_shorter_than_one_symbol(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("profile: eva\nduration_ms: 0.05\n")
    res = invoke("validate", "--config", str(cfg))
    assert res.exit_code == 1
    assert "shorter than one OFDM symbol" in res.output


def test_validate_nonfinite_doppler(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("profile: eva\nfd_hz: .nan\n")
    res = invoke("validate", "--config", str(cfg))
    assert res.exit_code == 1
    assert "f_d must be finite" in res.output


def test_validate_rank_above_pilot_count(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("geometry: {tones: 64, cp_length: 8, pilots: 8}\n")
    res = invoke("validate", "--config", str(cfg))
    assert res.exit_code == 1
    assert "max_rank" in res.output


def test_validate_m_avg_out_of_range(tmp_path):
    # rejected when the config is read, not by every trial of a run
    cfg = tmp_path / "c.yaml"
    cfg.write_text("profile: eva\nm_avg: 0\n")
    res = invoke("validate", "--config", str(cfg))
    assert res.exit_code == 1
    assert "m_avg must lie in [1, 1024]" in res.output


@pytest.mark.parametrize("text, message", [
    ("m_avg: 2.5\n", "m_avg: 2.5 is not a whole number"),
    ("tracker: {lags: 3}\n", "unknown key 'lags'")])
def test_validate_rejects_truncation_and_typos(tmp_path, text, message):
    # both used to print "ok" and run another grid than the one written
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    res = invoke("validate", "--config", str(cfg))
    assert res.exit_code == 1
    assert message in res.output


def test_validate_negative_seed(tmp_path):
    # used to print "ok", after which every trial of a run failed
    cfg = tmp_path / "c.yaml"
    cfg.write_text("profile: eva\nmaster_seed: -1\n")
    res = invoke("validate", "--config", str(cfg))
    assert res.exit_code == 1
    assert "master_seed must be >= 0" in res.output


def test_run_negative_seed_is_config_error(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("profile: eva\nduration_ms: 3\ntrials: 1\n")
    res = invoke("run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--seed", "-1")
    assert res.exit_code == 1
    assert "master_seed must be >= 0" in res.output
    assert not (tmp_path / "out").exists()


def test_validate_duplicate_scenario_ids(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("profile: eva\nfd_hz: [400, 400]\n")
    res = invoke("validate", "--config", str(cfg))
    assert res.exit_code == 1
    assert "'eva_fd400_snr15_dur40' occurs twice" in res.output


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("profile: nosuch\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    res = subprocess.run(
        [sys.executable, "-m", "dopplertrack.cli", "validate", "--config", str(cfg)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert res.returncode == 1
    assert "config error" in res.stderr


def test_validate_missing_file():
    res = invoke("validate", "--config", "/no/such/file.yaml")
    assert res.exit_code == 1


def test_run_requires_one_source(tmp_path):
    res = invoke("run", "--out", str(tmp_path))
    assert res.exit_code == 1
    res = invoke("run", "--preset", "eva", "--config", "x.yaml")
    assert res.exit_code == 1


def test_run_small_config(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("profile: eva\nfd_hz: 400\nsnr_db: 15\n"
                   "duration_ms: 5\ntrials: 1\n")
    out = tmp_path / "out"
    res = invoke("run", "--config", str(cfg), "--out", str(out), "--seed", "3")
    assert res.exit_code == 0, res.output
    assert (out / "per_symbol.csv").exists()
    assert (out / "summary.csv").exists()
    with open(out / "summary.csv") as f:
        assert len(f.readlines()) == 2


def test_run_rejects_parallelism_below_one(tmp_path):
    for value in ("0", "-2"):
        res = invoke("run", "--preset", "eva", "--out", str(tmp_path),
                     "--parallelism", value)
        assert res.exit_code == 1
        assert "config error" in res.output
    assert not os.listdir(tmp_path)


def test_run_unknown_preset(tmp_path):
    res = invoke("run", "--preset", "nope", "--out", str(tmp_path))
    assert res.exit_code == 1


def test_oracle_xi_matches_library():
    res = invoke("oracle", "xi", "--fd", "400", "--n", "1024",
                 "--t", "83.33", "--beta", "0")
    assert res.exit_code == 0
    want = xi_exact(400.0, 1024, 83.33e-9, beta=0)
    assert abs(float(res.output.strip()) - want) < 1e-15


def test_oracle_xi_rejects_negative_fd():
    res = invoke("oracle", "xi", "--fd", "-10")
    assert res.exit_code == 1
