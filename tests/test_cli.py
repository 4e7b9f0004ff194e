import os

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
