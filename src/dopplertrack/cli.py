"""Command line interface.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

import sys

import click

from . import harness, numerics


@click.group()
def main():
    """Doppler spread estimation experiment runner."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="YAML scenario config.")
@click.option("--preset", "preset_name", default=None,
              help="Built-in scenario preset (eva, etu, snr-sweep, convergence).")
@click.option("--out", "out_dir", type=click.Path(), default="out",
              show_default=True, help="Output directory for CSV files.")
@click.option("--seed", type=int, default=None, help="Master seed override.")
@click.option("--parallelism", type=int, default=1, show_default=True,
              help="Concurrent trials.")
def run(config_path, preset_name, out_dir, seed, parallelism):
    """Run a scenario grid and write per-symbol and summary CSVs."""
    if (config_path is None) == (preset_name is None):
        click.echo("error: exactly one of --config / --preset is required", err=True)
        sys.exit(1)
    if parallelism < 1:
        click.echo("config error: --parallelism must be >= 1, got %d" % parallelism,
                   err=True)
        sys.exit(1)
    try:
        if config_path is not None:
            scenarios = harness.load_config(config_path, seed_override=seed)
        else:
            scenarios = harness.preset_scenarios(preset_name, seed_override=seed)
    except harness.ConfigError as exc:
        click.echo("config error: %s" % exc, err=True)
        sys.exit(1)
    try:
        results, errors = harness.run_grid(scenarios, parallelism=parallelism)
        for sid, trial, msg in errors:
            click.echo("trial failed: %s trial %d: %s" % (sid, trial, msg), err=True)
        per_path, summary_path = harness.emit_csv(results, out_dir)
    except OSError as exc:
        click.echo("fatal: cannot write output: %s" % exc, err=True)
        sys.exit(2)
    except Exception as exc:
        click.echo("runtime failure: %s" % exc, err=True)
        sys.exit(2)
    click.echo("wrote %s and %s (%d trials, %d failed)"
               % (per_path, summary_path, len(results), len(errors)))
    sys.exit(2 if errors else 0)


@main.command()
@click.option("--config", "config_path", type=click.Path(), required=True)
def validate(config_path):
    """Validate a scenario config without running anything."""
    try:
        scenarios = harness.load_config(config_path)
    except harness.ConfigError as exc:
        click.echo("config error: %s" % exc, err=True)
        sys.exit(1)
    click.echo("ok: %d scenario(s), %d total trials"
               % (len(scenarios), sum(s.trials for s in scenarios)))
    sys.exit(0)


@main.group()
def oracle():
    """Reference numeric evaluations for test scripting."""


@oracle.command("xi")
@click.option("--fd", type=float, required=True, help="Doppler spread in Hz.")
@click.option("--n", "n_tones", type=int, default=1024, show_default=True)
@click.option("--t", "t_ns", type=float, default=1e9 / 12e6,
              show_default=True, help="Sample period in ns.")
@click.option("--beta", type=int, default=0, show_default=True)
@click.option("--rcp", type=float, default=0.125, show_default=True)
def oracle_xi(fd, n_tones, t_ns, beta, rcp):
    """Print the exact time-average correlation factor."""
    try:
        value = numerics.xi_exact(fd, n_tones, t_ns * 1e-9, beta=beta, r_cp=rcp)
    except numerics.NumericsError as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(1)
    click.echo(repr(value))
    sys.exit(0)


if __name__ == "__main__":
    main()
