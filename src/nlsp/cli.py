"""Command-line interface for the experiment suites.

Every subcommand resolves its settings as defaults < config file < flags,
runs one battery (or all of them), writes ``summary.json`` plus CSV tables
into the output directory, and exits with:

* ``0`` — all invariants held,
* ``1`` — at least one invariant failed (names on stderr),
* ``2`` — the configuration was invalid.

Results are a pure function of the configuration echoed in
``summary.json``; the output directory is excluded from that echo because
it never changes a computed number.  The subcommands are generated from
:data:`nlsp.suites.BATTERIES`, which says which config fields and
tolerances each battery reads.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
from collections.abc import Callable
from pathlib import Path

import click
import numpy as np

from .config import ExperimentConfig, build_config
from .errors import ConfigError
from .suites import BATTERIES, Battery, SuiteResult, run_all

#: Config fields that some battery reads, in config order; each subcommand
#: rejects the ones its battery does not read.
_BATTERY_FIELDS = tuple(
    f.name for f in dataclasses.fields(ExperimentConfig)
    if any(f.name in b.fields for b in BATTERIES))

_BATTERY = {b.name: b for b in BATTERIES}
#: Every CSV table a battery writes: a rerun into the same directory
#: removes those it does not write.
_TABLES = frozenset(t for b in BATTERIES for t in b.tables)


def _parse_tolerance_flags(pairs) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ConfigError(f"expected NAME=VALUE, got {item!r}",
                              field="tolerance")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"expected a number, got {value!r}",
                              field=f"tolerance.{name}") from exc
    return out


def _cell(value):
    """Render one CSV cell deterministically."""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return value


def _finish(cfg: ExperimentConfig,
            run: Callable[[], list[SuiteResult]]) -> None:
    """Make the output directory, run, write artifacts (removing any
    battery table the run did not write), exit by pass/fail."""
    outdir = Path(cfg.output)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {cfg.output!r}: "
                          f"{exc.strerror or exc}", field="output") from exc
    results = run()
    summary = {
        "config": cfg.normalized(),
        "passed": all(r.passed for r in results),
        "suites": {
            r.name: {
                "passed": r.passed,
                "metrics": r.metrics,
                "failures": list(r.failures),
            }
            for r in results
        },
    }
    (outdir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    for result in results:
        for name, rows in result.csv.items():
            with open(outdir / f"{name}.csv", "w", newline="",
                      encoding="utf-8") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerows([[_cell(x) for x in row] for row in rows])
    for name in sorted(_TABLES.difference(*(r.csv for r in results))):
        (outdir / f"{name}.csv").unlink(missing_ok=True)
    if not summary["passed"]:
        for result in results:
            for failure in result.failures:
                click.echo(f"FAIL[{result.name}] {failure}", err=True)
        raise SystemExit(1)
    click.echo("OK: " + ", ".join(r.name for r in results)
               + f" -> {outdir / 'summary.json'}")


def _reject_unused(cfg: ExperimentConfig, command: str, accepted=()):
    for name in _BATTERY_FIELDS:
        if name not in accepted and getattr(cfg, name) is not None:
            raise ConfigError(f"not used by {command!r}", field=name)


def _run(cfg: ExperimentConfig, command: str, battery: Battery, **kwargs):
    """Run one battery with the config fields and tolerances it reads,
    rejecting others."""
    _reject_unused(cfg, command, battery.fields)
    for name in sorted(cfg.tolerances):
        if name not in battery.tolerances:
            raise ConfigError(f"not used by {command!r}",
                              field=f"tolerances.{name}")
    for name, (arg, convert) in battery.fields.items():
        value = getattr(cfg, name)
        if value is not None:
            kwargs[arg] = convert(value)
    _finish(cfg, lambda: [battery(cfg.seed, cfg.tolerances, **kwargs)])


def common_options(fn):
    @click.option("--config", "config_path",
                  type=click.Path(exists=True, dir_okay=False),
                  default=None, help="JSON config file.")
    @click.option("--seed", type=int, default=None,
                  help="Root seed for all random streams (default 7).")
    @click.option("--out", "output", default=None,
                  help="Output directory (default '.').")
    @click.option("--tolerance", "tolerance_flags", multiple=True,
                  metavar="NAME=VALUE",
                  help="Override one check tolerance (repeatable).")
    @functools.wraps(fn)
    def wrapper(config_path, seed, output, tolerance_flags, **kwargs):
        try:
            cfg = build_config(
                config_path,
                seed=seed,
                output=output,
                tolerances=_parse_tolerance_flags(tolerance_flags),
            )
            fn(cfg, **kwargs)
        except ConfigError as exc:
            click.echo(f"configuration error: {exc}", err=True)
            raise SystemExit(2) from exc

    return wrapper


@click.group()
def main():
    """Deterministic experiment suites for metric-valued mapping spaces."""


#: Help line of each battery's subcommand.  The p = 1 counterexample has no
#: subcommand of its own: it runs as ``transport --counterexample-p1``.
_HELP = {
    "fubini": "Iterated norms against the joint product norm.",
    "geodesic": "Constant-speed interpolation between mappings.",
    "curvature": "Comparison-sign transfer from targets to mapping spaces.",
    "length": "Energy bounds, geodesic saturation, reparametrization.",
    "speed": "Log-map speed fields against the metric derivative.",
    "skorokhod": "Computable bounds on the jump-time warping distance.",
}


def _add_battery_command(name: str) -> None:
    @main.command(name=name, help=_HELP[name])
    @common_options
    def command(cfg: ExperimentConfig):
        _run(cfg, name, _BATTERY[name])


for _name in _HELP:
    _add_battery_command(_name)


@main.command()
@click.option("--counterexample-p1", is_flag=True,
              help="Run the p=1 moving-indicator counterexample instead.")
@click.option("--n", "n_atoms", type=click.IntRange(min=2), multiple=True,
              help="Atom count for the counterexample; repeatable, run in "
                   "the order given (4, 16, 64 when omitted).")
@common_options
def transport(cfg: ExperimentConfig, counterexample_p1: bool,
              n_atoms: tuple[int, ...]):
    """Atomwise slicing of curves: speed and variation identities."""
    if counterexample_p1:
        sizes = {"sizes": n_atoms} if n_atoms else {}
        _run(cfg, "transport --counterexample-p1", _BATTERY["counterexample"],
             **sizes)
        return
    if n_atoms:
        raise ConfigError("--n requires --counterexample-p1", field="n")
    _run(cfg, "transport", _BATTERY["transport"])


@main.command(name="all")
@common_options
def all_suites(cfg: ExperimentConfig):
    """Run every suite in canonical order."""
    _reject_unused(cfg, "all")
    _finish(cfg, lambda: run_all(seed=cfg.seed, tolerances=cfg.tolerances))


if __name__ == "__main__":
    main()
