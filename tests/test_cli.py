"""End-to-end tests of the command-line interface.

Runs real subcommands through Click's test runner and checks exit
codes (0 pass / 1 invariant failure / 2 bad configuration), the
summary.json structure, CSV artifacts, tolerance overrides, rejection
of settings and tolerances a battery does not read, and byte-level
determinism of the written artifacts across output directories.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from nlsp import suites
from nlsp.cli import main
from nlsp.suites import BATTERIES


@pytest.fixture()
def runner():
    return CliRunner()


def write_json(tmp_path: Path, name: str, data: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return path


def read_summary(outdir: Path) -> dict:
    return json.loads((outdir / "summary.json").read_text(encoding="utf-8"))


def test_counterexample_subcommand_writes_exact_csv(runner, tmp_path):
    """The p=1 counterexample passes and its CSV carries the exact
    unit Lipschitz bounds, moduli, and variation."""
    out = tmp_path / "out"
    result = runner.invoke(main, ["transport", "--counterexample-p1",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "OK: counterexample" in result.output
    summary = read_summary(out)
    assert summary["passed"] is True
    assert summary["suites"]["counterexample"]["metrics"]["sizes"] == [4, 16, 64]
    rows = (out / "counterexample_p1.csv").read_text().splitlines()
    assert rows[0] == "n,lipschitz_lo,lipschitz_hi,max_atom_modulus,total_variation"
    for row, n in zip(rows[1:], (4, 16, 64)):
        assert row == f"{n},1.0,1.0,1.0,1.0"


def test_curvature_subcommand_with_flat_target(runner, tmp_path):
    """A Euclidean target keeps every comparison residual at roundoff."""
    cfg = write_json(tmp_path, "cfg.json", {
        "target": {"kind": "euclidean", "dim": 2},
        "base": {"count": 3, "weight_law": "linear"},
        "trials": 60,
    })
    out = tmp_path / "out"
    result = runner.invoke(main, ["curvature", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = read_summary(out)
    assert summary["passed"] is True
    metrics = summary["suites"]["curvature"]["metrics"]
    assert metrics["residual_abs_max"] < 1e-10
    assert (out / "curvature_residuals.csv").exists()


def test_geodesic_subcommand_with_configured_target(runner, tmp_path):
    """A configured SPD target and explicit base space produce a trace
    whose constant-speed residuals sit under the default tolerance."""
    cfg = write_json(tmp_path, "cfg.json", {
        "target": {"kind": "spd", "matrix_dim": 2},
        "base": {"atoms": [{"id": "a", "weight": 0.5},
                           {"id": "b", "weight": 1.0},
                           {"id": "c", "weight": 0.25}]},
        "trials": 2,
        "grid": 17,
        "p": 2,
    })
    out = tmp_path / "out"
    result = runner.invoke(main, ["geodesic", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = read_summary(out)
    assert summary["passed"] is True
    assert summary["config"]["target"] == {"kind": "spd", "matrix_dim": 2}
    metrics = summary["suites"]["geodesic"]["metrics"]
    assert metrics["targets"] == ["spd"]
    assert metrics["max_constant_speed_residual"] < 1e-9
    rows = (out / "geodesic_trace.csv").read_text().splitlines()
    assert rows[0] == "t,distance_from_start,constant_speed_residual"
    residuals = [float(line.split(",")[2]) for line in rows[1:]]
    assert max(residuals) < 1e-9


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("command,settings", [
    ("geodesic", {"p": "inf", "trials": 1, "grid": 5}),
    ("fubini", {"p": "inf", "trials": 1}),
], ids=["geodesic", "fubini"])
def test_summary_at_p_inf_is_strict_json(runner, tmp_path, command, settings):
    """An infinite exponent is written as the string "inf": the summary
    parses with a parser that refuses Infinity and NaN."""
    cfg = write_json(tmp_path, "cfg.json", settings)
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"),
                         parse_constant=_refuse_constant)
    assert summary["suites"][command]["metrics"]["p_values"][-1] == "inf"


def test_tolerance_flag_can_force_a_failure(runner, tmp_path):
    """An impossible tolerance turns a passing battery into exit 1 and
    the failure names land on stderr and in summary.json."""
    cfg = write_json(tmp_path, "cfg.json", {"trials": 5})
    out = tmp_path / "out"
    result = runner.invoke(main, ["fubini", "--config", str(cfg),
                                  "--tolerance", "fubini_rel=1e-30",
                                  "--out", str(out)])
    assert result.exit_code == 1
    assert "FAIL[fubini]" in result.stderr
    assert "iterated_norm" in result.stderr
    summary = read_summary(out)
    assert summary["passed"] is False
    assert summary["suites"]["fubini"]["failures"]


def test_unused_config_settings_are_rejected(runner, tmp_path):
    """A battery refuses settings it would silently ignore."""
    cfg = write_json(tmp_path, "cfg.json", {"p": 2})
    result = runner.invoke(main, ["skorokhod", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "configuration error" in result.stderr
    assert "not used by 'skorokhod'" in result.stderr


def test_invalid_config_file_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": -3}', encoding="utf-8")
    result = runner.invoke(main, ["fubini", "--config", str(path)])
    assert result.exit_code == 2
    assert "configuration error" in result.stderr
    assert "seed" in result.stderr


#: Inputs refused at the door: (argv, config file text or None, message).
REFUSED_INPUTS = [
    (["geodesic", "--seed", str(2 ** 64)], None,
     "field 'seed': must fit in 64 bits"),
    (["all", "--seed", str(2 ** 64)], None,
     "field 'seed': must fit in 64 bits"),
    (["transport", "--counterexample-p1", "--seed", str(2 ** 64)], None,
     "field 'seed': must fit in 64 bits"),
    (["fubini", "--seed", "-1"], None, "field 'seed': must be >= 0, got -1"),
    (["fubini"], '{"seed": 3, "seed": 4}', "duplicate key 'seed'"),
    (["fubini"], '{"output": "résultats"}'.encode("latin-1"), "not UTF-8"),
    (["curvature"], '{"target": {"kind": "euclidean", "dim": true}}',
     "dim must be a positive integer, got True"),
    (["curvature"], '{"target": {"kind": "spd", "matrix_dim": true}}',
     "matrix_dim must be a positive integer, got True"),
    (["geodesic"],
     '{"target": {"kind": "metric_tree", "edges": [["a", "b", true]]}}',
     "edge 0 length must be a number, got True"),
]


@pytest.mark.parametrize(
    "argv,text,message", REFUSED_INPUTS,
    ids=["seed-geodesic", "seed-all", "seed-counterexample", "seed-negative",
         "duplicate-key", "not-utf8", "bool-euclidean-dim", "bool-spd-dim",
         "bool-tree-edge"])
def test_refused_inputs_exit_2_without_a_traceback(runner, tmp_path, argv,
                                                   text, message):
    """Out-of-range flags, repeated keys, files that are not UTF-8 and
    boolean target sizes are configuration errors (exit 2), named on one
    line, before any run."""
    if text is not None:
        path = tmp_path / "cfg.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        argv = [*argv, "--config", str(path)]
    out = tmp_path / "out"
    result = runner.invoke(main, [*argv, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("configuration error: ")
    assert message in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["fubini", "all"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_an_output_path_that_is_a_file_is_refused_before_any_run(
        runner, tmp_path, monkeypatch, command, source):
    """An output path naming an existing file, given by ``--out`` or in a
    config file, is a configuration error (exit 2) on one line, and no
    battery runs."""
    ran = []
    for battery in BATTERIES:
        monkeypatch.setattr(suites, battery.run.__name__,
                            lambda **kwargs: ran.append(kwargs))
    afile = tmp_path / "afile"
    afile.write_text("kept\n", encoding="utf-8")
    if source == "flag":
        argv = [command, "--out", str(afile)]
    else:
        cfg = write_json(tmp_path, "cfg.json", {"output": str(afile)})
        argv = [command, "--config", str(cfg)]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("configuration error: field 'output': ")
    assert len(result.stderr.splitlines()) == 1
    assert ran == []
    assert afile.read_text(encoding="utf-8") == "kept\n"


def test_counterexample_size_flag_requires_mode_flag(runner):
    result = runner.invoke(main, ["transport", "--n", "4"])
    assert result.exit_code == 2
    assert "--n requires --counterexample-p1" in result.stderr


def test_malformed_tolerance_flags_exit_2(runner):
    result = runner.invoke(main, ["fubini", "--tolerance", "fubini_rel"])
    assert result.exit_code == 2
    assert "NAME=VALUE" in result.stderr
    result = runner.invoke(main, ["fubini", "--tolerance", "nope=1"])
    assert result.exit_code == 2
    assert "unknown tolerance" in result.stderr


def test_artifacts_are_deterministic_across_runs(runner, tmp_path):
    """Identical configuration must produce byte-identical summary.json
    and CSV artifacts, regardless of output directory."""
    cfg = write_json(tmp_path, "cfg.json", {
        "target": {"kind": "spd", "matrix_dim": 2},
        "base": {"count": 3},
        "trials": 2,
        "grid": 17,
    })
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = runner.invoke(main, ["geodesic", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append(out)
    first, other = outputs
    for artifact in ("summary.json", "geodesic_trace.csv"):
        assert (first / artifact).read_bytes() \
            == (other / artifact).read_bytes()


def test_a_reused_output_directory_keeps_only_this_runs_tables(runner,
                                                                tmp_path):
    """A second battery run into the same directory removes the first
    run's battery tables, so every table beside ``summary.json`` is one
    that the summary accounts for; a CSV no battery writes is kept."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.csv").write_text("kept\n", encoding="utf-8")
    fubini = runner.invoke(main, ["fubini", "--config", str(write_json(
        tmp_path, "cfg.json", {"trials": 2})), "--out", str(out)])
    assert fubini.exit_code == 0, fubini.output
    assert (out / "fubini_trials.csv").exists()
    result = runner.invoke(main, ["skorokhod", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert list(read_summary(out)["suites"]) == ["skorokhod"]
    assert sorted(p.name for p in out.glob("*.csv")) == [
        "notes.csv", "skorokhod_pairs.csv"]
    assert (out / "notes.csv").read_text(encoding="utf-8") == "kept\n"


# ---------------------------------------------------------------------------
# The config contract of every subcommand
# ---------------------------------------------------------------------------

#: One valid value per battery setting of a config file.
SETTING_VALUES = {
    "target": {"kind": "euclidean", "dim": 2},
    "base": {"count": 3},
    "p": 2,
    "grid": 9,
    "trials": 1,
}

#: Subcommand argv -> the config settings it reads.
ACCEPTED_SETTINGS = {
    ("fubini",): {"trials", "p"},
    ("transport",): {"trials", "p", "grid"},
    ("transport", "--counterexample-p1"): set(),
    ("geodesic",): {"trials", "p", "grid", "target", "base"},
    ("curvature",): {"trials", "target", "base"},
    ("length",): {"trials", "p", "grid"},
    ("speed",): {"trials", "p", "grid"},
    ("skorokhod",): {"trials"},
    ("all",): set(),
}

REJECTED = [(argv, name) for argv, accepted in ACCEPTED_SETTINGS.items()
            for name in SETTING_VALUES if name not in accepted]


@pytest.mark.parametrize(
    "argv,name", REJECTED,
    ids=[f"{' '.join(argv)}:{name}" for argv, name in REJECTED])
def test_every_unused_setting_is_rejected(runner, tmp_path, argv, name):
    """Each subcommand refuses, by name, every setting it would ignore."""
    cfg = write_json(tmp_path, "cfg.json", {name: SETTING_VALUES[name]})
    result = runner.invoke(main, [*argv, "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"not used by '{' '.join(argv)}'" in result.stderr
    assert name in result.stderr


#: Subcommand argv -> a tiny config setting every field it accepts, and the
#: metrics those fields must show up as.
TINY_RUNS = {
    ("fubini",): ({"trials": 2, "p": 3},
                  {"trials": 2, "p_values": [3.0]}),
    ("transport",): ({"trials": 1, "p": 2, "grid": [17, 33]},
                     {"curves": 1, "grids": [17, 33]}),
    ("transport", "--counterexample-p1", "--n", "4"): (
        {}, {"sizes": [4]}),
    ("geodesic",): ({"trials": 1, "p": 2, "grid": 5,
                     "target": {"kind": "sphere", "dim": 3},
                     "base": {"count": 2}},
                    {"trials": 1, "p_values": [2.0], "n_nodes": 5,
                     "targets": ["sphere"]}),
    ("curvature",): ({"trials": 5, "target": {"kind": "euclidean", "dim": 2},
                      "base": {"count": 2}},
                     {"trials": 5}),
    ("length",): ({"trials": 1, "p": 2, "grid": 9},
                  {"trials": 1, "p_values": [2.0]}),
    ("speed",): ({"trials": 1, "p": 2, "grid": [65, 129]},
                 {"curves": 1, "grids": [65, 129]}),
    ("skorokhod",): ({"trials": 3}, {"pairs": 3}),
}


@pytest.mark.parametrize("argv", list(TINY_RUNS),
                         ids=[" ".join(a) for a in TINY_RUNS])
def test_every_accepted_setting_reaches_its_battery(runner, tmp_path, argv):
    """A tiny run with all of a subcommand's settings passes, echoes them,
    and reports them back in the battery's metrics."""
    settings, expected = TINY_RUNS[argv]
    cfg = write_json(tmp_path, "cfg.json", settings)
    out = tmp_path / "out"
    result = runner.invoke(main, [*argv, "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = read_summary(out)
    assert set(summary["config"]) == {"seed", *settings}
    (suite,) = summary["suites"].values()
    for key, value in expected.items():
        assert suite["metrics"][key] == value, key


#: Subcommand -> a setting it accepts but whose value it cannot use, and
#: the diagnostic that names the problem.
UNUSABLE_VALUES = [
    ("transport", "p", 1, "finite exponent > 1"),
    ("speed", "p", "inf", "finite exponent > 1"),
    ("length", "p", 1, "finite exponent > 1"),
    ("transport", "grid", 65, "at least two increasing node counts"),
    ("speed", "grid", [65], "at least two increasing node counts"),
    ("geodesic", "grid", [5, 9], "a single node count"),
    ("length", "grid", [5, 9], "a single node count"),
]


@pytest.mark.parametrize(
    "command,name,value,message", UNUSABLE_VALUES,
    ids=[f"{c}:{n}={v}" for c, n, v, _ in UNUSABLE_VALUES])
def test_unusable_setting_values_exit_2(runner, tmp_path, command, name,
                                        value, message):
    cfg = write_json(tmp_path, "cfg.json", {name: value})
    result = runner.invoke(main, [command, "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert message in result.stderr
    assert name in result.stderr


#: Subcommand argv -> a tolerance its battery never reads.
UNREAD_TOLERANCES = {
    ("fubini",): "speed_residual",
    ("transport",): "fubini_rel",
    ("transport", "--counterexample-p1"): "transport_residual",
    ("geodesic",): "curvature_sign",
    ("curvature",): "geodesic_residual",
    ("length",): "speed_consistency",
    ("speed",): "variation_residual",
    ("skorokhod",): "order_min",
}

UNREAD = [(argv, name, source) for argv, name in UNREAD_TOLERANCES.items()
          for source in ("flag", "file")]


@pytest.mark.parametrize(
    "argv,name,source", UNREAD,
    ids=[f"{' '.join(a)}:{n}:{s}" for a, n, s in UNREAD])
def test_unread_tolerances_are_rejected(runner, tmp_path, argv, name, source):
    """A tolerance override the battery never reads exits 2 by name, from
    a flag or from a config file alike."""
    if source == "flag":
        extra = ["--tolerance", f"{name}=1e-300"]
    else:
        cfg = write_json(tmp_path, "cfg.json", {"tolerances": {name: 1e-300}})
        extra = ["--config", str(cfg)]
    out = tmp_path / "out"
    result = runner.invoke(main, [*argv, *extra, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"field 'tolerances.{name}': not used by '{' '.join(argv)}'" \
        in result.stderr
    assert not out.exists()


#: Battery argv, a tiny config, and a tolerance that battery reads.
FORCED_FAILURES = [
    (("geodesic",), {"trials": 1, "grid": 5, "p": 2}, "geodesic_residual"),
    (("speed",), {"trials": 1, "p": 2, "grid": [65, 129]}, "speed_residual"),
]


@pytest.mark.parametrize("argv,settings,name", FORCED_FAILURES,
                         ids=[n for _, _, n in FORCED_FAILURES])
def test_read_tolerances_still_force_failures(runner, tmp_path, argv,
                                              settings, name):
    """An impossible tolerance the battery reads still fails it (exit 1)."""
    cfg = write_json(tmp_path, "cfg.json", settings)
    out = tmp_path / "out"
    result = runner.invoke(main, [*argv, "--config", str(cfg),
                                  "--tolerance", f"{name}=1e-300",
                                  "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert read_summary(out)["config"]["tolerances"] == {name: 1e-300}


@pytest.mark.parametrize("sizes", [(4, 16), (16, 4)],
                         ids=["4,16", "16,4"])
def test_counterexample_sizes_repeat_in_the_order_given(runner, tmp_path,
                                                        sizes):
    """Each --n adds one counterexample size, in command-line order."""
    out = tmp_path / "out"
    flags = [arg for n in sizes for arg in ("--n", str(n))]
    result = runner.invoke(main, ["transport", "--counterexample-p1", *flags,
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert read_summary(out)["suites"]["counterexample"]["metrics"]["sizes"] \
        == list(sizes)
    rows = (out / "counterexample_p1.csv").read_text().splitlines()
    assert [int(row.split(",")[0]) for row in rows[1:]] == list(sizes)
