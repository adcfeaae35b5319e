"""Tests for experiment configuration loading and validation.

Covers the documented defaults, JSON file parsing with line-numbered
diagnostics, per-field validators (seed, exponent, grid, tolerances,
base-space forms), the defaults < file < flags precedence, and the
normalized echo used for determinism comparisons.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from nlsp import (
    ConfigError,
    DEFAULT_TOLERANCES,
    ExperimentConfig,
    Sphere,
    base_space_from_config,
    build_config,
    load_config_file,
)
from nlsp.config import (
    FIELDS,
    validate_grid,
    validate_p,
    validate_seed,
    validate_tolerances,
)
from nlsp.suites import _tolerances


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Defaults and field validators
# ---------------------------------------------------------------------------


def test_default_config_values():
    cfg = ExperimentConfig()
    assert cfg.seed == 7
    assert cfg.target is None and cfg.base is None
    assert cfg.p is None and cfg.grid is None and cfg.trials is None
    assert cfg.tolerances == {}
    assert cfg.output == "."


def test_default_tolerance_registry():
    """The registry pins every named check tolerance; the geodesic
    energy-equality entry is None because it is target-derived."""
    assert DEFAULT_TOLERANCES["fubini_rel"] == 1e-13
    assert DEFAULT_TOLERANCES["transport_residual"] == 2e-3
    assert DEFAULT_TOLERANCES["speed_residual"] == 2e-3
    assert DEFAULT_TOLERANCES["order_min"] == 0.9
    assert DEFAULT_TOLERANCES["variation_residual"] == 1e-12
    assert DEFAULT_TOLERANCES["counterexample_tv"] == 1e-12
    assert DEFAULT_TOLERANCES["geodesic_residual"] == 1e-9
    assert DEFAULT_TOLERANCES["curvature_sign"] == 1e-8
    assert DEFAULT_TOLERANCES["curvature_flat"] == 1e-10
    assert DEFAULT_TOLERANCES["length_equality"] is None
    assert DEFAULT_TOLERANCES["speed_consistency"] == 5e-3
    assert DEFAULT_TOLERANCES["skorokhod_example"] == 1e-3


def test_effective_tolerances_merge():
    """A config holds its overrides only; a run merges them over the
    defaults, keeping the target-derived None entry."""
    cfg = ExperimentConfig(tolerances={"fubini_rel": 1e-10})
    assert cfg.tolerances == {"fubini_rel": 1e-10}
    eff = _tolerances(cfg.tolerances)
    assert eff["fubini_rel"] == 1e-10
    assert eff["curvature_sign"] == 1e-8
    assert eff["length_equality"] is None


def test_validator_table_covers_the_config_fields_in_order():
    assert list(FIELDS) == [f.name for f in dataclasses.fields(
        ExperimentConfig)]


def test_validate_seed():
    assert validate_seed(0) == 0
    assert validate_seed(2 ** 64 - 1) == 2 ** 64 - 1
    with pytest.raises(ConfigError, match="64 bits"):
        validate_seed(2 ** 64)
    with pytest.raises(ConfigError, match=">= 0"):
        validate_seed(-1)
    with pytest.raises(ConfigError, match="integer"):
        validate_seed(1.5)
    with pytest.raises(ConfigError, match="integer"):
        validate_seed(True)


def test_validate_p():
    assert validate_p(2) == 2.0
    assert validate_p("inf") == math.inf
    with pytest.raises(ConfigError, match="p >= 1"):
        validate_p(0.5)
    with pytest.raises(ConfigError, match="NaN"):
        validate_p(float("nan"))


def test_validate_grid():
    assert validate_grid(33) == (33,)
    assert validate_grid([17, 33, 65]) == (17, 33, 65)
    with pytest.raises(ConfigError, match="strictly increasing"):
        validate_grid([33, 33])
    with pytest.raises(ConfigError, match=">= 2"):
        validate_grid(1)
    with pytest.raises(ConfigError, match="non-empty"):
        validate_grid([])


def test_validate_tolerances():
    assert validate_tolerances({"fubini_rel": 1e-9}) == {"fubini_rel": 1e-9}
    with pytest.raises(ConfigError, match="unknown tolerance"):
        validate_tolerances({"not_a_check": 1.0})
    with pytest.raises(ConfigError, match="positive finite"):
        validate_tolerances({"fubini_rel": 0.0})
    with pytest.raises(ConfigError, match="positive finite"):
        validate_tolerances({"fubini_rel": math.inf})
    with pytest.raises(ConfigError, match="object"):
        validate_tolerances([1.0])


# ---------------------------------------------------------------------------
# Base-space config forms
# ---------------------------------------------------------------------------


def test_base_space_explicit_atoms():
    space = base_space_from_config(
        {"atoms": [{"id": "a", "weight": 0.5}, {"id": "b", "weight": 1.5}]})
    assert space.atom_ids == ("a", "b")
    assert np.array_equal(space.weights_array, np.array([0.5, 1.5]))


def test_base_space_generated_uniform():
    space = base_space_from_config(
        {"count": 4, "weight_law": "uniform", "mass": 2.0})
    assert space.atom_ids == ("x0", "x1", "x2", "x3")
    assert np.allclose(space.weights_array, 0.5)
    assert space.total_mass == pytest.approx(2.0, abs=1e-15)


def test_base_space_generated_linear():
    """Linear law gives weights proportional to 1, 2, ..., n summing to
    the requested mass."""
    space = base_space_from_config({"count": 3, "weight_law": "linear"})
    assert np.allclose(space.weights_array, np.array([1.0, 2.0, 3.0]) / 6.0)


def test_base_space_rejects_bad_forms():
    with pytest.raises(ConfigError, match="next to 'atoms'"):
        base_space_from_config({"atoms": [{"id": "a", "weight": 1.0}],
                                "count": 2})
    with pytest.raises(ConfigError, match="neither 'atoms' nor 'count'"):
        base_space_from_config({})
    with pytest.raises(ConfigError, match="unknown keys"):
        base_space_from_config({"count": 2, "shape": "odd"})
    with pytest.raises(ConfigError, match="weight law"):
        base_space_from_config({"count": 2, "weight_law": "quadratic"})
    with pytest.raises(ConfigError, match="mass"):
        base_space_from_config({"count": 2, "mass": 0.0})
    with pytest.raises(ConfigError, match="non-empty list"):
        base_space_from_config({"atoms": []})
    with pytest.raises(ConfigError, match="keys 'id' and"):
        base_space_from_config({"atoms": [{"id": "a"}]})
    with pytest.raises(ConfigError, match="weight must be"):
        base_space_from_config({"atoms": [{"id": "a", "weight": -1.0}]})
    with pytest.raises(ConfigError, match="object"):
        base_space_from_config("four atoms please")


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------


def test_load_config_file_roundtrip(tmp_path):
    path = write_config(tmp_path, {
        "seed": 11,
        "target": {"kind": "sphere", "dim": 3},
        "base": {"count": 3},
        "p": 2,
        "grid": [17, 33],
        "trials": 5,
        "tolerances": {"fubini_rel": 1e-10},
        "output": "out",
    })
    data = load_config_file(path)
    assert data["seed"] == 11
    assert data["p"] == 2.0
    assert data["grid"] == (17, 33)
    assert data["trials"] == 5
    assert data["tolerances"] == {"fubini_rel": 1e-10}
    assert data["output"] == "out"
    cfg = ExperimentConfig(**data)
    assert isinstance(cfg.target_space(), Sphere)
    assert cfg.base_space().atom_ids == ("x0", "x1", "x2")


def test_load_config_file_accepts_p_inf(tmp_path):
    path = write_config(tmp_path, {"p": "inf"})
    assert load_config_file(path)["p"] == math.inf


def test_unknown_key_diagnostic_names_line_and_field(tmp_path):
    """Unknown keys, such as a 'threads' setting, report their line."""
    path = write_config(tmp_path, {"seed": 3, "threads": 8})
    with pytest.raises(ConfigError) as err:
        load_config_file(path)
    assert "'threads'" in str(err.value)
    assert err.value.line == 3  # "threads" sits on line 3 of the file
    assert err.value.field == "threads"


@pytest.mark.parametrize("text,line,field", [
    ('{\n  "seed": 3,\n  "seed": 4\n}\n', 3, "seed"),
    ('{"seed": 3, "seed": 4}', 1, "seed"),
    ('{\n  "target": {"kind": "sphere",\n             "kind": "spd"}\n}\n',
     3, "kind"),
    ('{\n  "tolerances": {"fubini_rel": 1e-9,\n'
     '                 "fubini_rel": 1e-8}\n}\n', 3, "fubini_rel"),
    # "weight" occurs three times, so the hook cannot tell that the repeat
    # sits on line 5; it names no line rather than a wrong one.
    ('{\n  "base": {"atoms": [{"id": "a", "weight": 1},\n'
     '                     {"id": "b",\n'
     '                      "weight": 1,\n'
     '                      "weight": 2}]}\n}\n', None, "weight"),
], ids=["top", "one-line", "target", "tolerances", "key-of-an-earlier-object"])
def test_duplicate_keys_are_refused_at_any_depth(tmp_path, text, line, field):
    """A repeated key is an error, not a silent last-one-wins."""
    path = tmp_path / "dup.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="duplicate key") as err:
        load_config_file(path)
    assert err.value.field == field
    assert err.value.line == line


def test_field_lines_point_at_keys_not_values(tmp_path):
    """An atom named "seed" does not capture the top-level seed's line."""
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "base": {"atoms": [{"id": "seed", "weight": 1}]},\n'
                    '  "seed": -1\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match=">= 0") as err:
        load_config_file(path)
    assert (err.value.line, err.value.field) == (3, "seed")


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "seed": 3,\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON") as err:
        load_config_file(path)
    assert err.value.line == 3


def test_non_object_top_level_rejected(tmp_path):
    path = tmp_path / "listy.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(ConfigError, match="top-level"):
        load_config_file(path)


def test_field_errors_carry_line_numbers(tmp_path):
    path = write_config(tmp_path, {"seed": 3, "grid": [33, 17]})
    with pytest.raises(ConfigError, match="strictly increasing") as err:
        load_config_file(path)
    assert err.value.line is not None
    assert err.value.field == "grid"


def test_bad_target_in_file_is_rejected_eagerly(tmp_path):
    path = write_config(tmp_path, {"target": {"kind": "torus"}})
    with pytest.raises(ConfigError, match="unknown target kind"):
        load_config_file(path)


def test_bad_base_in_file_is_rejected_eagerly(tmp_path):
    path = write_config(tmp_path, {"base": {"count": 0}})
    with pytest.raises(ConfigError, match=">= 1"):
        load_config_file(path)


# ---------------------------------------------------------------------------
# Precedence and the normalized echo
# ---------------------------------------------------------------------------


def test_build_config_precedence(tmp_path):
    """Flags override file values; file values override defaults; None
    flags are ignored; tolerance flags merge on top of file tolerances."""
    path = write_config(tmp_path, {
        "seed": 11, "p": 2, "trials": 4,
        "tolerances": {"fubini_rel": 1e-10, "order_min": 0.8},
    })
    cfg = build_config(
        path, seed=99, p=None,
        tolerances={"fubini_rel": 1e-7})
    assert cfg.seed == 99          # flag wins
    assert cfg.p == 2.0            # file survives the None flag
    assert cfg.trials == 4
    assert cfg.tolerances == {"fubini_rel": 1e-7, "order_min": 0.8}


@pytest.mark.parametrize("flags,message", [
    ({"seed": 2 ** 64}, "field 'seed': must fit in 64 bits"),
    ({"seed": -1}, "field 'seed': must be >= 0, got -1"),
    ({"seed": True}, "field 'seed': expected an integer"),
    ({"trials": 0}, "field 'trials': must be >= 1"),
    ({"output": ""}, "field 'output': expected a non-empty string"),
    ({"tolerances": {"fubini_rel": -1.0}},
     "field 'tolerances.fubini_rel': expected a positive finite number"),
    ({"threads": 2}, "field 'threads': unknown key 'threads'"),
], ids=["seed-65-bits", "seed-negative", "seed-bool", "trials", "output",
        "tolerance", "unknown"])
def test_flags_pass_the_file_validators(flags, message):
    """A flag value is checked exactly like the same value in a file."""
    with pytest.raises(ConfigError) as err:
        build_config(None, **flags)
    assert str(err.value).startswith(message)


def test_build_config_without_file_uses_defaults():
    cfg = build_config(None, trials=6)
    assert cfg.seed == 7
    assert cfg.trials == 6
    assert cfg.target is None


def test_normalized_excludes_runtime_only_settings():
    """The output directory never enters the echo, so two runs differing
    only there compare equal."""
    a = ExperimentConfig(seed=5, p=2.0, output="/tmp/a")
    b = ExperimentConfig(seed=5, p=2.0, output="/somewhere/else")
    assert a.normalized() == b.normalized()
    assert "output" not in a.normalized()


def test_normalized_serializes_p_inf_as_string():
    cfg = ExperimentConfig(p=math.inf)
    echo = cfg.normalized()
    assert echo["p"] == "inf"
    json.dumps(echo)  # must be JSON-able


def test_normalized_sorts_tolerances():
    cfg = ExperimentConfig(tolerances={"order_min": 0.95, "fubini_rel": 1e-9})
    assert list(cfg.normalized()["tolerances"]) == ["fubini_rel", "order_min"]
