"""Acceptance suite: the ten headline guarantees of the package.

Each numbered test pins one advertised behavior at full scale, using
the same batteries the command line exposes.  Suite runs are shared
through module-scoped fixtures so the whole file stays well under the
five-minute budget; the final test round-trips the actual CLI in
subprocesses and byte-compares its artifacts.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from nlsp.suites import (
    run_counterexample,
    run_curvature,
    run_fubini,
    run_geodesic,
    run_length,
    run_skorokhod,
    run_speed,
    run_transport,
)


@pytest.fixture(scope="module")
def fubini_result():
    return run_fubini(seed=7)


@pytest.fixture(scope="module")
def transport_result():
    return run_transport(seed=7)


@pytest.fixture(scope="module")
def counterexample_result():
    return run_counterexample(seed=7)


@pytest.fixture(scope="module")
def geodesic_result():
    return run_geodesic(seed=7)


@pytest.fixture(scope="module")
def curvature_result():
    return run_curvature(seed=7)


@pytest.fixture(scope="module")
def length_result():
    return run_length(seed=7)


@pytest.fixture(scope="module")
def speed_result():
    return run_speed(seed=7)


@pytest.fixture(scope="module")
def skorokhod_result():
    return run_skorokhod(seed=7)


def _order_ok(block: dict, minimum: float = 0.9) -> bool:
    """A refinement passes if its decay order reaches the minimum or the
    residuals already sit at the roundoff floor."""
    if block.get("at_roundoff_floor"):
        return True
    order = block["order"]
    if order == "inf":
        return True
    return float(order) >= minimum


def test_01_iterated_norms_match_joint_norm(fubini_result):
    """100 random product mappings on a 16-node x 8-atom grid: both
    iterated norms reproduce the joint norm to 1e-13 relative, for
    p in {1, 2, 3, inf}, and transposition round-trips exactly."""
    r = fubini_result
    assert r.passed, r.failures
    assert r.metrics["trials"] == 100
    assert len(r.metrics["p_values"]) == 4
    assert r.metrics["max_rel_gap_time_major"] < 1e-13
    assert r.metrics["max_rel_gap_atom_major"] < 1e-13
    assert r.metrics["transpose_roundtrip_exact"] is True


def test_02_curve_speed_matches_atomwise_speeds(transport_result):
    """20 smooth curves into 4-atom sphere and SPD mapping spaces: the
    p-power of the curve speed matches the weighted per-atom speed powers,
    with residual under 2e-3 on the finest grid and at least first-order
    decay across {65, 129, 257} nodes (roundoff-floored counts as
    converged)."""
    r = transport_result
    assert r.passed, r.failures
    assert r.metrics["curves"] == 20
    assert r.metrics["grids"] == [65, 129, 257]
    identity = r.metrics["derivative_identity"]
    for target in ("sphere", "spd"):
        block = identity[target]
        assert block["residual_maxima"][-1] < 2e-3
        assert _order_ok(block)


def test_03_step_curve_variation_identity(transport_result):
    """100 random step curves: weighted per-atom variation reproduces the
    curve's jump variation within 1e-12 on every tested subinterval, and
    the variation measure agrees with the direct variation."""
    r = transport_result
    assert r.passed, r.failures
    assert r.metrics["bv_curves"] == 100
    assert r.metrics["max_variation_residual"] < 1e-12
    assert r.metrics["max_measure_gap"] <= 1e-12


def test_04_mean_distance_counterexample_at_64_atoms(counterexample_result):
    """The moving-indicator curve on 64 atoms is Lipschitz in the mean
    distance with constant 1 (within 2/64), yet every atom slice keeps a
    unit modulus of continuity at every refinement, and the weighted jump
    variation is 1 within 1e-12 — so no atomwise slicing can exist at
    p = 1."""
    r = counterexample_result
    assert r.passed, r.failures
    rows = r.csv["counterexample_p1"]
    header, data = rows[0], rows[1:]
    assert header == ["n", "lipschitz_lo", "lipschitz_hi",
                      "max_atom_modulus", "total_variation"]
    row64 = next(row for row in data if row[0] == 64)
    assert 1.0 - 2.0 / 64 <= row64[1] <= row64[2] <= 1.0 + 2.0 / 64
    assert row64[3] == 1.0
    assert abs(row64[4] - 1.0) <= 1e-12


def test_05_pointwise_geodesics_have_constant_speed(geodesic_result):
    """Atomwise-assembled geodesics over sphere, SPD and tree targets,
    p in {1.5, 2, 3}: constant-speed residual under 1e-9 at grid nodes
    and length equal to the endpoint distance within 1e-9 relative."""
    r = geodesic_result
    assert r.passed, r.failures
    assert r.metrics["targets"] == ["sphere", "spd", "metric_tree"]
    assert r.metrics["p_values"] == [1.5, 2.0, 3.0]
    assert r.metrics["max_constant_speed_residual"] < 1e-9
    assert r.metrics["max_length_rel_gap"] < 1e-9


def test_06_comparison_signs_transfer_to_mapping_spaces(curvature_result):
    """500 random comparison quadruples per target on a 3-atom base:
    SPD mapping spaces stay nonpositive (<= 1e-8), spherical ones stay
    nonnegative (>= -1e-8), flat ones vanish (|.| <= 1e-10), and the
    constant-mapping embedding shows the same sign pattern."""
    r = curvature_result
    assert r.passed, r.failures
    assert r.metrics["trials"] == 500
    targets = r.metrics["targets"]
    assert targets["spd"]["curvature_class"] == "global_npc"
    assert targets["spd"]["residual_max"] <= 1e-8
    assert targets["spd"]["embedded_max"] <= 1e-8
    assert targets["sphere"]["curvature_class"] == "global_nnc"
    assert targets["sphere"]["residual_min"] >= -1e-8
    assert targets["sphere"]["embedded_min"] >= -1e-8
    flat = targets["euclidean"]
    assert flat["curvature_class"] == "flat"
    assert max(abs(flat["residual_min"]), abs(flat["residual_max"])) <= 1e-10
    assert max(abs(flat["embedded_min"]), abs(flat["embedded_max"])) <= 1e-10


def test_07_constant_speed_reparam_reaches_energy_bound(length_result):
    """50 random curves, p in {1.5, 2, 3}: after constant-speed retiming,
    (b - a)^(p-1) * energy exceeds length^p by at most the (1 + 1e-6)^p
    budget.  Retiming moves only the times, so the length it keeps is not
    measured apart."""
    r = length_result
    assert r.passed, r.failures
    reparam = r.metrics["reparam"]
    assert reparam["curves"] == 50
    assert reparam["eps"] == 1e-6
    assert reparam["max_budget_excess"] <= 1e-12
    assert r.metrics["p_values"] == [1.5, 2.0, 3.0]


def test_08_bundle_speed_matches_metric_derivative(speed_result):
    """Log-map velocity fields at p = 2 on flat, spherical and SPD
    targets: the bundle-norm gap to the metric derivative is under 2e-3
    at 257 nodes and decays with order at least 0.9."""
    r = speed_result
    assert r.passed, r.failures
    assert r.metrics["grids"] == [65, 129, 257]
    for target in ("euclidean", "sphere", "spd"):
        block = r.metrics["targets"][target]
        assert block["residual_maxima"][-1] < 2e-3
        assert _order_ok(block)
        assert block["consistency_rel_max"] <= 5e-3


def test_09_jump_warping_bounds_behave(skorokhod_result):
    """The worked warping-distance examples reproduce within 1e-3, and on
    200 random step-curve pairs the lower bound never exceeds the upper
    bound and doubling the warp grid never raises the upper bound."""
    r = skorokhod_result
    assert r.passed, r.failures
    assert r.metrics["pairs"] == 200
    examples = r.metrics["examples"]
    assert examples["self_distance"] <= 1e-3
    assert examples["identical_function_distance"] <= 1e-3
    assert abs(examples["shifted_jump_upper"]
               - examples["shifted_jump_expected"]) <= 1e-3
    assert r.metrics["max_sandwich_violation"] <= 1e-12
    assert r.metrics["max_monotonicity_violation"] <= 1e-12


def test_10_cli_artifacts_are_byte_deterministic(tmp_path):
    """`all --seed 7` run twice writes byte-identical summary.json (and
    CSV tables)."""
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        cmd = [sys.executable, "-m", "nlsp.cli", "all", "--seed", "7",
               "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)

    first = outputs[0]
    summary = json.loads((first / "summary.json").read_text(encoding="utf-8"))
    assert summary["passed"] is True
    assert summary["config"] == {"seed": 7}
    artifacts = sorted(p.name for p in first.iterdir())
    assert "summary.json" in artifacts
    assert any(name.endswith(".csv") for name in artifacts)
    for other in outputs[1:]:
        assert sorted(p.name for p in other.iterdir()) == artifacts
        for name in artifacts:
            assert (first / name).read_bytes() == (other / name).read_bytes(), \
                f"artifact {name} differs between runs"
