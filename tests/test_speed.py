"""Tests for per-atom velocity fields and the bundle speed norm.

Exercises forward-difference differentiation through the target log
map, the weighted aggregation of tangent norms, the gap between the
bundle norm and the curve's metric derivative (zero for geodesic
motion, first-order in the step otherwise), and the refusal of targets
without a tangent chart.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from nlsp import (
    Euclidean,
    FiniteMeasureSpace,
    LpSpace,
    MappingFamily,
    SampledCurve,
    Spd,
    Sphere,
    UnsupportedOperationError,
    ValidationError,
    batch_speeds,
    bundle_norm,
    bundle_norms,
    compute_speed,
    decay_order,
    decompose_ac,
    default_tree,
    sample_smooth_paths,
    speed_identity_residual,
    tangent_norms,
    trial_rng,
)
from nlsp.rng import trial_rngs
from nlsp.transport import speed_table


def plane_family(weights=(1.0, 3.0)):
    labels = tuple(f"x{j}" for j in range(len(weights)))
    zeros = tuple(np.zeros(2) for _ in weights)
    return MappingFamily(FiniteMeasureSpace(labels, weights), Euclidean(2),
                         zeros)


def linear_curve(n_nodes=9):
    """Two atoms moving at velocity 2 along orthogonal axes."""
    fam = plane_family()
    times = tuple(float(t) for t in np.linspace(0.0, 1.0, n_nodes))
    values = tuple((np.array([2.0 * t, 0.0]), np.array([0.0, 2.0 * t]))
                   for t in times)
    return SampledCurve(LpSpace(fam, 2.0), times, values)


def test_constant_curve_has_zero_speed_everywhere():
    """No motion: zero vectors, zero bundle norm, zero residual."""
    fam = plane_family()
    times = tuple(float(t) for t in np.linspace(0.0, 1.0, 9))
    frozen = (np.array([1.0, 1.0]), np.array([0.5, 0.0]))
    c = SampledCurve(LpSpace(fam, 2.0), times, (frozen,) * len(times))
    s = compute_speed(decompose_ac(c, 2.0))
    assert float(np.max(bundle_norms(s))) == 0.0
    assert float(np.max(speed_identity_residual(s))) == 0.0


def test_linear_motion_gives_exact_bundle_norm():
    """Atom speeds 2 with weights (1, 3) aggregate to
    (1*4 + 3*4)^(1/2) = 4 at every node, exactly."""
    c = linear_curve()
    s = compute_speed(decompose_ac(c, 2.0))
    assert np.array_equal(tangent_norms(s, 0), np.array([2.0, 2.0]))
    assert all(bundle_norm(s, i) == 4.0 for i in range(9))
    assert float(np.max(speed_identity_residual(s))) == 0.0
    family = c.space.family
    _, bundle, gaps = batch_speeds(
        family.target, family.base_space.weights_array[None], 2.0,
        c.values[:, None], c.times_array)
    assert np.array_equal(bundle, bundle_norms(s)[None])
    assert gaps.tolist() == [0.0]


def test_velocity_vectors_are_anchored_at_curve_values():
    """Each tangent vector's base point is the curve's own value, bit for
    bit."""
    c = linear_curve()
    s = compute_speed(decompose_ac(c, 2.0))
    assert s.bases.shape == s.vectors.shape == (len(c.times), 2, 2)
    for i in range(len(c.times)):
        for j in range(2):
            assert s.bases[i, j].tobytes() == c.values[i, j].tobytes()


def test_unit_speed_great_circle_recovers_angular_rate():
    """Geodesic motion: the forward log is exact, so the bundle norm
    equals the angular rate to roundoff at every node."""
    sphere = Sphere(3)
    fam = MappingFamily(FiniteMeasureSpace(("a",), (1.0,)), sphere,
                        (np.array([1.0, 0.0, 0.0]),))
    omega = 0.6 * math.pi
    times = tuple(float(t) for t in np.linspace(0.0, 1.0, 129))
    values = tuple(
        (np.array([math.cos(omega * t), math.sin(omega * t), 0.0]),)
        for t in times)
    c = SampledCurve(LpSpace(fam, 2.0), times, values)
    s = compute_speed(decompose_ac(c, 2.0))
    assert float(np.max(np.abs(bundle_norms(s) - omega))) < 1e-12


def test_speed_identity_residual_decays_linearly():
    """Warped (non-geodesic) motion: interior residual is first order in
    the step, so doubling the node count roughly halves it; the two
    boundary nodes compare one-sided quotients over the same pair and sit
    at roundoff."""
    rng = trial_rng(0, "test/speed-decay", 0)
    paths = sample_smooth_paths(Spd(2), [rng], p=2.0)
    base = FiniteMeasureSpace(("x0", "x1", "x2", "x3"),
                              tuple(paths.weights[0].tolist()))
    space = LpSpace(MappingFamily(base, paths.target, paths.anchors[0, 0]),
                    2.0)
    res = {}
    for n, (times, values) in zip((129, 257), paths.sweep((129, 257))):
        curve = SampledCurve(space, tuple(times.tolist()), values[:, 0])
        res[n] = speed_identity_residual(compute_speed(decompose_ac(curve,
                                                                    2.0)))
    coarse = float(np.max(res[129][1:-1]))
    fine = float(np.max(res[257][1:-1]))
    assert coarse < 1e-3
    assert fine <= 0.65 * coarse
    assert max(res[129][0], res[129][-1]) < 1e-12


@pytest.mark.parametrize("target", [Sphere(3), Spd(2)], ids=["sphere", "spd"])
def test_smooth_path_speed_meets_its_closed_form(target):
    """Atom ``j`` of a smooth path covers a geodesic of length ``legs[j]``
    at the rate ``phi_j'(t) = (1 - 2 delta) + a_j cos(2 pi t + theta_j)``,
    so the path's speed is ``(sum_j w_j (legs[j] phi_j'(t))^p)^(1/p)``, a
    closed form that calls no distance.  On the transport battery's own
    paths the drawn legs equal the anchors' target distances, and the
    centred difference quotients of ``speed_table`` meet the closed form
    at second order in the step."""
    p = 2.0
    paths = sample_smooth_paths(
        target, trial_rngs(7, f"transport/{target.kind}", range(3)), p=p)
    legs = target.distances(*paths.anchors)
    assert np.max(np.abs(legs - paths.legs)) <= 1e-12
    amp, phase = paths.wiggles
    gaps = []
    for times, values in paths.sweep((65, 129, 257, 513)):
        t = times[:, None, None]
        rate = (1.0 - 2.0 * paths.delta) + amp * np.cos(
            2.0 * math.pi * t + phase)
        exact = np.sum(paths.weights * (paths.legs * rate) ** p,
                       axis=-1) ** (1.0 / p)
        quotients = speed_table(target, paths.weights, p, values, times)[0]
        gaps.append(np.max(np.abs(quotients - exact.T)[:, 1:-1], axis=1))
    for curve_gaps in np.transpose(gaps):
        assert curve_gaps[-1] <= 1e-6
        assert decay_order(curve_gaps.tolist()) >= 1.9


@pytest.mark.parametrize("target", [Euclidean(3), Sphere(3), Spd(2)],
                         ids=["euclidean", "sphere", "spd"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_atomwise_consistency_across_targets(target, p):
    """The bundle norm p-th power matches the weighted sum of per-atom
    metric-derivative powers within the documented slack."""
    rng = trial_rng(0, f"test/speed-consistency/{target.kind}/{p}", 0)
    paths = sample_smooth_paths(target, [rng], p=p)
    [(times, values)] = paths.sweep([129])
    assert batch_speeds(target, paths.weights, p, values, times)[2][0] <= 5e-3


def test_tree_curves_decompose_but_have_no_velocity():
    """Metric-tree curves slice into per-atom curves, yet asking for
    velocity vectors is refused: there is no tangent chart."""
    tree = default_tree()
    rng = trial_rng(0, "test/speed-tree", 0)
    fam = MappingFamily(
        FiniteMeasureSpace(("a", "b"), (1.0, 1.0)), tree,
        (tree.random_point(rng), tree.random_point(rng)))
    times = tuple(float(t) for t in np.linspace(0.0, 1.0, 5))
    values = tuple((tree.random_point(rng), tree.random_point(rng))
                   for _ in times)
    c = SampledCurve(LpSpace(fam, 2.0), times, values)
    d = decompose_ac(c, 2.0)
    assert d.source.values.shape[:2] == (5, 2)  # (node, atom)
    with pytest.raises(UnsupportedOperationError, match="no tangent chart"):
        compute_speed(d)


def test_speed_field_accessors_validate_inputs():
    """Node indices and argument types are checked loudly."""
    s = compute_speed(decompose_ac(linear_curve(), 2.0))
    with pytest.raises(ValidationError, match="TransportDecomposition"):
        compute_speed("nope")
    with pytest.raises(ValidationError, match="node"):
        tangent_norms(s, 99)
    with pytest.raises(ValidationError, match="node"):
        bundle_norm(s, -1)
    with pytest.raises(ValidationError, match="SpeedField"):
        speed_identity_residual("nope")
