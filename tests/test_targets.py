"""Tests for the metric target spaces: distances, geodesics, charts.

Covers the four concrete targets (flat vectors, the unit sphere, SPD
matrices with the affine-invariant metric, and metric trees), their
frozen worked examples, and the randomized batteries for the metric
axioms, geodesic speed, chart roundtrips, and comparison-inequality
signs.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsp import (
    Euclidean,
    GeodesicError,
    MetricTree,
    Spd,
    Sphere,
    UnsupportedOperationError,
    ValidationError,
    default_tree,
    trial_rng,
)
import nlsp.targets as targets
from nlsp.targets import _eigh, _eigvalsh, make_target


def all_spaces():
    return [Euclidean(2), Sphere(3), Spd(2), default_tree()]


def chart_spaces():
    return [Euclidean(2), Sphere(3), Spd(2)]


SPACE_IDS = ["euclidean", "sphere", "spd", "metric_tree"]
CHART_IDS = ["euclidean", "sphere", "spd"]


# ---------------------------------------------------------------------------
# Frozen worked examples
# ---------------------------------------------------------------------------


def test_euclidean_distance_is_vector_norm():
    """A 3-4-5 right triangle gives distance exactly 5."""
    space = Euclidean(2)
    assert space.distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_sphere_distance_is_arc_length():
    """Orthogonal unit vectors are a quarter turn apart."""
    space = Sphere(3)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert space.distance(e1, e2) == pytest.approx(math.pi / 2, abs=1e-15)
    assert space.distance(e1, -e1) == pytest.approx(math.pi, abs=1e-15)


def test_spd_distance_frozen_value():
    """d(I, e^2 I) = ||diag(2, 2)||_F = 2 sqrt(2) in the affine metric."""
    space = Spd(2)
    ident = np.eye(2)
    scaled = np.diag([math.e ** 2, math.e ** 2])
    assert space.distance(ident, scaled) == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-12)


def test_tree_distance_goes_through_branch_points():
    """Points on different branches connect through their common ancestors."""
    tree = default_tree()
    a = (2, 0.5)   # half a unit into edge a-c
    b = (4, 0.2)   # near the start of edge b-e
    # 0.5 back to node a, 1.0 to the root, 2.0 down to node b, 0.2 onward.
    assert tree.distance(a, b) == pytest.approx(3.7, abs=1e-12)
    assert tree.distance(a, a) == 0.0


def test_euclidean_geodesic_midpoint():
    """The segment midpoint is the coordinate average."""
    space = Euclidean(2)
    mid = space.geodesic_point(np.array([0.0, 0.0]), np.array([2.0, 0.0]), 0.5)
    assert np.allclose(mid, [1.0, 0.0], atol=1e-15)


def test_sphere_geodesic_midpoint():
    """The quarter-turn midpoint bisects the angle."""
    space = Sphere(3)
    mid = space.geodesic_point(
        np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 0.5)
    root_half = math.sqrt(0.5)
    assert np.allclose(mid, [root_half, root_half, 0.0], atol=1e-15)


def test_spd_geodesic_midpoint_is_geometric_mean():
    """Between I and 4I the affine midpoint is 2I."""
    space = Spd(2)
    mid = space.geodesic_point(np.eye(2), np.diag([4.0, 4.0]), 0.5)
    assert np.allclose(mid, np.diag([2.0, 2.0]), atol=1e-12)


def test_tree_geodesic_midpoint_lands_on_connecting_path():
    """The midpoint of a cross-branch pair lies on the root-b edge."""
    tree = default_tree()
    a = (2, 0.5)
    b = (4, 0.2)
    mid = tree.geodesic_point(a, b, 0.5)
    assert mid[0] == 1
    assert float(mid[1]) == pytest.approx(0.35, abs=1e-12)
    assert tree.distance(a, mid) == pytest.approx(1.85, abs=1e-12)


def test_sphere_log_map_frozen_value():
    """The log of a quarter turn has norm pi/2 along the second axis."""
    space = Sphere(3)
    base = np.array([1.0, 0.0, 0.0])
    v = space.log_map(base, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(v, [0.0, math.pi / 2, 0.0], atol=1e-12)
    assert space.tangent_norm(base, v) == pytest.approx(math.pi / 2, abs=1e-12)


def test_euclidean_log_map_is_difference():
    """In flat space the log map subtracts coordinates."""
    space = Euclidean(2)
    base = np.array([1.0, 1.0])
    v = space.log_map(base, np.array([2.0, 3.0]))
    assert np.allclose(v, [1.0, 2.0], atol=1e-15)
    assert space.tangent_norm(base, v) == pytest.approx(math.sqrt(5.0),
                                                        abs=1e-15)


def test_spd_tangent_norm_frozen_value():
    """The affine metric rescales tangents by the inverse base point."""
    space = Spd(2)
    assert space.tangent_norm(np.diag([4.0, 4.0]), np.diag([4.0, 0.0])) \
        == pytest.approx(1.0, abs=1e-12)


def test_sphere_comparison_residual_frozen_value():
    """Pole against a quarter-turn equator pair gives (pi/2)^2 / 4."""
    space = Sphere(3)
    res = space.comparison_residual(
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        0.5)
    assert res == pytest.approx(0.25 * (math.pi / 2) ** 2, abs=1e-12)
    assert res > 0.0


# ---------------------------------------------------------------------------
# Domain errors and validation
# ---------------------------------------------------------------------------


def test_sphere_antipodal_geodesic_is_rejected():
    """Antipodal endpoints have no unique geodesic and must raise."""
    space = Sphere(3)
    e1 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(GeodesicError, match="antipodal"):
        space.geodesic_point(e1, -e1, 0.5)
    with pytest.raises(GeodesicError, match="antipodal"):
        space.log_map(e1, -e1)


def test_geodesic_parameter_outside_unit_interval_is_rejected():
    """The interpolation parameter must lie in [0, 1]."""
    space = Euclidean(2)
    a, b = np.zeros(2), np.ones(2)
    with pytest.raises(ValidationError):
        space.geodesic_point(a, b, -0.5)
    with pytest.raises(ValidationError):
        space.geodesic_point(a, b, 1.5)


def test_tree_has_no_tangent_chart():
    """Log, exp, and tangent operations are undefined on a metric tree."""
    tree = default_tree()
    a = tree.node_point("root")
    b = (2, 0.5)
    assert not tree.has_chart
    with pytest.raises(UnsupportedOperationError, match="no tangent chart"):
        tree.log_map(a, b)
    with pytest.raises(UnsupportedOperationError, match="no tangent chart"):
        tree.exp_map(a, np.zeros(1))
    with pytest.raises(UnsupportedOperationError, match="no tangent chart"):
        tree.random_tangent(a, trial_rng(0, "test/tree-tangent", 0))


def test_sphere_tangent_must_be_orthogonal():
    """A tangent with a radial component has no well-defined length."""
    space = Sphere(3)
    base = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match="orthogonal"):
        space.tangent_norm(base, np.array([0.5, 1.0, 0.0]))


def test_point_validation_rejects_malformed_points():
    """Shape, normalization, symmetry and positivity are all enforced."""
    with pytest.raises(ValidationError):
        Euclidean(2).as_point(np.zeros(3))
    with pytest.raises(ValidationError):
        Sphere(3).as_point(np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValidationError, match="symmetric"):
        Spd(2).as_point(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        Spd(2).as_point(np.diag([1.0, -1.0]))
    tree = default_tree()
    with pytest.raises(ValidationError, match=r"must have shape \(2,\)"):
        tree.as_point(np.zeros(1))
    with pytest.raises(ValidationError, match="edge index"):
        tree.as_point((99, 0.0))
    with pytest.raises(ValidationError, match="offset"):
        tree.as_point((0, 5.0))


@pytest.mark.parametrize("point, fault", [
    ((1.7, 0.2), r"edge index must be an integer, got 1\.7"),
    ((2.9, 0.1), r"edge index must be an integer, got 2\.9"),
    ((math.nan, 0.2), r"must be finite, got nan"),
    (("a", 0.2), r"'a' at index \[(1, )?0\] is not numeric"),
    ((-1.0, 0.0), r"edge index must lie in \[0, 5\), got -1"),
], ids=["fraction", "fraction-json", "nan", "non-numeric", "negative"])
def test_tree_edge_must_be_an_integer_index(point, fault):
    """An edge entry that is no integer index in range is refused, in a
    batch, a single point and a JSON point alike, with the value named;
    it is never truncated to an edge."""
    tree = default_tree()
    with pytest.raises(ValidationError, match=fault):
        tree.as_point(point)
    with pytest.raises(ValidationError, match=fault):
        tree.as_points([(0, 0.5), point])
    with pytest.raises(ValidationError, match=fault):
        tree.point_from_jsonable(list(point))
    with pytest.raises(ValidationError, match=fault):
        tree.distance(point, (0, 0.5))
    with pytest.raises(ValidationError, match=fault):
        tree.geodesic_point((0, 0.5), point, 0.5)


def test_tree_points_are_edge_offset_arrays():
    """A tree point is the float pair (edge, offset); offsets within 1e-12
    of the edge ends are clamped, and a canonical batch is kept as is."""
    tree = default_tree()
    y = tree.as_point((2, 1.5 + 1e-13))
    assert y.dtype == float and y.tolist() == [2.0, 1.5]
    assert tree.as_point((0, -1e-13)).tolist() == [0.0, 0.0]
    batch = tree.random_points(trial_rng(0, "test/tree-array", 0), 4)
    assert batch.shape == (4, 2) and tree.as_points(batch) is batch
    assert tree.point_to_jsonable(y) == [2, 1.5]
    assert tree.node_point("c").tolist() == [2.0, 1.5]


def test_tree_edge_list_validation():
    """Self-loops, duplicates, cycles and forests are all rejected."""
    with pytest.raises(ValidationError, match="self-loop"):
        MetricTree((("a", "a", 1.0),))
    with pytest.raises(ValidationError, match="duplicate"):
        MetricTree((("a", "b", 1.0), ("b", "a", 2.0), ("c", "d", 1.0)))
    with pytest.raises(ValidationError, match="cannot form a tree"):
        MetricTree((("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)))
    with pytest.raises(ValidationError, match="not connected"):
        MetricTree((("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0),
                    ("d", "e", 1.0)))
    with pytest.raises(ValidationError, match="positive finite length"):
        MetricTree((("a", "b", -1.0),))
    with pytest.raises(ValidationError, match="at least one edge"):
        MetricTree(())


def test_make_target_roundtrip_and_errors():
    """Every target rebuilds from its own config; bad configs are rejected."""
    for space in all_spaces():
        rebuilt = make_target(space.to_config())
        assert rebuilt.kind == space.kind
        assert rebuilt.to_config() == space.to_config()
    with pytest.raises(ValidationError, match="unknown target kind"):
        make_target({"kind": "hyperbolic"})
    with pytest.raises(ValidationError, match="unknown keys"):
        make_target({"kind": "euclidean", "dim": 2, "radius": 1.0})
    with pytest.raises(ValidationError, match="missing"):
        make_target({"kind": "spd"})


@pytest.mark.parametrize("config", [
    {"kind": "euclidean", "dim": True},
    {"kind": "sphere", "dim": True},
    {"kind": "spd", "matrix_dim": True},
    {"kind": "metric_tree", "edges": [["a", "b", True]]},
    {"kind": "metric_tree", "edges": [["a", "b", "1.5"]]},
], ids=["euclidean", "sphere", "spd", "tree-bool", "tree-string"])
def test_make_target_refuses_non_numeric_sizes(config):
    """``True`` is no dimension and no edge length, although Python counts
    it as the integer 1; a string is no edge length either."""
    with pytest.raises(ValidationError, match="got (True|'1.5')"):
        make_target(config)


# ---------------------------------------------------------------------------
# Identity preservation and serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", all_spaces(), ids=SPACE_IDS)
def test_as_point_preserves_canonical_points(space):
    """Re-wrapping an already-canonical point returns the same object."""
    rng = trial_rng(0, f"test/as-point/{space.kind}", 0)
    y = space.random_point(rng)
    assert space.as_point(y) is y


@pytest.mark.parametrize("space", all_spaces(), ids=SPACE_IDS)
def test_point_serialization_roundtrip(space):
    """Points survive a JSON round trip without loss."""
    rng = trial_rng(0, f"test/serialize/{space.kind}", 0)
    for trial in range(10):
        y = space.random_point(rng)
        data = json.loads(json.dumps(space.point_to_jsonable(y)))
        z = space.point_from_jsonable(data)
        assert space.points_equal(y, z)


# ---------------------------------------------------------------------------
# Randomized batteries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", all_spaces(), ids=SPACE_IDS)
def test_triangle_inequality_battery(space):
    """d(a, c) <= d(a, b) + d(b, c) on 1000 random triples."""
    for trial in range(1000):
        rng = trial_rng(0, f"test/triangle/{space.kind}", trial)
        a, b, c = (space.random_point(rng) for _ in range(3))
        slack = space.distance(a, b) + space.distance(b, c) - space.distance(a, c)
        assert slack >= -1e-10


@pytest.mark.parametrize("space", all_spaces(), ids=SPACE_IDS)
def test_geodesic_constant_speed_battery(space):
    """Interpolation is distance-affine on a 33-node grid, 100 pairs."""
    times = np.linspace(0.0, 1.0, 33)
    worst = 0.0
    for trial in range(100):
        rng = trial_rng(0, f"test/geodesic-speed/{space.kind}", trial)
        a, b = (e[0] for e in space.random_geodesic_pairs(rng, 1))
        total = space.distance(a, b)
        points = [space.geodesic_point(a, b, float(t)) for t in times]
        for i in range(1, len(times)):
            from_start = space.distance(points[0], points[i])
            worst = max(worst, abs(from_start - times[i] * total))
            step = space.distance(points[i - 1], points[i])
            worst = max(worst, abs(step - (times[i] - times[i - 1]) * total))
    assert worst < 1e-9


@pytest.mark.parametrize("space", chart_spaces(), ids=CHART_IDS)
def test_exp_log_roundtrip_battery(space):
    """exp after log returns to the second point, 500 pairs."""
    worst = 0.0
    for trial in range(500):
        rng = trial_rng(0, f"test/exp-log/{space.kind}", trial)
        a, b = (e[0] for e in space.random_geodesic_pairs(rng, 1))
        back = space.exp_map(a, space.log_map(a, b))
        worst = max(worst, space.distance(back, b))
        assert space.tangent_norm(a, space.log_map(a, b)) == pytest.approx(
            space.distance(a, b), abs=1e-9)
    assert worst < 1e-9


@pytest.mark.parametrize("space", chart_spaces(), ids=CHART_IDS)
def test_random_tangent_honors_requested_norm(space):
    """Sampled tangents come back with the requested length."""
    rng = trial_rng(0, f"test/tangent-norm/{space.kind}", 0)
    base = space.random_point(rng)
    v = space.random_tangent(base, rng, norm=2.5)
    assert space.tangent_norm(base, v) == pytest.approx(2.5, abs=1e-9)


@pytest.mark.parametrize("space", all_spaces(), ids=SPACE_IDS)
def test_comparison_sign_battery(space):
    """The quadrilateral comparison residual has the class's sign, 1000 samples."""
    lo, hi = math.inf, -math.inf
    for trial in range(1000):
        rng = trial_rng(0, f"test/comparison/{space.kind}", trial)
        z = space.random_point(rng)
        a, b = (e[0] for e in space.random_geodesic_pairs(rng, 1))
        t = float(rng.uniform(0.05, 0.95))
        res = space.comparison_residual(z, a, b, t)
        lo, hi = min(lo, res), max(hi, res)
    if space.curvature_class == "flat":
        assert max(abs(lo), abs(hi)) < 1e-10
    elif space.curvature_class == "global_npc":
        assert hi <= 1e-8
    else:
        assert space.curvature_class == "global_nnc"
        assert lo >= -1e-8


def test_comparison_residual_vanishes_at_endpoints():
    """At t = 0 and t = 1 the comparison identity is exact."""
    for space in all_spaces():
        rng = trial_rng(0, f"test/comparison-ends/{space.kind}", 0)
        z = space.random_point(rng)
        a, b = (e[0] for e in space.random_geodesic_pairs(rng, 1))
        assert abs(space.comparison_residual(z, a, b, 0.0)) < 1e-12
        assert abs(space.comparison_residual(z, a, b, 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# Two-phase draws: a batch of streams reads and forms like one at a time
# ---------------------------------------------------------------------------


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _streams(space, name: str, k: int = 4):
    return [trial_rng(11, f"test/two-phase/{name}/{space.kind}", i)
            for i in range(k)]


@pytest.mark.parametrize("space", all_spaces(), ids=SPACE_IDS)
def test_a_batch_of_streams_draws_the_bytes_of_each_stream_alone(space):
    """Points, geodesic pairs and tangents drawn from ``k`` streams as one
    stacked batch equal, byte for byte, ``k`` one-stream draws of
    ``random_points``, ``random_geodesic_pairs`` and ``random_tangent``,
    and leave every stream in the same state."""
    batched, single = _streams(space, "draws"), _streams(space, "draws")
    points = space.draw_points(batched, 3)
    ys, zs = space.draw_geodesic_pairs(batched, 2)
    assert points.shape == (4, 3) + space.point_shape
    assert ys.shape == zs.shape == (4, 2) + space.point_shape
    for i, rng in enumerate(single):
        assert _same_bytes(points[i], space.random_points(rng, 3))
        y, z = space.random_geodesic_pairs(rng, 2)
        assert _same_bytes(ys[i], y) and _same_bytes(zs[i], z)
    if space.has_chart:
        norms = np.array([0.5, 1.0, 1.5, 2.5])
        tangents = space.draw_tangents(batched, points[:, 0], norms)
        for i, rng in enumerate(single):
            assert _same_bytes(tangents[i], space.random_tangent(
                points[i, 0], rng, norm=norms[i]))
    for a, b in zip(batched, single):
        assert a.random() == b.random()


class _ScriptedStream:
    """A real stream whose ``k``-th normal read is replaced by
    ``script[k](values, earlier reads)``; it counts every variate read."""

    def __init__(self, rng, script):
        self.rng, self.script = rng, script
        self.normal_reads, self.variates = [], 0

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        k = len(self.normal_reads)
        if k in self.script:
            out = self.script[k](out, self.normal_reads)
        self.normal_reads.append(out)
        self.variates += out.size
        return out

    def uniform(self, low, high, size=None):
        out = self.rng.uniform(low, high, size)
        self.variates += np.size(out)
        return out


def _forced_redraw_both_ways(space, name, script, draw):
    """``draw(streams)`` on three streams, the middle one scripted, as one
    batch and one stream at a time: the values and the scripted stream's
    variate count must agree.  Returns that count."""
    def streams():
        rngs = _streams(space, name, 3)
        rngs[1] = _ScriptedStream(rngs[1], script)
        return rngs

    batch, singles = streams(), streams()
    together = draw(batch)
    for i, rng in enumerate(singles):
        for a, b in zip(together, draw([rng])):
            assert _same_bytes(a[i], b[0])
    assert batch[1].variates == singles[1].variates
    return batch[1].variates


def test_a_degenerate_sphere_normal_is_redrawn_alike_in_a_batch():
    """A sphere normal of norm below 1e-12 is redrawn from its own stream,
    in its own round, whether the stream is drawn alone or in a batch."""
    sphere = Sphere(3)

    def shrink_second_row(out, _):
        out = out.copy()
        out[1] *= 1e-14
        return out

    variates = _forced_redraw_both_ways(
        sphere, "degenerate-normal", {0: shrink_second_row},
        lambda rngs: (sphere.draw_points(rngs, 3),))
    assert variates == 3 * 3 + 3  # one point redrawn


def test_a_degenerate_tangent_projection_is_redrawn_alike_in_a_batch():
    """A tangent normal parallel to its sphere base projects to a vector of
    norm below 1e-12 and is redrawn in its round, alone or in a batch."""
    sphere = Sphere(3)

    def parallel_to_base(_, reads):
        return 2.0 * reads[0][0]

    variates = _forced_redraw_both_ways(
        sphere, "degenerate-tangent", {1: parallel_to_base},
        lambda rngs: sphere.draw_geodesic_pairs(rngs, 2))
    # Two pairs: a point, an angle and a tangent each, plus one redraw.
    assert variates == 2 * (3 + 1 + 3) + 3


@pytest.mark.parametrize("space", chart_spaces(), ids=CHART_IDS)
def test_a_vanishing_tangent_is_redrawn_alike_in_a_batch(space):
    """A zero tangent normal is redrawn on every chart space."""
    size = int(np.prod(space.point_shape))

    def draw(rngs):
        bases = space.draw_points(rngs, 1)[:, 0]
        return bases, space.draw_tangents(rngs, bases, np.ones(len(rngs)))

    variates = _forced_redraw_both_ways(
        space, "vanishing-tangent", {1: lambda out, _: 0.0 * out}, draw)
    assert variates == 3 * size


# ---------------------------------------------------------------------------
# Property-based checks
# ---------------------------------------------------------------------------

coords = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def plane_points(draw):
    """A point of the flat plane with bounded coordinates."""
    return np.array([draw(coords), draw(coords)])


@st.composite
def sphere_points(draw):
    """A unit vector built from a bounded-away-from-zero raw vector."""
    raw = np.array([draw(coords), draw(coords), draw(coords)])
    norm = float(np.linalg.norm(raw))
    if norm < 1e-3:
        raw = np.array([1.0, 0.0, 0.0])
        norm = 1.0
    return raw / norm


@st.composite
def tree_points(draw):
    """A point on a fixed five-edge tree, anywhere along any edge."""
    tree = default_tree()
    edge = draw(st.integers(min_value=0, max_value=len(tree.edges) - 1))
    frac = draw(st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False))
    return (edge, frac * tree.edges[edge][2])


@settings(max_examples=60, deadline=None)
@given(a=plane_points(), b=plane_points())
def test_plane_distance_symmetry(a, b):
    """Flat distance is symmetric and zero exactly on the diagonal."""
    space = Euclidean(2)
    assert space.distance(a, b) == space.distance(b, a)
    assert space.distance(a, a) == 0.0


@settings(max_examples=60, deadline=None)
@given(a=sphere_points(), b=sphere_points())
def test_sphere_distance_bounds_and_symmetry(a, b):
    """Arc distance is symmetric and confined to [0, pi]."""
    space = Sphere(3)
    d = space.distance(a, b)
    assert d == pytest.approx(space.distance(b, a), abs=1e-12)
    assert 0.0 <= d <= math.pi + 1e-12


@settings(max_examples=60, deadline=None)
@given(a=tree_points(), b=tree_points(), c=tree_points())
def test_tree_metric_axioms(a, b, c):
    """Tree distance is symmetric and satisfies the triangle inequality."""
    tree = default_tree()
    assert tree.distance(a, b) == pytest.approx(tree.distance(b, a), abs=1e-12)
    assert (tree.distance(a, c)
            <= tree.distance(a, b) + tree.distance(b, c) + 1e-12)


@settings(max_examples=60, deadline=None)
@given(a=plane_points(), b=plane_points(),
       s=st.floats(min_value=0.0, max_value=1.0),
       t=st.floats(min_value=0.0, max_value=1.0))
def test_plane_geodesic_is_distance_affine(a, b, s, t):
    """d(gamma(s), gamma(t)) = |t - s| d(a, b) along a flat segment."""
    space = Euclidean(2)
    gs = space.geodesic_point(a, b, s)
    gt = space.geodesic_point(a, b, t)
    expected = abs(t - s) * space.distance(a, b)
    assert space.distance(gs, gt) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# The 3x3 Jacobi eigensolver behind every SPD(3) matrix function
# ---------------------------------------------------------------------------


def _rotations(rng, n: int) -> np.ndarray:
    """``n`` random rotation matrices (Haar, through a sign-fixed QR)."""
    q, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def _symmetric(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _random_stacks(rng, n: int) -> dict:
    g = rng.standard_normal((n, 3, 3))
    return {"spd": g @ g.swapaxes(-1, -2), "symmetric": g + g.swapaxes(-1, -2)}


#: Known spectra: a spread of 1e8, repeated and nearly repeated values,
#: an indefinite one and a triple eigenvalue.
_SPECTRA = np.array([[1e-8, 0.5, 1.0], [1.0, 1.0, 2.0], [0.25, 2.0, 7.5],
                     [1.0, 1.0 + 1e-12, 4.0], [-2.0, -2.0, 5.0],
                     [-1.0, 0.0, 1.0], [3.0, 3.0, 3.0]])


def test_jacobi_meets_an_oracle_of_known_spectra():
    """``R diag(lam) R^T`` for random rotations ``R`` and known ``lam``:
    the eigenvalues come back ascending within 1e-13 max|lam|, the
    eigenvectors are orthonormal and reconstruct the matrix within 1e-15
    (relative to max|lam|), and ``_eigvalsh`` returns ``_eigh``'s values."""
    rng = np.random.default_rng(20261018)
    lam = np.repeat(_SPECTRA, 300, axis=0)
    r = _rotations(rng, len(lam))
    a = _symmetric((r * lam[:, None, :]) @ r.swapaxes(-1, -2))
    w, v = _eigh(a)
    scale = np.abs(lam).max(axis=-1)
    assert np.all(np.abs(w - lam).max(axis=-1) <= 1e-13 * scale)
    assert np.all(np.diff(w, axis=-1) >= 0.0)
    recon = (v * w[:, None, :]) @ v.swapaxes(-1, -2)
    assert np.all(np.abs(recon - a).max(axis=(-2, -1)) <= 1e-15 * scale)
    assert np.abs(v.swapaxes(-1, -2) @ v - np.eye(3)).max() <= 1e-15
    assert np.array_equal(_eigvalsh(a), w)


@pytest.mark.parametrize("kind", ["spd", "symmetric"])
def test_jacobi_agrees_with_lapack(kind):
    """On 10,000 random SPD(3) and symmetric 3x3 matrices, eigenvalues
    agree with LAPACK within 1e-12 ||A||, and each eigenvector, with its
    sign matched, within 1e-12 ||A|| / (its eigenvalue's gap)."""
    a = _random_stacks(np.random.default_rng(7), 10_000)[kind]
    w, v = _eigh(a)
    w_ref, v_ref = np.linalg.eigh(a)
    norm = np.linalg.norm(a, 2, axis=(-2, -1))[:, None]
    assert np.all(np.abs(w - w_ref) <= 1e-12 * norm)
    assert np.all(np.abs(_eigvalsh(a) - np.linalg.eigvalsh(a)) <= 1e-12 * norm)
    gaps = np.minimum(
        np.diff(w_ref, axis=-1, prepend=-np.inf),
        np.diff(w_ref, axis=-1, append=np.inf))
    sign = np.sign(np.einsum("nij,nij->nj", v, v_ref))
    err = np.abs(v * sign[:, None, :] - v_ref).max(axis=-2)
    assert np.all(err * gaps <= 1e-12 * norm)


def test_jacobi_results_do_not_depend_on_the_batch(monkeypatch):
    """A matrix alone, in a slice of a batch, or across a chunk boundary
    (the batch spans two chunks, then chunks of 7) decomposes to the same
    bits: a converged matrix is never rotated again."""
    rng = np.random.default_rng(11)
    stacks = _random_stacks(rng, targets._JACOBI_CHUNK + 8)
    batch = np.concatenate([stacks["spd"][:-8], [np.eye(3)],
                            stacks["symmetric"][-7:]])
    w, v = _eigh(batch)
    values = _eigvalsh(batch)
    edge = targets._JACOBI_CHUNK
    for i in (0, 1, edge - 2, edge - 1, edge, edge + 1, len(batch) - 1):
        wi, vi = _eigh(batch[i])
        assert np.array_equal(wi, w[i]) and np.array_equal(vi, v[i])
        assert np.array_equal(_eigvalsh(batch[i]), values[i])
    ws, vs = _eigh(batch[edge - 3:edge + 3])
    assert np.array_equal(ws, w[edge - 3:edge + 3])
    assert np.array_equal(vs, v[edge - 3:edge + 3])
    monkeypatch.setattr(targets, "_JACOBI_CHUNK", 7)
    w7, v7 = _eigh(batch)
    assert np.array_equal(w7, w) and np.array_equal(v7, v)


@pytest.mark.parametrize("matrix,expected", [
    (np.eye(3), [1.0, 1.0, 1.0]),
    (np.diag([5.0, -1.0, 2.0]), [-1.0, 2.0, 5.0]),
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [-1.0, 0.0, 1.0]),
    (np.zeros((3, 3)), [0.0, 0.0, 0.0]),
], ids=["identity", "diagonal", "zero_diagonal_indefinite", "zero"])
def test_jacobi_edge_matrices(matrix, expected):
    """Exact spectra, ascending, with orthonormal vectors that reconstruct
    the matrix; a diagonal matrix comes back as a permuted identity."""
    a = np.asarray(matrix, float)
    w, v = _eigh(a)
    np.testing.assert_allclose(w, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(v.T @ v, np.eye(3), rtol=0, atol=1e-15)
    np.testing.assert_allclose((v * w) @ v.T, a, rtol=0, atol=1e-15)
    if np.array_equal(a, np.diag(np.diagonal(a))):
        assert np.array_equal(np.abs(v).T @ np.diagonal(a), w)


@pytest.mark.parametrize("shape", [(), (0,), (2, 0), (1,), (2, 3)])
def test_jacobi_keeps_the_batch_shape(shape):
    """Zero batch axes, empty batches and nested batches keep their shape."""
    a = np.broadcast_to(np.diag([3.0, 1.0, 2.0]), shape + (3, 3))
    w, v = _eigh(a)
    assert w.shape == shape + (3,) and v.shape == shape + (3, 3)
    assert _eigvalsh(a).shape == shape + (3,)
    if w.size:
        assert np.all(w == [1.0, 2.0, 3.0])


def test_jacobi_returns_nan_for_nan_input_within_the_sweep_bound():
    """A NaN entry gives NaN eigenvalues after at most ``_JACOBI_SWEEPS``
    sweeps (LAPACK raises LinAlgError there instead), and leaves the other
    matrices of its chunk as they are alone."""
    bad = np.eye(3)
    bad[1, 0] = bad[0, 1] = np.nan
    good = _random_stacks(np.random.default_rng(3), 4)["spd"]
    w, v = _eigh(np.concatenate([good[:2], [bad], good[2:]]))
    assert np.all(np.isnan(w[2])) and np.all(np.isnan(v[2]))
    assert np.all(np.isnan(_eigvalsh(bad)))
    w_good, v_good = _eigh(good)
    assert np.array_equal(np.delete(w, 2, axis=0), w_good)
    assert np.array_equal(np.delete(v, 2, axis=0), v_good)


@pytest.mark.parametrize("power", [600, -600])
def test_jacobi_scales_exactly_by_powers_of_two(power):
    """Entries near 1e180 or 1e-180, whose squares overflow or underflow,
    decompose to the unscaled result times the same power of two, bit for
    bit."""
    a = _random_stacks(np.random.default_rng(5), 200)["symmetric"]
    w, v = _eigh(a)
    w_scaled, v_scaled = _eigh(np.ldexp(a, power))
    assert np.array_equal(w_scaled, np.ldexp(w, power))
    assert np.array_equal(v_scaled, v)


# ---------------------------------------------------------------------------
# The closed-form 2x2 eigensolver behind every SPD(2) matrix function
# ---------------------------------------------------------------------------


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def _agrees_with_lapack(a: np.ndarray) -> None:
    """The kernel decomposes the stack ``a`` itself, with no fallback, into
    LAPACK's bits: values, vectors and their sign bits."""
    w, v = targets._eig2(a, vectors=True)
    w_ref, v_ref = np.linalg.eigh(a)
    assert _bits(w) == _bits(w_ref)
    assert _bits(v) == _bits(v_ref)
    values, none = targets._eig2(a, vectors=False)
    assert none is None and _bits(values) == _bits(np.linalg.eigvalsh(a))


def _spread_stacks(rng, n: int) -> dict:
    """Random symmetric 2x2 matrices whose entries, and SPD ones whose
    factor's columns, are scaled by e^-20 to e^20."""
    g = rng.standard_normal((n, 2, 2))
    sym = g * np.exp(rng.uniform(-20.0, 20.0, (n, 2, 2)))
    h = g * np.exp(rng.uniform(-20.0, 20.0, (n, 1, 2)))
    return {"symmetric": sym + sym.swapaxes(-1, -2),
            "spd": h @ h.swapaxes(-1, -2)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["symmetric", "spd"])
def test_eig2_is_lapack_bit_for_bit(kind):
    """On 20,000 random matrices of each kind of :func:`_spread_stacks`,
    the closed form gives LAPACK's eigenvalues and eigenvectors exactly,
    sign bits included."""
    _agrees_with_lapack(_spread_stacks(np.random.default_rng(20), 20_000)[kind])


@pytest.mark.filterwarnings("error")
def test_eig2_results_do_not_depend_on_the_batch(monkeypatch):
    """A matrix alone, in a slice of a batch, or across a chunk boundary
    (the batch spans two chunks, then chunks of 7) decomposes to the same
    bits."""
    stacks = _spread_stacks(np.random.default_rng(12), targets._JACOBI_CHUNK)
    batch = np.concatenate([stacks["spd"][:-8], [np.eye(2)],
                            stacks["symmetric"][-16:]])
    w, v = _eigh(batch)
    values = _eigvalsh(batch)
    edge = targets._JACOBI_CHUNK
    for i in (0, 1, edge - 2, edge - 1, edge, edge + 1, len(batch) - 1):
        wi, vi = _eigh(batch[i])
        assert _bits(wi) == _bits(w[i]) and _bits(vi) == _bits(v[i])
        assert _bits(_eigvalsh(batch[i])) == _bits(values[i])
    ws, vs = _eigh(batch[edge - 3:edge + 3])
    assert _bits(ws) == _bits(w[edge - 3:edge + 3])
    assert _bits(vs) == _bits(v[edge - 3:edge + 3])
    monkeypatch.setattr(targets, "_JACOBI_CHUNK", 7)
    w7, v7 = _eigh(batch)
    assert _bits(w7) == _bits(w) and _bits(v7) == _bits(v)
    assert _bits(_eigvalsh(batch)) == _bits(values)


#: One matrix per branch of the LAPACK step, as ``(d1, e, d2)``.
_EIG2_BRANCHES = {
    "zero_off_diagonal": (3.0, 0.0, -2.0),
    "zero_off_diagonal_ascending": (-1.0, -0.0, 5.0),
    "zero_off_diagonal_equal": (2.0, 0.0, 2.0),
    "a_minus_c_is_2b": (3.0, 1.0, 1.0),
    "a_plus_c_is_0": (1.5, 0.7, -1.5),
    "a_equals_c": (2.0, 0.5, 2.0),
    "a_equals_c_negative_b": (2.0, -0.5, 2.0),
    "negative_zero_diagonal": (-0.0, 1.0, -0.0),
    "negative_zero_difference": (-0.0, 1.0, 0.0),
    # |e| <= sqrt|d1| sqrt|d2| eps: both routines split.
    "split_at_the_bound": (1.0, 2.0 ** -53, 1.0),
    "split_below_it": (1.0, 1e-17, 4.0),
    # Just above it, neither splits nor deflates: a rotation by pi/4
    # between eigenvalues a few ulp apart.
    "just_above_the_split": (1.0, math.nextafter(2.0 ** -53, 1.0), 1.0),
    # e^2 <= safmin: dsteqr deflates, dsterf does not (d1 d2 is too small),
    # and its dlae2 sees sqrt(e^2) of a subnormal e^2.
    "deflated_by_safmin": (1e-290, 1e-155, 1.0),
    "deflated_with_a_zero_diagonal": (0.0, 1e-160, 1.0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d1,e,d2", _EIG2_BRANCHES.values(),
                         ids=_EIG2_BRANCHES.keys())
def test_eig2_branches_are_lapack_bit_for_bit(d1, e, d2):
    """Each branch, in one stack with its mirror image, its negation and a
    random matrix, gives LAPACK's bits."""
    a = np.array([[d1, e], [e, d2]])
    rng = np.random.default_rng(1)
    other = _spread_stacks(rng, 1)["symmetric"][0]
    _agrees_with_lapack(np.stack([a, a[::-1, ::-1], -a, other]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fill", [np.nan, np.inf, 0.0, 2.0 ** -406,
                                  2.0 ** 486],
                         ids=["nan", "inf", "zero", "below", "above"])
def test_eig2_leaves_what_lapack_would_rescale_to_lapack(fill):
    """A stack with a NaN, infinite or zero matrix, or one whose largest
    entry lies outside the range where LAPACK never rescales, goes to
    LAPACK whole; a stack at the edges of that range does not."""
    good = _spread_stacks(np.random.default_rng(4), 3)["spd"]
    bad = np.full((2, 2), fill)
    bad[1, 0] = bad[0, 1] = 0.5 * fill
    stack = np.concatenate([good, [bad]])
    assert targets._eig2(stack, vectors=True) is None
    assert targets._eig2(stack, vectors=False) is None
    w, v = _eigh(stack)
    w_ref, v_ref = np.linalg.eigh(stack)
    assert _bits(w) == _bits(w_ref) and _bits(v) == _bits(v_ref)
    assert _bits(_eigvalsh(stack)) == _bits(np.linalg.eigvalsh(stack))
    lo, hi = targets._EIG2_RANGE
    edges = good / np.abs(good).max(axis=(-2, -1), keepdims=True)
    _agrees_with_lapack(np.concatenate([edges * lo, edges * hi]))


@pytest.mark.filterwarnings("error")
def test_no_small_stack_reaches_lapack_in_run_all(monkeypatch):
    """``run_all(seed=7)`` decomposes every 2x2 and 3x3 stack in closed
    form or by Jacobi, and factors every one in closed form: none reaches
    ``np.linalg``."""
    from nlsp.suites import run_all

    sizes = []

    def recording(solver):
        def call(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return solver(a, *args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh", "cholesky", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name,
                            recording(getattr(np.linalg, name)))
    assert all(r.passed for r in run_all(seed=7))
    assert not {2, 3} & set(sizes)


# ---------------------------------------------------------------------------
# The Cholesky factor behind every SPD base point
# ---------------------------------------------------------------------------


def _spd_stack(rng, n: int, size: int) -> np.ndarray:
    g = rng.standard_normal((size, n, n))
    return g @ g.swapaxes(-1, -2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cholesky_factor_and_inverse_meet_their_targets(n):
    """On 5,000 random SPD(n) matrices: ``l`` is lower triangular with a
    positive diagonal, ``l l^T`` is the matrix within ``2 n eps max|a|``,
    and ``l_inv l`` is the identity within ``n eps cond_2(l)``."""
    a = _spd_stack(np.random.default_rng(21), n, 5000)
    l, l_inv = targets._cholesky(a)
    eps = np.finfo(float).eps
    assert not np.triu(l, 1).any() and not np.triu(l_inv, 1).any()
    assert np.all(np.diagonal(l, axis1=-2, axis2=-1) > 0.0)
    err = np.abs(l @ l.swapaxes(-1, -2) - a).max(axis=(-2, -1))
    assert np.all(err <= 2 * n * eps * np.abs(a).max(axis=(-2, -1)))
    cond = (np.linalg.norm(l, 2, axis=(-2, -1))
            * np.linalg.norm(l_inv, 2, axis=(-2, -1)))
    err = np.abs(l_inv @ l - np.eye(n)).max(axis=(-2, -1))
    assert np.all(err <= n * eps * cond)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cholesky_results_do_not_depend_on_the_batch(n):
    """A matrix alone, in a slice of a batch, or in the batch reshaped to
    two batch axes factors to the same bits."""
    a = _spd_stack(np.random.default_rng(22), n, 12)
    l, l_inv = targets._cholesky(a)
    for i in (0, 5, 11):
        li, li_inv = targets._cholesky(a[i])
        assert _bits(li) == _bits(l[i]) and _bits(li_inv) == _bits(l_inv[i])
    ls, ls_inv = targets._cholesky(a[3:8])
    assert _bits(ls) == _bits(l[3:8]) and _bits(ls_inv) == _bits(l_inv[3:8])
    lr, lr_inv = targets._cholesky(a.reshape(3, 4, n, n))
    assert _bits(lr) == _bits(l) and _bits(lr_inv) == _bits(l_inv)


@pytest.mark.parametrize("n", [2, 3])
def test_spd_kernels_decompose_only_whitened_matrices(monkeypatch, n):
    """No kernel decomposes its base point: ``distances`` and
    ``tangent_norms`` make no ``_eigh`` call, and ``geodesic_points``,
    ``log_maps`` and ``exp_maps`` one each, of the whitened stack."""
    spd = Spd(n)
    rng = trial_rng(0, "test/targets/whitened", n)
    ys, zs = spd.random_points(rng, 6), spd.random_points(rng, 6)
    vs = spd.log_maps(ys, zs)
    calls = []

    def counting(name):
        solver = getattr(targets, name)

        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return solver(a, *args, **kwargs)
        return call

    monkeypatch.setattr(targets, "_eigh", counting("_eigh"))
    monkeypatch.setattr(targets, "_eigvalsh", counting("_eigvalsh"))
    for kernel, args, expected in [
            (spd.distances, (ys, zs), ["_eigvalsh"]),
            (spd.tangent_norms, (ys, vs), []),
            (spd.geodesic_points, (ys, zs, 0.5), ["_eigh"]),
            (spd.log_maps, (ys, zs), ["_eigh"]),
            (spd.exp_maps, (ys, vs), ["_eigh"])]:
        calls.clear()
        kernel(*args)
        assert [name for name, _ in calls] == expected
        assert all(shape == (6, n, n) for _, shape in calls)


@pytest.mark.filterwarnings("error")
def test_spd_base_point_cholesky_cannot_factor_is_refused():
    """A point that clears the eigenvalue floor at condition number 5e16,
    past what a double Cholesky factor can hold, is refused by its batch
    index in every kernel that factors it, not turned into NaN."""
    spd = Spd(2)
    c, s = math.cos(0.4), math.sin(0.4)
    q = np.array([[c, -s], [s, c]])
    bad = (q * np.array([1e7, 2e-10])) @ q.T
    ys = spd.as_points([np.eye(2), 0.5 * (bad + bad.T)])
    zs = spd.as_points([2.0 * np.eye(2)] * 2)
    for kernel, other in [(spd.distances, zs), (spd.log_maps, zs),
                          (spd.tangent_norms, zs), (spd.exp_maps, zs),
                          (lambda a, b: spd.geodesic_points(a, b, 0.5), zs)]:
        with pytest.raises(ValidationError,
                           match=r"point at batch index \(1,\) is too "
                                 r"ill-conditioned: its Cholesky factor"):
            kernel(ys, other)
