"""Tests for the batched target kernels and the layers routed through them.

Each kernel is checked against a plain per-pair loop of the textbook
formula (one matrix or vector at a time; on a metric tree, a walk along
the node path found by breadth-first search), and at the numerical edges:
near-antipodal sphere pairs, ill-conditioned SPD matrices (against an
exact closed form) and the eigenvalue floor, identical pairs, non-orthogonal sphere tangents, batches
of one point and of zero batch axes, the ``p = 1``, ``p -> 1+`` and
``p = inf`` mapping distances with a zero-weight atom, degenerate trees
(one edge, a star) with points at their nodes, and stream-identical
sampling.  The chart kernels ``log_maps``, ``exp_maps``
and ``tangent_norms`` are checked the same way.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlsp import (
    Euclidean,
    FiniteMeasureSpace,
    GeodesicError,
    LpSpace,
    MappingFamily,
    MetricMapping,
    MetricTree,
    ProductGridMapping,
    Spd,
    Sphere,
    TimeGrid,
    UnsupportedOperationError,
    ValidationError,
    d_p,
    default_tree,
    trial_rng,
)
from nlsp.targets import ANTIPODAL_MARGIN, SPD_MIN_EIG

ARRAY_SPACES = [Euclidean(3), Sphere(3), Spd(2), Spd(3)]
ARRAY_IDS = ["euclidean", "sphere", "spd2", "spd3"]
ALL_SPACES = [*ARRAY_SPACES, default_tree()]
ALL_IDS = [*ARRAY_IDS, "metric_tree"]
#: The default tree and two degenerate ones: a single edge, and a star.
TREES = [default_tree(), MetricTree((("p", "q", 0.75),)),
         MetricTree(tuple(("hub", f"leaf{k}", length)
                          for k, length in enumerate((1.0, 0.25, 2.5, 0.5))))]
KERNEL_SPACES = [*ARRAY_SPACES, *TREES]
KERNEL_IDS = [*ARRAY_IDS, "metric_tree", "one_edge_tree", "star_tree"]


# ---------------------------------------------------------------------------
# Per-pair reference formulas
# ---------------------------------------------------------------------------


def _sym(a):
    return 0.5 * (a + a.T)


def _matrix_fun(a, fn):
    w, v = np.linalg.eigh(_sym(a))
    return _sym((v * fn(w)) @ v.T)


def _tree_path(tree, a, b):
    """The edges ``(k, from, to)`` from node ``a`` to node ``b``, found by
    breadth-first search over the edge list."""
    links = {}
    for k, (u, v, _) in enumerate(tree.edges):
        links.setdefault(u, []).append((k, v))
        links.setdefault(v, []).append((k, u))
    came = {a: None}
    queue = [a]
    for cur in queue:
        for k, nxt in links[cur]:
            if nxt not in came:
                came[nxt] = (k, cur)
                queue.append(nxt)
    path = []
    while b != a:
        k, prev = came[b]
        path.append((k, prev, b))
        b = prev
    return path[::-1]


def _tree_gates(tree, y):
    """Both end nodes of the point's edge, with the distances to them."""
    u, v, length = tree.edges[int(y[0])]
    return ((u, float(y[1])), (v, length - float(y[1])))


def _tree_route(tree, y, z):
    """The shortest route between points on different edges: its length,
    its gate nodes and the legs from the points to them.  Ties break toward
    the first gate pair unless a later one is shorter by more than 1e-15."""
    best = None
    for a, dy in _tree_gates(tree, y):
        for b, dz in _tree_gates(tree, z):
            between = sum(tree.edges[k][2] for k, _, _ in _tree_path(tree, a, b))
            total = dy + between + dz
            if best is None or total < best[0] - 1e-15:
                best = (total, a, b, dy)
    return best


def _tree_point(tree, k, off):
    return np.array([k, min(max(off, 0.0), tree.edges[k][2])])


def ref_distance(space, y, z) -> float:
    if isinstance(space, MetricTree):
        if int(y[0]) == int(z[0]):
            return abs(float(y[1]) - float(z[1]))
        return min(dy + sum(space.edges[k][2]
                            for k, _, _ in _tree_path(space, a, b)) + dz
                   for a, dy in _tree_gates(space, y)
                   for b, dz in _tree_gates(space, z))
    if isinstance(space, Euclidean):
        return float(np.linalg.norm(y - z))
    if np.array_equal(y, z):
        return 0.0
    if isinstance(space, Sphere):
        cos = float(np.dot(y, z))
        return math.atan2(float(np.linalg.norm(z - cos * y)), cos)
    isqrt = _matrix_fun(y, lambda w: 1.0 / np.sqrt(w))
    mid = _sym(isqrt @ z @ isqrt)
    return float(np.linalg.norm(np.log(np.linalg.eigvalsh(mid))))


def ref_geodesic_point(space, y, z, t: float):
    if isinstance(space, MetricTree):
        ey, ez = int(y[0]), int(z[0])
        if ey == ez:
            return np.array([ey, y[1] + (z[1] - y[1]) * t])
        total, a, b, dy = _tree_route(space, y, z)
        s = t * total
        if s <= dy:  # along y's edge toward gate a
            toward_start = space.edges[ey][0] == a
            return _tree_point(space, ey, y[1] - s if toward_start else y[1] + s)
        s -= dy
        for k, frm, _ in _tree_path(space, a, b):
            u, _, length = space.edges[k]
            if s <= length:
                return _tree_point(space, k, s if u == frm else length - s)
            s -= length
        u, _, length = space.edges[ez]  # from gate b into z's edge
        return _tree_point(space, ez, s if u == b else length - s)
    if isinstance(space, Euclidean):
        return (1.0 - t) * y + t * z
    if isinstance(space, Sphere):
        theta = ref_distance(space, y, z)
        if theta < 1e-15:
            return y.copy()
        s = math.sin(theta)
        out = (math.sin((1.0 - t) * theta) / s) * y \
            + (math.sin(t * theta) / s) * z
        return out / np.linalg.norm(out)
    sqrt = _matrix_fun(y, np.sqrt)
    isqrt = _matrix_fun(y, lambda w: 1.0 / np.sqrt(w))
    powed = _matrix_fun(_sym(isqrt @ z @ isqrt), lambda w: np.power(w, t))
    return _sym(sqrt @ powed @ sqrt)


def _spd_roots(y):
    return (_matrix_fun(y, np.sqrt),
            _matrix_fun(y, lambda w: 1.0 / np.sqrt(w)))


def ref_log_map(space, y, z) -> np.ndarray:
    if isinstance(space, Euclidean):
        return z - y
    if isinstance(space, Sphere):
        theta = ref_distance(space, y, z)
        if theta < 1e-15:
            return np.zeros_like(y)
        perp = z - float(np.dot(y, z)) * y
        return (theta / np.linalg.norm(perp)) * perp
    sqrt, isqrt = _spd_roots(y)
    return _sym(sqrt @ _matrix_fun(_sym(isqrt @ z @ isqrt), np.log) @ sqrt)


def ref_exp_map(space, y, v) -> np.ndarray:
    if isinstance(space, Euclidean):
        return y + v
    if isinstance(space, Sphere):
        theta = float(np.linalg.norm(v))
        if theta < 1e-15:
            return y.copy()
        out = math.cos(theta) * y + (math.sin(theta) / theta) * v
        return out / np.linalg.norm(out)
    sqrt, isqrt = _spd_roots(y)
    return _sym(sqrt @ _matrix_fun(_sym(isqrt @ v @ isqrt), np.exp) @ sqrt)


def ref_tangent_norm(space, y, v) -> float:
    if isinstance(space, Spd):
        _, isqrt = _spd_roots(y)
        return float(np.linalg.norm(isqrt @ v @ isqrt))
    return float(np.linalg.norm(v))


def _geodesic_safe_batch(space, rng, shape):
    """Two batches of the given batch shape, away from antipodal pairs."""
    n = int(np.prod(shape))
    ys = space.random_points(rng, n)
    zs = space.random_points(rng, n)
    if isinstance(space, Sphere):  # pull every second point toward its pair
        zs = ys + 0.5 * zs
        zs = zs / np.linalg.norm(zs, axis=-1, keepdims=True)
    pt = ys.shape[1:]
    return ys.reshape(shape + pt), zs.reshape(shape + pt)


def _pair_batch(space, rng, shape):
    """Pairs for the per-pair comparisons.  On a tree: every pair from a
    pool of random points, a second point on the edge of each, and both
    ends of every edge (so each node is reached from every edge that meets
    it), over two batch axes."""
    if not isinstance(space, MetricTree):
        return _geodesic_safe_batch(space, rng, shape)
    ys = space.random_points(rng, 5)
    lengths = np.array([length for _, _, length in space.edges])
    mates = np.stack([ys[:, 0], rng.uniform(0.0, 1.0, 5)
                      * lengths[ys[:, 0].astype(int)]], axis=-1)
    ends = np.array([(k, off) for k, length in enumerate(lengths)
                     for off in (0.0, length)])
    pool = space.as_points(np.concatenate([ys, mates, ends]))
    return np.broadcast_arrays(pool[:, None], pool[None, :])


# ---------------------------------------------------------------------------
# Agreement with the per-pair loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", KERNEL_SPACES, ids=KERNEL_IDS)
def test_distances_match_the_per_pair_loop(space):
    """Over two batch axes, every distance is the per-pair formula's; on
    trees, bit for bit."""
    rng = trial_rng(0, f"test/batched/dist/{space.kind}", 0)
    ys, zs = _pair_batch(space, rng, (6, 7))
    batch = ys.shape[:ys.ndim - len(space.point_shape)]
    got = space.distances(ys, zs)
    assert got.shape == batch
    for idx in np.ndindex(batch):
        want = ref_distance(space, ys[idx], zs[idx])
        if isinstance(space, MetricTree):
            assert got[idx] == want
        else:
            assert got[idx] == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert space.distance(ys[idx], zs[idx]) == got[idx]


@pytest.mark.parametrize("space", KERNEL_SPACES, ids=KERNEL_IDS)
def test_geodesic_points_match_the_per_pair_loop(space):
    """Fractions on their own axis broadcast against the pair batch; on
    trees, every point equals the path walk's bit for bit."""
    rng = trial_rng(0, f"test/batched/geo/{space.kind}", 0)
    ys, zs = _pair_batch(space, rng, (9,))
    batch = ys.shape[:ys.ndim - len(space.point_shape)]
    fractions = np.linspace(0.0, 1.0, 5)
    if isinstance(space, MetricTree):
        fractions = np.append(fractions, [1.0 / 3.0, 1.0 - 1e-9])
    got = space.geodesic_points(
        ys, zs, fractions.reshape((-1,) + (1,) * len(batch)))
    assert got.shape == (len(fractions),) + batch + space.point_shape
    for i, t in enumerate(fractions):
        for idx in np.ndindex(batch):
            want = ref_geodesic_point(space, ys[idx], zs[idx], float(t))
            if isinstance(space, MetricTree):
                assert np.array_equal(got[(i,) + idx], want)
            else:
                np.testing.assert_allclose(got[(i,) + idx], want, rtol=1e-12,
                                           atol=1e-13)
    space.as_points(got)  # every interpolated point is a valid point


@pytest.mark.parametrize("space", ARRAY_SPACES, ids=ARRAY_IDS)
def test_chart_kernels_match_the_per_pair_loop(space):
    """Over two batch axes, ``log_maps``, ``exp_maps`` and
    ``tangent_norms`` give the per-pair formulas' values, and the scalar
    chart calls give the kernels' values."""
    rng = trial_rng(0, f"test/batched/chart/{space.kind}", 0)
    ys, zs = _geodesic_safe_batch(space, rng, (4, 5))
    logs = space.log_maps(ys, zs)
    assert logs.shape == (4, 5) + space.point_shape
    # Tangent vectors other than the logs: every vector (symmetric matrix)
    # is one, except on the sphere, where it is projected onto the plane.
    vs = 0.3 * logs[::-1]
    if isinstance(space, Sphere):
        vs = vs - np.sum(vs * ys, axis=-1, keepdims=True) * ys
    exps = space.exp_maps(ys, vs)
    norms = space.tangent_norms(ys, vs)
    assert exps.shape == logs.shape and norms.shape == (4, 5)
    for idx in np.ndindex(4, 5):
        y, z, v = ys[idx], zs[idx], vs[idx]
        np.testing.assert_allclose(logs[idx], ref_log_map(space, y, z),
                                   rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(exps[idx], ref_exp_map(space, y, v),
                                   rtol=1e-12, atol=1e-13)
        assert norms[idx] == pytest.approx(ref_tangent_norm(space, y, v),
                                           rel=1e-12, abs=1e-14)
        np.testing.assert_allclose(space.log_map(y, z), logs[idx],
                                   rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(space.exp_map(y, v), exps[idx],
                                   rtol=1e-14, atol=1e-15)
        assert space.tangent_norm(y, v) == pytest.approx(norms[idx],
                                                         rel=1e-14)
    space.as_points(exps)  # every mapped point is a valid point
    # One base point broadcasts against a batch of targets.
    np.testing.assert_allclose(
        space.log_maps(ys[0, 0], zs[0]),
        [ref_log_map(space, ys[0, 0], z) for z in zs[0]],
        rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("space", ARRAY_SPACES, ids=ARRAY_IDS)
def test_chart_of_identical_pairs_inside_a_batch_is_exactly_zero(space):
    """The log of a point at itself has exactly zero components, and so
    exactly zero norm, beside pairs that move."""
    rng = trial_rng(0, f"test/batched/chart-self/{space.kind}", 0)
    ys, zs = _geodesic_safe_batch(space, rng, (6,))
    zs[::2] = ys[::2]
    logs = space.log_maps(ys, zs)
    assert np.all(logs[::2] == 0.0)
    norms = space.tangent_norms(ys, logs)
    assert np.all(norms[::2] == 0.0)
    assert np.all(norms[1::2] > 0.0)


@pytest.mark.parametrize("space", ARRAY_SPACES, ids=ARRAY_IDS)
def test_scalar_chart_calls_validate_their_arguments(space):
    """The scalar chart calls are public entry points: a malformed base
    point or tangent vector raises before any kernel runs."""
    rng = trial_rng(0, f"test/batched/chart-validate/{space.kind}", 0)
    y = space.random_point(rng)
    v = space.random_tangent(y, rng)
    with pytest.raises(ValidationError, match="tangent vector must have shape"):
        space.exp_map(y, np.zeros(7))
    bad = v.copy()
    bad.flat[0] = np.nan
    with pytest.raises(ValidationError, match="tangent vector must be finite"):
        space.tangent_norm(y, bad)
    with pytest.raises(ValidationError, match="point must be finite"):
        space.log_map(np.full(space.point_shape, np.nan), y)


def test_metric_tree_batch_chart_calls_have_no_tangent_chart():
    tree = default_tree()
    rng = trial_rng(0, "test/batched/tree-chart", 0)
    ys = tree.random_points(rng, 3)
    zs = tree.random_points(rng, 3)
    for call in (lambda: tree.log_maps(ys, zs),
                 lambda: tree.exp_maps(ys, np.zeros((3, 1))),
                 lambda: tree.tangent_norms(ys, np.zeros((3, 1)))):
        with pytest.raises(UnsupportedOperationError, match="no tangent chart"):
            call()


@pytest.mark.parametrize("space", ALL_SPACES, ids=ALL_IDS)
def test_random_points_read_the_stream_like_single_draws(space):
    """``random_points(rng, n)`` equals ``n`` ``random_point`` draws and
    leaves the generator in the same state."""
    batched = trial_rng(3, f"test/batched/draw/{space.kind}", 0)
    single = trial_rng(3, f"test/batched/draw/{space.kind}", 0)
    points = space.random_points(batched, 7)
    assert len(points) == 7
    for point in points:
        other = space.random_point(single)
        if isinstance(point, np.ndarray) and point.dtype == float:
            assert np.array_equal(point, other)
        else:
            assert point == other
    assert batched.random() == single.random()


@pytest.mark.parametrize("space", ALL_SPACES, ids=ALL_IDS)
def test_identical_pairs_inside_a_batch_are_exactly_zero(space):
    """Self-distance is exactly 0.0 per batch element, beside other pairs."""
    rng = trial_rng(0, f"test/batched/self/{space.kind}", 0)
    ys = space.random_points(rng, 6)
    zs = space.random_points(rng, 6)
    zs[::2] = ys[::2]
    got = space.distances(ys, zs)
    assert np.all(got[::2] == 0.0)
    assert np.all(got[1::2] > 0.0)


@pytest.mark.parametrize("space", ALL_SPACES, ids=ALL_IDS)
def test_batches_of_one_point(space):
    """A batch of one keeps its batch axis through every kernel."""
    rng = trial_rng(0, f"test/batched/one/{space.kind}", 0)
    ys = space.random_points(rng, 1)
    zs = space.random_points(rng, 1)
    assert len(space.as_points(ys)) == 1
    d = space.distances(ys, zs)
    assert d.shape == (1,)
    assert d[0] == space.distance(ys[0], zs[0])
    assert len(space.geodesic_points(ys, zs, 0.25)) == 1


@pytest.mark.parametrize("space", ARRAY_SPACES, ids=ARRAY_IDS)
def test_zero_batch_axes(space):
    """Single points are batches with no batch axes."""
    rng = trial_rng(0, f"test/batched/zero/{space.kind}", 0)
    y = space.random_point(rng)
    z = space.random_point(rng)
    assert space.as_points(y) is y
    assert space.distances(y, z).shape == ()
    assert float(space.distances(y, z)) == space.distance(y, z)
    g = space.geodesic_points(y, z, 0.5)
    assert g.shape == space.point_shape
    assert np.array_equal(g, space.geodesic_point(y, z, 0.5))


@pytest.mark.parametrize("space", ARRAY_SPACES, ids=ARRAY_IDS)
def test_batched_validation_names_the_bad_point(space):
    """One malformed or non-finite point fails the whole batch."""
    rng = trial_rng(0, f"test/batched/bad/{space.kind}", 0)
    points = space.random_points(rng, 4)
    bad = points.copy()
    bad[2] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        space.as_points(bad)
    with pytest.raises(ValidationError, match="shape"):
        space.as_points([*points[:3], np.zeros(5)])
    with pytest.raises(ValidationError, match="parameter"):
        space.geodesic_points(points[:2], points[2:], [0.5, 1.5])


# ---------------------------------------------------------------------------
# Sphere: near-antipodal pairs
# ---------------------------------------------------------------------------


def _pair_at_angle(theta: float):
    y = np.array([1.0, 0.0, 0.0])
    return y, np.array([math.cos(theta), math.sin(theta), 0.0])


def test_sphere_pair_one_micro_radian_short_of_antipodal_computes():
    sphere = Sphere(3)
    y, z = _pair_at_angle(math.pi - 1e-6)
    assert sphere.distances(y, z) == pytest.approx(math.pi - 1e-6, abs=1e-12)
    mid = sphere.geodesic_points(y, z, 0.5)
    assert sphere.distance(y, mid) == pytest.approx((math.pi - 1e-6) / 2,
                                                    abs=1e-9)


def test_sphere_pair_within_the_antipodal_margin_raises_with_its_mask():
    """Only the pair within the margin is marked undefined."""
    sphere = Sphere(3)
    pairs = [_pair_at_angle(a) for a in
             (0.5, math.pi - ANTIPODAL_MARGIN / 4, math.pi - 1e-6)]
    ys = np.array([y for y, _ in pairs])
    zs = np.array([z for _, z in pairs])
    with pytest.raises(GeodesicError, match="antipodal") as info:
        sphere.geodesic_points(ys, zs, 0.5)
    assert info.value.undefined.tolist() == [False, True, False]
    with pytest.raises(GeodesicError):
        sphere.geodesic_point(ys[1], zs[1], 0.5)


def test_sphere_log_maps_within_the_antipodal_margin_raise_with_the_mask():
    sphere = Sphere(3)
    pairs = [_pair_at_angle(a) for a in
             (math.pi - ANTIPODAL_MARGIN / 4, 0.5, math.pi - 1e-6)]
    ys = np.array([y for y, _ in pairs])
    zs = np.array([z for _, z in pairs])
    with pytest.raises(GeodesicError, match="log_map .* antipodal") as info:
        sphere.log_maps(ys, zs)
    assert info.value.undefined.tolist() == [True, False, False]
    logs = sphere.log_maps(ys[1:], zs[1:])
    assert sphere.tangent_norms(ys[1:], logs) == pytest.approx(
        [0.5, math.pi - 1e-6], abs=1e-9)


def test_sphere_tangent_norms_check_every_vector_is_orthogonal():
    """One tangent with a radial component fails the batch, and the error
    names its inner product with the base point."""
    sphere = Sphere(3)
    rng = trial_rng(0, "test/batched/sphere-orthogonal", 0)
    ys, zs = _geodesic_safe_batch(sphere, rng, (2, 3))
    vs = sphere.log_maps(ys, zs)
    sphere.tangent_norms(ys, vs)
    vs[1, 2] += 0.25 * ys[1, 2]
    inner = float(np.dot(ys[1, 2], vs[1, 2]))
    assert inner == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValidationError,
                       match=rf"orthogonal.*inner product {re.escape(repr(inner))}"):
        sphere.tangent_norms(ys, vs)


@settings(max_examples=60, deadline=None)
@given(gap=st.floats(min_value=-12.0, max_value=-2.0),
       t=st.floats(min_value=0.0, max_value=1.0))
def test_sphere_kernel_near_antipodal_agrees_with_the_loop(gap, t):
    """Angles pi - 10^gap: inside the margin the kernel raises, outside it
    matches the per-pair formula."""
    sphere = Sphere(3)
    theta = math.pi - 10.0 ** gap
    y, z = _pair_at_angle(theta)
    ys = np.array([y, y])
    zs = np.array([z, y])
    if 10.0 ** gap < 0.5 * ANTIPODAL_MARGIN:
        with pytest.raises(GeodesicError):
            sphere.geodesic_points(ys, zs, t)
        return
    assume(10.0 ** gap > 2.0 * ANTIPODAL_MARGIN)  # clear of the boundary
    d = sphere.distances(ys, zs)
    assert d[0] == pytest.approx(ref_distance(sphere, y, z), abs=1e-12)
    assert d[1] == 0.0
    got = sphere.geodesic_points(ys, zs, t)
    # The interpolation weights grow like 1 / sin(theta), and so does the
    # effect of one rounding in them.
    np.testing.assert_allclose(got[0], ref_geodesic_point(sphere, y, z, t),
                               atol=1e-14 / 10.0 ** gap)
    assert np.array_equal(got[1], y)


# ---------------------------------------------------------------------------
# SPD: conditioning and the eigenvalue floor
# ---------------------------------------------------------------------------


def _rotated(eigenvalues, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    q = np.array([[c, -s], [s, c]])
    return _sym((q * np.asarray(eigenvalues)) @ q.T)


def exact_spd2_distance(y, z) -> float:
    """The affine distance of two SPD(2) matrices from the closed form of
    their generalised eigenvalues, independent of any eigensolver: the
    trace and determinant of ``Y^{-1} Z`` exactly, in fractions of the
    float entries, then the roots and logs in 60-digit decimals, with the
    small root as ``det / big`` so that it does not cancel."""
    (a, b), (_, c) = ([Fraction(x) for x in row] for row in y.tolist())
    (p, q), (_, r) = ([Fraction(x) for x in row] for row in z.tolist())
    det_y = a * c - b * b
    trace = (a * r + c * p - 2 * b * q) / det_y
    det = (p * r - q * q) / det_y
    with decimal.localcontext() as ctx:
        ctx.prec = 60

        def dec(x: Fraction) -> decimal.Decimal:
            return decimal.Decimal(x.numerator) / x.denominator

        big = (dec(trace) + dec(trace * trace - 4 * det).sqrt()) / 2
        small = dec(det) / big
        return float((big.ln() ** 2 + small.ln() ** 2).sqrt())


def test_spd_condition_number_1e8_matches_the_loop():
    """Base points of condition number 1e8: every distance is the exact
    one within 1e-9 relative, and the midpoint halves it."""
    spd = Spd(2)
    ys = np.array([_rotated((1.0, 1e-8), a) for a in (0.1, 0.7, 1.3)])
    zs = np.array([_rotated((2.0, 3e-8), a) for a in (0.4, 0.2, 2.9)])
    spd.as_points(ys)
    got = spd.distances(ys, zs)
    for j in range(3):
        assert got[j] == pytest.approx(exact_spd2_distance(ys[j], zs[j]),
                                       rel=1e-9)
    mid = spd.geodesic_points(ys, zs, 0.5)
    spd.as_points(mid)
    np.testing.assert_allclose(spd.distances(ys, mid), got / 2, rtol=1e-6)


def test_spd_exp_log_roundtrip_at_condition_number_1e8():
    """Base points of condition number 1e8, targets at affine distance
    about 1: the norm of the log is the distance, and exp after log comes
    back within 1e-7 in the affine metric and 1e-10 in the entries."""
    spd = Spd(2)
    ys = np.array([_rotated((1.0, 1e-8), a) for a in (0.1, 0.7, 1.3)])
    zs = spd.as_points([
        _sym(_matrix_fun(y, np.sqrt) @ _rotated((2.0, 0.5), a)
             @ _matrix_fun(y, np.sqrt)) for y, a in zip(ys, (0.3, 1.1, 2.0))])
    logs = spd.log_maps(ys, zs)
    np.testing.assert_allclose(spd.tangent_norms(ys, logs),
                               spd.distances(ys, zs), rtol=1e-8)
    back = spd.as_points(spd.exp_maps(ys, logs))
    assert np.all(spd.distances(back, zs) < 1e-7)
    assert np.all(np.linalg.norm(back - zs, axis=(1, 2))
                  <= 1e-10 * np.linalg.norm(zs, axis=(1, 2)))


@pytest.mark.parametrize("factor,accepted", [(1.01, True), (0.99, False),
                                             (1.0, False)])
def test_spd_eigenvalue_floor_inside_a_batch(factor, accepted):
    """An eigenvalue just above SPD_MIN_EIG passes; at or below it the
    whole batch is refused."""
    spd = Spd(2)
    batch = np.array([np.eye(2), np.diag([1.0, factor * SPD_MIN_EIG])])
    if accepted:
        assert spd.as_points(batch) is batch
    else:
        with pytest.raises(ValidationError, match="eigenvalues above"):
            spd.as_points(batch)


def _embedded(m: np.ndarray, d: float) -> np.ndarray:
    """The 3x3 block-diagonal matrix ``diag(m, d)``."""
    out = np.zeros((3, 3))
    out[:2, :2] = m
    out[2, 2] = d
    return out


#: Pairs that pass validation but whose whitened matrices come out
#: indefinite in floating point: the first pair is fine, the second is not.
#: ``(space, ys, zs, exact distance of the first pair)``; the second pair
#: has eigenvalues near 1e4 and the floor, at nearly orthogonal angles.
_INDEFINITE_WHITENED = {
    "spd2_1e-9": (Spd(2),
                  [_rotated((1.0, 1e-9), 0.1), _rotated((1e4, 2e-10), 1.525)],
                  [_rotated((2.0, 3e-9), 0.4), _rotated((1e4, 2e-10), 0.05)],
                  25.60387880070318),
    "spd2_5e-10": (Spd(2),
                   [_rotated((1.0, 5e-10), 0.1),
                    _rotated((1e4, 1.5e-10), 1.55)],
                   [_rotated((2.0, 1.5e-9), 0.4),
                    _rotated((1e4, 1.5e-10), 0.05)],
                   26.582980307579973),
    "spd3_1e-9": (Spd(3),
                  [_embedded(_rotated((1.0, 1e-9), 0.1), 0.5),
                   _embedded(_rotated((1e4, 2e-10), 1.525), 0.5)],
                  [_embedded(_rotated((2.0, 3e-9), 0.4), 1.0),
                   _embedded(_rotated((1e4, 2e-10), 0.05), 1.0)],
                  None),
}


@pytest.mark.parametrize("case", sorted(_INDEFINITE_WHITENED))
def test_spd_pair_with_an_indefinite_whitened_matrix_is_refused(case):
    """Both points of each pair clear the eigenvalue floor, yet roundoff
    leaves the second pair's whitened ``L^{-1} B L^{-T}`` with an eigenvalue
    <= 0: distance, geodesic and log refuse it by its batch index instead
    of returning inf or NaN, and the first pair alone keeps its value,
    within 1e-9 relative of the exact one."""
    spd, ys, zs, first = _INDEFINITE_WHITENED[case]
    ys, zs = spd.as_points(ys), spd.as_points(zs)
    for kernel in (spd.distances, spd.log_maps,
                   lambda a, b: spd.geodesic_points(a, b, 0.5)):
        with pytest.raises(ValidationError,
                           match=r"pair at batch index \(1,\) is too "
                                 r"ill-conditioned.* <= 0"):
            kernel(ys, zs)
    alone = spd.distances(ys[:1], zs[:1])
    assert np.all(np.isfinite(alone))
    if first is not None:
        assert first == exact_spd2_distance(ys[0], zs[0])
        assert alone[0] == pytest.approx(first, rel=1e-9)
    assert np.all(np.isfinite(spd.geodesic_points(ys[:1], zs[:1], 0.5)))
    assert np.all(np.isfinite(spd.log_maps(ys[:1], zs[:1])))


def test_spd_batch_symmetrizes_only_within_tolerance():
    spd = Spd(2)
    nearly = np.array([[2.0, 0.5], [0.5 + 1e-13, 1.0]])
    batch = spd.as_points(np.array([np.eye(2), nearly]))
    assert np.array_equal(batch[1], batch[1].T)
    with pytest.raises(ValidationError, match="symmetric"):
        spd.as_points(np.array([np.eye(2), nearly + [[0, 0], [1e-9, 0]]]))


# ---------------------------------------------------------------------------
# Mapping distances
# ---------------------------------------------------------------------------


def _far_from(space, y):
    """A point far from ``y``: farther than any random point."""
    if isinstance(space, Sphere):
        return -y
    if isinstance(space, Spd):
        return 1e6 * y
    if isinstance(space, Euclidean):
        return y + 1e6
    return y  # metric trees: the random point stays


@pytest.mark.parametrize("space", ALL_SPACES, ids=ALL_IDS)
@pytest.mark.parametrize("p", [1.0, 1.0 + 1e-9, 2.0, math.inf],
                         ids=["1", "1+1e-9", "2", "inf"])
def test_d_p_with_a_zero_weight_atom_matches_the_loop(space, p):
    """The weighted p-norm of per-atom distances; at p = inf the
    zero-weight atom is ignored although it is the farthest."""
    base = FiniteMeasureSpace(("a", "b", "c", "d"), (0.5, 0.0, 1.25, 0.75))
    rng = trial_rng(0, f"test/batched/family/{space.kind}", 0)
    family = MappingFamily(base, space, space.random_points(rng, 4))
    f = family.random_mapping(rng)
    values = list(family.random_mapping(rng).values)
    values[1] = _far_from(space, f.values[1])
    g = MetricMapping(family, values)
    dists = [space.distance(a, b) for a, b in zip(f.values, g.values)]
    w = base.weights
    if math.isinf(p):
        want = max(d for d, wj in zip(dists, w) if wj > 0.0)
    else:
        want = sum(wj * d ** p for d, wj in zip(dists, w)) ** (1.0 / p)
    assert d_p(f, g, p) == pytest.approx(want, rel=1e-12)
    batch = LpSpace(family, p).distances([f, f], [g, f])
    assert batch[0] == d_p(f, g, p)
    assert batch[1] == 0.0


def test_mapping_validates_every_atom_in_one_batch():
    spd = Spd(2)
    base = FiniteMeasureSpace(("a", "b"), (1.0, 1.0))
    family = MappingFamily(base, spd, (np.eye(2), np.eye(2)))
    with pytest.raises(ValidationError, match="eigenvalues above"):
        MetricMapping(family, (np.eye(2), np.diag([1.0, -1.0])))
    m = MetricMapping(family, ([[2.0, 0.0], [0.0, 1.0]], np.eye(2)))
    assert isinstance(m.values, np.ndarray) and m.values.shape == (2, 2, 2)
    assert np.array_equal(m.values, [np.diag([2.0, 1.0]), np.eye(2)])
    assert MetricMapping(family, m.values).values is m.values


def test_as_points_refuses_ragged_and_non_numeric_input():
    """Input that is no regular numeric batch raises ValidationError
    naming the offending entry, not numpy's ValueError."""
    sphere = Sphere(3)
    with pytest.raises(ValidationError, match=r"\[1.0, 0.0\] at index \[1\]"):
        sphere.as_points([[1.0, 0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValidationError, match="'abc' is not numeric"):
        sphere.as_points("abc")
    with pytest.raises(ValidationError, match=r"'x' at index \[1, 2\]"):
        sphere.as_points([[1.0, 0.0, 0.0], [0.0, 1.0, "x"]])


def test_ragged_mapping_values_raise_validation_error():
    base = FiniteMeasureSpace(("a", "b"), (1.0, 1.0))
    family = MappingFamily(base, Sphere(3), ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
    with pytest.raises(ValidationError, match="index"):
        MetricMapping(family, ([1.0, 0.0, 0.0], [0.0, 1.0]))
    with pytest.raises(ValidationError, match="shape"):
        MetricMapping(family, ([1.0, 0.0, 0.0],))


def test_ragged_product_row_raises_validation_error():
    """A product row with one atom missing is named by its row index."""
    base = FiniteMeasureSpace(("a", "b"), (1.0, 1.0))
    family = MappingFamily(base, Euclidean(2), (np.zeros(2), np.ones(2)))
    grid = TimeGrid((0.0, 0.5, 1.0))
    row = (np.zeros(2), np.ones(2))
    with pytest.raises(ValidationError, match=r"at index \[1\] has shape"):
        ProductGridMapping(grid, family, (row, row[:1], row))
    tree = default_tree()
    tree_family = MappingFamily(base, tree, ((0, 0.0), (1, 0.5)))
    tree_row = ((0, 0.0), (1, 0.5))
    with pytest.raises(ValidationError, match=r"at index \[1\] has shape"):
        ProductGridMapping(grid, tree_family,
                           (tree_row, tree_row[:1], tree_row))
