"""Tests for weighted mapping spaces and the product-grid norm.

Exercises the finite measure space, mapping families, the d_p distance
between mappings (including the max form at p = inf), zero-weight-atom
semantics, exponent monotonicity on probability spaces, time grids,
and mappings rebuilt from their JSON form.
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
    FiniteMeasureSpace,
    LpSpace,
    MappingFamily,
    MetricMapping,
    SpaceMismatchError,
    Spd,
    Sphere,
    TimeGrid,
    ValidationError,
    atom_distances,
    check_p,
    constant_family,
    constant_in_time,
    d_p,
    default_tree,
    make_target,
    product_lp_norm,
    trial_rng,
    uniform_grid,
    uniform_space,
)
from nlsp.curves import SampledCurve, StepCurve
from nlsp.geometry import lp_geodesic
from nlsp.sections import sec_atom, sec_time
from nlsp.speed import compute_speed
from nlsp.suites import sample_smooth_paths
from nlsp.transport import decompose_ac, decompose_bv


def two_atom_pair():
    """A frozen pair of scalar mappings over two unit-weight atoms."""
    base = FiniteMeasureSpace(("u", "v"), (1.0, 1.0))
    fam = MappingFamily(base, Euclidean(1), (np.zeros(1), np.zeros(1)))
    f = MetricMapping(fam, (np.array([0.0]), np.array([0.0])))
    g = MetricMapping(fam, (np.array([3.0]), np.array([4.0])))
    return fam, f, g


# ---------------------------------------------------------------------------
# Exponent validation
# ---------------------------------------------------------------------------


def test_check_p_accepts_valid_exponents():
    """Finite exponents >= 1 and infinity are canonicalized to float."""
    assert check_p(1) == 1.0
    assert check_p(2.5) == 2.5
    assert check_p(math.inf) == math.inf
    assert check_p("inf") == math.inf


def test_check_p_rejects_invalid_exponents():
    """Sub-unit, NaN, and non-numeric exponents are rejected."""
    with pytest.raises(ValidationError, match="p >= 1"):
        check_p(0.5)
    with pytest.raises(ValidationError, match="NaN"):
        check_p(float("nan"))
    with pytest.raises(ValidationError):
        check_p("2")
    with pytest.raises(ValidationError, match="not allowed"):
        check_p(math.inf, allow_inf=False)


# ---------------------------------------------------------------------------
# Measure space and family validation
# ---------------------------------------------------------------------------


def test_measure_space_validation():
    """Weights must be nonnegative, ids unique, lengths consistent."""
    with pytest.raises(ValidationError, match="nonnegative"):
        FiniteMeasureSpace(("a",), (-1.0,))
    with pytest.raises(ValidationError, match="at least one atom"):
        FiniteMeasureSpace((), ())
    with pytest.raises(ValidationError, match="unique"):
        FiniteMeasureSpace(("a", "a"), (1.0, 1.0))
    with pytest.raises(ValidationError):
        FiniteMeasureSpace(("a", "b"), (1.0,))


def test_uniform_space_splits_mass_evenly():
    """uniform_space(n, mass) gives n atoms of weight mass / n."""
    space = uniform_space(4, mass=2.0)
    assert len(space) == 4
    assert space.total_mass == pytest.approx(2.0, abs=1e-15)
    assert all(w == 0.5 for w in space.weights)


def test_mappings_from_different_families_do_not_mix():
    """Distance requires the two mappings to share one family object."""
    base = FiniteMeasureSpace(("u", "v"), (1.0, 1.0))
    fam1 = MappingFamily(base, Euclidean(1), (np.zeros(1), np.zeros(1)))
    fam2 = MappingFamily(base, Euclidean(1), (np.zeros(1), np.zeros(1)))
    f = MetricMapping(fam1, (np.zeros(1), np.zeros(1)))
    g = MetricMapping(fam2, (np.ones(1), np.ones(1)))
    with pytest.raises(SpaceMismatchError, match="same family"):
        d_p(f, g, 2.0)


def test_mapping_value_count_must_match_atoms():
    """A mapping needs exactly one target value per atom."""
    fam, f, _ = two_atom_pair()
    with pytest.raises(ValidationError):
        MetricMapping(fam, (np.zeros(1),))


# ---------------------------------------------------------------------------
# Frozen distance values
# ---------------------------------------------------------------------------


def test_d_p_frozen_values():
    """Two unit atoms with offsets 3 and 4: d_1 = 7, d_2 = 5, d_inf = 4."""
    _, f, g = two_atom_pair()
    assert d_p(f, g, 1.0) == 7.0
    assert d_p(f, g, 2.0) == 5.0
    assert d_p(f, g, math.inf) == 4.0
    assert d_p(f, g, 2.0) == d_p(g, f, 2.0)
    assert d_p(f, f, 2.0) == 0.0


def test_atom_distances_reports_per_atom_gaps():
    """The per-atom distance vector underlies every aggregate."""
    _, f, g = two_atom_pair()
    assert np.allclose(atom_distances(f, g), [3.0, 4.0], atol=1e-15)


def test_lp_space_wraps_family_and_exponent():
    """LpSpace carries its family and exponent and measures distance."""
    fam, f, g = two_atom_pair()
    space = LpSpace(fam, 2.0)
    assert space.family is fam and space.p == 2.0
    assert space.distances(f.values, g.values) == 5.0
    assert space.distances(f.values, f.values) == 0.0


def test_lp_space_points_are_value_arrays():
    """A point is a mapping's values array, and a batch of them is one
    array of shape ``(..., atom, *point_shape)``; a canonical batch is kept
    as it is."""
    fam, f, g = two_atom_pair()
    space = LpSpace(fam, 2.0)
    assert space.as_points(f.values, ()) is f.values
    batch = space.as_points([f.values, g.values, f.values], (3,))
    assert batch.shape == (3, 2, 1)
    assert np.array_equal(batch, [f.values, g.values, f.values])
    assert space.as_points(batch, (3,)) is batch
    assert space.distances(f.values, g.values) == 5.0
    with pytest.raises(ValidationError, match="of 2 atoms"):
        space.as_points(np.zeros((3, 1)))
    with pytest.raises(ValidationError, match="batch of points of shape"):
        space.as_points(batch, (2,))


# ---------------------------------------------------------------------------
# Zero-weight atoms and separation
# ---------------------------------------------------------------------------


def test_zero_weight_atoms_are_invisible():
    """Mappings differing only on a weightless atom are equal a.e."""
    base = FiniteMeasureSpace(("u", "v", "w"), (1.0, 0.0, 2.0))
    fam = MappingFamily(base, Euclidean(1), tuple(np.zeros(1) for _ in range(3)))
    f = MetricMapping(fam, (np.zeros(1), np.array([5.0]), np.ones(1)))
    g = MetricMapping(fam, (np.zeros(1), np.array([-7.0]), np.ones(1)))
    assert np.all(atom_distances(f, g)[base.weights_array > 0.0] == 0.0)
    for p in (1.0, 2.0, 3.5, math.inf):
        assert d_p(f, g, p) == 0.0


@pytest.mark.parametrize("target", [Euclidean(2), Sphere(3), default_tree()],
                         ids=["euclidean", "sphere", "metric_tree"])
def test_distance_separates_modulo_null_sets(target):
    """d_p = 0 exactly when the mappings agree on every weighted atom."""
    base = FiniteMeasureSpace(("a", "b", "c"), (0.6, 0.0, 1.4))
    for trial in range(150):
        rng = trial_rng(0, f"test/separation/{target.kind}", trial)
        vals = tuple(target.random_point(rng) for _ in range(3))
        fam = MappingFamily(base, target, vals)
        f = MetricMapping(fam, vals)
        # Changing only the weightless atom leaves the point unchanged.
        silent = MetricMapping(
            fam, (vals[0], target.random_point(rng), vals[2]))
        # Changing a weighted atom moves it.
        loud = MetricMapping(
            fam, (vals[0], vals[1], target.random_point(rng)))
        for p in (1.0, 2.0, 3.5, math.inf):
            assert d_p(f, silent, p) == 0.0
            if atom_distances(f, loud)[2] > 0.0:
                assert d_p(f, loud, p) > 0.0
        assert np.all(atom_distances(f, silent)[[0, 2]] == 0.0)


def test_exponent_monotonicity_on_probability_space():
    """On total mass one, d_p is nondecreasing in p, up to roundoff."""
    base = uniform_space(4, mass=1.0)
    target = Euclidean(2)
    exponents = (1.0, 1.5, 2.0, 3.0, 6.0, math.inf)
    for trial in range(100):
        rng = trial_rng(0, "test/holder", trial)
        fam = MappingFamily(base, target,
                            tuple(target.random_point(rng) for _ in range(4)))
        f = MetricMapping(fam, tuple(rng.normal(size=2) for _ in range(4)))
        g = MetricMapping(fam, tuple(rng.normal(size=2) for _ in range(4)))
        dists = [d_p(f, g, p) for p in exponents]
        for lo, hi in zip(dists, dists[1:]):
            assert lo <= hi + 1e-12


# ---------------------------------------------------------------------------
# Time grids and product data
# ---------------------------------------------------------------------------


def test_time_grid_validation():
    """Nodes must strictly increase and the rule must be known."""
    with pytest.raises(ValidationError):
        TimeGrid((0.0, 0.5, 0.5, 1.0))
    with pytest.raises(ValidationError):
        TimeGrid((0.0,))
    with pytest.raises(ValidationError):
        TimeGrid((0.0, 1.0), rule="simpson")


@pytest.mark.parametrize("nodes, match", [
    (("a", 1.0), r"time nodes\[0\] must be a real number, got 'a'"),
    ((0.0, None), r"time nodes\[1\] must be a real number, got None"),
    ((0.0, math.inf), r"time nodes\[1\] must be finite, got inf"),
    ((0.0, 0.5, 0.25), r"time nodes\[2\] = 0.25 after 0.5"),
], ids=["string", "none", "infinite", "decreasing"])
def test_time_grid_names_the_first_bad_node(nodes, match):
    """TimeGrid shares the curves' time check: the first bad node is named
    by its index and value, and the error is a ValidationError."""
    with pytest.raises(ValidationError, match=match):
        TimeGrid(nodes)


def test_time_grid_node_weights():
    """Trapezoid weights integrate to the interval length; left_cells
    puts each cell's full length on its left node."""
    nodes = (0.0, 0.25, 1.0)
    trap = TimeGrid(nodes, rule="trapezoid")
    assert np.allclose(trap.node_weights, [0.125, 0.5, 0.375], atol=1e-15)
    cells = TimeGrid(nodes, rule="left_cells")
    assert np.allclose(cells.node_weights, [0.25, 0.75, 0.0], atol=1e-15)
    for grid in (trap, cells):
        assert float(np.sum(grid.node_weights)) == pytest.approx(1.0, abs=1e-15)


def test_uniform_grid_endpoints_and_count():
    """uniform_grid spans [a, b] with the requested node count."""
    grid = uniform_grid(0.0, 2.0, 5)
    assert grid.nodes == (0.0, 0.5, 1.0, 1.5, 2.0)


def test_product_lp_norm_frozen_values():
    """Hand-computed two-cell, two-atom integrals for p in {1, 2, inf}."""
    grid = TimeGrid((0.0, 0.25, 1.0), rule="left_cells")
    base = FiniteMeasureSpace(("u", "v"), (2.0, 0.5))
    target = Euclidean(1)
    fam = MappingFamily(base, target, (np.zeros(1), np.zeros(1)))
    rows = ((np.array([1.0]), np.array([2.0])),
            (np.array([3.0]), np.array([4.0])),
            (np.array([9.0]), np.array([9.0])))  # final node: weight zero
    from nlsp import ProductGridMapping
    c = ProductGridMapping(grid, fam, rows)
    zero = constant_in_time(grid, MetricMapping(fam, fam.base_values))
    # p = 1: 0.25 (2*1 + 0.5*2) + 0.75 (2*3 + 0.5*4) = 6.75
    assert product_lp_norm(c, zero, 1.0) == pytest.approx(6.75, abs=1e-14)
    # p = 2: 0.25 (2*1 + 0.5*4) + 0.75 (2*9 + 0.5*16) = 20.5
    assert product_lp_norm(c, zero, 2.0) == pytest.approx(
        math.sqrt(20.5), abs=1e-14)
    # p = inf: the largest gap anywhere with positive time x atom mass.
    assert product_lp_norm(c, zero, math.inf) == 4.0
    assert product_lp_norm(c, c, 2.0) == 0.0


def test_constant_family_and_constant_in_time():
    """Constant helpers broadcast one point everywhere."""
    base = uniform_space(3)
    fam = constant_family(base, Euclidean(2), np.array([1.0, 2.0]))
    assert all(np.array_equal(v, [1.0, 2.0]) for v in fam.base_values)
    grid = uniform_grid(0.0, 1.0, 4)
    pm = constant_in_time(grid, MetricMapping(fam, fam.base_values))
    assert len(pm.values) == 4
    zero_fam_map = MetricMapping(fam, fam.base_values)
    assert product_lp_norm(
        pm, constant_in_time(grid, zero_fam_map), 2.0) == 0.0


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", [Euclidean(2), Sphere(3), Spd(2),
                                    default_tree()],
                         ids=["euclidean", "sphere", "spd", "metric_tree"])
def test_mapping_serialization_roundtrip(target):
    """Mappings rebuild exactly from their JSON form: the constructors
    take the decoded atoms, target config and values as they are."""
    base = FiniteMeasureSpace(("a", "b", "c"), (0.5, 0.0, 1.5))
    rng = trial_rng(0, f"test/mapping-json/{target.kind}", 0)
    fam = MappingFamily(base, target,
                        tuple(target.random_point(rng) for _ in range(3)))
    f = MetricMapping(fam, tuple(target.random_point(rng) for _ in range(3)))
    data = json.loads(json.dumps({
        "ids": base.atom_ids, "weights": base.weights,
        "target": target.to_config(), "base": fam.base_values.tolist(),
        "values": f.values.tolist()}))
    rebuilt = make_target(data["target"])
    g = MetricMapping(MappingFamily(
        FiniteMeasureSpace(data["ids"], data["weights"]), rebuilt,
        data["base"]), data["values"])
    assert g.family.base_space.atom_ids == base.atom_ids
    assert g.family.base_space.weights == base.weights
    assert g.family.target.to_config() == target.to_config()
    assert g.family.base_values.tobytes() == fam.base_values.tobytes()
    assert g.values.tobytes() == f.values.tobytes()


# ---------------------------------------------------------------------------
# Property-based checks
# ---------------------------------------------------------------------------

scalars = st.floats(min_value=-50.0, max_value=50.0,
                    allow_nan=False, allow_infinity=False)

_PROP_BASE = FiniteMeasureSpace(("a", "b", "c"), (0.5, 1.0, 0.25))
_PROP_FAMILY = MappingFamily(
    _PROP_BASE, Euclidean(1), tuple(np.zeros(1) for _ in range(3)))


@st.composite
def scalar_mappings(draw):
    """A three-atom scalar mapping with bounded values."""
    return MetricMapping(
        _PROP_FAMILY, tuple(np.array([draw(scalars)]) for _ in range(3)))


@settings(max_examples=80, deadline=None)
@given(f=scalar_mappings(), g=scalar_mappings(), h=scalar_mappings(),
       p=st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]))
def test_d_p_triangle_inequality(f, g, h, p):
    """d_p obeys the triangle inequality for every exponent."""
    assert d_p(f, h, p) <= d_p(f, g, p) + d_p(g, h, p) + 1e-12


@settings(max_examples=80, deadline=None)
@given(f=scalar_mappings(), g=scalar_mappings())
def test_d_inf_is_max_over_weighted_atoms(f, g):
    """At p = inf the distance is the largest weighted-atom gap."""
    gaps = [abs(float(a[0]) - float(b[0]))
            for a, b, w in zip(f.values, g.values, _PROP_BASE.weights)
            if w > 0.0]
    assert d_p(f, g, math.inf) == pytest.approx(max(gaps), abs=1e-14)


# ---------------------------------------------------------------------------
# Containers compare by identity
# ---------------------------------------------------------------------------


def _two_plane_mappings(k: float):
    fam = MappingFamily(FiniteMeasureSpace(("a", "b"), (1.0, 3.0)),
                        Euclidean(2), (np.zeros(2), np.ones(2)))
    return (MetricMapping(fam, (np.full(2, k), np.ones(2))),
            MetricMapping(fam, (np.ones(2), np.full(2, k + 2.0))))


def _lp_curve(k: float) -> SampledCurve:
    f, g = _two_plane_mappings(k)
    return SampledCurve(LpSpace(f.family, 2.0), (0.0, 0.5, 1.0),
                        (f.values, g.values, f.values))


def _product(k: float):
    return constant_in_time(uniform_grid(0.0, 1.0, 3), _two_plane_mappings(k)[0])


def _step_curve(k: float) -> StepCurve:
    f, g = _two_plane_mappings(k)
    return StepCurve(LpSpace(f.family, 1.0), (0.0, 0.4, 1.0),
                     (f.values, g.values))


CONTAINERS = {
    "MappingFamily": lambda k: _two_plane_mappings(k)[0].family,
    "MetricMapping": lambda k: _two_plane_mappings(k)[0],
    "ProductGridMapping": _product,
    "CurveOfMappings": lambda k: sec_time(_product(k)),
    "MappingOfCurves": lambda k: sec_atom(_product(k)),
    "SampledCurve": _lp_curve,
    "StepCurve": _step_curve,
    "LpGeodesic": lambda k: lp_geodesic(*_two_plane_mappings(k), 2.0,
                                        n_nodes=3),
    "GeodesicSweep": lambda k: lp_geodesic(*_two_plane_mappings(k), 2.0,
                                           n_nodes=3).sweep,
    "TransportDecomposition": lambda k: decompose_ac(_lp_curve(k), 2.0),
    "BVTransportDecomposition": lambda k: decompose_bv(_step_curve(k)),
    "SpeedField": lambda k: compute_speed(decompose_ac(_lp_curve(k), 2.0)),
    "SmoothLpPaths": lambda k: sample_smooth_paths(
        Euclidean(2), [trial_rng(int(k), "test/containers", 0)]),
}


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_containers_compare_by_identity(kind):
    """Two containers of distinct arrays are unequal without raising; a
    container equals itself, and both hash."""
    a, b = CONTAINERS[kind](0.0), CONTAINERS[kind](1.0)
    assert type(a).__name__ == kind
    assert (a == b) is False
    assert (a == a) is True
    assert len({a, b}) == 2
