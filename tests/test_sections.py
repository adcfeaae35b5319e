"""Tests for the two section readings of product-grid data.

A product-grid mapping can be read as a curve of mappings (time outside)
or as a mapping of curves (atoms outside).  These tests pin down the
exactness of both readings, the agreement of the iterated norms with the
joint product norm, and the transpose bijection.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from nlsp import (
    CurveOfMappings,
    D_pp,
    Euclidean,
    FiniteMeasureSpace,
    MappingFamily,
    MappingOfCurves,
    MetricMapping,
    ProductGridMapping,
    SpaceMismatchError,
    Sphere,
    TimeGrid,
    ValidationError,
    constant_in_time,
    d_pp,
    default_tree,
    product_lp_norm,
    sec_atom,
    sec_atom_inverse,
    sec_time,
    sec_time_inverse,
    transpose,
    transpose_inverse,
    trial_rng,
    uniform_grid,
)
from nlsp import suites
from nlsp.checks import reading
from nlsp.rng import trial_rngs


def random_product_mapping(target, rng, n_nodes=7, n_atoms=4, rule="trapezoid"):
    """Random product data with one weightless atom."""
    weights = tuple(float(w) for w in rng.uniform(0.25, 1.0, size=n_atoms))
    weights = weights[:1] + (0.0,) + weights[2:]
    base = FiniteMeasureSpace(
        tuple(f"x{j}" for j in range(n_atoms)), weights)
    fam = MappingFamily(base, target,
                        tuple(target.random_point(rng) for _ in range(n_atoms)))
    grid = TimeGrid(tuple(np.linspace(0.0, 1.0, n_nodes)), rule=rule)
    values = tuple(
        tuple(target.random_point(rng) for _ in range(n_atoms))
        for _ in range(n_nodes))
    return ProductGridMapping(grid, fam, values)


# ---------------------------------------------------------------------------
# Section exactness and the transpose bijection
# ---------------------------------------------------------------------------


def bitwise_equal(a, b):
    """Same shape and the same bytes: stricter than ==, which takes -0.0
    for 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_sections_reuse_point_objects():
    """Both readings are views sharing the product data's buffer."""
    rng = trial_rng(0, "test/sections-exact", 0)
    pm = random_product_mapping(Euclidean(2), rng)
    cm = sec_time(pm)
    mc = sec_atom(pm)
    assert np.shares_memory(cm.values, pm.values)
    assert bitwise_equal(cm.values, pm.values)
    assert np.shares_memory(mc.atom_values, pm.values)
    assert bitwise_equal(mc.atom_values, pm.values.swapaxes(0, 1))


def test_section_inverses_restore_product_data():
    """sec_time and sec_atom invert bit for bit, and both round trips are
    views of the same buffer."""
    rng = trial_rng(0, "test/sections-inverse", 0)
    pm = random_product_mapping(Sphere(3), rng)
    back_t = sec_time_inverse(sec_time(pm))
    back_a = sec_atom_inverse(sec_atom(pm))
    assert bitwise_equal(back_t.values, pm.values)
    assert bitwise_equal(back_a.values, pm.values)
    assert np.shares_memory(back_t.values, pm.values)
    assert np.shares_memory(back_a.values, pm.values)


def test_transpose_roundtrip_reuses_every_point():
    """transpose_inverse(transpose(cm)) carries bitwise-equal values, and
    every node of it is a view of the transposed batch."""
    rng = trial_rng(0, "test/transpose", 0)
    pm = random_product_mapping(Euclidean(2), rng)
    cm = sec_time(pm)
    mc = transpose(cm)
    back = transpose_inverse(mc)
    assert bitwise_equal(back.values, cm.values)
    for i in range(len(cm.grid)):
        assert bitwise_equal(back.values[i], cm.values[i])
        assert np.shares_memory(back.values[i], mc.atom_values)


def test_base_sections_transpose_to_each_other():
    """The constant-in-time base mapping reads the same both ways."""
    grid = uniform_grid(0.0, 1.0, 5)
    base = FiniteMeasureSpace(("u", "v"), (1.0, 2.0))
    fam = MappingFamily(base, Euclidean(1), (np.zeros(1), np.ones(1)))
    held = constant_in_time(grid, fam.base_mapping())
    bc, bm = sec_time(held), sec_atom(held)
    swapped = transpose(bc)
    assert bitwise_equal(swapped.atom_values, bm.atom_values)
    assert np.shares_memory(bm.atom_values, fam.base_values)


# ---------------------------------------------------------------------------
# Iterated norms against the joint norm
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule", ["trapezoid", "left_cells"])
def test_iterated_norms_match_joint_norm(rule):
    """d_pp and D_pp reproduce the joint product norm to 1e-14 relative."""
    for trial in range(10):
        rng = trial_rng(0, f"test/iterated/{rule}", trial)
        target = Euclidean(2) if trial % 2 else Sphere(3)
        c1 = random_product_mapping(target, rng, rule=rule)
        c2 = ProductGridMapping(
            c1.grid, c1.family,
            tuple(tuple(target.random_point(rng)
                        for _ in range(len(c1.family.base_space)))
                  for _ in range(len(c1.grid.nodes))))
        for p in (1.0, 2.0, 3.0, math.inf):
            joint = product_lp_norm(c1, c2, p)
            time_major = d_pp(sec_time(c1), sec_time(c2), p)
            atom_major = D_pp(sec_atom(c1), sec_atom(c2), p)
            denom = max(joint, 1e-30)
            assert abs(time_major - joint) / denom < 1e-14
            assert abs(atom_major - joint) / denom < 1e-14


def test_pp_distances_require_shared_structure():
    """Mismatched grids and families are rejected rather than silently
    recycled."""
    rng = trial_rng(0, "test/pp-mismatch", 0)
    pm = random_product_mapping(Euclidean(2), rng, n_nodes=5)
    other = random_product_mapping(Euclidean(2), rng, n_nodes=7)
    other = ProductGridMapping(other.grid, pm.family, other.values)
    with pytest.raises(SpaceMismatchError, match="one time grid"):
        d_pp(sec_time(pm), sec_time(other), 2.0)
    with pytest.raises(SpaceMismatchError, match="one time grid"):
        D_pp(sec_atom(pm), sec_atom(other), 2.0)
    twin = random_product_mapping(Euclidean(2), rng, n_nodes=5)
    twin = ProductGridMapping(pm.grid, twin.family, twin.values)
    with pytest.raises(SpaceMismatchError, match="one family object"):
        d_pp(sec_time(pm), sec_time(twin), 2.0)
    with pytest.raises(SpaceMismatchError, match="one family object"):
        D_pp(sec_atom(pm), sec_atom(twin), 2.0)


@pytest.mark.parametrize("reading", [
    ProductGridMapping,
    CurveOfMappings,
    lambda grid, family, values: MappingOfCurves(
        family, grid, values.swapaxes(0, 1)),
], ids=["product", "time-major", "atom-major"])
def test_readings_reject_a_bad_grid_or_family(reading):
    """Each container raises ValidationError, naming the field, for a grid
    that is not a TimeGrid and for a family that is not a MappingFamily."""
    rng = trial_rng(0, "test/reading-fields", 0)
    pm = random_product_mapping(Euclidean(2), rng, n_nodes=3)
    with pytest.raises(ValidationError, match="grid must be a TimeGrid"):
        reading(pm.grid.nodes, pm.family, pm.values)
    with pytest.raises(ValidationError, match="family must be a MappingFamily"):
        reading(pm.grid, "x", pm.values)


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


def test_product_grid_mapping_validates_shape():
    """Row count must match nodes, column count must match atoms."""
    grid = uniform_grid(0.0, 1.0, 3)
    base = FiniteMeasureSpace(("u", "v"), (1.0, 1.0))
    fam = MappingFamily(base, Euclidean(1), (np.zeros(1), np.zeros(1)))
    good_row = (np.zeros(1), np.zeros(1))
    with pytest.raises(ValidationError):
        ProductGridMapping(grid, fam, (good_row,) * 2)
    with pytest.raises(ValidationError):
        ProductGridMapping(grid, fam, ((np.zeros(1),),) * 3)


def test_constant_in_time_is_distance_zero_from_itself():
    """A constant-in-time product mapping sits at norm zero from itself."""
    grid = uniform_grid(0.0, 1.0, 4)
    base = FiniteMeasureSpace(("u", "v"), (1.0, 2.0))
    fam = MappingFamily(base, Euclidean(1), (np.zeros(1), np.ones(1)))
    pm = constant_in_time(grid, MetricMapping(fam, fam.base_values))
    assert product_lp_norm(pm, pm, 2.0) == 0.0
    assert d_pp(sec_time(pm), sec_time(pm), math.inf) == 0.0


def test_metric_tree_product_data_reads_both_ways():
    """Tree batches are float arrays of (edge, offset) points: both readings
    are views of them, and the joint and iterated norms agree with a
    per-pair loop."""
    rng = trial_rng(0, "test/sections-tree", 0)
    tree = default_tree()
    base = FiniteMeasureSpace(("u", "v", "w"), (0.5, 0.0, 1.5))
    fam = MappingFamily(base, tree, tree.random_points(rng, 3))
    grid = TimeGrid(tuple(np.linspace(0.0, 1.0, 5)))
    pm, other = (ProductGridMapping(grid, fam, tuple(
        tuple(tree.random_points(rng, 3)) for _ in range(5))) for _ in range(2))
    assert pm.values.dtype == float and pm.values.shape == (5, 3, 2)
    cm, mc = sec_time(pm), sec_atom(pm)
    assert np.shares_memory(cm.values, pm.values)
    assert np.shares_memory(mc.atom_values, pm.values)
    assert (transpose_inverse(transpose(cm)).values[2] == pm.values[2]).all()
    tau, w = grid.node_weights, np.array(base.weights)
    dists = np.array([[tree.distance(pm.value(i, j), other.value(i, j))
                       for j in range(3)] for i in range(5)])
    for p in (1.0, 2.0, math.inf):
        if math.isinf(p):
            want = dists[:, [0, 2]].max()
        else:
            want = float(np.sum(np.outer(tau, w) * dists ** p)) ** (1.0 / p)
        assert product_lp_norm(pm, other, p) == pytest.approx(want, rel=1e-14)
        assert d_pp(cm, sec_time(other), p) == pytest.approx(want, rel=1e-14)
        assert D_pp(mc, sec_atom(other), p) == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# The fubini battery's stacked tables
# ---------------------------------------------------------------------------


def _one_pair_gaps(c1, c2, p_values):
    """The fubini scores of one pair, through the one-pair norms."""
    t1, t2, a1, a2 = sec_time(c1), sec_time(c2), sec_atom(c1), sec_atom(c2)
    gaps = []
    for p in p_values:
        joint = product_lp_norm(c1, c2, p)
        gaps.append(np.abs([d_pp(t1, t2, p) - joint, D_pp(a1, a2, p) - joint])
                    / max(joint, 1e-300))
    time_gap, atom_gap = (reading(g) for g in zip(*gaps))
    back = transpose_inverse(transpose(t1))
    return time_gap, atom_gap, back.values.tobytes() != c1.values.tobytes()


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("kind", [0, 1], ids=["sphere", "euclidean"])
def test_stacked_fubini_tables_equal_the_one_pair_norms_bit_for_bit(seed, kind):
    """Every trial and exponent read off the three stacked tables of a kind
    gives the bits of ``d_pp``, ``D_pp`` and ``product_lp_norm`` on that
    pair alone, zero-weight atoms and both grid rules included."""
    target, rule = ((Sphere(3), "trapezoid"), (Euclidean(2), "left_cells"))[kind]
    p_values = (1.0, 2.0, 3.0, math.inf)
    idx = range(kind, 100, 2)
    pairs = suites._product_pairs(target, rule,
                                  trial_rngs(seed, "fubini", idx), idx)
    scores = suites._fubini_scores(target, pairs, p_values)
    for (c1, c2), got in zip(pairs, scores):
        want = _one_pair_gaps(c1, c2, p_values)
        assert np.array(got[:2]).tobytes() == np.array(want[:2]).tobytes()
        assert got[2] is want[2] is False


def test_fubini_makes_three_distance_calls_per_target_kind(monkeypatch):
    """One joint, one time-major and one atom-major table per kind, for all
    trials and exponents."""
    calls = {}
    for space in (Sphere, Euclidean):
        def counted(self, ys, zs, real=space.distances):
            calls[self.kind] = calls.get(self.kind, 0) + 1
            return real(self, ys, zs)

        monkeypatch.setattr(space, "distances", counted)
    assert suites.run_fubini(seed=7).passed
    assert calls == {"sphere": 3, "euclidean": 3}
