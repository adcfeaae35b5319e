"""Tests for slicing curves of mappings into per-atom transport data.

Covers the absolutely-continuous decomposition (per-atom curves, the
derivative identity between the aggregate metric derivative and the
weighted per-atom derivatives), the bounded-variation decomposition with
its variation identity, and the p = 1 staircase family on which the
slicing construction genuinely fails.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from nlsp import (
    D_pp,
    Euclidean,
    FiniteMeasureSpace,
    LpSpace,
    MappingFamily,
    MetricMapping,
    ProductGridMapping,
    SampledCurve,
    SpaceMismatchError,
    Spd,
    Sphere,
    StepCurve,
    TimeGrid,
    ValidationError,
    batch_speeds,
    bundle_norms,
    compute_speed,
    counterexample_curve,
    counterexample_p1,
    d_pp,
    decompose_ac,
    decompose_bv,
    derivative_identity_residual,
    derivative_identity_residuals,
    sample_smooth_paths,
    sec_atom,
    sec_time,
    speed_identity_residual,
    trial_rng,
    variation_identity_residual,
    variation_measure,
    variations,
)
from nlsp.curves import metric_speeds
from nlsp.mappings import _weighted_norm
from nlsp.rng import trial_rngs, uniforms
from nlsp.suites import (
    default_tree,
    draw_step_pieces,
    random_families,
    run_speed,
    run_transport,
)
from nlsp.transport import batch_variation_residuals, speed_table


def lp_curve(times, mapping_rows, fam, p=2.0):
    """A sampled curve in L^p from rows of per-atom points."""
    return SampledCurve(LpSpace(fam, p), tuple(times), tuple(mapping_rows))


def _atom_curves(c):
    """One target step curve per atom of a step curve of mappings."""
    return [StepCurve(c.space.family.target, c.breakpoints, values)
            for values in c.values.swapaxes(0, 1)]


# ---------------------------------------------------------------------------
# Absolutely continuous decomposition
# ---------------------------------------------------------------------------


def test_decompose_ac_keeps_point_objects():
    """Slicing re-reads the curve's values bit for bit, recomputing none."""
    base = FiniteMeasureSpace(("a", "b"), (1.0, 2.0))
    fam = MappingFamily(base, Euclidean(1), (np.zeros(1), np.zeros(1)))
    times = np.linspace(0.0, 1.0, 9)
    rows = [(np.array([t]), np.array([2.0 * t])) for t in times]
    c = lp_curve(times, rows, fam)
    d = decompose_ac(c, 2.0)
    assert d.source is c and d.source.values is c.values


def test_decompose_ac_rejects_p_one_and_infinity():
    """Slicing preserves regularity only for finite exponents above one."""
    base = FiniteMeasureSpace(("a",), (1.0,))
    fam = MappingFamily(base, Euclidean(1), (np.zeros(1),))
    c = lp_curve((0.0, 1.0), [(np.zeros(1),), (np.ones(1),)], fam)
    with pytest.raises(ValidationError, match="p > 1"):
        decompose_ac(c, 1.0)
    with pytest.raises(ValidationError, match="finite"):
        decompose_ac(c, math.inf)


def test_decompose_ac_exponent_must_match_curve_space():
    """The requested exponent has to agree with the curve's own space."""
    base = FiniteMeasureSpace(("a",), (1.0,))
    fam = MappingFamily(base, Euclidean(1), (np.zeros(1),))
    c = lp_curve((0.0, 1.0), [(np.zeros(1),), (np.ones(1),)], fam, p=2.0)
    with pytest.raises(ValidationError):
        decompose_ac(c, 3.0)


def test_derivative_identity_is_exact_for_constant_curves():
    """A constant curve decomposes to constants with zero residual."""
    base = FiniteMeasureSpace(("a", "b", "c"), (0.5, 1.0, 0.25))
    target = Euclidean(2)
    rng = trial_rng(0, "test/ac-constant", 0)
    pts = tuple(target.random_point(rng) for _ in range(3))
    fam = MappingFamily(base, target, pts)
    times = np.linspace(0.0, 1.0, 7)
    c = lp_curve(times, [pts] * 7, fam)
    d = decompose_ac(c, 2.0)
    assert np.all(derivative_identity_residual(d) == 0.0)
    # The per-atom speeds, over the atom axis of the curve's values.
    assert np.all(metric_speeds(target, c.values, c.times_array) == 0.0)


def test_derivative_identity_on_distinct_speed_great_circles():
    """Per-atom great circles at distinct angular speeds satisfy the
    derivative identity.

    Both sides of the identity aggregate the same finite-difference
    distances through the same weighted sum, so the residual sits at the
    roundoff floor rather than merely below the documented 1e-3 bound.
    """
    sphere = Sphere(3)
    base = FiniteMeasureSpace(("a", "b", "c"), (0.7, 1.0, 0.3))
    omegas = (0.5 * math.pi, 0.9 * math.pi, 1.7)
    times = np.linspace(0.0, 1.0, 129)

    def circle_point(omega, t, phase):
        return np.array([math.cos(omega * t + phase),
                         math.sin(omega * t + phase), 0.0])

    fam = MappingFamily(base, sphere,
                        tuple(circle_point(w, 0.0, 0.1) for w in omegas))
    rows = [tuple(circle_point(w, t, 0.1) for w in omegas) for t in times]
    c = lp_curve(times, rows, fam)
    d = decompose_ac(c, 2.0)
    residual = np.abs(derivative_identity_residual(d))
    assert float(np.max(residual[1:-1])) < 1e-3
    assert float(np.max(residual)) <= 1e-12
    # Per-atom speeds recover each circle's angular speed.
    speeds = metric_speeds(sphere, c.values, c.times_array)
    assert np.allclose(speeds[1:-1], omegas, atol=1e-6)


def test_lp_curve_and_bundle_distances_agree():
    """The two readings of product data stay isometric, 100 random pairs."""
    worst = 0.0
    for trial in range(100):
        rng = trial_rng(0, "test/transport-isometry", trial)
        target = Sphere(3) if trial % 2 else Euclidean(2)
        weights = tuple(float(w) for w in rng.uniform(0.25, 1.0, size=3))
        base = FiniteMeasureSpace(("x0", "x1", "x2"), weights)
        fam = MappingFamily(base, target,
                            tuple(target.random_point(rng) for _ in range(3)))
        grid = TimeGrid(tuple(np.linspace(0.0, 1.0, 7)), rule="trapezoid")
        def draw():
            return ProductGridMapping(
                grid, fam,
                tuple(tuple(target.random_point(rng) for _ in range(3))
                      for _ in range(7)))
        c1, c2 = draw(), draw()
        for p in (1.5, 2.0, 4.0):
            curve_side = d_pp(sec_time(c1), sec_time(c2), p)
            bundle_side = D_pp(sec_atom(c1), sec_atom(c2), p)
            worst = max(worst, abs(curve_side - bundle_side)
                        / max(curve_side, 1e-30))
    assert worst < 1e-14


# ---------------------------------------------------------------------------
# Bounded variation decomposition
# ---------------------------------------------------------------------------


def test_decompose_bv_of_single_global_jump():
    """One jump in L^p slices to one per-atom jump of the atom distance."""
    base = FiniteMeasureSpace(("a", "b"), (1.0, 3.0))
    target = Euclidean(2)
    fam = MappingFamily(base, target, (np.zeros(2), np.zeros(2)))
    f = MetricMapping(fam, (np.zeros(2), np.array([1.0, 0.0])))
    g = MetricMapping(fam, (np.array([3.0, 4.0]), np.array([1.0, 2.0])))
    space = LpSpace(fam, 1.0)
    c = StepCurve(space, (0.0, 0.4, 1.0), (f.values, g.values))
    bv = decompose_bv(c)
    atom_curves = _atom_curves(bv.source)
    assert len(atom_curves) == 2
    for j in range(2):
        pc = atom_curves[j]
        assert pc.breakpoints == (0.0, 0.4, 1.0)
        assert np.array_equal(pc.values[0], f.values[j])
        assert np.array_equal(pc.values[1], g.values[j])
    assert variations(atom_curves[0], [None])[0] == 5.0
    assert variations(atom_curves[1], [None])[0] == 2.0
    assert variation_identity_residual(bv) <= 1e-15


def test_decompose_bv_on_tree_valued_mappings():
    """Slicing needs no tangent chart: it works for tree targets."""
    tree = default_tree()
    base = FiniteMeasureSpace(("a", "b"), (1.0, 1.0))
    rng = trial_rng(0, "test/bv-tree", 0)
    pts = [tuple(tree.random_point(rng) for _ in range(2)) for _ in range(3)]
    fam = MappingFamily(base, tree, pts[0])
    space = LpSpace(fam, 1.0)
    c = StepCurve(space, (0.0, 0.3, 0.6, 1.0), tuple(pts))
    bv = decompose_bv(c)
    assert variation_identity_residual(bv) <= 1e-12
    for j, pc in enumerate(_atom_curves(bv.source)):
        expected = sum(tree.distance(pts[k][j], pts[k + 1][j])
                       for k in range(2))
        assert variations(pc, [None])[0] == pytest.approx(expected, abs=1e-12)


def test_variation_identity_on_random_step_curves():
    """Weighted per-atom variation reproduces the source variation,
    on the full interval and on random subintervals."""
    target = Euclidean(2)
    for trial in range(20):
        rng = trial_rng(0, "test/bv-random", trial)
        n_atoms = int(rng.integers(2, 5))
        weights = tuple(float(w) for w in rng.uniform(0.25, 1.0, size=n_atoms))
        base = FiniteMeasureSpace(
            tuple(f"x{j}" for j in range(n_atoms)), weights)
        pieces = int(rng.integers(2, 7))
        rows = [tuple(target.random_point(rng) for _ in range(n_atoms))
                for _ in range(pieces)]
        fam = MappingFamily(base, target, rows[0])
        space = LpSpace(fam, 1.0)
        breaks = tuple([0.0] + sorted(
            rng.uniform(0.05, 0.95, size=pieces - 1).tolist()) + [1.0])
        c = StepCurve(space, breaks, tuple(rows))
        bv = decompose_bv(c)
        assert variation_identity_residual(bv) <= 1e-12
        for _ in range(5):
            s, t = np.sort(rng.uniform(0.0, 1.0, size=2))
            if s < t:
                assert variation_identity_residual(
                    bv, (float(s), float(t))) <= 1e-12


# ---------------------------------------------------------------------------
# Batched batteries against the curve-by-curve loop
# ---------------------------------------------------------------------------
#
# The reference below is the curve-by-curve code the batched helpers
# replaced, kept here on the target kernels alone: the batched results
# must equal it bit for bit.


def _one_curve(paths, k):
    """Curve ``k`` of a batch of smooth paths, as a batch of one."""
    return dataclasses.replace(
        paths, weights=paths.weights[k:k + 1],
        anchors=paths.anchors[:, k:k + 1], wiggles=paths.wiggles[:, k:k + 1],
        legs=paths.legs[k:k + 1])


def _curve_space(paths, k):
    """The ``LpSpace`` of curve ``k`` of a batch of smooth paths alone."""
    ids = tuple(f"x{j}" for j in range(paths.weights.shape[1]))
    base = FiniteMeasureSpace(ids, tuple(paths.weights[k].tolist()))
    return LpSpace(MappingFamily(base, paths.target, paths.anchors[0, k]),
                   paths.p)


def _loop_materialize(paths, k, n):
    times = np.linspace(0.0, 1.0, n)
    nodes = paths.target.geodesic_points(
        paths.anchors[0, k], paths.anchors[1, k],
        _one_curve(paths, k).warp(times)[:, 0])
    return SampledCurve(_curve_space(paths, k),
                        tuple(float(t) for t in times), nodes)


def _loop_atom_powers(curve, p):
    family = curve.space.family
    atoms = metric_speeds(family.target, curve.values, curve.times_array).T
    return family.base_space.weights_array @ (atoms ** p)


def _loop_derivative_residual(curve, p):
    lhs = metric_speeds(curve.space, curve.values, curve.times_array) ** p
    return lhs - _loop_atom_powers(curve, p)


def _loop_speed(curve, p):
    """Metric derivative, bundle norm and consistency gap of one curve."""
    family = curve.space.family
    times, bases = curve.times_array, curve.values
    n = len(times)
    dst = np.append(np.arange(1, n), n - 2)
    step = (1.0 / (times[dst] - times)).reshape((n,) + (1,) * (bases.ndim - 1))
    vectors = family.target.log_maps(bases, bases[dst]) * step
    bundle = _weighted_norm(family.target.tangent_norms(bases, vectors),
                            family.base_space.weights_array, p)
    rhs = _loop_atom_powers(curve, p)[1:-1]
    gap = float(np.max(np.abs(bundle[1:-1] ** p - rhs)
                       / np.maximum(np.abs(rhs), 1e-300)))
    return metric_speeds(curve.space, bases, times), bundle, gap


def _loop_variation(c, sub):
    s, t = c.interval if sub is None else sub
    return float(sum(jump for at, jump in zip(c.breakpoints[1:-1], c.jumps)
                     if s < at < t))


def _loop_variation_residual(d, sub):
    w = d.source.space.family.base_space.weights_array
    return _loop_variation(d.source, sub) - float(np.dot(
        w, [_loop_variation(curve, sub) for curve in _atom_curves(d.source)]))


def _zero_weight_atom(paths, curve, atom):
    """The same paths with one atom of one curve weighted zero."""
    weights = paths.weights.copy()
    weights[curve, atom] = 0.0
    return dataclasses.replace(paths, weights=weights)


def _one_curve_residuals(d, subs) -> np.ndarray:
    """The variation residuals of one curve over ``subs`` (``None`` for
    the whole interval), as a batch of one."""
    return batch_variation_residuals(
        [d], [[d.source.interval if sub is None else sub for sub in subs]])[0]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("target", [Euclidean(2), Sphere(3), Spd(2)],
                         ids=["euclidean", "sphere", "spd"])
def test_stacked_sweep_and_speed_equal_the_curve_loop_bit_for_bit(target):
    """One stacked sweep per grid gives every path's samples, derivative
    residuals, metric derivatives, bundle norms and consistency gaps bit for
    bit as the curve-by-curve loop does, zero-weight atoms included; and a
    sweep of one path is its path's column of the sweep."""
    paths = _zero_weight_atom(sample_smooth_paths(
        target, trial_rngs(3, "test/sweep", range(4))), 1, 2)
    for n in (9, 33):
        times, values = paths.sweep(n)
        residuals = derivative_identity_residuals(target, paths.weights, 2.0,
                                                  values, times)
        md, bundle, gaps = batch_speeds(target, paths.weights, 2.0, values,
                                        times)
        for k in range(4):
            curve = _loop_materialize(paths, k, n)
            assert _same_bits(values[:, k], curve.values)
            assert _same_bits(_one_curve(paths, k).sweep(n)[1][:, 0],
                              curve.values)
            expected = _loop_derivative_residual(curve, 2.0)
            assert _same_bits(residuals[k], expected)
            dec = decompose_ac(curve, 2.0)
            assert _same_bits(derivative_identity_residual(dec), expected)
            loop_md, loop_bundle, loop_gap = _loop_speed(curve, 2.0)
            assert _same_bits(md[k], loop_md)
            assert _same_bits(bundle[k], loop_bundle)
            assert gaps[k] == loop_gap
            sf = compute_speed(dec)
            assert _same_bits(bundle_norms(sf), loop_bundle)
            assert _same_bits(speed_identity_residual(sf),
                              np.abs(loop_md - loop_bundle))


@pytest.mark.parametrize("target", [Sphere(3), Spd(2)],
                         ids=["sphere", "spd"])
def test_one_table_residuals_equal_the_per_curve_route_bit_for_bit(target):
    """On the transport battery's own seed-7 batches, the residuals read off
    one table of per-atom distances equal those whose ``L^p`` side takes
    one ``LpSpace.distances`` call per curve, bit for bit."""
    stream = f"transport/{target.kind}"
    paths = sample_smooth_paths(target, trial_rngs(7, stream, range(20)))
    for n in (65, 129, 257):
        times, values = paths.sweep(n)
        residuals = derivative_identity_residuals(target, paths.weights, 2.0,
                                                  values, times)
        for k in range(20):
            curve = SampledCurve(_curve_space(paths, k), tuple(times),
                                 values[:, k])
            assert _same_bits(residuals[k],
                              _loop_derivative_residual(curve, 2.0))


def test_stacked_tree_curves_equal_the_curve_loop_bit_for_bit():
    """The derivative identity needs no chart: a stacked batch of tree
    curves, one with a zero-weight atom, matches the loop bit for bit."""
    tree = default_tree()
    rng = trial_rng(3, "test/tree-sweep", 0)
    families = [random_families(tree, [rng], 3, [k == 0])[0]
                for k in range(3)]
    ys, zs = (tree.random_points(rng, 9).reshape(3, 3, 2) for _ in range(2))
    times = np.linspace(0.0, 1.0, 17)
    values = tree.geodesic_points(ys, zs, np.broadcast_to(
        times[:, None, None], (17, 3, 3)))
    weights = np.stack([family.base_space.weights_array
                        for family in families])
    residuals = derivative_identity_residuals(tree, weights, 1.5, values,
                                              times)
    for k, family in enumerate(families):
        curve = SampledCurve(LpSpace(family, 1.5), tuple(times), values[:, k])
        assert _same_bits(residuals[k],
                          _loop_derivative_residual(curve, 1.5))


@pytest.mark.parametrize("target", [Euclidean(2), Sphere(3), Spd(2),
                                    default_tree()],
                         ids=["euclidean", "sphere", "spd", "tree"])
def test_jump_table_sums_equal_the_subinterval_loop_bit_for_bit(target):
    """Variations and variation residuals read off one jump table equal
    the per-subinterval loop bit for bit: on the whole interval, on random
    subintervals, on one whose endpoints are breakpoints (their jumps lie
    outside the open interval) and on ones holding no jump at all."""
    for trial in range(4):
        rng = trial_rng(3, f"test/jump-table/{target.kind}", trial)
        family, = random_families(target, [rng], 4, [trial % 2 == 0])
        (breaks, values), = draw_step_pieces(
            [rng], [5], lambda rngs, k: target.draw_points(rngs, 4 * k).reshape(
                len(rngs), k, 4, *target.point_shape))
        curve = StepCurve(LpSpace(family, 1.0), breaks, values)
        bp = curve.breakpoints
        subs = [None, (bp[1], bp[3]), (bp[1], bp[1]), (0.0, bp[1]),
                (0.5 * (bp[1] + bp[2]), 0.5 * (bp[1] + bp[2]))]
        subs += [tuple(sorted(rng.uniform(0.0, 1.0, 2))) for _ in range(6)]
        d = decompose_bv(curve)
        residuals = _one_curve_residuals(d, subs)
        direct = variations(curve, subs)
        vm = variation_measure(curve)
        for k, sub in enumerate(subs):
            expected = _loop_variation_residual(d, sub)
            assert _same_bits(residuals[k], expected)
            assert _same_bits(variation_identity_residual(d, sub), expected)
            assert _same_bits(direct[k], _loop_variation(curve, sub))
            assert _same_bits(variations(curve, [sub])[0], direct[k])
            if sub is not None:
                assert vm.of_open_interval(*sub) == direct[k]
        # The open-interval rule: only the jump at bp[2] lies in (bp[1], bp[3]).
        assert direct[1] == curve.jumps[1]
        assert direct[2] == direct[3] == direct[4] == 0.0
    assert variations(curve, []).shape == (0,)


def test_sampled_variations_equal_the_segment_loop_bit_for_bit():
    """For a sampled curve each variation is the sum, in time order, of the
    segments inside the subinterval's closure."""
    rng = trial_rng(3, "test/sampled-variations", 0)
    times = tuple(np.sort(rng.uniform(0.0, 1.0, 12)))
    curve = SampledCurve(Euclidean(2), times, rng.standard_normal((12, 2)))
    subs = [None, (times[2], times[7]), (times[3], times[3]), (0.0, 1.0),
            (0.5 * (times[4] + times[5]), times[9])]
    segs = curve.segment_lengths()
    for sub, got in zip(subs, variations(curve, subs)):
        s, t = curve.interval if sub is None else sub
        expected = float(sum(seg for seg, lo, hi in zip(segs, times, times[1:])
                             if lo >= s and hi <= t))
        assert _same_bits(got, expected)


# ---------------------------------------------------------------------------
# The p = 1 staircase
# ---------------------------------------------------------------------------


def test_counterexample_curve_structure():
    """Each atom of the staircase jumps exactly once, by exactly one."""
    c = counterexample_curve(4)
    assert len(c.values) == 5
    atom_curves = _atom_curves(c)
    assert len(atom_curves) == 4
    for j, pc in enumerate(atom_curves):
        sizes = [float(np.abs(b - a)[0])
                 for a, b in zip(pc.values, pc.values[1:])]
        assert sorted(sizes) == [0.0, 0.0, 0.0, 1.0]
        assert variations(pc, [None])[0] == 1.0


def test_counterexample_p1_report_is_exact_at_powers_of_two():
    """Unit Lipschitz ratios, unit total variation, persistent moduli.

    With power-of-two sizes every quantity is dyadic, so the report's
    bounds are exact: the curve is 1-Lipschitz into the p = 1 space and
    has variation one, yet the per-atom refinement moduli never decay --
    the slicing construction cannot absorb the staircase at p = 1.
    """
    for n in (4, 16, 64):
        rep = counterexample_p1(n, refinements=(1, 2, 4))
        assert rep.n == n
        assert rep.lipschitz_lo == 1.0
        assert rep.lipschitz_hi == 1.0
        assert rep.total_variation == 1.0
        assert [m for (_, m) in rep.atom_moduli] == [1.0, 1.0, 1.0]
        refinement_levels = [r for (r, _) in rep.atom_moduli]
        assert refinement_levels == [1, 2, 4]


def test_counterexample_p1_validates_n():
    """The staircase needs at least two steps."""
    with pytest.raises(ValidationError):
        counterexample_p1(1)


@pytest.mark.parametrize("n", [4, 16, 64, 128])
def test_counterexample_atoms_equal_the_per_atom_loop_bit_for_bit(n):
    """The moduli, read off the source curve's values, and the total
    variation, read off one ``(jump, atom)`` table, equal a loop over one
    step curve per atom bit for bit."""
    rep = counterexample_p1(n, refinements=(1, 2, 4))
    c = counterexample_curve(n)
    atom_curves = _atom_curves(c)
    for r, modulus in rep.atom_moduli:
        fine = np.arange(r * n + 1) / (r * n)
        assert _same_bits(modulus, max(
            float(np.abs(np.diff(pc.value_at(fine), axis=0)).max())
            for pc in atom_curves))
    w = c.space.family.base_space.weights_array
    assert _same_bits(rep.total_variation, float(np.dot(
        w, [variations(pc, [None])[0] for pc in atom_curves])))


@pytest.mark.parametrize("n", [4, 16, 64, 128])
def test_counterexample_quotients_in_parts_equal_one_call_per_start(
        monkeypatch, n):
    """The Lipschitz quotients, taken in bounded parts of pairs, bracket
    the quotients of one distance call per start time bit for bit; at
    n = 64 the 2,080 pairs take 9 calls, not 64."""
    c = counterexample_curve(n)
    grid = np.arange(n + 1) / n
    vals = c.value_at(grid)
    loop = np.concatenate([
        c.space.distances(vals[i:i + 1], vals[i + 1:]) / (grid[i + 1:] - grid[i])
        for i in range(n)])
    calls = []
    real = LpSpace.distances
    monkeypatch.setattr(LpSpace, "distances", lambda self, fs, gs: (
        calls.append(np.shape(fs)[0]) or real(self, fs, gs)))
    rep = counterexample_p1(n)
    assert _same_bits(rep.lipschitz_lo, float(loop.min()))
    assert _same_bits(rep.lipschitz_hi, float(loop.max()))
    assert sum(calls) == n * (n + 1) // 2
    assert max(calls) * n * 8 <= 128 * 1024
    if n == 64:
        assert len(calls) == 9


@pytest.mark.parametrize("target", [Euclidean(2), default_tree()],
                         ids=["euclidean", "tree"])
@pytest.mark.parametrize("seed", [1, 7])
def test_batched_variation_residuals_equal_the_one_curve_loop_bit_for_bit(
        target, seed):
    """Step curves of 1 to 6 pieces, padded to one jump table, each with a
    zero-weight atom on every third curve, give every residual bit for bit
    as the curve alone and as the per-atom loop, on the whole interval and
    on drawn subintervals."""
    rngs = trial_rngs(seed, "test/bv-batch", range(12))
    families = random_families(target, rngs, 4, [i % 3 == 0 for i in range(12)])
    drawn = draw_step_pieces(rngs, [1 + i % 6 for i in range(12)], lambda r, k: (
        target.draw_points(r, 4 * k).reshape(len(r), k, 4, *target.point_shape)))
    ds = [decompose_bv(StepCurve(LpSpace(family, 1.0), breaks, values))
          for family, (breaks, values) in zip(families, drawn)]
    subs = np.sort(uniforms(rngs, 0.0, 1.0, (5, 2)), axis=2)
    bounds = np.concatenate([np.broadcast_to([[0.0, 1.0]], (12, 1, 2)), subs],
                            axis=1)
    batch = batch_variation_residuals(ds, bounds)
    assert batch.shape == (12, 6)
    for d, row, sub in zip(ds, batch, subs):
        alone = _one_curve_residuals(d, [None, *map(tuple, sub)])
        assert _same_bits(row, alone)
        for k, one in enumerate([None, *map(tuple, sub)]):
            assert _same_bits(row[k], _loop_variation_residual(d, one))


def test_batched_variation_residuals_refuse_a_mixed_batch():
    """One target object and one atom count per batch; bounds of shape
    ``(curve, k, 2)``."""
    rng = trial_rng(0, "test/bv-mixed", 0)

    def curve(target, n_atoms):
        family, = random_families(target, [rng], n_atoms)
        return decompose_bv(StepCurve(
            LpSpace(family, 1.0), (0.0, 0.5, 1.0),
            target.random_points(rng, 2 * n_atoms).reshape(2, n_atoms, -1)))

    plane = Euclidean(2)
    bounds = np.zeros((2, 1, 2))
    with pytest.raises(SpaceMismatchError, match="one target"):
        batch_variation_residuals([curve(plane, 3), curve(Euclidean(2), 3)],
                                  bounds)
    with pytest.raises(SpaceMismatchError, match="atom count"):
        batch_variation_residuals([curve(plane, 3), curve(plane, 4)], bounds)
    with pytest.raises(ValidationError, match="bounds"):
        batch_variation_residuals([curve(plane, 3)], bounds)
    with pytest.raises(ValidationError, match="s <= t"):
        batch_variation_residuals([curve(plane, 3)], [[(0.6, 0.4)]])


# ---------------------------------------------------------------------------
# Exponents and weights outside the speed identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [math.inf, 1.0], ids=["inf", "one"])
@pytest.mark.parametrize("battery", [run_speed, run_transport],
                         ids=["speed", "transport"])
def test_ac_batteries_refuse_exponents_outside_one_to_inf(battery, p):
    """The speed identities hold for ``1 < p < inf``: a library call of
    either smooth-path battery outside that range is refused, as the CLI
    refuses it, and neither crashes nor certifies."""
    with pytest.raises(ValidationError, match="1 < p < inf"):
        battery(seed=7, curves=2, grids=(65, 129), p=p)


def test_speed_table_refuses_weights_off_the_curve_atom_axes():
    """Weights must have the values' ``(curve, atom)`` shape."""
    paths = sample_smooth_paths(Sphere(3), trial_rngs(3, "test/weights",
                                                      range(3)))
    times, values = paths.sweep(9)
    for weights in (paths.weights[:2], paths.weights[:, :3], paths.weights[0],
                    paths.weights[None]):
        for identity in (speed_table, derivative_identity_residuals,
                         batch_speeds):
            with pytest.raises(ValidationError, match="weights"):
                identity(paths.target, weights, 2.0, values, times)
