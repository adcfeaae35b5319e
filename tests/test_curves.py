"""Tests for curves into metric spaces: derivatives, length, variation.

Covers the sampled-curve metric derivative, length and p-energy with
their Holder relationship, near-constant-speed reparametrization, step
curves with their total variation and jump measure, and the two-sided
time-warp (Skorokhod-style) distance bounds between step curves.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsp import curves
from nlsp.rng import trial_rngs, uniforms
from nlsp.suites import draw_step_pieces
from nlsp import (
    Euclidean,
    SampledCurve,
    SpaceMismatchError,
    Sphere,
    StepCurve,
    ValidationError,
    energy,
    metric_derivative,
    skorokhod_distance,
    skorokhod_distances,
    trial_rng,
    variation_measure,
    variations,
)

E1 = Euclidean(1)
E2 = Euclidean(2)


def scalar_step(breaks, vals):
    return StepCurve(E1, tuple(breaks), tuple(np.array([v]) for v in vals))


# ---------------------------------------------------------------------------
# Metric derivative
# ---------------------------------------------------------------------------


def test_metric_derivative_of_constant_curve_is_zero():
    """A constant curve has identically zero metric derivative."""
    times = tuple(np.linspace(0.0, 1.0, 9))
    c = SampledCurve(E2, times, (np.array([1.0, 2.0]),) * 9)
    assert np.all(metric_derivative(c) == 0.0)


def test_metric_derivative_of_line_is_exact():
    """The line t -> (t, 2t) has derivative sqrt(5) at every node."""
    times = tuple(np.linspace(0.0, 1.0, 17))  # power-of-two cells: exact
    c = SampledCurve(E2, times,
                     tuple(np.array([t, 2.0 * t]) for t in times))
    md = metric_derivative(c)
    assert np.all(md == math.sqrt(5.0))


def test_metric_derivative_on_great_circle():
    """A unit-speed great circle reports speed 1 at interior nodes."""
    sphere = Sphere(3)
    times = tuple(np.linspace(0.0, 1.0, 65))
    omega = 0.75 * math.pi
    c = SampledCurve(
        sphere, times,
        tuple(np.array([math.cos(omega * t), math.sin(omega * t), 0.0])
              for t in times))
    md = metric_derivative(c)
    assert float(np.max(np.abs(md[1:-1] - omega))) < 1e-3


def test_metric_derivative_needs_two_nodes():
    """Derivative and length (the 1-energy) are undefined on a single
    sample."""
    c = SampledCurve(E1, (0.0,), (np.zeros(1),))
    with pytest.raises(ValidationError, match="at least two"):
        metric_derivative(c)
    with pytest.raises(ValidationError, match="at least two"):
        energy(c, 1.0)


def test_sampled_curve_validation():
    """Times must strictly increase and match the value count."""
    with pytest.raises(ValidationError, match="strictly increasing"):
        SampledCurve(E1, (0.0, 0.5, 0.4), (np.zeros(1),) * 3)
    with pytest.raises(ValidationError):
        SampledCurve(E1, (0.0, 1.0), (np.zeros(1),) * 3)


# ---------------------------------------------------------------------------
# Length, energy, reparametrization
# ---------------------------------------------------------------------------


def test_length_and_energy_of_straight_segment():
    """A straight 3-4-5 segment has length 5 and 2-energy 25."""
    rng = trial_rng(0, "test/segment-times", 0)
    interior = np.sort(rng.uniform(0.05, 0.95, size=6))
    times = tuple([0.0] + [float(t) for t in interior] + [1.0])
    end = np.array([3.0, 4.0])
    c = SampledCurve(E2, times, tuple(t * end for t in times))
    assert curves.lengths(E2, c.values) == pytest.approx(5.0, abs=1e-12)
    assert energy(c, 2.0) == pytest.approx(25.0, abs=1e-10)
    assert energy(c, 1.0) == pytest.approx(5.0, abs=1e-12)


def test_energy_rejects_bad_exponents():
    """Energy needs a finite exponent >= 1."""
    c = SampledCurve(E1, (0.0, 1.0), (np.zeros(1), np.ones(1)))
    with pytest.raises(ValidationError):
        energy(c, 0.5)
    with pytest.raises(ValidationError, match="not allowed"):
        energy(c, math.inf)


def test_holder_bound_between_length_and_energy():
    """length^p <= (b - a)^(p-1) * p-energy on random sampled curves."""
    for trial in range(50):
        rng = trial_rng(0, "test/holder-curves", trial)
        n = int(rng.integers(3, 12))
        times = tuple(np.sort(np.concatenate(
            [[0.0, 1.0], rng.uniform(0.0, 1.0, size=n - 2)])))
        vals = tuple(rng.normal(size=2) for _ in range(n))
        c = SampledCurve(E2, times, vals)
        for p in (1.5, 2.0, 3.0):
            assert curves.lengths(E2, c.values) ** p <= energy(c, p) + 1e-10


def test_constant_speed_reparam_flattens_speed():
    """Retiming t -> t^2 equalizes cell speeds to within 1e-4, and the
    energy of the retimed samples meets the budget."""
    times = np.linspace(0.0, 1.0, 65)
    c = SampledCurve(E1, tuple(times), tuple(np.array([t * t]) for t in times))
    seg = c.segment_lengths()
    tau = curves.retimed_times(times, seg, 1e-6)
    assert tau[0] == 0.0 and tau[-1] == 1.0
    speeds = seg / np.diff(tau)
    spread = speeds.max() / speeds.min() - 1.0
    assert spread <= 1e-4
    total = curves.lengths(E1, c.values)
    for p in (1.5, 2.0, 3.0):
        ratio = curves.table_energies(seg, tau, p) / total ** p  # span one
        assert ratio <= (1.0 + 1e-6) ** p + 1e-12


def test_constant_speed_reparam_keeps_constant_speed_curves():
    """An already-constant-speed curve keeps its time samples."""
    times = np.linspace(0.0, 1.0, 9)
    c = SampledCurve(E2, tuple(times),
                     tuple(np.array([t, 2.0 * t]) for t in times))
    tau = curves.retimed_times(times, c.segment_lengths(), 1e-6)
    assert np.allclose(tau, times, atol=1e-10)


def test_constant_speed_reparam_validates_eps():
    """The speed-slack parameter must be positive and finite."""
    seg = np.ones(1)
    for eps in (0.0, -1e-3, math.inf):
        with pytest.raises(ValidationError, match="eps"):
            curves.retimed_times((0.0, 1.0), seg, eps)


def test_retimed_times_and_energies_of_a_batch_match_each_curve():
    """A batch with per-curve times in its columns is retimed and scored
    bit for bit as each curve alone."""
    rng = trial_rng(0, "test/retimed-batch", 0)
    times = np.concatenate([np.zeros((1, 5)), np.cumsum(
        rng.uniform(0.5, 1.5, size=(8, 5)), axis=0)])
    seg = rng.uniform(0.0, 1.0, size=(8, 5))
    seg[3, 2] = 0.0
    tau = curves.retimed_times(times, seg, 1e-6)
    assert (np.diff(tau, axis=0) > 0.0).all()
    for k in range(5):
        alone = curves.retimed_times(times[:, k], seg[:, k], 1e-6)
        assert alone.tobytes() == np.ascontiguousarray(tau[:, k]).tobytes()
        for p in (1.5, 2.0, 3.0):
            assert (curves.table_energies(seg[:, k], alone, p)
                    == curves.table_energies(seg, tau, p)[k])


# ---------------------------------------------------------------------------
# Step curves and variation
# ---------------------------------------------------------------------------


def test_step_curve_is_right_continuous():
    """At a breakpoint the curve already takes the next piece's value."""
    c = scalar_step((0.0, 0.5, 1.0), (0.0, 3.0))
    assert float(c.value_at(0.49)[0]) == 0.0
    assert float(c.value_at(0.5)[0]) == 3.0
    assert float(c.value_at(1.0)[0]) == 3.0


def test_step_curve_validation():
    """Piece count must be breakpoints - 1, breakpoints increasing."""
    with pytest.raises(ValidationError, match="breakpoints - 1"):
        StepCurve(E1, (0.0, 1.0), (np.zeros(1), np.ones(1)))
    with pytest.raises(ValidationError):
        StepCurve(E1, (0.0, 0.6, 0.4, 1.0), (np.zeros(1),) * 3)


@pytest.mark.parametrize("build, match", [
    (lambda: SampledCurve(E1, ("a", 1.0), (np.zeros(1),) * 2),
     r"curve times\[0\] must be a real number, got 'a'"),
    (lambda: SampledCurve(E1, (None, 1.0), (np.zeros(1),) * 2),
     r"curve times\[0\] must be a real number, got None"),
    (lambda: SampledCurve(E1, (0.0, math.inf), (np.zeros(1),) * 2),
     r"curve times\[1\] must be finite, got inf"),
    (lambda: SampledCurve(E1, (0.0, 0.5, 0.5), (np.zeros(1),) * 3),
     r"strictly increasing, got curve times\[2\] = 0.5 after 0.5"),
    (lambda: StepCurve(E1, (0.0, "x"), (np.zeros(1),)),
     r"breakpoints\[1\] must be a real number, got 'x'"),
    (lambda: StepCurve(E1, (0.0, math.nan, 1.0), (np.zeros(1),) * 2),
     r"breakpoints\[1\] must be finite, got nan"),
    (lambda: SampledCurve(E1, 3.0, (np.zeros(1),)),
     r"curve times must be a sequence of numbers, got float"),
], ids=["string", "none", "infinite", "repeated", "step-string", "step-nan",
        "not-a-sequence"])
def test_bad_times_name_the_first_bad_entry(build, match):
    """A non-numeric, non-finite or non-increasing time is refused with a
    ValidationError naming its index and value."""
    with pytest.raises(ValidationError, match=match):
        build()


def test_variation_of_up_down_step_is_two():
    """Jumping 0 -> 1 -> 0 accumulates variation 2."""
    c = scalar_step((0.0, 0.3, 0.7, 1.0), (0.0, 1.0, 0.0))
    assert variations(c, [None])[0] == 2.0


def test_variation_frozen_six_piece_example():
    """A fixed six-piece curve accumulates its jump sizes: 4.5."""
    c = scalar_step((0.0, 0.15, 0.35, 0.52, 0.7, 0.88, 1.0),
                    (0.0, 1.3, 0.4, 0.9, -0.2, 0.5))
    assert variations(c, [None])[0] == pytest.approx(4.5, abs=1e-12)


def test_variation_of_monotone_sampled_curve():
    """A monotone scalar curve's variation is its total rise."""
    times = tuple(np.linspace(0.0, 1.0, 33))
    c = SampledCurve(E1, times, tuple(np.array([t * t]) for t in times))
    assert variations(c, [None])[0] == pytest.approx(1.0, abs=1e-12)
    down_up = SampledCurve(
        E1, (0.0, 0.5, 1.0), (np.ones(1), np.zeros(1), np.ones(1)))
    assert variations(down_up, [None])[0] == 2.0


def test_step_variation_matches_brute_force_partition_supremum():
    """The jump-sum formula equals the supremum of chordal sums.

    All partitions built from eleven candidate interior nodes (one or two
    per piece) are enumerated; none exceeds the reported variation and
    the best attains it.
    """
    rng = trial_rng(0, "test/variation-brute", 0)
    breaks = tuple([0.0] + sorted(rng.uniform(0.1, 0.9, size=5).tolist())
                   + [1.0])
    vals = tuple(rng.normal(size=1) for _ in range(6))
    c = StepCurve(E1, breaks, vals)
    total = variations(c, [None])[0]

    candidates = []
    for lo, hi in zip(breaks, breaks[1:]):
        candidates.append(lo + 0.25 * (hi - lo))
        candidates.append(lo + 0.75 * (hi - lo))
    candidates = candidates[:11]

    best = 0.0
    for size in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            nodes = (0.0,) + subset + (1.0,)
            chordal = sum(
                float(np.abs(c.value_at(nodes[i + 1]) - c.value_at(nodes[i]))[0])
                for i in range(len(nodes) - 1))
            assert chordal <= total + 1e-12
            best = max(best, chordal)
    assert best == pytest.approx(total, abs=1e-12)


def test_variation_on_open_subintervals():
    """Only jumps strictly inside the open subinterval count."""
    c = scalar_step((0.0, 0.5, 1.0), (0.0, 3.0))
    assert variations(c, [(0.0, 0.5)])[0] == 0.0
    assert variations(c, [(0.5, 1.0)])[0] == 0.0
    assert variations(c, [(0.4, 0.6)])[0] == 3.0
    assert variations(c, [(0.0, 1.0)])[0] == 3.0
    # Windows may extend past the interval; only interior jumps count.
    assert variations(c, [(-0.5, 0.5)])[0] == 0.0
    assert variations(c, [(0.5, 0.5)])[0] == 0.0
    with pytest.raises(ValidationError, match="empty"):
        variations(c, [(0.6, 0.4)])


def test_variation_is_additive_at_non_jump_splits():
    """Splitting anywhere except a jump time splits the variation."""
    c = scalar_step((0.0, 0.15, 0.35, 0.52, 0.7, 0.88, 1.0),
                    (0.0, 1.3, 0.4, 0.9, -0.2, 0.5))
    for split in (0.2, 0.4, 0.6, 0.99):
        left = variations(c, [(0.0, split)])[0]
        right = variations(c, [(split, 1.0)])[0]
        assert left + right == pytest.approx(variations(c, [None])[0],
                                             abs=1e-12)
    # Splitting exactly at a jump drops that jump: strict superadditivity.
    left = variations(c, [(0.0, 0.52)])[0]
    right = variations(c, [(0.52, 1.0)])[0]
    assert variations(c, [None])[0] - (left + right) == pytest.approx(
        0.5, abs=1e-12)


def test_variation_measure_of_single_jump():
    """A lone jump of size 3 is a point mass of 3 at its jump time."""
    c = scalar_step((0.0, 0.5, 1.0), (0.0, 3.0))
    m = variation_measure(c)
    assert m.jump_times == (0.5,) and m.jump_masses == (3.0,)
    assert m.of_open_interval(0.0, 1.0) == 3.0
    assert m.of_open_interval(0.0, 0.4) == 0.0
    assert m.of_open_interval(0.4, 0.6) == 3.0


def test_variation_measure_of_constant_curve_is_zero():
    """No jumps, no mass."""
    c = scalar_step((0.0, 1.0), (2.0,))
    m = variation_measure(c)
    assert m.of_open_interval(0.0, 1.0) == 0.0
    assert m.jump_times == ()


def test_variation_measure_agrees_with_variation():
    """Open-interval masses reproduce subinterval variation exactly."""
    for trial in range(50):
        rng = trial_rng(0, "test/measure-vs-variation", trial)
        k = int(rng.integers(2, 7))
        breaks = tuple([0.0] + sorted(rng.uniform(0.05, 0.95, size=k - 1).tolist())
                       + [1.0])
        c = StepCurve(E2, breaks, tuple(rng.normal(size=2) for _ in range(k)))
        m = variation_measure(c)
        assert m.of_open_interval(0.0, 1.0) == pytest.approx(
            variations(c, [None])[0], abs=1e-14)
        for _ in range(10):
            s, t = np.sort(rng.uniform(0.0, 1.0, size=2))
            if s == t:
                continue
            assert m.of_open_interval(float(s), float(t)) == pytest.approx(
                variations(c, [(float(s), float(t))])[0], abs=1e-14)


# ---------------------------------------------------------------------------
# Time-warp distance between step curves
# ---------------------------------------------------------------------------


def test_skorokhod_distance_to_self_is_zero():
    """The identity warp is admissible, so self-distance is exactly 0."""
    c = scalar_step((0.0, 0.3, 0.7, 1.0), (0.0, 1.3, 0.4))
    b = skorokhod_distance(c, c)
    assert b.upper == 0.0
    assert b.lower == 0.0


def test_skorokhod_ignores_redundant_breakpoints():
    """Refining a breakpoint without changing values costs nothing."""
    c = scalar_step((0.0, 0.3, 0.7, 1.0), (0.0, 1.3, 0.4))
    g = scalar_step((0.0, 0.3, 0.5, 0.7, 1.0), (0.0, 1.3, 1.3, 0.4))
    b = skorokhod_distance(c, g)
    assert b.upper <= 1e-12
    assert b.lower <= b.upper


def test_skorokhod_shifted_jump_frozen_value():
    """Moving a jump from 0.5 to 0.6 costs the warp slope log(1.25)."""
    c = scalar_step((0.0, 0.5, 1.0), (0.0, 1.0))
    g = scalar_step((0.0, 0.6, 1.0), (0.0, 1.0))
    b = skorokhod_distance(c, g, warp_grid=16)
    assert b.upper == pytest.approx(math.log(1.25), abs=1e-3)
    assert b.lower <= b.upper + 1e-12


def test_skorokhod_bounds_sandwich_and_refine():
    """Lower <= upper, and the upper bound only improves with refinement."""
    for trial in range(5):
        rng = trial_rng(0, "test/skorokhod-sandwich", trial)
        k1, k2 = (int(rng.integers(2, 5)) for _ in range(2))
        def rand_step(k, r):
            breaks = tuple([0.0] + sorted(r.uniform(0.1, 0.9, size=k - 1).tolist())
                           + [1.0])
            return StepCurve(E1, breaks,
                             tuple(np.array([r.uniform(0.0, 2.0)])
                                   for _ in range(k)))
        c = rand_step(k1, rng)
        g = rand_step(k2, rng)
        coarse = skorokhod_distance(c, g, warp_grid=8)
        fine = skorokhod_distance(c, g, warp_grid=16)
        assert coarse.lower <= coarse.upper + 1e-12
        assert fine.upper <= coarse.upper + 1e-12
        assert fine.lower <= fine.upper + 1e-12


def _warp_cost(c: StepCurve, g: StepCurve, xs, ys) -> float:
    """The exact cost ``max(||lam||, sup_t d(c(t), g(lam(t))))`` of the
    piecewise-linear warp ``lam`` through the knots ``xs -> ys``.

    On each cell between ``c``'s breakpoints and the preimages of ``g``'s,
    both ``c`` and ``g(lam)`` are constant; with right-continuous curves
    the value at a cut is that of the cell to its right."""
    xs, ys = np.array(xs), np.array(ys)
    slopes = np.abs(np.log(np.diff(ys) / np.diff(xs)))
    cuts = np.union1d(c.breakpoints, np.interp(g.breakpoints, ys, xs))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    gaps = c.space.distances(c.value_at(mids),
                             g.value_at(np.interp(mids, xs, ys)))
    return float(max(slopes.max(), gaps.max()))


def test_skorokhod_upper_bounds_the_cost_of_its_warp():
    """On the skorokhod battery's 200 pairs (seed 7), ``upper`` bounds the
    exact cost of the returned warp.  It is not the optimum over warps with
    the merged knots: the program charges a segment every cell of the
    rectangle between its end knots, and pair 61's warp through the first
    inner breakpoints of both curves costs 0.025 less."""
    rngs = trial_rngs(7, "skorokhod/pairs", range(200))
    drawn = list(zip(*([StepCurve(E1, *d) for d in draw_step_pieces(
        rngs, [2 + (i + shift) % 3 for i in range(200)],
        lambda r, k: uniforms(r, 0.0, 2.0, (k, 1)))] for shift in (0, 1))))
    bounds = skorokhod_distances(drawn, warp_grid=8)
    for (c, g), b in zip(drawn, bounds):
        assert _warp_cost(c, g, b.input_knots, b.output_knots) \
            <= b.upper + 1e-12
    c, g = drawn[61]
    x, y = c.breakpoints[1], g.breakpoints[1]
    cheaper = _warp_cost(c, g, (0.0, x, 1.0), (0.0, y, 1.0))
    assert cheaper == pytest.approx(math.log((1.0 - y) / (1.0 - x)),
                                    abs=1e-12)
    assert cheaper < bounds[61].upper - 0.02


def test_skorokhod_upper_converges_for_three_piece_curves():
    """For curves of at most 3 pieces the bound has settled by grid 64."""
    for trial in range(3):
        rng = trial_rng(0, "test/skorokhod-converged", trial)
        def rand_step(r):
            k = int(r.integers(2, 4))
            breaks = tuple([0.0] + sorted(r.uniform(0.2, 0.8, size=k - 1).tolist())
                           + [1.0])
            return StepCurve(E1, breaks,
                             tuple(np.array([r.uniform(0.0, 2.0)])
                                   for _ in range(k)))
        c, g = rand_step(rng), rand_step(rng)
        at64 = skorokhod_distance(c, g, warp_grid=64).upper
        at128 = skorokhod_distance(c, g, warp_grid=128).upper
        assert at128 <= at64 + 1e-12
        assert at64 - at128 <= 1e-3


def test_skorokhod_requires_matching_domains():
    """Different intervals or ambient spaces cannot be compared."""
    c = scalar_step((0.0, 0.5, 1.0), (0.0, 1.0))
    other_interval = scalar_step((0.0, 0.5, 2.0), (0.0, 1.0))
    with pytest.raises(SpaceMismatchError, match="interval"):
        skorokhod_distance(c, other_interval)
    other_space = StepCurve(E2, (0.0, 0.5, 1.0), (np.zeros(2), np.ones(2)))
    with pytest.raises(SpaceMismatchError, match="space"):
        skorokhod_distance(c, other_space)
    with pytest.raises(ValidationError, match="warp_grid"):
        skorokhod_distance(c, c, warp_grid=0)


def test_skorokhod_distances_names_the_faulty_pair():
    """A batch entry that is not a pair of comparable step curves is
    refused with its index."""
    c = scalar_step((0.0, 0.5, 1.0), (0.0, 1.0))
    other_interval = scalar_step((0.0, 0.5, 2.0), (0.0, 1.0))
    with pytest.raises(ValidationError, match=r"\(c, g\) pairs.*pair 1"):
        skorokhod_distances([(c, c), (c,)])
    with pytest.raises(ValidationError, match=r"pairs, got int at pair 2"):
        skorokhod_distances([(c, c), (c, c), 3])
    with pytest.raises(ValidationError, match=r"StepCurve inputs \(pair 1\)"):
        skorokhod_distances([(c, c), (c, "g")])
    with pytest.raises(SpaceMismatchError, match=r"interval.*\(pair 0\)"):
        skorokhod_distances([(c, other_interval)])


def _loop_knots(c, g, warp_grid):
    """One pair's merged warp knots, thinned value by value: the reference
    for the batched knot table."""
    a, b = c.interval
    raw = np.unique(np.concatenate([
        np.array(c.breakpoints), np.array(g.breakpoints),
        np.linspace(a, b, warp_grid + 1)]))
    keep = [float(raw[0])]
    for x in raw[1:]:
        if float(x) - keep[-1] > 1e-12 * (b - a):
            keep.append(float(x))
    keep[0], keep[-1] = a, b
    return np.array(keep)


def _loop_skorokhod(c, g, warp_grid):
    """The pair-at-a-time dynamic program, cell by cell: the reference for
    the batched one."""
    knots = _loop_knots(c, g, warp_grid)
    n = len(knots)
    pieces = c.space.distances(c.value_at(knots[:-1])[:, None],
                               g.value_at(knots[:-1])[None, :])
    lower = max(float(pieces.min(axis=1).max()),
                float(pieces.min(axis=0).max()), 0.0)
    value = np.full((n, n), math.inf)
    value[0, 0] = 0.0
    pred = np.full((n, n), -1, dtype=np.int64)
    for i2 in range(1, n):
        log_in = np.log(knots[i2] - knots[:i2])
        for j2 in range(1, n):
            log_out = np.log(knots[j2] - knots[:j2])
            slope = np.abs(log_out[None, :] - log_in[:, None])
            block = pieces[:i2, :j2]
            rect = np.maximum.accumulate(np.maximum.accumulate(
                block[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
            cand = np.maximum(value[:i2, :j2], np.maximum(slope, rect))
            flat = int(np.argmin(cand))
            value[i2, j2] = cand.flat[flat]
            pred[i2, j2] = flat
    path = [(n - 1, n - 1)]
    while path[-1] != (0, 0):
        i, j = path[-1]
        path.append(divmod(int(pred[i, j]), j))
    path.reverse()
    return (float(value[n - 1, n - 1]), lower,
            tuple(float(knots[i]) for i, _ in path),
            tuple(float(knots[j]) for _, j in path))


def test_batched_skorokhod_program_equals_the_pair_loop_bit_for_bit():
    """One call over 60 pairs of many knot counts gives every pair the
    bounds and warp of the pair-at-a-time loop, in input order.

    Every other pair carries redundant breakpoints on the 1/16 grid, so
    at ``warp_grid=8`` it runs the knot set of a grid-16 program: the call
    mixes the knot counts of both grids.  Tie-heavy pairs (a curve against
    itself, and against a refined copy) are among them.
    """
    c_self = scalar_step((0.0, 0.3, 0.7, 1.0), (0.0, 1.3, 0.4))
    g_redundant = scalar_step((0.0, 0.3, 0.5, 0.7, 1.0), (0.0, 1.3, 1.3, 0.4))
    sixteenths = np.linspace(0.0, 1.0, 17)[1:-1]

    def rand_step(r, refine):
        k = int(r.integers(2, 5))
        breaks = np.concatenate([[0.0], np.sort(r.uniform(0.1, 0.9, k - 1)),
                                 [1.0]])
        vals = r.uniform(0.0, 2.0, k)
        if refine:
            fine = np.union1d(breaks, sixteenths)
            piece = np.searchsorted(breaks, fine[:-1], side="right") - 1
            breaks, vals = fine, vals[piece]
        return scalar_step(breaks, vals)

    pairs = [(c_self, c_self), (c_self, g_redundant), (g_redundant, c_self)]
    for trial in range(57):
        rng = trial_rng(0, "test/skorokhod-batch", trial)
        pairs.append((rand_step(rng, trial % 2 == 0),
                      rand_step(rng, trial % 4 == 1)))
    counts = {len(_loop_knots(c, g, 8)) for c, g in pairs}
    assert min(counts) <= 14 and max(counts) >= 20 and len(counts) >= 6

    batched = skorokhod_distances(pairs, warp_grid=8)
    assert len(batched) == len(pairs)
    for b, (c, g) in zip(batched, pairs):
        assert (b.upper, b.lower, b.input_knots, b.output_knots) \
            == _loop_skorokhod(c, g, 8)
    assert batched[0].upper == 0.0 and batched[1].upper == 0.0

    c, g = pairs[5]
    assert skorokhod_distances([(c, g)], warp_grid=16) \
        == [skorokhod_distance(c, g, warp_grid=16)]
    assert skorokhod_distances([], warp_grid=8) == []


def test_tied_candidates_walk_back_to_the_pair_loops_warp():
    """Pairs whose cells tie many candidates (a curve against itself or a
    refined copy, constant curves split at redundant breakpoints) get, in
    one batch, the bounds and the warp of the pair-at-a-time loop, whose
    argmin takes the first minimum in row-major order."""
    c = scalar_step((0.0, 0.3, 0.7, 1.0), (0.0, 1.3, 0.4))
    refined = scalar_step((0.0, 0.125, 0.3, 0.5, 0.7, 0.875, 1.0),
                          (0.0, 0.0, 1.3, 1.3, 0.4, 0.4))
    flat = scalar_step((0.0, 1.0), (0.7,))
    flat_split = scalar_step((0.0, 0.25, 0.5, 0.75, 1.0), (0.7,) * 4)
    other_flat = scalar_step((0.0, 0.6, 1.0), (1.1, 1.1))
    pairs = [(c, c), (c, refined), (refined, c), (refined, refined),
             (flat, flat), (flat, flat_split), (flat_split, flat),
             (flat_split, other_flat), (other_flat, other_flat),
             (c, flat), (flat_split, refined)]
    for warp_grid in (4, 8, 16):
        batched = skorokhod_distances(pairs, warp_grid=warp_grid)
        for b, (x, y) in zip(batched, pairs):
            assert (b.upper, b.lower, b.input_knots, b.output_knots) \
                == _loop_skorokhod(x, y, warp_grid)
        assert [b.upper for b in batched[:7]] == [0.0] * 7


def test_a_pair_reads_the_same_alone_as_beside_pairs_with_more_knots():
    """A pair padded to the knot count of a larger batch gets the bounds
    and warp it gets alone, bit for bit, and keeps its own knot count."""
    small = scalar_step((0.0, 0.4, 1.0), (0.0, 1.0))
    other = scalar_step((0.0, 0.55, 1.0), (0.0, 1.0))
    busy = [(scalar_step(np.r_[0.0, np.sort(r.uniform(0.05, 0.95, 5)), 1.0],
                         r.uniform(0.0, 2.0, 6)),
             scalar_step(np.r_[0.0, np.sort(r.uniform(0.05, 0.95, 6)), 1.0],
                         r.uniform(0.0, 2.0, 7)))
            for r in trial_rngs(0, "test/skorokhod-padding", range(4))]
    alone = skorokhod_distance(small, other, warp_grid=4)
    assert len(_loop_knots(small, other, 4)) \
        < min(len(_loop_knots(c, g, 4)) for c, g in busy)
    for at in (0, 2, 4):
        batch = busy[:at] + [(small, other)] + busy[at:]
        assert skorokhod_distances(batch, warp_grid=4)[at] == alone
    assert alone.upper > 0.0 and set(alone.input_knots) <= set(
        _loop_knots(small, other, 4).tolist())


def test_knot_table_thins_each_row_as_the_sequential_rule_does():
    """Values closer than ``tol = 1e-12 (b - a)`` to the last kept knot are
    dropped in order: of a chain 0.6e-12 apart every second value stays,
    which a rule reading each gap alone would get wrong.  Rows without
    such a gap, on other intervals, are thinned alike."""
    tol = 1e-12
    chain = scalar_step((0.0, 0.3, 0.3 + 1.2 * tol, 1.0), (0.0, 1.0, 2.0))
    middle = scalar_step((0.0, 0.3 + 0.6 * tol, 0.7, 1.0), (1.0, 0.0, 2.0))
    near_end = scalar_step((0.0, 0.5, 1.0 - 0.5 * tol, 1.0), (0.0, 1.0, 3.0))
    shifted = StepCurve(E1, (-1.0, 0.2, 2.5),
                        (np.array([0.0]), np.array([1.0])))
    pairs = [(chain, middle), (near_end, chain), (shifted, shifted),
             (chain, chain)]
    knots, counts = curves._merged_knots(pairs, 8)
    for (c, g), row, m in zip(pairs, knots, counts):
        expected = _loop_knots(c, g, 8)
        assert row[:m].tolist() == expected.tolist()
        assert row[m:].tolist() == [expected[-1] + k
                                    for k in range(1, len(row) - m + 1)]
    assert 0.3 + 0.6 * tol not in knots[0] and 0.3 + 1.2 * tol in knots[0]
    assert 1.0 - 0.5 * tol not in knots[1]
    for (c, g), b in zip(pairs, skorokhod_distances(pairs, warp_grid=8)):
        assert (b.upper, b.lower, b.input_knots, b.output_knots) \
            == _loop_skorokhod(c, g, 8)


# ---------------------------------------------------------------------------
# Property-based checks
# ---------------------------------------------------------------------------


@st.composite
def short_step_curves(draw):
    """A scalar step curve with two to four pieces on [0, 1]."""
    k = draw(st.integers(min_value=2, max_value=4))
    interior = draw(st.lists(
        st.floats(min_value=0.05, max_value=0.95),
        min_size=k - 1, max_size=k - 1, unique=True))
    breaks = (0.0,) + tuple(sorted(interior)) + (1.0,)
    vals = tuple(
        np.array([draw(st.floats(min_value=-5.0, max_value=5.0))])
        for _ in range(k))
    return StepCurve(E1, breaks, vals)


@settings(max_examples=40, deadline=None)
@given(c=short_step_curves())
def test_variation_equals_jump_sum(c):
    """Variation telescopes to the sum of consecutive jump sizes."""
    jumps = sum(float(np.abs(b - a)[0])
                for a, b in zip(c.values, c.values[1:]))
    assert variations(c, [None])[0] == pytest.approx(jumps, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(c=short_step_curves(), g=short_step_curves())
def test_skorokhod_symmetry_of_zero(c, g):
    """Zero warp distance is symmetric: both orders agree on zero."""
    forward = skorokhod_distance(c, g, warp_grid=8)
    if forward.upper == 0.0:
        backward = skorokhod_distance(g, c, warp_grid=8)
        assert backward.upper <= 1e-12
