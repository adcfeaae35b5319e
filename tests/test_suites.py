"""Tests for experiment-suite plumbing: decay rates, shared samplers,
the smooth-path generator used by the convergence batteries, the battery
table that run_all and the CLI are built from, and mutations of a
primitive that a battery must catch.
"""

from __future__ import annotations

import inspect
import json
import math
import re

import numpy as np
import pytest

from nlsp import (
    DEFAULT_TOLERANCES,
    CurveOfMappings,
    Euclidean,
    LpSpace,
    MappingOfCurves,
    MetricTree,
    SampledCurve,
    Spd,
    Sphere,
    ValidationError,
    VariationMeasure,
    batch_speeds,
    decay_order,
    default_tree,
    derivative_identity_residuals,
    energy,
    sample_smooth_paths,
    trial_rng,
)
from nlsp import curves, geometry, mappings, suites, transport
from nlsp.rng import trial_rngs, uniforms
from nlsp.suites import (
    BATTERIES,
    order_jsonable,
    run_all,
)


def test_decay_order_of_halving_sequence_is_one():
    assert decay_order([1e-1, 5e-2, 2.5e-2]) == pytest.approx(1.0, abs=1e-12)


def test_decay_order_reports_worst_segment():
    """A stalled refinement drags the reported order down to its rate."""
    order = decay_order([8e-2, 4e-2, 3e-2])
    assert order == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)


def test_decay_order_at_roundoff_floor_is_infinite():
    """Residuals already at roundoff have nothing left to decay."""
    assert decay_order([5e-13, 8e-13]) == math.inf
    assert decay_order([1e-3, 0.0]) == math.inf


def test_decay_order_needs_two_maxima():
    with pytest.raises(ValidationError, match="at least two"):
        decay_order([1e-3])


def test_order_jsonable_forms():
    assert order_jsonable(math.inf) == "inf"
    assert order_jsonable(-math.inf) == "-inf"
    assert order_jsonable(1.5) == 1.5


def test_random_base_space_zero_atom_option():
    """A family drawn with a zero atom has exactly one; each stream reads
    its weights and that atom's index as it does alone."""
    rngs, alone = (trial_rngs(0, "suite/base-space", range(4)) for _ in "ab")
    families = suites.random_families(Sphere(3), rngs, 5,
                                      [True, False, True, False])
    for k, (family, rng) in enumerate(zip(families, alone)):
        w = family.base_space.weights_array
        assert np.sum(w == 0.0) == (1 if k % 2 == 0 else 0)
        assert np.all(w[w > 0.0] >= 0.25)
        want = rng.uniform(0.25, 1.0, 5)
        if k % 2 == 0:
            want[int(rng.integers(5))] = 0.0
        assert w.tobytes() == want.tobytes()
        assert family.base_values.tobytes() \
            == Sphere(3).random_points(rng, 5).tobytes()


def _one_stream_step_curve(rng, pieces: int, draw_values):
    """A step curve's breakpoints and values read from one stream alone:
    interior breakpoints redrawn until every piece is 0.02 long, then the
    values; and how many draws the breakpoints took."""
    draws = 0
    while True:
        draws += 1
        interior = np.sort(rng.uniform(0.08, 0.92, pieces - 1))
        if np.min(np.diff(np.concatenate([[0.0], interior, [1.0]]))) >= 0.02:
            break
    return (0.0, *interior.tolist(), 1.0), draw_values(rng, pieces), draws


@pytest.mark.parametrize("seed", [1, 7])
def test_step_curves_drawn_in_rounds_equal_a_one_stream_loop(seed):
    """Every stream of a round-by-round draw reads what it reads alone:
    the same breakpoints after the same redraws, the same values, and the
    same stream position after; pieces from 1 to 6 mixed in one batch."""
    pieces = [1 + i % 6 for i in range(60)]
    batch, alone = (trial_rngs(seed, "test/step-rounds", range(60))
                    for _ in range(2))
    drawn = suites.draw_step_pieces(batch, pieces, lambda rngs, k: uniforms(
        rngs, 0.0, 2.0, (k, 1)))
    redraws = 0
    for rng, k, (breaks, values), one in zip(alone, pieces, drawn, batch):
        want_breaks, want_values, draws = _one_stream_step_curve(
            rng, k, lambda r, n: r.uniform(0.0, 2.0, (n, 1)))
        redraws += draws - 1
        assert np.array(breaks).tobytes() == np.array(want_breaks).tobytes()
        assert values.tobytes() == want_values.tobytes()
        assert one.random() == rng.random()
    assert redraws > 0


@pytest.mark.parametrize("target", [Sphere(3), Spd(2)], ids=["sphere", "spd"])
def test_smooth_path_warp_is_monotone_inside_unit_interval(target):
    """Each atom's time warp stays strictly inside (0, 1) and strictly
    increases, so swept curves never fold back."""
    rng = trial_rng(0, "suite/smooth-path", 0)
    paths = sample_smooth_paths(target, [rng], p=2.0)
    ts = np.linspace(0.0, 1.0, 257)
    warped = paths.warp(ts)
    assert warped.shape == (len(ts), 1, 4)
    assert np.all(warped > 0.0) and np.all(warped < 1.0)
    assert np.all(np.diff(warped, axis=0) > 0.0)


def test_smooth_path_materializes_on_any_grid():
    rng = trial_rng(0, "suite/smooth-path-grid", 0)
    paths = sample_smooth_paths(Sphere(3), [rng], p=2.0)
    for n, (times, values) in zip((17, 33), paths.sweep((17, 33))):
        assert len(times) == n
        assert times[0] == 0.0 and times[-1] == 1.0
        assert values.shape == (n, 1, 4, 3)


@pytest.mark.parametrize("grids", [(65, 129, 257), (33, 50)],
                         ids=["nested", "non-nested"])
@pytest.mark.parametrize("target", [Euclidean(2), Sphere(3), Spd(2)],
                         ids=["euclidean", "sphere", "spd"])
def test_union_sweep_gives_each_grid_the_bits_of_its_own_sweep(target,
                                                               grids):
    """One sweep over the union of the grids' nodes gives every grid the
    times and values of a sweep of that grid alone, bit for bit; the
    coarser grids of a nested family are views of the finest."""
    paths = sample_smooth_paths(
        target, trial_rngs(7, f"speed/{target.kind}", range(6)))
    swept = paths.sweep(grids)
    assert len(swept) == len(grids)
    for n, (times, values) in zip(grids, swept):
        alone = np.linspace(0.0, 1.0, n)
        fractions = paths.warp(alone)
        expected = target.as_points(
            target.geodesic_points(*paths.anchors, fractions),
            fractions.shape)
        assert times.tobytes() == alone.tobytes()
        assert values.shape == expected.shape
        assert values.tobytes() == expected.tobytes()
    if grids == (65, 129, 257):
        assert all(np.shares_memory(values, swept[-1][1])
                   for _, values in swept)


def test_default_tree_is_reusable():
    tree = default_tree()
    a = (2, 1.5)  # node c, at the end of edge a-c
    b = (4, 1.2)  # node e, at the end of edge b-e
    assert tree.distance(a, b) == pytest.approx(1.5 + 1.0 + 2.0 + 1.2,
                                                abs=1e-12)


# ---------------------------------------------------------------------------
# The battery table
# ---------------------------------------------------------------------------


def test_battery_table_runs_in_canonical_order():
    assert [b.name for b in BATTERIES] == [
        "fubini", "transport", "counterexample", "geodesic", "curvature",
        "length", "speed", "skorokhod"]


def test_every_default_tolerance_is_read_by_a_battery():
    read = [name for b in BATTERIES for name in b.tolerances]
    assert set(read) == set(DEFAULT_TOLERANCES)
    assert [b.name for b in BATTERIES if "order_min" in b.tolerances] \
        == ["transport", "speed"]


def test_every_table_of_run_all_is_declared_on_its_battery_row():
    """Each battery's CSV tables are the ones its row declares, which the
    CLI removes from a reused output directory when a run does not write
    them."""
    results = run_all(seed=7)
    assert [r.name for r in results] == [b.name for b in BATTERIES]
    for battery, result in zip(BATTERIES, results):
        assert sorted(result.csv) == sorted(battery.tables), battery.name


def test_every_csv_cell_is_a_python_float_int_or_str():
    """The CLI hands each row to ``csv.writer`` as it is, which writes
    ``str(cell)``: for these types the shortest round-trip form, while a
    numpy scalar's ``str`` need not be (``np.float32(0.1)`` writes ``0.1``
    for the value ``0.10000000149011612``)."""
    for result in run_all(seed=7):
        for name, rows in result.csv.items():
            kinds = {type(cell) for row in rows for cell in row}
            assert kinds <= {float, int, str}, (name, kinds)


#: An empty tuple where a battery needs at least one entry.
EMPTY_INPUTS = [
    (suites.run_speed, {"grids": ()}),
    (suites.run_geodesic, {"targets": ()}),
    (suites.run_geodesic, {"p_values": ()}),
    (suites.run_fubini, {"p_values": ()}),
    (suites.run_length, {"p_values": ()}),
    (suites.run_curvature, {"targets": ()}),
]


@pytest.mark.parametrize(
    "run,kwargs", EMPTY_INPUTS,
    ids=["speed-grids", "geodesic-targets", "geodesic-p", "fubini-p",
         "length-p", "curvature-targets"])
def test_an_empty_input_tuple_is_refused_where_it_enters(run, kwargs):
    (name,) = kwargs
    with pytest.raises(ValidationError, match=f"^{name} must not be empty"):
        run(seed=7, **kwargs)


@pytest.mark.parametrize("grids", [(1, 2), (2, 3), (65,), (129, 65),
                                   (65, 65), (65, 129.0)],
                         ids=["1-2", "2-3", "65", "129-65", "65-65",
                              "float-count"])
@pytest.mark.parametrize("run", [suites.run_speed, suites.run_transport],
                         ids=["speed", "transport"])
def test_convergence_grids_need_two_increasing_counts_of_three(run, grids):
    """Every grid of a convergence battery needs an interior node, and
    successive grids must refine; anything else is refused before a
    run."""
    with pytest.raises(ValidationError, match="node count"):
        run(seed=7, curves=1, grids=grids)


@pytest.mark.parametrize("battery", BATTERIES, ids=lambda b: b.name)
def test_battery_arguments_match_the_run_signature(battery):
    """Each config field sets a real keyword argument."""
    params = inspect.signature(battery.run).parameters
    for name, (arg, convert) in battery.fields.items():
        assert arg in params and callable(convert), name


#: The runner settings that no config field sets: the Tier-1 tests shrink
#: the two curve counts, on which the worst-trial notes of FORCED and
#: MUTATIONS depend, and ``--n`` sets the counterexample sizes.
UNFIELDED_SETTINGS = {"transport": {"bv_curves"},
                      "length": {"reparam_curves"},
                      "counterexample": {"sizes"}}


@pytest.mark.parametrize("battery", BATTERIES, ids=lambda b: b.name)
def test_every_battery_setting_is_a_config_field(battery):
    """A runner takes the seed, its tolerances and the keyword arguments
    its config fields set, besides the listed exceptions: a value that no
    caller sets is a named constant of the module, not a parameter."""
    params = set(inspect.signature(battery.run).parameters)
    fielded = {arg for arg, _ in battery.fields.values()}
    assert params - {"seed", "tolerances"} - fielded \
        == UNFIELDED_SETTINGS.get(battery.name, set())


@pytest.mark.parametrize("battery", BATTERIES, ids=lambda b: b.name)
def test_each_battery_reads_exactly_the_tolerances_it_lists(monkeypatch,
                                                            battery):
    """A small run reads, by name, every tolerance of its row and no
    other, and its runner takes no other tolerance argument."""
    read = set()

    class Recording(dict):
        def __getitem__(self, name):
            read.add(name)
            return super().__getitem__(name)

    real = suites._tolerances
    monkeypatch.setattr(suites, "_tolerances",
                        lambda overrides: Recording(real(overrides)))
    battery(7, None, **FORCED[battery.name][0])
    assert read == set(battery.tolerances)
    params = inspect.signature(battery.run).parameters
    assert params["tolerances"].default is None
    assert not [name for name in params if name.endswith("_tol")]


def test_tolerance_overrides_go_by_known_names():
    """Overrides merge over the defaults by name; a misspelt name is
    refused rather than ignored."""
    assert suites._tolerances(None) == DEFAULT_TOLERANCES
    merged = suites._tolerances({"speed_residual": 1e-3})
    assert merged == {**DEFAULT_TOLERANCES, "speed_residual": 1e-3}
    with pytest.raises(ValidationError, match="speed_residul"):
        suites.run_speed(tolerances={"speed_residul": 1e-3})


def test_battery_call_resolves_the_module_attribute(monkeypatch):
    """The table reaches each runner through the module attribute, so a
    rebinding of ``suites.run_*`` is seen by run_all and the CLI."""
    seen = []
    monkeypatch.setattr(suites, "run_skorokhod",
                        lambda **kwargs: seen.append(kwargs))
    skorokhod = BATTERIES[-1]
    tolerances = {"skorokhod_example": 0.5, "fubini_rel": 1.0}
    skorokhod(3, tolerances, pairs=2)
    assert seen == [{"seed": 3, "pairs": 2, "tolerances": tolerances}]


#: Per battery: small-scale keyword arguments, and every failure that its
#: forcing tolerances cause, by name, with the worst-trial note that ends
#: it (None: its line has no note).
FORCED = {
    "fubini": ({"trials": 2}, {
        "iterated_norm_time_major": "(worst: fubini trial 0)",
        "iterated_norm_atom_major": "(worst: fubini trial 0)"}),
    "transport": ({"curves": 2, "grids": (65, 129), "bv_curves": 4}, {
        "derivative_identity_residual[sphere]":
            "(worst: transport/sphere trial 0)",
        "derivative_identity_residual[spd]": "(worst: transport/spd trial 1)",
        "variation_identity_residual": "(worst: transport/bv trial 2)"}),
    "counterexample": ({"sizes": (4,)}, {
        "counterexample_variation[n=4]": None}),
    "geodesic": ({"trials": 1, "n_nodes": 5}, {
        f"{kind}/p={p}.{check}": f"(worst: geodesic/{kind}/p={p} trial 0)"
        for kind in ("sphere", "spd", "metric_tree") for p in (1.5, 2.0, 3.0)
        for check in ("geodesic_constant_speed", "geodesic_atom_speed",
                      "geodesic_length")}),
    "curvature": ({"trials": 5}, {
        "spd.comparison_sign_npc": "(worst: curvature/spd trial 0)",
        "spd.embedded_comparison_sign_npc": "(worst: curvature/spd trial 4)",
        "sphere.comparison_sign_nnc": "(worst: curvature/sphere trial 0)",
        "sphere.embedded_comparison_sign_nnc":
            "(worst: curvature/sphere trial 0)",
        "euclidean.comparison_sign_flat":
            "(worst: curvature/euclidean trial 3)",
        "euclidean.embedded_comparison_sign_flat":
            "(worst: curvature/euclidean trial 0)"}),
    "length": ({"trials": 1, "reparam_curves": 3, "n_nodes": 5}, {
        f"{kind}/p={p}.geodesic_energy_equality":
            f"(worst: length/{kind}/p={p} trial 0)"
        for kind in ("euclidean", "sphere", "spd", "metric_tree")
        for p in (1.5, 2.0, 3.0)}),
    "speed": ({"curves": 2, "grids": (65, 129)}, {
        "speed_identity_residual[euclidean]":
            "(worst: speed/euclidean trial 1)",
        "speed_identity_order[euclidean]": None,
        "bundle_consistency[euclidean]": "(worst: speed/euclidean trial 1)",
        "speed_identity_residual[sphere]": "(worst: speed/sphere trial 0)",
        "speed_identity_order[sphere]": None,
        "bundle_consistency[sphere]": "(worst: speed/sphere trial 0)",
        "speed_identity_residual[spd]": "(worst: speed/spd trial 1)",
        "speed_identity_order[spd]": None,
        "bundle_consistency[spd]": "(worst: speed/spd trial 0)"}),
    "skorokhod": ({"pairs": 3}, {
        "skorokhod_zero_examples": None, "skorokhod_shifted_jump": None}),
}


@pytest.mark.parametrize("battery", BATTERIES, ids=lambda b: b.name)
def test_forcing_tolerances_fail_exactly_the_named_checks(battery):
    """Every tolerance a battery reads, set so that it must fail (an
    infinite minimum decay order, a negative bound otherwise), fails
    exactly the pinned checks, each with its pinned worst-trial note.
    Transport's derivative identity sits at the roundoff floor, where the
    decay order is infinite and meets even an infinite minimum."""
    kwargs, expected = FORCED[battery.name]
    tolerances = {name: math.inf if name == "order_min" else -1.0
                  for name in battery.tolerances}
    result = battery(7, tolerances, **kwargs)
    failed = {f.split(":")[0]: f for f in result.failures}
    assert not result.passed
    assert len(failed) == len(result.failures)
    assert set(failed) == set(expected)
    for name, note in expected.items():
        if note is None:
            assert "(worst:" not in failed[name], failed[name]
        else:
            assert failed[name].endswith(note), failed[name]


def test_speed_gate_fails_when_the_sphere_log_map_is_one_percent_long(
        monkeypatch):
    """Velocities 1 % too long move the bundle norm away from the metric
    derivative and from the per-atom speeds, and the speed battery says
    so; the same run without the change passes."""
    real = Sphere.log_maps
    monkeypatch.setattr(Sphere, "log_maps",
                        lambda self, ys, zs: 1.01 * real(self, ys, zs))
    result = suites.run_speed(seed=7, curves=2, grids=(65, 129))
    assert not result.passed
    names = {f.split(":")[0] for f in result.failures}
    assert {"speed_identity_residual[sphere]",
            "bundle_consistency[sphere]"} <= names
    monkeypatch.undo()
    assert suites.run_speed(seed=7, curves=2, grids=(65, 129)).passed


def test_fubini_roundtrip_gate_fails_on_a_one_ulp_change(monkeypatch):
    """A transpose that moves one value by one ulp is caught: the round
    trip is checked bit for bit, not within a tolerance."""
    real = suites.transpose

    def nudged(cm):
        mc = real(cm)
        values = mc.atom_values.copy()
        values[0, 0, 0] = np.nextafter(values[0, 0, 0], np.inf)
        return MappingOfCurves(mc.family, mc.grid, values)

    monkeypatch.setattr(suites, "transpose", nudged)
    result = suites.run_fubini(seed=7, trials=2)
    assert result.metrics["transpose_roundtrip_exact"] is False
    assert not result.passed
    assert any(f.startswith("transpose_roundtrip:") for f in result.failures)
    monkeypatch.undo()
    assert suites.run_fubini(seed=7, trials=2).metrics[
        "transpose_roundtrip_exact"] is True


def _spd_fractions_to_the_1_01(monkeypatch):
    real = Spd.geodesic_points
    monkeypatch.setattr(
        Spd, "geodesic_points",
        lambda self, ys, zs, t: real(self, ys, zs, np.asarray(t, float) ** 1.01))


def _tree_fractions_to_the_1_01(monkeypatch):
    real = MetricTree.geodesic_points
    monkeypatch.setattr(
        MetricTree, "geodesic_points",
        lambda self, ys, zs, t: real(self, ys, zs, np.asarray(t, float) ** 1.01))


def _warp_knots_on_the_uniform_grid_only(monkeypatch):
    def uniform(pairs, warp_grid):
        knots = [np.linspace(*c.interval, warp_grid + 1) for c, _ in pairs]
        return np.array(knots), np.full(len(pairs), warp_grid + 1)

    monkeypatch.setattr(curves, "_merged_knots", uniform)


def _reverse_atoms_of_sec_atom(monkeypatch):
    real = suites.sec_atom

    def reversed_atoms(pm):
        mc = real(pm)
        return MappingOfCurves(mc.family, mc.grid, mc.atom_values[::-1])

    monkeypatch.setattr(suites, "sec_atom", reversed_atoms)


def _reverse_nodes_of_sec_time(monkeypatch):
    real = suites.sec_time

    def reversed_nodes(pm):
        cm = real(pm)
        return CurveOfMappings(cm.grid, cm.family, cm.values[::-1])

    monkeypatch.setattr(suites, "sec_time", reversed_nodes)


def _lp_distances_one_ppm_long(monkeypatch):
    real = mappings._weighted_norm

    def scaled(dists, weights, p):
        return (1.0 + 1e-6) * real(dists, weights, p)

    # LpSpace.norms and the speed table each read the norm by name.
    for module in (mappings, transport):
        monkeypatch.setattr(module, "_weighted_norm", scaled)


def _sphere_log_maps_nan(monkeypatch):
    real = Sphere.log_maps
    monkeypatch.setattr(Sphere, "log_maps",
                        lambda self, ys, zs: real(self, ys, zs) * math.nan)


def _retiming_keeps_the_times(monkeypatch):
    monkeypatch.setattr(geometry, "retimed_times",
                        lambda times, seg, eps: np.asarray(times, float))


def _euclidean_distances_nan(monkeypatch):
    real = Euclidean.distances
    monkeypatch.setattr(Euclidean, "distances",
                        lambda self, ys, zs: real(self, ys, zs) * math.nan)


#: (mutation, battery run, {check that must fail: stream key its failure
#: names as the worst trial, or None for a check on fixed examples}).
MUTATIONS = [
    pytest.param(
        _spd_fractions_to_the_1_01,
        lambda: suites.run_curvature(seed=7, trials=50),
        {"spd.comparison_sign_npc": "curvature/spd",
         "spd.embedded_comparison_sign_npc": "curvature/spd"},
        id="curvature-spd-fraction-power"),
    pytest.param(
        _tree_fractions_to_the_1_01,
        lambda: suites.run_geodesic(seed=7, targets=(default_tree(),)),
        {f"metric_tree/p={p}.{check}": f"geodesic/metric_tree/p={p}"
         for p in (1.5, 2.0, 3.0)
         for check in ("geodesic_constant_speed", "geodesic_atom_speed")},
        id="tree-fraction-power"),
    pytest.param(
        _tree_fractions_to_the_1_01,
        lambda: suites.run_length(seed=7, trials=4, reparam_curves=3),
        {f"metric_tree/p={p}.{check}": f"length/metric_tree/p={p}"
         for p in (1.5, 2.0, 3.0)
         for check in ("energy_length_upper", "geodesic_energy_equality")},
        id="length-tree-fraction-power"),
    pytest.param(
        _retiming_keeps_the_times,
        lambda: suites.run_length(seed=7, trials=4, reparam_curves=3),
        {"reparam_energy_budget": "length/reparam"},
        id="reparam-keep-times"),
    pytest.param(
        _warp_knots_on_the_uniform_grid_only,
        lambda: suites.run_skorokhod(seed=7, pairs=10),
        {"skorokhod_shifted_jump": None,
         "skorokhod_monotone": "skorokhod/pairs"},
        id="skorokhod-uniform-warp-knots"),
    pytest.param(
        _reverse_atoms_of_sec_atom,
        lambda: suites.run_fubini(seed=7, trials=4),
        {"iterated_norm_atom_major": "fubini"},
        id="fubini-atom-order"),
    pytest.param(
        _reverse_nodes_of_sec_time,
        lambda: suites.run_fubini(seed=7, trials=4),
        {"iterated_norm_time_major": "fubini", "transpose_roundtrip": "fubini"},
        id="fubini-time-order"),
    pytest.param(
        _lp_distances_one_ppm_long,
        lambda: suites.run_transport(seed=7, curves=4, bv_curves=10),
        {"derivative_identity_order[sphere]": None,
         "derivative_identity_order[spd]": None,
         "variation_identity_residual": "transport/bv"},
        id="transport-lp-distance-scale"),
    # NaN readings: a comparison with NaN is False and Python's max drops
    # NaN, so each gate must let NaN through and fail on it.
    pytest.param(
        _sphere_log_maps_nan,
        lambda: suites.run_speed(seed=7, curves=2, grids=(65, 129)),
        {"speed_identity_residual[sphere]": "speed/sphere",
         "speed_identity_order[sphere]": None,
         "bundle_consistency[sphere]": "speed/sphere"},
        id="speed-sphere-log-map-nan"),
    pytest.param(
        _euclidean_distances_nan,
        lambda: suites.run_geodesic(seed=7, targets=(Euclidean(2),)),
        {f"euclidean/p={p}.{check}": f"geodesic/euclidean/p={p}"
         for p in (1.5, 2.0, 3.0)
         for check in ("geodesic_constant_speed", "geodesic_atom_speed",
                       "geodesic_length")},
        id="geodesic-euclidean-distance-nan"),
]


@pytest.mark.parametrize("mutate, battery, must_fail", MUTATIONS)
def test_battery_fails_on_a_mutated_primitive(monkeypatch, mutate, battery,
                                              must_fail):
    """The unmutated battery passes; with the mutation it fails the named
    checks, and each failure ends with the stream key of its worst trial."""
    assert battery().passed
    mutate(monkeypatch)
    result = battery()
    assert not result.passed
    failed = {f.split(":")[0]: f for f in result.failures}
    assert set(must_fail) <= set(failed)
    for name, stream in must_fail.items():
        if stream is not None:
            assert re.search(rf"\(worst: {re.escape(stream)} trial \d+\)$",
                             failed[name]), failed[name]


def _one_curve_reparam_excess(seed: int, n_curves: int, p_values,
                              eps: float) -> list[float]:
    """The reparam battery's per-curve scores by the one-curve route: each
    polyline a :class:`SampledCurve` of its own, validated alone, retimed
    by the scalar formula and scored by ``energy``."""
    out = [None] * n_curves
    kinds = ((Euclidean(2), False), (Sphere(3), False), (Sphere(3), True))
    for k, (target, mapped) in enumerate(kinds):
        indices = range(k, n_curves, len(kinds))
        rngs = trial_rngs(seed, "length/reparam", indices)
        if mapped:
            spaces = [LpSpace(family, suites.POLYLINE_P) for family in
                      suites.random_families(target, rngs,
                                             suites.POLYLINE_ATOMS)]
            ways = np.stack([suites._polyline_waypoints(target, rngs)
                             for _ in range(suites.POLYLINE_ATOMS)], axis=2)
        else:
            spaces = [target] * len(indices)
            ways = suites._polyline_waypoints(target, rngs)
        nodes = suites._polyline_nodes(target, ways)
        times = suites._nonuniform_times(rngs, suites.POLYLINE_NODES)
        for i, space, t, values in zip(indices, spaces, times.tolist(), nodes):
            c = SampledCurve(space, tuple(t), values)
            seg = c.segment_lengths()
            total = float(curves.table_lengths(seg))
            a, b = c.times[0], c.times[-1]
            cum = np.concatenate([[0.0], np.cumsum(seg)])
            tau = a + ((cum + (c.times_array - a) * (eps / (b - a)))
                       * ((b - a) / (float(cum[-1]) + eps)))
            tau[0], tau[-1] = a, b
            re = SampledCurve(space, tuple(tau.tolist()), c.values)
            out[i] = max((b - a) ** (p - 1.0) * energy(re, p) / total ** p
                         - (1.0 + eps) ** p for p in p_values)
    return out


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_reparam_scores_match_the_one_curve_route(seed):
    """Every curve's budget score, read off the stacked polylines of its
    kind, is the one its own curve object gives, bit for bit."""
    result = suites.run_length(seed=seed, trials=1, n_nodes=5)
    (check,) = (c for c in result.checks if c.name == "reparam_energy_budget")
    oracle = _one_curve_reparam_excess(seed, 50, (1.5, 2.0, 3.0),
                                       suites.REPARAM_EPS)
    assert (np.asarray(check.observed, float).tobytes()
            == np.array(oracle).tobytes())


@pytest.mark.parametrize("run", [
    lambda: suites.run_fubini(trials=0),
    lambda: suites.run_transport(curves=0),
    lambda: suites.run_transport(bv_curves=0),
    lambda: suites.run_speed(curves=0),
    lambda: suites.run_skorokhod(pairs=0),
    lambda: suites.run_length(reparam_curves=0),
    lambda: suites.run_length(trials=0),
    lambda: suites.run_counterexample(sizes=()),
    lambda: suites.run_geodesic(trials=0),
    lambda: suites.run_curvature(trials=0),
], ids=["fubini", "transport", "transport-bv", "speed", "skorokhod",
        "length-reparam", "length", "counterexample", "geodesic",
        "curvature"])
def test_a_zero_count_is_refused(run):
    """A battery refuses an empty trial, curve, pair or size count with a
    ValidationError naming it, never a numpy error from an empty batch."""
    with pytest.raises(ValidationError, match="must be a positive integer"):
        run()


def _worst_key(stream: str, scores) -> str:
    return f"(worst: {stream} trial {int(np.argmax(scores))})"


def test_transport_and_speed_failures_name_their_worst_curve(monkeypatch):
    """With every residual bound below zero, each residual failure of the
    transport and speed batteries ends with the stream key of the curve
    whose residual is largest."""
    transport = suites.run_transport(
        seed=7, curves=3, bv_curves=6,
        tolerances={"transport_residual": -1.0, "variation_residual": -1.0})
    speed = suites.run_speed(
        seed=7, curves=2, grids=(65, 129),
        tolerances={"speed_residual": -1.0, "speed_consistency": -1.0})
    failed = {f.split(":")[0]: f
              for f in transport.failures + speed.failures}
    for target in (Sphere(3), Spd(2)):
        stream = f"transport/{target.kind}"
        paths = sample_smooth_paths(target, trial_rngs(7, stream, range(3)))
        [(times, values)] = paths.sweep([257])
        res = derivative_identity_residuals(target, paths.weights, 2.0,
                                            values, times)
        scores = np.max(np.abs(res[:, 1:-1]), axis=1)
        assert failed[f"derivative_identity_residual[{target.kind}]"] \
            .endswith(_worst_key(stream, scores))
    bv_scores = [float(row[1]) for row in transport.csv["transport_bv"][1:]]
    assert failed["variation_identity_residual"].endswith(
        _worst_key("transport/bv", bv_scores))
    for target in (Euclidean(2), Sphere(3), Spd(2)):
        stream = f"speed/{target.kind}"
        paths = sample_smooth_paths(target, trial_rngs(7, stream, range(2)))
        [(times, values)] = paths.sweep([129])
        md, bundle, gap_scores = batch_speeds(target, paths.weights, 2.0,
                                              values, times)
        gaps = np.max(np.abs(md - bundle)[:, 1:-1], axis=1)
        assert failed[f"speed_identity_residual[{target.kind}]"].endswith(
            _worst_key(stream, gaps))
        assert failed[f"bundle_consistency[{target.kind}]"].endswith(
            _worst_key(stream, gap_scores))

    real = VariationMeasure.of_open_interval
    monkeypatch.setattr(
        VariationMeasure, "of_open_interval",
        lambda self, s, t: real(self, s, t) * (1.0 + 1e-9) + 1e-12)
    result = suites.run_transport(seed=7, curves=2, bv_curves=6)
    gaps = {f.split(":")[0]: f for f in result.failures}
    assert re.search(r"\(worst: transport/bv trial \d+\)$",
                     gaps["variation_measure_consistency"])


@pytest.mark.parametrize("name", ["curvature", "length"])
def test_curvature_and_length_failures_name_a_drawn_stream(monkeypatch,
                                                           name):
    """Each worst-trial note of a forced curvature or length failure names
    a stream that the battery's draw really read: the stream key is spelt
    once in the draw and once in the check."""
    drawn = set()
    real = geometry.trial_rngs

    def recording(seed, suite, indices):
        drawn.add(suite)
        return real(seed, suite, indices)

    monkeypatch.setattr(geometry, "trial_rngs", recording)
    (battery,) = (b for b in BATTERIES if b.name == name)
    kwargs, expected = FORCED[name]
    tolerances = {tol: -1.0 for tol in battery.tolerances}
    result = battery(7, tolerances, **kwargs)
    notes = [re.search(r"\(worst: (\S+) trial \d+\)$", f)
             for f in result.failures]
    assert len(notes) == len(expected) and all(notes), result.failures
    assert {note.group(1) for note in notes} <= drawn


def _result_bytes(result) -> bytes:
    """What the CLI writes for a battery result, with every check's name,
    stream and scores."""
    return json.dumps({
        "passed": result.passed,
        "metrics": result.metrics,
        "failures": list(result.failures),
        "csv": result.csv,
        "checks": [[c.name, c.stream,
                    np.asarray(c.observed, float).tobytes().hex()]
                   for c in result.checks],
    }, sort_keys=True).encode()


@pytest.mark.parametrize("battery,kwargs", [
    (suites.run_geodesic, {"trials": 2, "n_nodes": 5}),
    (suites.run_length, {"trials": 2, "n_nodes": 5, "reparam_curves": 3}),
], ids=["geodesic", "length"])
def test_an_integer_exponent_gives_the_bytes_of_its_float(battery, kwargs):
    """``p = 2`` and ``p = 2.0`` name the same streams, checks and rows."""
    assert (_result_bytes(battery(p_values=(2,), **kwargs))
            == _result_bytes(battery(p_values=(2.0,), **kwargs)))


def test_skorokhod_battery_runs_two_warp_programs(monkeypatch):
    """The drawn pairs make one program at the warp grid; with the three
    worked examples they make one more at twice that grid, and each
    example reads what a call of its own at grid 16 reads."""
    programs = []
    real = curves._warp_program

    def counted(logs, pieces):
        programs.append((pieces.shape[-1], len(logs)))
        return real(logs, pieces)

    monkeypatch.setattr(curves, "_warp_program", counted)
    examples = suites.run_skorokhod(seed=7).metrics["examples"]
    assert [batch for batch, _ in programs] == [200, 203]

    line = Euclidean(1)

    def step(breaks, vals):
        return curves.StepCurve(line, breaks,
                                tuple(np.array([v]) for v in vals))

    c_self = step((0.0, 0.3, 0.7, 1.0), (0.0, 1.3, 0.4))
    g_redundant = step((0.0, 0.3, 0.5, 0.7, 1.0), (0.0, 1.3, 1.3, 0.4))
    alone = [curves.skorokhod_distance(c, g, warp_grid=16).upper
             for c, g in [(c_self, c_self), (c_self, g_redundant),
                          (step((0.0, 0.5, 1.0), (0.0, 1.0)),
                           step((0.0, 0.6, 1.0), (0.0, 1.0)))]]
    assert len(programs) == 5
    assert [examples["self_distance"],
            examples["identical_function_distance"],
            examples["shifted_jump_upper"]] == alone
