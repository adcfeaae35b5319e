"""Tests for geodesics, curvature-sign transfer, and length structure.

Covers atomwise geodesics between mappings (constant speed, length
equals distance, antipodal handling, interval invariance), the batched
geodesic sweep against the per-trial path, the quadrilateral comparison
residual at the mapping level, the curvature-class comparison battery,
the energy/length equality check, and the reparametrization energy
budget.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from nlsp import (
    Euclidean,
    FiniteMeasureSpace,
    GeodesicError,
    MappingFamily,
    MetricMapping,
    SampledCurve,
    Spd,
    Sphere,
    ValidationError,
    constant_speed_residual,
    curvature_comparison_suite,
    d_p,
    decompose_ac,
    default_equality_tol,
    default_tree,
    draw_geodesic_sweep,
    energy,
    geodesic_sweep,
    lp_geodesic,
    mapping_comparison_residual,
    run_curvature,
    run_length,
    trial_rng,
)
from nlsp import geometry
from nlsp.curves import lengths
from nlsp.geometry import retimed_energy_ratios
from nlsp.rng import trial_rngs
from nlsp.suites import LENGTH_KAPPA

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def three_atom_family(target, rng, weights=(1.0, 2.0, 1.0)):
    base = FiniteMeasureSpace(("x0", "x1", "x2"), weights)
    return MappingFamily(
        base, target, tuple(target.random_point(rng) for _ in range(3)))


# ---------------------------------------------------------------------------
# Atomwise geodesics
# ---------------------------------------------------------------------------


def test_geodesic_between_equal_mappings_is_constant():
    """A zero-length geodesic stays put with zero residual."""
    rng = trial_rng(0, "test/geo-constant", 0)
    fam = three_atom_family(Sphere(3), rng)
    f = MetricMapping(fam, tuple(Sphere(3).random_point(rng) for _ in range(3)))
    geo = lp_geodesic(f, f, 2.0, n_nodes=9)
    assert d_p(geo.start, geo.end, geo.p) == 0.0
    space = geo.curve.space
    assert np.all(space.distances(geo.curve.values, f.values) == 0.0)
    assert constant_speed_residual(geo) == 0.0


def test_single_atom_geodesic_matches_target_geodesic():
    """With one unit atom the mapping geodesic is the target geodesic."""
    target = Spd(2)
    rng = trial_rng(0, "test/geo-single", 0)
    base = FiniteMeasureSpace(("only",), (1.0,))
    fam = MappingFamily(base, target, (target.random_point(rng),))
    a, b = target.draw_geodesic_pairs([rng], 1)
    geo = lp_geodesic(MetricMapping(fam, a[0]), MetricMapping(fam, b[0]),
                      2.0, n_nodes=9)
    expected = target.geodesic_points(a, b, np.linspace(0.0, 1.0, 9)[:, None])
    assert np.max(np.abs(geo.curve.values - expected)) <= 1e-12


@pytest.mark.parametrize("target_name", ["sphere", "spd", "metric_tree"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_geodesic_is_constant_speed_with_matching_length(target_name, p):
    """Node-pair linearity, per-atom speed, and length all line up."""
    target = {"sphere": Sphere(3), "spd": Spd(2),
              "metric_tree": default_tree()}[target_name]
    rng = trial_rng(0, f"test/geo/{target_name}/{p}", 0)
    fam = three_atom_family(target, rng)
    f, g = (MetricMapping(fam, e[0])
            for e in fam.target.draw_geodesic_pairs([rng], 3))
    geo = lp_geodesic(f, g, p, n_nodes=17)
    assert constant_speed_residual(geo) < 1e-9
    assert geo.sweep.atom_speed_deviations()[0] < 1e-9
    assert float(np.max(geo.sweep.from_start()[1])) < 1e-9
    total = d_p(f, g, p)
    assert abs(lengths(geo.curve.space, geo.curve.values) - total) \
        <= 1e-9 * max(total, 1.0)


def test_per_atom_speed_bound_scales_with_total_mass():
    """Aggregate speed control forces per-atom control at the
    mass-scaled tolerance."""
    target = Sphere(3)
    p = 2.0
    rng = trial_rng(0, "test/geo-atom-bound", 0)
    fam = three_atom_family(target, rng, weights=(0.5, 1.25, 0.75))
    mass = fam.base_space.total_mass
    f, g = (MetricMapping(fam, e[0])
            for e in fam.target.draw_geodesic_pairs([rng], 3))
    geo = lp_geodesic(f, g, p, n_nodes=17)
    tau = max(geo.sweep.atom_speed_deviations()[0], 1e-12)
    # Every atom's steps at once: the atom slices are values[:, j].
    values = geo.curve.values
    d_total = target.distances(values[0], values[-1])
    steps = target.distances(values[:-1], values[1:])
    dev = np.abs(steps - np.diff(geo.curve.times_array)[:, None] * d_total)
    assert dev.max() <= tau * mass ** (-1.0 / p) + 1e-12


def test_atom_slices_are_built_on_first_read(monkeypatch):
    """lp_geodesic and decompose_ac build no atom slice: the geodesic is
    one curve, and the decomposition's atom ``j`` is the view
    ``curve.values[:, j]``."""
    rng = trial_rng(0, "test/geo-lazy-slices", 0)
    fam = three_atom_family(Sphere(3), rng)
    f, g = (MetricMapping(fam, e[0])
            for e in fam.target.draw_geodesic_pairs([rng], 3))
    built = []
    real = SampledCurve.__post_init__
    monkeypatch.setattr(SampledCurve, "__post_init__",
                        lambda self: (built.append(self), real(self))[1])
    geo = lp_geodesic(f, g, 2.0, n_nodes=9)
    assert built == [geo.curve]
    decomposition = decompose_ac(geo.curve, 2.0)
    assert built == [geo.curve]
    assert decomposition.source.values is geo.curve.values


def test_antipodal_positive_weight_atom_is_rejected_by_name():
    """The error identifies which weighted atom has no geodesic."""
    sphere = Sphere(3)
    base = FiniteMeasureSpace(("a", "b"), (1.0, 2.0))
    fam = MappingFamily(base, sphere, (E1, E2))
    f = MetricMapping(fam, (E1, E2))
    g = MetricMapping(fam, (-E1, E3))
    with pytest.raises(GeodesicError, match="positive-weight atom 'a'"):
        lp_geodesic(f, g, 2.0, n_nodes=5)


def test_antipodal_zero_weight_atom_is_parked_at_start():
    """A weightless antipodal atom cannot block the geodesic."""
    sphere = Sphere(3)
    base = FiniteMeasureSpace(("a", "b"), (0.0, 2.0))
    fam = MappingFamily(base, sphere, (E1, E2))
    f = MetricMapping(fam, (E1, E2))
    g = MetricMapping(fam, (-E1, E3))
    geo = lp_geodesic(f, g, 2.0, n_nodes=5)
    assert constant_speed_residual(geo) < 1e-9
    for value in geo.curve.values:
        assert np.array_equal(value[0], E1)


def test_geodesic_is_invariant_under_interval_rescaling():
    """Moving from [0, 1] to [a, b] changes nothing but the clock."""
    target = Spd(2)
    rng = trial_rng(0, "test/geo-interval", 0)
    fam = three_atom_family(target, rng)
    f, g = (MetricMapping(fam, e[0])
            for e in fam.target.draw_geodesic_pairs([rng], 3))
    unit = lp_geodesic(f, g, 2.0, n_nodes=9)
    shifted = lp_geodesic(f, g, 2.0, n_nodes=9, interval=(2.0, 5.0))
    assert shifted.curve.times[0] == 2.0 and shifted.curve.times[-1] == 5.0
    assert abs(constant_speed_residual(unit)
               - constant_speed_residual(shifted)) <= 1e-12
    assert unit.curve.space.distances(
        unit.curve.values, shifted.curve.values).max() <= 1e-12


def test_zero_mass_base_space_is_rejected():
    """A base space of total mass zero makes every distance zero."""
    sphere = Sphere(3)
    base = FiniteMeasureSpace(("a", "b"), (0.0, 0.0))
    fam = MappingFamily(base, sphere, (E1, E2))
    with pytest.raises(ValidationError, match="total mass zero"):
        lp_geodesic(MetricMapping(fam, (E1, E2)),
                    MetricMapping(fam, (E2, E3)), 2.0)
    with pytest.raises(ValidationError, match="total mass zero"):
        curvature_comparison_suite(sphere, base, trials=5)


SWEEP_TARGETS = {"euclidean": Euclidean(2), "sphere": Sphere(3),
                 "spd2": Spd(2), "spd3": Spd(3), "metric_tree": default_tree()}


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.0, 2.5)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("name", sorted(SWEEP_TARGETS))
def test_sweep_scores_equal_the_per_trial_path(name, p, interval):
    """Every score of a drawn sweep of three trials equals, bit for bit,
    that of the per-trial path: the family and each trial's endpoints
    drawn alone, one lp_geodesic per trial, then its single-geodesic
    scores, curve length and energy, and d_p ** p."""
    target = SWEEP_TARGETS[name]
    base = FiniteMeasureSpace(("x0", "x1", "x2"), (0.75, 1.25, 0.5))
    stream, n = f"test/sweep/{name}", len(base)
    family = MappingFamily(base, target, target.random_points(
        trial_rng(5, f"{stream}/setup", 0), n))
    drawn = draw_geodesic_sweep(target, base, p, 5, stream, 3, 9)
    assert drawn.space.family.base_values.tobytes() \
        == family.base_values.tobytes()
    sweep = geodesic_sweep(drawn.space.family, p, drawn.starts, drawn.ends,
                           9, interval)
    if interval == (0.0, 1.0):
        assert sweep.nodes.tobytes() == drawn.nodes.tobytes()
    scores = {"csr": sweep.constant_speed_residuals(),
              "atom": sweep.atom_speed_deviations(),
              "gap": sweep.length_gaps(),
              "from_start": sweep.from_start()[1]}
    if math.isfinite(p):
        scores.update(energy=sweep.scaled_energies(),
                      power=sweep.distance_powers())
    assert all(v.shape[-1] == 3 for v in scores.values())
    a, b = interval
    for i in range(3):
        f, g = (MetricMapping(family, e[0]) for e in
                target.draw_geodesic_pairs([trial_rng(5, stream, i)], n))
        assert drawn.starts[i].tobytes() == f.values.tobytes()
        assert drawn.ends[i].tobytes() == g.values.tobytes()
        geo = lp_geodesic(f, g, p, n_nodes=9, interval=interval)
        assert sweep.nodes[:, i].tobytes() == geo.curve.values.tobytes()
        total = d_p(f, g, p)
        assert scores["csr"][i] == constant_speed_residual(geo)
        assert scores["atom"][i] == geo.sweep.atom_speed_deviations()[0]
        assert scores["gap"][i] == abs(
            float(lengths(geo.curve.space, geo.curve.values)) - total) \
            / max(total, 1e-300)
        assert scores["from_start"][:, i].tobytes() \
            == geo.sweep.from_start()[1][:, 0].tobytes()
        if math.isfinite(p):
            assert scores["energy"][i] \
                == (b - a) ** (p - 1.0) * energy(geo.curve, p)
            assert scores["power"][i] == total ** p


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("name", ["sphere", "spd2", "spd3", "metric_tree"])
def test_constant_speed_residuals_equal_the_start_node_loop(name, p,
                                                            monkeypatch):
    """One call for all 136 node pairs of three 3-atom trials changes no
    bit: the residuals equal those of one distance call per start node,
    which is what a sweep too large for one part still makes."""
    base = FiniteMeasureSpace(("x0", "x1", "x2"), (0.75, 1.25, 0.5))
    sweep = draw_geodesic_sweep(SWEEP_TARGETS[name], base, p, 5,
                                f"test/parts/{name}", 3, 17)
    t, total = sweep.times, sweep.endpoint_distances()
    expected = np.zeros(3)
    for i in range(16):
        gaps = np.abs(sweep.space.distances(sweep.nodes[i:i + 1],
                                            sweep.nodes[i + 1:])
                      - ((t[i + 1:] - t[i]) / (t[-1] - t[0]))[:, None] * total)
        expected = np.maximum(expected, gaps.max(axis=0))
    calls = []
    real = type(sweep.space).distances
    monkeypatch.setattr(type(sweep.space), "distances",
                        lambda self, fs, gs: calls.append(len(gs))
                        or real(self, fs, gs))
    for part, sizes in [(136 * 9, [3, 136]),
                        (136 * 9 - 1, [3] + list(range(16, 0, -1)))]:
        monkeypatch.setattr(geometry, "_COMPARISON_PART", part)
        calls.clear()
        assert sweep.constant_speed_residuals().tobytes() \
            == expected.tobytes()
        assert calls == sizes


def _antipodal_sweep(weights):
    """A two-atom sphere sweep of three trials; atom 'a' of trial 1 has
    antipodal endpoints."""
    fam = MappingFamily(FiniteMeasureSpace(("a", "b"), weights), Sphere(3),
                        (E1, E2))
    starts = np.array([[E1, E2], [E1, E2], [E2, E3]])
    ends = np.array([[E2, E3], [-E1, E3], [E3, E1]])
    return fam, starts, ends, geodesic_sweep(fam, 2.0, starts, ends, 5)


def test_sweep_holds_a_zero_weight_antipodal_atom_at_its_start():
    """The weightless antipodal atom stays at its start in its trial; the
    other trials' nodes are those of a sweep without that trial."""
    fam, starts, ends, sweep = _antipodal_sweep((0.0, 2.0))
    assert np.array_equal(sweep.nodes[:, 1, 0],
                          np.broadcast_to(E1, (5, 3)))
    others = geodesic_sweep(fam, 2.0, starts[[0, 2]], ends[[0, 2]], 5)
    assert sweep.nodes[:, [0, 2]].tobytes() == others.nodes.tobytes()
    assert sweep.nodes[:, 1, 1].tobytes() == geodesic_sweep(
        fam, 2.0, starts[1:2], ends[1:2], 5).nodes[:, 0, 1].tobytes()
    assert sweep.constant_speed_residuals().max() < 1e-9


def test_sweep_refuses_endpoints_without_a_trial_axis():
    """One mapping's values are not a batch of trials."""
    fam, starts, ends, _ = _antipodal_sweep((0.0, 2.0))
    with pytest.raises(ValidationError, match=r"\(trial, atom\) batches"):
        geodesic_sweep(fam, 2.0, starts[0], ends[0], 5)


def test_sweep_names_a_positive_weight_antipodal_atom():
    """With weight on it, the same atom has no geodesic, and the error
    names the atom and its trial."""
    with pytest.raises(GeodesicError,
                       match="positive-weight atom 'a' in trial 1"):
        _antipodal_sweep((1.0, 2.0))


def test_geodesic_safe_pairs_avoid_degenerate_endpoints():
    """Safe pairs are distinct and, on the sphere, never antipodal."""
    sphere = Sphere(3)
    rngs = trial_rngs(0, "test/safe-pair", range(50))
    a, b = (e[:, 0] for e in sphere.draw_geodesic_pairs(rngs, 1))
    d = sphere.distances(a, b)
    assert np.all((0.0 < d) & (d < math.pi - 1e-6))


# ---------------------------------------------------------------------------
# Comparison residuals at the mapping level
# ---------------------------------------------------------------------------


def test_mapping_comparison_residual_vanishes_at_endpoints():
    """At t = 0 and t = 1 the comparison identity is trivial."""
    rng = trial_rng(0, "test/map-comparison-ends", 0)
    fam = three_atom_family(Sphere(3), rng)
    z, _ = (MetricMapping(fam, e[0])
            for e in fam.target.draw_geodesic_pairs([rng], 3))
    f, g = (MetricMapping(fam, e[0])
            for e in fam.target.draw_geodesic_pairs([rng], 3))
    assert abs(mapping_comparison_residual(z, f, g, 0.0)) <= 1e-12
    assert abs(mapping_comparison_residual(z, f, g, 1.0)) <= 1e-12


def test_mapping_comparison_residual_ends_skip_antipodal_atoms():
    """The endpoint zeros are exact without a geodesic, so an antipodal
    atom, even of zero weight, only fails at interior times."""
    base = FiniteMeasureSpace(("x0", "x1", "x2"), (1.0, 0.0, 1.0))
    fam = MappingFamily(base, Sphere(3), (E1, E2, E3))
    z = MetricMapping(fam, (E3, E3, E3))
    f = MetricMapping(fam, (E1, E2, E3))
    g = MetricMapping(fam, (E2, -E2, E1))
    assert mapping_comparison_residual(z, f, g, 0.0) == 0.0
    assert mapping_comparison_residual(z, f, g, 1.0) == 0.0
    with pytest.raises(GeodesicError):
        mapping_comparison_residual(z, f, g, 0.5)


def test_mapping_comparison_residual_signs_by_class():
    """Flat targets sit at zero; NPC targets stay nonpositive."""
    for trial in range(30):
        rng = trial_rng(0, "test/map-comparison", trial)
        t = float(rng.uniform(0.1, 0.9))
        flat_fam = three_atom_family(Euclidean(2), rng)
        z, _ = (MetricMapping(flat_fam, e[0])
                for e in flat_fam.target.draw_geodesic_pairs([rng], 3))
        f, g = (MetricMapping(flat_fam, e[0])
                for e in flat_fam.target.draw_geodesic_pairs([rng], 3))
        assert abs(mapping_comparison_residual(z, f, g, t)) <= 1e-10
        npc_fam = three_atom_family(Spd(2), rng)
        z2, _ = (MetricMapping(npc_fam, e[0])
                 for e in npc_fam.target.draw_geodesic_pairs([rng], 3))
        f2, g2 = (MetricMapping(npc_fam, e[0])
                  for e in npc_fam.target.draw_geodesic_pairs([rng], 3))
        assert mapping_comparison_residual(z2, f2, g2, t) <= 1e-8


# ---------------------------------------------------------------------------
# Curvature comparison battery
# ---------------------------------------------------------------------------


def small_base():
    return FiniteMeasureSpace(("x0", "x1", "x2"), (0.5, 1.0, 0.25))


def curvature_metrics(target):
    """The curvature battery on ``target`` alone, 100 trials of seed 0: it
    must pass, and its per-target metrics are returned."""
    result = run_curvature(seed=0, trials=100, targets=(target,),
                           base_space=small_base())
    assert result.passed, result.failures
    return result.metrics["targets"][target.kind]


def test_curvature_suite_flat_target():
    """Flat targets transfer to flat mapping spaces within 1e-10."""
    arrays = curvature_comparison_suite(Euclidean(2), small_base(), trials=100)
    assert [a.shape for a in arrays] == [(100,)] * 4
    ts, residuals, embedded, _ = arrays
    assert np.all((ts >= 0.0) & (ts <= 1.0))
    assert np.max(np.abs(residuals)) < 1e-10
    assert np.max(np.abs(embedded)) < 1e-10
    assert curvature_metrics(Euclidean(2))["curvature_class"] == "flat"


def test_curvature_suite_npc_target():
    """Nonpositive curvature transfers: residuals stay nonpositive."""
    _, residuals, embedded, transfer = curvature_comparison_suite(
        Spd(2), small_base(), trials=100)
    assert residuals.max() <= 1e-8
    assert embedded.max() <= 1e-8
    assert transfer.max() <= 1e-12
    assert curvature_metrics(Spd(2))["curvature_class"] == "global_npc"


def test_curvature_suite_nnc_target():
    """Nonnegative curvature transfers: residuals stay nonnegative."""
    _, residuals, embedded, _ = curvature_comparison_suite(
        Sphere(3), small_base(), trials=100)
    assert residuals.min() >= -1e-8
    assert embedded.min() >= -1e-8
    assert curvature_metrics(Sphere(3))["curvature_class"] == "global_nnc"


def test_curvature_suite_rejects_unknown_class():
    """A target declaring an unknown curvature class is refused."""
    class Mystery(Euclidean):
        curvature_class = "mystery"

    with pytest.raises(ValidationError, match="curvature class"):
        curvature_comparison_suite(Mystery(2), small_base(), trials=5)


# ---------------------------------------------------------------------------
# Length structure and reparametrization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target_name", ["euclidean", "sphere", "spd",
                                         "metric_tree"])
def test_length_space_check_passes_on_all_targets(target_name):
    """Energy never beats the scaled distance power and geodesics attain it."""
    target = {"euclidean": Euclidean(2), "sphere": Sphere(3), "spd": Spd(2),
              "metric_tree": default_tree()}[target_name]
    sweep = draw_geodesic_sweep(target, small_base(), 2.0, 3,
                                f"test/length/{target_name}", 4)
    scaled, powers = sweep.scaled_energies(), sweep.distance_powers()
    assert scaled.shape == powers.shape == (4,)
    assert np.max(scaled - LENGTH_KAPPA ** 2 * powers) <= 1e-12
    assert np.max(np.abs(scaled - powers) / powers) \
        <= default_equality_tol(target)


def test_length_space_check_validates_parameters():
    """The length battery refuses, before any draw, an exponent that is
    not finite and above one."""
    with pytest.raises(ValidationError, match="p > 1"):
        run_length(p_values=(1.0,))
    with pytest.raises(ValidationError, match="not allowed"):
        run_length(p_values=(math.inf,))


def test_default_equality_tol_by_target_class():
    """Flat targets get 1e-12, chartless targets 1e-9, curved 1e-8."""
    assert default_equality_tol(Euclidean(2)) == 1e-12
    assert default_equality_tol(default_tree()) == 1e-9
    assert default_equality_tol(Sphere(3)) == 1e-8
    assert default_equality_tol(Spd(2)) == 1e-8


def test_reparam_energy_ratios_meet_the_budget():
    """Every retimed geodesic's energy ratio stays within (1 + eps)^p, and
    a curve of zero length is refused."""
    sweep = draw_geodesic_sweep(Spd(2), small_base(), 2.0, 0,
                                "test/certificate", 4, 17)
    seg = sweep.space.distances(sweep.nodes[:-1], sweep.nodes[1:])
    p_values = (1.5, 2.0, 3.0)
    total, ratios = retimed_energy_ratios(sweep.times[:, None], seg,
                                          p_values, 1e-6)
    assert total.shape == (4,) and ratios.shape == (3, 4)
    for p, row in zip(p_values, ratios):
        assert (row <= (1.0 + 1e-6) ** p).all()
    with pytest.raises(ValidationError, match="positive length"):
        retimed_energy_ratios(sweep.times[:, None], 0.0 * seg, p_values, 1e-6)
