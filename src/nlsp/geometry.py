"""Geodesics and curvature comparison in mapping spaces.

Geodesics between two mappings are assembled atom by atom from target
geodesics (:func:`lp_geodesic`); the assembled curve is constant-speed and
satisfies ``D_p(c(s), c(t)) = |t - s|/(b - a) * D_p(f, g)`` at all node
pairs, which :func:`constant_speed_residual` measures.  Curvature
comparison transfers from the target to the mapping space with the same
sign: :func:`curvature_comparison_suite` measures the squared-distance
comparison residual on random quadruples, and the converse direction
through the constant-mapping embedding.  :func:`length_space_check`
measures the scaled energy of geodesics against their endpoint distance
power.  Both return per-trial arrays; the checks that judge them, with
their tolerances, are built by the batteries in :mod:`nlsp.suites`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .checks import reading
from .curves import (
    SampledCurve,
    constant_speed_reparam,
    energy,
    length,
    metric_speeds,
)
from .errors import GeodesicError, ValidationError
from .mappings import (
    FiniteMeasureSpace,
    LpSpace,
    MappingFamily,
    MetricMapping,
    _weighted_norm,
    check_p,
    d_p,
)
from .rng import trial_rng, trial_rngs, uniforms
from .targets import (
    FLAT,
    GLOBAL_NNC,
    GLOBAL_NPC,
    TargetSpace,
    _comparison_distances,
    _comparison_residuals,
)


def geodesic_safe_pair(target: TargetSpace, rng: np.random.Generator):
    """Two target points joined by a unique geodesic."""
    ys, zs = target.random_geodesic_pairs(rng, 1)
    return ys[0], zs[0]


def geodesic_safe_mapping_pair(family: MappingFamily,
                               rng: np.random.Generator
                               ) -> tuple[MetricMapping, MetricMapping]:
    """Two mappings of the family with a unique per-atom geodesic."""
    ys, zs = family.target.random_geodesic_pairs(rng, len(family.base_space))
    return MetricMapping(family, ys), MetricMapping(family, zs)


def _require_positive_mass(base_space: FiniteMeasureSpace, op: str) -> None:
    if base_space.total_mass == 0.0:
        raise ValidationError(
            f"{op} rejects a base space of total mass zero: every two "
            "mappings are then at distance zero and the construction is "
            "trivial")


@dataclass(frozen=True, eq=False)
class LpGeodesic:
    """A geodesic between two mappings, with its per-atom target geodesics.

    ``curve`` lives in the ``LpSpace`` ambient and holds one batch of shape
    ``(node, atom, *point_shape)``; ``per_atom_curves[j]`` reads atom ``j``
    of it, so both are views of one array of target points.  The slices
    are built on first read: the batteries read ``curve`` alone.
    """

    start: MetricMapping
    end: MetricMapping
    p: float
    curve: SampledCurve

    @cached_property
    def per_atom_curves(self) -> tuple[SampledCurve, ...]:
        c = self.curve
        return tuple(SampledCurve(self.family.target, c.times, series)
                     for series in c.values.swapaxes(0, 1))

    @property
    def family(self) -> MappingFamily:
        return self.start.family

    @property
    def interval(self) -> tuple[float, float]:
        return self.curve.interval

    def endpoint_distance(self) -> float:
        return d_p(self.start, self.end, self.p)


def lp_geodesic(f: MetricMapping, g: MetricMapping, p,
                n_nodes: int = 33,
                interval: tuple[float, float] = (0.0, 1.0)) -> LpGeodesic:
    """Assemble the geodesic from ``f`` to ``g`` atom by atom.

    Every atom takes the target geodesic between its endpoints, sampled at
    ``n_nodes`` equally spaced times on ``interval``; one batched target
    call covers all atoms and nodes.  A positive-weight atom without a
    unique target geodesic (antipodal sphere endpoints) is a real
    obstruction and raises :class:`~nlsp.errors.GeodesicError` naming
    the atom; a zero-weight atom with the same defect is repaired by
    holding it constant, which changes nothing almost everywhere.
    """
    if not isinstance(f, MetricMapping) or not isinstance(g, MetricMapping):
        raise ValidationError("lp_geodesic expects two MetricMapping endpoints")
    if f.family is not g.family:
        raise ValidationError(
            "geodesic endpoints must come from the same mapping family")
    p = check_p(p)
    if not isinstance(n_nodes, (int, np.integer)) or n_nodes < 2:
        raise ValidationError(f"n_nodes must be an integer >= 2, got {n_nodes!r}")
    a, b = map(float, interval)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError(f"need a finite interval a < b, got {interval!r}")
    family = f.family
    _require_positive_mass(family.base_space, "lp_geodesic")

    tgt = family.target
    space = family.base_space
    fractions = np.linspace(0.0, 1.0, int(n_nodes))
    fractions[0], fractions[-1] = 0.0, 1.0
    times = tuple(float(t) for t in a + (b - a) * fractions)

    ys, zs = f.values, g.values
    try:
        nodes = tgt.geodesic_points(ys, zs, fractions[:, None])
    except GeodesicError as exc:
        undefined = np.broadcast_to(
            exc.undefined, (len(fractions), len(space))).any(axis=0)
        blocked = np.flatnonzero(undefined & (space.weights_array > 0.0))
        if blocked.size:
            raise GeodesicError(
                f"no unique geodesic on positive-weight atom "
                f"{space.atom_ids[blocked[0]]!r}: {exc}") from exc
        # Zero-weight atoms travel from their start to their start.
        zs = np.where(undefined.reshape((-1,) + (1,) * (ys.ndim - 1)), ys, zs)
        nodes = tgt.geodesic_points(ys, zs, fractions[:, None])

    return LpGeodesic(start=f, end=g, p=p,
                      curve=SampledCurve(LpSpace(family, p), times, nodes))


def constant_speed_residual(geo: LpGeodesic) -> float:
    """Worst deviation from exact linearity of the mapping-space distance.

    Returns ``max_{s<t} | D_p(c(t_s), c(t_t)) - (t_t - t_s)/(b - a) * D |``
    over all node pairs, where ``D`` is the endpoint distance.
    """
    if not isinstance(geo, LpGeodesic):
        raise ValidationError(f"expected an LpGeodesic, got {type(geo).__name__}")
    curve = geo.curve
    t = curve.times_array
    a, b = geo.interval
    total = geo.endpoint_distance()
    worst = [0.0]
    # One start node per batched call: all node pairs at once would hold
    # nodes^2 / 2 copies of a mapping's atoms in memory.
    for i in range(len(t) - 1):
        expected = (t[i + 1:] - t[i]) / (b - a) * total
        gaps = np.abs(curve.space.distances(curve.values[i:i + 1],
                                            curve.values[i + 1:]) - expected)
        worst.append(float(gaps.max()))
    return reading(worst)


def start_aligned_residuals(geo: LpGeodesic) -> np.ndarray:
    """Per-node residual against the start: ``|D_p(c(a), c(t)) - s(t) D|``."""
    curve = geo.curve
    a, b = geo.interval
    expected = (curve.times_array - a) / (b - a) * geo.endpoint_distance()
    return np.abs(curve.space.distances(curve.values[:1], curve.values)
                  - expected)


def geodesic_speed_check(geo: LpGeodesic) -> float:
    """Worst per-atom deviation from the constant target speed.

    Compares each atom curve's discrete metric derivative at every node
    with ``d_N(f_j, g_j) / (b - a)``.
    """
    if not isinstance(geo, LpGeodesic):
        raise ValidationError(f"expected an LpGeodesic, got {type(geo).__name__}")
    a, b = geo.interval
    tgt = geo.family.target
    speed = tgt.distances(geo.start.values, geo.end.values) / (b - a)
    md = metric_speeds(tgt, geo.curve.values, geo.curve.times_array)
    return float(np.max(np.abs(md - speed), initial=0.0))


# ---------------------------------------------------------------------------
# Curvature comparison
# ---------------------------------------------------------------------------


def _l2_over_atoms(dists: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``D_2`` from per-atom distances on the last axis; an axis of length
    one (a constant mapping) is broadcast to every atom first."""
    return _weighted_norm(
        np.broadcast_to(dists, dists.shape[:-1] + weights.shape), weights, 2.0)


def mapping_comparison_residual(z: MetricMapping, f: MetricMapping,
                                g: MetricMapping, t: float) -> float:
    """Squared-distance comparison residual in the ``L^2`` mapping space.

    ``D_2(z, c(t))^2 - [(1-t) D_2(z, f)^2 + t D_2(z, g)^2 - (1-t) t D_2(f, g)^2]``
    where ``c`` is the atomwise geodesic from ``f`` to ``g``.  At ``t`` in
    ``{0, 1}`` the residual is zero by construction and returned exactly.
    """
    for m in (z, f, g):
        if not isinstance(m, MetricMapping):
            raise ValidationError("comparison expects MetricMapping arguments")
    if z.family is not f.family or f.family is not g.family:
        raise ValidationError("comparison arguments must share one family")
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"t must lie in [0, 1], got {t!r}")
    if t == 0.0 or t == 1.0:
        return 0.0
    weights = f.base_space.weights_array
    dists = _comparison_distances(f.target, z.values, f.values, g.values, t)
    return float(_comparison_residuals(
        [_l2_over_atoms(d, weights) for d in dists], t))


def curvature_comparison_suite(
        target: TargetSpace, base_space: FiniteMeasureSpace, trials: int,
        seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The comparison-sign transfer, measured on random quadruples.

    Each trial draws a witness mapping ``z``, geodesic endpoints ``f, g``
    and an interior time ``t``, and evaluates the ``L^2`` comparison
    residual; alongside, a target-level quadruple is evaluated both in the
    target and embedded through constant mappings, which must rescale the
    residual by the total mass without changing its sign.  Returns the
    per-trial arrays ``(ts, residuals, embedded, transfer)``: the times,
    the mapping residuals, the embedded residuals and
    ``|embedded - mass * target residual|``.  The signs they must keep are
    judged by :func:`nlsp.suites.run_curvature`.  A target whose curvature
    class is not declared flat / NPC / NNC is refused rather than guessed
    at.

    The battery runs in two steps.  The draw step takes each trial's
    points and times from the trial's own stream ``(seed,
    "curvature/<kind>", trial)``, one kind of draw at a time for all
    trials: it reads every trial's variates, in the order of a one-trial
    draw, then forms the points of all trials in one kernel call, so each
    trial's points have the bytes of a draw of that trial alone.  The
    ``(trial, atom)`` and ``(trial,)`` batches are each validated once.
    The compute step evaluates
    every trial at once: one geodesic call and four distance calls for the
    mapping residuals, the same for the target quadruples, whose distances,
    broadcast over the atoms of a constant mapping, also give the embedded
    residuals.
    """
    classes = (FLAT, GLOBAL_NNC, GLOBAL_NPC)
    if target.curvature_class not in classes:
        raise ValidationError(
            f"target {target.kind!r} declares curvature class "
            f"{target.curvature_class!r}; expected one of "
            f"{sorted(classes)} — refusing to guess a comparison sign")
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    _require_positive_mass(base_space, "curvature_comparison_suite")

    weights = base_space.weights_array
    mass = base_space.total_mass
    trials = int(trials)
    stream = f"curvature/{target.kind}"

    # Draw step: one stream per trial, every kind of draw taken from all
    # streams at once, in the order of the single-trial battery.  Each
    # (trial, atom) or (trial,) batch is validated once.
    rngs = trial_rngs(seed, stream, range(trials))
    n = len(base_space)
    fs, gs = target.draw_geodesic_pairs(rngs, n)
    zs = target.draw_points(rngs, n)
    ts = uniforms(rngs, 0.0, 1.0)
    y0s, y1s = (ends[:, 0] for ends in target.draw_geodesic_pairs(rngs, 1))
    w0s = target.draw_points(rngs, 1)[:, 0]
    t0s = uniforms(rngs, 0.0, 1.0)
    fs, gs, zs = (target.as_points(a, (trials, n)) for a in (fs, gs, zs))
    y0s, y1s, w0s = (target.as_points(a, (trials,)) for a in (y0s, y1s, w0s))

    # Compute step: every trial at once, one kernel call per distance.
    residuals = _comparison_residuals(
        [_l2_over_atoms(d, weights)
         for d in _comparison_distances(target, zs, fs, gs, ts[:, None])], ts)
    # The target-level quadruple, in the target and embedded through
    # constant mappings: their atom axis has length one.
    target_dists = _comparison_distances(target, w0s, y0s, y1s, t0s)
    embedded = _comparison_residuals(
        [_l2_over_atoms(d[:, None], weights) for d in target_dists], t0s)
    transfer = np.abs(
        embedded - mass * _comparison_residuals(target_dists, t0s))

    return ts, residuals, embedded, transfer


# ---------------------------------------------------------------------------
# Length-space certification
# ---------------------------------------------------------------------------


def length_space_check(target: TargetSpace, base_space: FiniteMeasureSpace,
                       p, trials: int, seed: int = 0, n_nodes: int = 33
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of ``(b - a)^{p-1} E_p(c) <= D_p(f, g)^p`` on random
    geodesics, which attain it.

    Returns the per-trial arrays ``(scaled_energy, distance_power)``; trial
    ``i`` joins two mappings drawn from the stream ``(seed,
    "length/<kind>/p=<p>", i)``.  The bound and its equality are judged by
    :func:`nlsp.suites.run_length`.  ``p`` must be finite with ``p > 1``
    (the scaling ``(b - a)^{p-1}`` is vacuous at ``p = 1`` and the energy
    is undefined at ``p = inf``).
    """
    p = check_p(p, allow_inf=False)
    if p <= 1.0:
        raise ValidationError(f"length_space_check requires p > 1, got {p!r}")
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    _require_positive_mass(base_space, "length_space_check")

    setup = trial_rng(seed, f"length/{target.kind}/setup", 0)
    family = MappingFamily(base_space, target,
                           target.random_points(setup, len(base_space)))

    rows = []
    ends = target.draw_geodesic_pairs(
        trial_rngs(seed, f"length/{target.kind}/p={p!r}", range(int(trials))),
        len(base_space))
    for fv, gv in zip(*ends):
        f, g = MetricMapping(family, fv), MetricMapping(family, gv)
        geo = lp_geodesic(f, g, p, n_nodes=n_nodes)
        a, b = geo.interval
        rows.append(((b - a) ** (p - 1.0) * energy(geo.curve, p),
                     d_p(f, g, p) ** p))
    return tuple(np.array(rows).T)


def reparam_energy_ratios(curve: SampledCurve, p_values, eps: float):
    """Retime ``curve`` once at constant speed and score it per exponent.

    Returns the retimed curve, the length ``L`` of ``curve`` and, for each
    ``p`` in ``p_values``, the energy ratio ``(b-a)^{p-1} E_p / L^p`` of the
    retimed curve.
    """
    total = length(curve)
    if total <= 0.0:
        raise ValidationError(
            "reparametrization certificates need a curve of positive length")
    re = constant_speed_reparam(curve, eps)
    a, b = re.interval
    return re, total, [(b - a) ** (p - 1.0) * energy(re, p) / total ** p
                       for p in p_values]


def reparam_length_certificate(curve: SampledCurve, p, eps: float
                               ) -> tuple[float, float]:
    """Reparametrize and report ``((b-a)^{p-1} E_p / L^p, (1 + eps)^p)``.

    The first component is the achieved energy ratio after constant-speed
    reparametrization with slack ``eps``; the certification is that it does
    not exceed the second component (for curves of length not far below 1
    the additive slack converts to at most this multiplicative budget).
    """
    p = check_p(p, allow_inf=False)
    _, _, (ratio,) = reparam_energy_ratios(curve, (p,), eps)
    return float(ratio), float((1.0 + float(eps)) ** p)
