"""Geodesics and curvature comparison in mapping spaces.

Geodesics between mappings are assembled atom by atom from target
geodesics, for a batch of trials in one target call
(:func:`geodesic_sweep`; :func:`draw_geodesic_sweep` draws the endpoints
first).  Each assembled curve is constant-speed and satisfies
``D_p(c(s), c(t)) = |t - s|/(b - a) * D_p(f, g)`` at all node pairs; a
:class:`GeodesicSweep` scores this, and the energy bound, as one array
over the trial axis per score.  A single geodesic (:func:`lp_geodesic`)
is a sweep of one trial, whose score :func:`constant_speed_residual`
reads.  Curvature comparison transfers from
the target to the mapping space with the same sign:
:func:`curvature_comparison_suite` measures the squared-distance
comparison residual on random quadruples, and the converse direction
through the constant-mapping embedding.  Scores and residuals are
per-trial arrays; the checks that judge them, with their tolerances, are
built by the batteries in :mod:`nlsp.suites`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import (
    SampledCurve,
    energies,
    lengths,
    metric_speeds,
    retimed,
    table_energies,
    table_lengths,
)
from .errors import GeodesicError, ValidationError
from .mappings import (
    FiniteMeasureSpace,
    LpSpace,
    MappingFamily,
    MetricMapping,
    _weighted_norm,
    check_p,
)
from .rng import trial_rng, trial_rngs, uniforms
from .targets import (
    FLAT,
    GLOBAL_NNC,
    GLOBAL_NPC,
    _COMPARISON_PART,
    TargetSpace,
    _comparison_distances,
    _comparison_residuals,
)


def _require_positive_mass(base_space: FiniteMeasureSpace, op: str) -> None:
    if base_space.total_mass == 0.0:
        raise ValidationError(
            f"{op} rejects a base space of total mass zero: every two "
            "mappings are then at distance zero and the construction is "
            "trivial")


@dataclass(frozen=True, eq=False)
class GeodesicSweep:
    """The atomwise geodesics of a batch of trials: endpoints ``starts`` and
    ``ends`` of shape ``(trial, atom, *point_shape)``, samples ``nodes`` of
    shape ``(node, trial, atom, *point_shape)`` at ``times``.  Each score is
    one array over the trial axis, with one batched call per kind."""

    space: LpSpace
    times: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    nodes: np.ndarray

    def endpoint_distances(self) -> np.ndarray:
        """``D_p(f, g)`` of every trial."""
        return self.space.distances(self.starts, self.ends)

    def constant_speed_residuals(self) -> np.ndarray:
        """Per trial, ``max_{s<t} | D_p(c(t_s), c(t_t)) - (t_t - t_s)/(b - a)
        * D |`` over all node pairs, where ``D`` is the endpoint distance."""
        t, total = self.times, self.endpoint_distances()
        worst = np.zeros(len(total))
        for lo, hi in self._node_pairs():
            expected = ((t[hi] - t[lo]) / (t[-1] - t[0]))[:, None] * total
            gaps = np.abs(self.space.distances(self.nodes[lo],
                                               self.nodes[hi]) - expected)
            worst = np.maximum(worst, gaps.max(axis=0))
        return worst

    def _node_pairs(self) -> list:
        """Index pairs ``(lo, hi)`` that cover every node pair ``lo < hi``
        once: all of them in one part when it holds at most
        :data:`~nlsp.targets._COMPARISON_PART` points a side, else one part
        per start node, as slices, since all pairs at once would hold
        nodes^2 / 2 copies of every trial's atoms."""
        n = len(self.times)
        if n * (n - 1) // 2 * math.prod(self.starts.shape[:2]) \
                <= _COMPARISON_PART:
            return [np.triu_indices(n, 1)]
        return [(slice(i, i + 1), slice(i + 1, None)) for i in range(n - 1)]

    def from_start(self) -> tuple[np.ndarray, np.ndarray]:
        """``D_p(c(a), c(t))`` per node and trial, and its residual
        ``|D_p(c(a), c(t)) - (t - a)/(b - a) D|``."""
        t = self.times
        expected = ((t - t[0]) / (t[-1] - t[0]))[:, None] \
            * self.endpoint_distances()
        dists = self.space.distances(self.nodes[:1], self.nodes)
        return dists, np.abs(dists - expected)

    def atom_speed_deviations(self) -> np.ndarray:
        """Per trial, the worst deviation of an atom's discrete metric
        derivative from its target speed ``d_N(f_j, g_j) / (b - a)``."""
        t, target = self.times, self.space.family.target
        speed = target.distances(self.starts, self.ends) / (t[-1] - t[0])
        md = metric_speeds(target, self.nodes, t)
        return np.max(np.abs(md - speed), axis=(0, 2), initial=0.0)

    def length_gaps(self) -> np.ndarray:
        """Per trial, ``|length - D| / D``: length against endpoint distance."""
        total = self.endpoint_distances()
        return (np.abs(lengths(self.space, self.nodes) - total)
                / np.maximum(total, 1e-300))

    def scaled_energies(self) -> np.ndarray:
        """Per trial, ``(b - a)^{p-1} E_p(c)``, for a finite ``p``."""
        t, p = self.times, self.space.p
        return float(t[-1] - t[0]) ** (p - 1.0) * energies(
            self.space, self.nodes, t, p)

    def distance_powers(self) -> np.ndarray:
        """Per trial, ``D_p(f, g)^p``, a scalar power as ``d_p(f, g, p) ** p``."""
        p = self.space.p
        return np.array([d ** p for d in self.endpoint_distances().tolist()])


def geodesic_sweep(family: MappingFamily, p, starts, ends,
                   n_nodes: int = 33,
                   interval: tuple[float, float] = (0.0, 1.0)
                   ) -> GeodesicSweep:
    """Assemble every trial's geodesic atom by atom from validated
    ``(trial, atom)`` batches of endpoints.

    Every atom takes the target geodesic between its endpoints, sampled at
    ``n_nodes`` equally spaced times on ``interval``, all in one target
    call.  A positive-weight atom without a unique target geodesic
    (antipodal sphere endpoints) raises :class:`~nlsp.errors.GeodesicError`
    naming the atom and its trial; a zero-weight one is held at its start,
    which changes nothing almost everywhere.
    """
    space = LpSpace(family, p)
    if not isinstance(n_nodes, (int, np.integer)) or n_nodes < 2:
        raise ValidationError(f"n_nodes must be an integer >= 2, got {n_nodes!r}")
    a, b = map(float, interval)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError(f"need a finite interval a < b, got {interval!r}")
    base, target = family.base_space, family.target
    _require_positive_mass(base, "geodesic_sweep")
    batch = starts.shape[:starts.ndim - len(target.point_shape)]
    if len(batch) != 2 or batch[1] != len(base) or ends.shape != starts.shape:
        raise ValidationError(
            f"expected two (trial, atom) batches of {len(base)} atoms, got "
            f"shapes {starts.shape} and {ends.shape}")

    fractions = np.linspace(0.0, 1.0, int(n_nodes))
    fractions[0], fractions[-1] = 0.0, 1.0
    column = fractions.reshape((-1,) + (1,) * len(batch))
    try:
        nodes = target.geodesic_points(starts, ends, column)
    except GeodesicError as exc:
        undefined = np.broadcast_to(
            exc.undefined, (len(fractions),) + batch).any(axis=0)
        blocked = np.argwhere(undefined & (base.weights_array > 0.0))
        if blocked.size:
            trial, atom = blocked[0]
            raise GeodesicError(
                f"no unique geodesic on positive-weight atom "
                f"{base.atom_ids[atom]!r} in trial {trial}: {exc}") from exc
        # Zero-weight atoms travel from their start to their start.
        held = undefined.reshape(batch + (1,) * len(target.point_shape))
        nodes = target.geodesic_points(
            starts, np.where(held, starts, ends), column)
    return GeodesicSweep(space, a + (b - a) * fractions, starts, ends, nodes)


def draw_geodesic_sweep(target: TargetSpace, base_space: FiniteMeasureSpace,
                        p, seed: int, stream: str, trials: int,
                        n_nodes: int = 33, setup: str | None = None
                        ) -> GeodesicSweep:
    """:func:`geodesic_sweep` of a drawn family and ``trials`` drawn pairs.

    The family's base mapping comes from the stream ``(seed, setup, 0)``,
    ``setup`` defaulting to ``"<stream>/setup"``; trial ``i`` draws its
    endpoints from ``(seed, stream, i)``, with the bytes of a draw of that
    trial alone, and the ``(trial, atom)`` batches are validated once.
    """
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    trials = int(trials)
    n = len(base_space)
    family = MappingFamily(base_space, target, target.random_points(
        trial_rng(seed, setup or f"{stream}/setup", 0), n))
    ends = target.draw_geodesic_pairs(
        trial_rngs(seed, stream, range(trials)), n)
    return geodesic_sweep(family, p, *(target.as_points(e, (trials, n))
                                       for e in ends), n_nodes)


@dataclass(frozen=True, eq=False)
class LpGeodesic:
    """A geodesic between two mappings.

    ``curve`` lives in the ``LpSpace`` ambient and holds one batch of shape
    ``(node, atom, *point_shape)``, whose atom ``j`` is the target geodesic
    of that atom.  ``sweep``, the geodesic as a sweep of one trial, is
    built on first read.
    """

    start: MetricMapping
    end: MetricMapping
    p: float
    curve: SampledCurve

    @cached_property
    def sweep(self) -> GeodesicSweep:
        c = self.curve
        return GeodesicSweep(c.space, c.times_array, self.start.values[None],
                             self.end.values[None], c.values[:, None])


def lp_geodesic(f: MetricMapping, g: MetricMapping, p,
                n_nodes: int = 33,
                interval: tuple[float, float] = (0.0, 1.0)) -> LpGeodesic:
    """The geodesic from ``f`` to ``g``: :func:`geodesic_sweep` of one
    trial."""
    if not isinstance(f, MetricMapping) or not isinstance(g, MetricMapping):
        raise ValidationError("lp_geodesic expects two MetricMapping endpoints")
    if f.family is not g.family:
        raise ValidationError(
            "geodesic endpoints must come from the same mapping family")
    sweep = geodesic_sweep(f.family, p, f.values[None], g.values[None],
                           n_nodes, interval)
    return LpGeodesic(start=f, end=g, p=sweep.space.p, curve=SampledCurve(
        sweep.space, sweep.times, sweep.nodes[:, 0]))


def _sweep_of(geo: LpGeodesic) -> GeodesicSweep:
    if not isinstance(geo, LpGeodesic):
        raise ValidationError(f"expected an LpGeodesic, got {type(geo).__name__}")
    return geo.sweep


def constant_speed_residual(geo: LpGeodesic) -> float:
    """Worst deviation from exact linearity of the mapping-space distance:
    :meth:`GeodesicSweep.constant_speed_residuals` of one trial."""
    return float(_sweep_of(geo).constant_speed_residuals()[0])


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
# Reparametrization
# ---------------------------------------------------------------------------


def reparam_energy_ratios(curve: SampledCurve, p_values, eps: float):
    """Retime ``curve`` once at constant speed and score it per exponent.

    Returns the length of the retimed curve, the length ``L`` of ``curve``
    and, for each ``p`` in ``p_values``, the energy ratio ``(b-a)^{p-1} E_p
    / L^p`` of the retimed curve.  Retiming moves only the times, so one
    table of segment distances serves both curves, each reading summed as
    :func:`~nlsp.curves.lengths` and :func:`~nlsp.curves.energies` sum it; the
    two lengths are therefore the same number.
    """
    seg = curve.segment_lengths()
    total = float(table_lengths(seg))
    if total <= 0.0:
        raise ValidationError(
            "reparametrization certificates need a curve of positive length")
    re = retimed(curve, seg, eps)
    a, b = re.interval
    return total, total, [
        (b - a) ** (p - 1.0) * float(table_energies(
            seg, re.times_array, check_p(p, allow_inf=False))) / total ** p
        for p in p_values]
