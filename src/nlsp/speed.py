"""Per-atom tangent velocities and the bundle norm of curve speed.

Given an atomwise decomposition of a curve of mappings (``1 < p < inf``),
:func:`compute_speed` differentiates every atom slice at every node in one
call of the target's batched log map — forward differences, so each
tangent vector is anchored exactly at the curve's value.  The base points
are the curve's own batch of shape ``(node, atom, *point_shape)``, and the
vectors are one array of the same shape.
:func:`bundle_norms` aggregates the per-atom tangent norms into the
weighted p-norm at every node.  The bundle norm approximates the curve's
metric derivative; :func:`speed_identity_residual` measures the gap, which
shrinks linearly with the time step because the bundle norm is a one-sided
quotient while the metric derivative is centered.

:func:`batch_speeds` evaluates many curves on one target and one time
grid, stacked as a ``(node, curve, atom, *point_shape)`` batch with a
``(curve, atom)`` table of weights, through the same array helpers as the
single-curve functions: one log-map call, one tangent-norm call and one
per-atom distance call for the whole batch, and it also checks the bundle
norm against the per-atom speeds.

Targets without a tangent chart (metric trees) are refused: their curves
still have metric derivatives, but no velocity vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import metric_derivative
from .errors import UnsupportedOperationError, ValidationError
from .mappings import _weighted_norm, check_p
from .transport import (
    TransportDecomposition,
    speed_table,
    weighted_speed_powers,
)


@dataclass(frozen=True, eq=False)
class SpeedField:
    """Forward-difference velocity vectors of every atom slice.

    ``bases`` is the curve's own batch of shape ``(node, atom,
    *point_shape)``, not a copy; ``vectors`` has the same shape, and
    ``vectors[i, j]`` is the velocity of atom ``j`` at time node ``i``, a
    tangent vector at ``bases[i, j]`` (the final node uses the backward
    pair, rescaled to keep the forward orientation).
    """

    decomposition: TransportDecomposition
    bases: np.ndarray
    vectors: np.ndarray
    p: float

    @property
    def curve(self):
        return self.decomposition.source


def compute_speed(d: TransportDecomposition) -> SpeedField:
    """Differentiate every atom slice of a decomposition via the log map.

    Requires a target with a tangent chart; metric-tree targets raise
    :class:`~nlsp.errors.UnsupportedOperationError`.  The exponent is
    inherited from the decomposition and must satisfy ``1 < p < inf``.
    """
    if not isinstance(d, TransportDecomposition):
        raise ValidationError(
            f"compute_speed expects a TransportDecomposition, got "
            f"{type(d).__name__}")
    tgt = _charted(d.source.space.family.target)
    p = check_p(d.p, allow_inf=False)
    if p <= 1.0:
        raise ValidationError(f"compute_speed requires p > 1, got {p!r}")

    times = d.source.times_array
    n = len(times)
    if n < 2:
        raise ValidationError("compute_speed needs at least two time nodes")
    bases = d.source.values
    return SpeedField(decomposition=d, bases=bases,
                      vectors=_velocities(tgt, bases, times), p=p)


def _charted(target):
    """The target, if it has a tangent chart."""
    if not target.has_chart:
        raise UnsupportedOperationError(
            f"{target.kind} target has no tangent chart: curve speed exists "
            "only as a metric derivative, not as velocity vectors")
    return target


def _velocities(target, bases: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Forward-difference log-map velocities along the first (node) axis of
    a batch, with one ``log_maps`` call; the final node uses the backward
    pair, rescaled to keep the forward orientation."""
    n = len(times)
    dst = np.append(np.arange(1, n), n - 2)
    step = (1.0 / (times[dst] - times)).reshape((n,) + (1,) * (bases.ndim - 1))
    return target.log_maps(bases, bases[dst]) * step


def _bundle_norms(target, bases, vectors, weights, p: float) -> np.ndarray:
    """Weighted p-norm over the atom axis of the tangent norms, with one
    ``tangent_norms`` call: shape ``(node, *batch)`` for weights of shape
    ``(*batch, atom)``."""
    return _weighted_norm(target.tangent_norms(bases, vectors), weights, p)


def batch_speeds(target, weights, p, values, times
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Metric derivatives and bundle norms, each of shape ``(curve, node)``,
    and atomwise consistency gaps ``(curve,)`` of every curve of a batch
    ``(node, curve, atom, *point_shape)`` over ``target`` sharing one time
    grid, with ``(curve, atom)`` weights, at ``1 < p < inf``.

    The velocities take one ``log_maps`` call and their norms one
    ``tangent_norms`` call over the whole batch; the metric derivatives
    and the per-atom speeds are one :func:`~nlsp.transport.speed_table`.
    A curve's gap compares ``bundle_norm(t_i)^p`` against ``sum_j w_j
    |f_j'|(t_i)^p`` (centred per-atom metric derivatives) at interior
    nodes, and is its worst relative mismatch.
    """
    _charted(target)
    speeds, atoms = speed_table(target, weights, p, values, times)
    vectors = _velocities(target, values, times)
    bundle = _bundle_norms(target, values, vectors, weights, p).T
    rhs = weighted_speed_powers(atoms, weights, p)[:, 1:-1]
    lhs = bundle[:, 1:-1] ** p
    denom = np.maximum(np.abs(rhs), 1e-300)
    return speeds, bundle, np.max(np.abs(lhs - rhs) / denom, axis=1)


def _require_speed_field(s) -> None:
    if not isinstance(s, SpeedField):
        raise ValidationError(f"expected a SpeedField, got {type(s).__name__}")


def tangent_norms(s: SpeedField, node: int) -> np.ndarray:
    """Per-atom tangent norms at one time node."""
    _require_speed_field(s)
    if not isinstance(node, (int, np.integer)) or not 0 <= node < len(s.vectors):
        raise ValidationError(
            f"node must lie in [0, {len(s.vectors)}), got {node!r}")
    tgt = s.curve.space.family.target
    return tgt.tangent_norms(s.bases[node], s.vectors[node])


def bundle_norm(s: SpeedField, node: int) -> float:
    """Weighted p-norm ``(sum_j w_j ||v_j(t_node)||^p)^{1/p}`` of the
    per-atom tangent norms at one node."""
    norms = tangent_norms(s, node)
    w = s.curve.space.family.base_space.weights_array
    return float(_weighted_norm(norms, w, s.p))


def bundle_norms(s: SpeedField) -> np.ndarray:
    """Bundle norm at every time node."""
    _require_speed_field(s)
    family = s.curve.space.family
    return _bundle_norms(family.target, s.bases, s.vectors,
                         family.base_space.weights_array, s.p)


def speed_identity_residual(s: SpeedField) -> np.ndarray:
    """Node-wise gap ``| |c'|_p(t_i) - bundle_norm(t_i) |``.

    At the two boundary nodes both quantities are one-sided quotients over
    the same node pair, so the gap there is pure roundoff; at interior
    nodes it decays like the time step.
    """
    _require_speed_field(s)
    md = metric_derivative(s.decomposition.source)
    return np.abs(md - bundle_norms(s))
