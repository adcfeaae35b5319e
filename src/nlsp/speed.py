"""Per-atom tangent velocities and the bundle norm of curve speed.

Given an atomwise decomposition of a curve of mappings (``1 < p < inf``),
:func:`compute_speed` differentiates every atom slice through the target's
log map — forward differences, so each tangent vector is anchored exactly
at the curve's value — and :func:`bundle_norm` aggregates the per-atom
tangent norms into the weighted p-norm.  The bundle norm approximates the
curve's metric derivative; :func:`speed_identity_residual` measures the
gap, which shrinks linearly with the time step because the bundle norm is
a one-sided quotient while the metric derivative is centered.

Targets without a tangent chart (metric trees) are refused: their curves
still have metric derivatives, but no velocity vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import metric_derivative
from .errors import UnsupportedOperationError, ValidationError
from .mappings import check_p
from .targets import TangentVector
from .transport import TransportDecomposition, per_atom_derivatives


@dataclass(frozen=True)
class SpeedField:
    """Forward-difference velocity vectors of every atom slice.

    ``vectors[i][j]`` is the velocity of atom ``j`` at time node ``i``,
    anchored at the curve's value there (the final node uses the backward
    pair, rescaled to keep the forward orientation).
    """

    decomposition: TransportDecomposition
    vectors: tuple
    p: float

    @property
    def curve(self):
        return self.decomposition.source

    @property
    def times(self) -> tuple[float, ...]:
        return self.decomposition.source.times


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
    family = d.source.space.family
    tgt = family.target
    if not tgt.has_chart:
        raise UnsupportedOperationError(
            f"{tgt.kind} target has no tangent chart: curve speed exists "
            "only as a metric derivative, not as velocity vectors")
    p = check_p(d.p, allow_inf=False)
    if p <= 1.0:
        raise ValidationError(f"compute_speed requires p > 1, got {p!r}")

    times = d.source.times
    n = len(times)
    if n < 2:
        raise ValidationError("compute_speed needs at least two time nodes")
    per_node: list[tuple] = []
    for i in range(n):
        if i < n - 1:
            src, dst, dt = i, i + 1, times[i + 1] - times[i]
        else:
            src, dst, dt = n - 1, n - 2, times[n - 2] - times[n - 1]
        row = tuple(
            tgt.log_map(curve.values[src], curve.values[dst]).scaled(1.0 / dt)
            for curve in d.per_atom_curves)
        per_node.append(row)
    return SpeedField(decomposition=d, vectors=tuple(per_node), p=p)


def tangent_norms(s: SpeedField, node: int) -> np.ndarray:
    """Per-atom tangent norms at one time node."""
    if not isinstance(s, SpeedField):
        raise ValidationError(f"expected a SpeedField, got {type(s).__name__}")
    if not isinstance(node, (int, np.integer)) or not 0 <= node < len(s.vectors):
        raise ValidationError(
            f"node must lie in [0, {len(s.vectors)}), got {node!r}")
    tgt = s.decomposition.source.space.family.target
    return np.array([tgt.tangent_norm(v) for v in s.vectors[node]])


def bundle_norm(s: SpeedField, node: int) -> float:
    """Weighted p-norm of the per-atom tangent norms at one node.

    ``(sum_j w_j ||v_j(t_node)||^p)^{1/p}``; for ``p = inf`` it would be
    the positive-weight maximum, but infinite exponents never reach here
    because :func:`compute_speed` requires finite ``p``.
    """
    norms = tangent_norms(s, node)
    w = s.decomposition.source.space.family.base_space.weights_array
    if math.isinf(s.p):  # pragma: no cover - excluded by compute_speed
        pos = np.nonzero(w > 0.0)[0]
        return float(norms[pos].max()) if len(pos) else 0.0
    return float(np.dot(w, norms ** s.p) ** (1.0 / s.p))


def bundle_norms(s: SpeedField) -> np.ndarray:
    """Bundle norm at every time node."""
    return np.array([bundle_norm(s, i) for i in range(len(s.vectors))])


def speed_identity_residual(s: SpeedField) -> np.ndarray:
    """Node-wise gap ``| |c'|_p(t_i) - bundle_norm(t_i) |``.

    At the two boundary nodes both quantities are one-sided quotients over
    the same node pair, so the gap there is pure roundoff; at interior
    nodes it decays like the time step.
    """
    if not isinstance(s, SpeedField):
        raise ValidationError(f"expected a SpeedField, got {type(s).__name__}")
    md = metric_derivative(s.decomposition.source)
    return np.abs(md - bundle_norms(s))


def atomwise_consistency_gap(s: SpeedField) -> float:
    """Relative gap between the bundle norm and the atomwise speed sum.

    Compares ``bundle_norm(t_i)^p`` against
    ``sum_j w_j |f_j'|(t_i)^p`` (centered per-atom metric derivatives) at
    interior nodes and returns the worst relative mismatch.
    """
    if not isinstance(s, SpeedField):
        raise ValidationError(f"expected a SpeedField, got {type(s).__name__}")
    w = s.decomposition.source.space.family.base_space.weights_array
    rhs = w @ (per_atom_derivatives(s.decomposition) ** s.p)
    lhs = bundle_norms(s) ** s.p
    interior = slice(1, -1)
    denom = np.maximum(np.abs(rhs[interior]), 1e-300)
    return float(np.max(np.abs(lhs[interior] - rhs[interior]) / denom))
