"""Two sections of product-grid data and the transpose between them.

A :class:`~nlsp.mappings.ProductGridMapping` can be read time-major, as a
curve whose samples are mappings (:func:`sec_time`), or atom-major, as a
mapping whose values are target-valued curves (:func:`sec_atom`).  Both
readings are isometric to the product distance when time carries exponent
``p`` and atoms carry exponent ``p`` as well: :func:`d_pp` and :func:`D_pp`
evaluate the two iterated norms, and :func:`transpose` /
:func:`transpose_inverse` swap the readings without touching any value.

:func:`approximate_by_rectangles` greedily compresses product data into
rectangles, reporting the product-norm error actually achieved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatchError, ValidationError
from .mappings import (
    MappingFamily,
    MetricMapping,
    ProductGridMapping,
    TimeGrid,
    check_p,
    d_p,
    product_lp_norm,
)


@dataclass(frozen=True)
class CurveOfMappings:
    """Time-major reading: one mapping of the family per grid node."""

    grid: TimeGrid
    mappings: tuple[MetricMapping, ...]

    def __post_init__(self):
        if not self.mappings:
            raise ValidationError("need at least one mapping")
        fam = self.mappings[0].family
        for m in self.mappings:
            if not isinstance(m, MetricMapping):
                raise ValidationError(
                    f"expected MetricMapping nodes, got {type(m).__name__}")
            if m.family is not fam:
                raise SpaceMismatchError(
                    "all node mappings must share one family object")
        if len(self.mappings) != len(self.grid):
            raise ValidationError(
                f"{len(self.mappings)} mappings for {len(self.grid)} grid nodes")

    @property
    def family(self) -> MappingFamily:
        return self.mappings[0].family


@dataclass(frozen=True)
class MappingOfCurves:
    """Atom-major reading: one target-valued time series per atom."""

    family: MappingFamily
    grid: TimeGrid
    atom_values: tuple  # atom_values[j][i]: atom j at grid node i

    def __post_init__(self):
        tgt = self.family.target
        rows = []
        for j, row in enumerate(self.atom_values):
            row, _ = tgt.as_point_tuple(row)
            if len(row) != len(self.grid):
                raise ValidationError(
                    f"atom {j} has {len(row)} samples for "
                    f"{len(self.grid)} grid nodes")
            rows.append(row)
        if len(rows) != len(self.family.base_space):
            raise ValidationError(
                f"{len(rows)} atom series for "
                f"{len(self.family.base_space)} atoms")
        object.__setattr__(self, "atom_values", tuple(rows))


def sec_time(pm: ProductGridMapping) -> CurveOfMappings:
    """Read product data as a curve of mappings.

    The node mappings reuse the product data's value tuples, so
    ``sec_time(pm).mappings[i][j] is pm.values[i][j]``.
    """
    return CurveOfMappings(
        pm.grid, tuple(MetricMapping(pm.family, row) for row in pm.values))


def sec_time_inverse(cm: CurveOfMappings) -> ProductGridMapping:
    return ProductGridMapping(
        cm.grid, cm.family, tuple(m.values for m in cm.mappings))


def sec_atom(pm: ProductGridMapping) -> MappingOfCurves:
    """Read product data as a mapping into curve space.

    The per-atom series reuse the product data's point objects, so
    ``sec_atom(pm).atom_values[j][i] is pm.values[i][j]``.
    """
    n_atoms = len(pm.family.base_space)
    return MappingOfCurves(
        pm.family, pm.grid,
        tuple(tuple(row[j] for row in pm.values) for j in range(n_atoms)))


def sec_atom_inverse(mc: MappingOfCurves) -> ProductGridMapping:
    n_nodes = len(mc.grid)
    return ProductGridMapping(
        mc.grid, mc.family,
        tuple(tuple(series[i] for series in mc.atom_values)
              for i in range(n_nodes)))


def transpose(cm: CurveOfMappings) -> MappingOfCurves:
    """Swap the time-major reading for the atom-major one, value for value."""
    return sec_atom(sec_time_inverse(cm))


def transpose_inverse(mc: MappingOfCurves) -> CurveOfMappings:
    """Inverse of :func:`transpose`; a round trip reuses every point object."""
    return sec_time(sec_atom_inverse(mc))


def base_curve_of_mappings(grid: TimeGrid, family: MappingFamily) -> CurveOfMappings:
    """The base mapping held constant in time, read time-major."""
    return CurveOfMappings(grid, (family.base_mapping(),) * len(grid))


def base_mapping_of_curves(grid: TimeGrid, family: MappingFamily) -> MappingOfCurves:
    """The base mapping held constant in time, read atom-major."""
    return MappingOfCurves(
        family, grid,
        tuple((v,) * len(grid) for v in family.base_values))


def _require_shared(a, b, kind: str) -> None:
    if a.family is not b.family:
        raise SpaceMismatchError(f"{kind} must share one family object")
    if a.grid != b.grid:
        raise SpaceMismatchError(f"{kind} must share one time grid")


def d_pp(c1: CurveOfMappings, c2: CurveOfMappings, p) -> float:
    """Iterated norm, time outside: time-p-norm of ``t -> d_p(c1(t), c2(t))``.

    For ``p = inf`` this is the supremum over positive-weight nodes of the
    sup-distance of the node mappings.
    """
    if not isinstance(c1, CurveOfMappings) or not isinstance(c2, CurveOfMappings):
        raise ValidationError("d_pp expects two CurveOfMappings")
    _require_shared(c1, c2, "curves of mappings")
    p = check_p(p)
    tau = c1.grid.node_weights
    if math.isinf(p):
        vals = [d_p(a, b, p) for (a, b, w) in
                zip(c1.mappings, c2.mappings, tau) if w > 0.0]
        return float(max(vals)) if vals else 0.0
    total = 0.0
    for a, b, w in zip(c1.mappings, c2.mappings, tau):
        if w == 0.0:
            continue
        total += w * d_p(a, b, p) ** p
    return float(total ** (1.0 / p))


def D_pp(m1: MappingOfCurves, m2: MappingOfCurves, p) -> float:
    """Iterated norm, atoms outside: atom-p-norm of per-atom time-p-norms.

    For ``p = inf`` this is the supremum over positive-mass atoms of the
    per-atom sup-distance over positive-weight nodes.
    """
    if not isinstance(m1, MappingOfCurves) or not isinstance(m2, MappingOfCurves):
        raise ValidationError("D_pp expects two MappingOfCurves")
    _require_shared(m1, m2, "mappings of curves")
    p = check_p(p)
    tgt = m1.family.target
    tau = m1.grid.node_weights
    w = m1.family.base_space.weights_array
    if math.isinf(p):
        best = 0.0
        for j in m1.family.base_space.positive_atoms:
            for i in range(len(m1.grid)):
                if tau[i] <= 0.0:
                    continue
                best = max(best, tgt.distance(m1.atom_values[j][i],
                                              m2.atom_values[j][i]))
        return float(best)
    total = 0.0
    for j in range(len(w)):
        if w[j] == 0.0:
            continue
        inner = 0.0
        for i in range(len(m1.grid)):
            if tau[i] == 0.0:
                continue
            inner += tau[i] * tgt.distance(m1.atom_values[j][i],
                                           m2.atom_values[j][i]) ** p
        total += w[j] * inner
    return float(total ** (1.0 / p))


# ---------------------------------------------------------------------------
# Rectangle compression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RectangleApproximation:
    """Result of greedy rectangle compression of product data."""

    approximation: ProductGridMapping
    n_rectangles: int
    error: float


def approximate_by_rectangles(pm: ProductGridMapping, p, tol: float,
                              max_rectangles: int | None = None
                              ) -> RectangleApproximation:
    """Greedily split node-range x atom-set rectangles until the product
    norm error drops to ``tol`` (or the rectangle budget runs out).

    Each rectangle is represented by its first value; the worst rectangle
    (largest weighted error contribution) is halved along its longer
    extent first.  The reported error is the exact product norm between the
    input and its rectangular approximation.
    """
    p = check_p(p, allow_inf=False)
    tol = float(tol)
    if not math.isfinite(tol) or tol < 0.0:
        raise ValidationError(f"tol must be finite and nonnegative, got {tol!r}")
    if max_rectangles is not None and (
            not isinstance(max_rectangles, (int, np.integer)) or max_rectangles < 1):
        raise ValidationError(
            f"max_rectangles must be a positive integer, got {max_rectangles!r}")

    tgt = pm.family.target
    tau = pm.grid.node_weights
    w = pm.family.base_space.weights_array
    n_nodes = len(pm.grid)
    n_atoms = len(w)

    def contribution(nodes: range, atoms: tuple[int, ...], rep):
        total = 0.0
        for i in nodes:
            if tau[i] == 0.0:
                continue
            for j in atoms:
                if w[j] == 0.0:
                    continue
                total += tau[i] * w[j] * tgt.distance(pm.values[i][j], rep) ** p
        return total

    def make(nodes: range, atoms: tuple[int, ...]):
        rep = pm.values[nodes.start][atoms[0]]
        return [contribution(nodes, atoms, rep), nodes, atoms, rep]

    rects = [make(range(n_nodes), tuple(range(n_atoms)))]
    budget = math.inf if max_rectangles is None else int(max_rectangles)
    while len(rects) < budget:
        errors = [r[0] for r in rects]
        if sum(errors) ** (1.0 / p) <= tol:
            break
        k = int(np.argmax(errors))
        _, nodes, atoms, _ = rects[k]
        if len(nodes) >= 2:
            mid = nodes.start + len(nodes) // 2
            parts = [(range(nodes.start, mid), atoms),
                     (range(mid, nodes.stop), atoms)]
        elif len(atoms) >= 2:
            half = len(atoms) // 2
            parts = [(nodes, atoms[:half]), (nodes, atoms[half:])]
        else:
            break  # single cell: representative equals the value, error 0
        rects[k:k + 1] = [make(nds, ats) for nds, ats in parts]

    grid_values = [[None] * n_atoms for _ in range(n_nodes)]
    for _, nodes, atoms, rep in rects:
        for i in nodes:
            for j in atoms:
                grid_values[i][j] = rep
    approx = ProductGridMapping(pm.grid, pm.family,
                                tuple(tuple(row) for row in grid_values))
    return RectangleApproximation(
        approximation=approx,
        n_rectangles=len(rects),
        error=float(product_lp_norm(pm, approx, p)),
    )
