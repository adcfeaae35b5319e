"""Two sections of product-grid data and the transpose between them.

A :class:`~nlsp.mappings.ProductGridMapping` can be read time-major, as a
curve whose samples are mappings (:func:`sec_time`), or atom-major, as a
mapping whose values are target-valued curves (:func:`sec_atom`).  Both
readings are isometric to the product distance when time carries exponent
``p`` and atoms carry exponent ``p`` as well: :func:`d_pp` and :func:`D_pp`
evaluate the two iterated norms, and :func:`transpose` /
:func:`transpose_inverse` swap the readings without touching any value.

Both readings are views of one array, the product data's batch of shape
``(node, atom, *point_shape)``: :func:`sec_time` holds it as it is and
:func:`sec_atom` holds its ``swapaxes(0, 1)``.  Both inverses and both
directions of the transpose are views as well, so every reading and every
round trip shares the source's memory and is bitwise equal to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatchError, ValidationError
from .mappings import (
    MappingFamily,
    ProductGridMapping,
    TimeGrid,
    _check_grid_and_family,
    check_p,
    iterated_norms,
)


@dataclass(frozen=True, eq=False)
class CurveOfMappings:
    """Time-major reading: a curve in ``L^p(Omega; X)`` over the grid.

    ``values`` is one batch over the axes (time node, atom), in the field
    order of :class:`~nlsp.mappings.ProductGridMapping`: ``values[i]`` is
    the mapping at grid node ``i``, a point of
    :class:`~nlsp.mappings.LpSpace`.
    """

    grid: TimeGrid
    family: MappingFamily
    values: np.ndarray

    def __post_init__(self):
        _check_grid_and_family(self)
        object.__setattr__(self, "values", self.family.target.as_points(
            self.values, (len(self.grid), len(self.family.base_space))))


@dataclass(frozen=True, eq=False)
class MappingOfCurves:
    """Atom-major reading: one target-valued time series per atom.

    ``atom_values`` is one batch over the axes (atom, time node):
    ``atom_values[j, i]`` is atom ``j`` at grid node ``i``.
    """

    family: MappingFamily
    grid: TimeGrid
    atom_values: np.ndarray

    def __post_init__(self):
        _check_grid_and_family(self)
        object.__setattr__(self, "atom_values", self.family.target.as_points(
            self.atom_values, (len(self.family.base_space), len(self.grid))))


def sec_time(pm: ProductGridMapping) -> CurveOfMappings:
    """Read product data as a curve of mappings: a view of ``pm.values``."""
    return CurveOfMappings(pm.grid, pm.family, pm.values)


def sec_time_inverse(cm: CurveOfMappings) -> ProductGridMapping:
    """Product data from a curve of mappings: a view of ``cm.values``."""
    return ProductGridMapping(cm.grid, cm.family, cm.values)


def sec_atom(pm: ProductGridMapping) -> MappingOfCurves:
    """Read product data as a mapping into curve space; the atom series are
    the view ``pm.values.swapaxes(0, 1)``."""
    return MappingOfCurves(pm.family, pm.grid, pm.values.swapaxes(0, 1))


def sec_atom_inverse(mc: MappingOfCurves) -> ProductGridMapping:
    return ProductGridMapping(mc.grid, mc.family, mc.atom_values.swapaxes(0, 1))


def transpose(cm: CurveOfMappings) -> MappingOfCurves:
    """Swap the time-major reading for the atom-major one, value for value."""
    return MappingOfCurves(cm.family, cm.grid, cm.values.swapaxes(0, 1))


def transpose_inverse(mc: MappingOfCurves) -> CurveOfMappings:
    """Inverse of :func:`transpose`."""
    return CurveOfMappings(mc.grid, mc.family, mc.atom_values.swapaxes(0, 1))


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
    dists = c1.family.target.distances(c1.values, c2.values)
    return float(iterated_norms(dists, [c1.grid.node_weights,
                                        c1.family.base_space.weights_array], p))


def D_pp(m1: MappingOfCurves, m2: MappingOfCurves, p) -> float:
    """Iterated norm, atoms outside: atom-p-norm of per-atom time-p-norms.

    For ``p = inf`` this is the supremum over positive-mass atoms of the
    per-atom sup-distance over positive-weight nodes.
    """
    if not isinstance(m1, MappingOfCurves) or not isinstance(m2, MappingOfCurves):
        raise ValidationError("D_pp expects two MappingOfCurves")
    _require_shared(m1, m2, "mappings of curves")
    p = check_p(p)
    dists = m1.family.target.distances(m1.atom_values, m2.atom_values)
    return float(iterated_norms(dists, [m1.family.base_space.weights_array,
                                        m1.grid.node_weights], p))
