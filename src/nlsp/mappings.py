"""Finite measure spaces and p-integrable mappings into metric targets.

A :class:`FiniteMeasureSpace` is an ordered tuple of named atoms with
nonnegative weights; null sets are exactly the subsets of zero-weight atoms,
so "almost everywhere" statements are decidable.  A :class:`MappingFamily`
fixes the base space, the target and the shared base mapping ``h``; the
mappings of one family form a metric space under the weighted p-norm of
pointwise target distances (:func:`d_p`), with ``p = inf`` taken as the
maximum over positive-weight atoms.

:class:`ProductGridMapping` extends this to time-indexed data on a
:class:`TimeGrid`, with :func:`product_lp_norm` as the product-space
distance and :func:`rectangular_simple` building piecewise-constant data
from disjoint rectangles.

Every container holds its points as one float batch of the target,
validated by one ``as_points`` call, with the atoms (after the time nodes,
for product data) as batch axes; distances and norms are array
expressions over it.  A point of :class:`LpSpace` is a mapping's values
array ``(atom, *point_shape)``, so a curve of mappings is one ``(node,
atom, *point_shape)`` array.  That array has two readings: along its
first axis a curve in ``L^p(Omega; X)``, along its second a mapping into
curves of ``X`` — the nonlinear Fubini identification
``L^p(I; L^p(Omega; X)) = L^p(Omega; L^p(I; X))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SpaceMismatchError, ValidationError
from .targets import (
    POINT_EQ_TOL,
    TargetSpace,
    _check_batch_shape,
    make_target,
)


def check_p(p, *, allow_inf: bool = True) -> float:
    """Validate an integrability exponent ``p``; returns it as a float."""
    if isinstance(p, str):
        if p.strip().lower() in {"inf", "infinity"}:
            p = math.inf
        else:
            raise ValidationError(f"p must be a real number or 'inf', got {p!r}")
    p = float(p)
    if math.isnan(p):
        raise ValidationError("p must not be NaN")
    if math.isinf(p):
        if not allow_inf:
            raise ValidationError("p = inf is not allowed for this operation")
        return math.inf
    if p < 1.0:
        raise ValidationError(f"p must satisfy p >= 1, got {p!r}")
    return p


def check_times(times, what: str) -> tuple[float, ...]:
    """Validate a sequence of times; returns it as a tuple of floats.

    The first bad entry is named by its index and value: one that is not a
    real number, is not finite, or does not exceed its predecessor.
    """
    try:
        entries = tuple(times)
    except TypeError:
        raise ValidationError(
            f"{what} must be a sequence of numbers, got "
            f"{type(times).__name__}") from None
    out = []
    for i, t in enumerate(entries):
        try:
            x = float(t)
        except (TypeError, ValueError):
            raise ValidationError(
                f"{what}[{i}] must be a real number, got {t!r}") from None
        if not math.isfinite(x):
            raise ValidationError(f"{what}[{i}] must be finite, got {x!r}")
        if out and x <= out[-1]:
            raise ValidationError(
                f"{what} must be strictly increasing, got {what}[{i}] = "
                f"{x!r} after {out[-1]!r}")
        out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """Ordered named atoms with nonnegative weights."""

    atom_ids: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        ids = tuple(str(a) for a in self.atom_ids)
        ws = tuple(float(w) for w in self.weights)
        if len(ids) == 0:
            raise ValidationError("a measure space needs at least one atom")
        if len(ids) != len(ws):
            raise ValidationError(
                f"{len(ids)} atom ids but {len(ws)} weights")
        if len(set(ids)) != len(ids):
            raise ValidationError("atom ids must be unique")
        for a, w in zip(ids, ws):
            if not math.isfinite(w) or w < 0.0:
                raise ValidationError(
                    f"atom {a!r} must have a finite nonnegative weight, got {w!r}")
        object.__setattr__(self, "atom_ids", ids)
        object.__setattr__(self, "weights", ws)

    def __len__(self) -> int:
        return len(self.atom_ids)

    @cached_property
    def weights_array(self) -> np.ndarray:
        arr = np.array(self.weights, dtype=float)
        arr.setflags(write=False)
        return arr

    @property
    def total_mass(self) -> float:
        return float(self.weights_array.sum())

    @cached_property
    def positive_atoms(self) -> tuple[int, ...]:
        """Indices of atoms with strictly positive weight, ascending."""
        return tuple(int(j) for j in np.nonzero(self.weights_array > 0.0)[0])


def uniform_space(n: int, mass: float = 1.0, prefix: str = "x") -> FiniteMeasureSpace:
    """``n`` atoms of equal weight summing to ``mass``."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    if not math.isfinite(float(mass)) or float(mass) < 0.0:
        raise ValidationError(f"mass must be finite and nonnegative, got {mass!r}")
    w = float(mass) / n
    return FiniteMeasureSpace(tuple(f"{prefix}{j}" for j in range(n)), (w,) * n)


@dataclass(frozen=True, eq=False)
class MappingFamily:
    """A base measure space, a target and the shared base mapping ``h``.

    Every mapping of the family holds a reference to the same family object,
    so "same base mapping" is checked by identity, never by value.
    """

    base_space: FiniteMeasureSpace
    target: TargetSpace
    base_values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.base_space, FiniteMeasureSpace):
            raise ValidationError(
                f"base_space must be a FiniteMeasureSpace, got "
                f"{type(self.base_space).__name__}")
        if not isinstance(self.target, TargetSpace):
            raise ValidationError(
                f"target must be a TargetSpace, got {type(self.target).__name__}")
        object.__setattr__(self, "base_values", self.target.as_points(
            self.base_values, (len(self.base_space),)))

    def mapping(self, values) -> "MetricMapping":
        return MetricMapping(self, values)

    def base_mapping(self) -> "MetricMapping":
        """The base mapping ``h`` itself, as a member of the family."""
        return MetricMapping(self, self.base_values)

    def random_mapping(self, rng: np.random.Generator) -> "MetricMapping":
        return MetricMapping(
            self, self.target.random_points(rng, len(self.base_space)))


def constant_family(base_space: FiniteMeasureSpace, target: TargetSpace,
                    y) -> MappingFamily:
    """Family whose base mapping is constant at the point ``y``."""
    y = target.as_point(y)
    return MappingFamily(base_space, target, (y,) * len(base_space))


@dataclass(frozen=True, eq=False)
class MetricMapping:
    """One atomwise assignment of target points, bound to its family.

    ``values`` is one batch of the target over the atoms: ``values[j]`` is
    the point of atom ``j``.
    """

    family: MappingFamily
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", self.family.target.as_points(
            self.values, (len(self.family.base_space),)))

    @property
    def base_space(self) -> FiniteMeasureSpace:
        return self.family.base_space

    @property
    def target(self) -> TargetSpace:
        return self.family.target

    def value(self, j: int):
        return self.values[j]

    def __getitem__(self, j: int):
        return self.values[j]


def _require_same_family(f: MetricMapping, g: MetricMapping) -> None:
    if not isinstance(f, MetricMapping) or not isinstance(g, MetricMapping):
        raise ValidationError("both arguments must be MetricMapping instances")
    if f.family is not g.family:
        raise SpaceMismatchError(
            "mappings must come from the same family (same base space, "
            "target and base mapping, compared by identity)")


def atom_distances(f: MetricMapping, g: MetricMapping) -> np.ndarray:
    """Pointwise target distances ``d_N(f_j, g_j)`` over all atoms."""
    _require_same_family(f, g)
    return f.target.distances(f.values, g.values)


def _weighted_norm(dists: np.ndarray, weights: np.ndarray,
                   p: float) -> np.ndarray:
    """Weighted p-norm over the last axis of pointwise distances.

    For ``p = inf`` the maximum over positive weights (zero if none).
    """
    if math.isinf(p):
        pos = weights > 0.0
        if not pos.any():
            return np.zeros(dists.shape[:-1])
        return dists[..., pos].max(axis=-1)
    # keepdims: the root is taken by the array power loop for every batch
    # shape, so one pair and a batch of pairs round alike.
    total = np.add.reduce(dists ** p * weights, axis=-1, keepdims=True)
    return (total ** (1.0 / p))[..., 0]


def d_p(f: MetricMapping, g: MetricMapping, p) -> float:
    """Weighted p-norm distance between two mappings of one family.

    ``(sum_j w_j d(f_j, g_j)^p)^{1/p}`` for finite ``p``; for ``p = inf``
    the maximum pointwise distance over positive-weight atoms.
    """
    p = check_p(p)
    return float(_weighted_norm(atom_distances(f, g),
                                f.base_space.weights_array, p))


def ae_equal(f: MetricMapping, g: MetricMapping,
             tol: float = POINT_EQ_TOL) -> bool:
    """Whether two mappings agree on every positive-weight atom."""
    _require_same_family(f, g)
    return _ae_equal(f.family, f.values, g.values, tol)


def _ae_equal(family: MappingFamily, fs: np.ndarray, gs: np.ndarray,
              tol: float) -> bool:
    tgt = family.target
    return all(tgt.points_equal(fs[j], gs[j], tol)
               for j in family.base_space.positive_atoms)


class LpSpace:
    """The mappings of one family viewed as a metric space under ``d_p``.

    Provides the interface that curve calculus expects of an ambient space:
    ``distance`` / ``points_equal`` / ``as_point`` and their batched forms
    ``distances`` / ``as_points``.  A point is a mapping's values array of
    shape ``(atom, *point_shape)``, and a batch is one float array of shape
    ``(..., atom, *point_shape)``; the target validates it in one call.
    """

    def __init__(self, family: MappingFamily, p):
        if not isinstance(family, MappingFamily):
            raise ValidationError(
                f"family must be a MappingFamily, got {type(family).__name__}")
        self.family = family
        self.p = check_p(p)

    def distance(self, f, g) -> float:
        return float(self.distances(f, g))

    def distances(self, fs, gs) -> np.ndarray:
        """``d_p`` between two batches of points, broadcast together; one
        target call covers every atom of every pair.  Like the target
        kernels, it takes validated points (or mappings of the family)."""
        dists = self.family.target.distances(
            np.asarray(self._unwrap(fs), float),
            np.asarray(self._unwrap(gs), float))
        return _weighted_norm(dists, self.family.base_space.weights_array,
                              self.p)

    def points_equal(self, f, g, tol: float = POINT_EQ_TOL) -> bool:
        return _ae_equal(self.family, self._unwrap(f), self._unwrap(g), tol)

    def _unwrap(self, values):
        """The values of a mapping of this family, or of a sequence of them
        stacked; any other input as it is."""
        if isinstance(values, MetricMapping):
            return self._values_of(values)
        if isinstance(values, (list, tuple)) and values \
                and isinstance(values[0], MetricMapping):
            return np.stack([self._values_of(f) for f in values])
        return values

    def _values_of(self, f) -> np.ndarray:
        if not isinstance(f, MetricMapping):
            raise ValidationError(
                f"expected a MetricMapping, got {type(f).__name__}")
        if f.family is not self.family:
            raise SpaceMismatchError("mapping belongs to a different family")
        return f.values

    def as_point(self, f) -> np.ndarray:
        return self.as_points(f, ())

    def as_points(self, values, shape=None) -> np.ndarray:
        """Validate a batch of points: a float array of shape ``(...,
        atom, *point_shape)``, a mapping of this family, or a sequence of
        them, whose values are stacked."""
        points = self.family.target.as_points(self._unwrap(values))
        lead = points.ndim - len(self.family.target.point_shape)
        n_atoms = len(self.family.base_space)
        if lead < 1 or points.shape[lead - 1] != n_atoms:
            raise ValidationError(
                f"expected points of {n_atoms} atoms, got a batch of shape "
                f"{points.shape[:lead]}")
        _check_batch_shape(points.shape[:lead - 1], shape)
        return points

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LpSpace(p={self.p}, atoms={len(self.family.base_space)}, "
                f"target={self.family.target.kind})")


# ---------------------------------------------------------------------------
# Time grids and product mappings
# ---------------------------------------------------------------------------

#: Node-weight rules for time integration on a grid.
GRID_RULES = ("trapezoid", "left_cells")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes with a node-weight rule.

    ``trapezoid`` weights suit data sampled pointwise in time;
    ``left_cells`` gives node ``i < K`` the full length of cell
    ``[t_i, t_{i+1})`` and the last node weight zero, which integrates
    piecewise-constant-in-time data exactly.
    """

    nodes: tuple[float, ...]
    rule: str = "trapezoid"

    def __post_init__(self):
        nodes = check_times(self.nodes, "time nodes")
        if len(nodes) < 2:
            raise ValidationError("a time grid needs at least two nodes")
        if self.rule not in GRID_RULES:
            raise ValidationError(
                f"unknown grid rule {self.rule!r}; expected one of {GRID_RULES}")
        object.__setattr__(self, "nodes", nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def a(self) -> float:
        return self.nodes[0]

    @property
    def b(self) -> float:
        return self.nodes[-1]

    @cached_property
    def nodes_array(self) -> np.ndarray:
        arr = np.array(self.nodes, dtype=float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Integration weight of every node under the grid's rule."""
        t = self.nodes_array
        cells = np.diff(t)
        w = np.zeros(len(t))
        if self.rule == "trapezoid":
            w[:-1] += 0.5 * cells
            w[1:] += 0.5 * cells
        else:  # left_cells
            w[:-1] = cells
        w.setflags(write=False)
        return w


def uniform_grid(a: float, b: float, n_nodes: int,
                 rule: str = "trapezoid") -> TimeGrid:
    """Equally spaced grid with ``n_nodes`` nodes on ``[a, b]``."""
    if not isinstance(n_nodes, (int, np.integer)) or n_nodes < 2:
        raise ValidationError(f"n_nodes must be an integer >= 2, got {n_nodes!r}")
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValidationError(f"need finite a < b, got a={a!r}, b={b!r}")
    return TimeGrid(tuple(np.linspace(a, b, int(n_nodes))), rule)


def _check_grid_and_family(container) -> None:
    """Reject product data, or a reading of it, whose grid is not a
    :class:`TimeGrid` or whose family is not a :class:`MappingFamily`."""
    if not isinstance(container.grid, TimeGrid):
        raise ValidationError(
            f"grid must be a TimeGrid, got {type(container.grid).__name__}")
    if not isinstance(container.family, MappingFamily):
        raise ValidationError(
            f"family must be a MappingFamily, got "
            f"{type(container.family).__name__}")


@dataclass(frozen=True, eq=False)
class ProductGridMapping:
    """Target values on (time node) x (atom), bound to a grid and family.

    ``values`` is one batch of the target over the axes (time node, atom):
    ``values[i, j]`` is the point assigned to node ``i`` and atom ``j``.
    """

    grid: TimeGrid
    family: MappingFamily
    values: np.ndarray

    def __post_init__(self):
        _check_grid_and_family(self)
        object.__setattr__(self, "values", self.family.target.as_points(
            self.values, (len(self.grid), len(self.family.base_space))))

    def value(self, i: int, j: int):
        return self.values[i, j]


def constant_in_time(grid: TimeGrid, f: MetricMapping) -> ProductGridMapping:
    """Extend a single mapping to a time-constant product mapping; its
    values are a read-only broadcast view of ``f``'s."""
    return ProductGridMapping(grid, f.family, np.broadcast_to(
        f.values, (len(grid),) + f.values.shape))


def rectangular_simple(time_grid: TimeGrid, base_space: FiniteMeasureSpace,
                       rectangles, h: MetricMapping) -> ProductGridMapping:
    """Piecewise-constant product data from disjoint rectangles over ``h``.

    Each rectangle is ``((t_lo, t_hi), atom_indices, point)``: on grid cells
    contained in ``[t_lo, t_hi)`` and the listed atoms the result takes the
    rectangle's point; everywhere else it takes the base mapping's value for
    that atom.  Rectangle time intervals must start and end on grid nodes,
    and rectangles must be pairwise disjoint as (cell set) x (atom set)
    products.  The returned mapping's grid uses the ``left_cells`` rule, so
    time integration of the step structure is exact, and the value at the
    final node repeats the last cell (the data is right-continuous in time).
    """
    if not isinstance(h, MetricMapping):
        raise ValidationError(f"h must be a MetricMapping, got {type(h).__name__}")
    if h.base_space is not base_space:
        raise SpaceMismatchError(
            "h must be defined on the same base space object as the rectangles")
    nodes = time_grid.nodes_array
    n_cells = len(nodes) - 1
    tgt = h.target

    def node_index(t: float, what: str) -> int:
        idx = int(np.searchsorted(nodes, t))
        if idx >= len(nodes) or abs(nodes[idx] - t) > 1e-12:
            raise ValidationError(
                f"{what} {t!r} must coincide with a grid node")
        return idx

    covered = np.zeros((n_cells, len(base_space)), dtype=bool)
    # Every cell starts at h's values; the rectangles paint over them.
    cells = np.repeat(h.values[None], n_cells, axis=0)
    for r, rect in enumerate(rectangles):
        try:
            (t_lo, t_hi), atoms, point = rect
        except (TypeError, ValueError):
            raise ValidationError(
                f"rectangle {r} must be ((t_lo, t_hi), atom_indices, point), "
                f"got {rect!r}")
        lo = node_index(float(t_lo), f"rectangle {r} start")
        hi = node_index(float(t_hi), f"rectangle {r} end")
        if hi <= lo:
            raise ValidationError(
                f"rectangle {r} has empty time interval [{t_lo!r}, {t_hi!r})")
        atoms = [int(j) for j in atoms]
        if not atoms:
            raise ValidationError(f"rectangle {r} lists no atoms")
        for j in atoms:
            if not 0 <= j < len(base_space):
                raise ValidationError(
                    f"rectangle {r} names atom index {j} outside "
                    f"[0, {len(base_space)})")
        if len(set(atoms)) != len(atoms):
            raise ValidationError(f"rectangle {r} lists an atom twice")
        point = tgt.as_point(point)
        hits = np.argwhere(covered[lo:hi, atoms])
        if len(hits):
            i, k = hits[0]
            raise ValidationError(
                f"rectangle {r} overlaps an earlier rectangle at cell "
                f"{lo + i}, atom {base_space.atom_ids[atoms[k]]!r}")
        covered[lo:hi, atoms] = True
        cells[lo:hi, atoms] = point

    grid = TimeGrid(time_grid.nodes, "left_cells")
    return ProductGridMapping(grid, h.family,
                              np.concatenate([cells, cells[-1:]]))


def _require_same_product(c1: ProductGridMapping, c2: ProductGridMapping) -> None:
    if not isinstance(c1, ProductGridMapping) or not isinstance(c2, ProductGridMapping):
        raise ValidationError("both arguments must be ProductGridMapping instances")
    if c1.family is not c2.family:
        raise SpaceMismatchError(
            "product mappings must share the same family object")
    if c1.grid != c2.grid:
        raise SpaceMismatchError("product mappings must share the same grid")


def product_lp_norm(c1: ProductGridMapping, c2: ProductGridMapping, p) -> float:
    """Distance in the product space: time and atoms integrated together.

    ``(sum_i tau_i sum_j w_j d(c1_ij, c2_ij)^p)^{1/p}`` with ``tau`` the
    grid's node weights; for ``p = inf`` the maximum pointwise distance over
    nodes of positive time weight and atoms of positive mass.
    """
    p = check_p(p)
    _require_same_product(c1, c2)
    dists = c1.family.target.distances(c1.values, c2.values)
    weights = np.outer(c1.grid.node_weights, c1.family.base_space.weights_array)
    return float(_weighted_norm(dists.ravel(), weights.ravel(), p))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def mapping_to_jsonable(f: MetricMapping) -> dict:
    """JSON-able encoding of a mapping together with its family."""
    tgt = f.target
    return {
        "atoms": [{"id": a, "weight": float(w)}
                  for a, w in zip(f.base_space.atom_ids, f.base_space.weights)],
        "target": tgt.to_config(),
        "values": [tgt.point_to_jsonable(v) for v in f.values],
        "base": [tgt.point_to_jsonable(v) for v in f.family.base_values],
    }


def mapping_from_jsonable(data: dict) -> MetricMapping:
    """Rebuild a mapping (and a fresh family) from its encoding."""
    if not isinstance(data, dict):
        raise ValidationError(f"expected a dict, got {type(data).__name__}")
    missing = {"atoms", "target", "values", "base"} - set(data)
    if missing:
        raise ValidationError(f"mapping encoding is missing keys {sorted(missing)}")
    ids, weights = [], []
    for k, atom in enumerate(data["atoms"]):
        try:
            ids.append(atom["id"])
            weights.append(atom["weight"])
        except (KeyError, TypeError, IndexError):
            raise ValidationError(
                f"atom {k} must be a dict with 'id' and 'weight' keys, got "
                f"{atom!r}") from None
    space = FiniteMeasureSpace(tuple(ids), tuple(weights))
    tgt = make_target(data["target"])
    base = tuple(tgt.point_from_jsonable(v) for v in data["base"])
    family = MappingFamily(space, tgt, base)
    values = tuple(tgt.point_from_jsonable(v) for v in data["values"])
    return MetricMapping(family, values)
