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
distance.

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
from .targets import TargetSpace, _check_batch_shape


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


def check_count(n, what: str) -> int:
    """Validate a count of trials, curves or atoms; returns it as an int."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"{what} must be a positive integer, got {n!r}")
    return int(n)


def check_nonempty(values, what: str) -> tuple:
    """Validate a sequence of inputs that needs at least one entry
    (exponents, targets, node counts); returns it as a tuple."""
    values = tuple(values)
    if not values:
        raise ValidationError(f"{what} must not be empty")
    return values


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


def uniform_space(n: int, mass: float = 1.0, prefix: str = "x") -> FiniteMeasureSpace:
    """``n`` atoms of equal weight summing to ``mass``."""
    check_count(n, "n")
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
    ``weights`` broadcasts against ``dists``.
    """
    if math.isinf(p):
        pos = weights > 0.0
        top = np.where(pos, dists, -math.inf).max(axis=-1)
        return np.where(pos.any(axis=-1), top, 0.0)
    # keepdims: the root is taken by the array power loop for every batch
    # shape, so one pair and a batch of pairs round alike.
    total = np.add.reduce(dists ** p * weights, axis=-1, keepdims=True)
    return (total ** (1.0 / p))[..., 0]


def iterated_norms(dists: np.ndarray, weights, p: float) -> np.ndarray:
    """Iterated weighted ``p``-norms of a batch ``(..., n_1, ..., n_k)`` of
    distance tables, the last axis first; ``weights[i]`` has shape ``(...,
    n_{i+1})``.  The product norms are its one-pair forms."""
    for outer, w in reversed(list(enumerate(weights))):
        dists = _weighted_norm(
            dists, w.reshape(w.shape[:-1] + (1,) * outer + w.shape[-1:]), p)
    return dists


def d_p(f: MetricMapping, g: MetricMapping, p) -> float:
    """Weighted p-norm distance between two mappings of one family.

    ``(sum_j w_j d(f_j, g_j)^p)^{1/p}`` for finite ``p``; for ``p = inf``
    the maximum pointwise distance over positive-weight atoms.
    """
    p = check_p(p)
    return float(_weighted_norm(atom_distances(f, g),
                                f.base_space.weights_array, p))


class LpSpace:
    """The mappings of one family viewed as a metric space under ``d_p``.

    Provides the interface that curve calculus expects of an ambient
    space: the batched ``distances`` / ``as_points``.  A point is a
    mapping's values array of shape ``(atom, *point_shape)``, and a batch
    is one float array of shape ``(..., atom, *point_shape)``; the target
    validates it in one call.
    """

    def __init__(self, family: MappingFamily, p):
        if not isinstance(family, MappingFamily):
            raise ValidationError(
                f"family must be a MappingFamily, got {type(family).__name__}")
        self.family = family
        self.p = check_p(p)

    def distances(self, fs, gs) -> np.ndarray:
        """``d_p`` between two batches of points, broadcast together; one
        target call covers every atom of every pair.  Like the target
        kernels, it takes validated points."""
        return self.norms(self.family.target.distances(
            np.asarray(fs, float), np.asarray(gs, float)))

    def norms(self, dists) -> np.ndarray:
        """``d_p`` of pairs whose atom distances are ``dists``: the weighted
        ``p``-norm over its last axis."""
        return _weighted_norm(dists, self.family.base_space.weights_array,
                              self.p)

    def as_points(self, values, shape=None) -> np.ndarray:
        """Validate a batch of points: a float array of shape ``(...,
        atom, *point_shape)``."""
        points = self.family.target.as_points(values)
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
    return float(iterated_norms(dists.ravel(), [weights.ravel()], p))
