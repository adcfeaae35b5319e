"""Curve calculus over an arbitrary metric space.

Works with any ambient exposing ``distance`` and the batched
``as_points`` / ``distances``: concrete targets and
:class:`~nlsp.mappings.LpSpace` alike.  Each curve validates its samples
with one ``as_points`` call and keeps them as one float array, ``values``,
whose first axis is time, so that sample distances take one batched call
too; a curve built on a canonical batch (a retimed curve, say) shares its
buffer.  A curve of mappings is one ``(node, atom, *point_shape)`` array,
and its atom slices are that array's ``swapaxes(0, 1)``.
Provides sampled curves with metric derivative, length, p-energy and
constant-speed reparametrization; right-continuous step curves with total
variation and its jump measure; and two-sided bounds for the Skorokhod
distance between step curves.  :func:`variations` reads the variation over
many subintervals off one table of jumps or segment lengths.

The Skorokhod upper bound is a dynamic program over pairs of warp knots
that charges each warp segment every cell between its end knots, so it
bounds the cost of the warp it returns without always being the cheapest
such warp.  It runs for a batch of curve pairs at once
(:func:`skorokhod_distances`):
pairs with the same number of merged knots share one program, with the
pairs on a leading axis, and a single pair is a batch of one.  Each cell
takes the cheapest predecessor, ties resolved to the first in row-major
order, so a pair's bounds and optimal warp do not depend on the batch it
is computed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SpaceMismatchError, ValidationError
from .mappings import check_p, check_times


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """A curve known at finitely many strictly increasing times.

    ``values`` is one batch of the ambient space: ``values[i]`` is the
    sample at ``times[i]``.
    """

    space: object
    times: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self):
        times = check_times(self.times, "curve times")
        if not times:
            raise ValidationError("curve times must not be empty")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values",
                           self.space.as_points(self.values, (len(times),)))

    def __len__(self) -> int:
        return len(self.times)

    @property
    def interval(self) -> tuple[float, float]:
        return (self.times[0], self.times[-1])

    @cached_property
    def times_array(self) -> np.ndarray:
        arr = np.array(self.times, dtype=float)
        arr.setflags(write=False)
        return arr

    def segment_lengths(self) -> np.ndarray:
        """Distances between consecutive samples."""
        return self.space.distances(self.values[:-1], self.values[1:])


def _require_multinode(c: SampledCurve, op: str) -> None:
    if not isinstance(c, SampledCurve):
        raise ValidationError(f"{op} expects a SampledCurve, got {type(c).__name__}")
    if len(c) < 2:
        raise ValidationError(
            f"{op} needs a curve with at least two time nodes, got {len(c)}")


def metric_derivative(c: SampledCurve) -> np.ndarray:
    """Discrete metric speed ``|c'|(t_i)`` at every node.

    Interior nodes use the centered quotient
    ``d(c(t_{i-1}), c(t_{i+1})) / (t_{i+1} - t_{i-1})``; the endpoints use
    one-sided quotients over their single adjacent segment.
    """
    _require_multinode(c, "metric_derivative")
    return metric_speeds(c.space, c.values, c.times_array)


def metric_speeds(space, points, times) -> np.ndarray:
    """The quotients of :func:`metric_derivative` along the first axis of a
    batch of samples, with one batched distance call.

    ``points[i]`` holds the samples at ``times[i]``; further batch axes
    (atoms, say) are carried through to the result.
    """
    n = len(times)
    lo = np.r_[0, 0:n - 2, n - 2]
    hi = np.r_[1, 2:n, n - 1]
    dists = space.distances(points[lo], points[hi])
    dt = times[hi] - times[lo]
    return dists / dt.reshape(dt.shape + (1,) * (dists.ndim - 1))


def length(c: SampledCurve) -> float:
    """Chordal length: the sum of consecutive sample distances."""
    _require_multinode(c, "length")
    return float(lengths(c.space, c.values))


def energy(c: SampledCurve, p) -> float:
    """Discrete p-energy ``sum_i d(c_i, c_{i+1})^p / (t_{i+1} - t_i)^{p-1}``.

    Defined for finite ``p >= 1`` only.
    """
    p = check_p(p, allow_inf=False)
    _require_multinode(c, "energy")
    return float(energies(c.space, c.values, c.times_array, p))


def lengths(space, points) -> np.ndarray:
    """:func:`length` of a batch of samples along the first axis, with one
    batched distance call; further batch axes are carried through."""
    return table_lengths(space.distances(points[:-1], points[1:]))


def energies(space, points, times, p: float) -> np.ndarray:
    """:func:`energy` of a batch of samples along the first axis, for a
    validated finite ``p``; further batch axes are carried through."""
    return table_energies(space.distances(points[:-1], points[1:]), times, p)


def table_lengths(seg: np.ndarray) -> np.ndarray:
    """:func:`lengths` read off ``seg``, the distances of consecutive
    samples along the first axis."""
    return _time_sums(seg)


def table_energies(seg: np.ndarray, times, p: float) -> np.ndarray:
    """:func:`energies` read off ``seg``, the distances of consecutive
    samples along the first axis, at sample times ``times``."""
    dt = np.diff(times).reshape((-1,) + (1,) * (seg.ndim - 1))
    return _time_sums(seg ** p / dt ** (p - 1.0))


def _time_sums(terms: np.ndarray) -> np.ndarray:
    """Sums over the first axis, each over one contiguous row, so that every
    batch entry is added in the order of a one-curve sum."""
    return np.ascontiguousarray(np.moveaxis(terms, 0, -1)).sum(axis=-1)


def constant_speed_reparam(c: SampledCurve, eps: float) -> SampledCurve:
    """Re-time the samples so the curve moves at (nearly) constant speed.

    Node ``i`` is moved to

    ``tau_i = a + (S_i + (t_i - a) eps / (b - a)) (b - a) / (L + eps)``

    where ``S_i`` is the cumulative chordal length and ``L`` the total; the
    values are untouched.  The ``eps > 0`` slack keeps the new times strictly
    increasing across zero-length segments, and when the input is already
    constant-speed the times are reproduced (up to roundoff far below any
    meaningful tolerance).
    """
    _require_multinode(c, "constant_speed_reparam")
    return retimed(c, c.segment_lengths(), eps)


def retimed(c: SampledCurve, seg: np.ndarray, eps: float) -> SampledCurve:
    """:func:`constant_speed_reparam` of ``c``, given ``seg``, its segment
    distances.  The retimed curve keeps the values, so ``seg`` is its table
    too."""
    eps = float(eps)
    if not math.isfinite(eps) or eps <= 0.0:
        raise ValidationError(f"eps must be a positive real, got {eps!r}")
    a, b = c.interval
    span = b - a
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(cum[-1])
    t = c.times_array
    tau = a + (cum + (t - a) * (eps / span)) * (span / (total + eps))
    tau[0] = a
    tau[-1] = b
    return SampledCurve(c.space, tuple(float(x) for x in tau), c.values)


# ---------------------------------------------------------------------------
# Step curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StepCurve:
    """A right-continuous piecewise-constant curve.

    ``values[i]`` holds on ``[breakpoints[i], breakpoints[i+1])``; the value
    at the final time ``b`` is the last piece's value, so the curve is
    defined on all of ``[a, b]``.  ``values`` is one batch of the ambient
    space.
    """

    space: object
    breakpoints: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self):
        bp = check_times(self.breakpoints, "breakpoints")
        if len(bp) < 2:
            raise ValidationError("a step curve needs at least two breakpoints")
        if len(self.values) != len(bp) - 1:
            raise ValidationError(
                f"{len(self.values)} pieces for {len(bp)} breakpoints "
                f"(need exactly breakpoints - 1)")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values",
                           self.space.as_points(self.values, (len(bp) - 1,)))

    @property
    def interval(self) -> tuple[float, float]:
        return (self.breakpoints[0], self.breakpoints[-1])

    def piece_index(self, t):
        """Index of the piece holding at time ``t`` (elementwise on arrays)."""
        a, b = self.interval
        t = np.asarray(t, dtype=float)
        outside = (t < a - 1e-12) | (t > b + 1e-12)
        if outside.any():
            raise ValidationError(
                f"time {float(t[outside].flat[0])!r} lies outside the "
                f"curve's interval [{a}, {b}]")
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        return np.clip(idx, 0, len(self.values) - 1)

    def value_at(self, t):
        """The value at time ``t``; a batch of values for an array of times."""
        return self.values[self.piece_index(t)]

    def jumps(self) -> list[tuple[float, float]]:
        """Interior breakpoints with the distance jumped there, ascending."""
        jumps = self.space.distances(self.values[:-1], self.values[1:])
        return [(at, float(jump))
                for at, jump in zip(self.breakpoints[1:-1], jumps)]


def variation(c, subinterval: tuple[float, float] | None = None) -> float:
    """Total variation over an open subinterval (default: all of ``(a, b)``).

    For a step curve this is the sum of jump distances at breakpoints
    strictly inside the subinterval.  For a sampled curve it is the chordal
    length over the sample segments wholly contained in the subinterval's
    closure.  This is :func:`variations` on a batch of one subinterval.
    """
    return float(variations(c, [subinterval])[0])


def variations(c, subintervals) -> np.ndarray:
    """:func:`variation` over each ``(s, t)`` of ``subintervals`` (``None``
    for the whole interval), in input order.

    The curve's table of jumps (a step curve) or segment lengths (a sampled
    curve) is computed once, with one ``distances`` call; each variation is
    a masked sum over it, added in ascending time order.
    """
    inside = _variation_masks(c, subintervals)
    if isinstance(c, StepCurve):
        table = c.space.distances(c.values[:-1], c.values[1:])
    else:
        table = c.segment_lengths()
    return _ascending_sums(table, inside)


def _variation_masks(c, subintervals) -> np.ndarray:
    """``inside[k, i]``: whether jump (or segment) ``i`` of ``c`` counts
    towards the variation over subinterval ``k``."""
    if not isinstance(c, (StepCurve, SampledCurve)):
        raise ValidationError(
            f"variation expects a StepCurve or SampledCurve, got {type(c).__name__}")
    if isinstance(c, SampledCurve):
        _require_multinode(c, "variation")
    bounds = []
    for sub in subintervals:
        s, t = c.interval if sub is None else map(float, sub)
        if t < s:
            raise ValidationError(f"empty subinterval ({s!r}, {t!r})")
        bounds.append((s, t))
    s, t = np.array(bounds, dtype=float).reshape(-1, 2, 1).swapaxes(0, 1)
    if isinstance(c, StepCurve):
        at = np.array(c.breakpoints[1:-1])
        return (s < at) & (at < t)
    times = c.times_array
    return (times[:-1] >= s) & (times[1:] <= t)


def _ascending_sums(table: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """``sum_i table[i]`` over the ``i`` with ``inside[k, i]``, for every
    row ``k``: shape ``(k, *table.shape[1:])``.

    The terms are added one at a time in ascending ``i``, as Python's
    ``sum`` adds a list, and a term left out adds an exact zero.
    """
    mask = inside.reshape(inside.shape + (1,) * (table.ndim - 1))
    terms = np.where(mask, table, 0.0)
    start = np.zeros_like(terms[:, :1])
    return np.cumsum(np.concatenate([start, terms], axis=1), axis=1)[:, -1]


@dataclass(frozen=True)
class VariationMeasure:
    """The purely atomic variation measure of a step curve.

    Atoms sit at the curve's interior jump times and carry the jump
    distances as masses; open intervals and single points are measurable.
    """

    interval: tuple[float, float]
    jump_times: tuple[float, ...]
    jump_masses: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.jump_times)
        masses = tuple(float(m) for m in self.jump_masses)
        if len(times) != len(masses):
            raise ValidationError(
                f"{len(times)} jump times for {len(masses)} masses")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("jump times must be strictly increasing")
        if any(m < 0.0 for m in masses):
            raise ValidationError("jump masses must be nonnegative")
        object.__setattr__(self, "interval", tuple(map(float, self.interval)))
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "jump_masses", masses)

    @property
    def total(self) -> float:
        return float(sum(self.jump_masses))

    def of_open_interval(self, s: float, t: float) -> float:
        """Mass of the open interval ``(s, t)``."""
        s, t = float(s), float(t)
        if t < s:
            raise ValidationError(f"empty interval ({s!r}, {t!r})")
        return float(sum(m for at, m in zip(self.jump_times, self.jump_masses)
                         if s < at < t))

    def of_point(self, t: float, tol: float = 1e-12) -> float:
        """Mass of the singleton ``{t}``."""
        t = float(t)
        return float(sum(m for at, m in zip(self.jump_times, self.jump_masses)
                         if abs(at - t) <= tol))

    def cumulative(self, t: float) -> float:
        """Variation accumulated strictly before ``t``."""
        return self.of_open_interval(self.interval[0], t)


def variation_measure(c: StepCurve) -> VariationMeasure:
    """Jump measure of a step curve; its open intervals reproduce
    :func:`variation` exactly."""
    if not isinstance(c, StepCurve):
        raise ValidationError(
            f"variation_measure expects a StepCurve, got {type(c).__name__}")
    jumps = c.jumps()
    return VariationMeasure(
        interval=c.interval,
        jump_times=tuple(at for at, _ in jumps),
        jump_masses=tuple(j for _, j in jumps),
    )


# ---------------------------------------------------------------------------
# Skorokhod distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkorokhodBounds:
    """Certified two-sided bounds on the Skorokhod distance.

    ``upper`` bounds the cost of the returned piecewise-linear time warp
    (``input_knots`` -> ``output_knots``), and through it the distance;
    ``lower`` comes from the value-set mismatch of the two curves, which no
    time warp can repair.
    """

    upper: float
    lower: float
    input_knots: tuple[float, ...]
    output_knots: tuple[float, ...]


def _merged_knots(c: StepCurve, g: StepCurve, warp_grid: int) -> np.ndarray:
    a, b = c.interval
    raw = np.unique(np.concatenate([
        np.array(c.breakpoints), np.array(g.breakpoints),
        np.linspace(a, b, warp_grid + 1)]))
    tol = 1e-12 * (b - a)
    keep = [float(raw[0])]
    for x in raw[1:]:
        if float(x) - keep[-1] > tol:
            keep.append(float(x))
    keep[0], keep[-1] = a, b
    return np.array(keep)


def skorokhod_distance(c: StepCurve, g: StepCurve,
                       warp_grid: int = 16) -> SkorokhodBounds:
    """Two-sided bounds on the Skorokhod distance between step curves.

    The distance is the infimum over increasing time warps ``lam`` of
    ``max(||lam||, sup_t d(c(t), g(lam(t))))`` where ``||lam||`` is the
    largest absolute log-slope of the warp.  The upper bound is a dynamic
    program over piecewise-linear warps whose knots come from both curves'
    breakpoints plus a uniform grid with ``warp_grid`` cells.  It charges
    each warp segment the largest piece distance over the whole rectangle
    of cells between its end knots, not only the cells the segment
    crosses, so ``upper`` bounds the cost of the returned warp, and through
    it the distance, but need not be the cheapest such warp.  Doubling
    ``warp_grid`` only enlarges the warp family, so the upper bound is
    monotone under refinement.  The lower bound is the two-sided mismatch
    between the curves' value sets.

    This is :func:`skorokhod_distances` on a batch of one pair.
    """
    _check_pair(c, g)
    return skorokhod_distances([(c, g)], warp_grid)[0]


def skorokhod_distances(pairs, warp_grid: int = 16) -> list[SkorokhodBounds]:
    """:func:`skorokhod_distance` for every ``(c, g)`` pair, in input order.

    Pairs whose merged knot sets have the same size ``n`` share one run of
    the dynamic program, with the pairs on a leading batch axis; the work
    per pair and per knot cell is that of a single pair.  Each cell
    ``(i2, j2)`` takes the cheapest predecessor ``(i, j)``, ties resolved
    to the first in row-major order (argmin's first-occurrence rule over
    each pair's flattened ``(i, j)`` block), so a pair's bounds and warp do
    not depend on the batch it shares.
    """
    pairs = list(pairs)
    for i, pair in enumerate(pairs):
        try:
            c, g = pair
        except (TypeError, ValueError):
            raise ValidationError(
                f"skorokhod_distances expects (c, g) pairs, got "
                f"{type(pair).__name__} at pair {i}") from None
        _check_pair(c, g, f" (pair {i})")
    if not isinstance(warp_grid, (int, np.integer)) or warp_grid < 1:
        raise ValidationError(
            f"warp_grid must be a positive integer, got {warp_grid!r}")

    knots = [_merged_knots(c, g, int(warp_grid)) for c, g in pairs]
    out = [None] * len(pairs)
    for n in sorted({len(k) for k in knots}):
        group = [b for b, k in enumerate(knots) if len(k) == n]
        pieces = np.stack([_pieces(*pairs[b], knots[b]) for b in group])
        value, pred = _warp_program(np.stack([knots[b] for b in group]),
                                    pieces)
        for row, b in enumerate(group):
            out[b] = _bounds(knots[b], pieces[row], value[row], pred[row])
    return out


def _check_pair(c, g, where: str = "") -> None:
    """Refuse two curves the program cannot compare; ``where`` names the
    pair within a batch."""
    if not isinstance(c, StepCurve) or not isinstance(g, StepCurve):
        raise ValidationError(
            f"skorokhod_distance expects two StepCurve inputs{where}")
    if c.space is not g.space:
        raise SpaceMismatchError(
            f"step curves must share the same ambient space object{where}")
    if c.interval != g.interval:
        raise SpaceMismatchError(
            f"step curves must share their time interval, got "
            f"{c.interval} and {g.interval}{where}")


def _pieces(c: StepCurve, g: StepCurve, knots: np.ndarray) -> np.ndarray:
    """``pieces[k, l]``: distance between ``c`` on knot cell ``k`` and ``g``
    on knot cell ``l``."""
    return c.space.distances(c.value_at(knots[:-1])[:, None],
                             g.value_at(knots[:-1])[None, :])


def _warp_program(knots: np.ndarray, pieces: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The dynamic program over warp knot pairs for a batch of ``B`` pairs
    with ``n`` knots each: ``knots`` is ``(B, n)``, ``pieces`` ``(B, n-1,
    n-1)``.

    ``value[b, i, j]`` is the best achievable cost of a warp of pair ``b``
    matching ``knots[b, i]`` in the input scale to ``knots[b, j]`` in the
    output scale, having covered ``[a, knots[b, i])``; ``pred[b, i, j]`` is
    its predecessor as a flat index into the ``(i, j)`` block of cell
    ``(i, j)``.
    """
    batch, n = knots.shape
    every = np.arange(batch)
    value = np.full((batch, n, n), math.inf)
    value[:, 0, 0] = 0.0
    pred = np.full((batch, n, n), -1, dtype=np.int64)
    # logs[k][b, m] = log(knots[b, k] - knots[b, m]) for m < k.
    logs = [np.log(knots[:, k, None] - knots[:, :k]) for k in range(n)]
    # rows[b, i, l]: max of pieces[b, i:i2, l], the cells the segment from
    # row i to row i2 crosses; rv[b, i, j]: max of rows[b, i, j:j2] and of
    # value[b, i, j], which is final for every i < i2.  Maxima are exact, so
    # growing them one row or column at a time gives the same numbers as
    # any other order.
    rows = np.empty_like(pieces)
    rv = np.empty_like(pieces)
    cand = np.empty(batch * (n - 1) * (n - 1))
    for i2 in range(1, n):
        np.maximum(rows[:, :i2 - 1], pieces[:, i2 - 1:i2],
                   out=rows[:, :i2 - 1])
        rows[:, i2 - 1] = pieces[:, i2 - 1]
        log_in = logs[i2][:, :, None]
        for j2 in range(1, n):
            np.maximum(rv[:, :i2, :j2 - 1], rows[:, :i2, j2 - 1:j2],
                       out=rv[:, :i2, :j2 - 1])
            np.maximum(rows[:, :i2, j2 - 1], value[:, :i2, j2 - 1],
                       out=rv[:, :i2, j2 - 1])
            block = cand[:batch * i2 * j2].reshape(batch, i2, j2)
            np.subtract(logs[j2][:, None, :], log_in, out=block)
            np.abs(block, out=block)
            np.maximum(block, rv[:, :i2, :j2], out=block)
            flat = block.reshape(batch, -1).argmin(axis=1)
            value[:, i2, j2] = block.reshape(batch, -1)[every, flat]
            pred[:, i2, j2] = flat
    return value, pred


def _bounds(knots: np.ndarray, pieces: np.ndarray, value: np.ndarray,
            pred: np.ndarray) -> SkorokhodBounds:
    """Read one pair's bounds and optimal warp off its program."""
    n = len(knots)
    lower = max(float(pieces.min(axis=1).max()),
                float(pieces.min(axis=0).max()), 0.0)
    path = [(n - 1, n - 1)]
    while path[-1] != (0, 0):
        i, j = path[-1]
        flat = int(pred[i, j])
        path.append((flat // j, flat % j))
    path.reverse()
    return SkorokhodBounds(
        upper=float(value[n - 1, n - 1]),
        lower=float(lower),
        input_knots=tuple(float(knots[i]) for i, _ in path),
        output_knots=tuple(float(knots[j]) for _, j in path),
    )
