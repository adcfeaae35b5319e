"""Deterministic experiment suites.

Each ``run_*`` function executes one battery and returns a
:class:`SuiteResult` with JSON-able metrics, CSV-ready tables, and the
battery's gates as :class:`~nlsp.checks.Check` records, which alone
decide its pass flag and failure lines.  All randomness flows through
counter-based streams keyed by ``(seed, suite name, trial index)``
(:func:`nlsp.rng.trial_rng`), and trial results are collected in index
order, so every suite produces byte-identical output for a fixed seed.
The smooth paths of the speed and transport batteries are one
:class:`SmoothLpPaths` batch per target: stacked ``(curve, atom)``
weights and anchors, not one object per curve.

:data:`BATTERIES` holds, for each suite, the facts its callers need: the
tolerance names it reads and the config fields it accepts.  :func:`run_all`
and the command-line subcommands are built from it.  Each ``run_*`` takes
its tolerance overrides by name, in one ``tolerances`` mapping, the seed,
and what its config fields set (and ``bv_curves``, ``reparam_curves`` or
``sizes``); every other input is a module constant.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .checks import MAX, MIN, Check, Judged, reading
from .config import (
    DEFAULT_TOLERANCES,
    base_space_from_config,
    target_from_config,
)
from .curves import (
    StepCurve,
    skorokhod_distances,
    variation_measure,
    variations,
)
from .errors import ConfigError, ValidationError
from .geometry import (
    curvature_comparison_suite,
    draw_geodesic_sweep,
    retimed_energy_ratios,
)
from .mappings import (
    FiniteMeasureSpace,
    LpSpace,
    MappingFamily,
    ProductGridMapping,
    TimeGrid,
    check_count,
    check_nonempty,
    check_p,
    iterated_norms,
)
from .rng import trial_rngs, uniforms
from .sections import sec_atom, sec_time, transpose, transpose_inverse
from .speed import batch_speeds
from .targets import (FLAT, GLOBAL_NNC, GLOBAL_NPC, Euclidean, MetricTree,
                      Spd, Sphere, TargetSpace)
from .transport import (
    batch_variation_residuals,
    counterexample_p1,
    decompose_bv,
    derivative_identity_residuals,
)

#: Residual maxima below this floor are treated as exactly converged when
#: estimating empirical decay orders: the measured quantity is identically
#: zero and only arithmetic noise remains.
CONVERGENCE_FLOOR = 1e-12

#: The scaled energy of a curve may reach ``LENGTH_KAPPA^p D_p^p``.
LENGTH_KAPPA = 1.0 + 1e-6

#: Grid refinements at which the p = 1 counterexample measures atom moduli.
COUNTEREXAMPLE_REFINEMENTS = (1, 2, 4)

#: Time slack of the constant-speed retiming in the length battery: a curve
#: of length >= 1 reaches the energy bound within ``(1 + REPARAM_EPS)^p``.
REPARAM_EPS = 1e-6

#: Warp grid of the coarse Skorokhod pair bounds; the refined ones double it.
SKOROKHOD_WARP_GRID = 8

#: Atoms of a smooth random path.
SMOOTH_PATH_ATOMS = 4

#: A random polyline: its geodesic legs and its nodes; a polyline curve of
#: mappings has ``POLYLINE_ATOMS`` atoms and lives in ``L^POLYLINE_P``.
POLYLINE_LEGS = 3
POLYLINE_NODES = 33
POLYLINE_ATOMS = 3
POLYLINE_P = 2.0


@dataclass
class SuiteResult(Judged):
    """Outcome of one experiment suite; ``passed`` and ``failures`` are
    read off its ``checks``."""

    name: str
    metrics: dict
    checks: list[Check] = field(default_factory=list)
    csv: dict[str, list[list]] = field(default_factory=dict)


def _tolerances(overrides: Mapping | None) -> dict[str, float | None]:
    """:data:`~nlsp.config.DEFAULT_TOLERANCES` with ``overrides`` by name on
    top: the one place a run's tolerances are resolved."""
    overrides = dict(overrides or {})
    if unknown := sorted(set(overrides) - set(DEFAULT_TOLERANCES)):
        raise ValidationError(f"unknown tolerances {unknown}; known names: "
                              f"{sorted(DEFAULT_TOLERANCES)}")
    return {**DEFAULT_TOLERANCES, **overrides}


def map_trials(fn, n: int) -> list:
    """Run ``fn(0..n-1)`` and collect results in index order."""
    return [fn(i) for i in range(n)]


def decay_order(maxima) -> float:
    """Smallest log2 decay rate between successive grid maxima.

    Returns ``inf`` when all maxima sit below :data:`CONVERGENCE_FLOOR`:
    the residual is already at the roundoff level of an exact identity, so
    there is nothing left to decay.
    """
    maxima = [float(m) for m in maxima]
    if len(maxima) < 2:
        raise ValidationError("decay_order needs at least two grid maxima")
    if reading(maxima) <= CONVERGENCE_FLOOR:
        return math.inf
    return reading([math.inf if fine <= 0.0 else -math.inf if coarse <= 0.0
                    else math.log2(coarse / fine)
                    for coarse, fine in zip(maxima, maxima[1:])], MIN)


def _convergence_checks(gate: str, kind: str, stream: str, per_grid, grids,
                        residual_tol: float, order_min: float, what: str,
                        why: str) -> tuple[list[float], float, list[Check]]:
    """Grid maxima, decay order, and the checks of both, for a residual
    whose ``per_grid[k]`` holds each curve's largest value on grid ``k``."""
    grid_maxima = [float(m.max()) for m in per_grid]
    order = decay_order(grid_maxima)
    return grid_maxima, order, [
        Check(f"{gate}_residual[{kind}]", per_grid[-1], residual_tol, MAX,
              f"{what} at the finest grid", why, stream),
        Check(f"{gate}_order[{kind}]", order, order_min, MIN,
              f"empirical decay order across grids {list(grids)}", why)]


def check_refining_grids(grids) -> tuple[int, ...]:
    """Validate the node counts of a convergence battery: at least two,
    strictly increasing, each at least 3, so that every grid has an
    interior node and successive grids give a decay order."""
    grids = tuple(check_count(n, "a node count")
                  for n in check_nonempty(grids, "grids"))
    if len(grids) < 2 or min(grids) < 3 \
            or any(b <= a for a, b in zip(grids, grids[1:])):
        raise ValidationError(
            "convergence batteries need at least two increasing node "
            f"counts of at least 3 each, got {list(grids)}")
    return grids


def order_jsonable(order: float):
    """Represent a decay order in JSON-friendly form."""
    if math.isinf(order):
        return "inf" if order > 0 else "-inf"
    return float(order)


# ---------------------------------------------------------------------------
# Shared samplers
# ---------------------------------------------------------------------------

DEFAULT_TREE_EDGES = (
    ("root", "a", 1.0),
    ("root", "b", 2.0),
    ("a", "c", 1.5),
    ("a", "d", 0.7),
    ("b", "e", 1.2),
)


def default_tree() -> MetricTree:
    return MetricTree(DEFAULT_TREE_EDGES)


def random_families(target: TargetSpace, rngs, n_atoms: int,
                    zero_atoms=()) -> list[MappingFamily]:
    """A random family per stream: each stream reads its weights on [0.25,
    1) and, where ``zero_atoms`` says so, the index of an atom whose weight
    it zeroes; then one draw forms the base points of every stream."""
    weights = uniforms(rngs, 0.25, 1.0, n_atoms)
    for i in np.flatnonzero(zero_atoms) if n_atoms > 1 else ():
        weights[i, int(rngs[i].integers(n_atoms))] = 0.0
    ids = tuple(f"x{j}" for j in range(n_atoms))
    bases = target.draw_points(rngs, n_atoms)
    return [MappingFamily(FiniteMeasureSpace(ids, tuple(w)), target, base)
            for w, base in zip(weights.tolist(), bases)]


def _draw_by_kind(seed: int, stream: str, trials: int, draws) -> list:
    """Trial ``i`` drawn from its stream ``(seed, stream, i)`` by
    ``draws[i % len(draws)](rngs, indices)``, which draws (and may score)
    all trials of its kind at once; returned in trial order."""
    out = [None] * int(trials)
    for kind, draw in enumerate(draws):
        indices = range(kind, int(trials), len(draws))
        if len(indices):
            out[kind::len(draws)] = draw(
                trial_rngs(seed, stream, indices), indices)
    return out


@dataclass(frozen=True, eq=False)
class SmoothLpPaths:
    """A batch of smooth curves of mappings on one target, realizable on
    any time grid.

    Atom ``j`` of curve ``k`` has weight ``w = weights[k, j]`` and travels
    a target geodesic of length ``L = legs[k, j]`` with a smooth, strictly
    monotone time warp ``phi(t) = delta + (1 - 2 delta) t + a sin(2 pi t +
    theta) / (2 pi)``; the warp stays inside ``(0, 1)`` and its small
    amplitude keeps the one-sided/centered difference gap well inside the
    tolerances that the convergence batteries certify.  Curve ``k``'s
    speed has the closed form ``(sum_j w (L phi'(t))^p)^(1/p)``.
    """

    target: TargetSpace
    p: float
    weights: np.ndarray  # (curve, atom)
    anchors: np.ndarray  # (2, curve, atom, *point_shape): starts, then ends
    wiggles: np.ndarray  # (2, curve, atom): amplitudes, then phases
    legs: np.ndarray  # (curve, atom): the target distance from start to end
    delta: ClassVar[float] = 0.05

    def warp(self, t) -> np.ndarray:
        """Every atom's warp at the times ``t``: ``(*t.shape, curve, atom)``."""
        t = np.asarray(t, float)[..., None, None]
        amp, phase = self.wiggles
        return (self.delta + (1.0 - 2.0 * self.delta) * t
                + amp * np.sin(2.0 * math.pi * t + phase) / (2.0 * math.pi))

    def sweep(self, grids) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each node count of ``grids``, in order, the times of that
        many uniform nodes on [0, 1] and the paths' values there as one
        ``(node, curve, atom, *point_shape)`` batch.

        The union of the grids' nodes is evaluated once, with one ``warp``,
        one ``geodesic_points`` and one ``as_points`` call, and each grid
        reads its nodes off that batch: a strided view where they are
        evenly spaced in the union, as a coarser grid of a nested family
        is.  Every kernel gives a node the same bits in any batch, so each
        grid reads what a sweep of that grid alone would give.
        """
        per_grid = [np.linspace(0.0, 1.0, int(n)) for n in grids]
        # The union and its indices in Python: with np.unique and
        # np.searchsorted here the speed battery's peak RSS rose by about
        # 0.5 MB in a fresh process, with its tracemalloc peak unchanged.
        nodes = sorted({t for times in per_grid for t in times.tolist()})
        index = {t: k for k, t in enumerate(nodes)}
        fractions = self.warp(nodes)
        values = self.target.as_points(
            self.target.geodesic_points(*self.anchors, fractions),
            fractions.shape)
        out = []
        for times in per_grid:
            at = [index[t] for t in times.tolist()]
            steps = {b - a for a, b in zip(at, at[1:])}
            if len(steps) == 1:
                at = slice(at[0], at[-1] + 1, steps.pop())
            out.append((times, values[at]))
        return out


def sample_smooth_paths(target: TargetSpace, rngs,
                        p: float = 2.0) -> SmoothLpPaths:
    """Draw a batch of smooth random paths of mappings (one geodesic leg
    per atom), curve ``k`` from stream ``rngs[k]``.

    Each stream reads its weights and base points, then, atom by atom, a
    start point, a leg length, a tangent of that length and the wiggle;
    every read is formed for all streams at once, and one ``exp_maps``
    call gives every end point.  No path uses its base points: they are
    read so that every later read stays where it is in its stream.
    """
    weights = uniforms(rngs, 0.5, 1.5, SMOOTH_PATH_ATOMS) / SMOOTH_PATH_ATOMS
    target.draw_points(rngs, SMOOTH_PATH_ATOMS)
    starts, tangents, legs, wiggles = [], [], [], []
    for _ in range(SMOOTH_PATH_ATOMS):
        starts.append(target.draw_points(rngs, 1)[:, 0])
        legs.append(uniforms(rngs, 0.4, 0.8))
        tangents.append(target.draw_tangents(rngs, starts[-1], legs[-1]))
        wiggles.append(np.stack([uniforms(rngs, 0.04, 0.06),
                                 uniforms(rngs, 0.0, 2.0 * math.pi)]))
    starts = np.stack(starts, axis=1)
    ends = target.exp_maps(starts, np.stack(tangents, axis=1))
    return SmoothLpPaths(target=target, p=float(p), weights=weights,
                         anchors=np.stack([starts, ends]),
                         wiggles=np.stack(wiggles, axis=-1),
                         legs=np.stack(legs, axis=1))


def _nonuniform_times(rngs, n_nodes: int) -> np.ndarray:
    """Each stream's times from 0 to 1, ``(stream, node)``, with increments
    drawn on ``[0.5, 1.5)`` and rescaled."""
    incr = uniforms(rngs, 0.5, 1.5, n_nodes - 1)
    cum = np.concatenate([np.zeros((len(incr), 1)), np.cumsum(incr, axis=-1)],
                         axis=-1)
    return cum / cum[:, -1:]


def _polyline_waypoints(target: TargetSpace, rngs) -> np.ndarray:
    """Each stream's waypoints, shape ``(stream, waypoint, *point_shape)``:
    a point, then per leg a length of 0.5 to 0.9 and a tangent of that
    length at the last waypoint, whose exp map is the next waypoint."""
    ways = [target.draw_points(rngs, 1)[:, 0]]
    for _ in range(POLYLINE_LEGS):
        steps = uniforms(rngs, 0.5, 0.9)
        ways.append(target.exp_maps(
            ways[-1], target.draw_tangents(rngs, ways[-1], steps)))
    return np.stack(ways, axis=1)


def _polyline_nodes(target: TargetSpace, ways: np.ndarray) -> np.ndarray:
    """The nodes of every polyline, ``(stream, node, ...)``, in one
    geodesic call over ``ways`` of shape ``(stream, waypoint, ...)``."""
    u = np.arange(POLYLINE_NODES) / (POLYLINE_NODES - 1) * POLYLINE_LEGS
    leg = np.minimum(u.astype(int), POLYLINE_LEGS - 1)
    fraction = u - leg
    shape = fraction.shape + (1,) * (ways.ndim - 2 - len(target.point_shape))
    return target.geodesic_points(ways[:, leg], ways[:, leg + 1],
                                  fraction.reshape(shape))


def polyline_tables(target: TargetSpace, rngs, mappings: bool = False
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The ``(node, stream)`` times and ``(segment, stream)`` segment
    distances of a piecewise-geodesic curve through random waypoints from
    each stream.  Waypoints are a leg of 0.5 to 0.9 apart, so each curve is
    at least ``POLYLINE_LEGS / 2`` long.  A curve of ``mappings`` reads its
    weights and unused base points (as :func:`random_families` does), then
    its waypoints atom after atom.  All nodes are one ``(node, stream[,
    atom], *point_shape)`` batch: one ``as_points`` and one distance call.
    """
    if mappings:
        weights = uniforms(rngs, 0.25, 1.0, POLYLINE_ATOMS)
        target.draw_points(rngs, POLYLINE_ATOMS)
        ways = np.stack([_polyline_waypoints(target, rngs)
                         for _ in range(POLYLINE_ATOMS)], axis=2)
    else:
        ways = _polyline_waypoints(target, rngs)
    nodes = target.as_points(_polyline_nodes(target, ways).swapaxes(0, 1))
    seg = target.distances(nodes[:-1], nodes[1:])
    if mappings:
        seg = iterated_norms(seg, [weights], POLYLINE_P)
    return np.ascontiguousarray(_nonuniform_times(rngs, POLYLINE_NODES).T), seg


def draw_step_pieces(rngs, pieces, draw_values) -> list[tuple]:
    """Breakpoints and values of a random step curve on [0, 1] with
    ``pieces[i]`` pieces from stream ``i``.  Each stream reads interior
    breakpoints on [0.08, 0.92) until every piece is 0.02 long, in rounds
    over the streams of one piece count, then ``draw_values(rngs, k)``
    forms their ``(stream, k, ...)`` values."""
    pieces = [int(k) for k in pieces]
    if any(k < 1 for k in pieces):
        raise ValidationError(f"need at least one piece, got {min(pieces)}")
    out = [None] * len(pieces)
    for k in sorted(set(pieces)):
        rows = [i for i, n in enumerate(pieces) if n == k]
        group = [rngs[i] for i in rows]
        interior = np.empty((len(group), k - 1))
        todo = np.arange(len(group))
        while len(todo):
            interior[todo] = np.sort(uniforms(
                [group[i] for i in todo], 0.08, 0.92, k - 1), axis=1)
            gaps = np.diff(interior[todo], prepend=0.0, append=1.0, axis=1)
            todo = todo[gaps.min(axis=1) < 0.02]
        for i, inner, values in zip(rows, interior.tolist(),
                                    draw_values(group, k)):
            out[i] = ((0.0, *inner, 1.0), values)
    return out


# ---------------------------------------------------------------------------
# Suite: product-norm consistency (time-major vs atom-major vs joint)
# ---------------------------------------------------------------------------


def _product_pairs(target: TargetSpace, rule: str, rngs, trials) -> list:
    """The fubini draw from each stream: a family of 8 atoms (one of zero
    weight on trials divisible by 4), a 16-node grid with the given rule,
    and two product mappings on it."""
    families = random_families(target, rngs, 8, [i % 4 == 0 for i in trials])
    grids = [TimeGrid(times, rule)
             for times in _nonuniform_times(rngs, 16).tolist()]
    c1, c2 = (target.draw_points(rngs, 8 * 16).reshape(len(rngs), 16, 8, -1)
              for _ in range(2))
    return [(ProductGridMapping(grid, family, a),
             ProductGridMapping(grid, family, b))
            for grid, family, a, b in zip(grids, families, c1, c2)]


def _fubini_scores(target: TargetSpace, pairs, p_values) -> list[tuple]:
    """Per pair: the largest relative gap over ``p_values`` of each iterated
    norm to the joint one, and whether the transpose round trip changed a
    bit.  Each reading of all pairs is one stacked ``distances`` call; the
    atom-major one keeps the node-major memory that ``D_pp`` sees."""
    c1, c2 = zip(*pairs)
    t1, t2 = ([sec_time(c) for c in cs] for cs in (c1, c2))
    a1, a2 = ([sec_atom(c) for c in cs] for cs in (c1, c2))
    nodes = np.stack([c.grid.node_weights for c in c1])
    atoms = np.stack([c.family.base_space.weights_array for c in c1])
    joint_weights = (nodes[:, :, None] * atoms[:, None, :]).reshape(len(c1), -1)
    joint = target.distances(*(np.stack([c.values for c in cs])
                               for cs in (c1, c2))).reshape(len(c1), -1)
    time = target.distances(*(np.stack([t.values for t in ts])
                              for ts in (t1, t2)))
    atom = target.distances(*(np.stack([a.atom_values.swapaxes(0, 1)
                                        for a in mc]).swapaxes(1, 2)
                              for mc in (a1, a2)))
    gaps = []
    for p in p_values:
        norm = iterated_norms(joint, [joint_weights], p)
        gaps.append(np.abs([iterated_norms(time, [nodes, atoms], p) - norm,
                            iterated_norms(atom, [atoms, nodes], p) - norm])
                    / np.maximum(norm, 1e-300))
    # The worst exponent of each trial, NaN first, as ``reading`` takes it.
    time_gaps, atom_gaps = np.max(gaps, axis=0).tolist()
    changed = [transpose_inverse(transpose(t)).values.tobytes()
               != c.values.tobytes() for t, c in zip(t1, c1)]
    return list(zip(time_gaps, atom_gaps, changed))


def run_fubini(seed: int = 7, trials: int = 100,
               p_values: tuple[float, ...] = (1.0, 2.0, 3.0, math.inf),
               tolerances: Mapping | None = None) -> SuiteResult:
    """Both iterated norms must match the joint product norm exactly.

    Random product mappings on a 16-node x 8-atom grid, exponents
    ``{1, 2, 3, inf}`` by default, alternating flat and spherical targets,
    with zero-weight atoms and both grid rules represented.

    Each target kind draws all its trials at once and reads them off one
    stacked distance table per reading (:func:`_fubini_scores`).
    """
    tol = _tolerances(tolerances)
    trials = check_count(trials, "trials")
    p_values = tuple(check_p(p) for p in check_nonempty(p_values, "p_values"))
    # Even trials map into the sphere, odd ones into the plane.
    results = _draw_by_kind(seed, "fubini", trials, [
        lambda rngs, idx, kind=kind: _fubini_scores(
            kind[0], _product_pairs(*kind, rngs, idx), p_values)
        for kind in ((Sphere(3), "trapezoid"), (Euclidean(2), "left_cells"))])
    time_gaps, atom_gaps, changed = zip(*results)
    why = "integrating {} outside {} must reproduce the joint product norm"

    csv_rows = [["trial", "rel_gap_time_major", "rel_gap_atom_major"]]
    csv_rows += [[i, r[0], r[1]] for i, r in enumerate(results)]
    return SuiteResult(
        name="fubini",
        metrics={
            "trials": trials,
            "p_values": [order_jsonable(p) for p in p_values],
            "max_rel_gap_time_major": reading(time_gaps),
            "max_rel_gap_atom_major": reading(atom_gaps),
            "transpose_roundtrip_exact": not any(changed),
        },
        checks=[
            Check("iterated_norm_time_major", time_gaps, tol["fubini_rel"],
                  MAX, "relative gap", why.format("time", "atoms"), "fubini"),
            Check("iterated_norm_atom_major", atom_gaps, tol["fubini_rel"],
                  MAX, "relative gap", why.format("atoms", "time"), "fubini"),
            Check("transpose_roundtrip", changed, 0.0, MAX,
                  "changed-bits flag", "transposing to the atom-major "
                  "reading and back must reproduce every value bit for bit",
                  "fubini"),
        ],
        csv={"fubini_trials": csv_rows},
    )


# ---------------------------------------------------------------------------
# Suite: transport (derivative identity, variation identity)
# ---------------------------------------------------------------------------


def run_transport(seed: int = 7, curves: int = 20,
                  grids: tuple[int, ...] = (65, 129, 257),
                  bv_curves: int = 100, p: float = 2.0,
                  tolerances: Mapping | None = None) -> SuiteResult:
    """Atomwise slicing preserves speed (p > 1) and variation (p = 1).

    Smooth random curves of mappings into spherical and SPD targets are
    sliced atom by atom; the weighted p-power of per-atom speeds must
    reproduce the curve's metric derivative power, with residual maxima
    shrinking across grid refinements (identically-zero residuals count as
    converged).  Random step curves are sliced the same way and the jump
    variation must match the weighted per-atom variations on every tested
    subinterval.

    Both halves run in two steps.  The draw step reads each curve from its
    own stream ``(seed, "transport/<kind>", curve)`` or ``(seed,
    "transport/bv", curve)``; the smooth paths of one target are formed
    all at once, as one :class:`SmoothLpPaths` batch, and the step curves
    of one target and atom count in rounds.  The compute step sweeps all
    smooth paths of one target once, over the union of the grids' nodes
    (:meth:`SmoothLpPaths.sweep`), and reads each grid off that sweep as a
    single ``(node, curve, atom, *point_shape)`` batch, whose per-atom
    speeds take one target call; those step curves share one jump table,
    and each variation is a masked sum over it.  A failed residual check
    names the stream key of its worst curve.
    """
    tol = _tolerances(tolerances)
    curves = check_count(curves, "curves")
    bv_curves = check_count(bv_curves, "bv_curves")
    grids = check_refining_grids(grids)
    targets = (Sphere(3), Spd(2))
    ac_metrics = {}
    checks = []
    csv_identity = [["target", "grid", "max_interior_residual"]]

    p = float(p)
    for target in targets:
        stream = f"transport/{target.kind}"
        paths = sample_smooth_paths(
            target, trial_rngs(seed, stream, range(curves)), p)
        # per_grid[k][ci]: the largest interior residual of curve ci on
        # grid k.  Each grid read off the target's sweep is one stack.
        per_grid = []
        for times, values in paths.sweep(grids):
            res = derivative_identity_residuals(target, paths.weights, p,
                                                values, times)
            per_grid.append(np.max(np.abs(res[:, 1:-1]), axis=1))
        grid_maxima, order, gates = _convergence_checks(
            "derivative_identity", target.kind, stream, per_grid, grids,
            tol["transport_residual"], tol["order_min"],
            "max interior residual",
            "slicing must preserve the weighted speed-power identity")
        checks += gates
        for n, m in zip(grids, grid_maxima):
            csv_identity.append([target.kind, n, m])
        ac_metrics[target.kind] = {
            "residual_maxima": grid_maxima,
            "order": order_jsonable(order),
            "at_roundoff_floor": reading(grid_maxima) <= CONVERGENCE_FLOOR,
        }

    bv_targets = (Euclidean(2), default_tree())

    def draw_bv(rngs, idx):
        # Curve i maps into bv_targets[i % 2] with 3 + i % 3 atoms, so one
        # kind (i % 6) shares a target and an atom count, and a jump table.
        target, n_atoms = bv_targets[idx[0] % 2], 3 + idx[0] % 3
        families = random_families(target, rngs, n_atoms,
                                   [i % 5 == 0 for i in idx])
        curves = [StepCurve(LpSpace(family, 1.0), *drawn)
                  for family, drawn in zip(families, draw_step_pieces(
                      rngs, [3 + i % 4 for i in idx],
                      lambda rngs, k: target.draw_points(rngs, k * n_atoms)
                      .reshape(len(rngs), k, n_atoms, *target.point_shape)))]
        subs = np.sort(uniforms(rngs, 0.0, 1.0, (10, 2)), axis=2)
        # The whole interval first, then the drawn subintervals.
        residuals = batch_variation_residuals(
            [decompose_bv(c) for c in curves], np.concatenate(
                [np.broadcast_to([[0.0, 1.0]], (len(curves), 1, 2)), subs], 1))
        gaps = []
        for curve, sub in zip(curves, subs):
            vm = variation_measure(curve)
            gaps.append(reading([0.0] + [
                abs(vm.of_open_interval(s, t) - v)
                for (s, t), v in zip(sub, variations(curve, sub))]))
        return list(zip(np.max(np.abs(residuals), axis=1).tolist(), gaps))

    bv_results = _draw_by_kind(seed, "transport/bv", bv_curves, [draw_bv] * 6)
    bv_worst, measure_gaps = zip(*bv_results)
    checks += [
        Check("variation_identity_residual", bv_worst,
              tol["variation_residual"], MAX,
              "worst residual", "jump variation must equal the weighted sum "
              "of per-atom variations on every subinterval", "transport/bv"),
        Check("variation_measure_consistency", measure_gaps, 0.0, MAX,
              "gap between the jump measure and direct variation",
              "open intervals of the measure must reproduce the variation "
              "exactly", "transport/bv"),
    ]

    csv_bv = [["curve", "max_identity_residual", "max_measure_gap"]]
    csv_bv += [[i, r[0], r[1]] for i, r in enumerate(bv_results)]
    return SuiteResult(
        name="transport",
        metrics={
            "curves": curves,
            "grids": list(grids),
            "derivative_identity": ac_metrics,
            "bv_curves": bv_curves,
            "max_variation_residual": reading(bv_worst),
            "max_measure_gap": reading(measure_gaps),
        },
        checks=checks,
        csv={"transport_identity": csv_identity, "transport_bv": csv_bv},
    )


# ---------------------------------------------------------------------------
# Suite: the p = 1 counterexample
# ---------------------------------------------------------------------------


def run_counterexample(seed: int = 7, sizes: tuple[int, ...] = (4, 16, 64),
                       tolerances: Mapping | None = None) -> SuiteResult:
    """Lipschitz curve of mappings whose atom slices all jump.

    For each size the moving-indicator curve must have difference quotients
    within ``2/n`` of 1, per-atom moduli exactly 1 at every refinement of
    :data:`COUNTEREXAMPLE_REFINEMENTS`, and weighted jump variation 1.
    """
    del seed  # the construction is fully deterministic
    tol = _tolerances(tolerances)
    check_count(len(sizes), "the number of sizes")
    checks = []
    rows = [["n", "lipschitz_lo", "lipschitz_hi", "max_atom_modulus",
             "total_variation"]]
    reports = []
    lipschitz = ("the indicator curve must be uniformly Lipschitz in the "
                 "mean distance")
    for n in sizes:
        rep = counterexample_p1(int(n), COUNTEREXAMPLE_REFINEMENTS)
        reports.append(rep)
        rows.append([rep.n, rep.lipschitz_lo, rep.lipschitz_hi,
                     rep.max_atom_modulus, rep.total_variation])
        checks += [
            Check(f"counterexample_lipschitz[n={n}]", rep.lipschitz_lo,
                  1.0 - 2.0 / n, MIN, "smallest difference quotient",
                  lipschitz),
            Check(f"counterexample_lipschitz[n={n}]", rep.lipschitz_hi,
                  1.0 + 2.0 / n, MAX, "largest difference quotient",
                  lipschitz),
            *(Check(f"counterexample_modulus[n={n},refine={r}]",
                    abs(modulus - 1.0), 1e-12, MAX,
                    "|per-atom modulus - 1|", "refining the grid must "
                    "never shrink the unit atom jumps")
              for r, modulus in rep.atom_moduli),
            Check(f"counterexample_variation[n={n}]",
                  abs(rep.total_variation - 1.0), tol["counterexample_tv"],
                  MAX, "|weighted jump variation - 1|", "the unit jumps "
                  "of all atoms, weighted by their masses, must add up to 1"),
        ]

    return SuiteResult(
        name="counterexample",
        metrics={
            "sizes": [int(n) for n in sizes],
            "refinements": list(COUNTEREXAMPLE_REFINEMENTS),
            "lipschitz_lo": reading([r.lipschitz_lo for r in reports], MIN),
            "lipschitz_hi": reading([r.lipschitz_hi for r in reports]),
            "max_atom_modulus": reading(
                [r.max_atom_modulus for r in reports]),
            "total_variation_max_gap": reading(
                [abs(r.total_variation - 1.0) for r in reports]),
        },
        checks=checks,
        csv={"counterexample_p1": rows},
    )


# ---------------------------------------------------------------------------
# Suite: geodesics
# ---------------------------------------------------------------------------


def run_geodesic(seed: int = 7, trials: int = 3,
                 p_values: tuple[float, ...] = (1.5, 2.0, 3.0),
                 n_nodes: int = 17,
                 targets: tuple[TargetSpace, ...] | None = None,
                 base_space: FiniteMeasureSpace | None = None,
                 tolerances: Mapping | None = None) -> SuiteResult:
    """Atomwise geodesics are constant-speed with length equal to distance.

    Spherical, SPD and tree targets (or the configured target), several
    exponents; checks the node-pair linearity of the mapping distance, the
    per-atom speed deviation, and length against endpoint distance, per
    target and exponent, whose trials come from the stream ``(seed,
    "geodesic/<kind>/p=<p>", trial)``.  A failed check names its worst
    trial; the metrics pool every target and exponent.
    """
    residual_tol = _tolerances(tolerances)["geodesic_residual"]
    p_values = tuple(check_p(p) for p in check_nonempty(p_values, "p_values"))
    if targets is None:
        trace_target, targets = Spd(2), (Sphere(3), Spd(2), default_tree())
    else:
        targets = check_nonempty(targets, "targets")
        trace_target = targets[0]
    if base_space is None:
        base_space = FiniteMeasureSpace(("x0", "x1", "x2"), (1.0, 2.0, 1.0))
    combos = [(t, p, f"geodesic/{t.kind}/p={p!r}")
              for t in targets for p in p_values]

    def one_combo(idx: int):
        target, p, stream = combos[idx]
        sweep = draw_geodesic_sweep(target, base_space, p, seed, stream,
                                    int(trials), int(n_nodes))
        return (sweep.constant_speed_residuals(),
                sweep.atom_speed_deviations(), sweep.length_gaps())

    gates = (
        ("geodesic_constant_speed", "node-pair linearity residual",
         "the mapping distance along a geodesic must be affine in time"),
        ("geodesic_atom_speed", "per-atom speed deviation",
         "every atom must traverse its target geodesic at constant speed"),
        ("geodesic_length", "relative length gap",
         "geodesic length must equal the endpoint distance"))
    # A check per combo and gate; each metric pools all scores, in order.
    checks, csr, atom_dev, len_rel = [], [], [], []
    for (target, p, stream), results in zip(
            combos, map_trials(one_combo, len(combos))):
        for (name, what, why), scores, pool in zip(
                gates, results, (csr, atom_dev, len_rel)):
            pool += scores.tolist()
            checks.append(Check(f"{target.kind}/p={p}.{name}", scores,
                                residual_tol, MAX, what, why, stream))

    # Representative trace for the CSV artifact (first target, p = 2): the
    # sweep of one trial.
    trace = draw_geodesic_sweep(trace_target, base_space, 2.0, seed,
                                "geodesic/trace", 1, int(n_nodes))
    from_start, residuals = trace.from_start()
    trace_rows = [["t", "distance_from_start", "constant_speed_residual"]]
    trace_rows += [[t, d, r] for t, d, r in zip(
        trace.times.tolist(), from_start[:, 0].tolist(),
        residuals[:, 0].tolist())]

    return SuiteResult(
        name="geodesic",
        metrics={
            "targets": [t.kind for t in targets],
            "p_values": [order_jsonable(p) for p in p_values],
            "trials": int(trials),
            "n_nodes": int(n_nodes),
            "max_constant_speed_residual": reading(csr),
            "max_atom_speed_deviation": reading(atom_dev),
            "max_length_rel_gap": reading(len_rel),
        },
        checks=checks,
        csv={"geodesic_trace": trace_rows},
    )


# ---------------------------------------------------------------------------
# Suite: curvature comparison
# ---------------------------------------------------------------------------

_DEFAULT_CURVATURE_BASE = (("x0", 0.5), ("x1", 1.0), ("x2", 0.25))

#: The sign rule of each curvature class: the check-name suffix, and why.
_SIGN_CHECKS = {
    GLOBAL_NPC: ("npc", "thin-triangle targets keep the residual "
                        "nonpositive"),
    GLOBAL_NNC: ("nnc", "fat-triangle targets keep the residual "
                        "nonnegative"),
    FLAT: ("flat", "flat targets keep the residual at zero"),
}


def run_curvature(seed: int = 7, trials: int = 500,
                  targets: tuple[TargetSpace, ...] | None = None,
                  base_space: FiniteMeasureSpace | None = None,
                  tolerances: Mapping | None = None) -> SuiteResult:
    """Comparison signs transfer from targets to mapping spaces.

    SPD targets must keep the squared-distance comparison residual
    nonpositive, spheres nonnegative, flat targets at zero, and the
    constant-mapping embedding must rescale target residuals by the total
    mass without changing signs.  A failed check names its worst trial of
    the stream ``(seed, "curvature/<kind>", trial)``.
    """
    tol = _tolerances(tolerances)
    sign_tol, flat_tol = tol["curvature_sign"], tol["curvature_flat"]
    targets = ((Spd(2), Sphere(3), Euclidean(2)) if targets is None
               else check_nonempty(targets, "targets"))
    if base_space is None:
        base_space = FiniteMeasureSpace(
            tuple(a for a, _ in _DEFAULT_CURVATURE_BASE),
            tuple(w for _, w in _DEFAULT_CURVATURE_BASE))

    checks, lows, highs = [], [], []
    metrics = {"trials": int(trials), "targets": {}}
    csv_rows = [["target", "trial", "t", "residual", "embedded_residual"]]
    for target in targets:
        ts, residuals, embedded, transfer = curvature_comparison_suite(
            target, base_space, int(trials), seed=seed)
        kind, cls = target.kind, target.curvature_class
        stream = f"curvature/{kind}"
        suffix, why = _SIGN_CHECKS[cls]
        for label, values in (("comparison_sign", residuals),
                              ("embedded_comparison_sign", embedded)):
            observed, bound, sense, what = {
                GLOBAL_NPC: (values, sign_tol, MAX, "max residual"),
                GLOBAL_NNC: (values, -sign_tol, MIN, "min residual"),
                FLAT: (np.abs(values), flat_tol, MAX, "max |residual|")}[cls]
            checks.append(Check(f"{kind}.{label}_{suffix}", observed, bound,
                                sense, what, why, stream))
        checks.append(Check(
            f"{kind}.embedding_rescale", transfer,
            1e-10 * max(1.0, base_space.total_mass), MAX,
            "|embedded - mass * target|", "the constant embedding must "
            "rescale comparison residuals by the total mass", stream))
        lows.append(float(residuals.min()))
        highs.append(float(residuals.max()))
        metrics["targets"][kind] = {
            "curvature_class": cls,
            "residual_min": lows[-1],
            "residual_max": highs[-1],
            "embedded_min": float(embedded.min()),
            "embedded_max": float(embedded.max()),
            "embedded_transfer_max": float(transfer.max()),
        }
        csv_rows += [[kind, trial, t, res, emb] for trial, (t, res, emb) in
                     enumerate(zip(ts.tolist(), residuals.tolist(),
                                   embedded.tolist()))]
    metrics["residual_max"] = reading(highs)
    metrics["residual_abs_max"] = reading([abs(v) for v in lows + highs])

    return SuiteResult(
        name="curvature",
        metrics=metrics,
        checks=checks,
        csv={"curvature_residuals": csv_rows},
    )


# ---------------------------------------------------------------------------
# Suite: length-space structure and reparametrization
# ---------------------------------------------------------------------------

def default_equality_tol(target: TargetSpace) -> float:
    """Relative tolerance for energy = distance-power on geodesics."""
    if target.curvature_class == FLAT:
        return 1e-12
    if not target.has_chart:  # metric trees: exact path arithmetic
        return 1e-9
    return 1e-8


def run_length(seed: int = 7, trials: int = 12,
               p_values: tuple[float, ...] = (1.5, 2.0, 3.0),
               reparam_curves: int = 50, n_nodes: int = 17,
               tolerances: Mapping | None = None) -> SuiteResult:
    """Energy controls distance, geodesics saturate it, reparametrization
    reaches the bound within ``(1 + REPARAM_EPS)^p``.  Each target and
    finite ``p > 1`` sweeps its geodesics from the stream ``(seed,
    "length/<kind>/p=<p>", trial)``.  ``length_equality`` unset means
    :func:`default_equality_tol` of each target.  Reparam curve ``i`` reads
    ``(seed, "length/reparam", i)``; each of its three kinds is one table.
    """
    p_values = tuple(check_p(p, allow_inf=False)
                     for p in check_nonempty(p_values, "p_values"))
    for p in p_values:
        if p <= 1.0:
            raise ValidationError(f"the length battery needs p > 1, got {p!r}")
    equality_tol = _tolerances(tolerances)["length_equality"]
    reparam_curves = check_count(reparam_curves, "reparam_curves")
    targets = (Euclidean(2), Sphere(3), Spd(2), default_tree())
    base_space = FiniteMeasureSpace(("x0", "x1", "x2"), (0.75, 1.25, 0.5))

    checks = []
    metrics = {"trials": int(trials), "targets": {}, "p_values": list(p_values)}
    csv_rows = [["target", "p", "trial", "scaled_energy", "distance_power"]]
    for target in targets:
        for p in p_values:
            key = f"{target.kind}/p={p}"
            stream = f"length/{target.kind}/p={p!r}"
            sweep = draw_geodesic_sweep(
                target, base_space, p, seed, stream, int(trials),
                int(n_nodes), setup=f"length/{target.kind}/setup")
            scaled, powers = sweep.scaled_energies(), sweep.distance_powers()
            upper_excess = scaled - LENGTH_KAPPA ** p * powers
            equality_gaps = (np.abs(scaled - powers)
                             / np.maximum(powers, 1e-300))
            metrics["targets"][key] = {
                "max_upper_excess": reading(upper_excess),
                "max_equality_gap_rel": reading(equality_gaps),
            }
            checks += [
                Check(f"{key}.energy_length_upper", upper_excess,
                      1e-12 * max(1.0, reading(powers)), MAX,
                      "scaled energy - kappa^p * D_p^p",
                      "the energy of any curve joining two mappings must "
                      "control their distance power", stream),
                Check(f"{key}.geodesic_energy_equality", equality_gaps,
                      default_equality_tol(target) if equality_tol is None
                      else equality_tol, MAX, "relative gap",
                      "on geodesics the scaled energy must equal the "
                      "endpoint distance power", stream),
            ]
            csv_rows += [[target.kind, p, trial, se, dp]
                         for trial, (se, dp) in enumerate(zip(
                             scaled.tolist(), powers.tolist()))]

    # Reparametrization battery: mixed plain-target and mapping-space
    # curves, all of length >= 1 so the additive slack REPARAM_EPS stays
    # within the multiplicative budget (1 + REPARAM_EPS)^p.
    def reparam(rngs, idx):
        # Curve i is a plane curve, a sphere curve, or a curve of mappings
        # into the sphere, by i % 3.
        target = Euclidean(2) if idx[0] % 3 == 0 else Sphere(3)
        total, ratios = retimed_energy_ratios(*polyline_tables(
            target, rngs, idx[0] % 3 == 2), p_values, REPARAM_EPS)
        if total.min() < 1.0:  # pragma: no cover - legs give >= 1.5
            raise ValidationError(f"a reparam curve of length {total.min()!r}")
        return [reading([ratio - (1.0 + REPARAM_EPS) ** p
                         for ratio, p in zip(column, p_values)])
                for column in ratios.T.tolist()]

    excess = _draw_by_kind(seed, "length/reparam", reparam_curves,
                           [reparam] * 3)
    checks.append(
        Check("reparam_energy_budget", excess, 1e-12, MAX,
              "scaled energy / length^p - (1 + eps)^p", "constant-speed "
              "retiming must drive the energy to the length bound",
              "length/reparam"))

    metrics["reparam"] = {
        "curves": reparam_curves,
        "eps": REPARAM_EPS,
        "max_budget_excess": reading(excess),
    }
    return SuiteResult(
        name="length",
        metrics=metrics,
        checks=checks,
        csv={"length_check": csv_rows},
    )


# ---------------------------------------------------------------------------
# Suite: speed fields
# ---------------------------------------------------------------------------


def run_speed(seed: int = 7, curves: int = 6,
              grids: tuple[int, ...] = (65, 129, 257), p: float = 2.0,
              tolerances: Mapping | None = None) -> SuiteResult:
    """The bundle norm of log-map velocities matches the metric derivative.

    Smooth random curves into flat, spherical and SPD targets at ``p = 2``;
    the interior gap between the two speeds must shrink at first order in
    the time step, and the bundle norm power must agree with the weighted
    per-atom speed powers.

    The draw step reads each curve's path from its own stream ``(seed,
    "speed/<kind>", curve)`` and forms the paths of one target all at
    once, as one :class:`SmoothLpPaths` batch.  The compute step sweeps
    all paths of one target once, over the union of the grids' nodes, and
    reads each grid off that sweep as a single ``(node, curve, atom,
    *point_shape)`` batch: one log-map call for the velocities, one
    tangent-norm call for the bundle norms, and one target distance call
    whose table gives both the per-atom speeds of the consistency check and
    every curve's metric derivative.  A failed gap check names the stream
    key of its worst curve.
    """
    tol = _tolerances(tolerances)
    curves = check_count(curves, "curves")
    grids = check_refining_grids(grids)
    mid_grid = grids[len(grids) // 2]
    targets = (Euclidean(2), Sphere(3), Spd(2))
    checks = []
    p = float(p)
    metrics = {"curves": curves, "grids": list(grids), "targets": {}}
    trace_rows = [["t", "metric_derivative", "bundle_norm", "residual"]]

    for target in targets:
        stream = f"speed/{target.kind}"
        paths = sample_smooth_paths(
            target, trial_rngs(seed, stream, range(curves)), p)
        per_grid = []
        for n, (times, values) in zip(grids, paths.sweep(grids)):
            md, bundle, grid_gaps = batch_speeds(target, paths.weights, p,
                                                 values, times)
            res = np.abs(md - bundle)
            per_grid.append(np.max(res[:, 1:-1], axis=1))
            if n == mid_grid:
                gaps = grid_gaps
            if target.kind == "spd" and n == grids[-1]:
                trace_rows += [
                    [float(t), float(md[0, k]), float(bundle[0, k]),
                     float(res[0, k])] for k, t in enumerate(times)]
        grid_maxima, order, gates = _convergence_checks(
            "speed_identity", target.kind, stream, per_grid, grids,
            tol["speed_residual"], tol["order_min"], "max interior gap",
            "the bundle norm must converge to the metric derivative")
        checks += [*gates, Check(
            f"bundle_consistency[{target.kind}]", gaps,
            tol["speed_consistency"], MAX,
            "relative gap", "the bundle norm power must equal the weighted "
            "per-atom speed powers", stream)]
        metrics["targets"][target.kind] = {
            "residual_maxima": grid_maxima,
            "order": order_jsonable(order),
            "consistency_rel_max": float(gaps.max()),
        }

    return SuiteResult(
        name="speed",
        metrics=metrics,
        checks=checks,
        csv={"speed_trace": trace_rows},
    )


# ---------------------------------------------------------------------------
# Suite: Skorokhod bounds
# ---------------------------------------------------------------------------


def run_skorokhod(seed: int = 7, pairs: int = 200,
                  tolerances: Mapping | None = None) -> SuiteResult:
    """Worked examples hit known values; bounds sandwich and refine monotonically.

    The pairs are drawn in rounds (:func:`draw_step_pieces`).  The battery
    runs two warp programs: one over the drawn pairs at
    :data:`SKOROKHOD_WARP_GRID`, and one at twice that grid over the drawn
    pairs and the three worked examples together.  A pair's bounds do not
    depend on the batch it shares (:func:`~nlsp.curves.skorokhod_distances`),
    so each example reads as it would alone.
    """
    example_tol = _tolerances(tolerances)["skorokhod_example"]
    pairs = check_count(pairs, "pairs")
    target = Euclidean(1)

    def pt(x: float):
        return np.array([float(x)])

    c_self = StepCurve(target, (0.0, 0.3, 0.7, 1.0),
                       (pt(0.0), pt(1.3), pt(0.4)))
    g_redundant = StepCurve(target, (0.0, 0.3, 0.5, 0.7, 1.0),
                            (pt(0.0), pt(1.3), pt(1.3), pt(0.4)))
    c_half = StepCurve(target, (0.0, 0.5, 1.0), (pt(0.0), pt(1.0)))
    g_sixth = StepCurve(target, (0.0, 0.6, 1.0), (pt(0.0), pt(1.0)))
    worked = [(c_self, c_self), (c_self, g_redundant), (c_half, g_sixth)]

    # Stream i reads a curve of 2 + i % 3 pieces, then one of 2 + (i + 1)
    # % 3, with values uniform on [0, 2).
    rngs = trial_rngs(seed, "skorokhod/pairs", range(pairs))
    drawn = list(zip(*([StepCurve(target, *d) for d in draw_step_pieces(
        rngs, [2 + (i + shift) % 3 for i in range(len(rngs))],
        lambda rngs, k: uniforms(rngs, 0.0, 2.0, (k, 1)))]
        for shift in (0, 1))))
    coarse = skorokhod_distances(drawn, warp_grid=SKOROKHOD_WARP_GRID)
    fine = skorokhod_distances(drawn + worked,
                               warp_grid=2 * SKOROKHOD_WARP_GRID)
    fine, (b_self, b_same, b_shift) = fine[:len(drawn)], fine[len(drawn):]
    shift_expected = math.log(1.25)

    examples = {
        "self_distance": b_self.upper,
        "identical_function_distance": b_same.upper,
        "shifted_jump_upper": b_shift.upper,
        "shifted_jump_expected": shift_expected,
    }
    sandwich = [reading([c.lower - c.upper, f.lower - f.upper])
                for c, f in zip(coarse, fine)]
    monotone = [f.upper - c.upper for c, f in zip(coarse, fine)]

    csv_rows = [["pair", "lower", "upper", "upper_refined"]]
    csv_rows += [[i, c.lower, c.upper, f.upper]
                 for i, (c, f) in enumerate(zip(coarse, fine))]
    return SuiteResult(
        name="skorokhod",
        metrics={
            "pairs": pairs,
            "warp_grid": SKOROKHOD_WARP_GRID,
            "examples": {k: float(v) for k, v in examples.items()},
            "max_sandwich_violation": reading(sandwich),
            "max_monotonicity_violation": reading(monotone),
        },
        checks=[
            Check("skorokhod_zero_examples", (b_self.upper, b_same.upper),
                  example_tol, MAX,
                  "larger of the self and identical-function distances",
                  "equal functions must be at Skorokhod distance zero"),
            Check("skorokhod_shifted_jump",
                  abs(b_shift.upper - shift_expected), example_tol, MAX,
                  "|upper bound - log(1.25)|",
                  "a unit jump moved from 1/2 to 3/5 is at Skorokhod "
                  "distance log(5/4)"),
            Check("skorokhod_sandwich", sandwich, 1e-12, MAX,
                  "excess of a lower bound over its upper bound",
                  "the value-set mismatch can never beat an achievable warp",
                  "skorokhod/pairs"),
            Check("skorokhod_monotone", monotone, 1e-12, MAX,
                  "rise of an upper bound on doubling the warp grid",
                  "refinement only enlarges the warp family",
                  "skorokhod/pairs"),
        ],
        csv={"skorokhod_pairs": csv_rows},
    )


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _finite_p_above_one(p: float) -> float:
    if math.isinf(p) or p <= 1.0:
        raise ConfigError(
            f"this battery needs a finite exponent > 1, got {p!r}", field="p")
    return float(p)


def _single_grid(grid: tuple[int, ...]) -> int:
    if len(grid) != 1:
        raise ConfigError(
            f"expected a single node count here, got {list(grid)}",
            field="grid")
    return int(grid[0])


def _refining_grids(grid: tuple[int, ...]) -> tuple[int, ...]:
    try:
        return check_refining_grids(grid)
    except ValidationError as exc:
        raise ConfigError(str(exc), field="grid") from None


def _one(value) -> tuple:
    return (value,)


def _one_target(spec: dict) -> tuple[TargetSpace]:
    return (target_from_config(spec),)


@dataclass(frozen=True)
class Battery:
    """One suite as data: its runner, tolerances, config fields and tables.

    ``tolerances`` names the :data:`~nlsp.config.DEFAULT_TOLERANCES` entries
    the suite reads; ``run`` takes overrides of them by name in its
    ``tolerances`` mapping.  ``fields`` maps each config field the suite
    accepts to the keyword argument it sets and a converter from the config
    value, which raises :class:`~nlsp.errors.ConfigError` for a value the
    suite cannot use.  Defaults live in the ``run`` signature and in
    :data:`~nlsp.config.DEFAULT_TOLERANCES` only.  ``tables`` names the
    CSV tables of its :attr:`SuiteResult.csv`.
    """

    name: str
    run: Callable[..., SuiteResult]
    tolerances: tuple[str, ...]
    fields: dict[str, tuple[str, Callable]]
    tables: tuple[str, ...]

    def __call__(self, seed: int, tolerances: Mapping | None = None,
                 **kwargs) -> SuiteResult:
        """Run the suite with tolerance overrides by name and ``kwargs``."""
        # Resolve the module attribute at call time, so that rebinding it
        # (a tracer, a test double) reaches every caller of the table.
        return globals()[self.run.__name__](seed=seed, tolerances=tolerances,
                                            **kwargs)


#: Every suite, in the canonical order of :func:`run_all`.
BATTERIES = (
    Battery("fubini", run_fubini, ("fubini_rel",),
            {"trials": ("trials", int), "p": ("p_values", _one)},
            tables=("fubini_trials",)),
    Battery("transport", run_transport,
            ("transport_residual", "order_min", "variation_residual"),
            {"trials": ("curves", int), "p": ("p", _finite_p_above_one),
             "grid": ("grids", _refining_grids)},
            tables=("transport_identity", "transport_bv")),
    Battery("counterexample", run_counterexample, ("counterexample_tv",), {},
            tables=("counterexample_p1",)),
    Battery("geodesic", run_geodesic, ("geodesic_residual",),
            {"trials": ("trials", int), "p": ("p_values", _one),
             "grid": ("n_nodes", _single_grid),
             "target": ("targets", _one_target),
             "base": ("base_space", base_space_from_config)},
            tables=("geodesic_trace",)),
    Battery("curvature", run_curvature, ("curvature_sign", "curvature_flat"),
            {"trials": ("trials", int), "target": ("targets", _one_target),
             "base": ("base_space", base_space_from_config)},
            tables=("curvature_residuals",)),
    Battery("length", run_length, ("length_equality",),
            {"trials": ("trials", int),
             "p": ("p_values", lambda p: (_finite_p_above_one(p),)),
             "grid": ("n_nodes", _single_grid)},
            tables=("length_check",)),
    Battery("speed", run_speed,
            ("speed_residual", "order_min", "speed_consistency"),
            {"trials": ("curves", int), "p": ("p", _finite_p_above_one),
             "grid": ("grids", _refining_grids)},
            tables=("speed_trace",)),
    Battery("skorokhod", run_skorokhod, ("skorokhod_example",),
            {"trials": ("pairs", int)}, tables=("skorokhod_pairs",)),
)


def run_all(seed: int = 7,
            tolerances: Mapping | None = None) -> list[SuiteResult]:
    """Run every suite in canonical order with optional tolerance overrides."""
    return [battery(seed, tolerances) for battery in BATTERIES]
