"""Slicing curves of mappings into per-atom target curves.

For exponents ``p > 1`` a sampled curve in an ``L^p`` mapping space can be
sliced atom by atom (:func:`decompose_ac`); the slices evaluate exactly to
the curve's values, and their speeds satisfy the derivative identity

``|c'|_p(t)^p = sum_j w_j |f_j'|(t)^p``

node for node, which :func:`derivative_identity_residual` measures.  For
``p = 1`` the analogous absolute-continuity transfer is false — see
:func:`counterexample_p1` for a uniformly Lipschitz curve of mappings whose
atom slices are unit-jump step functions — so :func:`decompose_ac` refuses
``p <= 1`` and step curves go through :func:`decompose_bv`, whose exact
bookkeeping is the variation identity measured by
:func:`variation_identity_residual`.

A curve of mappings holds one float batch of shape ``(node, atom,
*point_shape)``.  Read along its first axis it is the curve; read along its
second, through ``swapaxes(0, 1)``, it is the atom slices.  The slices are
views of the curve's batch, so every slice value is bitwise equal to the
source value it was read from.

Both identities also come in batch form, and the single-curve functions
are the batch of one.  :func:`derivative_identity_residuals` takes many
curves on one target and one time grid as a ``(node, curve, atom,
*point_shape)`` batch with a ``(curve, atom)`` table of weights, and reads
both sides off one table of centred per-atom distances
(:func:`speed_table`): the per-atom side directly, and the ``L^p`` side as
each curve's weighted norm over its atoms.
:func:`batch_variation_residuals` builds one jump table for step curves
of one target and atom count — every atom's target jumps, and each
curve's ``L^1`` jumps as its weighted norm of them — and reads the
variation over each subinterval off it as a masked sum, added in
ascending time order.  The counterexample reads every atom's moduli and
variation off its source curve the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    SampledCurve,
    StepCurve,
    _ascending_sums,
    _padded,
    _variation_masks,
    centred_distances,
)
from .errors import SpaceMismatchError, ValidationError
from .mappings import (
    FiniteMeasureSpace,
    LpSpace,
    MappingFamily,
    _weighted_norm,
    check_count,
)
from .targets import Euclidean


@dataclass(frozen=True, eq=False)
class TransportDecomposition:
    """A sampled curve of mappings, sliced atom by atom at exponent ``p``.

    Atom ``j``'s slice is the view ``source.values[:, j]``, so every slice
    value is bitwise equal to the source value: evaluation consistency is
    exact, not within a tolerance.
    """

    source: SampledCurve
    p: float


def _require_lp_curve(c: SampledCurve, op: str) -> LpSpace:
    if not isinstance(c, SampledCurve):
        raise ValidationError(f"{op} expects a SampledCurve, got {type(c).__name__}")
    if not isinstance(c.space, LpSpace):
        raise ValidationError(
            f"{op} expects a curve in an LpSpace of mappings, got ambient "
            f"{type(c.space).__name__}")
    if len(c) < 2:
        raise ValidationError(f"{op} needs at least two time nodes, got {len(c)}")
    return c.space


def decompose_ac(c: SampledCurve, p) -> TransportDecomposition:
    """Slice a curve of mappings into per-atom curves (``1 < p < inf``).

    For ``p <= 1`` no such slicing with controlled per-atom regularity
    exists: a curve can be uniformly Lipschitz in the ``L^1`` distance while
    every atom slice is a unit-jump step function (see
    :func:`counterexample_p1`), so those exponents are refused.
    """
    space = _require_lp_curve(c, "decompose_ac")
    try:
        p = float(p)
    except (TypeError, ValueError):
        raise ValidationError(f"p must be a real number, got {p!r}")
    if math.isnan(p) or math.isinf(p):
        raise ValidationError(
            "decompose_ac requires a finite exponent 1 < p < inf")
    if p <= 1.0:
        raise ValidationError(
            f"decompose_ac requires p > 1, got {p!r}: at p = 1 slicing does "
            "not preserve regularity (a Lipschitz curve of mappings can have "
            "unit-jump atom slices; see counterexample_p1)")
    if space.p != p:
        raise ValidationError(
            f"curve ambient uses p = {space.p!r} but decompose_ac was asked "
            f"for p = {p!r}")
    return TransportDecomposition(source=c, p=p)


def weighted_speed_powers(speeds: np.ndarray, weights: np.ndarray,
                          p: float) -> np.ndarray:
    """``sum_j w_j s_j^p`` for atom speeds ``s`` of shape ``(node, *batch,
    atom)`` and weights of shape ``(*batch, atom)``; shape ``(*batch,
    node)``.

    One stacked matrix product, which rounds for every curve of a batch as
    ``w @ s.T ** p`` does for that curve alone.
    """
    return np.matmul(weights[..., None, :],
                     np.moveaxis(speeds ** p, 0, -1))[..., 0, :]


def speed_table(target, weights, p, values, times
                ) -> tuple[np.ndarray, np.ndarray]:
    """Metric derivatives ``(curve, node)`` in ``L^p``, ``1 < p < inf``, of
    a batch ``(node, curve, atom, *point_shape)`` of curves of mappings over
    ``target`` with ``(curve, atom)`` weights, and their per-atom speeds.

    Both are read off one table of centred per-atom distances, built with
    one target ``distances`` call: a curve's metric derivative is the
    weighted ``p``-norm of its atoms' distances over the centred time span,
    which is what ``LpSpace.distances`` gives for that curve alone.
    """
    if not 1.0 < float(p) < math.inf:
        raise ValidationError(f"the speed identities need 1 < p < inf, got {p!r}")
    if np.shape(weights) != np.shape(values)[1:3]:
        raise ValidationError(
            f"expected (curve, atom) weights of shape "
            f"{np.shape(values)[1:3]}, got {np.shape(weights)}")
    dists, dt = centred_distances(target, values, times)
    return _weighted_norm(dists, weights, p).T / dt[:, 0, 0], dists / dt


def derivative_identity_residual(d: TransportDecomposition) -> np.ndarray:
    """Node-wise residual ``|c'|_p^p - sum_j w_j |f_j'|^p``.

    Both sides are centered difference quotients over the same node pairs,
    so the residual is pure roundoff whenever the weighted-sum identity
    holds — which it does for every curve in an ``L^p`` mapping space.
    This is :func:`derivative_identity_residuals` on a batch of one.
    """
    if not isinstance(d, TransportDecomposition):
        raise ValidationError(
            f"expected a TransportDecomposition, got {type(d).__name__}")
    c, family = d.source, d.source.space.family
    return derivative_identity_residuals(
        family.target, family.base_space.weights_array[None], d.p,
        c.values[:, None], c.times_array)[0]


def derivative_identity_residuals(target, weights, p, values, times
                                  ) -> np.ndarray:
    """:func:`derivative_identity_residual` of every curve of a batch
    ``(node, curve, atom, *point_shape)`` over ``target`` sharing one time
    grid, with ``(curve, atom)`` weights, at ``1 < p < inf``; shape
    ``(curve, node)``.

    Both sides are read off one :func:`speed_table`.
    """
    speeds, atoms = speed_table(target, weights, p, values, times)
    return speeds ** p - weighted_speed_powers(atoms, weights, p)


@dataclass(frozen=True, eq=False)
class BVTransportDecomposition:
    """A step curve of mappings in ``L^1``, sliced atom by atom: atom
    ``j``'s slice is ``source.values[:, j]`` on the source's breakpoints,
    and the variation identity reads every slice off one jump table."""

    source: StepCurve


def decompose_bv(c: StepCurve) -> BVTransportDecomposition:
    """Slice a step curve of mappings into per-atom step curves (``p = 1``)."""
    if not isinstance(c, StepCurve):
        raise ValidationError(
            f"decompose_bv expects a StepCurve, got {type(c).__name__}")
    if not isinstance(c.space, LpSpace):
        raise ValidationError(
            "decompose_bv expects a step curve in an LpSpace of mappings")
    if c.space.p != 1.0:
        raise ValidationError(
            f"decompose_bv is the p = 1 route, got ambient p = {c.space.p!r}")
    return BVTransportDecomposition(source=c)


def variation_identity_residual(d: BVTransportDecomposition,
                                subinterval: tuple[float, float] | None = None
                                ) -> float:
    """Signed residual ``Var(c) - sum_j w_j Var(f_j)`` over one subinterval.

    Both sides sum the same jumps (the ``L^1`` jump distance is itself the
    weighted sum of atom jump distances), so the residual is pure roundoff.
    This is :func:`batch_variation_residuals` on a batch of one.
    """
    if not isinstance(d, BVTransportDecomposition):
        raise ValidationError(
            f"expected a BVTransportDecomposition, got {type(d).__name__}")
    ends = d.source.interval if subinterval is None else subinterval
    return float(batch_variation_residuals([d], [[ends]])[0, 0])


def batch_variation_residuals(decompositions, bounds) -> np.ndarray:
    """:func:`variation_identity_residual` of step curves of mappings on one
    target with one atom count, curve ``b`` over the open subintervals
    ``(s, t) = bounds[b, k]``; shape ``(curve, k)``.  The curves, padded
    with copies of their last pieces, share one ``(curve, jump, atom)``
    table of atom jumps, whose weighted norms are the ``L^1`` jumps; each
    variation is a masked sum over it in ascending time order."""
    sources = [d.source for d in decompositions
               if isinstance(d, BVTransportDecomposition)]
    bounds = np.asarray(bounds, float)
    if not sources or len(sources) < len(decompositions) or bounds.ndim != 3 \
            or bounds.shape[::2] != (len(sources), 2) \
            or (bounds[..., 1] < bounds[..., 0]).any():
        raise ValidationError("expected BVTransportDecompositions and their "
                              "(curve, subinterval, 2) bounds with s <= t")
    target, shape = sources[0].space.family.target, sources[0].values.shape[1:]
    if any(c.space.family.target is not target or c.values.shape[1:] != shape
           for c in sources):
        raise SpaceMismatchError("a batch of step curves must share one "
                                 "target object and one atom count")
    pieces = max(len(c.values) for c in sources)
    values = np.stack([np.concatenate(
        [c.values, np.repeat(c.values[-1:], pieces - len(c.values), axis=0)])
        for c in sources])
    weights = np.stack([c.space.family.base_space.weights_array
                        for c in sources])[:, None]
    jumps = target.distances(values[:, :-1], values[:, 1:])
    at = _padded(c.breakpoints[1:-1] for c in sources)[:, None]
    s, t = np.moveaxis(bounds, -1, 0)[..., None]
    inside = (s < at) & (at < t)
    lhs = _ascending_sums(_weighted_norm(jumps, weights, 1.0), inside)
    return lhs - np.vecdot(_ascending_sums(jumps, inside), weights)


# ---------------------------------------------------------------------------
# The p = 1 counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    """Certificates extracted from the moving-indicator curve at one size.

    The curve ``c(t) = indicator of [0, t)`` over ``n`` uniform atoms at the
    midpoints of ``(0, 1)`` is Lipschitz in the ``L^1`` distance with
    constant ~1 (``lipschitz_lo``/``lipschitz_hi`` bracket the worst
    difference quotient over the atom-aligned time grid), yet every atom
    slice performs a single unit jump: ``max_atom_modulus`` stays 1 no
    matter how much the per-atom continuity grid is refined, and the
    weighted jump variation ``total_variation`` equals 1.
    """

    n: int
    lipschitz_lo: float
    lipschitz_hi: float
    atom_moduli: tuple[tuple[int, float], ...]  # (refinement, max modulus)
    total_variation: float

    @property
    def max_atom_modulus(self) -> float:
        return max(m for _, m in self.atom_moduli)


def counterexample_family(n: int) -> MappingFamily:
    """``n`` uniform atoms at the midpoints of ``(0, 1)``, real-valued,
    with base mapping identically zero."""
    check_count(n, "n")
    ids = tuple(f"m{j}" for j in range(n))
    space = FiniteMeasureSpace(ids, (1.0 / n,) * n)
    target = Euclidean(1)
    zero = np.zeros(1)
    return MappingFamily(space, target, (zero,) * n)


def counterexample_curve(n: int) -> StepCurve:
    """The moving-indicator step curve ``c(t)_j = 1 if (2j+1)/(2n) < t``.

    Breakpoints sit exactly at the atom positions, so the curve is an
    honest right-continuous step curve whose jumps are the atom crossings.
    """
    family = counterexample_family(n)
    positions = [(2 * j + 1) / (2 * n) for j in range(n)]
    breakpoints = (0.0, *positions, 1.0)
    # pieces[k, j] = 1 for the atoms j < k already passed, else 0.
    pieces = np.tril(np.ones((n + 1, n)), -1)[..., None]
    return StepCurve(LpSpace(family, 1.0), breakpoints, pieces)


def counterexample_p1(n: int = 64,
                      refinements: tuple[int, ...] = (1, 2, 4)
                      ) -> CounterexampleReport:
    """Certify the failure of absolute-continuity transfer at ``p = 1``.

    Checks the moving-indicator curve on the atom-aligned time grid
    ``{k/n}``: the ``L^1`` difference quotients all equal 1 exactly (each
    time cell crosses exactly one atom of mass ``1/n``), every atom slice
    jumps by 1 at some refinement of every grid, and the weighted jump
    variation is 1.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValidationError(f"n must be an integer >= 2, got {n!r}")
    refinements = tuple(int(r) for r in refinements)
    if not refinements or any(r < 1 for r in refinements):
        raise ValidationError(
            f"refinements must be positive integers, got {refinements!r}")

    curve = counterexample_curve(n)
    space = curve.space
    # Quotients over all pairs of grid times, by start then end time, in
    # 128 KB (pair, atom) tables: 0.92 MB ones ran 2.7 times slower.
    grid = np.arange(n + 1) / n
    vals = curve.value_at(grid)
    lo, hi = np.triu_indices(n + 1, 1)
    part = max(1, 16_384 // n)
    ratios = np.concatenate([
        space.distances(vals[lo[k:k + part]], vals[hi[k:k + part]])
        / (grid[hi[k:k + part]] - grid[lo[k:k + part]])
        for k in range(0, len(lo), part)])

    # The largest step of any atom on each refined grid.
    fine = [np.arange(r * n + 1) / (r * n) for r in refinements]
    moduli = [(r, float(np.abs(np.diff(curve.value_at(t), axis=0)).max()))
              for r, t in zip(refinements, fine)]

    # Every atom's variation over the whole interval, off one jump table.
    v = curve.values
    w = space.family.base_space.weights_array
    atoms = _ascending_sums(space.family.target.distances(v[:-1], v[1:]),
                            _variation_masks(curve, [None]))[0]
    total_var = float(np.dot(w, atoms))
    return CounterexampleReport(
        n=int(n),
        lipschitz_lo=float(ratios.min()),
        lipschitz_hi=float(ratios.max()),
        atom_moduli=tuple(moduli),
        total_variation=total_var,
    )
