"""Metric target spaces.

Four concrete geometries share one small interface: flat Euclidean space,
the round unit sphere, symmetric positive-definite matrices under the
affine-invariant metric, and finite metric trees.  Every space provides
the ``distances`` and ``geodesic_points`` kernels, and every space but the
tree a tangent chart.

A point of every space is a float array of shape ``point_shape``, and a
batch of points is one float array of shape ``(..., *point_shape)``:
``as_points``, ``distances`` and ``geodesic_points`` take points stacked
over any leading batch axes (none included) and broadcast them together.
Draws take a batch of random streams, one per trial, and return a batch
with the stream axis in front (``draw_points``, ``draw_geodesic_pairs``,
``draw_tangents``): each stream's variates are read in turn, then formed
into points in one kernel call, with the bytes of that stream's own draw
(see :mod:`nlsp.rng`).  Each space writes each formula once, as a numpy kernel
over the batch axes.  SPD base points are factored by a stacked Cholesky
kernel, and the whitened matrices go through the stacked eigensolvers
``_eigh`` / ``_eigvalsh`` (2x2 in closed form, 3x3 by Jacobi, LAPACK
otherwise), in the affine-invariant formulas of Pennec, Fillard and Ayache
(IJCV 2006).  A metric-tree point is the pair
``(edge, offset)`` of shape ``(2,)``, the edge-offset coordinates of a
metric graph (Bridson and Haefliger, *Metric Spaces of Non-Positive
Curvature*, 1999, ch. I.1); its kernels index tables of node-to-node
distances and paths.  The tangent chart is written the same way:
``log_maps`` / ``exp_maps`` / ``tangent_norms`` are kernels, and a tangent
vector is a plain component array of the point shape, its base point
passed beside it; a tree has no chart, and its chart kernels refuse.  The
scalar ``as_point`` / ``distance`` / ``geodesic_point`` / ``random_point``
/ ``log_map`` / ``exp_map`` / ``tangent_norm`` are the same kernels at zero
batch axes; those that take points validate them first.

``as_points`` is the one door through which points enter a container, and
the kernels take what it returns.  A batch that is already canonical comes
back as itself, so a container that re-reads another container's batch, or
a view of one, shares its buffer; any other input is copied into a new
batch.  Input that does not form one batch (ragged, non-numeric or of the
wrong shape) or breaks the space's constraints raises
:class:`~nlsp.errors.ValidationError` naming the offending entry.

Each space declares a ``curvature_class`` — ``"flat"``, ``"global_npc"``
(triangles thinner than Euclidean ones) or ``"global_nnc"`` (fatter) —
which the curvature-comparison experiments read to decide which sign of
residual they must certify.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod

import numpy as np

from .errors import (
    GeodesicError,
    UnsupportedOperationError,
    ValidationError,
)
from .rng import _is_integer, normals, uniforms

FLAT = "flat"
GLOBAL_NPC = "global_npc"
GLOBAL_NNC = "global_nnc"

#: Sphere points must be unit vectors to this tolerance.
SPHERE_UNIT_TOL = 1e-12
#: Sphere tangent vectors must be orthogonal to the base to this tolerance.
SPHERE_TANGENT_TOL = 1e-10
#: SPD points must be symmetric to this tolerance...
SPD_SYMMETRY_TOL = 1e-12
#: ... with every eigenvalue above this floor...
SPD_MIN_EIG = 1e-10
#: ... and above this fraction of the largest, so each has a Cholesky
#: factor (random points lost a pivot at computed ratios <= 1.4e-16 only).
SPD_MIN_RATIO = 1e-14
#: Sphere endpoints whose angle is within this margin of pi are antipodal.
ANTIPODAL_MARGIN = 1e-9
#: Random sphere pairs are drawn at angles in this range, keeping a wide
#: margin from the antipodal degeneracy.
SPHERE_SAFE_RADIUS = (0.3, 2.5)
#: Witnesses per part of :func:`_comparison_distances`.  A part stacks
#: three batches of points; for SPD(3) that is 0.44 MB, and larger parts
#: raised the peak resident memory of the ``wide_spd`` benchmark.
_COMPARISON_PART = 2048


def _check_fractions(t) -> np.ndarray:
    """Validate geodesic parameters in [0, 1], any shape; clamps roundoff."""
    t = np.asarray(t, dtype=float)
    inside = (t >= -1e-15) & (t <= 1.0 + 1e-15)  # NaN is outside
    if not inside.all():
        raise ValidationError(
            f"geodesic parameter must lie in [0, 1], got "
            f"{float(t[~inside].flat[0])!r}")
    return np.minimum(np.maximum(t, 0.0), 1.0)


def _comparison_distances(target: TargetSpace, zs, fs, gs, t):
    """The four target distances of the comparison residual over batch
    axes: ``d(z, c(t))``, ``d(z, f)``, ``d(z, g)`` and ``d(f, g)``, where
    ``c`` is the geodesic from ``f`` to ``g`` and ``t`` broadcasts with the
    batches.  The three distances from ``z`` are one kernel call, so each
    witness ``z`` is decomposed once; it runs on parts of the leading batch
    axis of about :data:`_COMPARISON_PART` points each, which bounds the
    stacked temporaries."""
    zb, *ends = np.broadcast_arrays(
        zs, target.geodesic_points(fs, gs, t), fs, gs)
    batch = zb.shape[:zb.ndim - len(target.point_shape)]
    dists = np.empty((4,) + batch)
    rows = max(1, _COMPARISON_PART // max(1, math.prod(batch[1:])))
    parts = ([slice(lo, lo + rows) for lo in range(0, batch[0], rows)]
             if batch else [...])
    for part in parts:
        dists[:3, part] = target.distances(
            zb[part][None], np.stack([e[part] for e in ends]))
    dists[3] = target.distances(fs, gs)
    return tuple(dists)


def _comparison_residuals(dists, t) -> np.ndarray:
    """``d_zm^2 - [(1-t) d_zf^2 + t d_zg^2 - (1-t) t d_fg^2]`` elementwise,
    from the four distances of :func:`_comparison_distances` (or their
    mapping-space norms); exactly zero wherever ``t`` is 0 or 1."""
    d_zm, d_zf, d_zg, d_fg = dists
    chord = (1.0 - t) * d_zf ** 2 + t * d_zg ** 2 - (1.0 - t) * t * d_fg ** 2
    return np.where((t == 0.0) | (t == 1.0), 0.0, d_zm ** 2 - chord)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis (``np.linalg.norm``'s formula)."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _dot_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, summed as ``np.dot`` sums: the
    chart kernels round like ``np.linalg.norm`` of one vector."""
    return np.sqrt(np.vecdot(x, x))


def _malformed_entry(values, path=()) -> tuple[tuple, object, str]:
    """Index path, value and fault of the first entry that keeps
    ``values`` from being one regular numeric array: an entry that is not
    numeric, or whose shape differs from most of its siblings'."""
    if isinstance(values, (str, bytes)) or not np.iterable(values):
        return path, values, "is not numeric"
    items = list(values)
    shapes = []
    for k, item in enumerate(items):
        try:
            shapes.append(np.shape(np.asarray(item, dtype=float)))
        except (TypeError, ValueError):
            return _malformed_entry(item, path + (k,))
    common = max(shapes, key=shapes.count)
    k = next((k for k, s in enumerate(shapes) if s != common), None)
    if k is None:
        return path, values, "is not one numeric array"
    return (path + (k,), items[k],
            f"has shape {shapes[k]}, unlike the shape {common} of its siblings")


def _check_batch_shape(got: tuple, shape) -> None:
    """Refuse a batch whose batch axes are not ``shape`` (None: any)."""
    if shape is not None and got != tuple(shape):
        raise ValidationError(
            f"expected a batch of points of shape {tuple(shape)}, got {got}")


class TargetSpace(ABC):
    """Common interface of all metric target spaces.

    A point is a float array of shape ``point_shape`` and a batch is a
    float array of shape ``(..., *point_shape)``.  Subclasses write
    ``distances`` and ``geodesic_points`` as kernels over the batch axes,
    the read and form phases of their draws, and their own point
    constraints; the scalar primitives here are those kernels at zero
    batch axes, and the one-stream draws are the draws on one stream.
    """

    kind: str = ""
    curvature_class: str = ""
    #: Whether log/exp/tangent-norm operations are available.
    has_chart: bool = True
    point_shape: tuple[int, ...] = ()

    # -- points ----------------------------------------------------------

    def _constrain(self, arr: np.ndarray) -> np.ndarray:
        """Check a finite, well-shaped batch against the space's own
        constraints; returns it in canonical form."""
        return arr

    def _checked(self, arr: np.ndarray, shape: tuple,
                 what: str = "point") -> np.ndarray:
        """Check that a batch is finite, its point axes of shape ``shape``."""
        if shape != self.point_shape:
            raise ValidationError(
                f"{self.kind} {what} must have shape {self.point_shape}, got "
                f"{arr.shape}")
        bad = ~np.isfinite(arr)
        if bad.any():
            raise ValidationError(
                f"{self.kind} {what} must be finite, got "
                f"{float(arr[bad].flat[0])!r}")
        return arr

    # asarray keeps canonical float arrays as they are, so a container
    # re-reading a batch, or a view of one, shares its buffer.

    def _float_array(self, values) -> np.ndarray:
        try:
            return np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            path, value, fault = _malformed_entry(values)
        where = f" at index {list(path)}" if path else ""
        raise ValidationError(f"{self.kind} point {value!r}{where} {fault}")

    def as_points(self, values, shape=None) -> np.ndarray:
        """Validate a batch of points and return it in canonical form.

        ``shape``, if given, is the batch shape the caller requires.
        """
        arr = self._float_array(values)
        lead = max(arr.ndim - len(self.point_shape), 0)
        points = self._constrain(self._checked(arr, arr.shape[lead:]))
        _check_batch_shape(arr.shape[:lead], shape)
        return points

    def as_point(self, y) -> np.ndarray:
        """Coerce ``y`` to canonical form and validate it, or raise
        :class:`ValidationError`."""
        arr = self._float_array(y)
        return self._constrain(self._checked(arr, arr.shape))

    def distance(self, y, z) -> float:
        """Geodesic distance between two points."""
        return float(self.distances(self.as_point(y), self.as_point(z)))

    # -- geodesics ---------------------------------------------------------

    def geodesic_point(self, y, z, t: float) -> np.ndarray:
        """The point a fraction ``t`` of the way along the unique
        constant-speed geodesic from ``y`` to ``z``."""
        return self.geodesic_points(self.as_point(y), self.as_point(z), t)

    # -- batches -------------------------------------------------------------

    @abstractmethod
    def distances(self, ys, zs) -> np.ndarray:
        """Distances between two batches of points, broadcast together."""

    @abstractmethod
    def geodesic_points(self, ys, zs, t) -> np.ndarray:
        """Geodesic points at fractions ``t``, broadcast with both batches.

        A space with pairs that have no unique geodesic raises
        :class:`GeodesicError` with an ``undefined`` mask marking them.
        """

    def random_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` points, drawn from ``rng`` exactly as ``n`` successive
        :meth:`random_point` calls draw them.

        This is :meth:`draw_points` on a batch of one stream: the read
        phase takes the stream's raw variates, the form phase makes the
        points from them.  A batch of streams gives each stream the bytes
        of its own one-stream draw.
        """
        return self.draw_points([rng], n)[0]

    # -- charts ------------------------------------------------------------
    #
    # A tangent vector is a plain component array; its base point is passed
    # beside it.  The batch kernels broadcast their arguments together and
    # refuse by default, so a space without a tangent chart needs no code;
    # the scalar methods validate their arguments and run the kernels at
    # zero batch axes.

    def _no_chart(self, op: str) -> UnsupportedOperationError:
        return UnsupportedOperationError(
            f"{self.kind} target has no tangent chart: {op} is undefined")

    def log_maps(self, ys, zs) -> np.ndarray:
        """Initial velocities at ``ys`` of unit-time geodesics to ``zs``."""
        raise self._no_chart("log_map")

    def exp_maps(self, ys, vs) -> np.ndarray:
        """Endpoints of unit-time geodesics from ``ys`` with velocities ``vs``."""
        raise self._no_chart("exp_map")

    def tangent_norms(self, ys, vs) -> np.ndarray:
        """Riemannian norms of the tangent vectors ``vs`` at ``ys``."""
        raise self._no_chart("tangent_norm")

    def _as_tangent(self, v) -> np.ndarray:
        if not self.has_chart:
            return v  # nothing to check: the chart kernels refuse
        arr = self._float_array(v)
        return self._checked(arr, arr.shape, "tangent vector")

    def log_map(self, y, z) -> np.ndarray:
        """Initial velocity at ``y`` of the unit-time geodesic to ``z``."""
        return self.log_maps(self.as_point(y), self.as_point(z))

    def exp_map(self, y, v) -> np.ndarray:
        """Endpoint of the unit-time geodesic from ``y`` with velocity ``v``."""
        return self.exp_maps(self.as_point(y), self._as_tangent(v))

    def tangent_norm(self, y, v) -> float:
        """Riemannian norm of the tangent vector ``v`` at ``y``."""
        return float(self.tangent_norms(self.as_point(y), self._as_tangent(v)))

    # -- sampling ----------------------------------------------------------
    #
    # A draw takes one stream per trial and runs in the two phases of
    # :mod:`nlsp.rng`: ``_read_points`` reads each stream's raw variates in
    # turn, and ``_form_points`` makes every stream's points from the
    # stacked variates in one kernel call.  Draws whose reads depend on
    # formed values go round by round.  The one-stream methods are these
    # draws on a batch of one.

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a point; deterministic in the supplied generator."""
        return self.random_points(rng, 1)[0]

    def _read_points(self, rngs, n: int) -> np.ndarray:
        """Read phase: the raw variates of ``n`` points from each stream,
        standard normals of the point shape unless a space says otherwise."""
        return normals(rngs, (n, *self.point_shape))

    def _form_points(self, raw: np.ndarray) -> np.ndarray:
        """Form phase: the points of a ``(stream, n, ...)`` stack of raw
        variates, in one kernel call."""
        return raw

    def draw_points(self, rngs, n: int) -> np.ndarray:
        """``n`` points from each stream, shape ``(stream, n,
        *point_shape)``; row ``i`` equals ``random_points(rngs[i], n)``."""
        return self._form_points(self._read_points(rngs, int(n)))

    def draw_geodesic_pairs(self, rngs, n: int
                            ) -> tuple[np.ndarray, np.ndarray]:
        """``n`` pairs per stream joined by unique geodesics, as two batches
        of shape ``(stream, n, *point_shape)``, drawn pair after pair.

        Where every geodesic is unique, as here by default, the ``2 n``
        points are independent: one draw, taken alternately.
        """
        points = self.draw_points(rngs, 2 * int(n))
        return points[:, 0::2], points[:, 1::2]

    def _tangent_part(self, base: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The tangent part at ``base`` of an ambient array ``g``, over
        batch axes."""
        return g

    def draw_tangents(self, rngs, bases: np.ndarray, norms) -> np.ndarray:
        """One tangent vector per stream, at ``bases[i]`` with norm
        ``norms[i]``; shape ``(stream, *point_shape)``.

        Each stream reads one normal, and the tangent parts and their norms
        are formed for all streams at once.  A stream whose tangent part
        has norm below 1e-12 reads another normal in this round, until one
        does not.
        """
        if not self.has_chart:
            raise self._no_chart("draw_tangents")
        shape = self.point_shape
        g = self._tangent_part(bases, normals(rngs, shape))
        cur = self.tangent_norms(bases, g)
        for i in np.flatnonzero(cur < 1e-12):
            while cur[i] < 1e-12:  # redraw: astronomically unlikely
                g[i] = self._tangent_part(bases[i],
                                          rngs[i].standard_normal(shape))
                cur[i] = self.tangent_norms(bases[i], g[i])
        scale = np.asarray(norms, float) / cur
        return g * scale.reshape(scale.shape + (1,) * len(shape))

    # -- serialization -------------------------------------------------------

    @abstractmethod
    def to_config(self) -> dict:
        """JSON-able description sufficient to rebuild the space."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cfg = {k: v for k, v in self.to_config().items() if k != "kind"}
        inner = ", ".join(f"{k}={v!r}" for k, v in cfg.items())
        return f"{type(self).__name__}({inner})"


class Euclidean(TargetSpace):
    """``R^dim`` with the Euclidean distance; geodesics are straight lines."""

    kind = "euclidean"
    curvature_class = FLAT

    def __init__(self, dim: int):
        if not _is_integer(dim) or dim < 1:
            raise ValidationError(f"dim must be a positive integer, got {dim!r}")
        self.dim = int(dim)
        self.point_shape = (self.dim,)

    def distances(self, ys, zs) -> np.ndarray:
        return _norms(np.asarray(ys, float) - np.asarray(zs, float))

    def geodesic_points(self, ys, zs, t) -> np.ndarray:
        t = _check_fractions(t)[..., None]
        return (1.0 - t) * np.asarray(ys, float) + t * np.asarray(zs, float)

    def log_maps(self, ys, zs) -> np.ndarray:
        return np.asarray(zs, float) - np.asarray(ys, float)

    def exp_maps(self, ys, vs) -> np.ndarray:
        return np.asarray(ys, float) + np.asarray(vs, float)

    def tangent_norms(self, ys, vs) -> np.ndarray:
        _, vs = np.broadcast_arrays(np.asarray(ys, float), np.asarray(vs, float))
        return _dot_norms(vs)

    def to_config(self) -> dict:
        return {"kind": "euclidean", "dim": self.dim}


class Sphere(TargetSpace):
    """Unit sphere ``S^{dim-1}`` in ``R^dim`` with great-circle distance.

    ``dim`` is the ambient dimension, so ``Sphere(3)`` is the ordinary
    two-sphere.  Antipodal pairs have no unique geodesic and are rejected
    with an error rather than silently tie-broken.
    """

    kind = "sphere"
    curvature_class = GLOBAL_NNC

    def __init__(self, dim: int):
        if not _is_integer(dim) or dim < 2:
            raise ValidationError(
                f"ambient dim must be an integer >= 2, got {dim!r}")
        self.dim = int(dim)
        self.point_shape = (self.dim,)

    def _constrain(self, arr: np.ndarray) -> np.ndarray:
        nrm = _norms(arr)
        off = np.abs(nrm - 1.0) > SPHERE_UNIT_TOL
        if off.any():
            raise ValidationError(
                f"sphere point must be a unit vector within {SPHERE_UNIT_TOL}, "
                f"got norm {float(nrm[off].flat[0])!r}")
        return arr

    def distances(self, ys, zs) -> np.ndarray:
        ys = np.asarray(ys, float)
        zs = np.asarray(zs, float)
        cos = np.add.reduce(ys * zs, axis=-1)
        # Stable for nearly equal and nearly antipodal pairs alike.
        theta = np.arctan2(_norms(zs - cos[..., None] * ys), cos)
        # Self-distance is exactly zero, not projection dust.
        return np.where((ys == zs).all(axis=-1), 0.0, theta)

    def _angles_checked(self, ys, zs, op: str) -> np.ndarray:
        theta = self.distances(ys, zs)
        undefined = theta >= math.pi - ANTIPODAL_MARGIN
        if undefined.any():
            raise GeodesicError(
                f"{op} is undefined for antipodal sphere points: the angle "
                f"{float(theta[undefined].flat[0])!r} is within "
                f"{ANTIPODAL_MARGIN} of pi and the geodesic is not unique",
                undefined=undefined)
        return theta

    def geodesic_points(self, ys, zs, t) -> np.ndarray:
        t = _check_fractions(t)
        ys = np.asarray(ys, float)
        zs = np.asarray(zs, float)
        theta = self._angles_checked(ys, zs, "geodesic_point")
        still = theta < 1e-15
        s = np.where(still, 1.0, np.sin(theta))
        a = np.where(still, 1.0, np.sin((1.0 - t) * theta) / s)
        b = np.sin(t * theta) / s
        out = a[..., None] * ys + b[..., None] * zs
        return np.where(still[..., None], ys, out / _norms(out)[..., None])

    def log_maps(self, ys, zs) -> np.ndarray:
        ys = np.asarray(ys, float)
        zs = np.asarray(zs, float)
        theta = self._angles_checked(ys, zs, "log_map")
        perp = zs - np.vecdot(ys, zs)[..., None] * ys
        nrm = _dot_norms(perp)
        still = (nrm < 1e-15) | (theta < 1e-15)
        scale = np.where(still, 0.0, theta / np.where(still, 1.0, nrm))
        return scale[..., None] * perp

    def exp_maps(self, ys, vs) -> np.ndarray:
        ys = np.asarray(ys, float)
        vs = np.asarray(vs, float)
        theta = _dot_norms(vs)[..., None]
        still = theta < 1e-15
        u = vs / np.where(still, 1.0, theta)
        out = np.cos(theta) * ys + np.sin(theta) * u
        return np.where(still, ys, out / _dot_norms(out)[..., None])

    def tangent_norms(self, ys, vs) -> np.ndarray:
        ys, vs = np.broadcast_arrays(np.asarray(ys, float), np.asarray(vs, float))
        nrm = _dot_norms(vs)
        inner = np.vecdot(ys, vs)
        off = np.abs(inner) > SPHERE_TANGENT_TOL * np.maximum(1.0, nrm)
        if off.any():
            raise ValidationError(
                "tangent vector must be orthogonal to its base point within "
                f"{SPHERE_TANGENT_TOL}, got inner product "
                f"{float(inner[off].flat[0])!r}")
        return nrm

    def _read_points(self, rngs, n: int) -> np.ndarray:
        g = normals(rngs, (n, self.dim))
        # A stream with a degenerate normal redraws it in this round.  Point
        # by point, a degenerate draw is redrawn at once; dropping it and
        # drawing one more at the end reads the same stream.
        for i in np.flatnonzero((_norms(g) < 1e-12).any(axis=-1)):
            row = g[i]
            while (keep := _norms(row) >= 1e-12).sum() < n:
                row = np.concatenate([row[keep], rngs[i].standard_normal(
                    (n - int(keep.sum()), self.dim))])
            g[i] = row
        return g

    def _form_points(self, raw: np.ndarray) -> np.ndarray:
        return raw / _norms(raw)[..., None]

    def draw_geodesic_pairs(self, rngs, n: int
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Each second point is reached through the exponential map at an
        angle in :data:`SPHERE_SAFE_RADIUS`, so every pair interleaves a
        point, an angle and a tangent read: one round per pair, then one
        ``exp_maps`` call for every pair of every stream."""
        ys, vs = [], []
        for _ in range(int(n)):
            ys.append(self.draw_points(rngs, 1)[:, 0])
            vs.append(self.draw_tangents(
                rngs, ys[-1], uniforms(rngs, *SPHERE_SAFE_RADIUS)))
        ys = np.stack(ys, axis=1)
        return ys, self.exp_maps(ys, np.stack(vs, axis=1))

    def _tangent_part(self, base: np.ndarray, g: np.ndarray) -> np.ndarray:
        return g - np.vecdot(g, base)[..., None] * base

    def to_config(self) -> dict:
        return {"kind": "sphere", "dim": self.dim}


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of every matrix in a stack."""
    s = a + a.swapaxes(-1, -2)
    s *= 0.5
    return s


#: Matrices per chunk of the 3x3 Jacobi kernel, which holds about 25
#: doubles of working memory per matrix; chosen by timing 2,048, 4,096 and
#: 8,192 on the ``wide_spd`` benchmark.
_JACOBI_CHUNK = 4096
#: Sweep bound of the Jacobi kernel.  Random symmetric and SPD 3x3 matrices,
#: spreads of 1e30 and repeated eigenvalues included, converge in at most
#: four sweeps; a NaN matrix never does.
_JACOBI_SWEEPS = 8
#: The off-diagonal entry ``off[k]`` of the kernel sits opposite index
#: ``k``: at ``(i, j)`` with ``{i, j, k} = {0, 1, 2}``.
_OPPOSITE_I, _OPPOSITE_J = [1, 0, 0], [2, 2, 1]
#: Each rotation ``(p, q)`` of a cyclic sweep, with ``r`` the third index.
_JACOBI_PIVOTS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


#: LAPACK's unit roundoff (``dlamch("E")``) and safe minimum.
_EPS = 2.0 ** -53
_SAFMIN = np.finfo(float).tiny
#: The range of a 2x2 matrix's largest lower-triangle magnitude in which
#: LAPACK decomposes it without rescaling: ``dsteqr`` and ``dsterf``
#: rescale below ``sqrt(safmin) / eps^2 = 2^-405``, ``dsyevd`` above
#: ``sqrt(2 eps / safmin) = 2^485``.
_EIG2_RANGE = (2.0 ** -405, 2.0 ** 485)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues, and the eigenvectors as matching columns, of
    each symmetric matrix of a stack, read from its lower triangle: 2x2
    stacks in closed form (:func:`_eig2`), 3x3 by Jacobi
    (:func:`_jacobi3`), LAPACK otherwise."""
    n = a.shape[-1]
    if n == 3:
        return _jacobi3(a, vectors=True)
    if n == 2 and (wv := _eig2(a, vectors=True)) is not None:
        return wv
    return np.linalg.eigh(a)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of :func:`_eigh` alone."""
    n = a.shape[-1]
    if n == 3:
        return _jacobi3(a, vectors=False)[0]
    if n == 2 and (wv := _eig2(a, vectors=False)) is not None:
        return wv[0]
    return np.linalg.eigvalsh(a)


def _eig2(a: np.ndarray, vectors: bool):
    """Closed-form eigendecomposition of a stack of symmetric 2x2 matrices,
    read from the lower triangle: ``(w, v)`` as :func:`_eigh` gives them,
    with ``v`` None unless ``vectors``; None for the whole stack if some
    matrix's largest entry lies outside :data:`_EIG2_RANGE` or is NaN.

    It is the step LAPACK takes on a 2x2 matrix (Anderson et al., *LAPACK
    Users' Guide*, 3rd ed., SIAM 1999), transcribed for a stack.
    numpy's ``eigh`` runs ``dsyevd``, whose ``dsteqr`` keeps the diagonal
    when ``|e| <= sqrt|d1| sqrt|d2| eps`` or ``e^2 <= eps^2 min|d| max|d| +
    safmin`` and otherwise rotates the identity by ``dlaev2``'s eigenpair,
    then sorts ascending; numpy's ``eigvalsh`` runs ``dsterf``, which
    keeps the diagonal when ``|e|`` passes the same first test or ``e^2 <=
    eps^2 |d1 d2|`` and otherwise takes ``dlae2`` of ``sqrt(e^2)``.  Every
    result is LAPACK's bit for bit, signed zeros included, so each
    matrix's result does not depend on its batch.  Chunks of
    :data:`_JACOBI_CHUNK` matrices run branch-free; in lanes whose
    off-diagonal entry is zero, 0/0 fills results the kept diagonal
    replaces.
    """
    a = np.asarray(a, float)
    flat = a.reshape(-1, 2, 2)
    w = np.empty((len(flat), 2))
    v = np.empty((len(flat), 2, 2)) if vectors else None
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(flat), _JACOBI_CHUNK):
            hi = lo + _JACOBI_CHUNK
            if not _eig2_chunk(flat[lo:hi], w[lo:hi],
                               None if v is None else v[lo:hi]):
                return None
    return (w.reshape(a.shape[:-1]),
            None if v is None else v.reshape(a.shape))


def _eig2_chunk(a, w_out, v_out) -> bool:
    """One chunk of :func:`_eig2`, written into ``w_out`` and ``v_out``;
    False, before anything is written, if a matrix is out of range.  The
    entries of its ``m`` matrices are rows of ``(m,)`` arrays, and every
    step writes into a preallocated row where it can."""
    m = len(a)
    x = a.reshape(m, 4).T.copy()
    d1, b, e, d2 = x  # b: the off-diagonal entry dlae2 is given, set below
    ax = np.abs(x)
    ad1, mag, ae, ad2 = ax  # mag: each matrix's largest magnitude, set below
    sm, df, tb, ab, rt, rt1, rt2, t, u = np.empty((9, m))
    keep, flag, sw = np.empty((3, m), bool)
    np.maximum(ad1, ad2, out=rt)
    np.maximum(rt, ae, out=mag)
    if not (_EIG2_RANGE[0] <= np.minimum.reduce(mag)
            and np.maximum.reduce(mag) <= _EIG2_RANGE[1]):
        return False
    # keep: the diagonal is the spectrum.  First the split test of dsteqr
    # and dsterf, |e| <= sqrt|d1| sqrt|d2| eps, ...
    np.sqrt(ad1, out=t)
    np.sqrt(ad2, out=u)
    t *= u
    t *= _EPS
    np.less_equal(ae, t, out=keep)
    np.multiply(e, e, out=u)
    if v_out is not None:
        # ... then dsteqr's e^2 <= (eps^2 min|d|) max|d| + safmin, ...
        np.minimum(ad1, ad2, out=t)
        t *= _EPS * _EPS
        t *= rt
        t += _SAFMIN
        b = e
    else:
        # ... or dsterf's e^2 <= eps^2 |d1 d2|, which goes on with sqrt(e^2).
        # (Its QR branch swaps d1 and d2 in dlae2, which changes nothing:
        # it runs only when |d1| > |d2|, and the pair is sorted after.)
        np.multiply(d1, d2, out=t)
        np.abs(t, out=t)
        t *= _EPS * _EPS
        np.sqrt(u, out=b)
    np.less_equal(u, t, out=flag)
    keep |= flag
    # dlae2: rt = |(df, 2b)|, rt1 = (sm + sign(sm) rt) / 2 with -0 counted
    # as positive, rt2 = (acmx / rt1) acmn - (b / rt1) b, or -rt1 if sm = 0.
    np.add(d1, d2, out=sm)
    sm += 0.0
    np.subtract(d1, d2, out=df)
    df += 0.0
    np.add(b, b, out=tb)
    np.abs(tb, out=ab)
    np.abs(df, out=t)
    np.maximum(t, ab, out=rt)
    np.minimum(t, ab, out=u)
    u /= rt
    u *= u
    u += 1.0
    np.sqrt(u, out=u)
    rt *= u
    np.copysign(rt, sm, out=rt1)
    rt1 += sm
    rt1 *= 0.5
    np.greater(ad1, ad2, out=flag)
    acmx = np.where(flag, d1, d2)
    acmx /= rt1
    acmx *= np.where(flag, d2, d1)
    np.divide(b, rt1, out=rt2)
    rt2 *= b
    np.subtract(acmx, rt2, out=rt2)
    np.negative(rt1, out=u)
    rt2 = np.where(sm == 0.0, u, rt2)
    rt1 = np.where(keep, d1, rt1)
    rt2 = np.where(keep, d2, rt2)
    np.minimum(rt1, rt2, out=w_out[:, 0])
    np.maximum(rt1, rt2, out=w_out[:, 1])
    if v_out is None:
        return True
    # dlaev2's eigenvector (cs1, sn1) of rt1, with cs = df + sign(df) rt:
    # (ct r, r) with ct = -tb / cs and r = 1 / sqrt(1 + ct^2) if |cs| >
    # |tb|, else (r, tn r) with tn = -cs / tb.  As |cs| >= rt >= |tb|, the
    # second branch has |cs| = |tb| and tn = ct = +-1, where (r, ct r) is
    # (ct r, r) negated if ct = -1: so (cs1, sn1) = (y, r), y = ct r, with
    # r negative where ct = -1.
    np.copysign(rt, df, out=t)
    t += df
    ct = np.divide(tb, t, out=t)
    np.negative(ct, out=ct)
    np.multiply(ct, ct, out=u)
    u += 1.0
    np.sqrt(u, out=u)
    r = np.divide(1.0, u, out=u)
    np.equal(ct, -1.0, out=flag)
    # dlaev2 turns (c, s) into (-s, c) where sm and df have the same sign
    # ("same").  dsteqr rotates the identity into [[c, -s], [s, c]], exact
    # since no c or s is zero outside the kept lanes, then swaps its columns
    # where rt2 < rt1 ("sw"): [[p, -q], [q, p]] with (p, q) = (c, s), or
    # [[p, q], [q, -p]] with (p, q) = (-s, c) where they swap.  Both turns
    # together negate (c, s), which is folded into r's sign.
    np.multiply(sm, df, out=tb)
    same = np.signbit(tb)
    same |= keep
    np.logical_not(same, out=same)
    np.less(rt2, rt1, out=sw)
    flag ^= same & sw
    np.negative(r, out=ab)
    r = np.where(flag, ab, r)
    y = np.multiply(ct, r, out=ct)
    y[keep] = 1.0
    r[keep] = 0.0
    same ^= sw
    np.negative(r, out=ab)
    p = np.where(same, ab, y)
    q = np.where(same, y, r)
    tau = np.where(sw, -1.0, 1.0)
    v = v_out.reshape(m, 4)
    v[:, 0] = p
    v[:, 2] = q
    np.multiply(q, tau, out=v[:, 1])
    np.negative(v[:, 1], out=v[:, 1])
    np.multiply(p, tau, out=v[:, 3])
    # The kept lanes hold the identity (or its swap), whose zeros are +0.
    v += 0.0
    return True


def _jacobi3(a: np.ndarray, vectors: bool):
    """Cyclic Jacobi eigendecomposition of a stack of symmetric 3x3
    matrices: ``(w, v)``, with ``v`` None unless ``vectors``.

    Each chunk of :data:`_JACOBI_CHUNK` matrices runs Rutishauser's
    rotations (Numer. Math. 9, 1966) on all its matrices at once, in the
    order (0, 1), (0, 2), (1, 2).  Each matrix is first scaled by the power
    of two that brings its largest entry into [0.5, 1), which is exact.
    After each sweep an off-diagonal entry at or below ``eps * sqrt(|a_ii *
    a_jj|)`` is set to zero, and a zero entry gives the null rotation ``t =
    0``: a converged matrix never changes again, so each matrix's result is
    the same bit for bit whatever batch or chunk it is in.  A chunk stops
    when every off-diagonal entry is zero, or after :data:`_JACOBI_SWEEPS`
    sweeps; a NaN matrix comes out NaN.  On
    SPD matrices Jacobi is at least as accurate as QR (Demmel and Veselic,
    SIAM J. Matrix Anal. Appl. 13, 1992).
    """
    a = np.asarray(a, float)
    flat = a.reshape(-1, 3, 3)
    w = np.empty((len(flat), 3))
    v = np.empty((len(flat), 3, 3)) if vectors else None
    for lo in range(0, len(flat), _JACOBI_CHUNK):
        hi = lo + _JACOBI_CHUNK
        _jacobi3_chunk(flat[lo:hi], w[lo:hi], None if v is None else v[lo:hi])
    return (w.reshape(a.shape[:-1]),
            None if v is None else v.reshape(a.shape))


def _jacobi3_chunk(a, w_out, v_out) -> None:
    """One chunk of :func:`_jacobi3`, written into ``w_out`` and ``v_out``.
    The entries of its ``m`` matrices are rows of ``(3, m)`` arrays."""
    m = len(a)
    entries = a.reshape(m, 9).T[[0, 4, 8, 7, 6, 3]]
    scale = np.ldexp(1.0, -np.frexp(np.abs(entries).max(axis=0))[1])
    entries *= scale
    diag, off = entries[:3], entries[3:]
    cols = None
    if v_out is not None:
        cols = np.zeros((3, 3, m))  # cols[j]: the eigenvector column j
        cols[0, 0] = cols[1, 1] = cols[2, 2] = 1.0
    _jacobi3_sweeps(diag, off, cols)
    diag /= scale
    for j, rows in enumerate(np.argsort(diag, axis=0, kind="stable")):
        w_out[:, j] = np.take_along_axis(diag, rows[None], axis=0)[0]
        if cols is not None:
            v_out[:, :, j] = np.take_along_axis(
                cols, rows[None, None], axis=0)[0].T


def _jacobi3_sweeps(diag, off, cols) -> None:
    """The sweeps of :func:`_jacobi3` on one chunk, in place: ``diag[i]``
    and ``off[k]`` (opposite ``k``) hold the entries and ``cols`` (None:
    not wanted) the eigenvector columns.  Every update is written into
    a preallocated row."""
    m = diag.shape[1]
    t, c, x, y = np.empty((4, m))
    rot = np.empty((2, 3, m))
    zero = np.empty(m, bool)
    for _ in range(_JACOBI_SWEEPS):
        for p, q, r in _JACOBI_PIVOTS:
            app, aqq, apq = diag[p], diag[q], off[r]
            # t = 2 a_pq / (d + sign(d) sqrt(d^2 + 4 a_pq^2)), d = a_qq - a_pp:
            # the smaller root, 0 when a_pq is (``zero`` makes 0/0 into 0/1).
            np.subtract(aqq, app, out=x)
            np.multiply(apq, 2.0, out=y)
            np.multiply(x, x, out=c)
            np.multiply(y, y, out=t)
            c += t
            np.sqrt(c, out=c)
            np.copysign(c, x, out=c)
            c += x
            np.equal(c, 0.0, out=zero)
            c += zero
            np.divide(y, c, out=t)
            np.multiply(t, apq, out=x)
            app -= x
            aqq += x
            apq.fill(0.0)
            # s = t / sqrt(1 + t^2) into y, tau = s / (1 + c) into x.
            np.multiply(t, t, out=c)
            c += 1.0
            np.sqrt(c, out=c)
            np.divide(t, c, out=y)
            c += 1.0
            np.divide(t, c, out=x)
            pairs = [(off[q], off[p])]  # (a_rp, a_rq)
            if cols is not None:
                pairs.append((cols[p], cols[q]))
            for g, h in pairs:
                gx, hx = rot if g.ndim == 2 else rot[:, 0]
                np.multiply(g, x, out=gx)
                gx += h
                gx *= y
                np.multiply(h, x, out=hx)
                np.subtract(g, hx, out=hx)
                hx *= y
                g -= gx
                h += hx
        bound, mag = rot
        np.multiply(diag[_OPPOSITE_I], diag[_OPPOSITE_J], out=bound)
        np.abs(bound, out=bound)
        bound *= np.finfo(float).eps ** 2
        np.multiply(off, off, out=mag)
        off *= mag > bound
        if not off.any():
            return


def _eig_apply(a: np.ndarray, fn) -> np.ndarray:
    """``fn(a)`` per symmetric matrix of a stack, symmetrized, from one
    stacked :func:`_eigh`; ``fn`` may broadcast the eigenvalues against
    extra leading axes, such as a batch of geodesic fractions."""
    w, v = _eigh(a)
    # A C-ordered right operand (see _congruence), not held past the product.
    return _sym(v @ (fn(w)[..., :, None]
                     * np.ascontiguousarray(v.swapaxes(-1, -2))))


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower Cholesky factor of each SPD matrix of a stack, read from
    its lower triangle, and its inverse: row by row on ``(m,)`` rows of
    entries, one closed form for every size, the same bits for a matrix in
    any batch, and backward stable (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, ch. 10).  A matrix whose factor has a pivot
    <= 0 or no finite inverse is refused by its batch index."""
    a = np.asarray(a, float)
    n = a.shape[-1]
    x = a.reshape(-1, n * n).T.reshape(n, n, -1)
    l, l_inv = np.zeros((n, n, x.shape[-1])), np.zeros((n, n, x.shape[-1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n):
            for j in range(i + 1):  # the last s is the pivot of row i
                s = x[i, j].copy()
                for k in range(j):
                    s -= l[i, k] * l[j, k]
                if j < i:
                    np.divide(s, l[j, j], out=l[i, j])
            np.sqrt(s, out=l[i, i])
            np.divide(1.0, l[i, i], out=l_inv[i, i])
            for j in range(i):  # -sum_k l[i, k] l_inv[k, j] / l[i, i]
                s = l[i, j] * l_inv[j, j]
                for k in range(j + 1, i):
                    s += l[i, k] * l_inv[k, j]
                np.divide(s, -l[i, i], out=l_inv[i, j])
    if not np.isfinite(l_inv).all():
        bad = np.argmin(np.isfinite(l_inv).all(axis=(0, 1)))
        i = tuple(int(k) for k in np.unravel_index(bad, a.shape[:-2]))
        raise ValidationError(
            f"spd point at batch index {i} is too ill-conditioned: its "
            f"Cholesky factor has a pivot <= 0 or no finite inverse")
    # Each factor is a view of its transpose, C-ordered (see _congruence);
    # a buffer is freed once copied, so at most three stacks are alive.
    lt = np.ascontiguousarray(l.transpose(2, 1, 0)).reshape(a.shape)
    del l
    l_inv_t = np.ascontiguousarray(l_inv.transpose(2, 1, 0)).reshape(a.shape)
    return lt.swapaxes(-1, -2), l_inv_t.swapaxes(-1, -2)


def _congruence(g: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``g m g^T`` per matrix of a stack, symmetrized.  ``g^T`` should be
    C-ordered: as the right operand, a strided stack makes ``np.matmul``
    about twice as slow."""
    return _sym(g @ m @ g.swapaxes(-1, -2))


def _whitened_spectra(w: np.ndarray) -> np.ndarray:
    """``w``, the eigenvalues of whitened pairs ``L^{-1} B L^{-T}``, once
    every one is positive.  Near the eigenvalue floor, roundoff can make a
    whitened matrix indefinite, and its log or power meaningless: the first
    such pair is refused by its batch index."""
    bad = (w <= 0.0).any(axis=-1)
    if bad.any():
        i = tuple(int(k) for k in np.argwhere(bad)[0])
        raise ValidationError(
            f"spd pair at batch index {i} is too ill-conditioned: its "
            f"whitened matrix has eigenvalue {float(w[i].min())!r} <= 0")
    return w


class Spd(TargetSpace):
    """Symmetric positive-definite matrices with the affine-invariant metric.

    ``d(A, B) = || log(L^{-1} B L^{-T}) ||_F`` with geodesics ``L (L^{-1} B
    L^{-T})^t L^T``, where ``A = L L^T``: any factor of ``A`` gives the same
    values as ``A^{1/2}`` (Bhatia, *Positive Definite Matrices*, 2007, ch. 4).
    Base points are factored by Cholesky (:func:`_cholesky`), never
    eigendecomposed; the eigensolvers see only whitened matrices ``L^{-1}
    B L^{-T}``: 2x2 in closed form (:func:`_eig2`, LAPACK's result bit for
    bit), 3x3 by Jacobi (:func:`_jacobi3`), LAPACK otherwise.  Each matrix's
    result is the same bit for bit whatever batch it comes in, and every
    result is symmetrized before it is returned, so chains of operations
    cannot drift away from symmetry.  The kernels expect validated points,
    which ``_constrain`` leaves exactly symmetric.  A pair of valid points
    whose whitened matrix has an eigenvalue <= 0 in floating point (both
    near the eigenvalue floor) is refused with
    :class:`~nlsp.errors.ValidationError`.
    """

    kind = "spd"
    curvature_class = GLOBAL_NPC

    def __init__(self, matrix_dim: int):
        if not _is_integer(matrix_dim) or matrix_dim < 1:
            raise ValidationError(
                f"matrix_dim must be a positive integer, got {matrix_dim!r}")
        self.matrix_dim = int(matrix_dim)
        self.point_shape = (self.matrix_dim, self.matrix_dim)

    def _constrain(self, arr: np.ndarray) -> np.ndarray:
        # Exactly symmetric inputs skip re-symmetrization, so re-reading a
        # batch shares its buffer.
        asym = float(np.abs(arr - arr.swapaxes(-1, -2)).max(initial=0.0))
        if asym > SPD_SYMMETRY_TOL:
            raise ValidationError(
                f"spd point must be symmetric within {SPD_SYMMETRY_TOL}, got "
                f"max asymmetry {asym!r}")
        if asym > 0.0:
            arr = _sym(arr)
        eigs = _eigvalsh(arr)
        low = eigs.min(axis=-1)
        min_eig = float(low.min(initial=np.inf))
        ratio = float((low / eigs.max(axis=-1)).min(initial=np.inf))
        if min_eig <= SPD_MIN_EIG or ratio <= SPD_MIN_RATIO:
            raise ValidationError(
                f"spd point must have eigenvalues above {SPD_MIN_EIG} and "
                f"above {SPD_MIN_RATIO} times its largest, got minimum "
                f"{min_eig!r} and ratio {ratio!r}")
        return arr

    def distances(self, ys, zs) -> np.ndarray:
        ys, zs = np.asarray(ys, float), np.asarray(zs, float)
        white = _congruence(_cholesky(ys)[1], zs)
        logs = np.log(_whitened_spectra(_eigvalsh(white)))
        # Self-distance is exactly zero, not eigensolver dust.
        return np.where((ys == zs).all(axis=(-2, -1)), 0.0, _norms(logs))

    def geodesic_points(self, ys, zs, t) -> np.ndarray:
        t = _check_fractions(t)[..., None]
        l, l_inv = _cholesky(ys)
        return _congruence(l, _eig_apply(
            _congruence(l_inv, zs),
            lambda w: np.power(_whitened_spectra(w), t)))

    def log_maps(self, ys, zs) -> np.ndarray:
        ys, zs = np.asarray(ys, float), np.asarray(zs, float)
        l, l_inv = _cholesky(ys)
        logm = _eig_apply(_congruence(l_inv, zs),
                          lambda w: np.log(_whitened_spectra(w)))
        # The log of a point at itself is exactly zero, not eigensolver dust.
        same = (ys == zs).all(axis=(-2, -1))[..., None, None]
        return np.where(same, 0.0, _congruence(l, logm))

    def exp_maps(self, ys, vs) -> np.ndarray:
        l, l_inv = _cholesky(ys)
        return _congruence(l, _eig_apply(_congruence(l_inv, vs), np.exp))

    def tangent_norms(self, ys, vs) -> np.ndarray:
        scaled = _congruence(_cholesky(ys)[1], vs)
        return _dot_norms(scaled.reshape(scaled.shape[:-2] + (-1,)))

    def _form_points(self, raw: np.ndarray) -> np.ndarray:
        return _eig_apply(0.6 * _sym(raw), np.exp)

    def _tangent_part(self, base: np.ndarray, g: np.ndarray) -> np.ndarray:
        return _sym(g)

    def to_config(self) -> dict:
        return {"kind": "spd", "matrix_dim": self.matrix_dim}


class MetricTree(TargetSpace):
    """A finite metric tree: weighted edges with path-length distance.

    A point is a float array ``(edge, offset)``: an integer-valued edge
    index and the offset from the edge's first endpoint, in ``[0, edge
    length]``.  Between any two points there is a unique arc, so distances
    index a table of node-to-node distances and geodesics walk the node
    paths; the space has no tangent chart, and log/exp/tangent-norm
    requests raise :class:`~nlsp.errors.UnsupportedOperationError`.
    """

    kind = "metric_tree"
    curvature_class = GLOBAL_NPC
    has_chart = False
    point_shape = (2,)

    def __init__(self, edges):
        parsed = []
        for k, e in enumerate(edges):
            try:
                u, v, length = e
            except (TypeError, ValueError):
                raise ValidationError(
                    f"edge {k} must be a (node, node, length) triple, got {e!r}")
            if isinstance(length, bool) or not isinstance(length, numbers.Real):
                raise ValidationError(
                    f"edge {k} length must be a number, got {length!r}")
            length = float(length)
            if not math.isfinite(length) or length <= 0.0:
                raise ValidationError(
                    f"edge {k} must have positive finite length, got {length!r}")
            u, v = str(u), str(v)
            if u == v:
                raise ValidationError(f"edge {k} is a self-loop at node {u!r}")
            parsed.append((u, v, length))
        if not parsed:
            raise ValidationError("a metric tree needs at least one edge")
        self.edges: tuple[tuple[str, str, float], ...] = tuple(parsed)

        # Node order: first appearance in the edge list (deterministic).
        nodes: list[str] = []
        for u, v, _ in self.edges:
            for n in (u, v):
                if n not in nodes:
                    nodes.append(n)
        self.nodes: tuple[str, ...] = tuple(nodes)
        index = {n: i for i, n in enumerate(self.nodes)}

        if len(self.edges) != len(self.nodes) - 1:
            raise ValidationError(
                f"{len(self.edges)} edges on {len(self.nodes)} nodes cannot "
                "form a tree (need exactly nodes - 1 edges)")

        # Adjacency: node index -> list of (edge index, neighbour index);
        # the edge between two nodes (-1: none); each edge's two gate nodes.
        n = len(self.nodes)
        adj: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        self._edge_of = np.full((n, n), -1, dtype=np.intp)
        for k, (u, v, _) in enumerate(self.edges):
            ui, vi = index[u], index[v]
            if self._edge_of[ui, vi] >= 0:
                raise ValidationError(
                    f"duplicate edge between nodes {u!r} and {v!r}")
            adj[ui].append((k, vi))
            adj[vi].append((k, ui))
            self._edge_of[ui, vi] = self._edge_of[vi, ui] = k
        self._gates = np.array([[index[u], index[v]] for u, v, _ in self.edges])
        self._lengths = np.array([length for _, _, length in self.edges])

        # Single-source traversals from every node: accumulated distance and
        # the previous node on the path back to the root.
        self._node_dist = np.zeros((n, n))
        self._prev = np.full((n, n), -1, dtype=np.intp)
        for root in range(n):
            seen = [False] * n
            seen[root] = True
            stack = [root]
            while stack:
                cur = stack.pop()
                for k, nxt in adj[cur]:
                    if seen[nxt]:
                        continue
                    seen[nxt] = True
                    self._node_dist[root, nxt] = (
                        self._node_dist[root, cur] + self.edges[k][2])
                    self._prev[root, nxt] = cur
                    stack.append(nxt)
            if not all(seen):
                missing = [self.nodes[i] for i, s in enumerate(seen) if not s]
                raise ValidationError(
                    f"edge list is not connected: cannot reach {missing!r}")

        self.total_length = float(sum(length for _, _, length in self.edges))
        self._cum_length = np.concatenate([[0.0], np.cumsum(self._lengths)])

    # -- points ----------------------------------------------------------------

    def _constrain(self, arr: np.ndarray) -> np.ndarray:
        edge, off = arr[..., 0], arr[..., 1]
        bad = edge != np.floor(edge)
        if bad.any():
            raise ValidationError(
                f"edge index must be an integer, got {float(edge[bad].flat[0])!r}")
        bad = (edge < 0) | (edge >= len(self.edges))
        if bad.any():
            raise ValidationError(
                f"edge index must lie in [0, {len(self.edges)}), got "
                f"{int(edge[bad].flat[0])}")
        length = self._lengths[edge.astype(np.intp)]
        bad = (off < -1e-12) | (off > length + 1e-12)
        if bad.any():
            raise ValidationError(
                f"offset must lie in [0, {float(length[bad].flat[0])}] on edge "
                f"{int(edge[bad].flat[0])}, got {float(off[bad].flat[0])!r}")
        clamped = np.minimum(np.maximum(off, 0.0), length)
        # Canonical points pass through unchanged, so a batch of them is
        # kept as it is.
        if (clamped == off).all():
            return arr
        out = arr.copy()
        out[..., 1] = clamped
        return out

    def _split(self, points: np.ndarray):
        """Edge indices, offsets, both gate nodes of the edge and the
        distances from the point to them, over the batch axes."""
        edge = points[..., 0].astype(np.intp)
        off = points[..., 1]
        return (edge, off, self._gates[edge],
                np.stack([off, self._lengths[edge] - off], axis=-1))

    def distances(self, ys, zs) -> np.ndarray:
        ey, oy, gy, dy = self._split(np.asarray(ys, float))
        ez, oz, gz, dz = self._split(np.asarray(zs, float))
        # Through every gate pair: dy + node distance + dz, in that order.
        via = (dy[..., :, None] + self._node_dist[gy[..., :, None],
                                                  gz[..., None, :]]
               + dz[..., None, :])
        best = via.min(axis=(-2, -1))
        return np.where(ey == ez, np.abs(oy - oz), best)

    def _clamped(self, edge: np.ndarray, off: np.ndarray) -> np.ndarray:
        """Points ``(edge, offset)`` with roundoff past the ends clamped."""
        off = np.minimum(np.maximum(off, 0.0), self._lengths[edge])
        return np.stack([edge.astype(float), off], axis=-1)

    def geodesic_points(self, ys, zs, t) -> np.ndarray:
        """Walk from ``y`` through the gate nodes to ``z``: first along
        ``y``'s edge, then along whole edges of the node path, then into
        ``z``'s edge, subtracting each traversed length from ``s = t d``
        in that order.  The gate pair realizing the distance is taken in
        the order (gate of y, gate of z) = (u, u), (u, v), (v, u), (v, v),
        and a later pair replaces an earlier one only if shorter by more
        than 1e-15."""
        t = _check_fractions(t)
        ys = np.asarray(ys, float)
        zs = np.asarray(zs, float)
        shape = np.broadcast_shapes(ys.shape[:-1], zs.shape[:-1], t.shape)
        ys, zs = (np.broadcast_to(a, shape + (2,)).reshape(-1, 2)
                  for a in (ys, zs))
        t = np.broadcast_to(t, shape).ravel()
        ey, oy, gy, dys = self._split(ys)
        ez, oz, gz, dzs = self._split(zs)

        total = dys[:, 0] + self._node_dist[gy[:, 0], gz[:, 0]] + dzs[:, 0]
        ia = np.zeros(len(t), dtype=np.intp)
        ib = np.zeros(len(t), dtype=np.intp)
        for a, b in ((0, 1), (1, 0), (1, 1)):
            cand = dys[:, a] + self._node_dist[gy[:, a], gz[:, b]] + dzs[:, b]
            better = cand < total - 1e-15
            total = np.where(better, cand, total)
            ia[better], ib[better] = a, b
        rows = np.arange(len(t))
        cur, zi, dy = gy[rows, ia], gz[rows, ib], dys[rows, ia]
        s = t * total

        # Segment 1: along y's edge toward its gate.
        edge = ey.copy()
        off = np.where(ia == 0, oy - s, oy + s)
        past = (s > dy) & (ey != ez)
        s = s - dy
        # Segment 2: along whole edges toward z's gate, all pairs one edge
        # per step; a pair stops on the first edge long enough.
        walking = past & (cur != zi)
        while walking.any():
            w = np.flatnonzero(walking)
            nxt = self._prev[zi[w], cur[w]]
            k = self._edge_of[cur[w], nxt]
            length = self._lengths[k]
            hit = s[w] <= length
            h = w[hit]
            edge[h] = k[hit]
            off[h] = np.where(self._gates[k[hit], 0] == cur[h], s[h],
                              length[hit] - s[h])
            miss = w[~hit]
            s[miss] -= length[~hit]
            cur[miss] = nxt[~hit]
            walking[h] = False
            walking[miss] = cur[miss] != zi[miss]
        # Segment 3: from z's gate into z's edge.
        last = past & (cur == zi)
        edge[last] = ez[last]
        off[last] = np.where(ib[last] == 0, s[last],
                             self._lengths[ez[last]] - s[last])

        out = self._clamped(edge, off)
        same = ey == ez
        out[same, 1] = oy[same] + (oz[same] - oy[same]) * t[same]
        return out.reshape(shape + (2,))

    def _read_points(self, rngs, n: int) -> np.ndarray:
        return uniforms(rngs, 0.0, self.total_length, n)

    def _form_points(self, x: np.ndarray) -> np.ndarray:
        k = np.searchsorted(self._cum_length, x, side="right") - 1
        k = np.minimum(np.maximum(k, 0), len(self.edges) - 1)
        return self._clamped(k, x - self._cum_length[k])

    def to_config(self) -> dict:
        return {"kind": "metric_tree",
                "edges": [[u, v, float(length)] for u, v, length in self.edges]}

_TARGET_KINDS = {
    "euclidean": (Euclidean, ("dim",)),
    "sphere": (Sphere, ("dim",)),
    "spd": (Spd, ("matrix_dim",)),
    "metric_tree": (MetricTree, ("edges",)),
}


def make_target(config: dict) -> TargetSpace:
    """Build a target space from its JSON-able description."""
    if not isinstance(config, dict) or "kind" not in config:
        raise ValidationError(
            f"target config must be a dict with a 'kind' key, got {config!r}")
    kind = config["kind"]
    if kind not in _TARGET_KINDS:
        raise ValidationError(
            f"unknown target kind {kind!r}; expected one of "
            f"{sorted(_TARGET_KINDS)}")
    cls, fields = _TARGET_KINDS[kind]
    extra = set(config) - {"kind", *fields}
    if extra:
        raise ValidationError(
            f"unknown keys {sorted(extra)} in {kind!r} target config")
    missing = [f for f in fields if f not in config]
    if missing:
        raise ValidationError(
            f"target config for {kind!r} is missing {missing}")
    return cls(**{f: config[f] for f in fields})
