"""Deterministic counter-based random streams.

All randomness in the toolkit flows from a single 64-bit seed through
Philox streams keyed by ``(suite name, trial index)``.  Any trial can
therefore be computed independently, on any thread and in any order, with
bit-identical results.

Because each trial reads only its own stream, a batch of trials is drawn
in two phases (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC 2011).  The read phase takes every trial's raw variates from its
own stream, in turn, in the order and amounts of a one-trial draw
(:func:`normals`, :func:`uniforms`).  The form phase then makes the points
of all trials from the stacked ``(trial, ...)`` variates in one kernel
call.  A draw whose reads depend on formed values, such as the redraw of a
degenerate variate or a tangent at a drawn point, alternates the phases in
rounds: each round reads every stream once and forms the round's stack,
and a stream's redraws are read in its round, before any later read of
that stream.  So each trial's stream is read exactly as in a draw of that
trial alone, and its points have the same bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ValidationError


def suite_key(name: str) -> int:
    """Stable 64-bit key for a suite name."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def trial_rng(seed: int, suite: str, trial: int) -> np.random.Generator:
    """Independent generator for one trial of one named suite.

    The stream depends only on ``(seed, suite, trial)``, never on how many
    trials ran before or on which thread this one runs.
    """
    return trial_rngs(seed, suite, (trial,))[0]


def trial_rngs(seed: int, suite: str, trials) -> list[np.random.Generator]:
    """The generators of the given trial indices of one suite, in order:
    ``trial_rng(seed, suite, trial)`` for each, the suite hashed once."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValidationError(f"seed must be an integer, got {type(seed).__name__}")
    if seed < 0 or seed >= 2 ** 64:
        raise ValidationError(f"seed must fit in 64 unsigned bits, got {seed}")
    key = suite_key(suite)
    rngs = []
    for trial in trials:
        if not isinstance(trial, (int, np.integer)) or trial < 0:
            raise ValidationError(
                f"trial index must be a nonnegative integer, got {trial!r}")
        ss = np.random.SeedSequence(entropy=int(seed),
                                    spawn_key=(key, int(trial)))
        rngs.append(np.random.Generator(np.random.Philox(ss)))
    return rngs


def normals(rngs, shape) -> np.ndarray:
    """Read phase: standard normals of ``shape`` from each stream in turn;
    shape ``(stream, *shape)``."""
    return np.array([rng.standard_normal(shape) for rng in rngs])


def uniforms(rngs, low: float, high: float, size=None) -> np.ndarray:
    """Read phase: uniforms on ``[low, high)`` from each stream in turn, as
    ``rng.uniform(low, high, size)`` reads them; shape ``(stream,)`` for one
    value per stream, else ``(stream, *size)``."""
    return np.array([rng.uniform(low, high, size) for rng in rngs])
