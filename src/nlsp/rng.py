"""Deterministic counter-based random streams.

All randomness in the toolkit flows from a single 64-bit seed through
Philox streams keyed by ``(suite name, trial index)``.  Any trial can
therefore be computed independently, on any thread and in any order, with
bit-identical results.
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
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValidationError(f"seed must be an integer, got {type(seed).__name__}")
    if seed < 0 or seed >= 2 ** 64:
        raise ValidationError(f"seed must fit in 64 unsigned bits, got {seed}")
    if not isinstance(trial, (int, np.integer)) or trial < 0:
        raise ValidationError(f"trial index must be a nonnegative integer, got {trial!r}")
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(suite_key(suite), int(trial)))
    return np.random.Generator(np.random.Philox(ss))
