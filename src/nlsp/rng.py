"""Deterministic counter-based random streams.

All randomness in the toolkit flows from a single 64-bit seed through
Philox streams keyed by ``(suite name, trial index)``.  Any trial can
therefore be computed independently, on any thread and in any order, with
bit-identical results.  Trial ``i`` of suite ``s`` is the Philox stream of
``SeedSequence(entropy=seed, spawn_key=(suite_key(s), i))``, whose keys
:func:`trial_rngs` hashes for a batch of trials in one pass, importing
``numpy.random`` on first use.

Because each trial reads only its own stream, a batch of trials is drawn
in two phases (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC 2011).  The read phase takes every trial's raw variates from its
own stream, in turn, in the order and amounts of a one-trial draw, into
one ``(trial, ...)`` buffer (:func:`normals`, :func:`uniforms`).  The form
phase then makes the points of all trials from the stacked variates in
one kernel call.  A draw whose reads depend on formed values, such as the
redraw of a degenerate variate or a tangent at a drawn point, alternates
the phases in rounds: each round reads every stream once and forms the
round's stack, and a stream's redraws are read in its round, before any
later read of that stream.  So each trial's stream is read exactly as in
a draw of that trial alone, and its points have the same bytes.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .errors import ValidationError

# SeedSequence's hash (numpy/random/bit_generator.pyx) on uint32 words:
# the k-th ``hashmix`` xors its word with _A[k] and multiplies by _A[k+1],
# up to trial indices below 2**256; the output hash runs _B alike.
_M32, _POOL, _MIX_L, _MIX_R = 0xFFFFFFFF, 4, 0xCA01F9DD, 0x4973F715
_A = [0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) & _M32 for k in range(64)]
_B = np.array([0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _M32
               for k in range(_POOL + 1)], np.uint32)[:, None]


def _words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words, at least one."""
    out = [n & _M32]
    while n := n >> 32:
        out.append(n & _M32)
    return out


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> 16)


def _hashmix(value, xor, mult):
    value = ((value ^ xor) * mult) & _M32
    return value ^ (value >> 16)


@functools.lru_cache(maxsize=256)
def _pool(seed: int, key: int) -> tuple[tuple[int, ...], int]:
    """The entropy pool after the seed's words, padded to the pool size,
    and the key's words; and the ``hashmix`` calls taken."""
    head = _words(seed)
    head += [0] * (_POOL - len(head)) + _words(key)
    pool = [_hashmix(w, _A[k], _A[k + 1]) for k, w in enumerate(head[:_POOL])]
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], _A[k], _A[k + 1]))
                k += 1
    for w in head[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(w, _A[k], _A[k + 1]))
            k += 1
    return tuple(pool), k


def _philox_keys(seed: int, key: int, trials: list[int]) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(key, t)).generate_state(2,
    uint64)`` for each ``t`` of ``trials``, shape ``(trial, 2)``: the
    trial words mix into the pool for all trials of one word count at
    once."""
    pool, k = _pool(seed, key)
    a = np.array(_A, np.uint32)[:, None]
    words = [_words(t) for t in trials]
    out = np.empty((len(trials), 2), np.uint64)
    for count in set(map(len, words)):
        rows = [r for r, w in enumerate(words) if len(w) == count]
        mixed = np.array(pool, np.uint32)[:, None]
        for n, w in enumerate(np.array([words[r] for r in rows], np.uint32).T):
            at = k + n * _POOL
            mixed = _mix(mixed, _hashmix(w, a[at:at + _POOL],
                                         a[at + 1:at + _POOL + 1]))
        state = _hashmix(mixed, _B[:-1], _B[1:])
        out[rows] = np.ascontiguousarray(state.T).astype("<u4").view("<u8")
    return out


@functools.cache
def _generator_from_key():
    """``key -> Generator(Philox(...))`` for a ready Philox key."""
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    class Key:
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    ISeedSequence.register(Key)
    return lambda key: Generator(Philox(Key(key)))


def suite_key(name: str) -> int:
    """Stable 64-bit key for a suite name."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _is_integer(value) -> bool:
    """An ``int`` or numpy integer; a ``bool`` is not a size or index."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def trial_rng(seed: int, suite: str, trial: int) -> np.random.Generator:
    """Independent generator for one trial of one named suite.

    The stream depends only on ``(seed, suite, trial)``, never on how many
    trials ran before or on which thread this one runs.
    """
    return trial_rngs(seed, suite, (trial,))[0]


def trial_rngs(seed: int, suite: str, trials) -> list[np.random.Generator]:
    """The generators of the given trial indices of one suite, in order:
    ``trial_rng(seed, suite, trial)`` for each, every key made in one pass."""
    if not _is_integer(seed):
        raise ValidationError(f"seed must be an integer, got {type(seed).__name__}")
    if seed < 0 or seed >= 2 ** 64:
        raise ValidationError(f"seed must fit in 64 unsigned bits, got {seed}")
    trials = list(trials)
    for trial in trials:
        if not _is_integer(trial) or not 0 <= trial < 2 ** 256:
            raise ValidationError(f"trial index must be a nonnegative "
                                  f"integer below 2**256, got {trial!r}")
    make = _generator_from_key()
    return [make(key) for key in _philox_keys(
        int(seed), suite_key(suite), [int(t) for t in trials])]


def normals(rngs, shape) -> np.ndarray:
    """Read phase: standard normals of ``shape`` from each stream in turn;
    shape ``(stream, *shape)``."""
    out = np.empty((len(rngs), *shape))
    for rng, row in zip(rngs, out if out.ndim > 1 else out[:, None]):
        rng.standard_normal(out=row)
    return out


def uniforms(rngs, low: float, high: float, size=None) -> np.ndarray:
    """Read phase: uniforms on ``[low, high)`` from each stream in turn, as
    ``rng.uniform(low, high, size)`` reads them; shape ``(stream,)`` for one
    value per stream, else ``(stream, *size)``.  Each stream fills its row
    with ``rng.random``, scaled once as ``low + (high - low) u``, the
    formula of ``rng.uniform``."""
    out = np.empty((len(rngs), *(() if size is None else np.atleast_1d(size))))
    for rng, row in zip(rngs, out if out.ndim > 1 else out[:, None]):
        rng.random(out=row)
    return low + (high - low) * out
