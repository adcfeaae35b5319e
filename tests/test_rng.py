"""The random streams: keys made in one pass and read phases into buffers,
bit for bit against numpy's own ``SeedSequence`` route."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from nlsp.errors import ValidationError
from nlsp.rng import normals, suite_key, trial_rng, trial_rngs, uniforms

SEEDS = (0, 1, 7, 12345, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5, 2 ** 64 - 1)
TRIALS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40)


def _oracle(seed: int, suite: str, trial: int) -> np.random.Generator:
    """The stream as numpy builds it: a ``SeedSequence`` per trial."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=seed, spawn_key=(suite_key(suite), trial))))


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_streams_equal_the_seed_sequence_route(seed):
    """Every key, single- and multi-word trial indices alike, gives the
    state and the first reads of the ``SeedSequence`` stream."""
    for suite in ("fubini", "skorokhod/pairs"):
        for rng, trial in zip(trial_rngs(seed, suite, TRIALS), TRIALS):
            oracle = _oracle(seed, suite, trial)
            assert repr(rng.bit_generator.state) \
                == repr(oracle.bit_generator.state)
            assert rng.standard_normal(16).tobytes() \
                == oracle.standard_normal(16).tobytes()
            assert rng.uniform(0.25, 1.0, 16).tobytes() \
                == oracle.uniform(0.25, 1.0, 16).tobytes()


def test_one_trial_and_numpy_indices_give_the_same_stream():
    """``trial_rng`` is a batch of one, and a numpy integer index reads as
    the equal Python one."""
    batch = trial_rngs(7, "x", [np.int64(3), np.uint32(2 ** 32 - 1)])
    singles = [trial_rng(7, "x", 3), trial_rng(7, "x", 2 ** 32 - 1)]
    for a, b in zip(batch, singles):
        assert a.random(4).tobytes() == b.random(4).tobytes()
    assert not isinstance(batch[0].bit_generator.seed_seq,
                          np.random.SeedSequence)


@pytest.mark.parametrize("trial", [True, False, -1, 1.0, "1"])
def test_a_trial_index_that_is_not_a_nonnegative_integer_is_refused(trial):
    """A ``bool`` is refused as the trial index, as it is as the seed:
    ``True`` would otherwise read trial 1's stream."""
    with pytest.raises(ValidationError, match="trial index"):
        trial_rngs(7, "x", [0, trial])


@pytest.mark.parametrize("seed", [True, -1, 2 ** 64, 7.0])
def test_a_seed_outside_64_unsigned_bits_is_refused(seed):
    with pytest.raises(ValidationError, match="seed must"):
        trial_rngs(seed, "x", [0])


@pytest.mark.parametrize("shape", [(), (3,), (4, 2), (2, 3, 3), (0, 2)])
def test_normals_fill_the_buffer_as_each_stream_reads_alone(shape):
    streams, alone = (trial_rngs(5, "test/normals", range(7)) for _ in "ab")
    got = normals(streams, shape)
    want = np.array([rng.standard_normal(shape) for rng in alone])
    assert got.shape == (7, *shape) and got.tobytes() == want.tobytes()
    # Each stream stands where its own read left it.
    assert normals(streams, (2,)).tobytes() == np.array(
        [rng.standard_normal(2) for rng in alone]).tobytes()


@pytest.mark.parametrize("low,high", [(0.0, 1.0), (0.5, 1.5), (0.08, 0.92),
                                      (0.0, 2.0 * np.pi), (0.04, 0.06),
                                      (-3.0, 7.5), (0.25, 1.0), (1e-3, 1e3)])
@pytest.mark.parametrize("size", [None, 3, (10, 2)])
def test_uniforms_scale_once_as_each_stream_reads_alone(low, high, size):
    """``low + (high - low) u`` over the filled buffer is
    ``rng.uniform(low, high, size)`` bit for bit."""
    streams, alone = (trial_rngs(9, "test/uniforms", range(50)) for _ in "ab")
    got = uniforms(streams, low, high, size)
    want = np.array([rng.uniform(low, high, size) for rng in alone])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_no_stream_of_a_run_is_built_from_a_seed_sequence(monkeypatch):
    """Generators are built from ready keys: the ``SeedSequence`` class is
    never called while the streams of a battery are made."""
    def refuse(*args, **kwargs):
        raise AssertionError("a SeedSequence was built")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random.bit_generator, "SeedSequence", refuse)
    assert len(trial_rngs(7, "curvature/spd", range(500))) == 500


def test_importing_the_cli_does_not_load_numpy_random():
    """The streams import ``numpy.random`` on first use, which keeps it
    out of the start-up time of every command."""
    code = ("import sys, nlsp.cli; "
            "sys.exit('numpy.random' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
