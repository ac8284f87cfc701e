"""Deterministic random-stream derivation.

All randomness in the package flows from a single master seed:

* per-run seeds are derived from the master seed with a splitmix64-style
  mix (``derive_run_seeds``), so runs are independent and reorderable;
* within a run, every consumer (parameter init, episode k, validation
  episode j, evaluation task) gets its own Philox counter stream keyed by
  ``(run_seed, *path)`` via ``substream``.

Philox is counter-based, so streams are independent of execution order and
bit-reproducible across platforms for a fixed numpy version.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stream-kind tags used as the first path component of `substream`.
STREAM_INIT = 0
STREAM_EPISODE = 1
STREAM_VALIDATION = 2
STREAM_EVAL = 3
STREAM_PAIRS = 4


def splitmix64(seed: int, index: int) -> int:
    """Return the ``index``-th 64-bit value of a splitmix64 sequence at ``seed``."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_run_seeds(master_seed: int, n: int) -> list[int]:
    """Expand a master seed into ``n`` per-run seeds."""
    return [splitmix64(master_seed, i) for i in range(n)]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream for one consumer identified by ``path``.

    Path components are non-negative ints of any size (stream-kind tag
    followed by indices such as episode number or a checkpoint's 64-bit
    seed); ``SeedSequence`` keeps every bit, so 2**40 and 0 name different
    streams. A negative component raises ``ValueError``.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))
