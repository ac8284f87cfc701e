"""Deterministic random-stream derivation.

All randomness in the package flows from a single master seed:

* per-run seeds are derived from the master seed with a splitmix64-style
  mix (``derive_run_seeds``), so runs are independent and reorderable;
* within a run, every consumer (parameter init, episode k, validation
  episode j, evaluation task) gets its own Philox counter stream keyed by
  ``(run_seed, *path)`` via ``substream``.

A batch of episodes names its streams as ``Streams``: one seed, one path
prefix and each episode's trailing path components. On the ``c`` backend
the kernel derives those streams itself, from the entropy words of
``Streams.head`` and the trailing components, as the same Philox states
``substream`` would build; on ``numpy`` ``Streams.generators`` builds them
with ``substream``. A run's init stream, ``substream(seed, STREAM_INIT)``,
is derived the same way on ``c``, where the kernel also makes the initial
parameter draw (``trainer.start_params``), so no ``c`` campaign imports
``numpy.random``. ``tests/test_fused_step.py`` holds the two to the same
bits.

Philox is counter-based, so streams are independent of execution order and
bit-reproducible across platforms for a fixed numpy version.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# The words of numpy's default SeedSequence pool.
_POOL_SIZE = 4
_GOLDEN = 0x9E3779B97F4A7C15

# Stream-kind tags used as the first path component of `substream`.
STREAM_INIT = 0
STREAM_EPISODE = 1
STREAM_VALIDATION = 2
STREAM_EVAL = 3


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


def _words(n: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first, as
    ``SeedSequence`` splits its entropy: 0 is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@dataclass(frozen=True, eq=False)
class Streams:
    """The streams of a batch of episodes: episode i draws from
    ``substream(seed, *prefix, *suffixes[i])``.

    ``seed`` and the ``prefix`` components are non-negative ints of any
    size; ``suffixes`` holds each episode's trailing components, as a
    (B, m) array of non-negative ints below 2**64. A negative seed or
    component raises ``ValueError``.
    """

    seed: int
    prefix: tuple
    suffixes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "seed", operator.index(self.seed))
        object.__setattr__(self, "prefix", tuple(operator.index(c) for c in self.prefix))
        suffixes = np.asarray(self.suffixes)
        if suffixes.ndim != 2 or suffixes.dtype.kind not in "iu":
            raise ValueError("suffixes must be a 2-D array of ints below 2**64, one row per episode")
        lowest = min(self.seed, *self.prefix, suffixes.min(initial=0))
        if lowest < 0:
            raise ValueError(f"stream seeds and path components must be >= 0, got {lowest}")
        object.__setattr__(self, "suffixes", np.ascontiguousarray(suffixes, dtype=np.uint64))

    def __len__(self) -> int:
        return len(self.suffixes)

    def head(self) -> np.ndarray:
        """The leading entropy words of every stream (uint32), as
        ``SeedSequence`` assembles them: the seed's words, padded with zeros
        to the pool size when the path is not empty, then the prefix's."""
        words = _words(self.seed)
        if self.prefix or self.suffixes.shape[1]:
            words += [0] * (_POOL_SIZE - len(words))
        return np.array(words + [w for c in self.prefix for w in _words(c)], dtype=np.uint32)

    def generators(self) -> list[np.random.Generator]:
        """One ``substream`` generator per episode."""
        return [substream(self.seed, *self.prefix, *row) for row in self.suffixes.tolist()]
