"""Exact statevector simulation of RY/RZ/H/CZ circuits with gate-angle gradients.

A circuit is one representation only: four parallel arrays, ``kinds``
(int8, one of ``KIND_*``), ``qa`` (int32 target qubit), ``qb`` (int32 CZ
partner, -1 for one-qubit gates) and ``angles`` (float64, ignored for H and
CZ). ``policy.CircuitTemplate`` builds them for the policy circuit. Qubit
``q`` is bit ``q`` of the basis index. Both kernels reject, with
``ValueError`` and before any amplitude changes, a gate of unknown kind, a
target outside the register and a CZ partner outside it or equal to the
target.

The active kernel, ``_kernel``, evaluates many circuits that share one gate
list and differ only in their angles: ``expval_z_rows`` and
``expval_z_and_grad_rows`` take a (B, n_gates) angle block and evaluate
each row exactly as it would run alone, so a row's result never depends on
the other rows. ``policy.CircuitTemplate`` calls them, once per step of a
batch of episodes played in lockstep on ``numpy``. On ``c`` the hot path is
``episode_kernel``: one call derives the random stream and draws the start
of each episode of a batch, and one more plays the whole batch of CartPole
episodes on several threads (``_sv_c.Kernel.threads``, one per core by
default: the caller's and helpers that outlive the call, park when idle and
are joined before every fork of the process), each episode drawing
from its own stream with numpy's own C distributions, so that no result
depends on the thread count.
``trainer.play_batch`` makes both calls. The kernel also draws each run's
initial parameters from its init stream in C (``trainer.start_params``),
so no ``c`` campaign imports ``numpy.random``.

The heavy lifting happens in one of two interchangeable kernel backends:

* ``c`` — the hand-written C kernel ``_sv_c.c``, called through ctypes
  (``_sv_c.py``). The first import compiles it with ``cc`` into
  ``__pycache__`` next to this file; later imports load the cached library.
* ``numpy`` — the pure-numpy ``_sv_numpy``, always available and the oracle
  the C kernel is tested against.

Selection happens at import time. The environment variable
``QPGRAD_BACKEND`` is ``auto`` (the default: ``c``, or ``numpy`` with one
line on stderr when the C kernel cannot be built), ``c`` or ``numpy``. Both
backends produce identical results up to the last few ulps; within a backend
the simulation is fully deterministic (identical gate arrays give
bit-identical statevectors).

Gate conventions (the generator of every rotation has spectral norm 1/2):
    RY(a) = exp(-i a Y / 2),  RZ(a) = exp(-i a Z / 2)
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

from . import _sv_c, _sv_numpy

_CACHE_DIR = Path(__file__).with_name("__pycache__")


def load_kernel(requested: str, cache_dir: Path = _CACHE_DIR):
    """The kernel for a ``QPGRAD_BACKEND`` value, building the C one if needed.

    ``auto`` falls back to ``_sv_numpy`` with one line on stderr when the C
    kernel cannot be built or loaded, for example with no compiler or a
    cache directory that cannot be written; ``c`` raises ``ImportError``.
    """
    if requested == "numpy":
        return _sv_numpy
    if requested not in ("auto", "c"):
        raise ImportError(f"QPGRAD_BACKEND must be 'auto', 'c' or 'numpy', got {requested!r}")
    try:
        return _sv_c.Kernel(_sv_c.build(cache_dir))
    except OSError as exc:
        if requested == "c":
            raise ImportError(f"the C kernel could not be built: {exc}") from exc
        print(f"qpgrad: the C kernel could not be built ({exc}); using the numpy backend",
              file=sys.stderr)
        return _sv_numpy


_kernel = load_kernel(os.environ.get("QPGRAD_BACKEND", "auto").lower() or "auto")

BACKEND = "numpy" if _kernel is _sv_numpy else "c"
# The C kernel's library file, whose name hashes its source, its flags and
# libnpyrandom.a; "numpy" on the numpy backend.
KERNEL = "numpy" if _kernel is _sv_numpy else _kernel.path.name

KIND_H = _sv_numpy.KIND_H
KIND_RY = _sv_numpy.KIND_RY
KIND_RZ = _sv_numpy.KIND_RZ
KIND_CZ = _sv_numpy.KIND_CZ


def episode_kernel():
    """The active kernel when it starts and plays whole batches of episodes
    (``start_episodes`` and ``play_episodes``), or None on the numpy
    backend, where ``substream``, ``cartpole.reset`` and
    ``trainer.play_episodes`` do."""
    return None if _kernel is _sv_numpy else _kernel


def parameter_shift_gradient(n_qubits, kinds, qa, qb, angles) -> np.ndarray:
    """d<Z^n>/d(angle) for every rotation gate, in gate order, by the exact
    +-pi/2 parameter-shift rule; the reference the adjoint gradient is tested against."""
    rotations = np.flatnonzero((kinds == KIND_RY) | (kinds == KIND_RZ))
    n, rows = len(rotations), np.arange(len(rotations))
    plus, minus = np.tile(angles, (n, 1)), np.tile(angles, (n, 1))
    plus[rows, rotations] += np.pi / 2
    minus[rows, rotations] -= np.pi / 2
    e = _kernel.expval_z_rows(n_qubits, kinds, qa, qb, np.vstack([plus, minus]))
    return 0.5 * (e[:n] - e[n:])

