"""Exact statevector simulation of RY/RZ/H/CZ circuits with gate-angle gradients.

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
the simulation is fully deterministic (identical gate lists give
bit-identical statevectors).

Gate conventions (the generator of every rotation has spectral norm 1/2):
    RY(a) = exp(-i a Y / 2),  RZ(a) = exp(-i a Z / 2)
"""

from __future__ import annotations

import enum
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _sv_c, _sv_numpy
from .errors import InvalidGateError

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
    except (OSError, subprocess.CalledProcessError) as exc:
        if requested == "c":
            raise ImportError(f"the C kernel could not be built: {exc}") from exc
        print(f"qpgrad: the C kernel could not be built ({exc}); using the numpy backend",
              file=sys.stderr)
        return _sv_numpy


_kernel = load_kernel(os.environ.get("QPGRAD_BACKEND", "auto").lower() or "auto")

BACKEND = "numpy" if _kernel is _sv_numpy else "c"

KIND_H = _sv_numpy.KIND_H
KIND_RY = _sv_numpy.KIND_RY
KIND_RZ = _sv_numpy.KIND_RZ
KIND_CZ = _sv_numpy.KIND_CZ


def backend_module(name: str):
    """Kernel by name ('c' or 'numpy'); used by the benchmark and the tests.

    Raises ``ImportError`` when the C kernel cannot be built.
    """
    if name == "numpy":
        return _sv_numpy
    if name == "c":
        return _kernel if BACKEND == "c" else load_kernel("c")
    raise ValueError(f"unknown backend {name!r}")


class GateKind(enum.IntEnum):
    H = KIND_H
    RY = KIND_RY
    RZ = KIND_RZ
    CZ = KIND_CZ


_ROTATIONS = (GateKind.RY, GateKind.RZ)


@dataclass(frozen=True)
class AngleSource:
    """Where a rotation angle comes from when the circuit realizes a policy.

    ``kind`` is "nu" (constant variational angle) or "omega" (encoding
    weight multiplied by input feature ``feature``). ``layer``/``qubit``/
    ``slot`` index the parameter tensor.
    """

    kind: str
    layer: int
    qubit: int
    slot: int
    feature: int | None = None

    def __post_init__(self):
        if self.kind not in ("nu", "omega"):
            raise InvalidGateError(f"angle source kind must be 'nu' or 'omega', got {self.kind!r}")
        if (self.kind == "omega") != (self.feature is not None):
            raise InvalidGateError("encoding sources carry a feature index, variational ones do not")


@dataclass(frozen=True)
class GateOp:
    """One gate: H, RY, RZ, or CZ. ``control`` is present only for CZ."""

    kind: GateKind
    target: int
    control: int | None = None
    angle: float = 0.0
    source: AngleSource | None = None

    def __post_init__(self):
        if (self.kind == GateKind.CZ) != (self.control is not None):
            raise InvalidGateError("control qubit is required for CZ and forbidden otherwise")
        if self.control is not None and self.control == self.target:
            raise InvalidGateError("CZ control and target must differ")
        if self.source is not None and self.kind not in _ROTATIONS:
            raise InvalidGateError("only rotation gates carry an angle source")

    @property
    def is_rotation(self) -> bool:
        return self.kind in _ROTATIONS


@dataclass
class Statevector:
    """Dense n-qubit pure state; ``amplitudes[b]`` is the amplitude of basis index b."""

    n_qubits: int
    amplitudes: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise InvalidGateError("n_qubits must be positive")
        if self.amplitudes is None:
            self.amplitudes = _kernel.zero_state(self.n_qubits)
        else:
            self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
            if self.amplitudes.shape != (1 << self.n_qubits,):
                raise InvalidGateError(
                    f"amplitude vector must have 2**{self.n_qubits} entries, "
                    f"got {self.amplitudes.shape}"
                )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amplitudes.copy())


def pack_gates(gates, n_qubits: int):
    """Validate a gate list and pack it into kernel-ready parallel arrays."""
    n = len(gates)
    kinds = np.empty(n, dtype=np.int8)
    qa = np.empty(n, dtype=np.int32)
    qb = np.empty(n, dtype=np.int32)
    angles = np.zeros(n, dtype=np.float64)
    for i, g in enumerate(gates):
        if not 0 <= g.target < n_qubits:
            raise InvalidGateError(f"gate {i}: target {g.target} out of range for {n_qubits} qubits")
        if g.control is not None and not 0 <= g.control < n_qubits:
            raise InvalidGateError(f"gate {i}: control {g.control} out of range for {n_qubits} qubits")
        kinds[i] = int(g.kind)
        qa[i] = g.target
        qb[i] = -1 if g.control is None else g.control
        angles[i] = g.angle
    return kinds, qa, qb, angles


def apply_gate(state: Statevector, gate: GateOp) -> Statevector:
    """Return the gate-evolved state; the input state is left untouched."""
    kinds, qa, qb, angles = pack_gates([gate], state.n_qubits)
    amps = state.amplitudes.copy()
    _kernel.apply_ops(amps, state.n_qubits, kinds, qa, qb, angles)
    return Statevector(state.n_qubits, amps)


def apply_hadamard_all(state: Statevector) -> Statevector:
    """H on every qubit; from |0...0> this prepares the equal superposition."""
    gates = [GateOp(GateKind.H, q) for q in range(state.n_qubits)]
    kinds, qa, qb, angles = pack_gates(gates, state.n_qubits)
    amps = state.amplitudes.copy()
    _kernel.apply_ops(amps, state.n_qubits, kinds, qa, qb, angles)
    return Statevector(state.n_qubits, amps)


def expectation_z_all(state: Statevector) -> float:
    """<Z x ... x Z> = sum_b (-1)**popcount(b) |amp_b|^2; always in [-1, 1]."""
    return _kernel.expval_z(state.amplitudes, state.n_qubits)


def run_circuit(gates, n_qubits: int) -> Statevector:
    """Evolve |0...0> through ``gates`` in order."""
    kinds, qa, qb, angles = pack_gates(gates, n_qubits)
    return Statevector(n_qubits, _kernel.run(n_qubits, kinds, qa, qb, angles))


def gradient_z_expectation(gates, n_qubits: int) -> np.ndarray:
    """d<Z^n>/d(angle) for every rotation gate, via adjoint reverse sweep.

    One forward plus one backward statevector pass regardless of the number
    of parameters; entries follow gate order.
    """
    kinds, qa, qb, angles = pack_gates(gates, n_qubits)
    _, grads = _kernel.expval_z_and_grad(n_qubits, kinds, qa, qb, angles)
    return grads


def parameter_shift_gradient(gates, n_qubits: int) -> np.ndarray:
    """Same gradient via the exact +-pi/2 parameter-shift rule (cross-check path)."""
    kinds, qa, qb, angles = pack_gates(gates, n_qubits)
    rot_idx = [i for i, g in enumerate(gates) if g.is_rotation]
    grads = np.zeros(len(rot_idx))
    for r, i in enumerate(rot_idx):
        shifted = angles.copy()
        shifted[i] = angles[i] + np.pi / 2
        e_plus = _kernel.run_expval_z(n_qubits, kinds, qa, qb, shifted)
        shifted[i] = angles[i] - np.pi / 2
        e_minus = _kernel.run_expval_z(n_qubits, kinds, qa, qb, shifted)
        grads[r] = 0.5 * (e_plus - e_minus)
    return grads


def packed_expval(n_qubits, kinds, qa, qb, angles) -> float:
    """Forward expectation for pre-packed arrays (hot path, skips GateOp objects)."""
    return _kernel.run_expval_z(n_qubits, kinds, qa, qb, angles)


def packed_expval_and_grad(n_qubits, kinds, qa, qb, angles):
    """Forward expectation and adjoint gradient for pre-packed arrays (hot path)."""
    return _kernel.expval_z_and_grad(n_qubits, kinds, qa, qb, angles)
