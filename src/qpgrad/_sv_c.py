"""ctypes front end of the compiled statevector kernel ``_sv_c.c``.

``build`` compiles the C file into a cache directory, and ``Kernel`` wraps
the library with the contract of ``_sv_numpy``: ``zero_state``,
``apply_ops``, ``run``, ``expval_z``, ``expval_z_rows`` and
``expval_z_and_grad_rows``. The C code takes raw pointers, so each argument
is checked first: dtype, 1-D gate arrays of equal length, an angle vector of
that length (a 2-D block with that many columns for the row-batched calls),
``len(amps) == 2**n_qubits``, and C-contiguous, writable amplitudes where
they change in place. Inputs reach the C code as C-contiguous copies, and
the C code itself rejects unknown gate kinds, qubits outside the register
and a CZ on one qubit. A failed check raises ``ValueError`` and computes
nothing.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from . import _sv_numpy

SOURCE = Path(__file__).with_name("_sv_c.c")
# -ffp-contract=off keeps multiply-adds unfused, so results are the same on
# every target; -ffast-math or -march=native could change the last bits.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def build(cache_dir: Path) -> Path:
    """Compile ``_sv_c.c`` into ``cache_dir`` unless it is there already.

    The library's name carries a hash of the source and the flags. It is
    written under a temporary name and then renamed, so concurrent builds
    into one cache cannot see each other's partial files. Raises ``OSError``
    when there is no compiler or the cache cannot be written, and
    ``subprocess.CalledProcessError`` when the compiler fails.
    """
    digest = hashlib.sha256(SOURCE.read_bytes() + " ".join(CFLAGS).encode()).hexdigest()
    lib = cache_dir / f"_sv_c-{digest[:16]}.so"
    if lib.exists():
        return lib
    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.stem, suffix=".tmp", dir=cache_dir)
    os.close(fd)
    try:
        subprocess.run(["cc", *CFLAGS, "-o", tmp, str(SOURCE), "-lm"], check=True, capture_output=True)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


_C128 = np.dtype(np.complex128)
_F64 = np.dtype(np.float64)
_I8 = np.dtype(np.int8)
_I32 = np.dtype(np.int32)

# A zero-length ctypes array made over a numpy buffer passes the buffer's
# address at a fraction of the cost of ``ndarray.ctypes``, which would
# dominate a call on 16 amplitudes.
_Memory = ctypes.c_char * 0


def _input(arr, dtype: np.dtype, name: str, ndim: int = 1) -> bytes:
    """A C-contiguous copy of an ``ndim``-D input array; a bytes object passes
    as a pointer more cheaply than any view of the array itself."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.ndim == ndim):
        raise ValueError(f"{name} must be a {ndim}-D {dtype} array")
    return arr.tobytes()


# The C code sizes its scratch states from n_qubits; 2**32 amplitudes
# already take 64 GiB.
MAX_QUBITS = 32


def _gates(n_qubits, kinds, qa, qb):
    """The register size and the gate arrays as the C functions take them."""
    if not 0 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must lie in [0, {MAX_QUBITS}], got {n_qubits}")
    data = (_input(kinds, _I8, "kinds"), _input(qa, _I32, "qa"), _input(qb, _I32, "qb"))
    if not len(kinds) == len(qa) == len(qb):
        raise ValueError("kinds, qa and qb must have equal lengths")
    return (n_qubits, *data)


def _angle_rows(angles, n_gates: int) -> bytes:
    """The (rows, n_gates) angle block as the C functions take it."""
    data = _input(angles, _F64, "angles", ndim=2)
    if angles.shape[1] != n_gates:
        raise ValueError(f"angles must have one column per gate ({n_gates}), got {angles.shape[1]}")
    return data


def _check_length(amps: np.ndarray, n_qubits: int) -> None:
    if len(amps) != 1 << n_qubits:
        raise ValueError(f"amps must have 2**{n_qubits} entries, got {len(amps)}")


def _check_status(status: int, n_qubits: int) -> None:
    if status == -2:
        raise MemoryError("no memory for the scratch statevectors")
    if status >= 0:
        raise ValueError(f"gate {status}: unknown kind, qubit outside {n_qubits} qubits or CZ on one qubit")


class Kernel:
    """The compiled kernel loaded from the library at ``path``."""

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path))
        ptr, n, size = ctypes.c_void_p, ctypes.c_int, ctypes.c_ssize_t
        self._apply_ops = lib.apply_ops
        self._apply_ops.argtypes = [ptr, n, ptr, ptr, ptr, ptr, size]
        self._apply_ops.restype = size
        self._expval_z = lib.expval_z
        self._expval_z.argtypes = [ptr, n]
        self._expval_z.restype = ctypes.c_double
        self._rows = lib.expval_z_and_grad_rows
        self._rows.argtypes = [n, ptr, ptr, ptr, ptr, size, size, ptr, ptr]
        self._rows.restype = size

    zero_state = staticmethod(_sv_numpy.zero_state)

    def apply_ops(self, amps, n_qubits, kinds, qa, qb, angles) -> None:
        """Apply the packed gate list to ``amps`` in place."""
        if not (isinstance(amps, np.ndarray) and amps.dtype == _C128 and amps.ndim == 1
                and amps.flags.c_contiguous and amps.flags.writeable):
            raise ValueError("amps must be a writable 1-D C-contiguous complex128 array")
        _check_length(amps, n_qubits)
        gates = _gates(n_qubits, kinds, qa, qb)
        data = _input(angles, _F64, "angles")
        if len(angles) != len(kinds):
            raise ValueError("kinds, qa, qb and angles must have equal lengths")
        status = self._apply_ops(_Memory.from_buffer(amps), *gates, data, len(kinds))
        _check_status(status, n_qubits)

    def run(self, n_qubits, kinds, qa, qb, angles) -> np.ndarray:
        """Evolve |0...0> through the packed gate list."""
        amps = self.zero_state(n_qubits)
        self.apply_ops(amps, n_qubits, kinds, qa, qb, angles)
        return amps

    def expval_z(self, amps, n_qubits) -> float:
        """<Z tensor ... tensor Z>; exactly real by construction."""
        data = _input(amps, _C128, "amps")
        _check_length(amps, n_qubits)
        return self._expval_z(data, n_qubits)

    def expval_z_rows(self, n_qubits, kinds, qa, qb, angles) -> np.ndarray:
        """``expval_z(run(...))`` for each row of the (B, n_gates) ``angles``, in one call."""
        gates = _gates(n_qubits, kinds, qa, qb)
        data = _angle_rows(angles, len(kinds))
        expvals = np.empty(len(angles))
        status = self._rows(*gates, data, len(kinds), len(angles), None, _Memory.from_buffer(expvals))
        _check_status(status, n_qubits)
        return expvals

    def expval_z_and_grad_rows(self, n_qubits, kinds, qa, qb, angles):
        """Forward expectation of Z^n plus its adjoint (reverse-sweep) gradient,
        for each row of the (B, n_gates) ``angles``, in one call.

        Returns ``(expvals, grads)``: shape (B,), and (B, rotations) with one
        gradient entry per rotation gate, in gate order.
        """
        gates = _gates(n_qubits, kinds, qa, qb)
        data = _angle_rows(angles, len(kinds))
        kind_bytes = gates[1]  # the C code counts rotations by the same rule
        n_rot = kind_bytes.count(_sv_numpy.KIND_RY) + kind_bytes.count(_sv_numpy.KIND_RZ)
        expvals = np.empty(len(angles))
        grads = np.empty((len(angles), n_rot))
        status = self._rows(*gates, data, len(kinds), len(angles), _Memory.from_buffer(grads),
                            _Memory.from_buffer(expvals))
        _check_status(status, n_qubits)
        return expvals, grads
