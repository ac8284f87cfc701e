"""Pure-numpy statevector kernels (fallback backend).

Same row calls as the compiled kernel ``_sv_c`` (``expval_z_rows`` and
``expval_z_and_grad_rows``), and the oracle they are tested against; the
one-state functions ``apply_ops``, ``run`` and ``expval_z`` they are built
from exist only here. Gates are packed into parallel arrays (kind, target,
other-qubit, angle) and applied to a dense complex128 amplitude vector. Qubit ``q`` is
bit ``q`` of the basis index. A gate of unknown kind, a target outside the
register, or a CZ partner outside it or equal to the target raises
``ValueError`` before any amplitude changes; the C kernel rejects the same
gates before it computes anything.

The row-batched calls evaluate one circuit per row of a (B, n_gates) angle
block by running each row through the single-circuit code, so a row gets
the bits of the same circuit alone. Stacking the rows into one (B, 2**n)
block of states would not: numpy's complex product of two arrays (the
per-row RZ phases against the amplitudes) can round differently from its
product of an array and a scalar.

Gate conventions (fixed package-wide):
    RY(a) = [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]]
    RZ(a) = diag(exp(-i a/2), exp(+i a/2))
    H     = [[1, 1], [1, -1]] / sqrt(2)
    CZ    = diag(1, 1, 1, -1) on the (target, other) pair
"""

from __future__ import annotations

import numpy as np

KIND_H = 0
KIND_RY = 1
KIND_RZ = 2
KIND_CZ = 3

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

_parity_cache: dict[int, np.ndarray] = {}


def parity_signs(n_qubits: int) -> np.ndarray:
    """(-1)**popcount(b) for every basis index b."""
    signs = _parity_cache.get(n_qubits)
    if signs is None:
        idx = np.arange(1 << n_qubits, dtype=np.uint64)
        bits = np.zeros_like(idx)
        for q in range(n_qubits):
            bits += (idx >> np.uint64(q)) & np.uint64(1)
        signs = np.where(bits % 2 == 0, 1.0, -1.0)
        signs.setflags(write=False)
        _parity_cache[n_qubits] = signs
    return signs


def zero_state(n_qubits: int) -> np.ndarray:
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def _pair_view(amps: np.ndarray, q: int) -> np.ndarray:
    """Reshape so axis 1 is qubit q: shape (high, 2, 2**q)."""
    return amps.reshape(-1, 2, 1 << q)


def _apply_ry(amps: np.ndarray, q: int, angle: float) -> None:
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    v = _pair_view(amps, q)
    a0 = v[:, 0, :].copy()
    a1 = v[:, 1, :]
    v[:, 0, :] = c * a0 - s * a1
    v[:, 1, :] = s * a0 + c * a1


def _apply_rz(amps: np.ndarray, q: int, angle: float) -> None:
    p = np.exp(-0.5j * angle)
    v = _pair_view(amps, q)
    v[:, 0, :] *= p
    v[:, 1, :] *= np.conj(p)


def _apply_h(amps: np.ndarray, q: int) -> None:
    v = _pair_view(amps, q)
    a0 = v[:, 0, :].copy()
    a1 = v[:, 1, :]
    v[:, 0, :] = (a0 + a1) * _INV_SQRT2
    v[:, 1, :] = (a0 - a1) * _INV_SQRT2


def _cz_mask(n_qubits: int, qa: int, qb: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    both = (1 << qa) | (1 << qb)
    return (idx & both) == both


def _apply_one(amps: np.ndarray, n_qubits: int, kind: int, qa: int, qb: int, angle: float) -> None:
    if kind == KIND_RY:
        _apply_ry(amps, qa, angle)
    elif kind == KIND_RZ:
        _apply_rz(amps, qa, angle)
    elif kind == KIND_H:
        _apply_h(amps, qa)
    else:
        amps[_cz_mask(n_qubits, qa, qb)] *= -1.0


def _check_gates(n_qubits, kinds, qa, qb) -> None:
    kinds, qa, qb = np.asarray(kinds), np.asarray(qa), np.asarray(qb)
    bad = (kinds < KIND_H) | (kinds > KIND_CZ) | (qa < 0) | (qa >= n_qubits)
    bad |= (kinds == KIND_CZ) & ((qb < 0) | (qb >= n_qubits) | (qb == qa))
    if bad.any():
        raise ValueError(
            f"gate {int(np.argmax(bad))}: unknown kind, qubit outside {n_qubits} qubits or CZ on one qubit"
        )


def _check_rows(angles, n_gates: int) -> None:
    if not (isinstance(angles, np.ndarray) and angles.ndim == 2 and angles.shape[1] == n_gates):
        raise ValueError(f"angles must be a 2-D array with one column per gate ({n_gates})")


def apply_ops(amps, n_qubits, kinds, qa, qb, angles) -> None:
    """Apply the packed gate list to ``amps`` in place."""
    _check_gates(n_qubits, kinds, qa, qb)
    for g in range(len(kinds)):
        _apply_one(amps, n_qubits, int(kinds[g]), int(qa[g]), int(qb[g]), float(angles[g]))


def run(n_qubits, kinds, qa, qb, angles) -> np.ndarray:
    """Evolve |0...0> through the packed gate list."""
    amps = zero_state(n_qubits)
    apply_ops(amps, n_qubits, kinds, qa, qb, angles)
    return amps


def expval_z(amps: np.ndarray, n_qubits: int) -> float:
    """<Z tensor ... tensor Z>; exactly real by construction."""
    probs = amps.real**2 + amps.imag**2
    return float(np.dot(parity_signs(n_qubits), probs))


def expval_z_rows(n_qubits, kinds, qa, qb, angles) -> np.ndarray:
    """``expval_z(run(...))`` for each row of the (B, n_gates) ``angles``."""
    _check_gates(n_qubits, kinds, qa, qb)
    _check_rows(angles, len(kinds))
    return np.array([expval_z(run(n_qubits, kinds, qa, qb, row), n_qubits) for row in angles], dtype=np.float64)


def _grad_dot(lam: np.ndarray, psi: np.ndarray, kind: int, q: int, angle: float) -> float:
    """2 Re <lam| dU/dangle |psi> for a rotation gate at ``angle``."""
    lv = _pair_view(lam, q)
    pv = _pair_view(psi, q)
    half = angle / 2.0
    if kind == KIND_RY:
        c, s = np.cos(half), np.sin(half)
        d0 = 0.5 * (-s * pv[:, 0, :] - c * pv[:, 1, :])
        d1 = 0.5 * (c * pv[:, 0, :] - s * pv[:, 1, :])
    else:  # RZ
        p = np.exp(-0.5j * angle)
        d0 = -0.5j * p * pv[:, 0, :]
        d1 = 0.5j * np.conj(p) * pv[:, 1, :]
    dot = np.sum(np.conj(lv[:, 0, :]) * d0) + np.sum(np.conj(lv[:, 1, :]) * d1)
    return 2.0 * float(dot.real)


def _expval_z_and_grad(n_qubits, kinds, qa, qb, angles):
    """Forward expectation of Z^n and its adjoint gradient for one circuit."""
    psi = run(n_qubits, kinds, qa, qb, angles)
    expval = expval_z(psi, n_qubits)
    lam = psi * parity_signs(n_qubits)
    n_rot = sum(1 for k in kinds if k in (KIND_RY, KIND_RZ))
    grads = np.zeros(n_rot)
    r = n_rot - 1
    for g in range(len(kinds) - 1, -1, -1):
        kind, q, other, angle = int(kinds[g]), int(qa[g]), int(qb[g]), float(angles[g])
        # Undo gate g (H and CZ are involutions; rotations invert by -angle).
        _apply_one(psi, n_qubits, kind, q, other, -angle)
        if kind in (KIND_RY, KIND_RZ):
            grads[r] = _grad_dot(lam, psi, kind, q, angle)
            r -= 1
        _apply_one(lam, n_qubits, kind, q, other, -angle)
    return expval, grads


def expval_z_and_grad_rows(n_qubits, kinds, qa, qb, angles):
    """Forward expectation of Z^n plus its adjoint (reverse-sweep) gradient,
    for each row of the (B, n_gates) ``angles``.

    Returns ``(expvals, grads)``: shape (B,), and (B, rotations) holding
    d<Z^n>/d(angle) for every rotation gate, in gate order.
    """
    _check_gates(n_qubits, kinds, qa, qb)
    _check_rows(angles, len(kinds))
    n_rot = int(np.count_nonzero((np.asarray(kinds) == KIND_RY) | (np.asarray(kinds) == KIND_RZ)))
    expvals = np.empty(len(angles))
    grads = np.empty((len(angles), n_rot))
    for r, row in enumerate(angles):
        expvals[r], grads[r] = _expval_z_and_grad(n_qubits, kinds, qa, qb, row)
    return expvals, grads
