"""Simulator correctness: gate semantics, expectation, and the three gradient paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpgrad import qsim
from qpgrad.errors import InvalidGateError
from qpgrad.qsim import (
    GateKind,
    GateOp,
    Statevector,
    apply_gate,
    apply_hadamard_all,
    expectation_z_all,
    gradient_z_expectation,
    parameter_shift_gradient,
    run_circuit,
)


def h(q):
    return GateOp(GateKind.H, q)


def ry(q, a):
    return GateOp(GateKind.RY, q, angle=a)


def rz(q, a):
    return GateOp(GateKind.RZ, q, angle=a)


def cz(a, b):
    return GateOp(GateKind.CZ, target=b, control=a)


def random_circuit(rng, n_qubits=3, n_gates=30):
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(0, 4)
        q = int(rng.integers(0, n_qubits))
        if kind == 3 and n_qubits < 2:
            kind = 0
        if kind == 0:
            gates.append(h(q))
        elif kind == 1:
            gates.append(ry(q, float(rng.uniform(-np.pi, np.pi))))
        elif kind == 2:
            gates.append(rz(q, float(rng.uniform(-np.pi, np.pi))))
        else:
            q2 = int(rng.integers(0, n_qubits - 1))
            q2 = q2 if q2 != q else n_qubits - 1
            gates.append(cz(min(q, q2), max(q, q2)))
    return gates


class TestGates:
    def test_ry_pi_flips_zero(self):
        state = apply_gate(Statevector(1), ry(0, np.pi))
        np.testing.assert_allclose(state.amplitudes, [0.0, 1.0], atol=1e-15)

    def test_cz_phases_one_one(self):
        state = Statevector(2, np.array([0, 0, 0, 1], dtype=complex))
        out = apply_gate(state, cz(0, 1))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, -1], atol=0)

    def test_cz_leaves_other_basis_states(self):
        for idx in range(3):
            amps = np.zeros(4, dtype=complex)
            amps[idx] = 1.0
            out = apply_gate(Statevector(2, amps), cz(0, 1))
            np.testing.assert_allclose(out.amplitudes, amps)

    def test_rz_is_pure_phase_on_zero(self):
        phi = 0.731
        out = apply_gate(Statevector(1), rz(0, phi))
        assert out.amplitudes[0] == pytest.approx(np.exp(-0.5j * phi))
        np.testing.assert_allclose(np.abs(out.amplitudes) ** 2, [1.0, 0.0], atol=1e-15)

    def test_ry_matrix_convention(self):
        # RY(a)|0> = [cos(a/2), sin(a/2)]
        a = 1.234
        out = apply_gate(Statevector(1), ry(0, a))
        np.testing.assert_allclose(out.amplitudes, [np.cos(a / 2), np.sin(a / 2)], atol=1e-15)

    def test_apply_gate_does_not_mutate_input(self):
        state = Statevector(2)
        before = state.amplitudes.copy()
        apply_gate(state, h(0))
        np.testing.assert_array_equal(state.amplitudes, before)

    def test_target_out_of_range_rejected(self):
        with pytest.raises(InvalidGateError):
            apply_gate(Statevector(2), h(2))
        with pytest.raises(InvalidGateError):
            run_circuit([cz(0, 3)], 2)

    def test_control_equal_target_rejected(self):
        with pytest.raises(InvalidGateError):
            GateOp(GateKind.CZ, target=1, control=1)

    def test_control_required_only_for_cz(self):
        with pytest.raises(InvalidGateError):
            GateOp(GateKind.CZ, target=0)
        with pytest.raises(InvalidGateError):
            GateOp(GateKind.RY, target=0, control=1)


class TestHadamardAll:
    def test_two_qubits_equal_superposition(self):
        out = apply_hadamard_all(Statevector(2))
        np.testing.assert_allclose(out.amplitudes, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_one_qubit(self):
        out = apply_hadamard_all(Statevector(1))
        np.testing.assert_allclose(out.amplitudes, [1 / np.sqrt(2)] * 2, atol=1e-15)

    def test_four_qubits(self):
        out = apply_hadamard_all(Statevector(4))
        np.testing.assert_allclose(out.amplitudes, [0.25] * 16, atol=1e-15)


class TestExpectation:
    def test_all_zeros_eigenstate(self):
        assert expectation_z_all(Statevector(2)) == pytest.approx(1.0)

    def test_odd_parity(self):
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1.0  # one qubit flipped
        assert expectation_z_all(Statevector(2, amps)) == pytest.approx(-1.0)

    def test_balanced_superposition(self):
        out = apply_hadamard_all(Statevector(2))
        assert expectation_z_all(out) == pytest.approx(0.0, abs=1e-15)

    def test_single_ry_gives_cos(self):
        for a in (0.0, 0.4, 1.1, np.pi / 2, 2.8):
            state = run_circuit([ry(0, a)], 1)
            assert expectation_z_all(state) == pytest.approx(np.cos(a), abs=1e-12)


class TestRunCircuit:
    def test_empty_circuit_identity(self):
        out = run_circuit([], 1)
        np.testing.assert_allclose(out.amplitudes, [1.0, 0.0])

    def test_h_squared_is_identity(self):
        out = run_circuit([h(0), h(0)], 1)
        np.testing.assert_allclose(out.amplitudes, [1.0, 0.0], atol=1e-15)

    def test_cz_squared_is_identity(self):
        out = run_circuit([h(0), h(1), cz(0, 1), cz(0, 1)], 2)
        np.testing.assert_allclose(out.amplitudes, [0.5] * 4, atol=1e-15)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(3)
        gates = random_circuit(rng, n_qubits=4, n_gates=40)
        a = run_circuit(gates, 4).amplitudes
        b = run_circuit(gates, 4).amplitudes
        assert np.array_equal(a, b)


class TestGradients:
    def test_single_ry_at_zero(self):
        # <Z> = cos(a); derivative at 0 is 0
        g = gradient_z_expectation([ry(0, 0.0)], 1)
        assert g[0] == pytest.approx(0.0, abs=1e-15)

    def test_single_ry_at_half_pi(self):
        g = gradient_z_expectation([ry(0, np.pi / 2)], 1)
        assert g[0] == pytest.approx(-1.0, abs=1e-12)

    def test_gradient_length_counts_rotations(self):
        gates = [h(0), ry(0, 0.3), cz(0, 1), rz(1, 0.2), h(1)]
        assert len(gradient_z_expectation(gates, 2)) == 2

    def _finite_difference(self, gates, n_qubits, step=1e-5):
        # independent oracle: central differences through the forward path only
        rot = [i for i, g in enumerate(gates) if g.is_rotation]
        grads = np.zeros(len(rot))
        for r, i in enumerate(rot):
            up = list(gates)
            dn = list(gates)
            up[i] = GateOp(gates[i].kind, gates[i].target, angle=gates[i].angle + step)
            dn[i] = GateOp(gates[i].kind, gates[i].target, angle=gates[i].angle - step)
            e_up = expectation_z_all(run_circuit(up, n_qubits))
            e_dn = expectation_z_all(run_circuit(dn, n_qubits))
            grads[r] = (e_up - e_dn) / (2 * step)
        return grads

    def test_adjoint_matches_shift_and_finite_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            gates = random_circuit(rng, n_qubits=4, n_gates=35)
            adj = gradient_z_expectation(gates, 4)
            shift = parameter_shift_gradient(gates, 4)
            fd = self._finite_difference(gates, 4)
            np.testing.assert_allclose(adj, shift, atol=1e-10)
            np.testing.assert_allclose(adj, fd, atol=1e-5)


class TestProperties:
    """Seeded-loop property checks over random circuits."""

    def test_norm_preserved_and_expectation_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            gates = random_circuit(rng, n_qubits=n, n_gates=int(rng.integers(1, 50)))
            state = run_circuit(gates, n)
            assert abs(state.norm() - 1.0) < 1e-10
            assert abs(expectation_z_all(state)) <= 1.0 + 1e-12

    def test_gradient_consistency_random_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            gates = random_circuit(rng, n_qubits=3, n_gates=25)
            adj = gradient_z_expectation(gates, 3)
            shift = parameter_shift_gradient(gates, 3)
            np.testing.assert_allclose(adj, shift, atol=1e-10)


def _packed(gates, n_qubits):
    """Packed arrays for (kind, qubit, other, angle) tuples drawn freely.

    Qubits are folded into the register and CZ gets a distinct partner
    (or becomes H on one qubit), so every drawn list is a valid circuit.
    """
    kinds, qa, qb, angles = [], [], [], []
    for kind, q, other, angle in gates:
        q %= n_qubits
        if kind == qsim.KIND_CZ and n_qubits == 1:
            kind = qsim.KIND_H
        if kind == qsim.KIND_CZ:
            other = (q + 1 + other % (n_qubits - 1)) % n_qubits
        else:
            other = -1
        kinds.append(kind)
        qa.append(q)
        qb.append(other)
        angles.append(angle if kind in (qsim.KIND_RY, qsim.KIND_RZ) else 0.0)
    return (
        np.array(kinds, dtype=np.int8),
        np.array(qa, dtype=np.int32),
        np.array(qb, dtype=np.int32),
        np.array(angles, dtype=np.float64),
    )


_gate_tuples = st.tuples(
    st.sampled_from([qsim.KIND_H, qsim.KIND_RY, qsim.KIND_RZ, qsim.KIND_CZ]),
    st.integers(0, 7),
    st.integers(0, 7),
    st.floats(-7.0, 7.0),
)


class TestBackendParity:
    """The compiled kernel against the numpy oracle."""

    def _assert_agree(self, n_qubits, kinds, qa, qb, angles):
        c = qsim.backend_module("c")
        np_ = qsim.backend_module("numpy")
        a1 = c.run(n_qubits, kinds, qa, qb, angles)
        a2 = np_.run(n_qubits, kinds, qa, qb, angles)
        np.testing.assert_allclose(a1, a2, atol=1e-13)
        assert c.expval_z(a1, n_qubits) == pytest.approx(np_.expval_z(a2, n_qubits), abs=1e-13)
        assert c.run_expval_z(n_qubits, kinds, qa, qb, angles) == c.expval_z(a1, n_qubits)
        e1, g1 = c.expval_z_and_grad(n_qubits, kinds, qa, qb, angles)
        e2, g2 = np_.expval_z_and_grad(n_qubits, kinds, qa, qb, angles)
        assert e1 == pytest.approx(e2, abs=1e-13)
        assert g1.shape == g2.shape
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_backends_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            gates = random_circuit(rng, n_qubits=4, n_gates=40)
            self._assert_agree(4, *qsim.pack_gates(gates, 4))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 5), st.lists(_gate_tuples, max_size=40))
    def test_backends_agree_on_random_circuits(self, n_qubits, gates):
        self._assert_agree(n_qubits, *_packed(gates, n_qubits))
