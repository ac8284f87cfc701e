"""Simulator correctness: gate semantics, expectation, and the three gradient paths.

Circuits are packed gate arrays, the only form the kernels take. Every
gate-semantics check runs on both kernels, the compiled one and the numpy
oracle, through their row calls, which return <Z^n>: a gate is seen
through the expectation of a circuit built around it. Amplitudes are
checked on the numpy oracle, the one kernel that exposes its states.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpgrad import _sv_numpy, qsim
from qpgrad.policy import AnsatzSpec, CircuitTemplate
from qpgrad.qsim import parameter_shift_gradient


@cache
def kernels():
    """Both kernels; building the C one fails the calling test if it cannot be built."""
    return (qsim.load_kernel("c"), qsim.load_kernel("numpy"))


def h(q):
    return (qsim.KIND_H, q, -1, 0.0)


def ry(q, a):
    return (qsim.KIND_RY, q, -1, a)


def rz(q, a):
    return (qsim.KIND_RZ, q, -1, a)


def cz(a, b):
    return (qsim.KIND_CZ, b, a, 0.0)


def pack(gates):
    """(kind, qubit, partner, angle) tuples as the kernels' four gate arrays."""
    return (
        np.array([g[0] for g in gates], dtype=np.int8),
        np.array([g[1] for g in gates], dtype=np.int32),
        np.array([g[2] for g in gates], dtype=np.int32),
        np.array([g[3] for g in gates], dtype=np.float64),
    )


def forward(kernel, n_qubits, kinds, qa, qb, angles):
    """<Z^n> of one circuit, as the one row of a batched call."""
    return kernel.expval_z_rows(n_qubits, kinds, qa, qb, angles[None])[0]


def adjoint(kernel, n_qubits, kinds, qa, qb, angles):
    """(<Z^n>, adjoint gradient) of one circuit, as the one row of a batched call."""
    e, g = kernel.expval_z_and_grad_rows(n_qubits, kinds, qa, qb, angles[None])
    return e[0], g[0]


def evolve(gates, n_qubits, amps=None):
    """The state ``gates`` make from ``amps`` (default |0...0>) on the numpy
    oracle; ``amps`` itself is left alone."""
    amps = _sv_numpy.zero_state(n_qubits) if amps is None else np.array(amps, dtype=np.complex128)
    _sv_numpy.apply_ops(amps, n_qubits, *pack(gates))
    return amps


def expval(kernel, gates, n_qubits):
    """<Z^n> after ``gates``, as the one row of a batched call."""
    return forward(kernel, n_qubits, *pack(gates))


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
        np.testing.assert_allclose(evolve([ry(0, np.pi)], 1), [0.0, 1.0], atol=1e-15)
        for kernel in kernels():
            assert expval(kernel, [ry(0, np.pi)], 1) == pytest.approx(-1.0, abs=1e-15)

    def test_cz_phases_one_one(self):
        np.testing.assert_allclose(evolve([cz(0, 1)], 2, amps=[0, 0, 0, 1]), [0, 0, 0, -1], atol=0)
        # with qubit 1 in |1>, CZ is Z on qubit 0, and H Z H flips it: |11>, <ZZ> = +1
        kick = [ry(1, np.pi), h(0), cz(0, 1), h(0)]
        for kernel in kernels():
            assert expval(kernel, kick, 2) == pytest.approx(1.0, abs=1e-15)

    def test_cz_leaves_other_basis_states(self):
        for idx in range(3):
            amps = np.zeros(4, dtype=complex)
            amps[idx] = 1.0
            np.testing.assert_allclose(evolve([cz(0, 1)], 2, amps), amps)
        # with qubit 1 in |0>, CZ is the identity and H H returns qubit 0 to |0>
        for kernel in kernels():
            assert expval(kernel, [h(0), cz(0, 1), h(0)], 2) == pytest.approx(1.0, abs=1e-15)
            assert expval(kernel, [h(1), cz(0, 1), h(1)], 2) == pytest.approx(1.0, abs=1e-15)

    def test_rz_is_pure_phase_on_zero(self):
        phi = 0.731
        out = evolve([rz(0, phi)], 1)
        assert out[0] == pytest.approx(np.exp(-0.5j * phi))
        np.testing.assert_allclose(np.abs(out) ** 2, [1.0, 0.0], atol=1e-15)
        for kernel in kernels():
            assert expval(kernel, [rz(0, phi)], 1) == pytest.approx(1.0, abs=1e-15)
            # the relative phase of |+> shows after H: <Z> = cos(phi)
            assert expval(kernel, [h(0), rz(0, phi), h(0)], 1) == pytest.approx(np.cos(phi), abs=1e-15)

    def test_ry_matrix_convention(self):
        # RY(a)|0> = [cos(a/2), sin(a/2)]
        a = 1.234
        np.testing.assert_allclose(evolve([ry(0, a)], 1), [np.cos(a / 2), np.sin(a / 2)], atol=1e-15)
        for kernel in kernels():
            assert expval(kernel, [ry(0, a)], 1) == pytest.approx(np.cos(a), abs=1e-15)
            # <X> = 2 cos(a/2) sin(a/2), whose sign fixes the sign of sin
            assert expval(kernel, [ry(0, a), h(0)], 1) == pytest.approx(np.sin(a), abs=1e-15)

    def test_apply_gate_does_not_mutate_input(self):
        # the kernels write only their outputs, never the gate arrays
        gates = pack([h(0), ry(1, 0.4), cz(0, 1), rz(0, -1.3)])
        before = [a.copy() for a in gates]
        for kernel in kernels():
            forward(kernel, 2, *gates)
            adjoint(kernel, 2, *gates)
            for a, b in zip(gates, before):
                np.testing.assert_array_equal(a, b)

    def test_target_out_of_range_rejected(self):
        for kernel in kernels():
            for gates in ([h(2)], [ry(-1, 0.3)], [cz(0, 3)], [cz(3, 1)], [cz(-1, 1)]):
                with pytest.raises(ValueError):
                    forward(kernel, 2, *pack(gates))
                with pytest.raises(ValueError):
                    adjoint(kernel, 2, *pack(gates))
        # the numpy oracle's one-state call rejects the gate before it touches the amplitudes
        for gates in ([h(0), h(2)], [h(0), ry(-1, 0.3)], [h(0), cz(0, 3)], [h(0), cz(3, 1)], [h(0), cz(-1, 1)]):
            amps = _sv_numpy.zero_state(2)
            with pytest.raises(ValueError):
                _sv_numpy.apply_ops(amps, 2, *pack(gates))
            np.testing.assert_array_equal(amps, _sv_numpy.zero_state(2))


class TestHadamardAll:
    def test_two_qubits_equal_superposition(self):
        np.testing.assert_allclose(evolve([h(0), h(1)], 2), [0.5] * 4, atol=1e-15)
        for kernel in kernels():
            assert expval(kernel, [h(0), h(1)], 2) == pytest.approx(0.0, abs=1e-15)

    def test_one_qubit(self):
        np.testing.assert_allclose(evolve([h(0)], 1), [1 / np.sqrt(2)] * 2, atol=1e-15)
        for kernel in kernels():
            assert expval(kernel, [h(0)], 1) == pytest.approx(0.0, abs=1e-15)

    def test_four_qubits(self):
        np.testing.assert_allclose(evolve([h(q) for q in range(4)], 4), [0.25] * 16, atol=1e-15)
        for kernel in kernels():
            assert expval(kernel, [h(q) for q in range(4)], 4) == pytest.approx(0.0, abs=1e-15)
            # the same layer again returns |0000>
            assert expval(kernel, [h(q) for q in range(4)] * 2, 4) == pytest.approx(1.0, abs=1e-14)


class TestExpectation:
    def test_all_zeros_eigenstate(self):
        assert _sv_numpy.expval_z(_sv_numpy.zero_state(2), 2) == pytest.approx(1.0)
        for kernel in kernels():
            assert expval(kernel, [], 2) == 1.0

    def test_odd_parity(self):
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1.0  # one qubit flipped
        assert _sv_numpy.expval_z(amps, 2) == pytest.approx(-1.0)
        for kernel in kernels():
            assert expval(kernel, [ry(0, np.pi)], 2) == pytest.approx(-1.0, abs=1e-15)

    def test_balanced_superposition(self):
        for kernel in kernels():
            assert forward(kernel, 2, *pack([h(0), h(1)])) == pytest.approx(0.0, abs=1e-15)

    def test_single_ry_gives_cos(self):
        for kernel in kernels():
            for a in (0.0, 0.4, 1.1, np.pi / 2, 2.8):
                assert forward(kernel, 1, *pack([ry(0, a)])) == pytest.approx(np.cos(a), abs=1e-12)


class TestRunCircuit:
    def test_empty_circuit_identity(self):
        np.testing.assert_allclose(_sv_numpy.run(1, *pack([])), [1.0, 0.0])
        for kernel in kernels():
            assert expval(kernel, [], 1) == 1.0

    def test_h_squared_is_identity(self):
        np.testing.assert_allclose(_sv_numpy.run(1, *pack([h(0), h(0)])), [1.0, 0.0], atol=1e-15)
        for kernel in kernels():
            assert expval(kernel, [h(0), h(0)], 1) == pytest.approx(1.0, abs=1e-15)

    def test_cz_squared_is_identity(self):
        out = _sv_numpy.run(2, *pack([h(0), h(1), cz(0, 1), cz(0, 1)]))
        np.testing.assert_allclose(out, [0.5] * 4, atol=1e-15)
        for kernel in kernels():
            assert expval(kernel, [h(0), h(1), cz(0, 1), cz(0, 1), h(0), h(1)], 2) == pytest.approx(1.0, abs=1e-15)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(3)
        gates = pack(random_circuit(rng, n_qubits=4, n_gates=40))
        assert np.array_equal(_sv_numpy.run(4, *gates), _sv_numpy.run(4, *gates))
        for kernel in kernels():
            (e1, g1), (e2, g2) = adjoint(kernel, 4, *gates), adjoint(kernel, 4, *gates)
            assert e1 == e2 == forward(kernel, 4, *gates)
            assert np.array_equal(g1, g2)


class TestGradients:
    def test_single_ry_at_zero(self):
        # <Z> = cos(a); derivative at 0 is 0
        for kernel in kernels():
            _, g = adjoint(kernel, 1, *pack([ry(0, 0.0)]))
            assert g[0] == pytest.approx(0.0, abs=1e-15)

    def test_single_ry_at_half_pi(self):
        for kernel in kernels():
            _, g = adjoint(kernel, 1, *pack([ry(0, np.pi / 2)]))
            assert g[0] == pytest.approx(-1.0, abs=1e-12)

    def test_gradient_length_counts_rotations(self):
        gates = pack([h(0), ry(0, 0.3), cz(0, 1), rz(1, 0.2), h(1)])
        for kernel in kernels():
            assert len(adjoint(kernel, 2, *gates)[1]) == 2
        assert len(parameter_shift_gradient(2, *gates)) == 2

    def _finite_difference(self, kernel, n_qubits, kinds, qa, qb, angles, step=1e-5):
        # independent oracle: central differences through the forward path only
        rot = np.flatnonzero((kinds == qsim.KIND_RY) | (kinds == qsim.KIND_RZ))
        grads = np.zeros(len(rot))
        for r, i in enumerate(rot):
            up, dn = angles.copy(), angles.copy()
            up[i] += step
            dn[i] -= step
            e_up = forward(kernel, n_qubits, kinds, qa, qb, up)
            e_dn = forward(kernel, n_qubits, kinds, qa, qb, dn)
            grads[r] = (e_up - e_dn) / (2 * step)
        return grads

    def test_adjoint_matches_shift_and_finite_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            gates = pack(random_circuit(rng, n_qubits=4, n_gates=35))
            shift = parameter_shift_gradient(4, *gates)
            for kernel in kernels():
                _, adj = adjoint(kernel, 4, *gates)
                np.testing.assert_allclose(adj, shift, atol=1e-10)
                np.testing.assert_allclose(adj, self._finite_difference(kernel, 4, *gates), atol=1e-5)


class TestProperties:
    """Seeded-loop property checks over random circuits."""

    def test_norm_preserved_and_expectation_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            gates = pack(random_circuit(rng, n_qubits=n, n_gates=int(rng.integers(1, 50))))
            state = _sv_numpy.run(n, *gates)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10
            for kernel in kernels():
                assert abs(forward(kernel, n, *gates)) <= 1.0 + 1e-12

    def test_gradient_consistency_random_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            gates = pack(random_circuit(rng, n_qubits=3, n_gates=25))
            shift = parameter_shift_gradient(3, *gates)
            for kernel in kernels():
                np.testing.assert_allclose(adjoint(kernel, 3, *gates)[1], shift, atol=1e-10)


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
        c, np_ = kernels()
        state = np_.run(n_qubits, kinds, qa, qb, angles)
        assert forward(np_, n_qubits, kinds, qa, qb, angles) == np_.expval_z(state, n_qubits)
        assert forward(c, n_qubits, kinds, qa, qb, angles) == pytest.approx(np_.expval_z(state, n_qubits), abs=1e-13)
        e1, g1 = adjoint(c, n_qubits, kinds, qa, qb, angles)
        e2, g2 = adjoint(np_, n_qubits, kinds, qa, qb, angles)
        assert e1 == pytest.approx(e2, abs=1e-13)
        assert g1.shape == g2.shape
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_rows_match_single_circuits(self):
        # a row of a batched call gives the bits of the same circuit alone
        rng = np.random.default_rng(9)
        for _ in range(10):
            kinds, qa, qb, angles = pack(random_circuit(rng, n_qubits=4, n_gates=40))
            block = np.stack([angles, -angles, rng.uniform(-7, 7, len(angles))])
            for kernel in kernels():
                e, g = kernel.expval_z_and_grad_rows(4, kinds, qa, qb, block)
                assert np.array_equal(kernel.expval_z_rows(4, kinds, qa, qb, block), e)
                for r, row in enumerate(block):
                    e_r, g_r = adjoint(kernel, 4, kinds, qa, qb, row)
                    assert e[r] == e_r
                    assert np.array_equal(g[r], g_r)

    def test_backends_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            self._assert_agree(4, *pack(random_circuit(rng, n_qubits=4, n_gates=40)))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 5), st.lists(_gate_tuples, max_size=40))
    def test_backends_agree_on_random_circuits(self, n_qubits, gates):
        self._assert_agree(n_qubits, *_packed(gates, n_qubits))


def _rotations(rng, n_qubits):
    """H, RY and RZ on every qubit, with random angles."""
    return [g for q in range(n_qubits) for g in (h(q), ry(q, rng.uniform(-7, 7)), rz(q, rng.uniform(-7, 7)))]


def _cz_run(n_qubits):
    """CZ on each neighbouring pair, the ring closed from 3 qubits on, and the
    first pair once more, so that two of its signs cancel."""
    pairs = [(q, q + 1) for q in range(n_qubits - 1)] + ([(0, n_qubits - 1)] if n_qubits > 2 else [])
    return [cz(a, b) for a, b in pairs + pairs[:1]]


def _assert_rows_agree(n_qubits, kinds, qa, qb, block):
    """Each row of the compiled kernel's block agrees with the oracle and,
    alone, gives the bits it gives in the block, in either row order and
    from either row call."""
    c, np_ = kernels()
    alone = [adjoint(c, n_qubits, kinds, qa, qb, row) for row in block]
    for row, (e_r, g_r) in zip(block, alone):
        e_np, g_np = adjoint(np_, n_qubits, kinds, qa, qb, row)
        assert e_r == pytest.approx(e_np, abs=1e-13)
        np.testing.assert_allclose(g_r, g_np, atol=1e-12)
    for order in (slice(None), slice(None, None, -1)):
        e, g = c.expval_z_and_grad_rows(n_qubits, kinds, qa, qb, block[order])
        forward_only = c.expval_z_rows(n_qubits, kinds, qa, qb, block[order])
        for r, (e_r, g_r) in enumerate(alone[order]):
            assert np.float64(e_r).view(np.int64) == e[r].view(np.int64) == forward_only[r].view(np.int64)
            assert np.array_equal(g_r.view(np.int64), g[r].view(np.int64))


class TestCzRuns:
    """Runs of consecutive CZ gates, which the compiled kernel applies as one
    pass of signs, against the numpy oracle, which applies each CZ alone."""

    def _assert_agree(self, n_qubits, gates, rng):
        kinds, qa, qb, angles = pack(gates)
        block = np.vstack([angles, rng.uniform(-7, 7, (3, len(angles)))])
        _assert_rows_agree(n_qubits, kinds, qa, qb, block)

    @pytest.mark.parametrize("n_qubits", [2, 3, 4, 5, 6, 7, 8])
    def test_run_at_start_middle_and_end(self, n_qubits):
        # 7 and 8 qubits have more amplitudes than a 64-bit mask has bits
        rng = np.random.default_rng(70 + n_qubits)
        run = _cz_run(n_qubits)
        before, after = _rotations(rng, n_qubits), _rotations(rng, n_qubits)
        for gates in (run + after, before + run + after, before + run, before + run + run + after):
            self._assert_agree(n_qubits, gates, rng)

    @pytest.mark.parametrize("n_qubits", [2, 4, 7])
    def test_circuit_of_czs_only(self, n_qubits):
        rng = np.random.default_rng(80 + n_qubits)
        self._assert_agree(n_qubits, _cz_run(n_qubits), rng)
        e, g = adjoint(kernels()[0], n_qubits, *pack(_cz_run(n_qubits)))
        assert e == 1.0 and g.shape == (0,)

    def test_single_cz_between_rotations(self):
        rng = np.random.default_rng(90)
        for n_qubits in range(2, 7):
            for a, b in ((0, 1), (0, n_qubits - 1), (n_qubits - 2, n_qubits - 1)):
                self._assert_agree(n_qubits, _rotations(rng, n_qubits) + [cz(a, b)] + _rotations(rng, n_qubits), rng)

    @pytest.mark.parametrize("entangler", ["between", "every"])
    def test_policy_templates(self, entangler):
        rng = np.random.default_rng(100)
        for n_qubits in range(1, 7):
            for encoding in ("rz_ry", "rz_rz"):
                tpl = CircuitTemplate(AnsatzSpec(n_qubits, 3, entangler, encoding))
                block = rng.uniform(-7, 7, (4, len(tpl.kinds)))
                _assert_rows_agree(n_qubits, tpl.kinds, tpl.qa, tpl.qb, block)


def _prefixed(kind, n_qubits, rng):
    """A random circuit after one kind of leading non-rotation ops, which the
    compiled kernel applies once per call: none (it starts with a
    rotation), an H layer, a CZ run, or the whole list, with no rotation."""
    layer = [h(q) for q in range(n_qubits)]
    body = [ry(0, rng.uniform(-7, 7))] + random_circuit(rng, n_qubits, n_gates=30)
    return {"none": body, "h_layer": layer + body, "cz_run": _cz_run(n_qubits) + body,
            "no_rotation": layer + _cz_run(n_qubits) + layer}[kind]


@pytest.mark.parametrize("kind", ["none", "h_layer", "cz_run", "no_rotation"])
def test_rows_start_clean_after_each_prefix_kind(kind):
    # the compiled kernel applies the leading non-rotation ops once per call, and its reverse sweep
    # stops at the first rotation, so each row must start from that state, not from the last row's scratch
    rng = np.random.default_rng(110)
    for n_qubits in range(2, 7):
        kinds, qa, qb, angles = pack(_prefixed(kind, n_qubits, rng))
        _assert_rows_agree(n_qubits, kinds, qa, qb, np.vstack([angles, rng.uniform(-7, 7, (4, len(angles)))]))
