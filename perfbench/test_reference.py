"""Tests of the independent reference; run with ``python3 -m pytest perfbench``."""

import numpy as np
import pytest

import reference as ref


def test_zero_parameters_give_even_odds():
    rng = np.random.default_rng(0)
    zeros = np.zeros((ref.N_LAYERS, ref.N_QUBITS, 2))
    for _ in range(5):
        obs = rng.uniform(-1, 1, ref.N_QUBITS)
        e = ref.expectation(ref.circuit_angles(zeros, zeros, obs))
        assert (1 + e) / 2 == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("omega0, omega1, nu0, nu1, s", [(0.3, 0.0, -1.1, 0.7, 0.4), (1.9, 0.0, 0.2, -2.5, -0.8)])
def test_single_qubit_rz_then_ry(omega0, omega1, nu0, nu1, s):
    # |+> has Bloch vector (1, 0, 0); RZ(phi) turns it to (cos phi, sin phi, 0),
    # and RY(beta) then gives z = -cos(phi) sin(beta).
    angles = ref.circuit_angles(np.array([[[nu0, nu1]]]), np.array([[[omega0, omega1]]]), np.array([s]))
    expected = -np.cos(omega0 * s + nu0) * np.sin(nu1)
    assert ref.expectation(angles) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("omega1, nu1, s", [(0.9, 0.4, 0.5), (-2.0, 1.3, -0.7)])
def test_single_qubit_two_ry(omega1, nu1, s):
    # With no RZ angle, RY(nu1) RY(omega1 s) |+> = RY(omega1 s + nu1 + pi/2) |0>.
    angles = ref.circuit_angles(np.array([[[0.0, nu1]]]), np.array([[[0.0, omega1]]]), np.array([s]))
    assert ref.expectation(angles) == pytest.approx(-np.sin(omega1 * s + nu1), abs=1e-14)


def test_one_layer_is_a_product_of_single_qubit_forms():
    # A single layer has no entangler, so <Z^n> factorises over the qubits.
    rng = np.random.default_rng(1)
    nu = rng.uniform(-np.pi, np.pi, (1, ref.N_QUBITS, 2))
    nu[..., 0] = 0.0
    omega = rng.normal(0, 1, (1, ref.N_QUBITS, 2))
    omega[..., 1] = 0.0
    obs = rng.uniform(-1, 1, ref.N_QUBITS)
    per_qubit = -np.cos(omega[0, :, 0] * obs) * np.sin(nu[0, :, 1])
    assert ref.expectation(ref.circuit_angles(nu, omega, obs)) == pytest.approx(np.prod(per_qubit), abs=1e-14)


def test_parameter_shift_matches_central_differences():
    rng = np.random.default_rng(2)
    shape = (ref.N_LAYERS, ref.N_QUBITS, 2)
    nu = rng.uniform(-np.pi, np.pi, shape)
    omega = rng.normal(0, 0.5, shape)
    obs = rng.uniform(-1, 1, ref.N_QUBITS)
    e, g_nu, g_omega = ref.expectation_and_grad(nu, omega, obs)
    assert e == pytest.approx(ref.expectation(ref.circuit_angles(nu, omega, obs)), abs=1e-14)
    h = 1e-6
    for name, grad in (("nu", g_nu), ("omega", g_omega)):
        for index in np.ndindex(shape):
            plus, minus = {"nu": nu.copy(), "omega": omega.copy()}, {"nu": nu.copy(), "omega": omega.copy()}
            plus[name][index] += h
            minus[name][index] -= h
            diff = (
                ref.expectation(ref.circuit_angles(plus["nu"], plus["omega"], obs))
                - ref.expectation(ref.circuit_angles(minus["nu"], minus["omega"], obs))
            ) / (2 * h)
            assert grad[index] == pytest.approx(diff, abs=1e-8)


def test_lockstep_episodes_end_within_horizon():
    rng = np.random.default_rng(3)
    shape = (6, ref.N_LAYERS, ref.N_QUBITS, 2)
    nu, omega = rng.uniform(-np.pi, np.pi, shape), rng.normal(0, 0.1, shape)
    low, high = ref.default_init_bounds(6)
    lengths = ref.episode_lengths(nu, omega, low, high, 0.3, rng)
    assert lengths.shape == (6,) and np.all((lengths >= 1) & (lengths <= ref.HORIZON))
