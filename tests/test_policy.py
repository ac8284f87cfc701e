"""Policy circuit construction, probabilities, gradients, and Lipschitz machinery."""

import numpy as np
import pytest

from qpgrad.errors import ConfigurationError, DegeneratePolicyError
from qpgrad.policy import (
    ENCODING_RZ_RZ,
    ENTANGLE_EVERY,
    AnsatzSpec,
    CircuitTemplate,
    PolicyParams,
    empirical_lipschitz_check,
    grad_log_policy,
    init_params,
    lipschitz_bound,
    policy_probs,
    probs_from_expectation,
    regularization_penalty,
    zero_params,
)
from qpgrad.qsim import KIND_CZ, KIND_H, KIND_RY, KIND_RZ


def random_params(spec, rng, omega_scale=1.0):
    return PolicyParams(
        rng.uniform(-np.pi, np.pi, spec.param_shape),
        rng.normal(0.0, omega_scale, spec.param_shape),
    )


class TestBuildCircuit:
    """The template's packed gate arrays and the angles it fills in."""

    def test_default_gate_counts(self):
        kinds = CircuitTemplate(AnsatzSpec()).kinds.tolist()  # L=3, n=4, entangler between layers
        assert kinds.count(KIND_H) == 4
        assert kinds.count(KIND_RY) + kinds.count(KIND_RZ) == 48
        assert kinds.count(KIND_CZ) == 2 * 6

    def test_entangler_after_every_layer(self):
        kinds = CircuitTemplate(AnsatzSpec(entangler=ENTANGLE_EVERY)).kinds.tolist()
        assert kinds.count(KIND_CZ) == 3 * 6

    def test_packed_arrays_pinned(self):
        tpl = CircuitTemplate(AnsatzSpec(n_qubits=1, n_layers=1))
        assert tpl.kinds.tolist() == [KIND_H, KIND_RZ, KIND_RY, KIND_RZ, KIND_RY]
        assert tpl.qa.tolist() == [0] * 5
        assert tpl.qb.tolist() == [-1] * 5
        tpl = CircuitTemplate(AnsatzSpec(n_qubits=2, n_layers=2, entangler=ENTANGLE_EVERY))
        layer = [KIND_RZ, KIND_RY, KIND_RZ, KIND_RY] * 2 + [KIND_CZ]
        assert tpl.kinds.tolist() == [KIND_H, KIND_H] + layer + layer
        assert tpl.qa.tolist() == [0, 1] + ([0] * 4 + [1] * 4 + [1]) * 2  # CZ pair (0, 1): target 1 ...
        assert tpl.qb.tolist() == [-1, -1] + ([-1] * 8 + [0]) * 2  # ... partner 0
        assert (tpl.kinds.dtype, tpl.qa.dtype, tpl.qb.dtype) == (np.int8, np.int32, np.int32)

    def test_gate_order_within_layer(self):
        # per qubit: encoding RZ, encoding RY, variational RZ, variational RY
        tpl = CircuitTemplate(AnsatzSpec(n_qubits=1, n_layers=1))
        angles = tpl.angles(np.array([10.0, 20.0]), np.array([1.0, 2.0]), np.array([3.0]))
        np.testing.assert_array_equal(angles, [0.0, 3.0, 6.0, 10.0, 20.0])

    def test_double_rz_encoding_variant(self):
        tpl = CircuitTemplate(AnsatzSpec(n_qubits=1, n_layers=1, encoding=ENCODING_RZ_RZ))
        assert tpl.kinds[1:3].tolist() == [KIND_RZ, KIND_RZ]

    def test_zero_params_balanced_policy(self):
        # rotations vanish and the CZ blocks cancel pairwise: <Z^4> = 0
        spec = AnsatzSpec()
        probs = policy_probs(spec, zero_params(spec), np.array([0.3, -0.2, 0.9, 0.1]))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_zero_observation_kills_encoding_angles(self):
        spec = AnsatzSpec()
        tpl = CircuitTemplate(spec)
        params = random_params(spec, np.random.default_rng(0))
        nu, omega = params.nu.reshape(-1), params.omega.reshape(-1)
        no_omega = np.zeros_like(omega)
        np.testing.assert_array_equal(tpl.angles(nu, omega, np.zeros(4)), tpl.angles(nu, no_omega, np.zeros(4)))
        assert not np.array_equal(tpl.angles(nu, omega, np.ones(4)), tpl.angles(nu, no_omega, np.ones(4)))

    def test_observation_shape_checked(self):
        spec = AnsatzSpec()
        with pytest.raises(ConfigurationError):
            policy_probs(spec, zero_params(spec), np.zeros(3))
        with pytest.raises(ConfigurationError):
            grad_log_policy(spec, zero_params(spec), np.zeros(5), 0)

    def test_param_shape_checked(self):
        spec = AnsatzSpec()
        bad = PolicyParams(np.zeros((2, 4, 2)), np.zeros((2, 4, 2)))
        with pytest.raises(ConfigurationError):
            policy_probs(spec, bad, np.zeros(4))


class TestProbs:
    @pytest.mark.parametrize(
        "e,expected",
        [(0.0, (0.5, 0.5)), (1.0, (1.0, 0.0)), (-0.4, (0.3, 0.7))],
    )
    def test_expectation_to_probs(self, e, expected):
        np.testing.assert_allclose(probs_from_expectation(e), expected, atol=1e-15)

    def test_validity_over_random_draws(self):
        spec = AnsatzSpec()
        rng = np.random.default_rng(42)
        for _ in range(300):
            params = random_params(spec, rng)
            obs = rng.uniform(-1, 1, 4)
            probs = policy_probs(spec, params, obs)
            assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
            assert abs(probs.sum() - 1.0) < 1e-12


class TestGradLogPolicy:
    def test_zero_obs_zero_omega_gradient(self):
        spec = AnsatzSpec()
        gnu, gom = grad_log_policy(spec, zero_params(spec), np.zeros(4), 0)
        np.testing.assert_array_equal(gom, np.zeros(spec.param_shape))
        assert gnu.shape == spec.param_shape

    def test_probability_weighted_gradients_cancel(self):
        # sum_a grad log pi(a|s) pi(a|s) = grad sum_a pi(a|s) = 0
        spec = AnsatzSpec()
        rng = np.random.default_rng(8)
        for _ in range(10):
            params = random_params(spec, rng)
            obs = rng.uniform(-1, 1, 4)
            probs = policy_probs(spec, params, obs)
            g0 = grad_log_policy(spec, params, obs, 0)
            g1 = grad_log_policy(spec, params, obs, 1)
            for a, b in zip(g0, g1):
                np.testing.assert_allclose(probs[0] * a + probs[1] * b, 0.0, atol=1e-12)

    def test_matches_finite_difference(self):
        spec = AnsatzSpec(n_qubits=3, n_layers=2)
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(100):
            params = random_params(spec, rng, omega_scale=0.5)
            obs = rng.uniform(-1, 1, 3)
            action = int(rng.integers(0, 2))
            if policy_probs(spec, params, obs)[action] < 1e-3:
                continue
            gnu, gom = grad_log_policy(spec, params, obs, action)

            def log_pi(p):
                return np.log(policy_probs(spec, p, obs)[action])

            for tensor, grad in (("nu", gnu), ("omega", gom)):
                flat_idx = rng.integers(0, spec.n_params_each)
                idx = np.unravel_index(flat_idx, spec.param_shape)
                up, dn = params.copy(), params.copy()
                getattr(up, tensor)[idx] += h
                getattr(dn, tensor)[idx] -= h
                fd = (log_pi(up) - log_pi(dn)) / (2 * h)
                assert grad[idx] == pytest.approx(fd, abs=1e-5)

    def test_degenerate_probability_raises(self):
        # RY(pi) on every qubit drives <Z^n> to ... build a 1-qubit certainty case
        spec = AnsatzSpec(n_qubits=1, n_layers=1)
        params = zero_params(spec)
        # H then RY(pi/2) rotates |+> onto |1>: pi(0|s) = 0
        params.nu[0, 0, 1] = np.pi / 2
        assert policy_probs(spec, params, np.zeros(1))[0] < 1e-12
        with pytest.raises(DegeneratePolicyError):
            grad_log_policy(spec, params, np.zeros(1), 0)


class TestLipschitz:
    def test_zero_omega_zero_bound(self):
        spec = AnsatzSpec()
        b = lipschitz_bound(spec, zero_params(spec))
        assert b.per_action == (0.0, 0.0)
        assert b.total == 0.0

    def test_single_unit_weight(self):
        spec = AnsatzSpec()
        params = zero_params(spec)
        params.omega[1, 2, 0] = 1.0
        b = lipschitz_bound(spec, params)
        assert b.per_action == (1.0, 1.0)
        assert b.total == pytest.approx(2.0)

    def test_two_weights(self):
        spec = AnsatzSpec()
        params = zero_params(spec)
        params.omega[0, 0, 0] = 0.3
        params.omega[2, 3, 1] = -0.4
        b = lipschitz_bound(spec, params)
        assert b.per_action[0] == pytest.approx(0.7)
        assert b.total == pytest.approx(1.4)

    def test_independent_of_nu(self):
        spec = AnsatzSpec()
        rng = np.random.default_rng(3)
        params = random_params(spec, rng)
        before = lipschitz_bound(spec, params)
        params.nu[:] = rng.uniform(-np.pi, np.pi, spec.param_shape)
        assert lipschitz_bound(spec, params) == before

    def test_constant_policy_zero_ratio(self):
        spec = AnsatzSpec()
        params = random_params(spec, np.random.default_rng(1))
        params.omega[:] = 0.0
        ratio = empirical_lipschitz_check(spec, params, 50, np.random.default_rng(2))
        assert ratio == 0.0

    def test_empirical_never_exceeds_bound(self):
        spec = AnsatzSpec()
        rng = np.random.default_rng(40)
        for _ in range(5):
            params = random_params(spec, rng, omega_scale=0.4)
            ratio = empirical_lipschitz_check(spec, params, 500, rng)
            assert ratio <= lipschitz_bound(spec, params).total


class TestPenalty:
    def test_zero_lambda(self):
        spec = AnsatzSpec()
        params = random_params(spec, np.random.default_rng(0))
        assert regularization_penalty(params, 0.0) == 0.0

    def test_single_weight_value(self):
        spec = AnsatzSpec()
        params = zero_params(spec)
        params.omega[0, 1, 1] = 2.0
        assert regularization_penalty(params, 0.1) == pytest.approx(0.1)

    def test_negative_lambda_rejected(self):
        spec = AnsatzSpec()
        with pytest.raises(ConfigurationError):
            regularization_penalty(zero_params(spec), -0.5)

    def test_gradient_matches_finite_difference(self):
        from qpgrad.policy import penalty_gradient

        spec = AnsatzSpec()
        rng = np.random.default_rng(21)
        params = random_params(spec, rng)
        lam, h = 0.3, 1e-6
        grad = penalty_gradient(params, lam)
        for _ in range(10):
            idx = np.unravel_index(rng.integers(0, spec.n_params_each), spec.param_shape)
            up, dn = params.copy(), params.copy()
            up.omega[idx] += h
            dn.omega[idx] -= h
            fd = (regularization_penalty(up, lam) - regularization_penalty(dn, lam)) / (2 * h)
            assert grad[idx] == pytest.approx(fd, abs=1e-8)

    def test_scaling_laws(self):
        spec = AnsatzSpec()
        params = random_params(spec, np.random.default_rng(5))
        base = regularization_penalty(params, 0.2)
        assert regularization_penalty(params, 0.4) == pytest.approx(2 * base)
        doubled = PolicyParams(params.nu, 2.0 * params.omega)
        assert regularization_penalty(doubled, 0.2) == pytest.approx(4 * base)
