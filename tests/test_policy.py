"""Policy circuit construction, probabilities, gradients, and Lipschitz machinery."""

from itertools import product
from unittest import mock

import numpy as np
import pytest

from qpgrad import qsim
from qpgrad.errors import ConfigurationError
from qpgrad.policy import (
    ENCODING_RZ_RY,
    ENCODING_RZ_RZ,
    ENTANGLE_BETWEEN,
    ENTANGLE_EVERY,
    AnsatzSpec,
    CircuitTemplate,
    PolicyParams,
    get_template,
    init_params,
    lipschitz_bound,
    log_policy_coeff,
    probs_from_expectation,
    regularization_penalty,
)
from qpgrad.qsim import KIND_CZ, KIND_H, KIND_RY, KIND_RZ


def random_params(spec, rng, omega_scale=1.0):
    return PolicyParams(np.stack([
        rng.uniform(-np.pi, np.pi, spec.param_shape),
        rng.normal(0.0, omega_scale, spec.param_shape),
    ]))


def zero_params(spec):
    return PolicyParams(np.zeros(spec.theta_shape))


def policy_probs(spec, params, obs):
    """[pi(0|obs), pi(1|obs)] for one observation, from the template's forward call."""
    e = get_template(spec).expval(params.theta.reshape(-1), np.asarray(obs)[None])
    return probs_from_expectation(e[0])


def grad_log_policy(spec, params, obs, action):
    """grad log pi(action|obs) in theta's shape, whose halves are the nu and omega gradients, with the
    coefficient training applies."""
    e, g = get_template(spec).expval_and_grad(params.theta.reshape(-1), np.asarray(obs)[None])
    coeff = log_policy_coeff(probs_from_expectation(e)[:, 0], action)[0]
    return (coeff * g[0]).reshape(spec.theta_shape)


def empirical_lipschitz_check(spec, params, n_pairs, rng):
    """Max observed ||pi(.|x) - pi(.|x')||_1 / ||x - x'||_2 over ``n_pairs`` random pairs.

    Pairs are drawn uniformly from [-1, 1]^n; exact collisions are resampled.
    The result can never exceed ``lipschitz_bound``.
    """
    tpl = get_template(spec)
    theta = params.theta.reshape(-1)
    worst = 0.0
    for _ in range(n_pairs):
        x = rng.uniform(-1.0, 1.0, size=spec.n_qubits)
        x2 = rng.uniform(-1.0, 1.0, size=spec.n_qubits)
        while np.array_equal(x, x2):
            x2 = rng.uniform(-1.0, 1.0, size=spec.n_qubits)
        p, p2 = probs_from_expectation(tpl.expval(theta, np.stack([x, x2])))
        worst = max(worst, float(np.sum(np.abs(p - p2)) / np.linalg.norm(x - x2)))
    return worst


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

    def test_each_entry_of_theta_drives_one_rotation(self):
        # grad_to_params scatters, which sets every entry only under this invariant: nu's entries 0..P-1 drive
        # the variational rotations, omega's P..2P-1 the encoding ones
        for n_qubits, n_layers, entangler, encoding in product(
            range(1, 6), range(1, 4), (ENTANGLE_BETWEEN, ENTANGLE_EVERY), (ENCODING_RZ_RY, ENCODING_RZ_RZ)
        ):
            tpl = CircuitTemplate(AnsatzSpec(n_qubits, n_layers, entangler, encoding))
            rotation = (tpl.kinds == KIND_RY) | (tpl.kinds == KIND_RZ)
            variational, encoding_rot = rotation & (tpl.feature == -1), rotation & (tpl.feature != -1)
            n = tpl.spec.n_params_each
            assert sorted(tpl.param[variational].tolist()) == list(range(n))
            assert sorted(tpl.param[encoding_rot].tolist()) == list(range(n, 2 * n))
            assert tpl.feature[encoding_rot].tolist() == tpl.qa[encoding_rot].tolist()
            assert tpl.param[~rotation].tolist() == tpl.feature[~rotation].tolist() == [-1] * int((~rotation).sum())
            assert (tpl.param.dtype, tpl.feature.dtype) == (np.int32, np.int32)

    def test_gate_order_within_layer(self):
        # per qubit: encoding RZ, encoding RY, variational RZ, variational RY
        tpl = CircuitTemplate(AnsatzSpec(n_qubits=1, n_layers=1))
        angles = tpl.angles(np.array([10.0, 20.0, 1.0, 2.0]), np.array([3.0]))
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
        theta = params.theta.reshape(-1)
        no_omega = np.concatenate([params.nu.reshape(-1), np.zeros(spec.n_params_each)])
        np.testing.assert_array_equal(tpl.angles(theta, np.zeros(4)), tpl.angles(no_omega, np.zeros(4)))
        assert not np.array_equal(tpl.angles(theta, np.ones(4)), tpl.angles(no_omega, np.ones(4)))

    def test_param_shape_checked(self):
        spec = AnsatzSpec()
        bad = PolicyParams(np.zeros((2, 2, 4, 2)))
        with pytest.raises(ConfigurationError):
            lipschitz_bound(spec, bad)


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
        # grad_log_policy applies the coefficient the training rollouts use
        spec = AnsatzSpec(n_qubits=3, n_layers=2)
        h = 1e-6
        for kernel in (qsim.load_kernel("c"), qsim.load_kernel("numpy")):
            rng = np.random.default_rng(17)
            with mock.patch.object(qsim, "_kernel", kernel):
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

    def test_degenerate_probability_clamped(self):
        # H then RY(+-pi/2) rotates |+> onto |1> or |0>: pi(a|s) ~ 0 is clamped at 1e-12
        spec = AnsatzSpec(n_qubits=1, n_layers=1)
        obs = np.full(1, 0.5)
        for action, angle, sign in ((0, np.pi / 2, 1.0), (1, -np.pi / 2, -1.0)):
            params = zero_params(spec)
            params.nu[0, 0, 1] = angle
            assert policy_probs(spec, params, obs)[action] < 1e-12
            _, dz = get_template(spec).expval_and_grad(params.theta.reshape(-1), obs[None])
            g = grad_log_policy(spec, params, obs, action)
            assert np.all(np.isfinite(g))
            assert np.array_equal(g.reshape(-1), sign / (2.0 * 1e-12) * dz[0])


class TestLipschitz:
    def test_zero_omega_zero_bound(self):
        spec = AnsatzSpec()
        assert lipschitz_bound(spec, zero_params(spec)) == 0.0

    def test_single_unit_weight(self):
        spec = AnsatzSpec()
        params = zero_params(spec)
        params.omega[1, 2, 0] = 1.0
        assert lipschitz_bound(spec, params) == pytest.approx(2.0)

    def test_two_weights(self):
        spec = AnsatzSpec()
        params = zero_params(spec)
        params.omega[0, 0, 0] = 0.3
        params.omega[2, 3, 1] = -0.4
        assert lipschitz_bound(spec, params) == pytest.approx(1.4)

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
            assert ratio <= lipschitz_bound(spec, params)


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
        doubled = PolicyParams(np.stack([params.nu, 2.0 * params.omega]))
        assert regularization_penalty(doubled, 0.2) == pytest.approx(4 * base)
