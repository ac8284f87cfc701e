"""Environment dynamics, normalization, noise, and the brute-force oracle check."""

import math
from math import cos, sin

import numpy as np
import pytest

from qpgrad.cartpole import (
    HORIZON,
    InitRanges,
    NoiseModel,
    normalize,
    out_of_bounds,
    reset,
    step_batch,
)
from qpgrad.errors import ConfigurationError
from qpgrad.policy import AnsatzSpec, PolicyParams
from qpgrad.seeding import substream
from qpgrad.trainer import episode_rewards, rollouts


def oracle_step(state, action):
    """Independently coded cart-pole step (same constants, separate code path)."""
    x, x_dot, theta, theta_dot = state
    force = 10.0 if action == 1 else -10.0
    ct, st = cos(theta), sin(theta)
    temp = (force + 0.05 * theta_dot * theta_dot * st) / 1.1
    theta_acc = (9.8 * st - ct * temp) / (0.5 * (4.0 / 3.0 - 0.1 * ct * ct / 1.1))
    x_acc = temp - 0.05 * theta_acc * ct / 1.1
    return (
        x + 0.02 * x_dot,
        x_dot + 0.02 * x_acc,
        theta + 0.02 * theta_dot,
        theta_dot + 0.02 * theta_acc,
    )


def step(state, action):
    """One row of ``step_batch``: (new raw state, left the bounds)."""
    new, out = step_batch(np.array([state], dtype=np.float64), np.array([action]))
    return new[0], bool(out[0])


class TestReset:
    def test_default_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = reset(InitRanges(), rng)
            assert s.shape == (4,)
            assert np.all(np.abs(s) <= 0.05)
            assert not out_of_bounds(s[None])[0]

    def test_degenerate_interval_gives_zero_state(self):
        zeros = InitRanges(x=(0, 0), x_dot=(0, 0), theta=(0, 0), theta_dot=(0, 0))
        s = reset(zeros, np.random.default_rng(1))
        assert s.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_curriculum_range_only_widens_theta_dot(self):
        ranges = InitRanges(theta_dot=(-0.25, 0.25))
        rng = np.random.default_rng(2)
        draws = np.array([reset(ranges, rng) for _ in range(200)])
        assert np.all(np.abs(draws[:, 3]) <= 0.25)
        assert np.any(np.abs(draws[:, 3]) > 0.05)
        assert np.all(np.abs(draws[:, 0]) <= 0.05)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigurationError):
            InitRanges(x=(0.1, -0.1))
        with pytest.raises(ConfigurationError):
            InitRanges(x=(-3.0, 0.0))
        with pytest.raises(ConfigurationError):
            InitRanges(theta=(-0.3, 0.3))


class TestStep:
    def test_first_step_from_zero_state(self):
        s, out = step((0, 0, 0, 0), 1)
        assert not out
        assert s[0] == pytest.approx(0.0, abs=1e-12)
        assert s[1] == pytest.approx(0.19512, abs=1e-4)
        assert s[2] == pytest.approx(0.0, abs=1e-12)
        assert s[3] == pytest.approx(-0.29268, abs=1e-4)

    def test_theta_beyond_limit_terminates(self):
        # theta > 0.2095 after integration must flag termination
        s, out = step((0, 0, 0.208, 0.9), 1)
        assert s[2] > 0.2095
        assert out

    def test_full_horizon_reward(self):
        # alternating pushes keep the pole up from the zero state
        s = np.zeros(4)
        for _ in range(HORIZON):
            s, out = step(s, 0 if s[2] + s[3] < 0 else 1)
            assert not out

    def test_determinism_bit_exact(self):
        s = (0.01, -0.02, 0.015, 0.04)
        assert step(s, 1)[0].tolist() == step(s, 1)[0].tolist()

    def test_fifty_step_rollout_matches_oracle(self):
        actions = [(3 * i + i // 7) % 2 for i in range(50)]
        s = np.zeros(4)
        ref = (0.0, 0.0, 0.0, 0.0)
        for a in actions:
            s, out = step(s, a)
            ref = oracle_step(ref, a)
            np.testing.assert_allclose(s, ref, atol=1e-9, rtol=0)
            if out:
                break

    def test_numpy_trig_matches_math_on_angle_range(self):
        # step_batch takes np.cos/np.sin of a whole block; a row keeps the
        # bits of math.cos/math.sin only because they agree on this range
        rng = np.random.default_rng(0)
        theta = np.concatenate([np.linspace(-0.25, 0.25, 100_001), rng.uniform(-0.25, 0.25, 100_000)])
        assert np.array_equal(np.cos(theta), [math.cos(t) for t in theta.tolist()])
        assert np.array_equal(np.sin(theta), [math.sin(t) for t in theta.tolist()])

    def test_float_power_matches_python_square(self):
        # the same for theta_dot**2; x * x and np.square differ from it in the last bit
        theta_dot = np.random.default_rng(1).uniform(-10.0, 10.0, 200_000)
        assert np.array_equal(np.float_power(theta_dot, 2), [v**2 for v in theta_dot.tolist()])


class TestNormalize:
    def test_x_scale(self):
        v = normalize(np.array([1.2, 0, 0, 0]))
        np.testing.assert_allclose(v, [0.5, 0, 0, 0])

    def test_theta_scale(self):
        v = normalize(np.array([0, 0, 0.21, 0]))
        assert v[2] == pytest.approx(1.0)

    def test_zero_state(self):
        np.testing.assert_array_equal(normalize(np.zeros((3, 4))), np.zeros((3, 4)))

    def test_velocities_not_clipped(self):
        v = normalize(np.array([0, 5.0, 0, -7.5]))
        assert v[1] == pytest.approx(2.0)
        assert v[3] == pytest.approx(-3.0)


class TestObserve:
    """Observation noise: one ``NoiseModel.draw`` per step of a noisy episode."""

    def test_zero_sigma_identical(self):
        # sigma 0 plays the noise-free episode: no draw, same rewards and gradients
        spec = AnsatzSpec(n_layers=1)
        params = PolicyParams(np.full(spec.param_shape, 0.3), np.full(spec.param_shape, 0.7))

        def streams():
            return [substream(6, 1, k) for k in range(3)]

        ranges = [InitRanges()] * 3
        assert np.array_equal(
            episode_rewards(spec, params, streams(), ranges, sigmas=[0.0] * 3),
            episode_rewards(spec, params, streams(), ranges),
        )
        lengths, *zero_sigma = rollouts(spec, params, streams(), ranges, sigmas=[0.0] * 3)
        same_lengths, *noise_free = rollouts(spec, params, streams(), ranges)
        assert np.array_equal(lengths, same_lengths)
        for a, b in zip(zero_sigma, noise_free):
            for i, n_steps in enumerate(lengths):
                assert np.array_equal(a[:n_steps, i], b[:n_steps, i])

    def test_seeded_reproducibility(self):
        a = NoiseModel(0.4).draw(np.random.default_rng(77))
        b = NoiseModel(0.4).draw(np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)

    def test_state_not_mutated(self):
        # the noisy observation is a new array, so the state block stays as it was
        states = np.array([[0.3, -0.2, 0.1, 0.05], [0.0, 0.1, -0.1, 0.2]])
        obs = normalize(states)
        obs += NoiseModel(0.8).draw(np.random.default_rng(5))
        assert states.tolist() == [[0.3, -0.2, 0.1, 0.05], [0.0, 0.1, -0.1, 0.2]]

    def test_sample_mean_statistics(self):
        s = np.array([0.5, 0.1, -0.02, 0.3])
        sigma, n = 0.2, 100_000
        rng = np.random.default_rng(123)
        draws = np.stack([normalize(s) + NoiseModel(sigma).draw(rng) for _ in range(n)])
        tol = 3 * sigma / np.sqrt(n)
        np.testing.assert_allclose(draws.mean(axis=0), normalize(s), atol=tol)
        np.testing.assert_allclose(draws.std(axis=0), sigma, rtol=0.02)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseModel(-0.1)


def test_episode_reward_equals_length():
    # a lone episode's reward counts its steps up to the bounds or the horizon
    spec = AnsatzSpec(n_layers=1)
    params = PolicyParams(np.full(spec.param_shape, 0.4), np.full(spec.param_shape, -0.9))
    ranges = InitRanges(theta=(-0.2, 0.2), theta_dot=(-1.0, 1.0))
    for k in range(20):
        (reward,) = episode_rewards(spec, params, [substream(31, 1, k)], [ranges])
        (length,), _, _ = rollouts(spec, params, [substream(31, 1, k)], [ranges])
        assert reward == length <= HORIZON
