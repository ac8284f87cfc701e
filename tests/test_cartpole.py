"""Environment dynamics, normalization, noise, and the brute-force oracle check."""

import math
from math import cos, sin

import numpy as np
import pytest

from qpgrad.cartpole import (
    HORIZON,
    EnvState,
    InitRanges,
    NoiseModel,
    normalize,
    observe,
    reset,
    step,
)
from qpgrad.errors import ConfigurationError, UsageError


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


class TestReset:
    def test_default_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = reset(InitRanges(), rng)
            for v in (s.x, s.x_dot, s.theta, s.theta_dot):
                assert -0.05 <= v <= 0.05
            assert s.step_count == 0 and not s.terminated

    def test_degenerate_interval_gives_zero_state(self):
        zeros = InitRanges(x=(0, 0), x_dot=(0, 0), theta=(0, 0), theta_dot=(0, 0))
        s = reset(zeros, np.random.default_rng(1))
        assert (s.x, s.x_dot, s.theta, s.theta_dot) == (0.0, 0.0, 0.0, 0.0)

    def test_curriculum_range_only_widens_theta_dot(self):
        ranges = InitRanges(theta_dot=(-0.25, 0.25))
        rng = np.random.default_rng(2)
        draws = [reset(ranges, rng) for _ in range(200)]
        assert all(-0.25 <= s.theta_dot <= 0.25 for s in draws)
        assert any(abs(s.theta_dot) > 0.05 for s in draws)
        assert all(abs(s.x) <= 0.05 for s in draws)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigurationError):
            InitRanges(x=(0.1, -0.1))
        with pytest.raises(ConfigurationError):
            InitRanges(x=(-3.0, 0.0))
        with pytest.raises(ConfigurationError):
            InitRanges(theta=(-0.3, 0.3))


class TestStep:
    def test_first_step_from_zero_state(self):
        s, reward = step(EnvState(0, 0, 0, 0), 1)
        assert reward == 1.0
        assert s.x == pytest.approx(0.0, abs=1e-12)
        assert s.x_dot == pytest.approx(0.19512, abs=1e-4)
        assert s.theta == pytest.approx(0.0, abs=1e-12)
        assert s.theta_dot == pytest.approx(-0.29268, abs=1e-4)

    def test_theta_beyond_limit_terminates(self):
        # theta > 0.2095 after integration must flag termination
        s = EnvState(0, 0, 0.208, 0.9)
        out, _ = step(s, 1)
        assert out.theta > 0.2095
        assert out.terminated

    def test_full_horizon_reward(self):
        # alternating pushes keep the pole up from the zero state
        s = EnvState(0, 0, 0, 0)
        total = 0.0
        while not s.terminated:
            action = 0 if s.theta + s.theta_dot < 0 else 1
            s, r = step(s, action)
            total += r
        assert total == 200.0
        assert s.step_count == HORIZON

    def test_step_terminated_state_raises(self):
        s = EnvState(0, 0, 0, 0, step_count=200, terminated=True)
        with pytest.raises(UsageError):
            step(s, 0)

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError):
            step(EnvState(0, 0, 0, 0), 2)

    def test_determinism_bit_exact(self):
        s = EnvState(0.01, -0.02, 0.015, 0.04)
        a, _ = step(s, 1)
        b, _ = step(s, 1)
        assert (a.x, a.x_dot, a.theta, a.theta_dot) == (b.x, b.x_dot, b.theta, b.theta_dot)

    def test_fifty_step_rollout_matches_oracle(self):
        actions = [(3 * i + i // 7) % 2 for i in range(50)]
        s = EnvState(0, 0, 0, 0)
        ref = (0.0, 0.0, 0.0, 0.0)
        for a in actions:
            if s.terminated:
                break
            s, _ = step(s, a, horizon=10_000)
            ref = oracle_step(ref, a)
            np.testing.assert_allclose(
                [s.x, s.x_dot, s.theta, s.theta_dot], ref, atol=1e-9, rtol=0
            )


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
        v = normalize(EnvState(1.2, 0, 0, 0))
        np.testing.assert_allclose(v, [0.5, 0, 0, 0])

    def test_theta_scale(self):
        v = normalize(EnvState(0, 0, 0.21, 0))
        assert v[2] == pytest.approx(1.0)

    def test_zero_state(self):
        np.testing.assert_array_equal(normalize(EnvState(0, 0, 0, 0)), np.zeros(4))

    def test_velocities_not_clipped(self):
        v = normalize(EnvState(0, 5.0, 0, -7.5))
        assert v[1] == pytest.approx(2.0)
        assert v[3] == pytest.approx(-3.0)


class TestObserve:
    def test_zero_sigma_identical(self):
        s = EnvState(0.3, -0.2, 0.1, 0.05)
        rng = np.random.default_rng(9)
        np.testing.assert_array_equal(observe(s, NoiseModel(0.0), rng), normalize(s))

    def test_seeded_reproducibility(self):
        s = EnvState(0.3, -0.2, 0.1, 0.05)
        a = observe(s, NoiseModel(0.4), np.random.default_rng(77))
        b = observe(s, NoiseModel(0.4), np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)

    def test_state_not_mutated(self):
        s = EnvState(0.3, -0.2, 0.1, 0.05)
        observe(s, NoiseModel(0.8), np.random.default_rng(5))
        assert (s.x, s.x_dot, s.theta, s.theta_dot) == (0.3, -0.2, 0.1, 0.05)

    def test_sample_mean_statistics(self):
        s = EnvState(0.5, 0.1, -0.02, 0.3)
        sigma, n = 0.2, 100_000
        rng = np.random.default_rng(123)
        draws = np.stack([observe(s, NoiseModel(sigma), rng) for _ in range(n)])
        tol = 3 * sigma / np.sqrt(n)
        np.testing.assert_allclose(draws.mean(axis=0), normalize(s), atol=tol)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseModel(-0.1)


def test_episode_reward_equals_length():
    rng = np.random.default_rng(31)
    for _ in range(20):
        s = reset(InitRanges(theta=(-0.2, 0.2), theta_dot=(-1.0, 1.0)), rng)
        total = 0.0
        while not s.terminated:
            s, r = step(s, int(rng.integers(0, 2)))
            total += r
        assert total == s.step_count
        assert s.step_count <= HORIZON
