"""Environment dynamics, normalization, noise, and the brute-force oracle check."""

import math
from math import cos, sin

import numpy as np
import pytest

from qpgrad import qsim, trainer
from qpgrad.cartpole import (
    HORIZON,
    InitRanges,
    normalize,
    out_of_bounds,
    reset,
    step_batch,
)
from qpgrad.errors import ConfigurationError
from qpgrad.policy import AnsatzSpec, PolicyParams
from qpgrad.seeding import Streams
from qpgrad.trainer import play_batch


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
            s = reset(InitRanges().bounds, rng)
            assert s.shape == (4,)
            assert np.all(np.abs(s) <= 0.05)
            assert not out_of_bounds(s[None])[0]

    def test_degenerate_interval_gives_zero_state(self):
        zeros = InitRanges(x=(0, 0), x_dot=(0, 0), theta=(0, 0), theta_dot=(0, 0))
        s = reset(zeros.bounds, np.random.default_rng(1))
        assert s.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_curriculum_range_only_widens_theta_dot(self):
        ranges = InitRanges(theta_dot=(-0.25, 0.25))
        rng = np.random.default_rng(2)
        draws = np.array([reset(ranges.bounds, rng) for _ in range(200)])
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
    """Observation noise: one ``Generator.normal`` draw of the four features per step of a noisy episode."""

    def test_zero_sigma_identical(self):
        # sigma 0 plays the noise-free episode: no draw, same rewards and gradients
        spec = AnsatzSpec(n_layers=1)
        params = PolicyParams(np.stack([np.full(spec.param_shape, 0.3), np.full(spec.param_shape, 0.7)]))

        streams = Streams(6, (1,), np.arange(3)[:, None])
        ranges = [InitRanges()]
        assert np.array_equal(
            play_batch(spec, params, streams, ranges, sigmas=[0.0] * 3)[0],
            play_batch(spec, params, streams, ranges)[0],
        )
        lengths, zero_sigma = play_batch(spec, params, streams, ranges, sigmas=[0.0] * 3, grads=True)
        same_lengths, noise_free = play_batch(spec, params, streams, ranges, grads=True)
        assert np.array_equal(lengths, same_lengths)
        for i, n_steps in enumerate(lengths):
            assert np.array_equal(zero_sigma[:n_steps, i], noise_free[:n_steps, i])

    def test_seeded_reproducibility(self):
        # a noisy batch replays bit for bit from the same streams; its draws move the episodes off the noise-free ones
        spec = AnsatzSpec(n_layers=1)
        params = PolicyParams(np.stack([np.full(spec.param_shape, 0.3), np.full(spec.param_shape, 0.7)]))

        def play(seed, sigma):
            return play_batch(spec, params, Streams(seed, (1,), np.arange(8)[:, None]), [InitRanges()],
                              sigmas=[sigma] * 8, grads=True)

        lengths, glp = play(77, 0.4)
        again, glp_again = play(77, 0.4)
        assert np.array_equal(lengths, again)
        for i, n_steps in enumerate(lengths):
            assert np.array_equal(glp[:n_steps, i], glp_again[:n_steps, i])
        assert not np.array_equal(lengths, play(77, 0.0)[0])
        assert not np.array_equal(lengths, play(78, 0.4)[0])

    def test_sample_mean_statistics(self, monkeypatch):
        # the numpy loop draws normal(0, sigma, 4) once per step of a noisy episode and never for a noise-free one
        spec = AnsatzSpec(n_layers=1)
        params = PolicyParams(np.stack([np.full(spec.param_shape, 0.3), np.full(spec.param_shape, 0.7)]))
        sigma, n = 0.2, 400
        draws = [[] for _ in range(n)]

        class Recorded:
            def __init__(self, rng, i):
                self.rng, self.i = rng, i

            def normal(self, loc, scale, size):
                x = self.rng.normal(loc, scale, size)
                draws[self.i].append(((loc, scale, size), x))
                return x

            def random(self):
                return self.rng.random()

        play = trainer.play_episodes
        monkeypatch.setattr(qsim, "_kernel", qsim.load_kernel("numpy"))
        monkeypatch.setattr(trainer, "play_episodes", lambda tpl, theta, starts, sigmas, rngs, *rest: play(
            tpl, theta, starts, sigmas, [Recorded(g, i) for i, g in enumerate(rngs)], *rest))
        sigmas = [sigma, 0.0] * (n // 2)
        lengths, _ = play_batch(spec, params, Streams(123, (1,), np.arange(n)[:, None]), [InitRanges()], sigmas=sigmas)
        for i, n_steps in enumerate(lengths):
            assert [args for args, _ in draws[i]] == ([(0.0, sigma, 4)] * n_steps if sigmas[i] else [])
        noise = np.array([x for d in draws for _, x in d])
        assert len(noise) > 2000
        # four standard errors each: sigma / sqrt(m) for the mean, about sigma / sqrt(2m) for the std
        np.testing.assert_allclose(noise.mean(axis=0), 0.0, atol=4 * sigma / np.sqrt(len(noise)))
        np.testing.assert_allclose(noise.std(axis=0), sigma, rtol=4 / np.sqrt(2 * len(noise)))

    def test_state_not_mutated(self):
        # the noisy observation is a new array, so the state block stays as it was
        states = np.array([[0.3, -0.2, 0.1, 0.05], [0.0, 0.1, -0.1, 0.2]])
        obs = normalize(states)
        obs += np.random.default_rng(5).normal(0.0, 0.8, 4)
        assert states.tolist() == [[0.3, -0.2, 0.1, 0.05], [0.0, 0.1, -0.1, 0.2]]


def test_episode_reward_equals_length():
    # a lone episode's reward counts its steps up to the bounds or the horizon
    spec = AnsatzSpec(n_layers=1)
    params = PolicyParams(np.stack([np.full(spec.param_shape, 0.4), np.full(spec.param_shape, -0.9)]))
    ranges = InitRanges(theta=(-0.2, 0.2), theta_dot=(-1.0, 1.0))
    for k in range(20):
        (reward,), _ = play_batch(spec, params, Streams(31, (1,), [[k]]), [ranges])
        (length,), _ = play_batch(spec, params, Streams(31, (1,), [[k]]), [ranges], grads=True)
        assert reward == length <= HORIZON
