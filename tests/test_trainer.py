"""Returns, REINFORCE estimator, update rules, and short end-to-end training runs."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpgrad import qsim
from qpgrad.cartpole import InitRanges
from qpgrad.errors import UsageError
from qpgrad.policy import AnsatzSpec, PolicyParams, zero_params
from qpgrad.seeding import substream
from qpgrad.trainer import (
    TrainConfig,
    apply_update,
    batch_gradient,
    discounted_returns,
    episode_rewards,
    rollouts,
    train,
)

SPEC = AnsatzSpec()


def make_traj(glp_nu, glp_omega):
    return np.asarray(glp_nu, dtype=np.float64), np.asarray(glp_omega, dtype=np.float64)


def gradient(trajs, gamma, baseline="none", grad_norm="episodes"):
    """``batch_gradient`` of per-episode (T_i, P) gradient arrays, laid out as ``rollouts`` returns them."""
    lengths = np.array([len(nu) for nu, _ in trajs], dtype=np.int64)
    blocks = np.zeros((2, max(lengths.max(), 1), len(trajs), trajs[0][0].shape[1]))
    for i, pair in enumerate(trajs):
        for block, glp in zip(blocks, pair):
            block[: len(glp), i] = glp
    config = TrainConfig(gamma=gamma, baseline=baseline, grad_norm=grad_norm)
    return batch_gradient(lengths, blocks[0], blocks[1], config)


class TestDiscountedReturns:
    def test_three_ones(self):
        np.testing.assert_allclose(discounted_returns([1, 1, 1], 0.99), [2.9701, 1.99, 1.0])

    def test_gamma_zero_returns_rewards(self):
        r = [0.5, 2.0, 1.0]
        np.testing.assert_allclose(discounted_returns(r, 0.0), r)

    def test_gamma_one_sums(self):
        out = discounted_returns([1.0] * 200, 1.0)
        assert out[0] == pytest.approx(200.0)
        assert out[-1] == pytest.approx(1.0)


class TestBatchGradient:
    def test_zero_length_episode_zero_gradient(self):
        tr = make_traj(np.zeros((0, 48)), np.zeros((0, 48)))
        gnu, gom = gradient([tr], 0.99)
        assert not gnu.any() and not gom.any()

    def test_single_step_unit_return(self):
        glp = np.arange(48, dtype=np.float64)[None, :]
        gnu, gom = gradient([make_traj(glp, 2 * glp)], gamma=0.99)
        np.testing.assert_allclose(gnu, glp[0])
        np.testing.assert_allclose(gom, 2 * glp[0])

    def test_duplication_invariance(self):
        rng = np.random.default_rng(0)
        trajs = [make_traj(rng.normal(size=(5, 48)), rng.normal(size=(5, 48))) for _ in range(3)]
        g1 = gradient(trajs, 0.9)
        g2 = gradient(trajs + trajs, 0.9)
        np.testing.assert_allclose(g1[0], g2[0])
        np.testing.assert_allclose(g1[1], g2[1])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        trajs = [make_traj(rng.normal(size=(k, 48)), rng.normal(size=(k, 48))) for k in (3, 7, 5)]
        g1 = gradient(trajs, 0.95)
        g2 = gradient(trajs[::-1], 0.95)
        np.testing.assert_allclose(g1[0], g2[0], atol=1e-12)

    def test_empty_batch_raises(self):
        with pytest.raises(UsageError):
            empty = np.zeros((200, 0, 48))
            batch_gradient(np.zeros(0, dtype=np.int64), empty, empty, TrainConfig())

    def test_batch_mean_baseline_zeroes_identical_batch(self):
        rng = np.random.default_rng(2)
        glp = rng.normal(size=(6, 48))
        trajs = [make_traj(glp, glp), make_traj(glp, glp)]
        gnu, gom = gradient(trajs, 0.99, baseline="batch_mean")
        np.testing.assert_allclose(gnu, 0.0, atol=1e-14)
        np.testing.assert_allclose(gom, 0.0, atol=1e-14)

    def test_steps_normalization_is_scalar_rescale(self):
        rng = np.random.default_rng(3)
        trajs = [make_traj(rng.normal(size=(k, 48)), rng.normal(size=(k, 48))) for k in (4, 6)]
        g_ep = gradient(trajs, 0.9, grad_norm="episodes")
        g_st = gradient(trajs, 0.9, grad_norm="steps")
        np.testing.assert_allclose(g_st[0] * 10, g_ep[0] * 2, atol=1e-12)


    def test_matches_per_episode_reference(self):
        # the block form gives the bits of one contiguous array per episode,
        # each with its own discounted_returns and padded baseline
        rng = np.random.default_rng(7)
        for _ in range(30):
            lengths = rng.integers(0, 40, size=int(rng.integers(1, 8)))
            trajs = [make_traj(rng.normal(size=(k, 12)), rng.normal(size=(k, 12))) for k in lengths]
            for baseline in ("none", "batch_mean"):
                for grad_norm in ("episodes", "steps"):
                    returns = [discounted_returns(np.ones(k), 0.97) for k in lengths]
                    if baseline == "batch_mean" and lengths.max() > 0:
                        padded = np.zeros((len(returns), lengths.max()))
                        for i, g in enumerate(returns):
                            padded[i, : len(g)] = g
                        returns = [g - padded.mean(axis=0)[: len(g)] for g in returns]
                    ref = [np.zeros(12), np.zeros(12)]
                    for (nu, om), g in zip(trajs, returns):
                        if len(g):
                            ref[0] += g @ nu
                            ref[1] += g @ om
                    denom = max(lengths.sum(), 1) if grad_norm == "steps" else len(lengths)
                    got = gradient(trajs, 0.97, baseline, grad_norm)
                    assert np.array_equal(got[0], ref[0] / denom) and np.array_equal(got[1], ref[1] / denom)


class TestApplyUpdate:
    def test_zero_gradient_no_lambda_is_identity(self):
        params = zero_params(SPEC)
        params.nu += 0.3
        params.omega += 0.2
        zero = (np.zeros(SPEC.param_shape), np.zeros(SPEC.param_shape))
        for opt in ("vanilla", "adam"):
            cfg = TrainConfig(optimizer=opt, lam=0.0)
            out, _ = apply_update(params, zero, cfg)
            np.testing.assert_array_equal(out.nu, params.nu)
            np.testing.assert_array_equal(out.omega, params.omega)

    def test_vanilla_decay_value(self):
        # omega 1.0, lambda 0.1, alpha 0.05 -> 1 - 2*0.05*0.1*0.25 = 0.9975
        params = zero_params(SPEC)
        params.omega[0, 0, 0] = 1.0
        cfg = TrainConfig(optimizer="vanilla", lam=0.1, learning_rate=0.05)
        zero = (np.zeros(SPEC.param_shape), np.zeros(SPEC.param_shape))
        out, _ = apply_update(params, zero, cfg)
        assert out.omega[0, 0, 0] == pytest.approx(0.9975)

    def test_nu_never_sees_regularizer(self):
        rng = np.random.default_rng(4)
        params = PolicyParams(rng.normal(size=SPEC.param_shape), rng.normal(size=SPEC.param_shape))
        zero = (np.zeros(SPEC.param_shape), np.zeros(SPEC.param_shape))
        for opt in ("vanilla", "adam"):
            out, _ = apply_update(params, zero, TrainConfig(optimizer=opt, lam=0.7))
            np.testing.assert_array_equal(out.nu, params.nu)

    def test_omega_norm_strictly_decreases_under_decay(self):
        rng = np.random.default_rng(5)
        zero = (np.zeros(SPEC.param_shape), np.zeros(SPEC.param_shape))
        for opt in ("vanilla", "adam"):
            params = PolicyParams(np.zeros(SPEC.param_shape), rng.normal(size=SPEC.param_shape))
            cfg = TrainConfig(optimizer=opt, lam=0.3)
            state = None
            for _ in range(5):
                before = np.linalg.norm(params.omega)
                params, state = apply_update(params, zero, cfg, state)
                assert np.linalg.norm(params.omega) < before

    def test_lambda_zero_update_symmetric_in_tensors(self):
        # without the penalty, omega follows the same rule as nu
        rng = np.random.default_rng(6)
        g = rng.normal(size=SPEC.param_shape)
        params = PolicyParams(np.full(SPEC.param_shape, 0.1), np.full(SPEC.param_shape, 0.1))
        out, _ = apply_update(params, (g, g), TrainConfig(optimizer="vanilla", lam=0.0))
        np.testing.assert_allclose(out.nu, out.omega)


class TestRollout:
    def test_trajectory_shape_consistency(self):
        params = zero_params(SPEC)
        lengths, glp_nu, glp_omega = rollouts(SPEC, params, [substream(1, 1, 0)], [InitRanges()])
        (n_steps,) = lengths
        assert 0 < n_steps <= 200
        assert glp_nu.shape == glp_omega.shape == (200, 1, SPEC.n_params_each)
        assert np.all(np.isfinite(glp_nu[:n_steps])) and np.all(np.isfinite(glp_omega[:n_steps]))

    def test_rollout_deterministic_per_stream(self):
        params = zero_params(SPEC)
        a = rollouts(SPEC, params, [substream(9, 1, 3)], [InitRanges()])
        b = rollouts(SPEC, params, [substream(9, 1, 3)], [InitRanges()])
        (n_steps,) = a[0]
        assert np.array_equal(a[0], b[0])
        for x, y in zip(a[1:], b[1:]):
            assert np.array_equal(x[:n_steps], y[:n_steps])


# One episode's settings: its stream index, observation-noise std and the
# half-widths of its initial pole angle and angular velocity (angles up to
# 0.21 can start beyond the 0.2095 bound, so some episodes take no step).
_episode = st.tuples(
    st.integers(0, 2**40),
    st.sampled_from([0.0, 0.0, 0.2, 0.8]),
    st.floats(0.0, 0.21),
    st.floats(0.0, 2.0),
)


class TestLockstep:
    """An episode's results do not depend on the batch it runs in."""

    def test_random_block_matches_single_draws(self):
        # noise-free episodes draw the action uniforms of their horizon at once
        for k in range(5):
            block = substream(4, 1, k).random(200)
            rng = substream(4, 1, k)
            assert np.array_equal(block, [rng.random() for _ in range(200)])

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.lists(_episode, min_size=1, max_size=4))
    def test_episode_alone_equals_episode_in_batch(self, param_seed, horizon, episodes):
        spec = AnsatzSpec(n_layers=1)
        draw = np.random.default_rng(param_seed)
        params = PolicyParams(draw.uniform(-np.pi, np.pi, spec.param_shape), draw.normal(0, 1, spec.param_shape))
        ranges = [InitRanges(theta=(-w, w), theta_dot=(-v, v)) for _, _, w, v in episodes]
        sigmas = [sigma for _, sigma, _, _ in episodes]

        def streams(picked):
            return [substream(3, 1, episodes[i][0]) for i in picked]

        everyone = range(len(episodes))
        for kernel in (qsim.load_kernel("c"), qsim.load_kernel("numpy")):
            with mock.patch.object(qsim, "_kernel", kernel):
                lengths, glp_nu, glp_omega = rollouts(
                    spec, params, streams(everyone), ranges, horizon, sigmas
                )
                rewards = episode_rewards(spec, params, streams(everyone), ranges, horizon, sigmas)
                for i in everyone:
                    alone = rollouts(spec, params, streams([i]), [ranges[i]], horizon, [sigmas[i]])
                    n_steps = lengths[i]
                    assert n_steps == alone[0][0]
                    assert np.array_equal(glp_nu[:n_steps, i], alone[1][:n_steps, 0])
                    assert np.array_equal(glp_omega[:n_steps, i], alone[2][:n_steps, 0])
                    reward_alone = episode_rewards(spec, params, streams([i]), [ranges[i]], horizon, [sigmas[i]])
                    assert rewards[i] == reward_alone[0] == lengths[i]


class TestTrain:
    def test_zero_epochs_returns_init(self):
        cfg = TrainConfig(epochs=0, seed=7)
        params, records = train(cfg, SPEC, InitRanges())
        assert records == []
        assert params.nu.shape == SPEC.param_shape

    def test_bit_identical_reproducibility(self):
        cfg = TrainConfig(epochs=3, seed=11)
        p1, r1 = train(cfg, SPEC, InitRanges())
        p2, r2 = train(cfg, SPEC, InitRanges())
        assert np.array_equal(p1.nu, p2.nu)
        assert np.array_equal(p1.omega, p2.omega)
        for a, b in zip(r1, r2):
            assert (a.epoch, a.mean_reward, a.reg_objective, a.lipschitz_total) == (
                b.epoch,
                b.mean_reward,
                b.reg_objective,
                b.lipschitz_total,
            )

    def test_records_track_live_lipschitz(self):
        from qpgrad.policy import lipschitz_bound

        cfg = TrainConfig(epochs=2, seed=13)
        params, records = train(cfg, SPEC, InitRanges())
        assert records[-1].lipschitz_total == lipschitz_bound(SPEC, params).total
