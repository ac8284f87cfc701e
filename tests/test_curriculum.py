"""Curriculum loop semantics: failure accounting, validation gating, determinism."""

import numpy as np
import pytest

from qpgrad.cartpole import InitRanges
from qpgrad.curriculum import (
    CurriculumSchedule,
    run_curriculum,
    validate,
)
from qpgrad.errors import ConfigurationError
from qpgrad.policy import AnsatzSpec, PolicyParams
from qpgrad.trainer import TrainConfig

SPEC = AnsatzSpec()


def tiny_schedule(**kw):
    args = dict(f_max=25, validation_episodes=10, validation_period=10)
    args.update(kw)
    return CurriculumSchedule(theta_dot_limits=(0.25, 0.75), **args)


class TestSchedule:
    def test_default_ranges(self):
        sched = CurriculumSchedule()
        assert [r.theta_dot for r in sched.ranges(InitRanges())] == [
            (-0.25, 0.25),
            (-0.75, 0.75),
            (-1.25, 1.25),
            (-1.75, 1.75),
        ]
        assert sched.f_max == 1000
        assert sched.validation_episodes == 100
        assert sched.validation_threshold == 195.0

    def test_non_expanding_rejected(self):
        with pytest.raises(ConfigurationError, match="curriculum.ranges"):
            CurriculumSchedule(theta_dot_limits=(0.5, 0.25))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="curriculum.ranges"):
            CurriculumSchedule(theta_dot_limits=())


class TestValidate:
    def test_random_policy_fails_validation(self):
        params = PolicyParams(np.zeros(SPEC.param_shape), np.zeros(SPEC.param_shape))
        mean, passed, failures = validate(SPEC, params, InitRanges(), 30, seed=5)
        assert not passed
        assert mean < 100.0
        assert 0 < failures <= 30

    def test_needs_episodes(self):
        with pytest.raises(ConfigurationError):
            validate(SPEC, PolicyParams(np.zeros(SPEC.param_shape), np.zeros(SPEC.param_shape)), InitRanges(), 0)


class TestRunCurriculum:
    def test_zero_budget_short_circuits(self):
        cfg = TrainConfig(seed=3)
        result = run_curriculum(cfg, SPEC, tiny_schedule(f_max=0))
        assert result.total_failures == 0
        assert result.episodes == 0
        assert not result.converged
        assert all(not out.passed for out in result.per_range)

    def test_budget_respected_and_failures_counted(self):
        # a near-random policy fails essentially every training episode
        cfg = TrainConfig(seed=4)
        sched = tiny_schedule(f_max=30)
        result = run_curriculum(cfg, SPEC, sched)
        assert not result.converged
        assert result.total_failures == 30
        assert result.total_failures == sum(o.failures for o in result.per_range)
        # with an unconverged policy every training episode fails
        assert result.episodes == result.total_failures

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(seed=6)
        sched = tiny_schedule(f_max=40)
        a = run_curriculum(cfg, SPEC, sched)
        b = run_curriculum(cfg, SPEC, sched)
        assert a.total_failures == b.total_failures
        assert a.episodes == b.episodes
        for oa, ob in zip(a.per_range, b.per_range):
            assert (oa.failures, oa.passed) == (ob.failures, ob.passed)
            assert oa.validation_mean == ob.validation_mean or (
                np.isnan(oa.validation_mean) and np.isnan(ob.validation_mean)
            )

    def test_snapshots_only_for_passed_ranges(self):
        cfg = TrainConfig(seed=7)
        result = run_curriculum(cfg, SPEC, tiny_schedule(f_max=25))
        for out in result.per_range:
            assert (out.snapshot is not None) == out.passed


class TestWithTrainedPolicy:
    """Cases that need a policy already solving the default conditions."""

    def test_optimal_policy_passes_immediately(self, trained_policy):
        params, _ = trained_policy
        sched = CurriculumSchedule(theta_dot_limits=(0.05,), f_max=50, validation_episodes=30, validation_period=10)
        cfg = TrainConfig(seed=8)
        result = run_curriculum(cfg, SPEC, sched, initial_params=params)
        assert result.converged
        assert result.total_failures == 0
        assert result.per_range[0].passed
        assert result.per_range[0].snapshot is not None

    def test_trained_policy_validates_on_default_range(self, trained_policy):
        params, _ = trained_policy
        mean, passed, _ = validate(SPEC, params, InitRanges(), 50, seed=11)
        assert passed
        assert mean > 195.0

    def test_threshold_is_strict(self, trained_policy):
        # a mean exactly at the threshold must not pass ("exceeds" is strict)
        params, _ = trained_policy
        mean, _, _ = validate(SPEC, params, InitRanges(), 50, seed=11)
        _, passed_at_mean, _ = validate(SPEC, params, InitRanges(), 50, threshold=mean, seed=11)
        assert not passed_at_mean
