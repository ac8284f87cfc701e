"""Curriculum training over an expanding schedule of initial-condition ranges.

Training rolls out one batch of episodes at a time from the current range,
counting every early-terminated training episode as a failure against a
global budget ``f_max``. Failures are counted in episode order, and the
episodes after the one that uses up the budget are dropped, so a run ends
exactly where one episode at a time would end it. After each batch
update (and at least ``validation_period`` training episodes since the last
check), the policy is validated on the current range with noise-free
episodes; passing validation snapshots the policy and advances to the next
range. The run ends when the final range passes (converged) or the failure
budget is exhausted — non-convergence is a normal outcome, not an error.

Validation episodes never increment the failure counter; their failure count
is tracked separately for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import policy as pol
from .cartpole import HORIZON, InitRanges
from .errors import ConfigurationError
from .policy import AnsatzSpec, PolicyParams
from .seeding import STREAM_EPISODE, STREAM_INIT, STREAM_VALIDATION, substream
from .trainer import AdamState, TrainConfig, apply_update, batch_gradient, episode_rewards, rollouts

DEFAULT_THETA_DOT_LIMITS = (0.25, 0.75, 1.25, 1.75)
VALIDATION_THRESHOLD = 195.0


def default_schedule(
    base: InitRanges = InitRanges(), theta_dot_limits=DEFAULT_THETA_DOT_LIMITS, **options
) -> "CurriculumSchedule":
    """Schedule expanding only the pole angular-velocity interval (raw rad/s).

    ``options`` are the other fields of ``CurriculumSchedule``.
    """
    ranges = [
        InitRanges(x=base.x, x_dot=base.x_dot, theta=base.theta, theta_dot=(-lim, lim))
        for lim in theta_dot_limits
    ]
    return CurriculumSchedule(ranges=ranges, **options)


@dataclass(frozen=True)
class CurriculumSchedule:
    ranges: tuple
    f_max: int = 1000
    validation_episodes: int = 100
    validation_threshold: float = VALIDATION_THRESHOLD
    validation_period: int = 10

    def __post_init__(self):
        object.__setattr__(self, "ranges", tuple(self.ranges))
        if not self.ranges:
            raise ConfigurationError("curriculum needs at least one range")
        for prev, nxt in zip(self.ranges, self.ranges[1:]):
            if not nxt.contains(prev):
                raise ConfigurationError("curriculum ranges must be expanding")
        if self.f_max < 0:
            raise ConfigurationError("curriculum.max_failures must be >= 0")
        if self.validation_episodes < 1:
            raise ConfigurationError("curriculum.validation_episodes must be >= 1")
        if self.validation_period < 1:
            raise ConfigurationError("curriculum.validation_period must be >= 1")


@dataclass
class RangeOutcome:
    ranges: InitRanges
    failures: int = 0                  # training failures consumed on this range
    passed: bool = False
    snapshot: PolicyParams | None = None
    validation_mean: float = float("nan")  # last validation mean on this range
    validation_failures: int = 0       # reporting only; never counted against f_max


@dataclass
class CurriculumResult:
    per_range: list[RangeOutcome]
    total_failures: int
    converged: bool
    episodes: int  # training episodes rolled out


def validate(
    spec: AnsatzSpec,
    params: PolicyParams,
    ranges: InitRanges,
    n_episodes: int,
    threshold: float = VALIDATION_THRESHOLD,
    horizon: int = HORIZON,
    seed: int = 0,
    tag: int = 0,
) -> tuple[float, bool, int]:
    """Noise-free evaluation on ``ranges``: (mean reward, passed, episodes that ended early).

    Passes iff the mean reward strictly exceeds ``threshold``.
    """
    if n_episodes < 1:
        raise ConfigurationError("validation needs at least one episode")
    rngs = (substream(seed, STREAM_VALIDATION, tag, j) for j in range(n_episodes))
    rewards = episode_rewards(spec, params, rngs, [ranges] * n_episodes, horizon)
    mean = float(rewards.mean())
    return mean, mean > threshold, int(np.sum(rewards < horizon))


def run_curriculum(
    config: TrainConfig,
    spec: AnsatzSpec,
    schedule: CurriculumSchedule,
    initial_params: PolicyParams | None = None,
) -> CurriculumResult:
    """Train through the schedule until the final range passes or failures hit f_max."""
    if initial_params is not None:
        pol.check_params(spec, initial_params)
        params = initial_params.copy()
    else:
        params = pol.init_params(spec, substream(config.seed, STREAM_INIT))
    opt_state: AdamState | None = None

    outcomes = [RangeOutcome(ranges=r) for r in schedule.ranges]
    failures = 0
    episode = 0
    range_idx = 0
    since_validation = 0
    val_tag = 0
    converged = False

    while failures < schedule.f_max:
        n = config.batch_size
        rngs = (substream(config.seed, STREAM_EPISODE, episode + i) for i in range(n))
        ranges = [schedule.ranges[range_idx]] * n
        lengths, glp_nu, glp_omega = rollouts(spec, params, rngs, ranges, config.horizon)
        failed = lengths < config.horizon
        # the episode that uses up the budget ends the run; later episodes never happened
        kept = min(n, int(np.searchsorted(failures + np.cumsum(failed), schedule.f_max)) + 1)
        new_failures = int(failed[:kept].sum())
        failures += new_failures
        outcomes[range_idx].failures += new_failures
        episode += kept
        since_validation += kept
        if kept < n:
            break
        grad = batch_gradient(lengths, glp_nu, glp_omega, config)
        params, opt_state = apply_update(params, grad, config, opt_state)
        if since_validation < schedule.validation_period:
            continue
        since_validation = 0
        mean, passed, val_failed = validate(
            spec,
            params,
            schedule.ranges[range_idx],
            schedule.validation_episodes,
            schedule.validation_threshold,
            config.horizon,
            config.seed,
            val_tag,
        )
        val_tag += 1
        out = outcomes[range_idx]
        out.validation_mean = mean
        out.validation_failures += val_failed
        if not passed:
            continue
        out.passed = True
        out.snapshot = params.copy()
        if range_idx == len(schedule.ranges) - 1:
            converged = True
            break
        range_idx += 1

    return CurriculumResult(
        per_range=outcomes,
        total_failures=failures,
        converged=converged,
        episodes=episode,
    )
