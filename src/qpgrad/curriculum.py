"""Curriculum training over an expanding schedule of initial-condition ranges.

A ``CurriculumSchedule`` holds the ``curriculum.*`` settings as the config
writes them: the pole angular-velocity half-widths of ``curriculum.ranges``
and the four counts. Range k is the run's base ``InitRanges`` (the
``init.*`` keys) with its ``theta_dot`` interval replaced by
(-limit k, limit k), so the ranges expand as the limits grow.

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

import math
from dataclasses import dataclass, replace

import numpy as np

from .cartpole import HORIZON, InitRanges
from .errors import ConfigurationError, check_int
from .policy import AnsatzSpec, PolicyParams
from .seeding import STREAM_VALIDATION, Streams
from .trainer import AdamState, Batches, TrainConfig, apply_update, batch_gradient, play_batch, start_params

VALIDATION_THRESHOLD = 195.0


@dataclass(frozen=True)
class CurriculumSchedule:
    """The ``curriculum.*`` settings, as the config writes them. Range k keeps the base ranges of x, x_dot and
    theta, and takes the pole angular velocity interval (-limit, limit) of ``theta_dot_limits[k]`` (raw rad/s)."""

    theta_dot_limits: tuple = (0.25, 0.75, 1.25, 1.75)
    f_max: int = 1000
    validation_episodes: int = 100
    validation_threshold: float = VALIDATION_THRESHOLD
    validation_period: int = 10

    def __post_init__(self):
        limits = tuple(float(lim) for lim in self.theta_dot_limits)
        object.__setattr__(self, "theta_dot_limits", limits)
        # finite too: 0 < limits[0] and limits[-1] < inf
        if not limits or not all(a < b for a, b in zip((0.0, *limits), (*limits, math.inf))):
            raise ConfigurationError("curriculum.ranges must be positive and strictly increasing")
        if not math.isfinite(2 * limits[-1]):  # the width of (-limit, limit)
            raise ConfigurationError(f"curriculum.ranges: the width of (-{limits[-1]}, {limits[-1]}) overflows a float")
        check_int("curriculum.max_failures", self.f_max, 0)
        check_int("curriculum.validation_episodes", self.validation_episodes, 1)
        if not math.isfinite(self.validation_threshold):
            raise ConfigurationError(f"curriculum.validation_threshold must be finite, got {self.validation_threshold}")
        check_int("curriculum.validation_period", self.validation_period, 1)

    def ranges(self, base: InitRanges) -> list[InitRanges]:
        """The expanding ranges of the schedule around ``base``."""
        return [replace(base, theta_dot=(-lim, lim)) for lim in self.theta_dot_limits]


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
    streams = Streams(seed, (STREAM_VALIDATION, tag), np.arange(n_episodes)[:, None])
    lengths, _ = play_batch(spec, params, streams, [ranges], horizon)
    mean = float(lengths.mean())
    return mean, mean > threshold, int(np.sum(lengths < horizon))


def run_curriculum(
    config: TrainConfig,
    spec: AnsatzSpec,
    schedule: CurriculumSchedule,
    base: InitRanges = InitRanges(),
) -> CurriculumResult:
    """Train through the schedule's ranges around ``base``, from ``start_params(spec, config.seed)``, until the
    final range passes or failures hit f_max."""
    params = start_params(spec, config.seed)
    opt_state: AdamState | None = None

    ranges = schedule.ranges(base)
    outcomes = [RangeOutcome(ranges=r) for r in ranges]
    failures = 0
    episode = 0
    range_idx = 0
    since_validation = 0
    val_tag = 0
    converged = False
    n = config.batch_size
    batches = Batches(spec, config, ranges, n)

    while failures < schedule.f_max:
        lengths, glp = batches.play(params, episode, n, range_idx)
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
        grad = batch_gradient(lengths, glp, config, batches.returns)
        params, opt_state = apply_update(params, grad, config, opt_state)
        if since_validation < schedule.validation_period:
            continue
        since_validation = 0
        mean, passed, val_failed = validate(
            spec,
            params,
            ranges[range_idx],
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
        if range_idx == len(ranges) - 1:
            converged = True
            break
        range_idx += 1

    return CurriculumResult(
        per_range=outcomes,
        total_failures=failures,
        converged=converged,
        episodes=episode,
    )
