"""Post-training evaluation campaigns.

Two campaigns over a set of trained models:

* robustness sweep — mean episode reward under observation noise of
  increasing strength, default initial conditions;
* generalization grid — attraction rate (fraction of episodes reaching the
  full horizon) over a grid of initial pole angle x angular-velocity bins.

Results aggregate across models (mean and population std per point) and can
be compared with the non-overlap significance rule: candidate considerably
better than baseline when the mean +- std intervals are disjoint, slightly
better when only the mean +- std/2 intervals are.

Every (model, point, episode) draws from its own counter-based substream,
keyed by the model's label (a checkpoint's seed), so campaigns are
deterministic and parallelizable across models, and a model's results do not
depend on which other models are evaluated beside it.
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cartpole import HORIZON, THETA_INIT_LIMIT, InitRanges
from .errors import ConfigurationError, UsageError
from .policy import AnsatzSpec, PolicyParams
from .seeding import STREAM_EVAL, substream
from .trainer import episode_rewards


def _bins(edges) -> tuple:
    return tuple(zip(edges, edges[1:]))


_DEG = np.pi / 180.0


@dataclass(frozen=True)
class EvalGridSpec:
    """Initial-condition grid: pole angle bins in degrees, angular-velocity bins in rad/s."""

    angle_bins: tuple = _bins([round(-2.75 + 0.5 * i, 2) for i in range(12)])
    velocity_bins: tuple = _bins([round(0.02 * i, 2) for i in range(14)])
    episodes_per_cell: int = 100

    def __post_init__(self):
        object.__setattr__(self, "angle_bins", tuple(tuple(b) for b in self.angle_bins))
        object.__setattr__(self, "velocity_bins", tuple(tuple(b) for b in self.velocity_bins))
        for name, bins in (("angle", self.angle_bins), ("velocity", self.velocity_bins)):
            if not bins:
                raise ConfigurationError(f"grid needs at least one {name} bin")
            for lo, hi in bins:
                if lo > hi:
                    raise ConfigurationError(f"{name} bin [{lo}, {hi}] is inverted")
            for (_, hi), (lo, _) in zip(bins, bins[1:]):
                if lo < hi:
                    raise ConfigurationError(f"{name} bins must be ordered and non-overlapping")
        for lo, hi in self.angle_bins:
            if lo * _DEG < -THETA_INIT_LIMIT or hi * _DEG > THETA_INIT_LIMIT:
                raise ConfigurationError(
                    f"grid.angle_edges: bin [{lo}, {hi}] deg leaves the admissible initial pole "
                    f"angles [-{THETA_INIT_LIMIT}, {THETA_INIT_LIMIT}] rad "
                    f"(+-{THETA_INIT_LIMIT / _DEG:.2f} deg)"
                )
        if self.episodes_per_cell < 1:
            raise ConfigurationError("grid.cell_episodes must be >= 1")

    def cells(self):
        """(angle_bin, velocity_bin) pairs, angle-major order."""
        return [(a, v) for a in self.angle_bins for v in self.velocity_bins]


class Significance(enum.Enum):
    CONSIDERABLY_BETTER = "considerably_better"
    SLIGHTLY_BETTER = "slightly_better"
    NEUTRAL = "neutral"
    SLIGHTLY_WORSE = "slightly_worse"
    CONSIDERABLY_WORSE = "considerably_worse"


def significance_label(baseline: tuple[float, float], candidate: tuple[float, float]) -> Significance:
    """Non-overlap rule on (mean, std) pairs; halved stds decide the 'slightly' tier."""
    b_mean, b_std = baseline
    c_mean, c_std = candidate
    if b_std < 0 or c_std < 0:
        raise ValueError("standard deviations must be >= 0")
    if c_mean - c_std > b_mean + b_std:
        return Significance.CONSIDERABLY_BETTER
    if b_mean - b_std > c_mean + c_std:
        return Significance.CONSIDERABLY_WORSE
    if c_mean - 0.5 * c_std > b_mean + 0.5 * b_std:
        return Significance.SLIGHTLY_BETTER
    if b_mean - 0.5 * b_std > c_mean + 0.5 * c_std:
        return Significance.SLIGHTLY_WORSE
    return Significance.NEUTRAL


def attraction_rate(episode_rewards, horizon: int = HORIZON) -> float:
    """Fraction of episodes that collected the full-horizon reward."""
    rewards = np.asarray(episode_rewards, dtype=np.float64)
    if rewards.size == 0:
        raise UsageError("attraction_rate needs at least one episode")
    return float(np.mean(rewards == float(horizon)))


@dataclass
class EvalReport:
    """Per-model values over evaluation points plus across-model aggregates.

    ``values[m, p]`` is model m's statistic at point p (mean reward for the
    robustness sweep, attraction rate for the grid). ``episode_rewards`` is
    kept for the sweep so aggregates can be recomputed from persisted rows.
    """

    kind: str
    model_labels: list[int]
    points: list
    values: np.ndarray
    episode_rewards: np.ndarray | None = None  # (models, points, episodes) for robustness

    @property
    def means(self) -> np.ndarray:
        return self.values.mean(axis=0)

    @property
    def stds(self) -> np.ndarray:
        return self.values.std(axis=0)

    def significance_against(self, baseline: "EvalReport") -> list[Significance]:
        if baseline.points != self.points:
            raise UsageError("reports cover different evaluation points")
        return [
            significance_label((bm, bs), (cm, cs))
            for bm, bs, cm, cs in zip(baseline.means, baseline.stds, self.means, self.stds)
        ]


def _sim_cell(angle_bin, velocity_bin, base: InitRanges) -> InitRanges:
    """Initial ranges for one grid cell; negative-velocity cells alias their
    point reflection (both bins negated), matching the evaluation protocol
    that simulates nonnegative velocities only."""
    a_lo, a_hi = angle_bin
    v_lo, v_hi = velocity_bin
    if v_hi <= 0 and v_lo < 0:
        a_lo, a_hi = -a_hi, -a_lo
        v_lo, v_hi = -v_hi, -v_lo
    return InitRanges(
        x=base.x, x_dot=base.x_dot, theta=(a_lo * _DEG, a_hi * _DEG), theta_dot=(v_lo, v_hi)
    )


def _sweep_model(args):
    """One model's rewards at every (noise level, episode), played as one batch of episodes."""
    spec, nu, omega, label, sigmas, episodes, ranges, horizon, seed = args
    rngs = (substream(seed, STREAM_EVAL, label, k, e) for k in range(len(sigmas)) for e in range(episodes))
    per_episode = [s for s in sigmas for _ in range(episodes)]
    rewards = episode_rewards(
        spec, PolicyParams(nu, omega), rngs, [ranges] * len(per_episode), horizon, sigmas=per_episode
    )
    return rewards.reshape(len(sigmas), episodes)


def _grid_model(args):
    """One model's attraction rate in every grid cell, all cells' episodes played as one batch."""
    spec, nu, omega, label, cells, episodes, base, horizon, seed = args
    rngs = (substream(seed, STREAM_EVAL, label, c, e) for c in range(len(cells)) for e in range(episodes))
    cell_ranges = [_sim_cell(a, v, base) for a, v in cells]
    ranges = [r for r in cell_ranges for _ in range(episodes)]
    rewards = episode_rewards(spec, PolicyParams(nu, omega), rngs, ranges, horizon)
    return np.array([attraction_rate(row, horizon) for row in rewards.reshape(len(cells), episodes)])


def map_jobs(fn, tasks, workers: int) -> list:
    """``[fn(t) for t in tasks]``, over a pool of ``min(workers, len(tasks))`` processes when that is more
    than one."""
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def robustness_sweep(
    models,
    sigmas,
    episodes_per_point: int,
    spec: AnsatzSpec,
    init_ranges: InitRanges = InitRanges(),
    horizon: int = HORIZON,
    seed: int = 0,
    model_labels=None,
    workers: int = 1,
) -> EvalReport:
    """Mean reward per (model, noise level); aggregates across models per level."""
    if len(models) == 0:
        raise UsageError("robustness_sweep needs at least one model")
    sigmas = [float(s) for s in sigmas]
    labels = list(model_labels) if model_labels is not None else list(range(len(models)))
    tasks = [
        (spec, p.nu, p.omega, label, sigmas, episodes_per_point, init_ranges, horizon, seed)
        for label, p in zip(labels, models, strict=True)
    ]
    per_model = map_jobs(_sweep_model, tasks, workers)
    episode_rewards = np.stack(per_model)  # (models, sigmas, episodes)
    return EvalReport(
        kind="robustness",
        model_labels=labels,
        points=sigmas,
        values=episode_rewards.mean(axis=2),
        episode_rewards=episode_rewards,
    )


def generalization_grid(
    models,
    grid: EvalGridSpec,
    spec: AnsatzSpec,
    base_ranges: InitRanges = InitRanges(),
    horizon: int = HORIZON,
    seed: int = 0,
    model_labels=None,
    workers: int = 1,
) -> EvalReport:
    """Attraction rate per (model, grid cell); aggregates across models per cell."""
    if len(models) == 0:
        raise UsageError("generalization_grid needs at least one model")
    cells = grid.cells()
    labels = list(model_labels) if model_labels is not None else list(range(len(models)))
    tasks = [
        (spec, p.nu, p.omega, label, cells, grid.episodes_per_cell, base_ranges, horizon, seed)
        for label, p in zip(labels, models, strict=True)
    ]
    per_model = map_jobs(_grid_model, tasks, workers)
    return EvalReport(
        kind="generalization",
        model_labels=labels,
        points=cells,
        values=np.stack(per_model),
    )
