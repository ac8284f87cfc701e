"""Post-training evaluation campaigns.

Two campaigns over a set of trained models:

* robustness sweep — mean episode reward under observation noise of
  increasing strength, default initial conditions;
* generalization grid — attraction rate (fraction of episodes reaching the
  full horizon) over a grid of initial pole angle x angular-velocity bins.
  ``EvalGridSpec`` holds each axis as the config writes it, as bin edges,
  and pairs consecutive edges into bins.

Two arms are compared per point by the mean and population std of their
models' values, under the non-overlap significance rule of
``significance_label``: candidate considerably better than baseline when
the mean +- std intervals are disjoint, slightly better when only the
mean +- std/2 intervals are.

Both campaigns play, per model, one batch of (point, episode) pairs through
``trainer.play_batch``, where a point is an initial-condition range and a
noise std: the sweep's points share one range, and the grid's are
noise-free. Every (model, point, episode) draws from its own counter-based
substream, keyed by the model's label (a checkpoint's seed), so campaigns
are deterministic and parallelizable across models, and a model's results
do not depend on which other models are evaluated beside it.

``map_jobs`` runs the models, and the seeds of ``train`` and ``curriculum``,
on a pool of worker processes when asked to. On ``c`` each batch is also
played on several threads inside its C call, ``_sv_c.Kernel.threads`` in
every process, and neither count changes a result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .cartpole import HORIZON, THETA_INIT_LIMIT, InitRanges
from .errors import ConfigurationError, check_int
from .policy import AnsatzSpec
from .seeding import STREAM_EVAL, Streams
from .trainer import play_batch


_DEG = np.pi / 180.0


@dataclass(frozen=True)
class EvalGridSpec:
    """Initial-condition grid, as the config writes it: pole angle bin edges in degrees, within the admissible
    initial angles, and angular-velocity bin edges in rad/s. Bin i spans edges i and i + 1."""

    angle_edges: tuple = tuple(round(-2.75 + 0.5 * i, 2) for i in range(12))
    velocity_edges: tuple = tuple(round(0.02 * i, 2) for i in range(14))
    episodes_per_cell: int = 100

    def __post_init__(self):
        for name in ("angle_edges", "velocity_edges"):
            edges = tuple(float(e) for e in getattr(self, name))
            object.__setattr__(self, name, edges)
            if len(edges) < 2:
                raise ConfigurationError(f"grid.{name}: need at least two edges")
            # finite too: -inf < edges[0] and edges[-1] < inf
            if not all(a < b for a, b in zip((-np.inf, *edges), (*edges, np.inf))):
                raise ConfigurationError(f"grid.{name}: edges must be strictly increasing")
            for lo, hi in zip(edges, edges[1:]):
                if not np.isfinite(hi - lo):
                    raise ConfigurationError(f"grid.{name}: the width of bin [{lo}, {hi}] overflows a float")
        for lo, hi in zip(self.angle_edges, self.angle_edges[1:]):
            if lo * _DEG < -THETA_INIT_LIMIT or hi * _DEG > THETA_INIT_LIMIT:
                raise ConfigurationError(
                    f"grid.angle_edges: bin [{lo}, {hi}] deg leaves the admissible initial pole "
                    f"angles [-{THETA_INIT_LIMIT}, {THETA_INIT_LIMIT}] rad "
                    f"(+-{THETA_INIT_LIMIT / _DEG:.2f} deg)"
                )
        check_int("grid.cell_episodes", self.episodes_per_cell, 1)

    def cells(self):
        """(angle_bin, velocity_bin) pairs of consecutive edges, angle-major order."""
        a, v = self.angle_edges, self.velocity_edges
        return [(a_bin, v_bin) for a_bin in zip(a, a[1:]) for v_bin in zip(v, v[1:])]


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


def attraction_rates(episode_rewards, horizon: int = HORIZON) -> np.ndarray:
    """Fraction of episodes that collected the full-horizon reward, over the last axis of ``episode_rewards``."""
    return (np.asarray(episode_rewards, dtype=np.float64) == horizon).mean(axis=-1)


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


def _play_model(args):
    """One model's rewards at every (point, episode), as a (points, episodes) block: all are played as one
    batch, and point k's episodes start within ``ranges[k]`` under observation noise of std ``sigmas[k]``."""
    spec, params, label, ranges, sigmas, episodes, horizon, seed = args
    # the (point, episode) pairs, point-major, are the trailing stream path components
    streams = Streams(seed, (STREAM_EVAL, label), np.indices((len(ranges), episodes)).reshape(2, -1).T)
    lengths, _ = play_batch(spec, params, streams, ranges, horizon, np.repeat(sigmas, episodes))
    return lengths.reshape(len(ranges), episodes).astype(np.float64)


def map_jobs(fn, tasks, workers: int) -> list:
    """``[fn(t) for t in tasks]``, over a pool of ``min(workers, len(tasks))`` processes when that is more
    than one. The pool forks, and every fork joins the C kernel's helper threads first; each forked process
    starts its own and plays its C episode calls on the thread count it inherits. Only a run that starts a
    pool imports ``concurrent.futures``."""
    workers = min(workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _play_models(models, model_labels, workers, spec, ranges, sigmas, episodes, horizon, seed) -> np.ndarray:
    """The (models, points, episodes) rewards of ``models``, one ``_play_model`` task per model."""
    tasks = [(spec, p, label, ranges, sigmas, episodes, horizon, seed)
             for label, p in zip(model_labels, models, strict=True)]
    return np.stack(map_jobs(_play_model, tasks, workers))


def robustness_sweep(
    models,
    model_labels,
    sigmas,
    episodes_per_point: int,
    spec: AnsatzSpec,
    init_ranges: InitRanges = InitRanges(),
    horizon: int = HORIZON,
    seed: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """The (models, noise levels, episodes) block of episode rewards: model m, labelled ``model_labels[m]``,
    at noise std ``sigmas[k]``, from ``init_ranges``."""
    return _play_models(models, model_labels, workers, spec, [init_ranges] * len(sigmas),
                        [float(s) for s in sigmas], episodes_per_point, horizon, seed)


def generalization_grid(
    models,
    model_labels,
    grid: EvalGridSpec,
    spec: AnsatzSpec,
    base_ranges: InitRanges = InitRanges(),
    horizon: int = HORIZON,
    seed: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """The (models, cells) block of attraction rates: model m, labelled ``model_labels[m]``, noise-free on cell c
    of ``grid.cells()``."""
    cells = grid.cells()
    rewards = _play_models(models, model_labels, workers, spec, [_sim_cell(a, v, base_ranges) for a, v in cells],
                           [0.0] * len(cells), grid.episodes_per_cell, horizon, seed)
    return attraction_rates(rewards, horizon)
