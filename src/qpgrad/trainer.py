"""Regularized policy-gradient training loop.

One epoch rolls out a batch of full episodes and applies gradient ascent on
the regularized objective

    J_reg = J - lambda * sum_g omega_g^2 * ||H||^2.

The task gradient is the REINFORCE estimator with reward-to-go returns; by
default returns are centered with a per-timestep batch-mean baseline (a
fully converged batch then contributes exactly zero gradient, which keeps
the optimum stable) and the sum is normalized by the total step count. The
penalty contributes the closed-form linear term of the update,

    omega <- omega + alpha * grad_omega(J) - 2 * alpha * lambda * ||H||^2 * omega,

applied identically under both optimizers: for ``vanilla`` ascent this IS
the update; under the default adaptive optimizer (beta1=0.9, beta2=0.999,
eps=1e-8) the moment estimates see only the task gradient and the decay
term stays outside, so its pull scales with lambda instead of being
renormalized away. The variational angles nu never see the penalty.

Everything is seeded: parameter init and each episode draw from dedicated
Philox substreams of the run seed, so training is bit-reproducible and
episodes are independent of collection order.

Episodes run in lockstep batches (``rollouts``, and ``episode_rewards`` for
forward-only evaluation): every live episode of the batch takes its t-th
step at once, with one kernel call for the whole batch. Each episode draws
from its own generator exactly what it would draw alone, in the same order,
and every per-episode value is computed element by element with the
expressions of a lone episode, so an episode's results do not depend on the
batch it runs in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import policy as pol
from .cartpole import HORIZON, InitRanges, NoiseModel, normalize, reset, step_batch
from .errors import ConfigurationError, UsageError
from .policy import AnsatzSpec, PolicyParams
from .seeding import STREAM_EPISODE, STREAM_INIT, substream

OPT_ADAM = "adam"
OPT_VANILLA = "vanilla"
BASELINE_NONE = "none"
BASELINE_BATCH_MEAN = "batch_mean"
NORM_STEPS = "steps"
NORM_EPISODES = "episodes"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 10
    learning_rate: float = 0.05
    gamma: float = 0.99
    lam: float = 0.0
    optimizer: str = OPT_ADAM
    baseline: str = BASELINE_BATCH_MEAN
    grad_norm: str = NORM_STEPS
    minibatch: int = 0  # trajectories per update; 0 = whole batch in one update
    horizon: int = HORIZON
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigurationError("train.epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("train.batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("train.learning_rate must be > 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError("train.gamma must be in [0, 1]")
        if self.lam < 0:
            raise ConfigurationError("train.lambda must be >= 0")
        if self.optimizer not in (OPT_ADAM, OPT_VANILLA):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if self.baseline not in (BASELINE_NONE, BASELINE_BATCH_MEAN):
            raise ConfigurationError(f"unknown baseline {self.baseline!r}")
        if self.grad_norm not in (NORM_STEPS, NORM_EPISODES):
            raise ConfigurationError(f"unknown gradient normalization {self.grad_norm!r}")
        if self.minibatch < 0 or self.minibatch > self.batch_size:
            raise ConfigurationError("train.minibatch must be in [0, batch_size]")
        if self.horizon < 1:
            raise ConfigurationError("train.horizon must be >= 1")


@dataclass
class Trajectory:
    """One episode: arrays indexed by step, plus episode-level bookkeeping."""

    observations: np.ndarray   # (T, n_features) as seen by the policy
    actions: np.ndarray        # (T,)
    rewards: np.ndarray        # (T,)
    glp_nu: np.ndarray         # (T, P) log-policy gradients, flat param order
    glp_omega: np.ndarray      # (T, P)
    total_reward: float
    failed: bool               # terminated before the horizon

    def __len__(self) -> int:
        return len(self.rewards)


@dataclass
class TrainRecord:
    """Per-epoch telemetry; wall_clock is informational and excluded from
    reproducibility comparisons (everything else is bit-deterministic)."""

    epoch: int
    mean_reward: float
    reg_objective: float
    lipschitz_total: float
    wall_clock: float


@dataclass
class AdamState:
    m_nu: np.ndarray
    v_nu: np.ndarray
    m_omega: np.ndarray
    v_omega: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape), np.zeros(shape), np.zeros(shape))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _lockstep(spec, params, rngs, ranges, horizon, sigmas, collect_grads):
    """Plays one episode per entry of ``ranges`` in lockstep.

    Episode i starts from ``ranges[i]``, sees observation noise of std
    ``sigmas[i]`` (none when 0 or when ``sigmas`` is None) and draws from
    the i-th generator of the iterable ``rngs``: its reset draws, then per
    step its noise draw if noisy and one uniform for the action. A
    noise-free episode draws the uniforms of the whole horizon right after
    its reset: numpy's ``random(n)`` gives the same values as n single
    draws, and nothing else is drawn after. Only the noisy episodes'
    generators are kept past that, so a large batch of noise-free episodes
    does not hold one generator per episode.

    Returns the (B,) episode lengths and, when ``collect_grads``, the
    per-step records ``(observations, actions, glp_nu, glp_omega)``, each
    indexed by step then episode.
    """
    tpl = pol.get_template(spec)
    nu_flat = params.nu.reshape(-1)
    om_flat = params.omega.reshape(-1)
    n = len(ranges)
    noise = [None] * n if sigmas is None else [NoiseModel(s) if s > 0 else None for s in sigmas]
    noisy = np.array([m is not None for m in noise], dtype=bool)
    any_noisy = noisy.any()
    uniforms = np.empty((horizon, n))
    starts, noisy_rngs = [], {}
    for i, (r, rng) in enumerate(zip(ranges, rngs, strict=True)):
        starts.append(reset(r, rng))
        if noisy[i]:
            noisy_rngs[i] = rng
        else:
            uniforms[:, i] = rng.random(horizon)
    lengths = np.zeros(n, dtype=np.int64)
    ids = np.array([i for i, s in enumerate(starts) if not s.terminated], dtype=np.intp)
    states = np.array([(s.x, s.x_dot, s.theta, s.theta_dot) for s in starts]).reshape(n, 4)[ids]
    if collect_grads:
        n_params = spec.n_params_each
        records = (
            np.empty((horizon, n, 4)),
            np.empty((horizon, n), dtype=np.int64),
            np.empty((horizon, n, n_params)),
            np.empty((horizon, n, n_params)),
        )

    t = 0
    while len(ids):
        rows = np.flatnonzero(noisy[ids]).tolist() if any_noisy else []  # the live noisy episodes' rows
        live_noisy = ids[rows].tolist()
        obs = normalize(states)
        if rows:  # as observe() would, without normalizing those rows again
            obs[rows] += np.array([noise[i].draw(noisy_rngs[i]) for i in live_noisy])
        if collect_grads:
            e, gnu, gom = tpl.expval_and_grad(nu_flat, om_flat, obs)
        else:
            e = tpl.expval(nu_flat, om_flat, obs)
        p0 = pol.probs_from_expectation(e)[:, 0]
        u = uniforms[t][ids]
        for j, i in zip(rows, live_noisy):
            u[j] = noisy_rngs[i].random()
        left = u < p0  # action 0
        if collect_grads:
            p_a = np.where(left, p0, 1.0 - p0)
            coeff = np.where(left, 1.0, -1.0) / (2.0 * np.maximum(p_a, 1e-12))
            for record, value in zip(records, (obs, ~left, coeff[:, None] * gnu, coeff[:, None] * gom)):
                record[t][ids] = value
        states, out = step_batch(states, ~left)
        t += 1
        done = out | (t >= horizon)
        if done.any():
            lengths[ids[done]] = t
            ids, states = ids[~done], states[~done]
    return lengths, (records if collect_grads else None)


def rollouts(
    spec: AnsatzSpec,
    params: PolicyParams,
    rngs,
    ranges,
    horizon: int = HORIZON,
    sigmas=None,
) -> list[Trajectory]:
    """Play one episode per entry of ``ranges`` in lockstep, recording grad log pi(a_t|s_t) per step.

    ``ranges`` holds each episode's initial-condition ranges, ``rngs`` its
    generator (any iterable, consumed once) and ``sigmas`` its
    observation-noise std (None: no noise). Every episode gets exactly the
    trajectory it would get if it ran alone.
    """
    lengths, records = _lockstep(spec, params, rngs, ranges, horizon, sigmas, collect_grads=True)
    observations, actions, glp_nu, glp_omega = records
    return [
        Trajectory(
            observations=observations[:n_steps, i].copy(),
            actions=actions[:n_steps, i].copy(),
            rewards=np.ones(n_steps),
            glp_nu=glp_nu[:n_steps, i].copy(),
            glp_omega=glp_omega[:n_steps, i].copy(),
            total_reward=float(n_steps),
            failed=n_steps < horizon,
        )
        for i, n_steps in enumerate(lengths.tolist())
    ]


def episode_rewards(
    spec: AnsatzSpec,
    params: PolicyParams,
    rngs,
    ranges,
    horizon: int = HORIZON,
    sigmas=None,
) -> np.ndarray:
    """Total reward of one episode per entry of ``ranges``, played forward-only in lockstep.

    Arguments as for ``rollouts``; each reward is the one the episode would
    collect alone.
    """
    lengths, _ = _lockstep(spec, params, rngs, ranges, horizon, sigmas, collect_grads=False)
    return lengths.astype(np.float64)


def discounted_returns(rewards, gamma: float) -> np.ndarray:
    """Reward-to-go G_t = sum_{t'>=t} gamma^(t'-t) r_t', by one backward pass."""
    if not 0.0 <= gamma <= 1.0:
        raise ConfigurationError("gamma must be in [0, 1]")
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def batch_gradient(
    trajectories, gamma: float, baseline: str = BASELINE_NONE, grad_norm: str = NORM_EPISODES
) -> tuple[np.ndarray, np.ndarray]:
    """REINFORCE estimator sum_ep sum_t G_t grad log pi(a_t|s_t), flat tensors.

    ``grad_norm`` picks the normalizer: "episodes" divides by the batch size
    (the textbook per-episode mean), "steps" by the total step count across
    the batch. The two differ only by a positive scalar, but the scalar sets
    how strongly the regularizer competes with the task gradient inside the
    update.

    With the batch-mean baseline, each G_t has the per-timestep batch mean
    subtracted (episodes shorter than t contribute 0 to the mean), so a
    batch of identical-length episodes produces exactly zero gradient.
    """
    if len(trajectories) == 0:
        raise UsageError("batch_gradient needs at least one trajectory")
    returns = [discounted_returns(tr.rewards, gamma) for tr in trajectories]
    if baseline == BASELINE_BATCH_MEAN:
        t_max = max((len(g) for g in returns), default=0)
        if t_max:
            padded = np.zeros((len(returns), t_max))
            for i, g in enumerate(returns):
                padded[i, : len(g)] = g
            mean_t = padded.mean(axis=0)
            returns = [g - mean_t[: len(g)] for g in returns]

    n_params = trajectories[0].glp_nu.shape[1]
    gnu = np.zeros(n_params)
    gom = np.zeros(n_params)
    for tr, g in zip(trajectories, returns):
        if len(g) == 0:
            continue
        gnu += g @ tr.glp_nu
        gom += g @ tr.glp_omega
    if grad_norm == NORM_STEPS:
        denom = max(sum(len(tr) for tr in trajectories), 1)
    else:
        denom = len(trajectories)
    gnu /= denom
    gom /= denom
    return gnu, gom


def apply_update(
    params: PolicyParams,
    grad: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
    opt_state: AdamState | None = None,
) -> tuple[PolicyParams, AdamState | None]:
    """One ascent step on the regularized objective; returns new params and optimizer state.

    ``grad`` is the task gradient (grad J). The penalty contributes the
    closed-form linear term -2*alpha*lambda*||H||^2*omega to the update of
    omega under both optimizers; under the adaptive optimizer it is applied
    decoupled from the moment estimates (weight-decay style), so its pull is
    proportional to lambda instead of being renormalized away. nu never sees
    the penalty.
    """
    shape = params.nu.shape
    gnu = np.asarray(grad[0], dtype=np.float64).reshape(shape)
    gom = np.asarray(grad[1], dtype=np.float64).reshape(shape)
    lr = config.learning_rate
    decay = lr * pol.penalty_gradient(params, config.lam)

    if config.optimizer == OPT_VANILLA:
        nu = params.nu + lr * gnu
        omega = params.omega + lr * gom - decay
        return PolicyParams(nu, omega), opt_state

    if opt_state is None:
        opt_state = AdamState.zeros(shape)
    opt_state.t += 1
    t = opt_state.t

    def adam_step(value, g, m, v):
        m[...] = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v[...] = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        return value + lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    nu = adam_step(params.nu, gnu, opt_state.m_nu, opt_state.v_nu)
    omega = adam_step(params.omega, gom, opt_state.m_omega, opt_state.v_omega) - decay
    return PolicyParams(nu, omega), opt_state


def train(
    config: TrainConfig,
    spec: AnsatzSpec,
    ranges: InitRanges,
    initial_params: PolicyParams | None = None,
) -> tuple[PolicyParams, list[TrainRecord]]:
    """Full training run: returns final parameters and one record per epoch."""
    if initial_params is not None:
        pol.check_params(spec, initial_params)
        params = initial_params.copy()
    else:
        params = pol.init_params(spec, substream(config.seed, STREAM_INIT))
    opt_state: AdamState | None = None
    records: list[TrainRecord] = []
    episode = 0
    minibatch = config.minibatch or config.batch_size
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        epoch_trajs = []
        collected = 0
        while collected < config.batch_size:
            # on-policy: each minibatch is rolled out under the current params
            n = min(minibatch, config.batch_size - collected)
            rngs = (substream(config.seed, STREAM_EPISODE, episode + i) for i in range(n))
            batch = rollouts(spec, params, rngs, [ranges] * n, config.horizon)
            episode += n
            collected += len(batch)
            epoch_trajs.extend(batch)
            if collected == len(batch):  # first minibatch of the epoch
                penalty_before = pol.regularization_penalty(params, config.lam)
            grad = batch_gradient(batch, config.gamma, config.baseline, config.grad_norm)
            params, opt_state = apply_update(params, grad, config, opt_state)

        mean_reward = float(np.mean([tr.total_reward for tr in epoch_trajs]))
        mean_return = float(
            np.mean(
                [discounted_returns(tr.rewards, config.gamma)[0] if len(tr) else 0.0 for tr in epoch_trajs]
            )
        )
        records.append(
            TrainRecord(
                epoch=epoch,
                mean_reward=mean_reward,
                reg_objective=mean_return - penalty_before,
                lipschitz_total=pol.lipschitz_bound(spec, params).total,
                wall_clock=time.perf_counter() - t0,
            )
        )
    return params, records
