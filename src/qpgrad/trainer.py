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

Episodes run in batches (``rollouts``, and ``episode_rewards`` for
forward-only evaluation): one C call plays the whole batch on the ``c``
backend, and on ``numpy`` every live episode takes its t-th step at once
(``play_episodes``). A batch is only ever held as blocks: its episode
lengths (every step pays +1, so a length is also a total reward) and its
per-step log-policy gradients, indexed by step, then episode. Each episode
draws from its own generator exactly what it would draw alone, in the same
order, and every per-episode value is computed element by element with the
expressions of a lone episode, so an episode's results do not depend on the
batch it runs in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from . import policy as pol
from . import qsim
from .cartpole import HORIZON, InitRanges, NoiseModel, normalize, out_of_bounds, reset, step_batch
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

# The most episodes a forward-only batch plays at once. What it holds grows
# with the batch (a generator per episode, and on numpy the pre-drawn
# uniforms, horizon x batch floats), and chunks change no result, since an
# episode's values do not depend on its batch.
MAX_FORWARD_BATCH = 2048


def play_episodes(tpl, nu_flat, om_flat, starts, sigmas, rngs, horizon, glp=None) -> np.ndarray:
    """Plays episode i from the raw state ``starts[i]`` under the policy circuit ``tpl``, in lockstep.

    Episode i sees observation noise of std ``sigmas[i]`` (none unless
    positive) and draws from ``rngs[i]``: per step its noise draw if noisy,
    then the action uniform u; it pushes left (action 0) where u is below
    pi(0|s). It ends when it goes out of bounds or reaches ``horizon``; a
    start already out of bounds plays no step. Given the (horizon, B, P)
    blocks ``glp``, step t of episode i writes its grad log pi to ``[t, i]``.
    Returns the (B,) episode lengths.

    A noise-free episode draws the uniforms of the whole horizon at once:
    numpy's ``random(n)`` gives the same values as n single draws. This is
    the numpy backend's loop, and the oracle of the compiled kernel's
    ``play_episodes``, which does the same in one call, bit for bit.
    """
    n = len(starts)
    noise = [NoiseModel(s) if s > 0 else None for s in sigmas]
    noisy = np.array([m is not None for m in noise], dtype=bool)
    uniforms = np.empty((horizon, n))
    for i in np.flatnonzero(~noisy).tolist():
        uniforms[:, i] = rngs[i].random(horizon)
    lengths = np.zeros(n, dtype=np.int64)
    ids = np.flatnonzero(~out_of_bounds(starts))
    states = starts[ids]
    t = 0
    while len(ids):
        obs = normalize(states)
        u = uniforms[t][ids]
        for j in np.flatnonzero(noisy[ids]).tolist():
            i = ids[j]
            obs[j] += noise[i].draw(rngs[i])
            u[j] = rngs[i].random()
        if glp is None:
            e = tpl.expval(nu_flat, om_flat, obs)
        else:
            e, gnu, gom = tpl.expval_and_grad(nu_flat, om_flat, obs)
        p0 = pol.probs_from_expectation(e)[:, 0]
        right = ~(u < p0)
        if glp is not None:
            coeff = pol.log_policy_coeff(p0, right)[:, None]
            glp[0][t][ids] = coeff * gnu
            glp[1][t][ids] = coeff * gom
        states, out = step_batch(states, right)
        t += 1
        done = out | (t >= horizon)
        if done.any():
            lengths[ids[done]] = t
            ids, states = ids[~done], states[~done]
    return lengths


def _lockstep(spec, params, rngs, ranges, horizon, sigmas, collect_grads):
    """Plays one episode per entry of ``ranges``, as one batch.

    Episode i starts from a reset within ``ranges[i]``, drawn from the i-th
    generator of the iterable ``rngs``, then plays on under
    ``play_episodes`` (the C kernel's, or the numpy one) with observation
    noise of std ``sigmas[i]`` (none when 0 or when ``sigmas`` is None).
    Every episode needs its own ``numpy.random.Generator``: the C kernel
    draws episode by episode and the numpy loop step by step, so a shared
    one would give different draws. Raises ``ValueError`` before any draw
    when the generators do not match ``ranges`` one to one.

    Returns the (B,) episode lengths and, when ``collect_grads``, the
    per-step log-policy gradients ``(glp_nu, glp_omega)``, each of shape
    (horizon, B, P): step t of episode i is ``[t, i]``, set only for t below
    the episode's length.
    """
    n = len(ranges)
    rngs = list(rngs)
    if (len(rngs) != n or not all(isinstance(g, np.random.Generator) for g in rngs)
            or len({id(g.bit_generator) for g in rngs}) != n):
        raise ValueError(f"each of the {n} episodes needs a numpy.random.Generator of its own, got {len(rngs)}")
    sigmas = np.zeros(n) if sigmas is None else np.array([NoiseModel(s).sigma for s in sigmas], dtype=np.float64)
    if len(sigmas) != n:
        raise ValueError(f"{len(sigmas)} noise levels for {n} episodes")
    tpl = pol.get_template(spec)
    nu_flat = params.nu.reshape(-1)
    om_flat = params.omega.reshape(-1)
    kernel = qsim.episode_kernel()
    if kernel is None:
        play = partial(play_episodes, tpl, nu_flat, om_flat)
    else:
        play = partial(kernel, spec.n_qubits, tpl.kinds, tpl.qa, tpl.qb, tpl.param, tpl.feature, nu_flat, om_flat)
    starts = np.array([reset(r, g) for r, g in zip(ranges, rngs)]).reshape(n, 4)
    shape = (horizon, n, spec.n_params_each)
    glp = (np.empty(shape), np.empty(shape)) if collect_grads else None
    return play(starts, sigmas, rngs, horizon, glp), glp


def rollouts(
    spec: AnsatzSpec,
    params: PolicyParams,
    rngs,
    ranges,
    horizon: int = HORIZON,
    sigmas=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play one episode per entry of ``ranges`` as one batch, recording grad log pi(a_t|s_t) per step.

    ``ranges`` holds each episode's initial-condition ranges, ``rngs`` its
    generator (any iterable, consumed once) and ``sigmas`` its
    observation-noise std (None: no noise). Returns the (B,) episode
    lengths, which are also the episodes' total rewards, and the
    (horizon, B, P) blocks of per-step log-policy gradients for nu and
    omega; entry [t, i] is step t of episode i, set only for t below its
    length (the rest is left uninitialized).
    Every episode gets exactly the values it would get if it ran alone.
    """
    lengths, (glp_nu, glp_omega) = _lockstep(spec, params, rngs, ranges, horizon, sigmas, collect_grads=True)
    return lengths, glp_nu, glp_omega


def episode_rewards(
    spec: AnsatzSpec,
    params: PolicyParams,
    rngs,
    ranges,
    horizon: int = HORIZON,
    sigmas=None,
) -> np.ndarray:
    """Total reward of one episode per entry of ``ranges``, played forward-only as one batch.

    Arguments as for ``rollouts``; each reward is the one the episode would
    collect alone. Batches of more than ``MAX_FORWARD_BATCH`` episodes play
    as consecutive chunks of that many.
    """
    rngs, n = iter(rngs), len(ranges)
    lengths = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, max(n, 1), MAX_FORWARD_BATCH):
        hi = min(lo + MAX_FORWARD_BATCH, n)
        # the last chunk takes one generator too many, if there is one, for _lockstep to reject
        chunk_rngs = islice(rngs, hi - lo + (hi == n))
        chunk_sigmas = None if sigmas is None else sigmas[lo:hi]
        chunk, _ = _lockstep(spec, params, chunk_rngs, ranges[lo:hi], horizon, chunk_sigmas, False)
        lengths.append(chunk)
    return np.concatenate(lengths).astype(np.float64)


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


def episode_returns(lengths: np.ndarray, gamma: float) -> np.ndarray:
    """(B, max(t_max, 1)) reward-to-go of episodes of the given lengths, 0 past each end.

    Every step pays +1, so the returns of an episode of L steps are the
    last L returns of the longest one.
    """
    t_max = max(int(lengths.max(initial=0)), 1)
    full = discounted_returns(np.ones(t_max), gamma)
    returns = np.zeros((len(lengths), t_max))
    for i, n_steps in enumerate(lengths.tolist()):
        returns[i, :n_steps] = full[t_max - n_steps :]
    return returns


def batch_gradient(lengths: np.ndarray, glp_nu: np.ndarray, glp_omega: np.ndarray, config: TrainConfig):
    """REINFORCE estimator sum_ep sum_t G_t grad log pi(a_t|s_t), flat tensors.

    Takes the episode lengths and gradient blocks of ``rollouts``; the
    discount, baseline and normalizer come from ``config``.
    ``config.grad_norm`` picks the normalizer: "episodes" divides by the
    batch size (the textbook per-episode mean), "steps" by the total step
    count across the batch. The two differ only by a positive scalar, but
    the scalar sets how strongly the regularizer competes with the task
    gradient inside the update.

    With the batch-mean baseline, each G_t has the per-timestep batch mean
    subtracted (episodes shorter than t contribute 0 to the mean), so a
    batch of identical-length episodes produces exactly zero gradient.
    """
    if len(lengths) == 0:
        raise UsageError("batch_gradient needs at least one episode")
    returns = episode_returns(lengths, config.gamma)
    if config.baseline == BASELINE_BATCH_MEAN:
        returns -= returns.mean(axis=0)

    gnu = np.zeros(glp_nu.shape[-1])
    gom = np.zeros(glp_omega.shape[-1])
    for i, n_steps in enumerate(lengths.tolist()):
        if n_steps == 0:
            continue
        g = returns[i, :n_steps]
        gnu += g @ glp_nu[:n_steps, i]
        gom += g @ glp_omega[:n_steps, i]
    if config.grad_norm == NORM_STEPS:
        denom = max(int(lengths.sum()), 1)
    else:
        denom = len(lengths)
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
        epoch_lengths = []
        collected = 0
        while collected < config.batch_size:
            # on-policy: each minibatch is rolled out under the current params
            n = min(minibatch, config.batch_size - collected)
            rngs = (substream(config.seed, STREAM_EPISODE, episode + i) for i in range(n))
            lengths, glp_nu, glp_omega = rollouts(spec, params, rngs, [ranges] * n, config.horizon)
            episode += n
            if collected == 0:
                penalty_before = pol.regularization_penalty(params, config.lam)
            collected += n
            epoch_lengths.append(lengths)
            grad = batch_gradient(lengths, glp_nu, glp_omega, config)
            params, opt_state = apply_update(params, grad, config, opt_state)

        lengths = np.concatenate(epoch_lengths)
        mean_reward = float(np.mean(lengths.astype(np.float64)))
        mean_return = float(np.mean(episode_returns(lengths, config.gamma)[:, 0]))
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
