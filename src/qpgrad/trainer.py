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
episodes are independent of collection order. On the ``c`` backend the
initial draw is made in C (``start_params``), as ``policy.init_params``
makes it on ``numpy``.

Every batch of episodes, for validation or evaluation, is one call of
``play_batch``, which names the episodes by their stream paths
(``seeding.Streams``) and the init ranges of their groups. A training run
plays its batches through ``Batches``, which builds what they share once
per run and then plays each as ``play_batch`` would. On the ``c`` backend
one C call derives every episode's Philox stream and draws its start, and
one more plays the whole batch, so Python's work per batch does not grow
with its size. On ``numpy`` each episode's stream is a ``substream``
generator, its start a ``cartpole.reset``, and every live episode takes
its t-th step at once (``play_episodes``). Every batch, forward or
training, is played in one piece; the config bounds its size
(``gradient_bytes``, ``forward_bytes``). A batch is only ever held as
blocks: its episode lengths (every step pays +1, so a length is also a
total reward) and, for training, its per-step log-policy gradients,
indexed by step, then episode. Each episode draws from its own
stream exactly what it would draw alone, in the same order, and every
per-episode value is computed element by element with the expressions of a
lone episode, so an episode's results do not depend on the batch it runs
in.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import policy as pol
from . import qsim
from ._sv_c import STREAM_WORDS
from .cartpole import HORIZON, InitRanges, normalize, out_of_bounds, reset, step_batch
from .errors import ConfigurationError, UsageError, check_int
from .policy import AnsatzSpec, PolicyParams
from .seeding import STREAM_EPISODE, STREAM_INIT, Streams, substream

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
        for key, value, low in (("train.epochs", self.epochs, 0), ("train.batch_size", self.batch_size, 1),
                                ("train.minibatch", self.minibatch, 0), ("train.horizon", self.horizon, 1)):
            check_int(key, value, low)
        for key, value in (("train.learning_rate", self.learning_rate), ("train.lambda", self.lam)):
            if not math.isfinite(value):
                raise ConfigurationError(f"{key} must be finite, got {value}")
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
        if self.minibatch > self.batch_size:
            raise ConfigurationError("train.minibatch must be in [0, batch_size]")


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


def play_episodes(tpl, nu_flat, om_flat, starts, sigmas, rngs, horizon, glp=None) -> np.ndarray:
    """Plays episode i from the raw state ``starts[i]`` under the policy circuit ``tpl``, in lockstep.

    Episode i sees observation noise of std ``sigmas[i]`` (none unless
    positive) and draws from ``rngs[i]``: per step its noise draw if noisy,
    then the action uniform u; it pushes left (action 0) where u is below
    pi(0|s). It ends when it goes out of bounds or reaches ``horizon``; a
    start already out of bounds plays no step. Given the (horizon, B, P)
    blocks ``glp``, step t of episode i writes its grad log pi to ``[t, i]``.
    Returns the (B,) episode lengths.

    This is the numpy backend's loop, and the oracle of the compiled
    kernel's ``play_episodes``, which does the same in one call, bit for bit.
    """
    n = len(starts)
    lengths = np.zeros(n, dtype=np.int64)
    ids = np.flatnonzero(~out_of_bounds(starts))
    states = starts[ids]
    t = 0
    while len(ids):
        obs = normalize(states)
        u = np.empty(len(ids))
        for j, i in enumerate(ids.tolist()):
            if sigmas[i] > 0:
                obs[j] += rngs[i].normal(0.0, sigmas[i], 4)
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


def play_batch(spec: AnsatzSpec, params: PolicyParams, streams: Streams, ranges, horizon: int = HORIZON,
               sigmas=None, grads: bool = False):
    """Plays one episode per stream of ``streams``; returns ``(lengths, glp)``.

    The B episodes split into ``len(ranges)`` equal groups of consecutive
    episodes, and group k starts within the ``InitRanges`` ``ranges[k]``;
    ``sigmas`` holds each episode's observation-noise std (None: no
    noise). Episode i draws from its stream: first its start (as
    ``cartpole.reset`` does), then the rest of the episode under
    ``play_episodes``. On ``c`` both steps are one kernel call each; on
    ``numpy`` they are ``substream``, ``reset`` and the numpy
    ``play_episodes``, their oracle.

    ``lengths`` is the (B,) int64 episode lengths, which are also the
    episodes' total rewards. With ``grads``, ``glp`` is the per-step
    log-policy gradients ``(glp_nu, glp_omega)``, each (horizon, B, P):
    entry [t, i] is step t of episode i, set only for t below its length.
    Without, ``glp`` is None. Every episode gets exactly the values it
    would get alone.

    Raises before any episode is played: ``ValueError`` when ``streams``
    is not a ``Streams``, when its episodes do not split into one equal
    group per entry of ``ranges``, when ``horizon`` is not an int >= 1, or
    when ``sigmas`` does not hold one value per episode;
    ``ConfigurationError`` for a negative or non-finite sigma.
    """
    if not isinstance(streams, Streams):
        raise ValueError(f"streams must be a seeding.Streams, got {type(streams).__name__}")
    n, groups = len(streams), len(ranges)
    if groups == 0 or n % groups:
        raise ValueError(f"{n} episodes do not split into {groups} equal groups, one per init range")
    if not (isinstance(horizon, (int, np.integer)) and horizon >= 1):
        raise ValueError(f"horizon must be an int >= 1, got {horizon!r}")
    bounds = np.repeat(np.array([r.bounds for r in ranges]), n // groups, axis=0)
    sigmas = np.zeros(n) if sigmas is None else np.asarray(sigmas, dtype=np.float64)
    if sigmas.shape != (n,):
        raise ValueError(f"{sigmas.size} noise levels for {n} episodes")
    bad = sigmas[~(np.isfinite(sigmas) & (sigmas >= 0))]
    if bad.size:
        raise ConfigurationError(f"noise sigma must be finite and >= 0, got {bad[0]}")
    shape = (horizon, n, spec.n_params_each)
    glp = (np.empty(shape), np.empty(shape)) if grads else None
    return _play(spec, params, streams, bounds, horizon, sigmas, glp), glp


def _play(spec, params, streams, bounds, horizon, sigmas, glp) -> np.ndarray:
    """The episode lengths of the checked batch ``streams``, episode i starting within ``bounds[i]`` ((B, 4, 2));
    each training step writes its gradients to the blocks ``glp``, unless None."""
    tpl = pol.get_template(spec)
    nu_flat = params.nu.reshape(-1)
    om_flat = params.omega.reshape(-1)
    kernel = qsim.episode_kernel()
    if kernel is None:
        rngs = streams.generators()
        starts = np.array([reset(b, g) for b, g in zip(bounds, rngs)]).reshape(-1, 4)
        return play_episodes(tpl, nu_flat, om_flat, starts, sigmas, rngs, horizon, glp)
    states, starts = kernel.start_episodes(streams.head(), streams.suffixes, bounds)
    return kernel.play_episodes(spec.n_qubits, tpl.kinds, tpl.qa, tpl.qb, tpl.param, tpl.feature, nu_flat, om_flat,
                                starts, sigmas, states, horizon, glp)


# The most memory the two gradient blocks of a training batch, or the
# per-episode arrays of one model's forward batch, may take: a larger
# setting is rejected when the config is built, not mid-run.
MAX_GRADIENT_BYTES = 2**30


def gradient_bytes(spec: AnsatzSpec, config: TrainConfig) -> int:
    """The bytes of the two float64 (horizon, batch, P) gradient blocks of ``config``'s largest batch."""
    return 2 * 8 * config.horizon * (config.minibatch or config.batch_size) * spec.n_params_each


def forward_bytes(episodes: int, path: int) -> int:
    """The bytes of the per-episode arrays of a forward batch of ``episodes``, whose streams end in ``path``
    components: per episode its suffix, init bounds (8 words), noise std, length, start (4) and stream state, which
    the two ``c`` calls take and give. On ``numpy`` each episode's ``Generator`` takes about 1 KB instead."""
    return 8 * episodes * (path + 8 + 1 + 1 + 4 + STREAM_WORDS)


class Batches:
    """The fixed work of one training run's batches, done once per run.

    It holds the init bounds of each of ``ranges`` for up to ``size``
    episodes, one memory that every batch's gradient blocks are views of,
    and the reward-to-go table of the run's horizon and discount. A batch's
    blocks therefore hold its values only until the next batch is played.
    """

    def __init__(self, spec: AnsatzSpec, config: TrainConfig, ranges, size: int):
        self.spec, self.horizon = spec, config.horizon
        self.bounds = [np.repeat(r.bounds[None], size, axis=0) for r in ranges]
        self.memory = np.empty(2 * config.horizon * size * spec.n_params_each)
        self.returns = discounted_returns(np.ones(config.horizon), config.gamma)

    def play(self, params: PolicyParams, streams: Streams, k: int = 0):
        """``play_batch`` of the noise-free ``streams`` from ``ranges[k]``, with gradients, into the run's
        memory: ``(lengths, glp)``."""
        n, n_params = len(streams), self.spec.n_params_each
        blocks = self.memory[: 2 * self.horizon * n * n_params].reshape(2, self.horizon, n, n_params)
        glp = (blocks[0], blocks[1])
        return _play(self.spec, params, streams, self.bounds[k][:n], self.horizon, np.zeros(n), glp), glp


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


def episode_returns(lengths: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(B, max(t_max, 1)) reward-to-go of episodes of the given lengths, 0 past each end.

    ``table`` is a run's reward-to-go table, ``discounted_returns`` of as
    many rewards of 1 as its horizon. Every step pays +1, so a return k
    steps before an episode's end depends only on k, and an episode of L
    steps takes the table's last L entries, bit for bit.
    """
    t_max = max(int(lengths.max(initial=0)), 1)
    returns = np.zeros((len(lengths), t_max))
    for i, n_steps in enumerate(lengths.tolist()):
        returns[i, :n_steps] = table[len(table) - n_steps :]
    return returns


def batch_gradient(lengths: np.ndarray, glp_nu: np.ndarray, glp_omega: np.ndarray, config: TrainConfig,
                   table: np.ndarray):
    """REINFORCE estimator sum_ep sum_t G_t grad log pi(a_t|s_t), flat tensors.

    Takes the episode lengths and gradient blocks of ``play_batch`` and the
    reward-to-go ``table`` of ``episode_returns``, made with
    ``config.gamma``; the baseline and normalizer come from ``config``.
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
    returns = episode_returns(lengths, table)
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


def start_params(spec: AnsatzSpec, seed: int, initial_params: PolicyParams | None = None) -> PolicyParams:
    """A run's first parameters: a checked copy of ``initial_params``, or fresh ones,
    ``init_params(spec, substream(seed, STREAM_INIT))``, which on ``c`` the kernel draws."""
    if initial_params is not None:
        pol.check_params(spec, initial_params)
        return initial_params.copy()
    kernel = qsim.episode_kernel()
    if kernel is None:
        return pol.init_params(spec, substream(seed, STREAM_INIT))
    # the entropy words of substream(seed, STREAM_INIT): a path of one component, all in the prefix
    head = Streams(seed, (STREAM_INIT,), np.empty((1, 0), dtype=np.uint64)).head()
    nu, omega = kernel.init_params(head, spec.n_params_each, pol.NU_INIT_RANGE, pol.OMEGA_INIT_STD)
    return PolicyParams(nu.reshape(spec.param_shape), omega.reshape(spec.param_shape))


def train(
    config: TrainConfig,
    spec: AnsatzSpec,
    ranges: InitRanges,
    initial_params: PolicyParams | None = None,
) -> tuple[PolicyParams, list[TrainRecord]]:
    """Full training run: returns final parameters and one record per epoch."""
    params = start_params(spec, config.seed, initial_params)
    opt_state: AdamState | None = None
    records: list[TrainRecord] = []
    episode = 0
    minibatch = config.minibatch or config.batch_size
    batches = Batches(spec, config, [ranges], minibatch)
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        epoch_lengths = []
        collected = 0
        while collected < config.batch_size:
            # on-policy: each minibatch is rolled out under the current params
            n = min(minibatch, config.batch_size - collected)
            streams = Streams(config.seed, (STREAM_EPISODE,), np.arange(episode, episode + n)[:, None])
            lengths, (glp_nu, glp_omega) = batches.play(params, streams)
            episode += n
            if collected == 0:
                penalty_before = pol.regularization_penalty(params, config.lam)
            collected += n
            epoch_lengths.append(lengths)
            grad = batch_gradient(lengths, glp_nu, glp_omega, config, batches.returns)
            params, opt_state = apply_update(params, grad, config, opt_state)

        lengths = np.concatenate(epoch_lengths)
        mean_reward = float(np.mean(lengths.astype(np.float64)))
        mean_return = float(np.mean(episode_returns(lengths, batches.returns)[:, 0]))
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
