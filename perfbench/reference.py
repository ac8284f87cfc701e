"""Independent reference for checking the benchmark's outputs.

Written from the documented behaviour alone and importing nothing from
``qpgrad``:

* a dense simulator of the layered ansatz. Every layer is one 16 x 16
  matrix, the Kronecker product of the per-qubit rotations
  RY(nu1) RZ(nu0) RY(omega1 s_q) RZ(omega0 s_q), after Hadamards on all
  qubits, with CZ on every qubit pair between layers. The policy is
  p(push left) = (1 + <Z^n>) / 2. Gradients come from the parameter-shift
  rule;
* CartPole from its published constants, explicit Euler at dt = 0.02 s;
* REINFORCE with reward-to-go returns, a per-timestep batch-mean baseline
  and normalisation by the step count, followed by Adam whose
  regularisation pull is decoupled from the moments;
* the seeding contract: a Philox stream keyed by (run seed, *path), with
  path (0,) for parameter init and (1, k) for training episode k.

Qubit q is bit q of the basis index.
"""

from __future__ import annotations

import numpy as np

N_QUBITS = 4
N_LAYERS = 3

GRAVITY = 9.8
CART_MASS = 1.0
POLE_MASS = 0.1
HALF_LENGTH = 0.5
FORCE = 10.0
DT = 0.02
X_LIMIT = 2.4
THETA_LIMIT = 0.2095
HORIZON = 200
OBS_SCALE = np.array([2.4, 2.5, 0.21, 2.5])

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
GENERATOR_NORM = 0.5
LEARNING_RATE = 0.05
GAMMA = 0.99
BATCH_SIZE = 10
VALIDATION_PERIOD = 10


def run_seeds(master_seed: int, n: int) -> list[int]:
    """Per-run seeds: the first n outputs of splitmix64 started at the master seed."""
    mask = (1 << 64) - 1
    seeds = []
    for i in range(1, n + 1):
        z = (master_seed + i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        seeds.append(z ^ (z >> 31))
    return seeds


def stream(seed: int, *path: int) -> np.random.Generator:
    """The documented per-consumer Philox stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


# --- statevector -----------------------------------------------------------


def _ry(a):
    c, s = np.cos(a / 2), np.sin(a / 2)
    m = np.empty(np.shape(a) + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = c, -s, s, c
    return m


def _rz(a):
    m = np.zeros(np.shape(a) + (2, 2), dtype=complex)
    m[..., 0, 0] = np.exp(-0.5j * a)
    m[..., 1, 1] = np.exp(0.5j * a)
    return m


def _popcount(n_qubits):
    return np.array([bin(b).count("1") for b in range(1 << n_qubits)])


def layer_matrices(angles):
    """Dense layer unitaries, shape (B, L, 2^n, 2^n), from angles (B, L, n, 4).

    The last axis holds the rotation angles in circuit order:
    (omega0 * s, omega1 * s, nu0, nu1).
    """
    a = np.asarray(angles, dtype=float)
    per_qubit = _rz(a[..., 0])
    for rotation, column in ((_ry, 1), (_rz, 2), (_ry, 3)):
        per_qubit = _matmul(rotation(a[..., column]), per_qubit)
    n = a.shape[-2]
    full = per_qubit[..., n - 1, :, :]
    for q in range(n - 2, -1, -1):
        # Kronecker product full (x) per_qubit[q]: qubit q is the less significant bit.
        dim = full.shape[-1] * 2
        kron = full[..., :, None, :, None] * per_qubit[..., q, None, :, None, :]
        full = kron.reshape(full.shape[:-2] + (dim, dim))
    return full


def _matmul(a, b):
    # Stacks of 2 x 2 products, entry by entry; np.matmul is slow on many tiny matrices.
    c = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for i in range(2):
        for j in range(2):
            c[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return c


def expectation(angles) -> np.ndarray:
    """<Z^n> for a batch of angle sets (B, L, n, 4)."""
    a = np.asarray(angles, dtype=float)
    n_layers, n = a.shape[-3], a.shape[-2]
    pop = _popcount(n)
    cz_signs = (-1.0) ** (pop * (pop - 1) // 2)  # one sign per pair of set bits
    parity = (-1.0) ** pop
    mats = layer_matrices(a)
    psi = np.full(a.shape[:-3] + (1 << n,), (1 << n) ** -0.5, dtype=complex)
    for layer in range(n_layers):
        psi = (mats[..., layer, :, :] @ psi[..., None])[..., 0]
        if layer < n_layers - 1:
            psi = psi * cz_signs
    return (np.abs(psi) ** 2) @ parity


def circuit_angles(nu, omega, obs):
    """Rotation angles (..., L, n, 4) from parameters (..., L, n, 2) and inputs (..., n)."""
    enc = np.asarray(omega) * np.asarray(obs)[..., None, :, None]
    return np.concatenate([enc, np.broadcast_to(nu, enc.shape)], axis=-1)


def expectation_and_grad(nu, omega, obs):
    """(<Z^n>, d/dnu, d/domega) by the parameter-shift rule for one input."""
    base = circuit_angles(nu, omega, obs)
    k = base.size
    shifted = np.repeat(base[None], 2 * k + 1, axis=0).reshape(2 * k + 1, k)
    idx = np.arange(k)
    shifted[1 + idx, idx] += np.pi / 2
    shifted[1 + k + idx, idx] -= np.pi / 2
    e = expectation(shifted.reshape((2 * k + 1,) + base.shape))
    d_angle = (0.5 * (e[1 : k + 1] - e[k + 1 :])).reshape(base.shape)
    g_nu = d_angle[..., 2:]
    g_omega = d_angle[..., :2] * np.asarray(obs)[None, :, None]
    return float(e[0]), g_nu, g_omega


# --- CartPole ---------------------------------------------------------------


def cartpole_step(state, push_right):
    """Explicit-Euler step of (x, x_dot, theta, theta_dot); works on (..., 4) arrays."""
    x, x_dot, theta, theta_dot = (state[..., i] for i in range(4))
    force = np.where(push_right, FORCE, -FORCE)
    total = CART_MASS + POLE_MASS
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    temp = (force + POLE_MASS * HALF_LENGTH * theta_dot**2 * sin_t) / total
    theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
        HALF_LENGTH * (4.0 / 3.0 - POLE_MASS * cos_t**2 / total)
    )
    x_acc = temp - POLE_MASS * HALF_LENGTH * theta_acc * cos_t / total
    return np.stack(
        [x + DT * x_dot, x_dot + DT * x_acc, theta + DT * theta_dot, theta_dot + DT * theta_acc], axis=-1
    )


def out_of_bounds(state):
    return (np.abs(state[..., 0]) > X_LIMIT) | (np.abs(state[..., 2]) > THETA_LIMIT)


# --- training replay ----------------------------------------------------------


def init_params(seed: int):
    rng = stream(seed, 0)
    nu = rng.uniform(-np.pi, np.pi, size=(N_LAYERS, N_QUBITS, 2))
    omega = rng.normal(0.0, 0.1, size=(N_LAYERS, N_QUBITS, 2))
    return nu, omega


DEFAULT_INIT = ((-0.05, 0.05),) * 4


def play_episode(nu, omega, rng, init=DEFAULT_INIT, grads=True):
    """One noise-free episode on its own stream; returns its length and per-step grad log pi.

    ``init`` holds the uniform initial-state bounds of (x, x_dot, theta,
    theta_dot), drawn in that order; each step then draws one uniform for
    the action.
    """
    state = np.array([rng.uniform(lo, hi) for lo, hi in init])
    glp_nu, glp_omega = [], []
    steps = 0
    done = bool(out_of_bounds(state))
    while not done:
        obs = state / OBS_SCALE
        if grads:
            e, g_nu, g_omega = expectation_and_grad(nu, omega, obs)
        else:
            e = float(expectation(circuit_angles(nu, omega, obs)))
        p_left = (1.0 + min(1.0, max(-1.0, e))) / 2.0
        left = rng.random() < p_left
        if grads:
            # d log p_left = de / (2 p_left); d log p_right = -de / (2 p_right)
            coeff = 1.0 / (2.0 * p_left) if left else -1.0 / (2.0 * (1.0 - p_left))
            glp_nu.append(coeff * g_nu)
            glp_omega.append(coeff * g_omega)
        state = cartpole_step(state, not left)
        steps += 1
        done = bool(out_of_bounds(state)) or steps >= HORIZON
    return steps, np.array(glp_nu), np.array(glp_omega)


def reinforce_gradient(episodes):
    """Batch-mean-baselined REINFORCE estimate, divided by the total step count."""
    t_max = max(length for length, _, _ in episodes)
    returns = np.zeros((len(episodes), t_max))
    for i, (length, _, _) in enumerate(episodes):
        returns[i, :length] = reward_to_go(length)
    advantage = returns - returns.mean(axis=0)
    g_nu, g_omega = 0.0, 0.0
    for adv, (length, glp_nu, glp_omega) in zip(advantage, episodes):
        g_nu = g_nu + np.tensordot(adv[:length], glp_nu, axes=1)
        g_omega = g_omega + np.tensordot(adv[:length], glp_omega, axes=1)
    steps = sum(length for length, _, _ in episodes)
    return g_nu / steps, g_omega / steps


def reward_to_go(length: int) -> np.ndarray:
    """G_t = sum_{k < length - t} GAMMA^k for an episode paying +1 per step."""
    return np.cumsum(GAMMA ** np.arange(length))[::-1]


class Learner:
    """Parameters from the init stream, updated by REINFORCE and Adam.

    The regularisation pull -2 lr lambda ||H||^2 omega is computed from the
    parameters before the step and kept out of the moment estimates.
    """

    def __init__(self, seed, lam):
        self.nu, self.omega = init_params(seed)
        self.lam = lam
        self.moments = [np.zeros((2,) + self.nu.shape) for _ in range(2)]
        self.t = 0

    def update(self, episodes):
        b1, b2 = ADAM_BETAS
        self.t += 1
        grad = np.stack(reinforce_gradient(episodes))
        m, v = self.moments
        m[...] = b1 * m + (1 - b1) * grad
        v[...] = b2 * v + (1 - b2) * grad * grad
        step = LEARNING_RATE * (m / (1 - b1**self.t)) / (np.sqrt(v / (1 - b2**self.t)) + ADAM_EPS)
        decay = LEARNING_RATE * 2.0 * self.lam * GENERATOR_NORM**2 * self.omega
        self.nu, self.omega = self.nu + step[0], self.omega + step[1] - decay

    def penalty(self) -> float:
        return self.lam * GENERATOR_NORM**2 * float(np.sum(self.omega**2))


def replay_training(seed, epochs, lam):
    """Replays a default-config training run; returns per-epoch records and final parameters.

    Each record is (mean_reward, reg_objective, lipschitz_total).
    """
    learner = Learner(seed, lam)
    records = []
    for epoch in range(epochs):
        penalty = learner.penalty()
        episodes = [
            play_episode(learner.nu, learner.omega, stream(seed, 1, epoch * BATCH_SIZE + k))
            for k in range(BATCH_SIZE)
        ]
        learner.update(episodes)
        lengths = [length for length, _, _ in episodes]
        mean_return = float(np.mean([reward_to_go(n)[0] for n in lengths]))
        records.append((float(np.mean(lengths)), mean_return - penalty, lipschitz_total(learner.omega)))
    return records, learner.nu, learner.omega


def replay_curriculum(seed, lam, limits, f_max, validation_episodes, threshold):
    """Replays a curriculum run over theta_dot half-widths ``limits``.

    Training episode k uses stream (seed, 1, k) and counts as a failure when
    it ends before the horizon. After every update that follows at least
    ``VALIDATION_PERIOD`` training episodes, validation burst b plays episode j on
    stream (seed, 2, b, j); a mean strictly above ``threshold`` passes the
    range. Returns per range [failures, passed, last validation mean] and
    the parameters snapshotted at each pass.
    """
    learner = Learner(seed, lam)
    rows = [[0, False, float("nan")] for _ in limits]
    snapshots = []
    failures = episode = stage = since = burst = 0
    batch = []
    while failures < f_max:
        init = DEFAULT_INIT[:3] + ((-limits[stage], limits[stage]),)
        batch.append(play_episode(learner.nu, learner.omega, stream(seed, 1, episode), init))
        episode += 1
        since += 1
        if batch[-1][0] < HORIZON:
            failures += 1
            rows[stage][0] += 1
        if len(batch) < BATCH_SIZE:
            continue
        learner.update(batch)
        batch = []
        if since < VALIDATION_PERIOD:
            continue
        since = 0
        lengths = [
            play_episode(learner.nu, learner.omega, stream(seed, 2, burst, j), init, grads=False)[0]
            for j in range(validation_episodes)
        ]
        burst += 1
        rows[stage][2] = float(np.mean(lengths))
        if not rows[stage][2] > threshold:
            continue
        rows[stage][1] = True
        snapshots.append((learner.nu, learner.omega))
        if stage == len(limits) - 1:
            break
        stage += 1
    return rows, snapshots


# --- evaluation ----------------------------------------------------------------


def episode_lengths(nu, omega, init_low, init_high, sigma, rng):
    """Plays episodes in lockstep and returns their lengths.

    ``nu`` and ``omega`` are (E, L, n, 2), one parameter set per episode;
    ``init_low``/``init_high`` are (E, 4) uniform initial-state bounds.
    Observations get N(0, sigma) noise per normalised feature when sigma > 0.
    """
    state = rng.uniform(init_low, init_high)
    lengths = np.zeros(len(state), dtype=int)
    alive = ~out_of_bounds(state)
    while alive.any():
        idx = np.flatnonzero(alive)
        obs = state[idx] / OBS_SCALE
        if sigma > 0:
            obs = obs + rng.normal(0.0, sigma, size=obs.shape)
        e = expectation(circuit_angles(nu[idx], omega[idx], obs))
        push_right = rng.random(len(idx)) >= (1.0 + e) / 2.0
        state[idx] = cartpole_step(state[idx], push_right)
        lengths[idx] += 1
        alive[idx] = ~out_of_bounds(state[idx]) & (lengths[idx] < HORIZON)
    return lengths


def default_init_bounds(n):
    return np.full((n, 4), -0.05), np.full((n, 4), 0.05)


def lipschitz_total(omega) -> float:
    """Certified Lipschitz bound: 2 ||P_a|| ||H|| sum|omega| per action, with ||P_a|| = 1,
    ||H|| = 1/2, summed over both actions."""
    return 2.0 * float(np.sum(np.abs(omega)))
