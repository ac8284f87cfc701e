"""The compiled one-call episode loop against its numpy composition.

``trainer.play_episodes`` plays a batch of episodes step by step, composing
each step from the numpy functions; the C kernel's ``play_episodes`` must
give the same bits, compared as int64 views so that -0.0 against 0.0 counts
as a difference. The composition runs on the C row kernel, as the numpy
backend's loop would with that kernel plugged in.

The contract covers the lengths, every gradient entry (the blocks start at
zero, so entries past an episode's end must stay unwritten) and the final
state of each noisy episode's generator. It does not cover the final state
of a noise-free episode's generator: the numpy loop draws the action
uniforms of the whole horizon at once, the C loop one per step played.
"""

from functools import cache
from unittest import mock

import numpy as np
import pytest

from qpgrad import policy as pol
from qpgrad import qsim
from qpgrad.policy import AnsatzSpec, CircuitTemplate
from qpgrad.trainer import play_episodes

SPECIAL = np.array([0.0, -0.0, np.pi, -np.pi, 1e-300, 1e3, -1e3])
SIGMAS = np.array([0.0, 1e-3, 0.1, 0.8, 5.0])


@cache
def c_kernel():
    return qsim.load_kernel("c")


def _template(spec: AnsatzSpec) -> CircuitTemplate:
    """The policy circuit of ``spec``. CartPole has 4 features, so on 5 or 6
    qubits the encoding of qubit i reads feature i % 4 here: the template is
    never used that way, but the kernel's wider registers get covered."""
    tpl = CircuitTemplate(spec)
    if spec.n_qubits > 4:
        tpl.feature[tpl.feature >= 0] %= 4
    return tpl


def _sprinkle(rng, values: np.ndarray, share: float) -> np.ndarray:
    """``values`` with about ``share`` of its entries replaced by special values."""
    picked = rng.random(values.shape) < share
    values[picked] = rng.choice(SPECIAL, int(picked.sum()))
    return values


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64) if a.dtype == np.float64 else a


def _generators(seed: int, n: int, buffers=None) -> list:
    """``n`` fresh Philox generators; ``buffers[i]``, if given, are the next
    four 64-bit outputs of generator i, placed in Philox's output buffer."""
    rngs = [np.random.Generator(np.random.Philox(seed + i)) for i in range(n)]
    for g, buffer in zip(rngs, buffers if buffers is not None else []):
        state = g.bit_generator.state
        state["buffer"], state["buffer_pos"] = np.array(buffer, dtype=np.uint64), 0
        g.bit_generator.state = state
    return rngs


def _play(which, tpl, nu, omega, starts, sigmas, horizon, train, seed, buffers=None):
    """``(lengths, glp, states)`` of one backend: the gradient blocks (None
    unless ``train``) and the final ``bit_generator.state`` of each noisy
    episode's generator, as text."""
    n = len(starts)
    rngs = _generators(seed, n, buffers)
    shape = (horizon, n, len(nu))
    glp = (np.zeros(shape), np.zeros(shape)) if train else None
    if which == "oracle":
        with mock.patch.object(qsim, "_kernel", c_kernel()):
            lengths = play_episodes(tpl, nu, omega, starts, sigmas, rngs, horizon, glp)
    else:
        lengths = c_kernel().play_episodes(tpl.spec.n_qubits, tpl.kinds, tpl.qa, tpl.qb, tpl.param, tpl.feature,
                                           nu, omega, starts, sigmas, rngs, horizon, glp)
    states = [str(g.bit_generator.state) for g, s in zip(rngs, sigmas) if s > 0]
    return lengths, glp, states


def _assert_same(oracle, compiled):
    assert oracle[0].dtype == compiled[0].dtype == np.int64
    assert np.array_equal(oracle[0], compiled[0])
    if oracle[1] is not None:
        for a, b in zip(oracle[1], compiled[1]):
            assert np.array_equal(_bits(a), _bits(b))
    assert oracle[2] == compiled[2]


def _run_both(*args, **kwargs):
    oracle = _play("oracle", *args, **kwargs)
    compiled = _play("compiled", *args, **kwargs)
    _assert_same(oracle, compiled)
    return oracle


@pytest.mark.parametrize("train", [False, True], ids=["forward", "training"])
def test_step_matches_numpy_composition_bit_for_bit(train):
    rng = np.random.default_rng(60 + train)
    steps = out_of_bounds = 0
    played_sigmas = set()
    for n_qubits in range(1, 7):
        for entangler in ("between", "every"):
            for encoding in ("rz_ry", "rz_rz"):
                spec = AnsatzSpec(n_qubits, 1 + n_qubits % 3, entangler, encoding)
                tpl = _template(spec)
                for n_episodes in (1, 3, 17, 200):
                    nu = _sprinkle(rng, rng.uniform(-np.pi, np.pi, spec.n_params_each), 0.1)
                    omega = _sprinkle(rng, rng.normal(0.0, 1.0, spec.n_params_each), 0.1)
                    # about 1 start in 10 is out of bounds already: |x| > 2.4 or |theta| > 0.2095
                    starts = rng.uniform([-2.5, -2.0, -0.22, -2.0], [2.5, 2.0, 0.22, 2.0], (n_episodes, 4))
                    sigmas = rng.choice(SIGMAS, n_episodes)
                    horizon = int(rng.integers(1, 61))
                    lengths = _run_both(tpl, nu, omega, starts, sigmas, horizon, train, int(rng.integers(2**32)))[0]
                    steps += int(lengths.sum())
                    out_of_bounds += int(np.count_nonzero(lengths == 0))
                    played_sigmas.update(sigmas[lengths > 0].tolist())
    assert steps >= 40_000 and out_of_bounds >= 40 and played_sigmas == set(SIGMAS.tolist())


def test_step_clamps_improbable_actions_as_numpy_does():
    # H, then RY(b) with b = -pi/2 + 1e-7 or pi/2 - 1e-7 (omega = 0), leaves
    # pi(0|s) within 1e-14 of 1 or of 0. The generators' next outputs, set by
    # hand, make the uniforms 1 - 2**-53 or 0.0, which pick the action of
    # probability ~0 at the first step, so both backends must clamp it alike
    tpl = _template(AnsatzSpec(1, 1))
    omega = np.zeros(2)
    for b, u_bits in ((-np.pi / 2 + 1e-7, 2**64 - 1), (np.pi / 2 - 1e-7, 0)):
        nu = np.array([0.0, b])
        p0 = pol.probs_from_expectation(tpl.expval(nu, omega, np.zeros((1, 4))))[:, 0]
        right = np.array([u_bits > 0])  # u >= pi(0|s) pushes right
        assert abs(pol.log_policy_coeff(p0, right)[0]) == 1 / (2 * 1e-12)
        buffers = [[u_bits] * 4, [u_bits, 2**63, u_bits, 1]]
        oracle = _run_both(tpl, nu, omega, np.zeros((2, 4)), np.zeros(2), 4, True, 65, buffers=buffers)
        assert np.array_equal(oracle[0], [4, 4])


def test_cartpole_matches_step_batch_where_pow_is_not_a_product():
    # glibc's pow(x, 2.0), which float_power calls, is not always x * x. These
    # episodes start where it differs, with theta_dot of 10 to 20 (where
    # theta_dot ** 2 weighs against the force) and theta set so that the
    # first step stays in bounds, and the second step's observation and
    # gradients read the first step's result: a C step that let gcc fold the
    # pow would differ on some of them
    rng = np.random.default_rng(61)
    theta_dot = rng.choice([-1.0, 1.0], 4_000_000) * rng.uniform(10.0, 20.0, 4_000_000)
    theta_dot = theta_dot[np.float_power(theta_dot, 2) != theta_dot * theta_dot][:3000]
    n = len(theta_dot)
    starts = np.column_stack([
        rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n), -np.sign(theta_dot) * 0.2, theta_dot,
    ])
    tpl = _template(AnsatzSpec())
    nu, omega = rng.normal(0.0, 1.0, (2, tpl.spec.n_params_each))
    oracle = _run_both(tpl, nu, omega, starts, np.zeros(n), 2, True, 66)
    assert np.count_nonzero(oracle[0] == 2) > n // 2
    with mock.patch.object(np, "float_power", lambda x, _: x * x):
        folded = _play("oracle", tpl, nu, omega, starts, np.zeros(n), 2, True, 66)
    assert not all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(oracle[1], folded[1]))
