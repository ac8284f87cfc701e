"""The compiled one-call lockstep step against its numpy composition.

``trainer.policy_step`` composes a step from the numpy functions; the C
kernel's ``lockstep_step`` must give the same bits, compared as int64 views
so that -0.0 against 0.0 counts as a difference. The composition runs on the
C row kernel, as the numpy backend's step would with that kernel plugged in.
"""

from functools import cache
from unittest import mock

import numpy as np
import pytest

from qpgrad import qsim
from qpgrad.cartpole import step_batch
from qpgrad.policy import AnsatzSpec, CircuitTemplate, get_template
from qpgrad.trainer import policy_step

SPECIAL = np.array([0.0, -0.0, np.pi, -np.pi, 1e-300, 1e3, -1e3])


@cache
def c_kernel():
    return qsim.load_kernel("c")


def _template(spec: AnsatzSpec) -> CircuitTemplate:
    """The policy circuit of ``spec``. CartPole has 4 features, so on 5 or 6
    qubits the encoding of qubit i reads feature i % 4 here: the template is
    never used that way, but the kernel's wider registers get covered."""
    tpl = CircuitTemplate(spec)
    if spec.n_qubits > 4:
        tpl._enc_feature %= 4
        tpl._omega_feature %= 4
        tpl.feature[tpl.feature >= 0] %= 4
    return tpl


def _sprinkle(rng, values: np.ndarray, share: float) -> np.ndarray:
    """``values`` with about ``share`` of its entries replaced by special values."""
    picked = rng.random(values.shape) < share
    values[picked] = rng.choice(SPECIAL, int(picked.sum()))
    return values


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64) if a.dtype == np.float64 else a


def _run_both(tpl, nu, omega, states, noisy, noise, u, train, rng):
    """``(oracle, compiled)`` results, each ``(p0, new_states, out, glp)``."""
    n_rows, n_params = len(states), len(nu)
    horizon, episodes = 3, n_rows + 5
    t = int(rng.integers(horizon))
    ids = np.sort(rng.choice(episodes, n_rows, replace=False)).astype(np.int64)
    results = []
    for step in ("oracle", "compiled"):
        glp = (np.zeros((horizon, episodes, n_params)), np.zeros((horizon, episodes, n_params))) if train else None
        if step == "oracle":
            with mock.patch.object(qsim, "_kernel", c_kernel()):
                out = policy_step(tpl, nu, omega, states, noisy, noise, u, glp, t, ids)
        else:
            out = c_kernel().lockstep_step(tpl.spec.n_qubits, tpl.kinds, tpl.qa, tpl.qb, tpl.param, tpl.feature,
                                           nu, omega, states, noisy, noise, u, glp, t, ids)
        results.append((*out, glp))
    return results


@pytest.mark.parametrize("train", [False, True], ids=["forward", "training"])
def test_step_matches_numpy_composition_bit_for_bit(train):
    rng = np.random.default_rng(60 + train)
    rows = 0
    for n_qubits in range(1, 7):
        for entangler in ("between", "every"):
            for encoding in ("rz_ry", "rz_rz"):
                spec = AnsatzSpec(n_qubits, 1 + n_qubits % 3, entangler, encoding)
                tpl = _template(spec)
                for n_rows in (1, 2, 17, 400, 3800):
                    nu = _sprinkle(rng, rng.uniform(-np.pi, np.pi, spec.n_params_each), 0.1)
                    omega = _sprinkle(rng, rng.normal(0.0, 1.0, spec.n_params_each), 0.1)
                    states = _sprinkle(rng, rng.normal(0.0, 0.3, (n_rows, 4)), 0.05)
                    noisy = rng.random(n_rows) < 0.4
                    noise = _sprinkle(rng, rng.normal(0.0, 0.5, (int(noisy.sum()), 4)), 0.05)
                    u = rng.random(n_rows)
                    u[rng.random(n_rows) < 0.05] = 0.0
                    oracle, compiled = _run_both(tpl, nu, omega, states, noisy, noise, u, train, rng)
                    for a, b in zip(oracle[:3], compiled[:3]):
                        assert a.dtype == b.dtype and np.array_equal(_bits(a), _bits(b))
                    if train:
                        for a, b in zip(oracle[3], compiled[3]):
                            assert np.array_equal(_bits(a), _bits(b))
                    rows += n_rows
    assert rows >= 100_000


def test_step_clamps_improbable_actions_as_numpy_does():
    # H then RY(-pi/2) leaves one qubit in |0>: pi(0|s) is 1 to the last bit
    # or two, and u = 1.0 forces the action of probability ~0 anyway
    tpl = _template(AnsatzSpec(1, 1))
    nu, omega = np.array([0.0, -np.pi / 2]), np.zeros(2)
    states, u = np.zeros((4, 4)), np.array([1.0, -1.0, 0.5, 1.0])
    noisy = np.array([False, False, False, True])
    oracle, compiled = _run_both(tpl, nu, omega, states, noisy, np.zeros((1, 4)), u, True, np.random.default_rng(62))
    assert np.all(1.0 - oracle[0] < 1e-12)
    for a, b in zip([*oracle[:3], *oracle[3]], [*compiled[:3], *compiled[3]]):
        assert np.array_equal(_bits(a), _bits(b))


def test_cartpole_matches_step_batch_where_pow_is_not_a_product():
    # glibc's pow(x, 2.0), which float_power calls, is not always x * x; a
    # C step that let gcc fold the pow would differ on some of these rows
    # (where theta_dot ** 2 weighs against the force: |theta_dot| of 10 or more)
    rng = np.random.default_rng(61)
    theta_dot = rng.choice([-1.0, 1.0], 2_000_000) * 10.0 ** rng.uniform(-3.0, 3.0, 2_000_000)
    theta_dot = theta_dot[np.float_power(theta_dot, 2) != theta_dot * theta_dot]
    n_rows = len(theta_dot)
    states = np.column_stack([
        rng.uniform(-2.4, 2.4, n_rows), rng.uniform(-2.0, 2.0, n_rows), rng.uniform(-0.21, 0.21, n_rows), theta_dot,
    ])
    actions = rng.random(n_rows) < 0.5
    u = np.where(actions, 1.0, -1.0)  # never below p0 pushes right; always below pushes left
    tpl = get_template(AnsatzSpec())
    params = rng.normal(0.0, 1.0, (2, tpl.spec.n_params_each))
    _, new_states, out = c_kernel().lockstep_step(
        4, tpl.kinds, tpl.qa, tpl.qb, tpl.param, tpl.feature, *params, states,
        np.zeros(n_rows, dtype=bool), np.empty((0, 4)), u,
    )
    expected, expected_out = step_batch(states, actions)
    assert np.array_equal(new_states.view(np.int64), expected.view(np.int64))
    assert np.array_equal(out, expected_out)
    with mock.patch.object(np, "float_power", lambda x, _: x * x):
        folded, _ = step_batch(states, actions)
    assert not np.array_equal(folded, expected)  # the rows do tell pow from x * x
