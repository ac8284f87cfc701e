"""The compiled episode calls against their numpy composition.

``start_episodes`` must give each episode of a batch the Philox state that
``seeding.substream`` builds for its stream path, and the start that
``cartpole.reset`` then draws from it, compared as int64 views. Its
``init_params`` must draw a run's initial parameters as ``policy.init_params``
draws them from ``substream(seed, STREAM_INIT)``.

``trainer.play_episodes`` plays a batch of episodes step by step, composing
each step from the numpy functions; the C kernel's ``play_episodes`` must
give the same bits, compared as int64 views so that -0.0 against 0.0 counts
as a difference. The composition runs on the C row kernel, as the numpy
backend's loop would with that kernel plugged in.

The contract covers the lengths, every gradient entry (the blocks start at
zero, so entries past an episode's end must stay unwritten) and the final
state of each episode's stream: the block the C call writes back must hold
the ``bit_generator.state`` that the numpy loop leaves in each episode's
generator.
"""

from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpgrad import policy as pol
from qpgrad import qsim
from qpgrad._sv_c import STREAM_WORDS
from qpgrad.cartpole import InitRanges, reset
from qpgrad.policy import ENCODINGS, ENTANGLERS, AnsatzSpec, CircuitTemplate
from qpgrad.seeding import STREAM_INIT, Streams, substream
from qpgrad.trainer import play_episodes, start_params

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


def _stream_block(rngs) -> np.ndarray:
    """The (B, STREAM_WORDS) stream block holding each generator's
    ``bit_generator.state``: counter, key, buffer and buffer position."""
    rows = []
    for g in rngs:
        state = g.bit_generator.state
        assert state["has_uint32"] == state["uinteger"] == 0  # no 32-bit draws, in either loop
        rows.append([*state["state"]["counter"].tolist(), *state["state"]["key"].tolist(),
                     *state["buffer"].tolist(), state["buffer_pos"]])
    return np.array(rows, dtype=np.uint64).reshape(len(rngs), STREAM_WORDS)


def _play(which, tpl, nu, omega, starts, sigmas, horizon, train, seed, buffers=None):
    """``(lengths, glp, streams)`` of one backend: the gradient blocks (None
    unless ``train``) and the final stream block, which the numpy loop
    leaves in the generators' states and the C call writes back."""
    n = len(starts)
    rngs = _generators(seed, n, buffers)
    shape = (horizon, n, len(nu))
    glp = (np.zeros(shape), np.zeros(shape)) if train else None
    if which == "oracle":
        with mock.patch.object(qsim, "_kernel", c_kernel()):
            lengths = play_episodes(tpl, nu, omega, starts, sigmas, rngs, horizon, glp)
        return lengths, glp, _stream_block(rngs)
    streams = _stream_block(rngs)
    lengths = c_kernel().play_episodes(tpl.spec.n_qubits, tpl.kinds, tpl.qa, tpl.qb, tpl.param, tpl.feature,
                                       nu, omega, starts, sigmas, streams, horizon, glp)
    return lengths, glp, streams


def _assert_same(oracle, compiled):
    assert oracle[0].dtype == compiled[0].dtype == np.int64
    assert np.array_equal(oracle[0], compiled[0])
    if oracle[1] is not None:
        for a, b in zip(oracle[1], compiled[1]):
            assert np.array_equal(_bits(a), _bits(b))
    assert np.array_equal(oracle[2].view(np.int64), compiled[2].view(np.int64))


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


# Word-boundary values of SeedSequence's 32-bit split, and random ones; the
# seed and the path prefix, unlike the trailing components, may exceed 64 bits.
_EDGES = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**65]), st.integers(0, 2**64 - 1),
                   st.integers(0, 2**100))
_PREFIX = st.one_of(_EDGES, st.integers(0, 2**64 - 1), st.integers(0, 2**80))
_SUFFIX = st.one_of(_EDGES, st.integers(0, 2**64 - 1), st.integers(0, 100))
# (low, high) within every feature's admissible range, often with low == high
_RANGE = st.tuples(st.floats(-0.2, 0.2), st.one_of(st.just(0.0), st.floats(0.0, 0.01))).map(
    lambda r: (r[0], r[0] + r[1]))


@st.composite
def _batches(draw):
    """(seed, prefix, suffixes, ranges): paths of 1-4 components, of which
    the first are the batch's prefix, for 1-5 episodes with ranges each."""
    n_path = draw(st.integers(1, 4))
    n_prefix = draw(st.integers(0, n_path))
    n = draw(st.integers(1, 5))
    prefix = tuple(draw(_PREFIX) for _ in range(n_prefix))
    suffixes = [[draw(_SUFFIX) for _ in range(n_path - n_prefix)] for _ in range(n)]
    ranges = [InitRanges(*(draw(_RANGE) for _ in range(4))) for _ in range(n)]
    return draw(_SEEDS), prefix, np.array(suffixes, dtype=np.uint64).reshape(n, -1), ranges


def _assert_start_matches(seed, prefix, suffixes, ranges):
    streams = Streams(seed, prefix, suffixes)
    bounds = np.array([r.bounds for r in ranges])
    block, starts = c_kernel().start_episodes(streams.head(), streams.suffixes, bounds)
    rngs = streams.generators()
    expected = np.array([reset(b, g) for b, g in zip(bounds, rngs)])
    assert np.array_equal(block.view(np.int64), _stream_block(rngs).view(np.int64))
    assert np.array_equal(starts.view(np.int64), expected.view(np.int64))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_batches())
def test_start_matches_substream_and_reset(batch):
    _assert_start_matches(*batch)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**65])
def test_start_matches_substream_and_reset_at_word_boundaries(seed):
    point = InitRanges(x=(0.1, 0.1), x_dot=(-0.0, -0.0), theta=(0.21, 0.21), theta_dot=(-3.0, -3.0))
    path = (3, 2**64 - 1, 2**32, 0)
    for n in range(1, 5):  # paths of 1-4 components, the last one trailing
        suffixes = np.array([[path[n - 1]], [2**32 - 1]], dtype=np.uint64)
        _assert_start_matches(seed, path[: n - 1], suffixes, [point, InitRanges()])


_SPECS = st.builds(AnsatzSpec, n_qubits=st.integers(1, 4), n_layers=st.integers(1, 5),
                   entangler=st.sampled_from(ENTANGLERS), encoding=st.sampled_from(ENCODINGS))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1)), _SPECS)
def test_initial_draw_matches_init_params(seed, spec):
    with mock.patch.object(qsim, "_kernel", c_kernel()):
        drawn = start_params(spec, seed)
    expected = pol.init_params(spec, substream(seed, STREAM_INIT))
    for got, want in ((drawn.nu, expected.nu), (drawn.omega, expected.omega)):
        assert got.shape == want.shape == spec.param_shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
