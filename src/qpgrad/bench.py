"""Micro-benchmark of the kernels.

Times, for the compiled ``c`` backend (``_sv_c``) and the numpy backend,
the two kernel operations that dominate training and evaluation — forward
evaluation and forward-plus-adjoint-gradient of the default 4-qubit,
3-layer ansatz, in microseconds per circuit (one row of a batched call) —
and whole batches of episodes in forward and training mode, played from
their stream paths by ``trainer.play_batch`` on each kernel, in
microseconds per episode-step: on ``c`` the start call
(each episode's stream and start state) and the one-call
``play_episodes``, on ``numpy`` ``substream``, ``cartpole.reset`` and
``trainer.play_episodes``. Each is timed for one row or episode at a time
and for a block of 100, the size of one validation batch. On ``c`` the
batches of 100 episodes are timed on one thread and on the kernel's
default thread count (``_sv_c.Kernel.threads``), so the gain of the threads
shows on its own; the row calls run on one thread, and their times are
given in both rows. The two counts are timed in ``ROUNDS`` alternating
rounds, since a shared machine's speed drifts between two single
measurements, and each round times ``ROUND_CALLS`` calls, so that any
single stall weighs on a sample no more than on a long run: each row gives
its count's median, and the gain is the median of the rounds' ratios. One
more line gives the fixed cost of one ``play_episodes`` call on ``c``, the
cost every call pays whatever its size: a batch of two one-step episodes,
on one thread and on the kernel's default count, the calling thread and
its helper team, in alternating rounds too.
"""

from __future__ import annotations

import time

import numpy as np

from . import qsim
from .cartpole import InitRanges
from .policy import AnsatzSpec, PolicyParams, get_template
from .seeding import STREAM_EPISODE, Streams
from .trainer import play_batch

BATCH_SIZES = (1, 100)
EPISODE_HORIZON = 20  # the longest horizon of the timed episodes
ROUNDS = 9  # alternating rounds of one thread and the default count
ROUND_CALLS = 10  # the fewest episode calls timed per round
CALL_EPISODES = 2  # the batch of the fixed-cost line, of one-step episodes
EPISODE_KEYS = (("episode_us", False), ("train_episode_us", True))  # each timed episode call: (key, training)


def _available_kernels() -> dict:
    kernels = {}
    try:
        kernels["c"] = qsim.load_kernel("c")
    except ImportError:
        pass
    kernels["numpy"] = qsim.load_kernel("numpy")
    return kernels


def _on_kernel(kernel, fn, *args):
    """``fn(*args)`` with ``kernel`` as the active kernel."""
    active, qsim._kernel = qsim._kernel, kernel
    try:
        return fn(*args)
    finally:
        qsim._kernel = active


def _rounds(kernel, counts, rounds: int, measure) -> dict:
    """``{threads: [measure() of each round]}`` for each thread count of ``counts``, over ``rounds``
    rounds that alternate the counts' order. ``kernel.threads`` is set only to time a count other than its
    own, and then restored, so the numpy module, whose one count is 1, is never touched."""
    default = getattr(kernel, "threads", 1)
    times = {n: [] for n in sorted(counts)}
    for r in range(rounds):
        for threads in sorted(times, reverse=r % 2 == 1):
            if threads != default:
                kernel.threads = threads
            try:
                times[threads].append(measure())
            finally:
                if threads != default:
                    kernel.threads = default
    return times


def run_benchmark(kernels: dict, repeats: int = 2000, spec: AnsatzSpec = AnsatzSpec(), seed: int = 7) -> list[dict]:
    """One row per (backend, batch size) of the ``_available_kernels`` ``kernels``: microseconds per row of the row
    calls, each timed over ``repeats`` rows (at least one call), and per
    episode-step of the episode calls, each timed over at most about
    ``repeats`` steps (at least one call) of noise-free episodes from the
    default initial ranges, with a horizon of up to ``EPISODE_HORIZON``."""
    tpl = get_template(spec)
    rng = np.random.default_rng(seed)
    params = PolicyParams(np.stack([rng.uniform(-np.pi, np.pi, spec.param_shape),
                                    rng.normal(0.0, 0.1, spec.param_shape)]))
    theta = params.theta.reshape(-1)
    obs = rng.uniform(-1.0, 1.0, (max(BATCH_SIZES), spec.n_qubits))
    gates = (spec.n_qubits, tpl.kinds, tpl.qa, tpl.qb)

    def episodes_us(kernel, batch, train, calls):
        """Microseconds per episode-step of at least ``calls`` batches of fresh episodes on ``kernel``."""
        horizon = min(EPISODE_HORIZON, max(1, repeats // batch))
        paths = [Streams(seed, (STREAM_EPISODE,), np.arange(c * batch, (c + 1) * batch)[:, None])
                 for c in range(max(calls, repeats // (batch * horizon)))]
        t0 = time.perf_counter()
        steps = 0
        for streams in paths:
            lengths, _ = _on_kernel(kernel, play_batch, spec, params, streams, [InitRanges()], horizon, None, train)
            steps += int(lengths.sum())
        return (time.perf_counter() - t0) / max(steps, 1) * 1e6

    rows = []
    for name, kernel in kernels.items():
        default = getattr(kernel, "threads", 1)
        for batch in BATCH_SIZES:
            angles = tpl.angles(theta, obs[:batch])
            calls = max(1, repeats // batch)
            row_us = {}
            for key, fn in (
                ("forward_us", lambda: kernel.expval_z_rows(*gates, angles)),
                ("forward_grad_us", lambda: kernel.expval_z_and_grad_rows(*gates, angles)),
            ):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                row_us[key] = (time.perf_counter() - t0) / (calls * batch) * 1e6
            counts = {1, default if batch > 1 else 1}
            rounds, calls = (ROUNDS, ROUND_CALLS) if len(counts) > 1 else (1, 1)
            times = _rounds(kernel, counts, rounds, lambda: {
                key: episodes_us(kernel, batch, train, calls) for key, train in EPISODE_KEYS})
            for threads, samples in times.items():
                row = {"backend": name, "batch": batch, "threads": threads, **row_us}
                row.update((key, float(np.median([us[key] for us in samples]))) for key, _ in EPISODE_KEYS)
                if threads > 1:  # the gain over one thread, per key: the median of the rounds' ratios
                    row["gain"] = {key: float(np.median([one[key] / us[key] for one, us in zip(times[1], samples)]))
                                   for key, _ in EPISODE_KEYS}
                rows.append(row)
    return rows


def call_us(kernel, calls: int) -> dict:
    """Microseconds of one ``play_episodes`` call of ``kernel`` on a batch of
    ``CALL_EPISODES`` one-step episodes of the default ansatz, by thread
    count, one and ``kernel.threads``: the median of ``ROUNDS`` alternating
    rounds of ``calls`` calls each."""
    spec = AnsatzSpec()
    tpl = get_template(spec)
    theta = np.repeat([0.3, 0.1], spec.n_params_each)
    streams = Streams(0, (STREAM_EPISODE,), np.arange(CALL_EPISODES)[:, None])
    states, starts = kernel.start_episodes(streams.head(), streams.suffixes,
                                           np.tile(InitRanges().bounds, (CALL_EPISODES, 1, 1)))
    args = (spec.n_qubits, tpl.kinds, tpl.qa, tpl.qb, tpl.param, tpl.feature, theta, starts,
            np.zeros(CALL_EPISODES), states, 1)

    def measure():
        t0 = time.perf_counter()
        for _ in range(calls):
            kernel.play_episodes(*args)
        return (time.perf_counter() - t0) / calls * 1e6

    return {n: float(np.median(us)) for n, us in _rounds(kernel, {1, kernel.threads}, ROUNDS, measure).items()}


def print_benchmark(repeats: int = 2000) -> None:
    kernels = _available_kernels()
    rows = run_benchmark(kernels, repeats)
    threads = getattr(qsim.episode_kernel(), "threads", 1)
    print(f"active backend: {qsim.BACKEND}, episode calls on {threads} thread(s)")
    print(f"{'backend':>8} | {'batch':>5} | {'threads':>7} | {'forward us/row':>14} | {'fwd+grad us/row':>15} | "
          f"{'episodes us/step':>16} | {'train episodes us/step':>22}")
    for row in rows:
        print(f"{row['backend']:>8} | {row['batch']:>5} | {row['threads']:>7} | {row['forward_us']:>14.2f} | "
              f"{row['forward_grad_us']:>15.2f} | {row['episode_us']:>16.2f} | {row['train_episode_us']:>22.2f}")
    by_key = {(row["backend"], row["batch"], row["threads"]): row for row in rows}
    for batch in BATCH_SIZES:
        if ("c", batch, 1) in by_key:
            c, numpy = by_key["c", batch, 1], by_key["numpy", batch, 1]
            print(f"compiled speedup at batch {batch}, one thread: "
                  f"forward x{numpy['forward_us'] / c['forward_us']:.1f}, "
                  f"forward+grad x{numpy['forward_grad_us'] / c['forward_grad_us']:.1f}, "
                  f"episodes x{numpy['episode_us'] / c['episode_us']:.1f}, "
                  f"training episodes x{numpy['train_episode_us'] / c['train_episode_us']:.1f}")
    for row in rows:
        if "gain" in row:
            print(f"{row['threads']} threads against one, {row['backend']} at batch {row['batch']}, median of "
                  f"{ROUNDS} alternating rounds of {ROUND_CALLS} or more calls: episodes "
                  f"x{row['gain']['episode_us']:.2f}, training episodes x{row['gain']['train_episode_us']:.2f}")
    if "c" in kernels:
        calls = max(ROUND_CALLS, repeats // 20)
        cost = call_us(kernels["c"], calls)
        print(f"fixed cost of one episode call, c, {CALL_EPISODES} one-step episodes, median of {ROUNDS} "
              f"alternating rounds of {calls} calls: " + ", ".join(f"{us:.1f} us on {n} thread(s)"
                                                                   for n, us in cost.items()))


if __name__ == "__main__":
    print_benchmark()
