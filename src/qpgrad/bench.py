"""Micro-benchmark of the kernels.

Times, for the compiled ``c`` backend (``_sv_c``) and the numpy backend,
the two kernel operations that dominate training and evaluation — forward
evaluation and forward-plus-adjoint-gradient of the default 4-qubit,
3-layer ansatz, in microseconds per circuit (one row of a batched call) —
and whole batches of episodes in forward and training mode: the C kernel's
one-call ``play_episodes``, or ``trainer.play_episodes`` on the numpy
kernel, in microseconds per episode-step. Each is timed for one row or
episode at a time and for a block of 100, the size of one validation batch.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from . import _sv_numpy, qsim
from .cartpole import InitRanges, reset
from .policy import AnsatzSpec, get_template
from .trainer import play_episodes

BATCH_SIZES = (1, 100)
EPISODE_HORIZON = 20  # the longest horizon of the timed episodes


def _available_kernels() -> dict:
    kernels = {}
    try:
        kernels["c"] = qsim.load_kernel("c")
    except ImportError:
        pass
    kernels["numpy"] = qsim.load_kernel("numpy")
    return kernels


def _episode_function(kernel, tpl, gates, nu, omega):
    """A batch of episodes on ``kernel``, as a function of
    ``(starts, sigmas, rngs, horizon[, glp])``."""
    if kernel is not _sv_numpy:
        return partial(kernel.play_episodes, *gates, tpl.param, tpl.feature, nu, omega)

    def composed(*args):
        active, qsim._kernel = qsim._kernel, kernel
        try:
            return play_episodes(tpl, nu, omega, *args)
        finally:
            qsim._kernel = active
    return composed


def run_benchmark(repeats: int = 2000, spec: AnsatzSpec = AnsatzSpec(), seed: int = 7) -> list[dict]:
    """One row per (backend, batch size): microseconds per row of the row
    calls, each timed over ``repeats`` rows (at least one call), and per
    episode-step of the episode calls, each timed over at most about
    ``repeats`` steps (at least one call) of noise-free episodes from the
    default initial ranges, with a horizon of up to ``EPISODE_HORIZON``."""
    tpl = get_template(spec)
    rng = np.random.default_rng(seed)
    nu = rng.uniform(-np.pi, np.pi, spec.n_params_each)
    omega = rng.normal(0.0, 0.1, spec.n_params_each)
    batch_max = max(BATCH_SIZES)
    obs = rng.uniform(-1.0, 1.0, (batch_max, spec.n_qubits))
    starts = np.array([reset(InitRanges(), rng) for _ in range(batch_max)])
    gates = (spec.n_qubits, tpl.kinds, tpl.qa, tpl.qb)

    def episodes_us(play, batch, train):
        """Microseconds per episode-step of ``play``, on fresh generators."""
        horizon = min(EPISODE_HORIZON, max(1, repeats // batch))
        glp = tuple(np.empty((horizon, batch, spec.n_params_each)) for _ in range(2)) if train else None
        rngs = [[np.random.Generator(np.random.Philox(seed + 1 + i)) for i in range(batch)]
                for _ in range(max(1, repeats // (batch * horizon)))]
        t0 = time.perf_counter()
        steps = sum(int(play(starts[:batch], np.zeros(batch), r, horizon, glp).sum()) for r in rngs)
        return (time.perf_counter() - t0) / max(steps, 1) * 1e6

    rows = []
    for name, kernel in _available_kernels().items():
        play = _episode_function(kernel, tpl, gates, nu, omega)
        for batch in BATCH_SIZES:
            angles = tpl.angles(nu, omega, obs[:batch])
            calls = max(1, repeats // batch)
            row = {"backend": name, "batch": batch}
            for key, fn in (
                ("forward_us", lambda: kernel.expval_z_rows(*gates, angles)),
                ("forward_grad_us", lambda: kernel.expval_z_and_grad_rows(*gates, angles)),
            ):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                row[key] = (time.perf_counter() - t0) / (calls * batch) * 1e6
            row["episode_us"] = episodes_us(play, batch, train=False)
            row["train_episode_us"] = episodes_us(play, batch, train=True)
            rows.append(row)
    return rows


def print_benchmark(repeats: int = 2000) -> None:
    rows = run_benchmark(repeats=repeats)
    print(f"active backend: {qsim.BACKEND}")
    print(f"{'backend':>8} | {'batch':>5} | {'forward us/row':>14} | {'fwd+grad us/row':>15} | "
          f"{'episodes us/step':>16} | {'train episodes us/step':>22}")
    for row in rows:
        print(f"{row['backend']:>8} | {row['batch']:>5} | {row['forward_us']:>14.2f} | "
              f"{row['forward_grad_us']:>15.2f} | {row['episode_us']:>16.2f} | {row['train_episode_us']:>22.2f}")
    by_key = {(row["backend"], row["batch"]): row for row in rows}
    for batch in BATCH_SIZES:
        if ("c", batch) in by_key:
            c, numpy = by_key["c", batch], by_key["numpy", batch]
            print(f"compiled speedup at batch {batch}: forward x{numpy['forward_us'] / c['forward_us']:.1f}, "
                  f"forward+grad x{numpy['forward_grad_us'] / c['forward_grad_us']:.1f}, "
                  f"episodes x{numpy['episode_us'] / c['episode_us']:.1f}, "
                  f"training episodes x{numpy['train_episode_us'] / c['train_episode_us']:.1f}")


if __name__ == "__main__":
    print_benchmark()
