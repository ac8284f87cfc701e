"""Micro-benchmark of the kernels.

Times, for the compiled ``c`` backend (``_sv_c``) and the numpy backend,
the two kernel operations that dominate training and evaluation — forward
evaluation and forward-plus-adjoint-gradient of the default 4-qubit,
3-layer ansatz — and one whole lockstep step in forward and training mode:
the C kernel's one-call ``lockstep_step``, or ``trainer.policy_step`` on the
numpy kernel. All as microseconds per circuit or episode (one row of a
batched call), for one row at a time and for a block of 100, the size of
one validation batch.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from . import _sv_numpy, qsim
from .policy import AnsatzSpec, get_template
from .trainer import policy_step

BATCH_SIZES = (1, 100)


def _available_kernels() -> dict:
    kernels = {}
    try:
        kernels["c"] = qsim.load_kernel("c")
    except ImportError:
        pass
    kernels["numpy"] = qsim.load_kernel("numpy")
    return kernels


def _step_function(kernel, tpl, gates, nu, omega):
    """One lockstep step on ``kernel``, as a function of
    ``(states, noisy, noise, u[, glp, t, ids])``."""
    if kernel is not _sv_numpy:
        return partial(kernel.lockstep_step, *gates, tpl.param, tpl.feature, nu, omega)

    def composed(*args):
        active, qsim._kernel = qsim._kernel, kernel
        try:
            return policy_step(tpl, nu, omega, *args)
        finally:
            qsim._kernel = active
    return composed


def run_benchmark(repeats: int = 2000, spec: AnsatzSpec = AnsatzSpec(), seed: int = 7) -> list[dict]:
    """One row per (backend, batch size) with microseconds per row, each
    operation timed over ``repeats`` rows (at least one call)."""
    tpl = get_template(spec)
    rng = np.random.default_rng(seed)
    nu = rng.uniform(-np.pi, np.pi, spec.n_params_each)
    omega = rng.normal(0.0, 0.1, spec.n_params_each)
    batch_max = max(BATCH_SIZES)
    obs = rng.uniform(-1.0, 1.0, (batch_max, spec.n_qubits))
    states = rng.uniform(-0.05, 0.05, (batch_max, 4))
    uniforms = rng.random(batch_max)
    glp = (np.empty((1, batch_max, spec.n_params_each)), np.empty((1, batch_max, spec.n_params_each)))
    gates = (spec.n_qubits, tpl.kinds, tpl.qa, tpl.qb)

    rows = []
    for name, kernel in _available_kernels().items():
        step = _step_function(kernel, tpl, gates, nu, omega)
        for batch in BATCH_SIZES:
            angles = tpl.angles(nu, omega, obs[:batch])
            step_args = (states[:batch], np.zeros(batch, dtype=bool), np.empty((0, 4)), uniforms[:batch])
            ids = np.arange(batch)
            calls = max(1, repeats // batch)
            row = {"backend": name, "batch": batch}
            for key, fn in (
                ("forward_us", lambda: kernel.expval_z_rows(*gates, angles)),
                ("forward_grad_us", lambda: kernel.expval_z_and_grad_rows(*gates, angles)),
                ("step_us", lambda: step(*step_args)),
                ("train_step_us", lambda: step(*step_args, glp, 0, ids)),
            ):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                row[key] = (time.perf_counter() - t0) / (calls * batch) * 1e6
            rows.append(row)
    return rows


def print_benchmark(repeats: int = 2000) -> None:
    rows = run_benchmark(repeats=repeats)
    print(f"active backend: {qsim.BACKEND}")
    print(f"{'backend':>8} | {'batch':>5} | {'forward us/row':>14} | {'fwd+grad us/row':>15} | "
          f"{'step us/row':>11} | {'train step us/row':>17}")
    for row in rows:
        print(f"{row['backend']:>8} | {row['batch']:>5} | {row['forward_us']:>14.2f} | "
              f"{row['forward_grad_us']:>15.2f} | {row['step_us']:>11.2f} | {row['train_step_us']:>17.2f}")
    by_key = {(row["backend"], row["batch"]): row for row in rows}
    for batch in BATCH_SIZES:
        if ("c", batch) in by_key:
            c, numpy = by_key["c", batch], by_key["numpy", batch]
            print(f"compiled speedup at batch {batch}: forward x{numpy['forward_us'] / c['forward_us']:.1f}, "
                  f"forward+grad x{numpy['forward_grad_us'] / c['forward_grad_us']:.1f}, "
                  f"step x{numpy['step_us'] / c['step_us']:.1f}, "
                  f"training step x{numpy['train_step_us'] / c['train_step_us']:.1f}")


if __name__ == "__main__":
    print_benchmark()
