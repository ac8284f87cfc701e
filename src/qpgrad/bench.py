"""Micro-benchmark of the statevector kernels.

Times the two operations that dominate training and evaluation — forward
evaluation and forward-plus-adjoint-gradient of the default 4-qubit, 3-layer
ansatz — for the compiled ``c`` backend (``_sv_c``) and the numpy backend,
as microseconds per circuit (one row of a batched call) for one circuit at a
time and for a block of 100, the size of one validation batch.
"""

from __future__ import annotations

import time

import numpy as np

from . import qsim
from .policy import AnsatzSpec, get_template

BATCH_SIZES = (1, 100)


def _available_kernels() -> dict:
    kernels = {}
    try:
        kernels["c"] = qsim.load_kernel("c")
    except ImportError:
        pass
    kernels["numpy"] = qsim.load_kernel("numpy")
    return kernels


def run_benchmark(repeats: int = 2000, spec: AnsatzSpec = AnsatzSpec(), seed: int = 7) -> list[dict]:
    """One row per (backend, batch size) with microseconds per circuit, each
    operation timed over ``repeats`` circuits (at least one call)."""
    tpl = get_template(spec)
    rng = np.random.default_rng(seed)
    nu = rng.uniform(-np.pi, np.pi, spec.n_params_each)
    omega = rng.normal(0.0, 0.1, spec.n_params_each)
    obs = rng.uniform(-1.0, 1.0, (max(BATCH_SIZES), spec.n_qubits))

    rows = []
    for name, kernel in _available_kernels().items():
        for batch in BATCH_SIZES:
            angles = tpl.angles(nu, omega, obs[:batch])
            calls = max(1, repeats // batch)
            row = {"backend": name, "batch": batch}
            for key, fn in (("forward_us", kernel.expval_z_rows), ("forward_grad_us", kernel.expval_z_and_grad_rows)):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn(spec.n_qubits, tpl.kinds, tpl.qa, tpl.qb, angles)
                row[key] = (time.perf_counter() - t0) / (calls * batch) * 1e6
            rows.append(row)
    return rows


def print_benchmark(repeats: int = 2000) -> None:
    rows = run_benchmark(repeats=repeats)
    print(f"active backend: {qsim.BACKEND}")
    print(f"{'backend':>8} | {'batch':>5} | {'forward us/row':>14} | {'fwd+grad us/row':>15}")
    for row in rows:
        print(f"{row['backend']:>8} | {row['batch']:>5} | {row['forward_us']:>14.2f} | {row['forward_grad_us']:>15.2f}")
    by_key = {(row["backend"], row["batch"]): row for row in rows}
    for batch in BATCH_SIZES:
        if ("c", batch) in by_key:
            c, numpy = by_key["c", batch], by_key["numpy", batch]
            print(f"compiled speedup at batch {batch}: forward x{numpy['forward_us'] / c['forward_us']:.1f}, "
                  f"forward+grad x{numpy['forward_grad_us'] / c['forward_grad_us']:.1f}")


if __name__ == "__main__":
    print_benchmark()
