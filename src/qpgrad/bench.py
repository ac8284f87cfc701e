"""Micro-benchmark of the statevector kernels.

Times the two operations that dominate training — forward evaluation and
forward-plus-adjoint-gradient of the default 4-qubit, 3-layer ansatz — for
the compiled ``c`` backend (``_sv_c``) and the numpy backend.
"""

from __future__ import annotations

import time

import numpy as np

from . import qsim
from .policy import AnsatzSpec, get_template


def _available_kernels() -> dict:
    kernels = {}
    try:
        kernels["c"] = qsim.load_kernel("c")
    except ImportError:
        pass
    kernels["numpy"] = qsim.load_kernel("numpy")
    return kernels


def run_benchmark(repeats: int = 2000, spec: AnsatzSpec = AnsatzSpec(), seed: int = 7) -> list[dict]:
    """Returns one row per (backend, operation) with microseconds per call."""
    tpl = get_template(spec)
    rng = np.random.default_rng(seed)
    nu = rng.uniform(-np.pi, np.pi, spec.n_params_each)
    omega = rng.normal(0.0, 0.1, spec.n_params_each)
    obs = rng.uniform(-1.0, 1.0, spec.n_qubits)
    angles = tpl.angles(nu, omega, obs)

    rows = []
    for name, kernel in _available_kernels().items():
        t0 = time.perf_counter()
        for _ in range(repeats):
            kernel.run_expval_z(spec.n_qubits, tpl.kinds, tpl.qa, tpl.qb, angles)
        forward = (time.perf_counter() - t0) / repeats * 1e6
        t0 = time.perf_counter()
        for _ in range(repeats):
            kernel.expval_z_and_grad(spec.n_qubits, tpl.kinds, tpl.qa, tpl.qb, angles)
        grad = (time.perf_counter() - t0) / repeats * 1e6
        rows.append({"backend": name, "forward_us": forward, "forward_grad_us": grad})
    return rows


def print_benchmark(repeats: int = 2000) -> None:
    rows = run_benchmark(repeats=repeats)
    print(f"active backend: {qsim.BACKEND}")
    print(f"{'backend':>8} | {'forward us':>11} | {'fwd+grad us':>11}")
    for row in rows:
        print(f"{row['backend']:>8} | {row['forward_us']:>11.2f} | {row['forward_grad_us']:>11.2f}")
    if len(rows) == 2:
        speed_f = rows[1]["forward_us"] / rows[0]["forward_us"]
        speed_g = rows[1]["forward_grad_us"] / rows[0]["forward_grad_us"]
        print(f"compiled speedup: forward x{speed_f:.1f}, forward+grad x{speed_g:.1f}")


if __name__ == "__main__":
    print_benchmark()
