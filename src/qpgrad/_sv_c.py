"""ctypes front end of the compiled kernel ``_sv_c.c``.

``build`` compiles the C file into a cache directory, linked with the
installed numpy's ``libnpyrandom.a``, and ``Kernel`` wraps the library:
``expval_z_rows`` and ``expval_z_and_grad_rows`` with the contract of
``_sv_numpy``; ``start_episodes``, which derives the Philox stream of each
episode of a batch and draws its start, as ``seeding.substream`` and
``cartpole.reset`` would; ``init_params``, which draws a run's initial
parameters in C from its init stream, derived the same way, as
``policy.init_params`` would, so that no ``c`` campaign imports
``numpy.random``; and ``play_episodes``, the one-call form of
``trainer.play_episodes``, which plays the batch and draws its noise and
action uniforms from those streams with numpy's own C distributions. It
plays the batch on ``Kernel.threads`` threads, by default one per core this
process may run on, and no result depends on the count: the calling thread
and helpers of the library's one team per process. The helpers outlive the
call; after a batch each spins for 2 ms, yielding its core to any thread
that wants it, then parks until the next call. They block every signal, and
``Kernel.stop_team`` stops and joins them, which ``evalharness.map_jobs``
does before it forks a pool. The C code takes raw pointers, so each
argument is checked first: dtype, 1-D gate arrays of equal length, a 2-D
angle block with one column per gate, and for the episode calls every
shape, and a stream block and gradient blocks of the batch (and the
horizon), which must be C-contiguous and writable.
Inputs reach the C code as C-contiguous copies, and the C code itself
rejects unknown gate kinds, qubits outside the register, a CZ on one qubit
and a rotation whose parameter or feature index is out of range. A failed
check raises ``ValueError`` and computes nothing.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np

from . import _sv_numpy, cartpole

try:  # CPython's own SHA-256; hashlib would load OpenSSL, which nothing else here needs
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

SOURCE = Path(__file__).with_name("_sv_c.c")
# numpy's C distributions, which the episode loop draws with.
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
# -ffp-contract=off keeps multiply-adds unfused, so results are the same on
# every target; the kernel's 2-wide vectors need only the SSE2 of every
# x86-64, and -ffast-math or -march=native could change the last bits. The
# flags are part of the library's cache name. -pthread: play_episodes
# starts helper threads.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC", "-pthread")


def build(cache_dir: Path) -> Path:
    """Compile ``_sv_c.c`` into ``cache_dir`` unless it is there already.

    The library's name carries a hash of the source, the flags and the bytes
    of ``NPYRANDOM``, which it links. It is written under a temporary name
    and then renamed, so concurrent builds into one cache cannot see each
    other's partial files. Raises ``OSError`` when there is no compiler, no
    ``NPYRANDOM``, the cache cannot be written or the compiler fails. Only
    a cache miss imports ``subprocess`` and ``tempfile``.
    """
    digest = sha256(SOURCE.read_bytes() + " ".join(CFLAGS).encode() + NPYRANDOM.read_bytes()).hexdigest()
    lib = cache_dir / f"_sv_c-{digest[:16]}.so"
    if lib.exists():
        return lib
    import subprocess
    import tempfile

    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.stem, suffix=".tmp", dir=cache_dir)
    os.close(fd)
    try:
        subprocess.run(["cc", *CFLAGS, "-I", np.get_include(), "-o", tmp, str(SOURCE),
                        "-L", str(NPYRANDOM.parent), "-lnpyrandom", "-lm"], check=True, capture_output=True)
        os.replace(tmp, lib)
    except subprocess.CalledProcessError as exc:
        raise OSError(str(exc)) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


_F64 = np.dtype(np.float64)
_I8 = np.dtype(np.int8)
_I32 = np.dtype(np.int32)
_U32 = np.dtype(np.uint32)
_U64 = np.dtype(np.uint64)

# An episode's Philox state as a row of uint64: counter (4), key (2),
# buffer (4) and buffer position, the C code's struct philox.
STREAM_WORDS = 11

# cartpole.py's constants in the field order of the C code's struct cartpole.
_CARTPOLE = np.array([
    cartpole.GRAVITY, cartpole.POLE_MASS, cartpole.TOTAL_MASS, cartpole.HALF_POLE_LENGTH,
    cartpole.POLE_MASS_LENGTH, cartpole.FORCE_MAG, cartpole.TIME_STEP, cartpole.X_LIMIT,
    cartpole.THETA_LIMIT, *cartpole.NORM_FACTORS,
]).tobytes()

# A zero-length ctypes array made over a numpy buffer passes the buffer's
# address at a fraction of the cost of ``ndarray.ctypes``, which would
# dominate a call on 16 amplitudes.
_Memory = ctypes.c_char * 0


def _input(arr, dtype: np.dtype, name: str, ndim: int = 1) -> bytes:
    """A C-contiguous copy of an ``ndim``-D input array; a bytes object passes
    as a pointer more cheaply than any view of the array itself."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.ndim == ndim):
        raise ValueError(f"{name} must be a {ndim}-D {dtype} array")
    return arr.tobytes()


# The C code sizes its scratch states from n_qubits; 2**32 amplitudes
# already take 64 GiB.
MAX_QUBITS = 32


def _gates(n_qubits, kinds, qa, qb):
    """The register size and the gate arrays as the C functions take them."""
    if not 0 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must lie in [0, {MAX_QUBITS}], got {n_qubits}")
    data = (_input(kinds, _I8, "kinds"), _input(qa, _I32, "qa"), _input(qb, _I32, "qb"))
    if not len(kinds) == len(qa) == len(qb):
        raise ValueError("kinds, qa and qb must have equal lengths")
    return (n_qubits, *data)


def _check_status(status: int, n_qubits: int) -> None:
    if status == -2:
        raise MemoryError("no memory for the scratch statevectors")
    if status >= 0:
        raise ValueError(
            f"gate {status}: unknown kind, qubit outside {n_qubits} qubits, CZ on one qubit, "
            "or a rotation's parameter or feature index out of range"
        )


def _shaped(arr, dtype: np.dtype, name: str, shape: tuple) -> bytes:
    """``_input`` of an array that must have exactly ``shape``."""
    data = _input(arr, dtype, name, ndim=len(shape))
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return data


def _output(arr, dtype: np.dtype, name: str, shape: tuple):
    """A pointer to ``arr``, which the C code writes, after checking that it
    is a writable C-contiguous ``dtype`` array of ``shape``."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.shape == shape and arr.flags.c_contiguous
            and arr.flags.writeable):
        raise ValueError(f"{name} must be a writable C-contiguous {dtype} array of shape {shape}")
    return _Memory.from_buffer(arr)


def _gradient_blocks(glp, shape: tuple):
    """Pointers to the gradient blocks ``glp``, after checking that both have
    ``shape``, (horizon, episodes, n_params)."""
    if glp is None:
        return None, None
    if not (isinstance(glp, tuple) and len(glp) == 2):
        raise ValueError(f"glp must be a pair of writable C-contiguous float64 arrays of shape {shape}")
    return tuple(_output(b, _F64, "glp", shape) for b in glp)


class Kernel:
    """The compiled kernel loaded from the library at ``path``."""

    def __init__(self, path: Path):
        self.path = path
        # the thread count of each play_episodes call, one per core this process may run on (the cores of the
        # machine where the affinity mask cannot be read, as on macOS); no result depends on it
        self.threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        lib = ctypes.CDLL(str(path))
        ptr, n, size = ctypes.c_void_p, ctypes.c_int, ctypes.c_ssize_t
        self._rows = lib.expval_z_and_grad_rows
        self._rows.argtypes = [n, ptr, ptr, ptr, ptr, size, size, ptr, ptr]
        self._rows.restype = size
        self._play = lib.play_episodes
        self._play.argtypes = [n, ptr, ptr, ptr, ptr, ptr, size, ptr, ptr, size, size, ptr, ptr, ptr, size,
                               ptr, ptr, ptr, ptr, n]
        self._play.restype = size
        self._start = lib.start_episodes
        self._start.argtypes = [ptr, size, ptr, size, size, ptr, ptr, ptr]
        self._start.restype = None
        self._init = lib.init_params
        self._init.argtypes = [ptr, size, size, ctypes.c_double, ctypes.c_double, ctypes.c_double, ptr, ptr]
        self._init.restype = None
        self._stop = lib.stop_team
        self._stop.argtypes = []
        self._stop.restype = None

    def stop_team(self) -> None:
        """Stops and joins the helper threads of ``play_episodes``, which
        outlive each call; the next call starts them again. A forked child
        would have none of them, so call this before a fork."""
        self._stop()

    def expval_z_rows(self, n_qubits, kinds, qa, qb, angles) -> np.ndarray:
        """<Z^n> of |0...0> evolved through the packed gate list, for each row
        of the (B, n_gates) ``angles``, in one call."""
        return self._row_call(n_qubits, kinds, qa, qb, angles, with_grads=False)[0]

    def expval_z_and_grad_rows(self, n_qubits, kinds, qa, qb, angles):
        """Forward expectation of Z^n plus its adjoint (reverse-sweep) gradient,
        for each row of the (B, n_gates) ``angles``, in one call.

        Returns ``(expvals, grads)``: shape (B,), and (B, rotations) with one
        gradient entry per rotation gate, in gate order.
        """
        return self._row_call(n_qubits, kinds, qa, qb, angles, with_grads=True)

    def _row_call(self, n_qubits, kinds, qa, qb, angles, with_grads: bool):
        """``(expvals, grads)`` of the C row entry; grads is None unless ``with_grads``."""
        gates = _gates(n_qubits, kinds, qa, qb)
        data = _input(angles, _F64, "angles", ndim=2)
        if angles.shape[1] != len(kinds):
            raise ValueError(f"angles must have one column per gate ({len(kinds)}), got {angles.shape[1]}")
        expvals = np.empty(len(angles))
        grads = grad_data = None
        if with_grads:
            kind_bytes = gates[1]  # the C code counts rotations by the same rule
            n_rot = kind_bytes.count(_sv_numpy.KIND_RY) + kind_bytes.count(_sv_numpy.KIND_RZ)
            grads = np.empty((len(angles), n_rot))
            grad_data = _Memory.from_buffer(grads)
        status = self._rows(*gates, data, len(kinds), len(angles), grad_data, _Memory.from_buffer(expvals))
        _check_status(status, n_qubits)
        return expvals, grads

    def start_episodes(self, head, suffixes, bounds):
        """The streams and starts of a batch of B episodes, in one call.

        Episode i's stream is the Philox state of ``substream(seed, *path)``,
        whose path ends in the components ``suffixes[i]`` ((B, m) uint64)
        and whose other entropy words are ``head`` (uint32,
        ``seeding.Streams.head``). Its start is then ``cartpole.reset`` from
        that stream within ``bounds[i]`` ((B, 4, 2) float64). Returns the
        (B, ``STREAM_WORDS``) uint64 stream block, the streams' state after
        those draws, and the (B, 4) starts.
        """
        head_data = _input(head, _U32, "head")
        suffix_data = _input(suffixes, _U64, "suffixes", ndim=2)
        n = len(suffixes)
        bound_data = _shaped(bounds, _F64, "bounds", (n, 4, 2))
        streams = np.empty((n, STREAM_WORDS), dtype=np.uint64)
        starts = np.empty((n, 4))
        self._start(head_data, len(head), suffix_data, suffixes.shape[1], n, bound_data,
                    _Memory.from_buffer(streams), _Memory.from_buffer(starts))
        return streams, starts

    def init_params(self, head, n_params: int, nu_range: tuple, omega_std: float):
        """``policy.init_params`` on the stream whose entropy words are
        ``head`` (uint32, ``seeding.Streams.head``), in one call: ``n_params``
        draws of nu from ``Generator.uniform(*nu_range)``, then ``n_params``
        of omega from ``Generator.normal(0, omega_std)``. Returns the flat
        ``(nu, omega)``.
        """
        head_data = _input(head, _U32, "head")
        nu, omega = np.empty(n_params), np.empty(n_params)
        self._init(head_data, len(head), n_params, *nu_range, omega_std, _Memory.from_buffer(nu),
                   _Memory.from_buffer(omega))
        return nu, omega

    def play_episodes(self, n_qubits, kinds, qa, qb, param, feature, nu, omega, starts, sigmas, streams, horizon,
                      glp=None) -> np.ndarray:
        """``trainer.play_episodes`` in one call, bit for bit.

        The template arrives as its gate arrays plus ``param`` and
        ``feature`` (int32, one entry per gate): rotation g takes the angle
        ``nu[param[g]]`` when ``feature[g]`` is -1, else
        ``omega[param[g]] * obs[feature[g]]``. ``starts`` is (B, 4),
        ``sigmas`` (B,) and ``streams`` the (B, ``STREAM_WORDS``) block of
        ``start_episodes``: episode i draws from row i, where the C code
        leaves the state its draws end in. The episodes are played on
        ``self.threads`` threads (at most one per episode, and 64), the
        caller's and helpers that outlive the call, which changes no result.
        Returns the (B,) episode lengths.
        """
        gates = _gates(n_qubits, kinds, qa, qb)
        n_gates = len(kinds)
        sources = (_shaped(param, _I32, "param", (n_gates,)), _shaped(feature, _I32, "feature", (n_gates,)))
        params = (_input(nu, _F64, "nu"), _shaped(omega, _F64, "omega", nu.shape))
        n_params = len(nu)
        n = len(starts)
        start_data = _shaped(starts, _F64, "starts", (n, 4))
        sigma_data = _shaped(sigmas, _F64, "sigmas", (n,))
        if not (isinstance(horizon, (int, np.integer)) and horizon >= 1):
            raise ValueError(f"horizon must be an int >= 1, got {horizon!r}")
        stream_data = _output(streams, _U64, "streams", (n, STREAM_WORDS))
        glp_nu, glp_omega = _gradient_blocks(glp, (horizon, n, n_params))
        lengths = np.empty(n, dtype=np.int64)
        status = self._play(*gates, *sources, n_gates, *params, n_params, n, start_data, sigma_data,
                            stream_data, horizon, glp_nu, glp_omega, _CARTPOLE, _Memory.from_buffer(lengths),
                            self.threads)
        _check_status(status, n_qubits)
        return lengths
