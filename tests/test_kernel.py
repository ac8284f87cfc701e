"""The compiled kernel's loader and its argument checks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpgrad
from qpgrad import _sv_numpy, qsim


def _circuit():
    """H(0), RY(0.4) on 1, CZ(1, 0), RZ(-1.3) on 0, as the kernels' gate arrays."""
    return (
        np.array([qsim.KIND_H, qsim.KIND_RY, qsim.KIND_CZ, qsim.KIND_RZ], dtype=np.int8),
        np.array([0, 1, 1, 0], dtype=np.int32),
        np.array([-1, -1, 0, -1], dtype=np.int32),
        np.array([0.0, 0.4, 0.0, -1.3]),
    )


class TestLoader:
    def test_no_compiler_falls_back_to_numpy(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PATH", "")
        assert qsim.load_kernel("auto", cache_dir=tmp_path) is _sv_numpy
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "numpy" in lines[0]

    def test_unwritable_cache_falls_back_to_numpy(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert qsim.load_kernel("auto", cache_dir=blocker / "cache") is _sv_numpy
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_requested_c_without_compiler_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", "")
        with pytest.raises(ImportError):
            qsim.load_kernel("c", cache_dir=tmp_path)

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ImportError):
            qsim.load_kernel("cython", cache_dir=tmp_path)

    def test_cached_library_is_reused(self, tmp_path, monkeypatch):
        qsim.load_kernel("c", cache_dir=tmp_path)
        monkeypatch.setenv("PATH", "")  # a rebuild would fail now
        kernel = qsim.load_kernel("c", cache_dir=tmp_path)
        kinds, qa, qb, angles = _circuit()
        assert np.array_equal(kernel.expval_z_rows(2, kinds, qa, qb, angles[None]),
                              _sv_numpy.expval_z_rows(2, kinds, qa, qb, angles[None]))
        assert len(list(tmp_path.iterdir())) == 1

    def test_concurrent_cold_builds_both_succeed(self, tmp_path):
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "from qpgrad import qsim\n"
            "kernel = qsim.load_kernel('c', cache_dir=Path(sys.argv[1]))\n"
            "print(kernel.expval_z(kernel.zero_state(3), 3))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(qpgrad.__file__).parents[1]))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, str(tmp_path)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "1.0"
        assert [p.suffix for p in tmp_path.iterdir()] == [".so"]


class TestArgumentChecks:
    """Bad arguments raise before any pointer reaches the C code."""

    @pytest.fixture
    def kernel(self):
        return qsim.load_kernel("c")

    def test_bad_amplitudes_rejected(self, kernel):
        kinds, qa, qb, angles = _circuit()
        read_only = kernel.zero_state(2)
        read_only.setflags(write=False)
        for amps in (
            kernel.zero_state(2).astype(np.complex64),
            kernel.zero_state(2).reshape(2, 2),
            np.zeros(8, dtype=np.complex128)[::2],
            read_only,
            kernel.zero_state(3),
            list(kernel.zero_state(2)),
        ):
            with pytest.raises(ValueError):
                kernel.apply_ops(amps, 2, kinds, qa, qb, angles)
        with pytest.raises(ValueError):
            kernel.expval_z(kernel.zero_state(2).astype(np.complex64), 2)
        with pytest.raises(ValueError):
            kernel.expval_z(kernel.zero_state(3), 2)

    def test_bad_gate_arrays_rejected(self, kernel):
        kinds, qa, qb, angles = _circuit()
        bad_gates = (  # rejected by both kernels
            (np.array([0, 1, 2, 7], dtype=np.int8), qa, qb, angles),  # unknown kind
            (kinds, np.array([0, 1, 0, 2], dtype=np.int32), qb, angles),  # qubit 2 of 2
            (kinds, qa, np.array([-1, -1, -1, -1], dtype=np.int32), angles),  # CZ without partner
            (kinds, qa, np.array([-1, -1, 3, -1], dtype=np.int32), angles),  # CZ partner 3 of 2
            (kinds, qa, np.array([-1, -1, 1, -1], dtype=np.int32), angles),  # CZ partner is its target
        )
        bad_buffers = (  # the C kernel's pointer arguments
            (kinds.astype(np.int32), qa, qb, angles),
            (kinds, qa.astype(np.int64), qb, angles),
            (kinds, qa, qb.reshape(2, 2), angles),
            (kinds, qa, qb, angles.astype(np.float32)),
            (kinds, qa, qb, angles[:-1]),
            (kinds, qa, qb, list(angles)),
        )
        bad_blocks = (angles, angles[None, None], np.tile(angles, (3, 1))[:, :-1])  # not (B, n_gates)

        def as_rows(a):
            return a[None] if isinstance(a, np.ndarray) else [a]

        for k, bad in ((kernel, bad_gates + bad_buffers), (_sv_numpy, bad_gates)):
            cases = [(args, as_rows(args[3]), True) for args in bad]
            cases += [((kinds, qa, qb, angles), block, False) for block in bad_blocks]
            for args, rows, bad_for_one_circuit in cases:
                amps = k.zero_state(2)
                calls = [
                    lambda: k.expval_z_rows(2, *args[:3], rows),
                    lambda: k.expval_z_and_grad_rows(2, *args[:3], rows),
                ]
                if bad_for_one_circuit:
                    calls.append(lambda: k.apply_ops(amps, 2, *args))
                for call in calls:
                    with pytest.raises(ValueError):
                        call()
                np.testing.assert_array_equal(amps, k.zero_state(2))

    def test_strided_and_read_only_inputs_are_read_correctly(self, kernel):
        kinds, qa, qb, angles = _circuit()
        block = np.stack([angles, -angles])
        strided = np.repeat(block, 2, axis=1)[:, ::2]
        read_only = block.copy()
        read_only.setflags(write=False)
        expected = _sv_numpy.expval_z_and_grad_rows(2, kinds, qa, qb, block)
        for a in (strided, read_only):
            e, g = kernel.expval_z_and_grad_rows(2, kinds, qa, qb, a)
            np.testing.assert_allclose(e, expected[0], atol=1e-13)
            np.testing.assert_allclose(g, expected[1], atol=1e-12)
