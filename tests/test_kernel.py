"""The compiled kernel's loader and its argument checks."""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qpgrad
from qpgrad import _sv_c, _sv_numpy, qsim
from qpgrad.cartpole import InitRanges
from qpgrad.evalharness import map_jobs
from qpgrad.policy import AnsatzSpec, PolicyParams, get_template
from qpgrad.seeding import Streams
from qpgrad.trainer import play_batch


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

    def test_missing_npyrandom_falls_back_to_numpy(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(_sv_c, "NPYRANDOM", tmp_path / "lib" / "libnpyrandom.a")
        assert qsim.load_kernel("auto", cache_dir=tmp_path / "cache") is _sv_numpy
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "numpy" in lines[0]
        with pytest.raises(ImportError):
            qsim.load_kernel("c", cache_dir=tmp_path / "cache")

    def test_cache_name_covers_npyrandom(self, tmp_path, monkeypatch):
        def compile_nothing(cmd, **_):  # stands in for cc: an empty library
            Path(cmd[cmd.index("-o") + 1]).write_bytes(b"")

        monkeypatch.setattr(subprocess, "run", compile_nothing)
        archive = tmp_path / "libnpyrandom.a"
        monkeypatch.setattr(_sv_c, "NPYRANDOM", archive)
        names = []
        for content in (b"one", b"two", b"one"):
            archive.write_bytes(content)
            names.append(_sv_c.build(tmp_path / "cache").name)
        assert names[0] != names[1] and names[0] == names[2]

    @pytest.mark.skipif(qsim.BACKEND != "c", reason="names the library of the c backend")
    def test_library_name_is_the_hashlib_sha256_digest(self):
        inputs = _sv_c.SOURCE.read_bytes() + " ".join(_sv_c.CFLAGS).encode() + _sv_c.NPYRANDOM.read_bytes()
        name = f"_sv_c-{hashlib.sha256(inputs).hexdigest()[:16]}.so"
        assert _sv_c.build(qsim._CACHE_DIR).name == qsim.KERNEL == name

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
            "import numpy as np\n"
            "kernel = qsim.load_kernel('c', cache_dir=Path(sys.argv[1]))\n"
            "empty = np.zeros(0, dtype=np.int32)\n"
            "print(kernel.expval_z_rows(3, empty.astype(np.int8), empty, empty, np.zeros((1, 0)))[0])\n"
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


@pytest.mark.skipif(qsim.BACKEND != "c", reason="the numpy backend draws with numpy.random")
def test_campaigns_leave_openssl_numpy_random_and_the_pool_unloaded(tmp_path):
    """A fresh process runs tiny train, curriculum and eval-robustness
    campaigns without importing OpenSSL's hash module, numpy.random or
    concurrent.futures."""
    models = tmp_path / "train"
    campaigns = [
        ["train", "--seed", "1", "--seeds", "1", "--set", "train.epochs=1", "--set", "train.batch_size=2",
         "--out", str(models)],
        ["curriculum", "--seed", "4", "--seeds", "1", "--set", "curriculum.max_failures=3",
         "--out", str(tmp_path / "curriculum")],
        ["eval-robustness", "--seed", "5", "--set", f"eval.checkpoints={models}", "--set", "eval.episodes=1",
         "--set", "eval.sigmas=0.0,0.5", "--out", str(tmp_path / "robustness")],
    ]
    code = (
        "import json, sys\n"
        "from qpgrad.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in ('_hashlib', 'numpy.random', 'concurrent.futures') "
        "if m in sys.modules)]))\n"
    )
    src = str(Path(qpgrad.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(campaigns)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0, 0], []]


def _pinned_circuits(rng):
    """Gate lists of 1-6 qubits that start with an H layer, a CZ run, both,
    or a rotation, or that hold no rotation, each with a (6, n_gates) angle
    block drawn from +-0, +-pi, +-1e-300, +-1e3 and uniform(-7, 7)."""
    special = np.array([0.0, -0.0, np.pi, -np.pi, 1e-300, -1e-300, 1e3, -1e3])
    for n_qubits in range(1, 7):
        layer = [(qsim.KIND_H, q, -1) for q in range(n_qubits)]
        run = [(qsim.KIND_CZ, q + 1, q) for q in range(n_qubits - 1)]
        run += [(qsim.KIND_CZ, n_qubits - 1, 0)] if n_qubits > 2 else []  # the ring closed
        body = []
        for _ in range(24):
            kind = int(rng.integers(0, 4 if n_qubits > 1 else 3))  # a CZ needs two qubits
            q = int(rng.integers(0, n_qubits))
            partner = (q + 1 + int(rng.integers(0, n_qubits - 1))) % n_qubits if kind == qsim.KIND_CZ else -1
            body.append((kind, q, partner))
        rotation = [(qsim.KIND_RY if n_qubits % 2 else qsim.KIND_RZ, n_qubits - 1, -1)]
        for gates in (layer + body, run + body, layer + run + body, rotation + body, layer + run + layer + run):
            kinds, qa, qb = (np.array(col, dtype=dt) for col, dt in zip(zip(*gates), (np.int8, np.int32, np.int32)))
            angles = rng.uniform(-7, 7, (6, len(gates)))
            picked = rng.random(angles.shape) < 0.5
            angles[picked] = rng.choice(special, picked.sum())
            yield n_qubits, kinds, qa, qb, angles


@pytest.mark.skipif(qsim.BACKEND != "c", reason="pins the bits of the c backend")
def test_row_kernel_bits_are_pinned():
    """The SHA-256 of every output bit of both row calls over a fixed set of
    circuits. A change to the kernel that moves any bit must update the
    digest and say why in CHANGES.md."""
    kernel = qsim._kernel
    digest = hashlib.sha256()
    n_rows = 0
    for n_qubits, kinds, qa, qb, angles in _pinned_circuits(np.random.default_rng(1717)):
        e, g = kernel.expval_z_and_grad_rows(n_qubits, kinds, qa, qb, angles)
        for out in (kernel.expval_z_rows(n_qubits, kinds, qa, qb, angles), e, g):
            digest.update(out.view(np.int64).tobytes())
        n_rows += len(angles)
    assert n_rows == 180
    assert digest.hexdigest() == "2ac7bd5b31cfd0fe0cf60ef0aa347e8eccd960dad9fa84530e8e805b37263075"


class TestArgumentChecks:
    """Bad arguments raise before any pointer reaches the C code."""

    @pytest.fixture
    def kernel(self):
        return qsim.load_kernel("c")

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
            cases = [(args, as_rows(args[3])) for args in bad]
            cases += [((kinds, qa, qb, angles), block) for block in bad_blocks]
            for args, rows in cases:
                for call in (k.expval_z_rows, k.expval_z_and_grad_rows):
                    with pytest.raises(ValueError):
                        call(2, *args[:3], rows)
        for args in bad_gates:  # the numpy oracle's one-state call leaves the amplitudes as they were
            amps = _sv_numpy.zero_state(2)
            with pytest.raises(ValueError):
                _sv_numpy.apply_ops(amps, 2, *args)
            np.testing.assert_array_equal(amps, _sv_numpy.zero_state(2))

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

    def test_bad_episode_arguments_rejected(self, kernel, monkeypatch):
        tpl = get_template(AnsatzSpec(n_qubits=2, n_layers=1))
        n_params = tpl.spec.n_params_each
        rng = np.random.default_rng(0)
        glp = (np.zeros((3, 4, n_params)), np.zeros((3, 4, n_params)))
        good = dict(
            n_qubits=2, kinds=tpl.kinds, qa=tpl.qa, qb=tpl.qb, param=tpl.param, feature=tpl.feature,
            nu=rng.normal(size=n_params), omega=rng.normal(size=n_params), starts=rng.normal(0, 0.1, (4, 4)),
            sigmas=np.array([0.1, 0.0, 0.3, 0.0]), streams=np.zeros((4, _sv_c.STREAM_WORDS), dtype=np.uint64),
            horizon=3, glp=glp,
        )
        kernel.play_episodes(**good)
        bad = dict(
            param=[tpl.param.astype(np.int64), tpl.param[:-1]],
            feature=[tpl.feature.astype(np.int8), tpl.feature[None]],
            nu=[good["nu"].astype(np.float32), good["nu"][:-1], list(good["nu"])],
            omega=[good["omega"][:-1], good["omega"][None]],
            starts=[good["starts"].astype(np.float32), good["starts"][:, :3], good["starts"].ravel(), [[0.0] * 4] * 4],
            sigmas=[good["sigmas"][:3], good["sigmas"].astype(np.float32), list(good["sigmas"])],
            streams=[
                good["streams"][:3],
                good["streams"][:, :-1].copy(),
                good["streams"].astype(np.int64),
                np.zeros((4, 2 * _sv_c.STREAM_WORDS), dtype=np.uint64)[:, ::2],
                list(good["streams"]),
                [np.random.default_rng(i) for i in range(4)],
            ],
            horizon=[0, -1, 3.0, None],
            glp=[
                glp[0],
                (glp[0], glp[1][:, :3]),
                (glp[0], glp[1][:2]),
                (glp[0], glp[1].astype(np.float32)),
                (glp[0][:, :, :-1].copy(), glp[1][:, :, :-1].copy()),
                (glp[0], np.asfortranarray(glp[1])),
                (glp[0], np.zeros((3, 8, n_params))[:, ::2]),
                (glp[0], glp[1], glp[1]),
            ],
        )
        read_only = glp[1].copy()
        read_only.setflags(write=False)
        bad["glp"].append((glp[0], read_only))
        read_only = good["streams"].copy()
        read_only.setflags(write=False)
        bad["streams"].append(read_only)
        calls = mock.Mock(side_effect=AssertionError("a bad argument reached the C code"))
        monkeypatch.setattr(kernel, "_play", calls)
        for name, values in bad.items():
            for value in values:
                with pytest.raises(ValueError):
                    kernel.play_episodes(**{**good, name: value})
        calls.assert_not_called()

    def test_bad_start_arguments_rejected(self, kernel, monkeypatch):
        good = dict(head=Streams(3, (1,), np.zeros((2, 1), dtype=np.int64)).head(),
                    suffixes=np.arange(2, dtype=np.uint64)[:, None], bounds=np.zeros((2, 4, 2)))
        kernel.start_episodes(**good)
        bad = dict(
            head=[good["head"].astype(np.uint64), good["head"][None], list(good["head"])],
            suffixes=[good["suffixes"].astype(np.int64), good["suffixes"].ravel(), [[0], [1]]],
            bounds=[good["bounds"][:1], good["bounds"][:, :, :1], good["bounds"].astype(np.float32)],
        )
        calls = mock.Mock(side_effect=AssertionError("a bad argument reached the C code"))
        monkeypatch.setattr(kernel, "_start", calls)
        for name, values in bad.items():
            for value in values:
                with pytest.raises(ValueError):
                    kernel.start_episodes(**{**good, name: value})
        calls.assert_not_called()

    def test_bad_episode_template_rejected_before_anything_is_written(self, kernel):
        tpl = get_template(AnsatzSpec(n_qubits=2, n_layers=1))
        n_params = tpl.spec.n_params_each
        glp = (np.zeros((1, 2, n_params)), np.zeros((1, 2, n_params)))
        rotation = int(np.flatnonzero(tpl.feature >= 0)[0])
        bad = []
        for field, value in (("param", -1), ("param", n_params), ("feature", 4), ("feature", -2)):
            arrays = {"param": tpl.param.copy(), "feature": tpl.feature.copy()}
            arrays[field][rotation] = value
            bad.append((tpl.kinds, tpl.qa, tpl.qb, arrays["param"], arrays["feature"]))
        kinds = tpl.kinds.copy()
        kinds[0] = 7
        bad.append((kinds, tpl.qa, tpl.qb, tpl.param, tpl.feature))
        head = Streams(7, (1,), np.zeros((2, 1), dtype=np.int64)).head()
        for gates in bad:
            streams, starts = kernel.start_episodes(head, np.arange(2, dtype=np.uint64)[:, None],
                                                    np.zeros((2, 4, 2)))
            drawn = streams.copy()
            with pytest.raises(ValueError):
                kernel.play_episodes(2, *gates, np.ones(n_params), np.ones(n_params), starts,
                                     np.full(2, 0.5), streams, 1, glp)
            assert not glp[0].any() and not glp[1].any()
            assert np.array_equal(streams, drawn)


class TestThreads:
    """A batch's results do not depend on how many threads play it."""

    def test_results_do_not_depend_on_the_thread_count(self, monkeypatch):
        kernel = qsim.load_kernel("c")
        tpl = get_template(AnsatzSpec())
        n_params = tpl.spec.n_params_each
        rng = np.random.default_rng(14)
        nu, omega = rng.uniform(-np.pi, np.pi, n_params), rng.normal(0.0, 1.0, n_params)
        n, horizon = 7, 40
        head = Streams(14, (1,), np.zeros((n, 1), dtype=np.int64)).head()
        streams, starts = kernel.start_episodes(head, np.arange(n, dtype=np.uint64)[:, None],
                                                np.tile([-0.05, 0.05], (n, 4, 1)))
        starts[3, 2] = 1.0  # out of bounds: the episode plays no step
        for sigmas in (np.zeros(n), np.array([0.0, 0.1, 0.3, 0.2, 0.0, 0.8, 0.05])):
            for grads in (False, True):
                runs = []
                # 8 is more than the episodes; the team it grows then plays at smaller counts
                for threads in (2, 8, 1, 3, 2):
                    monkeypatch.setattr(kernel, "threads", threads)
                    # the blocks start at zero, so entries past an episode's end must stay unwritten
                    glp = (np.zeros((horizon, n, n_params)), np.zeros((horizon, n, n_params))) if grads else None
                    drawn = streams.copy()
                    lengths = kernel.play_episodes(4, tpl.kinds, tpl.qa, tpl.qb, tpl.param, tpl.feature, nu, omega,
                                                   starts, sigmas, drawn, horizon, glp)
                    runs.append([lengths, drawn] + ([] if glp is None else [b.view(np.int64) for b in glp]))
                first = runs[0]
                assert first[0][3] == 0 and first[0].max() > 1
                for other in runs[1:]:
                    for got, expected in zip(other, first, strict=True):
                        assert np.array_equal(got, expected)

    def test_default_count_is_the_usable_cores(self, monkeypatch):
        path = qsim.load_kernel("c").path
        if hasattr(os, "sched_getaffinity"):
            assert _sv_c.Kernel(path).threads == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS, which has no affinity mask
        assert _sv_c.Kernel(path).threads == (os.cpu_count() or 1)



def _threads() -> set:
    return set(os.listdir("/proc/self/task"))


def _play_batch(seed=3, grads=False):
    """The lengths of a batch of nine episodes on the active kernel."""
    spec = AnsatzSpec(n_layers=1)
    params = PolicyParams(np.full(spec.param_shape, 0.3), np.full(spec.param_shape, 0.7))
    lengths, _ = play_batch(spec, params, Streams(seed, (1,), np.arange(9)[:, None]), [InitRanges()], 30,
                            grads=grads)
    assert lengths.min() > 0
    return lengths


def _fork(child) -> int:
    """Forks a child that exits with the status ``child()`` returns, 2 if it raises; returns its pid."""
    pid = os.fork()
    if pid == 0:
        status = 2
        try:
            status = child()
        finally:
            os._exit(status)
    return pid


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
class TestTeam:
    """The helper threads of play_episodes outlive the call: the team grows to the count a call asks for and no
    further, parks when idle, blocks every signal, and is joined before every fork of the process."""

    @pytest.fixture
    def kernel(self, monkeypatch):
        kernel = qsim.load_kernel("c")
        os.waitpid(_fork(lambda: 0), 0)  # the fork joins the team, so each test starts with none
        monkeypatch.setattr(kernel, "threads", 4)
        monkeypatch.setattr(qsim, "_kernel", kernel)
        return kernel

    def test_repeated_calls_keep_one_team(self, kernel):
        before = _threads()
        added = []
        for grads in (False, True) * 3:
            _play_batch(grads=grads)
            added.append(len(_threads() - before))
        assert 1 <= added[0] <= 3 and added == added[:1] * len(added)

    def test_idle_helpers_park(self, kernel):
        _play_batch()
        time.sleep(0.02)  # ten spin windows
        t0 = time.process_time()
        time.sleep(0.05)
        assert time.process_time() - t0 < 0.005  # a spinning helper would add about 0.05 s

    def test_helpers_block_every_signal(self, kernel):
        before = _threads()
        _play_batch()
        helpers = _threads() - before
        assert helpers
        blockable = set(signal.valid_signals()) - {signal.SIGKILL, signal.SIGSTOP}
        for tid in helpers:
            status = Path(f"/proc/self/task/{tid}/status").read_text()
            mask = int(re.search(r"^SigBlk:\s*([0-9a-f]+)$", status, re.M).group(1), 16)
            assert [s for s in blockable if not mask >> (s - 1) & 1] == []

    def test_a_forked_child_grows_its_own_team(self, kernel):
        before = _threads()
        expected = _play_batch()
        assert _threads() > before
        pid = _fork(lambda: 0 if np.array_equal(_play_batch(), expected) else 1)
        deadline = time.monotonic() + 20
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:  # a child waiting on helpers it lacks fails the test instead of hanging it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
        assert _threads() == before  # the fork joined the parent's helpers

    def test_pool_workers_play_after_the_parent(self, kernel):
        expected = [_play_batch(seed) for seed in (0, 1)]
        got = map_jobs(_play_batch, [0, 1], workers=2)
        for a, b in zip(got, expected, strict=True):
            assert np.array_equal(a, b)
