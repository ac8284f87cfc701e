"""End-to-end CLI runs: outputs, exit codes, manifests, and reproducibility."""

import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from qpgrad import bench, cli, qsim
from qpgrad.checkpoint import load_checkpoint, save_checkpoint
from qpgrad.cli import main
from qpgrad.config import COMMANDS
from qpgrad.errors import ConfigurationError
from qpgrad.policy import AnsatzSpec, PolicyParams


def read_csv(path):
    """The rows of a CSV the campaigns write, as dicts of strings keyed by its header."""
    text = Path(path).read_text().splitlines()
    header = text[0].split(",")
    return [dict(zip(header, line.split(","))) for line in text[1:]]


def run_cli(*args):
    return main(list(args))


def tiny_train_args(out, seeds=2, extra=()):
    return (
        "train",
        "--seed",
        "99",
        "--seeds",
        str(seeds),
        "--out",
        str(out),
        "--set",
        "train.epochs=2",
        *extra,
    )


def tiny_campaign_args(command, models):
    """The arguments, but --out, of a run of ``command`` that takes seconds: two seeds, or for the eval commands
    the checkpoints under ``models``."""
    checkpoints = f"eval.checkpoints={models}"
    return {
        "train": ("train", "--seed", "99", "--seeds", "2", "--set", "train.epochs=2"),
        "curriculum": ("curriculum", "--seed", "42", "--seeds", "2", "--set", "curriculum.max_failures=15",
                       "--set", "curriculum.validation_episodes=5", "--set", "curriculum.ranges=0.25,0.75"),
        "eval-robustness": ("eval-robustness", "--seed", "5", "--set", checkpoints,
                            "--set", "eval.sigmas=0.0,0.4", "--set", "eval.episodes=3"),
        "eval-generalization": ("eval-generalization", "--seed", "6", "--set", checkpoints,
                                "--set", "grid.angle_edges=-2,0,2", "--set", "grid.velocity_edges=0.0,0.1",
                                "--set", "grid.cell_episodes=3"),
    }[command]


def assert_same_outputs(outs, label):
    """Both directories of ``outs`` hold the same files, manifests aside, byte for byte."""
    written = [sorted(p.name for p in out.iterdir() if p.name != "manifest.txt") for out in outs]
    assert written[0] == written[1] and written[0], label
    for name in written[0]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (label, name)


class TestCheckpointRoundTrip:
    def test_save_load_identity(self, tmp_path):
        spec = AnsatzSpec()
        rng = np.random.default_rng(0)
        params = PolicyParams(np.stack([
            rng.uniform(-np.pi, np.pi, spec.param_shape), rng.normal(0, 0.3, spec.param_shape)
        ]))
        path = tmp_path / "checkpoint_1.json"
        save_checkpoint(path, spec, params, lam=0.2, seed=123)
        ck = load_checkpoint(path)
        assert ck.ansatz == spec
        assert ck.lam == 0.2
        assert ck.seed == 123
        np.testing.assert_array_equal(ck.params.nu, params.nu)
        np.testing.assert_array_equal(ck.params.omega, params.omega)

    def test_shape_mismatch_rejected(self, tmp_path):
        spec = AnsatzSpec(n_layers=2)
        path = tmp_path / "checkpoint_2.json"
        save_checkpoint(path, spec, PolicyParams(np.zeros((2, 2, 4, 2))), 0.0, 7)
        text = path.read_text().replace('"n_layers": 2', '"n_layers": 3')
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_checkpoint(tmp_path / "nope.json")

    def test_non_utf8_file_rejected_naming_it(self, tmp_path):
        path = tmp_path / "checkpoint_4.json"
        path.write_bytes(b'{"format": "\xff"}')
        with pytest.raises(ConfigurationError, match=r"checkpoint_4\.json is not UTF-8"):
            load_checkpoint(path)

    def test_more_qubits_than_cartpole_features_rejected(self, tmp_path):
        spec = AnsatzSpec(n_qubits=5)
        path = tmp_path / "checkpoint_5.json"
        save_checkpoint(path, spec, PolicyParams(np.zeros(spec.theta_shape)), 0.1, 5)
        with pytest.raises(ConfigurationError, match=r"checkpoint_5\.json: field 'n_qubits' must be <= 4.*got 5"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field", ["n_qubits", "n_layers", "entangler", "encoding", "generator_norm", "nu", "omega", "lambda", "seed"]
    )
    def test_missing_or_mistyped_field_named(self, tmp_path, field):
        spec = AnsatzSpec()
        path = tmp_path / "checkpoint_3.json"
        save_checkpoint(path, spec, PolicyParams(np.zeros(spec.theta_shape)), 0.1, 5)
        doc = json.loads(path.read_text())
        not_finite = (float("nan"), float("inf"), float("-inf"), 10**400)  # 10**400 overflows a float
        out_of_range = {
            "n_qubits": (0, -1),
            "n_layers": (0,),
            "entangler": ("foo",),
            "encoding": ("bar",),
            "generator_norm": (0.25, 1),
            "seed": (-1,),
            "lambda": (-0.1, *not_finite),
            **{name: tuple([*doc[name][:-1], v] for v in not_finite) for name in ("nu", "omega")},
        }.get(field, ())
        for bad in (None, True, *out_of_range):  # None deletes the field
            broken = dict(doc)
            if bad is None:
                del broken[field]
            else:
                broken[field] = bad
            path.write_text(json.dumps(broken))
            with pytest.raises(ConfigurationError, match=f"checkpoint_3.json: .*'{field}'"):
                load_checkpoint(path)


class TestTrainCommand:
    def test_outputs_and_row_counts(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*tiny_train_args(out)) == 0
        checkpoints = sorted(out.glob("checkpoint_*.json"))
        assert len(checkpoints) == 2
        rows = read_csv(out / "telemetry.csv")
        assert len(rows) == 4  # 2 seeds x 2 epochs
        assert set(rows[0]) == {"seed", "epoch", "mean_reward", "reg_objective", "lipschitz_total"}
        manifest = (out / "manifest.txt").read_text().splitlines()
        for line in (f"manifest.backend = {qsim.BACKEND}", f"manifest.numpy = {np.__version__}",
                     f"manifest.python = {platform.python_version()}", f"manifest.kernel = {qsim.KERNEL}",
                     f"manifest.threads = {1 if qsim.BACKEND == 'numpy' else qsim._kernel.threads}",
                     f"manifest.cpus = {os.cpu_count()}"):
            assert line in manifest
        assert qsim.KERNEL == ("numpy" if qsim.BACKEND == "numpy" else qsim._kernel.path.name)

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*tiny_train_args(out1)) == 0
        assert (
            run_cli("train", "--config", str(out1 / "manifest.txt"), "--out", str(out2)) == 0
        )
        assert (out1 / "telemetry.csv").read_bytes() == (out2 / "telemetry.csv").read_bytes()
        ck1 = sorted(p.name for p in out1.glob("checkpoint_*.json"))
        ck2 = sorted(p.name for p in out2.glob("checkpoint_*.json"))
        assert ck1 == ck2
        for name in ck1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_rerun_warns_once_per_changed_provenance_field(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert run_cli(*tiny_train_args(out, seeds=1)) == 0
        manifest = out / "manifest.txt"
        capsys.readouterr()
        assert run_cli("train", "--config", str(manifest), "--out", str(tmp_path / "same")) == 0
        assert "warning" not in capsys.readouterr().err
        changed = tmp_path / "changed.txt"
        changed.write_text(manifest.read_text().replace(f"manifest.numpy = {np.__version__}", "manifest.numpy = 1.0"))
        assert run_cli("train", "--config", str(changed), "--out", str(tmp_path / "b")) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and "manifest.numpy = 1.0" in warnings[0] and np.__version__ in warnings[0]
        assert (out / "telemetry.csv").read_bytes() == (tmp_path / "b" / "telemetry.csv").read_bytes()

    def test_workers_do_not_change_outputs(self, tmp_path):
        # each campaign has two seeds or two checkpoints, so two workers split it
        models = tmp_path / "models"
        assert run_cli(*tiny_train_args(models)) == 0
        for command in COMMANDS:
            outs = [tmp_path / command / f"workers{w}" for w in (1, 2)]
            for workers, out in zip((1, 2), outs):
                assert run_cli(*tiny_campaign_args(command, models), "--out", str(out), "--workers", str(workers)) == 0
            assert_same_outputs(outs, command)


@pytest.mark.parametrize("command", ["curriculum", "eval-robustness", "eval-generalization"])
def test_manifest_rerun_of_every_other_command_is_byte_identical(tmp_path, command):
    # train's own re-run test is TestTrainCommand.test_manifest_rerun_is_byte_identical; the eval commands read two
    # tiny training runs
    models = tmp_path / "models"
    assert run_cli(*tiny_train_args(models)) == 0
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli(*tiny_campaign_args(command, models), "--out", str(first)) == 0
    assert run_cli(command, "--config", str(first / "manifest.txt"), "--out", str(again)) == 0
    assert_same_outputs((first, again), command)


class TestEvalCommands:
    def test_missing_checkpoints_is_runtime_error(self, tmp_path):
        code = run_cli(
            "eval-robustness",
            "--out",
            str(tmp_path / "out"),
            "--set",
            f"eval.checkpoints={tmp_path / 'missing'}",
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["eval-robustness", "eval-generalization"])
    def test_directory_without_checkpoints_is_runtime_error(self, tmp_path, capsys, command):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli(command, "--out", str(tmp_path / "out"), "--set", f"eval.checkpoints={empty}") == 2
        assert f"no checkpoint_*.json files under {empty}" in capsys.readouterr().err

    def test_robustness_csv_schema_and_recompute(self, tmp_path):
        train_out = tmp_path / "train"
        assert run_cli(*tiny_train_args(train_out, seeds=1)) == 0
        eval_out = tmp_path / "eval"
        code = run_cli(
            "eval-robustness",
            "--seed",
            "5",
            "--out",
            str(eval_out),
            "--set",
            f"eval.checkpoints={train_out}",
            "--set",
            "eval.sigmas=0.0,0.4",
            "--set",
            "eval.episodes=3",
        )
        assert code == 0
        rows = read_csv(eval_out / "robustness.csv")
        assert len(rows) == 2 * 3
        assert set(rows[0]) == {"seed", "sigma", "episode", "reward"}
        # aggregates recomputable from per-episode rows
        per_sigma = {}
        for r in rows:
            per_sigma.setdefault(float(r["sigma"]), []).append(float(r["reward"]))
        assert all(len(v) == 3 for v in per_sigma.values())

    def test_generalization_csv_schema(self, tmp_path):
        train_out = tmp_path / "train"
        assert run_cli(*tiny_train_args(train_out, seeds=1)) == 0
        eval_out = tmp_path / "eval"
        code = run_cli(
            "eval-generalization",
            "--out",
            str(eval_out),
            "--set",
            f"eval.checkpoints={train_out}",
            "--set",
            "grid.angle_edges=-0.5,0.5",
            "--set",
            "grid.velocity_edges=0.0,0.02",
            "--set",
            "grid.cell_episodes=2",
        )
        assert code == 0
        rows = read_csv(eval_out / "generalization.csv")
        assert len(rows) == 1
        assert set(rows[0]) == {
            "seed",
            "angle_bin_low",
            "angle_bin_high",
            "vel_bin_low",
            "vel_bin_high",
            "attraction_rate",
        }

    def test_model_rows_do_not_depend_on_other_checkpoints(self, tmp_path):
        # eval streams are keyed by the checkpoint's seed, not its place in the directory
        train_out = tmp_path / "train"
        assert run_cli(*tiny_train_args(train_out, seeds=2)) == 0
        campaigns = (
            ("eval-robustness", "robustness.csv", ("eval.sigmas=0.0,0.5", "eval.episodes=4")),
            ("eval-generalization", "generalization.csv",
             ("grid.angle_edges=-2,0,2", "grid.velocity_edges=0.0,0.1", "grid.cell_episodes=3")),
        )
        for command, csv, settings in campaigns:

            def rows(checkpoint_dir, out):
                sets = [arg for kv in settings for arg in ("--set", kv)]
                code = run_cli(command, "--seed", "5", "--out", str(out), "--set",
                               f"eval.checkpoints={checkpoint_dir}", *sets)
                assert code == 0
                return read_csv(out / csv)

            both = rows(train_out, tmp_path / command / "both")
            for checkpoint in sorted(train_out.glob("checkpoint_*.json")):
                alone_dir = tmp_path / command / checkpoint.stem
                alone_dir.mkdir(parents=True)
                shutil.copy(checkpoint, alone_dir)
                alone = rows(alone_dir, alone_dir / "out")
                seed = checkpoint.stem.removeprefix("checkpoint_")
                assert alone and {r["seed"] for r in alone} == {seed}
                assert alone == [r for r in both if r["seed"] == seed]

    def test_ansatz_mismatch_is_runtime_error(self, tmp_path):
        train_out = tmp_path / "train"
        assert run_cli(*tiny_train_args(train_out, seeds=1)) == 0
        code = run_cli(
            "eval-robustness",
            "--out",
            str(tmp_path / "eval"),
            "--set",
            f"eval.checkpoints={train_out}",
            "--set",
            "ansatz.n_layers=2",
        )
        assert code == 2


class TestCurriculumCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "curr"
        code = run_cli(
            "curriculum",
            "--seed",
            "42",
            "--seeds",
            "1",
            "--out",
            str(out),
            "--set",
            "curriculum.max_failures=15",
            "--set",
            "curriculum.validation_episodes=5",
            "--set",
            "curriculum.ranges=0.25,0.75",
        )
        assert code == 0
        rows = read_csv(out / "curriculum.csv")
        assert len(rows) == 2  # one row per range
        assert set(rows[0]) == {
            "seed",
            "range_index",
            "range_low",
            "range_high",
            "failures",
            "passed",
            "validation_mean",
        }
        assert rows[0]["passed"] in ("true", "false")


class TestBenchCommand:
    def test_reports_each_backend_and_batch_size(self, capsys):
        assert run_cli("bench", "--repeats", "3") == 0
        lines = capsys.readouterr().out.splitlines()
        threads = 1 if qsim.BACKEND == "numpy" else qsim._kernel.threads
        assert lines[0] == f"active backend: {qsim.BACKEND}, episode calls on {threads} thread(s)"
        rows = [line.split("|") for line in lines if line.count("|") == 6]
        assert [cell.strip() for cell in rows[0][2:]] == [
            "threads", "forward us/row", "fwd+grad us/row", "episodes us/step", "train episodes us/step"]
        cells = {(r[0].strip(), r[1].strip(), r[2].strip()) for r in rows[1:]}
        # the 100-episode batches of c play on one thread and on the default count, one per core
        cores = str(qsim.load_kernel("c").threads)
        assert cells == {(backend, batch, "1") for backend in ("c", "numpy") for batch in ("1", "100")} | {
            ("c", "100", cores)}
        assert all(float(v) > 0 for r in rows[1:] for v in r[3:])
        (cost,) = [line for line in lines if line.startswith("fixed cost of one episode call, c,")]
        assert "us on 1 thread(s)" in cost and f"us on {cores} thread(s)" in cost


class TestBenchRounds:
    """``bench._rounds``, which both the episode rows and the fixed-cost line time their thread counts through."""

    def test_rounds_alternate_the_counts_and_restore_the_default(self):
        kernel = SimpleNamespace(threads=4)
        seen = []

        def measure():
            seen.append(kernel.threads)
            return kernel.threads

        times = bench._rounds(kernel, {1, 4}, 3, measure)
        assert seen == [1, 4, 4, 1, 1, 4]
        assert times == {1: [1, 1, 1], 4: [4, 4, 4]}
        assert kernel.threads == 4

    def test_rounds_restore_the_default_when_a_round_fails(self):
        kernel = SimpleNamespace(threads=4)

        def measure():
            raise RuntimeError("round failed")

        with pytest.raises(RuntimeError):
            bench._rounds(kernel, {1, 4}, 1, measure)
        assert kernel.threads == 4

    def test_rounds_never_set_threads_on_a_kernel_without_them(self):
        kernel = SimpleNamespace()  # like the numpy module, whose one count is 1
        times = bench._rounds(kernel, {1}, 2, lambda: 7.0)
        assert times == {1: [7.0, 7.0]}
        assert not hasattr(kernel, "threads")


class TestExitCodes:
    @pytest.mark.parametrize(
        "args, option",
        [
            (("train", "--repeats", "5"), "--repeats"),
            (("eval-robustness", "--repeats", "5"), "--repeats"),
            (("bench", "--seed", "1"), "--seed"),
            (("bench", "--out", "somewhere"), "--out"),
            (("bench", "--set", "train.epochs=1"), "--set"),
            (("bench", "--repeats", "0"), "--repeats"),
            (("train", "--seed", "abc"), "--seed"),
            (("train", "--bogus", "1"), "--bogus"),
        ],
    )
    def test_usage_error_is_one_naming_option(self, capsys, args, option):
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qpgrad") and option in err.splitlines()[-1]

    def test_no_command_prints_help_and_is_one(self, capsys):
        assert run_cli() == 1
        assert "show this help message" in capsys.readouterr().out

    def test_help_lists_every_command(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-m", "qpgrad.cli", "--help"], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0
        assert "{train,curriculum,eval-robustness,eval-generalization,bench}" in done.stdout

    @pytest.mark.parametrize("args", [("--set", "run.out="), ("--out", ""), ("--out", "", "--set", "run.out=x")])
    def test_empty_out_is_config_error_writing_nothing(self, tmp_path, capsys, monkeypatch, args):
        # "" would name the working directory; "." does so on purpose
        monkeypatch.chdir(tmp_path)
        assert run_cli("train", "--seeds", "1", "--set", "train.epochs=1", *args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "run.out" in err
        assert not any(tmp_path.iterdir())
        assert run_cli("train", "--seeds", "1", "--set", "train.epochs=1", "--out", ".") == 0
        assert (tmp_path / "manifest.txt").is_file() and (tmp_path / "telemetry.csv").is_file()

    @pytest.mark.parametrize("command", ["eval-robustness", "eval-generalization"])
    @pytest.mark.parametrize("args", [(), ("--set", "eval.checkpoints=")])
    def test_eval_without_checkpoints_is_config_error_creating_nothing(self, tmp_path, capsys, monkeypatch, command,
                                                                       args):
        # the default eval.checkpoints is empty; a bare eval command used to create ./results, then exit 2
        monkeypatch.chdir(tmp_path)
        assert run_cli(command, *args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "eval.checkpoints" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "setting", ["eval.sigmas=-0.5,0.0", "train.learning_rate=nan", "grid.angle_edges=-13,0,13"]
    )
    def test_bad_value_is_config_error_naming_key(self, tmp_path, capsys, setting):
        assert run_cli(*tiny_train_args(tmp_path / "out", extra=("--set", setting))) == 1
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, settings, key",
        [
            ("train", ("init.x_dot_low=-1e308", "init.x_dot_high=1e308"), "init.x_dot_low/high"),
            ("eval-robustness", ("init.theta_dot_low=-1e308", "init.theta_dot_high=1e308"), "init.theta_dot_low/high"),
            ("eval-generalization", ("grid.velocity_edges=-1e308,1e308",), "grid.velocity_edges"),
            ("curriculum", ("curriculum.ranges=0.25,1e308",), "curriculum.ranges"),
        ],
    )
    def test_interval_whose_width_overflows_is_config_error_naming_key(self, tmp_path, capsys, command, settings,
                                                                       key):
        out = tmp_path / "out"
        sets = [arg for kv in settings for arg in ("--set", kv)]
        assert run_cli(command, "--out", str(out), *sets) == 1
        assert f"config error: {key}: the width of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting",
        [
            "curriculum.validation_period=0",
            "curriculum.validation_episodes=0",
            "curriculum.max_failures=-1",
            "train.minibatch=5",
        ],
    )
    def test_bad_curriculum_count_is_config_error_naming_key(self, tmp_path, capsys, setting):
        out = tmp_path / "out"
        assert run_cli("curriculum", "--seed", "4", "--seeds", "1", "--out", str(out), "--set", setting) == 1
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_curriculum_that_can_never_pass_is_config_error_naming_both_keys(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("curriculum", "--seed", "4", "--seeds", "1", "--out", str(out), "--set", "train.horizon=8") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "curriculum.validation_threshold" in err and "train.horizon" in err
        assert not out.exists()
        # a training run may have a short horizon
        assert run_cli(*tiny_train_args(tmp_path / "train", seeds=1, extra=("--set", "train.horizon=8"))) == 0

    def test_horizon_too_long_for_the_gradient_blocks_is_config_error(self, tmp_path, capsys, monkeypatch):
        # rejected when the config is built, so no run starts and no block is allocated
        never = mock.Mock(side_effect=AssertionError("a run started"))
        monkeypatch.setattr(cli, "train", never)
        monkeypatch.setattr(cli, "run_curriculum", never)
        for command in ("train", "curriculum"):
            out = tmp_path / command
            assert run_cli(command, "--seed", "1", "--out", str(out), "--set", "train.horizon=100000000") == 1
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "train.horizon" in err and "GiB" in err
            assert not out.exists()
        never.assert_not_called()

    @pytest.mark.parametrize(
        "command, setting, campaign",
        [
            ("eval-robustness", "eval.episodes=100000000", "robustness_sweep"),
            ("eval-generalization", "grid.cell_episodes=100000000", "generalization_grid"),
            ("curriculum", "curriculum.validation_episodes=1000000000", "run_curriculum"),
        ],
    )
    def test_forward_batch_too_large_is_config_error(self, tmp_path, capsys, monkeypatch, command, setting, campaign):
        # rejected when the config is built, so no episode is played and nothing is written
        never = mock.Mock(side_effect=AssertionError("a campaign started"))
        monkeypatch.setattr(cli, campaign, never)
        out = tmp_path / "out"
        args = ("--seed", "1", "--out", str(out), "--set", "eval.checkpoints=" + str(tmp_path), "--set", setting)
        assert run_cli(command, *args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and setting.split("=")[0] in err and "GiB" in err
        assert not out.exists()
        never.assert_not_called()

    def test_repeated_noise_level_is_config_error(self, tmp_path, capsys, monkeypatch):
        # two equal levels would write every (seed, sigma, episode) key twice, from different streams
        never = mock.Mock(side_effect=AssertionError("a campaign started"))
        monkeypatch.setattr(cli, "robustness_sweep", never)
        out = tmp_path / "out"
        args = ("--seed", "5", "--out", str(out), "--set", "eval.checkpoints=" + str(tmp_path))
        assert run_cli("eval-robustness", *args, "--set", "eval.sigmas=0.1,0.1") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "eval.sigmas" in err
        assert not out.exists()
        never.assert_not_called()

    def test_more_qubits_than_cartpole_features_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ("train", "--seed", "1", "--out", str(out), "--set", "ansatz.n_qubits=5", "--set", "train.epochs=1")
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert "ansatz.n_qubits" in err and "CartPole feature (there are 4)" in err
        assert not out.exists()

    def test_config_error_is_one(self, tmp_path):
        assert run_cli("train", "--out", str(tmp_path), "--set", "train.lambda=-1") == 1
        assert run_cli("train", "--out", str(tmp_path), "--set", "train.lamda=0.1") == 1

    def test_command_mismatch_is_config_error(self, tmp_path):
        out = tmp_path / "t"
        assert run_cli(*tiny_train_args(out)) == 0
        assert run_cli("curriculum", "--config", str(out / "manifest.txt")) == 1

    def test_missing_config_file_is_one(self, tmp_path):
        assert run_cli("train", "--config", str(tmp_path / "none.cfg")) == 1

    def test_config_directory_is_config_error_naming_it(self, tmp_path, capsys):
        assert run_cli("train", "--config", str(tmp_path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(tmp_path) in err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_is_config_error_naming_it(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"run.seed = 1\n\xff\n")
        assert run_cli("train", "--config", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err
        assert not (tmp_path / "out").exists()
