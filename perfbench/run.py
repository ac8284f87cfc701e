"""Campaign benchmark: one workload per qpgrad CLI subcommand.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,curriculum,robustness,grid}
                             --seed N --seconds S --trace {0,1}

One invocation
1. times ``setup_s``: five fresh Python processes (after one warm-up) that
   each import ``qpgrad.cli`` and run the workload's subcommand on a
   one-episode input; the median is reported;
2. checks that ``eval-robustness`` writes the same CSV bytes with
   ``--workers 2`` as with ``--workers 1``;
3. runs the workload's campaign repeatedly for S seconds in one child
   process (``campaign.py``), in-process through ``qpgrad.cli.main``, and
   reports the median wall time as ``campaign_s`` and the child's peak
   resident memory as ``peak_rss_mb``. Both timings are scaled by a short
   speed probe (``campaign.probe``) run right before and after each timed
   invocation, and every half second during a campaign, which cancels most
   of the drift in the speed of this machine's shared cores. With
   ``--trace 1`` half of the time runs traced campaigns instead, and the
   per-layer metrics replace the end-to-end ones;
4. checks the first campaign's files against the independent reference
   (``checks.py``) and every repeated campaign's files against the first.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Outputs go to
``perfbench/out/``, span traces to ``perfbench/trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHECKPOINTS = HERE / "checkpoints"
OUT = HERE / "out"
TRACE = HERE / "trace"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from campaign import probe, scaled  # noqa: E402

# splitmix64(master, 0) of this master seed is splitmix64(12345, 1), the
# tests' CONVERGING_SEED, so `--seeds 1` trains exactly that run.
CONVERGING_MASTER_SEED = 12345 + 0x9E3779B97F4A7C15
TRAIN_EPOCHS = 3
CURRICULUM_LIMITS = (0.25, 0.75, 1.25, 1.75)
CURRICULUM_F_MAX = 30
CURRICULUM_VALIDATION_EPISODES = 10
CURRICULUM_THRESHOLD = 20.0
ROBUSTNESS_EPISODES = 3
ROBUSTNESS_REF_EPISODES = 40
GRID_ANGLE_EDGES = (-2.75, -1.0, 1.0, 2.75)
GRID_VELOCITY_EDGES = (0.0, 0.13, 0.26)
GRID_CELL_EPISODES = 2
GRID_REF_EPISODES = 8
SETUP_REPEATS = 5
# Probes on each side of a set-up run. The run is a process of its own and
# may run on the other core, so a single 10 ms probe follows its speed
# poorly; ten, 0.1 s in all, give steadier set-up times (README).
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 150
CLI = "import sys; from qpgrad.cli import main; sys.exit(main(sys.argv[1:]))"

WORKLOADS = ("train", "curriculum", "robustness", "grid")
# Spans whose self time no layer metric reports: the CLI entry and the
# train and curriculum drivers, with their epoch and batch loops. Their sum
# per step is the Python glue.
GLUE_SPANS = ("campaign", "trainer.train", "curriculum.run")
LAYER_UNITS = {
    "qsim.adjoint.calls": "count",
    "qsim.adjoint.us": "us",
    "qsim.forward.calls": "count",
    "qsim.forward.us": "us",
    "policy.angles.us": "us",
    "policy.pullback.us": "us",
    "policy.probs.us": "us",
    "cartpole.step.calls": "count",
    "cartpole.step.us": "us",
    "cartpole.reset.us": "us",
    "cartpole.observe.us": "us",
    "cartpole.normalize.us": "us",
    "seeding.substream.calls": "count",
    "seeding.substream.us": "us",
    "trainer.rollout.self_us_per_step": "us",
    "trainer.batch_gradient.us": "us",
    "trainer.apply_update.us": "us",
    "trainer.updates": "count",
    "curriculum.training_episodes": "count",
    "curriculum.validation_episodes": "count",
    "evalharness.self_ms": "ms",
    "reports.write_csv.ms": "ms",
    "reports.bytes": "bytes",
    "checkpoint.save.ms": "ms",
    "checkpoint.load.ms": "ms",
    "config.build.ms": "ms",
    "glue.us_per_step": "us",
    "trace.overhead_pct": "%",
}


def _sets(**pairs) -> list[str]:
    argv = []
    for key, value in pairs.items():
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        argv += ["--set", f"{key.replace('__', '.')}={value}"]
    return argv


class Workload:
    """The CLI arguments of one workload's campaign and set-up run, and its checks."""

    def __init__(self, name: str, seed: int, out: Path):
        rng = np.random.default_rng(seed)
        self.name = name
        self.out = out
        self.lam = round(0.1 + 0.4 * float(rng.random()), 4)
        self.eval_seed = int(rng.integers(0, 2**31))
        single = out / "one_checkpoint"
        if name == "train":
            base = ["train", "--seed", str(CONVERGING_MASTER_SEED), "--seeds", "1"] + _sets(train__lambda=self.lam)
            self.argv = base + _sets(train__epochs=TRAIN_EPOCHS)
            self.setup_argv = base + _sets(train__epochs=1, train__batch_size=1)
        elif name == "curriculum":
            base = ["curriculum", "--seed", str(CONVERGING_MASTER_SEED), "--seeds", "1"] + _sets(train__lambda=self.lam)
            self.argv = base + _sets(
                curriculum__ranges=CURRICULUM_LIMITS,
                curriculum__max_failures=CURRICULUM_F_MAX,
                curriculum__validation_episodes=CURRICULUM_VALIDATION_EPISODES,
                curriculum__validation_threshold=CURRICULUM_THRESHOLD,
            )
            self.setup_argv = base + _sets(
                train__batch_size=1,
                curriculum__max_failures=1,
                curriculum__validation_episodes=1,
                curriculum__validation_period=1,
            )
        elif name == "robustness":
            base = ["eval-robustness", "--seed", str(self.eval_seed)]
            self.argv = base + _sets(eval__checkpoints=CHECKPOINTS, eval__episodes=ROBUSTNESS_EPISODES)
            self.setup_argv = base + _sets(eval__checkpoints=single, eval__sigmas=0.8, eval__episodes=1)
        else:
            base = ["eval-generalization", "--seed", str(self.eval_seed)]
            self.argv = base + _sets(
                eval__checkpoints=CHECKPOINTS,
                grid__angle_edges=GRID_ANGLE_EDGES,
                grid__velocity_edges=GRID_VELOCITY_EDGES,
                grid__cell_episodes=GRID_CELL_EPISODES,
            )
            self.setup_argv = base + _sets(
                eval__checkpoints=single,
                grid__angle_edges="-0.5,0.5",
                grid__velocity_edges="0,0.02",
                grid__cell_episodes=1,
            )
        if name in ("robustness", "grid"):
            single.mkdir(parents=True)
            shutil.copy(sorted(CHECKPOINTS.glob("checkpoint_*.json"))[0], single)

    def check(self, outputs: Path) -> list:
        if self.name == "train":
            return checks.check_train(outputs, CONVERGING_MASTER_SEED, self.lam, TRAIN_EPOCHS)
        if self.name == "curriculum":
            return checks.check_curriculum(
                outputs,
                CONVERGING_MASTER_SEED,
                self.lam,
                CURRICULUM_LIMITS,
                CURRICULUM_F_MAX,
                CURRICULUM_VALIDATION_EPISODES,
                CURRICULUM_THRESHOLD,
            )
        if self.name == "robustness":
            return checks.check_robustness(
                outputs, CHECKPOINTS, ROBUSTNESS_EPISODES, ROBUSTNESS_REF_EPISODES, self.eval_seed
            )
        return checks.check_grid(
            outputs,
            CHECKPOINTS,
            GRID_ANGLE_EDGES,
            GRID_VELOCITY_EDGES,
            GRID_CELL_EPISODES,
            GRID_REF_EPISODES,
            self.eval_seed,
        )


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_cli(argv: list[str], out: Path) -> tuple[int, float]:
    """Runs one CLI invocation in a fresh process; returns its exit code and wall time."""
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CLI, *argv, "--out", str(out)], env=_env(), capture_output=True, text=True, timeout=60
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        print(f"exit {proc.returncode}: qpgrad {' '.join(argv)}\n{proc.stderr}", file=sys.stderr)
    return proc.returncode, elapsed


def worker_invariance(out: Path, seed: int) -> tuple[list[int], bool]:
    """eval-robustness with 2 workers must write the same CSV bytes as with 1."""
    argv = ["eval-robustness", "--seed", str(seed)] + _sets(
        eval__checkpoints=CHECKPOINTS, eval__sigmas="0.4,0.8", eval__episodes=2
    )
    codes, files = [], []
    for workers in (1, 2):
        target = out / f"workers{workers}"
        codes.append(run_cli(argv + ["--workers", str(workers)], target)[0])
        csv = target / "robustness.csv"
        files.append(csv.read_bytes() if csv.exists() else None)
    return codes, files[0] is not None and files[0] == files[1]


def run_campaigns(workload: Workload, seconds: float, trace: bool) -> dict:
    spec = {
        "src": str(SRC),
        "argv": workload.argv,
        "out": str(workload.out / "campaigns"),
        "seconds": seconds,
        "trace": trace,
        "trace_csv": str(TRACE / f"{workload.name}.csv"),
        "result": str(workload.out / "campaigns.json"),
    }
    spec_path = workload.out / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "campaign.py"), str(spec_path)],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=seconds + CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"campaign runner failed with exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(Path(spec["result"]).read_text())


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics from the traced campaigns; a layer not reached reads 0."""
    n = len(result["traced_times"])
    layers = result["layers"]
    counters = result["counters"]

    def calls(name):
        return layers.get(name, (0, 0))[0] / n

    def per_call(name, scale):
        c, ns = layers.get(name, (0, 0))
        return ns / c / scale if c else 0.0

    steps = layers.get("cartpole.step", (0, 0))[0]

    def per_step(name):
        return layers.get(name, (0, 0))[1] / steps / 1e3 if steps else 0.0

    values = {
        "qsim.adjoint.calls": calls("qsim.adjoint"),
        "qsim.adjoint.us": per_call("qsim.adjoint", 1e3),
        "qsim.forward.calls": calls("qsim.forward"),
        "qsim.forward.us": per_call("qsim.forward", 1e3),
        "policy.angles.us": per_call("policy.angles", 1e3),
        "policy.pullback.us": per_call("policy.pullback", 1e3),
        "policy.probs.us": per_call("policy.probs", 1e3),
        "cartpole.step.calls": calls("cartpole.step"),
        "cartpole.step.us": per_call("cartpole.step", 1e3),
        "cartpole.reset.us": per_call("cartpole.reset", 1e3),
        "cartpole.observe.us": per_call("cartpole.observe", 1e3),
        "cartpole.normalize.us": per_call("cartpole.normalize", 1e3),
        "seeding.substream.calls": calls("seeding.substream"),
        "seeding.substream.us": per_call("seeding.substream", 1e3),
        "trainer.rollout.self_us_per_step": per_step("trainer.rollout"),
        "trainer.batch_gradient.us": per_call("trainer.batch_gradient", 1e3),
        "trainer.apply_update.us": per_call("trainer.apply_update", 1e3),
        "trainer.updates": calls("trainer.apply_update"),
        "curriculum.training_episodes": counters.get("curriculum.training_episodes", 0) / n,
        "curriculum.validation_episodes": counters.get("curriculum.validation_episodes", 0) / n,
        "evalharness.self_ms": sum(ns for name, (_, ns) in layers.items() if name.startswith("evalharness.")) / n / 1e6,
        "reports.write_csv.ms": per_call("reports.write_csv", 1e6),
        "reports.bytes": result["csv_bytes"],
        "checkpoint.save.ms": per_call("checkpoint.save", 1e6),
        "checkpoint.load.ms": per_call("checkpoint.load", 1e6),
        "config.build.ms": per_call("config.build", 1e6),
        "glue.us_per_step": sum(per_step(name) for name in GLUE_SPANS),
        "trace.overhead_pct": 100.0
        * (statistics.median(result["scaled_traced_times"]) / statistics.median(result["scaled_times"]) - 1.0),
    }
    return {name: {"value": value, "unit": LAYER_UNITS[name]} for name, value in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qpgrad" / "cli.py").is_file():
        print(f"no qpgrad sources under {SRC}; run from the root of a qpgrad checkout", file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = Workload(args.workload, args.seed, out)
    exit_codes = []

    exit_codes.append(run_cli(workload.setup_argv, out / "setup")[0])  # warm-up: page cache, bytecode, any disk cache
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = [probe() for _ in range(SETUP_PROBES)]
        code, elapsed = run_cli(workload.setup_argv, out / "setup")
        exit_codes.append(code)
        setup_times.append(scaled(elapsed, before + [probe() for _ in range(SETUP_PROBES)]))

    codes, invariant = worker_invariance(out / "invariance", workload.eval_seed)
    exit_codes += codes

    result = run_campaigns(workload, args.seconds, bool(args.trace))
    exit_codes += result["exit_codes"]
    first = out / "campaigns" / "first"
    results = [
        ("eval-robustness writes the same CSV bytes with 2 workers as with 1", invariant, ""),
        (
            "repeated campaigns write byte-identical CSVs and checkpoints",
            not result["mismatches"],
            f"{len(result['exit_codes'])} campaigns, differing files {result['mismatches']}",
        ),
    ]
    if (first / "manifest.txt").exists():
        results += workload.check(first)
    else:
        results.append(("the first campaign wrote its outputs", False, str(first)))
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}" + (f" [{detail}]" if detail and not passed else ""))

    if args.trace:
        metrics = layer_metrics(result)
        if result["absent"]:
            print("absent layers (reported as 0): " + ", ".join(result["absent"]))
    else:
        print(
            f"unscaled medians: campaign {statistics.median(result['times']):.4g} s, "
            f"speed probe {statistics.median(result['probes']):.4g} s"
        )
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "campaign_s": {"value": statistics.median(result["scaled_times"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    failed = sum(1 for code in exit_codes if code != 0)
    summary = {
        "correct": all(passed for _, passed, _ in results),
        "attempted": len(exit_codes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
