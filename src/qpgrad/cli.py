"""Command-line front door.

Subcommands: ``train``, ``curriculum``, ``eval-robustness``,
``eval-generalization``, plus ``bench`` for the kernel benchmark. Every
campaign runs across ``--seeds`` derived seeds, writes per-seed checkpoints,
one CSV report, and a manifest that doubles as a config file for bit-exact
re-runs; it also records the kernel backend and library, the thread count
of its episode calls, and the numpy and Python versions, since byte
identity holds only on the same backend and versions. Exit codes: 0
success, 1 usage/config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import platform
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, bench, qsim, reports
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    COMMANDS,
    ExperimentConfig,
    apply_overrides,
    build_config,
    parse_config_text,
    serialize_config,
)
from .curriculum import run_curriculum
from .errors import ConfigurationError
from .evalharness import generalization_grid, map_jobs, robustness_sweep
from .seeding import derive_run_seeds
from .trainer import train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpgrad",
        description="Lipschitz-regularized quantum policy gradients on CartPole",
    )
    sub = parser.add_subparsers(dest="command")
    for name, help_text in (
        ("train", "train policies with the regularized policy-gradient loop"),
        ("curriculum", "curriculum training over expanding initial-condition ranges"),
        ("eval-robustness", "evaluate trained policies under observation noise"),
        ("eval-generalization", "evaluate attraction rates over an initial-condition grid"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="config or manifest file")
        cmd.add_argument("--seed", type=int, help="master seed")
        cmd.add_argument("--seeds", type=int, help="number of per-seed runs")
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument("--workers", type=int, help="parallel worker processes")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
    bench_cmd = sub.add_parser("bench", help="compare the compiled and numpy kernels")
    bench_cmd.add_argument("--repeats", type=int, default=2000)
    return parser


def _assemble_config(args) -> ExperimentConfig:
    raw = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigurationError(f"config file {path} does not exist")
        raw = parse_config_text(path.read_text(), source=str(path))
    if "run.command" in raw and raw["run.command"] != args.command:
        raise ConfigurationError(
            f"config declares run.command = {raw['run.command']} but the "
            f"{args.command} subcommand was invoked"
        )
    raw["run.command"] = args.command
    raw = apply_overrides(raw, args.overrides)
    if args.seed is not None:
        raw["run.seed"] = str(args.seed)
    if args.seeds is not None:
        raw["run.seeds"] = str(args.seeds)
    if args.out is not None:
        raw["run.out"] = args.out
    if args.workers is not None:
        raw["run.workers"] = str(args.workers)
    return build_config(raw)


def _write_manifest(out_dir: Path, config: ExperimentConfig, run_seeds, started: str) -> None:
    finished = datetime.now(timezone.utc).isoformat()
    text = (
        "# qpgrad run manifest; reusable as --config for a bit-exact re-run\n"
        f"manifest.version = {__version__}\n"
        f"manifest.started_utc = {started}\n"
        f"manifest.finished_utc = {finished}\n"
        f"manifest.master_seed = {config.seed}\n"
        f"manifest.run_seeds = {','.join(str(s) for s in run_seeds)}\n"
        f"manifest.backend = {qsim.BACKEND}\n"
        f"manifest.kernel = {qsim.KERNEL}\n"
        f"manifest.threads = {getattr(qsim.episode_kernel(), 'threads', 1)}\n"
        f"manifest.numpy = {np.__version__}\n"
        f"manifest.python = {platform.python_version()}\n"
        "\n"
    ) + serialize_config(config)
    (out_dir / "manifest.txt").write_text(text)


def _train_job(payload):
    config, run_seed = payload
    train_cfg = replace(config.train, seed=run_seed)
    params, records = train(train_cfg, config.ansatz, config.init)
    return run_seed, params, records


def _curriculum_job(payload):
    config, run_seed = payload
    train_cfg = replace(config.train, seed=run_seed)
    result = run_curriculum(train_cfg, config.ansatz, config.curriculum_schedule())
    return run_seed, result


def _load_models(config: ExperimentConfig):
    ckpt_dir = Path(config.eval_checkpoints)
    if not config.eval_checkpoints or not ckpt_dir.is_dir():
        raise ConfigurationError(
            f"eval.checkpoints must name a directory of checkpoints, got {config.eval_checkpoints!r}"
        )
    files = sorted(ckpt_dir.glob("checkpoint_*.json"))
    if not files:
        raise ConfigurationError(f"no checkpoint_*.json files under {ckpt_dir}")
    checkpoints = [load_checkpoint(f) for f in files]
    for f, ck in zip(files, checkpoints):
        if ck.ansatz != config.ansatz:
            raise ConfigurationError(
                f"{f}: checkpoint ansatz {ck.ansatz} does not match configured ansatz {config.ansatz}"
            )
    labels = [ck.seed for ck in checkpoints]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(f"duplicate checkpoint seeds under {ckpt_dir}")
    return [ck.params for ck in checkpoints], labels


def run_experiment(config: ExperimentConfig) -> None:
    """Execute one campaign and write manifest, checkpoints, and CSV reports."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    run_seeds = derive_run_seeds(config.seed, config.n_seeds)

    if config.command == "train":
        results = map_jobs(_train_job, [(config, s) for s in run_seeds], config.workers)
        rows = []
        for run_seed, params, records in results:
            save_checkpoint(
                out_dir / f"checkpoint_{run_seed}.json",
                config.ansatz,
                params,
                config.train.lam,
                run_seed,
            )
            rows.extend(reports.telemetry_rows(run_seed, records))
        reports.write_csv(out_dir / "telemetry.csv", reports.TELEMETRY_HEADER, rows)
    elif config.command == "curriculum":
        results = map_jobs(_curriculum_job, [(config, s) for s in run_seeds], config.workers)
        rows = []
        for run_seed, result in results:
            rows.extend(reports.curriculum_rows(run_seed, result))
            for idx, outcome in enumerate(result.per_range):
                if outcome.snapshot is not None:
                    save_checkpoint(
                        out_dir / f"snapshot_{run_seed}_range{idx}.json",
                        config.ansatz,
                        outcome.snapshot,
                        config.train.lam,
                        run_seed,
                    )
        reports.write_csv(out_dir / "curriculum.csv", reports.CURRICULUM_HEADER, rows)
    elif config.command == "eval-robustness":
        models, labels = _load_models(config)
        report = robustness_sweep(
            models,
            config.eval_sigmas,
            config.eval_episodes,
            spec=config.ansatz,
            init_ranges=config.init,
            horizon=config.train.horizon,
            seed=config.seed,
            model_labels=labels,
            workers=config.workers,
        )
        reports.write_csv(out_dir / "robustness.csv", reports.ROBUSTNESS_HEADER, reports.robustness_rows(report))
    else:  # eval-generalization
        models, labels = _load_models(config)
        report = generalization_grid(
            models,
            config.grid,
            spec=config.ansatz,
            base_ranges=config.init,
            horizon=config.train.horizon,
            seed=config.seed,
            model_labels=labels,
            workers=config.workers,
        )
        reports.write_csv(
            out_dir / "generalization.csv", reports.GENERALIZATION_HEADER, reports.generalization_rows(report)
        )

    _write_manifest(out_dir, config, run_seeds, started)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if args.command == "bench":
        bench.print_benchmark(repeats=args.repeats)
        return 0
    try:
        config = _assemble_config(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        run_experiment(config)
    except Exception as exc:  # runtime failure: bad checkpoints, unwritable dir, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
