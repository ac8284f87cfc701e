"""Command-line front door.

One flat parser takes a command, ``train``, ``curriculum``,
``eval-robustness``, ``eval-generalization`` or ``bench`` (the kernel
benchmark), and declares each option once. ``--repeats`` applies to
``bench`` only and every other option to the campaigns only; ``main``
rejects an option given to the wrong command. Every campaign runs across
``--seeds`` derived seeds, writes per-seed checkpoints, one CSV report, and
a manifest that doubles as a config file for bit-exact re-runs. The
manifest also records the kernel backend and library, the thread count of
its episode calls, the CPU count, and the numpy and Python versions, since
byte identity holds only on the same backend, kernel and numpy; a re-run
from a manifest whose backend, kernel or numpy differ from its own warns on
stderr once per field, then runs as usual. Exit codes: 0 success, 1 usage or
config error (the message on stderr), 2 runtime failure; ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import os
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
    manifest_fields,
    parse_config_text,
    serialize_config,
)
from .curriculum import run_curriculum
from .errors import ConfigurationError
from .evalharness import generalization_grid, map_jobs, robustness_sweep
from .seeding import derive_run_seeds
from .trainer import train


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigurationError(message)  # main prints the usage and returns 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qpgrad",
        description="Lipschitz-regularized quantum policy gradients on CartPole. "
        "--repeats applies to bench only, every other option to the campaigns only.",
    )
    parser.add_argument(
        "command",
        nargs="?",
        choices=(*COMMANDS, "bench"),
        help="a campaign, or bench to time the compiled and numpy kernels",
    )
    parser.add_argument("--config", help="config or manifest file")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--seeds", type=int, help="number of per-seed runs")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--workers", type=int, help="parallel worker processes")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override any config key (repeatable)"
    )
    parser.add_argument("--repeats", type=int, help="rows timed per cell (default 2000)")
    return parser


def _assemble_config(args) -> ExperimentConfig:
    raw = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigurationError(f"config file {path} does not exist")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:  # a directory, an unreadable file, bytes that are not UTF-8
            raise ConfigurationError(f"config file {path} cannot be read as UTF-8 text: {exc}") from exc
        raw = parse_config_text(text, source=str(path))
        recorded = manifest_fields(text, source=str(path))
        for name, value in _provenance().items():
            if recorded.get(name, value) != value:
                print(
                    f"warning: {path} records manifest.{name} = {recorded[name]}, but this run has {value}, "
                    "so its outputs may differ from the recorded run's",
                    file=sys.stderr,
                )
    if "run.command" in raw and raw["run.command"] != args.command:
        raise ConfigurationError(
            f"config declares run.command = {raw['run.command']} but the "
            f"{args.command} command was invoked"
        )
    raw["run.command"] = args.command
    raw = apply_overrides(raw, args.set or [])
    if args.seed is not None:
        raw["run.seed"] = str(args.seed)
    if args.seeds is not None:
        raw["run.seeds"] = str(args.seeds)
    if args.out is not None:
        raw["run.out"] = args.out
    if args.workers is not None:
        raw["run.workers"] = str(args.workers)
    return build_config(raw)


def _provenance() -> dict:
    """The manifest fields on which byte identity depends."""
    return {"backend": qsim.BACKEND, "kernel": qsim.KERNEL, "numpy": np.__version__}


def _write_manifest(out_dir: Path, config: ExperimentConfig, run_seeds, started: str) -> None:
    fields = {
        "version": __version__,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "master_seed": config.seed,
        "run_seeds": ",".join(str(s) for s in run_seeds),
        **_provenance(),
        "threads": getattr(qsim.episode_kernel(), "threads", 1),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
    text = "# qpgrad run manifest; reusable as --config for a bit-exact re-run\n"
    text += "".join(f"manifest.{name} = {value}\n" for name, value in fields.items())
    (out_dir / "manifest.txt").write_text(text + "\n" + serialize_config(config))


def _train_job(payload):
    config, run_seed = payload
    train_cfg = replace(config.train, seed=run_seed)
    params, records = train(train_cfg, config.ansatz, config.init)
    return run_seed, params, records


def _curriculum_job(payload):
    config, run_seed = payload
    train_cfg = replace(config.train, seed=run_seed)
    result = run_curriculum(train_cfg, config.ansatz, config.curriculum, config.init)
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
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        foreign = ("config", "seed", "seeds", "out", "workers", "set") if args.command == "bench" else ("repeats",)
        for name in foreign:
            if getattr(args, name) is not None:
                parser.error(f"--{name} does not apply to {args.command}")
        if args.repeats is not None and args.repeats < 1:
            parser.error(f"--repeats must be at least 1, got {args.repeats}")
    except ConfigurationError as exc:
        parser.print_usage(sys.stderr)
        print(f"qpgrad: error: {exc}", file=sys.stderr)
        return 1
    if args.command == "bench":
        bench.print_benchmark(repeats=args.repeats or 2000)
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
