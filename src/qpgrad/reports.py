"""CSV report emission with a stable byte format.

Every float is printed with 17 significant digits (full double precision),
rows end with a single newline, and row order is deterministic, so identical
runs produce byte-identical files and all aggregates can be recomputed from
the persisted rows.
"""

from __future__ import annotations

from pathlib import Path

TELEMETRY_HEADER = ("seed", "epoch", "mean_reward", "reg_objective", "lipschitz_total")
ROBUSTNESS_HEADER = ("seed", "sigma", "episode", "reward")
GENERALIZATION_HEADER = (
    "seed",
    "angle_bin_low",
    "angle_bin_high",
    "vel_bin_low",
    "vel_bin_high",
    "attraction_rate",
)
CURRICULUM_HEADER = (
    "seed",
    "range_index",
    "range_low",
    "range_high",
    "failures",
    "passed",
    "validation_mean",
)


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def fmt_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return fmt_float(x)
    return str(x)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(fmt_value(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def telemetry_rows(seed: int, records):
    for rec in records:
        yield (seed, rec.epoch, rec.mean_reward, rec.reg_objective, rec.lipschitz_total)


def robustness_rows(report):
    """(seed, sigma, episode, reward) in model-major, sigma, episode order."""
    for m, label in enumerate(report.model_labels):
        for k, sigma in enumerate(report.points):
            for e in range(report.episode_rewards.shape[2]):
                yield (label, float(sigma), e, float(report.episode_rewards[m, k, e]))


def generalization_rows(report):
    for m, label in enumerate(report.model_labels):
        for c, (angle_bin, vel_bin) in enumerate(report.points):
            yield (
                label,
                float(angle_bin[0]),
                float(angle_bin[1]),
                float(vel_bin[0]),
                float(vel_bin[1]),
                float(report.values[m, c]),
            )


def curriculum_rows(seed: int, result):
    for idx, out in enumerate(result.per_range):
        lo, hi = out.ranges.theta_dot
        yield (seed, idx, float(lo), float(hi), out.failures, out.passed, out.validation_mean)
