"""Checks of the files one campaign wrote, against the independent reference
or against properties the method must have. Nothing here imports ``qpgrad``
or compares with a stored copy of earlier outputs.

Every check function returns a list of (name, passed, detail).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

HORIZON = ref.HORIZON
DEFAULT_SIGMAS = tuple(round(0.1 * i, 1) for i in range(9))

# Statistical bound for a mean against the reference's own random streams:
# |program - reference| <= Z * s * sqrt(1/n_program + 1/n_reference) + slack,
# where s is the standard deviation of the two samples pooled, as in a
# two-sample test of equal means. Z = 6 keeps a false alarm below about
# 1e-8 per comparison for a normal mean; the slack covers points where
# nearly every episode has the same outcome, so that s is close to 0.
Z_BOUND = 6.0
REWARD_SLACK = 1.0
# The robustness mean over all sigma is one comparison per run and averages
# 54 program episodes, so it is close to normal: over 150 seeds its z-score
# had a standard deviation of 0.93 and never exceeded 2.4 in size. Z = 5
# keeps a false alarm near 1e-6 per run and detects smaller faults.
Z_OVERALL = 5.0


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def load_checkpoint(path: Path):
    doc = json.loads(path.read_text())
    shape = (doc["n_layers"], doc["n_qubits"], 2)
    return doc, np.reshape(doc["nu"], shape), np.reshape(doc["omega"], shape)


def _is_multiple(value: float, step: float) -> bool:
    return abs(value / step - round(value / step)) < 1e-9


def check_train(out: Path, master_seed: int, lam: float, epochs: int) -> list:
    run_seed = ref.run_seeds(master_seed, 1)[0]
    rows = read_csv(out / "telemetry.csv")
    ckpts = sorted(out.glob("checkpoint_*.json"))
    results = [
        (
            "train: one telemetry row per epoch of the expected run seed",
            [(int(r["seed"]), int(r["epoch"])) for r in rows] == [(run_seed, e) for e in range(epochs)],
            f"{len(rows)} rows",
        ),
        (
            "train: one checkpoint, named by the run seed",
            [p.name for p in ckpts] == [f"checkpoint_{run_seed}.json"],
            str(ckpts),
        ),
    ]
    if not rows or len(ckpts) != 1:
        return results
    rewards = [float(r["mean_reward"]) for r in rows]
    results.append(
        (
            f"train: mean_reward is a multiple of 1/{ref.BATCH_SIZE} in [1, {HORIZON}]",
            all(1 <= m <= HORIZON and _is_multiple(m, 1 / ref.BATCH_SIZE) for m in rewards),
            str(rewards),
        )
    )
    records, nu, omega = ref.replay_training(run_seed, epochs, lam)
    replayed = [r[0] for r in records]
    results.append(("train: mean_reward equals the reference replay", rewards == replayed, f"reference {replayed}"))
    objective = [float(r["reg_objective"]) for r in rows]
    results.append(
        (
            "train: reg_objective matches the reference replay",
            np.allclose(objective, [r[1] for r in records], rtol=1e-9, atol=1e-9),
            f"{objective} vs {[r[1] for r in records]}",
        )
    )
    doc, ck_nu, ck_omega = load_checkpoint(ckpts[0])
    results.append(
        (
            "train: checkpoint parameters match the reference replay",
            np.allclose(ck_nu, nu, rtol=0, atol=1e-9) and np.allclose(ck_omega, omega, rtol=0, atol=1e-9),
            f"max |diff| {max(np.max(np.abs(ck_nu - nu)), np.max(np.abs(ck_omega - omega))):.3g}",
        )
    )
    last = float(rows[-1]["lipschitz_total"])
    results.append(
        (
            "train: last lipschitz_total equals 2*sum|omega| of the checkpoint",
            math.isclose(last, ref.lipschitz_total(ck_omega), rel_tol=1e-12),
            f"{last} vs {ref.lipschitz_total(ck_omega)}",
        )
    )
    results.append(
        (
            "train: checkpoint records lambda and seed",
            doc["lambda"] == lam and doc["seed"] == run_seed,
            f"{doc['lambda']}, {doc['seed']}",
        )
    )
    return results


def check_curriculum(
    out: Path, master_seed: int, lam: float, limits, f_max: int, validation_episodes: int, threshold: float
) -> list:
    run_seed = ref.run_seeds(master_seed, 1)[0]
    rows = read_csv(out / "curriculum.csv")
    results = [
        (
            "curriculum: one row per configured range",
            [(int(r["seed"]), int(r["range_index"])) for r in rows] == [(run_seed, i) for i in range(len(limits))],
            f"{len(rows)} rows",
        )
    ]
    if len(rows) != len(limits):
        return results
    passed = [r["passed"] == "true" for r in rows]
    failures = [int(r["failures"]) for r in rows]
    results.append(
        (
            "curriculum: range bounds equal the configured limits",
            all(float(r["range_low"]) == -lim and float(r["range_high"]) == lim for r, lim in zip(rows, limits)),
            str([(r["range_low"], r["range_high"]) for r in rows]),
        )
    )
    total = sum(failures)
    results.append(
        (
            "curriculum: failures stay within f_max, and reach it when the last range did not pass",
            min(failures) >= 0 and total <= f_max and (passed[-1] or total == f_max),
            f"failures {failures}, f_max {f_max}",
        )
    )
    n_passed = sum(passed)
    prefix = [True] * n_passed + [False] * (len(passed) - n_passed)
    results.append(("curriculum: passed ranges are a prefix of the schedule", passed == prefix, str(passed)))
    means = [float(r["validation_mean"]) for r in rows]
    results.append(
        (
            f"curriculum: validation_mean of every passed range exceeds {threshold}",
            all(m > threshold for m, p in zip(means, passed) if p),
            str(means),
        )
    )
    snapshots = sorted(p.name for p in out.glob("snapshot_*.json"))
    expected = sorted(f"snapshot_{run_seed}_range{i}.json" for i in range(n_passed))
    results.append(("curriculum: snapshots exist for exactly the passed ranges", snapshots == expected, str(snapshots)))
    if snapshots != expected:
        return results
    replay, replay_snapshots = ref.replay_curriculum(run_seed, lam, limits, f_max, validation_episodes, threshold)
    ours = [[f, p, m] for f, p, m in zip(failures, passed, means)]
    same = len(ours) == len(replay) and all(
        a[:2] == b[:2] and (a[2] == b[2] or (math.isnan(a[2]) and math.isnan(b[2]))) for a, b in zip(ours, replay)
    )
    results.append(
        ("curriculum: failures, passes and validation means equal the reference replay", same, f"{ours} vs {replay}")
    )
    close = len(replay_snapshots) == n_passed
    for i, (nu, omega) in enumerate(replay_snapshots[:n_passed]):
        doc, s_nu, s_omega = load_checkpoint(out / f"snapshot_{run_seed}_range{i}.json")
        matches = np.allclose(s_nu, nu, rtol=0, atol=1e-9) and np.allclose(s_omega, omega, rtol=0, atol=1e-9)
        close = close and doc["lambda"] == lam and matches
    results.append(("curriculum: snapshots record lambda and match the replay's parameters", close, ""))
    return results


def _models(checkpoint_dir: Path):
    """(seed, nu, omega) per checkpoint, in the program's file order."""
    files = sorted(checkpoint_dir.glob("checkpoint_*.json"))
    return [(doc["seed"], nu, omega) for doc, nu, omega in map(load_checkpoint, files)]


def check_robustness(out: Path, checkpoint_dir: Path, episodes: int, ref_episodes: int, seed: int) -> list:
    rows = read_csv(out / "robustness.csv")
    models = _models(checkpoint_dir)
    expected_keys = [(s, sigma, e) for s, _, _ in models for sigma in DEFAULT_SIGMAS for e in range(episodes)]
    keys = [(int(r["seed"]), float(r["sigma"]), int(r["episode"])) for r in rows]
    results = [
        (
            "robustness: one row per (model, sigma, episode)",
            keys == expected_keys,
            f"{len(rows)} rows, expected {len(expected_keys)}",
        )
    ]
    rewards = np.array([float(r["reward"]) for r in rows])
    results.append(
        (
            f"robustness: rewards are integers in [1, {HORIZON}]",
            bool(np.all((rewards >= 1) & (rewards <= HORIZON) & (rewards == np.round(rewards)))),
            f"range [{rewards.min() if rewards.size else 'n/a'}, {rewards.max() if rewards.size else 'n/a'}]",
        )
    )
    if keys != expected_keys:
        return results
    per_sigma = rewards.reshape(len(models), len(DEFAULT_SIGMAS), episodes)
    rng = np.random.default_rng([seed, 1])
    nu = np.repeat(np.stack([m[1] for m in models]), ref_episodes, axis=0)
    omega = np.repeat(np.stack([m[2] for m in models]), ref_episodes, axis=0)
    low, high = ref.default_init_bounds(len(nu))
    comparisons, diffs, variances = [], [], []
    for k, sigma in enumerate(DEFAULT_SIGMAS):
        lengths = ref.episode_lengths(nu, omega, low, high, sigma, rng)
        ours = per_sigma[:, k].ravel()
        pooled = np.concatenate([ours, lengths]).std()
        variances.append(pooled**2 * (1 / ours.size + 1 / lengths.size))
        diffs.append(ours.mean() - lengths.mean())
        bound = Z_BOUND * math.sqrt(variances[-1]) + REWARD_SLACK
        detail = f"sigma {sigma}: {ours.mean():.1f} vs {lengths.mean():.1f} (bound {bound:.1f})"
        comparisons.append((abs(diffs[-1]) <= bound, detail))
    results.append(
        (
            "robustness: per-sigma mean reward within the statistical bound of the reference",
            all(ok for ok, _ in comparisons),
            "; ".join(detail for _, detail in comparisons),
        )
    )
    # The per-sigma differences averaged over sigma: one comparison of all
    # program episodes, stratified by sigma, with a bound several times
    # tighter than any single sigma's.
    mean_diff = float(np.mean(diffs))
    bound = Z_OVERALL * math.sqrt(sum(variances)) / len(variances) + REWARD_SLACK
    results.append(
        (
            "robustness: mean reward over all sigma within the statistical bound of the reference",
            abs(mean_diff) <= bound,
            f"mean difference {mean_diff:.1f} (bound {bound:.1f})",
        )
    )
    return results


def _cell_bounds(angle_edges, velocity_edges):
    """Initial-state bounds per grid cell, angle-major, angles in degrees."""
    cells = []
    for a_lo, a_hi in zip(angle_edges, angle_edges[1:]):
        for v_lo, v_hi in zip(velocity_edges, velocity_edges[1:]):
            cells.append(((a_lo, a_hi), (v_lo, v_hi)))
    return cells


def check_grid(
    out: Path, checkpoint_dir: Path, angle_edges, velocity_edges, cell_episodes: int, ref_episodes: int, seed: int
) -> list:
    rows = read_csv(out / "generalization.csv")
    models = _models(checkpoint_dir)
    cells = _cell_bounds(angle_edges, velocity_edges)
    expected_keys = [(s, a[0], a[1], v[0], v[1]) for s, _, _ in models for a, v in cells]
    bins = ("angle_bin_low", "angle_bin_high", "vel_bin_low", "vel_bin_high")
    keys = [(int(r["seed"]),) + tuple(float(r[b]) for b in bins) for r in rows]
    results = [
        ("grid: one row per (model, cell)", keys == expected_keys, f"{len(rows)} rows, expected {len(expected_keys)}")
    ]
    rates = np.array([float(r["attraction_rate"]) for r in rows])
    results.append(
        (
            f"grid: attraction rates are multiples of 1/{cell_episodes} in [0, 1]",
            all(0 <= x <= 1 and _is_multiple(x, 1 / cell_episodes) for x in rates),
            str(sorted(set(rates.tolist()))),
        )
    )
    if keys != expected_keys:
        return results
    deg = math.pi / 180
    nu, omega, low, high = [], [], [], []
    for _, m_nu, m_omega in models:
        for (a_lo, a_hi), (v_lo, v_hi) in cells:
            for _ in range(ref_episodes):
                nu.append(m_nu)
                omega.append(m_omega)
                low.append([-0.05, -0.05, a_lo * deg, v_lo])
                high.append([0.05, 0.05, a_hi * deg, v_hi])
    rng = np.random.default_rng([seed, 2])
    lengths = ref.episode_lengths(np.array(nu), np.array(omega), np.array(low), np.array(high), 0.0, rng)
    p_ref = float(np.mean(lengths == HORIZON))
    p_prog = float(rates.mean())
    n_prog, n_ref = rates.size * cell_episodes, lengths.size
    pooled = (p_prog * n_prog + p_ref * n_ref) / (n_prog + n_ref)
    bound = Z_BOUND * math.sqrt(pooled * (1 - pooled) * (1 / n_prog + 1 / n_ref)) + 1 / n_prog
    results.append(
        (
            "grid: overall attraction rate within the statistical bound of the reference",
            abs(p_prog - p_ref) <= bound,
            f"{p_prog:.3f} vs {p_ref:.3f} (bound {bound:.3f})",
        )
    )
    return results
