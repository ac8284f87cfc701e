"""Attraction rate, significance labeling, and the evaluation campaign machinery."""

import numpy as np
import pytest

from qpgrad import evalharness
from qpgrad.cartpole import InitRanges
from qpgrad.errors import ConfigurationError, UsageError
from qpgrad.evalharness import (
    EvalGridSpec,
    Significance,
    attraction_rate,
    generalization_grid,
    map_jobs,
    robustness_sweep,
    significance_label,
)
from qpgrad.policy import AnsatzSpec, zero_params

SPEC = AnsatzSpec()


class TestAttractionRate:
    def test_all_full_horizon(self):
        assert attraction_rate([200.0] * 100) == 1.0

    def test_partial(self):
        rewards = [200.0] * 75 + [143.0] * 25
        assert attraction_rate(rewards) == 0.75

    def test_none(self):
        assert attraction_rate([199.0, 23.0, 180.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            attraction_rate([])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        rewards = rng.choice([200.0, 150.0, 60.0], size=50)
        shuffled = rng.permutation(rewards)
        assert attraction_rate(rewards) == attraction_rate(shuffled)


class TestSignificanceLabel:
    def test_considerably_better(self):
        assert significance_label((0.5, 0.1), (0.8, 0.1)) is Significance.CONSIDERABLY_BETTER

    def test_slightly_better(self):
        # full intervals overlap, half intervals [0.45,0.55] vs [0.57,0.67] do not
        assert significance_label((0.5, 0.1), (0.62, 0.1)) is Significance.SLIGHTLY_BETTER

    def test_identical_neutral(self):
        assert significance_label((0.4, 0.2), (0.4, 0.2)) is Significance.NEUTRAL

    def test_worse_sides(self):
        assert significance_label((0.8, 0.1), (0.5, 0.1)) is Significance.CONSIDERABLY_WORSE
        assert significance_label((0.62, 0.1), (0.5, 0.1)) is Significance.SLIGHTLY_WORSE

    def test_antisymmetry_random(self):
        flip = {
            Significance.CONSIDERABLY_BETTER: Significance.CONSIDERABLY_WORSE,
            Significance.SLIGHTLY_BETTER: Significance.SLIGHTLY_WORSE,
            Significance.NEUTRAL: Significance.NEUTRAL,
            Significance.SLIGHTLY_WORSE: Significance.SLIGHTLY_BETTER,
            Significance.CONSIDERABLY_WORSE: Significance.CONSIDERABLY_BETTER,
        }
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = (rng.uniform(0, 1), rng.uniform(0, 0.3))
            b = (rng.uniform(0, 1), rng.uniform(0, 0.3))
            assert significance_label(a, b) is flip[significance_label(b, a)]

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            significance_label((0.5, -0.1), (0.5, 0.1))


class TestGridSpec:
    def test_default_bin_counts(self):
        grid = EvalGridSpec()
        assert len(grid.angle_bins) == 11
        assert len(grid.velocity_bins) == 13
        assert grid.angle_bins[0] == (-2.75, -2.25)
        assert grid.velocity_bins[-1] == (0.24, 0.26)

    def test_overlapping_bins_rejected(self):
        with pytest.raises(ConfigurationError):
            EvalGridSpec(angle_bins=((0.0, 1.0), (0.5, 1.5)))

    def test_inverted_bin_rejected(self):
        with pytest.raises(ConfigurationError):
            EvalGridSpec(velocity_bins=((0.04, 0.02),))

    def test_cells_angle_major(self):
        grid = EvalGridSpec(angle_bins=((0, 1), (1, 2)), velocity_bins=((0, 0.1),))
        assert grid.cells() == [((0, 1), (0, 0.1)), ((1, 2), (0, 0.1))]


class TestCampaigns:
    def test_robustness_report_structure_and_determinism(self):
        models = [zero_params(SPEC), zero_params(SPEC)]
        sigmas = [0.0, 0.4]
        rep1 = robustness_sweep(models, sigmas, 5, spec=SPEC, seed=3, model_labels=[11, 22])
        rep2 = robustness_sweep(models, sigmas, 5, spec=SPEC, seed=3, model_labels=[11, 22])
        assert rep1.values.shape == (2, 2)
        assert rep1.episode_rewards.shape == (2, 2, 5)
        np.testing.assert_array_equal(rep1.episode_rewards, rep2.episode_rewards)
        assert rep1.model_labels == [11, 22]
        # identical models get identical per-model streams only if indices differ
        assert rep1.means.shape == (2,)

    def test_empty_models_rejected(self):
        with pytest.raises(UsageError):
            robustness_sweep([], [0.0], 5, spec=SPEC)
        with pytest.raises(UsageError):
            generalization_grid([], EvalGridSpec(), spec=SPEC)

    def test_generalization_zero_width_bins(self):
        grid = EvalGridSpec(angle_bins=((0.0, 0.0),), velocity_bins=((0.0, 0.0),), episodes_per_cell=4)
        rep = generalization_grid([zero_params(SPEC)], grid, spec=SPEC, seed=5)
        assert rep.values.shape == (1, 1)
        assert 0.0 <= rep.values[0, 0] <= 1.0

    def test_negative_velocity_bin_aliases_reflected_cell(self):
        # the negative-velocity cell must reproduce its point reflection exactly
        pos = EvalGridSpec(angle_bins=((2.0, 2.5),), velocity_bins=((0.1, 0.2),), episodes_per_cell=6)
        neg = EvalGridSpec(angle_bins=((-2.5, -2.0),), velocity_bins=((-0.2, -0.1),), episodes_per_cell=6)
        params = zero_params(SPEC)
        r_pos = generalization_grid([params], pos, spec=SPEC, seed=9)
        r_neg = generalization_grid([params], neg, spec=SPEC, seed=9)
        np.testing.assert_array_equal(r_pos.values, r_neg.values)

    def test_significance_against_requires_same_points(self):
        models = [zero_params(SPEC)]
        a = robustness_sweep(models, [0.0], 2, spec=SPEC, seed=1)
        b = robustness_sweep(models, [0.1], 2, spec=SPEC, seed=1)
        with pytest.raises(UsageError):
            a.significance_against(b)

    def test_report_labels_against_baseline(self):
        models = [zero_params(SPEC)]
        a = robustness_sweep(models, [0.0], 3, spec=SPEC, seed=1)
        labels = a.significance_against(a)
        assert labels == [Significance.NEUTRAL]


class TestMapJobs:
    def test_pool_is_never_larger_than_the_task_count(self, monkeypatch):
        # the fake executor records its size and maps in-process, so no process is ever started
        sizes = []

        class InProcess:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(evalharness, "ProcessPoolExecutor", InProcess)
        for workers, n_tasks in ((5000, 2), (3, 7), (2, 1), (1, 4), (5000, 0)):
            assert map_jobs(abs, list(range(-n_tasks, 0)), workers) == list(range(n_tasks, 0, -1))
        assert sizes == [2, 3]
