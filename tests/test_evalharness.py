"""Attraction rate, significance labeling, and the evaluation campaign machinery."""

import concurrent.futures

import numpy as np
import pytest

from qpgrad.cartpole import InitRanges
from qpgrad.errors import ConfigurationError, UsageError
from qpgrad.evalharness import (
    EvalGridSpec,
    Significance,
    attraction_rates,
    generalization_grid,
    map_jobs,
    robustness_sweep,
    significance_label,
)
from qpgrad.policy import AnsatzSpec, PolicyParams

SPEC = AnsatzSpec()


class TestAttractionRate:
    def test_all_full_horizon(self):
        assert attraction_rates([200.0] * 100) == 1.0

    def test_partial(self):
        rewards = [200.0] * 75 + [143.0] * 25
        assert attraction_rates(rewards) == 0.75

    def test_none(self):
        assert attraction_rates([199.0, 23.0, 180.0]) == 0.0

    def test_empty_rejected(self):
        for empty in ([], np.zeros((3, 0)), 200.0):
            with pytest.raises(UsageError):
                attraction_rates(empty)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        rewards = rng.choice([200.0, 150.0, 60.0], size=50)
        shuffled = rng.permutation(rewards)
        assert attraction_rates(rewards) == attraction_rates(shuffled)

    def test_bulk_rates_are_the_bits_of_one_row_at_a_time(self):
        # the rates of a (models, points, episodes) block, against the per-row mean the grid took before
        rng = np.random.default_rng(1)
        for horizon in (1, 7, 200):
            for shape in ((1, 1, 1), (2, 6, 2), (3, 143, 100), (4, 5, 7)):
                rewards = rng.choice([float(horizon), horizon - 0.5, 0.0, horizon + 1.0], size=shape)
                rows = np.array([[float(np.mean(row == float(horizon))) for row in model] for model in rewards])
                rates = attraction_rates(rewards, horizon)
                assert rates.shape == shape[:2]
                assert np.array_equal(rates.view(np.int64), rows.view(np.int64))


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
        cells = EvalGridSpec().cells()
        assert len(cells) == 11 * 13
        assert cells[0] == ((-2.75, -2.25), (0.0, 0.02))
        assert cells[-1] == ((2.25, 2.75), (0.24, 0.26))

    def test_overlapping_bins_rejected(self):
        # edges that turn back make a second bin (1.0, 0.5) that overlaps the first
        with pytest.raises(ConfigurationError, match="grid.angle_edges"):
            EvalGridSpec(angle_edges=(0.0, 1.0, 0.5))

    def test_inverted_bin_rejected(self):
        with pytest.raises(ConfigurationError, match="grid.velocity_edges"):
            EvalGridSpec(velocity_edges=(0.04, 0.02))

    def test_cells_angle_major(self):
        grid = EvalGridSpec(angle_edges=(0, 1, 2), velocity_edges=(0, 0.1))
        assert grid.cells() == [((0, 1), (0, 0.1)), ((1, 2), (0, 0.1))]


class TestCampaigns:
    def test_robustness_report_structure_and_determinism(self):
        models = [PolicyParams(np.zeros(SPEC.param_shape), np.zeros(SPEC.param_shape))] * 2
        sigmas = [0.0, 0.4]
        rep1 = robustness_sweep(models, sigmas, 5, spec=SPEC, seed=3, model_labels=[11, 22])
        rep2 = robustness_sweep(models, sigmas, 5, spec=SPEC, seed=3, model_labels=[11, 22])
        assert rep1.values.shape == (2, 2)
        assert rep1.episode_rewards.shape == (2, 2, 5)
        np.testing.assert_array_equal(rep1.episode_rewards, rep2.episode_rewards)
        assert rep1.model_labels == [11, 22]

    def test_empty_models_rejected(self):
        with pytest.raises(UsageError):
            robustness_sweep([], [0.0], 5, spec=SPEC)
        with pytest.raises(UsageError):
            generalization_grid([], EvalGridSpec(), spec=SPEC)

    def test_generalization_narrowest_bins(self):
        # the narrowest bins that edges can express: two consecutive floats
        tiny = np.nextafter(0.0, 1.0)
        grid = EvalGridSpec(angle_edges=(0.0, tiny), velocity_edges=(0.0, tiny), episodes_per_cell=4)
        params = PolicyParams(np.zeros(SPEC.param_shape), np.zeros(SPEC.param_shape))
        rep = generalization_grid([params], grid, spec=SPEC, seed=5)
        assert rep.values.shape == (1, 1)
        assert 0.0 <= rep.values[0, 0] <= 1.0

    def test_negative_velocity_bin_aliases_reflected_cell(self):
        # the negative-velocity cell must reproduce its point reflection exactly
        pos = EvalGridSpec(angle_edges=(2.0, 2.5), velocity_edges=(0.1, 0.2), episodes_per_cell=6)
        neg = EvalGridSpec(angle_edges=(-2.5, -2.0), velocity_edges=(-0.2, -0.1), episodes_per_cell=6)
        params = PolicyParams(np.zeros(SPEC.param_shape), np.zeros(SPEC.param_shape))
        r_pos = generalization_grid([params], pos, spec=SPEC, seed=9)
        r_neg = generalization_grid([params], neg, spec=SPEC, seed=9)
        np.testing.assert_array_equal(r_pos.values, r_neg.values)


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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        for workers, n_tasks in ((5000, 2), (3, 7), (2, 1), (1, 4), (5000, 0)):
            assert map_jobs(abs, list(range(-n_tasks, 0)), workers) == list(range(n_tasks, 0, -1))
        assert sizes == [2, 3]
