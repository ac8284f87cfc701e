"""The exact bytes the row writers and ``write_csv`` give hand-made result blocks."""

import numpy as np

from qpgrad import reports
from qpgrad.cartpole import InitRanges
from qpgrad.curriculum import CurriculumResult, RangeOutcome

# two models whose labels are not in sorted order: rows follow the labels as given
LABELS = [7, 3]


def written(tmp_path, header, rows) -> bytes:
    path = tmp_path / "out.csv"
    reports.write_csv(path, header, rows)
    return path.read_bytes()


def test_robustness_rows_are_model_major_then_sigma_then_episode(tmp_path):
    rewards = np.array([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 200.0]]])
    rows = reports.robustness_rows(LABELS, (0.0, 0.1), rewards)
    assert written(tmp_path, reports.ROBUSTNESS_HEADER, rows) == (
        b"seed,sigma,episode,reward\n"
        b"7,0,0,1\n"
        b"7,0,1,2\n"
        b"7,0.10000000000000001,0,3\n"
        b"7,0.10000000000000001,1,4\n"
        b"3,0,0,5\n"
        b"3,0,1,6\n"
        b"3,0.10000000000000001,0,7\n"
        b"3,0.10000000000000001,1,200\n"
    )


def test_generalization_rows_are_model_major_then_cell(tmp_path):
    cells = [((-2.75, -2.25), (0.0, 0.02)), ((-2.75, -2.25), (0.02, 0.04))]
    rates = np.array([[1 / 3, 0.5], [0.0, 1.0]])
    rows = reports.generalization_rows(LABELS, cells, rates)
    assert written(tmp_path, reports.GENERALIZATION_HEADER, rows) == (
        b"seed,angle_bin_low,angle_bin_high,vel_bin_low,vel_bin_high,attraction_rate\n"
        b"7,-2.75,-2.25,0,0.02,0.33333333333333331\n"
        b"7,-2.75,-2.25,0.02,0.040000000000000001,0.5\n"
        b"3,-2.75,-2.25,0,0.02,0\n"
        b"3,-2.75,-2.25,0.02,0.040000000000000001,1\n"
    )


def test_curriculum_rows_write_passed_as_true_or_false(tmp_path):
    outcomes = [
        RangeOutcome(ranges=InitRanges(theta_dot=(-0.25, 0.25)), failures=3, passed=True, validation_mean=196.5),
        RangeOutcome(ranges=InitRanges(theta_dot=(-0.7, 0.7)), failures=0, passed=False),
    ]
    result = CurriculumResult(per_range=outcomes, total_failures=3, converged=False, episodes=40)
    assert written(tmp_path, reports.CURRICULUM_HEADER, reports.curriculum_rows(11, result)) == (
        b"seed,range_index,range_low,range_high,failures,passed,validation_mean\n"
        b"11,0,-0.25,0.25,3,true,196.5\n"
        b"11,1,-0.69999999999999996,0.69999999999999996,0,false,nan\n"
    )


def test_no_rows_is_the_header_and_one_newline(tmp_path):
    assert written(tmp_path, reports.ROBUSTNESS_HEADER, []) == b"seed,sigma,episode,reward\n"
