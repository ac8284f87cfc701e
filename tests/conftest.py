import numpy as np
import pytest

from qpgrad import qsim
from qpgrad.cartpole import InitRanges
from qpgrad.policy import AnsatzSpec
from qpgrad.seeding import derive_run_seeds
from qpgrad.trainer import TrainConfig, train

# Seed picked (and pinned) because it converges to a near-optimal policy
# under the default configuration; the fixture asserts that it still does.
CONVERGING_SEED = derive_run_seeds(12345, 5)[1]


def pytest_terminal_summary(terminalreporter):
    # The summary, unlike the report header, is printed under -q as well.
    terminalreporter.write_line(f"qpgrad kernel backend: {qsim.BACKEND}")


@pytest.fixture(scope="session")
def trained_policy():
    """A converged default-config policy shared by curriculum/eval tests."""
    cfg = TrainConfig(seed=CONVERGING_SEED)
    params, records = train(cfg, AnsatzSpec(), InitRanges())
    final10 = float(np.mean([r.mean_reward for r in records[-10:]]))
    assert final10 >= 190.0, f"fixture seed no longer converges (final10={final10})"
    return params, records
