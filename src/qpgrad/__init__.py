"""Lipschitz-regularized quantum policy gradients on CartPole.

A self-contained lab: exact statevector simulation of the policy circuit
(a C kernel compiled on first import, with a numpy fallback), a from-scratch
CartPole, the regularized REINFORCE trainer, curriculum training with
failure accounting, and robustness/generalization evaluation campaigns, all
driven by a deterministic seeded CLI.
"""

__version__ = "0.1.0"

from .cartpole import EnvState, InitRanges, NoiseModel
from .policy import AnsatzSpec, PolicyParams
from .qsim import BACKEND
from .trainer import TrainConfig

__all__ = [
    "__version__",
    "AnsatzSpec",
    "BACKEND",
    "EnvState",
    "InitRanges",
    "NoiseModel",
    "PolicyParams",
    "TrainConfig",
]
