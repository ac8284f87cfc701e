"""From-scratch cart-pole dynamics with normalization and observation noise.

Physics follows the canonical benchmark: force +-10 N, cart mass 1.0 kg,
pole mass 0.1 kg, half-pole length 0.5 m, g = 9.8 m/s^2, explicit Euler at
dt = 0.02 s (positions update with the old velocities). Each executed step
pays reward +1; an episode ends when |x| > 2.4, |theta| > 0.2095 rad, or the
horizon is reached, so total reward always equals episode length.

Observations are normalized feature-wise by (2.4, 2.5, 0.21, 2.5); the
velocity factors only hold for typically encountered values, so normalized
velocities may leave [-1, 1] and are deliberately not clipped. Observation
noise is additive zero-mean Gaussian per normalized feature and never
touches the underlying state.

A state is a raw row (x, x_dot, theta, theta_dot); ``step_batch`` steps a
(B, 4) block of them at once, with the expressions of a single step applied
element by element. numpy's ``cos``, ``sin`` and ``float_power(., 2)`` give
the bits of ``math.cos``, ``math.sin`` and ``float ** 2`` on the platforms
the tests pin, so a row's result does not depend on the block. The C
kernel's episode loop (``_sv_c.c``) repeats ``normalize`` and
``step_batch`` with those same libm calls and the constants below, which
``_sv_c.py`` passes to it, and its tests hold it to the bits of these
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

GRAVITY = 9.8
CART_MASS = 1.0
POLE_MASS = 0.1
TOTAL_MASS = CART_MASS + POLE_MASS
HALF_POLE_LENGTH = 0.5
POLE_MASS_LENGTH = POLE_MASS * HALF_POLE_LENGTH
FORCE_MAG = 10.0
TIME_STEP = 0.02

X_LIMIT = 2.4
THETA_LIMIT = 0.2095
# Initial pole angles may start anywhere up to the normalization scale.
THETA_INIT_LIMIT = 0.21
HORIZON = 200

# Feature order everywhere: (x, x_dot, theta, theta_dot).
NORM_FACTORS = np.array([2.4, 2.5, 0.21, 2.5])
N_FEATURES = len(NORM_FACTORS)  # the policy encodes one per qubit, so at most 4 qubits
_BOUNDS = np.array([X_LIMIT, THETA_LIMIT])  # on |x| and |theta|


@dataclass(frozen=True)
class InitRanges:
    """Closed sampling intervals per feature, in raw (unnormalized) units."""

    x: tuple[float, float] = (-0.05, 0.05)
    x_dot: tuple[float, float] = (-0.05, 0.05)
    theta: tuple[float, float] = (-0.05, 0.05)
    theta_dot: tuple[float, float] = (-0.05, 0.05)

    def __post_init__(self):
        limits = {"x": X_LIMIT, "theta": THETA_INIT_LIMIT}
        for name, (lo, hi) in self.items():
            for end, value in (("low", lo), ("high", hi)):
                if not math.isfinite(value):
                    raise ConfigurationError(f"init.{name}_{end} must be finite, got {value}")
            if lo > hi:
                raise ConfigurationError(f"init.{name}_low must be <= init.{name}_high, got [{lo}, {hi}]")
            if not math.isfinite(hi - lo):  # a start is drawn as lo + (hi - lo) * u
                raise ConfigurationError(f"init.{name}_low/high: the width of [{lo}, {hi}] overflows a float")
            limit = limits.get(name, math.inf)
            if lo < -limit:
                raise ConfigurationError(f"init.{name}_low must be >= -{limit}, got {lo}")
            if hi > limit:
                raise ConfigurationError(f"init.{name}_high must be <= {limit}, got {hi}")

    def items(self):
        return (("x", self.x), ("x_dot", self.x_dot), ("theta", self.theta), ("theta_dot", self.theta_dot))

    @property
    def bounds(self) -> np.ndarray:
        """(4, 2) rows of (low, high) in feature order, as ``reset`` takes them."""
        return np.array([r for _, r in self.items()], dtype=np.float64)


def reset(bounds: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fresh raw state with features drawn independently and uniformly within
    the (4, 2) ``bounds`` of ``InitRanges.bounds``; draw order x, x_dot,
    theta, theta_dot. The C kernel's ``start_episodes`` draws the same.

    Ranges may legally touch the sliver between the termination bound and
    the admissible range (e.g. theta in (0.2095, 0.21]), so a fresh state
    can already be ``out_of_bounds``.
    """
    return np.array([rng.uniform(lo, hi) for lo, hi in bounds.tolist()])


def out_of_bounds(states: np.ndarray) -> np.ndarray:
    """(B,) mask of the rows of a (B, 4) block of raw states with |x| > 2.4 or |theta| > 0.2095."""
    out = np.abs(states[:, 0::2]) > _BOUNDS
    return out[:, 0] | out[:, 1]


def step_batch(states: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One explicit-Euler step of every row of a (B, 4) block of raw states
    under its action, 0 or False (push left) or 1 or True (push right).

    Returns the new (B, 4) states and their ``out_of_bounds`` mask; the
    horizon is the caller's.
    """
    theta, theta_dot = states[:, 2], states[:, 3]
    force = np.where(actions, FORCE_MAG, -FORCE_MAG)
    ct, st = np.cos(theta), np.sin(theta)
    temp = (force + POLE_MASS_LENGTH * np.float_power(theta_dot, 2) * st) / TOTAL_MASS
    theta_acc = (GRAVITY * st - ct * temp) / (
        HALF_POLE_LENGTH * (4.0 / 3.0 - POLE_MASS * ct * ct / TOTAL_MASS)
    )
    x_acc = temp - POLE_MASS_LENGTH * theta_acc * ct / TOTAL_MASS
    # Positions move with the old velocities: d/dt (x, x_dot, theta, theta_dot).
    rates = np.empty(states.shape)
    rates[:, 0::2] = states[:, 1::2]
    rates[:, 1] = x_acc
    rates[:, 3] = theta_acc
    new = states + TIME_STEP * rates
    return new, out_of_bounds(new)


def normalize(states: np.ndarray) -> np.ndarray:
    """(x/2.4, x_dot/2.5, theta/0.21, theta_dot/2.5) of each row of raw
    states, as a new array: noise added to it never touches the states."""
    return states / NORM_FACTORS
