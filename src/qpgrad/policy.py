"""Two-action policy realized by a layered rotation ansatz with trainable encoding.

Circuit structure (n qubits, L layers): H on every qubit, then per layer and
per qubit an encoding block followed by a variational block,

    RZ(omega[j,i,0] * s_i), RY(omega[j,i,1] * s_i), RZ(nu[j,i,0]), RY(nu[j,i,1]),

with CZ entanglers on every qubit pair between layers. The measured Z^n
expectation ``e`` maps to action probabilities [(e+1)/2, (1-e)/2].

The circuit exists only in packed form: ``CircuitTemplate`` lays it out once
per ``AnsatzSpec`` as the parallel gate arrays (kind, qubit, CZ partner) the
kernels in ``qsim`` take, plus each gate's parameter and feature index, the
one map from nu, omega and the observation to the angles.

The ``rz_rz`` encoding variant applies the second encoding rotation around Z
as well; two successive RZ collapse to one effective angle, which makes one
weight per qubit-layer redundant, so ``rz_ry`` is the default.

Because every rotation generator has spectral norm 1/2 and both projectors
(I +- Z^n)/2 have norm 1, the certified Lipschitz bound of the policy reduces
to sums of |omega| entries; see ``lipschitz_bound``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import qsim
from .errors import ConfigurationError

# Spectral norm of the generator of RY/RZ under the e^{-i a G} convention.
GENERATOR_NORM = 0.5

ENTANGLE_BETWEEN = "between"   # entangling blocks after layers 1..L-1 only
ENTANGLE_EVERY = "every"       # entangling block after every layer
ENCODING_RZ_RY = "rz_ry"
ENCODING_RZ_RZ = "rz_rz"

PARAM_SLOTS = 2  # rotation slots per qubit per layer, for nu and for omega each


@dataclass(frozen=True)
class AnsatzSpec:
    """Static shape of the policy circuit."""

    n_qubits: int = 4
    n_layers: int = 3
    entangler: str = ENTANGLE_BETWEEN
    encoding: str = ENCODING_RZ_RY

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ConfigurationError("ansatz.n_qubits must be >= 1")
        if self.n_layers < 1:
            raise ConfigurationError("ansatz.n_layers must be >= 1")
        if self.entangler not in (ENTANGLE_BETWEEN, ENTANGLE_EVERY):
            raise ConfigurationError(f"unknown entangler placement {self.entangler!r}")
        if self.encoding not in (ENCODING_RZ_RY, ENCODING_RZ_RZ):
            raise ConfigurationError(f"unknown encoding variant {self.encoding!r}")

    @property
    def param_shape(self) -> tuple[int, int, int]:
        return (self.n_layers, self.n_qubits, PARAM_SLOTS)

    @property
    def n_params_each(self) -> int:
        return self.n_layers * self.n_qubits * PARAM_SLOTS


@dataclass
class PolicyParams:
    """Trainable angles: ``nu`` (variational) and ``omega`` (encoding weights).

    Both tensors have shape (layers, qubits, slots) and row-major
    layer/qubit/slot flattening order.
    """

    nu: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        self.nu = np.asarray(self.nu, dtype=np.float64)
        self.omega = np.asarray(self.omega, dtype=np.float64)
        if self.nu.shape != self.omega.shape:
            raise ConfigurationError("nu and omega must have identical shapes")
        if not (np.all(np.isfinite(self.nu)) and np.all(np.isfinite(self.omega))):
            raise ConfigurationError("policy parameters must be finite")

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.nu.copy(), self.omega.copy())


@dataclass(frozen=True)
class LipschitzBound:
    per_action: tuple[float, float]
    total: float


def check_params(spec: AnsatzSpec, params: PolicyParams) -> None:
    if params.nu.shape != spec.param_shape:
        raise ConfigurationError(
            f"parameter shape {params.nu.shape} does not match ansatz {spec.param_shape}"
        )


def zero_params(spec: AnsatzSpec) -> PolicyParams:
    return PolicyParams(np.zeros(spec.param_shape), np.zeros(spec.param_shape))


def init_params(spec: AnsatzSpec, rng: np.random.Generator) -> PolicyParams:
    """Fresh parameters: nu ~ Uniform[-pi, pi], omega ~ Normal(0, 0.1); nu drawn first."""
    nu = rng.uniform(-np.pi, np.pi, size=spec.param_shape)
    omega = rng.normal(0.0, 0.1, size=spec.param_shape)
    return PolicyParams(nu, omega)


class CircuitTemplate:
    """Packed, input-independent form of the ansatz for fast repeated evaluation.

    ``kinds``, ``qa`` and ``qb`` are the gate arrays the kernels take, and
    ``param`` and ``feature`` beside them are the template's one parameter
    map: rotation g takes the variational angle ``nu[param[g]]`` when
    ``feature[g]`` is -1, else the encoding angle
    ``omega[param[g]] * s[feature[g]]``; both are -1 on H and CZ. Each flat
    parameter drives exactly one variational and one encoding rotation, and
    the encoding rotations on qubit q read feature q. ``angles`` fills the
    per-gate angle vectors from parameter tensors and a block of
    observations, one row per observation; ``grad_to_params`` scatters
    per-rotation angle gradients back onto nu/omega (chain factor s_i for
    encoding weights), row by row. The C episode loop reads the same map.
    """

    def __init__(self, spec: AnsatzSpec):
        self.spec = spec
        n = spec.n_qubits
        second_enc = qsim.KIND_RZ if spec.encoding == ENCODING_RZ_RZ else qsim.KIND_RY
        kinds, qa, qb = [qsim.KIND_H] * n, list(range(n)), [-1] * n
        param, feature = [-1] * n, [-1] * n
        for layer in range(spec.n_layers):
            for q in range(n):
                flat = (layer * n + q) * PARAM_SLOTS
                for kind, slot, reads in ((qsim.KIND_RZ, 0, q), (second_enc, 1, q), (qsim.KIND_RZ, 0, -1),
                                          (qsim.KIND_RY, 1, -1)):
                    kinds.append(kind)
                    qa.append(q)
                    qb.append(-1)
                    param.append(flat + slot)
                    feature.append(reads)
            if spec.entangler == ENTANGLE_EVERY or layer < spec.n_layers - 1:
                # CZ is symmetric and CZs commute, so lexicographic pair order is canonical.
                for a, b in combinations(range(n), 2):
                    kinds.append(qsim.KIND_CZ)
                    qa.append(b)
                    qb.append(a)
                    param.append(-1)
                    feature.append(-1)
        self.kinds = np.asarray(kinds, dtype=np.int8)
        self.qa = np.asarray(qa, dtype=np.int32)
        self.qb = np.asarray(qb, dtype=np.int32)
        self.param = np.asarray(param, dtype=np.int32)
        self.feature = np.asarray(feature, dtype=np.int32)
        self.n_gates = len(kinds)
        # Rotation r is the r-th RY/RZ in gate order, as the kernels number their gradients.
        self._column = np.cumsum((self.kinds == qsim.KIND_RY) | (self.kinds == qsim.KIND_RZ)) - 1
        self._variational = np.flatnonzero((self.param >= 0) & (self.feature < 0))
        self._encoding = np.flatnonzero(self.feature >= 0)

    def angles(self, nu_flat: np.ndarray, omega_flat: np.ndarray, obs: np.ndarray) -> np.ndarray:
        """Gate angles for observations ``obs`` of shape (..., n_qubits): shape (..., n_gates)."""
        var, enc = self._variational, self._encoding
        a = np.zeros(obs.shape[:-1] + (self.n_gates,))
        a[..., var] = nu_flat[self.param[var]]
        a[..., enc] = omega_flat[self.param[enc]] * obs[..., self.feature[enc]]
        return a

    def expval(self, nu_flat, omega_flat, obs) -> np.ndarray:
        """<Z^n> for each row of the (B, n_qubits) observations: shape (B,)."""
        a = self.angles(nu_flat, omega_flat, obs)
        return qsim.packed_expval(self.spec.n_qubits, self.kinds, self.qa, self.qb, a)

    def expval_and_grad(self, nu_flat, omega_flat, obs):
        """For (B, n_qubits) observations: (expectations (B,), nu-flat
        gradients (B, P), omega-flat gradients (B, P))."""
        a = self.angles(nu_flat, omega_flat, obs)
        e, grot = qsim.packed_expval_and_grad(self.spec.n_qubits, self.kinds, self.qa, self.qb, a)
        gnu, gom = self.grad_to_params(grot, obs)
        return e, gnu, gom

    def grad_to_params(self, grad_rot: np.ndarray, obs: np.ndarray):
        """(B, rotations) angle gradients as (B, P) nu and omega gradients.

        A scatter, which sets every entry because each flat parameter drives
        exactly one rotation of each kind."""
        var, enc = self._variational, self._encoding
        gnu = np.empty((len(grad_rot), self.spec.n_params_each))
        gom = np.empty_like(gnu)
        gnu[:, self.param[var]] = grad_rot[:, self._column[var]]
        gom[:, self.param[enc]] = grad_rot[:, self._column[enc]] * obs[:, self.feature[enc]]
        return gnu, gom


_templates: dict[AnsatzSpec, CircuitTemplate] = {}


def get_template(spec: AnsatzSpec) -> CircuitTemplate:
    tpl = _templates.get(spec)
    if tpl is None:
        tpl = _templates[spec] = CircuitTemplate(spec)
    return tpl


def probs_from_expectation(e) -> np.ndarray:
    """[(e+1)/2, (1-e)/2] along a new last axis; e is clamped to [-1, 1] against roundoff."""
    e = np.minimum(np.maximum(e, -1.0), 1.0)
    probs = np.empty(np.shape(e) + (2,))
    probs[..., 0] = (e + 1.0) / 2.0
    probs[..., 1] = (1.0 - e) / 2.0
    return probs


def log_policy_coeff(p0, actions) -> np.ndarray:
    """Per-row factor c with grad log pi(a|s) = c * grad<Z^n>, for pi(0|s) = ``p0``
    and ``actions`` 0/False or 1/True.

    grad pi(a|s) = (-1)^a * grad<Z^n> / 2, so c = (-1)^a / (2 pi(a|s)),
    with pi(1|s) taken as 1 - p0. pi(a|s) is clamped at 1e-12, so an action
    of probability ~0 gets a large but finite gradient.
    """
    return np.where(actions, -1.0, 1.0) / (2.0 * np.maximum(np.where(actions, 1.0 - p0, p0), 1e-12))


def _check_obs(spec: AnsatzSpec, obs) -> np.ndarray:
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (spec.n_qubits,):
        raise ConfigurationError(f"observation must have {spec.n_qubits} entries, got {obs.shape}")
    return obs


def policy_probs(spec: AnsatzSpec, params: PolicyParams, obs) -> np.ndarray:
    """Action distribution [pi(0|obs), pi(1|obs)] for one observation."""
    check_params(spec, params)
    obs = _check_obs(spec, obs)
    e = get_template(spec).expval(params.nu.reshape(-1), params.omega.reshape(-1), obs[None])
    return probs_from_expectation(e[0])


def grad_log_policy(spec: AnsatzSpec, params: PolicyParams, obs, action: int):
    """Gradient of log pi(action|obs) w.r.t. (nu, omega), tensors shaped like the params.

    The coefficient is ``log_policy_coeff``'s, as in training.
    """
    check_params(spec, params)
    if action not in (0, 1):
        raise ValueError(f"action must be 0 or 1, got {action}")
    obs = _check_obs(spec, obs)
    tpl = get_template(spec)
    e, gnu, gom = tpl.expval_and_grad(params.nu.reshape(-1), params.omega.reshape(-1), obs[None])
    coeff = log_policy_coeff(probs_from_expectation(e)[:, 0], action)[0]
    shape = spec.param_shape
    return (coeff * gnu[0]).reshape(shape), (coeff * gom[0]).reshape(shape)


def lipschitz_bound(spec: AnsatzSpec, params: PolicyParams) -> LipschitzBound:
    """Certified bound on how fast the policy can change per unit input change.

    Each encoding rotation contributes 2 * ||P_a|| * |omega| * ||H|| to the
    per-action bound; the total bounds the l1 change of the distribution
    vector per l2 change of the input. Independent of nu.
    """
    check_params(spec, params)
    # Both action projectors (I +- Z^n)/2 are orthogonal projectors of
    # spectral norm 1, so ||P_a|| drops out of each per-action bound.
    weight_sum = float(np.sum(np.abs(params.omega))) * GENERATOR_NORM * 2.0
    return LipschitzBound(per_action=(weight_sum, weight_sum), total=weight_sum + weight_sum)


def regularization_penalty(params: PolicyParams, lam: float) -> float:
    """lambda * sum_g omega_g^2 * ||H||^2, the term subtracted from the objective."""
    if lam < 0:
        raise ConfigurationError(f"regularization rate must be >= 0, got {lam}")
    return float(lam * GENERATOR_NORM**2 * np.sum(params.omega**2))


def penalty_gradient(params: PolicyParams, lam: float) -> np.ndarray:
    """Gradient of the penalty w.r.t. omega: 2 * lambda * ||H||^2 * omega."""
    if lam < 0:
        raise ConfigurationError(f"regularization rate must be >= 0, got {lam}")
    return 2.0 * lam * GENERATOR_NORM**2 * params.omega


def empirical_lipschitz_check(
    spec: AnsatzSpec, params: PolicyParams, n_pairs: int, rng: np.random.Generator
) -> float:
    """Max observed ||pi(.|x) - pi(.|x')||_1 / ||x - x'||_2 over random pairs.

    Pairs are drawn uniformly from [-1, 1]^n; exact collisions are resampled.
    The result can never exceed ``lipschitz_bound(...).total``.
    """
    check_params(spec, params)
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    tpl = get_template(spec)
    nu_flat = params.nu.reshape(-1)
    om_flat = params.omega.reshape(-1)
    worst = 0.0
    for _ in range(n_pairs):
        x = rng.uniform(-1.0, 1.0, size=spec.n_qubits)
        x2 = rng.uniform(-1.0, 1.0, size=spec.n_qubits)
        while np.array_equal(x, x2):
            x2 = rng.uniform(-1.0, 1.0, size=spec.n_qubits)
        p, p2 = probs_from_expectation(tpl.expval(nu_flat, om_flat, np.stack([x, x2])))
        ratio = float(np.sum(np.abs(p - p2)) / np.linalg.norm(x - x2))
        if ratio > worst:
            worst = ratio
    return worst
