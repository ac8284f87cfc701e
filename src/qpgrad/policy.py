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
from .errors import ConfigurationError, check_int

# Spectral norm of the generator of RY/RZ under the e^{-i a G} convention.
GENERATOR_NORM = 0.5

ENTANGLE_BETWEEN = "between"   # entangling blocks after layers 1..L-1 only
ENTANGLE_EVERY = "every"       # entangling block after every layer
ENCODING_RZ_RY = "rz_ry"
ENCODING_RZ_RZ = "rz_rz"
ENTANGLERS = (ENTANGLE_BETWEEN, ENTANGLE_EVERY)
ENCODINGS = (ENCODING_RZ_RY, ENCODING_RZ_RZ)

PARAM_SLOTS = 2  # rotation slots per qubit per layer, for nu and for omega each
# init_params draws nu ~ Uniform(NU_INIT_RANGE) and omega ~ Normal(0, OMEGA_INIT_STD)
NU_INIT_RANGE = (-np.pi, np.pi)
OMEGA_INIT_STD = 0.1


@dataclass(frozen=True)
class AnsatzSpec:
    """Static shape of the policy circuit."""

    n_qubits: int = 4
    n_layers: int = 3
    entangler: str = ENTANGLE_BETWEEN
    encoding: str = ENCODING_RZ_RY

    def __post_init__(self):
        check_int("ansatz.n_qubits", self.n_qubits, 1)
        check_int("ansatz.n_layers", self.n_layers, 1)
        if self.entangler not in ENTANGLERS:
            raise ConfigurationError(f"unknown entangler placement {self.entangler!r}")
        if self.encoding not in ENCODINGS:
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


def check_params(spec: AnsatzSpec, params: PolicyParams) -> None:
    if params.nu.shape != spec.param_shape:
        raise ConfigurationError(
            f"parameter shape {params.nu.shape} does not match ansatz {spec.param_shape}"
        )


def init_params(spec: AnsatzSpec, rng: np.random.Generator) -> PolicyParams:
    """Fresh parameters: nu ~ Uniform[-pi, pi], omega ~ Normal(0, 0.1); nu drawn first.

    On the ``c`` backend ``trainer.start_params`` makes the same draws in C
    (``_sv_c.Kernel.init_params``); this is their oracle."""
    nu = rng.uniform(*NU_INIT_RANGE, size=spec.param_shape)
    omega = rng.normal(0.0, OMEGA_INIT_STD, size=spec.param_shape)
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
        return qsim._kernel.expval_z_rows(self.spec.n_qubits, self.kinds, self.qa, self.qb, a)

    def expval_and_grad(self, nu_flat, omega_flat, obs):
        """For (B, n_qubits) observations: (expectations (B,), nu-flat
        gradients (B, P), omega-flat gradients (B, P))."""
        a = self.angles(nu_flat, omega_flat, obs)
        e, grot = qsim._kernel.expval_z_and_grad_rows(self.spec.n_qubits, self.kinds, self.qa, self.qb, a)
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


def lipschitz_bound(spec: AnsatzSpec, params: PolicyParams) -> float:
    """Certified bound L = 2 * sum|omega| on how fast the policy can change per unit input change.

    Each encoding rotation contributes 2 * ||P_a|| * |omega| * ||H|| to the
    bound of action a; L, the sum over both actions, bounds the l1 change of
    the distribution vector per l2 change of the input. Independent of nu.
    """
    check_params(spec, params)
    # Both action projectors (I +- Z^n)/2 are orthogonal projectors of
    # spectral norm 1, so ||P_a|| drops out of each action's bound.
    weight_sum = float(np.sum(np.abs(params.omega))) * GENERATOR_NORM * 2.0
    return weight_sum + weight_sum


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
