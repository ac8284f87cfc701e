"""Policy checkpoint persistence.

A checkpoint is a small JSON document holding the ansatz shape, both
parameter tensors flattened in row-major layer/qubit/slot order at full
double precision (JSON floats round-trip exactly), the regularization rate
used in training, and the RNG seed of the run that produced it. It also
records the norm of the rotation generators, which is fixed at 0.5; a
checkpoint with any other value is rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cartpole import N_FEATURES
from .errors import ConfigurationError
from .policy import GENERATOR_NORM, AnsatzSpec, PolicyParams

FORMAT_TAG = "qpgrad-checkpoint-v1"


@dataclass(frozen=True)
class Checkpoint:
    ansatz: AnsatzSpec
    params: PolicyParams
    lam: float
    seed: int


def save_checkpoint(path, ansatz: AnsatzSpec, params: PolicyParams, lam: float, seed: int) -> None:
    doc = {
        "format": FORMAT_TAG,
        "n_qubits": ansatz.n_qubits,
        "n_layers": ansatz.n_layers,
        "entangler": ansatz.entangler,
        "encoding": ansatz.encoding,
        "generator_norm": GENERATOR_NORM,
        "nu": params.nu.reshape(-1).tolist(),
        "omega": params.omega.reshape(-1).tolist(),
        "lambda": lam,
        "seed": seed,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _field(path: Path, doc: dict, name: str, check=lambda value: isinstance(value, str)):
    """``doc[name]`` if it passes ``check`` (by default: is a string); errors name the file and the field."""
    if name not in doc:
        raise ConfigurationError(f"checkpoint {path}: missing field {name!r}")
    if not check(doc[name]):
        raise ConfigurationError(f"checkpoint {path}: field {name!r} has the wrong type: {doc[name]!r}")
    return doc[name]


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"checkpoint {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"checkpoint {path} is not a JSON object")
    if doc.get("format") != FORMAT_TAG:
        raise ConfigurationError(f"checkpoint {path} has unknown format {doc.get('format')!r}")
    ansatz = AnsatzSpec(
        n_qubits=_field(path, doc, "n_qubits", _is_int),
        n_layers=_field(path, doc, "n_layers", _is_int),
        entangler=_field(path, doc, "entangler"),
        encoding=_field(path, doc, "encoding"),
    )
    if ansatz.n_qubits > N_FEATURES:
        raise ConfigurationError(f"checkpoint {path}: field 'n_qubits' must be <= {N_FEATURES}, one qubit per "
                                 f"CartPole feature (there are {N_FEATURES}), got {ansatz.n_qubits}")
    if _field(path, doc, "generator_norm", _is_number) != GENERATOR_NORM:
        raise ConfigurationError(
            f"checkpoint {path}: field 'generator_norm' must be {GENERATOR_NORM}, got {doc['generator_norm']!r}"
        )
    shape = ansatz.param_shape
    n = ansatz.n_params_each
    nu = np.asarray(_field(path, doc, "nu", _is_numbers), dtype=np.float64)
    omega = np.asarray(_field(path, doc, "omega", _is_numbers), dtype=np.float64)
    if nu.shape != (n,) or omega.shape != (n,):
        raise ConfigurationError(
            f"checkpoint {path}: parameter length {nu.shape}/{omega.shape} does not match ansatz ({n},)"
        )
    params = PolicyParams(nu.reshape(shape), omega.reshape(shape))
    lam = float(_field(path, doc, "lambda", _is_number))
    seed = _field(path, doc, "seed", _is_int)
    if seed < 0:  # the seed keys random streams, whose path components must be >= 0
        raise ConfigurationError(f"checkpoint {path}: field 'seed' must be >= 0, got {seed}")
    return Checkpoint(ansatz=ansatz, params=params, lam=lam, seed=seed)
