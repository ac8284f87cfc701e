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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cartpole import N_FEATURES
from .errors import ConfigurationError
from .policy import ENCODINGS, ENTANGLERS, GENERATOR_NORM, AnsatzSpec, PolicyParams

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
    """A float, or an int small enough to convert to one."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _field(path: Path, doc: dict, name: str, check=lambda value: isinstance(value, str), rule=None):
    """``doc[name]`` if it passes ``check`` (by default: is a string) and then the ``(predicate, text)``
    ``rule``, when given; errors name the file and the field."""
    if name not in doc:
        raise ConfigurationError(f"checkpoint {path}: missing field {name!r}")
    value = doc[name]
    if not check(value):
        raise ConfigurationError(f"checkpoint {path}: field {name!r} has the wrong type: {value!r}")
    if rule is not None and not rule[0](value):
        raise ConfigurationError(f"checkpoint {path}: field {name!r} must be {rule[1]}, got {value!r}")
    return value


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"checkpoint {path} does not exist")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"checkpoint {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"checkpoint {path} is not a JSON object")
    if doc.get("format") != FORMAT_TAG:
        raise ConfigurationError(f"checkpoint {path} has unknown format {doc.get('format')!r}")
    at_least_one = (lambda value: value >= 1, ">= 1")
    n_qubits = _field(path, doc, "n_qubits", _is_int, at_least_one)
    if n_qubits > N_FEATURES:
        raise ConfigurationError(f"checkpoint {path}: field 'n_qubits' must be <= {N_FEATURES}, one qubit per "
                                 f"CartPole feature (there are {N_FEATURES}), got {n_qubits}")
    ansatz = AnsatzSpec(
        n_qubits=n_qubits,
        n_layers=_field(path, doc, "n_layers", _is_int, at_least_one),
        entangler=_field(path, doc, "entangler", rule=(ENTANGLERS.__contains__, f"one of {ENTANGLERS}")),
        encoding=_field(path, doc, "encoding", rule=(ENCODINGS.__contains__, f"one of {ENCODINGS}")),
    )
    _field(path, doc, "generator_norm", _is_number, (lambda value: value == GENERATOR_NORM, GENERATOR_NORM))
    shape = ansatz.param_shape
    n = ansatz.n_params_each
    nu = np.asarray(_field(path, doc, "nu", _is_numbers), dtype=np.float64)
    omega = np.asarray(_field(path, doc, "omega", _is_numbers), dtype=np.float64)
    if nu.shape != (n,) or omega.shape != (n,):
        raise ConfigurationError(
            f"checkpoint {path}: parameter length {nu.shape}/{omega.shape} does not match ansatz ({n},)"
        )
    lam = float(_field(path, doc, "lambda", _is_number, (lambda value: 0 <= value < np.inf, "finite and >= 0")))
    for name, values in (("nu", nu), ("omega", omega)):
        if not np.all(np.isfinite(values)):  # json.loads accepts NaN and Infinity
            raise ConfigurationError(f"checkpoint {path}: field {name!r} must hold finite numbers only")
    params = PolicyParams(nu.reshape(shape), omega.reshape(shape))
    # the seed keys random streams, whose path components must be >= 0
    seed = _field(path, doc, "seed", _is_int, (lambda value: value >= 0, ">= 0"))
    return Checkpoint(ansatz=ansatz, params=params, lam=lam, seed=seed)
