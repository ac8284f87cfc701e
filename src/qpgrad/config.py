"""Experiment configuration: flat key-value files, strict parsing, manifests.

Config files are plain text, one ``section.key = value`` per line, with
``#`` comments. Unknown keys are rejected (with a close-match suggestion),
values are validated with their key path in the message. An empty config is
the paper-default training setup: 100 epochs, batches of 10 episodes,
learning rate 0.05, discount 0.99, 3 layers on 4 qubits.

One table, ``_KEYS``, declares every key once: its parser and the path of
its field in ``ExperimentConfig``. Parsing, building and serializing all
read it, so a new key is one line there plus its field.

``serialize_config`` emits every key in canonical order with full-precision
floats, so ``build_config(parse_config_text(serialize_config(c))) == c``. A
run manifest is a config file with extra ``manifest.*`` metadata lines,
which ``parse_config_text`` skips and ``manifest_fields`` reads; re-running a
command with ``--config <manifest>`` therefore reproduces the run.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, replace

from .cartpole import N_FEATURES, InitRanges
from .curriculum import DEFAULT_THETA_DOT_LIMITS, CurriculumSchedule, default_schedule
from .errors import ConfigurationError
from .evalharness import EvalGridSpec
from .policy import ENCODINGS, ENTANGLERS, AnsatzSpec
from .trainer import (
    BASELINE_BATCH_MEAN,
    BASELINE_NONE,
    NORM_EPISODES,
    NORM_STEPS,
    OPT_ADAM,
    OPT_VANILLA,
    TrainConfig,
)

COMMANDS = ("train", "curriculum", "eval-robustness", "eval-generalization")

DEFAULT_SIGMAS = tuple(round(0.1 * i, 1) for i in range(9))


@dataclass(frozen=True)
class ExperimentConfig:
    command: str = "train"
    seed: int = 12345
    n_seeds: int = 10
    out_dir: str = "results"
    workers: int = 1
    ansatz: AnsatzSpec = AnsatzSpec()
    train: TrainConfig = TrainConfig()
    init: InitRanges = InitRanges()
    eval_checkpoints: str = ""
    eval_sigmas: tuple = DEFAULT_SIGMAS
    eval_episodes: int = 100
    grid: EvalGridSpec = EvalGridSpec()
    curr_limits: tuple = DEFAULT_THETA_DOT_LIMITS
    curr_max_failures: int = CurriculumSchedule.f_max  # the schedule's own defaults
    curr_validation_episodes: int = CurriculumSchedule.validation_episodes
    curr_validation_threshold: float = CurriculumSchedule.validation_threshold
    curr_validation_period: int = CurriculumSchedule.validation_period

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigurationError(f"run.command must be one of {COMMANDS}, got {self.command!r}")
        if self.seed < 0:
            raise ConfigurationError("run.seed must be >= 0")
        if self.n_seeds < 1:
            raise ConfigurationError("run.seeds must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("run.workers must be >= 1")
        if self.eval_episodes < 1:
            raise ConfigurationError("eval.episodes must be >= 1")
        if self.ansatz.n_qubits > N_FEATURES:
            raise ConfigurationError(f"ansatz.n_qubits must be <= {N_FEATURES}, one qubit per CartPole feature "
                                     f"(there are {N_FEATURES}), got {self.ansatz.n_qubits}")
        if self.command == "curriculum" and self.train.minibatch not in (0, self.train.batch_size):
            raise ConfigurationError(f"train.minibatch: curriculum updates on whole batches, so it must be 0 or "
                                     f"train.batch_size ({self.train.batch_size}), got {self.train.minibatch}")
        if self.command == "curriculum" and self.curr_validation_threshold >= self.train.horizon:
            raise ConfigurationError(
                f"curriculum.validation_threshold ({self.curr_validation_threshold!r}) must be below train.horizon "
                f"({self.train.horizon}): validation passes only when the mean reward, which is at most the horizon, "
                f"exceeds the threshold")
        self.curriculum_schedule()  # its checks name the curriculum keys

    def curriculum_schedule(self) -> CurriculumSchedule:
        return default_schedule(
            base=self.init,
            theta_dot_limits=self.curr_limits,
            f_max=self.curr_max_failures,
            validation_episodes=self.curr_validation_episodes,
            validation_threshold=self.curr_validation_threshold,
            validation_period=self.curr_validation_period,
        )


_DEFAULTS = ExperimentConfig()


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        if isinstance(value[0], tuple):  # grid bins are written as their edges
            value = _bins_to_edges(value)
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{key}: expected a finite number, got {raw!r}")
    return value


def _parse_float_list(key: str, raw: str) -> tuple:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigurationError(f"{key}: expected a comma-separated list of numbers")
    return tuple(_parse_float(key, s) for s in items)


def _parse_str(key: str, raw: str) -> str:
    return raw


def _parse_sigmas(key: str, raw: str) -> tuple:
    sigmas = _parse_float_list(key, raw)
    if min(sigmas) < 0:
        raise ConfigurationError(f"{key}: noise levels must be >= 0, got {raw!r}")
    return sigmas


def _parse_limits(key: str, raw: str) -> tuple:
    limits = _parse_float_list(key, raw)
    if any(b <= a for a, b in zip(limits, limits[1:])) or limits[0] <= 0:
        raise ConfigurationError(f"{key} must be positive and strictly increasing")
    return limits


def _edges_to_bins(key: str, raw: str) -> tuple:
    edges = _parse_float_list(key, raw)
    if len(edges) < 2:
        raise ConfigurationError(f"{key}: need at least two edges")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ConfigurationError(f"{key}: edges must be strictly increasing")
    return tuple((lo, hi) for lo, hi in zip(edges, edges[1:]))


def _bins_to_edges(bins) -> tuple:
    edges = [bins[0][0]]
    for lo, hi in bins:
        if lo != edges[-1]:
            raise ConfigurationError("grid bins are not contiguous; cannot serialize as edges")
        edges.append(hi)
    return tuple(edges)


def _choice(*choices):
    def parse(key: str, raw: str) -> str:
        if raw not in choices:
            raise ConfigurationError(f"{key}: expected one of {choices}, got {raw!r}")
        return raw

    return parse


# key -> (parser, path of its field in ExperimentConfig); an int step picks
# one end of an init interval. The insertion order is the canonical file order.
_KEYS: dict = {
    "run.command": (_choice(*COMMANDS), ("command",)),
    "run.seed": (_parse_int, ("seed",)),
    "run.seeds": (_parse_int, ("n_seeds",)),
    "run.out": (_parse_str, ("out_dir",)),
    "run.workers": (_parse_int, ("workers",)),
    "ansatz.n_qubits": (_parse_int, ("ansatz", "n_qubits")),
    "ansatz.n_layers": (_parse_int, ("ansatz", "n_layers")),
    "ansatz.entangler": (_choice(*ENTANGLERS), ("ansatz", "entangler")),
    "ansatz.encoding": (_choice(*ENCODINGS), ("ansatz", "encoding")),
    "train.epochs": (_parse_int, ("train", "epochs")),
    "train.batch_size": (_parse_int, ("train", "batch_size")),
    "train.learning_rate": (_parse_float, ("train", "learning_rate")),
    "train.gamma": (_parse_float, ("train", "gamma")),
    "train.lambda": (_parse_float, ("train", "lam")),
    "train.optimizer": (_choice(OPT_ADAM, OPT_VANILLA), ("train", "optimizer")),
    "train.baseline": (_choice(BASELINE_NONE, BASELINE_BATCH_MEAN), ("train", "baseline")),
    "train.grad_norm": (_choice(NORM_STEPS, NORM_EPISODES), ("train", "grad_norm")),
    "train.minibatch": (_parse_int, ("train", "minibatch")),
    "train.horizon": (_parse_int, ("train", "horizon")),
    "init.x_low": (_parse_float, ("init", "x", 0)),
    "init.x_high": (_parse_float, ("init", "x", 1)),
    "init.x_dot_low": (_parse_float, ("init", "x_dot", 0)),
    "init.x_dot_high": (_parse_float, ("init", "x_dot", 1)),
    "init.theta_low": (_parse_float, ("init", "theta", 0)),
    "init.theta_high": (_parse_float, ("init", "theta", 1)),
    "init.theta_dot_low": (_parse_float, ("init", "theta_dot", 0)),
    "init.theta_dot_high": (_parse_float, ("init", "theta_dot", 1)),
    "eval.checkpoints": (_parse_str, ("eval_checkpoints",)),
    "eval.sigmas": (_parse_sigmas, ("eval_sigmas",)),
    "eval.episodes": (_parse_int, ("eval_episodes",)),
    "grid.angle_edges": (_edges_to_bins, ("grid", "angle_bins")),
    "grid.velocity_edges": (_edges_to_bins, ("grid", "velocity_bins")),
    "grid.cell_episodes": (_parse_int, ("grid", "episodes_per_cell")),
    "curriculum.ranges": (_parse_limits, ("curr_limits",)),
    "curriculum.max_failures": (_parse_int, ("curr_max_failures",)),
    "curriculum.validation_episodes": (_parse_int, ("curr_validation_episodes",)),
    "curriculum.validation_threshold": (_parse_float, ("curr_validation_threshold",)),
    "curriculum.validation_period": (_parse_int, ("curr_validation_period",)),
}


def _lookup(config, path):
    for step in path:
        config = config[step] if isinstance(step, int) else getattr(config, step)
    return config


def _check_key(key: str, where: str = "") -> None:
    """Rejects a key that ``_KEYS`` does not declare, suggesting the closest one."""
    if key in _KEYS:
        return
    hit = difflib.get_close_matches(key, list(_KEYS), n=1)
    if not hit:
        tail = {k.split(".", 1)[1]: k for k in _KEYS}
        short = difflib.get_close_matches(key.split(".")[-1], list(tail), n=1)
        hit = [tail[short[0]]] if short else []
    hint = f"; did you mean {hit[0]!r}?" if hit else ""
    raise ConfigurationError(f"{where}unknown key {key!r}{hint}")


def _entries(text: str, source: str):
    """Yields ``(where, key, value)`` for each ``key = value`` line of a config file."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        yield f"{source}:{lineno}: ", key.strip(), value.strip()


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse the raw key-value layer; values stay strings."""
    raw: dict = {}
    for where, key, value in _entries(text, source):
        if key.startswith("manifest."):
            continue  # manifest metadata, which manifest_fields reads, is not config
        _check_key(key, where)
        if key in raw:
            raise ConfigurationError(f"{where}duplicate key {key!r}")
        raw[key] = value
    return raw


def manifest_fields(text: str, source: str = "<config>") -> dict:
    """The ``manifest.*`` lines of a config file, keyed by the name after ``manifest.``."""
    return {
        key.removeprefix("manifest."): value
        for _, key, value in _entries(text, source)
        if key.startswith("manifest.")
    }


def build_config(raw: dict) -> ExperimentConfig:
    """Typed config from a raw key->string mapping; missing keys take defaults.

    The values are grouped by section first, and each section is rebuilt
    once, so checks across its fields see every value of the mapping.
    """
    top: dict = {}
    sections: dict = {}  # section -> {field: value}
    for key, text in raw.items():
        _check_key(key)
        parse, (name, *below) = _KEYS[key]
        value = parse(key, text)
        if not below:
            top[name] = value
            continue
        values = sections.setdefault(name, {})
        field, *end = below
        if end:  # one end of an interval
            interval = list(values.get(field, _lookup(_DEFAULTS, (name, field))))
            interval[end[0]] = value
            value = tuple(interval)
        values[field] = value
    for name, values in sections.items():
        top[name] = replace(getattr(_DEFAULTS, name), **values)
    return replace(_DEFAULTS, **top)


def apply_overrides(raw: dict, pairs) -> dict:
    """Fold ``--set key=value`` pairs into a raw mapping (later pairs win)."""
    out = dict(raw)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        _check_key(key)
        out[key] = value.strip()
    return out


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; parses back to an equal config."""
    return "".join(f"{key} = {_fmt(_lookup(config, path))}\n" for key, (_, path) in _KEYS.items())
