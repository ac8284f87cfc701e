"""Experiment configuration: flat key-value files, strict parsing, manifests.

Config files are plain text, one ``section.key = value`` per line, with
``#`` comments. Unknown keys are rejected (with a close-match suggestion),
values are validated with their key path in the message. An empty config is
the paper-default training setup: 100 epochs, batches of 10 episodes,
learning rate 0.05, discount 0.99, 3 layers on 4 qubits.

``serialize_config`` emits every key in canonical order with full-precision
floats, so ``parse_config(serialize_config(c)) == c``. A run manifest is a
config file with extra ``manifest.*`` metadata lines, which the parser
skips; re-running a subcommand with ``--config <manifest>`` therefore
reproduces the run.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass
from pathlib import Path

from .cartpole import N_FEATURES, InitRanges
from .curriculum import DEFAULT_THETA_DOT_LIMITS, CurriculumSchedule, default_schedule
from .errors import ConfigurationError
from .evalharness import EvalGridSpec
from .policy import (
    ENCODING_RZ_RY,
    ENCODING_RZ_RZ,
    ENTANGLE_BETWEEN,
    ENTANGLE_EVERY,
    AnsatzSpec,
)
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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_list(values) -> str:
    return ",".join(_fmt(v) for v in values)


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


def _parse_sigmas(key: str, raw: str) -> tuple:
    sigmas = _parse_float_list(key, raw)
    if min(sigmas) < 0:
        raise ConfigurationError(f"{key}: noise levels must be >= 0, got {raw!r}")
    return sigmas


def _parse_choice(key: str, raw: str, choices) -> str:
    if raw not in choices:
        raise ConfigurationError(f"{key}: expected one of {choices}, got {raw!r}")
    return raw


# key -> (parser, getter); the insertion order is the canonical file order.
_KEYS: dict = {
    "run.command": (lambda k, v: _parse_choice(k, v, COMMANDS), lambda c: c.command),
    "run.seed": (_parse_int, lambda c: c.seed),
    "run.seeds": (_parse_int, lambda c: c.n_seeds),
    "run.out": (lambda k, v: v, lambda c: c.out_dir),
    "run.workers": (_parse_int, lambda c: c.workers),
    "ansatz.n_qubits": (_parse_int, lambda c: c.ansatz.n_qubits),
    "ansatz.n_layers": (_parse_int, lambda c: c.ansatz.n_layers),
    "ansatz.entangler": (
        lambda k, v: _parse_choice(k, v, (ENTANGLE_BETWEEN, ENTANGLE_EVERY)),
        lambda c: c.ansatz.entangler,
    ),
    "ansatz.encoding": (
        lambda k, v: _parse_choice(k, v, (ENCODING_RZ_RY, ENCODING_RZ_RZ)),
        lambda c: c.ansatz.encoding,
    ),
    "train.epochs": (_parse_int, lambda c: c.train.epochs),
    "train.batch_size": (_parse_int, lambda c: c.train.batch_size),
    "train.learning_rate": (_parse_float, lambda c: c.train.learning_rate),
    "train.gamma": (_parse_float, lambda c: c.train.gamma),
    "train.lambda": (_parse_float, lambda c: c.train.lam),
    "train.optimizer": (
        lambda k, v: _parse_choice(k, v, (OPT_ADAM, OPT_VANILLA)),
        lambda c: c.train.optimizer,
    ),
    "train.baseline": (
        lambda k, v: _parse_choice(k, v, (BASELINE_NONE, BASELINE_BATCH_MEAN)),
        lambda c: c.train.baseline,
    ),
    "train.grad_norm": (
        lambda k, v: _parse_choice(k, v, (NORM_STEPS, NORM_EPISODES)),
        lambda c: c.train.grad_norm,
    ),
    "train.minibatch": (_parse_int, lambda c: c.train.minibatch),
    "train.horizon": (_parse_int, lambda c: c.train.horizon),
    "init.x_low": (_parse_float, lambda c: c.init.x[0]),
    "init.x_high": (_parse_float, lambda c: c.init.x[1]),
    "init.x_dot_low": (_parse_float, lambda c: c.init.x_dot[0]),
    "init.x_dot_high": (_parse_float, lambda c: c.init.x_dot[1]),
    "init.theta_low": (_parse_float, lambda c: c.init.theta[0]),
    "init.theta_high": (_parse_float, lambda c: c.init.theta[1]),
    "init.theta_dot_low": (_parse_float, lambda c: c.init.theta_dot[0]),
    "init.theta_dot_high": (_parse_float, lambda c: c.init.theta_dot[1]),
    "eval.checkpoints": (lambda k, v: v, lambda c: c.eval_checkpoints),
    "eval.sigmas": (_parse_sigmas, lambda c: c.eval_sigmas),
    "eval.episodes": (_parse_int, lambda c: c.eval_episodes),
    "grid.angle_edges": (_parse_float_list, lambda c: _bins_to_edges(c.grid.angle_bins)),
    "grid.velocity_edges": (_parse_float_list, lambda c: _bins_to_edges(c.grid.velocity_bins)),
    "grid.cell_episodes": (_parse_int, lambda c: c.grid.episodes_per_cell),
    "curriculum.ranges": (_parse_float_list, lambda c: c.curr_limits),
    "curriculum.max_failures": (_parse_int, lambda c: c.curr_max_failures),
    "curriculum.validation_episodes": (_parse_int, lambda c: c.curr_validation_episodes),
    "curriculum.validation_threshold": (_parse_float, lambda c: c.curr_validation_threshold),
    "curriculum.validation_period": (_parse_int, lambda c: c.curr_validation_period),
}


def _bins_to_edges(bins) -> tuple:
    edges = [bins[0][0]]
    for lo, hi in bins:
        if lo != edges[-1]:
            raise ConfigurationError("grid bins are not contiguous; cannot serialize as edges")
        edges.append(hi)
    return tuple(edges)


def _edges_to_bins(key: str, edges) -> tuple:
    if len(edges) < 2:
        raise ConfigurationError(f"{key}: need at least two edges")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ConfigurationError(f"{key}: edges must be strictly increasing")
    return tuple((lo, hi) for lo, hi in zip(edges, edges[1:]))


def _suggest(key: str) -> str:
    pool = list(_KEYS)
    hit = difflib.get_close_matches(key, pool, n=1)
    if not hit:
        tail = {k.split(".", 1)[1]: k for k in pool}
        short = difflib.get_close_matches(key.split(".")[-1], list(tail), n=1)
        hit = [tail[short[0]]] if short else []
    return f"; did you mean {hit[0]!r}?" if hit else ""


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse the raw key-value layer; values stay strings (or parsed tuples)."""
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("manifest."):
            continue  # manifests are configs plus metadata; metadata is ignored
        if key not in _KEYS:
            raise ConfigurationError(f"{source}:{lineno}: unknown key {key!r}{_suggest(key)}")
        if key in raw:
            raise ConfigurationError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def build_config(raw: dict) -> ExperimentConfig:
    """Typed config from a raw key->string mapping; missing keys take defaults."""
    for key in raw:
        if key not in _KEYS:
            raise ConfigurationError(f"unknown key {key!r}{_suggest(key)}")
    values = {key: _KEYS[key][0](key, raw[key]) for key in raw}

    def get(key, default):
        return values.get(key, default)

    defaults = ExperimentConfig()
    ansatz = AnsatzSpec(
        n_qubits=get("ansatz.n_qubits", defaults.ansatz.n_qubits),
        n_layers=get("ansatz.n_layers", defaults.ansatz.n_layers),
        entangler=get("ansatz.entangler", defaults.ansatz.entangler),
        encoding=get("ansatz.encoding", defaults.ansatz.encoding),
    )
    train = TrainConfig(
        epochs=get("train.epochs", defaults.train.epochs),
        batch_size=get("train.batch_size", defaults.train.batch_size),
        learning_rate=get("train.learning_rate", defaults.train.learning_rate),
        gamma=get("train.gamma", defaults.train.gamma),
        lam=get("train.lambda", defaults.train.lam),
        optimizer=get("train.optimizer", defaults.train.optimizer),
        baseline=get("train.baseline", defaults.train.baseline),
        grad_norm=get("train.grad_norm", defaults.train.grad_norm),
        minibatch=get("train.minibatch", defaults.train.minibatch),
        horizon=get("train.horizon", defaults.train.horizon),
    )
    init = InitRanges(
        x=(get("init.x_low", defaults.init.x[0]), get("init.x_high", defaults.init.x[1])),
        x_dot=(get("init.x_dot_low", defaults.init.x_dot[0]), get("init.x_dot_high", defaults.init.x_dot[1])),
        theta=(get("init.theta_low", defaults.init.theta[0]), get("init.theta_high", defaults.init.theta[1])),
        theta_dot=(
            get("init.theta_dot_low", defaults.init.theta_dot[0]),
            get("init.theta_dot_high", defaults.init.theta_dot[1]),
        ),
    )
    grid = EvalGridSpec(
        angle_bins=_edges_to_bins(
            "grid.angle_edges", get("grid.angle_edges", _bins_to_edges(defaults.grid.angle_bins))
        ),
        velocity_bins=_edges_to_bins(
            "grid.velocity_edges", get("grid.velocity_edges", _bins_to_edges(defaults.grid.velocity_bins))
        ),
        episodes_per_cell=get("grid.cell_episodes", defaults.grid.episodes_per_cell),
    )
    limits = get("curriculum.ranges", defaults.curr_limits)
    if any(b <= a for a, b in zip(limits, limits[1:])) or limits[0] <= 0:
        raise ConfigurationError("curriculum.ranges must be positive and strictly increasing")
    return ExperimentConfig(
        command=get("run.command", defaults.command),
        seed=get("run.seed", defaults.seed),
        n_seeds=get("run.seeds", defaults.n_seeds),
        out_dir=get("run.out", defaults.out_dir),
        workers=get("run.workers", defaults.workers),
        ansatz=ansatz,
        train=train,
        init=init,
        eval_checkpoints=get("eval.checkpoints", defaults.eval_checkpoints),
        eval_sigmas=get("eval.sigmas", defaults.eval_sigmas),
        eval_episodes=get("eval.episodes", defaults.eval_episodes),
        grid=grid,
        curr_limits=limits,
        curr_max_failures=get("curriculum.max_failures", defaults.curr_max_failures),
        curr_validation_episodes=get("curriculum.validation_episodes", defaults.curr_validation_episodes),
        curr_validation_threshold=get("curriculum.validation_threshold", defaults.curr_validation_threshold),
        curr_validation_period=get("curriculum.validation_period", defaults.curr_validation_period),
    )


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config (or manifest) file."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    return build_config(parse_config_text(path.read_text(), source=str(path)))


def apply_overrides(raw: dict, pairs) -> dict:
    """Fold ``--set key=value`` pairs into a raw mapping (later pairs win)."""
    out = dict(raw)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigurationError(f"unknown key {key!r}{_suggest(key)}")
        out[key] = value.strip()
    return out


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; parses back to an equal config."""
    lines = []
    for key, (_, getter) in _KEYS.items():
        value = getter(config)
        if isinstance(value, tuple):
            lines.append(f"{key} = {_fmt_list(value)}")
        else:
            lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"
