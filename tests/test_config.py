"""Config parsing, defaults, strictness, and round-trip serialization."""

import math
import re
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qpgrad.cartpole import THETA_INIT_LIMIT, X_LIMIT, InitRanges
from qpgrad.config import (
    _KEYS,
    COMMANDS,
    ExperimentConfig,
    _lookup,
    _parse_int,
    apply_overrides,
    build_config,
    parse_config_text,
    serialize_config,
)
from qpgrad.curriculum import CurriculumSchedule
from qpgrad.errors import ConfigurationError
from qpgrad.evalharness import EvalGridSpec
from qpgrad.trainer import MAX_GRADIENT_BYTES, TrainConfig


def _floats(lo=-1e300, hi=1e300):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _any_floats():
    """Every float, and often one of the values at or past a limit, or a small one that a list then repeats."""
    special = (math.nan, math.inf, -math.inf, -0.5, -0.0, 0.0, 5e-324, 0.1, 0.5, 1.0)
    return st.one_of(st.sampled_from(special), st.floats())


_sigma_lists = st.lists(_any_floats(), max_size=4)


def _increasing_tuples(elements, min_size):
    return st.lists(elements, min_size=min_size, max_size=5, unique=True).map(sorted).map(tuple)


def _increasing(elements, min_size):
    return _increasing_tuples(elements, min_size).map(lambda v: ",".join(map(repr, v)))


_PATHS = st.text("abcXYZ019_-./", min_size=1, max_size=12)


@st.composite
def _run_and_checked_keys(draw):
    """The command and the keys checked against it, each pair left out or set whole: curriculum takes only
    whole-batch minibatches, and a validation threshold below the horizon, which caps every mean reward; the
    two eval commands always name their checkpoints, which the others may leave empty."""
    command = draw(st.sampled_from(COMMANDS))
    raw = {"run.command": command}
    if command.startswith("eval-") or draw(st.booleans()):
        raw["eval.checkpoints"] = draw(_PATHS if command.startswith("eval-") else st.one_of(st.just(""), _PATHS))
    if draw(st.booleans()):
        batch = draw(st.integers(1, 64))
        minibatch = draw(st.sampled_from((0, batch)) if command == "curriculum" else st.integers(0, batch))
        raw |= {"train.batch_size": str(batch), "train.minibatch": str(minibatch)}
    if draw(st.booleans()):
        horizon = draw(st.integers(1, 500))
        threshold = draw(_floats(hi=horizon).filter(lambda t: t < horizon) if command == "curriculum" else _floats())
        raw |= {"train.horizon": str(horizon), "curriculum.validation_threshold": repr(threshold)}
    return raw


def _interval(feature, limit=1e300):
    return st.lists(_floats(-limit, limit), min_size=2, max_size=2).map(sorted).map(
        lambda v: {f"init.{feature}_low": repr(v[0]), f"init.{feature}_high": repr(v[1])}
    )


_SINGLE_KEYS = {
    "run.seed": st.integers(0, 2**64 - 1).map(str),
    "run.seeds": st.integers(1, 50).map(str),
    "run.out": _PATHS,
    "run.workers": st.integers(1, 8).map(str),
    "ansatz.n_qubits": st.integers(1, 4).map(str),
    "ansatz.n_layers": st.integers(1, 6).map(str),
    "ansatz.entangler": st.sampled_from(("between", "every")),
    "ansatz.encoding": st.sampled_from(("rz_ry", "rz_rz")),
    "train.epochs": st.integers(0, 500).map(str),
    "train.learning_rate": _floats(1e-300).map(repr),
    "train.gamma": _floats(0.0, 1.0).map(repr),
    "train.lambda": _floats(0.0).map(repr),
    "train.optimizer": st.sampled_from(("adam", "vanilla")),
    "train.baseline": st.sampled_from(("none", "batch_mean")),
    "train.grad_norm": st.sampled_from(("steps", "episodes")),
    "eval.sigmas": st.lists(_floats(0.0), min_size=1, max_size=5, unique=True).map(lambda v: ",".join(map(repr, v))),
    "eval.episodes": st.integers(1, 500).map(str),
    "grid.angle_edges": _increasing(_floats(-12.03, 12.03), 2),
    "grid.velocity_edges": _increasing(_floats(), 2),
    "grid.cell_episodes": st.integers(1, 500).map(str),
    "curriculum.ranges": _increasing(_floats(5e-324), 1),
    "curriculum.max_failures": st.integers(0, 5000).map(str),
    "curriculum.validation_episodes": st.integers(1, 500).map(str),
    "curriculum.validation_period": st.integers(1, 500).map(str),
}

# The ints each int key takes, alone and beside any other key's: train.minibatch stays within every batch size.
_INTS = {"train.batch_size": st.integers(1, 64), "train.minibatch": st.integers(0, 1),
         "train.horizon": st.integers(1, 500)}
_INT_KEYS = {key: _INTS[key] if key in _INTS else _SINGLE_KEYS[key].map(int)
             for key, (parse, _) in _KEYS.items() if parse is _parse_int}


def _built(values: dict) -> ExperimentConfig:
    """The config built in Python with each key of ``values`` set to its value, at the field path that
    ``_KEYS`` gives, and every other field at its default."""
    defaults = ExperimentConfig()
    at: dict = {}
    for key, value in values.items():
        *section, field = _KEYS[key][1]
        at.setdefault(tuple(section), {})[field] = value
    sections = {path[0]: replace(getattr(defaults, path[0]), **kw) for path, kw in at.items() if path}
    return replace(defaults, **at.get((), {}), **sections)


# Each unit is left out or set whole; the keys of one unit are valid only together.
_UNITS = [
    _run_and_checked_keys(),
    _interval("x", X_LIMIT),
    _interval("x_dot"),
    _interval("theta", THETA_INIT_LIMIT),
    _interval("theta_dot"),
    *(values.map(lambda v, key=key: {key: v}) for key, values in _SINGLE_KEYS.items()),
]


def _raw_configs():
    def merge(units):
        return {key: value for unit in units for key, value in unit.items()}

    return st.tuples(*(st.one_of(st.just({}), unit) for unit in _UNITS)).map(merge)


class TestDefaults:
    def test_empty_config_gives_paper_defaults(self):
        cfg = build_config({})
        assert cfg.train.epochs == 100
        assert cfg.train.batch_size == 10
        assert cfg.train.learning_rate == 0.05
        assert cfg.train.gamma == 0.99
        assert cfg.ansatz.n_layers == 3
        assert cfg.ansatz.n_qubits == 4
        assert cfg.train.lam == 0.0
        assert cfg.init.x == (-0.05, 0.05)
        assert cfg.curriculum.f_max == 1000
        assert cfg.curriculum.validation_threshold == 195.0

    def test_default_grid_matches_protocol(self):
        cfg = build_config({})
        assert len(cfg.grid.angle_edges) == 11 + 1
        assert len(cfg.grid.velocity_edges) == 13 + 1
        assert len(cfg.eval_sigmas) == 9
        assert cfg.eval_sigmas[-1] == 0.8


class TestStrictParsing:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            build_config({"train.lambda": "-0.1"})

    def test_more_qubits_than_cartpole_features_rejected(self):
        # each qubit encodes one of CartPole's 4 features
        assert build_config({"ansatz.n_qubits": "4"}).ansatz.n_qubits == 4
        with pytest.raises(ConfigurationError, match=r"ansatz\.n_qubits must be <= 4.*CartPole feature.*got 5"):
            build_config({"ansatz.n_qubits": "5"})

    def test_unknown_key_suggests(self):
        with pytest.raises(ConfigurationError, match="train.lambda"):
            parse_config_text("lamda = 0.1\n")

    def test_unknown_dotted_key_suggests(self):
        with pytest.raises(ConfigurationError, match="train.lambda"):
            parse_config_text("train.lamda = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config_text("train.epochs = 5\ntrain.epochs = 6\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError, match="key = value"):
            parse_config_text("train.epochs: 5\n")

    def test_bad_value_type_mentions_key(self):
        with pytest.raises(ConfigurationError, match="train.epochs"):
            build_config({"train.epochs": "ten"})

    def test_bad_enum_value(self):
        with pytest.raises(ConfigurationError, match="train.optimizer"):
            build_config({"train.optimizer": "sgd"})

    def test_comments_and_blank_lines_ignored(self):
        raw = parse_config_text("# a comment\n\ntrain.epochs = 7\n")
        assert raw == {"train.epochs": "7"}

    def test_manifest_keys_skipped(self):
        raw = parse_config_text("manifest.version = 0.1.0\ntrain.epochs = 3\n")
        assert raw == {"train.epochs": "3"}

    def test_grid_edges_must_increase(self):
        with pytest.raises(ConfigurationError, match="grid.angle_edges"):
            build_config({"grid.angle_edges": "0.0,1.0,0.5"})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("train.learning_rate", "nan"),
            ("train.lambda", "inf"),
            ("train.gamma", "-inf"),
            ("init.theta_dot_high", "nan"),
            ("curriculum.validation_threshold", "nan"),
            ("curriculum.ranges", "0.25,inf"),
            ("grid.velocity_edges", "0,nan"),
            ("eval.sigmas", "nan"),
            ("eval.sigmas", "-0.5,0.0"),
            ("grid.angle_edges", "-13,0,13"),
            ("grid.angle_edges", "0,12.04"),
            ("init.theta_high", "0.3"),
            ("init.theta_low", "-0.3"),
            ("init.x_low", "0.1"),
            ("init.x_high", "-0.1"),
            ("init.x_high", "2.5"),
        ],
    )
    def test_bad_float_rejected_naming_key(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            build_config({key: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("curriculum.validation_period", "0"),
            ("curriculum.validation_episodes", "0"),
            ("curriculum.max_failures", "-1"),
        ],
    )
    def test_bad_curriculum_count_rejected_naming_key(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            build_config({key: value})

    def test_angle_edges_at_the_theta_limit_accepted(self):
        cfg = build_config({"grid.angle_edges": "-12.03,0,12.03"})
        assert cfg.grid.angle_edges == (-12.03, 0.0, 12.03)

    def test_empty_out_rejected_naming_key(self):
        # the round trips draw only non-empty outputs, since "" would write into the working directory
        for command in COMMANDS:
            with pytest.raises(ConfigurationError, match="run.out"):
                build_config({"run.command": command, "eval.checkpoints": "models", "run.out": ""})
        assert build_config({"run.out": "."}).out_dir == "."

    def test_eval_commands_need_checkpoints_naming_key(self):
        for command in ("eval-robustness", "eval-generalization"):
            with pytest.raises(ConfigurationError, match="eval.checkpoints"):
                build_config({"run.command": command})
            with pytest.raises(ConfigurationError, match="eval.checkpoints"):
                ExperimentConfig(command=command)
        for command in ("train", "curriculum"):  # which read no checkpoints
            assert build_config({"run.command": command}).eval_checkpoints == ""

    def test_curriculum_takes_only_whole_batch_minibatches(self):
        for command, minibatch in (("curriculum", "0"), ("curriculum", "10"), ("train", "5")):
            assert build_config({"run.command": command, "train.minibatch": minibatch}).train.minibatch == int(minibatch)
        with pytest.raises(ConfigurationError, match="train.minibatch"):
            build_config({"run.command": "curriculum", "train.minibatch": "5"})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
    def test_init_ranges_reject_a_non_finite_end_naming_it(self, value):
        for name in ("x", "x_dot", "theta", "theta_dot"):
            for end, pair in (("low", (value, 0.0)), ("high", (0.0, value))):
                message = re.escape(f"init.{name}_{end} must be finite, got {value}")
                with pytest.raises(ConfigurationError, match=message):
                    InitRanges(**{name: pair})

    def test_horizon_whose_gradient_blocks_exceed_the_limit_is_rejected(self):
        # default batches of 10 episodes on theta's 2 * 24 entries: 8 bytes * 480 per step of horizon
        longest = MAX_GRADIENT_BYTES // (8 * 10 * 2 * 24)
        for command in ("train", "curriculum"):
            assert build_config({"run.command": command, "train.horizon": str(longest)}).train.horizon == longest
            with pytest.raises(ConfigurationError, match="train.horizon"):
                build_config({"run.command": command, "train.horizon": str(longest + 1)})
        # minibatches size the block, and only training keeps it
        assert build_config({"train.horizon": str(longest + 1), "train.minibatch": "5"}).train.horizon == longest + 1
        for command in ("eval-robustness", "eval-generalization"):
            raw = {"run.command": command, "eval.checkpoints": "models", "train.horizon": "100000000"}
            assert build_config(raw).train.horizon == 100000000

    def test_forward_batch_whose_arrays_exceed_the_limit_is_rejected(self):
        # 8-byte words per episode: its stream suffix (2 components in eval, 1 in validation), 8 bounds,
        # noise std, length, 4 start and 11 stream state
        cases = [
            ("eval-robustness", "eval.episodes", 9 * 27),  # 9 default noise levels
            ("eval-generalization", "grid.cell_episodes", 11 * 13 * 27),  # 143 default cells
            ("curriculum", "curriculum.validation_episodes", 26),
        ]
        for command, key, words in cases:
            longest = MAX_GRADIENT_BYTES // (8 * words)
            raw = {"run.command": command, "eval.checkpoints": "models"}
            assert build_config({**raw, key: str(longest)}) is not None
            with pytest.raises(ConfigurationError, match=re.escape(f"{key} ({longest + 1}) is too large")):
                build_config({**raw, key: str(longest + 1)})
        # only the command that plays the batch holds it
        big = {"eval.episodes": "100000000", "grid.cell_episodes": "100000000",
               "curriculum.validation_episodes": "1000000000"}
        assert build_config({"run.command": "train", **big}).eval_episodes == 100000000
        assert build_config({"run.command": "eval-robustness", "eval.checkpoints": "models",
                             "grid.cell_episodes": "100000000"}) is not None

    def test_curriculum_threshold_must_lie_below_the_horizon(self):
        # a mean reward is at most the horizon, so validation against a threshold at or above it never passes
        for horizon in ("8", "195"):
            with pytest.raises(ConfigurationError, match="curriculum.validation_threshold .* train.horizon"):
                build_config({"run.command": "curriculum", "train.horizon": horizon})
        cfg = build_config({"run.command": "curriculum", "train.horizon": "8", "curriculum.validation_threshold": "7.5"})
        assert (cfg.train.horizon, cfg.curriculum.validation_threshold) == (8, 7.5)
        assert build_config({"run.command": "train", "train.horizon": "8"}).train.horizon == 8

    def test_keys_of_one_section_checked_together(self):
        # applied one key at a time, minibatch 20 or x_low 1 would meet the other key's default and fail
        cfg = build_config({"train.batch_size": "20", "train.minibatch": "20", "init.x_low": "1", "init.x_high": "2"})
        assert (cfg.train.batch_size, cfg.train.minibatch, cfg.init.x) == (20, 20, (1.0, 2.0))

    def test_curriculum_ranges_must_increase(self):
        with pytest.raises(ConfigurationError, match="curriculum.ranges"):
            build_config({"curriculum.ranges": "0.75,0.25"})


class TestSectionChecks:
    """``TrainConfig``, ``EvalGridSpec``, ``CurriculumSchedule`` and ``ExperimentConfig`` check their own values,
    so a section built directly fails as its keys do."""

    @pytest.mark.parametrize(
        "section, values, key, raw",
        [
            (EvalGridSpec, {"angle_edges": (1.0,)}, "grid.angle_edges", "1.0"),
            (EvalGridSpec, {"angle_edges": (0.0, 1.0, 0.5)}, "grid.angle_edges", "0,1,0.5"),
            (EvalGridSpec, {"angle_edges": (-13.0, 0.0, 13.0)}, "grid.angle_edges", "-13,0,13"),
            (EvalGridSpec, {"velocity_edges": (0.1,)}, "grid.velocity_edges", "0.1"),
            (EvalGridSpec, {"velocity_edges": (0.1, 0.1)}, "grid.velocity_edges", "0.1,0.1"),
            (EvalGridSpec, {"episodes_per_cell": 0}, "grid.cell_episodes", "0"),
            (CurriculumSchedule, {"theta_dot_limits": (0.75, 0.25)}, "curriculum.ranges", "0.75,0.25"),
            (CurriculumSchedule, {"theta_dot_limits": (0.0, 0.25)}, "curriculum.ranges", "0,0.25"),
            (CurriculumSchedule, {"f_max": -1}, "curriculum.max_failures", "-1"),
            (CurriculumSchedule, {"validation_episodes": 0}, "curriculum.validation_episodes", "0"),
            (CurriculumSchedule, {"validation_period": 0}, "curriculum.validation_period", "0"),
            (ExperimentConfig, {"eval_sigmas": (-0.5, 0.0)}, "eval.sigmas", "-0.5,0.0"),
            (ExperimentConfig, {"eval_sigmas": ()}, "eval.sigmas", ""),
            (ExperimentConfig, {"eval_sigmas": (0.1, 0.1)}, "eval.sigmas", "0.1,0.1"),
        ],
    )
    def test_bad_section_value_fails_as_its_key_does(self, section, values, key, raw):
        with pytest.raises(ConfigurationError, match=re.escape(key)) as direct:
            section(**values)
        with pytest.raises(ConfigurationError) as parsed:
            build_config({key: raw})
        assert str(direct.value) == str(parsed.value)

    @pytest.mark.parametrize(
        "section, values, key",
        [
            (EvalGridSpec, {"angle_edges": (0.0, float("nan"))}, "grid.angle_edges"),
            (EvalGridSpec, {"velocity_edges": (0.0, float("inf"))}, "grid.velocity_edges"),
            (EvalGridSpec, {"velocity_edges": (float("-inf"), 0.0)}, "grid.velocity_edges"),
            (CurriculumSchedule, {"theta_dot_limits": (0.25, float("inf"))}, "curriculum.ranges"),
            (CurriculumSchedule, {"theta_dot_limits": (float("nan"),)}, "curriculum.ranges"),
            (CurriculumSchedule, {"validation_threshold": float("nan")}, "curriculum.validation_threshold"),
            (TrainConfig, {"learning_rate": float("nan")}, "train.learning_rate"),
            (TrainConfig, {"learning_rate": float("inf")}, "train.learning_rate"),
            (TrainConfig, {"lam": float("nan")}, "train.lambda"),
            (TrainConfig, {"lam": float("inf")}, "train.lambda"),
            (ExperimentConfig, {"eval_sigmas": (float("nan"),)}, "eval.sigmas"),
            (ExperimentConfig, {"eval_sigmas": (float("inf"),)}, "eval.sigmas"),
        ],
    )
    def test_non_finite_section_value_rejected_naming_key(self, section, values, key):
        # a config never gets this far: its parser rejects every non-finite number
        with pytest.raises(ConfigurationError, match=re.escape(key)):
            section(**values)

    @pytest.mark.parametrize(
        "section, values, raw, key",
        [
            (InitRanges, {"x_dot": (-1e308, 1e308)}, {"init.x_dot_low": "-1e308", "init.x_dot_high": "1e308"},
             "init.x_dot_low/high"),
            (InitRanges, {"theta_dot": (-1e308, 1e308)},
             {"init.theta_dot_low": "-1e308", "init.theta_dot_high": "1e308"}, "init.theta_dot_low/high"),
            (CurriculumSchedule, {"theta_dot_limits": (0.25, 1e308)}, {"curriculum.ranges": "0.25,1e308"},
             "curriculum.ranges"),
            (EvalGridSpec, {"velocity_edges": (-1e308, 1e308)}, {"grid.velocity_edges": "-1e308,1e308"},
             "grid.velocity_edges"),
            (EvalGridSpec, {"velocity_edges": (-1.5e308, -1e308, 8e307)},
             {"grid.velocity_edges": "-1.5e308,-1e308,8e307"}, "grid.velocity_edges"),
        ],
    )
    def test_interval_whose_width_overflows_rejected_naming_key(self, section, values, raw, key):
        # a start is drawn as lo + (hi - lo) * u, which an infinite width makes infinite
        for make in (lambda: section(**values), lambda: build_config(raw)):
            with pytest.raises(ConfigurationError, match=re.escape(f"{key}: the width of")):
                make()

    def test_huge_interval_of_finite_width_accepted(self):
        # only each interval's own width counts: the edges -1e308, 0, 1e308 span more than the largest float
        cfg = build_config({"init.theta_dot_low": "-1e300", "init.theta_dot_high": "1e300",
                            "curriculum.ranges": "0.25,8e307", "grid.velocity_edges": "-1e308,0,1e308"})
        assert (cfg.init.theta_dot, cfg.curriculum.theta_dot_limits[-1]) == ((-1e300, 1e300), 8e307)
        assert cfg.grid.velocity_edges == (-1e308, 0.0, 1e308)
        assert build_config({"grid.velocity_edges": "1e308,1.7e308"}).grid.velocity_edges == (1e308, 1.7e308)


class TestRoundTrip:
    def test_default_round_trip(self):
        cfg = ExperimentConfig()
        assert build_config(parse_config_text(serialize_config(cfg))) == cfg

    def test_custom_round_trip(self):
        raw = {
            "run.command": "curriculum",
            "run.seed": "987654321",
            "run.seeds": "3",
            "train.lambda": "0.17",
            "train.optimizer": "vanilla",
            "init.theta_dot_low": "-0.3",
            "init.theta_dot_high": "0.3",
            "eval.sigmas": "0.0,0.25,0.5",
            "curriculum.ranges": "0.3,0.9",
        }
        cfg = build_config(raw)
        assert build_config(parse_config_text(serialize_config(cfg))) == cfg

    def test_parse_file_round_trip(self, tmp_path):
        cfg = build_config({"train.lambda": "0.3", "run.out": "somewhere"})
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        assert build_config(parse_config_text(path.read_text())) == cfg

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_raw_configs())
    def test_random_config_round_trip(self, raw):
        cfg = build_config(raw)
        text = serialize_config(cfg)
        again = build_config(parse_config_text(text))
        assert again == cfg
        assert serialize_config(again) == text

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(COMMANDS),
        st.builds(EvalGridSpec, _increasing_tuples(_floats(-12.03, 12.03), 2), _increasing_tuples(_floats(), 2),
                  st.integers(1, 500)),
        st.builds(CurriculumSchedule, _increasing_tuples(_floats(5e-324), 1), st.integers(0, 5000),
                  st.integers(1, 500), _floats(), st.integers(1, 500)),
    )
    def test_every_grid_and_schedule_round_trips(self, command, grid, schedule):
        # each section keeps its settings as the config writes them, so a manifest can always be written
        try:
            cfg = ExperimentConfig(command=command, eval_checkpoints="models", grid=grid, curriculum=schedule)
        except ConfigurationError:
            reject()  # a curriculum whose validation threshold is not below the horizon
        assert build_config(parse_config_text(serialize_config(cfg))) == cfg

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        st.fixed_dictionaries({}, optional={f"train.{name}": _any_floats() for name in ("learning_rate", "gamma",
                                                                                          "lambda")}),
        # an int key also draws its ints as floats, and bools, which must fail naming the key
        st.fixed_dictionaries({}, optional={key: st.one_of(ints, ints.map(float), st.booleans())
                                            for key, ints in _INT_KEYS.items()}),
        st.one_of(st.just(ExperimentConfig().eval_sigmas), _sigma_lists, _sigma_lists.map(tuple)),
    )
    def test_every_config_built_in_python_round_trips(self, floats, ints, sigmas):
        # a config built in Python either fails naming the key of a value that fails alone, or can be re-run
        values = floats | ints | {"eval.sigmas": sigmas}
        try:
            cfg = _built(values)
        except ConfigurationError as error:
            key = str(error).split()[0].rstrip(":")
            with pytest.raises(ConfigurationError, match=re.escape(key)):
                _built({key: values[key]})
            return
        assert build_config(parse_config_text(serialize_config(cfg))) == cfg


class TestKeyTable:
    def test_every_field_has_exactly_one_key(self):
        defaults = ExperimentConfig()
        paths = [path for _, path in _KEYS.values()]
        for path in paths:
            _lookup(defaults, path)
        expected = []
        for field in fields(defaults):
            value = getattr(defaults, field.name)
            if not is_dataclass(value):
                expected.append((field.name,))
            elif isinstance(value, InitRanges):
                expected += [(field.name, f.name, end) for f in fields(value) for end in (0, 1)]
            else:
                expected += [(field.name, f.name) for f in fields(value) if (field.name, f.name) != ("train", "seed")]
        assert sorted(paths) == sorted(expected)


class TestOverrides:
    def test_set_pairs_win(self):
        raw = apply_overrides({"train.lambda": "0.1"}, ["train.lambda=0.2"])
        assert raw["train.lambda"] == "0.2"

    def test_set_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_overrides({}, ["train.lamda=0.2"])

    def test_set_requires_equals(self):
        with pytest.raises(ConfigurationError):
            apply_overrides({}, ["train.lambda"])


class TestScheduleConstruction:
    def test_curriculum_schedule_from_config(self):
        # each range keeps the init ranges of x, x_dot and theta, and replaces theta_dot's
        cfg = build_config({"curriculum.ranges": "0.25,0.75", "init.x_low": "-0.1", "init.theta_dot_low": "-9"})
        ranges = cfg.curriculum.ranges(cfg.init)
        assert [r.theta_dot for r in ranges] == [(-0.25, 0.25), (-0.75, 0.75)]
        assert all((r.x, r.x_dot, r.theta) == (cfg.init.x, cfg.init.x_dot, cfg.init.theta) for r in ranges)
        assert ranges[0].x == (-0.1, 0.05)
