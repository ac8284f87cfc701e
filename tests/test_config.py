"""Config parsing, defaults, strictness, and round-trip serialization."""

import pytest

from qpgrad.config import (
    ExperimentConfig,
    apply_overrides,
    build_config,
    parse_config,
    parse_config_text,
    serialize_config,
)
from qpgrad.errors import ConfigurationError


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
        assert cfg.curr_max_failures == 1000
        assert cfg.curr_validation_threshold == 195.0

    def test_default_grid_matches_protocol(self):
        cfg = build_config({})
        assert len(cfg.grid.angle_bins) == 11
        assert len(cfg.grid.velocity_bins) == 13
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
        assert cfg.grid.angle_bins == ((-12.03, 0.0), (0.0, 12.03))

    def test_curriculum_ranges_must_increase(self):
        with pytest.raises(ConfigurationError, match="curriculum.ranges"):
            build_config({"curriculum.ranges": "0.75,0.25"})


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
        assert parse_config(path) == cfg


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
        cfg = build_config({"curriculum.ranges": "0.25,0.75"})
        sched = cfg.curriculum_schedule()
        assert len(sched.ranges) == 2
        assert sched.ranges[0].theta_dot == (-0.25, 0.25)
        assert sched.ranges[1].theta_dot == (-0.75, 0.75)
        assert sched.ranges[0].x == cfg.init.x
