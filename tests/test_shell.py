"""Config files, rng streams, checkpoints, episode logs, and the CLI."""
import dataclasses
import json
import os
import struct
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import camtrack
from camtrack import nn
from camtrack.cli import _build_parser, cli_main
from camtrack.config import ConfigError, EpisodeConfig, TrainConfig, load_config, save_config
from camtrack.evaluate import StepRecord, run_episode
from camtrack.geometry import CameraPose
from camtrack.io import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    train_log_writer,
    write_episode_log,
)
from camtrack.rng import RngStream
from camtrack.training import UpdateStats, train_pose_controller
from camtrack.world import Visibility


class TestConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        episode, train = load_config(path)
        assert episode == EpisodeConfig()
        assert train == TrainConfig()

    def test_partial_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"n_cameras": 6, "gamma": 0.9, "obstacle_size_range": [1, 2]}')
        episode, train = load_config(path)
        assert episode.n_cameras == 6
        assert episode.obstacle_size_range == (1.0, 2.0)
        assert train.gamma == 0.9

    def test_minimum_cameras_enforced(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"n_cameras": 1}')
        with pytest.raises(ConfigError, match="n_cameras"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"n_camras": 4}')
        with pytest.raises(ConfigError, match="n_camras"):
            load_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"n_cameras": }')
        with pytest.raises(ConfigError, match="malformed"):
            load_config(path)

    def test_bad_range_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"target_speed_range": [0.2, 0.05]}')
        with pytest.raises(ConfigError, match="target_speed_range"):
            load_config(path)

    def test_bad_type_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"rollout_len": 2.5}')
        with pytest.raises(ConfigError, match="rollout_len"):
            load_config(path)

    @pytest.mark.parametrize("entry, key", [
        ('"learning_rate": Infinity', "learning_rate"),
        ('"grad_clip": Infinity', "grad_clip"),
        ('"gamma": NaN', "gamma"),
        ('"entropy_coeff": -Infinity', "entropy_coeff"),
        ('"arena_half": NaN', "arena_half"),
        ('"camera_height_range": [2, Infinity]', "camera_height_range"),
        ('"target_speed_range": [NaN, 0.2]', "target_speed_range"),
    ])
    def test_non_finite_rejected(self, tmp_path, entry, key):
        path = tmp_path / "c.json"
        path.write_text("{" + entry + "}")
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    def test_non_finite_rejected_by_validate(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=float("inf")).validate()
        with pytest.raises(ConfigError, match="camera_height_range"):
            EpisodeConfig(camera_height_range=(2.0, float("inf"))).validate()

    @pytest.mark.parametrize("key, hi", [("camera_height_range", 20.5),
                                         ("obstacle_height_range", 1e308),
                                         ("target_speed_range", 1.5)])
    def test_range_upper_bounds(self, key, hi):
        with pytest.raises(ConfigError, match=key):
            EpisodeConfig(**{key: (0.5, hi)}).validate()

    def test_range_upper_bounds_are_inclusive(self):
        EpisodeConfig(camera_height_range=(2.0, 20.0),
                      obstacle_height_range=(1.0, 20.0),
                      target_speed_range=(0.05, 1.0)).validate()

    def test_p_pose_lower_bound(self):
        with pytest.raises(ConfigError, match="p_pose"):
            TrainConfig(p_pose=0.009).validate()
        TrainConfig(p_pose=0.01).validate()

    def test_rollout_len_upper_bound(self):
        with pytest.raises(ConfigError, match="rollout_len"):
            TrainConfig(rollout_len=501).validate()
        TrainConfig(rollout_len=500).validate()

    @pytest.mark.parametrize("kwargs, message", [
        ({"arena_half": 4.9}, "arena_half"),
        ({"arena_half": 20.5}, "arena_half"),
        ({"n_obstacles": -1}, "n_obstacles"),
        ({"n_obstacles": 16}, "n_obstacles"),
        ({"arena_half": 5.0, "obstacle_size_range": (1.0, 10.0)}, "does not fit"),
    ])
    def test_episode_bounds_rejected(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            EpisodeConfig(**kwargs).validate()

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", 0.0), ("entropy_coeff", -0.005), ("value_coeff", 0.0),
        ("grad_clip", -5.0), ("rollout_len", 0), ("n_envs", 0),
    ])
    def test_train_bounds_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: value}).validate()

    @pytest.mark.parametrize("text, message", [
        ('{"obstacle_size_range": [1, 2, 3]}', "obstacle_size_range"),
        ('{"obstacle_size_range": 1.5}', "obstacle_size_range"),
        ('{"camera_height_range": [2, "3"]}', "camera_height_range"),
        ('{"target_speed_range": [true, 0.2]}', "target_speed_range"),
        ('{"gamma": "0.9"}', "gamma must be a number"),
        ('{"arena_half": false}', "arena_half must be a number"),
        ('[{"seed": 1}]', "single JSON object"),
    ])
    def test_malformed_values_rejected(self, tmp_path, text, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 1, "gamma": 0.9, "seed": 2}')
        with pytest.raises(ConfigError, match="duplicate config key: 'seed'"):
            load_config(path)

    def test_round_trip_is_canonical(self, tmp_path):
        src = tmp_path / "src.json"
        src.write_text('{"n_cameras": 5, "seed": 7}')
        episode, train = load_config(src)
        out1 = tmp_path / "a.json"
        save_config(episode, train, out1)
        episode2, train2 = load_config(out1)
        assert (episode2, train2) == (episode, train)
        out2 = tmp_path / "b.json"
        save_config(episode2, train2, out2)
        assert out1.read_bytes() == out2.read_bytes()


# every config key with its kind, read from its dataclass field's type: int,
# float, or tuple for a [lo, hi] pair
CONFIG_KEYS = [(f.name, typing.get_origin(hint) or hint)
               for cls in (EpisodeConfig, TrainConfig)
               for f in dataclasses.fields(cls)
               for hint in [typing.get_type_hints(cls)[f.name]]]


class TestConfigKeys:
    @pytest.fixture
    def kinds_only(self, monkeypatch):
        """load_config with validate off, so that only the kind checks act."""
        for cls in (EpisodeConfig, TrainConfig):
            monkeypatch.setattr(cls, "validate", lambda self: None)

    @staticmethod
    def _load(tmp_path, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value}))
        episode, train = load_config(path)
        return getattr(episode if hasattr(episode, key) else train, key)

    def test_every_kind_is_one_load_config_reads(self):
        assert {kind for _, kind in CONFIG_KEYS} <= {int, float, tuple}

    @pytest.mark.parametrize("key, kind", CONFIG_KEYS, ids=[k for k, _ in CONFIG_KEYS])
    def test_each_key_reads_only_its_kind(self, key, kind, tmp_path, kinds_only):
        """A key added to either config class later is covered here with no
        edit: an int key stays an int, a float key reads an integer as a
        float, a range key reads a pair as a tuple of floats, and a value of
        another kind raises a ConfigError that names the key."""
        if kind is int:
            got, bad = self._load(tmp_path, key, 100), [2.5, True]
            assert type(got) is int and got == 100
        elif kind is float:
            got, bad = self._load(tmp_path, key, 3), ["x"]
            assert type(got) is float and got == 3.0
        else:
            got, bad = self._load(tmp_path, key, [1, 2]), [1.5, [1.0, 2.0, 3.0]]
            assert got == (1.0, 2.0) and all(type(v) is float for v in got)
        for value in bad:
            with pytest.raises(ConfigError, match=f"^{key} must be "):
                self._load(tmp_path, key, value)

    def test_negative_total_steps_rejected(self):
        with pytest.raises(ConfigError, match="total_steps must be >= 0, got -1"):
            TrainConfig(total_steps=-1).validate()
        TrainConfig(total_steps=0).validate()


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a, b = RngStream(42, 3), RngStream(42, 3)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_distinct_streams_differ(self):
        a, b = RngStream(42, 0), RngStream(42, 1)
        assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]

    def test_stream_independence_correlation(self):
        a, b = RngStream(7, 0), RngStream(7, 1)
        xs = np.array([a.random() for _ in range(10_000)])
        ys = np.array([b.random() for _ in range(10_000)])
        r = np.corrcoef(xs, ys)[0, 1]
        assert abs(r) < 0.05

    def test_uniformity(self):
        rng = RngStream(11, 0)
        xs = np.array([rng.random() for _ in range(50_000)])
        assert 0.49 < xs.mean() < 0.51
        assert xs.min() >= 0.0 and xs.max() < 1.0

    def test_uniform_bounds(self):
        rng = RngStream(1, 2)
        for _ in range(1000):
            v = rng.uniform(-3.0, 5.0)
            assert -3.0 <= v < 5.0

    def test_randint_bounds_and_coverage(self):
        rng = RngStream(2, 0)
        seen = {rng.randint(3, 7) for _ in range(1000)}
        assert seen == {3, 4, 5, 6, 7}
        with pytest.raises(ValueError):
            rng.randint(5, 4)

    def test_equality_tracks_state(self):
        a, b = RngStream(5, 5), RngStream(5, 5)
        assert a == b
        a.next_u64()
        assert a != b
        b.next_u64()
        assert a == b


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params = nn.init_params(9)
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for (_, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype == np.float64

    def test_truncated_file(self, tmp_path):
        params = nn.init_params(9)
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, path)
        data = path.read_bytes()
        (tmp_path / "trunc.ckpt").write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(tmp_path / "trunc.ckpt")

    def test_cut_anywhere_reads_as_truncated(self, tmp_path):
        """A file cut inside the magic or the version, or inside any array's
        name length, name, rank, dims or values, reads as truncated."""
        path = tmp_path / "p.ckpt"
        save_checkpoint(nn.init_params(9), path)
        data = path.read_bytes()
        cuts = set(range(8))
        offset = 8
        for name, shape, _, _ in nn.PARAM_SPECS:
            header = 4 + len(name) + 4 + 4 * len(shape)
            cuts.update(range(offset, offset + header + 1))
            offset += header + 8 * int(np.prod(shape))
            cuts.add(offset - 1)
        assert offset == len(data)
        for n in sorted(cuts):
            path.write_bytes(data[:n])
            with pytest.raises(CheckpointError, match="is truncated"):
                load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        params = nn.init_params(9)
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 2)
        (tmp_path / "v2.ckpt").write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version 2"):
            load_checkpoint(tmp_path / "v2.ckpt")

    def test_trailing_garbage(self, tmp_path):
        params = nn.init_params(9)
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, path)
        (tmp_path / "g.ckpt").write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(tmp_path / "g.ckpt")

    def test_wrong_array_name(self, tmp_path):
        params = nn.init_params(9)
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        # first array header: magic(4) version(4) namelen(4) name
        name_len = struct.unpack_from("<I", data, 8)[0]
        data[12 + name_len - 1] = ord("x")
        (tmp_path / "n.ckpt").write_bytes(bytes(data))
        with pytest.raises(CheckpointError,
                           match="expected array 'embed_w', found 'embed_x'"):
            load_checkpoint(tmp_path / "n.ckpt")

    def test_wrong_shape(self, tmp_path):
        params = nn.init_params(9)
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        # first array header: magic(4) version(4) namelen(4) name(7) rank(4) dim0
        name_len = struct.unpack_from("<I", data, 8)[0]
        dim0_off = 8 + 4 + name_len + 4
        data[dim0_off:dim0_off + 4] = struct.pack("<I", 99)
        (tmp_path / "s.ckpt").write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(tmp_path / "s.ckpt")


def _round9(x: float) -> float:
    return float(format(x, ".9g"))


def reference_log(records) -> str:
    """The episode log as dicts of _round9 floats through strict json.dumps."""
    lines = []
    for rec in records:
        cams = [{"pose": [_round9(v) for v in (p.x, p.y, p.z, p.pitch_deg,
                                               p.yaw_deg, p.zoom)],
                 "action": a, "vis": vis.value, "g": g, "r": _round9(r),
                 "da": _round9(da), "db": _round9(db), "dxi": _round9(dxi)}
                for p, a, vis, g, r, da, db, dxi in zip(
                    rec.poses, rec.actions, rec.visibility, rec.labels,
                    rec.rewards, rec.d_alpha, rec.d_beta, rec.d_xi)]
        obj = {"t": rec.t, "target": [_round9(v) for v in rec.target], "cams": cams}
        lines.append(json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n")
    return "".join(lines)


# Every branch of the writer's float formatting: zeros of both signs,
# integral values, ".9g" exponent forms below 1e-4, the 9-digit rounding of
# a value above 1e8 to an integer, and ".9g"'s exponent form from 1e9 where
# repr stays positional until 1e16.
EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 3.0, 180.0, 1e-05, 1.2345e-07,
               123456789.5, 1.5e9, 1e16, 0.1, 2.0 / 3.0, 1e-4, 99999.99999]


def float_record(value: float) -> StepRecord:
    """A two-camera step record with value in every float slot."""
    pose = CameraPose(value, value, value, value, value, value)
    return StepRecord(t=7, target=(value, value, value), poses=[pose, pose],
                      actions=[3, 10], visibility=[Visibility.VISIBLE,
                                                   Visibility.OUT_OF_VIEW],
                      labels=[1, 0], rewards=[value, value],
                      d_alpha=[value, value], d_beta=[value, value],
                      d_xi=[value, value])


class TestEpisodeLog:
    def test_empty_records_empty_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_episode_log([], path)
        assert path.read_text() == ""

    def test_line_count_and_round_trip(self, tmp_path):
        records = run_episode(EpisodeConfig(), "geometric", seed=6, steps=40)
        path = tmp_path / "e.jsonl"
        write_episode_log(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 40
        for line, rec in zip(lines, records):
            obj = json.loads(line)
            assert obj["t"] == rec.t
            assert len(obj["cams"]) == len(rec.poses)
            for cam, pose, vis, g, r in zip(obj["cams"], rec.poses,
                                            rec.visibility, rec.labels,
                                            rec.rewards):
                assert cam["vis"] in ("V", "O", "X") and cam["vis"] == vis.value
                assert cam["g"] == g
                assert cam["r"] == pytest.approx(r, rel=1e-8, abs=1e-8)
                assert cam["pose"][0] == pytest.approx(pose.x, rel=1e-8, abs=1e-8)
                assert cam["pose"][4] == pytest.approx(pose.yaw_deg, rel=1e-8, abs=1e-8)
                assert 0 <= cam["action"] < 11

    def test_non_finite_value_rejected(self, tmp_path):
        records = run_episode(EpisodeConfig(), "sv", seed=2, steps=3)
        records[1] = dataclasses.replace(
            records[1], rewards=[float("nan")] + records[1].rewards[1:])
        path = tmp_path / "e.jsonl"
        with pytest.raises(ValueError):
            write_episode_log(records, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_edge_values_equal_the_reference(self, tmp_path, value):
        # the value and its negation in every float slot of a record
        records = [float_record(value), float_record(-value)]
        path = tmp_path / "e.jsonl"
        write_episode_log(records, path)
        assert path.read_text(encoding="utf-8") == reference_log(records)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=13, max_size=13))
    def test_any_finite_values_equal_the_reference(self, values):
        record = float_record(0.0)
        pose = CameraPose(*values[:6])
        record = dataclasses.replace(
            record, target=tuple(values[6:9]), poses=[pose, pose],
            rewards=[values[9], values[10]], d_alpha=[values[11], 1.0],
            d_beta=[1.0, values[12]])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.jsonl"
            write_episode_log([record], path)
            assert path.read_text(encoding="utf-8") == reference_log([record])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("slot", ["pose", "reward", "target", "da", "db", "dxi"])
    def test_non_finite_in_every_slot_rejected(self, tmp_path, bad, slot):
        record = float_record(1.5)
        if slot == "pose":
            record.poses[1] = dataclasses.replace(record.poses[1], yaw_deg=bad)
        elif slot == "reward":
            record.rewards[0] = bad
        elif slot == "target":
            record.target = (1.5, bad, 0.9)
        else:
            {"da": record.d_alpha, "db": record.d_beta, "dxi": record.d_xi}[slot][1] = bad
        with pytest.raises(ValueError, match="Out of range float"):
            reference_log([record])
        path = tmp_path / "e.jsonl"
        with pytest.raises(ValueError, match="Out of range float"):
            write_episode_log([float_record(2.0), record], path)
        assert not path.exists()

    def test_zero_signs_and_integers_in_one_file(self, tmp_path):
        # 0.0 and -0.0, and 1 and 1.0, are each one dict key: the first
        # spelling of a key must not stand in for the other value's
        records = [float_record(v) for v in (0.0, -0.0, 1, 1.0, -0.0, 0.0)]
        path = tmp_path / "e.jsonl"
        write_episode_log(records, path)
        text = path.read_text(encoding="utf-8")
        assert text == reference_log(records)
        assert "-0.0" in text.splitlines()[1]

    def test_non_finite_after_many_values_rejected(self, tmp_path):
        records = run_episode(EpisodeConfig(), "sv", seed=4, steps=60)
        records[-1] = dataclasses.replace(
            records[-1], d_xi=records[-1].d_xi[:-1] + [float("nan")])
        path = tmp_path / "e.jsonl"
        with pytest.raises(ValueError, match="Out of range float"):
            write_episode_log(records, path)
        assert not path.exists()

    def test_nine_significant_digits(self, tmp_path):
        records = run_episode(EpisodeConfig(), "virtual", seed=1, steps=10)
        path = tmp_path / "e.jsonl"
        write_episode_log(records, path)
        for line in path.read_text().splitlines():
            for cam in json.loads(line)["cams"]:
                for v in cam["pose"] + [cam["r"], cam["da"], cam["db"], cam["dxi"]]:
                    # values carry no more precision than 9 significant digits
                    assert float(format(v, ".9g")) == v


class TestTrainLogCsv:
    def test_columns_and_rows(self, tmp_path):
        rows = [UpdateStats(1, 320, 0.5, 2.1, 9.0, 3.3, 96),
                UpdateStats(2, 640, 0.6, 2.0, 8.5, 3.1, 101)]
        path = tmp_path / "t.csv"
        with train_log_writer(path) as append:
            for r in rows:
                append(r)
        lines = path.read_text().splitlines()
        assert lines[0] == "update_idx,env_steps,mean_reward_g0,entropy,value_loss,grad_norm"
        assert len(lines) == 3
        assert lines[1].startswith("1,320,0.5,")


# the arguments each rolling command requires, apart from the shared flags
ROLLING_COMMANDS = {"eval": ["--controller", "sv"],
                    "compare": ["--systems", "sv", "--seeds", "1", "--out", "c.csv"],
                    "rollout": ["--out", "r.jsonl"]}


class TestSharedFlags:
    @pytest.mark.parametrize("command", ROLLING_COMMANDS)
    def test_rolling_commands_share_config_switcher_and_checkpoint(self, command):
        parser = _build_parser()
        args = parser.parse_args([command, *ROLLING_COMMANDS[command]])
        assert (args.config, args.switcher, args.checkpoint) == (None, "oracle", None)
        args = parser.parse_args([command, *ROLLING_COMMANDS[command], "--config", "c.json",
                                  "--switcher", "noisy:0.2", "--checkpoint", "p.ckpt"])
        assert (args.config, args.switcher, args.checkpoint) == (
            "c.json", "noisy:0.2", "p.ckpt")

    def test_train_takes_config_and_no_switcher(self, tmp_path, capsys):
        args = _build_parser().parse_args(["train", "--out", "p.ckpt", "--config", "c.json"])
        assert args.config == "c.json"
        out = tmp_path / "p.ckpt"
        assert cli_main(["train", "--steps", "0", "--out", str(out),
                         "--switcher", "oracle"]) == 2
        assert "unrecognized arguments: --switcher" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", *ROLLING_COMMANDS])
    def test_help_exits_zero(self, command, capsys):
        assert cli_main([command, "--help"]) == 0
        assert "--config" in capsys.readouterr().out


class TestCli:
    def test_no_arguments_usage(self, capsys):
        assert cli_main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0

    def test_eval_learned_without_checkpoint(self, capsys):
        assert cli_main(["eval", "--controller", "learned", "--seed", "0"]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_bad_switcher_spec(self, capsys, tmp_path):
        code = cli_main(["eval", "--controller", "sv", "--switcher", "sometimes"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["random:1.5", "noisy:0.9", "noisy:often"])
    def test_bad_switcher_parameter_exits_two(self, spec, tmp_path, capsys):
        code = cli_main(["rollout", "--switcher", spec,
                         "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "switcher" in capsys.readouterr().err

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"n_cameras": \xff}')
        code = cli_main(["rollout", "--config", str(cfg),
                         "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_internal_value_error_exits_one(self, tmp_path, capsys, monkeypatch):
        import camtrack.cli

        def broken_episode(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(camtrack.cli, "run_episode", broken_episode)
        code = cli_main(["rollout", "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert "internal fault" in capsys.readouterr().err

    def test_non_finite_episode_log_exits_one(self, tmp_path, capsys, monkeypatch):
        import camtrack.cli

        def nan_episode(*args, **kwargs):
            records = run_episode(*args, **kwargs)
            records[0].d_xi[0] = float("inf")
            return records

        monkeypatch.setattr(camtrack.cli, "run_episode", nan_episode)
        out = tmp_path / "o.jsonl"
        assert cli_main(["rollout", "--out", str(out)]) == 1
        assert "Out of range float" in capsys.readouterr().err
        assert not out.exists()

    def test_train_zero_steps_reports_no_update(self, tmp_path, capsys):
        out = tmp_path / "policy.ckpt"
        assert cli_main(["train", "--steps", "0", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "no update ran" in printed
        assert "nan" not in printed.lower()
        assert load_checkpoint(out) is not None

    def test_non_finite_checkpoint_exits_two(self, tmp_path, capsys):
        params = nn.init_params(0)
        ckpt = tmp_path / "p.ckpt"
        save_checkpoint(params, ckpt)
        data = bytearray(ckpt.read_bytes())
        data[-8:] = struct.pack("<d", float("nan"))
        ckpt.write_bytes(bytes(data))
        code = cli_main(["eval", "--controller", "learned", "--checkpoint", str(ckpt)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        """A --config file that cannot be read is bad input: exit 2."""
        out = tmp_path / "o.jsonl"
        code = cli_main(["rollout", "--config", str(tmp_path / "absent.json"),
                         "--out", str(out)])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["eval", "--controller", "learned", "--episode-log", "logs"],
        ["compare", "--systems", "sv,learned", "--seeds", "2", "--out", "x.csv"],
        ["rollout", "--controller", "learned", "--out", "o.jsonl"],
    ], ids=["eval", "compare", "rollout"])
    def test_missing_checkpoint_exits_two_and_writes_nothing(self, flags, tmp_path,
                                                            capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli_main([*flags, "--checkpoint", str(tmp_path / "absent.ckpt")])
        assert code == 2
        assert "cannot read checkpoint" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli_main(["rollout", "--out", str(blocker / "o.jsonl")]) == 1

    def test_unwritable_train_log_exits_one_before_training(self, tmp_path, capsys,
                                                             monkeypatch):
        import camtrack.cli

        started = []
        monkeypatch.setattr(camtrack.cli, "train_pose_controller",
                            lambda *args, **kwargs: started.append(args))
        out = tmp_path / "p.ckpt"
        assert cli_main(["train", "--steps", "100", "--out", str(out),
                         "--log", str(tmp_path / "missing" / "l.csv")]) == 1
        assert "No such file" in capsys.readouterr().err
        assert started == [] and not out.exists()

    @pytest.mark.parametrize("flags, work", [
        (["train", "--steps", "3000"], "train_pose_controller"),
        (["compare", "--systems", "sv,geometric", "--seeds", "20"], "compare_systems"),
        (["rollout"], "run_episode"),
    ], ids=["train", "compare", "rollout"])
    @pytest.mark.parametrize("out", ["missing/o", "."], ids=["missing-dir", "is-dir"])
    def test_unwritable_out_exits_one_before_working(self, flags, work, out, tmp_path,
                                                     capsys, monkeypatch):
        """--out in a missing directory, or naming a directory, fails before
        training or rolling anything, and writes nothing."""
        import camtrack.cli

        started = []
        monkeypatch.setattr(camtrack.cli, work,
                            lambda *args, **kwargs: started.append(args))
        monkeypatch.chdir(tmp_path)
        assert cli_main([*flags, "--out", out]) == 1
        assert "cannot write" in capsys.readouterr().err
        assert started == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, work, named", [
        (["train", "--steps", "200", "--out", "x", "--log", "x"],
         "train_pose_controller", ("--log", "--out")),
        (["train", "--steps", "200", "--out", "x", "--log", "d/../x"],
         "train_pose_controller", ("--log", "--out")),
        (["train", "--steps", "200", "--config", "c.json", "--out", "c.json"],
         "train_pose_controller", ("--out", "--config")),
        (["rollout", "--controller", "learned", "--checkpoint", "p.ckpt",
          "--out", "p.ckpt"], "run_episode", ("--out", "--checkpoint")),
        (["rollout", "--controller", "learned", "--checkpoint", "p.ckpt",
          "--out", "d/../p.ckpt"], "run_episode", ("--out", "--checkpoint")),
        (["compare", "--systems", "sv", "--seeds", "1", "--config", "c.json",
          "--out", "c.json"], "compare_systems", ("--out", "--config")),
        (["compare", "--systems", "sv", "--seeds", "1", "--config", "d/../c.json",
          "--out", "c.json"], "compare_systems", ("--out", "--config")),
    ], ids=["train-log-is-out", "train-log-is-out-respelled", "train-out-is-config",
            "rollout-out-is-checkpoint", "rollout-out-is-checkpoint-respelled",
            "compare-out-is-config", "compare-out-is-config-respelled"])
    def test_output_naming_an_input_or_output_exits_two_before_working(
            self, flags, work, named, tmp_path, capsys, monkeypatch):
        """An output that resolves to the same file as --config, --checkpoint
        or the command's other output is bad input: exit 2 naming both flags,
        before the work runs, with every file's bytes unchanged and nothing
        written."""
        import camtrack.cli

        started = []
        monkeypatch.setattr(camtrack.cli, work,
                            lambda *args, **kwargs: started.append(args))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "c.json").write_text("{}")
        save_checkpoint(nn.init_params(0), tmp_path / "p.ckpt")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert cli_main(flags) == 2
        err = capsys.readouterr().err
        assert "is the same file as" in err and all(flag in err for flag in named)
        assert started == []
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("flags, message", [
        (["compare", "--systems", "wizard", "--seeds", "2"], "unknown system 'wizard'"),
        (["compare", "--systems", "sv,sv", "--seeds", "2"], "repeated system"),
        (["compare", "--systems", ",", "--seeds", "2"], "at least one system"),
        (["compare", "--systems", "sv", "--seeds", "2", "--switcher", "bogus"],
         "unknown switcher 'bogus'"),
        (["rollout", "--switcher", "bogus"], "unknown switcher 'bogus'"),
        (["rollout", "--switcher", "random:1.5"], "probability must be in [0, 1]"),
        (["rollout", "--controller", "learned"], "requires --checkpoint"),
    ], ids=["compare-unknown-system", "compare-repeated-system", "compare-no-system",
            "compare-bad-switcher", "rollout-bad-switcher", "rollout-bad-probability",
            "rollout-learned-without-checkpoint"])
    def test_bad_run_exits_two_before_checking_out(self, flags, message, tmp_path,
                                                   capsys, monkeypatch):
        """A run the run check rejects is bad input: it exits 2 with that
        check's message even when --out is in a missing directory, and
        writes nothing."""
        monkeypatch.chdir(tmp_path)
        assert cli_main([*flags, "--out", "missing/o"]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["--controller", "sv", "--switcher", "bogus"],
        ["--controller", "learned", "--switcher", "noisy:0.9", "--checkpoint", "p.ckpt"],
    ], ids=["sv", "learned"])
    def test_eval_bad_switcher_makes_no_log_directory(self, flags, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_checkpoint(nn.init_params(0), tmp_path / "p.ckpt")
        assert cli_main(["eval", *flags, "--episode-log", "logs"]) == 2
        assert "switcher" in capsys.readouterr().err
        assert not (tmp_path / "logs").exists()

    def test_train_log_rows_are_written_as_updates_finish(self, tmp_path, capsys,
                                                          monkeypatch):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_envs": 4, "rollout_len": 10}')
        args = ["train", "--config", str(cfg), "--steps", "400"]
        full = tmp_path / "full.csv"
        assert cli_main(args + ["--out", str(tmp_path / "p.ckpt"),
                                "--log", str(full)]) == 0
        _, log = train_pose_controller(TrainConfig(n_envs=4, rollout_len=10,
                                                   total_steps=400), EpisodeConfig())
        with train_log_writer(tmp_path / "want.csv") as append:
            for r in log:
                append(r)
        assert full.read_bytes() == (tmp_path / "want.csv").read_bytes()

        # with 16 cameras at p_pose 0.9, every step of a window has a label-0
        # camera, so the 21st backward is the third update's first
        real_backward = nn.backward
        calls = []

        def nan_from_the_third_update(*args, **kwargs):
            grads = real_backward(*args, **kwargs)
            calls.append(None)
            if len(calls) > 20:
                grads.policy_b[:] = np.nan
            return grads

        monkeypatch.setattr(nn, "backward", nan_from_the_third_update)
        out = tmp_path / "q.ckpt"
        cut = tmp_path / "cut.csv"
        assert cli_main(args + ["--out", str(out), "--log", str(cut)]) == 1
        assert "diverged" in capsys.readouterr().err
        assert not out.exists()
        assert cut.read_text().splitlines() == full.read_text().splitlines()[:3]

    def test_python_dash_m_passes_the_exit_code(self, tmp_path):
        src = Path(camtrack.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-m", "camtrack", "train", "--steps", "-1",
             "--out", str(tmp_path / "p.ckpt")],
            env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 2
        assert "total_steps" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_invalid_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_cameras": 1}')
        code = cli_main(["rollout", "--config", str(cfg),
                         "--out", str(tmp_path / "o.jsonl")])
        assert code == 2

    def test_unphysical_camera_height_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"camera_height_range": [2, 1e308]}')
        out = tmp_path / "o.jsonl"
        assert cli_main(["rollout", "--config", str(cfg), "--out", str(out)]) == 2
        assert "camera_height_range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry, key", [
        ('"arena_half": 1' + "0" * 400, "arena_half"),
        ('"gamma": -1' + "0" * 400, "gamma"),
        ('"target_speed_range": [0.1, 1' + "0" * 400 + "]", "target_speed_range"),
        ('"camera_height_range": [1' + "0" * 400 + ", 3]", "camera_height_range"),
    ])
    def test_integer_too_large_for_a_float_exits_two(self, tmp_path, capsys,
                                                     entry, key):
        cfg = tmp_path / "c.json"
        cfg.write_text("{" + entry + "}")
        out = tmp_path / "o.jsonl"
        assert cli_main(["rollout", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err and "too large for a float" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["arena_half", "n_cameras"])
    def test_integer_past_the_digit_limit_exits_two(self, tmp_path, capsys, key):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"%s": 1%s}' % (key, "0" * 5000))
        out = tmp_path / "o.jsonl"
        assert cli_main(["rollout", "--config", str(cfg), "--out", str(out)]) == 2
        assert "malformed config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry, message", [
        ('"rollout_len": 100000000, "n_envs": 1', "rollout_len"),
        ('"seed": 1, "seed": 2', "duplicate"),
    ])
    def test_train_rejects_config_before_training(self, tmp_path, capsys,
                                                  monkeypatch, entry, message):
        import camtrack.cli

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(camtrack.cli, "train_pose_controller", no_training)
        cfg = tmp_path / "c.json"
        cfg.write_text("{" + entry + "}")
        out = tmp_path / "policy.ckpt"
        assert cli_main(["train", "--config", str(cfg), "--steps", "1",
                         "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_train_with_rare_pose_steps_exits_two(self, tmp_path, capsys,
                                                  monkeypatch):
        import camtrack.cli

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(camtrack.cli, "train_pose_controller", no_training)
        cfg = tmp_path / "c.json"
        cfg.write_text('{"p_pose": 1e-9, "n_envs": 1, "rollout_len": 1}')
        out = tmp_path / "policy.ckpt"
        assert cli_main(["train", "--config", str(cfg), "--steps", "1",
                         "--out", str(out)]) == 2
        assert "p_pose" in capsys.readouterr().err
        assert not out.exists()

    def test_train_rejects_non_finite_config_before_training(self, tmp_path,
                                                             capsys, monkeypatch):
        import camtrack.cli

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(camtrack.cli, "train_pose_controller", no_training)
        cfg = tmp_path / "c.json"
        cfg.write_text('{"learning_rate": Infinity}')
        out = tmp_path / "policy.ckpt"
        assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_out_of_range_seed_exits_two(self, command, seed, tmp_path,
                                         capsys, monkeypatch):
        import camtrack.cli

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(camtrack.cli, "run_episode", no_episode)
        args = {"eval": ["eval", "--controller", "sv"],
                "rollout": ["rollout", "--out", str(tmp_path / "o.jsonl")]}[command]
        assert cli_main(args + ["--seed", str(seed)]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_eval_last_episode_seed_out_of_range_exits_two(self, capsys,
                                                          monkeypatch):
        import camtrack.cli

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(camtrack.cli, "run_episode", no_episode)
        code = cli_main(["eval", "--controller", "sv", "--seed", str(2 ** 64 - 1),
                         "--episodes", "2"])
        assert code == 2
        assert "--episodes" in capsys.readouterr().err

    def test_compare_last_seed_out_of_range_exits_two(self, tmp_path, capsys,
                                                      monkeypatch):
        import camtrack.cli

        def no_compare(*args, **kwargs):
            raise AssertionError("a comparison ran")

        monkeypatch.setattr(camtrack.cli, "compare_systems", no_compare)
        code = cli_main(["compare", "--systems", "sv", "--seeds", str(2 ** 64 + 1),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--seeds" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args, message", [
        (["eval", "--controller", "sv", "--episodes", "0"], "--episodes must be >= 1"),
        (["compare", "--systems", "sv", "--seeds", "0", "--out", "x.csv"],
         "--seeds must be >= 1"),
    ], ids=["eval", "compare"])
    def test_no_episodes_exits_two(self, args, message, tmp_path, capsys,
                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(args) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["eval", "--controller", "sv"],
        ["compare", "--systems", "sv,geometric", "--seeds", "2", "--out", "x.csv"],
        ["train", "--steps", "100", "--out", "p.ckpt"],
    ], ids=["eval", "compare", "train"])
    def test_unplaceable_obstacles_exit_two(self, args, tmp_path, capsys,
                                            monkeypatch):
        """Boxes 9 m or wider in a 10 m arena always cover the target's
        spawn, so no seed can place its obstacles: a ConfigError, exit 2,
        and no traceback or output file."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text('{"arena_half": 5, "n_obstacles": 15, '
                       '"obstacle_size_range": [9.0, 9.9]}')
        assert cli_main([*args, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error: could not place an obstacle clear of the target spawn" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_largest_seed_is_accepted(self, tmp_path, capsys):
        assert cli_main(["eval", "--controller", "sv", "--seed", str(2 ** 64 - 1),
                         "--episodes", "1"]) == 0
        assert cli_main(["rollout", "--controller", "sv", "--seed", str(2 ** 64 - 1),
                         "--out", str(tmp_path / "o.jsonl")]) == 0

    def test_train_seed_range_is_the_same_check(self):
        for seed in (-1, 2 ** 64):
            with pytest.raises(ConfigError, match="unsigned 64-bit"):
                TrainConfig(seed=seed).validate()
        TrainConfig(seed=2 ** 64 - 1).validate()

    def test_rollout_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "ep.jsonl"
        assert cli_main(["rollout", "--seed", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 500

    def test_train_eval_compare_pipeline(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_envs": 4, "rollout_len": 10}')
        ckpt = tmp_path / "p.ckpt"
        log = tmp_path / "t.csv"
        assert cli_main(["train", "--config", str(cfg), "--seed", "1",
                         "--steps", "300", "--out", str(ckpt),
                         "--log", str(log)]) == 0
        assert ckpt.exists() and log.exists()
        load_checkpoint(ckpt)

        assert cli_main(["eval", "--config", str(cfg), "--controller", "learned",
                         "--checkpoint", str(ckpt), "--seed", "0",
                         "--episodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "overall" in out

        csv_path = tmp_path / "cmp.csv"
        assert cli_main(["compare", "--config", str(cfg), "--systems",
                         "sv,geometric", "--seeds", "3",
                         "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("system,scope")
        # per system: one row per camera plus overall
        assert len(lines) == 1 + 2 * (EpisodeConfig().n_cameras + 1)
        assert sum(1 for l in lines if l.startswith("sv,")) == 5
        assert sum(1 for l in lines if l.startswith("geometric,")) == 5

        csv2 = tmp_path / "cmp2.csv"
        assert cli_main(["compare", "--config", str(cfg), "--systems",
                         "learned", "--checkpoint", str(ckpt), "--seeds", "2",
                         "--out", str(csv2)]) == 0
        assert sum(1 for l in csv2.read_text().splitlines()
                   if l.startswith("learned,")) == 5

    def test_compare_unknown_system(self, tmp_path, capsys):
        assert cli_main(["compare", "--systems", "sv,wizard", "--seeds", "2",
                         "--out", str(tmp_path / "x.csv")]) == 2

    def test_compare_repeated_system_exits_two(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli_main(["compare", "--systems", "sv,geometric,sv", "--seeds", "2",
                         "--out", str(out)]) == 2
        assert "'sv'" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_learned_needs_checkpoint(self, tmp_path, capsys):
        assert cli_main(["compare", "--systems", "learned", "--seeds", "2",
                         "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--systems", ","], "at least one system"),
        (["--systems", "sv", "--switcher", "bogus"], "unknown switcher"),
    ], ids=["empty-systems", "bad-switcher"])
    def test_compare_bad_run_exits_two_before_any_episode(self, flags, message,
                                                          tmp_path, capsys,
                                                          monkeypatch):
        """compare holds no copy of the run checks: compare_systems rejects
        the run before its first lockstep batch."""
        import camtrack.evaluate

        def no_lockstep(*args, **kwargs):
            raise AssertionError("a lockstep batch ran")

        monkeypatch.setattr(camtrack.evaluate, "run_lockstep", no_lockstep)
        out = tmp_path / "x.csv"
        assert cli_main(["compare", *flags, "--seeds", "2", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_rollout_bad_switcher_exits_two_and_writes_nothing(self, tmp_path,
                                                               capsys):
        out = tmp_path / "o.jsonl"
        assert cli_main(["rollout", "--switcher", "bogus", "--out", str(out)]) == 2
        assert "unknown switcher" in capsys.readouterr().err
        assert not out.exists()

    def test_episode_log_directory(self, tmp_path, capsys):
        logdir = tmp_path / "logs"
        assert cli_main(["eval", "--controller", "sv", "--seed", "5",
                         "--episodes", "2", "--episode-log", str(logdir)]) == 0
        assert (logdir / "episode_5.jsonl").exists()
        assert (logdir / "episode_6.jsonl").exists()
