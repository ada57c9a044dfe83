"""Episode rollouts, tracking metrics, and paired system comparisons."""
import csv
import hashlib

import numpy as np
import pytest

from camtrack import evaluate, nn
from camtrack.cli import cli_main
from camtrack.config import ConfigError, EpisodeConfig
from camtrack.controllers import noisy_switch, oracle_switch, random_switch
from camtrack.evaluate import (
    StepRecord,
    SystemSummary,
    compare_systems,
    episode_report,
    mean_error,
    parse_switcher,
    per_camera_mean_error,
    per_camera_success_rate,
    run_episode,
    run_lockstep,
    success_rate,
)
from camtrack.geometry import CameraPose
from camtrack.io import save_checkpoint, write_episode_log
from camtrack.rng import RngStream
from camtrack.world import Visibility, observe, spawn_episode, visibility_of


def synthetic_records(rng, n_cams=3, steps=50):
    records = []
    vis_values = list(Visibility)
    for t in range(steps):
        records.append(StepRecord(
            t=t + 1,
            target=(0.0, 0.0, 0.9),
            poses=[CameraPose(0, 0, 2.5, 0, 0, 1.0)] * n_cams,
            actions=[0] * n_cams,
            visibility=[vis_values[int(rng.integers(0, 3))] for _ in range(n_cams)],
            labels=[1] * n_cams,
            rewards=[0.0] * n_cams,
            d_alpha=[float(rng.uniform(0, 60)) for _ in range(n_cams)],
            d_beta=[float(rng.uniform(0, 180)) for _ in range(n_cams)],
            d_xi=[0.0] * n_cams,
        ))
    return records


def constant_records(n_cams, steps, d_alpha, d_beta, visibility):
    return [StepRecord(t=t + 1, target=(0, 0, 0.9),
                       poses=[CameraPose(0, 0, 2.5, 0, 0, 1.0)] * n_cams,
                       actions=[0] * n_cams,
                       visibility=[visibility] * n_cams,
                       labels=[1] * n_cams,
                       rewards=[0.0] * n_cams,
                       d_alpha=[d_alpha] * n_cams,
                       d_beta=[d_beta] * n_cams,
                       d_xi=[0.0] * n_cams)
            for t in range(steps)]


class TestRunEpisode:
    def test_zero_steps(self):
        assert run_episode(EpisodeConfig(), "virtual", seed=0, steps=0) == []
        assert run_episode(EpisodeConfig(), "sv", "random:0.5", seed=0, steps=0) == []

    @pytest.mark.parametrize("switcher", ["oracle", "random:0.5", "noisy:0.2"])
    def test_negative_steps_rejected(self, switcher):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            run_episode(EpisodeConfig(), "sv", switcher, seed=0, steps=-1)

    @pytest.mark.parametrize("switcher", ["random:0.3", "noisy:0.2"])
    def test_labels_equal_the_per_camera_switchers(self, switcher):
        """The episode's labels, drawn in one block, equal random_switch and
        noisy_switch called camera by camera on the switcher stream, with the
        visibility of the state each step starts from."""
        cfg = EpisodeConfig()
        kind, arg = parse_switcher(switcher)
        for seed in (0, 1):
            records = run_episode(cfg, "geometric", switcher, seed=seed, steps=200)
            rng = RngStream(seed, 1)
            vis = observe(spawn_episode(cfg, seed)).visibility
            for rec in records:
                want = ([random_switch(rng, arg) for _ in vis] if kind == "random"
                        else [noisy_switch(v, rng, arg) for v in vis])
                assert rec.labels == want
                vis = rec.visibility
            assert any(0 in rec.labels for rec in records)
            assert any(1 in rec.labels for rec in records)

    def test_deterministic(self):
        cfg = EpisodeConfig()
        a = run_episode(cfg, "geometric", seed=4, steps=120)
        b = run_episode(cfg, "geometric", seed=4, steps=120)
        assert len(a) == len(b) == 120
        for ra, rb in zip(a, b):
            assert ra.poses == rb.poses
            assert ra.rewards == rb.rewards
            assert ra.visibility == rb.visibility
            assert ra.target == rb.target

    @pytest.mark.parametrize("controller", ["sv", "geometric"])
    def test_visibility_is_fresh_at_every_step(self, controller, monkeypatch):
        """The step's own visibility is reused as the next step's: it must
        equal a fresh classification of each state the episode passes
        through, before the step (seen via the oracle labels) and after it
        (the recorded visibility)."""
        cfg = EpisodeConfig()
        for seed in (0, 1, 2):
            before, after = [], []
            real_step = evaluate.step

            def recording_step(state, actions):
                outcome = real_step(state, actions)
                n = len(state.cameras)
                before.append([visibility_of(state, i) for i in range(n)])
                after.append([visibility_of(outcome.state, i) for i in range(n)])
                return outcome

            monkeypatch.setattr(evaluate, "step", recording_step)
            records = run_episode(cfg, controller, seed=seed, steps=300)
            monkeypatch.undo()
            assert [r.visibility for r in records] == after
            assert [r.labels for r in records] == [[oracle_switch(v) for v in vis]
                                                   for vis in before]
            assert any(v is not Visibility.VISIBLE
                       for vis in before for v in vis)

    def test_learned_requires_params(self):
        with pytest.raises(ValueError):
            run_episode(EpisodeConfig(), "learned", seed=0, steps=5)

    def test_unknown_controller(self):
        with pytest.raises(ValueError):
            run_episode(EpisodeConfig(), "magic", seed=0, steps=5)

    def test_virtual_all_visible_after_burn_in(self):
        cfg = EpisodeConfig(n_obstacles=0)
        records = run_episode(cfg, "virtual", seed=2, steps=500)
        for rec in records[72:]:
            assert all(v is Visibility.VISIBLE for v in rec.visibility)

    def test_learned_controller_runs(self):
        params = nn.init_params(0)
        records = run_episode(EpisodeConfig(), "learned", params=params,
                              seed=1, steps=30)
        assert len(records) == 30

    @pytest.mark.parametrize("controller", ["virtual", "geometric", "learned", "sv"])
    def test_no_two_records_share_a_pose(self, controller):
        """Every step records new pose objects (poses are values, built by
        world.apply_action), so no record's pose is another record's."""
        records = run_episode(EpisodeConfig(), controller, "random:0.5",
                              params=nn.init_params(0), seed=4, steps=60)
        poses = [pose for rec in records for pose in rec.poses]
        assert len({id(pose) for pose in poses}) == len(poses)
        assert len({id(rec.poses) for rec in records}) == len(records)

    def test_switcher_specs(self):
        cfg = EpisodeConfig()
        for spec in ("oracle", "random:0.5", "noisy:0.1"):
            records = run_episode(cfg, "geometric", switcher=spec, seed=3, steps=20)
            assert len(records) == 20
        with pytest.raises(ValueError):
            run_episode(cfg, "geometric", switcher="bogus", seed=3, steps=5)
        with pytest.raises(ValueError):
            parse_switcher("noisy:0.9")
        with pytest.raises(ValueError):
            parse_switcher("random:1.5")


# sha256 of the write_episode_log bytes of 300-step episodes, with
# nn.init_params(0) for the learned controller; taken before the one-episode
# path observed each state once and formatted its log lines directly.
PINNED_LOGS = [
    ("learned", "random:0.5", EpisodeConfig(), 0,
     "0179b59f64b785bd35aa29a32accc382aefbefe03bf5413206413d26f3ba69ce"),
    ("geometric", "oracle", EpisodeConfig(), 1,
     "a0512db9b11de9b4cbaa46fff2d07d93e9255175963d8e58f9d6b9d439cfb825"),
    ("sv", "noisy:0.2", EpisodeConfig(), 2,
     "6de5b85627d6694f1a897e306fef720e7b73e922d977b3a3ec2f24172ddd90e9"),
    ("virtual", "oracle", EpisodeConfig(), 3,
     "840169b0491caf632303f7427b86be682deea8a3d89380047ebe8bcfd37eba2f"),
    ("geometric", "random:0.5", EpisodeConfig(n_obstacles=0), 4,
     "5b7649471346fe3f85da3b4bbad0e0db2a866d6486b3fc8fe4acee2394a6a722"),
    ("learned", "noisy:0.2", EpisodeConfig(n_obstacles=15), 5,
     "da028b9e583657494276993c7ccdca1a9cfe49c6fdcfe97839e364e2863bd8fb"),
    ("learned", "random:0.5", EpisodeConfig(n_cameras=2), 6,
     "4b66f22aa2c584b75574ab4faf0f54be726590c67c7568b38ede96955e0ef4c5"),
    ("sv", "oracle", EpisodeConfig(n_cameras=2), 7,
     "b96a46a2f6789ed069a1ab37a534070df097533a5e3c802f32b489cdaad91cbb"),
    # the learned controller scales the pose tuples by the observed state's
    # arena_half; pinned before system_action read it from the state
    ("learned", "random:0.5", EpisodeConfig(arena_half=15.0), 8,
     "4a97bfd66759e0e4d16159e0cc6eda3dc8b6c069ff23d4eb4ae896a7c367140c"),
]


class TestPinnedEpisodeLogs:
    """The one-episode counterpart of the pinned training replays: every
    value run_episode records, through the log's bytes."""

    @pytest.mark.parametrize("controller, switcher, cfg, seed, digest", PINNED_LOGS,
                             ids=[f"{c}-{s}-{seed}" for c, s, _, seed, _ in PINNED_LOGS])
    def test_log_bytes(self, tmp_path, controller, switcher, cfg, seed, digest):
        records = run_episode(cfg, controller, switcher, params=nn.init_params(0),
                              seed=seed, steps=300)
        path = tmp_path / "episode.jsonl"
        write_episode_log(records, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestMetrics:
    def test_zero_errors(self):
        recs = constant_records(2, 10, 0.0, 0.0, Visibility.VISIBLE)
        assert mean_error(recs) == 0.0

    def test_constant_errors(self):
        recs = constant_records(2, 10, 10.0, 20.0, Visibility.VISIBLE)
        assert mean_error(recs) == 15.0

    def test_success_all_visible(self):
        recs = constant_records(3, 10, 0, 0, Visibility.VISIBLE)
        assert success_rate(recs) == 1.0

    def test_success_all_out_of_view(self):
        recs = constant_records(3, 10, 0, 0, Visibility.OUT_OF_VIEW)
        assert success_rate(recs) == 0.0

    def test_success_counts_occlusion_as_in_view(self):
        rng = np.random.default_rng(0)
        recs = synthetic_records(rng, n_cams=1, steps=4)
        seq = [Visibility.VISIBLE, Visibility.OCCLUDED,
               Visibility.OUT_OF_VIEW, Visibility.VISIBLE]
        for rec, v in zip(recs, seq):
            rec.visibility[0] = v
        assert success_rate(recs) == 0.75

    def test_empty_records_rejected(self):
        for metric in (mean_error, success_rate, per_camera_mean_error,
                       per_camera_success_rate):
            with pytest.raises(ValueError, match="at least one step record"):
                metric([])

    def test_against_brute_force_resummation(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            recs = synthetic_records(rng, n_cams=int(rng.integers(1, 6)),
                                     steps=int(rng.integers(1, 60)))
            n_cams = len(recs[0].poses)
            n_steps = len(recs)
            # time-major accumulation, plain adds: independent of the
            # camera-major fsum pipeline in the implementation
            total = 0.0
            hits = 0
            for rec in recs:
                for i in range(n_cams):
                    total += (rec.d_alpha[i] + rec.d_beta[i]) / 2.0
                    hits += rec.visibility[i] is not Visibility.OUT_OF_VIEW
            me = total / (n_cams * n_steps)
            sr = hits / (n_cams * n_steps)
            assert abs(mean_error(recs) - me) <= 1e-12 * max(1.0, abs(me))
            assert abs(success_rate(recs) - sr) <= 1e-12

    def test_camera_permutation_invariance(self):
        rng = np.random.default_rng(44)
        recs = synthetic_records(rng, n_cams=4, steps=30)
        perm = [2, 0, 3, 1]
        shuffled = [StepRecord(
            t=r.t, target=r.target,
            poses=[r.poses[i] for i in perm],
            actions=[r.actions[i] for i in perm],
            visibility=[r.visibility[i] for i in perm],
            labels=[r.labels[i] for i in perm],
            rewards=[r.rewards[i] for i in perm],
            d_alpha=[r.d_alpha[i] for i in perm],
            d_beta=[r.d_beta[i] for i in perm],
            d_xi=[r.d_xi[i] for i in perm]) for r in recs]
        assert mean_error(shuffled) == pytest.approx(mean_error(recs), abs=1e-12)
        assert success_rate(shuffled) == success_rate(recs)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(55)
        recs = synthetic_records(rng, n_cams=2, steps=25)
        doubled = recs + recs
        assert mean_error(doubled) == pytest.approx(mean_error(recs), abs=1e-12)
        assert success_rate(doubled) == pytest.approx(success_rate(recs), abs=1e-15)

    def test_report_consistency(self):
        rng = np.random.default_rng(66)
        recs = synthetic_records(rng, n_cams=3, steps=40)
        report = episode_report(recs)
        assert report.mean_error == pytest.approx(mean_error(recs), abs=1e-12)
        assert report.success_rate == pytest.approx(success_rate(recs), abs=1e-15)
        assert report.per_camera_mean_error == per_camera_mean_error(recs)
        assert all(0.0 <= s <= 1.0 for s in report.per_camera_success_rate)


class TestCompareSystems:
    def test_single_system_single_seed_matches_episode(self):
        cfg = EpisodeConfig()
        summary = compare_systems(cfg, ["sv"], 1, steps=100)[0]
        report = episode_report(run_episode(cfg, "sv", seed=0, steps=100))
        assert summary.mean_error[0] == pytest.approx(report.mean_error, abs=1e-12)
        assert summary.mean_error[1] == 0.0
        assert summary.success_rate[0] == pytest.approx(report.success_rate, abs=1e-15)

    def test_identical_systems_identical_rows(self):
        """A system's rows do not depend on the systems batched with it."""
        cfg = EpisodeConfig()
        a = compare_systems(cfg, ["geometric"], 3, steps=80)[0]
        b = compare_systems(cfg, ["sv", "geometric"], 3, steps=80)[1]
        assert a.per_camera_me == b.per_camera_me
        assert a.per_camera_sr == b.per_camera_sr
        assert a.mean_error == b.mean_error
        assert a.success_rate == b.success_rate

    def test_seed_count_validated(self):
        with pytest.raises(ValueError):
            compare_systems(EpisodeConfig(), ["sv"], 0)


class TestEvalSummaryIsCompares:
    """eval summarizes its episode reports as compare summarizes its lockstep
    episodes: both go through SystemSummary.of."""

    @pytest.mark.parametrize("n_seeds", [1, 3])
    @pytest.mark.parametrize("switcher", ["oracle", "random:0.5", "noisy:0.2"])
    @pytest.mark.parametrize("system", ["virtual", "sv", "geometric", "learned"])
    def test_summary_of_episode_reports_equals_compare(self, system, switcher, n_seeds):
        cfg = EpisodeConfig()
        params = nn.init_params(3)
        reports = [episode_report(run_episode(cfg, system, switcher, params=params,
                                              seed=5 + k, steps=60))
                   for k in range(n_seeds)]
        got = SystemSummary.of(system, [r.per_camera_mean_error for r in reports],
                               [r.per_camera_success_rate for r in reports])
        want = compare_systems(cfg, [system], n_seeds, steps=60, params=params,
                               switcher=switcher, base_seed=5)[0]
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("system, switcher", [
        ("sv", "random:0.5"), ("geometric", "noisy:0.2"), ("learned", "oracle")])
    def test_eval_prints_the_comparison_csv_means(self, system, switcher, tmp_path,
                                                  capsys):
        """eval --seed 0 --episodes 3 prints, row for row, the means of
        compare --seeds 3's CSV in eval's own format."""
        ckpt = tmp_path / "p.ckpt"
        save_checkpoint(nn.init_params(3), ckpt)
        flags = ["--switcher", switcher, "--checkpoint", str(ckpt)]
        assert cli_main(["eval", "--controller", system, "--seed", "0",
                         "--episodes", "3", *flags]) == 0
        printed = capsys.readouterr().out.splitlines()
        out = tmp_path / "c.csv"
        assert cli_main(["compare", "--systems", system, "--seeds", "3",
                         "--out", str(out), *flags]) == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert printed[1:] == [
            f"  {r['scope']}: mean_error={float(r['mean_error_mean']):8.3f} deg"
            f"   success_rate={float(r['success_rate_mean']):6.4f}" for r in rows]
        assert printed[-1].startswith("  overall:")


def _run(entry, systems, seeds=(0,), switcher="oracle", params=None, steps=5):
    """One run through check_run, run_episode (one system), run_lockstep or
    compare_systems (seeds 0 .. len(seeds) - 1)."""
    cfg = EpisodeConfig()
    if entry == "check_run":
        return evaluate.check_run(systems, switcher, params, steps)
    if entry == "run_episode":
        (system,) = systems
        return run_episode(cfg, system, switcher, params=params, steps=steps)
    if entry == "run_lockstep":
        return run_lockstep(cfg, systems, list(seeds), switcher, params=params,
                            steps=steps)
    return compare_systems(cfg, systems, len(seeds), steps=steps, params=params,
                           switcher=switcher)


# (name, entries, run arguments, message): every bad run evaluate rejects
BAD_RUNS = [
    ("no-system", ("check_run", "run_lockstep", "compare_systems"), {"systems": []},
     "at least one system"),
    ("unknown-system", ("check_run", "run_episode", "run_lockstep", "compare_systems"),
     {"systems": ["wizard"]}, "unknown system 'wizard'"),
    ("repeated-system", ("check_run", "run_lockstep", "compare_systems"),
     {"systems": ["sv", "geometric", "sv"]}, "repeated system"),
    ("learned-without-params",
     ("check_run", "run_episode", "run_lockstep", "compare_systems"),
     {"systems": ["learned"]}, "requires policy params"),
    ("bad-switcher", ("check_run", "run_episode", "run_lockstep", "compare_systems"),
     {"systems": ["sv"], "switcher": "bogus"}, "unknown switcher"),
    ("negative-steps", ("check_run", "run_episode", "run_lockstep"),
     {"systems": ["sv"], "steps": -1}, "steps must be >= 0"),
    ("no-seed", ("run_lockstep",), {"systems": ["sv"], "seeds": ()},
     "at least one seed"),
    ("no-seed", ("compare_systems",), {"systems": ["sv"], "seeds": ()},
     "n_seeds must be >= 1"),
    ("zero-steps", ("compare_systems",), {"systems": ["sv"], "steps": 0},
     "at least one step record"),
]


@pytest.mark.parametrize("entry, kwargs, message", [
    pytest.param(entry, kwargs, message, id=f"{entry}-{name}")
    for name, entries, kwargs, message in BAD_RUNS for entry in entries])
def test_bad_run_is_a_config_error_before_any_world(entry, kwargs, message,
                                                    monkeypatch):
    """evaluate owns the run checks: each bad run raises ConfigError (the
    CLI's exit 2) before a world is spawned, and check_run alone raises the
    same error for every run it covers."""
    def no_world(*args, **kwargs):
        raise AssertionError("a world was spawned")

    monkeypatch.setattr(evaluate, "spawn_episode", no_world)
    with pytest.raises(ConfigError, match=message):
        _run(entry, **kwargs)


@pytest.mark.parametrize("entry", ["check_run", "run_episode", "run_lockstep",
                                   "compare_systems"])
@pytest.mark.parametrize("name, shape, message", [
    ("trunk1_w", None, "trunk1_w contains non-finite"),
    ("policy_b", None, "policy_b contains non-finite"),
    ("policy_w", (nn.N_ACTIONS, nn.HIDDEN_SIZE + 1), "policy_w has shape"),
], ids=["nan-trunk1_w", "nan-policy_b", "wrong-shape"])
def test_bad_params_rejected_before_any_world(entry, name, shape, message, monkeypatch):
    """A learned run validates its params before a world is spawned: a NaN
    weight would otherwise send every label-0 camera to action 0 (the
    argmax of all-NaN logits) with no error."""
    def no_world(*args, **kwargs):
        raise AssertionError("a world was spawned")

    params = nn.init_params(0)
    if shape is None:
        getattr(params, name).flat[4] = np.nan
    else:
        setattr(params, name, np.zeros(shape))
    monkeypatch.setattr(evaluate, "spawn_episode", no_world)
    systems = ["learned"] if entry == "run_episode" else ["learned", "sv"]
    with pytest.raises(ValueError, match=message):
        _run(entry, systems, seeds=(0, 1), switcher="random:0.5", params=params)
