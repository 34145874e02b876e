import csv
import json
import os
from dataclasses import replace

import pytest

from socnavsim.baselines import GreedyPolicy
from socnavsim.crowd import CrowdConfig
from socnavsim.evaluation import (
    EpisodeLog,
    EpisodeSummary,
    StepRecord,
    compute_metrics,
    episode_seeds,
    export,
    metrics_from_tables,
    parse_trajectory_table,
    run_suite,
    suite_config,
)
from socnavsim.policies import StraightLinePolicy
from socnavsim.world import EnvConfig


def base_cfg(**kw):
    defaults = dict(beam_count=64, crowd=CrowdConfig(count=0))
    defaults.update(kw)
    return EnvConfig(**defaults)


def synthetic_log(outcome="reached", steps=10, k=0, m=0, seed=1, t_step=0.1):
    records = []
    for i in range(steps):
        records.append(
            StepRecord(
                step=i + 1,
                t=(i + 1) * t_step,
                x=0.1 * i,
                y=0.0,
                heading=0.0,
                v_l=1.0,
                omega=0.0,
                a_x=1.0,
                a_y=0.0,
                r_ego=0.0,
                r_social=0.0,
                r_goal=-0.01,
                ego_violation=i < k,
                social_violations=1 if i < m else 0,
                pedestrians=[(1.0, 2.0, 0.5)],
            )
        )
    return EpisodeLog(
        policy="stub",
        suite="mapless",
        seed=seed,
        map_seed=seed,
        crowd_seed=seed,
        config=base_cfg().to_dict(),
        records=records,
        outcome=outcome,
        arriving_time=steps * t_step if outcome == "reached" else None,
    )


class TestSuiteConfig:
    def test_mapless_has_no_crowd(self):
        cfg = suite_config("mapless", base_cfg(crowd=CrowdConfig(count=8)))
        assert cfg.crowd.count == 0

    def test_crowd_suite_parses_kind_and_count(self):
        cfg = suite_config("crowd:crossing:8", base_cfg())
        assert cfg.scenario == "crossing"
        assert cfg.crowd.count == 8
        assert cfg.obstacle_count_range == (0, 0)
        assert cfg.crowd.area == (5.0, 5.0)
        assert cfg.crowd.walk_in_probability > 0.0

    def test_combined_has_both(self):
        cfg = suite_config("combined", base_cfg())
        assert cfg.crowd.count >= 8
        assert cfg.obstacle_count_range[1] > 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            suite_config("downhill", base_cfg())
        with pytest.raises(ValueError):
            suite_config("crowd:crossing", base_cfg())

    def test_extra_combined_parts_rejected(self):
        assert suite_config("combined:8", base_cfg()).crowd.count == 8
        with pytest.raises(ValueError, match="combined"):
            suite_config("combined:8:junk", base_cfg())


class TestRunSuite:
    def test_straight_policy_on_empty_maps_all_succeed(self):
        cfg = base_cfg(obstacle_count_range=(0, 0))
        logs = run_suite(StraightLinePolicy(), "mapless", runs=3, root_seed=5,
                         base_config=cfg)
        assert [log.outcome for log in logs] == ["reached"] * 3
        m = compute_metrics(logs)
        assert m.success_rate == 100.0

    def test_same_seeds_identical_logs(self):
        cfg = base_cfg()
        a = run_suite(GreedyPolicy(cfg.lidar()), "mapless", runs=2, root_seed=9,
                      base_config=cfg)
        b = run_suite(GreedyPolicy(cfg.lidar()), "mapless", runs=2, root_seed=9,
                      base_config=cfg)
        assert [x.to_dict() for x in a] == [y.to_dict() for y in b]

    def test_crowd_suite_runs_and_logs_pedestrians(self):
        cfg = base_cfg(max_steps=20)
        logs = run_suite(GreedyPolicy(cfg.lidar()), "crowd:crossing:4", runs=1,
                         root_seed=3, base_config=cfg)
        assert logs[0].records
        assert len(logs[0].records[0].pedestrians) >= 4

    def test_failed_episodes_logged_not_raised(self):
        cfg = base_cfg(max_steps=3)
        logs = run_suite(GreedyPolicy(cfg.lidar()), "mapless", runs=2, root_seed=4,
                         base_config=cfg)
        assert all(log.outcome == "timeout" for log in logs)

    def test_episode_seed_expansion_deterministic(self):
        assert episode_seeds(7, 3) == episode_seeds(7, 3)
        a = episode_seeds(7, 3)
        assert len({(m, c) for _, m, c in a}) == 3


class TestComputeMetrics:
    def test_all_clean_scores_100(self):
        m = compute_metrics([synthetic_log(k=0, m=0) for _ in range(4)])
        assert m.ego_score == 100.0 and m.social_score == 100.0
        assert m.success_rate == 100.0

    def test_all_violations_scores_0(self):
        m = compute_metrics([synthetic_log(k=10, m=10, steps=10)])
        assert m.ego_score == 0.0 and m.social_score == 0.0

    def test_paper_fraction(self):
        # m = 2 violation steps of N = 40 -> social score 95
        m = compute_metrics([synthetic_log(steps=40, m=2)])
        assert m.social_score == pytest.approx(95.0)

    def test_arriving_time_over_successes_only(self):
        logs = [synthetic_log(steps=10), synthetic_log(outcome="collided", steps=4)]
        m = compute_metrics(logs)
        assert m.success_rate == 50.0
        assert m.arriving_time_mean == pytest.approx(1.0)

    def test_no_successes_time_is_none(self):
        m = compute_metrics([synthetic_log(outcome="timeout")])
        assert m.arriving_time_mean is None and m.arriving_time_std is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])

    def test_summary_scores(self):
        s = EpisodeSummary("collided", 40, None, 4, 2, -1.0)
        assert s.ego_score == pytest.approx(90.0) and s.social_score == pytest.approx(95.0)
        # an empty table scores clean instead of dividing by zero
        assert EpisodeSummary("timeout", 0, None, 0, 0, 0.0).ego_score == 100.0


class TestExport:
    def test_trajectory_round_trip(self, tmp_path):
        log = synthetic_log(steps=7, k=2, m=1)
        (path,) = export([log], "trajectory-table", tmp_path)
        summary = parse_trajectory_table(path)
        assert summary.steps == 7
        assert summary.outcome == "reached"
        assert summary.ego_violation_steps == 2
        assert summary.social_violation_steps == 1
        assert summary.arriving_time == pytest.approx(0.7)
        assert summary.reward_sum == pytest.approx(-0.07)
        # positions survive the 9-significant-digit format
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert float(rows[3]["x"]) == pytest.approx(0.3, abs=1e-9)

    def test_table_summary_matches_log_summary(self, tmp_path):
        logs = [
            synthetic_log(steps=10, k=1, seed=1),
            synthetic_log(outcome="timeout", steps=20, m=3, seed=2),
            synthetic_log(outcome="collided", steps=5, k=5, m=2, seed=3),
        ]
        # a step with three zone intersections still counts as one violation step
        logs[2].records[0] = replace(logs[2].records[0], social_violations=3)
        paths = export(logs, "trajectory-table", tmp_path)
        assert logs[2].summary().social_violation_steps == 2
        for log, path in zip(logs, paths):
            direct, parsed = log.summary(), parse_trajectory_table(path)
            assert (parsed.outcome, parsed.steps) == (direct.outcome, direct.steps)
            assert parsed.ego_violation_steps == direct.ego_violation_steps
            assert parsed.social_violation_steps == direct.social_violation_steps
            assert (parsed.ego_score, parsed.social_score) == (direct.ego_score, direct.social_score)
            assert parsed.reward_sum == pytest.approx(direct.reward_sum)
            assert parsed.arriving_time == pytest.approx(direct.arriving_time)

    def test_metrics_recomputed_from_tables_match(self, tmp_path):
        logs = [
            synthetic_log(steps=10, k=1, seed=1),
            synthetic_log(steps=20, m=3, seed=2),
            synthetic_log(outcome="collided", steps=5, k=5, seed=3),
        ]
        paths = export(logs, "trajectory-table", tmp_path)
        direct = compute_metrics(logs)
        recomputed = metrics_from_tables(paths)
        assert recomputed.success_rate == direct.success_rate
        assert recomputed.ego_score == pytest.approx(direct.ego_score)
        assert recomputed.social_score == pytest.approx(direct.social_score)
        assert recomputed.arriving_time_mean == pytest.approx(direct.arriving_time_mean)

    def test_truncated_table_rejected(self, tmp_path):
        logs = [synthetic_log(steps=10, k=1, seed=1), synthetic_log(steps=4, seed=2)]
        paths = export(logs, "trajectory-table", tmp_path)
        with open(paths[1]) as f:
            header = f.readline()
        with open(paths[1], "w") as f:
            f.write(header)  # header only: the rows were lost
        with pytest.raises(ValueError, match="no rows"):
            metrics_from_tables(paths)

    def test_metrics_table_has_exactly_four_metrics(self, tmp_path):
        (path,) = export([synthetic_log()], "metrics-table", tmp_path)
        doc = json.loads(open(path).read())
        assert sorted(doc["metrics"].keys()) == [
            "arriving_time",
            "ego_score",
            "social_score",
            "success_rate",
        ]

    def test_unsuccessful_run_empty_time_marker(self, tmp_path):
        (path,) = export([synthetic_log(outcome="timeout")], "curve-series", tmp_path)
        lines = open(path).read().strip().splitlines()
        assert lines[1].split(",")[4] == ""  # arriving_time column empty

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export([synthetic_log()], "pie-chart", tmp_path)

    def test_filenames_encode_suite_policy_seed(self, tmp_path):
        log = synthetic_log(seed=42)
        (path,) = export([log], "trajectory-table", tmp_path)
        name = os.path.basename(path)
        assert "mapless" in name and "stub" in name and "42" in name

    def test_log_json_round_trip(self, tmp_path):
        log = synthetic_log(steps=5, k=1, m=2)
        p = tmp_path / "log.json"
        log.save(p)
        loaded = EpisodeLog.load(p)
        assert loaded.to_dict() == log.to_dict()

    def test_deterministic_bytes(self, tmp_path):
        log = synthetic_log(steps=6)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        (p1,) = export([log], "trajectory-table", d1)
        (p2,) = export([log], "trajectory-table", d2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_metrics_ego_score_iff_no_violation_steps():
    clean = compute_metrics([synthetic_log(k=0)])
    dirty = compute_metrics([synthetic_log(k=1)])
    assert clean.ego_score == 100.0
    assert dirty.ego_score < 100.0
