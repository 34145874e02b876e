"""Scenario suites, the episode stepper, metrics, episode logging, and export.

Metrics follow the violation-step convention: a step counts once toward
the social violation count m when at least one zone intersection is
present, and once toward the ego count k when anything sits inside the
ego-safety circle.  Scores are averaged per episode over all executed
steps, failed episodes included.  In-memory logs and exported trajectory
tables both reduce to EpisodeSummary, which holds the score formula.
Evaluation, the training probe and training itself all step NavEnv
through episode_steps.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .world import EnvConfig, NavEnv, Status, StepRecord

FLOAT_FMT = "%.9g"


@dataclass
class EpisodeLog:
    policy: str
    suite: str
    seed: int
    map_seed: int
    crowd_seed: int
    config: dict
    records: list[StepRecord]
    outcome: str
    arriving_time: float | None

    @property
    def steps(self) -> int:
        return len(self.records)

    def summary(self) -> "EpisodeSummary":
        return EpisodeSummary(
            outcome=self.outcome,
            steps=self.steps,
            arriving_time=self.arriving_time,
            ego_violation_steps=sum(1 for r in self.records if r.ego_violation),
            social_violation_steps=sum(1 for r in self.records if r.social_violations >= 1),
            reward_sum=sum(r.r_ego + r.r_social + r.r_goal for r in self.records),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "EpisodeLog":
        records = [StepRecord(**{**r, "pedestrians": [tuple(p) for p in r["pedestrians"]]}) for r in d["records"]]
        return EpisodeLog(**{**d, "records": records})

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, sort_keys=True)

    @staticmethod
    def load(path) -> "EpisodeLog":
        with open(path) as f:
            return EpisodeLog.from_dict(json.load(f))


@dataclass(frozen=True)
class EpisodeSummary:
    """Everything one episode contributes to the metrics and the series."""

    outcome: str
    steps: int
    arriving_time: float | None
    ego_violation_steps: int
    social_violation_steps: int
    reward_sum: float

    @property
    def ego_score(self) -> float:
        return self._score(self.ego_violation_steps)

    @property
    def social_score(self) -> float:
        return self._score(self.social_violation_steps)

    def _score(self, violation_steps: int) -> float:
        return (1.0 - violation_steps / max(self.steps, 1)) * 100.0


@dataclass(frozen=True)
class Metrics:
    runs: int
    success_rate: float  # percent
    arriving_time_mean: float | None  # successes only
    arriving_time_std: float | None
    ego_score: float  # 0-100
    social_score: float  # 0-100


# ---------------------------------------------------------------------------
# Suites


def suite_config(suite: str, base: EnvConfig | None = None) -> EnvConfig:
    """Environment configuration for a named suite.

    mapless: randomized static maps, no crowd; crowd:<kind>:<n>: an open
    area with a structured crowd and walk-ins; combined: both.
    """
    base = base if base is not None else EnvConfig()
    if suite == "mapless":
        return replace(base, scenario=None, crowd=replace(base.crowd, count=0, walk_in_probability=0.0))
    if suite.startswith("crowd:") or suite.startswith("combined:") or suite == "combined":
        parts = suite.split(":")
        if parts[0] == "crowd":
            if len(parts) != 3:
                raise ValueError(f"crowd suite spec must be crowd:<kind>:<count>, got {suite!r}")
            kind, count, obstacles = parts[1], int(parts[2]), (0, 0)
        else:  # combined: static obstacles plus a random crowd
            if len(parts) > 2:
                raise ValueError(f"combined suite spec must be combined[:<count>], got {suite!r}")
            kind, count = "random", int(parts[1]) if len(parts) > 1 else 8
            obstacles = base.obstacle_count_range
        crowd = replace(
            base.crowd,
            count=count,
            area=(5.0, 5.0),
            center=(0.0, 0.0),
            walk_in_probability=0.02,
            stop_go_probability=0.01,
        )
        return replace(base, scenario=kind, obstacle_count_range=obstacles, crowd=crowd)
    raise ValueError(
        f"unknown suite {suite!r}; expected mapless, crowd:<kind>:<count>, or combined[:<count>]"
    )


def episode_steps(policy, env_config: EnvConfig, map_seed: int, crowd_seed: int):
    """Build, reset and step one NavEnv under a policy; yield each StepOutcome.

    The generator ends after the terminal step; a caller may stop it
    earlier.  A policy with `wants_state` is handed the simulator's
    ground truth before each act().
    """
    env = NavEnv(env_config)
    obs = env.reset(map_seed=map_seed, crowd_seed=crowd_seed)
    policy.begin_episode(obs)
    wants_state = getattr(policy, "wants_state", False)
    while True:
        if wants_state:
            policy.observe_state(
                (env.x, env.y, env.heading),
                env_config.goal,
                [row[1:5] + row[8:9] for row in env.crowd.rows()],  # (x, y, vx, vy, radius)
            )
        outcome = env.step(policy.act(obs))
        yield outcome
        if outcome.done is not Status.RUNNING:
            return
        obs = outcome.observation


def run_episode(
    policy,
    env_config: EnvConfig,
    suite: str,
    seed: int,
    map_seed: int,
    crowd_seed: int,
) -> EpisodeLog:
    """One episode's log; it keeps the step records, not the observations."""
    records = []
    for outcome in episode_steps(policy, env_config, map_seed, crowd_seed):
        records.append(outcome.record)
    return EpisodeLog(
        policy=policy.name,
        suite=suite,
        seed=seed,
        map_seed=map_seed,
        crowd_seed=crowd_seed,
        config=env_config.to_dict(),
        records=records,
        outcome=outcome.done.value,
        arriving_time=outcome.record.t if outcome.done is Status.REACHED else None,
    )


def episode_seeds(root_seed: int, runs: int) -> list[tuple[int, int, int]]:
    """(run seed, map seed, crowd seed) triples expanded from one root."""
    state = np.random.SeedSequence(root_seed).generate_state(2 * runs)
    return [(root_seed + r, int(state[2 * r]), int(state[2 * r + 1])) for r in range(runs)]


def run_suite(
    policy,
    suite: str,
    runs: int = 10,
    root_seed: int = 0,
    base_config: EnvConfig | None = None,
) -> list[EpisodeLog]:
    """One log per run; failures are logged, never raised."""
    cfg = suite_config(suite, base_config)
    return [run_episode(policy, cfg, suite, *seeds) for seeds in episode_seeds(root_seed, runs)]


# ---------------------------------------------------------------------------
# Metrics


def compute_metrics(logs: list[EpisodeLog]) -> Metrics:
    if not logs:
        raise ValueError("compute_metrics requires at least one episode log")
    return _reduce([log.summary() for log in logs])


def _reduce(summaries: list[EpisodeSummary]) -> Metrics:
    times = [s.arriving_time for s in summaries if s.outcome == Status.REACHED.value]
    return Metrics(
        runs=len(summaries),
        success_rate=100.0 * len(times) / len(summaries),
        arriving_time_mean=float(np.mean(times)) if times else None,
        arriving_time_std=float(np.std(times)) if times else None,
        ego_score=float(np.mean([s.ego_score for s in summaries])),
        social_score=float(np.mean([s.social_score for s in summaries])),
    )


# ---------------------------------------------------------------------------
# Export

TRAJECTORY_COLUMNS = [
    "step",
    "t",
    "x",
    "y",
    "heading",
    "v_l",
    "omega",
    "a_x",
    "a_y",
    "r_ego",
    "r_social",
    "r_goal",
    "ego_violation",
    "social_violations",
    "outcome",
    "pedestrians",
]

EXPORT_FORMATS = ("trajectory-table", "metrics-table", "curve-series")


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def _traj_filename(log: EpisodeLog) -> str:
    return f"traj__{log.suite.replace(':', '-')}__{log.policy}__{log.seed}.csv"


def export_trajectory_table(log: EpisodeLog, out_dir) -> str:
    """Flat CSV, one row per policy step; pedestrians packed x:y:h;..."""
    path = os.path.join(out_dir, _traj_filename(log))
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for r in log.records:
        peds = ";".join(":".join(_fmt(v) for v in p) for p in r.pedestrians)
        row = [
            str(r.step),
            _fmt(r.t),
            _fmt(r.x),
            _fmt(r.y),
            _fmt(r.heading),
            _fmt(r.v_l),
            _fmt(r.omega),
            _fmt(r.a_x),
            _fmt(r.a_y),
            _fmt(r.r_ego),
            _fmt(r.r_social),
            _fmt(r.r_goal),
            str(int(r.ego_violation)),
            str(r.social_violations),
            log.outcome,
            peds,
        ]
        lines.append(",".join(row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def parse_trajectory_table(path) -> EpisodeSummary:
    """Recover the episode summary from an exported trajectory table."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        if header != TRAJECTORY_COLUMNS:
            raise ValueError(f"unexpected trajectory table columns in {path}")
        rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    if not rows:
        # every episode takes at least one step: a table without rows is truncated
        raise ValueError(f"trajectory table {path} has no rows")
    cols = {name: i for i, name in enumerate(TRAJECTORY_COLUMNS)}
    outcome = rows[-1][cols["outcome"]]
    return EpisodeSummary(
        outcome=outcome,
        steps=len(rows),
        arriving_time=float(rows[-1][cols["t"]]) if outcome == "reached" else None,
        ego_violation_steps=sum(int(r[cols["ego_violation"]]) for r in rows),
        social_violation_steps=sum(1 for r in rows if int(r[cols["social_violations"]]) >= 1),
        reward_sum=sum(
            float(r[cols["r_ego"]]) + float(r[cols["r_social"]]) + float(r[cols["r_goal"]])
            for r in rows
        ),
    )


def metrics_from_tables(paths) -> Metrics:
    """Recompute suite metrics from exported trajectory tables."""
    summaries = [parse_trajectory_table(p) for p in paths]
    if not summaries:
        raise ValueError("no trajectory tables given")
    return _reduce(summaries)


def export_metrics_table(logs: list[EpisodeLog], out_dir) -> str:
    """Structured key-value document with the four headline metrics."""
    metrics = compute_metrics(logs)
    suite = logs[0].suite
    policy = logs[0].policy
    doc = {
        "suite": suite,
        "policy": policy,
        "runs": metrics.runs,
        "metrics": {
            "success_rate": metrics.success_rate,
            "arriving_time": (
                {"mean": metrics.arriving_time_mean, "std": metrics.arriving_time_std}
                if metrics.arriving_time_mean is not None
                else None
            ),
            "ego_score": metrics.ego_score,
            "social_score": metrics.social_score,
        },
    }
    path = os.path.join(out_dir, f"metrics__{suite.replace(':', '-')}__{policy}.json")
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
    return path


def export_curve_series(logs: list[EpisodeLog], out_dir) -> str:
    """Per-episode summary series for plotting."""
    suite = logs[0].suite
    policy = logs[0].policy
    path = os.path.join(out_dir, f"episodes__{suite.replace(':', '-')}__{policy}.csv")
    lines = ["episode,seed,outcome,steps,arriving_time,ego_score,social_score,reward_sum"]
    for i, log in enumerate(logs):
        s = log.summary()
        lines.append(
            ",".join(
                [
                    str(i),
                    str(log.seed),
                    s.outcome,
                    str(s.steps),
                    _fmt(s.arriving_time) if s.arriving_time is not None else "",
                    _fmt(s.ego_score),
                    _fmt(s.social_score),
                    _fmt(s.reward_sum),
                ]
            )
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def export(logs: list[EpisodeLog], fmt: str, out_dir) -> list[str]:
    if not logs:
        raise ValueError("nothing to export")
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "trajectory-table":
        return [export_trajectory_table(log, out_dir) for log in logs]
    if fmt == "metrics-table":
        return [export_metrics_table(logs, out_dir)]
    if fmt == "curve-series":
        return [export_curve_series(logs, out_dir)]
    raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
