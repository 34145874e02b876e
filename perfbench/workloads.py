"""The benchmark's workloads: set-up, one timed pass, and its checks.

Every workload is a closed loop with one client: the next policy step,
episode or training step starts only after the previous one returned.
A run is PASSES passes, each a fixed amount of work generated from the
workload seed, after one untimed warm-up.  The program only ever sees
the generated episode and training seeds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from socnavsim import ddpg, evaluation
from socnavsim.baselines import GreedyPolicy
from socnavsim.lidar import HISTORY_LEN
from socnavsim.world import EnvConfig, load_config

DEFAULT_SEED = 0
PASSES = 3
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

clock = time.perf_counter

# calibrate() on the reference host (2-core x86, Python 3.11, numpy 2.4)
# when no neighbour loads it
CALIBRATION_S = 0.016


def calibrate() -> float:
    """Seconds a fixed pure-Python and small-numpy kernel takes right now.

    The reference host changes speed by up to a quarter within minutes as
    its neighbours load it.  Every timing is scaled by CALIBRATION_S over
    the median of calibrations taken around it, so the metrics read as on
    the uncontended reference host and a change of host speed cancels
    out.  The kernel shares no code with the program under test.
    """
    start = clock()
    x = 0
    for i in range(150_000):
        x += i * i
    a = np.full((64, 64), 0.5)
    for _ in range(40):
        a = np.tanh(a @ a / 64)
    return clock() - start


def uncalibrated() -> float:
    """Stand-in for calibrate() that takes no time and scales by 1."""
    return CALIBRATION_S


def scale(samples) -> float:
    """Factor from timings to reference-host time, given calibrations."""
    return CALIBRATION_S / statistics.median(samples)


@dataclass
class PassResult:
    start: float
    end: float
    steps: int  # policy steps (eval) or environment steps (train)
    latencies_ms: list  # scaled; one per step (eval) or one per pass (train)
    work_s: float = 0.0  # timed work, calibrations excluded
    scaled_s: float = 0.0  # the same in reference-host seconds
    attempted: int = 0
    failed: int = 0
    signature: object = None  # outputs that a rerun on the same inputs must repeat
    errors: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


class ClosedLoopClient:
    """Drives a policy for run_episode and stamps the start of every act().

    One step's latency runs from its act() to the next act(), or to the
    return of run_episode for the last step: the policy decision, the
    environment step and the runner's bookkeeping.
    """

    def __init__(self, policy):
        self.policy = policy
        self.name = policy.name
        self.stamps: list[float] = []

    def begin_episode(self, obs) -> None:
        self.stamps = []
        self.policy.begin_episode(obs)

    def act(self, obs):
        self.stamps.append(clock())
        return self.policy.act(obs)

    def latencies_ms(self, end: float) -> list[float]:
        marks = self.stamps + [end]
        return [1e3 * (b - a) for a, b in zip(marks, marks[1:])]


def _metrics_close(a, b) -> bool:
    def close(x, y):
        if x is None or y is None:
            return x is y
        return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-6)

    return (
        a.runs == b.runs
        and close(a.success_rate, b.success_rate)
        and close(a.ego_score, b.ego_score)
        and close(a.social_score, b.social_score)
        and close(a.arriving_time_mean, b.arriving_time_mean)
        and close(a.arriving_time_std, b.arriving_time_std)
    )


def reference_summary(logs) -> dict:
    """Suite metrics and total policy steps of a list of episode logs."""
    m = evaluation.compute_metrics(logs)
    return {
        "success_rate": m.success_rate,
        "ego_score": m.ego_score,
        "social_score": m.social_score,
        "steps": sum(log.steps for log in logs),
    }


class EvalWorkload:
    """Greedy policy on one suite: suite_config -> episode_seeds ->
    run_episode -> compute_metrics -> export (all formats).

    The run takes episodes in order from one seed stream.  Pass k runs
    the episodes after pass k-1's until it has taken its share of
    steps_per_second * seconds policy steps, then computes the metrics
    and exports them.
    """

    def __init__(self, name, root, seed, seconds, *, suite, beam_count, steps_per_second):
        self.name = name
        self.suite = suite
        self.seed = seed
        self.config = evaluation.suite_config(self.suite, EnvConfig(beam_count=beam_count))
        self.policy = GreedyPolicy(self.config.lidar())
        self.pass_steps = max(1, round(steps_per_second * seconds / PASSES))
        # every episode takes at least one step; the last one is for warming up
        self.seeds = evaluation.episode_seeds(seed, PASSES * self.pass_steps + 1)
        self.first_episode = [0]  # of each pass, known once the pass before it ran
        self.tmp_root = os.path.join(root, ".perfbench", "tmp")
        os.makedirs(self.tmp_root, exist_ok=True)

    def warm_up(self) -> None:
        """One untimed episode from past the end of the run's stream."""
        evaluation.run_episode(self.policy, self.config, self.suite, *self.seeds[-1])

    def run_pass(self, k: int, calibrate=calibrate) -> PassResult:
        out_dir = tempfile.mkdtemp(dir=self.tmp_root)
        try:
            return self._run_pass(k, out_dir, calibrate)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _run_pass(self, k, out_dir, calibrate) -> PassResult:
        """Episodes, then metrics and export, with a calibration after each."""
        logs, latencies, steps, raised = [], [], 0, 0
        work = 0.0
        first = self.first_episode[k]
        samples = [calibrate()]
        start = clock()
        for seed, map_seed, crowd_seed in self.seeds[first:-1]:
            client = ClosedLoopClient(self.policy)
            t0 = clock()
            try:
                log = evaluation.run_episode(
                    client, self.config, self.suite, seed, map_seed, crowd_seed
                )
            except Exception:  # an episode that raised is a failed operation
                traceback.print_exc(file=sys.stderr)
                raised += 1
                log = None
            t1 = clock()
            samples.append(calibrate())
            work += t1 - t0
            if log is None:
                continue
            latencies.extend(client.latencies_ms(t1))
            logs.append(log)
            steps += log.steps
            if steps >= self.pass_steps:
                break
        t0 = clock()
        metrics = evaluation.compute_metrics(logs) if logs else None
        tables = []
        if logs:
            for fmt in evaluation.EXPORT_FORMATS:
                paths = evaluation.export(logs, fmt, out_dir)
                if fmt == "trajectory-table":
                    tables = paths
        end = clock()
        work += end - t0
        samples.append(calibrate())
        factor = scale(samples)

        if len(self.first_episode) == k + 1:
            self.first_episode.append(first + len(logs) + raised)
        result = PassResult(start, end, steps, [factor * x for x in latencies], work,
                            factor * work)
        result.attempted = len(logs) + raised
        result.failed = raised
        result.signature = (steps, len(logs), metrics)
        result.check(metrics is not None, "no episode completed")
        if metrics is not None:
            result.check(
                _metrics_close(evaluation.metrics_from_tables(tables), metrics),
                "metrics_from_tables(exported tables) != compute_metrics(logs)",
            )
        if k == 0 and self.seed == DEFAULT_SEED and logs:
            self._check_reference(logs, result)
        return result

    def _check_reference(self, logs, result: PassResult) -> None:
        with open(REFERENCE_PATH) as f:
            table = json.load(f)[self.name]
        n = min(len(logs), len(table))
        want = table[n - 1]
        got = reference_summary(logs[:n])
        same = got["steps"] == want["steps"] and all(
            math.isclose(got[key], want[key], rel_tol=1e-9, abs_tol=1e-9)
            for key in ("success_rate", "ego_score", "social_score")
        )
        result.check(same, f"first {n} episodes differ from the reference: {got} != {want}")


class TrainWorkload:
    """ddpg.train("ego") on configs/desk.yaml with a short budget.

    Pass k is one train() call with the k-th seed drawn from the workload
    seed: the warm-up fills exactly one batch, then one update runs every
    update_every steps until its share of 2.4 updates per second of run
    time have been made.  Evaluation and checkpoints are off.
    """

    batch_size = 128
    warmup = 128
    update_every = 2

    def __init__(self, name, root, seed, seconds):
        self.name = name
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(PASSES + 1)]
        self.config = load_config(os.path.join(root, "configs", "desk.yaml"))
        self.updates = max(1, int(2.4 * seconds / PASSES))
        self.train_config = self._train_config(self.updates)
        # what train() builds before its first step
        spec = ddpg.default_network_spec(HISTORY_LEN, self.config.beam_count)
        ddpg.DDPG(spec, self.train_config.ddpg, np.random.default_rng(seed))
        ddpg.ReplayBuffer(self.train_config.total_env_steps, spec.feature_shape)

    def _train_config(self, updates: int):
        budget = self.warmup + self.update_every * (updates - 1)
        return ddpg.TrainConfig(
            total_env_steps=budget,
            warmup_steps=self.warmup,
            update_every=self.update_every,
            eval_every=budget + 1,
            checkpoint_every=budget + 1,
            ddpg=ddpg.DDPGConfig(batch_size=self.batch_size),
        )

    def warm_up(self) -> None:
        """An untimed two-update training run on a seed no pass uses."""
        ddpg.train("ego", self.config, self._train_config(2), seed=self.seeds[-1])

    def run_pass(self, k: int, calibrate=calibrate) -> PassResult:
        """One train() call between two sets of calibrations."""
        samples = [calibrate() for _ in range(3)]
        start = clock()
        try:
            learner, curve = ddpg.train("ego", self.config, self.train_config, seed=self.seeds[k])
        except ddpg.TrainingDiverged as exc:
            end = clock()
            result = PassResult(start, end, exc.diagnostics.get("env_steps", 0), [], end - start,
                                end - start)
            result.attempted = result.failed = 1
            result.errors.append(f"training diverged: {exc}")
            return result
        end = clock()
        samples += [calibrate() for _ in range(3)]
        scaled = scale(samples) * (end - start)
        steps = curve[-1]["env_steps"]
        result = PassResult(start, end, steps, [1e3 * scaled / max(steps, 1)], end - start, scaled)
        result.attempted = 1
        losses = [r["critic_loss"] for r in curve if r["kind"] == "episode"]
        result.signature = (learner.updates, losses)
        result.check(
            learner.updates == self.updates,
            f"{learner.updates} updates, budget and warm-up imply {self.updates}",
        )
        result.check(
            all(loss is None or math.isfinite(loss) for loss in losses),
            "non-finite critic loss",
        )
        return result


# The reasons for each workload are recorded in BENCHMARK.json.
# steps_per_second sizes the passes so that a run takes about --seconds
# on a 2-core x86 host, even while neighbours slow it down.
WORKLOADS = {
    "eval-crowd20": partial(
        EvalWorkload, suite="crowd:random:20", beam_count=180, steps_per_second=36
    ),
    "eval-mapless1080": partial(
        EvalWorkload, suite="mapless", beam_count=1080, steps_per_second=75
    ),
    "train-desk": TrainWorkload,
}


def make(name, root, seed, seconds):
    """Set a workload up: everything before its first timed operation."""
    return WORKLOADS[name](name, root, seed, seconds)
