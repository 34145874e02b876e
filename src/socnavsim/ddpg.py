"""Off-policy actor-critic training with a replay ring buffer.

Critic target: y = r + gamma * (1 - done) * Q'(o', mu'(o')); the actor
ascends mean Q(o, mu(o)); both target networks track the online ones by
soft updates.  The ego stage learns from the ego-safety and goal terms
only; the social stage adds the zone-intersection term and warm-starts
from ego parameters.
"""

from __future__ import annotations

import bisect
import copy
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import evaluation
from .crowd import SCENARIO_KINDS
from .evaluation import episode_seeds, episode_steps
from .lidar import HISTORY_LEN
from .networks import (
    ACTION_DIM,
    ACTION_SCALE,
    Actor,
    Critic,
    NetworkSpec,
    Stacks,
    default_network_spec,
    featurize,
    fronts,
    gather,
    goal_input,
    load_params,
    save_checkpoint,
    soft_update,
)
from .nn import Adam
from .policies import LearnedPolicy
from .world import EnvConfig, Status

# a checkpoint's networks, by part name: each is the DDPG attribute of that name
NETWORK_PARTS = ("actor", "critic", "target_actor", "target_critic")

STAGE_REWARD_WEIGHTS = {
    "ego": (1.0, 0.0, 1.0),
    "social": (1.0, 1.0, 1.0),
}


class TrainingDiverged(RuntimeError):
    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def mem_available_bytes() -> int | None:
    """MemAvailable from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024  # reported in kB
    except (OSError, ValueError, IndexError):
        pass
    return None


class ReplayBuffer:
    """Uniform-sampling FIFO ring buffer of transitions that stores each
    scan once.

    Consecutive observations share all but scans_per_step of their K
    scans (lidar.MotionFeature), so the buffer keeps a ring of
    normalized sweeps, float16 of each scan's normalized row
    (float32(r / RANGE_MAX)), and writes a sweep only when the last
    stored observation does not already hold that scan (the frame-stack
    deduplication of DQN replays, Mnih et al., Nature 2015).  A scan
    always reads the one read-only array, so the buffer knows a stored
    sweep by the scan itself.
    Per transition it keeps the ring slots and shifts of the K rows of
    the observation and of the next one, the goal, action, reward parts
    (separate, so either stage can recombine them), next goal and done
    flag.  A sampled batch holds indices only: the learner gathers its
    rows from the ring (networks.Stacks), to the bits the stored float16
    feature stacks used to have.

    Transitions come in episode order: each obs is the previous
    next_obs, or an episode's reset observation.  So a transition writes
    at most scans_per_step + 1 sweeps, the reset sweep only when it opens
    an episode, and the ring of capacity * (scans_per_step + 1) + K
    sweeps, which also holds the K sweeps of the oldest observation,
    never overwrites a live one.  Its size is fixed, and the arrays are
    committed lazily, page by page as they fill, so a buffer larger than
    the available memory is refused up front instead of being killed
    for memory mid-training.
    """

    SAMPLED = ("goal", "action", "next_goal", "done", "feat_slots", "feat_shifts", "next_slots", "next_shifts")

    def __init__(self, capacity: int, feature_shape: tuple[int, int], scans_per_step: int = 4):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        need = self.footprint(capacity, feature_shape, scans_per_step)
        available = mem_available_bytes()
        if available is not None and need > available:
            fits = bisect.bisect_right(range(capacity), available,
                                       key=lambda c: self.footprint(c, feature_shape, scans_per_step)) - 1
            raise ValueError(
                f"replay buffer of {capacity} transitions needs {need} bytes "
                f"({self.bytes_per_transition(feature_shape, scans_per_step)} per transition) but only "
                f"{available} bytes are available; the largest capacity that fits is {fits}"
            )
        self.capacity = capacity
        for name, (shape, dtype) in self.layout(capacity, feature_shape, scans_per_step).items():
            setattr(self, name, np.zeros(shape, dtype))
        self.pos = 0
        self.size = 0
        self.head = 0  # the ring slot the next sweep goes to
        # id(scan) -> (scan, ring slot) of the last stored observation's
        # scans; the entry holds the scan, so no other live object has its id
        self._known = {}

    @classmethod
    def layout(cls, capacity: int, feature_shape: tuple[int, int], scans_per_step: int) -> dict:
        """(shape, dtype) of every stored array."""
        k, b = feature_shape
        ring = capacity * (scans_per_step + 1) + k
        return {
            "sweeps": ((ring, b), np.float16),
            "feat_slots": ((capacity, k), np.int32),
            "feat_shifts": ((capacity, k), np.int16),
            "goal": ((capacity, 2), np.float32),
            "action": ((capacity, ACTION_DIM), np.float32),
            "reward_parts": ((capacity, 3), np.float32),
            "next_slots": ((capacity, k), np.int32),
            "next_shifts": ((capacity, k), np.int16),
            "next_goal": ((capacity, 2), np.float32),
            "done": ((capacity,), np.float32),
        }

    @classmethod
    def footprint(cls, capacity: int, feature_shape: tuple[int, int], scans_per_step: int = 4) -> int:
        """Bytes of all arrays of a buffer of capacity transitions."""
        return sum(math.prod(shape) * np.dtype(dtype).itemsize
                   for shape, dtype in cls.layout(capacity, feature_shape, scans_per_step).values())

    @classmethod
    def bytes_per_transition(cls, feature_shape: tuple[int, int], scans_per_step: int = 4) -> int:
        """Bytes each transition adds to the footprint."""
        return cls.footprint(2, feature_shape, scans_per_step) - cls.footprint(1, feature_shape, scans_per_step)

    def add(self, obs, action, reward_parts, next_obs, done: bool):
        """Store a transition between two MotionFeatures, writing into
        the ring only the sweeps of scans that no stored observation holds."""
        i = self.pos
        self._store(obs, self.feat_slots[i], self.feat_shifts[i])
        self._store(next_obs, self.next_slots[i], self.next_shifts[i])
        self._known = {id(scan): self._known[id(scan)] for scan in next_obs.scans}
        self.goal[i] = goal_input(obs)
        self.action[i] = action
        self.reward_parts[i] = reward_parts
        self.next_goal[i] = goal_input(next_obs)
        self.done[i] = float(done)
        self.pos = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def _store(self, obs, slots, shifts) -> None:
        """The ring slots of obs's scans into slots, writing the sweeps
        that are not in the ring yet, and its shifts into shifts."""
        for k, scan in enumerate(obs.scans):
            hit = self._known.get(id(scan))
            if hit is None:
                hit = self._known[id(scan)] = (scan, self._write(scan))
            slots[k] = hit[1]
        shifts[:] = obs.shifts

    def _write(self, scan) -> int:
        slot = self.head
        self.sweeps[slot] = scan.normalized
        self.head = (slot + 1) % len(self.sweeps)
        return slot

    def sample(self, batch_size: int, rng: np.random.Generator, reward_weights, out=None) -> dict:
        """batch_size transitions drawn uniformly, with the reward parts
        combined by reward_weights.  The observations are Stacks of ring
        sweeps, which the learner gathers once per update.  out, a batch an
        earlier call returned for the same batch_size, is refilled in
        place and returned, so a training loop allocates its batch once.
        """
        if batch_size > self.size:
            raise ValueError("batch size exceeds buffer occupancy")
        idx = rng.integers(0, self.size, batch_size)
        reward = self.reward_parts[idx] @ np.asarray(reward_weights, np.float32)
        if out is None:
            out = {name: getattr(self, name)[idx] for name in self.SAMPLED}
        else:
            for name in self.SAMPLED:
                # indices are in range; mode="clip" skips take's buffered copy
                np.take(getattr(self, name), idx, axis=0, out=out[name], mode="clip")
        out["reward"] = reward
        out["feat"] = Stacks(self.sweeps, out["feat_slots"], out["feat_shifts"])
        out["next_feat"] = Stacks(self.sweeps, out["next_slots"], out["next_shifts"])
        return out


@dataclass(frozen=True)
class DDPGConfig:
    gamma: float = 0.99
    tau: float = 0.005
    lr_actor: float = 1e-4
    lr_critic: float = 1e-3
    batch_size: int = 128
    buffer_capacity: int = 200_000
    # L2 pull on pre-squash logits; without it the actor can wedge into a
    # tanh rail corner where gradients vanish and clipped exploration
    # noise never samples the opposite side
    logit_penalty: float = 1e-3

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.buffer_capacity < self.batch_size:
            raise ValueError(f"buffer_capacity {self.buffer_capacity} can never fill a batch of {self.batch_size}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        for name in ("lr_actor", "lr_critic"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not self.logit_penalty >= 0.0:
            raise ValueError(f"logit_penalty must be non-negative, got {self.logit_penalty}")


class DDPG:
    """Actor-critic pair with target networks and Adam optimizers."""

    def __init__(self, spec: NetworkSpec, config: DDPGConfig, rng, dtype=np.float32):
        self.spec = spec
        self.config = config
        self.actor = Actor(spec, rng, dtype)
        self.critic = Critic(spec, rng, dtype)
        # the targets start as copies of the online networks
        self.target_actor = copy.deepcopy(self.actor)
        self.target_critic = copy.deepcopy(self.critic)
        self.opt_actor = Adam(self.actor.params(), config.lr_actor)
        self.opt_critic = Adam(self.critic.params(), config.lr_critic)
        self.updates = 0

    def act(self, feat, goal) -> np.ndarray:
        """The action for one observation's featurize() inputs."""
        return self.actor.act(feat, goal[None])[0]

    def update(self, batch: dict) -> tuple[float, float]:
        """One critic step, one actor step, then soft target updates.

        batch["feat"] and batch["next_feat"] are Stacks, as a replay
        batch's and featurize()'s are, or (N, K, B) arrays.  Each Stacks is
        gathered once (networks.gather) into a float32 array that lives for
        the passes reading it: the next observations for the target pass,
        then the current ones for the other four.  Each trunk runs over
        blocks of samples in reused scratch (nn.conv_stack), and only its
        output, written into the head input, and what its backward reads
        outlive a block.  Networks whose conv1 weights are current at the
        same moment share each block's patches and tap GEMMs
        (networks.fronts): the target actor and target critic on the next
        observations, and, after the critic's step, the actor and the
        critic's second pass on the current ones.  Only the passes that
        backprop into their trunks (the critic's first, the actor's) keep
        caches; the actor step needs only the critic head's input gradient.
        """
        cfg = self.config
        n = batch["feat"].shape[0]
        y = self._target_values(batch, gather(batch["next_feat"], self.target_critic.trunk))

        feat, goal = gather(batch["feat"], self.critic.trunk), batch["goal"]
        q, cache = self.critic.forward(feat, goal, batch["action"])
        diff = q - y
        critic_loss = float(np.mean(diff * diff))
        # each del frees what the rest of the update no longer reads
        # before the next pass allocates: it keeps the working set small
        cgrads = self.critic.backward((2.0 / n) * diff, cache, param_grads=True)[1]
        del cache
        self.opt_critic.step(cgrads)
        del cgrads

        front_actor, front_critic = fronts((self.actor, self.critic), feat, (True, False))
        a, acache = self.actor.forward(feat, goal, front_actor)
        q_pi, ccache = self.critic.forward(feat, goal, a, front_critic)
        dq_da = self.critic.backward(np.full(n, -1.0 / n, dtype=q_pi.dtype), ccache, param_grads=False)[0]
        del front_actor, front_critic, ccache
        agrads = self.actor.backward(dq_da, acache, cfg.logit_penalty)
        del acache
        self.opt_actor.step(agrads)

        soft_update(self.target_actor, self.actor, cfg.tau)
        soft_update(self.target_critic, self.critic, cfg.tau)
        self.updates += 1
        return critic_loss, float(np.mean(q_pi))

    def _target_values(self, batch: dict, feat) -> np.ndarray:
        """Critic targets y = r + gamma * (1 - done) * Q'(o', mu'(o')), on
        feat, the next observations as conv1 reads them.

        The target networks share one front and never backprop, so they
        keep no caches.
        """
        goal = batch["next_goal"]
        front_actor, front_critic = fronts((self.target_actor, self.target_critic), feat, (False, False))
        a_next = self.target_actor.forward(feat, goal, front_actor)[0]
        del front_actor
        q_next = self.target_critic.forward(feat, goal, a_next, front_critic)[0]
        return batch["reward"] + self.config.gamma * (1.0 - batch["done"]) * q_next

    # -- persistence

    def named_parts(self) -> dict:
        return {name: getattr(self, name).params() for name in NETWORK_PARTS}

    def save(self, path, meta: dict) -> None:
        meta = dict(meta)
        meta["network_spec"] = self.spec.to_dict()
        meta["config_hash"] = self.spec.config_hash()
        save_checkpoint(path, self.named_parts(), meta)

    def load_parts(self, parts: dict) -> None:
        for name in NETWORK_PARTS:
            if name in parts:
                load_params(getattr(self, name), parts[name])


# ---------------------------------------------------------------------------
# Training loop


@dataclass(frozen=True)
class TrainConfig:
    total_env_steps: int = 300_000
    warmup_steps: int = 1_000
    update_every: int = 2
    noise_sigma_start: float = 0.5
    noise_sigma_end: float = 0.05
    random_action_prob: float = 0.05  # occasional uniform action, escapes rail lock-in
    eval_every: int = 10_000
    eval_episodes: int = 5
    eval_env_config: EnvConfig | None = None  # probe distribution, else the training one
    early_stop_success: float | None = None
    checkpoint_every: int = 50_000
    scenario_cycle: tuple = (None,)
    # per-episode start placed at a random fraction of the start-goal
    # distance; frequent early arrivals bootstrap the value of reaching
    start_distance_fractions: tuple[float, float] | None = None
    divergence_threshold: float = 1e6
    ddpg: DDPGConfig = field(default_factory=DDPGConfig)

    def __post_init__(self):
        for name in ("update_every", "eval_every", "eval_episodes", "checkpoint_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("total_env_steps", "warmup_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not self.scenario_cycle:
            raise ValueError("scenario_cycle must name at least one scenario (None for uniform)")
        for kind in self.scenario_cycle:
            if kind is not None and kind not in SCENARIO_KINDS:
                raise ValueError(f"unknown scenario kind {kind!r}; expected None or one of {SCENARIO_KINDS}")
        if self.start_distance_fractions is not None:
            lo, hi = self.start_distance_fractions
            if not 0.0 < lo <= hi <= 1.0:
                raise ValueError(f"start_distance_fractions must satisfy 0 < lo <= hi <= 1, got {(lo, hi)}")
        if not 0.0 <= self.random_action_prob <= 1.0:
            raise ValueError(f"random_action_prob must lie in [0, 1], got {self.random_action_prob}")
        for name in ("noise_sigma_start", "noise_sigma_end"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)}")
        if self.early_stop_success is not None and not 0.0 <= self.early_stop_success <= 1.0:
            raise ValueError(f"early_stop_success must lie in [0, 1], got {self.early_stop_success}")
        if not self.divergence_threshold > 0.0:
            raise ValueError(f"divergence_threshold must be positive, got {self.divergence_threshold}")

    def noise_sigma(self, env_steps: int) -> float:
        """Exploration sigma after env_steps steps, linear from start to end over the budget."""
        return self.noise_sigma_start + (self.noise_sigma_end - self.noise_sigma_start) * min(
            1.0, env_steps / max(self.total_env_steps, 1)
        )


class Training:
    """One stage's training state, and its behaviour policy.

    It holds the learner, the replay, the five random streams of
    SeedSequence(seed).spawn(5) (initialization, noise, replay sampling,
    episode seeds, and the one draw of the probe seed), the counters and
    the curve.  run() drives episodes through evaluation.episode_steps
    with the object itself as the policy: a uniform draw of the noise
    stream through the warm-up and, after it, with probability
    random_action_prob; else the actor's action plus Gaussian noise of
    the annealed sigma, clipped to the action box.  obs is the
    observation the last action answered.
    """

    name = "behaviour"

    def __init__(self, stage: str, env_config: EnvConfig, config: TrainConfig, seed: int,
                 warm_start_parts: dict | None, out_dir: str | None):
        probe = config.eval_env_config
        if probe is not None and probe.beam_count != env_config.beam_count:
            raise ValueError(f"the probe env has {probe.beam_count} beams and the training env "
                             f"{env_config.beam_count}: the actor reads one beam count")
        self.stage, self.env_config, self.config, self.out_dir = stage, env_config, config, out_dir
        self.weights = STAGE_REWARD_WEIGHTS[stage]
        streams = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(5))
        init_rng, self.noise_rng, self.buffer_rng, self.env_seed_rng, eval_rng = streams
        self.eval_seed = int(eval_rng.integers(2**31))

        spec = default_network_spec(HISTORY_LEN, env_config.beam_count)
        self.learner = DDPG(spec, config.ddpg, init_rng)
        if warm_start_parts is not None:
            self.learner.load_parts(warm_start_parts)
        self.replay = ReplayBuffer(min(config.ddpg.buffer_capacity, max(config.total_env_steps, 1)),
                                   spec.feature_shape, env_config.scan_hz // env_config.policy_hz)
        self.curve: list[dict] = []
        self.curve_path = None
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            self.curve_path = os.path.join(out_dir, f"curve_{stage}.jsonl")
            open(self.curve_path, "w").close()
        self.env_steps = self.episode = 0
        self.best_eval = -1.0
        self.batch = None  # the replay batch, refilled in place by each update
        self.obs = None

    def begin_episode(self, obs) -> None:
        self.obs = obs

    def act(self, obs) -> np.ndarray:
        tc, rng = self.config, self.noise_rng
        self.obs = obs
        if self.env_steps < tc.warmup_steps or rng.random() < tc.random_action_prob:
            return rng.uniform(-ACTION_SCALE, ACTION_SCALE, ACTION_DIM)
        action = self.learner.act(*featurize(obs))
        noise = rng.normal(0.0, tc.noise_sigma(self.env_steps), ACTION_DIM)
        return np.clip(action + noise, -ACTION_SCALE, ACTION_SCALE)

    def run(self) -> None:
        """Episodes until the budget or early stop, between the init and final checkpoints."""
        self.checkpoint("init")
        stop = self.config.total_env_steps == 0
        while not stop:
            stop = self.run_episode()
        final_path = self.checkpoint("final")
        self.emit({"kind": "done", "env_steps": self.env_steps, "episodes": self.episode,
                   "final_checkpoint": os.path.basename(final_path) if final_path else None})

    def run_episode(self) -> bool:
        """One episode, cut short when training stops; returns whether it did."""
        tc = self.config
        cfg = replace(self.env_config, scenario=tc.scenario_cycle[self.episode % len(tc.scenario_cycle)])
        if tc.start_distance_fractions is not None:
            frac = float(self.env_seed_rng.uniform(*tc.start_distance_fractions))
            (gx, gy), (sx, sy) = cfg.goal, cfg.start
            cfg = replace(cfg, start=(gx + (sx - gx) * frac, gy + (sy - gy) * frac))
        map_seed = int(self.env_seed_rng.integers(2**31))
        crowd_seed = int(self.env_seed_rng.integers(2**31))
        ep_return, stop = 0.0, False
        part_sums = [0.0, 0.0, 0.0]  # ego, social, goal
        losses, qs = [], []  # what each of the episode's updates returned

        for outcome in episode_steps(self, cfg, map_seed, crowd_seed):
            record = outcome.record
            reward_parts = (record.r_ego, record.r_social, record.r_goal)
            terminal = outcome.done in (Status.REACHED, Status.COLLIDED)
            self.replay.add(self.obs, (record.a_x, record.a_y), reward_parts, outcome.observation, terminal)
            ep_return += float(np.dot(self.weights, reward_parts))
            for i, part in enumerate(reward_parts):
                part_sums[i] += float(part)
            self.env_steps += 1
            steps = self.env_steps
            if steps >= tc.warmup_steps and steps % tc.update_every == 0 and self.replay.size >= tc.ddpg.batch_size:
                closs, q = self.update()
                losses.append(closs)
                qs.append(q)
            if steps % tc.eval_every == 0:
                stop = self.probe()
            if steps % tc.checkpoint_every == 0:
                self.checkpoint(f"step{steps}")
            if stop or steps >= tc.total_env_steps:
                stop = True
                break

        n = len(losses)
        self.emit({"kind": "episode", "episode": self.episode, "env_steps": self.env_steps, "return": ep_return,
                   "outcome": outcome.done.value, "steps": outcome.record.step,
                   "r_ego_sum": part_sums[0], "r_social_sum": part_sums[1], "r_goal_sum": part_sums[2],
                   "critic_loss": losses[-1] if n else None, "updates": n,
                   "critic_loss_mean": sum(losses) / n if n else None, "q_mean": sum(qs) / n if n else None,
                   "noise_sigma": tc.noise_sigma(self.env_steps - 1)})
        self.episode += 1
        return stop

    def update(self) -> tuple[float, float]:
        """One learner update on a replay batch; returns the critic loss
        and the mean Q(s, mu(s)) of DDPG.update, or raises
        TrainingDiverged after a diverged checkpoint."""
        tc = self.config
        self.batch = self.replay.sample(tc.ddpg.batch_size, self.buffer_rng, self.weights, out=self.batch)
        closs, q = self.learner.update(self.batch)
        if not math.isfinite(closs) or closs > tc.divergence_threshold:
            self.checkpoint("diverged")
            raise TrainingDiverged(
                f"critic loss {closs:.3e} exceeded {tc.divergence_threshold:.1e}",
                {"env_steps": self.env_steps, "updates": self.learner.updates, "critic_loss": closs},
            )
        return closs, q

    def probe(self) -> bool:
        """Records the deterministic actor's success rate and its counts
        of each outcome over the probe episodes, the same seeds each
        time, with a best checkpoint when it is a new best; returns
        whether it meets early_stop_success."""
        tc = self.config
        cfg = tc.eval_env_config if tc.eval_env_config is not None else self.env_config
        policy = LearnedPolicy(self.learner.actor, f"learned-{self.stage}")
        outcomes = [evaluation.run_episode(policy, cfg, "probe", *seeds).outcome
                    for seeds in episode_seeds(self.eval_seed, tc.eval_episodes)]
        counts = {status: outcomes.count(status.value) for status in (Status.REACHED, Status.COLLIDED, Status.TIMEOUT)}
        success = counts[Status.REACHED] / tc.eval_episodes
        if success > self.best_eval:
            self.best_eval = success
            self.checkpoint("best")
        self.emit({"kind": "eval", "env_steps": self.env_steps, "success_rate": success,
                   "successes": counts[Status.REACHED], "collisions": counts[Status.COLLIDED],
                   "timeouts": counts[Status.TIMEOUT]})
        return tc.early_stop_success is not None and success >= tc.early_stop_success

    def emit(self, record: dict) -> None:
        self.curve.append(record)
        if self.curve_path is not None:
            with open(self.curve_path, "a") as f:
                f.write(json.dumps(record, sort_keys=True) + "\n")

    def checkpoint(self, tag: str) -> str | None:
        if self.out_dir is None:
            return None
        path = os.path.join(self.out_dir, f"checkpoint_{self.stage}_{tag}.npz")
        meta = {"stage": self.stage, "env_steps": self.env_steps, "updates": self.learner.updates,
                "beam_count": self.env_config.beam_count}
        self.learner.save(path, meta)
        return path


def train(
    stage: str,
    env_config: EnvConfig,
    train_config: TrainConfig,
    seed: int,
    warm_start_parts: dict | None = None,
    out_dir: str | None = None,
    allow_cold_social: bool = False,
):
    """Run one training stage; returns (learner, curve records).

    Writes periodic checkpoints and an append-only JSONL curve when
    out_dir is given.  A zero budget returns the initialization (or the
    warm start) unchanged.
    """
    if stage not in STAGE_REWARD_WEIGHTS:
        raise ValueError(f"unknown stage {stage!r}")
    if stage == "social" and warm_start_parts is None and not allow_cold_social:
        raise ValueError("social stage requires an ego warm start (or an explicit override)")
    training = Training(stage, env_config, train_config, seed, warm_start_parts, out_dir)
    training.run()
    return training.learner, training.curve
