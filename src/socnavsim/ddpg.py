"""Off-policy actor-critic training with a replay ring buffer.

Critic target: y = r + gamma * (1 - done) * Q'(o', mu'(o')); the actor
ascends mean Q(o, mu(o)); both target networks track the online ones by
soft updates.  The ego stage learns from the ego-safety and goal terms
only; the social stage adds the zone-intersection term and warm-starts
from ego parameters.
"""

from __future__ import annotations

import bisect
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
    goal_input,
    load_params,
    normalize,
    save_checkpoint,
    soft_update,
)
from .nn import Adam
from .policies import LearnedPolicy
from .world import EnvConfig, Status

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
    sweeps (lidar.MotionFeature), so the buffer keeps a ring of
    normalized sweeps, float16(float32(r / RANGE_MAX)), and writes a
    sweep only when a stored observation does not already hold it (the
    frame-stack deduplication of DQN replays, Mnih et al., Nature 2015).
    Per transition it keeps the ring slots and shifts of the K rows of
    the observation and of the next one, the goal, action, reward parts
    (separate, so either stage can recombine them), next goal and done
    flag.  A sampled batch holds indices only: conv1 gathers each
    block's rows from the ring (networks.Stacks), to the bits the stored
    float16 feature stacks used to have.

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
        self._known = {}  # scan number -> (sweep, ring slot) of the last stored observation's rows

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
        the ring only the sweeps that no stored observation holds."""
        i = self.pos
        self._store(obs, self.feat_slots[i], self.feat_shifts[i])
        self._store(next_obs, self.next_slots[i], self.next_shifts[i])
        self._known = {scan: self._known[scan] for scan in next_obs.scans}
        self.goal[i] = goal_input(obs)
        self.action[i] = action
        self.reward_parts[i] = reward_parts
        self.next_goal[i] = goal_input(next_obs)
        self.done[i] = float(done)
        self.pos = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def _store(self, obs, slots, shifts) -> None:
        """The ring slots of obs's rows into slots, writing the sweeps that
        are not in the ring yet, and its shifts into shifts."""
        for k, (scan, sweep) in enumerate(zip(obs.scans, obs.rows)):
            hit = self._known.get(scan)
            if hit is None or hit[0] is not sweep:
                hit = self._known[scan] = (sweep, self._write(sweep))
            slots[k] = hit[1]
        shifts[:] = obs.shifts

    def _write(self, sweep) -> int:
        slot = self.head
        self.sweeps[slot] = normalize(sweep)
        self.head = (slot + 1) % len(self.sweeps)
        return slot

    def sample(self, batch_size: int, rng: np.random.Generator, reward_weights, out=None) -> dict:
        """batch_size transitions drawn uniformly, with the reward parts
        combined by reward_weights.  The observations are Stacks of ring
        sweeps, which conv1 gathers block by block.  out, a batch an
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
        out["feat"] = Stacks(self.sweeps, out["feat_slots"], out["feat_shifts"], 1.0)
        out["next_feat"] = Stacks(self.sweeps, out["next_slots"], out["next_shifts"], 1.0)
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


class DDPG:
    """Actor-critic pair with target networks and Adam optimizers."""

    def __init__(self, spec: NetworkSpec, config: DDPGConfig, rng, dtype=np.float32):
        self.spec = spec
        self.config = config
        self.actor = Actor(spec, rng, dtype)
        self.critic = Critic(spec, rng, dtype)
        self.target_actor = Actor(spec, rng, dtype)
        self.target_critic = Critic(spec, rng, dtype)
        load_params(self.target_actor, self.actor.params())
        load_params(self.target_critic, self.critic.params())
        self.opt_actor = Adam(self.actor.params(), config.lr_actor)
        self.opt_critic = Adam(self.critic.params(), config.lr_critic)
        self.updates = 0

    def act(self, feat, goal) -> np.ndarray:
        a, _ = self.actor.forward(feat[None], goal[None])
        return a[0]

    def update(self, batch: dict) -> tuple[float, float]:
        """One critic step, one actor step, then soft target updates.

        batch["feat"] and batch["next_feat"] are Stacks (a replay batch)
        or (N, K, B) arrays.  Each trunk runs over blocks of samples in
        reused scratch (nn.conv_stack): conv1 gathers a block's rows,
        casting them to float32, then its pool, relu1, conv2 and relu2
        run on that block, and only the trunk's output and what its
        backward reads outlive the block.  Networks whose conv1 weights
        are current at the same moment share each block's rows, patches
        and tap GEMMs (networks.fronts): the target actor and target
        critic on the next observations, and, after the critic's step,
        the actor and the critic's second pass on the current ones.  Only
        the passes that backprop into their trunks (the critic's first,
        the actor's) keep caches; the actor step needs only the critic
        head's input gradient.
        """
        cfg = self.config
        n = batch["feat"].shape[0]
        y = self._target_values(batch)

        feat, goal = batch["feat"], batch["goal"]
        q, cache = self.critic.forward(feat, goal, batch["action"])
        diff = q - y
        critic_loss = float(np.mean(diff * diff))
        # each del frees what the rest of the update no longer reads
        # before the next pass allocates: it keeps the working set small
        cgrads = self.critic.backward((2.0 / n) * diff, cache, param_grads=True)[1]
        del cache
        self.opt_critic.step(cgrads)
        del cgrads

        front_actor, front_critic = fronts((self.actor.trunk, self.critic.trunk), feat, (True, False))
        a, acache = self.actor.forward(feat, goal, front_actor)
        q_pi, ccache = self.critic.forward(feat, goal, a, front_critic)
        dq_da = self.critic.backward(np.full(n, -1.0 / n, dtype=q_pi.dtype), ccache, param_grads=False)[0]
        del front_actor, front_critic, ccache
        logit_grad = (2.0 * cfg.logit_penalty / n) * self.actor.logits(acache)
        agrads = self.actor.backward(dq_da, acache, logit_grad=logit_grad)
        del acache
        self.opt_actor.step(agrads)

        soft_update(self.target_actor, self.actor, cfg.tau)
        soft_update(self.target_critic, self.critic, cfg.tau)
        self.updates += 1
        return critic_loss, float(np.mean(q_pi))

    def _target_values(self, batch: dict) -> np.ndarray:
        """Critic targets y = r + gamma * (1 - done) * Q'(o', mu'(o')).

        The target networks share one front on the next observations and
        never backprop, so they keep no caches.
        """
        feat, goal = batch["next_feat"], batch["next_goal"]
        trunks = (self.target_actor.trunk, self.target_critic.trunk)
        front_actor, front_critic = fronts(trunks, feat, (False, False))
        a_next = self.target_actor.forward(feat, goal, front_actor)[0]
        del front_actor
        q_next = self.target_critic.forward(feat, goal, a_next, front_critic)[0]
        return batch["reward"] + self.config.gamma * (1.0 - batch["done"]) * q_next

    # -- persistence

    def named_parts(self) -> dict:
        return {
            "actor": self.actor.params(),
            "critic": self.critic.params(),
            "target_actor": self.target_actor.params(),
            "target_critic": self.target_critic.params(),
            "opt_actor": self.opt_actor.state_dict(),
            "opt_critic": self.opt_critic.state_dict(),
        }

    def save(self, path, meta: dict) -> None:
        meta = dict(meta)
        meta["network_spec"] = self.spec.to_dict()
        meta["config_hash"] = self.spec.config_hash()
        save_checkpoint(path, self.named_parts(), meta)

    def load_parts(self, parts: dict, networks_only: bool = False) -> None:
        for name, net in (
            ("actor", self.actor),
            ("critic", self.critic),
            ("target_actor", self.target_actor),
            ("target_critic", self.target_critic),
        ):
            if name in parts:
                load_params(net, parts[name])
        if not networks_only:
            if "opt_actor" in parts:
                self.opt_actor.load_state_dict(parts["opt_actor"])
            if "opt_critic" in parts:
                self.opt_critic.load_state_dict(parts["opt_critic"])


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
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be non-negative, got {self.warmup_steps}")
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

    def noise_sigma(self, env_steps: int) -> float:
        """Exploration sigma after env_steps steps, linear from start to end over the budget."""
        return self.noise_sigma_start + (self.noise_sigma_end - self.noise_sigma_start) * min(
            1.0, env_steps / max(self.total_env_steps, 1)
        )


class BehaviourPolicy:
    """Training-time actions for episode_steps, drawn from one noise stream.

    A uniform draw through the warm-up and, after it, with probability
    random_action_prob; else the actor's action plus Gaussian noise of
    the annealed sigma, clipped to the action box.  obs is the
    observation the last action answered.
    """

    name = "behaviour"

    def __init__(self, learner: DDPG, config: TrainConfig, rng: np.random.Generator):
        self.learner, self.config, self.rng = learner, config, rng
        self.actions = 0  # over all episodes: one per environment step
        self.obs = None

    def begin_episode(self, obs) -> None:
        self.obs = obs

    def act(self, obs) -> np.ndarray:
        tc, step = self.config, self.actions
        self.actions += 1
        self.obs = obs
        if step < tc.warmup_steps or self.rng.random() < tc.random_action_prob:
            return self.rng.uniform(-ACTION_SCALE, ACTION_SCALE, ACTION_DIM)
        action = self.learner.act(*featurize(obs))
        noise = self.rng.normal(0.0, tc.noise_sigma(step), ACTION_DIM)
        return np.clip(action + noise, -ACTION_SCALE, ACTION_SCALE)


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

    weights = STAGE_REWARD_WEIGHTS[stage]
    tc = train_config
    streams = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(5))
    init_rng, noise_rng, buffer_rng, env_seed_rng, eval_rng = streams
    eval_seed = int(eval_rng.integers(2**31))

    spec = default_network_spec(HISTORY_LEN, env_config.beam_count)
    learner = DDPG(spec, tc.ddpg, init_rng)
    if warm_start_parts is not None:
        learner.load_parts(warm_start_parts, networks_only=True)

    buffer = ReplayBuffer(min(tc.ddpg.buffer_capacity, max(tc.total_env_steps, 1)), spec.feature_shape,
                          env_config.scan_hz // env_config.policy_hz)
    curve: list[dict] = []
    curve_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        curve_path = os.path.join(out_dir, f"curve_{stage}.jsonl")
        open(curve_path, "w").close()

    def emit(record: dict):
        curve.append(record)
        if curve_path is not None:
            with open(curve_path, "a") as f:
                f.write(json.dumps(record, sort_keys=True) + "\n")

    def checkpoint(tag: str, env_steps: int):
        if out_dir is None:
            return None
        path = os.path.join(out_dir, f"checkpoint_{stage}_{tag}.npz")
        learner.save(
            path,
            {
                "stage": stage,
                "env_steps": env_steps,
                "updates": learner.updates,
                "beam_count": env_config.beam_count,
            },
        )
        return path

    checkpoint("init", 0)
    behaviour = BehaviourPolicy(learner, tc, noise_rng)
    env_steps = 0
    episode = 0
    last_eval_at = 0
    last_ckpt_at = 0
    stop = tc.total_env_steps <= 0
    best_eval = -1.0
    batch = None

    while not stop:
        kind = tc.scenario_cycle[episode % len(tc.scenario_cycle)]
        cfg = replace(env_config, scenario=kind)
        if tc.start_distance_fractions is not None:
            frac = float(env_seed_rng.uniform(*tc.start_distance_fractions))
            gx, gy = cfg.goal
            sx, sy = cfg.start
            cfg = replace(cfg, start=(gx + (sx - gx) * frac, gy + (sy - gy) * frac))
        map_seed = int(env_seed_rng.integers(2**31))
        crowd_seed = int(env_seed_rng.integers(2**31))
        ep_return = 0.0
        ep_closs = math.nan

        for outcome in episode_steps(behaviour, cfg, map_seed, crowd_seed):
            record = outcome.record
            action = (record.a_x, record.a_y)
            reward_parts = (record.r_ego, record.r_social, record.r_goal)
            terminal = outcome.done in (Status.REACHED, Status.COLLIDED)
            buffer.add(behaviour.obs, action, reward_parts, outcome.observation, terminal)
            ep_return += float(np.dot(weights, reward_parts))
            env_steps += 1

            if env_steps >= tc.warmup_steps and env_steps % tc.update_every == 0 and buffer.size >= tc.ddpg.batch_size:
                batch = buffer.sample(tc.ddpg.batch_size, buffer_rng, weights, out=batch)
                closs, aobj = learner.update(batch)
                ep_closs = closs
                if not math.isfinite(closs) or closs > tc.divergence_threshold:
                    checkpoint("diverged", env_steps)
                    raise TrainingDiverged(
                        f"critic loss {closs:.3e} exceeded {tc.divergence_threshold:.1e}",
                        {"env_steps": env_steps, "updates": learner.updates, "critic_loss": closs},
                    )

            if env_steps - last_eval_at >= tc.eval_every:
                last_eval_at = env_steps
                probe_cfg = tc.eval_env_config if tc.eval_env_config is not None else env_config
                probe = LearnedPolicy(learner.actor, f"learned-{stage}")
                logs = (evaluation.run_episode(probe, probe_cfg, "probe", *seeds)
                        for seeds in episode_seeds(eval_seed, tc.eval_episodes))
                reached = sum(log.outcome == Status.REACHED.value for log in logs)
                success = reached / tc.eval_episodes
                if success > best_eval:
                    best_eval = success
                    checkpoint("best", env_steps)
                emit({"kind": "eval", "env_steps": env_steps, "success_rate": success})
                if tc.early_stop_success is not None and success >= tc.early_stop_success:
                    stop = True
            if env_steps - last_ckpt_at >= tc.checkpoint_every:
                last_ckpt_at = env_steps
                checkpoint(f"step{env_steps}", env_steps)
            if env_steps >= tc.total_env_steps:
                stop = True
            if stop:
                break

        emit(
            {
                "kind": "episode",
                "episode": episode,
                "env_steps": env_steps,
                "return": ep_return,
                "outcome": outcome.done.value,
                "steps": outcome.record.step,
                "critic_loss": None if math.isnan(ep_closs) else ep_closs,
                "noise_sigma": tc.noise_sigma(env_steps - 1),
            }
        )
        episode += 1

    final_path = checkpoint("final", env_steps)
    emit(
        {
            "kind": "done",
            "env_steps": env_steps,
            "episodes": episode,
            "final_checkpoint": os.path.basename(final_path) if final_path else None,
        }
    )
    return learner, curve
