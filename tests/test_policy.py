import copy
import hashlib
import math
import os
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from conftest import (cpus, feature_of, gathered, numeric_gradient, reference_conv2d, reference_update, scanned,
                      stacks_array)
from socnavsim import ddpg as ddpg_module
from socnavsim import evaluation as evaluation_module
from socnavsim import networks, nn
from socnavsim.crowd import CrowdConfig
from socnavsim.ddpg import DDPG, DDPGConfig, ReplayBuffer, TrainConfig, train
from socnavsim.evaluation import episode_seeds, run_episode
from socnavsim.lidar import HISTORY_LEN, LidarConfig, build_motion_feature
from socnavsim.networks import (
    Actor,
    Critic,
    NetworkSpec,
    Stacks,
    actor_from_checkpoint,
    default_network_spec,
    featurize,
    fronts,
    load_checkpoint,
    load_params,
    soft_update,
)
from socnavsim.policies import LearnedPolicy
from socnavsim.world import EnvConfig, NavEnv

TINY = NetworkSpec(feature_shape=(4, 16), conv=((3, 2, 5, 1, 2), (4, 2, 3, 1, 1)),
                   pool_width=2, dense=(12, 8))


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


class TestActorCritic:
    def test_zero_params_zero_outputs(self, rng):
        actor = Actor(TINY, rng, dtype=np.float64)
        critic = Critic(TINY, rng, dtype=np.float64)
        for net in (actor, critic):
            for p in net.params().values():
                p[...] = 0.0
        feat = rng.random((3, 4, 16))
        goal = rng.random((3, 2))
        a, _ = actor.forward(feat, goal)
        q, _ = critic.forward(feat, goal, rng.random((3, 2)))
        assert np.all(a == 0.0)
        assert np.all(q == 0.0)

    def test_action_bound(self, rng):
        actor = Actor(TINY, rng, dtype=np.float64)
        for p in actor.params().values():
            p[...] = rng.normal(size=p.shape) * 10.0  # extreme weights
        a, _ = actor.forward(rng.random((8, 4, 16)), rng.random((8, 2)))
        assert np.all(np.abs(a) <= 1.5)

    def test_deterministic_forward(self, rng):
        actor = Actor(TINY, rng, dtype=np.float64)
        feat = rng.random((2, 4, 16))
        goal = rng.random((2, 2))
        a1, _ = actor.forward(feat, goal)
        a2, _ = actor.forward(feat, goal)
        assert np.array_equal(a1, a2)

    def test_critic_param_gradients_fd(self, rng):
        critic = Critic(TINY, rng, dtype=np.float64)
        feat = rng.random((3, 4, 16))
        goal = rng.random((3, 2))
        action = rng.uniform(-1.5, 1.5, (3, 2))
        r = rng.normal(size=3)

        def loss():
            q, _ = critic.forward(feat, goal, action)
            return float(np.sum(q * r))

        q, cache = critic.forward(feat, goal, action)
        _, grads = critic.backward(r, cache, param_grads=True)
        params = critic.params()
        for name in ("trunk.conv1.W", "trunk.conv2.b", "mlp.fc1.W", "mlp.out.W", "mlp.out.b"):
            num = numeric_gradient(loss, params[name])
            assert rel_err(grads[name], num) < 1e-4, name

    def test_critic_action_gradient_fd(self, rng):
        critic = Critic(TINY, rng, dtype=np.float64)
        feat = rng.random((3, 4, 16))
        goal = rng.random((3, 2))
        action = rng.uniform(-1.0, 1.0, (3, 2))
        r = rng.normal(size=3)
        q, cache = critic.forward(feat, goal, action)
        daction, _ = critic.backward(r, cache, param_grads=False)

        def loss():
            q2, _ = critic.forward(feat, goal, action)
            return float(np.sum(q2 * r))

        num = numeric_gradient(loss, action)
        assert rel_err(daction, num) < 1e-4

    def test_actor_param_gradients_fd(self, rng):
        actor = Actor(TINY, rng, dtype=np.float64)
        feat = rng.random((3, 4, 16))
        goal = rng.random((3, 2))
        r = rng.normal(size=(3, 2))

        def loss():
            a, _ = actor.forward(feat, goal)
            return float(np.sum(a * r))

        a, cache = actor.forward(feat, goal)
        grads = actor.backward(r, cache, 0.0)
        params = actor.params()
        for name in ("trunk.conv1.W", "trunk.conv1.b", "mlp.fc1.b", "mlp.out.W"):
            num = numeric_gradient(loss, params[name])
            assert rel_err(grads[name], num) < 1e-4, name

    def test_q_locally_lipschitz_in_action(self, rng):
        critic = Critic(TINY, rng, dtype=np.float64)
        feat = rng.random((1, 4, 16))
        goal = rng.random((1, 2))
        base = rng.uniform(-1.0, 1.0, (1, 2))
        q0, _ = critic.forward(feat, goal, base)
        deltas = rng.normal(size=(50, 2)) * 0.01
        ratios = []
        for d in deltas:
            q1, _ = critic.forward(feat, goal, base + d)
            ratios.append(abs(float(q1[0] - q0[0])) / (np.linalg.norm(d) + 1e-12))
        # sampled difference quotients stay bounded
        assert max(ratios) < 1e3


class TestSharedCols:
    def test_matches_unshared(self, rng):
        """A front shared by two trunks gives each the outputs of its own."""
        actor = Actor(TINY, rng, dtype=np.float64)
        critic = Critic(TINY, rng, dtype=np.float64)
        feat = rng.random((4, 4, 16))
        goal = rng.random((4, 2))
        action = rng.uniform(-1.5, 1.5, (4, 2))
        front_critic, front_actor = fronts((critic, actor), feat, (True, True))

        assert np.array_equal(actor.forward(feat, goal)[0], actor.forward(feat, goal, front_actor)[0])
        assert np.array_equal(critic.forward(feat, goal, action)[0],
                              critic.forward(feat, goal, action, front_critic)[0])


class TestAct:
    @pytest.mark.parametrize("beams", [180, 1080])
    def test_no_cache_action_equals_cached_forward(self, monkeypatch, beams):
        """DDPG.act and LearnedPolicy.act run the actor on a front that
        keeps no backprop caches, and return the action of the forward
        pass that keeps them, bit for bit."""
        rng = np.random.default_rng(6)
        learner = DDPG(default_network_spec(HISTORY_LEN, beams), DDPGConfig(), rng)
        obs = episode(rng, 3, beams)[-1]
        feat, goal = featurize(obs)
        want, _ = learner.actor.forward(feat, goal[None])
        keeps, conv_stack = [], networks.conv_stack
        monkeypatch.setattr(networks, "conv_stack", lambda *args: keeps.append(args[4]) or conv_stack(*args))
        got = learner.act(feat, goal)
        assert got.dtype == want.dtype and got.tobytes() == want[0].tobytes()
        assert LearnedPolicy(learner.actor, "learned").act(obs) == (float(want[0, 0]), float(want[0, 1]))
        assert keeps == [(False,), (False,)]

    def test_begin_episode_refuses_other_scan_counts(self):
        """An actor trained on 20 scans per observation would read the
        oldest 20 of a 40-scan observation; begin_episode refuses it, and
        another beam count, naming both shapes."""
        rng = np.random.default_rng(6)
        obs = episode(rng, 1, 64)[-1]
        for shape, message in (((20, 64), "expects 20 scans of 64 beams, observation has 40 of 64"),
                               ((HISTORY_LEN, 32), "expects 40 scans of 32 beams, observation has 40 of 64")):
            policy = LearnedPolicy(DDPG(default_network_spec(*shape), DDPGConfig(), rng).actor, "learned")
            with pytest.raises(ValueError, match=message):
                policy.begin_episode(obs)
        matching = LearnedPolicy(DDPG(default_network_spec(HISTORY_LEN, 64), DDPGConfig(), rng).actor, "learned")
        matching.begin_episode(obs)


def full_width_trunk(trunk, feat):
    """The trunk's layers applied to every beam of feat, in float64, with
    the convolution oracle and numpy pooling."""
    x = feat[..., None].astype(np.float64)
    for name, layer in trunk.layers:
        if name.startswith("conv"):
            x = reference_conv2d(x, layer.W, layer.b, layer.kernel, layer.stride)
        elif name == "pool":
            n, h, w, c = x.shape
            pw = min(layer.width, w)
            x = x[:, :, : w // pw * pw].reshape(n, h, w // pw, pw, c).max(axis=3)
        else:
            x = np.maximum(x, 0.0)
    return x.reshape(len(x), -1)


class TestBeamReach:
    """conv1 reads only beams [0, trunk.beams): the ones valid padding
    lets reach the output."""

    REACH = {180: 161, 1080: 1025}

    @pytest.mark.parametrize("beams", [180, 1080])
    def test_trunk_equals_full_width_network(self, beams):
        rng = np.random.default_rng(11)
        actor = Actor(default_network_spec(40, beams), rng, dtype=np.float64)
        trunk = actor.trunk
        assert trunk.beams == self.REACH[beams]
        feat = rng.random((2, 40, beams))
        (head_input, _), = fronts((actor,), feat, (False,))
        flat = head_input[:, : trunk.flat_dim]
        np.testing.assert_allclose(flat, full_width_trunk(trunk, feat), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("beams", [180, 1080])
    def test_only_leading_beams_change_outputs(self, beams):
        rng = np.random.default_rng(12)
        spec = default_network_spec(40, beams)
        actor, critic = Actor(spec, rng), Critic(spec, rng)
        reach = actor.trunk.beams
        assert reach == critic.trunk.beams == self.REACH[beams]
        feat = rng.random((2, 40, beams)).astype(np.float32)
        goal = rng.random((2, 2)).astype(np.float32)
        action = rng.uniform(-1.5, 1.5, (2, 2)).astype(np.float32)

        def outputs(f):
            return actor.forward(f, goal)[0], critic.forward(f, goal, action)[0]

        a0, q0 = outputs(feat)
        for beam in range(reach, beams):
            f = feat.copy()
            f[:, :, beam] += 1.0
            a1, q1 = outputs(f)
            assert np.array_equal(a0, a1) and np.array_equal(q0, q1), beam
        f = feat.copy()
        f[:, :, reach - 1] += 1.0
        a1, q1 = outputs(f)
        assert not np.array_equal(a0, a1)
        assert not np.array_equal(q0, q1)


class TestSoftUpdate:
    def test_tau_one_copies(self, rng):
        a = Actor(TINY, rng, dtype=np.float64)
        b = Actor(TINY, rng, dtype=np.float64)
        soft_update(b, a, tau=1.0)
        for k, v in a.params().items():
            assert np.allclose(b.params()[k], v)

    def test_geometric_contraction(self, rng):
        a = Actor(TINY, rng, dtype=np.float64)
        b = Actor(TINY, rng, dtype=np.float64)
        tau = 0.1

        def gap():
            return sum(
                float(np.sum((b.params()[k] - a.params()[k]) ** 2)) for k in a.params()
            )

        gaps = [gap()]
        for _ in range(5):
            soft_update(b, a, tau)
            gaps.append(gap())
        for g0, g1 in zip(gaps, gaps[1:]):
            assert g1 == pytest.approx(g0 * (1 - tau) ** 2, rel=1e-9)


def episode(rng, steps, beams, scans_per_step=4):
    """The observations of one episode as NavEnv makes them, from random
    sweeps and headings: the reset scan repeated, then scans_per_step new
    scans per step, with heading changes that wrap at +-pi."""
    cfg = LidarConfig(beam_count=beams)
    heading = float(rng.uniform(-math.pi, math.pi))
    history = deque(scanned([(heading, rng.uniform(0.1, 10.0, beams))]) * HISTORY_LEN, maxlen=HISTORY_LEN)
    obs = []
    for step in range(steps + 1):
        if step:
            for _ in range(scans_per_step):
                heading = math.remainder(heading + float(rng.normal(0.0, 0.3)), 2 * math.pi)
                history.extend(scanned([(heading, rng.uniform(0.1, 10.0, beams))]))
        obs.append(build_motion_feature(history, heading, float(rng.uniform(0.5, 7.0)),
                                        float(rng.uniform(-4.0, 4.0)), 7.0, cfg))
    return obs


def fill(buf, rng, episodes, beams):
    """Add the transitions of episodes (their step counts) to buf; returns
    each transition's (obs, next_obs), in the order added."""
    added = []
    for steps in episodes:
        obs = episode(rng, steps, beams)
        for t in range(steps):
            buf.add(obs[t], rng.uniform(-1.5, 1.5, 2), rng.normal(size=3), obs[t + 1], t == steps - 1)
            added.append((obs[t], obs[t + 1]))
    return added


def stored_features(buf, i):
    """Transition i's observations rebuilt from the ring: (feat, next_feat)."""
    out = []
    for slots, shifts in ((buf.feat_slots, buf.feat_shifts), (buf.next_slots, buf.next_shifts)):
        stacks = Stacks(buf.sweeps, slots[i : i + 1], shifts[i : i + 1])
        feat = np.empty((1, *stacks.shape[1:]), np.float32)
        stacks.copy_to(feat)
        out.append(feat[0])
    return out


def assert_stored(buf, added):
    """The buffer's transitions rebuild, bit for bit, to the float16
    feature stacks of the last capacity observation pairs added."""
    live = added[-buf.capacity :]
    assert buf.size == len(live)
    first = (len(added) - len(live)) % buf.capacity  # slot of the oldest live transition
    for j, (obs, next_obs) in enumerate(live):
        i = (first + j) % buf.capacity
        feat, next_feat = stored_features(buf, i)
        for got, o in ((feat, obs), (next_feat, next_obs)):
            assert got.tobytes() == gathered(o).astype(np.float16).astype(np.float32).tobytes(), i
        assert buf.goal[i].tobytes() == featurize(obs)[1].tobytes()
        assert buf.next_goal[i].tobytes() == featurize(next_obs)[1].tobytes()


class TestReplayBuffer:
    def test_fifo_eviction(self, rng):
        buf = ReplayBuffer(5, (HISTORY_LEN, 16))
        obs = episode(rng, 8, 16)
        for i in range(8):
            buf.add(obs[i], [0, 0], [float(i), 0, 0], obs[i + 1], False)
        assert buf.size == 5
        # oldest three were overwritten: remaining rewards are 3..7
        assert sorted(buf.reward_parts[:, 0].tolist()) == [3.0, 4.0, 5.0, 6.0, 7.0]
        assert_stored(buf, list(zip(obs, obs[1:])))

    def test_sample_weights_combine_parts(self, rng):
        buf = ReplayBuffer(10, (HISTORY_LEN, 16))
        obs = episode(rng, 1, 16)
        buf.add(obs[0], [0, 0], [1.0, 2.0, 3.0], obs[1], True)
        batch = buf.sample(1, rng, (1.0, 0.0, 1.0))
        assert batch["reward"][0] == pytest.approx(4.0)
        batch = buf.sample(1, rng, (1.0, 1.0, 1.0))
        assert batch["reward"][0] == pytest.approx(6.0)

    def test_sample_into_earlier_batch(self):
        """sample(out=) refills an earlier batch in place with the bytes a
        fresh sample would hold, given the same random draws."""
        buf = ReplayBuffer(20, (HISTORY_LEN, 16))
        fill(buf, np.random.default_rng(5), (4, 9), 16)
        weights = (1.0, 0.5, 2.0)
        earlier = buf.sample(6, np.random.default_rng(9), weights)
        arrays = {k: v for k, v in earlier.items() if isinstance(v, np.ndarray) and k != "reward"}
        refilled = buf.sample(6, np.random.default_rng(11), weights, out=earlier)
        fresh = buf.sample(6, np.random.default_rng(11), weights)
        assert refilled is earlier
        assert refilled.keys() == fresh.keys()
        for k, v in fresh.items():
            if isinstance(v, Stacks):
                assert stacks_array(refilled[k]).tobytes() == stacks_array(v).tobytes(), k
            else:
                assert refilled[k].dtype == v.dtype and refilled[k].tobytes() == v.tobytes(), k
        assert all(refilled[k] is v for k, v in arrays.items())

    def test_oversample_rejected(self, rng):
        buf = ReplayBuffer(10, (4, 16))
        with pytest.raises(ValueError):
            buf.sample(1, rng, (1, 1, 1))

    def test_bytes_per_transition_matches_arrays(self):
        """Each sweep is stored once: at most 5 sweeps and 80 row slots
        and shifts per transition, against two float16 stacks of 40
        sweeps (28,840 B at 180 beams, 172,840 at 1080)."""
        buf = ReplayBuffer(7, (40, 180))
        total = sum(v.nbytes for v in vars(buf).values() if isinstance(v, np.ndarray))
        assert total == ReplayBuffer.footprint(7, (40, 180))
        assert ReplayBuffer.bytes_per_transition((40, 180)) == 2320
        assert ReplayBuffer.bytes_per_transition((40, 1080)) == 11320
        # train-desk's buffer, and a paper-scale one: 200k transitions in 2.26 GB
        assert ReplayBuffer.footprint(174, (40, 180)) / 174 <= 2500
        assert ReplayBuffer.footprint(200_000, (40, 1080)) == 2_264_086_400
        per = ReplayBuffer.bytes_per_transition((40, 180))
        assert ReplayBuffer.footprint(8, (40, 180)) - ReplayBuffer.footprint(5, (40, 180)) == 3 * per

    def test_refuses_capacity_beyond_available_memory(self, monkeypatch):
        per = ReplayBuffer.bytes_per_transition((40, 180))
        need = ReplayBuffer.footprint(1000, (40, 180))
        monkeypatch.setattr(ddpg_module, "mem_available_bytes", lambda: need + 5)
        ReplayBuffer(1000, (40, 180))
        with pytest.raises(ValueError) as err:
            ReplayBuffer(1001, (40, 180))
        msg = str(err.value)
        assert f"needs {ReplayBuffer.footprint(1001, (40, 180))} bytes ({per} per transition)" in msg
        assert f"only {need + 5} bytes are available" in msg
        assert "largest capacity that fits is 1000" in msg

    def test_unreadable_probe_skips_check(self, monkeypatch):
        monkeypatch.setattr(ddpg_module, "mem_available_bytes", lambda: None)
        assert ReplayBuffer(3, (40, 180)).capacity == 3

    def test_probe_reads_this_host(self):
        available = ddpg_module.mem_available_bytes()
        assert available is None or available > 0

    def test_train_fails_before_first_episode(self, monkeypatch):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode started")

        monkeypatch.setattr(ddpg_module, "mem_available_bytes", lambda: 10**6)
        monkeypatch.setattr(ddpg_module, "episode_steps", no_episode)
        env_cfg = EnvConfig(beam_count=180, crowd=CrowdConfig(count=0))
        with pytest.raises(ValueError, match="largest capacity that fits is 424"):
            train("ego", env_cfg, TrainConfig(total_env_steps=1000), seed=0)

    def test_short_episodes_fit_the_ring(self, rng):
        """Episodes of one or two steps bring a reset sweep each, the most
        sweeps a transition writes: the ring keeps its size, and every
        transition rebuilds bit for bit, through the wrap and after it."""
        buf = ReplayBuffer(80, (HISTORY_LEN, 16))
        sweeps, added = buf.sweeps, []
        runs = ([1, 2] * 5, [1] * 70, [3, 1, 2, 1], [1] * 100)
        assert sum(1 + 4 * steps for run in runs for steps in run) > 2 * len(sweeps)  # it wraps twice
        for run in runs:
            added += fill(buf, rng, run, 16)
            assert buf.sweeps is sweeps and sweeps.shape == (80 * 5 + HISTORY_LEN, 16)
            assert_stored(buf, added)

    def test_shared_sweeps_stored_once(self, rng):
        """A transition within an episode writes only its new scans; one
        that starts an episode also writes the reset scan."""
        buf = ReplayBuffer(50, (HISTORY_LEN, 16), scans_per_step=4)
        fill(buf, rng, (12,), 16)
        assert buf.head == 1 + 12 * 4
        fill(buf, rng, (3,), 16)
        assert buf.head == 1 + 12 * 4 + 1 + 3 * 4

    def test_one_array_is_one_stored_sweep(self, rng):
        """The buffer knows a stored sweep by its scan, which reads one
        array: one scan at two non-reset positions of a history is written
        once, both rows read its slot, and the transition rebuilds bit for
        bit."""
        cfg = LidarConfig(beam_count=16)
        reset, kept, a, b = (rng.uniform(0.1, 10.0, 16) for _ in range(4))
        scans = scanned([(0.0, reset), (0.0, kept), (0.1, a), (0.1, kept), (0.2, b)])
        assert scans[1][1] is scans[3][1]
        history = deque(scans[:1] * HISTORY_LEN, maxlen=HISTORY_LEN)
        obs = build_motion_feature(history, 0.0, 2.0, 0.1, 3.0, cfg)
        history.extend(scans[1:])
        next_obs = build_motion_feature(history, 0.2, 1.9, 0.1, 3.0, cfg)
        buf = ReplayBuffer(4, (HISTORY_LEN, 16))
        buf.add(obs, [0.0, 0.0], [0.0, 0.0, 0.0], next_obs, False)
        assert buf.head == 4  # reset, kept, a and b
        slots = buf.next_slots[0, -4:]
        assert slots[0] == slots[2] and len(set(slots)) == 3
        assert_stored(buf, [(obs, next_obs)])

    @pytest.mark.parametrize("beams", [16, 180])
    def test_training_stores_every_transition_bitwise(self, monkeypatch, beams):
        """Training with a buffer small enough to wrap and episodes short
        enough to end: every stored transition rebuilds to float16 of
        featurize() of the observations train() gave it."""
        added, buffers = [], []
        real_add = ReplayBuffer.add

        def add(buf, obs, action, reward_parts, next_obs, done):
            buffers.append(buf)
            added.append((obs, next_obs))
            return real_add(buf, obs, action, reward_parts, next_obs, done)

        monkeypatch.setattr(ReplayBuffer, "add", add)
        env_cfg = EnvConfig(beam_count=beams, max_steps=9, obstacle_count_range=(0, 2),
                            crowd=CrowdConfig(count=0))
        tc = TrainConfig(total_env_steps=70, warmup_steps=20, update_every=5, eval_every=10**9,
                         checkpoint_every=10**9, ddpg=DDPGConfig(batch_size=8, buffer_capacity=25))
        train("ego", env_cfg, tc, seed=2)
        buf = buffers[0]
        assert len(added) == 70 and buf.capacity == 25
        assert sum(obs.scans[0].ranges is obs.scans[-1].ranges for obs, _ in added) >= 7  # reset observations: episodes
        assert_stored(buf, added)
        # each distinct scan went into the ring once
        distinct = {id(scan) for pair in added for obs in pair for scan in obs.scans}
        assert buf.head == len(distinct) % len(buf.sweeps)


def make_batch(rng, n=16, done=None, reward=None, shape=(4, 16)):
    feat = rng.random((n, *shape)).astype(np.float32)
    nfeat = rng.random((n, *shape)).astype(np.float32)
    return {
        "feat": feat,
        "goal": rng.random((n, 2)).astype(np.float32),
        "action": rng.uniform(-1.5, 1.5, (n, 2)).astype(np.float32),
        "reward": (reward if reward is not None else rng.normal(size=n)).astype(np.float32),
        "next_feat": nfeat,
        "next_goal": rng.random((n, 2)).astype(np.float32),
        "done": (done if done is not None else np.zeros(n)).astype(np.float32),
    }


class TestDDPGUpdate:
    def test_tau_one_targets_equal_online(self, rng):
        learner = DDPG(TINY, DDPGConfig(tau=1.0, batch_size=8), rng)
        learner.update(make_batch(rng, 8))
        for k, v in learner.actor.params().items():
            assert np.array_equal(learner.target_actor.params()[k], v)
        for k, v in learner.critic.params().items():
            assert np.array_equal(learner.target_critic.params()[k], v)

    def test_terminal_target_equals_reward(self, rng):
        learner = DDPG(TINY, DDPGConfig(gamma=0.9, batch_size=4), rng)
        batch = make_batch(rng, 4, done=np.ones(4))
        # recompute the target exactly as update() does
        a_next, _ = learner.target_actor.forward(batch["next_feat"], batch["next_goal"])
        q_next, _ = learner.target_critic.forward(batch["next_feat"], batch["next_goal"], a_next)
        y = batch["reward"] + 0.9 * (1.0 - batch["done"]) * q_next
        assert np.allclose(y, batch["reward"])

    def test_frozen_batch_critic_loss_decreases(self, rng):
        learner = DDPG(TINY, DDPGConfig(gamma=0.0, batch_size=16, lr_critic=1e-3), rng)
        batch = make_batch(rng, 16)
        losses = []
        for _ in range(100):
            closs, _ = learner.update(batch)
            losses.append(closs)
        for a, b in zip(losses, losses[1:]):
            assert b < a

    def test_matches_reference_bitwise(self, rng):
        """DDPG.update (conv1 and pool in sample blocks, fronts shared by
        network pairs) against the whole-batch, per-network oracle, at
        desk scale on float16 observations as the replay buffer returns
        them."""
        self.check_reference(rng, 180, 128, np.float16)

    def test_matches_reference_bitwise_float32(self, rng):
        """The same on float32 observations, which conv1 copies unwidened."""
        self.check_reference(rng, 180, 128, np.float32)

    @pytest.mark.parametrize("feat_dtype", [np.float16, np.float32])
    @pytest.mark.parametrize("beams, n", [(180, 17), (1080, 7)])
    def test_matches_reference_bitwise_partial_block(self, rng, beams, n, feat_dtype):
        self.check_reference(rng, beams, n, feat_dtype)

    @pytest.mark.parametrize("on", [True, False])
    @pytest.mark.parametrize("beams, n", [(180, 1), (180, 17), (180, 40), (180, 128), (1080, 1), (1080, 17),
                                          (1080, 40)])
    def test_matches_reference_bitwise_two_way(self, rng, beams, n, on):
        """The same with the two-way pool forced on and off, over batches
        whose REST_BLOCK chunks make no wave, an uneven last wave (17 and
        40 samples) and whole waves (128)."""
        with cpus(2 if on else 1):
            self.check_reference(rng, beams, n, np.float16)

    @pytest.mark.parametrize("beams, n", [(180, 128), (1080, 11)])
    def test_matches_reference_bitwise_replay(self, rng, beams, n):
        """The same on replay batches: Stacks of ring sweeps with shifts of
        both signs, over episodes that end and a ring that wraps, which the
        oracle materializes whole."""
        spec = default_network_spec(HISTORY_LEN, beams)
        fast = DDPG(spec, DDPGConfig(), np.random.default_rng(3))
        ref = DDPG(spec, DDPGConfig(), np.random.default_rng(3))
        buf = ReplayBuffer(n + 20, spec.feature_shape)
        added = fill(buf, rng, (n // 2, 9, n // 2 + 1, 14, 30, n // 2), beams)
        assert 4 * len(added) > len(buf.sweeps)
        for seed in range(2):
            batch = buf.sample(n, np.random.default_rng(seed), (1.0, 0.0, 1.0))
            assert isinstance(batch["feat"], Stacks) and np.any(batch["feat"].shifts < 0)
            assert fast.update(batch) == reference_update(ref, batch)
        for part, params in fast.named_parts().items():
            for k, v in params.items():
                assert np.array_equal(v, ref.named_parts()[part][k]), f"{part}/{k}"

    def test_scratch_does_not_grow_with_the_batch(self):
        """nn's scratch buffers hold a block of samples, never a batch: at
        1080 beams their total after steady-state updates at batch 32 is
        the total at batch 64, summed over both threads' buffers (the
        caller's and the two-way pool's worker's, read on the worker).  32
        is the smallest batch that fills a wave of two rest blocks; batch
        16, one rest block, runs on the caller alone, within the caller's
        buffers of a larger batch."""

        def scratch():
            return getattr(nn._LOCAL, "scratch", {})

        def on_both(fn):
            """fn's result on the caller and on the pool's worker (0 before it exists)."""
            return fn(), 0 if nn._WORKER is None else nn._WORKER.submit(fn).result()

        spec = default_network_spec(HISTORY_LEN, 1080)
        learner = DDPG(spec, DDPGConfig(), np.random.default_rng(3))
        buf = ReplayBuffer(80, spec.feature_shape)
        fill(buf, np.random.default_rng(4), (30, 50), 1080)
        on_both(lambda: scratch().clear())
        sizes = []
        with cpus(2):
            for n in (16, 32, 64):
                batch = buf.sample(n, np.random.default_rng(n), (1.0, 0.0, 1.0))
                learner.update(batch)
                learner.update(batch)
                sizes.append(on_both(lambda: sum(v.nbytes for v in scratch().values())))
        assert sizes[0][1] == 0 and sizes[0][0] <= sizes[2][0]
        assert sizes[2][1] > 0
        assert sum(sizes[1]) == sum(sizes[2])

    @staticmethod
    def check_reference(rng, beams, n, feat_dtype):
        spec = default_network_spec(40, beams)
        fast = DDPG(spec, DDPGConfig(), np.random.default_rng(3))
        ref = DDPG(spec, DDPGConfig(), np.random.default_rng(3))
        for _ in range(3):
            batch = make_batch(rng, n, shape=spec.feature_shape)
            batch["feat"] = batch["feat"].astype(feat_dtype)
            batch["next_feat"] = batch["next_feat"].astype(feat_dtype)
            assert fast.update(batch) == reference_update(ref, batch)
        fast_parts, ref_parts = fast.named_parts(), ref.named_parts()
        assert fast_parts.keys() == ref_parts.keys()
        for part, params in fast_parts.items():
            assert params.keys() == ref_parts[part].keys()
            for k, v in params.items():
                assert v.dtype == ref_parts[part][k].dtype
                assert np.array_equal(v, ref_parts[part][k]), f"{part}/{k}"

    def test_working_set(self, rng):
        """A steady-state batch-128 update at 180 beams allocates at most
        7 MB above its live batch (tracemalloc peak: 5.9 MB with the whole
        trunk in sample blocks, 8.3 MB when conv2 ran on the whole batch,
        46 MB when conv1 and the pool did too)."""
        spec = default_network_spec(40, 180)
        learner = DDPG(spec, DDPGConfig(), np.random.default_rng(3))
        batch = make_batch(rng, 128, shape=spec.feature_shape)
        batch["feat"] = batch["feat"].astype(np.float16)
        batch["next_feat"] = batch["next_feat"].astype(np.float16)
        learner.update(batch)  # the first update allocates the scratch buffers
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            learner.update(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 7e6

    def test_working_set_replay(self):
        """The same on a replay batch, the path training runs: at most
        7 MB above its start plus the float32 rows gathered from the ring
        (128 x 40 x 161, 3.30 MB), which live for the update."""
        spec = default_network_spec(HISTORY_LEN, 180)
        learner = DDPG(spec, DDPGConfig(), np.random.default_rng(3))
        buf = ReplayBuffer(300, spec.feature_shape)
        fill(buf, np.random.default_rng(4), (60, 90, 120), 180)
        batch = buf.sample(128, np.random.default_rng(5), (1.0, 0.0, 1.0))
        learner.update(batch)  # the first update allocates the scratch buffers
        rows = 128 * HISTORY_LEN * learner.critic.trunk.beams * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            learner.update(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 7e6 + rows

    def test_working_set_replay_1080(self):
        """At the default 1080 beams a steady batch-128 update on a replay
        batch, with the two-way pool on, allocates at most 57 MB above its
        start plus the gathered float32 rows (128 x 40 x 1025, 21.0 MB)
        (tracemalloc peak: 54.1 MB, 50 MB with the pool off; 66.3 MB with
        Adam's whole-array temporaries), across both threads."""
        spec = default_network_spec(HISTORY_LEN, 1080)
        learner = DDPG(spec, DDPGConfig(), np.random.default_rng(3))
        buf = ReplayBuffer(300, spec.feature_shape)
        fill(buf, np.random.default_rng(4), (60, 90, 120), 1080)
        batch = buf.sample(128, np.random.default_rng(5), (1.0, 0.0, 1.0))
        rows = 128 * HISTORY_LEN * learner.critic.trunk.beams * np.dtype(np.float32).itemsize
        with cpus(2):
            learner.update(batch)  # the first update allocates the scratch buffers
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                learner.update(batch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - base <= 57e6 + rows

    def test_divergence_detection_fields(self):
        from socnavsim.ddpg import TrainingDiverged

        exc = TrainingDiverged("boom", {"env_steps": 3})
        assert exc.diagnostics["env_steps"] == 3


class TestCheckpoint:
    def test_round_trip_bitwise(self, rng, tmp_path):
        learner = DDPG(TINY, DDPGConfig(batch_size=8), rng)
        learner.update(make_batch(rng, 8))
        feat = rng.random((2, 4, 16)).astype(np.float32)
        goal = rng.random((2, 2)).astype(np.float32)
        before, _ = learner.actor.forward(feat, goal)

        path = tmp_path / "ck.npz"
        learner.save(path, {"stage": "ego", "env_steps": 1, "beam_count": 16})
        actor, meta = actor_from_checkpoint(path)
        after, _ = actor.forward(feat, goal)
        assert np.array_equal(before, after)
        assert meta["stage"] == "ego"
        assert meta["network_spec"]["feature_shape"] == [4, 16]

    def test_holds_the_four_networks(self, rng, tmp_path):
        """A checkpoint holds the four networks and the metadata, nothing
        else, and load_parts of it restores all four bit for bit."""
        learner = DDPG(TINY, DDPGConfig(batch_size=8), rng)
        learner.update(make_batch(rng, 8))
        path = tmp_path / "ck.npz"
        learner.save(path, {"stage": "ego"})
        parts = learner.named_parts()
        with np.load(path) as data:
            keys = set(data.files)
        assert keys == {"__meta__"} | {f"{part}/{k}" for part, params in parts.items() for k in params}
        assert {key.split("/")[0] for key in keys} == {"actor", "critic", "target_actor", "target_critic",
                                                       "__meta__"}
        twin = DDPG(TINY, DDPGConfig(batch_size=8), np.random.default_rng(999))
        twin.load_parts(load_checkpoint(path)[0])
        for part, params in twin.named_parts().items():
            for k, v in params.items():
                assert v.dtype == parts[part][k].dtype and v.tobytes() == parts[part][k].tobytes(), f"{part}/{k}"

    @pytest.mark.parametrize("damage", ["no meta", "truncated"])
    def test_refusal_closes_the_file(self, tmp_path, damage):
        """A file that is refused as a checkpoint is closed when the
        refusal is raised, not left for the garbage collector."""
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("needs /proc/self/fd to count open files")
        path = tmp_path / "ck.npz"
        if damage == "no meta":
            np.savez(path, **{"actor/mlp.out.b": np.zeros(2, np.float32)})
        else:
            DDPG(TINY, DDPGConfig(batch_size=8), np.random.default_rng(0)).save(path, {"stage": "ego"})
            path.write_bytes(path.read_bytes()[:1024])
        open_before = len(os.listdir(fd_dir))
        # the exception info keeps the refusal's frames, and what they hold, alive
        with pytest.raises(ValueError, match="not a checkpoint") as refusal:
            load_checkpoint(path)
        assert len(os.listdir(fd_dir)) == open_before, refusal.value


class TestParameters:
    # sha256 over every "part/name" and its bytes in named_parts() of a
    # fresh seed-0 DDPG at 180 beams: pins the init draw order, the
    # parameter names and their order
    INIT_SHA256 = "ee9a68fa6f188e4d8915428fd9cf6c3d22e616a9086d10b25bd65e1466731208"

    def test_init_pinned(self):
        learner = DDPG(default_network_spec(40, 180), DDPGConfig(), np.random.default_rng(0))
        h = hashlib.sha256()
        for part, params in learner.named_parts().items():
            for name, arr in params.items():
                h.update(f"{part}/{name}".encode())
                h.update(arr.tobytes())
        assert h.hexdigest() == self.INIT_SHA256

    def test_targets_start_as_copies(self):
        """The target networks start equal to the online ones bit for bit,
        in arrays of their own, and DDPG draws nothing for them."""
        rng = np.random.default_rng(0)
        learner = DDPG(default_network_spec(40, 180), DDPGConfig(), rng)
        twin = np.random.default_rng(0)
        Actor(default_network_spec(40, 180), twin)
        Critic(default_network_spec(40, 180), twin)
        assert rng.bit_generator.state == twin.bit_generator.state
        for target, online in ((learner.target_actor, learner.actor), (learner.target_critic, learner.critic)):
            tp, op = target.params(), online.params()
            assert tp.keys() == op.keys()
            for k in op:
                assert tp[k].dtype == op[k].dtype and tp[k].tobytes() == op[k].tobytes(), k
                for other in op.values():
                    assert not np.shares_memory(tp[k], other), k

    def test_load_params_copies_and_casts(self, rng):
        actor = Actor(TINY, rng)
        arrays = {k: rng.normal(size=v.shape) for k, v in actor.params().items()}
        load_params(actor, arrays)
        for k, v in actor.params().items():
            assert v.dtype == np.float32 and np.array_equal(v, arrays[k].astype(np.float32))

    @pytest.mark.parametrize("change, match", [
        (lambda a: a.pop("mlp.fc2.b"), r"missing \['mlp.fc2.b'\]"),
        (lambda a: a.update({"mlp.fc3.W": np.zeros((8, 8))}), r"unexpected \['mlp.fc3.W'\]"),
        (lambda a: a.update({"trunk.conv2.W": np.zeros((5, 4))}), r"parameter trunk.conv2.W has shape \(5, 4\)"),
    ])
    def test_load_params_rejects_mismatch(self, rng, change, match):
        actor = Actor(TINY, rng)
        kept = {k: v.copy() for k, v in actor.params().items()}
        arrays = {k: np.ones_like(v) for k, v in kept.items()}
        change(arrays)
        with pytest.raises(ValueError, match=match):
            load_params(actor, arrays)
        for k, v in actor.params().items():
            assert np.array_equal(v, kept[k])  # nothing copied


class TestFeaturize:
    def test_normalization(self):
        mat = np.full((40, 16), 5.0)
        mf = feature_of(mat, (3.0, math.pi / 2), 6.0)
        stacks, goal = featurize(mf)
        assert stacks.shape == (1, 40, 16) and stacks.fill == 1.0
        assert np.all(gathered(mf) == pytest.approx(0.5))
        assert goal[0] == pytest.approx(0.5)
        assert goal[1] == pytest.approx(0.5)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("kwargs, match", [
        ({"update_every": 0}, "update_every"),
        ({"eval_every": 0}, "eval_every"),
        ({"eval_episodes": 0}, "eval_episodes"),
        ({"checkpoint_every": 0}, "checkpoint_every"),
        ({"warmup_steps": -1}, "warmup_steps"),
        ({"scenario_cycle": ()}, "scenario_cycle"),
        ({"scenario_cycle": (None, "stampede")}, "stampede"),
        ({"start_distance_fractions": (0.0, 0.5)}, "start_distance_fractions"),
        ({"start_distance_fractions": (0.6, 0.4)}, "start_distance_fractions"),
        ({"start_distance_fractions": (0.5, 1.2)}, "start_distance_fractions"),
        ({"random_action_prob": -0.1}, "random_action_prob"),
        ({"random_action_prob": 1.5}, "random_action_prob"),
        ({"total_env_steps": -5}, "total_env_steps must be non-negative, got -5"),
        ({"noise_sigma_end": -0.5}, "noise_sigma_end"),
        ({"noise_sigma_start": float("nan")}, "noise_sigma_start"),
        ({"noise_sigma_start": float("inf")}, "noise_sigma_start"),
        ({"early_stop_success": 1.5}, "early_stop_success"),
        ({"early_stop_success": -0.1}, "early_stop_success"),
        ({"divergence_threshold": 0.0}, "divergence_threshold"),
        ({"divergence_threshold": -1.0}, "divergence_threshold"),
    ])
    def test_bad_value_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"tau": 0.0}, "tau"),
        ({"tau": 2.0}, "tau"),
        ({"tau": float("nan")}, "tau"),
        ({"gamma": -1.0}, "gamma"),
        ({"gamma": 1.5}, "gamma"),
        ({"lr_actor": -1e-4}, "lr_actor"),
        ({"lr_actor": 0.0}, "lr_actor"),
        ({"lr_critic": float("nan")}, "lr_critic"),
        ({"lr_critic": float("inf")}, "lr_critic"),
        ({"logit_penalty": -1e-3}, "logit_penalty"),
    ])
    def test_bad_learner_value_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            DDPGConfig(**kwargs)

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            DDPGConfig(batch_size=0)

    def test_replay_smaller_than_batch_rejected(self):
        """A replay that holds fewer transitions than a batch would make
        no update at all; a replay of exactly one batch is accepted."""
        with pytest.raises(ValueError, match="buffer_capacity 10 can never fill a batch of 16"):
            DDPGConfig(batch_size=16, buffer_capacity=10)
        DDPGConfig(batch_size=16, buffer_capacity=16)

    def test_boundary_values_accepted(self):
        TrainConfig(update_every=1, eval_every=1, eval_episodes=1, checkpoint_every=1,
                    warmup_steps=0, scenario_cycle=(None, "crossing"),
                    start_distance_fractions=(1.0, 1.0), random_action_prob=1.0,
                    ddpg=DDPGConfig(batch_size=1))
        TrainConfig(start_distance_fractions=(0.01, 0.5), random_action_prob=0.0)
        TrainConfig(noise_sigma_start=0.0, noise_sigma_end=0.0, early_stop_success=0.0,
                    divergence_threshold=math.inf,
                    ddpg=DDPGConfig(tau=1.0, gamma=0.0, logit_penalty=0.0))
        TrainConfig(early_stop_success=1.0, ddpg=DDPGConfig(gamma=1.0))


class TestTrainLoop:
    def _env_cfg(self):
        return EnvConfig(beam_count=16, max_steps=30, obstacle_count_range=(0, 1),
                         obstacle_size_range=(0.3, 0.5), crowd=CrowdConfig(count=0))

    def _train_cfg(self, budget):
        return TrainConfig(total_env_steps=budget, warmup_steps=20, update_every=5,
                           eval_every=10**9, checkpoint_every=10**9,
                           ddpg=DDPGConfig(batch_size=8, buffer_capacity=500))

    def test_budget_zero_returns_initialization(self, tmp_path):
        learner, curve = train("ego", self._env_cfg(), self._train_cfg(0), seed=7,
                               out_dir=str(tmp_path))
        assert learner.updates == 0
        assert (tmp_path / "checkpoint_ego_final.npz").exists()

    def test_social_requires_warm_start(self):
        with pytest.raises(ValueError):
            train("social", self._env_cfg(), self._train_cfg(0), seed=7)

    def test_social_cold_override(self):
        learner, _ = train("social", self._env_cfg(), self._train_cfg(0), seed=7,
                           allow_cold_social=True)
        assert learner.updates == 0

    def test_probe_beam_count_mismatch_rejected(self, tmp_path):
        """A probe env the actor cannot read fails at construction, not
        at the first probe, and before the output directory is made."""
        env_cfg = self._env_cfg()
        tc = replace(self._train_cfg(100), eval_every=10, eval_env_config=replace(env_cfg, beam_count=32))
        with pytest.raises(ValueError, match="probe env has 32 beams and the training env 16"):
            train("ego", env_cfg, tc, seed=7, out_dir=str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()

    def test_same_seed_identical_curves(self):
        _, c1 = train("ego", self._env_cfg(), self._train_cfg(120), seed=5)
        _, c2 = train("ego", self._env_cfg(), self._train_cfg(120), seed=5)
        assert c1 == c2

    def test_probes_call_evaluation_run_episode(self, monkeypatch):
        """Probe episodes go through socnavsim.evaluation.run_episode, looked
        up on the module at each call, where a wrapper on it sees them."""
        calls = []
        real_run_episode = evaluation_module.run_episode

        def spy(policy, cfg, suite, *seeds):
            calls.append(suite)
            return real_run_episode(policy, cfg, suite, *seeds)

        monkeypatch.setattr(evaluation_module, "run_episode", spy)
        env_cfg = replace(self._env_cfg(), max_steps=3)
        tc = TrainConfig(total_env_steps=4, warmup_steps=10, eval_every=2, eval_episodes=1,
                         checkpoint_every=10**9, ddpg=DDPGConfig(batch_size=8, buffer_capacity=10))
        _, curve = train("ego", env_cfg, tc, seed=1)
        assert calls == ["probe", "probe"]
        assert [r["env_steps"] for r in curve if r["kind"] == "eval"] == [2, 4]

    def test_eval_probe_counts_reached_episodes(self, monkeypatch):
        """Each eval record is reached / eval_episodes over run_episode logs
        of the actor as it stood at that probe, on the same seeds each time,
        and counts the episodes that reached the goal, collided and timed
        out."""
        calls = []
        real_run_episode = evaluation_module.run_episode

        def spy(policy, cfg, suite, *seeds):
            calls.append((copy.deepcopy(policy.actor), seeds))
            return real_run_episode(policy, cfg, suite, *seeds)

        monkeypatch.setattr(evaluation_module, "run_episode", spy)
        # a probe start 0.6 m from the goal, where a barely trained actor
        # reaches it in some episodes and not in others
        env_cfg = EnvConfig(beam_count=64, max_steps=30, obstacle_count_range=(0, 1),
                            crowd=CrowdConfig(count=0))
        probe_cfg = replace(env_cfg, start=(2.9, 0.0))
        n = 6
        tc = TrainConfig(total_env_steps=150, warmup_steps=20, update_every=2, eval_every=30,
                         eval_episodes=n, eval_env_config=probe_cfg, checkpoint_every=10**9,
                         ddpg=DDPGConfig(batch_size=8, buffer_capacity=200))
        _, curve = train("ego", env_cfg, tc, seed=3)

        evals = [r for r in curve if r["kind"] == "eval"]
        assert [r["env_steps"] for r in evals] == [30, 60, 90, 120, 150]
        assert len(calls) == n * len(evals)
        seeds = [s for _, s in calls[:n]]
        assert seeds == episode_seeds(seeds[0][0], n)
        for k, record in enumerate(evals):
            batch = calls[k * n:(k + 1) * n]
            assert [s for _, s in batch] == seeds
            actor = batch[0][0]
            replay = LearnedPolicy(actor, "replay")
            outcomes = [run_episode(replay, probe_cfg, "replay", *s).outcome for s in seeds]
            reached = outcomes.count("reached")
            assert record["success_rate"] == reached / n
            assert (record["successes"], record["collisions"], record["timeouts"]) == (
                reached, outcomes.count("collided"), outcomes.count("timeout"))
        # a rate strictly between 0 and 1 tells reached / n from 100 * reached / n / 100
        assert any(0.0 < r["success_rate"] < 1.0 for r in evals)
        assert any(r["timeouts"] for r in evals)

    def test_warmup_draw_order_pinned(self, monkeypatch):
        """Inside the warm-up, each action reaching NavEnv.step is the next
        uniform draw of the noise stream, and each reset takes the next
        start fraction, map seed and crowd seed of the env stream."""
        actions, resets = [], []
        real_step, real_reset = NavEnv.step, NavEnv.reset

        def step(env, action):
            actions.append(np.array(action, dtype=float))
            return real_step(env, action)

        def reset(env, map_seed=None, crowd_seed=None):
            resets.append((env.config.start, map_seed, crowd_seed))
            return real_reset(env, map_seed=map_seed, crowd_seed=crowd_seed)

        monkeypatch.setattr(NavEnv, "step", step)
        monkeypatch.setattr(NavEnv, "reset", reset)
        env_cfg = replace(self._env_cfg(), max_steps=7)
        budget, fractions, seed = 30, (0.4, 0.9), 13
        # a non-zero random_action_prob: the warm-up must not draw its coin
        tc = TrainConfig(total_env_steps=budget, warmup_steps=budget + 10, random_action_prob=0.5,
                         eval_every=10**9, checkpoint_every=10**9, start_distance_fractions=fractions,
                         ddpg=DDPGConfig(batch_size=8, buffer_capacity=100))
        train("ego", env_cfg, tc, seed=seed)

        _, noise_ss, _, env_ss, _ = np.random.SeedSequence(seed).spawn(5)
        noise_rng = np.random.default_rng(noise_ss)
        assert len(actions) == budget
        for action in actions:
            assert np.array_equal(action, noise_rng.uniform(-1.5, 1.5, 2))
        env_rng = np.random.default_rng(env_ss)
        (gx, gy), (sx, sy) = env_cfg.goal, env_cfg.start
        assert len(resets) >= budget // env_cfg.max_steps + 1
        for start, map_seed, crowd_seed in resets:
            frac = float(env_rng.uniform(*fractions))
            assert start == (gx + (sx - gx) * frac, gy + (sy - gy) * frac)
            assert map_seed == int(env_rng.integers(2**31))
            assert crowd_seed == int(env_rng.integers(2**31))

    def test_noisy_actions_pinned(self, monkeypatch):
        """After the warm-up, each action reaching NavEnv.step is the next
        uniform draw of the noise stream when its coin falls under
        random_action_prob, else the clip of DDPG.act's action plus a
        normal draw of sigma noise_sigma(step), step being the number of
        environment steps before it."""
        actions, acted = [], []
        real_step, real_act = NavEnv.step, DDPG.act

        def step(env, action):
            actions.append(np.array(action, dtype=float))
            return real_step(env, action)

        def act(learner, feat, goal):
            acted.append(real_act(learner, feat, goal))
            return acted[-1]

        monkeypatch.setattr(NavEnv, "step", step)
        monkeypatch.setattr(DDPG, "act", act)
        warmup, budget, seed = 20, 90, 17
        tc = TrainConfig(total_env_steps=budget, warmup_steps=warmup, update_every=5, random_action_prob=0.3,
                         noise_sigma_start=0.6, noise_sigma_end=0.1, eval_every=10**9, checkpoint_every=10**9,
                         ddpg=DDPGConfig(batch_size=8, buffer_capacity=100))
        train("ego", replace(self._env_cfg(), max_steps=25), tc, seed=seed)

        noise_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(5)[1])
        assert len(actions) == budget
        noisy = iter(acted)
        uniform = 0
        for k, action in enumerate(actions):
            if k < warmup or noise_rng.random() < tc.random_action_prob:
                want = noise_rng.uniform(-1.5, 1.5, 2)
                uniform += k >= warmup
            else:
                want = np.clip(next(noisy) + noise_rng.normal(0.0, tc.noise_sigma(k), 2), -1.5, 1.5)
            assert action.tobytes() == want.tobytes(), k
        assert next(noisy, None) is None and 0 < uniform < budget - warmup
        assert len(acted) == budget - warmup - uniform

    def test_episode_records_summarize_updates(self, monkeypatch):
        """Each episode record holds the number of updates made in the
        episode, and the mean critic loss and mean Q(s, mu(s)) of the
        values DDPG.update returned for them; critic_loss stays the last
        loss.  An episode without updates reads 0 and None."""
        returned, real_update = [], DDPG.update

        def update(learner, batch):
            returned.append(real_update(learner, batch))
            return returned[-1]

        monkeypatch.setattr(DDPG, "update", update)
        # a warm-up longer than the first episode, which then makes no update
        tc = replace(self._train_cfg(150), warmup_steps=45)
        learner, curve = train("ego", self._env_cfg(), tc, seed=5)
        episodes = [r for r in curve if r["kind"] == "episode"]
        first, last = 0, 0  # env steps before each episode, index of its first update
        for record in episodes:
            steps = range(first + 1, record["env_steps"] + 1)
            n = sum(s >= tc.warmup_steps and s % tc.update_every == 0 and s >= tc.ddpg.batch_size for s in steps)
            mine = returned[last : last + n]
            assert record["updates"] == n == len(mine)
            if n:
                losses, qs = [c for c, _ in mine], [q for _, q in mine]
                assert record["critic_loss"] == losses[-1]
                assert record["critic_loss_mean"] == sum(losses) / n
                assert record["q_mean"] == sum(qs) / n
            else:
                assert record["critic_loss"] is record["critic_loss_mean"] is record["q_mean"] is None
            first, last = record["env_steps"], last + n
        assert last == len(returned) == learner.updates > 0
        assert any(r["updates"] == 0 for r in episodes) and any(r["updates"] > 1 for r in episodes)

    def test_episode_records_sum_reward_parts(self, monkeypatch):
        """Each episode record holds the sums of its steps' ego, social and
        goal reward parts, added in step order, on a social stage whose
        crowd makes all three nonzero."""
        episodes, real_steps = [], ddpg_module.episode_steps

        def episode_steps(*args):
            episodes.append([])
            for outcome in real_steps(*args):
                episodes[-1].append(outcome.record)
                yield outcome

        monkeypatch.setattr(ddpg_module, "episode_steps", episode_steps)
        env_cfg = EnvConfig(beam_count=16, max_steps=40, obstacle_count_range=(0, 1),
                            obstacle_size_range=(0.3, 0.5), crowd=CrowdConfig(count=6))
        _, curve = train("social", env_cfg, self._train_cfg(150), seed=5, allow_cold_social=True)
        records = [r for r in curve if r["kind"] == "episode"]
        assert len(records) == len(episodes) > 1
        for record, steps in zip(records, episodes):
            for key, part in (("r_ego_sum", "r_ego"), ("r_social_sum", "r_social"), ("r_goal_sum", "r_goal")):
                total = 0.0
                for step in steps:
                    total += getattr(step, part)
                assert record[key] == total, key
        for key in ("r_ego_sum", "r_social_sum", "r_goal_sum"):
            assert any(r[key] != 0.0 for r in records), key

    def test_warm_start_applied(self, tmp_path):
        learner, _ = train("ego", self._env_cfg(), self._train_cfg(60), seed=3,
                           out_dir=str(tmp_path))
        parts = {"actor": learner.actor.params()}
        twin, _ = train("social", self._env_cfg(), self._train_cfg(0), seed=4,
                        warm_start_parts=parts)
        for k, v in learner.actor.params().items():
            assert np.array_equal(twin.actor.params()[k], v)
