"""The crowd worker (crowdfeed) against the inline crowd step.

Every episode here runs twice: with the crowd's ticks taken from the
worker (two usable CPUs at the episode's first crowd tick, conftest.cpus)
and stepped inline (one).  The step records, the final rows and the
outcome must be the same bytes."""

import dataclasses
import gc
import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from socnavsim import crowd, crowdfeed, world
from socnavsim.baselines import GreedyPolicy
from socnavsim.crowd import Crowd, CrowdConfig
from socnavsim.evaluation import episode_seeds, suite_config
from socnavsim.world import EnvConfig, NavEnv, Status

from conftest import cpus, run_script


def crowd_cfg(suite, **changes):
    return dataclasses.replace(suite_config(suite, EnvConfig(beam_count=64, max_steps=60)), **changes)


def finish(env, obs, policy, steps=None):
    """Step env under policy to the end, or for steps steps; the reprs of
    its records, its crowd rows and its status."""
    records = []
    while env.status is Status.RUNNING and (steps is None or len(records) < steps):
        outcome = env.step(policy.act(obs))
        obs = outcome.observation
        records.append(repr(outcome.record))
    return records, repr(env.crowd.rows), env.status


def run(env, ahead, map_seed, crowd_seed, policy, steps=None):
    """finish an episode of env from a reset, with the worker on or off
    (ahead); the reset opens no feed, and the first step opens one
    exactly when on."""
    with cpus(2 if ahead else 1):
        obs = env.reset(map_seed=map_seed, crowd_seed=crowd_seed)
        assert env._feed is None
        out = finish(env, obs, policy, steps=1)
        assert (env._feed is not None) == (ahead and env.status is Status.RUNNING)
        more = finish(env, env._observation(), policy, None if steps is None else steps - 1)
    return out[0] + more[0], *more[1:]


def episodes_at(cfg, ahead, seeds):
    """Full greedy episodes on (run, map, crowd) seeds; the worker is on
    or off (ahead) throughout, or left as the caller's CPU count sets it
    for None."""
    policy = GreedyPolicy(cfg.lidar())
    out = []
    for _, map_seed, crowd_seed in seeds:
        env = NavEnv(cfg)
        if ahead is None:
            out.append(finish(env, env.reset(map_seed=map_seed, crowd_seed=crowd_seed), policy))
        else:
            out.append(run(env, ahead, map_seed, crowd_seed, policy))
    return out


def episodes(cfg, ahead):
    out = episodes_at(cfg, ahead, episode_seeds(11, 3))
    assert not crowdfeed._LOCK.locked()  # each episode's end released the worker
    return out


@pytest.mark.parametrize("cfg", [
    crowd_cfg("crowd:random:20"),
    crowd_cfg("crowd:crossing:8", obstacle_count_range=(3, 5)),
    crowd_cfg("crowd:random:8", crowd=CrowdConfig(count=0, walk_in_probability=0.3)),
    crowd_cfg("crowd:random:8", crowd=CrowdConfig(count=8, stop_go_probability=0.2)),
], ids=["random20", "crossing8-discs", "walk-ins", "stop-and-go"])
def test_worker_steps_like_inline(cfg):
    got, want = episodes(cfg, True), episodes(cfg, False)
    assert got == want
    assert any(len(records) > 10 for records, *_ in want)


def test_crossing_has_static_discs():
    """The crossing case above avoids obstacle discs, not only pedestrians."""
    env = NavEnv(crowd_cfg("crowd:crossing:8", obstacle_count_range=(3, 5)))
    env.reset(map_seed=1, crowd_seed=2)
    assert len(env._discs) >= 3


def test_walk_ins_start_from_an_empty_crowd():
    env = NavEnv(crowd_cfg("crowd:random:8", crowd=CrowdConfig(count=0, walk_in_probability=0.3)))
    env.reset(map_seed=1, crowd_seed=2)
    assert len(env.crowd) == 0
    run(env, True, 1, 2, GreedyPolicy(env.lidar_config), steps=10)
    assert len(env.crowd) > 0


def test_non_finite_line_raises_at_the_same_step(monkeypatch):
    """Two pedestrians 2e155 m apart, paused for 2 and 4 control ticks:
    their pair's line overflows, and the first to walk again raises at
    the third control tick, in the second policy step, either way; the
    env's crowd generator is then where the raising step left it."""
    far = 1e155
    rows = [(0, -far, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.3, False, 3, 0.0),
            (1, far, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.3, False, 5, 0.0)]
    monkeypatch.setattr(world, "spawn_scenario", lambda *args: Crowd.from_rows(rows))
    cfg = crowd_cfg("crowd:random:2")
    results = []
    for ahead in (True, False):
        env = NavEnv(cfg)
        with cpus(2 if ahead else 1):
            env.reset(map_seed=1, crowd_seed=2)
            env.step((1.0, 0.0))
            assert (env._feed is not None) == ahead
            with pytest.raises(ValueError, match="non-finite ORCA constraint for pedestrian 0"):
                env.step((1.0, 0.0))
        assert env._feed is None and not crowdfeed._LOCK.locked()
        results.append((env.steps, repr(env.crowd.rows), repr(env.crowd_rng.bit_generator.state)))
    assert results[0] == results[1]


def test_abandoned_episode_then_a_new_one():
    """An episode left mid-way by a reset, then one left by dropping its
    env, then full episodes: the worker serves each next episode as if
    the abandoned ones had run inline."""
    cfg = crowd_cfg("crowd:random:20")
    policy = GreedyPolicy(cfg.lidar())
    (_, m0, c0), (_, m1, c1), (_, m2, c2) = episode_seeds(5, 3)
    got, want = [], []
    for ahead, out in ((True, got), (False, want)):
        env = NavEnv(cfg)
        out.append(run(env, ahead, m0, c0, policy, steps=4))
        out.append(run(env, ahead, m1, c1, policy))
        dropped = NavEnv(cfg)
        out.append(run(dropped, ahead, m2, c2, policy, steps=3))
        del dropped
        gc.collect()
        env = NavEnv(cfg)  # claims the worker that the dropped env held
        out.append(run(env, ahead, m0, c0, policy))
    assert got == want


def test_two_live_envs_stepped_alternately():
    """The first env to take a crowd tick holds the worker; the second,
    whose first tick comes while the first is running, steps inline; the
    outputs are those of each alone."""
    cfg = crowd_cfg("crowd:random:20")
    policy = GreedyPolicy(cfg.lidar())
    (_, m0, c0), (_, m1, c1) = episode_seeds(7, 2)
    a, b = NavEnv(cfg), NavEnv(cfg)
    records = {a: [], b: []}
    with cpus(2):
        obs = {a: a.reset(map_seed=m0, crowd_seed=c0), b: b.reset(map_seed=m1, crowd_seed=c1)}
        while a.status is Status.RUNNING or b.status is Status.RUNNING:
            for env in (a, b):
                if env.status is Status.RUNNING:
                    outcome = env.step(policy.act(obs[env]))
                    obs[env] = outcome.observation
                    records[env].append(repr(outcome.record))
            if len(records[b]) == 1:
                assert a._feed is not None and b._feed is None
    for env, (m, c) in ((a, (m0, c0)), (b, (m1, c1))):
        alone = NavEnv(cfg)
        assert (records[env], repr(env.crowd.rows), env.status) == run(alone, False, m, c, policy)


def test_threads_share_one_worker():
    """Four threads (more than the cores) run crowd episodes at once on
    two usable CPUs, under a 10 us switch interval: whichever env holds
    the worker, each episode equals its inline run."""
    cfg = crowd_cfg("crowd:random:8", max_steps=25)
    seeds = episode_seeds(13, 8)
    want = {seed: episodes_at(cfg, False, [seed]) for seed in seeds}
    got, errors = {}, []

    def run(part):
        try:
            for seed in part:
                got[seed] = episodes_at(cfg, None, [seed])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(seeds[i::4],)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with cpus(2):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors, errors
    assert got == want
    assert not crowdfeed._LOCK.locked()


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
def test_stuck_worker_is_killed_and_the_episode_ends(monkeypatch):
    """A worker that sends nothing makes the step raise TimeoutError
    instead of hanging; the worker is killed and the lock freed at once,
    the env needs a reset (its generator is not where the episode is),
    and the next episode starts a new worker.  The robot stands still
    out of the crowd's way, so the episode runs its 800 control ticks,
    more than the pipe and the env's last read hold (up to about 128 KiB
    on Linux, some 180 ticks of 8 pedestrians), unless the step raises
    first."""
    monkeypatch.setattr(crowdfeed, "RECV_TIMEOUT", 0.5)
    cfg = crowd_cfg("crowd:random:8", max_steps=400)
    policy = GreedyPolicy(cfg.lidar())
    env = NavEnv(cfg)
    with cpus(2):
        env.reset(map_seed=1, crowd_seed=2)
        env.step((0.0, 0.0))
        process = crowdfeed._WORKER.process
        os.kill(process.pid, signal.SIGSTOP)
        try:
            with pytest.raises(TimeoutError):
                while True:  # past what it sent before it stopped
                    env.step((0.0, 0.0))
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
                pytest.fail("the stuck worker was left running")
        assert env._feed is None and crowdfeed._WORKER is None and not crowdfeed._LOCK.locked()
        with pytest.raises(RuntimeError, match="reset"):
            env.step((0.5, 0.0))
    assert run(env, True, 1, 2, policy) == episodes_at(cfg, False, [(0, 1, 2)])[0]
    assert crowdfeed._WORKER.process.pid != process.pid


def test_replaced_crowd_step_runs_inline(monkeypatch):
    """A replaced crowd function (a tracer's or a spy's wrapper) would not
    run in the worker, so the env opens no feed, steps inline, and the
    replacement sees every call."""
    cfg = crowd_cfg("crowd:random:8")
    want = episodes_at(cfg, False, [(0, 1, 2)])
    for module, name in ((world, "step_crowd"), (crowd, "orca_velocity"), (crowd, "orca_lines")):
        calls = []
        with monkeypatch.context() as m:
            m.setattr(module, name, lambda *args, _real=getattr(module, name): calls.append(1) or _real(*args))
            m.setattr(crowdfeed, "open_feed", lambda *args: pytest.fail(f"a feed opened with {name} replaced"))
            with cpus(2):
                assert episodes_at(cfg, None, [(0, 1, 2)]) == want
        assert calls
    assert crowd.defined_step(world.step_crowd)


def test_reset_alone_starts_no_worker():
    """A reset (as scenario-gen makes) neither imports the crowd worker's
    module nor starts a worker: that waits for the first crowd tick."""
    result = run_script("""
        import sys
        from socnavsim import nn
        from socnavsim.evaluation import suite_config
        from socnavsim.world import EnvConfig, NavEnv
        nn.usable_cpus = lambda: 2
        env = NavEnv(suite_config("crowd:random:8", EnvConfig(beam_count=64)))
        env.reset(map_seed=1, crowd_seed=2)
        print("socnavsim.crowdfeed" in sys.modules)
        env.step((0.5, 0.0))
        print(env._feed is not None)
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


def test_feed_stops_at_the_episode_limit():
    """An episode that ends at max_steps closes its feed."""
    cfg = crowd_cfg("crowd:random:8", max_steps=3)
    env = NavEnv(cfg)
    records, *_ = run(env, True, 1, 2, GreedyPolicy(cfg.lidar()))
    assert len(records) <= 3 and env._feed is None


def pipe_fill(fd):
    """The bytes waiting in the pipe at fd and the most it holds, where
    the platform tells them (Linux), else None."""
    try:
        import fcntl
        import termios
    except ImportError:  # not a POSIX platform
        return None
    if not (hasattr(fcntl, "F_GETPIPE_SZ") and hasattr(termios, "FIONREAD")):
        return None
    waiting = int.from_bytes(fcntl.ioctl(fd, termios.FIONREAD, bytes(4)), sys.byteorder)
    return waiting, fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)


def test_stop_reaches_a_worker_blocked_on_a_full_pipe():
    """A reset stops a stream whose worker waits to write to a full pipe:
    the next episode equals its inline run, on the same worker."""
    cfg = crowd_cfg("crowd:random:20", max_steps=400)
    policy = GreedyPolicy(cfg.lidar())
    (_, m0, c0), (_, m1, c1) = episode_seeds(17, 2)
    env = NavEnv(cfg)
    with cpus(2):
        env.reset(map_seed=m0, crowd_seed=c0)
        env.step((0.0, 0.0))
        assert env._feed is not None
        worker = crowdfeed._WORKER
        time.sleep(0.5)  # some 36 ticks of 20 pedestrians fill the 64 KiB pipe in about 20 ms
        fill = pipe_fill(worker.reader.fd)
        assert fill is None or fill[0] > fill[1] // 2, fill  # the worker has filled most of it
        assert worker.process.poll() is None
    got = run(env, True, m1, c1, policy)
    assert crowdfeed._WORKER is worker
    assert got == run(NavEnv(cfg), False, m1, c1, policy)


def test_inline_on_one_cpu():
    env = NavEnv(crowd_cfg("crowd:random:8"))
    run(env, False, 1, 2, GreedyPolicy(env.lidar_config), steps=2)


def test_no_feed_for_a_crowd_that_cannot_change():
    env = NavEnv(suite_config("mapless", EnvConfig(beam_count=64)))
    with cpus(2):
        env.reset(map_seed=1, crowd_seed=2)
        env.step((0.5, 0.0))
    assert env._feed is None


def _feed_opened(queue):
    env = NavEnv(crowd_cfg("crowd:random:8"))
    with cpus(2):
        env.reset(map_seed=1, crowd_seed=2)
        env.step((0.5, 0.0))
    queue.put(env._feed is not None)


def test_inline_in_a_daemonic_process():
    """A daemonic process (a worker of eval's episode pool) steps its
    envs inline even on two CPUs: the pool already fills the CPUs."""
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    process = ctx.Process(target=_feed_opened, args=(queue,), daemon=True)
    process.start()
    opened = queue.get(timeout=120)
    process.join(120)
    assert opened is False and process.exitcode == 0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_inline_when_pinned_to_one_cpu():
    result = run_script("""
        import os
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        from socnavsim.evaluation import suite_config
        from socnavsim.world import EnvConfig, NavEnv
        env = NavEnv(suite_config("crowd:random:8", EnvConfig(beam_count=64)))
        env.reset(map_seed=1, crowd_seed=2)
        env.step((0.5, 0.0))
        print(env._feed is None)
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True"]


def test_script_without_main_guard_leaves_no_worker():
    """A script without a main guard runs a crowd episode on the worker
    and exits; the worker ran no copy of the script, and its pid is gone
    once the script has exited."""
    result = run_script("""
        from socnavsim import crowdfeed, nn
        from socnavsim.baselines import GreedyPolicy
        from socnavsim.evaluation import episode_seeds, run_episode, suite_config
        from socnavsim.world import EnvConfig
        print("script body")
        nn.usable_cpus = lambda: 2
        cfg = suite_config("crowd:random:8", EnvConfig(beam_count=64, max_steps=20))
        run_episode(GreedyPolicy(cfg.lidar()), cfg, "crowd:random:8", *episode_seeds(0, 1)[0])
        print(crowdfeed._WORKER.process.pid)
    """)
    assert result.returncode == 0, result.stderr
    body, pid = result.stdout.split("\n", 1)
    assert body == "script body"
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid), 0)
