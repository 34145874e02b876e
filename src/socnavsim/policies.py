"""Common policy interface shared by learned and scripted controllers."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .lidar import MotionFeature
from .networks import Actor, actor_from_checkpoint, featurize


@runtime_checkable
class Policy(Protocol):
    """Maps observations to 2-D actions, one episode at a time.

    The episode stepper (evaluation.episode_steps) calls begin_episode
    once with the observation after reset, then act once per policy
    step with the latest observation, and sends the action to
    NavEnv.step.  A policy that sets `wants_state = True` must also
    define observe_state(robot, goal, pedestrians); the stepper calls
    it with the simulator's ground truth before each act().
    """

    name: str

    def begin_episode(self, obs: MotionFeature) -> None: ...

    def act(self, obs: MotionFeature) -> tuple[float, float]: ...


class LearnedPolicy:
    """Deterministic actor loaded from a checkpoint file."""

    def __init__(self, checkpoint_path, name: str | None = None):
        self.actor, self.meta = actor_from_checkpoint(checkpoint_path)
        self.name = name or f"learned-{self.meta.get('stage', 'policy')}"
        self._initial_distance = 1.0

    @classmethod
    def from_actor(cls, actor: Actor, name: str) -> "LearnedPolicy":
        obj = cls.__new__(cls)
        obj.actor = actor
        obj.meta = {}
        obj.name = name
        obj._initial_distance = 1.0
        return obj

    @property
    def beam_count(self) -> int:
        return self.actor.spec.feature_shape[1]

    def begin_episode(self, obs: MotionFeature) -> None:
        if obs.matrix.shape[1] != self.beam_count:
            raise ValueError(
                f"checkpoint expects {self.beam_count} beams, observation has {obs.matrix.shape[1]}"
            )
        self._initial_distance = max(obs.goal_vector[0], 1e-6)

    def act(self, obs: MotionFeature) -> tuple[float, float]:
        feat, goal = featurize(obs, self._initial_distance)
        a, _ = self.actor.forward(feat[None], goal[None])
        return float(a[0, 0]), float(a[0, 1])


class StraightLinePolicy:
    """Full speed at the goal bearing; a sanity stub for empty maps."""

    name = "straight"

    def begin_episode(self, obs: MotionFeature) -> None:
        pass

    def act(self, obs: MotionFeature) -> tuple[float, float]:
        _, bearing = obs.goal_vector
        return 1.5 * float(np.cos(bearing)), 1.5 * float(np.sin(bearing))
