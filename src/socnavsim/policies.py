"""Learned and scripted controllers; evaluation.episode_steps calls
begin_episode after each reset, then act once per policy step."""

from __future__ import annotations

import numpy as np

from .lidar import MotionFeature
from .networks import Actor, featurize


class LearnedPolicy:
    """A deterministic actor, e.g. from networks.actor_from_checkpoint."""

    def __init__(self, actor: Actor, name: str):
        self.actor = actor
        self.name = name

    @property
    def beam_count(self) -> int:
        return self.actor.spec.feature_shape[1]

    def begin_episode(self, obs: MotionFeature) -> None:
        if obs.matrix.shape[1] != self.beam_count:
            raise ValueError(
                f"checkpoint expects {self.beam_count} beams, observation has {obs.matrix.shape[1]}"
            )
        self._initial_distance = obs.goal_vector[0]

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
