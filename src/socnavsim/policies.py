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
    def feature_shape(self) -> tuple[int, int]:
        """The (scans, beams) of the observations the actor reads."""
        return self.actor.spec.feature_shape

    def begin_episode(self, obs: MotionFeature) -> None:
        scans, beams = self.feature_shape
        if (len(obs.scans), obs.beam_count) != (scans, beams):
            raise ValueError(
                f"checkpoint expects {scans} scans of {beams} beams, "
                f"observation has {len(obs.scans)} of {obs.beam_count}"
            )

    def act(self, obs: MotionFeature) -> tuple[float, float]:
        feat, goal = featurize(obs)
        a = self.actor.act(feat, goal[None])
        return float(a[0, 0]), float(a[0, 1])


class StraightLinePolicy:
    """Full speed at the goal bearing; a sanity stub for empty maps."""

    name = "straight"

    def begin_episode(self, obs: MotionFeature) -> None:
        pass

    def act(self, obs: MotionFeature) -> tuple[float, float]:
        _, bearing = obs.goal_vector
        return 1.5 * float(np.cos(bearing)), 1.5 * float(np.sin(bearing))
