"""Animated multi-frame workloads.

The paper evaluates "commercial animated applications": consecutive
frames of a game differ by small sprite/camera motion while sampling the
same textures.  :class:`Animation` produces a sequence of frames of one
game (or raw recipe) so the multi-frame simulator can study inter-frame
texture reuse in warm caches — the temporal dimension of the locality
DTexL targets within a frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import UnknownWorkloadError, WorkloadError
from repro.workloads.games import GAMES
from repro.workloads.recipe import SceneRecipe


@dataclass(frozen=True)
class Animation:
    """A finite frame sequence of one animated scene."""

    recipe: SceneRecipe
    num_frames: int = 4

    def __post_init__(self) -> None:
        if self.num_frames < 1:
            raise WorkloadError("an animation needs at least one frame")

    @staticmethod
    def of_game(alias: str, num_frames: int = 4) -> "Animation":
        """Animation of a Table I game's recipe."""
        try:
            spec = GAMES[alias]
        except KeyError:
            raise UnknownWorkloadError(f"unknown game {alias!r}") from None
        return Animation(recipe=spec.recipe, num_frames=num_frames)
