"""Parameterized scene generation.

A :class:`SceneRecipe` captures the structural knobs that matter to
DTexL — texture footprint, depth complexity and its horizontal
clustering, blending fraction, shader intensity, 2D/3D projection —
and :meth:`SceneRecipe.build` turns them into a concrete
:class:`~repro.geometry.mesh.Scene` for a given GPU configuration.

Scenes are resolution-independent: sprite positions and sizes are
expressed as fractions of the screen, and sprite *count* scales with the
screen area so scaled-down test configs stay fast while preserving
density (overdraw) statistics.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.config import GPUConfig
from repro.errors import WorkloadError
from repro.geometry.mesh import (
    DrawCommand,
    Mesh,
    Scene,
    ShaderProgram,
    Vertex,
)
from repro.geometry.transform import look_at, orthographic, perspective
from repro.geometry.vec import Mat4, Vec2, Vec3
from repro.texture.texture import Texture, TextureAllocator

MIB = 1024 * 1024
#: Approximate mip-chain overhead over the base level (geometric series).
MIP_CHAIN_FACTOR = 4.0 / 3.0


def chain_bytes(side: int) -> int:
    """Approximate full-mip-chain footprint of a side x side RGBA8 texture."""
    return int(side * side * 4 * MIP_CHAIN_FACTOR)


def plan_texture_sides(
    budget_bytes: int, max_textures: int, rng: random.Random
) -> List[int]:
    """Power-of-two texture sides whose chains sum to ~``budget_bytes``.

    Greedy: repeatedly take the largest side (<= 1024) that still fits,
    with a floor of 32; always returns at least one texture.
    """
    if budget_bytes <= 0:
        raise WorkloadError("texture budget must be positive")
    sides: List[int] = []
    remaining = budget_bytes
    while len(sides) < max_textures:
        side = 32
        while side < 1024 and chain_bytes(side * 2) <= remaining:
            side *= 2
        sides.append(side)
        remaining -= chain_bytes(side)
        if remaining < chain_bytes(32):
            break
    rng.shuffle(sides)
    return sides


@dataclass
class BuiltWorkload:
    """A generated scene plus the texture set it samples."""

    scene: Scene
    allocator: TextureAllocator

    @property
    def textures(self):
        return self.allocator.textures

    @property
    def texture_footprint_bytes(self) -> int:
        return self.allocator.total_footprint_bytes


@dataclass(frozen=True)
class SceneRecipe:
    """Structural description of one synthetic game frame."""

    name: str
    seed: int
    is_3d: bool
    texture_budget_mib: float
    max_textures: int = 6
    #: Mean number of sprite layers covering each screen point.
    depth_complexity: float = 2.5
    #: 0 = sprites uniform over the screen; 1 = fully concentrated into
    #: horizontal bands (the gravity effect of §V-A).
    horizontal_clustering: float = 0.5
    #: Fraction of sprites drawn with alpha blending (no depth write).
    blend_fraction: float = 0.2
    #: Sprite side as a fraction of screen height: (min, max).
    sprite_size: Tuple[float, float] = (0.08, 0.3)
    #: Fragment-shader ALU cost range (cycles).
    alu_cycles: Tuple[int, int] = (8, 24)
    #: Texture fetches per fragment.
    texture_samples: int = 1
    #: Texels per screen pixel at sprite scale (drives mip LOD / reuse).
    uv_scale: Tuple[float, float] = (0.5, 2.0)
    #: Whether a full-screen textured background layer is drawn first.
    background: bool = True
    #: Per-frame sprite scroll in screen fractions (animation support):
    #: frame ``k`` shifts every sprite by ``k * scroll`` (wrapping).
    scroll: Tuple[float, float] = (0.03, 0.0)

    # -- public API -------------------------------------------------------------

    def build(self, config: GPUConfig, frame: int = 0) -> BuiltWorkload:
        """Generate the scene for ``config``'s screen.

        ``frame`` animates the scene: sprites scroll by
        ``frame * scroll`` (the texture set and the rest of the scene
        stay identical, so consecutive frames share texture addresses —
        the inter-frame reuse a warm cache can exploit).
        """
        rng = random.Random(self.seed)
        allocator = TextureAllocator()
        sides = plan_texture_sides(
            int(self.texture_budget_mib * MIB), self.max_textures, rng
        )
        textures = [
            allocator.create(side, side, seed=self.seed * 97 + i)
            for i, side in enumerate(sides)
        ]
        scene = Scene(name=self.name)
        builder = _SceneBuilder(config, rng, textures, scene)
        if self.is_3d:
            self._build_3d(builder, frame)
        else:
            self._build_2d(builder, frame)
        return BuiltWorkload(scene=scene, allocator=allocator)

    # -- 2D construction ---------------------------------------------------------

    def _build_2d(self, builder: "_SceneBuilder", frame: int = 0) -> None:
        config = builder.config
        builder.scene.projection_matrix = orthographic(
            0.0, float(config.screen_width),
            float(config.screen_height), 0.0,
        )
        if self.background:
            builder.add_screen_rect(
                0.0, 0.0, 1.0, 1.0, depth=0.95,
                texture=builder.largest_texture(),
                uv_rect=(0.0, 0.0, 1.0, 1.0),
                shader=self._shader(builder.rng),
                blend=False,
            )
        # Sprites back-to-front (painter's order), so every layer passes
        # Early-Z and the intended overdraw actually happens.
        sprites = self._sprite_placements(builder, frame)
        depth = 0.9
        step = 0.8 / max(1, len(sprites))
        for cx, cy, size in sprites:
            texture, uv_rect = self._sprite_source(builder)
            builder.add_screen_rect(
                cx - size / 2, cy - size / 2, cx + size / 2, cy + size / 2,
                depth=depth,
                texture=texture,
                uv_rect=uv_rect,
                shader=self._shader(builder.rng),
                blend=builder.rng.random() < self.blend_fraction,
            )
            depth -= step

    # -- 3D construction ---------------------------------------------------------

    def _build_3d(self, builder: "_SceneBuilder", frame: int = 0) -> None:
        config = builder.config
        aspect = config.screen_width / config.screen_height
        builder.scene.projection_matrix = perspective(
            math.radians(60.0), aspect, 0.5, 100.0
        )
        builder.scene.view_matrix = look_at(
            Vec3(0.0, 2.0, 0.0), Vec3(0.0, 1.0, -10.0), Vec3(0.0, 1.0, 0.0)
        )
        if self.background:
            # Ground plane receding to the horizon: strong LOD gradient.
            builder.add_world_rect(
                Vec3(-40.0, 0.0, -1.0), Vec3(40.0, 0.0, -1.0),
                Vec3(40.0, 0.0, -80.0), Vec3(-40.0, 0.0, -80.0),
                texture=builder.largest_texture(),
                uv_rect=(0.0, 0.0, 16.0, 16.0),
                shader=self._shader(builder.rng),
                blend=False,
            )
        # Billboards at increasing depth; draw order is scene order, so
        # Early-Z kills some but not all overdraw, as in real 3D frames.
        for cx, cy, size in self._sprite_placements(builder, frame):
            depth = 1.5 + 25.0 * builder.rng.random() ** 2
            texture, uv_rect = self._sprite_source(builder)
            builder.add_billboard(
                cx, cy, size, depth,
                texture=texture,
                uv_rect=uv_rect,
                shader=self._shader(builder.rng),
                blend=builder.rng.random() < self.blend_fraction,
            )

    # -- shared helpers ------------------------------------------------------------

    def _sprite_placements(
        self, builder: "_SceneBuilder", frame: int = 0
    ) -> List[Tuple[float, float, float]]:
        """(cx, cy, size) in screen fractions, count set by depth complexity."""
        rng = builder.rng
        mean_size = (self.sprite_size[0] + self.sprite_size[1]) / 2.0
        # Screen-area fraction of one sprite: 2D rects span ``size`` of
        # both axes; 3D billboards are squares of ``size`` x screen height.
        aspect = builder.config.screen_width / builder.config.screen_height
        mean_area = mean_size * mean_size
        if self.is_3d:
            mean_area /= aspect
        count = max(4, int(self.depth_complexity / max(mean_area, 1e-6)))
        bands = [0.25, 0.55, 0.8]  # horizontal bands (gravity effect)
        placements: List[Tuple[float, float, float]] = []
        for _ in range(count):
            size = rng.uniform(*self.sprite_size)
            cx = rng.random()
            if rng.random() < self.horizontal_clustering:
                band = rng.choice(bands)
                cy = min(1.0, max(0.0, rng.gauss(band, 0.05)))
            else:
                cy = rng.random()
            cx = (cx + frame * self.scroll[0]) % 1.0
            cy = (cy + frame * self.scroll[1]) % 1.0
            placements.append((cx, cy, size))
        return placements

    def _uv_rect(self, rng: random.Random) -> Tuple[float, float, float, float]:
        scale = rng.uniform(*self.uv_scale)
        u0 = rng.random()
        v0 = rng.random()
        return (u0, v0, u0 + scale, v0 + scale)

    def _sprite_source(
        self, builder: "_SceneBuilder"
    ) -> Tuple[Texture, Tuple[float, float, float, float]]:
        """Texture and UV window for one sprite."""
        return builder.pick_texture(), self._uv_rect(builder.rng)

    def _shader(self, rng: random.Random) -> ShaderProgram:
        return ShaderProgram(
            name=f"{self.name}-frag",
            alu_cycles=rng.randint(*self.alu_cycles),
            texture_samples=self.texture_samples,
        )


class _SceneBuilder:
    """Accumulates draw commands, managing vertex-buffer addresses."""

    def __init__(
        self,
        config: GPUConfig,
        rng: random.Random,
        textures: List[Texture],
        scene: Scene,
    ):
        self.config = config
        self.rng = rng
        self.textures = textures
        self.scene = scene
        self._vertex_cursor = 0

    def largest_texture(self) -> Texture:
        return max(self.textures, key=lambda t: t.width * t.height)

    def pick_texture(self) -> Texture:
        return self.rng.choice(self.textures)

    def _register_mesh(self, vertices: List[Vertex], indices: List[int]) -> Mesh:
        mesh = Mesh(
            vertices=vertices, indices=indices,
            base_address=self._vertex_cursor,
        )
        self._vertex_cursor += len(vertices) * 32
        return mesh

    def _add_rect_mesh(
        self,
        corners: List[Vec3],
        uv_rect: Tuple[float, float, float, float],
        texture: Texture,
        shader: ShaderProgram,
        blend: bool,
        model: Mat4 = None,
    ) -> None:
        u0, v0, u1, v1 = uv_rect
        uvs = [Vec2(u0, v0), Vec2(u1, v0), Vec2(u1, v1), Vec2(u0, v1)]
        vertices = [Vertex(p, uv) for p, uv in zip(corners, uvs)]
        mesh = self._register_mesh(vertices, [0, 1, 2, 0, 2, 3])
        self.scene.add(
            DrawCommand(
                mesh=mesh,
                texture_id=texture.texture_id,
                model_matrix=model or Mat4.identity(),
                shader=shader,
                depth_write=not blend,
                blend=blend,
            )
        )

    def add_screen_rect(
        self,
        fx0: float, fy0: float, fx1: float, fy1: float,
        depth: float,
        texture: Texture,
        uv_rect: Tuple[float, float, float, float],
        shader: ShaderProgram,
        blend: bool,
    ) -> None:
        """A 2D rectangle; coordinates are fractions of the screen."""
        w, h = self.config.screen_width, self.config.screen_height
        # The ortho projection maps NDC z = -z_world (GL convention), so
        # negate here to make larger ``depth`` mean farther from camera.
        z = -(depth * 2.0 - 1.0)
        corners = [
            Vec3(fx0 * w, fy0 * h, z),
            Vec3(fx1 * w, fy0 * h, z),
            Vec3(fx1 * w, fy1 * h, z),
            Vec3(fx0 * w, fy1 * h, z),
        ]
        self._add_rect_mesh(corners, uv_rect, texture, shader, blend)

    def add_world_rect(
        self,
        p0: Vec3, p1: Vec3, p2: Vec3, p3: Vec3,
        texture: Texture,
        uv_rect: Tuple[float, float, float, float],
        shader: ShaderProgram,
        blend: bool,
    ) -> None:
        """An arbitrary world-space quadrilateral (e.g. the ground plane)."""
        self._add_rect_mesh([p0, p1, p2, p3], uv_rect, texture, shader, blend)

    def add_billboard(
        self,
        fx: float, fy: float, size: float, depth: float,
        texture: Texture,
        uv_rect: Tuple[float, float, float, float],
        shader: ShaderProgram,
        blend: bool,
    ) -> None:
        """A camera-facing square at world depth ``depth``.

        ``fx, fy`` position the billboard in screen fractions at that
        depth; ``size`` is its apparent on-screen side as a fraction of
        the screen height.
        """
        # Size the billboard in world units so its projected size is
        # ``size`` at distance ``depth`` (fov 60 deg => half-height tan 30).
        half_extent_at_depth = depth * math.tan(math.radians(30.0))
        world_size = size * 2.0 * half_extent_at_depth
        aspect = self.config.screen_width / self.config.screen_height
        wx = (fx * 2.0 - 1.0) * half_extent_at_depth * aspect
        wy = (1.0 - fy * 2.0) * half_extent_at_depth + 2.0  # camera at y=2
        wz = -depth
        half = world_size / 2.0
        corners = [
            Vec3(wx - half, wy + half, wz),
            Vec3(wx + half, wy + half, wz),
            Vec3(wx + half, wy - half, wz),
            Vec3(wx - half, wy - half, wz),
        ]
        self._add_rect_mesh(corners, uv_rect, texture, shader, blend)
