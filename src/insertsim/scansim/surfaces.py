"""Scene geometry for the virtual scanner: analytic parts.

Every surface implements `ray_intersect(o, d)` in its local frame: ray
origins and directions given as float64 (N, 3) arrays, which it does not
convert (`Scene.cast`, its caller, converts once). It returns, per ray, the
smallest positive hit parameter, inf where the ray misses: an (N,) array.
A Scene places surfaces with poses and casts world-frame rays against all
parts, keeping the nearest hit. No surface normal is computed: a line
scanner measures depth only.

Every surface also exposes `bounds`, its local axis-aligned bounding box as
a (2, 3) array of low and high corners. The scanner's column window relies
on two contracts: `ray_intersect` works ray by ray, so a ray's result does
not depend on the other rays in the call, and every hit it reports lies
inside the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from insertsim.geom import Pose

_T_MIN = 1e-9  # reject hits closer than this to the ray origin


def _box_faces(o: np.ndarray, d: np.ndarray, h: np.ndarray, open_z=None) -> np.ndarray:
    """Nearest hit on the six faces of the box |x_i| <= h_i (slab test).

    `open_z`, given the (x, y) coordinates of the hits on a ±z face, marks the
    ones that are open (no material there), which the ray passes through.
    """
    best_t = np.full(len(o), np.inf)
    for axis in range(3):
        a, b = (i for i in range(3) if i != axis)
        da = d[:, axis]
        movable = np.abs(da) > 1e-30
        for sign in (-1.0, 1.0):
            t = np.where(movable, (sign * h[axis] - o[:, axis]) / np.where(movable, da, 1.0), np.inf)
            with np.errstate(invalid="ignore"):  # inf * 0 where the ray cannot reach the face
                pa, pb = (o[:, i] + t * d[:, i] for i in (a, b))
            inside = (np.abs(pa) <= h[a] + 1e-15) & (np.abs(pb) <= h[b] + 1e-15)
            if axis == 2 and open_z is not None:
                inside &= ~open_z(pa, pb)
            valid = movable & (t > _T_MIN) & inside & (t < best_t)
            best_t = np.where(valid, t, best_t)
    return best_t


class Box:
    """Axis-aligned box centered at the local origin."""

    def __init__(self, half_extents):
        h = self.half_extents = np.asarray(half_extents, dtype=np.float64)
        if h.shape != (3,) or not np.all((0 < h) & (h < np.inf)):
            raise ValueError("half_extents must be 3 positive finite lengths")

    @property
    def bounds(self) -> np.ndarray:
        return np.stack([-self.half_extents, self.half_extents])

    def ray_intersect(self, o: np.ndarray, d: np.ndarray) -> np.ndarray:
        return _box_faces(o, d, self.half_extents)


class HolePlate:
    """Rectangular plate with an elliptical through-hole along local z.

    The plate spans |x| <= hx, |y| <= hy, |z| <= thickness/2; the hole is an
    elliptical cylinder with semi-axes (a, b) centered at `hole_center`
    (in-plane offset), strictly inside the plate's sides. The hole entry used
    as the insertion target is the ellipse center on the +z face.
    """

    def __init__(self, half_extents_xy, thickness: float, hole_semi_axes, hole_center):
        self.hx, self.hy = (float(v) for v in half_extents_xy)
        self.half_thickness = float(thickness) / 2.0
        self.a, self.b = (float(v) for v in hole_semi_axes)
        self.cx, self.cy = (float(v) for v in hole_center)
        if not all(0 < v < np.inf for v in (self.hx, self.hy, self.half_thickness, self.a, self.b)):
            raise ValueError("plate dimensions must be positive and finite")
        # written so that a NaN centre fails it too
        if not (abs(self.cx) + self.a < self.hx and abs(self.cy) + self.b < self.hy):
            raise ValueError("hole must fit inside the plate")

    @property
    def bounds(self) -> np.ndarray:
        hi = np.array([self.hx, self.hy, self.half_thickness])
        return np.stack([-hi, hi])

    @property
    def hole_entry_local(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.half_thickness])

    @property
    def hole_axis_local(self) -> np.ndarray:
        return np.array([0.0, 0.0, 1.0])

    def _in_hole(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = (x - self.cx) / self.a
        v = (y - self.cy) / self.b
        return u * u + v * v < 1.0

    def ray_intersect(self, o: np.ndarray, d: np.ndarray) -> np.ndarray:
        best_t = _box_faces(o, d, np.array([self.hx, self.hy, self.half_thickness]),
                            open_z=self._in_hole)

        # hole wall: ((x-cx)/a)^2 + ((y-cy)/b)^2 = 1, |z| <= half_thickness
        px = o[:, 0] - self.cx
        py = o[:, 1] - self.cy
        A = (d[:, 0] / self.a) ** 2 + (d[:, 1] / self.b) ** 2
        B = 2.0 * (px * d[:, 0] / self.a**2 + py * d[:, 1] / self.b**2)
        C = (px / self.a) ** 2 + (py / self.b) ** 2 - 1.0
        disc = B * B - 4.0 * A * C
        quad = (A > 1e-30) & (disc >= 0.0)
        sq = np.sqrt(np.where(quad, disc, 0.0))
        for sign in (-1.0, 1.0):
            t = np.where(quad, (-B + sign * sq) / (2.0 * np.where(quad, A, 1.0)), np.inf)
            with np.errstate(invalid="ignore"):
                z = o[:, 2] + t * d[:, 2]
            valid = quad & (t > _T_MIN) & (np.abs(z) <= self.half_thickness) & (t < best_t)
            best_t = np.where(valid, t, best_t)

        return best_t


@dataclass(frozen=True)
class ScenePart:
    part_id: str
    surface: object
    pose: Pose


class Scene:
    """Collection of posed parts with unique ids."""

    def __init__(self, parts: Sequence[ScenePart]):
        parts = list(parts)
        if not parts:
            raise ValueError("scene must contain at least one part")
        ids = [p.part_id for p in parts]
        if len(set(ids)) != len(ids):
            raise ValueError("part ids must be unique")
        self.parts = parts

    def cast(self, origins, dirs) -> np.ndarray:
        """Hit parameter of the nearest hit over all parts, inf where a ray misses them all."""
        origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
        dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
        best_t = np.full(len(origins), np.inf)
        for part in self.parts:
            R = part.pose.rotation_matrix()
            best_t = np.minimum(best_t, part.surface.ray_intersect(
                (origins - part.pose.position) @ R, dirs @ R))
        return best_t
