"""Scene geometry for the virtual scanner: triangle meshes and analytic parts.

Every surface implements `ray_intersect(origins, dirs)` in its local frame and
returns, per ray, the smallest positive hit parameter together with the
geometric surface normal at the hit. A Scene places surfaces with poses and
casts world-frame rays against all parts, keeping the nearest hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from insertsim.geom import Pose

_T_MIN = 1e-9  # reject hits closer than this to the ray origin
_MESH_CHUNK = 256  # rays per Moller-Trumbore broadcast block


class RayHits(NamedTuple):
    t: np.ndarray        # (N,) hit parameter, inf where miss
    normals: np.ndarray  # (N, 3) geometric unit normal, zero where miss
    hit: np.ndarray      # (N,) bool


def _box_faces(o: np.ndarray, d: np.ndarray, h: np.ndarray, open_z=None) -> RayHits:
    """Nearest hit on the six faces of the box |x_i| <= h_i (slab test).

    `open_z`, given the hit points on a ±z face, marks the ones that are open
    (no material there), which the ray passes through.
    """
    n = len(o)
    best_t = np.full(n, np.inf)
    best_n = np.zeros((n, 3))
    for axis in range(3):
        for sign in (-1.0, 1.0):
            da = d[:, axis]
            movable = np.abs(da) > 1e-30
            t = np.where(movable, (sign * h[axis] - o[:, axis]) / np.where(movable, da, 1.0), np.inf)
            with np.errstate(invalid="ignore"):
                pt = o + t[:, None] * d
            others = [i for i in range(3) if i != axis]
            inside = np.all(np.abs(pt[:, others]) <= h[others] + 1e-15, axis=1)
            if axis == 2 and open_z is not None:
                inside &= ~open_z(pt)
            valid = movable & (t > _T_MIN) & inside & (t < best_t)
            nrm = np.zeros(3)
            nrm[axis] = sign
            best_t = np.where(valid, t, best_t)
            best_n = np.where(valid[:, None], nrm, best_n)
    return RayHits(best_t, best_n, np.isfinite(best_t))


class TriangleMesh:
    """Indexed triangle mesh. Faces must be non-degenerate (area > 1e-18 m^2)."""

    def __init__(self, vertices, faces):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self.faces = np.asarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be (V, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError("faces must be (F, 3)")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise ValueError("face index out of range")
        if len(self.faces) == 0:
            raise ValueError("mesh has no triangles")
        if np.any(self.triangle_areas() <= 1e-18):
            raise ValueError("mesh contains degenerate triangles")

    def triangle_corners(self):
        v = self.vertices
        f = self.faces
        return v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]

    def triangle_areas(self) -> np.ndarray:
        a, b, c = self.triangle_corners()
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def triangle_normals(self) -> np.ndarray:
        a, b, c = self.triangle_corners()
        n = np.cross(b - a, c - a)
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    @classmethod
    def box(cls, half_extents) -> "TriangleMesh":
        hx, hy, hz = np.asarray(half_extents, dtype=np.float64)
        corners = np.array(
            [[sx * hx, sy * hy, sz * hz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        )
        # two triangles per face, outward winding
        quads = [
            (0, 1, 3, 2),  # -x
            (4, 6, 7, 5),  # +x
            (0, 4, 5, 1),  # -y
            (2, 3, 7, 6),  # +y
            (0, 2, 6, 4),  # -z
            (1, 5, 7, 3),  # +z
        ]
        faces = []
        for a, b, c, d in quads:
            faces.append((a, b, c))
            faces.append((a, c, d))
        return cls(corners, np.array(faces))

    def ray_intersect(self, origins, dirs) -> RayHits:
        origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
        dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
        n = len(origins)
        out_t = np.full(n, np.inf)
        out_n = np.zeros((n, 3))
        a, b, c = self.triangle_corners()
        e1 = b - a
        e2 = c - a
        tri_n = self.triangle_normals()
        for lo in range(0, n, _MESH_CHUNK):
            hi = min(lo + _MESH_CHUNK, n)
            o = origins[lo:hi, None, :]   # (R,1,3)
            d = dirs[lo:hi, None, :]
            pvec = np.cross(d, e2[None, :, :])
            det = np.einsum("rfk,fk->rf", pvec, e1)
            ok = np.abs(det) > 1e-16
            inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
            tvec = o - a[None, :, :]
            u = np.einsum("rfk,rfk->rf", tvec, pvec) * inv_det
            qvec = np.cross(tvec, e1[None, :, :])
            v = np.einsum("rfk,rfk->rf", d, qvec) * inv_det
            t = np.einsum("rfk,fk->rf", qvec, e2) * inv_det
            valid = ok & (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1.0 + 1e-12) & (t > _T_MIN)
            t = np.where(valid, t, np.inf)
            best = np.argmin(t, axis=1)
            rows = np.arange(hi - lo)
            tb = t[rows, best]
            out_t[lo:hi] = tb
            out_n[lo:hi] = np.where(np.isfinite(tb)[:, None], tri_n[best], 0.0)
        return RayHits(out_t, out_n, np.isfinite(out_t))


class Cylinder:
    """Capped cylinder along local +z, base disc at z=0, top at z=length."""

    def __init__(self, radius: float, length: float):
        if radius <= 0 or length <= 0:
            raise ValueError("radius and length must be positive")
        self.radius = float(radius)
        self.length = float(length)

    def ray_intersect(self, origins, dirs) -> RayHits:
        o = np.atleast_2d(np.asarray(origins, dtype=np.float64))
        d = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
        n = len(o)
        best_t = np.full(n, np.inf)
        best_n = np.zeros((n, 3))

        # lateral surface: x^2 + y^2 = r^2
        a = d[:, 0] ** 2 + d[:, 1] ** 2
        b = 2.0 * (o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1])
        c = o[:, 0] ** 2 + o[:, 1] ** 2 - self.radius**2
        disc = b * b - 4.0 * a * c
        quad = (a > 1e-30) & (disc >= 0.0)
        sq = np.sqrt(np.where(quad, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            for sign in (-1.0, 1.0):
                t = np.where(quad, (-b + sign * sq) / (2.0 * a), np.inf)
                with np.errstate(invalid="ignore"):
                    z = o[:, 2] + t * d[:, 2]
                valid = quad & (t > _T_MIN) & (z >= 0.0) & (z <= self.length) & (t < best_t)
                pt = o + t[:, None] * d
                nrm = pt.copy()
                nrm[:, 2] = 0.0
                lens = np.linalg.norm(nrm, axis=1, keepdims=True)
                nrm = np.divide(nrm, np.where(lens > 0, lens, 1.0))
                best_t = np.where(valid, t, best_t)
                best_n = np.where(valid[:, None], nrm, best_n)

        # caps at z = 0 and z = length
        for z0, nz in ((0.0, -1.0), (self.length, 1.0)):
            dz = d[:, 2]
            movable = np.abs(dz) > 1e-30
            t = np.where(movable, (z0 - o[:, 2]) / np.where(movable, dz, 1.0), np.inf)
            with np.errstate(invalid="ignore"):
                pt = o + t[:, None] * d
            inside = pt[:, 0] ** 2 + pt[:, 1] ** 2 <= self.radius**2
            valid = movable & (t > _T_MIN) & inside & (t < best_t)
            best_t = np.where(valid, t, best_t)
            best_n = np.where(valid[:, None], np.array([0.0, 0.0, nz]), best_n)

        return RayHits(best_t, best_n, np.isfinite(best_t))


class Box:
    """Axis-aligned box centered at the local origin."""

    def __init__(self, half_extents):
        self.half_extents = np.asarray(half_extents, dtype=np.float64)
        if self.half_extents.shape != (3,) or np.any(self.half_extents <= 0):
            raise ValueError("half_extents must be 3 positive lengths")

    def ray_intersect(self, origins, dirs) -> RayHits:
        o = np.atleast_2d(np.asarray(origins, dtype=np.float64))
        d = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
        return _box_faces(o, d, self.half_extents)


class HolePlate:
    """Rectangular plate with an elliptical through-hole along local z.

    The plate spans |x| <= hx, |y| <= hy, |z| <= thickness/2; the hole is an
    elliptical cylinder with semi-axes (a, b) centered at `hole_center`
    (in-plane offset). The hole entry used as the insertion target is the
    ellipse center on the +z face.
    """

    def __init__(self, half_extents_xy, thickness: float, hole_semi_axes, hole_center=(0.0, 0.0)):
        self.hx, self.hy = (float(v) for v in half_extents_xy)
        self.half_thickness = float(thickness) / 2.0
        self.a, self.b = (float(v) for v in hole_semi_axes)
        self.cx, self.cy = (float(v) for v in hole_center)
        if min(self.hx, self.hy, self.half_thickness, self.a, self.b) <= 0:
            raise ValueError("plate dimensions must be positive")
        if self.a >= self.hx or self.b >= self.hy:
            raise ValueError("hole must fit inside the plate")

    @property
    def hole_entry_local(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.half_thickness])

    @property
    def hole_axis_local(self) -> np.ndarray:
        return np.array([0.0, 0.0, 1.0])

    def _in_hole(self, pt: np.ndarray) -> np.ndarray:
        u = (pt[:, 0] - self.cx) / self.a
        v = (pt[:, 1] - self.cy) / self.b
        return u * u + v * v < 1.0

    def ray_intersect(self, origins, dirs) -> RayHits:
        o = np.atleast_2d(np.asarray(origins, dtype=np.float64))
        d = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
        faces = _box_faces(o, d, np.array([self.hx, self.hy, self.half_thickness]),
                           open_z=self._in_hole)
        best_t, best_n = faces.t, faces.normals

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
                pt = o + t[:, None] * d
            valid = quad & (t > _T_MIN) & (np.abs(pt[:, 2]) <= self.half_thickness) & (t < best_t)
            # material normal points toward the hole axis
            grad = np.zeros_like(pt)
            with np.errstate(invalid="ignore"):
                grad[:, 0] = (pt[:, 0] - self.cx) / self.a**2
                grad[:, 1] = (pt[:, 1] - self.cy) / self.b**2
                lens = np.linalg.norm(grad, axis=1, keepdims=True)
                nrm = -np.divide(grad, np.where(lens > 0, lens, 1.0))
            nrm[~np.isfinite(nrm).all(axis=1)] = 0.0
            best_t = np.where(valid, t, best_t)
            best_n = np.where(valid[:, None], nrm, best_n)

        return RayHits(best_t, best_n, np.isfinite(best_t))


@dataclass(frozen=True)
class ScenePart:
    part_id: str
    surface: object
    pose: Pose


class SceneHits(NamedTuple):
    t: np.ndarray
    points: np.ndarray     # world frame
    normals: np.ndarray    # world frame, oriented against the ray
    part_index: np.ndarray  # -1 where miss
    hit: np.ndarray


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

    def index_of(self, part_id: str) -> int:
        for i, p in enumerate(self.parts):
            if p.part_id == part_id:
                return i
        raise KeyError(part_id)

    def cast(self, origins, dirs) -> SceneHits:
        origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
        dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
        n = len(origins)
        best_t = np.full(n, np.inf)
        best_n = np.zeros((n, 3))
        best_part = np.full(n, -1, dtype=np.int64)
        for i, part in enumerate(self.parts):
            R = part.pose.rotation_matrix()
            o_local = (origins - part.pose.position) @ R
            d_local = dirs @ R
            hits = part.surface.ray_intersect(o_local, d_local)
            closer = hits.hit & (hits.t < best_t)
            best_t = np.where(closer, hits.t, best_t)
            best_n = np.where(closer[:, None], hits.normals @ R.T, best_n)
            best_part = np.where(closer, i, best_part)
        hit = np.isfinite(best_t)
        points = origins + np.where(hit, best_t, 0.0)[:, None] * dirs
        # orient normals to face the incoming ray
        flip = np.einsum("ij,ij->i", best_n, dirs) > 0.0
        best_n = np.where(flip[:, None], -best_n, best_n)
        return SceneHits(best_t, points, best_n, best_part, hit)
