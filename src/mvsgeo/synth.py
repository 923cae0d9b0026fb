"""Analytic synthetic scenes: exact depth maps, masks and cameras.

Geometry is limited to closed-form primitives (infinite planes, spheres,
and a two-plane occlusion setup with a bounded front patch) so rendered
depths carry no tessellation or sampling error.  These exact renders are
the ground truth substrate for the consistency, fusion and metric tests.
"""

import json
from dataclasses import dataclass

import numpy as np

from .camera import Camera, pixel_grid
from .reproject import DepthMap

__all__ = [
    "Plane",
    "Sphere",
    "BoundedPlane",
    "TwoPlanes",
    "SceneSpec",
    "look_at_camera",
    "render_depth",
    "surface_points",
    "make_scene",
    "PRESET_SCENES",
]

_HIT_EPS = 1e-9


@dataclass(frozen=True)
class Plane:
    """Infinite plane n . X = offset, normal pointing toward the cameras."""

    normal: tuple[float, float, float]
    offset: float


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float


@dataclass(frozen=True)
class BoundedPlane:
    """Rectangular patch on a plane, used as an occluder."""

    plane: Plane
    center: tuple[float, float, float]
    axis_u: tuple[float, float, float]
    axis_v: tuple[float, float, float]
    half_u: float
    half_v: float


@dataclass(frozen=True)
class TwoPlanes:
    """A full-frame back plane partially hidden by a bounded front patch."""

    back: Plane
    front: BoundedPlane


@dataclass(frozen=True)
class SceneSpec:
    geometry: object
    cameras: tuple[Camera, ...]
    resolution: tuple[int, int]  # (width, height)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "cameras", tuple(self.cameras))
        w, h = self.resolution
        if w < 1 or h < 1:
            raise ValueError("resolution must be positive")


def look_at_camera(K, eye, target, depth_min=1.0, depth_interval=1.0, down=(0.0, 1.0, 0.0)) -> Camera:
    """World-to-camera extrinsics for a camera at `eye` looking at `target`.

    `down` is the world direction that should map to image +y.
    """
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - eye
    forward = forward / np.linalg.norm(forward)
    right = np.cross(np.asarray(down, dtype=np.float64), forward)
    right = right / np.linalg.norm(right)
    down_axis = np.cross(forward, right)
    R = np.stack([right, down_axis, forward])
    E = np.eye(4)
    E[:3, :3] = R
    E[:3, 3] = -R @ eye
    return Camera(K=np.asarray(K, dtype=np.float64), E=E,
                  depth_min=depth_min, depth_interval=depth_interval)


# ---------------------------------------------------------------------------
# ray casting
# ---------------------------------------------------------------------------


def _camera_rays(cam: Camera, width: int, height: int):
    """Per-pixel world-space ray directions scaled so camera depth = t."""
    xs, ys = pixel_grid(height, width)
    pix = np.stack([xs, ys, np.ones_like(xs)], axis=0).reshape(3, -1)
    dirs = (cam.E[:3, :3].T @ np.linalg.inv(cam.K) @ pix).reshape(3, height, width)
    return cam.center, np.moveaxis(dirs, 0, -1)


def _plane_hit(plane: Plane, origin, dirs):
    n = np.asarray(plane.normal, dtype=np.float64)
    denom = dirs @ n
    safe = np.abs(denom) > _HIT_EPS
    t = np.where(safe, (plane.offset - origin @ n) / np.where(safe, denom, 1.0), np.inf)
    return np.where(safe & (t > _HIT_EPS), t, np.inf)


def _bounded_plane_hit(patch: BoundedPlane, origin, dirs):
    t = _plane_hit(patch.plane, origin, dirs)
    pts = origin + t[..., None] * dirs
    rel = pts - np.asarray(patch.center, dtype=np.float64)
    in_u = np.abs(rel @ np.asarray(patch.axis_u, dtype=np.float64)) <= patch.half_u
    in_v = np.abs(rel @ np.asarray(patch.axis_v, dtype=np.float64)) <= patch.half_v
    return np.where(np.isfinite(t) & in_u & in_v, t, np.inf)


def _sphere_hit(sphere: Sphere, origin, dirs):
    oc = origin - np.asarray(sphere.center, dtype=np.float64)
    a = (dirs * dirs).sum(axis=-1)
    b = 2.0 * (dirs @ oc)
    c = oc @ oc - sphere.radius**2
    disc = b * b - 4.0 * a * c
    hit = disc >= 0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t0 = (-b - sq) / (2.0 * a)
    t1 = (-b + sq) / (2.0 * a)
    t = np.where(t0 > _HIT_EPS, t0, t1)
    return np.where(hit & (t > _HIT_EPS), t, np.inf)


def _first_hit(geometry, origin, dirs):
    """Smallest positive ray parameter for each ray, np.inf when nothing is hit."""
    if isinstance(geometry, Plane):
        return _plane_hit(geometry, origin, dirs)
    if isinstance(geometry, Sphere):
        return _sphere_hit(geometry, origin, dirs)
    if isinstance(geometry, BoundedPlane):
        return _bounded_plane_hit(geometry, origin, dirs)
    if isinstance(geometry, TwoPlanes):
        return np.minimum(
            _plane_hit(geometry.back, origin, dirs),
            _bounded_plane_hit(geometry.front, origin, dirs),
        )
    raise TypeError(f"unknown geometry {type(geometry).__name__}")


def render_depth(spec: SceneSpec, view: int) -> tuple[DepthMap, np.ndarray]:
    """Exact depth map and hit mask for one camera of the scene."""
    width, height = spec.resolution
    cam = spec.cameras[view]
    origin, dirs = _camera_rays(cam, width, height)
    t = _first_hit(spec.geometry, origin, dirs)
    hit = np.isfinite(t)
    depth = DepthMap(np.where(hit, t, 0.0), hit)
    return depth, hit


def _depth_points(spec: SceneSpec, view: int, depth: np.ndarray) -> np.ndarray:
    """World point (H, W, 3) at camera depth `depth` on each pixel's ray (the origin where it is 0)."""
    width, height = spec.resolution
    origin, dirs = _camera_rays(spec.cameras[view], width, height)
    return origin + depth[..., None] * dirs


def surface_points(spec: SceneSpec, view: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact world-space surface point per pixel (H, W, 3) and the hit mask."""
    depth, hit = render_depth(spec, view)
    return _depth_points(spec, view, depth.values), hit


# ---------------------------------------------------------------------------
# preset scenes
# ---------------------------------------------------------------------------


def _default_intrinsics(width: int, height: int, focal_factor: float = 2.5) -> np.ndarray:
    f = focal_factor * max(width, height)
    return np.array([[f, 0.0, (width - 1) / 2.0], [0.0, f, (height - 1) / 2.0], [0.0, 0.0, 1.0]])


def _ring_cameras(width, height, n_views, rng, depth_min, depth_interval,
                  spread=22.0, focal_factor=2.5, target_z=650.0):
    """Reference camera at the origin looking +z, sources jittered around it."""
    K = _default_intrinsics(width, height, focal_factor)
    target = np.array([0.0, 0.0, target_z])
    cams = [look_at_camera(K, (0.0, 0.0, 0.0), target, depth_min, depth_interval)]
    for i in range(1, n_views):
        angle = 2.0 * np.pi * (i - 1) / max(n_views - 1, 1) + rng.uniform(-0.2, 0.2)
        radius = spread * (0.6 + 0.4 * rng.random())
        eye = np.array([radius * np.cos(angle), radius * np.sin(angle), rng.uniform(-6.0, 6.0)])
        cams.append(look_at_camera(K, eye, target, depth_min, depth_interval))
    return cams


def make_scene(kind: str, width: int = 160, height: int = 128, n_views: int = 5, seed: int = 0) -> SceneSpec:
    """Build one of the preset scenes.

    Kinds: "plane" (fronto-parallel), "tilted-plane", "sphere" (framed as
    an interior cap so the silhouette stays outside every view),
    "two-planes" (bounded occluder in front of a full-frame back plane),
    "two-planes-offset" (occluder shifted off-center).
    """
    rng = np.random.default_rng(seed)
    depth_min, depth_interval = 425.0, 2.5
    # The sphere uses a long focal: per-pixel surface curvature shrinks
    # with focal length squared, keeping bilinear resampling exact to
    # well below the consistency thresholds.  Two-plane scenes widen the
    # camera ring so the occlusion band spans several pixels.
    focal_factor = 7.5 if kind == "sphere" else 2.5
    spread = 45.0 if kind.startswith("two-planes") else 22.0
    cams = _ring_cameras(width, height, n_views, rng, depth_min, depth_interval,
                         spread=spread, focal_factor=focal_factor)
    if kind == "plane":
        geometry = Plane((0.0, 0.0, -1.0), -600.0)
    elif kind == "tilted-plane":
        n = np.array([0.17, -0.23, -1.0])
        n /= np.linalg.norm(n)
        geometry = Plane(tuple(n), float(n @ np.array([0.0, 0.0, 640.0])))
    elif kind == "sphere":
        geometry = Sphere((8.0, -5.0, 700.0), 260.0)
    elif kind in ("two-planes", "two-planes-offset"):
        back = Plane((0.0, 0.0, -1.0), -760.0)
        shift = 55.0 if kind == "two-planes-offset" else 0.0
        front = BoundedPlane(
            plane=Plane((0.0, 0.0, -1.0), -560.0),
            center=(shift, -10.0, 560.0),
            axis_u=(1.0, 0.0, 0.0),
            axis_v=(0.0, 1.0, 0.0),
            half_u=95.0,
            half_v=75.0,
        )
        geometry = TwoPlanes(back, front)
    else:
        raise ValueError(f"unknown scene kind {kind!r}")
    return SceneSpec(geometry=geometry, cameras=tuple(cams), resolution=(width, height), seed=seed)


PRESET_SCENES = ("plane", "tilted-plane", "sphere", "two-planes", "two-planes-offset")


def scene_to_json(spec: SceneSpec, kind: str = "") -> str:
    """Serialized generation record written next to emitted scene files."""
    record = {
        "kind": kind,
        "resolution": list(spec.resolution),
        "n_views": len(spec.cameras),
        "seed": spec.seed,
        "geometry": type(spec.geometry).__name__,
    }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"
