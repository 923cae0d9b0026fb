"""Pinhole camera model and projection primitives.

Conventions (these differ between tools, so they are spelled out):

* ``K`` is the 3x3 intrinsic matrix, upper triangular, focal lengths and
  principal point in pixels.
* ``E`` is the 4x4 extrinsic matrix mapping *world* coordinates to
  *camera* coordinates (the cam.txt convention of the MVS ecosystem).
* Pixel coordinates are pixel-corner referenced: integer coordinates
  index the grid directly, no half-pixel offset.
* Depth is the z component in the camera frame, not ray length.

All geometry runs in float64.
"""

from dataclasses import dataclass

import numpy as np

# Homogeneous w (or camera z) smaller than this is treated as
# "behind camera / at infinity" instead of dividing through.
W_EPS = 1e-12

__all__ = ["Camera", "Pixel", "W_EPS", "back_project", "project", "warp_transform", "pixel_grid"]


@dataclass(frozen=True)
class Pixel:
    """Continuous image position, x = column, y = row."""

    x: float
    y: float


@dataclass(frozen=True)
class Camera:
    """Pinhole camera: intrinsics, world-to-camera extrinsics, depth range metadata.

    depth_min and depth_interval describe the plane-sweep range attached to
    this view (scene units, e.g. mm for DTU-style scenes).
    """

    K: np.ndarray
    E: np.ndarray
    depth_min: float = 1.0
    depth_interval: float = 1.0

    def __post_init__(self):
        K = np.asarray(self.K, dtype=np.float64)
        E = np.asarray(self.E, dtype=np.float64)
        if K.shape != (3, 3):
            raise ValueError(f"K must be 3x3, got {K.shape}")
        if E.shape != (4, 4):
            raise ValueError(f"E must be 4x4, got {E.shape}")
        if not (np.isfinite(K).all() and np.isfinite(E).all()):
            raise ValueError("camera matrices must be finite")
        if abs(K[1, 0]) > 0 or abs(K[2, 0]) > 0 or abs(K[2, 1]) > 0:
            raise ValueError("K must be upper triangular")
        if K[0, 0] <= 0 or K[1, 1] <= 0:
            raise ValueError("focal entries of K must be strictly positive")
        if abs(K[2, 2] - 1.0) > 1e-12:
            raise ValueError("K[2][2] must be 1")
        if not self.depth_min > 0:
            raise ValueError("depth_min must be > 0")
        if not self.depth_interval > 0:
            raise ValueError("depth_interval must be > 0")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "E", E)

    def validate(self, rtol: float = 1e-9) -> None:
        """Check the rotation block is orthonormal with determinant +1.

        Kept out of construction so slightly sloppy camera files can still be
        parsed (the io layer downgrades failures here to warnings).
        """
        R = self.E[:3, :3]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing product fails, as NaN or inf
            err = np.abs(R.T @ R - np.eye(3)).max()
        if not err <= rtol:
            raise ValueError(f"rotation block not orthonormal (max |R^T R - I| = {err:.3e})")
        if np.linalg.det(R) < 0:
            raise ValueError("rotation block has negative determinant")

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates, -R^T t."""
        R = self.E[:3, :3]
        t = self.E[:3, 3]
        return -R.T @ t

    def projection(self) -> np.ndarray:
        """4x4 matrix taking homogeneous world points to (x*d, y*d, d, 1)."""
        P = np.eye(4)
        P[:3, :] = self.K @ self.E[:3, :]
        return P


def _inv(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular camera matrix") from exc


def back_project(pixel: Pixel, depth: float, cam: Camera) -> np.ndarray:
    """Lift a pixel at a given camera-frame depth to a world-space 3D point."""
    if not depth > 0:
        raise ValueError("depth must be > 0")
    ray = _inv(cam.K) @ np.array([pixel.x, pixel.y, 1.0])
    cam_pt = np.append(depth * ray, 1.0)
    world = _inv(cam.E) @ cam_pt
    return world[:3] / world[3]


def project(point: np.ndarray, cam: Camera) -> tuple[Pixel | None, float]:
    """Project a world point into the image; returns (pixel, camera-frame depth).

    depth <= 0 means the point lies behind the camera; the pixel is still
    returned and the caller decides how to treat it.  If |depth| is below
    W_EPS the homogeneous divide is degenerate and the pixel is None.
    """
    point = np.asarray(point, dtype=np.float64)
    cam_pt = cam.E @ np.append(point, 1.0)
    uvw = cam.K @ cam_pt[:3]
    depth = float(uvw[2])
    if abs(depth) < W_EPS:
        return None, depth
    return Pixel(float(uvw[0] / depth), float(uvw[1] / depth)), depth


def warp_transform(ref: Camera, src: Camera) -> np.ndarray:
    """Composite 4x4 mapping reference (x*d, y*d, d, 1) to source (x'*d', y'*d', d', 1).

    One matrix multiplication equals project(back_project(.)) applied
    pixel-wise; forward warping uses it on whole depth maps at once.  Both
    projections end in the row (0, 0, 0, 1), so the composite does too; it
    is set exactly, which lets the warp skip the homogeneous divide.
    """
    transform = src.projection() @ _inv(ref.projection())
    transform[3] = (0.0, 0.0, 0.0, 1.0)
    return transform


def pixel_grid(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Identity coordinate grid: xs[i, j] = j, ys[i, j] = i (float64)."""
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    return xs, ys
