"""Analytic ground truth of the synthetic scenes, used only to check the package.

Occlusion, covisibility and bilinear-support masks come from ray casts
against the closed-form geometry of `mvsgeo.synth`, independent of the
reprojection code they gate.
"""

import numpy as np

from mvsgeo.camera import W_EPS, pixel_grid
from mvsgeo.reproject import CoordinateGrid
from mvsgeo.synth import (
    SceneSpec,
    TwoPlanes,
    _bounded_plane_hit,
    _camera_rays,
    _first_hit,
    _plane_hit,
    surface_points,
)


def identity_grid(height: int, width: int) -> CoordinateGrid:
    """Coordinates of every pixel at itself: x = column, y = row, all valid."""
    xs, ys = pixel_grid(height, width)
    return CoordinateGrid(xs, ys)


def render_occlusion_truth(spec: SceneSpec, ref: int, src: int) -> np.ndarray:
    """Per reference pixel: is its 3D point hidden behind geometry in the source view?

    Exact segment test from the source camera center to the point; the
    endpoint itself does not count as a blocker.  False at reference
    pixels that hit nothing.
    """
    pts, hit = surface_points(spec, ref)
    src_center = spec.cameras[src].center
    seg = pts - src_center
    t_first = _first_hit(spec.geometry, src_center, seg)
    occluded = hit & (t_first < 1.0 - 1e-7)
    return occluded


def _component_hits(geometry, origin, dirs):
    """Hit parameter and component id (closest first-hit component) per ray."""
    if isinstance(geometry, TwoPlanes):
        t_back = _plane_hit(geometry.back, origin, dirs)
        t_front = _bounded_plane_hit(geometry.front, origin, dirs)
        t = np.minimum(t_back, t_front)
        comp = np.where(t_front <= t_back, 1, 0)
        return t, comp
    t = _first_hit(geometry, origin, dirs)
    return t, np.zeros(t.shape, dtype=np.int64)


def render_components(spec: SceneSpec, view: int) -> tuple[np.ndarray, np.ndarray]:
    """Component id map (front patch = 1, everything else = 0) and hit mask."""
    width, height = spec.resolution
    origin, dirs = _camera_rays(spec.cameras[view], width, height)
    t, comp = _component_hits(spec.geometry, origin, dirs)
    hit = np.isfinite(t)
    return np.where(hit, comp, -1), hit


def fixed_point_mask(spec: SceneSpec, ref: int, src: int) -> np.ndarray:
    """Co-visible pixels whose source-view bilinear support is well posed.

    On top of covisibility this requires the four source lattice corners
    under the landing point to hit the same scene component as the
    reference pixel does; samples straddling an occlusion edge mix depths
    of two surfaces and cannot satisfy a reprojection fixed point.
    """
    width, height = spec.resolution
    pts, hit = surface_points(spec, ref)
    _, ref_comp = _component_hits(spec.geometry, spec.cameras[ref].center,
                                  pts - spec.cameras[ref].center)
    cam = spec.cameras[src]
    pix = cam.K @ (cam.E[:3, :3] @ pts.reshape(-1, 3).T + cam.E[:3, 3:4])
    z = pix[2].reshape(hit.shape)
    in_front = z > W_EPS
    zs = np.where(in_front, z, 1.0)
    x = pix[0].reshape(hit.shape) / zs
    y = pix[1].reshape(hit.shape) / zs
    in_bounds = (x >= 0) & (x <= width - 1) & (y >= 0) & (y <= height - 1)
    comp_src, hit_src = render_components(spec, src)
    x0 = np.clip(np.floor(np.where(in_bounds, x, 0.0)).astype(np.int64), 0, max(width - 2, 0))
    y0 = np.clip(np.floor(np.where(in_bounds, y, 0.0)).astype(np.int64), 0, max(height - 2, 0))
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    support = np.ones(hit.shape, dtype=bool)
    for yy, xx in ((y0, x0), (y0, x1), (y1, x0), (y1, x1)):
        support &= hit_src[yy, xx] & (comp_src[yy, xx] == ref_comp)
    return covisibility_mask(spec, ref, src) & in_bounds & support


def covisibility_mask(spec: SceneSpec, ref: int, src: int) -> np.ndarray:
    """Reference pixels whose 3D point is visible inside the source image.

    Requires a geometry hit, a landing in front of the source camera and
    inside [0, W-1] x [0, H-1], and no occluder on the segment.
    """
    width, height = spec.resolution
    pts, hit = surface_points(spec, ref)
    cam = spec.cameras[src]
    pix = cam.K @ (cam.E[:3, :3] @ pts.reshape(-1, 3).T + cam.E[:3, 3:4])
    z = pix[2].reshape(hit.shape)
    in_front = z > W_EPS
    zs = np.where(in_front, z, 1.0)
    x = pix[0].reshape(hit.shape) / zs
    y = pix[1].reshape(hit.shape) / zs
    in_bounds = (x >= 0) & (x <= width - 1) & (y >= 0) & (y <= height - 1)
    return hit & in_front & in_bounds & ~render_occlusion_truth(spec, ref, src)
