import numpy as np
import pytest

from mvsgeo.camera import W_EPS, Camera, pixel_grid, warp_transform
from mvsgeo.reproject import DepthMap

from conftest import random_camera
from oracles import ld_back_project, ld_project


def identity_camera(f=800.0, cx=320.0, cy=240.0):
    K = np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])
    return Camera(K=K, E=np.eye(4))


# K = I and E = I: the warp into this camera is back-projection to world
# coordinates, the warp out of it is projection.
WORLD = Camera(K=np.eye(3), E=np.eye(4))


def back_project(x, y, depth, cam):
    vec = warp_transform(cam, WORLD) @ np.array([x * depth, y * depth, depth, 1.0])
    return vec[:3]


def project(point, cam):
    """(x, y, depth) of a world point; x and y are None at depth within W_EPS of 0."""
    u, v, depth, _ = warp_transform(WORLD, cam) @ np.append(point, 1.0)
    if abs(depth) <= W_EPS:
        return None, None, depth
    return u / depth, v / depth, depth


def test_principal_ray():
    cam = identity_camera()
    pt = back_project(320.0, 240.0, 600.0, cam)
    assert np.allclose(pt, [0.0, 0.0, 600.0], atol=1e-12)


def test_unit_slope_ray():
    cam = identity_camera(f=800.0)
    pt = back_project(320.0 + 800.0, 240.0, 600.0, cam)
    assert np.allclose(pt, [600.0, 0.0, 600.0], atol=1e-9)


def test_back_project_translated_extrinsics_frozen():
    # Expected values computed with the longdouble Gauss-Jordan oracle;
    # all inputs are dyadic so the result is exact.
    E = np.eye(4)
    E[:3, 3] = [30.0, -40.0, 100.0]
    cam = Camera(K=np.array([[800.0, 0.0, 320.0], [0.0, 800.0, 240.0], [0.0, 0.0, 1.0]]), E=E)
    pt = back_project(10.5, 20.25, 600.0, cam)
    assert pt == pytest.approx([-262.125, -124.8125, 500.0], abs=1e-9)
    oracle = ld_back_project(10.5, 20.25, 600.0, cam.K, cam.E)
    assert pt == pytest.approx([float(v) for v in oracle], abs=1e-9)


def test_project_principal_point():
    cam = identity_camera()
    x, y, depth = project(np.array([0.0, 0.0, 600.0]), cam)
    assert (x, y) == pytest.approx((320.0, 240.0), abs=1e-12)
    assert depth == pytest.approx(600.0)


def test_project_behind_camera_flagged():
    cam = identity_camera()
    x, y, depth = project(np.array([0.0, 0.0, -5.0]), cam)
    assert depth < 0
    assert x is not None and y is not None  # caller decides treatment


def test_project_degenerate_depth_returns_none():
    cam = identity_camera()
    x, y, depth = project(np.array([1.0, 1.0, 0.0]), cam)
    assert x is None and y is None
    assert abs(depth) < 1e-12


def test_round_trip_random_cameras(rng):
    for _ in range(25):
        cam = random_camera(rng)
        px, py = rng.uniform(0, 640), rng.uniform(0, 480)
        depth = rng.uniform(50, 2000)
        point = back_project(px, py, depth, cam)
        x2, y2, depth2 = project(point, cam)
        assert abs(depth2 - depth) / depth < 1e-6
        assert abs(x2 - px) <= 1e-6 * max(1.0, abs(px))
        assert abs(y2 - py) <= 1e-6 * max(1.0, abs(py))


def test_project_matches_extended_precision_oracle(rng):
    for _ in range(25):
        cam = random_camera(rng)
        point = cam.center + rng.normal(scale=200.0, size=3)
        x, y, depth = project(point, cam)
        if x is None or depth <= 0:
            continue
        ox, oy, od = ld_project(point, cam.K, cam.E)
        assert abs(x - ox) < 1e-9 * max(1.0, abs(ox))
        assert abs(y - oy) < 1e-9 * max(1.0, abs(oy))
        assert abs(depth - od) < 1e-9 * max(1.0, abs(od))


def test_warp_transform_identity():
    cam = identity_camera()
    T = warp_transform(cam, cam)
    xs, ys = pixel_grid(4, 5)
    for x, y, d in [(0.0, 0.0, 100.0), (4.0, 3.0, 425.5), (2.25, 1.5, 933.0)]:
        vec = T @ np.array([x * d, y * d, d, 1.0])
        assert np.allclose(vec, [x * d, y * d, d, 1.0], atol=1e-9 * d)


def test_warp_transform_stereo_disparity():
    f = 500.0
    cam_ref = identity_camera(f=f, cx=200.0, cy=150.0)
    E = np.eye(4)
    b = 12.0
    E[0, 3] = -b  # camera shifted +b along world x
    cam_src = Camera(K=cam_ref.K, E=E)
    d = 600.0
    T = warp_transform(cam_ref, cam_src)
    vec = T @ np.array([200.0 * d, 150.0 * d, d, 1.0])
    x_src = vec[0] / vec[2]
    assert x_src - 200.0 == pytest.approx(-f * b / d, rel=1e-12)
    assert vec[2] == pytest.approx(d, rel=1e-12)


def test_warp_transform_matches_primitive_composition(rng):
    # Two arbitrary cameras: the composite matrix must agree with the
    # extended-precision back-project and project chain per pixel.
    ref = random_camera(rng)
    src = random_camera(rng)
    T = warp_transform(ref, src)
    for _ in range(200):
        x, y = rng.uniform(0, 640), rng.uniform(0, 480)
        d = rng.uniform(100, 1500)
        px, py, depth = ld_project(ld_back_project(x, y, d, ref.K, ref.E), src.K, src.E)
        if depth <= 0:
            continue
        vec = T @ np.array([x * d, y * d, d, 1.0])
        vec = vec / vec[3]
        assert vec[2] == pytest.approx(depth, rel=1e-7)
        assert vec[0] / vec[2] == pytest.approx(px, abs=1e-7 * max(1.0, abs(px)))
        assert vec[1] / vec[2] == pytest.approx(py, abs=1e-7 * max(1.0, abs(py)))


def test_camera_invariants_on_random_cameras(rng):
    for _ in range(10):
        cam = random_camera(rng)
        cam.validate(rtol=1e-9)
        R = cam.E[:3, :3]
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-9
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


def test_camera_construction_rejects_bad_inputs():
    K = np.array([[500.0, 0.0, 100.0], [0.0, 500.0, 100.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        Camera(K=np.eye(2), E=np.eye(4))
    with pytest.raises(ValueError):
        Camera(K=K, E=np.eye(3))
    bad = K.copy()
    bad[1, 0] = 0.5
    with pytest.raises(ValueError, match="upper triangular"):
        Camera(K=bad, E=np.eye(4))
    neg = K.copy()
    neg[0, 0] = -1.0
    with pytest.raises(ValueError, match="positive"):
        Camera(K=neg, E=np.eye(4))
    with pytest.raises(ValueError, match="depth_min"):
        Camera(K=K, E=np.eye(4), depth_min=0.0)
    with pytest.raises(ValueError, match="depth_interval"):
        Camera(K=K, E=np.eye(4), depth_interval=-1.0)


def test_validate_flags_sloppy_rotation():
    K = np.array([[500.0, 0.0, 100.0], [0.0, 500.0, 100.0], [0.0, 0.0, 1.0]])
    E = np.eye(4)
    E[0, 1] = 1e-4
    cam = Camera(K=K, E=E)
    with pytest.raises(ValueError, match="orthonormal"):
        cam.validate(rtol=1e-9)
    cam.validate(rtol=1e-3)  # loose tolerance accepts it


def test_singular_extrinsics_error():
    K = np.array([[500.0, 0.0, 100.0], [0.0, 500.0, 100.0], [0.0, 0.0, 1.0]])
    E = np.zeros((4, 4))
    cam = Camera(K=K, E=E)
    with pytest.raises(ValueError, match="singular camera matrix"):
        warp_transform(cam, Camera(K=K, E=np.eye(4)))


def test_back_project_requires_positive_depth():
    # Depths reach the warp only through DepthMap, which refuses a valid
    # pixel at depth 0.
    with pytest.raises(ValueError, match="depth"):
        DepthMap(np.zeros((1, 1)), np.ones((1, 1), dtype=bool))
