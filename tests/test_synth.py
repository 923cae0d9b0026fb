import numpy as np
import pytest

from mvsgeo import synth
from mvsgeo.camera import Camera, pixel_grid
from mvsgeo.reproject import fbr

from oracles import ld_inv
from truth import fixed_point_mask, render_components, render_occlusion_truth


def test_fronto_parallel_plane_constant_depth():
    K = np.array([[400.0, 0.0, 39.5], [0.0, 400.0, 31.5], [0.0, 0.0, 1.0]])
    cam = Camera(K=K, E=np.eye(4))
    spec = synth.SceneSpec(
        geometry=synth.Plane((0.0, 0.0, -1.0), -600.0),
        cameras=(cam,),
        resolution=(80, 64),
    )
    depth, mask = synth.render_depth(spec, 0)
    assert mask.all()
    assert np.abs(depth.values - 600.0).max() < 1e-9


def test_sphere_depth_minimal_at_principal_pixel():
    K = np.array([[300.0, 0.0, 40.0], [0.0, 300.0, 30.0], [0.0, 0.0, 1.0]])
    cam = Camera(K=K, E=np.eye(4))
    spec = synth.SceneSpec(
        geometry=synth.Sphere((0.0, 0.0, 700.0), 200.0),
        cameras=(cam,),
        resolution=(81, 61),
    )
    depth, mask = synth.render_depth(spec, 0)
    assert mask[30, 40]
    assert depth.values[30, 40] == pytest.approx(500.0, abs=1e-9)
    assert depth.values[mask].min() == depth.values[30, 40]
    # symmetry around the principal pixel
    assert depth.values[30, 41] == pytest.approx(depth.values[30, 39], abs=1e-9)
    assert depth.values[31, 40] == pytest.approx(depth.values[29, 40], abs=1e-9)


def test_tilted_plane_matches_closed_form_extended_precision():
    spec = synth.make_scene("tilted-plane", 32, 24, 1, seed=9)
    cam = spec.cameras[0]
    plane = spec.geometry
    depth, mask = synth.render_depth(spec, 0)
    n = np.asarray(plane.normal, dtype=np.longdouble)
    Kld = np.asarray(cam.K, dtype=np.longdouble)
    R = np.asarray(cam.E[:3, :3], dtype=np.longdouble)
    center = -R.T @ np.asarray(cam.E[:3, 3], dtype=np.longdouble)
    for i in (0, 7, 23):
        for j in (0, 13, 31):
            ray = R.T @ (ld_inv(Kld) @ np.array([j, i, 1.0], dtype=np.longdouble))
            t = (np.longdouble(plane.offset) - n @ center) / (n @ ray)
            assert mask[i, j]
            assert depth.values[i, j] == pytest.approx(float(t), rel=1e-12)


def test_occlusion_truth_same_view_empty():
    spec = synth.make_scene("two-planes", 60, 48, 3, seed=1)
    assert not render_occlusion_truth(spec, 0, 0).any()


def test_occlusion_truth_containment_construction():
    # A front patch big enough to cover the entire back-plane view from
    # the source camera: every back-plane reference pixel is occluded.
    K = np.array([[200.0, 0.0, 29.5], [0.0, 200.0, 19.5], [0.0, 0.0, 1.0]])
    ref = synth.look_at_camera(K, (200.0, 0.0, 0.0), (200.0, 0.0, 800.0))
    src = synth.look_at_camera(K, (0.0, 0.0, 0.0), (0.0, 0.0, 800.0))
    geometry = synth.TwoPlanes(
        back=synth.Plane((0.0, 0.0, -1.0), -800.0),
        front=synth.BoundedPlane(
            plane=synth.Plane((0.0, 0.0, -1.0), -400.0),
            center=(0.0, 0.0, 400.0),
            axis_u=(1.0, 0.0, 0.0),
            axis_v=(0.0, 1.0, 0.0),
            half_u=200.0,
            half_v=150.0,
        ),
    )
    spec = synth.SceneSpec(geometry=geometry, cameras=(ref, src), resolution=(60, 40))
    comp, hit = render_components(spec, 0)
    occluded = render_occlusion_truth(spec, 0, 1)
    back_pixels = hit & (comp == 0)
    assert back_pixels.sum() > 100
    assert occluded[back_pixels].all()
    assert not occluded[hit & (comp == 1)].any()  # front patch visible to src


def test_occlusion_truth_matches_supersampled_zbuffer():
    # Generic offset configuration against a 4x-resolution z-buffer
    # visibility oracle built in the source view.
    spec = synth.make_scene("two-planes-offset", 120, 96, 3, seed=4)
    src = 1
    factor = 4
    w, h = spec.resolution
    cam = spec.cameras[src]
    K_hi = cam.K.copy()
    K_hi[:2, :] *= factor
    hi_cam = Camera(K=K_hi, E=cam.E, depth_min=cam.depth_min, depth_interval=cam.depth_interval)
    hi_spec = synth.SceneSpec(geometry=spec.geometry, cameras=(hi_cam,), resolution=(w * factor, h * factor))
    zbuf, zmask = synth.render_depth(hi_spec, 0)

    pts, hit = synth.surface_points(spec, 0)
    proj = cam.K @ (cam.E[:3, :3] @ pts.reshape(-1, 3).T + cam.E[:3, 3:4])
    z = proj[2].reshape(h, w)
    x = (proj[0].reshape(h, w) / z) * factor
    y = (proj[1].reshape(h, w) / z) * factor
    xi = np.rint(x).astype(int)
    yi = np.rint(y).astype(int)
    inb = hit & (z > 0) & (xi >= 0) & (xi < w * factor) & (yi >= 0) & (yi < h * factor)
    occluded = render_occlusion_truth(spec, 0, src)

    # A visible point matches its z-buffer sample; an occluded point sits
    # well behind it (the plane gap is ~26% relative depth, so 1% splits
    # the classes cleanly away from sub-pixel straddle at edges).
    zb = zbuf.values[yi[inb], xi[inb]]
    rel = (z[inb] - zb) / z[inb]
    checkable = zmask[yi[inb], xi[inb]] & (rel > -0.01)
    zb_occluded = rel > 0.01
    agree = (zb_occluded == occluded[inb])[checkable]
    assert occluded.sum() > 200          # the scene really has occlusion
    assert checkable.sum() > 1000
    assert agree.mean() >= 0.99


def test_multi_view_consistency_fixed_point():
    spec = synth.make_scene("two-planes", 160, 128, 4, seed=8)
    maps = [synth.render_depth(spec, v)[0] for v in range(4)]
    xs, ys = pixel_grid(128, 160)
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            d_re, p_re = fbr(maps[a], spec.cameras[a], maps[b], spec.cameras[b])
            fp = fixed_point_mask(spec, a, b)
            sel = fp & d_re.valid
            assert sel.sum() > 500
            pde = np.hypot(p_re.x - xs, p_re.y - ys)[sel]
            rdd = (np.abs(d_re.values - maps[a].values) / maps[a].values)[sel]
            assert pde.max() < 1e-4
            assert rdd.max() < 1e-6


def test_determinism_same_seed():
    a = synth.make_scene("sphere", 40, 32, 4, seed=12)
    b = synth.make_scene("sphere", 40, 32, 4, seed=12)
    for v in range(4):
        da, _ = synth.render_depth(a, v)
        db, _ = synth.render_depth(b, v)
        assert np.array_equal(da.values, db.values)
        assert np.array_equal(a.cameras[v].E, b.cameras[v].E)


def test_camera_facing_away_all_invalid():
    K = np.array([[300.0, 0.0, 20.0], [0.0, 300.0, 20.0], [0.0, 0.0, 1.0]])
    cam = synth.look_at_camera(K, (0.0, 0.0, 0.0), (0.0, 0.0, -100.0))  # looking away
    spec = synth.SceneSpec(
        geometry=synth.Plane((0.0, 0.0, -1.0), -600.0), cameras=(cam,), resolution=(40, 40)
    )
    depth, mask = synth.render_depth(spec, 0)
    assert not mask.any()
    assert (depth.values == 0).all()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown scene kind"):
        synth.make_scene("torus", 10, 10, 2, seed=0)
