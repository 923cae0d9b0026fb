import numpy as np
import pytest

from mvsgeo.camera import Camera


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)


def random_camera(rng, f_range=(300.0, 900.0)) -> Camera:
    """Random valid camera: positive focals, proper rotation, modest translation."""
    f = rng.uniform(*f_range)
    K = np.array([[f, 0.0, rng.uniform(100, 400)], [0.0, f * rng.uniform(0.9, 1.1), rng.uniform(80, 300)], [0.0, 0.0, 1.0]])
    # random rotation via QR of a Gaussian matrix
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    E = np.eye(4)
    E[:3, :3] = q.T
    E[:3, 3] = rng.normal(scale=50.0, size=3)
    return Camera(K=K, E=E, depth_min=rng.uniform(100, 400), depth_interval=rng.uniform(0.5, 5.0))


# Scenes (kind, width, height, views, seed) for the band-invariance tests:
# an odd-sized one and one wider than a band of the default size.
BAND_SCENES = [("two-planes-offset", 37, 23, 4, 2), ("tilted-plane", 32771, 5, 3, 1)]


def band_sizes(h, w):
    """Band sizes in pixels around the row width, down to one pixel and up to past the frame."""
    return (1, w - 1, w, w + 1, 3 * w - 2, h * w + 5)
