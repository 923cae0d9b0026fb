"""Forward-backward reprojection of depth maps between calibrated views.

The chain implemented here: warp each valid reference pixel into a source
view, sample the source depth map at the landing coordinates, then carry
that sampled depth back through the source camera and reproject it into
the reference view.  Comparing the result against the original reference
depth is the basis of every consistency check in this package.

Each step is a vectorized numpy pass over one band of rows at a time,
written into full-frame outputs, so its float64 temporaries (256 KB per
band of _BAND_PIXELS) stay in a 2 MB L2 cache instead of streaming whole
frames through memory.  An output pixel depends only on its own input
pixel and the whole source map, so the band size never changes a bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .camera import Camera, W_EPS, pixel_grid, warp_transform

__all__ = ["DepthMap", "CoordinateGrid", "forward_project", "remap", "back_reproject", "fbr"]

# Pixels per row band; the band is max(1, _BAND_PIXELS // W) rows.
_BAND_PIXELS = 32768

# Bounds guard of remap: warping a view onto itself lands border pixels at
# W-1 plus float dust, which must not invalidate them.
_EDGE_EPS = 1e-9


@dataclass
class DepthMap:
    """H x W depth grid (scene units) with a validity mask.

    Invalid pixels hold 0 and are ignored by all consumers.
    """

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        if values.ndim != 2:
            raise ValueError(f"depth values must be 2-D, got shape {values.shape}")
        if valid.shape != values.shape:
            raise ValueError(
                f"dimension mismatch between depth map {values.shape} and mask {valid.shape}"
            )
        checked = values[valid]
        # Two passes, not one combined mask: no extra temporaries at load time.
        if not (np.all(checked > 0) and np.all(checked < np.inf)):
            raise ValueError("valid depth values must be finite and > 0")
        self.values = np.where(valid, values, 0.0)
        self.valid = valid

    @classmethod
    def from_values(cls, values: np.ndarray) -> "DepthMap":
        """Build a map whose validity is finite depth > 0."""
        values = np.asarray(values, dtype=np.float64)
        return cls(values, np.isfinite(values) & (values > 0))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass
class CoordinateGrid:
    """Continuous per-pixel (x, y) coordinates, e.g. projection landing points."""

    x: np.ndarray
    y: np.ndarray
    valid: np.ndarray = field(default=None)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 2:
            raise ValueError("coordinate grids must be 2-D and same shape")
        valid = self.valid
        if valid is None:
            valid = np.ones(x.shape, dtype=bool)
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != x.shape:
            raise ValueError("coordinate validity mask shape mismatch")
        self.x = np.where(valid, x, 0.0)
        self.y = np.where(valid, y, 0.0)
        self.valid = valid

    @property
    def shape(self) -> tuple[int, int]:
        return self.x.shape

    @classmethod
    def identity(cls, height: int, width: int) -> "CoordinateGrid":
        xs, ys = pixel_grid(height, width)
        return cls(xs, ys)


def _apply_warp(transform: np.ndarray, xs, ys, depth, valid):
    """Apply a pixel-depth warp to (x, y, d) grids.

    `transform` comes from warp_transform, whose last row is exactly
    (0, 0, 0, 1): the homogeneous coordinate is 1 and needs no divide.
    Returns the warped (x', y', d') and a validity mask; pixels landing
    behind the camera (d' below W_EPS) are invalidated.
    """
    u = transform[0, 0] * xs * depth + transform[0, 1] * ys * depth + transform[0, 2] * depth + transform[0, 3]
    v = transform[1, 0] * xs * depth + transform[1, 1] * ys * depth + transform[1, 2] * depth + transform[1, 3]
    d = transform[2, 0] * xs * depth + transform[2, 1] * ys * depth + transform[2, 2] * depth + transform[2, 3]
    ok = valid & (d > W_EPS)
    ds = np.where(ok, d, 1.0)
    return np.where(ok, u / ds, 0.0), np.where(ok, v / ds, 0.0), np.where(ok, d, 0.0), ok


def _wrap(cls, **fields):
    """A result DepthMap/CoordinateGrid whose arrays already hold its invariants: no copy, no check."""
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    return obj


_WARP = (np.float64, np.float64, np.float64, bool)  # x, y, depth, validity


def _fill_bands(outs, band):
    """Fill the same-shaped full-frame arrays `outs` band by band from the outputs of band(rows)."""
    h, w = outs[0].shape
    step = max(1, _BAND_PIXELS // max(w, 1))
    for start in range(0, h, step):
        rows = slice(start, min(start + step, h))
        for out, part in zip(outs, band(rows)):
            out[rows] = part
    return outs


def _banded(shape, dtypes, band):
    """Full-frame arrays of `dtypes` filled band by band from the outputs of band(rows)."""
    return _fill_bands(tuple(np.empty(shape, dtype=dtype) for dtype in dtypes), band)


def _forward(transform, d_ref: DepthMap, rows: slice):
    """Forward warp of reference rows `rows` (the pixel grid broadcast per band)."""
    depth = d_ref.values[rows]
    xs = np.arange(depth.shape[1], dtype=np.float64)
    ys = np.arange(rows.start, rows.stop, dtype=np.float64)[:, None]
    return _apply_warp(transform, xs, ys, depth, d_ref.valid[rows])


def _sample(src_map: DepthMap, xs, ys, coords_valid):
    """Bilinear samples of src_map at (xs, ys) and their validity (see remap)."""
    values, valid = src_map.values.ravel(), src_map.valid.ravel()
    hs, ws = src_map.shape
    in_bounds = (
        coords_valid
        & (xs >= -_EDGE_EPS)
        & (xs <= ws - 1 + _EDGE_EPS)
        & (ys >= -_EDGE_EPS)
        & (ys <= hs - 1 + _EDGE_EPS)
    )
    xc = np.clip(np.where(in_bounds, xs, 0.0), 0.0, ws - 1)
    yc = np.clip(np.where(in_bounds, ys, 0.0), 0.0, hs - 1)
    x0 = np.clip(np.floor(xc).astype(np.int64), 0, max(ws - 2, 0))
    y0 = np.clip(np.floor(yc).astype(np.int64), 0, max(hs - 2, 0))
    # Flat indices of the four corners; a 1-pixel-wide (tall) map has a
    # single column (row), so its right (lower) corner is the left (upper).
    i00 = y0 * ws + x0
    i01 = i00 + (1 if ws > 1 else 0)
    i10 = i00 + (ws if hs > 1 else 0)
    i11 = i10 + (i01 - i00)
    ok = in_bounds & valid[i00] & valid[i01] & valid[i10] & valid[i11]
    fx = xc - x0
    fy = yc - y0
    top = values[i00] * (1.0 - fx) + values[i01] * fx
    bot = values[i10] * (1.0 - fx) + values[i11] * fx
    return np.where(ok, top * (1.0 - fy) + bot * fy, 0.0), ok


def _fbr_band(forward, back, d_ref: DepthMap, d_src: DepthMap, rows: slice):
    """Forward-backward reprojection of reference rows `rows`.

    Returns the forward landing (x, y, valid) in the source view and the
    back warp (x, y, depth, valid) in the reference view.
    """
    x, y, _, landed = _forward(forward, d_ref, rows)
    return (x, y, landed), _apply_warp(back, x, y, *_sample(d_src, x, y, landed))


def forward_project(d_ref: DepthMap, ref: Camera, src: Camera) -> tuple[CoordinateGrid, DepthMap]:
    """Warp a reference depth map into a source view.

    Returns the per-pixel landing coordinates in the source image and the
    depth of each warped point in the source camera frame.  Pixels that
    are invalid in the input or land behind the source camera come back
    invalid.
    """
    transform = warp_transform(ref, src)
    x2, y2, d2, ok = _banded(d_ref.shape, _WARP, lambda rows: _forward(transform, d_ref, rows))
    return _wrap(CoordinateGrid, x=x2, y=y2, valid=ok), _wrap(DepthMap, values=d2, valid=ok)


def remap(src_map: DepthMap, coords: CoordinateGrid) -> DepthMap:
    """Bilinearly sample a source depth map at continuous coordinates.

    A sample is invalid when its coordinates are invalid, fall outside
    [0, W-1] x [0, H-1], or any of the four bilinear neighbors is invalid
    in the source map.  Out-of-bounds samples are dropped, not clamped:
    clamping would fabricate depths at image borders.  The cell index is
    clamped to W-2/H-2 so the exact border coordinate W-1 (H-1) falls in
    the last cell with fractional weight 1.
    """
    out, ok = _banded(coords.shape, (np.float64, bool),
                      lambda rows: _sample(src_map, coords.x[rows], coords.y[rows], coords.valid[rows]))
    return _wrap(DepthMap, values=out, valid=ok)


def back_reproject(
    coords: CoordinateGrid, d_src: DepthMap, src: Camera, ref: Camera
) -> tuple[DepthMap, CoordinateGrid]:
    """Back half of the forward-backward reprojection.

    Samples the source depth map at `coords` (the landing coordinates
    forward_project returned for ref -> src), back-projects the sampled
    depths through the source camera and reprojects them into the
    reference view.  Returns the reprojected depth map (values in the
    reference camera frame) and the reprojected pixel coordinates.
    Invalid coordinates, failed samples and points behind the reference
    camera come back invalid.
    """
    back = warp_transform(src, ref)

    def band(rows):
        xs, ys = coords.x[rows], coords.y[rows]
        return _apply_warp(back, xs, ys, *_sample(d_src, xs, ys, coords.valid[rows]))

    x2, y2, d2, ok = _banded(coords.shape, _WARP, band)
    return _wrap(DepthMap, values=d2, valid=ok), _wrap(CoordinateGrid, x=x2, y=y2, valid=ok)


def fbr(d_ref: DepthMap, ref: Camera, d_src_gt: DepthMap, src: Camera) -> tuple[DepthMap, CoordinateGrid]:
    """Forward-backward reprojection of a reference depth map via one source view.

    Three steps: forward-warp the reference depths into the source view,
    sample the source depth map at the landing coordinates, then
    back-project the sampled depths through the source camera and
    reproject into the reference view (forward_project, then
    back_reproject, run band by band).  Returns the reprojected depth map
    (values in the reference camera frame) and the reprojected pixel
    coordinates.  Invalidity propagates through every step.
    """
    forward, back = warp_transform(ref, src), warp_transform(src, ref)

    x2, y2, d2, ok = _banded(d_ref.shape, _WARP, lambda rows: _fbr_band(forward, back, d_ref, d_src_gt, rows)[1])
    return _wrap(DepthMap, values=d2, valid=ok), _wrap(CoordinateGrid, x=x2, y=y2, valid=ok)
