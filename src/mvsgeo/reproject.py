"""Forward-backward reprojection of depth maps between calibrated views.

The chain implemented here: warp each valid reference pixel into a source
view, sample the source depth map at the landing coordinates, then carry
that sampled depth back through the source camera and reproject it into
the reference view.  Comparing the result against the original reference
depth is the basis of every consistency check in this package.

Each step is a vectorized numpy pass over one band of rows at a time,
and there is one walker and one chain.  _bands(shape, floats, bools) is
the package's only row-band loop: it yields each band's rows with
band-sized float64 and bool buffers (256 KB per float64 buffer at
_BAND_PIXELS), allocated once per call and reused by every band.
_chain(d_ref, ref, d_src, src, back_out) is the only composition of the
forward-backward reprojection: per pair it builds both warp transforms
and the source's corner-validity map once, then per band writes the
forward warp, the sample and the back warp through ufunc `out=`
arguments into the band buffers and, where the caller passes full-frame
outputs, straight into their row slices.  fbr walks _chain, and
_checks(d_ref, ref, d_src, src, dres) is the one pair-check walk: it
walks _chain and applies _pair_errors to each band, for the penalty's
votes (penalty._stage_counts) and fusion's pass bits (fusion._fill_pair).
forward_project, remap, inconsistency_mask and the loss walk _bands.  The
chain's own buffers are allocated once per pair, so the working set
stays in L2 and no band pays for fresh pages or heap trimming.  The
forward warp's broadcast multiplies of the pixel grid still use numpy's
own iteration buffer (at most 8192 elements), and each scaled grid vector
is a row- or column-sized array of its own (see _scaled).

The views that _bands, _chain and _checks yield are overwritten by the
next band and must not outlive their pair: a view still bound when the
next pair starts (a loop variable, say) keeps that pair's buffers alive
while the next pair allocates its own, and measured so, `fuse` peaked
about 2 MB higher.

The sampler reads one corner-validity map per source map and call: a
flat bool per pixel telling whether the bilinear cell with that upper-left
pixel has four valid corners (about 50 us at 640 x 512).  One gather from
it replaces four validity gathers, and each corner value is one
np.take from the flat depths at the corner's offset (right +1, lower +W).

Neither the band size nor the buffer reuse changes a bit: an output pixel
depends only on its own input pixel and the whole source map, each
ufunc is elementwise, and every pixel is computed by the same operations
in the same order as with fresh arrays (the pair's shared terms, such as
the pixel grid, are broadcast, not accumulated across bands).  Results
outside a mask are written after the arithmetic (np.copyto with
where=~ok), so the values a scratch buffer held before never leak.

_pair_errors is the one pair check (penalty, fusion, `warp`): displacement
sqrt(dx**2 + dy**2) and relative depth difference, inf where `ok` is false
(invalid reference pixel, behind a camera, off the source, invalid corner).

_in_order is the only reference-view loop (`gc-penalty`, `fuse`): at most
threads + 1 references' arrays are alive, and output order does not
depend on threads.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .camera import Camera, W_EPS, warp_transform

__all__ = ["DepthMap", "CoordinateGrid", "forward_project", "remap", "fbr"]

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
        """Build a map whose validity is finite depth > 0.

        The mask it builds is the constructor's condition, so the map is
        made once, without the constructor's re-check and second copy.
        The caller's array is never written.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"depth values must be 2-D, got shape {values.shape}")
        valid = np.isfinite(values)
        valid &= values > 0
        return _wrap(cls, values=np.where(valid, values, 0.0), valid=valid)

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


def _scaled(a, s, buf):
    """s * a: into buf when a fills it, else (a pixel-grid vector that broadcasts) as a small new array.

    A product that reads the result may then write all of buf without
    overlapping its own input, which would make numpy copy that input at
    the broadcast (band) size first.
    """
    return np.multiply(a, s, out=buf) if a.shape == buf.shape else a * s


def _warp_row(t, xs, ys, depth, acc, tmp):
    """acc = ((t[0]*x)*d + (t[1]*y)*d) + t[2]*d + t[3], evaluated in this order."""
    np.multiply(_scaled(xs, t[0], tmp), depth, out=acc)
    np.multiply(_scaled(ys, t[1], tmp), depth, out=tmp)
    acc += tmp
    np.multiply(depth, t[2], out=tmp)
    acc += tmp
    acc += t[3]


def _apply_warp(transform: np.ndarray, xs, ys, depth, valid, out, tmp, failed):
    """Apply a pixel-depth warp to (x, y, d) grids, writing (x', y', d', ok) into `out`.

    `transform` comes from warp_transform, whose last row is exactly
    (0, 0, 0, 1): the homogeneous coordinate is 1 and needs no divide.
    Pixels landing behind the camera (d' not above W_EPS) come back
    invalid, as 0.  tmp (float64) and failed (bool) are band-sized
    scratch; failed is left holding ~ok.
    """
    x2, y2, d2, ok = out
    _warp_row(transform[2], xs, ys, depth, d2, tmp)
    np.greater(d2, W_EPS, out=ok)
    ok &= valid
    np.logical_not(ok, out=failed)
    for t, acc in ((transform[0], x2), (transform[1], y2)):
        _warp_row(t, xs, ys, depth, acc, tmp)
        np.divide(acc, d2, out=acc, where=ok)
        np.copyto(acc, 0.0, where=failed)
    np.copyto(d2, 0.0, where=failed)


def _wrap(cls, **fields):
    """A result DepthMap/CoordinateGrid whose arrays already hold its invariants: no copy, no check."""
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    return obj


_WARP = (np.float64, np.float64, np.float64, bool)  # x, y, depth, validity


def _bands(shape, floats=0, bools=0):
    """Row bands of max(1, _BAND_PIXELS // W) rows covering an H x W frame, with reused scratch.

    Yields (rows, f, b): the band's row slice and lists of `floats`
    float64 and `bools` bool buffers cut to its rows (contiguous).  The
    buffers are allocated once per call and every band reuses them.  One
    array per buffer, not one block for all: measured on `fuse --threads
    2` over 320 x 256 x 8 views, one block per pair peaked 3-5 MB higher.
    """
    h, w = shape
    step = max(1, _BAND_PIXELS // max(w, 1))
    n = min(h, step)
    f_all = [np.empty((n, w)) for _ in range(floats)]
    b_all = [np.empty((n, w), dtype=bool) for _ in range(bools)]
    for start in range(0, h, step):
        rows = slice(start, min(start + step, h))
        k = rows.stop - start
        yield rows, [a[:k] for a in f_all], [a[:k] for a in b_all]


def _in_order(produce, consume, items, threads):
    """consume(produce(*item)) for every item, in order, on the calling thread.

    With threads > 1, `threads` pool workers produce at most `threads`
    items ahead.  Items are drawn on the calling thread, the one that frees
    them.  No item or result stays bound while the next is drawn or
    awaited: it would keep its arrays alive beside the next one's.
    """
    items = iter(items)
    if threads <= 1:
        for item in items:
            consume(produce(*item))
            del item
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = deque(pool.submit(produce, *item) for item in islice(items, threads))
        while ahead:
            result = ahead.popleft().result()
            ahead.extend(pool.submit(produce, *item) for item in islice(items, 1))
            consume(result)
            del result


def _forward(transform, d_ref: DepthMap, rows: slice, out, tmp, failed):
    """Forward warp of reference rows `rows` into `out` (the pixel grid broadcast per band)."""
    depth = d_ref.values[rows]
    xs = np.arange(depth.shape[1], dtype=np.float64)
    ys = np.arange(rows.start, rows.stop, dtype=np.float64)[:, None]
    _apply_warp(transform, xs, ys, depth, d_ref.valid[rows], out, tmp, failed)


def _corners(src_map: DepthMap):
    """Flat offsets of a bilinear cell's right and lower corners, and its corner-validity map.

    A 1-pixel-wide (tall) map has a single column (row), so its right
    (lower) corner is the left (upper) one.  cells[i] tells whether all
    four corners of the cell whose upper-left pixel has flat index i are
    valid; only indices of cells inside the map are ever read.
    """
    hs, ws = src_map.shape
    dx, dy = (1 if ws > 1 else 0), (ws if hs > 1 else 0)
    valid = src_map.valid.ravel()
    pairs = valid.copy()
    pairs[: valid.size - dx] &= valid[dx:]
    cells = pairs.copy()
    cells[: valid.size - dy] &= pairs[dy:]
    return dx, dy, cells


def _sample(src_map: DepthMap, corners, xs, ys, coords_valid, out, tmp, failed):
    """Bilinear samples of src_map at (xs, ys), written with their validity into out = (values, ok).

    See remap for the contract; corners is _corners(src_map).  tmp holds
    seven float64 buffers, the last one read as int64 cell indices (same
    8 bytes), and failed one bool buffer, all band-sized; failed is left
    holding ~ok.
    """
    res, ok = out
    xc, yc, gx, gy, lower, corner, cell = tmp
    idx = cell.view(np.int64)
    dx, dy, cells = corners
    values = src_map.values.ravel()
    hs, ws = src_map.shape
    np.greater_equal(xs, -_EDGE_EPS, out=ok)
    ok &= coords_valid
    ok &= np.less_equal(xs, ws - 1 + _EDGE_EPS, out=failed)
    ok &= np.greater_equal(ys, -_EDGE_EPS, out=failed)
    ok &= np.less_equal(ys, hs - 1 + _EDGE_EPS, out=failed)
    np.logical_not(ok, out=failed)
    # Out-of-bounds queries read cell 0; their samples are dropped below.
    np.copyto(np.clip(xs, 0.0, ws - 1, out=xc), 0.0, where=failed)
    np.copyto(np.clip(ys, 0.0, hs - 1, out=yc), 0.0, where=failed)
    # The cell's upper-left pixel (x0, y0), clamped so that W-1 (H-1)
    # falls in the last cell with fractional weight 1.
    np.minimum(np.floor(xc, out=gx), max(ws - 2, 0), out=gx)
    np.minimum(np.floor(yc, out=gy), max(hs - 2, 0), out=gy)
    np.subtract(xc, gx, out=xc)  # fx
    np.subtract(yc, gy, out=yc)  # fy
    gy *= ws
    gy += gx
    np.copyto(idx, gy, casting="unsafe")  # y0 * W + x0, exact in float64
    np.subtract(1.0, xc, out=gx)
    np.subtract(1.0, yc, out=gy)
    ok &= np.take(cells, idx, out=failed, mode="clip")
    # top = v00*(1-fx) + v01*fx, lower = v10*(1-fx) + v11*fx, then
    # top*(1-fy) + lower*fy; each corner is one gather at its offset.
    top = np.take(values, idx, out=res, mode="clip")
    top *= gx
    np.take(values[dx:], idx, out=corner, mode="clip")
    corner *= xc
    top += corner
    np.take(values[dy:], idx, out=lower, mode="clip")
    lower *= gx
    np.take(values[dx + dy:], idx, out=corner, mode="clip")
    corner *= xc
    lower += corner
    top *= gy
    lower *= yc
    top += lower
    np.logical_not(ok, out=failed)
    np.copyto(res, 0.0, where=failed)


def _pair_errors(d_ref: DepthMap, rows: slice, x_back, y_back, d_back, failed, out):
    """PDE (px) and RDD of reference rows `rows` reprojected to (x_back, y_back, d_back).

    Written into out = (pde, rdd) and returned; inf where `failed` (the
    reprojection is not ok).  out may be (x_back, y_back) themselves:
    each is read before it is written (fusion reuses them so).
    """
    pde, rdd = out
    xs = np.arange(d_ref.width, dtype=np.float64)
    ys = np.arange(rows.start, rows.stop, dtype=np.float64)[:, None]
    np.square(np.subtract(x_back, xs, out=pde), out=pde)
    pde += np.square(np.subtract(y_back, ys, out=rdd), out=rdd)
    np.sqrt(pde, out=pde)
    depth = d_ref.values[rows]
    np.abs(np.subtract(d_back, depth, out=rdd), out=rdd)
    np.divide(rdd, depth, out=rdd, where=d_ref.valid[rows])  # the denominator is 1 elsewhere
    np.copyto(pde, np.inf, where=failed)
    np.copyto(rdd, np.inf, where=failed)
    return pde, rdd


def _chain(d_ref: DepthMap, ref: Camera, d_src: DepthMap, src: Camera, back_out):
    """Forward-backward reprojection of one pair, walked band by band.

    Per pair both warp transforms and the source's corner-validity map are
    built once.  Per band it yields (rows, (x, y, landed), back, failed):
    the forward landing in the source view, the back warp back = (x, y,
    depth, ok) in the reference view and failed = ~ok.  back_out holds
    four full-frame arrays or None each; the back warp is written into the
    given arrays' row slices and into band scratch elsewhere.  Every
    yielded array that is not a given output is band scratch, overwritten
    by the next band and dead once the pair is walked.
    """
    forward, back = warp_transform(ref, src), warp_transform(src, ref)
    corners = _corners(d_src)
    for rows, f, b in _bands(d_ref.shape, 10, 4):
        x, y, s = f[:3]  # s: the forward depth, then the sample
        landed, sampled, failed = b[:3]
        _forward(forward, d_ref, rows, (x, y, s, landed), f[3], failed)
        _sample(d_src, corners, x, y, landed, (s, sampled), f[3:], failed)
        # f[4:7] and b[3] are free once the sample is done.
        out = tuple(spare if a is None else a[rows] for a, spare in zip(back_out, (*f[4:7], b[3])))
        _apply_warp(back, x, y, s, sampled, out, f[3], failed)
        yield rows, (x, y, landed), out, failed


def _checks(d_ref: DepthMap, ref: Camera, d_src: DepthMap, src: Camera, dres=None):
    """The pair check of one pair, walked band by band: _chain, then _pair_errors per band.

    Per band it yields (rows, (x, y, landed), pde, rdd, failed, spare):
    the forward landing in the source view, PDE and RDD (inf where
    failed), failed = ~ok of the back warp, and spare, a bool band buffer
    (the back warp's ok) free for the caller.  PDE and RDD are written
    over the back warp's x and y, band scratch dead once read, so no band
    array is added.  The back warp's depth goes into dres[rows] when dres
    (full frame) is given.  Every yielded array is band scratch,
    overwritten by the next band.
    """
    for rows, landing, back, failed in _chain(d_ref, ref, d_src, src, (None, None, dres, None)):
        pde, rdd = _pair_errors(d_ref, rows, *back[:3], failed, back[:2])
        yield rows, landing, pde, rdd, failed, back[3]


def forward_project(d_ref: DepthMap, ref: Camera, src: Camera) -> tuple[CoordinateGrid, DepthMap]:
    """Warp a reference depth map into a source view.

    Returns the per-pixel landing coordinates in the source image and the
    depth of each warped point in the source camera frame.  Pixels that
    are invalid in the input or land behind the source camera come back
    invalid.
    """
    transform = warp_transform(ref, src)
    outs = x2, y2, d2, ok = tuple(np.empty(d_ref.shape, dtype=dtype) for dtype in _WARP)
    for rows, f, b in _bands(d_ref.shape, 1, 1):
        _forward(transform, d_ref, rows, tuple(a[rows] for a in outs), f[0], b[0])
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
    corners = _corners(src_map)
    values, ok = np.empty(coords.shape), np.empty(coords.shape, dtype=bool)
    for rows, f, b in _bands(coords.shape, 7, 1):
        _sample(src_map, corners, coords.x[rows], coords.y[rows], coords.valid[rows],
                (values[rows], ok[rows]), f, b[0])
    return _wrap(DepthMap, values=values, valid=ok)


def fbr(d_ref: DepthMap, ref: Camera, d_src_gt: DepthMap, src: Camera) -> tuple[DepthMap, CoordinateGrid]:
    """Forward-backward reprojection of a reference depth map via one source view.

    Three steps: forward-warp the reference depths into the source view,
    sample the source depth map at the landing coordinates, then
    back-project the sampled depths through the source camera and
    reproject into the reference view (_chain, run band by band).
    Returns the reprojected depth map (values in the reference camera
    frame) and the reprojected pixel coordinates.  Invalidity propagates
    through every step.
    """
    outs = x2, y2, d2, ok = tuple(np.empty(d_ref.shape, dtype=dtype) for dtype in _WARP)
    for _ in _chain(d_ref, ref, d_src_gt, src, outs):
        pass
    return _wrap(DepthMap, values=d2, valid=ok), _wrap(CoordinateGrid, x=x2, y=y2, valid=ok)
