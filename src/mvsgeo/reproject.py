"""Forward-backward reprojection of depth maps between calibrated views.

The chain implemented here: warp each valid reference pixel into a source
view, sample the source depth map at the landing coordinates, then carry
that sampled depth back through the source camera and reproject it into
the reference view.  Comparing the result against the original reference
depth is the basis of every consistency check in this package.

Each step is a vectorized numpy pass over one band at a time, and there
is one walker and one pair walk.  _bands(shape, floats, bools, pixels)
is the package's only band loop.  It walks bands of two kinds.  Without
pixels a band is whole rows of the frame, and the pixel grid is its
column and row vectors, broadcast over the band: gc-penalty, fbr, `warp`
and the loss walk these.  With pixels, ascending flat indices of the
frame pixels to check, a band is a chunk of at most max(_BAND_PIXELS, W)
of them, with each pixel's x and y: fusion walks only the reference
pixels that can still fuse.  Each band comes with band-sized float64 and
bool buffers (256 KB per float64 buffer at _BAND_PIXELS), allocated once
per call and reused by every band.  _checks(d_ref, ref, d_src, src,
back_out, pixels) is the only composition of the forward-backward
reprojection and the one pair-check walk: per pair it builds both warp
transforms and the source's corner-validity map once, then per band
writes the forward warp, the sample and the back warp through ufunc
`out=` arguments into the band buffers and, where the caller passes
outputs (full frames, or one entry per pixel), straight into their band
slices, and applies _pair_errors.  The penalty's votes
(penalty._add_pair_votes), fusion's pass bits (fusion._fill_pair), fbr
and `warp` all walk it; fbr discards the errors.  forward_project and
inconsistency_mask walk _depth_bands (_bands that also yields each
band's reference depths as float64 and their validity), remap and the
loss walk _bands.  The walk's own buffers are allocated once per pair,
so the working set stays in L2 and no band pays for fresh pages or heap
trimming.  The forward warp's broadcast multiplies of a row band's
pixel grid still use numpy's own iteration buffer (at most 8192
elements), and each scaled grid vector is a row- or column-sized array
of its own (see _scaled).

The views that _bands and _checks yield are overwritten by the next
band and must not outlive their pair: a view still bound when the next
pair starts (a loop variable, say) keeps that pair's buffers alive while
the next pair allocates its own, and measured so, `fuse` peaked about 2
MB higher.

The sampler reads one corner-validity map per source map and call: a
flat bool per pixel telling whether the bilinear cell with that upper-left
pixel has four valid corners (about 50 us at 640 x 512).  One gather from
it replaces four validity gathers, and each corner value is one
np.take from the flat depths at the corner's offset (right +1, lower +W).

Depths stay at their file's precision: a DepthMap keeps float32 or
float64 values as given, so a PFM's depths hold 4 bytes per pixel (5 with
the mask, against 9 widened to float64), and each kernel widens one band
at a time into band scratch.  _checks widens the reference band once
(_depth_bands, into a buffer allocated only for a float32 map or a
chunk of pixels), and the forward warp and _pair_errors read that copy;
_sample gathers each bilinear corner of a float32 map into a float32
view of a band buffer and widens it there (_gather).  Every ufunc then
runs its float64 loop on the same values (float32 to float64 is exact),
so a float32 map gives the bits of its float64 widening.  No ufunc mixes
the two dtypes: numpy's buffered casts made such a multiply 2.3x slower
than a float64 one.  Code that reads DepthMap.values outside the kernels
widens before its arithmetic too: a float32 array with a float32 or
Python scalar runs a float32 loop under numpy's promotion.

A warp step that overflows (a huge depth, say) makes its pixel invalid,
as one behind the camera, with no RuntimeWarning: _apply_warp computes
each band with overflow ignored and invalidates every pixel whose d', x'
or y' is not finite.

Neither the band size, the band kind nor the buffer reuse changes a
bit: an output pixel depends only on its own input pixel and the whole
source map, each ufunc is elementwise, and every pixel is computed by
the same operations in the same order as with fresh arrays (the pair's
shared terms, such as the pixel grid, are broadcast or stored per pixel,
not accumulated across bands).  Results outside a mask are written
after the arithmetic (np.copyto with where=~ok), so the values a scratch
buffer held before never leak.

_pair_errors is the one pair check: displacement sqrt(dx**2 + dy**2) and
relative depth difference, inf where `ok` is false (invalid reference
pixel, behind a camera, off the source, invalid corner), applied per band
of the one pair walk (_checks) or of fbr's frames (inconsistency_mask).
Its divide |d'' - d| / d is unmasked, as _apply_warp's are: a failed
pixel's quotient is overwritten, and an overflow (a valid float64 depth
of 5e-324) gives inf, which votes and passes no fusion row.

gc-penalty and fuse run their references in order on the calling
thread.  A reference's check is over a hundred short ufunc calls per
band with Python between them, so references on threads were GIL-bound:
they bought little wall time for more CPU.
"""

from dataclasses import dataclass, field

import numpy as np

from .camera import Camera, W_EPS, warp_transform

__all__ = ["DepthMap", "CoordinateGrid", "forward_project", "remap", "fbr"]

# Pixels per band: a row band is max(1, _BAND_PIXELS // W) rows, a chunk
# of packed pixels at most max(_BAND_PIXELS, W) of them.
_BAND_PIXELS = 32768

# Bounds guard of remap: warping a view onto itself lands border pixels at
# W-1 plus float dust, which must not invalidate them.
_EDGE_EPS = 1e-9


def _depth_array(values) -> np.ndarray:
    """values as an array of float32 or float64 as given; any other dtype widened to float64."""
    values = np.asarray(values)
    return values if values.dtype in (np.float32, np.float64) else values.astype(np.float64)


def _valid_depths(values: np.ndarray, valid: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Set valid where values is finite and > 0 and zero values elsewhere, in place; spare is bool scratch."""
    np.isfinite(values, out=valid)
    np.greater(values, 0, out=spare)
    valid &= spare
    np.logical_not(valid, out=spare)
    np.copyto(values, 0, where=spare)
    return valid


@dataclass
class DepthMap:
    """H x W depth grid (scene units) with a validity mask.

    Invalid pixels hold 0 and are ignored by all consumers.  values keeps
    float32 or float64 as given (a PFM's depths stay float32, 4 B/px) and
    widens any other dtype to float64; the kernels widen one band at a
    time, so a float32 map gives the bits of its float64 widening.
    """

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        values = _depth_array(self.values)
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
        made once, a band at a time (_of_bands), without the constructor's
        re-check and second copy.  The caller's array is never written.
        As in the constructor, float32 and float64 values keep their dtype.
        """
        values = _depth_array(values)
        if values.ndim != 2:
            raise ValueError(f"depth values must be 2-D, got shape {values.shape}")
        return cls._of_bands(values.__getitem__, np.empty(values.shape, values.dtype), np.empty(values.shape, bool))

    @classmethod
    def _of_bands(cls, band, values: np.ndarray, valid: np.ndarray) -> "DepthMap":
        """The map of the depths band(rows) gives for each row band, written into values and valid.

        values (float32 or float64) and valid (bool) are frames of one
        shape.  Band by band, the depths are copied into values, and
        _valid_depths applies from_values' rule to them in place, with one
        band-sized bool buffer and no temporary frame.  A PFM file's
        depths are read so (formats.open_pfm), into fresh or reused frames.
        """
        for rows, _, _, (spare,) in _bands(values.shape, 0, 1):
            np.copyto(values[rows], band(rows))
            _valid_depths(values[rows], valid[rows], spare)
        return _wrap(cls, values=values, valid=valid)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


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
    """Apply a pixel-depth warp to finite (x, y, d) grids, writing (x', y', d', ok) into `out`.

    `transform` comes from warp_transform, whose last row is exactly
    (0, 0, 0, 1): the homogeneous coordinate is 1 and needs no divide.
    Pixels landing behind the camera (d' not above W_EPS) come back
    invalid, as 0, and so do pixels whose d', x' or y' is not finite (a
    step overflowed), with no RuntimeWarning.  tmp (float64) and failed
    (bool) are band-sized scratch; failed is left holding ~ok.
    """
    x2, y2, d2, ok = out
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a failed pixel's quotient is zeroed below
        _warp_row(transform[2], xs, ys, depth, d2, tmp)
        np.greater(d2, W_EPS, out=ok)
        ok &= valid
        for t, acc in ((transform[0], x2), (transform[1], y2)):
            _warp_row(t, xs, ys, depth, acc, tmp)
            np.divide(acc, d2, out=acc)
    for a in (d2, x2, y2):
        ok &= np.isfinite(a, out=failed)
    np.logical_not(ok, out=failed)
    for a in (x2, y2, d2):
        np.copyto(a, 0.0, where=failed)


def _wrap(cls, **fields):
    """A result DepthMap/CoordinateGrid whose arrays already hold its invariants: no copy, no check."""
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    return obj


_WARP = (np.float64, np.float64, np.float64, bool)  # x, y, depth, validity


def _bands(shape, floats=0, bools=0, pixels=None):
    """Bands covering an H x W frame, or the frame pixels `pixels`, with reused scratch.

    Yields (sel, (xs, ys), f, b).  Without pixels a band is
    max(1, _BAND_PIXELS // W) whole rows: sel is its row slice, xs the
    column coordinates (one row) and ys the row coordinates (one column),
    which broadcast over the band.  With pixels, ascending flat indices
    into the frame, a band is a chunk of at most max(_BAND_PIXELS, W)
    consecutive entries (never fewer than the smallest row band holds):
    sel slices the entries, and xs and ys hold each pixel's own
    coordinates.  f and b are lists of `floats` float64 and `bools` bool
    buffers cut to the band (contiguous).  The buffers are allocated once
    per call and every band reuses them.  One array per buffer, not one
    block for all: measured on fuse over 320 x 256 x 8 views, one block
    per pair peaked 3-5 MB higher.
    """
    h, w = shape
    packed = pixels is not None
    total = len(pixels) if packed else h
    step = max(_BAND_PIXELS, w, 1) if packed else max(1, _BAND_PIXELS // max(w, 1))
    dims = (min(total, step),) if packed else (min(total, step), w)
    f_all = [np.empty(dims) for _ in range(floats + 2 * packed)]
    b_all = [np.empty(dims, dtype=bool) for _ in range(bools)]
    for start in range(0, total, step):
        sel = slice(start, min(start + step, total))
        k = sel.stop - start
        f, b = [a[:k] for a in f_all], [a[:k] for a in b_all]
        if packed:
            # An integer divmod into the coordinate buffers' bytes, then a
            # cast in place: 3x faster than a float divmod, no temporary,
            # and exact (a flat index is below 2**53).
            xs, ys = f[floats:]
            np.divmod(pixels[sel], w, out=(ys.view(np.int64), xs.view(np.int64)))
            np.copyto(xs, xs.view(np.int64))
            np.copyto(ys, ys.view(np.int64))
        else:
            xs, ys = np.arange(w, dtype=np.float64), np.arange(start, sel.stop, dtype=np.float64)[:, None]
        yield sel, (xs, ys), f[:floats], b


def _depth_bands(d: DepthMap, floats=0, bools=0, pixels=None):
    """_bands over d's frame (or its `pixels`) that also yields each band's reference pixels.

    Yields (sel, (xs, ys, depth, valid), f, b): the band's coordinates,
    its depths as float64 and its validity.  A float64 map's row band is
    a view of its values.  A float32 map's depths are widened into one
    more float64 buffer, allocated only for such a map, and the depths and
    validity of `pixels` are gathered into buffers of their own (a float32
    map's through one more float64 buffer, see _gather).  The widening is
    exact, so every later float64 ufunc sees the values of the map's
    float64 widening.
    """
    packed, narrow = pixels is not None, d.values.dtype != np.float64
    extra = (packed or narrow) + (packed and narrow)
    for sel, (xs, ys), f, b in _bands(d.shape, floats + extra, bools + packed, pixels):
        if packed:
            idx = pixels[sel]
            depth = _gather(d.values.reshape(-1), idx, f[floats], f[-1])
            valid = np.take(d.valid.reshape(-1), idx, out=b[bools], mode="clip")
        else:
            depth, valid = d.values[sel], d.valid[sel]
            if narrow:
                np.copyto(f[floats], depth)
                depth = f[floats]
        yield sel, (xs, ys, depth, valid), f[:floats], b[:bools]


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


def _gather(values, idx, out, scratch):
    """values[idx] (index mode clip) into the float64 band `out`.

    A float32 map is gathered into a float32 view of the float64 band
    buffer `scratch` (its first half), then widened into `out`: a gather
    that reads half the bytes, and no mixed-dtype ufunc.
    """
    if values.dtype == np.float64:
        return np.take(values, idx, out=out, mode="clip")
    narrow = np.ndarray(out.shape, dtype=np.float32, buffer=scratch)
    np.copyto(out, np.take(values, idx, out=narrow, mode="clip"))
    return out


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
    # top*(1-fy) + lower*fy; each corner is one gather at its offset,
    # through the buffer named last when the map is float32 (that buffer
    # is free until then: gy once top*(1-fy) is taken).
    top = _gather(values, idx, res, lower)
    top *= gx
    _gather(values[dx:], idx, corner, lower)
    corner *= xc
    top += corner
    top *= gy
    _gather(values[dy:], idx, lower, corner)
    lower *= gx
    _gather(values[dx + dy:], idx, corner, gy)
    corner *= xc
    lower += corner
    lower *= yc
    top += lower
    np.logical_not(ok, out=failed)
    np.copyto(res, 0.0, where=failed)


def _pair_errors(xs, ys, depth, x_back, y_back, d_back, failed, out):
    """PDE (px) and RDD of reference pixels at (xs, ys) reprojected to (x_back, y_back, d_back).

    depth is the pixels' reference depths as float64; xs and ys are their
    coordinates, per pixel or a broadcast row band's grid vectors (_bands).
    Written into out = (pde, rdd) and returned; inf where `failed` (the
    reprojection is not ok).  out may be (x_back, y_back) themselves: each
    is read before it is written (_checks, the one pair walk, reuses its
    back warp's x and y scratch so; inconsistency_mask applies it to fbr's
    frames).
    """
    pde, rdd = out
    np.square(np.subtract(x_back, xs, out=pde), out=pde)
    pde += np.square(np.subtract(y_back, ys, out=rdd), out=rdd)
    np.sqrt(pde, out=pde)
    np.abs(np.subtract(d_back, depth, out=rdd), out=rdd)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(rdd, depth, out=rdd)
    np.copyto(pde, np.inf, where=failed)
    np.copyto(rdd, np.inf, where=failed)
    return pde, rdd


def _checks(d_ref: DepthMap, ref: Camera, d_src: DepthMap, src: Camera, back_out=(None,) * 4, pixels=None):
    """The pair check of one pair, walked band by band: the forward-backward reprojection, then _pair_errors.

    Per pair both warp transforms and the source's corner-validity map are
    built once.  The bands are _depth_bands(d_ref, ..., pixels): whole
    rows, or chunks of the reference pixels `pixels` (ascending flat
    indices).  Per band the forward warp, the bilinear sample and the back
    warp (x, y, depth, ok) run into band buffers, then _pair_errors on the
    reference depths widened once for the forward warp.  back_out holds
    four output arrays or None each, full frames (or one entry per pixel
    of `pixels`); the back warp is written into the given arrays' slices
    `sel` and into band scratch elsewhere.

    Per band it yields (sel, (x, y, landed), pde, rdd, failed, spare):
    the band's slice (rows, or entries of `pixels`), the forward landing
    in the source view, PDE and RDD (inf where failed), failed = ~ok of
    the back warp, and spare, a bool band buffer free for the caller.
    PDE and RDD are written over the back warp's x and y scratch, dead
    once read (or over free scratch when back_out gives x and y), so no
    band array is added.  Every yielded array is band scratch, overwritten
    by the next band and dead once the pair is walked.
    """
    forward, back = warp_transform(ref, src), warp_transform(src, ref)
    corners = _corners(d_src)
    for sel, band, f, b in _depth_bands(d_ref, 10, 4, pixels):
        x, y, s = f[:3]  # s: the forward depth, then the sample
        landed, sampled, failed = b[:3]
        _apply_warp(forward, *band, (x, y, s, landed), f[3], failed)
        _sample(d_src, corners, x, y, landed, (s, sampled), f[3:10], failed)
        # f[4:7] and b[3] are free once the sample is done.
        out = tuple(spare if a is None else a[sel] for a, spare in zip(back_out, (*f[4:7], b[3])))
        _apply_warp(back, x, y, s, sampled, out, f[3], failed)
        pde, rdd = _pair_errors(*band[:3], *out[:3], failed, f[4:6])
        yield sel, (x, y, landed), pde, rdd, failed, b[3]


def forward_project(d_ref: DepthMap, ref: Camera, src: Camera) -> tuple[CoordinateGrid, DepthMap]:
    """Warp a reference depth map into a source view.

    Returns the per-pixel landing coordinates in the source image and the
    depth of each warped point in the source camera frame.  Pixels that
    are invalid in the input or land behind the source camera come back
    invalid.
    """
    transform = warp_transform(ref, src)
    outs = x2, y2, d2, ok = tuple(np.empty(d_ref.shape, dtype=dtype) for dtype in _WARP)
    for rows, band, f, b in _depth_bands(d_ref, 1, 1):
        _apply_warp(transform, *band, tuple(a[rows] for a in outs), f[0], b[0])
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
    for rows, _, f, b in _bands(coords.shape, 7, 1):
        _sample(src_map, corners, coords.x[rows], coords.y[rows], coords.valid[rows],
                (values[rows], ok[rows]), f, b[0])
    return _wrap(DepthMap, values=values, valid=ok)


def fbr(d_ref: DepthMap, ref: Camera, d_src_gt: DepthMap, src: Camera) -> tuple[DepthMap, CoordinateGrid]:
    """Forward-backward reprojection of a reference depth map via one source view.

    Three steps: forward-warp the reference depths into the source view,
    sample the source depth map at the landing coordinates, then
    back-project the sampled depths through the source camera and
    reproject into the reference view (_checks, walked band by band; the
    errors it computes per band are discarded).  Returns the reprojected
    depth map (values in the reference camera frame) and the reprojected
    pixel coordinates.  Invalidity propagates through every step.
    """
    outs = x2, y2, d2, ok = tuple(np.empty(d_ref.shape, dtype=dtype) for dtype in _WARP)
    for _ in _checks(d_ref, ref, d_src_gt, src, outs):
        pass
    return _wrap(DepthMap, values=d2, valid=ok), _wrap(CoordinateGrid, x=x2, y=y2, valid=ok)
