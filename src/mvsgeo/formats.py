"""Readers and writers for the ecosystem file formats.

All functions but open_pfm and open_probability_volume operate on byte
buffers or strings; opening and closing files is the caller's concern.
Readers reject malformed input with a ParseError carrying the offending
line or byte offset; they never silently truncate.

Formats:

* PFM: "Pf"/"PF" magic line, "width height" line, scale line (a finite
  non-zero decimal) whose sign encodes endianness (negative = little
  endian), then raw 32-bit floats stored bottom row first.  The writer
  always emits little endian.  open_pfm opens a file to be read one row
  band at a time, each band one positioned read of its stored rows,
  served top row first: by the loss, and by the CLI's depth reads, which
  fill a whole depth frame band by band; it shares read_pfm's header
  parser.
* cam.txt: "extrinsic" keyword + 4x4 world-to-camera matrix, "intrinsic"
  keyword + 3x3 matrix, then a "depth_min depth_interval" line.
* PLY point clouds: ascii or binary_little_endian, float x/y/z and
  optional uchar red/green/blue.
* Probability volume: "PROBVOL" magic line, "D H W" line, a
  "shared"/"perpixel" hypothesis layout line, then raw little-endian
  float32 hypotheses followed by the D*H*W probabilities.
  read_probability_volume returns read-only float32 views of the
  caller's bytes (no copy), every value checked; ProbabilityVolume(...)
  built by hand converts to float64.
  open_probability_volume opens a file for the loss to read one row band
  at a time, each byte once, checking each band as it is read; the two
  share one header parser and report a malformed file alike.  Losses
  are identical all three ways.

A header line of either format is at most 256 bytes, its newline
included, and both formats' dimensions lines are checked by one parser
(field count, ASCII digits, positivity), each fault reported at the
line's offset.  The two file openers parse the header at open, reading
it a byte at a time, then read each payload byte once with os.preadv
into band buffers that the opened file owns, reuses from band to band
and drops at close.

PFM and PLY payloads are viewed in place, not sliced out of the buffer.
"""

import math
import os
import re
import sys
import warnings

import numpy as np

from .camera import Camera
from .fusion import PointCloud
from .loss import ProbabilityVolume
from .reproject import DepthMap

__all__ = [
    "ParseError",
    "PfmImage",
    "read_pfm",
    "open_pfm",
    "write_pfm",
    "depth_from_pfm",
    "read_cam",
    "write_cam",
    "read_ply",
    "write_ply",
    "read_probability_volume",
    "open_probability_volume",
    "write_probability_volume",
]


class ParseError(ValueError):
    """Malformed input; message names the byte offset or line number."""

    def __init__(self, message, line=None, offset=None):
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif offset is not None:
            where = f" (byte offset {offset})"
        super().__init__(message + where)
        self.line = line
        self.offset = offset


# ---------------------------------------------------------------------------
# header lines and files read at offsets
# ---------------------------------------------------------------------------


# A header line of a PFM or probability volume is at most this many
# bytes, its newline included.  A file opener reads the header one byte at
# a time, so that no payload byte is read twice; the cap bounds those
# reads for a file with no newline.
_HEADER_LINE_MAX = 256


def _header_line(raw: bytes, pos: int, kind: str):
    """(stripped text, next offset) of the header line at pos of a `kind` file; raw holds its first bytes from pos.

    raw is cut at _HEADER_LINE_MAX bytes or the file's end, whichever
    comes first; from a file it may also stop just after the newline.
    """
    end = raw.find(b"\n")
    if end < 0:
        if len(raw) < _HEADER_LINE_MAX:
            raise ParseError(f"truncated {kind} header", offset=pos)
        raise ParseError(f"{kind} header line longer than {_HEADER_LINE_MAX} bytes", offset=pos)
    return raw[:end].decode("latin-1").strip(), pos + end + 1


_DIGITS = re.compile(r"-?[0-9]+")


def _dims(line, pos: int, names: str, kind: str):
    """The positive integer dimensions ("width height", say) on the header line at pos, and the offset after it.

    line(pos) is the header's line reader (see _header_line); a `kind`
    file's malformed dimensions line is reported at pos.
    """
    text, end = line(pos)
    parts = text.split()
    if len(parts) != len(names.split()):
        raise ParseError(f"expected {names!r}, got {text!r}", offset=pos)
    # ASCII digits only: int() would also take "+1", "1_0" and non-ASCII
    # digits.  A minus sign passes here to be reported as non-positive.
    if not all(_DIGITS.fullmatch(p) for p in parts):
        raise ParseError(f"non-integer {kind} dimensions {text!r}", offset=pos)
    dims = [int(p) for p in parts]
    if min(dims) <= 0:
        raise ParseError(f"non-positive {kind} dimensions {text!r}", offset=pos)
    return dims, end


class _OpenedFile:
    """A file whose header is parsed at open and whose payload is read at offsets, each byte once.

    A subclass names its format (_kind), and its _header(size) parses
    the header through _line and stores the parsed values.
    The payload is read with os.preadv straight into the file's own band
    buffers (_buffer); nothing is mapped.  A file that shrinks while it
    is read raises the ParseError its bytes reader gives for the bytes
    left.
    """

    _kind = ""

    def __init__(self, path):
        self._buffers = {}
        self._file = open(path, "rb", buffering=0)
        try:
            self._fd = self._file.fileno()
            self._header(os.fstat(self._fd).st_size)
        except BaseException:
            self._file.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        self._file.close()
        self._buffers.clear()

    def _buffer(self, key, size: int, dtype) -> np.ndarray:
        """The first size values of the file's reused buffer `key`, made at its first use.

        Made to fit the first request, the tallest band of a walk; a larger
        request later gets a new one.  Each band read into it overwrites
        the one before; close() drops it.
        """
        buf = self._buffers.get(key)
        if buf is None or len(buf) < size:
            buf = self._buffers[key] = np.empty(size, dtype)
        return buf[:size]

    def _line(self, pos: int):
        """The header line at pos (see _header_line), read a byte at a time: none of the payload."""
        raw = b""
        while len(raw) < _HEADER_LINE_MAX and not raw.endswith(b"\n"):
            byte = os.pread(self._fd, 1, pos + len(raw))
            if not byte:
                break
            raw += byte
        return _header_line(raw, pos, self._kind)

    def _read(self, buf: np.ndarray, offset: int) -> None:
        """Fill the contiguous array buf from the file's bytes at offset."""
        view = memoryview(buf).cast("B")
        while view:
            n = os.preadv(self._fd, [view], offset)
            if n == 0:
                # The file shrank since it was opened: the header check now
                # fails as the bytes reader would on its bytes.
                self._header(os.fstat(self._fd).st_size)
                raise ParseError(f"{self._kind} file changed while it was read", offset=offset)
            view, offset = view[n:], offset + n


# ---------------------------------------------------------------------------
# PFM
# ---------------------------------------------------------------------------


class PfmImage:
    """Decoded PFM: data is (H, W) or (H, W, 3) float32, top row first.

    The file's byte order is not kept: write_pfm always writes little endian.
    """

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float32)
        if data.ndim == 2:
            channels = 1
        elif data.ndim == 3 and data.shape[2] == 3:
            channels = 3
        else:
            raise ValueError(f"PFM data must be (H, W) or (H, W, 3), got {data.shape}")
        self.data = data
        self.channels = channels

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _pfm_header(line, size: int):
    """(height, width, channels, scale, payload offset) of a PFM file of `size` bytes.

    line(pos) returns the stripped header line at pos and the offset after
    it (see _header_line).  read_pfm and open_pfm both parse through here,
    so a malformed header or a payload of the wrong size gets the same
    message and offset from either.
    """
    magic, pos = line(0)
    if magic not in ("Pf", "PF"):
        raise ParseError(f"bad PFM magic {magic!r}", offset=0)
    channels = 3 if magic == "PF" else 1
    (width, height), pos = _dims(line, pos, "width height", "PFM")
    scale_pos = pos
    scale_line, pos = line(pos)
    # A finite decimal: float() would also take "nan", "inf" and "1_0",
    # and a NaN scale would pick the byte order by a false "scale < 0".
    scale = float(scale_line) if _DECIMAL.fullmatch(scale_line) else math.nan
    if not math.isfinite(scale):
        raise ParseError(f"bad PFM scale {scale_line!r}", offset=scale_pos)
    if scale == 0:
        raise ParseError("zero PFM scale", offset=scale_pos)
    expected = width * height * channels * 4
    if size - pos < expected:
        raise ParseError(
            f"truncated PFM payload: expected {expected} bytes, got {size - pos}", offset=pos
        )
    if size - pos > expected:
        raise ParseError(
            f"trailing bytes after PFM payload: expected {expected}, got {size - pos}", offset=pos + expected
        )
    return height, width, channels, scale, pos


def read_pfm(data: bytes) -> PfmImage:
    height, width, channels, scale, pos = _pfm_header(
        lambda at: _header_line(data[at:at + _HEADER_LINE_MAX], at, "PFM"), len(data))
    dtype = "<f4" if scale < 0 else ">f4"
    flat = np.frombuffer(data, dtype=dtype, count=width * height * channels, offset=pos)
    shape = (height, width, 3) if channels == 3 else (height, width)
    img = flat.reshape(shape)
    return PfmImage(np.flipud(img).astype(np.float32))


class _PfmFile(_OpenedFile):
    """A PFM file read one row band at a time (made by open_pfm): by the loss, and by depth() for a depth map.

    shape is (H, W), or (H, W, 3) for a colour file, as PfmImage.data's.
    _band(rows) reads the rows as stored, bottom row first, with one
    os.preadv into the file's reused native float32 buffer (_buffer), and
    returns them top row first, a reversed view of it.  Little- and
    big-endian files read alike.
    """

    _kind = "PFM"

    def _header(self, size: int):
        height, width, channels, scale, self._pos = _pfm_header(self._line, size)
        self.shape = (height, width) if channels == 1 else (height, width, 3)
        self._swap = (scale < 0) != (sys.byteorder == "little")

    @property
    def depth_shape(self) -> tuple:
        """shape, which a depth map's file has as (H, W); a 3-channel file raises depth_from_pfm's ValueError."""
        if len(self.shape) != 2:
            raise ValueError(_ONE_CHANNEL)
        return self.shape

    def depth(self, frame=None) -> DepthMap:
        """The file's depth map, as depth_from_pfm(read_pfm(its bytes)) makes it, read band by band.

        frame is the (values, valid) pair of float32 and bool arrays of
        depth_shape that the map is read into (see DepthMap._of_bands), or
        None for fresh ones.  No bytes object, flipped copy or masked copy
        of the frame is made.
        """
        shape = self.depth_shape
        values, valid = frame if frame is not None else (np.empty(shape, np.float32), np.empty(shape, bool))
        return DepthMap._of_bands(self._band, values, valid)

    def _band(self, rows: slice) -> np.ndarray:
        row = self.shape[1:]
        band = self._buffer("rows", (rows.stop - rows.start) * math.prod(row), np.float32).reshape((-1,) + row)
        self._read(band, self._pos + band[0].nbytes * (self.shape[0] - rows.stop))
        if self._swap:
            band.byteswap(inplace=True)
        return band[::-1]


def open_pfm(path) -> _PfmFile:
    """Open a PFM file to read band by band (or its depth map, whole); close it (or use `with`) after.

    The header is parsed and the payload size checked now, with
    read_pfm's messages and offsets; no payload byte is read until a band
    is.  The file must not change meanwhile.
    """
    return _PfmFile(path)


def write_pfm(img: PfmImage) -> bytearray:
    """The PFM file of img, built in one buffer: the header, then the rows bottom first.

    The flipped rows are written through a little-endian float32 view of
    the buffer, so the payload is held once.  The buffer itself is
    returned, a mutable bytearray: converting it to bytes would copy the
    payload again.
    """
    magic = b"PF" if img.channels == 3 else b"Pf"
    header = magic + b"\n" + f"{img.width} {img.height}\n".encode() + b"-1.0\n"
    data = bytearray(len(header) + 4 * img.data.size)
    data[:len(header)] = header
    payload = np.frombuffer(data, dtype="<f4", offset=len(header)).reshape(img.data.shape)
    np.copyto(payload, np.flipud(img.data))
    return data


_ONE_CHANNEL = "depth maps are single-channel PFMs"


def depth_from_pfm(img: PfmImage) -> DepthMap:
    """Single-channel PFM to DepthMap; zero, negative and non-finite pixels are invalid."""
    if img.channels != 1:
        raise ValueError(_ONE_CHANNEL)
    return DepthMap.from_values(img.data)


# ---------------------------------------------------------------------------
# cam.txt
# ---------------------------------------------------------------------------


def _parse_matrix(lines, start, rows, cols, what):
    mat = np.zeros((rows, cols))
    for r in range(rows):
        ln = start + r
        if ln >= len(lines):
            raise ParseError(f"truncated {what} matrix", line=len(lines))
        parts = lines[ln].split()
        if len(parts) != cols:
            raise ParseError(f"expected {cols} values in {what} row, got {len(parts)}", line=ln + 1)
        try:
            mat[r] = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"non-numeric value in {what} matrix", line=ln + 1) from None
    return mat


def read_cam(text: str) -> Camera:
    lines = text.splitlines()
    stripped = [ln.strip() for ln in lines]

    def find_keyword(word):
        for i, ln in enumerate(stripped):
            if ln.lower() == word:
                return i
        raise ParseError(f"missing '{word}' section", line=len(lines))

    def next_content(i):
        while i < len(stripped) and not stripped[i]:
            i += 1
        return i

    ext_row = next_content(find_keyword("extrinsic") + 1)
    E = _parse_matrix(stripped, ext_row, 4, 4, "extrinsic")
    int_row = next_content(find_keyword("intrinsic") + 1)
    K = _parse_matrix(stripped, int_row, 3, 3, "intrinsic")
    depth_row = next_content(int_row + 3)
    if depth_row >= len(stripped):
        raise ParseError("missing depth range line", line=len(lines))
    parts = stripped[depth_row].split()
    if len(parts) < 2:
        raise ParseError("depth range line needs 'depth_min depth_interval'", line=depth_row + 1)
    try:
        depth_min, depth_interval = float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError("non-numeric depth range values", line=depth_row + 1) from None
    try:
        cam = Camera(K=K, E=E, depth_min=depth_min, depth_interval=depth_interval)
    except ValueError as exc:
        raise ParseError(f"invalid camera: {exc}", line=depth_row + 1) from None
    try:
        cam.validate(rtol=1e-3)
    except ValueError as exc:
        warnings.warn(f"camera fails validation: {exc}", stacklevel=2)
    return cam


def write_cam(cam: Camera) -> str:
    def fmt(mat):
        return "\n".join(" ".join(repr(float(v)) for v in row) for row in mat)

    return (
        "extrinsic\n"
        + fmt(cam.E)
        + "\n\nintrinsic\n"
        + fmt(cam.K)
        + "\n\n"
        + f"{cam.depth_min!r} {cam.depth_interval!r}\n"
    )


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------

_PLY_XYZ = ("x", "y", "z")
_PLY_RGB = ("red", "green", "blue")


def read_ply(data: bytes) -> PointCloud:
    end = data.find(b"end_header\n")
    if end < 0:
        raise ParseError("missing PLY end_header", offset=len(data))
    header = data[: end + len(b"end_header\n")]
    body = memoryview(data)[len(header):]
    lines = header.decode("latin-1").splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError("bad PLY magic", line=1)
    fmt = None
    count = None
    props = []
    for n, raw in enumerate(lines[1:], start=2):
        ln = raw.strip()
        if not ln or ln.startswith("comment"):
            continue
        if ln.startswith("format"):
            parts = ln.split()
            if len(parts) != 3 or parts[1] not in ("ascii", "binary_little_endian"):
                raise ParseError(f"unsupported PLY format line {ln!r}", line=n)
            fmt = parts[1]
        elif ln.startswith("element"):
            parts = ln.split()
            if len(parts) != 3 or parts[1] != "vertex":
                raise ParseError(f"unsupported PLY element {ln!r}", line=n)
            try:
                count = int(parts[2])
            except ValueError:
                raise ParseError(f"bad vertex count in {ln!r}", line=n) from None
            if count < 0:
                raise ParseError(f"negative vertex count {count}", line=n)
        elif ln.startswith("property"):
            parts = ln.split()
            if len(parts) != 3:
                raise ParseError(f"bad property line {ln!r}", line=n)
            props.append((parts[1], parts[2]))
        elif ln == "end_header":
            break
        else:
            raise ParseError(f"unrecognized PLY header line {ln!r}", line=n)
    if fmt is None:
        raise ParseError("missing PLY format line", line=1)
    if count is None:
        raise ParseError("missing PLY vertex element", line=1)
    names = tuple(name for _, name in props)
    types = tuple(tp for tp, _ in props)
    if names == _PLY_XYZ:
        has_rgb = False
        expected_types = ("float",) * 3
    elif names == _PLY_XYZ + _PLY_RGB:
        has_rgb = True
        expected_types = ("float",) * 3 + ("uchar",) * 3
    else:
        raise ParseError(f"unsupported PLY property layout {names!r}", line=1)
    if types != expected_types:
        raise ParseError(f"unsupported PLY property types {types!r}", line=1)

    if fmt == "binary_little_endian":
        rec = np.dtype([("xyz", "<f4", (3,))] + ([("rgb", "u1", (3,))] if has_rgb else []))
        expected = rec.itemsize * count
        if len(body) != expected:
            raise ParseError(
                f"PLY payload size mismatch: expected {expected} bytes, got {len(body)}",
                offset=len(header),
            )
        arr = np.frombuffer(body, dtype=rec, count=count)
        points = arr["xyz"].astype(np.float64)
        colors = arr["rgb"].copy() if has_rgb else None
    else:
        rows = str(body, "latin-1").splitlines()
        if len(rows) != count:
            raise ParseError(
                f"PLY vertex count mismatch: header says {count}, body has {len(rows)} rows",
                line=len(lines) + min(count, len(rows)) + 1,
            )
        width = 6 if has_rgb else 3
        points = np.zeros((count, 3))
        colors = np.zeros((count, 3), dtype=np.uint8) if has_rgb else None
        for i, row in enumerate(rows):
            parts = row.split()
            if len(parts) != width:
                raise ParseError(f"expected {width} vertex fields, got {len(parts)}", line=len(lines) + i + 1)
            try:
                points[i] = [float(p) for p in parts[:3]]
                if has_rgb:
                    colors[i] = [int(p) for p in parts[3:]]
            except ValueError:
                raise ParseError("non-numeric vertex field", line=len(lines) + i + 1) from None
    try:
        return PointCloud(points=points, colors=colors)
    except ValueError as exc:
        # The cloud's finiteness check is the one that can fail here; the
        # first vertex that breaks it is found only then.
        finite = np.isfinite(points).all(axis=1)
        if finite.all():
            raise
        row = int(np.argmin(finite))
        if fmt == "ascii":
            raise ParseError(str(exc), line=len(lines) + row + 1) from None
        raise ParseError(str(exc), offset=len(header) + row * rec.itemsize) from None


def write_ply(cloud: PointCloud, binary: bool = True) -> bytes:
    n = cloud.points.shape[0]
    has_rgb = cloud.colors is not None
    header = ["ply", "format binary_little_endian 1.0" if binary else "format ascii 1.0",
              f"element vertex {n}", "property float x", "property float y", "property float z"]
    if has_rgb:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header.append("end_header")
    head = ("\n".join(header) + "\n").encode()
    xyz = cloud.points.astype("<f4")
    if binary:
        if has_rgb:
            rec = np.dtype([("xyz", "<f4", (3,)), ("rgb", "u1", (3,))])
            arr = np.empty(n, dtype=rec)
            arr["xyz"] = xyz
            arr["rgb"] = cloud.colors
            return head + arr.tobytes()
        return head + xyz.tobytes()
    rows = []
    for i in range(n):
        row = " ".join(repr(float(v)) for v in xyz[i])
        if has_rgb:
            row += " " + " ".join(str(int(v)) for v in cloud.colors[i])
        rows.append(row)
    return head + ("\n".join(rows) + ("\n" if rows else "")).encode()


# ---------------------------------------------------------------------------
# probability volume container
# ---------------------------------------------------------------------------


def _volume_header(line, size: int):
    """(d, h, w, layout, payload offset) of a probability volume of `size` bytes.

    line(pos) returns the stripped header line at pos and the offset after
    it (see _header_line); both readers parse through here, so a malformed
    header or a payload of the wrong size gets the same message and offset
    from either.
    """
    magic, pos = line(0)
    if magic != "PROBVOL":
        raise ParseError(f"bad probability volume magic {magic!r}", offset=0)
    (d, h, w), pos = _dims(line, pos, "D H W", "volume")
    layout_pos = pos
    layout, pos = line(pos)
    if layout not in ("shared", "perpixel"):
        raise ParseError(f"unknown hypothesis layout {layout!r}", offset=layout_pos)
    n_hyp = d if layout == "shared" else d * h * w
    expected = (n_hyp + d * h * w) * 4
    if size - pos != expected:
        raise ParseError(
            f"probability volume payload size mismatch: expected {expected} bytes, got {size - pos}",
            offset=pos,
        )
    return d, h, w, layout, pos


def read_probability_volume(data: bytes) -> ProbabilityVolume:
    """The volume in data, as read-only float32 views of it, every value checked."""
    d, h, w, layout, pos = _volume_header(
        lambda at: _header_line(data[at:at + _HEADER_LINE_MAX], at, "probability volume"), len(data))
    n_hyp = d if layout == "shared" else d * h * w
    flat = np.frombuffer(data, dtype="<f4", offset=pos)
    hyp = flat[:n_hyp]
    probs = flat[n_hyp:].reshape(d, h, w)
    if layout == "perpixel":
        hyp = hyp.reshape(d, h, w)
    try:
        return ProbabilityVolume._of_views(probs, hyp)
    except ValueError as exc:
        raise _invalid_volume(exc, pos) from None


def _invalid_volume(exc: ValueError, pos: int) -> ParseError:
    """The error of a volume whose values break the rules, at its payload offset pos."""
    return ParseError(f"invalid probability volume: {exc}", offset=pos)


class _VolumeFile(_OpenedFile):
    """A probability volume file that loss.cross_entropy_error reads one row band at a time.

    Made by open_probability_volume, which has parsed the header and
    checked the payload size.  _band(rows) reads the band's probabilities
    with os.preadv, bin by bin, straight into the file's reused (D, rows,
    W) block (_buffer), and returns them with slab(k), bin k's
    hypotheses: per pixel, slab(k) reads the band's bin-k slab into one
    of the file's two reused slabs, as the scoring loop reaches that bin;
    shared hypotheses are read at the first band and kept.  So each
    payload byte is read once and the file is never mapped or held whole.
    A band the volume rules reject raises the ParseError that
    read_probability_volume gives for the same bytes; so does a file that
    shrinks while it is read.
    """

    _kind = "probability volume"
    _dtype = np.dtype("<f4")

    def _header(self, size: int):
        d, h, w, layout, self._pos = _volume_header(self._line, size)
        self.shape = (d, h, w)
        self._perpixel = layout == "perpixel"
        self._probs_pos = self._pos + 4 * (d * h * w if self._perpixel else d)

    def _band(self, rows: slice):
        d, h, w = self.shape
        start, pixels = rows.start * w, (rows.stop - rows.start) * w
        probs = self._buffer("probs", d * pixels, self._dtype).reshape(d, -1, w)
        for k in range(d):
            self._read(probs[k], self._probs_pos + 4 * (k * h * w + start))
        if not self._perpixel:
            if "shared" not in self._buffers:
                self._read(self._buffer("shared", d, self._dtype), self._pos)
            return probs, self._buffers["shared"].__getitem__
        slabs = self._buffer("slabs", 2 * pixels, self._dtype).reshape(2, -1, w)

        def slab(k):
            self._read(slabs[k % 2], self._pos + 4 * (k * h * w + start))
            return slabs[k % 2]

        return probs, slab

    def _rejected(self, exc: ValueError) -> ParseError:
        return _invalid_volume(exc, self._pos)


def open_probability_volume(path) -> _VolumeFile:
    """Open a probability volume file for the loss to read band by band; close it (or use `with`) after.

    The header is parsed and the payload size checked now, with
    read_probability_volume's messages; no payload byte is read until a
    band is, and the values are checked as the loss reads them.  The file
    must not change meanwhile.
    """
    return _VolumeFile(path)


def write_probability_volume(vol: ProbabilityVolume) -> bytes:
    d, h, w = vol.probs.shape
    layout = "shared" if vol.hypotheses.ndim == 1 else "perpixel"
    head = f"PROBVOL\n{d} {h} {w}\n{layout}\n".encode()
    return head + vol.hypotheses.astype("<f4").tobytes() + vol.probs.astype("<f4").tobytes()
