"""Readers and writers for the ecosystem file formats.

Each binary format (PFM, PLY, probability volume) has one reader: an
_OpenedFile subclass, the format's only header parser and payload
decoder, over a file or over the caller's bytes.  open_pfm, open_ply and
open_probability_volume build it over a file, to be read band by band
and closed after; read_pfm, read_ply and read_probability_volume build
it over bytes.  Every other function operates on byte buffers or
strings; opening and closing files is the caller's concern.
Readers reject malformed input with a ParseError carrying the offending
line or byte offset; they never silently truncate.  docs/FORMATS.md
gives each format's grammar.

Formats:

* PFM: "Pf"/"PF" magic line, "width height" line, scale line (a finite
  non-zero decimal) whose sign encodes endianness (negative = little
  endian), then raw 32-bit floats stored bottom row first.  The writer
  always emits little endian.  The reader serves one row band at a
  time, each band one read of its stored rows, top row first: to the
  loss, to the CLI's depth reads, which fill a whole depth frame band by
  band, and to image(), which fills a whole image (read_pfm, and the
  CLI's confidence and mask reads).
* cam.txt: "extrinsic" keyword + 4x4 world-to-camera matrix, "intrinsic"
  keyword + 3x3 matrix, then a "depth_min depth_interval" line; every
  value a finite decimal.
* PLY point clouds: ascii or binary_little_endian, float x/y/z and
  optional uchar red/green/blue.  A vertex count or colour is ASCII
  digits (a colour 0-255), an ASCII coordinate a decimal, and every
  coordinate finite.  A binary body is read band by band straight into
  the float64 points, and into the colours for read_ply; eval-pc's
  open_ply(...).points() reads no colours.
* Probability volume: "PROBVOL" magic line, "D H W" line, a
  "shared"/"perpixel" hypothesis layout line, then raw little-endian
  float32 hypotheses followed by the D*H*W probabilities.
  read_probability_volume returns read-only float32 views of the
  caller's bytes (no copy), every value checked; ProbabilityVolume(...)
  built by hand converts to float64.  The loss reads an opened volume
  one row band at a time, each byte once, checking each band as it is
  read.  Losses are identical all three ways.

A header line of a PFM, PLY or probability volume is at most 256 bytes,
its newline included.  It, and each line of a cam.txt, pair.txt or ASCII
PLY body (_text_lines: a line ends at "\n" alone), is stripped of ASCII
whitespace, its fields split at ASCII whitespace alone (_fields): "\xa0",
"\x85" and "\u2028" are field characters.  The PFM and volume dimensions
lines are checked by one parser (field count, ASCII digits, positivity),
each fault reported at the line's offset.  A reader parses the header
when it is built, from a file a byte at a time, then reads each payload
byte once into band buffers that it owns, reuses from band to band and
drops at close: from a file with os.preadv.
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
from .reproject import DepthMap, _bands

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
    "open_ply",
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
# one reader per format, over a file or bytes
# ---------------------------------------------------------------------------


# A header line of a PFM, PLY or probability volume is at most this many
# bytes, its newline included.  A file's header is read one byte at a time,
# so that no payload byte is read twice; the cap bounds those reads for a
# file with no newline.
_HEADER_LINE_MAX = 256

_DIGITS = re.compile(r"[0-9]+|-0*[1-9][0-9]*")  # "-" passes before a non-zero value, to be reported as negative
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# ASCII whitespace, as bytes.split() has it: str.split() would also split
# at "\x1c"-"\x1f", "\x85" and "\xa0".
_WHITESPACE = " \t\n\r\x0b\x0c"
_fields = re.compile(f"[^{_WHITESPACE}]+").findall


def _text_lines(text: str) -> list:
    """The lines of a cam.txt, pair.txt or ASCII PLY body, stripped of ASCII whitespace; fields are _fields(line).

    A line ends at "\n" alone (the last may lack it), so "\r\n" ends one
    too, its "\r" stripped, and "\x85" or "\u2028" is a field character.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return [ln.strip(_WHITESPACE) for ln in lines]


class _OpenedFile:
    """A format's reader: its header parsed when it is built, its payload read at offsets, each byte once.

    Built over the file at path, or over the caller's bytes data.  A
    subclass names its format (_kind), and its _header(size) parses the
    header through _line and stores the parsed values.  The payload is
    read with _read into the reader's own band buffers (_buffer): from a
    file with os.preadv, nothing mapped, or copied from the bytes.  A file
    that shrinks while it is read raises the ParseError its bytes give.
    """

    _kind = ""

    def __init__(self, path=None, *, data=None):
        self._buffers = {}
        self._data = self._file = None
        if data is not None:
            self._data = memoryview(data).cast("B")
        else:
            self._file = open(path, "rb", buffering=0)
            self._fd = self._file.fileno()
        try:
            self._header(self._size())
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
        self._buffers.clear()

    def _size(self) -> int:
        """The source's size: the bytes', or the file's now."""
        return len(self._data) if self._data is not None else os.fstat(self._fd).st_size

    def _buffer(self, key, size: int, dtype) -> np.ndarray:
        """The first size values of the reader's reused buffer `key`, made at its first use.

        Made to fit the first request, the tallest band of a walk; a larger
        request later gets a new one.  Each band read into it overwrites
        the one before; close() drops it.
        """
        buf = self._buffers.get(key)
        if buf is None or len(buf) < size:
            buf = self._buffers[key] = np.empty(size, dtype)
        return buf[:size]

    def _line(self, pos: int):
        """(text, next offset) of the header line at pos, its text stripped of ASCII whitespace.

        A file's line is read a byte at a time: none of the payload.  A
        line with no newline in its first _HEADER_LINE_MAX bytes is too
        long, or truncated where the source ends first.
        """
        if self._data is not None:
            raw = bytes(self._data[pos:pos + _HEADER_LINE_MAX])
        else:
            raw = b""
            while len(raw) < _HEADER_LINE_MAX and not raw.endswith(b"\n"):
                byte = os.pread(self._fd, 1, pos + len(raw))
                if not byte:
                    break
                raw += byte
        end = raw.find(b"\n")
        if end < 0:
            if len(raw) < _HEADER_LINE_MAX:
                raise ParseError(f"truncated {self._kind} header", offset=pos)
            raise ParseError(f"{self._kind} header line longer than {_HEADER_LINE_MAX} bytes", offset=pos)
        return raw[:end].strip().decode("latin-1"), pos + end + 1

    def _dims(self, pos: int, names: str, kind: str):
        """The positive integer dimensions ("width height", say) on the header line at pos, and the offset after it.

        A `kind` file's malformed dimensions line is reported at pos.
        """
        text, end = self._line(pos)
        parts = _fields(text)
        if len(parts) != len(_fields(names)):
            raise ParseError(f"expected {names!r}, got {text!r}", offset=pos)
        # ASCII digits only: int() would also take "+1", "1_0" and non-ASCII
        # digits.  A minus sign passes here to be reported as non-positive.
        if not all(_DIGITS.fullmatch(p) for p in parts):
            raise ParseError(f"non-integer {kind} dimensions {text!r}", offset=pos)
        dims = [int(p) for p in parts]
        if min(dims) <= 0:
            raise ParseError(f"non-positive {kind} dimensions {text!r}", offset=pos)
        return dims, end

    def _read(self, buf: np.ndarray, offset: int) -> None:
        """Fill the contiguous array buf from the source's bytes at offset."""
        view = memoryview(buf).cast("B")
        if self._data is not None:
            # The header check has sized the payload: the bytes hold it.
            view[:] = self._data[offset:offset + len(view)]
            return
        while view:
            n = os.preadv(self._fd, [view], offset)
            if n == 0:
                # The file shrank since it was opened: the header check now
                # fails as it does on the file's bytes.
                self._header(self._size())
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


class _PfmFile(_OpenedFile):
    """A PFM read one row band at a time (made by open_pfm and read_pfm): by the loss, by depth() and by image().

    shape is (H, W), or (H, W, 3) for a colour file, as PfmImage.data's.
    _band(rows) reads the rows as stored, bottom row first, with one
    read into the reader's reused native float32 buffer (_buffer), and
    returns them top row first, a reversed view of it.  Little- and
    big-endian files read alike.
    """

    _kind = "PFM"

    def _header(self, size: int):
        magic, pos = self._line(0)
        if magic not in ("Pf", "PF"):
            raise ParseError(f"bad PFM magic {magic!r}", offset=0)
        (width, height), scale_pos = self._dims(pos, "width height", "PFM")
        scale_line, pos = self._line(scale_pos)
        # A finite decimal: float() would also take "nan", "inf" and "1_0",
        # and a NaN scale would pick the byte order by a false "scale < 0".
        scale = float(scale_line) if _DECIMAL.fullmatch(scale_line) else math.nan
        if not math.isfinite(scale):
            raise ParseError(f"bad PFM scale {scale_line!r}", offset=scale_pos)
        if scale == 0:
            raise ParseError("zero PFM scale", offset=scale_pos)
        self.shape = (height, width) if magic == "Pf" else (height, width, 3)
        expected = 4 * math.prod(self.shape)
        if size - pos < expected:
            raise ParseError(
                f"truncated PFM payload: expected {expected} bytes, got {size - pos}", offset=pos
            )
        if size - pos > expected:
            raise ParseError(
                f"trailing bytes after PFM payload: expected {expected}, got {size - pos}", offset=pos + expected
            )
        self._pos = pos
        self._swap = (scale < 0) != (sys.byteorder == "little")

    @property
    def depth_shape(self) -> tuple:
        """shape, which a depth map's file has as (H, W); a 3-channel file raises depth_from_pfm's ValueError."""
        if len(self.shape) != 2:
            raise ValueError(_ONE_CHANNEL)
        return self.shape

    def depth(self, frame=None) -> DepthMap:
        """The file's depth map, as depth_from_pfm(read_pfm(its bytes)) makes it, read band by band.

        frame is the (values, valid) pair of writable float32 and bool
        arrays of depth_shape that the map is read into (DepthMap._of_bands),
        or None for fresh ones; another is a ValueError before any read.  No
        bytes object, flipped copy or masked copy of the frame is made.
        """
        shape = self.depth_shape
        values, valid = frame = frame if frame is not None else (np.empty(shape, np.float32), np.empty(shape, bool))
        if not all(isinstance(a, np.ndarray) and (a.dtype, a.shape, a.flags.writeable) == (dtype, shape, True)
                   for a, dtype in zip(frame, (np.float32, bool))):
            raise ValueError(f"a depth frame is a writable float32 and bool array pair of shape {shape}")
        return DepthMap._of_bands(self._band, values, valid)

    def image(self) -> np.ndarray:
        """The whole image, top row first, in a fresh native float32 array of shape, filled band by band."""
        out = np.empty(self.shape, np.float32)
        for rows, *_ in _bands(self.shape[:2]):
            out[rows] = self._band(rows)
        return out

    def _band(self, rows: slice) -> np.ndarray:
        row = self.shape[1:]
        band = self._buffer("rows", (rows.stop - rows.start) * math.prod(row), np.float32).reshape((-1,) + row)
        self._read(band, self._pos + band[0].nbytes * (self.shape[0] - rows.stop))
        if self._swap:
            band.byteswap(inplace=True)
        return band[::-1]


def read_pfm(data: bytes) -> PfmImage:
    """The PFM image in data, decoded by the reader open_pfm uses (_PfmFile.image)."""
    return PfmImage(_PfmFile(data=data).image())


def open_pfm(path) -> _PfmFile:
    """Open a PFM file to read band by band (or its depth map or image, whole); close it (or use `with`) after.

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


def _content(lines, i: int) -> int:
    """The index of the first non-blank line of lines at or after i, or len(lines)."""
    return next((j for j in range(i, len(lines)) if lines[j]), len(lines))


def _parse_matrix(lines, what: str, size: int):
    """The size x size matrix of the cam.txt section `what`, and the index of the first non-blank line after it.

    Its rows are consecutive lines (a blank one is a row with no values)
    from the first non-blank line after the first line reading `what`.
    """
    keyword = next((i for i, ln in enumerate(lines) if ln.lower() == what), None)
    if keyword is None:
        raise ParseError(f"missing '{what}' section", line=len(lines))
    start = _content(lines, keyword + 1)
    mat = np.zeros((size, size))
    for r, ln in enumerate(range(start, start + size)):
        if ln >= len(lines):
            raise ParseError(f"truncated {what} matrix", line=len(lines))
        parts = _fields(lines[ln])
        if len(parts) != size:
            raise ParseError(f"expected {size} values in {what} row, got {len(parts)}", line=ln + 1)
        # Finite decimals: float() would also take "1_0", "nan" and "inf".
        if not all(_DECIMAL.fullmatch(p) for p in parts):
            raise ParseError(f"non-numeric value in {what} matrix", line=ln + 1)
        mat[r] = [float(p) for p in parts]
        if not np.isfinite(mat[r]).all():
            raise ParseError(f"non-finite value in {what} matrix", line=ln + 1)
    return mat, _content(lines, start + size)


def read_cam(text: str) -> Camera:
    lines = _text_lines(text)
    E, _ = _parse_matrix(lines, "extrinsic", 4)
    K, depth_row = _parse_matrix(lines, "intrinsic", 3)
    if depth_row >= len(lines):
        raise ParseError("missing depth range line", line=len(lines))
    parts = _fields(lines[depth_row])
    if len(parts) < 2:
        raise ParseError("depth range line needs 'depth_min depth_interval'", line=depth_row + 1)
    # Further tokens are not read: DTU cameras carry four.
    if not all(_DECIMAL.fullmatch(p) for p in parts[:2]):
        raise ParseError("non-numeric depth range values", line=depth_row + 1)
    depth_min, depth_interval = float(parts[0]), float(parts[1])
    if not (math.isfinite(depth_min) and math.isfinite(depth_interval)):
        raise ParseError("non-finite depth range values", line=depth_row + 1)
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
# Coordinates that read as floats but are not decimals: rejected by the
# finiteness rule, as a NaN or infinite decimal such as 1e999 is.
_NON_FINITE = re.compile(r"[+-]?(?:nan|inf(?:inity)?)", re.IGNORECASE)
_NOT_FINITE = "point coordinates must be finite"


def _ply_record(has_rgb: bool) -> np.dtype:
    """A binary vertex record: float32 x, y, z, then uchar red, green, blue when the layout has colour."""
    return np.dtype([("xyz", "<f4", (3,))] + ([("rgb", "u1", (3,))] if has_rgb else []))


class _PlyFile(_OpenedFile):
    """A PLY point cloud read (made by open_ply and read_ply) into float64 points, and colours when asked.

    A binary body is read one band of records at a time (the vertices as
    the rows of reproject._bands' N x 1 frame), each band one read into
    the reader's reused byte buffer (_buffer), and the band's xyz are
    widened straight into the float64 points, checked finite; its colours
    are copied only for read_ply.  No bytes object or record view of the
    whole file is made.  An ASCII body's length is not in its header: it
    is read whole, as long as the source is now.
    """

    _kind = "PLY"

    def _header(self, size: int):
        """Parse the header, which ends at its `end_header` line; check a binary payload's size."""
        text, pos = self._line(0)
        if text != "ply":
            raise ParseError("bad PLY magic", line=1)
        fmt = count = None
        props = []
        n = 1
        while True:
            ln, pos = self._line(pos)
            n += 1
            if ln == "end_header":
                break
            parts = _fields(ln)
            if not parts or parts[0] == "comment":
                continue
            if {"format": fmt, "element": count}.get(parts[0]) is not None:
                raise ParseError(f"repeated PLY {parts[0]} line {ln!r}", line=n)
            if parts[0] == "format":
                if len(parts) != 3 or parts[1] not in ("ascii", "binary_little_endian"):
                    raise ParseError(f"unsupported PLY format line {ln!r}", line=n)
                fmt = parts[1]
            elif parts[0] == "element":
                if len(parts) != 3 or parts[1] != "vertex":
                    raise ParseError(f"unsupported PLY element {ln!r}", line=n)
                # ASCII digits only, as _dims; a minus sign passes here to be
                # reported as negative.
                if not _DIGITS.fullmatch(parts[2]):
                    raise ParseError(f"bad vertex count in {ln!r}", line=n)
                count = int(parts[2])
                if count < 0:
                    raise ParseError(f"negative vertex count {count}", line=n)
            elif parts[0] == "property":
                if len(parts) != 3:
                    raise ParseError(f"bad property line {ln!r}", line=n)
                props.append((parts[1], parts[2]))
            else:
                raise ParseError(f"unrecognized PLY header line {ln!r}", line=n)
        if fmt is None:
            raise ParseError("missing PLY format line", line=1)
        if count is None:
            raise ParseError("missing PLY vertex element", line=1)
        names = tuple(name for _, name in props)
        types = tuple(tp for tp, _ in props)
        if names not in (_PLY_XYZ, _PLY_XYZ + _PLY_RGB):
            raise ParseError(f"unsupported PLY property layout {names!r}", line=1)
        self._rgb = len(names) == 6
        if types != ("float",) * 3 + ("uchar",) * (len(names) - 3):
            raise ParseError(f"unsupported PLY property types {types!r}", line=1)
        self._binary = fmt == "binary_little_endian"
        self._count, self._pos, self._lines = count, pos, n
        if self._binary:
            expected = _ply_record(self._rgb).itemsize * count
            if size - pos != expected:
                raise ParseError(f"PLY payload size mismatch: expected {expected} bytes, got {size - pos}", offset=pos)

    def points(self) -> np.ndarray:
        """The (N, 3) float64 points, the bits of read_ply's, or its ParseError; no colour is read."""
        return self._cloud(colors=False)[0]

    def _cloud(self, colors: bool):
        """The float64 points and, with colors, the uint8 colours (None for a layout without)."""
        if not self._binary:
            return self._ascii()
        record = _ply_record(self._rgb)
        points = np.empty((self._count, 3))
        rgb = np.empty((self._count, 3), np.uint8) if colors and self._rgb else None
        for rows, *_ in _bands((self._count, 1)):
            band = self._buffer("records", (rows.stop - rows.start) * record.itemsize, np.uint8)
            offset = self._pos + rows.start * record.itemsize
            self._read(band, offset)
            records = band.view(record)
            finite = np.isfinite(records["xyz"]).all(axis=1)
            if not finite.all():
                raise ParseError(_NOT_FINITE, offset=offset + int(np.argmin(finite)) * record.itemsize)
            points[rows] = records["xyz"]
            if rgb is not None:
                rgb[rows] = records["rgb"]
        return points, rgb

    def _ascii(self):
        """The float64 points and uint8 colours (None without) of an ASCII body.

        Rows are the body's _text_lines.  Each holds x y z
        (decimals) and, with colour, red green blue (ASCII digits, 0-255).
        A fault is reported at its vertex's line: the first malformed row,
        else the first with a coordinate that is not finite.
        """
        body = self._buffer("body", max(self._size() - self._pos, 0), np.uint8)
        self._read(body, self._pos)
        rows = _text_lines(str(body, "latin-1"))
        count, lines = self._count, self._lines
        if len(rows) != count:
            raise ParseError(
                f"PLY vertex count mismatch: header says {count}, body has {len(rows)} rows",
                line=lines + min(count, len(rows)) + 1,
            )
        width = 6 if self._rgb else 3
        points = np.zeros((count, 3))
        colors = np.zeros((count, 3), dtype=np.uint8) if self._rgb else None
        for i, row in enumerate(rows):
            parts = _fields(row)
            if len(parts) != width:
                raise ParseError(f"expected {width} vertex fields, got {len(parts)}", line=lines + i + 1)
            # float() would also take "1_0", int() "+1" and "1_0".
            if not (all(_DECIMAL.fullmatch(p) or _NON_FINITE.fullmatch(p) for p in parts[:3])
                    and all(_DIGITS.fullmatch(p) for p in parts[3:])):
                raise ParseError("non-numeric vertex field", line=lines + i + 1)
            points[i] = [float(p) for p in parts[:3]]
            if colors is not None:
                rgb = [int(p) for p in parts[3:]]
                if not all(0 <= c <= 255 for c in rgb):
                    raise ParseError(f"vertex colour outside 0-255 in {row!r}", line=lines + i + 1)
                colors[i] = rgb
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            raise ParseError(_NOT_FINITE, line=lines + int(np.argmin(finite)) + 1)
        return points, colors


def read_ply(data: bytes) -> PointCloud:
    """The point cloud in data, colours and all, decoded by the reader open_ply uses (_PlyFile)."""
    return PointCloud(*_PlyFile(data=data)._cloud(colors=True))


def open_ply(path) -> _PlyFile:
    """Open a PLY point cloud to read its points; close it (or use `with`) after.

    The header is parsed, and a binary payload's size checked, now, with
    read_ply's messages and locations; no payload byte is read until
    points() is called.  The file must not change meanwhile.
    """
    return _PlyFile(path)


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
            arr = np.empty(n, dtype=_ply_record(True))
            arr["xyz"], arr["rgb"] = xyz, cloud.colors
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


class _VolumeFile(_OpenedFile):
    """A probability volume reader: the header parser of both volume readers, and the loss's band reader of a file.

    Made by open_probability_volume, which the loss reads one row band at
    a time, and by read_probability_volume, which parses the header
    through it and views the payload in place.  _band(rows) reads the
    band's probabilities, bin by bin, straight into the reader's reused
    (D, rows, W) block (_buffer), and returns them with slab(k), bin k's
    hypotheses: per pixel, slab(k) reads the band's bin-k slab into one
    of the reader's two reused slabs, as the scoring loop reaches that
    bin; shared hypotheses are read at the first band and kept.  So each
    payload byte is read once and the file is never mapped or held whole.
    A band the volume rules reject raises the ParseError that
    read_probability_volume gives for the same bytes; so does a file that
    shrinks while it is read.
    """

    _kind = "probability volume"
    _dtype = np.dtype("<f4")

    def _header(self, size: int):
        magic, pos = self._line(0)
        if magic != "PROBVOL":
            raise ParseError(f"bad probability volume magic {magic!r}", offset=0)
        (d, h, w), layout_pos = self._dims(pos, "D H W", "volume")
        layout, pos = self._line(layout_pos)
        if layout not in ("shared", "perpixel"):
            raise ParseError(f"unknown hypothesis layout {layout!r}", offset=layout_pos)
        self.shape = (d, h, w)
        self._perpixel = layout == "perpixel"
        self._pos, self._probs_pos = pos, pos + 4 * (d * h * w if self._perpixel else d)
        expected = self._probs_pos - pos + 4 * d * h * w
        if size - pos != expected:
            raise ParseError(
                f"probability volume payload size mismatch: expected {expected} bytes, got {size - pos}",
                offset=pos,
            )

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
        """The error of a volume whose values break the rules, at its payload offset."""
        return ParseError(f"invalid probability volume: {exc}", offset=self._pos)


def read_probability_volume(data: bytes) -> ProbabilityVolume:
    """The volume in data, as read-only float32 views of it, every value checked; its header parsed by _VolumeFile."""
    vol = _VolumeFile(data=data)
    hyp, probs = np.split(np.frombuffer(data, dtype="<f4", offset=vol._pos), [(vol._probs_pos - vol._pos) // 4])
    try:
        return ProbabilityVolume._of_views(probs.reshape(vol.shape), hyp.reshape(vol.shape) if vol._perpixel else hyp)
    except ValueError as exc:
        raise vol._rejected(exc) from None


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
