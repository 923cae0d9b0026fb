import numpy as np
import pytest

from mvsgeo.camera import Camera
from mvsgeo.formats import (
    ParseError,
    PfmImage,
    depth_from_pfm,
    read_cam,
    read_pfm,
    read_ply,
    read_probability_volume,
    write_cam,
    write_pfm,
    write_ply,
    write_probability_volume,
)
from mvsgeo.fusion import PointCloud
from mvsgeo.loss import ProbabilityVolume

from conftest import random_camera


# ---------------------------------------------------------------------------
# PFM
# ---------------------------------------------------------------------------


def test_pfm_single_pixel():
    data = b"Pf\n1 1\n-1.0\n" + np.float32(0.0).tobytes()
    img = read_pfm(data)
    assert img.width == 1 and img.height == 1 and img.channels == 1
    assert img.data[0, 0] == 0.0


def test_pfm_round_trip_values(rng):
    img = PfmImage(rng.normal(size=(16, 16)).astype(np.float32))
    out = read_pfm(write_pfm(img))
    assert np.array_equal(out.data, img.data)


def test_pfm_bottom_up_row_order():
    # Rows [r0; r1] must store r1 first in the payload (a third-party
    # bottom-up sample reduced to 1x2).
    img = PfmImage(np.array([[1.0], [2.0]], dtype=np.float32))
    payload = write_pfm(img).split(b"\n", 3)[3]
    first, second = np.frombuffer(payload, dtype="<f4")
    assert (first, second) == (2.0, 1.0)
    # and a canonical hand-built file reads back in top-down order
    data = b"Pf\n1 2\n-1.0\n" + np.array([9.0, 7.0], dtype="<f4").tobytes()
    assert read_pfm(data).data.tolist() == [[7.0], [9.0]]


def test_pfm_big_endian_scale():
    payload = np.array([3.5, 1.25], dtype=">f4").tobytes()
    img = read_pfm(b"Pf\n2 1\n1.0\n" + payload)
    assert img.data.tolist() == [[3.5, 1.25]]


def test_pfm_color_round_trip(rng):
    img = PfmImage(rng.random((8, 5, 3)).astype(np.float32))
    out = read_pfm(write_pfm(img))
    assert out.channels == 3
    assert np.array_equal(out.data, img.data)


def test_pfm_write_read_write_byte_stable(rng):
    for _ in range(100):
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        img = PfmImage(rng.normal(size=(h, w)).astype(np.float32))
        b1 = write_pfm(img)
        b2 = write_pfm(read_pfm(b1))
        assert b1 == b2


@pytest.mark.parametrize("shape", [(7, 5), (7, 5, 3), (1, 1), (1, 4, 3)])
def test_pfm_writer_emits_header_then_rows_bottom_first(rng, shape):
    # The header, then the little-endian float32 rows bottom first: the
    # bytes of header + np.flipud(data).astype("<f4").tobytes().
    data = rng.normal(size=shape).astype(np.float32)
    magic = b"PF" if len(shape) == 3 else b"Pf"
    want = magic + f"\n{shape[1]} {shape[0]}\n-1.0\n".encode() + np.flipud(data).astype("<f4").tobytes()
    assert bytes(write_pfm(PfmImage(data))) == want


@pytest.mark.parametrize("shape", [(256, 320), (128, 160, 3)])
def test_pfm_writer_holds_the_payload_once(rng, shape):
    import tracemalloc

    img = PfmImage(rng.normal(size=shape).astype(np.float32))
    payload = img.data.nbytes
    write_pfm(img)  # first-call allocations
    tracemalloc.start()
    try:
        data = write_pfm(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    header = len(data) - payload
    assert peak <= 1.1 * payload + header, (peak, payload)


def test_depth_pfm_helpers(rng):
    values = np.where(rng.random((6, 7)) > 0.3, rng.uniform(1, 5, (6, 7)), 0.0).astype(np.float32)
    depth = depth_from_pfm(PfmImage(values))
    assert np.array_equal(depth.valid, values > 0)
    out = PfmImage(depth.values.astype(np.float32))
    assert np.array_equal(out.data, values)
    with pytest.raises(ValueError, match="single-channel"):
        depth_from_pfm(PfmImage(np.zeros((2, 2, 3), dtype=np.float32)))


PFM_MALFORMED = [
    b"",                                              # empty
    b"P5\n1 1\n-1.0\n" + b"\x00" * 4,                  # wrong magic
    b"Pf\n1 1\n",                                      # missing scale line
    b"Pf\n1\n-1.0\n" + b"\x00" * 4,                    # one dimension
    b"Pf\nx y\n-1.0\n" + b"\x00" * 4,                  # non-integer dims
    b"Pf\n0 4\n-1.0\n",                                # zero width
    b"Pf\n-2 4\n-1.0\n" + b"\x00" * 32,                # negative width
    b"Pf\n1 1\n0\n" + b"\x00" * 4,                     # zero scale
    b"Pf\n1 1\nabc\n" + b"\x00" * 4,                   # non-numeric scale
    b"Pf\n2 2\n-1.0\n" + b"\x00" * 8,                  # truncated payload
    b"Pf\n1 1\n-1.0\n" + b"\x00" * 12,                 # trailing bytes
    b"Pf 1 1 -1.0 ",                                   # header never terminated
    b"Pf\n1_0 1\n-1.0\n" + b"\x00" * 40,               # int() would read 10
    b"Pf\n+1 1\n-1.0\n" + b"\x00" * 4,                  # int() would read 1
    b"Pf\n1 1\n-nan\n" + b"\x00" * 4,                   # NaN scale
    b"Pf\n1 1\n1e999\n" + b"\x00" * 4,                  # scale overflows to inf
]


@pytest.mark.parametrize("data", PFM_MALFORMED)
def test_pfm_malformed_rejected_with_location(data):
    with pytest.raises(ParseError, match="offset"):
        read_pfm(data)


@pytest.mark.parametrize("read, data, message", [
    (read_pfm, b"Pf\n1\n-1.0\n", "expected 'width height', got '1' (byte offset 3)"),
    (read_pfm, b"Pf\nx y\n-1.0\n", "non-integer PFM dimensions 'x y' (byte offset 3)"),
    (read_pfm, b"Pf\n0 4\n-1.0\n", "non-positive PFM dimensions '0 4' (byte offset 3)"),
    (read_pfm, b"Pf\n1_0 1\n-1.0\n" + b"\x00" * 40, "non-integer PFM dimensions '1_0 1' (byte offset 3)"),
    (read_pfm, b"Pf\n+1 1\n-1.0\n" + b"\x00" * 4, "non-integer PFM dimensions '+1 1' (byte offset 3)"),
    (read_probability_volume, b"PROBVOL\n2 1\nshared\n", "expected 'D H W', got '2 1' (byte offset 8)"),
    (read_probability_volume, b"PROBVOL\nx 1 1\nshared\n", "non-integer volume dimensions 'x 1 1' (byte offset 8)"),
    (read_probability_volume, b"PROBVOL\n2 -1 1\nshared\n", "non-positive volume dimensions '2 -1 1' (byte offset 8)"),
    (read_probability_volume, b"PROBVOL\n1_0 1 1\nshared\n" + b"\x00" * 80,
     "non-integer volume dimensions '1_0 1 1' (byte offset 8)"),
    (read_probability_volume, b"PROBVOL\n+2 1 1\nshared\n" + b"\x00" * 16,
     "non-integer volume dimensions '+2 1 1' (byte offset 8)"),
])
def test_pfm_and_volume_dimension_lines_are_rejected_alike(read, data, message):
    # One dimensions parser: the same three checks, worded alike, at the
    # offset where the line starts.  A dimension is ASCII digits: int()
    # alone took "1_0" as 10 and "+1" as 1, and the payloads here are
    # sized to match those readings.
    with pytest.raises(ParseError) as exc:
        read(data)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# cam.txt
# ---------------------------------------------------------------------------


def test_cam_identity_file():
    text = (
        "extrinsic\n"
        "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\n"
        "intrinsic\n"
        "400 0 80\n0 400 60\n0 0 1\n\n"
        "425 2.5\n"
    )
    cam = read_cam(text)
    assert np.array_equal(cam.E, np.eye(4))
    assert cam.K[0, 0] == 400 and cam.K[0, 2] == 80
    assert cam.depth_min == 425.0 and cam.depth_interval == 2.5


def test_cam_round_trip_random(rng):
    for _ in range(100):
        cam = random_camera(rng)
        out = read_cam(write_cam(cam))
        assert np.abs(out.K - cam.K).max() < 1e-6
        assert np.abs(out.E - cam.E).max() < 1e-6
        assert out.depth_min == pytest.approx(cam.depth_min, rel=1e-12)
        assert out.depth_interval == pytest.approx(cam.depth_interval, rel=1e-12)


def test_cam_write_read_exact(rng):
    # repr-format floats survive the text round trip bit-exactly
    cam = random_camera(rng)
    out = read_cam(write_cam(cam))
    assert np.array_equal(out.K, cam.K)
    assert np.array_equal(out.E, cam.E)


def test_cam_sloppy_rotation_warns_but_parses():
    E = np.eye(4)
    E[0, 1] = 5e-3
    text = write_cam(Camera(K=np.array([[400.0, 0, 80], [0, 400.0, 60], [0, 0, 1.0]]), E=E))
    with pytest.warns(UserWarning, match="fails validation"):
        cam = read_cam(text)
    assert cam.E[0, 1] == 5e-3


CAM_MALFORMED = [
    "",                                                           # empty
    "intrinsic\n400 0 80\n0 400 60\n0 0 1\n\n425 2.5\n",           # missing extrinsic
    "extrinsic\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\n425 2.5\n",  # missing intrinsic
    "extrinsic\n1 0 0 0\n0 1 0 0\n0 0 1 0\n\nintrinsic\n400 0 80\n0 400 60\n0 0 1\n\n425 2.5\n",  # short matrix
    "extrinsic\n1 0 0 0\n0 1 0 x\n0 0 1 0\n0 0 0 1\n\nintrinsic\n400 0 80\n0 400 60\n0 0 1\n\n425 2.5\n",  # non-numeric
    "extrinsic\n1 0 0\n0 1 0\n0 0 1\n0 0 0\n\nintrinsic\n400 0 80\n0 400 60\n0 0 1\n\n425 2.5\n",  # wrong row width
    "extrinsic\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\nintrinsic\n400 0 80\n0 400 60\n0 0 1\n",  # missing depth line
    "extrinsic\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\nintrinsic\n400 0 80\n0 400 60\n0 0 1\n\n425\n",  # one depth value
    "extrinsic\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\nintrinsic\n400 0 80\n0 400 60\n0 0 1\n\nfoo bar\n",  # bad depth values
    "extrinsic\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\nintrinsic\n400 0 80\n0 400 60\n0 0 1\n\n-5 2.5\n",  # invalid camera
    "extrinsic\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\nintrinsic\n400 1e9 80\n2 400 60\n0 0 1\n\n425 2.5\n",  # K not upper-tri
    "extrinsic\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\nintrinsic\n400 0 80\n0 400 60\n",  # truncated matrix
    "extrinsic\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\nintrinsic\n400 0 80\n0 400 60\n0 0 2\n\n425 2.5\n",  # K[2][2] != 1
    "extrinsic\n1 0 0 0\n0 1 0 inf\n0 0 1 0\n0 0 0 1\n\nintrinsic\n400 0 80\n0 400 60\n0 0 1\n\n425 2.5\n",  # non-finite
]


@pytest.mark.parametrize("text", CAM_MALFORMED)
def test_cam_malformed_rejected_with_location(text):
    with pytest.raises(ParseError, match="line"):
        read_cam(text)


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------


def random_cloud(rng, n, colors):
    pts = rng.normal(scale=100.0, size=(n, 3)).astype(np.float32).astype(np.float64)
    cols = rng.integers(0, 256, size=(n, 3), dtype=np.uint8) if colors else None
    return PointCloud(points=pts, colors=cols)


@pytest.mark.parametrize("binary", [True, False])
def test_ply_round_trip_randomized(rng, binary):
    for _ in range(50):
        cloud = random_cloud(rng, int(rng.integers(0, 40)), colors=bool(rng.integers(0, 2)))
        data = write_ply(cloud, binary=binary)
        out = read_ply(data)
        assert np.array_equal(out.points, cloud.points)
        if cloud.colors is None:
            assert out.colors is None
        else:
            assert np.array_equal(out.colors, cloud.colors)
        assert write_ply(out, binary=binary) == data


def test_ply_ascii_and_binary_agree(rng):
    cloud = random_cloud(rng, 25, colors=True)
    a = read_ply(write_ply(cloud, binary=False))
    b = read_ply(write_ply(cloud, binary=True))
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.colors, b.colors)


PLY_MALFORMED = [
    b"",                                                                      # empty
    b"ply\nformat binary_little_endian 1.0\nelement vertex 1\nproperty float x\nproperty float y\nproperty float z\n",  # no end_header
    b"off\nformat ascii 1.0\nelement vertex 0\nproperty float x\nproperty float y\nproperty float z\nend_header\n",      # bad magic
    b"ply\nformat binary_big_endian 1.0\nelement vertex 0\nproperty float x\nproperty float y\nproperty float z\nend_header\n",  # unsupported format
    b"ply\nformat ascii 1.0\nelement face 1\nproperty float x\nproperty float y\nproperty float z\nend_header\n",        # unsupported element
    b"ply\nformat ascii 1.0\nelement vertex -1\nproperty float x\nproperty float y\nproperty float z\nend_header\n",     # negative count
    b"ply\nformat ascii 1.0\nelement vertex x\nproperty float x\nproperty float y\nproperty float z\nend_header\n",      # bad count
    b"ply\nformat ascii 1.0\nelement vertex 0\nproperty float a\nproperty float b\nproperty float c\nend_header\n",      # wrong layout
    b"ply\nformat ascii 1.0\nelement vertex 0\nproperty double x\nproperty double y\nproperty double z\nend_header\n",   # wrong type
    b"ply\nelement vertex 0\nproperty float x\nproperty float y\nproperty float z\nend_header\n",                        # missing format
    b"ply\nformat ascii 1.0\nproperty float x\nproperty float y\nproperty float z\nend_header\n",                        # missing element
    b"ply\nformat binary_little_endian 1.0\nelement vertex 2\nproperty float x\nproperty float y\nproperty float z\nend_header\n" + b"\x00" * 12,  # truncated payload
    b"ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\nproperty float z\nend_header\n1 2 3\n",  # row count mismatch
    b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nproperty float y\nproperty float z\nend_header\n1 2\n",    # short row
    b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nproperty float y\nproperty float z\nend_header\n1 2 z\n",  # non-numeric row
    b"ply\nformat ascii 1.0\nelement vertex 0\nproperty float\nproperty float y\nproperty float z\nend_header\n",  # bad property line
    b"ply\nformat ascii 1.0\nobj_info scanner\nelement vertex 0\nproperty float x\nproperty float y\nproperty float z\nend_header\n",  # unknown line
]


_PLY_XYZ_PROPS = b"property float x\nproperty float y\nproperty float z\n"


def _ply(fmt, count, body, rgb=False):
    """A PLY file of the given format line word, vertex count text and body bytes."""
    props = _PLY_XYZ_PROPS + (b"property uchar red\nproperty uchar green\nproperty uchar blue\n" if rgb else b"")
    return b"ply\nformat " + fmt + b" 1.0\nelement vertex " + count + b"\n" + props + b"end_header\n" + body


# Numbers the PLY grammar rejects, each at its line: a vertex count and a
# colour are ASCII digits (a colour 0-255), a coordinate is a decimal.
# float() and int() took the first three, and a colour of 300 or -1
# raised numpy's OverflowError.
PLY_BAD_NUMBERS = {
    "signed count": (_ply(b"ascii", b"+1", b"1 2 3\n"), "bad vertex count in 'element vertex +1' (line 3)"),
    "count with an underscore": (_ply(b"binary_little_endian", b"1_0", b"\x00" * 120),
                                 "bad vertex count in 'element vertex 1_0' (line 3)"),
    "coordinate with an underscore": (_ply(b"ascii", b"1", b"1_0 +2 3\n"), "non-numeric vertex field (line 8)"),
    "colour above 255": (_ply(b"ascii", b"2", b"1 2 3 0 0 0\n1 2 3 0 300 0\n", rgb=True),
                         "vertex colour outside 0-255 in '1 2 3 0 300 0' (line 12)"),
    "negative colour": (_ply(b"ascii", b"1", b"1 2 3 -1 0 0\n", rgb=True),
                        "vertex colour outside 0-255 in '1 2 3 -1 0 0' (line 11)"),
    "signed colour": (_ply(b"ascii", b"1", b"1 2 3 +1 0 0\n", rgb=True), "non-numeric vertex field (line 11)"),
    "decimal colour": (_ply(b"ascii", b"1", b"1 2 3 1.0 0 0\n", rgb=True), "non-numeric vertex field (line 11)"),
    "hexadecimal coordinate": (_ply(b"ascii", b"1", b"0x1 2 3\n"), "non-numeric vertex field (line 8)"),
    # A header line is at most 256 bytes, its newline included, as PFM's.
    "long header line": (b"ply\ncomment " + b"x" * 248 + b"\n" + _ply(b"ascii", b"0", b"")[4:],
                         "PLY header line longer than 256 bytes (byte offset 4)"),
}
PLY_MALFORMED += [data for data, _ in PLY_BAD_NUMBERS.values()]


@pytest.mark.parametrize("data, message", PLY_BAD_NUMBERS.values(), ids=PLY_BAD_NUMBERS.keys())
def test_ply_numbers_follow_the_grammar(data, message):
    with pytest.raises(ParseError) as exc:
        read_ply(data)
    assert str(exc.value) == message


def test_ply_accepts_every_decimal_form_and_the_colour_range():
    data = _ply(b"ascii", b"00004", b"1. .5 -2e3\n+1E-2 0 7\n-0 1.5e+1 3\n0009 4 5\n")
    assert read_ply(data).points.tolist() == [[1.0, 0.5, -2e3], [0.01, 0, 7], [0, 15, 3], [9, 4, 5]]
    rgb = _ply(b"ascii", b"2", b"1 2 3 0 255 007\n1 2 3 255 0 0\n", rgb=True)
    assert read_ply(rgb).colors.tolist() == [[0, 255, 7], [255, 0, 0]]


@pytest.mark.parametrize("data", PLY_MALFORMED)
def test_ply_malformed_rejected_with_location(data):
    with pytest.raises(ParseError, match="line|offset"):
        read_ply(data)


@pytest.mark.parametrize("binary", [True, False])
def test_ply_non_finite_coordinate_is_a_parse_error_at_its_vertex(binary):
    # The third vertex's y is NaN, the fourth's z +inf.  An ASCII file
    # names the third vertex's line (7 header lines, then vertices 1-3);
    # a binary one the third 12-byte record's offset.
    points = np.array([[1, 2, 3], [4, 5, 6], [7, np.nan, 9], [1, 1, np.inf]])
    data = write_ply(PointCloud(points=np.zeros((4, 3))), binary=binary)
    head = data[:data.index(b"end_header\n") + len(b"end_header\n")]
    if binary:
        data, where = head + points.astype("<f4").tobytes(), f"byte offset {len(head) + 2 * 12}"
    else:
        data, where = head + b"".join(b"%r %r %r\n" % tuple(p) for p in points.tolist()), "line 10"
    with pytest.raises(ParseError) as exc:
        read_ply(data)
    assert str(exc.value) == f"point coordinates must be finite ({where})"


@pytest.mark.parametrize("binary", [True, False])
def test_ply_header_comments_are_skipped(rng, binary):
    data = write_ply(random_cloud(rng, 5, colors=True), binary=binary)
    head, body = data.split(b"end_header\n")
    lines = head.split(b"\n")
    commented = b"\n".join([lines[0], b"comment written by hand", *lines[1:3], b"comment  two  spaces",
                            *lines[3:]]) + b"end_header\n" + body
    plain, got = read_ply(data), read_ply(commented)
    assert np.array_equal(got.points, plain.points) and np.array_equal(got.colors, plain.colors)


# ---------------------------------------------------------------------------
# probability volume
# ---------------------------------------------------------------------------


def random_volume(rng, perpixel=False):
    d, h, w = int(rng.integers(2, 7)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
    raw = rng.random((d, h, w)).astype(np.float32).astype(np.float64) + 0.01
    probs = raw / raw.sum(axis=0, keepdims=True)
    probs = probs.astype(np.float32).astype(np.float64)
    if perpixel:
        hyp = np.cumsum(rng.uniform(1, 4, size=(d, h, w)), axis=0)
    else:
        hyp = np.cumsum(rng.uniform(1, 4, size=d))
    hyp = hyp.astype(np.float32).astype(np.float64)
    return ProbabilityVolume(probs=probs, hypotheses=hyp)


@pytest.mark.parametrize("perpixel", [False, True])
def test_probability_volume_round_trip(rng, perpixel):
    for _ in range(50):
        vol = random_volume(rng, perpixel)
        data = write_probability_volume(vol)
        out = read_probability_volume(data)
        assert np.array_equal(out.probs, vol.probs)
        assert np.array_equal(out.hypotheses, vol.hypotheses)
        assert write_probability_volume(out) == data


@pytest.mark.parametrize("perpixel", [False, True])
def test_probability_volume_reads_read_only_float32_views(rng, perpixel):
    data = write_probability_volume(random_volume(rng, perpixel))
    vol = read_probability_volume(data)
    raw = np.frombuffer(data, dtype=np.uint8)
    for arr in (vol.probs, vol.hypotheses):
        assert arr.dtype == np.float32
        assert not arr.flags.writeable
        assert np.shares_memory(arr, raw)
    # the public constructor still converts to float64
    assert ProbabilityVolume(vol.probs, vol.hypotheses).probs.dtype == np.float64


PROBVOL_MALFORMED = [
    b"",                                          # empty
    b"NOTPROB\n2 1 1\nshared\n" + b"\x00" * 16,    # bad magic
    b"PROBVOL\n2 1\nshared\n" + b"\x00" * 16,      # two dims
    b"PROBVOL\nx 1 1\nshared\n" + b"\x00" * 16,    # non-integer dim
    b"PROBVOL\n0 1 1\nshared\n",                   # zero dim
    b"PROBVOL\n-2 1 1\nshared\n" + b"\x00" * 16,   # negative dim
    b"PROBVOL\n1_0 1 1\nshared\n" + b"\x00" * 80,  # int() would read 10
    b"PROBVOL\n+2 1 1\nshared\n" + b"\x00" * 16,   # int() would read 2
    b"PROBVOL\n2 1 1\nbanana\n" + b"\x00" * 16,    # unknown layout
    b"PROBVOL\n2 1 1\nshared\n" + b"\x00" * 12,    # truncated payload
    b"PROBVOL\n2 1 1\nshared\n" + b"\x00" * 20,    # oversized payload
    b"PROBVOL\n2 1 1\nshared",                     # header never terminated
    b"PROBVOL\n2 1 1" + b" " * 251 + b"\nshared\n" + b"\x00" * 16,  # header line over 256 bytes
    b"PROBVOL\n2 1 1\nshared\n" + np.array([2.0, 1.0, 0.5, 0.5], dtype="<f4").tobytes(),  # hypotheses not increasing
    b"PROBVOL\n2 1 1\nshared\n" + np.array([1.0, 2.0, np.nan, 0.5], dtype="<f4").tobytes(),  # NaN probability
    b"PROBVOL\n2 1 1\nshared\n" + np.array([1.0, np.inf, 0.5, 0.5], dtype="<f4").tobytes(),  # +inf hypothesis
    b"PROBVOL\n2 1 1\nshared\n" + np.array([np.nan, 1.0, 0.5, 0.5], dtype="<f4").tobytes(),  # NaN hypothesis
]


@pytest.mark.parametrize("data", PROBVOL_MALFORMED)
def test_probvol_malformed_rejected_with_location(data):
    with pytest.raises(ParseError, match="offset"):
        read_probability_volume(data)


@pytest.mark.parametrize("data, offset", [(b"", 0), (b"PROBVOL\n2 1 1", 8), (b"PROBVOL\n2 1 1\nshared", 14)],
                         ids=["empty", "dims", "layout"])
def test_probvol_unterminated_header_is_named_a_volume_header(data, offset):
    # A header line cut short by the end of the file is a volume header
    # fault, at the offset where the unterminated line starts.
    with pytest.raises(ParseError, match=rf"^truncated probability volume header \(byte offset {offset}\)$"):
        read_probability_volume(data)
