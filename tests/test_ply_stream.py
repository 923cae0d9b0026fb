"""eval-pc's cloud reader: formats.open_ply.

An opened PLY gives read_ply's points, bit for bit, for ASCII, binary
and coloured clouds, and both give the bits of the grammar's oracle
parser (tests/oracles.py); it rejects every file read_ply and the oracle
reject, with read_ply's message and location, also one cut short after
it was opened.  A binary body is read band by band straight into the
float64 points, so the read holds the points, one band of records and
little else: no copy of the file.  `eval-pc` reads both clouds through
it and checks --max-dist before it reads either.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest

from mvsgeo import formats, reproject
from mvsgeo.cli import main
from mvsgeo.formats import ParseError, open_ply, read_ply, write_ply
from mvsgeo.fusion import PointCloud
from mvsgeo.metrics import evaluate_point_clouds

from oracles import oracle_ply
from test_formats import PLY_MALFORMED, random_cloud


# Bands of 7 vertices: a 19-vertex cloud spans three, the last one short.
BAND = 7


@pytest.fixture
def small_bands(monkeypatch):
    monkeypatch.setattr(reproject, "_BAND_PIXELS", BAND)


def _points_of(path):
    with open_ply(path) as ply:
        return ply.points()


def _rejections(tmp_path, data):
    """The ParseErrors of read_ply(data) and of open_ply on a file of data, or None for a reader that accepts it."""
    path = tmp_path / "cloud.ply"
    path.write_bytes(data)
    errors = []
    for read in (lambda: read_ply(data), lambda: _points_of(path)):
        try:
            read()
        except ParseError as exc:
            errors.append(exc)
        else:
            errors.append(None)
    return errors


@pytest.mark.parametrize("data", PLY_MALFORMED)
def test_open_ply_rejects_a_malformed_file_as_read_ply_does(tmp_path, data):
    by_bytes, by_file = _rejections(tmp_path, data)
    assert oracle_ply(data) is None
    assert by_bytes is not None and by_file is not None
    assert str(by_file) == str(by_bytes)
    assert (by_file.line, by_file.offset) == (by_bytes.line, by_bytes.offset)


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("colors", [False, True])
def test_open_ply_reads_read_plys_bits(tmp_path, rng, small_bands, binary, colors):
    # Empty, one-band and multi-band clouds.
    path = tmp_path / "cloud.ply"
    for n in (0, 1, BAND, BAND + 1, 2 * BAND + 5):
        data = write_ply(random_cloud(rng, n, colors), binary=binary)
        path.write_bytes(data)
        points = _points_of(path)
        want = read_ply(data).points
        oracle_points, oracle_colors = oracle_ply(data)
        assert want.tobytes() == oracle_points.tobytes()
        assert np.array_equal(read_ply(data).colors, oracle_colors) if colors else oracle_colors is None
        assert points.dtype == np.float64 and points.shape == (n, 3)
        assert points.tobytes() == want.tobytes()


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("colors", [False, True])
def test_a_non_finite_coordinate_is_rejected_alike_in_any_band(tmp_path, rng, small_bands, binary, colors):
    # The first vertex that is not finite is named, in the first band, at
    # a band's edges and in the last band; a later one is not.
    n = 2 * BAND + 5
    cloud = random_cloud(rng, n, colors)
    data = write_ply(cloud, binary=binary)
    head = data[:data.index(b"end_header\n") + len(b"end_header\n")]
    for bad in (0, BAND - 1, BAND, n - 1):
        points = cloud.points.copy()
        points[bad, bad % 3] = (np.nan, np.inf, -np.inf)[bad % 3]
        points[-1, 0] = np.nan
        if binary:
            records = np.zeros(n, formats._ply_record(colors))
            records["xyz"] = points
            if colors:
                records["rgb"] = cloud.colors
            body = records.tobytes()
        else:
            rgb = cloud.colors if colors else np.zeros((n, 0), np.uint8)
            body = b"".join(b" ".join([b"%r" % float(v) for v in p] + [b"%d" % c for c in k]) + b"\n"
                            for p, k in zip(points.astype(np.float32).tolist(), rgb.tolist()))
        by_bytes, by_file = _rejections(tmp_path, head + body)
        assert oracle_ply(head + body) is None
        assert str(by_file) == str(by_bytes) and by_bytes.args[0].startswith("point coordinates must be finite")
        if binary:
            assert by_file.offset == len(head) + bad * (15 if colors else 12)
        else:
            assert by_file.line == head.count(b"\n") + bad + 1


def test_random_mutations_are_read_or_rejected_alike(tmp_path, rng):
    # Byte flips and truncations of ASCII, binary and coloured clouds:
    # both readers give the same bits or the same ParseError, the oracle's
    # bits where it decodes the bytes and a ParseError where it rejects.
    clouds = [write_ply(random_cloud(rng, 6, colors), binary=binary) for binary in (True, False) for colors in
              (False, True)]
    path = tmp_path / "cloud.ply"
    for _ in range(300):
        data = bytearray(clouds[int(rng.integers(len(clouds)))])
        if rng.random() < 0.3:
            data = data[:int(rng.integers(len(data)))]
        else:
            for at in rng.integers(len(data), size=int(rng.integers(1, 4))):
                data[at] = int(rng.integers(256))
        data = bytes(data)
        oracle = oracle_ply(data)
        try:
            want = read_ply(data).points
        except ParseError as exc:
            assert oracle is None, data
            by_bytes, by_file = _rejections(tmp_path, data)
            assert (str(by_file), by_file.line, by_file.offset) == (str(exc), exc.line, exc.offset), data
            continue
        assert oracle is not None and want.tobytes() == oracle[0].tobytes(), data
        path.write_bytes(data)
        assert _points_of(path).tobytes() == want.tobytes(), data


def test_a_256_byte_header_line_is_read(tmp_path):
    data = b"ply\ncomment " + b"x" * 247 + b"\n" + write_ply(PointCloud(np.ones((2, 3))), binary=True)[4:]
    path = tmp_path / "cloud.ply"
    path.write_bytes(data)
    assert _points_of(path).tolist() == read_ply(data).points.tolist() == [[1.0] * 3] * 2


@pytest.mark.parametrize("binary", [True, False])
def test_a_cloud_cut_short_after_it_is_opened_is_rejected_as_its_bytes(tmp_path, rng, small_bands, binary):
    # Cut in its last band, after the first two are read.
    data = write_ply(random_cloud(rng, 3 * BAND, True), binary=binary)
    path = tmp_path / "cloud.ply"
    path.write_bytes(data)
    cut = len(data) - 40
    with pytest.raises(ParseError) as by_bytes:
        read_ply(data[:cut])
    with open_ply(path) as ply:
        os.truncate(path, cut)
        with pytest.raises(ParseError) as by_file:
            ply.points()
    assert str(by_file.value) == str(by_bytes.value)
    assert ("PLY payload size mismatch" if binary else "vertex") in str(by_file.value)


def test_reading_a_binary_cloud_holds_its_points_and_one_band(tmp_path, rng):
    # The read peaks under the float64 points, one band of 12-byte records
    # and 1 MiB (the band's finiteness masks and row coordinates among
    # it).  read_ply of the file's bytes holds the bytes beside the points
    # and fails the bound.
    n = 300_000
    path = tmp_path / "cloud.ply"
    path.write_bytes(write_ply(PointCloud(rng.normal(size=(n, 3)).astype(np.float32))))
    budget = 24 * n + 12 * reproject._BAND_PIXELS + 2**20
    peaks = []
    for read in (lambda: _points_of(path), lambda: read_ply(path.read_bytes()).points):
        tracemalloc.start()
        try:
            points = read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert points.shape == (n, 3)
        del points
    assert peaks[0] < budget < peaks[1], (peaks, budget)


def _eval_argv(tmp_path, rng, *extra):
    pred, gt = tmp_path / "pred.ply", tmp_path / "gt.ply"
    pred.write_bytes(write_ply(random_cloud(rng, 50, True), binary=False))
    gt.write_bytes(write_ply(random_cloud(rng, 80, False)))
    return ["eval-pc", "--pred", str(pred), "--gt", str(gt), "--out", str(tmp_path / "eval.json"), *extra]


@pytest.mark.parametrize("max_dist", ["nan", "inf", "-inf", "-1"])
def test_eval_pc_rejects_a_bad_max_dist_before_it_reads_a_cloud(tmp_path, rng, capsys, monkeypatch, max_dist):
    # An infinite --max-dist failed in the JSON encoder, a NaN or negative
    # one as "no measurable points", each after both searches.
    argv = _eval_argv(tmp_path, rng, f"--max-dist={max_dist}")
    opened = []
    monkeypatch.setattr(formats, "open_ply", lambda path: opened.append(path))
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and opened == [] and not (tmp_path / "eval.json").exists()
    assert err == f"mvsgeo: error: --max-dist must be finite and non-negative, got {float(max_dist)}\n"


def test_eval_pc_names_a_cloud_whose_colour_breaks_the_grammar(tmp_path, rng, capsys):
    # A colour of 300 raised numpy's OverflowError, which named no file.
    argv = _eval_argv(tmp_path, rng, "--max-dist", "1")
    pred = tmp_path / "pred.ply"
    data = pred.read_bytes()
    head, rows = data.split(b"end_header\n")
    rows = rows.split(b"\n")
    rows[2] = b" ".join(rows[2].split()[:4] + [b"300", b"0"])
    pred.write_bytes(head + b"end_header\n" + b"\n".join(rows))
    with pytest.raises(ParseError) as exc:
        read_ply(pred.read_bytes())
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"mvsgeo: error: {pred}: {exc.value}\n"
    assert "vertex colour outside 0-255" in err and "(line 13)" in err


def test_eval_pc_reads_the_points_read_ply_gives(tmp_path, rng, capsys):
    # The JSON is the library's evaluation of read_ply's points.
    argv = _eval_argv(tmp_path, rng, "--max-dist", "300")
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    pred, gt = (read_ply((tmp_path / name).read_bytes()) for name in ("pred.ply", "gt.ply"))
    want = evaluate_point_clouds(pred, gt, 300.0)
    assert doc == {"accuracy": want.accuracy, "completeness": want.completeness, "overall": want.overall,
                   "max_dist": 300.0, "n_pred": 50, "n_gt": 80}
