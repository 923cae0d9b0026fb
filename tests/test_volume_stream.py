"""The loss's band-streamed volume read.

A volume file opened with formats.open_probability_volume, the same
volume in memory and the naive oracle give the same bits, and the bytes
reader decodes the grammar's oracle parser's bits (tests/oracles.py); a
malformed file, which that parser rejects, is rejected with the same
message and offset by the bytes reader and by `loss`; a `loss` call reads each input file once and holds one
band block of the volume and two hypothesis slabs, whatever the frame
height.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvsgeo import formats, reproject
from mvsgeo.cli import main
from mvsgeo.formats import ParseError, open_probability_volume, read_probability_volume
from mvsgeo.loss import ProbabilityVolume, cross_entropy_error
from mvsgeo.reproject import DepthMap

from oracles import naive_cross_entropy, oracle_probability_volume
from test_formats import PROBVOL_MALFORMED


def _volume_bytes(probs, hyp, pad=0):
    """A volume file; pad spaces after the dimensions shift the payload's alignment."""
    d, h, w = probs.shape
    layout = "shared" if np.ndim(hyp) == 1 else "perpixel"
    head = f"PROBVOL\n{d} {h} {w}{' ' * pad}\n{layout}\n".encode()
    return head + np.asarray(hyp, dtype="<f4").tobytes() + np.asarray(probs, dtype="<f4").tobytes()


def _random_case(rng, d, h, w, layout):
    """Float32-exact probabilities and hypotheses (on a 1/8 grid), and ground truth on bins,
    halfway between two, off range or invalid."""
    shape = (d,) if layout == "shared" else (d, h, w)
    hyp = rng.integers(1, 4000) + np.cumsum(rng.integers(1, 800, size=shape) / 8.0, axis=0)
    raw = rng.random((d, h, w)).astype(np.float32) + np.float32(0.01)
    probs = (raw / raw.sum(axis=0, keepdims=True)).astype(np.float32).astype(np.float64)
    grid = np.broadcast_to(hyp[:, None, None] if layout == "shared" else hyp, (d, h, w))
    k = rng.integers(0, d, size=(1, h, w))
    lo = np.take_along_axis(grid, k, 0)[0]
    hi = np.take_along_axis(grid, np.minimum(k + 1, d - 1), 0)[0]
    kind = rng.integers(0, 5, size=(h, w))
    values = np.choose(kind, [lo, 0.5 * (lo + hi), grid[0] - 0.125, grid[-1] + 0.125, lo])
    valid = kind != 4
    return probs, hyp, DepthMap(np.where(valid, values, 0.0), valid)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=st.integers(1, 300), h=st.integers(1, 6), w=st.integers(1, 5),
       layout=st.sampled_from(["shared", "perpixel"]), pad=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_file_volume_memory_twin_and_oracle_give_the_same_bits(tmp_path, d, h, w, layout, pad, seed):
    # Any payload alignment mod 4 (pad), and bands of one row, W - 1 and
    # W + 1 pixels, two rows (a shorter last band for odd H) and the
    # default: the opened file scores the oracle's bits, as do its float64
    # twin and the bytes reader's float32 views.
    probs, hyp, gt = _random_case(np.random.default_rng(seed), d, h, w, layout)
    o_err, o_sup = naive_cross_entropy(probs, hyp, gt.values, gt.valid)
    data = _volume_bytes(probs, hyp, pad)
    path = tmp_path / "vol.probvol"
    path.write_bytes(data)
    viewed = read_probability_volume(data)
    assert [a.tobytes() for a in oracle_probability_volume(data)] == [viewed.probs.tobytes(), viewed.hypotheses.tobytes()]
    with pytest.MonkeyPatch.context() as mp, open_probability_volume(path) as from_file:
        for band in (1, w - 1, w + 1, 2 * w + 1, reproject._BAND_PIXELS):
            mp.setattr(reproject, "_BAND_PIXELS", band)
            for vol in (ProbabilityVolume(probs, hyp), read_probability_volume(data), from_file):
                err, supervised = cross_entropy_error(vol, gt)
                assert err.tobytes() == o_err.tobytes(), (band, type(vol))
                assert np.array_equal(supervised, o_sup)


# Rejections of bad values in the first, a middle or the last band of a
# 4 x 6 x 5 volume in three bands of two rows.
D, H, W = 4, 6, 5


def _good(layout):
    probs = np.full((D, H, W), 0.25)
    hyp = np.array([100.0, 200.0, 300.0, 400.0])
    if layout == "perpixel":
        hyp = hyp[:, None, None] + np.arange(H * W).reshape(H, W)
    return probs, hyp


def _probability(index, value, layout):
    probs, hyp = _good(layout)
    probs[index] = value
    return _volume_bytes(probs, hyp)


def _hypothesis(index, value):
    probs, hyp = _good("perpixel")
    hyp[index] = hyp[(index[0] - 1,) + index[1:]] if value is None else value
    return _volume_bytes(probs, hyp)


MALFORMED = {
    **{f"{name} probability in the {where} band ({layout})": _probability(index, value, layout)
       for name, value in (("NaN", np.nan), ("-1", -1.0), ("inf", np.inf))
       for where, index in (("first", (1, 0, 2)), ("last", (2, 5, 4)))
       for layout in ("shared", "perpixel")},
    "non-increasing hypothesis in a middle band": _hypothesis((2, 3, 1), None),
    "NaN hypothesis in a middle band": _hypothesis((1, 2, 0), np.nan),
    "inf hypothesis in a middle band": _hypothesis((3, 2, 4), np.inf),
}


def _loss_files(tmp_path, data, h=H, w=W):
    vol = tmp_path / "vol.probvol"
    vol.write_bytes(data)
    gt = tmp_path / "gt.pfm"
    gt.write_bytes(formats.write_pfm(formats.PfmImage(np.full((h, w), 250.0, dtype=np.float32))))
    pen = tmp_path / "pen.pfm"
    pen.write_bytes(formats.write_pfm(formats.PfmImage(np.ones((h, w), dtype=np.float32))))
    return ["loss", "--probvol", str(vol), "--gt", str(gt), "--penalty", str(pen)]


def _bytes_error(data):
    with pytest.raises(ParseError) as exc:
        read_probability_volume(data)
    return str(exc.value)


def _assert_rejected_alike(argv, data, capsys):
    assert oracle_probability_volume(data) is None
    expected = _bytes_error(data)
    assert "byte offset" in expected
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"mvsgeo: error: {argv[2]}: {expected}\n"  # the volume file named first


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_bytes_reader_and_loss_reject_a_volume_alike(tmp_path, capsys, monkeypatch, data):
    monkeypatch.setattr(reproject, "_BAND_PIXELS", 2 * W)
    _assert_rejected_alike(_loss_files(tmp_path, data), data, capsys)


@pytest.mark.parametrize("data", PROBVOL_MALFORMED)
def test_bytes_reader_and_loss_reject_a_malformed_2x1x1_file_alike(tmp_path, capsys, data):
    # The bytes reader's malformed-header, payload-size and value cases,
    # run through `loss` against a 1 x 1 ground truth: an empty file, a
    # truncated payload and the header faults are rejected at open.
    _assert_rejected_alike(_loss_files(tmp_path, data, 1, 1), data, capsys)


@pytest.mark.parametrize("layout", ["shared", "perpixel"])
def test_a_volume_truncated_after_its_size_check_is_rejected_as_the_truncated_bytes(
        tmp_path, capsys, monkeypatch, layout):
    # The file is cut inside its last band after `loss` has opened it and
    # checked its size: the band read comes up short and the error is the
    # one the bytes reader gives for the file as it now is.
    monkeypatch.setattr(reproject, "_BAND_PIXELS", 2 * W)
    data = _volume_bytes(*_good(layout))
    argv = _loss_files(tmp_path, data)
    path = tmp_path / "vol.probvol"
    opener = formats.open_probability_volume

    def open_then_truncate(p):
        vol = opener(p)
        os.truncate(path, len(data) - 4 * W)
        return vol

    monkeypatch.setattr(formats, "open_probability_volume", open_then_truncate)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"mvsgeo: error: {path}: {_bytes_error(data[:len(data) - 4 * W])}\n"
    assert "payload size mismatch" in err


def _write_uniform_loss(tmp_path, d, h, w, layout, stage=0):
    hyp = np.linspace(100.0, 200.0, d)
    if layout == "perpixel":
        hyp = hyp[:, None, None] + np.zeros((h, w))
    vol = tmp_path / f"vol{stage}.probvol"
    vol.write_bytes(_volume_bytes(np.full((d, h, w), 1.0 / d), hyp))
    gt = tmp_path / f"gt{stage}.pfm"
    gt.write_bytes(formats.write_pfm(formats.PfmImage(np.full((h, w), 150.0, dtype=np.float32))))
    pen = tmp_path / f"pen{stage}.pfm"
    pen.write_bytes(formats.write_pfm(formats.PfmImage(np.ones((h, w), dtype=np.float32))))
    return vol, gt, pen


def test_loss_reads_each_input_byte_once(tmp_path, capsys, monkeypatch):
    # Every byte the three-stage call reads from its volumes, ground
    # truths and penalties goes through os.pread (a header, a byte at a
    # time) or os.preadv (a band of one bin, a hypothesis slab, a PFM
    # band): per open file the reads tile the whole file once, no byte
    # twice, and the files read are the nine inputs.
    monkeypatch.setattr(reproject, "_BAND_PIXELS", 50)
    files = [_write_uniform_loss(tmp_path, d, h, w, layout, k)
             for k, (d, h, w, layout) in enumerate(((6, 7, 9, "shared"), (5, 14, 18, "perpixel"), (3, 28, 36, "perpixel")))]
    spans = {}
    pread, preadv = os.pread, os.preadv

    def counted_pread(fd, n, offset):
        out = pread(fd, n, offset)
        spans.setdefault(fd, []).append((offset, len(out)))
        return out

    def counted_preadv(fd, buffers, offset):
        n = preadv(fd, buffers, offset)
        spans.setdefault(fd, []).append((offset, n))
        return n

    monkeypatch.setattr(os, "pread", counted_pread)
    monkeypatch.setattr(os, "preadv", counted_preadv)
    argv = ["loss", "--probvol", *(str(f[0]) for f in files), "--gt", *(str(f[1]) for f in files),
            "--penalty", *(str(f[2]) for f in files)]
    assert main(argv) == 0
    sizes = []
    for reads in spans.values():
        end = 0
        for offset, n in sorted(reads):
            assert offset == end, (offset, end)
            end += n
        sizes.append(end)
    assert sorted(sizes) == sorted(path.stat().st_size for stage in files for path in stage)
    assert len(capsys.readouterr().out) > 0


# A `loss` stage holds one probability block of D x band float32 values
# and, per pixel, two hypothesis slabs of one band each; beside them
# _band_error's band arrays (about 69 B per band pixel measured: float64
# distances, sums, flat index and error, bool masks, the picked bins), the
# ground truth's and the penalty's float32 band buffers, and the stage's
# frame-sized arrays: the error (float64), the supervised mask and the
# packed penalty-times-error products (float64), 17 B per frame pixel.
_BAND_ARRAYS = 96
_FRAME_ARRAYS = 17


def _traced_peak(call):
    call()  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("layout", ["shared", "perpixel"])
def test_loss_cli_holds_one_band_block_and_the_frame_outputs(tmp_path, capsys, monkeypatch, layout):
    # 8 bands of 16 rows: a second block of D x band values, such as a
    # per-pixel hypothesis block, would exceed the bound.
    d, h, w, band = 64, 128, 64, 1024
    monkeypatch.setattr(reproject, "_BAND_PIXELS", band)
    vol, gt, pen = _write_uniform_loss(tmp_path, d, h, w, layout)
    argv = ["loss", "--probvol", str(vol), "--gt", str(gt), "--penalty", str(pen)]
    peak = _traced_peak(lambda: main(argv))
    bound = d * band * 4 + 2 * band * 4 + _BAND_ARRAYS * band + _FRAME_ARRAYS * h * w
    assert peak <= bound, (peak, bound)
    assert peak + d * band * 4 > bound
    capsys.readouterr()


@pytest.mark.parametrize("layout", ["shared", "perpixel"])
def test_error_peak_above_its_outputs_does_not_grow_with_height(tmp_path, monkeypatch, layout):
    # The error's own arrays, err (float64) and supervised (bool), are
    # 9 B per frame pixel; what it holds beyond them is per band, so four
    # times the rows at the same D and W leave it where it was.
    d, w = 32, 40
    monkeypatch.setattr(reproject, "_BAND_PIXELS", 8 * w)
    excess = []
    for h in (64, 256):
        path, gt_path, _ = _write_uniform_loss(tmp_path, d, h, w, layout, h)
        gt = formats.depth_from_pfm(formats.read_pfm(gt_path.read_bytes()))
        with open_probability_volume(path) as vol:
            excess.append(_traced_peak(lambda: cross_entropy_error(vol, gt)) - 9 * h * w)
    assert excess[1] <= excess[0] + 1024, excess
    assert excess[0] < d * 8 * w * 4 + 2 * 8 * w * 4 + _BAND_ARRAYS * 8 * w


def test_a_header_line_of_256_bytes_is_read_alike(tmp_path):
    # The longest header line either reader takes, its newline included.
    probs, hyp = _good("perpixel")
    pad = 255 - len(f"{D} {H} {W}")
    data = _volume_bytes(probs, hyp, pad)
    assert data.index(b"\n", 8) - 8 == 255
    path = tmp_path / "vol.probvol"
    path.write_bytes(data)
    assert oracle_probability_volume(data)[1].tobytes() == read_probability_volume(data).hypotheses.tobytes()
    gt = DepthMap.from_values(np.full((H, W), 250.0))
    with open_probability_volume(path) as from_file:
        assert cross_entropy_error(from_file, gt)[0].tobytes() == cross_entropy_error(
            read_probability_volume(data), gt)[0].tobytes()
