"""The loss's band-streamed ground truth and penalty: formats.open_pfm.

An opened PFM gives read_pfm's values band by band, in either byte
order, and both give the bits of the grammar's oracle parser
(tests/oracles.py); a malformed or shrinking one is rejected with
read_pfm's message and offset, and the oracle rejects it too.  `loss`
reads its ground truths and penalties through it and prints the bits of
the public composition on in-memory inputs; it opens and header-checks
every input of every stage before it reads any payload byte.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvsgeo import formats, reproject
from mvsgeo.cli import main
from mvsgeo.formats import ParseError, open_pfm, read_pfm, read_probability_volume
from mvsgeo.loss import ProbabilityVolume, cross_entropy_error, stage_loss
from mvsgeo.penalty import PenaltyMap
from mvsgeo.reproject import DepthMap

from oracles import oracle_pfm
from test_formats import PFM_MALFORMED
from test_volume_stream import _random_case, _volume_bytes, _write_uniform_loss


def _pfm_bytes(values, big_endian=False):
    """A PFM file of the (H, W) or (H, W, 3) values, in either byte order."""
    values = np.asarray(values, dtype=np.float32)
    h, w = values.shape[:2]
    head = f"{'PF' if values.ndim == 3 else 'Pf'}\n{w} {h}\n{1.0 if big_endian else -1.0}\n".encode()
    return head + np.flipud(values).astype(">f4" if big_endian else "<f4").tobytes()


def _bands_of(h, w, band):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reproject, "_BAND_PIXELS", band)
        return [rows for rows, *_ in reproject._bands((h, w))]


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("big_endian", [False, True])
def test_open_pfm_reads_the_bytes_readers_rows_band_by_band(tmp_path, rng, channels, big_endian):
    # Bands of one row, W - 1 and W + 1 pixels and the default, walked in
    # that order on one opened file: a taller band than the buffer's first
    # one is read whole too.
    h, w = 7, 5
    values = rng.normal(size=(h, w) if channels == 1 else (h, w, 3)).astype(np.float32)
    values.flat[:4] = [0.0, np.nan, np.inf, -np.inf]
    data = _pfm_bytes(values, big_endian)
    path = tmp_path / "img.pfm"
    path.write_bytes(data)
    want = read_pfm(data).data
    assert want.tobytes() == oracle_pfm(data).tobytes()
    with open_pfm(path) as f:
        assert f.shape == want.shape
        for band in (w, w - 1, w + 1, reproject._BAND_PIXELS):
            for rows in _bands_of(h, w, band):
                got = f._band(rows)
                assert got.dtype == np.float32 and got.tobytes() == want[rows].tobytes(), (band, rows)


# A header line of 257 bytes, its newline included: one over the cap.
LONG_LINE = b"Pf\n1 1" + b" " * 253 + b"\n-1.0\n" + b"\x00" * 4


@pytest.mark.parametrize("data", PFM_MALFORMED + [LONG_LINE])
def test_open_pfm_rejects_a_malformed_file_as_read_pfm_does(tmp_path, data):
    assert oracle_pfm(data) is None
    with pytest.raises(ParseError) as by_bytes:
        read_pfm(data)
    path = tmp_path / "bad.pfm"
    path.write_bytes(data)
    with pytest.raises(ParseError) as by_file:
        open_pfm(path)
    assert str(by_file.value) == str(by_bytes.value)
    assert "byte offset" in str(by_file.value)


@pytest.mark.parametrize("scale", ["nan", "-nan", "inf", "-inf"])
def test_a_non_finite_pfm_scale_is_rejected_by_both_readers_at_its_line(tmp_path, scale):
    # A NaN scale picked the byte order by a false "scale < 0": a
    # little-endian 1.5 under "-nan" read as 6.9e-41.
    data = f"Pf\n1 1\n{scale}\n".encode() + np.float32(1.5).astype("<f4").tobytes()
    message = f"bad PFM scale {scale!r} (byte offset 7)"
    assert oracle_pfm(data) is None
    with pytest.raises(ParseError) as by_bytes:
        read_pfm(data)
    path = tmp_path / "scale.pfm"
    path.write_bytes(data)
    with pytest.raises(ParseError) as by_file:
        open_pfm(path)
    assert str(by_bytes.value) == str(by_file.value) == message
    assert by_bytes.value.offset == by_file.value.offset == 7


def test_a_pfm_that_shrinks_while_it_is_read_is_rejected_as_its_bytes(tmp_path):
    data = _pfm_bytes(np.ones((6, 5)))
    path = tmp_path / "img.pfm"
    path.write_bytes(data)
    with open_pfm(path) as f:
        os.truncate(path, len(data) - 4)
        with pytest.raises(ParseError) as exc:
            f._band(slice(0, 6))
    with pytest.raises(ParseError) as by_bytes:
        read_pfm(data[:-4])
    assert str(exc.value) == str(by_bytes.value)
    assert "truncated PFM payload" in str(exc.value)


def _poisoned(rng, gt: DepthMap):
    """The ground truth's depths with 0, NaN, +-inf and negative pixels mixed in."""
    values = gt.values.astype(np.float32)
    bad = np.array([0.0, np.nan, np.inf, -np.inf, -5.0], dtype=np.float32)
    hit = rng.random(values.shape) < 0.3
    values[hit] = rng.choice(bad, size=int(hit.sum()))
    return values


def _loss_or_none(penalty, error, valid):
    """stage_loss, or None where no pixel is left to score."""
    try:
        return stage_loss(penalty, error, valid)
    except ValueError as exc:
        assert "no supervised pixels" in str(exc)
        return None


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=st.integers(1, 40), h=st.integers(1, 6), w=st.integers(1, 5),
       layout=st.sampled_from(["shared", "perpixel"]), big_endian=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_streamed_loss_is_the_composition_on_arrays(tmp_path, capsys, d, h, w, layout, big_endian, seed):
    # The CLI streams the volume, ground truth and penalty; the public
    # composition on in-memory inputs (float64 and float32 volumes, the
    # ground truth as a DepthMap or its raw array, the penalty as a float64
    # or float32 array) gives the same JSON bits at every band size.  Every
    # kind drops a penalty of 0, -1 or NaN; the other pixels hold a
    # PenaltyMap's levels, which score the same bits over the kept pixels.
    rng = np.random.default_rng(seed)
    probs, hyp, gt = _random_case(rng, d, h, w, layout)
    gt_values = _poisoned(rng, gt)
    levels = PenaltyMap(rng.integers(0, 5, size=(h, w)), "one-two", 4)
    dropped = rng.random((h, w)) < 0.3
    pen = levels.values.astype(np.float32)
    pen[dropped] = rng.choice(np.array([0.0, -1.0, np.nan], dtype=np.float32), size=int(dropped.sum()))
    paths = {name: tmp_path / name for name in ("vol.probvol", "gt.pfm", "pen.pfm")}
    vol_bytes = _volume_bytes(probs, hyp)
    paths["vol.probvol"].write_bytes(vol_bytes)
    paths["gt.pfm"].write_bytes(_pfm_bytes(gt_values, big_endian))
    paths["pen.pfm"].write_bytes(_pfm_bytes(pen, big_endian))
    losses = set()
    for vol in (ProbabilityVolume(probs, hyp), read_probability_volume(vol_bytes)):
        for truth in (DepthMap.from_values(gt_values), gt_values):
            err, supervised = cross_entropy_error(vol, truth)
            losses.update(_loss_or_none(weights, err, supervised) for weights in (pen.astype(np.float64), pen))
            losses.add(_loss_or_none(levels, err, supervised & ~dropped))
    (loss,) = losses
    argv = ["loss", "--probvol", str(paths["vol.probvol"]), "--gt", str(paths["gt.pfm"]),
            "--penalty", str(paths["pen.pfm"])]
    with pytest.MonkeyPatch.context() as mp:
        for band in (1, w - 1, w + 1, reproject._BAND_PIXELS):
            mp.setattr(reproject, "_BAND_PIXELS", band)
            code = main(argv)
            out, err_text = capsys.readouterr()
            if loss is None:
                assert (code, out) == (3, "") and "no supervised pixels" in err_text
            else:
                assert code == 0
                assert json.loads(out)["stage_losses"] == [loss]
                assert out == json.dumps({"stage_losses": [loss], "weights": {"alpha": 1.0, "beta": 1.0, "gamma": 2.0},
                                          "total_loss": loss}, indent=2, sort_keys=True) + "\n"


def _three_stages(tmp_path):
    """Files of a three-stage `loss` call on 4 x 6 x 5 volumes, as (volume, ground truth, penalty) per stage."""
    return [_write_uniform_loss(tmp_path, 4, 6, 5, layout, k) for k, layout in enumerate(("shared", "perpixel", "shared"))]


def _argv(stages):
    return ["loss", "--probvol", *(str(s[0]) for s in stages), "--gt", *(str(s[1]) for s in stages),
            "--penalty", *(str(s[2]) for s in stages)]


BROKEN_STAGE_2 = {
    "3-channel penalty": (2, lambda p: p.write_bytes(_pfm_bytes(np.ones((6, 5, 3)))), 3, "has shape (6, 5, 3)"),
    "penalty of the wrong size": (2, lambda p: p.write_bytes(_pfm_bytes(np.ones((5, 6)))), 3, "has shape (5, 6)"),
    "ground truth of the wrong size": (1, lambda p: p.write_bytes(_pfm_bytes(np.ones((6, 4)))), 3, "has shape (6, 4)"),
    "truncated ground truth": (1, lambda p: p.write_bytes(p.read_bytes()[:-4]), 3, "truncated PFM payload"),
    "missing penalty": (2, lambda p: p.unlink(), 2, "missing input"),
    "missing ground truth": (1, lambda p: p.unlink(), 2, "missing input"),
}


@pytest.mark.parametrize("case", BROKEN_STAGE_2.values(), ids=BROKEN_STAGE_2.keys())
def test_every_stage_is_header_checked_before_any_payload_byte_is_read(tmp_path, capsys, monkeypatch, case):
    # A broken stage-2 input is found before stage 0 is scored: the call
    # exits 2 (missing) or 3 (malformed) with nothing printed, and no
    # payload byte of any file was read (payloads are read with preadv).
    which, breaks, code, message = case
    stages = _three_stages(tmp_path)
    broken = stages[2][which]
    breaks(broken)
    payload_reads = []
    preadv = os.preadv
    monkeypatch.setattr(os, "preadv", lambda *args: payload_reads.append(args) or preadv(*args))
    assert main(_argv(stages)) == code
    out, err = capsys.readouterr()
    assert out == "" and payload_reads == []
    assert message in err
    if "shape" in message:  # the file and both shapes are named
        assert f"{broken} {message}, the probability volume {stages[2][0]} needs (6, 5)" in err
    elif code == 2:
        assert str(broken) in err


@pytest.mark.parametrize("weight", [["--alpha", "nan"], ["--beta=-inf"], ["--gamma", "inf"]])
def test_a_non_finite_stage_weight_is_rejected_before_any_file_is_read(tmp_path, capsys, monkeypatch, weight):
    # json cannot write a NaN or infinite weight; the call exits 3 before
    # it reads a payload byte, with nothing printed.
    payload_reads = []
    preadv = os.preadv
    monkeypatch.setattr(os, "preadv", lambda *args: payload_reads.append(args) or preadv(*args))
    assert main(_argv(_three_stages(tmp_path)) + weight) == 3
    out, err = capsys.readouterr()
    assert out == "" and payload_reads == []
    assert "stage weights must be finite and non-negative" in err


def test_a_penalty_not_above_zero_drops_its_pixel(tmp_path, capsys):
    # gc-penalty writes 0 outside the reference mask; NaN and negative
    # penalties are not above 0 either.  Every penalty kind drops those
    # pixels: the values as a float64 or a float32 array and opened as a
    # PFM give the CLI's bits at band sizes 1, W - 1, W + 1 and the
    # default, and a PenaltyMap gives the bits of its levels as an array.
    stages = _three_stages(tmp_path)[:1]
    levels = PenaltyMap(np.arange(30).reshape(6, 5) % 5, "one-two", 4)
    pen = levels.values.astype(np.float32)
    pen[0] = [0.0, np.nan, -1.0, 0.0, -0.0]
    stages[0][2].write_bytes(_pfm_bytes(pen))
    assert main(_argv(stages)) == 0
    (loss,) = json.loads(capsys.readouterr().out)["stage_losses"]
    err, supervised = cross_entropy_error(read_probability_volume(stages[0][0].read_bytes()),
                                          formats.depth_from_pfm(read_pfm(stages[0][1].read_bytes())))
    assert supervised[0].all()
    assert loss == np.mean((pen * err)[supervised & (pen > 0)])
    level_loss = stage_loss(levels.values, err, supervised)
    with open_pfm(stages[0][2]) as f, pytest.MonkeyPatch.context() as mp:
        for band in (1, 4, 6, reproject._BAND_PIXELS):
            mp.setattr(reproject, "_BAND_PIXELS", band)
            assert [stage_loss(p, err, supervised) for p in (pen.astype(np.float64), pen, f)] == [loss] * 3
            assert stage_loss(levels, err, supervised) == level_loss
