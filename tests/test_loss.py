import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsgeo import reproject
from mvsgeo.formats import open_probability_volume, read_probability_volume, write_probability_volume
from mvsgeo.loss import (
    PROB_FLOOR,
    ProbabilityVolume,
    StageWeights,
    cross_entropy_error,
    stage_loss,
    total_loss,
)
from mvsgeo.penalty import PenaltyMap
from mvsgeo.reproject import DepthMap

from conftest import band_sizes
from oracles import naive_cross_entropy


def one_hot_volume(d, h, w, bins, hypotheses=None):
    probs = np.zeros((d, h, w))
    for i in range(h):
        for j in range(w):
            probs[bins[i, j], i, j] = 1.0
    hyp = np.linspace(400.0, 900.0, d) if hypotheses is None else hypotheses
    return ProbabilityVolume(probs=probs, hypotheses=hyp)


def test_volume_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ProbabilityVolume(probs=np.ones((3, 2, 2)) / 3, hypotheses=np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="non-negative"):
        ProbabilityVolume(probs=np.full((2, 2, 2), -0.1), hypotheses=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="match"):
        ProbabilityVolume(probs=np.ones((3, 2, 2)) / 3, hypotheses=np.array([1.0, 2.0]))


@pytest.mark.parametrize("field, index, value", [
    ("probs", (1, 0, 1), np.nan),
    ("probs", (2, 1, 0), np.inf),
    ("hypotheses", (3,), np.inf),
    ("hypotheses", (0,), -np.inf),
    ("hypotheses", (2,), np.nan),
])
def test_volume_rejects_non_finite_values(field, index, value):
    arrays = {"probs": np.full((4, 2, 2), 0.25), "hypotheses": np.array([1.0, 2.0, 3.0, 4.0])}
    arrays[field][index] = value
    with pytest.raises(ValueError, match="finite"):
        ProbabilityVolume(**arrays)


@pytest.mark.parametrize("field, index, value", [
    ("probs", (1, 0, 1), np.nan),
    ("probs", (2, 1, 0), -0.5),
    ("hypotheses", (3,), np.inf),
    ("hypotheses", (2,), np.nan),
])
def test_cross_entropy_rejects_a_value_written_into_the_callers_array_after_construction(field, index, value):
    # A float64 volume holds the caller's arrays, not copies, so the check
    # at construction cannot see a later write; the scoring walk checks
    # every band again and rejects it.
    arrays = {"probs": np.full((4, 2, 2), 0.25), "hypotheses": np.array([1.0, 2.0, 3.0, 4.0])}
    vol = ProbabilityVolume(**arrays)
    assert vol.probs is arrays["probs"] and vol.hypotheses is arrays["hypotheses"]
    arrays[field][index] = value
    with pytest.raises(ValueError, match="probabilities must be|hypotheses must be"):
        cross_entropy_error(vol, DepthMap.from_values(np.full((2, 2), 2.5)))


def test_volume_rejects_empty_shapes():
    with pytest.raises(ValueError, match="empty"):
        ProbabilityVolume(probs=np.zeros((2, 0, 3)), hypotheses=np.array([1.0, 2.0]))


def test_cross_entropy_concentrated_is_zero():
    h, w, d = 3, 4, 6
    hyp = np.linspace(400.0, 900.0, d)
    bins = np.arange(h * w).reshape(h, w) % d
    vol = one_hot_volume(d, h, w, bins)
    gt = DepthMap.from_values(hyp[bins])
    err, supervised = cross_entropy_error(vol, gt)
    assert supervised.all()
    assert np.array_equal(err, np.zeros((h, w)))


def test_cross_entropy_uniform_is_log_d():
    d, h, w = 8, 4, 5
    vol = ProbabilityVolume(probs=np.full((d, h, w), 1.0 / d), hypotheses=np.linspace(400, 900, d))
    gt = DepthMap.from_values(np.full((h, w), 650.0))
    err, supervised = cross_entropy_error(vol, gt)
    assert supervised.all()
    assert err == pytest.approx(np.log(8.0))
    assert float(err[0, 0]) == pytest.approx(2.0794, abs=1e-4)


def test_cross_entropy_floor_on_zero_probability():
    d, h, w = 4, 1, 1
    probs = np.zeros((d, h, w))
    probs[1] = 1.0
    vol = ProbabilityVolume(probs=probs, hypotheses=np.array([1.0, 2.0, 3.0, 4.0]))
    gt = DepthMap.from_values(np.full((1, 1), 4.0))  # one-hot bin 3 has p = 0
    err, _ = cross_entropy_error(vol, gt)
    assert err[0, 0] == pytest.approx(-np.log(PROB_FLOOR))


def test_cross_entropy_out_of_range_masked():
    d, h, w = 4, 2, 2
    vol = ProbabilityVolume(probs=np.full((d, h, w), 0.25), hypotheses=np.array([10.0, 20.0, 30.0, 40.0]))
    values = np.array([[15.0, 45.0], [5.0, 40.0]])
    gt = DepthMap.from_values(values)
    err, supervised = cross_entropy_error(vol, gt)
    assert supervised.tolist() == [[True, False], [False, True]]
    assert err[0, 1] == 0.0 and err[1, 0] == 0.0


def test_cross_entropy_rejects_unnormalized():
    d, h, w = 4, 2, 2
    vol = ProbabilityVolume(probs=np.full((d, h, w), 0.3), hypotheses=np.array([1.0, 2.0, 3.0, 4.0]))
    gt = DepthMap.from_values(np.full((h, w), 2.0))
    with pytest.raises(ValueError, match="not normalized"):
        cross_entropy_error(vol, gt)


def test_cross_entropy_reports_the_largest_supervised_deviation(monkeypatch):
    # Sums off by 0.5, 2e-3 and 3e-6 on supervised pixels in different row
    # bands, and by 4.0 on a pixel whose ground truth is invalid: the
    # message names the largest deviation among the supervised pixels only.
    monkeypatch.setattr(reproject, "_BAND_PIXELS", 3)
    d, h, w = 2, 4, 3
    probs = np.full((d, h, w), 0.5)
    probs[0, 0, 1] += 3e-6
    probs[0, 2, 2] += 2e-3
    probs[1, 3, 0] -= 0.5
    probs[0, 1, 1] += 4.0
    values = np.full((h, w), 2.5)
    values[1, 1] = 0.0
    vol = ProbabilityVolume(probs=probs, hypotheses=np.array([2.0, 3.0]))
    sums = probs.sum(axis=0)
    worst = float(np.abs(sums[values > 0] - 1.0).max())
    assert worst == 0.5
    with pytest.raises(ValueError) as exc:
        cross_entropy_error(vol, DepthMap.from_values(values))
    assert str(exc.value) == f"probability volume not normalized (max |sum - 1| = {worst:.3e})"
    assert str(exc.value) == "probability volume not normalized (max |sum - 1| = 5.000e-01)"
    # Within tolerance on every supervised pixel: accepted, whatever the
    # unsupervised pixel sums to.
    probs[1, 3, 0] += 0.5
    probs[0, 2, 2] -= 2e-3
    cross_entropy_error(ProbabilityVolume(probs=probs, hypotheses=np.array([2.0, 3.0])), DepthMap.from_values(values))


def test_cross_entropy_tie_breaks_to_lower_bin():
    probs = np.zeros((2, 1, 1))
    probs[0] = 0.25
    probs[1] = 0.75
    vol = ProbabilityVolume(probs=probs, hypotheses=np.array([10.0, 20.0]))
    gt = DepthMap.from_values(np.full((1, 1), 15.0))  # equidistant
    err, _ = cross_entropy_error(vol, gt)
    assert err[0, 0] == pytest.approx(-np.log(0.25))


def test_cross_entropy_per_pixel_hypotheses(rng):
    d, h, w = 6, 5, 7
    base = np.sort(rng.uniform(100, 900, size=(d, h, w)), axis=0)
    base += np.arange(d)[:, None, None]  # enforce strict increase
    raw = rng.random((d, h, w))
    probs = raw / raw.sum(axis=0, keepdims=True)
    vol = ProbabilityVolume(probs=probs, hypotheses=base)
    gt_vals = base[0] + rng.random((h, w)) * (base[-1] - base[0])
    gt = DepthMap.from_values(gt_vals)
    err, supervised = cross_entropy_error(vol, gt)
    o_err, o_sup = naive_cross_entropy(probs, base, gt.values, gt.valid)
    assert np.array_equal(supervised, o_sup)
    assert np.abs(err - o_err).max() < 1e-10


def test_cross_entropy_matches_naive_oracle(rng):
    d, h, w = 8, 12, 10
    raw = rng.random((d, h, w))
    probs = raw / raw.sum(axis=0, keepdims=True)
    hyp = np.linspace(425.0, 935.0, d)
    vol = ProbabilityVolume(probs=probs, hypotheses=hyp)
    vals = rng.uniform(425.0, 935.0, (h, w))
    valid = rng.random((h, w)) > 0.2
    gt = DepthMap(np.where(valid, vals, 0.0), valid)
    err, supervised = cross_entropy_error(vol, gt)
    o_err, o_sup = naive_cross_entropy(probs, hyp, gt.values, gt.valid)
    assert np.array_equal(supervised, o_sup)
    assert np.abs(err - o_err).max() < 1e-10


def _tied_volume(rng, layout, d=6, h=9, w=7):
    """Float32-exact volume with ground truth on bins, on exact midpoints, off range and invalid."""
    raw = rng.random((d, h, w)).astype(np.float32)
    raw[rng.random((d, h, w)) < 0.2] = 0.0
    raw[0] += np.float32(1e-3)
    probs = (raw / raw.sum(axis=0, keepdims=True)).astype(np.float32).astype(np.float64)
    shape = d if layout == "shared" else (d, h, w)
    hyp = (np.cumsum(rng.integers(1, 5, size=shape), axis=0) * 0.5 + 400.0).astype(np.float64)
    grid = hyp[:, None, None] if layout == "shared" else hyp
    k = rng.integers(0, d - 1, size=(h, w))
    lo = np.take_along_axis(np.broadcast_to(grid, (d, h, w)), k[None], 0)[0]
    hi = np.take_along_axis(np.broadcast_to(grid, (d, h, w)), k[None] + 1, 0)[0]
    pick = rng.integers(0, 4, size=(h, w))
    values = np.choose(pick, [lo, hi, 0.5 * (lo + hi), lo + 0.25 * (hi - lo)])
    values[0, 0] = grid[0].min() - 1.0
    values[-1, -1] = grid[-1].max() + 1.0
    valid = rng.random((h, w)) > 0.1
    return ProbabilityVolume(probs, hyp), DepthMap(np.where(valid, values, 0.0), valid)


@pytest.mark.parametrize("layout", ["shared", "perpixel"])
def test_cross_entropy_bitwise_equals_oracle_for_any_band_and_dtype(rng, monkeypatch, layout):
    for _ in range(5):
        vol, gt = _tied_volume(rng, layout)
        o_err, o_sup = naive_cross_entropy(vol.probs, vol.hypotheses, gt.values, gt.valid)
        assert o_sup.sum() > 0 and not o_sup.all()
        from_file = read_probability_volume(write_probability_volume(vol))
        assert from_file.probs.dtype == np.float32
        o32_err, _ = naive_cross_entropy(from_file.probs, from_file.hypotheses, gt.values, gt.valid)
        assert o32_err.tobytes() == o_err.tobytes()
        for band in band_sizes(*gt.shape):
            monkeypatch.setattr(reproject, "_BAND_PIXELS", band)
            for v in (vol, from_file):
                err, supervised = cross_entropy_error(v, gt)
                assert err.dtype == np.float64
                assert err.tobytes() == o_err.tobytes(), (band, v.probs.dtype)
                assert np.array_equal(supervised, o_sup)


def _bin_volume(rng, d, h, w, layout, bins):
    """Float32-exact volume with ground truth on bins `bins` (even pixels) or halfway to the next bin (odd).

    Hypotheses lie on a 0.5 grid, so every midpoint is exact and ties
    the two bins around it; the lower one must win.
    """
    raw = rng.random((d, h, w)).astype(np.float32) + np.float32(0.01)
    probs = (raw / raw.sum(axis=0, keepdims=True)).astype(np.float32).astype(np.float64)
    shape = d if layout == "shared" else (d, h, w)
    hyp = np.cumsum(rng.integers(1, 5, size=shape), axis=0) * 0.5 + 400.0
    grid = np.broadcast_to(hyp[:, None, None] if layout == "shared" else hyp, (d, h, w))
    k = np.asarray(bins).reshape(h, w)
    lo = np.take_along_axis(grid, k[None], 0)[0]
    hi = np.take_along_axis(grid, np.minimum(k + 1, d - 1)[None], 0)[0]
    values = np.where(np.arange(h * w).reshape(h, w) % 2 == 0, lo, 0.5 * (lo + hi))
    return ProbabilityVolume(probs, hyp), DepthMap.from_values(values)


def _assert_equals_oracle(vols, gt):
    o_err, o_sup = naive_cross_entropy(vols[0].probs, vols[0].hypotheses, gt.values, gt.valid)
    for v in vols:
        err, supervised = cross_entropy_error(v, gt)
        assert err.tobytes() == o_err.tobytes(), type(v)
        assert np.array_equal(supervised, o_sup)


@pytest.mark.parametrize("layout", ["shared", "perpixel"])
@pytest.mark.parametrize("d", [1, 2, 255, 256, 257, 300])
def test_cross_entropy_picks_every_bin_at_the_index_dtype_boundary(rng, layout, d):
    # The picked bin is kept in the narrowest unsigned type that holds
    # D - 1: uint8 up to 256 bins, uint16 from 257.  Ground truth sits on
    # and halfway after the last bins each type holds and the first ones
    # past it, so a wrapped or truncated index picks the wrong probability.
    # At 300 bins the flat gather index passes 2**15.
    h, w = 9, 13
    edge = np.repeat(np.clip([0, d - 1, d - 2, 254, 255, 256, 257, 299], 0, d - 1), 2)
    bins = np.concatenate([edge, rng.integers(0, d, size=h * w - len(edge))])
    vol, gt = _bin_volume(rng, d, h, w, layout, bins)
    strided = ProbabilityVolume(np.asfortranarray(vol.probs), vol.hypotheses)
    assert not strided.probs.flags.c_contiguous
    _assert_equals_oracle([vol, strided, read_probability_volume(write_probability_volume(vol))], gt)


@pytest.mark.parametrize("layout", ["shared", "perpixel"])
def test_cross_entropy_reads_unaligned_volumes(rng, tmp_path, layout):
    # The header is "PROBVOL\n", "D H W\n" and the layout line, so the
    # digit counts of D, H and W set where the float32 payload starts.
    heads, aligned = set(), set()
    for d, h, w in ((2, 3, 4), (12, 3, 4), (12, 13, 4), (12, 13, 14)):
        vol, gt = _bin_volume(rng, d, h, w, layout, rng.integers(0, d, size=h * w))
        data = write_probability_volume(vol)
        heads.add(len(f"PROBVOL\n{d} {h} {w}\n{layout}\n") % 4)
        path = tmp_path / f"{d}_{h}_{w}.probvol"
        path.write_bytes(data)
        view = read_probability_volume(data)
        aligned.add(view.probs.flags.aligned)
        with open_probability_volume(path) as from_file:
            _assert_equals_oracle([vol, view, from_file], gt)
    assert heads == {0, 1, 2, 3}
    assert False in aligned


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(1, 12), h=st.integers(1, 4), w=st.integers(1, 6),
       layout=st.sampled_from(["shared", "perpixel"]))
def test_cross_entropy_property_any_hypotheses_and_band(data, d, h, w, layout):
    # Any strictly increasing hypotheses (float32-exact, on a 1/8 grid),
    # ground truth on a bin, halfway between two, off range or invalid,
    # and any band size: the same bits as the oracle.
    shape = (d,) if layout == "shared" else (d, h, w)
    n = int(np.prod(shape))
    gaps = np.array(data.draw(st.lists(st.integers(1, 800), min_size=n, max_size=n)), dtype=np.float64)
    hyp = data.draw(st.integers(1, 4000)) + np.cumsum(gaps.reshape(shape) / 8.0, axis=0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((d, h, w)).astype(np.float32) + np.float32(0.01)
    probs = (raw / raw.sum(axis=0, keepdims=True)).astype(np.float32).astype(np.float64)
    grid = np.broadcast_to(hyp[:, None, None] if layout == "shared" else hyp, (d, h, w))
    kinds = data.draw(st.lists(st.sampled_from(["bin", "mid", "below", "above", "invalid"]),
                               min_size=h * w, max_size=h * w))
    bins = data.draw(st.lists(st.integers(0, d - 1), min_size=h * w, max_size=h * w))
    values, valid = np.empty(h * w), np.ones(h * w, dtype=bool)
    for p, (kind, k) in enumerate(zip(kinds, bins)):
        i, j = divmod(p, w)
        lo, hi = grid[k, i, j], grid[min(k + 1, d - 1), i, j]
        values[p] = {"bin": lo, "mid": 0.5 * (lo + hi), "below": grid[0, i, j] - 0.125,
                     "above": grid[-1, i, j] + 0.125, "invalid": 0.0}[kind]
        valid[p] = kind != "invalid"
    gt = DepthMap(values.reshape(h, w), valid.reshape(h, w))
    vol = ProbabilityVolume(probs, hyp)
    vols = [vol, read_probability_volume(write_probability_volume(vol))]
    with pytest.MonkeyPatch.context() as mp:
        for band in (1, w - 1, w + 1, reproject._BAND_PIXELS):
            mp.setattr(reproject, "_BAND_PIXELS", band)
            _assert_equals_oracle(vols, gt)


@pytest.mark.parametrize("layout", ["shared", "perpixel"])
def test_volume_read_and_error_allocate_less_than_a_volume(rng, layout):
    d, h, w = 16, 120, 100
    raw = rng.random((d, h, w)).astype(np.float32) + np.float32(0.01)
    probs = raw / raw.sum(axis=0, keepdims=True)
    shape = d if layout == "shared" else (d, h, w)
    hyp = np.cumsum(rng.uniform(1.0, 2.0, size=shape), axis=0) + 100.0
    data = write_probability_volume(ProbabilityVolume(probs, hyp))
    gt = DepthMap.from_values(rng.uniform(101.0, 115.0, (h, w)))
    tracemalloc.start()
    try:
        vol = read_probability_volume(data)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        cross_entropy_error(vol, gt)
        error_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert read_peak < len(data) / 4
    assert error_peak < d * h * w * np.dtype(np.float64).itemsize


def test_stage_loss_reads_a_penalty_map_band_by_band():
    # At 640 x 512 the float64 level frame is 2.6 MB.  stage_loss packs
    # penalty times error at the kept pixels (8 B each); beyond that it
    # holds band arrays only (0.56 MB measured), less than half a frame of
    # levels, and gives the bits of the levels read as an array.
    h, w, m = 512, 640, 4
    rng = np.random.default_rng(3)
    pm = PenaltyMap(rng.integers(0, m + 1, size=(h, w)).astype(np.uint8), "one-three", m)
    err = rng.random((h, w))
    valid = rng.random((h, w)) < 0.5
    stage_loss(pm, err, valid)  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        got = stage_loss(pm, err, valid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * np.count_nonzero(valid) + 8 * h * w // 2, peak
    assert np.float64(got).tobytes() == np.float64(stage_loss(pm.values, err, valid)).tobytes()


def test_stage_loss_identity_weight():
    err = np.array([[1.0, 2.0], [3.0, 4.0]])
    ones = np.ones((2, 2))
    assert stage_loss(ones, err, np.ones((2, 2), dtype=bool)) == pytest.approx(err.mean())


def test_stage_loss_zero_error():
    pen = np.full((3, 3), 1.7)
    assert stage_loss(pen, np.zeros((3, 3)), np.ones((3, 3), dtype=bool)) == 0.0


def test_stage_loss_worked_2x2_example():
    pen = PenaltyMap(np.array([[0, 2], [0, 1]]), "one-two", 2)
    err = np.array([[1.0, 1.0], [2.0, 4.0]])
    assert stage_loss(pen, err, np.ones((2, 2), dtype=bool)) == 2.75


def test_stage_loss_respects_mask():
    pen = np.array([[1.0, 0.0], [1.0, 0.0]])
    err = np.array([[2.0, 100.0], [4.0, 100.0]])
    valid = np.array([[True, False], [True, False]])
    assert stage_loss(pen, err, valid) == 3.0


def test_stage_loss_empty_mask_errors():
    with pytest.raises(ValueError, match="no supervised pixels"):
        stage_loss(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2), dtype=bool))


def test_stage_loss_weighting_bound(rng):
    err = rng.uniform(0, 5, (10, 12))
    pen = rng.uniform(1.0, 2.0, (10, 12))
    valid = np.ones((10, 12), dtype=bool)
    val = stage_loss(pen, err, valid)
    assert err.mean() - 1e-12 <= val <= 2 * err.mean() + 1e-12


def test_stage_loss_uniform_penalty_scales(rng):
    err = rng.uniform(0, 5, (6, 7))
    valid = rng.random((6, 7)) > 0.3
    base = stage_loss(np.ones((6, 7)), err, valid)
    assert stage_loss(np.full((6, 7), 1.8), err, valid) == pytest.approx(1.8 * base, rel=1e-12)


def test_total_loss_paper_weights():
    assert total_loss([1.0, 1.0, 1.0], StageWeights(1.0, 1.0, 2.0)) == 4.0
    assert total_loss([1.0, 2.0, 3.0], StageWeights(0.0, 0.0, 0.0)) == 0.0
    assert total_loss([0.5, 0.25, 0.125], StageWeights()) == 1.0


def test_total_loss_takes_one_to_three_stages():
    # Stage k takes the k-th weight, summed from 0 in stage order: the
    # bits of the written-out sum.
    w = StageWeights(0.3, 0.7, 1.9)
    assert total_loss([0.1], w) == 0.3 * 0.1
    assert total_loss([0.1, 0.2], w) == 0.3 * 0.1 + 0.7 * 0.2
    assert total_loss([0.1, 0.2, 0.3], w) == 0.3 * 0.1 + 0.7 * 0.2 + 1.9 * 0.3


def test_total_loss_validation():
    for losses in ([], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(ValueError, match="one to three"):
            total_loss(losses)
    with pytest.raises(ValueError, match="finite"):
        total_loss([1.0, np.inf, 2.0])
    with pytest.raises(ValueError, match="non-negative"):
        StageWeights(-1.0, 1.0, 1.0)


@pytest.mark.parametrize("losses, weights", [
    ([4 * np.log(2)], StageWeights(alpha=1e308)),            # one product overflows
    ([1.0, 1.0], StageWeights(alpha=1e308, beta=1e308)),     # finite products, the sum overflows
], ids=["product", "sum"])
def test_total_loss_rejects_an_overflowing_sum(losses, weights):
    # Finite weights and stage losses whose weighted sum leaves the float64
    # range: a ValueError naming it, not inf.
    with pytest.raises(ValueError, match="total loss overflows"):
        total_loss(losses, weights)
    assert total_loss(losses, StageWeights(1e300, 1e300, 1.0)) < np.inf


@pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_stage_weights_reject_a_non_finite_weight(field, value):
    # A NaN weight made total_loss NaN, and `loss --alpha nan` failed only
    # when its JSON was written, after every stage was read and scored.
    with pytest.raises(ValueError, match="stage weights must be finite and non-negative"):
        StageWeights(**{field: value})
