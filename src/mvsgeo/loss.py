"""Penalty-weighted classification loss over depth-hypothesis distributions.

The per-pixel depth error is the negative log probability of the
hypothesis bin nearest to the ground-truth depth (one-hot target, ties
toward the lower bin).  Stage loss is the mean over supervised pixels of
penalty times error; the total is the weighted sum of one to three stages.

A volume is walked one row band at a time (_blocks).  Each band is
checked (_check_block) before it is scored (_band_error), whose gather
needs the band's probabilities as one contiguous (D, rows, W) array.
A walked volume offers shape, _band(rows, block), which returns the
band's probabilities and its (D, rows, W) or shared (D,) hypotheses,
and _rejected(exc), the error to raise for a band the check rejects.
block(k, dtype) is the walk's k-th reused (D, rows, W) buffer.
formats.open_probability_volume reads each band from the file into
blocks, so a volume on disk is read once and never held whole.
ProbabilityVolume returns views of its arrays, and copies its
probabilities into a block only where the view is not contiguous (a
volume of more than one band).  Its eager check, which
formats.read_probability_volume runs too, applies _check_block to each
band's views with no copy.  A float32 volume keeps float32 bands; the
error is computed in float64 either way, so both give the same bits.

The nearest bin is tracked as an integer index, not as a picked
probability: per bin, pick = max(pick, k * better), where better is the
strict |h_k - g| < best test.  k only grows, so the max keeps the last
strictly better bin, the lowest of the nearest ones (argmin's
first-minimum rule).  One gather per band then reads the picked
probabilities.  No pass over the bins is masked: numpy's masked copy
(copyto where=) slows down as the mask flips more often along a row, and
the copyto(picked, p, where=better) this replaced took 5.2 ms of a
320x256x32 volume's 13 ms error and 11.3 of a 640x512x8 one's 26 ms
(file views, 2-vCPU Xeon, numpy 2.4).
"""

from dataclasses import dataclass

import numpy as np

from .penalty import PenaltyMap
from .reproject import DepthMap, _bands

__all__ = [
    "ProbabilityVolume",
    "StageWeights",
    "PROB_FLOOR",
    "cross_entropy_error",
    "stage_loss",
    "total_loss",
]

# Probabilities are floored here before the log so zero-probability bins
# yield a large finite loss instead of infinity.
PROB_FLOOR = 1e-12

_NORM_TOL = 1e-5


@dataclass
class ProbabilityVolume:
    """Per-pixel distribution over depth hypotheses.

    probs has shape (D, H, W); hypotheses is either a shared (D,) vector
    or a per-pixel (D, H, W) grid, strictly increasing along axis 0.
    Probabilities must be finite and non-negative, hypotheses finite.
    The constructor converts both to float64; a volume read from bytes
    (formats.read_probability_volume) holds read-only float32 views of
    the bytes instead.  Losses are bit-identical either way.
    """

    probs: np.ndarray
    hypotheses: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.hypotheses = np.asarray(self.hypotheses, dtype=np.float64)
        self._check()

    @classmethod
    def _of_views(cls, probs: np.ndarray, hypotheses: np.ndarray) -> "ProbabilityVolume":
        """The public constructor's checks without its float64 copies (for file views)."""
        obj = cls.__new__(cls)
        obj.probs, obj.hypotheses = probs, hypotheses
        obj._check()
        return obj

    def _check(self) -> None:
        """Validate the shapes, then each band's values on views of the arrays, copying nothing."""
        if self.probs.ndim != 3:
            raise ValueError(f"probs must be (D, H, W), got shape {self.probs.shape}")
        if 0 in self.probs.shape:
            raise ValueError(f"probability volume is empty, shape {self.probs.shape}")
        if self.hypotheses.ndim == 1:
            if self.hypotheses.shape[0] != self.probs.shape[0]:
                raise ValueError("hypothesis count does not match probs")
        elif self.hypotheses.shape != self.probs.shape:
            raise ValueError("per-pixel hypotheses must match probs shape")
        hyp = self.hypotheses
        for rows, *_ in _bands(self.probs.shape[1:]):
            _check_block(self.probs[:, rows], hyp if hyp.ndim == 1 else hyp[:, rows])

    @property
    def num_hypotheses(self) -> int:
        return self.probs.shape[0]

    @property
    def shape(self) -> tuple:
        return self.probs.shape

    def _band(self, rows: slice, block):
        """Views of the band, its probabilities copied into a block unless the view is contiguous."""
        probs = self.probs[:, rows]
        if not probs.flags.c_contiguous:
            buf = block(0, probs.dtype)
            np.copyto(buf, probs)
            probs = buf
        return probs, self.hypotheses if self.hypotheses.ndim == 1 else self.hypotheses[:, rows]

    def _rejected(self, exc: ValueError) -> ValueError:
        return exc


def _blocks(vol):
    """Yield (rows, probs, hyp) for each of reproject's row bands of vol, checked.

    probs is the band's contiguous (D, rows, W) probabilities and hyp its
    (D, rows, W) hypotheses or the shared (D,) ones, as vol._band(rows,
    block) returns them.  A buffer of block is allocated at its first use
    to fit the first band, the tallest, and every later band reuses it,
    so a band read into it is overwritten by the next.
    """
    d, h, w = vol.shape
    buffers, tallest = {}, None
    for rows, *_ in _bands((h, w)):
        size = d * (rows.stop - rows.start) * w
        tallest = tallest or size

        def block(k, dtype, size=size):
            if k not in buffers:
                buffers[k] = np.empty(tallest, dtype)
            return buffers[k][:size].reshape(d, -1, w)

        probs, hyp = vol._band(rows, block)
        try:
            _check_block(probs, hyp)
        except ValueError as exc:
            raise vol._rejected(exc) from None
        yield rows, probs, hyp


def _check_block(probs: np.ndarray, hyp: np.ndarray) -> None:
    """Validate one block's values with two reductions and slab-sized temporaries only."""
    # min propagates NaN, so one comparison rejects NaN and negatives.
    if not (probs.min() >= 0 and probs.max() < np.inf):
        raise ValueError("probabilities must be finite and non-negative")
    # A NaN fails a comparison; with strict increase, finite ends bound the rest.
    increasing = all((hyp[k] > hyp[k - 1]).all() for k in range(1, len(hyp)))
    if not (increasing and np.isfinite(hyp[0]).all() and np.isfinite(hyp[-1]).all()):
        raise ValueError("hypotheses must be finite and strictly increasing")


@dataclass(frozen=True)
class StageWeights:
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 2.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("stage weights must be non-negative")


def cross_entropy_error(vol, gt: DepthMap) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel depth error and the supervised-pixel mask.

    vol is a ProbabilityVolume or a volume file opened with
    formats.open_probability_volume.  A pixel is supervised when the
    ground truth is valid and lies inside the hypothesis range; elsewhere
    the error is 0 and masked out.  Raises if a band's values break the
    volume rules (a ParseError naming the payload offset, for a file), or
    if the distribution at any supervised pixel is not normalized.
    Walks the volume one checked band block at a time (_blocks), so no
    volume-sized array is made or read at once; float32 and float64
    volumes of the same values give the same bits.
    """
    if vol.shape[1:] != gt.shape:
        raise ValueError("probability volume does not match ground truth shape")
    err, supervised = np.empty(gt.shape), np.empty(gt.shape, dtype=bool)
    worst = 0.0  # max |sum - 1| over the supervised pixels so far
    for rows, probs, hyp in _blocks(vol):
        err[rows], supervised[rows], off = _band_error(probs, hyp, gt, rows)
        worst = max(worst, off)
    if worst > _NORM_TOL:
        raise ValueError(f"probability volume not normalized (max |sum - 1| = {worst:.3e})")
    return err, supervised


def _band_error(probs, hyp, gt: DepthMap, rows: slice):
    """Error, supervised mask and max |sum - 1| over the supervised pixels of one band block.

    probs is the band's contiguous (D, rows, W) block and hyp its
    (D, rows, W) hypotheses or the shared (D,) ones.  The ground truth is
    read as float64, one copy per band: a float32 depth against float32
    hypotheses would otherwise run the distance in float32.

    The running minimum of |h_k - g| replaces only on a strictly smaller
    distance, and pick = max(pick, k * better) then holds the bin of the
    first minimum (ties go to the lower bin), in the narrowest unsigned
    type that holds D - 1.  No pass of the loop is masked (see the module
    docstring).  A per-pixel hypothesis slab is cast to float64 before the
    subtraction: numpy's buffered mixed-dtype subtract took 42 us a band
    against 25 for the cast and a float64 subtract.  After the loop one
    gather reads the picked probabilities through a flat index into the
    block (np.take was 4.5x slower on a file's unaligned views).  The sums
    add the bins in order, as a float64 sum over axis 0 does; 0 stands for
    a band with no supervised pixel, as every |sum - 1| is at least 0.
    """
    g = gt.values[rows].astype(np.float64, copy=False)
    best = np.abs(hyp[0] - g)
    sums = probs[0].astype(np.float64)
    dist = np.empty_like(best)
    better = np.empty(best.shape, dtype=bool)
    pick = np.zeros(best.shape, dtype=np.min_scalar_type(probs.shape[0] - 1))
    kb = np.empty_like(pick)
    for k in range(1, probs.shape[0]):
        if hyp.ndim == 1:
            np.subtract(hyp[k], g, out=dist)
        else:
            np.copyto(dist, hyp[k])
            dist -= g
        np.abs(dist, out=dist)
        np.less(dist, best, out=better)
        np.minimum(best, dist, out=best)
        np.multiply(better, k, out=kb, dtype=kb.dtype)
        np.maximum(pick, kb, out=pick)
        sums += probs[k]
    flat = np.arange(g.size).reshape(g.shape)
    flat += np.multiply(pick, g.size, dtype=np.intp)
    picked = probs.reshape(-1)[flat]
    supervised = gt.valid[rows] & (g >= hyp[0]) & (g <= hyp[-1])
    # dtype=float64: a float32 pick maximum'd with a Python float would stay float32.
    err = -np.log(np.maximum(picked, PROB_FLOOR, dtype=np.float64))
    off = np.abs(np.subtract(sums, 1.0, out=sums), out=sums)
    return np.where(supervised, err, 0.0), supervised, float(np.max(off, where=supervised, initial=0.0))


def stage_loss(penalty, error: np.ndarray, valid: np.ndarray) -> float:
    """Mean over valid pixels of penalty times per-pixel error."""
    weights = penalty.values if isinstance(penalty, PenaltyMap) else np.asarray(penalty, dtype=np.float64)
    error = np.asarray(error, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if weights.shape != error.shape or valid.shape != error.shape:
        raise ValueError("penalty, error and mask shapes must match")
    if not valid.any():
        raise ValueError("no supervised pixels")
    return float(np.mean(weights[valid] * error[valid]))


def total_loss(stage_losses, w: StageWeights = StageWeights()) -> float:
    """Weighted sum of one to three stage losses, weighted alpha, beta, gamma in stage order.

    Summed from 0 in stage order: for finite losses, the bits of
    alpha * l0 + beta * l1 + gamma * l2 (0 + x is x, but for -0.0).
    """
    losses = [float(x) for x in stage_losses]
    if not 1 <= len(losses) <= 3:
        raise ValueError("expected one to three stage losses")
    if not all(np.isfinite(losses)):
        raise ValueError("stage losses must be finite")
    return float(sum(weight * loss for weight, loss in zip((w.alpha, w.beta, w.gamma), losses)))
