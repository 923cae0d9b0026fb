"""Penalty-weighted classification loss over depth-hypothesis distributions.

The per-pixel depth error is the negative log probability of the
hypothesis bin nearest to the ground-truth depth (one-hot target, ties
toward the lower bin).  Stage loss is the mean over supervised pixels of
penalty times error; the total is the weighted sum of one to three stages.

A volume is walked one row band at a time (_blocks).  Each band's
probabilities are checked (_check_probs) before it is scored
(_band_error); its hypotheses come one bin slab at a time, as the
scoring loop reaches that bin, and each slab is checked against the one
before (_slabs).  A walked volume offers shape, _band(rows), which
returns the band's (D, rows, W) probabilities and slab(k), bin k's
(rows, W) or shared scalar hypotheses, and _rejected(exc), the error to
raise for a band the checks reject.  formats.open_probability_volume
reads each band's probabilities into one block and each per-pixel slab
into one of two slabs, buffers the opened file owns, reuses from band to
band and drops at close, so a volume on disk is read once and never held
whole.  ProbabilityVolume returns views of its arrays; its eager check,
which formats.read_probability_volume runs too, drains the same walk.
A float32 volume keeps float32 bands; the error is computed in float64
either way, so both give the same bits.

The ground truth and the penalty, whatever their kind (a DepthMap, a
PenaltyMap, an array, or a 1-channel PFM opened with formats.open_pfm),
are read a band at a time through _band_reader, with one pixel rule:
ground truth is valid where finite and > 0, and a penalty not above 0 (0,
negative or NaN) drops its pixel.  A file's band is one positioned read
into the file's own reused buffer, served top row first, so a stage
holds no frame-sized input.

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

from .reproject import _bands, _valid_depths

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
    the bytes instead.  Losses are bit-identical either way.  Values are
    checked again as they are scored: a float64 array is held, not copied,
    so only that check sees a value the caller writes into it later.
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
        """Validate the shapes, then each band's values on views of the arrays: the loss's walk, drained."""
        if self.probs.ndim != 3:
            raise ValueError(f"probs must be (D, H, W), got shape {self.probs.shape}")
        if 0 in self.probs.shape:
            raise ValueError(f"probability volume is empty, shape {self.probs.shape}")
        if self.hypotheses.ndim == 1:
            if self.hypotheses.shape[0] != self.probs.shape[0]:
                raise ValueError("hypothesis count does not match probs")
        elif self.hypotheses.shape != self.probs.shape:
            raise ValueError("per-pixel hypotheses must match probs shape")
        for _, _, slabs in _blocks(self):
            for _ in slabs:
                pass

    @property
    def shape(self) -> tuple:
        return self.probs.shape

    def _band(self, rows: slice):
        """Views of the band's probabilities, and its slabs' getter."""
        hyp = self.hypotheses
        return self.probs[:, rows], (hyp if hyp.ndim == 1 else hyp[:, rows]).__getitem__

    def _rejected(self, exc: ValueError) -> ValueError:
        return exc


def _blocks(vol):
    """Yield (rows, probs, slabs) for each of reproject's row bands of vol.

    probs is the band's (D, rows, W) probabilities, checked, and slabs
    the checked iterator of its bins' hypotheses (_slabs), as
    vol._band(rows) returns them.  A file's band lives in the file's
    reused buffers, so it is overwritten by the next.
    """
    d, h, w = vol.shape
    for rows, *_ in _bands((h, w)):
        probs, slab = vol._band(rows)
        try:
            _check_probs(probs)
        except ValueError as exc:
            raise vol._rejected(exc) from None
        yield rows, probs, _slabs(slab, d, vol._rejected)


def _check_probs(probs: np.ndarray) -> None:
    """Validate one block's probabilities with two reductions."""
    # min propagates NaN, so one comparison rejects NaN and negatives.
    if not (probs.min() >= 0 and probs.max() < np.inf):
        raise ValueError("probabilities must be finite and non-negative")


def _slabs(slab, d: int, rejected):
    """Yield slab(k), bin k's hypotheses, for k = 0 .. d - 1, each checked as it comes.

    A slab must exceed the one before it everywhere, and the first and
    last must be finite: a NaN fails a comparison, and with strict
    increase finite ends bound the rest.  A slab that breaks the rule
    raises rejected(ValueError(...)) before it is yielded.  The previous
    slab is compared after the next is read, so slab may reuse two
    buffers in turn.
    """
    prev = None
    for k in range(d):
        cur = slab(k)
        finite = k not in (0, d - 1) or np.isfinite(cur).all()
        if not (finite and (prev is None or (cur > prev).all())):
            raise rejected(ValueError("hypotheses must be finite and strictly increasing")) from None
        yield cur
        prev = cur


@dataclass(frozen=True)
class StageWeights:
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 2.0

    def __post_init__(self):
        if not all(0 <= weight < np.inf for weight in (self.alpha, self.beta, self.gamma)):
            raise ValueError("stage weights must be finite and non-negative")


def cross_entropy_error(vol, gt) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel depth error and the supervised-pixel mask.

    vol is a ProbabilityVolume or a volume file opened with
    formats.open_probability_volume; gt a DepthMap, an (H, W) array or a
    1-channel PFM file opened with formats.open_pfm, whose zero, negative
    and non-finite pixels are invalid, as DepthMap.from_values makes them.
    A pixel is supervised when the ground truth is valid and lies inside
    the hypothesis range; elsewhere the error is 0 and masked out.  Raises
    if a band's values break the volume rules (a ParseError naming the
    payload offset, for a file), or if the distribution at any supervised
    pixel is not normalized.  Walks the volume and the ground truth one
    checked band at a time (_blocks), so no volume-sized array is made or
    read at once; float32 and float64 volumes of the same values give the
    same bits, as do a ground-truth file, its array and its DepthMap.
    """
    truth, shape = _band_reader(gt)
    if vol.shape[1:] != shape:
        raise ValueError("probability volume does not match ground truth shape")
    err, supervised = np.empty(shape), np.empty(shape, dtype=bool)
    worst = 0.0  # max |sum - 1| over the supervised pixels so far
    for rows, probs, slabs in _blocks(vol):
        err[rows], supervised[rows], off = _band_error(probs, slabs, *_truth_band(truth(rows)))
        worst = max(worst, off)
    if worst > _NORM_TOL:
        raise ValueError(f"probability volume not normalized (max |sum - 1| = {worst:.3e})")
    return err, supervised


def _band_reader(x):
    """x's band reader (rows to that band of its frame: x._band if x has one, else x.values') and frame shape."""
    if hasattr(x, "_band"):
        return x._band, x.shape
    values = np.asarray(getattr(x, "values", x))
    return values.__getitem__, values.shape


def _truth_band(values):
    """A ground-truth band's depths (float64, 0 where invalid) and validity, by reproject._valid_depths.

    The depths are read as float64, one copy per band: a float32 depth
    against float32 hypotheses would otherwise run the distance in
    float32.
    """
    g = values.astype(np.float64)
    return g, _valid_depths(g, np.empty(g.shape, bool), np.empty(g.shape, bool))


def _band_error(probs, slabs, g, valid):
    """Error, supervised mask and max |sum - 1| over the supervised pixels of one band block.

    probs is the band's (D, rows, W) block and slabs the iterator of its
    bins' (rows, W) or shared scalar hypotheses; g and valid are the
    band's float64 ground truth and validity.

    The running minimum of |h_k - g| replaces only on a strictly smaller
    distance, and pick = max(pick, k * better) then holds the bin of the
    first minimum (ties go to the lower bin), in the narrowest unsigned
    type that holds D - 1.  No pass of the loop is masked (see the module
    docstring).  A per-pixel hypothesis slab is cast to float64 before the
    subtraction: numpy's buffered mixed-dtype subtract took 42 us a band
    against 25 for the cast and a float64 subtract.  The range test reads
    the first slab before the loop and the last after it, so only two
    slabs are needed at once.  After the loop one gather reads the picked
    probabilities through a flat index into the block, which reshape
    copies if it is a non-contiguous view (np.take was 4.5x slower on a
    file's unaligned views).  The sums add the bins in order, as a
    float64 sum over axis 0 does; 0 stands for a band with no supervised
    pixel, as every |sum - 1| is at least 0.
    """
    first = next(slabs)
    shared = np.ndim(first) == 0
    best = np.abs(first - g)
    supervised = valid & (g >= first)
    sums = probs[0].astype(np.float64)
    dist = np.empty_like(best)
    better = np.empty(best.shape, dtype=bool)
    pick = np.zeros(best.shape, dtype=np.min_scalar_type(probs.shape[0] - 1))
    kb = np.empty_like(pick)
    last = first
    for k, last in enumerate(slabs, 1):
        if shared:
            np.subtract(last, g, out=dist)
        else:
            np.copyto(dist, last)
            dist -= g
        np.abs(dist, out=dist)
        np.less(dist, best, out=better)
        np.minimum(best, dist, out=best)
        np.multiply(better, k, out=kb, dtype=kb.dtype)
        np.maximum(pick, kb, out=pick)
        sums += probs[k]
    supervised &= g <= last
    flat = np.arange(g.size).reshape(g.shape)
    flat += np.multiply(pick, g.size, dtype=np.intp)
    picked = probs.reshape(-1)[flat]
    # dtype=float64: a float32 pick maximum'd with a Python float would stay float32.
    err = -np.log(np.maximum(picked, PROB_FLOOR, dtype=np.float64))
    off = np.abs(np.subtract(sums, 1.0, out=sums), out=sums)
    return np.where(supervised, err, 0.0), supervised, float(np.max(off, where=supervised, initial=0.0))


def stage_loss(penalty, error: np.ndarray, valid: np.ndarray) -> float:
    """Mean over the valid pixels whose penalty is above 0 of penalty times per-pixel error.

    penalty is a PenaltyMap, an array, or a 1-channel penalty PFM file
    opened with formats.open_pfm, each read band by band (_band_reader).
    A pixel whose penalty is not above 0 (0, negative or NaN) is dropped,
    whatever the kind: gc-penalty writes 0 outside the reference mask, and
    a PenaltyMap's levels are at least 1.  Penalty times error at the kept
    pixels is packed, in pixel order, into one float64 array, whose mean
    is the loss; a float32 penalty widens exactly, so it gives the bits of
    its float64 widening.
    """
    error = np.asarray(error, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    weights, shape = _band_reader(penalty)
    if shape != error.shape or valid.shape != error.shape or error.ndim != 2:
        raise ValueError("penalty, error and mask shapes must match, as (H, W) frames")
    products = np.empty(np.count_nonzero(valid))
    n = 0
    for rows, *_ in _bands(error.shape):
        pen = weights(rows)
        keep = pen > 0
        keep &= valid[rows]
        end = n + np.count_nonzero(keep)
        np.multiply(pen[keep], error[rows][keep], out=products[n:end])
        n = end
    if not n:
        raise ValueError("no supervised pixels")
    return float(np.mean(products[:n]))


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
    total = float(sum(weight * loss for weight, loss in zip((w.alpha, w.beta, w.gamma), losses)))
    if not np.isfinite(total):
        raise ValueError(f"total loss overflows: the weighted sum of stage losses {losses} is not finite")
    return total
