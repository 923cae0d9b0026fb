"""Source view ranking, the pair.txt view-pairing format and the scene directory reader.

Candidates are scored per sample point by a piecewise Gaussian of the
baseline angle between the two camera rays through the point (peaked a
few degrees away from zero so near-duplicate viewpoints rank low), summed
over all sample points.

pair.txt: the pairing count, then per pairing a line with the reference
view id (each listed once) and one "n id1 score1 id2 score2 ...", split
by formats._text_lines and formats._fields; blank lines are skipped, and
a non-blank line after the last pairing is an error.

Scene(root) is the one reader of a scene directory, whose layout
(docs/FORMATS.md, "Scene directories") synth writes.  Opening it reads
pair.txt (load_pairing), which pairs a reference, every view's camera
(formats.read_cam) and depth header (formats.open_pfm), and checks each
depth has the first's shape; a rejected file is named in front of the
message, "<path>: <message>" (_reading).
"""

import contextlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .camera import Camera
from .formats import _DECIMAL, _DIGITS, ParseError, _fields, _text_lines, open_pfm, read_cam

__all__ = ["Scene", "ViewPairing", "view_score", "rank_sources", "parse_pair_text", "format_pair_text", "load_pairing",
           "save_pairing"]


# Angle weight (MVSNet's): a Gaussian peaked at _THETA0 degrees, of
# sigma _SIGMA_BELOW inside it and _SIGMA_ABOVE beyond.
_THETA0 = 5.0
_SIGMA_BELOW = 1.0
_SIGMA_ABOVE = 10.0


@dataclass(frozen=True)
class ViewPairing:
    reference: int
    ranked_sources: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "ranked_sources", tuple((int(i), float(s)) for i, s in self.ranked_sources))
        ids = [i for i, _ in self.ranked_sources]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate source ids in pairing")
        if self.reference in ids:
            raise ValueError("reference listed among its own sources")

    def top(self, m: int | None) -> list[int]:
        return [i for i, _ in self.ranked_sources[:m]]


def view_score(ref: Camera, candidate: Camera, sample_points) -> float:
    """Sum of baseline-angle weights over the sample points.

    Points coincident with either camera center contribute 0.
    """
    pts = np.asarray(sample_points, dtype=np.float64).reshape(-1, 3)
    b1 = ref.center - pts
    b2 = candidate.center - pts
    n1 = np.linalg.norm(b1, axis=1)
    n2 = np.linalg.norm(b2, axis=1)
    ok = (n1 > 1e-12) & (n2 > 1e-12)
    cosang = np.clip((b1 * b2).sum(axis=1) / np.where(ok, n1 * n2, 1.0), -1.0, 1.0)
    theta = np.degrees(np.arccos(cosang))
    sigma = np.where(theta <= _THETA0, _SIGMA_BELOW, _SIGMA_ABOVE)
    w = np.exp(-((theta - _THETA0) ** 2) / (2.0 * sigma**2))
    return float(np.where(ok, w, 0.0).sum())


def rank_sources(ref: Camera, candidates, sample_points, candidate_ids, reference_id: int = 0) -> ViewPairing:
    """Rank candidate source views, with view ids candidate_ids, by descending score, ties broken by id."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("at least one candidate view is required")
    pts = np.asarray(sample_points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise ValueError("at least one sample point is required")
    if len(candidate_ids) != len(candidates):
        raise ValueError("candidate_ids length mismatch")
    scored = [(int(i), view_score(ref, cam, pts)) for i, cam in zip(candidate_ids, candidates)]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return ViewPairing(reference=reference_id, ranked_sources=tuple(scored))


# ---------------------------------------------------------------------------
# pair.txt
# ---------------------------------------------------------------------------


def parse_pair_text(text: str) -> list[ViewPairing]:
    lines = _text_lines(text)
    content = ((n, ln) for n, ln in enumerate(lines, 1) if ln)  # the non-blank lines, numbered from 1
    pairings = {}  # by reference id
    try:
        # Counts and ids are ASCII digits (int() would also take "+1" and
        # "1_0"; a minus sign passes to be reported as negative), scores
        # finite decimals.
        ln, header = next(content)
        if not _DIGITS.fullmatch(header):
            raise ParseError(f"expected pairing count, got {header!r}", line=ln)
        count = int(header)
        if count < 0:
            raise ParseError(f"negative pairing count {count}", line=ln)
        for _ in range(count):
            ln, ref_line = next(content)
            if not _DIGITS.fullmatch(ref_line):
                raise ParseError(f"expected reference view id, got {ref_line!r}", line=ln)
            ref_id = int(ref_line)
            if ref_id < 0:
                raise ParseError(f"negative view id {ref_id}", line=ln)
            if ref_id in pairings:
                raise ParseError(f"reference view {ref_id} listed twice", line=ln)
            ln, src_line = next(content)
            tokens = _fields(src_line)
            if not tokens or not _DIGITS.fullmatch(tokens[0]):
                raise ParseError("expected source count", line=ln)
            n_src = int(tokens[0])
            if n_src < 0 or len(tokens) != 1 + 2 * n_src:
                raise ParseError(f"expected {1 + 2 * max(n_src, 0)} tokens for {n_src} sources, got {len(tokens)}", line=ln)
            sources = []
            for k in range(n_src):
                sid, score = tokens[1 + 2 * k:3 + 2 * k]
                if not (_DIGITS.fullmatch(sid) and _DECIMAL.fullmatch(score) and math.isfinite(float(score))):
                    raise ParseError(f"bad source id/score pair at token {1 + 2 * k}", line=ln)
                sid, score = int(sid), float(score)
                if sid < 0:
                    raise ParseError(f"negative view id {sid}", line=ln)
                sources.append((sid, score))
            try:
                pairings[ref_id] = ViewPairing(ref_id, tuple(sources))
            except ValueError as exc:
                raise ParseError(str(exc), line=ln) from None
    except StopIteration:
        raise ParseError("unexpected end of pair file", line=len(lines)) from None
    for ln, line in content:
        raise ParseError(f"unexpected line after the last pairing: {line!r}", line=ln)
    return list(pairings.values())


def format_pair_text(pairings) -> str:
    out = [str(len(pairings))]
    for p in pairings:
        out.append(str(p.reference))
        parts = [str(len(p.ranked_sources))]
        for sid, score in p.ranked_sources:
            parts.append(str(sid))
            parts.append(repr(float(score)))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def load_pairing(path) -> list[ViewPairing]:
    """Read and parse a pair.txt file, with no newline translation, so it is parsed as written."""
    with open(path, newline="") as text:
        return parse_pair_text(text.read())


def save_pairing(pairings, path) -> None:
    Path(path).write_text(format_pair_text(pairings))


# ---------------------------------------------------------------------------
# scene directories
# ---------------------------------------------------------------------------


class _NamedError(ValueError):
    """A ValueError with the path of the file it came from in front (see _reading)."""


@contextlib.contextmanager
def _reading(path):
    """Name path in front of the ValueError (a ParseError among them) that its file's contents raise within.

    An error a nested _reading has named keeps the name of its own file.
    """
    try:
        yield
    except _NamedError:
        raise
    except ValueError as exc:
        raise _NamedError(f"{path}: {exc}") from None


class Scene:
    """A scene directory, checked when opened: pair.txt, then the camera and depth header of every view it names.

    A missing camera or depth file, or a view pair.txt does not name, is a missing
    input (FileNotFoundError).  pair.txt pairs a reference, and each depth has the
    first view's shape, shape.  A header whose shape and payload size check out
    leaves no payload byte that can fail to decode, so a depth is read band by band
    only when asked for.  cam.txt is read with no newline translation, as pair.txt.
    pairings maps each reference to its ViewPairing, cams each view to its Camera.
    """

    def __init__(self, root):
        self.root = Path(root)
        pair_path = self.root / "pair.txt"
        with _reading(pair_path):
            self.pairings = {p.reference: p for p in load_pairing(pair_path)}
            if not self.pairings:
                raise ValueError("no pairing: a scene needs a reference view")
        ids = sorted(set(self.pairings) | {s for p in self.pairings.values() for s, _ in p.ranked_sources})
        for view in ids:
            for path in self._files(self.root, view)[:2]:
                if not path.exists():
                    raise FileNotFoundError(str(path))
        self.cams, self.shape = {}, None
        for view in ids:
            cam_path, depth_path, _ = self._files(self.root, view)
            with _reading(cam_path), open(cam_path, newline="") as text:
                self.cams[view] = read_cam(text.read())
            with _reading(depth_path), open_pfm(depth_path) as pfm:
                self.shape = self.shape or pfm.depth_shape
                if pfm.depth_shape != self.shape:
                    raise ValueError(f"view {view} depth shape {pfm.shape} does not match view {ids[0]} {self.shape}")

    @staticmethod
    def _files(root, view):
        """The camera, depth and confidence file of view `view` in the scene directory root, a Path."""
        return (root / "cams" / f"{view:08d}_cam.txt", root / "depths" / f"{view:08d}.pfm",
                root / "confidence" / f"{view:08d}.pfm")

    def _shape(self, view):
        """The scene's depth shape, for a view pair.txt names; another view is a missing input."""
        if view not in self.cams:
            raise FileNotFoundError(f"view {view} not present in scene {self.root}")
        return self.shape

    def depth(self, view, frame=None):
        """A view's depth map, read band by band into frame, a (values, valid) pair, or fresh arrays.

        A bad frame, or a file whose header lost its checked shape, is rejected before a byte is read into frame.
        """
        path, shape = self._files(self.root, view)[1], self._shape(view)
        with _reading(path), open_pfm(path) as pfm:
            if pfm.shape != shape:
                raise ValueError(f"depth shape {pfm.shape} is not the {shape} it had when the scene was checked")
            return pfm.depth(frame)

    def confidence(self, view, depth) -> np.ndarray:
        """A view's confidence map at its file's float32 (4 B/px, not 8), of its depth shape; else depth's validity."""
        path, shape = self._files(self.root, view)[2], self._shape(view)
        if not path.exists():
            return depth.valid.astype(np.float32)
        with _reading(path), open_pfm(path) as pfm:
            if pfm.shape != shape:
                raise ValueError(f"view {view} confidence shape {pfm.shape} does not match its depth shape {shape}")
            return pfm.image()

    def source_views(self, ref, m=0, frame=None):
        """Reference ref's top m sources (all for 0) as stage_penalties reads them: a lazy sequence of (DepthMap, Camera).

        Checked now, before any depth is read: ref is a reference in pair.txt
        (a missing input if not) with a source.  Item i is depth(ids[i],
        frame), so each item read into frame overwrites the one before, and
        its camera; ids is in pair.txt's order.
        """
        if ref not in self.pairings:
            raise FileNotFoundError(f"view {ref} not present in {self.root / 'pair.txt'}")
        ids = self.pairings[ref].top(m or None)
        if not ids:
            raise ValueError(f"view {ref} has no source views in pair.txt")
        return _SourceViews(self, ids, frame)


@dataclass
class _SourceViews(Sequence):
    """Scene.source_views: item i is source ids[i]'s depth, read into frame (fresh arrays if None), and its camera."""

    _scene: Scene
    ids: list
    frame: tuple | None

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, i):
        return self._scene.depth(self.ids[i], self.frame), self._scene.cams[self.ids[i]]
