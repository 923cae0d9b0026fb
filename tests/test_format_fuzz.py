"""Differential fuzzing of every file reader against tests/oracles.py.

Valid files are mutated by bit flips, truncations and header-line edits:
PFMs of 1 and 3 channels in either byte order, ASCII and binary clouds
with and without colour, and shared and per-pixel volumes.  Each mutant
is read from bytes (read_pfm, read_ply, read_probability_volume) and
from a file (open_pfm band by band, open_ply's points, an opened volume
walked band by band as the loss walks it).  Where the grammar's oracle
parser, which shares no code with the readers, decodes the mutant, both
reads give its bits; where it rejects the mutant, both raise the same
ParseError and no other exception.  No read's tracemalloc peak exceeds
twice the file's size plus 64 KB: a header cannot make a reader allocate
for a payload the file does not hold.

cam.txt and pair.txt texts (write_cam's and format_pair_text's) are
mutated by character flips, truncations and line edits: a space or a
line break replaced by a non-ASCII separator or "\r\n", a blank line
put in, a line appended, a field replaced by "1_0", "nan" and other
edges.  read_cam and parse_pair_text give their oracle's values, bit for
bit, or raise ParseError where it rejects, and no other exception.
"""

import tracemalloc
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvsgeo import loss, reproject
from mvsgeo.formats import (ParseError, open_pfm, open_ply, open_probability_volume, read_cam, read_pfm, read_ply,
                            read_probability_volume, write_cam, write_ply)
from mvsgeo.views import ViewPairing, format_pair_text, parse_pair_text

from conftest import random_camera
from oracles import oracle_cam, oracle_pair, oracle_pfm, oracle_ply, oracle_probability_volume
from test_formats import random_cloud
from test_pfm_stream import _pfm_bytes
from test_volume_stream import _random_case, _volume_bytes

# Header lines a mutant may get in place of one of its own: the grammar's
# edges, and fields split at a non-ASCII space (0xa0, a flipped 0x20) or
# an ASCII separator (0x1c), which str.split() would split at.
EDGE_LINES = [
    b"", b"Pf", b"PF", b"pf", b"P", b"Pf ", b"PfPf", b" 2 3", b"2 3 4", b"2", b"0 3", b"-2 3", b"2 -3", b"1_0 2",
    b"0x2 3", b"2.0 3", b"99999999999999999999 1", b"0", b"-0", b"-0.0", b"nan", b"-nan", b"inf", b"-inf",
    b"1e400", b"-1e-400", b"1.0 2.0", b"\x00", b"\xff\xfe", b"\r", b"a" * 300, b"2\xa03", b"2\x1c3", b"\xa0Pf",
]
PLY_LINES = [
    b"ply", b"format ascii 1.0", b"format binary_little_endian 1.0", b"format binary_big_endian 1.0",
    b"formatted ascii 1.0", b"format\xa0ascii 1.0", b"element vertex 0", b"element vertex 3", b"element vertex -1",
    b"element vertex +1", b"element vertex 1_0", b"element vertex -0", b"element face 1", b"property float x",
    b"property uchar red", b"property double x", b"comment a b c", b"commentary", b"end_header", b"end_header x", b"1 2 3", b"nan 0 0",
]
VOLUME_LINES = [
    b"PROBVOL", b"probvol", b"2 1 1", b"1 1 1", b"1_0 1 1", b"+2 1 1", b"0 1 1", b"2 1", b"shared", b"perpixel",
    b"shared ", b"\xa0shared", b"2\xa01 1",
]


def _read_traced(read, size: int):
    """read()'s result, or the ParseError it raised, after checking the read's tracemalloc peak.

    Any other exception propagates and fails the test.
    """
    tracemalloc.start()
    try:
        result = read()
    except ParseError as exc:
        result = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= 2 * size + 64 * 1024, (peak, size)
    return result


def _bits(*arrays):
    """The dtypes, shapes and bytes of arrays (None passes as None): equal only for the same bits."""
    return [None if a is None else (np.asarray(a).dtype, np.shape(a), np.asarray(a).tobytes()) for a in arrays]


def _agree(data: bytes, want, by_bytes, by_file) -> None:
    """Both reads gave the oracle's decoding (checked by the reads), or both raised one ParseError where it rejects."""
    if want is None:
        assert isinstance(by_bytes, ParseError), data
        assert str(by_file) == str(by_bytes), data
    else:
        assert not isinstance(by_bytes, ParseError) and not isinstance(by_file, ParseError), (data, by_bytes, by_file)


def _check_pfm(data: bytes, path) -> None:
    want = oracle_pfm(data)
    path.write_bytes(data)

    def from_bytes():
        image = read_pfm(data).data
        assert want is not None and _bits(image) == _bits(want)

    def walk():
        with open_pfm(path) as f:
            assert want is not None and f.shape == want.shape
            for rows, *_ in reproject._bands(f.shape[:2]):
                assert _bits(f._band(rows)) == _bits(want[rows]), rows

    _agree(data, want, _read_traced(from_bytes, len(data)), _read_traced(walk, len(data)))


def _check_ply(data: bytes, path) -> None:
    want = oracle_ply(data)
    path.write_bytes(data)

    def from_bytes():
        cloud = read_ply(data)
        assert want is not None and _bits(cloud.points, cloud.colors) == _bits(*want)

    def from_file():
        with open_ply(path) as ply:
            points = ply.points()
        assert want is not None and _bits(points) == _bits(want[0])

    _agree(data, want, _read_traced(from_bytes, len(data)), _read_traced(from_file, len(data)))


def _check_volume(data: bytes, path) -> None:
    want = oracle_probability_volume(data)
    path.write_bytes(data)

    def from_bytes():
        vol = read_probability_volume(data)
        assert want is not None and _bits(vol.probs, vol.hypotheses) == _bits(*want)

    def walk():
        # The loss's walk: each band's probabilities, then its bins' slabs,
        # each checked as it is read; the oracle's bits are compared only
        # where it decodes the file.
        with open_probability_volume(path) as f:
            for rows, probs, slabs in loss._blocks(f):
                hyps = [np.array(s) for s in slabs]
                if want is not None:
                    assert _bits(probs) == _bits(want[0][:, rows]), rows
                    shared = want[1].ndim == 1
                    assert _bits(*hyps) == _bits(*(want[1][k] if shared else want[1][k, rows] for k in range(len(hyps))))
        assert want is not None

    _agree(data, want, _read_traced(from_bytes, len(data)), _read_traced(walk, len(data)))


def _valid_pfm(draw) -> bytes:
    h, w, channels = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.sampled_from([1, 3]))
    values = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(h, w) if channels == 1 else (h, w, 3))
    return _pfm_bytes(values, draw(st.booleans()))


def _valid_ply(draw) -> bytes:
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return write_ply(random_cloud(rng, draw(st.integers(0, 6)), draw(st.booleans())), binary=draw(st.booleans()))


def _valid_volume(draw) -> bytes:
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    probs, hyp, _ = _random_case(rng, *shape, draw(st.sampled_from(["shared", "perpixel"])))
    return _volume_bytes(probs, hyp)


# Per format: a valid file's maker, the bytes its header takes or so, the
# header lines an edit may replace, and the lines an edit may put there.
FORMATS = {
    "pfm": (_valid_pfm, 20, 3, EDGE_LINES),
    "ply": (_valid_ply, 160, 10, PLY_LINES + EDGE_LINES),
    "volume": (_valid_volume, 24, 3, VOLUME_LINES + EDGE_LINES),
}


@st.composite
def mutants(draw, fmt):
    valid, head, header_lines, edges = FORMATS[fmt]
    data = bytearray(valid(draw))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "edit"]))
        if kind == "flip" and data:
            # Half the flips land in the header.
            at = draw(st.one_of(st.integers(0, min(head, len(data) - 1)), st.integers(0, len(data) - 1)))
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "truncate":
            del data[draw(st.integers(0, len(data))):]
        else:
            lines = bytes(data).split(b"\n", header_lines)
            lines[draw(st.integers(0, min(header_lines - 1, len(lines) - 1)))] = draw(
                st.one_of(st.sampled_from(edges), st.binary(max_size=24)))
            data = bytearray(b"\n".join(lines))
    return bytes(data)


_FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(data=mutants("pfm"))
def test_a_mutated_pfm_reads_as_the_oracle_or_raises_only_parse_error(tmp_path, data):
    _check_pfm(data, tmp_path / "fuzz.pfm")


@_FUZZ
@given(data=mutants("ply"))
def test_a_mutated_ply_reads_as_the_oracle_or_raises_only_parse_error(tmp_path, data):
    _check_ply(data, tmp_path / "fuzz.ply")


@_FUZZ
@given(data=mutants("volume"))
def test_a_mutated_volume_reads_as_the_oracle_or_raises_only_parse_error(tmp_path, data):
    _check_volume(data, tmp_path / "fuzz.probvol")


def _every_header_flip_and_cut(valid: bytes, header_lines: int, check) -> None:
    """check each single-bit flip within the header and the first payload byte, each cut there, and three later."""
    header = 0
    for _ in range(header_lines):
        header = valid.index(b"\n", header) + 1
    for at in range(min(header + 1, len(valid))):
        for bit in range(8):
            data = bytearray(valid)
            data[at] ^= 1 << bit
            check(bytes(data))
    for end in [*range(header + 2), len(valid) // 2, len(valid) - 4, len(valid) - 1]:
        check(valid[:end])
    check(valid + b"\x00")


def test_every_header_bit_flip_and_cut_of_a_pfm_reads_as_the_oracle(tmp_path):
    path = tmp_path / "fuzz.pfm"
    rng = np.random.default_rng(0)
    for valid in (_pfm_bytes(rng.normal(size=(3, 2))), _pfm_bytes(rng.normal(size=(2, 3, 3)), True)):
        _every_header_flip_and_cut(valid, 3, lambda data: _check_pfm(data, path))


def test_every_header_bit_flip_and_cut_of_a_volume_reads_as_the_oracle(tmp_path):
    path = tmp_path / "fuzz.probvol"
    rng = np.random.default_rng(1)
    for layout in ("shared", "perpixel"):
        probs, hyp, _ = _random_case(rng, 3, 2, 2, layout)
        _every_header_flip_and_cut(_volume_bytes(probs, hyp), 3, lambda data: _check_volume(data, path))


def test_every_header_bit_flip_and_cut_of_a_ply_reads_as_the_oracle(tmp_path):
    # A binary cloud with colour: its header has every kind of line.
    path = tmp_path / "fuzz.ply"
    valid = write_ply(random_cloud(np.random.default_rng(2), 2, True))
    _every_header_flip_and_cut(valid, valid[:valid.index(b"end_header\n")].count(b"\n") + 1,
                               lambda data: _check_ply(data, path))


# ---------------------------------------------------------------------------
# cam.txt and pair.txt
# ---------------------------------------------------------------------------

# What a line edit may put in place of a space or a line break: non-ASCII
# separators and line breaks that str.split() and str.splitlines() know,
# and ASCII whitespace.
SEPARATORS = ["\xa0", "\x1c", "\x1f", "\x85", "\u2028", "\u2029", "\r\n", "\r", "\t", "\x0b", "\x0c", "  "]
# What a line edit may put in place of a field.
TEXT_FIELDS = ["1_0", "nan", "-nan", "inf", "1e999", "+1", "-1", "0", "-0", "0x1", "1.", ".5", "\xa01", "extrinsic",
               "INTRINSIC", "", "\u0661"]


def _check_cam(text: str) -> None:
    want = oracle_cam(text)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a sloppy rotation still reads
            cam = read_cam(text)
    except ParseError:
        assert want is None, text
        return
    assert want is not None, text
    assert _bits(cam.E, cam.K, cam.depth_min, cam.depth_interval) == _bits(*want), text


def _check_pair(text: str) -> None:
    want = oracle_pair(text)
    try:
        got = parse_pair_text(text)
    except ParseError:
        assert want is None, text
        return
    assert want is not None, text

    def bits(pairings):
        return [(ref, [(i, score.hex()) for i, score in sources]) for ref, sources in pairings]

    assert bits((p.reference, p.ranked_sources) for p in got) == bits(want), text


@st.composite
def _valid_cam(draw) -> str:
    return write_cam(random_camera(np.random.default_rng(draw(st.integers(0, 2**16)))))


@st.composite
def _valid_pair(draw) -> str:
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    views = draw(st.integers(2, 5))
    pairings = []
    for ref in draw(st.permutations(range(views)))[:draw(st.integers(0, views))]:
        others = [v for v in range(views) if v != ref]
        sources = rng.permutation(others)[:draw(st.integers(0, len(others)))]
        pairings.append(ViewPairing(ref, tuple((int(v), float(rng.normal(scale=10))) for v in sources)))
    return format_pair_text(pairings)


@st.composite
def text_mutants(draw, valid):
    text = draw(valid())
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "space", "line break", "blank line", "appended line",
                                     "field"]))
        spaces = [k for k, c in enumerate(text) if c == " "]
        breaks = [k for k, c in enumerate(text) if c == "\n"]
        if kind == "flip" and text:
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + chr(ord(text[at]) ^ 1 << draw(st.integers(0, 7))) + text[at + 1:]
        elif kind == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
        elif kind in ("space", "line break") and (spaces if kind == "space" else breaks):
            at = draw(st.sampled_from(spaces if kind == "space" else breaks))
            text = text[:at] + draw(st.sampled_from(SEPARATORS)) + text[at + 1:]
        elif kind == "blank line" and breaks:
            at = draw(st.sampled_from(breaks))
            text = text[:at] + draw(st.sampled_from(["\n", "\n \t", "\r\n"])) + text[at:]
        elif kind == "appended line":
            text += draw(st.sampled_from(["0\n", "1 0 0.5\n", "x", " \n", "\n"]))
        elif kind == "field":
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            fields = lines[i].split(" ")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(TEXT_FIELDS))
            lines[i] = " ".join(fields)
            text = "\n".join(lines)
    return text


_TEXT_FUZZ = settings(max_examples=150, deadline=None)


@_TEXT_FUZZ
@given(text=text_mutants(_valid_cam))
def test_a_mutated_cam_reads_as_the_oracle_or_raises_only_parse_error(text):
    _check_cam(text)


@_TEXT_FUZZ
@given(text=text_mutants(_valid_pair))
def test_a_mutated_pair_file_reads_as_the_oracle_or_raises_only_parse_error(text):
    _check_pair(text)


def _every_separator_and_cut(valid: str, check) -> None:
    """check valid with each space and line break replaced by each separator, and valid cut at each character."""
    for at, c in enumerate(valid):
        if c in " \n":
            for sep in SEPARATORS:
                check(valid[:at] + sep + valid[at + 1:])
    for end in range(len(valid) + 1):
        check(valid[:end])


def test_every_separator_and_cut_of_a_cam_reads_as_the_oracle():
    cam = random_camera(np.random.default_rng(3))
    _every_separator_and_cut(write_cam(cam), _check_cam)


def test_every_separator_and_cut_of_a_pair_file_reads_as_the_oracle():
    pairings = [ViewPairing(0, ((2, 1.5), (1, -0.25))), ViewPairing(2, ()), ViewPairing(1, ((0, 3e-5),))]
    _every_separator_and_cut(format_pair_text(pairings), _check_pair)
