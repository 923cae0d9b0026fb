"""Byte-level fuzzing of the PFM readers: read_pfm on bytes, open_pfm band by band.

Valid PFMs, 1- and 3-channel, in either byte order, are mutated by bit
flips, truncations and header-line edits.  Each mutant is read through
read_pfm and through open_pfm and every band of it.  Either both
readers decode it, to the same bits, or both reject it with the same
ParseError; no other exception escapes either.  Neither read's
tracemalloc peak exceeds twice the file's size plus 64 KB: a header
cannot make a reader allocate for a payload the file does not hold.
"""

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvsgeo import reproject
from mvsgeo.formats import ParseError, open_pfm, read_pfm

from test_pfm_stream import _pfm_bytes

# Header lines a mutant may get in place of one of its own.
EDGE_LINES = [
    b"", b"Pf", b"PF", b"pf", b"P", b"Pf ", b"PfPf", b" 2 3", b"2 3 4", b"2", b"0 3", b"-2 3", b"2 -3", b"1_0 2",
    b"0x2 3", b"2.0 3", b"99999999999999999999 1", b"0", b"-0", b"-0.0", b"nan", b"-nan", b"inf", b"-inf",
    b"1e400", b"-1e-400", b"1.0 2.0", b"\x00", b"\xff\xfe", b"\r", b"a" * 300,
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


def _check(data: bytes, path) -> None:
    """Both readers decode data to the same bits, or both reject it with the same ParseError."""
    path.write_bytes(data)
    by_bytes = _read_traced(lambda: read_pfm(data).data, len(data))

    def walk():
        with open_pfm(path) as f:
            assert not isinstance(by_bytes, ParseError), by_bytes
            assert f.shape == by_bytes.shape
            for rows, *_ in reproject._bands(f.shape[:2]):
                assert np.array_equal(f._band(rows).view(np.uint32), by_bytes[rows].view(np.uint32)), rows

    by_file = _read_traced(walk, len(data))
    if isinstance(by_bytes, ParseError):
        assert str(by_file) == str(by_bytes)


def _valid(h: int, w: int, channels: int, big_endian: bool, seed: int) -> bytes:
    values = np.random.default_rng(seed).normal(size=(h, w) if channels == 1 else (h, w, 3))
    return _pfm_bytes(values, big_endian)


@st.composite
def mutants(draw):
    data = bytearray(_valid(draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.sampled_from([1, 3])),
                            draw(st.booleans()), draw(st.integers(0, 2**16))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "edit"]))
        if kind == "flip" and data:
            # Half the flips land in the header, which is 16 bytes or so.
            at = draw(st.one_of(st.integers(0, min(20, len(data) - 1)), st.integers(0, len(data) - 1)))
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "truncate":
            del data[draw(st.integers(0, len(data))):]
        else:
            lines = bytes(data).split(b"\n", 3)
            lines[draw(st.integers(0, min(2, len(lines) - 1)))] = draw(
                st.one_of(st.sampled_from(EDGE_LINES), st.binary(max_size=24)))
            data = bytearray(b"\n".join(lines))
    return bytes(data)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutants())
def test_a_mutated_pfm_decodes_alike_or_raises_only_parse_error(tmp_path, data):
    _check(data, tmp_path / "fuzz.pfm")


def test_every_header_bit_flip_and_cut_decodes_alike_or_raises_only_parse_error(tmp_path):
    # Every cut within the header and the first payload byte, and three in the payload.
    path = tmp_path / "fuzz.pfm"
    for valid in (_valid(3, 2, 1, False, 0), _valid(2, 3, 3, True, 1)):
        header = valid.index(b"\n", valid.index(b"\n", valid.index(b"\n") + 1) + 1) + 1
        for at in range(header + 1):
            for bit in range(8):
                data = bytearray(valid)
                data[at] ^= 1 << bit
                _check(bytes(data), path)
        for end in [*range(header + 2), len(valid) // 2, len(valid) - 4, len(valid) - 1]:
            _check(valid[:end], path)
        _check(valid + b"\x00", path)
