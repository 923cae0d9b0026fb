import math

import numpy as np
import pytest

from mvsgeo import synth
from mvsgeo.formats import ParseError
from mvsgeo.views import (
    ViewPairing,
    format_pair_text,
    load_pairing,
    parse_pair_text,
    rank_sources,
    save_pairing,
    view_score,
)


def camera_at(eye, target=(0.0, 0.0, 600.0)):
    K = np.array([[400.0, 0.0, 80.0], [0.0, 400.0, 60.0], [0.0, 0.0, 1.0]])
    return synth.look_at_camera(K, eye, target)


def hand_score(ref_eye, cand_eye, points):
    # MVSNet's angle weight: peak 5 degrees, sigma 1 inside it, 10 beyond.
    total = 0.0
    for p in points:
        b1 = np.asarray(ref_eye, dtype=float) - p
        b2 = np.asarray(cand_eye, dtype=float) - p
        n1, n2 = np.linalg.norm(b1), np.linalg.norm(b2)
        if n1 < 1e-12 or n2 < 1e-12:
            continue
        theta = math.degrees(math.acos(max(-1.0, min(1.0, float(b1 @ b2) / (n1 * n2)))))
        sigma = 1.0 if theta <= 5.0 else 10.0
        total += math.exp(-((theta - 5.0) ** 2) / (2 * sigma**2))
    return total


def test_two_candidate_ordering_matches_hand_score():
    ref = camera_at((0.0, 0.0, 0.0))
    near_duplicate = camera_at((0.01, 0.0, 0.0))  # almost the reference itself
    offset = camera_at((60.0, 0.0, 0.0))          # a useful baseline
    pts = np.array([[0.0, 0.0, 600.0], [20.0, -10.0, 650.0]])
    s_dup = view_score(ref, near_duplicate, pts)
    s_off = view_score(ref, offset, pts)
    assert s_dup == pytest.approx(hand_score((0, 0, 0), (0.01, 0, 0), pts), abs=1e-12)
    assert s_off == pytest.approx(hand_score((0, 0, 0), (60.0, 0, 0), pts), abs=1e-12)
    assert s_dup < s_off  # tiny baseline angles are penalized
    pairing = rank_sources(ref, [near_duplicate, offset], pts, candidate_ids=[1, 2])
    assert [i for i, _ in pairing.ranked_sources] == [2, 1]


def test_single_candidate_always_first():
    ref = camera_at((0.0, 0.0, 0.0))
    cand = camera_at((0.0, 0.0, 0.0))  # zero score: coincident with reference
    pairing = rank_sources(ref, [cand], np.array([[0.0, 0.0, 600.0]]), candidate_ids=[5])
    assert pairing.ranked_sources[0][0] == 5


def test_sample_point_on_camera_center_contributes_zero():
    ref = camera_at((0.0, 0.0, 0.0))
    cand = camera_at((30.0, 0.0, 0.0))
    pts = np.array([[30.0, 0.0, 0.0]])  # exactly the candidate center
    assert view_score(ref, cand, pts) == 0.0


def test_ordering_invariant_under_permutation(rng):
    ref = camera_at((0.0, 0.0, 0.0))
    eyes = [(40.0, 0.0, 0.0), (0.0, 45.0, 0.0), (-25.0, -30.0, 5.0), (70.0, 10.0, -5.0)]
    cams = [camera_at(e) for e in eyes]
    ids = [3, 1, 4, 2]
    pts = rng.uniform(-50, 50, size=(10, 3)) + np.array([0.0, 0.0, 600.0])
    base = rank_sources(ref, cams, pts, candidate_ids=ids)
    perm = rng.permutation(4)
    shuffled = rank_sources(ref, [cams[i] for i in perm], pts, candidate_ids=[ids[i] for i in perm])
    assert base.ranked_sources == shuffled.ranked_sources
    # deterministic tie-break: scores equal only when geometry matches,
    # but the ordering key (score desc, id asc) is total either way
    assert [s for _, s in base.ranked_sources] == sorted([s for _, s in base.ranked_sources], reverse=True)


def test_top_m_prefix_consistent(rng):
    ref = camera_at((0.0, 0.0, 0.0))
    cams = [camera_at((10.0 * k, 5.0 * k, 0.0)) for k in range(1, 7)]
    pts = rng.uniform(-40, 40, size=(8, 3)) + np.array([0.0, 0.0, 600.0])
    pairing = rank_sources(ref, cams, pts, candidate_ids=list(range(1, 7)))
    for m in range(1, 6):
        assert set(pairing.top(m)) <= set(pairing.top(m + 1))


def test_pairing_validation():
    with pytest.raises(ValueError, match="duplicate"):
        ViewPairing(0, ((1, 2.0), (1, 1.0)))
    with pytest.raises(ValueError, match="own sources"):
        ViewPairing(0, ((0, 2.0),))


def test_parse_minimal_pair_file():
    text = "1\n0\n2 7 15.25 3 9.5\n"
    pairings = parse_pair_text(text)
    assert len(pairings) == 1
    assert pairings[0].reference == 0
    assert pairings[0].ranked_sources == ((7, 15.25), (3, 9.5))


def test_pair_file_blank_lines_are_skipped_and_counted():
    # Blank lines anywhere, whitespace-only ones too, are skipped; a line
    # number still counts them.
    text = "\n2\n\n0\n1 1 0.5\n  \n\n1\n1 0 0.5\n\n"
    assert parse_pair_text(text) == parse_pair_text("2\n0\n1 1 0.5\n1\n1 0 0.5\n")
    with pytest.raises(ParseError, match=r"reference view id, got 'x' \(line 5\)"):
        parse_pair_text("\n1\n\n\nx\n1 0 0.5\n")


def test_pair_round_trip(rng):
    pairings = [
        ViewPairing(0, ((2, 101.5), (1, 55.25))),
        ViewPairing(1, ((0, 99.0),)),
        ViewPairing(2, tuple()),
    ]
    text = format_pair_text(pairings)
    assert parse_pair_text(text) == pairings
    # randomized round trips with awkward float scores
    for _ in range(20):
        n = int(rng.integers(1, 6))
        ps = []
        for r in range(n):
            others = [i for i in range(n + 2) if i != r]
            rng.shuffle(others)
            k = int(rng.integers(0, len(others)))
            ps.append(ViewPairing(r, tuple((int(o), float(rng.normal(scale=1e3))) for o in others[:k])))
        assert parse_pair_text(format_pair_text(ps)) == ps


def test_dtu_like_structure():
    # 49 views, 10 sources each: the DTU pair file shape.
    pairings = [
        ViewPairing(r, tuple((s, float(100 - k)) for k, s in enumerate((np.arange(10) + r + 1) % 49)))
        for r in range(49)
    ]
    parsed = parse_pair_text(format_pair_text(pairings))
    assert len(parsed) == 49
    assert all(len(p.ranked_sources) == 10 for p in parsed)


def test_pair_file_io(tmp_path):
    pairings = [ViewPairing(0, ((1, 2.5),)), ViewPairing(1, ((0, 2.5),))]
    path = tmp_path / "pair.txt"
    save_pairing(pairings, path)
    assert load_pairing(path) == pairings


PAIR_MALFORMED = [
    ("", "end of pair file"),
    ("x\n", "pairing count"),
    ("-2\n", "negative pairing count"),
    ("1\nzero\n1 2 3.0\n", "reference view id"),
    ("1\n-1\n1 2 3.0\n", "negative view id"),
    ("1\n0\n", "end of pair file"),
    ("1\n0\nnope 2 3.0\n", "source count"),
    ("1\n0\n2 7 15.25\n", "tokens"),
    ("1\n0\n1 7 abc\n", "id/score"),
    ("1\n0\n1 -7 3.0\n", "negative view id"),
    ("2\n0\n1 1 3.0\n", "end of pair file"),
    ("1\n0\n1 0 3.0\n", "own sources"),
    # Counts and ids are ASCII digits, scores finite decimals: int() read
    # "1_0" as 10 and "+1" as 1, and float() took "nan" and "inf".
    ("1\n0\n+1 1_0 0.5\n", "source count"),
    ("1\n0\n1 1_0 0.5\n", "id/score pair at token 1"),
    ("1\n0\n1 +1 0.5\n", "id/score pair at token 1"),
    ("1\n0\n1 1 nan\n", "id/score pair at token 1"),
    ("1\n0\n1 1 inf\n", "id/score pair at token 1"),
    ("1\n0\n1 1 1e999\n", "id/score pair at token 1"),
    ("1\n0\n1 1 0x1\n", "id/score pair at token 1"),
    ("+1\n0\n1 1 0.5\n", "pairing count"),
    ("1_0\n0\n1 1 0.5\n", "pairing count"),
    ("1\n1_0\n1 1 0.5\n", "reference view id"),
    # "-0" is not ASCII digits, and no negative value: each read as 0.
    ("-0\n", "expected pairing count, got '-0' (line 1)"),
    ("1\n-0\n1 1 0.5\n", "expected reference view id, got '-0' (line 2)"),
    ("1\n0\n-0\n", "expected source count (line 3)"),
    ("1\n0\n1 -00 0.5\n", "bad source id/score pair at token 1 (line 3)"),
    # A reference is listed once: a second listing would be checked or
    # fused twice.
    ("2\n0\n1 1 0.5\n0\n1 1 0.5\n", "reference view 0 listed twice (line 4)"),
    ("3\n0\n1 1 0.5\n1\n1 0 0.5\n\n0\n1 1 0.25\n", "reference view 0 listed twice (line 7)"),
    # A count one short dropped the last pairing: a non-blank line after
    # the last pairing is an error, at its line.
    ("1\n0\n1 1 0.5\n1\n1 0 0.5\n", "unexpected line after the last pairing: '1' (line 4)"),
    ("1\n0\n1 1 0.5\n\n \t\nx", "unexpected line after the last pairing: 'x' (line 6)"),
    ("0\n0\n", "unexpected line after the last pairing: '0' (line 2)"),
    # "\r" alone ends no line.
    ("1\r0\r1 1 0.5\r", "expected pairing count, got '1\\r0\\r1 1 0.5' (line 1)"),
]
# Lines end at "\n" and fields are split at ASCII whitespace alone: a
# non-ASCII separator or line break is a field character, so its line is
# rejected.  str.split() and str.splitlines() split at each of these.
for _sep in ["\xa0", "\x1c", "\x85", "\u2028"]:
    PAIR_MALFORMED += [
        (f"1\n0\n1 1{_sep}0.5\n", "expected 3 tokens for 1 sources, got 2 (line 3)"),
        (f"1\n0{_sep}1 1 0.5\n", f"expected reference view id, got {f'0{_sep}1 1 0.5'!r} (line 2)"),
        (f"1{_sep}0\n1 1 0.5\n", f"expected pairing count, got {f'1{_sep}0'!r} (line 1)"),
    ]


@pytest.mark.parametrize("text,fragment", PAIR_MALFORMED)
def test_pair_malformed_rejected_with_line(text, fragment):
    with pytest.raises(ParseError, match="line") as err:
        parse_pair_text(text)
    assert fragment in str(err.value)


def test_pair_file_with_crlf_line_ends_reads_as_with_lf():
    text = format_pair_text([ViewPairing(0, ((2, 1.5), (1, -0.25))), ViewPairing(2, ()), ViewPairing(1, ((0, 3e-5),))])

    def bits(pairings):
        return [(p.reference, [(i, score.hex()) for i, score in p.ranked_sources]) for p in pairings]

    assert bits(parse_pair_text(text.replace("\n", "\r\n"))) == bits(parse_pair_text(text))


def test_load_pairing_reads_line_ends_as_parse_pair_text_does(tmp_path):
    # No newline translation: a lone "\r" ends no line, as in
    # parse_pair_text (read_text() made it one), and "\r\n" files read
    # bit for bit as their "\n" forms.
    pairings = [ViewPairing(0, ((2, 1.5), (1, -0.25))), ViewPairing(2, ()), ViewPairing(1, ((0, 3e-5),))]
    text, path = format_pair_text(pairings), tmp_path / "pair.txt"
    path.write_bytes(text.replace("\n", "\r").encode())
    with pytest.raises(ParseError, match=r"expected pairing count, got .* \(line 1\)"):
        load_pairing(path)
    path.write_bytes(text.replace("\n", "\r\n").encode())

    def bits(pairings):
        return [(p.reference, [(i, score.hex()) for i, score in p.ranked_sources]) for p in pairings]

    assert bits(load_pairing(path)) == bits(pairings)
