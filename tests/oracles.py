"""Independent reference implementations used only to check the package.

Everything here is deliberately written the slow, obvious way: scalar
per-pixel loops, explicit matrix algebra, extended-precision arithmetic.
None of it calls the vectorized code paths it verifies.  The file-format
parsers share no code with mvsgeo.formats: each is written from the
grammar in docs/FORMATS.md.
"""

import math
import re
import struct

import numpy as np

from mvsgeo.camera import W_EPS


# ---------------------------------------------------------------------------
# extended-precision matrix oracle
# ---------------------------------------------------------------------------


def ld_inv(mat):
    """Gauss-Jordan inverse in longdouble (np.linalg.inv rejects longdouble)."""
    m = np.asarray(mat, dtype=np.longdouble)
    n = m.shape[0]
    a = np.concatenate([m, np.eye(n, dtype=np.longdouble)], axis=1)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        a[[col, piv]] = a[[piv, col]]
        a[col] = a[col] / a[col, col]
        for r in range(n):
            if r != col:
                a[r] = a[r] - a[r, col] * a[col]
    return a[:, n:]


def ld_back_project(x, y, depth, K, E):
    """Pixel + depth to world point, longdouble 4x4 chain."""
    ray = ld_inv(K) @ np.array([x, y, 1.0], dtype=np.longdouble)
    cam_pt = np.concatenate([np.longdouble(depth) * ray, np.ones(1, dtype=np.longdouble)])
    world = ld_inv(E) @ cam_pt
    return world[:3] / world[3]


def ld_project(point, K, E):
    """World point to (x, y, depth), longdouble chain."""
    p = np.concatenate([np.asarray(point, dtype=np.longdouble), np.ones(1, dtype=np.longdouble)])
    cam = np.asarray(E, dtype=np.longdouble) @ p
    uvw = np.asarray(K, dtype=np.longdouble) @ cam[:3]
    return float(uvw[0] / uvw[2]), float(uvw[1] / uvw[2]), float(uvw[2])


# ---------------------------------------------------------------------------
# scalar forward-backward reprojection and penalty (float64, per pixel)
# ---------------------------------------------------------------------------


def homogeneous_warp(transform, xs, ys, depth, valid):
    """The pixel-depth warp with every row and the full homogeneous divide.

    Row r is evaluated as t[r,0]*x*d + t[r,1]*y*d + t[r,2]*d + t[r,3],
    left to right; pixels with |q| or d'/q at or below W_EPS come back
    invalid, as 0.
    """
    u, v, d, q = (t[0] * xs * depth + t[1] * ys * depth + t[2] * depth + t[3] for t in transform)
    ok = valid & (np.abs(q) > W_EPS)
    qs = np.where(ok, q, 1.0)
    d = d / qs
    ok = ok & (d > W_EPS)
    ds = np.where(ok, d, 1.0)
    return (np.where(ok, u / qs / ds, 0.0), np.where(ok, v / qs / ds, 0.0),
            np.where(ok, d, 0.0), ok)


def _scalar_warp_chain(x, y, depth, K_from, E_from, K_to, E_to):
    """project(back_project(.)) with separate inverse matrices per step."""
    ray = np.linalg.inv(K_from) @ np.array([x, y, 1.0])
    world = np.linalg.inv(E_from) @ np.append(depth * ray, 1.0)
    world = world[:3] / world[3]
    cam = E_to @ np.append(world, 1.0)
    uvw = K_to @ cam[:3]
    d2 = uvw[2]
    if not d2 > W_EPS:
        return None
    return uvw[0] / d2, uvw[1] / d2, d2


def _scalar_bilinear(values, valid, x, y):
    """Same sampling contract as reproject.remap, scalar arithmetic."""
    hs, ws = values.shape
    eps = 1e-9  # documented boundary guard of the remap contract
    if not (-eps <= x <= ws - 1 + eps and -eps <= y <= hs - 1 + eps):
        return None
    x = min(max(x, 0.0), float(ws - 1))
    y = min(max(y, 0.0), float(hs - 1))
    x0 = min(max(int(np.floor(x)), 0), max(ws - 2, 0))
    y0 = min(max(int(np.floor(y)), 0), max(hs - 2, 0))
    x1 = min(x0 + 1, ws - 1)
    y1 = min(y0 + 1, hs - 1)
    if not (valid[y0, x0] and valid[y0, x1] and valid[y1, x0] and valid[y1, x1]):
        return None
    fx = x - x0
    fy = y - y0
    top = values[y0, x0] * (1.0 - fx) + values[y0, x1] * fx
    bot = values[y1, x0] * (1.0 - fx) + values[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def naive_fbr_pixel(x, y, depth, ref_cam, src_depth_values, src_depth_valid, src_cam):
    """One pixel through the full reprojection chain; None when any step drops it."""
    fwd = _scalar_warp_chain(x, y, depth, ref_cam.K, ref_cam.E, src_cam.K, src_cam.E)
    if fwd is None:
        return None
    xs, ys, _ = fwd
    sampled = _scalar_bilinear(src_depth_values, src_depth_valid, xs, ys)
    if sampled is None:
        return None
    back = _scalar_warp_chain(xs, ys, sampled, src_cam.K, src_cam.E, ref_cam.K, ref_cam.E)
    if back is None:
        return None
    return back  # (x'', y'', d'')


def naive_penalty(d_ref, ref_cam, sources, d_pixel, d_depth, range_mode="one-two"):
    """Nested-loop reimplementation of the multi-view consistency penalty."""
    h, w = d_ref.values.shape
    mask_sum = np.zeros((h, w), dtype=np.int64)
    for d_src, src_cam in sources:
        for i in range(h):
            for j in range(w):
                if not d_ref.valid[i, j]:
                    continue
                d0 = d_ref.values[i, j]
                res = naive_fbr_pixel(float(j), float(i), d0, ref_cam,
                                      d_src.values, d_src.valid, src_cam)
                if res is None:
                    mask_sum[i, j] += 1
                    continue
                x2, y2, d2 = res
                pde = np.sqrt((x2 - j) ** 2 + (y2 - i) ** 2)
                # A valid depth so small that the quotient overflows (5e-324)
                # gives inf, which votes, as in the package.
                with np.errstate(over="ignore"):
                    rdd = abs(d2 - d0) / d0
                if pde > d_pixel or rdd > d_depth:
                    mask_sum[i, j] += 1
    m = len(sources)
    if range_mode == "one-two":
        return 1.0 + mask_sum / m
    return 1.0 + 2.0 * mask_sum / m


# ---------------------------------------------------------------------------
# scalar fusion consume pass
# ---------------------------------------------------------------------------


def scalar_consume_pass(ref_depth, ref_valid, conf, disp, rdd, dres, sx, sy,
                        consumed, ref_idx, src_idx, prob_threshold,
                        min_consistent, mode, table, avg_mode):
    """Per-pixel loop version of fuse's draw (fusion._eligible_pixels) and fusion._consume_pass.

    Same arguments and the same consumed-array side effect; returns the
    fused depth and a uint8 fused mask.
    """
    n_src, h, w = disp.shape
    n_table = table.shape[0]
    fused_depth = np.zeros((h, w), dtype=np.float64)
    fused_mask = np.zeros((h, w), dtype=np.uint8)
    passing = np.zeros(n_src, dtype=np.uint8)
    buf = np.zeros(n_src + 1, dtype=np.float64)
    for i in range(h):
        for j in range(w):
            if consumed[ref_idx, i, j] or not ref_valid[i, j]:
                continue
            if not conf[i, j] > prob_threshold:
                continue
            ok = False
            if mode == 0:
                td = table[0, 0]
                tr = table[0, 1]
                count = 0
                for s in range(n_src):
                    if disp[s, i, j] < td and rdd[s, i, j] < tr:
                        passing[s] = 1
                        count += 1
                    else:
                        passing[s] = 0
                ok = count >= min_consistent
            else:
                kmax = max(n_table, min_consistent)
                chosen = -1
                for k in range(min_consistent, kmax + 1):
                    row = min(k, n_table) - 1
                    td = table[row, 0]
                    tr = table[row, 1]
                    count = 0
                    for s in range(n_src):
                        if disp[s, i, j] < td and rdd[s, i, j] < tr:
                            count += 1
                    if count >= k:
                        chosen = k
                if chosen > 0:
                    ok = True
                    row = min(chosen, n_table) - 1
                    td = table[row, 0]
                    tr = table[row, 1]
                    for s in range(n_src):
                        if disp[s, i, j] < td and rdd[s, i, j] < tr:
                            passing[s] = 1
                        else:
                            passing[s] = 0
            if not ok:
                continue
            n = 0
            for s in range(n_src):
                if passing[s]:
                    buf[n] = dres[s, i, j]
                    n += 1
            if avg_mode == 0:
                acc = 0.0
                for m in range(n):
                    acc += buf[m]
                fused = (ref_depth[i, j] + acc) / (n + 1)
            else:
                buf[n] = ref_depth[i, j]
                n += 1
                sub = np.sort(buf[:n])
                if n % 2 == 1:
                    fused = sub[n // 2]
                else:
                    fused = (sub[n // 2 - 1] + sub[n // 2]) / 2.0
            fused_depth[i, j] = fused
            fused_mask[i, j] = 1
            consumed[ref_idx, i, j] = 1
            for s in range(n_src):
                if passing[s] and sx[s, i, j] >= 0:
                    consumed[src_idx[s], sy[s, i, j], sx[s, i, j]] = 1
    return fused_depth, fused_mask


# ---------------------------------------------------------------------------
# naive loss and nearest-neighbor oracles
# ---------------------------------------------------------------------------


def naive_cross_entropy(probs, hypotheses, gt_values, gt_valid, floor=1e-12):
    """Per-pixel loop version of the one-hot cross-entropy depth error."""
    d, h, w = probs.shape
    err = np.zeros((h, w))
    supervised = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            if not gt_valid[i, j]:
                continue
            hyp = hypotheses if hypotheses.ndim == 1 else hypotheses[:, i, j]
            g = gt_values[i, j]
            if g < hyp[0] or g > hyp[-1]:
                continue
            best, best_diff = 0, abs(g - hyp[0])
            for k in range(1, d):
                diff = abs(g - hyp[k])
                if diff < best_diff:
                    best, best_diff = k, diff
            err[i, j] = -np.log(max(float(probs[best, i, j]), floor))
            supervised[i, j] = True
    return err, supervised


def quadratic_nn(queries, refs, chunk=256):
    """Full O(n*m) distance-matrix scan, chunked to bound memory.

    Squared differences are added per axis in x, y, z order into one
    (chunk, m) array: the order in which a sum over the last axis of a
    (chunk, m, 3) array adds them, so the same bits without that array.
    """
    queries = np.asarray(queries, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    out = np.empty(queries.shape[0])
    for s in range(0, queries.shape[0], chunk):
        q = queries[s:s + chunk]
        d2 = np.zeros((q.shape[0], refs.shape[0]))
        diff = np.empty_like(d2)
        for axis in range(3):
            np.subtract.outer(q[:, axis], refs[:, axis], out=diff)
            diff *= diff
            d2 += diff
        out[s:s + chunk] = np.sqrt(d2.min(axis=1))
    return out


# ---------------------------------------------------------------------------
# file-format parsers, from docs/FORMATS.md's grammar alone
# ---------------------------------------------------------------------------
#
# Each takes a file's bytes and returns what the grammar decodes, or None
# where it rejects the file.  They parse bytes: bytes.split() and
# bytes.strip() know ASCII whitespace alone, and bytes.isdigit() ASCII
# digits alone.  Binary float32 values are built from their bit patterns,
# so a NaN keeps its payload bits.

_GRAMMAR_DECIMAL = re.compile(rb"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _grammar_lines(data, count, pos=0):
    """The first `count` header lines from pos, stripped, and the offset after them; None if one has no
    newline within its 256 bytes."""
    lines = []
    for _ in range(count):
        end = data.find(b"\n", pos, pos + 256)
        if end < 0:
            return None
        lines.append(data[pos:end].strip())
        pos = end + 1
    return lines, pos


def _positive_ints(line, n):
    """The n whitespace-separated positive integers, in ASCII digits, on line, or None."""
    fields = line.split()
    if len(fields) != n or not all(f.isdigit() for f in fields):
        return None
    values = [int(f) for f in fields]
    return values if min(values) > 0 else None


def _finite_decimal(field):
    """The value of a decimal field, or None for another field or a value that is not finite."""
    if not _GRAMMAR_DECIMAL.fullmatch(field):
        return None
    value = float(field)
    return value if math.isfinite(value) else None


def _float32s(payload, little_endian):
    """The float32 values stored in payload, each from the integer its 4 bytes encode."""
    bits = struct.unpack(("<" if little_endian else ">") + "I" * (len(payload) // 4), payload)
    return np.array(bits, dtype=np.uint32).view(np.float32)


def oracle_pfm(data):
    """The (H, W) or (H, W, 3) float32 image of a PFM file, top row first, or None."""
    header = _grammar_lines(data, 3)
    if header is None:
        return None
    (magic, dims, scale_line), pos = header
    size = _positive_ints(dims, 2)
    scale = _finite_decimal(scale_line)
    if magic not in (b"Pf", b"PF") or size is None or not scale:
        return None
    width, height = size
    channels = 1 if magic == b"Pf" else 3
    if len(data) - pos != 4 * width * height * channels:
        return None
    stored = _float32s(data[pos:], scale < 0).reshape(height, width, channels)
    image = np.ascontiguousarray(stored[::-1])  # stored bottom row first
    return image[:, :, 0].copy() if channels == 1 else image


_XYZ = [(b"float", b"x"), (b"float", b"y"), (b"float", b"z")]
_RGB = [(b"uchar", b"red"), (b"uchar", b"green"), (b"uchar", b"blue")]


def oracle_ply(data):
    """(float64 points (N, 3), uint8 colours (N, 3) or None without) of a PLY file, or None."""
    first = _grammar_lines(data, 1)
    if first is None or first[0] != [b"ply"]:
        return None
    pos, fmt, count, props = first[1], None, None, []
    while True:
        line = _grammar_lines(data, 1, pos)
        if line is None:
            return None
        (text,), pos = line
        if text == b"end_header":
            break
        fields = text.split()
        if not fields or fields[0] == b"comment":
            continue
        key, rest = fields[0], fields[1:]
        if key == b"format" and fmt is None and len(rest) == 2 and rest[0] in (b"ascii", b"binary_little_endian"):
            fmt = rest[0]
        elif key == b"element" and count is None and len(rest) == 2 and rest[0] == b"vertex" and rest[1].isdigit():
            count = int(rest[1])
        elif key == b"property" and len(rest) == 2:
            props.append(tuple(rest))
        else:
            return None
    if fmt is None or count is None or props not in (_XYZ, _XYZ + _RGB):
        return None
    coloured = len(props) == 6
    body = data[pos:]
    points, colours = [], []
    if fmt == b"binary_little_endian":
        size = 15 if coloured else 12
        if len(body) != size * count:
            return None
        for i in range(count):
            record = body[size * i:size * (i + 1)]
            points.append(struct.unpack("<3f", record[:12]))
            colours.append(list(record[12:]))
        if not all(math.isfinite(v) for p in points for v in p):
            return None
    else:
        rows = body.split(b"\n")
        if rows[-1] == b"":
            rows.pop()  # the last row's newline
        if len(rows) != count:
            return None
        for row in rows:
            fields = row.split()
            if len(fields) != (6 if coloured else 3):
                return None
            xyz = [_finite_decimal(f) for f in fields[:3]]
            rgb = [int(f) if f.isdigit() else 256 for f in fields[3:]]
            if None in xyz or max(rgb, default=0) > 255:
                return None
            points.append(xyz)
            colours.append(rgb)
    points = np.array(points, dtype=np.float64).reshape(count, 3)
    return points, np.array(colours, dtype=np.uint8).reshape(count, 3) if coloured else None


def oracle_probability_volume(data):
    """(float32 probabilities (D, H, W), float32 hypotheses (D,) or (D, H, W)) of a volume file, or None."""
    header = _grammar_lines(data, 3)
    if header is None:
        return None
    (magic, dims, layout), pos = header
    shape = _positive_ints(dims, 3)
    if magic != b"PROBVOL" or shape is None or layout not in (b"shared", b"perpixel"):
        return None
    d, h, w = shape
    n_hyp = d if layout == b"shared" else d * h * w
    if len(data) - pos != 4 * (n_hyp + d * h * w):
        return None
    values = _float32s(data[pos:], True)
    hyp, probs = values[:n_hyp], values[n_hyp:].reshape(d, h, w)
    if not all(math.isfinite(p) and p >= 0 for p in probs.flat):
        return None
    for column in hyp.reshape(d, -1).T.tolist():
        if not all(math.isfinite(v) for v in column) or any(b <= a for a, b in zip(column, column[1:])):
            return None
    return probs, hyp if layout == b"shared" else hyp.reshape(d, h, w)


# cam.txt and pair.txt are read as text (str).  Their oracles parse its
# UTF-8 bytes, so that bytes.split(), bytes.strip(), bytes.lower() and
# bytes.isdigit() know ASCII alone: a non-ASCII character encodes to
# bytes 0x80-0xff, none of them whitespace, a digit or a letter.


def _text_rows(text):
    """The lines of text as bytes, each stripped of ASCII whitespace: a line ends at \\n, the last may lack one."""
    rows = text.encode("utf-8", "surrogatepass").split(b"\n")
    if rows[-1] == b"":
        rows.pop()  # the last line's newline
    return [row.strip() for row in rows]


def _first_content(rows, start):
    """The index of the first non-blank row from start on, or len(rows)."""
    while start < len(rows) and rows[start] == b"":
        start += 1
    return start


def _cam_matrix(rows, keyword, size):
    """(size x size float64 matrix, index of the row after it) of a cam.txt section, or None."""
    heads = [i for i, row in enumerate(rows) if row.lower() == keyword]
    if not heads:
        return None
    start = _first_content(rows, heads[0] + 1)
    if start + size > len(rows):
        return None
    values = [[_finite_decimal(f) for f in rows[i].split()] for i in range(start, start + size)]
    if any(len(row) != size or None in row for row in values):
        return None
    return np.array(values, dtype=np.float64), start + size


def oracle_cam(text):
    """(E (4, 4), K (3, 3), depth_min, depth_interval) of a cam.txt, as float64, or None."""
    rows = _text_rows(text)
    extrinsic = _cam_matrix(rows, b"extrinsic", 4)
    intrinsic = _cam_matrix(rows, b"intrinsic", 3)
    if extrinsic is None or intrinsic is None:
        return None
    (E, _), (K, end) = extrinsic, intrinsic
    at = _first_content(rows, end)
    fields = rows[at].split() if at < len(rows) else []
    depths = [_finite_decimal(f) for f in fields[:2]]
    if len(depths) < 2 or None in depths:
        return None
    depth_min, depth_interval = depths
    # The camera rules: K upper triangular with positive focal entries and
    # K[2][2] = 1 (within 1e-12), both depth values positive.
    if K[1, 0] != 0 or K[2, 0] != 0 or K[2, 1] != 0 or not (K[0, 0] > 0 and K[1, 1] > 0):
        return None
    if abs(K[2, 2] - 1.0) > 1e-12 or not (depth_min > 0 and depth_interval > 0):
        return None
    return E, K, depth_min, depth_interval


def oracle_pair(text):
    """The pairings of a pair.txt, [(reference id, ((source id, score), ...)), ...], or None.

    Blank lines are skipped; a non-blank line after the last pairing rejects the file.
    """
    rows = [row for row in _text_rows(text) if row != b""]
    if not rows or not rows[0].isdigit():
        return None
    count = int(rows[0])
    if len(rows) != 1 + 2 * count:
        return None
    pairings = []
    for k in range(count):
        ref, fields = rows[1 + 2 * k], rows[2 + 2 * k].split()
        if not ref.isdigit() or int(ref) in [r for r, _ in pairings]:
            return None
        if not fields[0].isdigit() or len(fields) != 1 + 2 * int(fields[0]):
            return None
        ids, scores = fields[1::2], [_finite_decimal(f) for f in fields[2::2]]
        if not all(i.isdigit() for i in ids) or None in scores:
            return None
        ids = [int(i) for i in ids]
        if len(set(ids)) != len(ids) or int(ref) in ids:
            return None
        pairings.append((int(ref), tuple(zip(ids, scores))))
    return pairings
