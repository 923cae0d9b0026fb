"""Independent reference implementations used only to check the package.

Everything here is deliberately written the slow, obvious way: scalar
per-pixel loops, explicit matrix algebra, extended-precision arithmetic.
None of it calls the vectorized code paths it verifies.
"""

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
    """Per-pixel loop version of fusion._consume_pass (fusibile-style scan).

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
    """Full O(n*m) distance-matrix scan, chunked to bound memory."""
    queries = np.asarray(queries, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    out = np.empty(queries.shape[0])
    for s in range(0, queries.shape[0], chunk):
        q = queries[s:s + chunk]
        d2 = ((q[:, None, :] - refs[None, :, :]) ** 2).sum(axis=2)
        out[s:s + chunk] = np.sqrt(d2.min(axis=1))
    return out
