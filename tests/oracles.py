"""Independent oracles used by the tests: a pure-Python brute-force
detection evaluator (no shared code with fabme.metrics), a direct
triple-loop convolution, the masked-scatter sigmoid, the masked forms of
SiLU, channel normalisation and max pooling (forward value and input
gradient), the per-candidate decode with its Python greedy NMS, the backward sweep
that keeps the whole tape until it ends, the selective scan's gradients by
a per-step reverse sweep, and ss2d composed of four independent
per-direction scans."""
from __future__ import annotations

import numpy as np


def iou_py(a, b) -> float:
    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    iw, ih = ix2 - ix1, iy2 - iy1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def brute_force_ap(dets, gts, iou_thresh=0.5) -> dict[int, float]:
    """dets: (image_id, class_id, box, conf); gts: (image_id, class_id, box).
    Greedy confidence-ranked matching, envelope area by explicit max-scan."""
    classes = sorted({g[1] for g in gts})
    aps = {}
    for c in classes:
        class_dets = [d for d in dets if d[1] == c]
        class_gts = [g for g in gts if g[1] == c]
        class_dets = sorted(class_dets, key=lambda d: -d[3])  # stable on ties
        used = [False] * len(class_gts)
        flags = []
        for d in class_dets:
            best, best_i = 0.0, None
            for i, g in enumerate(class_gts):
                if used[i] or g[0] != d[0]:
                    continue
                v = iou_py(d[2], g[2])
                if v > best:
                    best, best_i = v, i
            if best_i is not None and best >= iou_thresh:
                used[best_i] = True
                flags.append(True)
            else:
                flags.append(False)
        points = []
        tp = fp = 0
        for flag in flags:
            tp += 1 if flag else 0
            fp += 0 if flag else 1
            points.append((tp / len(class_gts), tp / (tp + fp)))
        ap, prev_r = 0.0, 0.0
        for r in sorted({r for r, _ in points}):
            if r <= prev_r:
                continue
            pmax = max(p for rr, p in points if rr >= r)
            ap += (r - prev_r) * pmax
            prev_r = r
        aps[c] = ap
    return aps


def brute_force_map50(dets, gts, iou_thresh=0.5) -> float:
    aps = brute_force_ap(dets, gts, iou_thresh)
    return sum(aps.values()) / len(aps)


def random_detection_scene(rng, n_images=4, n_classes=5, max_gt=6, max_det=10):
    """Random boxes/detections for oracle-vs-library comparisons."""
    gts, dets = [], []
    for img in range(n_images):
        for _ in range(int(rng.integers(1, max_gt + 1))):
            x1, y1 = rng.uniform(0, 80, size=2)
            w, h = rng.uniform(4, 40, size=2)
            gts.append((img, int(rng.integers(1, n_classes + 1)),
                        (x1, y1, x1 + w, y1 + h)))
        for _ in range(int(rng.integers(0, max_det + 1))):
            if len(gts) and rng.random() < 0.6:
                # perturb an existing gt so matches at various IoUs occur
                base = gts[int(rng.integers(0, len(gts)))]
                if base[0] != img and rng.random() < 0.5:
                    continue
                bx = base[2]
                dx, dy = rng.uniform(-8, 8, size=2)
                box = (bx[0] + dx, bx[1] + dy, bx[2] + dx * 0.5, bx[3] + dy * 0.5)
                if box[0] >= box[2] or box[1] >= box[3]:
                    continue
                cid = base[1] if rng.random() < 0.8 else int(rng.integers(1, n_classes + 1))
            else:
                x1, y1 = rng.uniform(0, 80, size=2)
                w, h = rng.uniform(4, 40, size=2)
                box = (x1, y1, x1 + w, y1 + h)
                cid = int(rng.integers(1, n_classes + 1))
            dets.append((img, cid, box, float(rng.random())))
    return dets, gts


def conv2d_direct(x, w, b, stride=1, pad=0, groups=1):
    """Triple-loop 2-D cross-correlation oracle (NCHW), float64."""
    n, c, h, wd = x.shape
    oc, icg, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    cpg = c // groups
    opg = oc // groups
    for b_ in range(n):
        for o in range(oc):
            g = o // opg
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(cpg):
                        for u in range(kh):
                            for v in range(kw):
                                acc += w[o, ci, u, v] * xp[b_, g * cpg + ci, i * stride + u, j * stride + v]
                    out[b_, o, i, j] = acc + (b[o] if b is not None else 0.0)
    return out


def expit_masked(x):
    """The logistic sigmoid by boolean-mask gather and scatter: the positive
    half as 1 / (1 + exp(-x)), the negative half as exp(x) / (1 + exp(x))."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def silu_masked(x, g):
    """SiLU x * sigmoid(x) on expit_masked, and its input gradient for the
    upstream gradient g."""
    s = expit_masked(x)
    return x * s, g * s * (1.0 + x * (1.0 - s))


def channel_norm_4d(x, gain, bias, g, eps=1e-5):
    """Per-(n, c) plane normalisation over axes (2, 3) with a per-channel
    affine: the forward value and the gradients of x, gain and bias."""
    mu = x.mean(axis=(2, 3), keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gain[None, :, None, None] * xhat + bias[None, :, None, None]
    gy = g * gain[None, :, None, None]
    gmean = gy.mean(axis=(2, 3), keepdims=True)
    gdot = (gy * xhat).mean(axis=(2, 3), keepdims=True)
    gx = inv * (gy - gmean - xhat * gdot)
    return out, gx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


def maxpool2d_masked(x, k, s, p, g):
    """Max pooling by boolean gather and scatter: a window offset replaces
    the running maximum only when strictly greater, so ties (and a NaN
    after the first offset) keep the earlier value, and the gradient goes
    to the offset recorded in an argmax map.  Returns (out, grad of x)."""
    n, c, h, w = x.shape
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    xp = np.full((n, c, h + 2 * p, w + 2 * p), -np.inf, dtype=x.dtype)
    xp[:, :, p:p + h, p:p + w] = x
    offsets = [(u, v) for u in range(k) for v in range(k)]
    best = None
    arg = np.zeros((n, c, oh, ow), dtype=np.int16)
    for i, (u, v) in enumerate(offsets):
        sl = xp[:, :, u:u + s * oh:s, v:v + s * ow:s]
        if best is None:
            best = sl.copy()
        else:
            m = sl > best
            best[m] = sl[m]
            arg[m] = i
    gxp = np.zeros_like(xp)
    for i, (u, v) in enumerate(offsets):
        gxp[:, :, u:u + s * oh:s, v:v + s * ow:s] += np.where(arg == i, g, 0.0)
    return best, gxp[:, :, p:p + h, p:p + w]


def box_iou_py(a, b) -> float:
    """Scalar IoU with the float ops in the order the vectorised kernel
    uses; 0 when the union is not positive."""
    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    iw, ih = max(0.0, ix2 - ix1), max(0.0, iy2 - iy1)
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def decode_loop(outputs, num_classes, strides=(8, 16, 32), conf_thresh=0.25,
                iou_thresh=0.45, max_det=300):
    """Per-candidate decode and greedy per-class NMS in plain Python loops.

    Returns, per image, (class_id, box, confidence) tuples in the order the
    detections are kept: score descending, ties by candidate order (scale,
    then class, row, column), cut at max_det."""
    batch = outputs[0].shape[0]
    per_image = [[] for _ in range(batch)]
    for arr, stride in zip(outputs, strides):
        n, ch, hh, ww = arr.shape
        jj, ii = np.meshgrid(np.arange(ww), np.arange(hh))
        cx = (expit_masked(arr[:, 0]) + jj) * stride
        cy = (expit_masked(arr[:, 1]) + ii) * stride
        bw = np.exp(np.clip(arr[:, 2], -20.0, 8.0)) * stride
        bh = np.exp(np.clip(arr[:, 3], -20.0, 8.0)) * stride
        scores = expit_masked(arr[:, 4])[:, None] * expit_masked(arr[:, 5:])
        for b in range(n):
            ks, iy, ix = np.nonzero(scores[b] > conf_thresh)
            for k, i, j in zip(ks, iy, ix):
                x1 = cx[b, i, j] - bw[b, i, j] / 2
                y1 = cy[b, i, j] - bh[b, i, j] / 2
                per_image[b].append(
                    (float(scores[b, k, i, j]), int(k) + 1,
                     (float(x1), float(y1), float(x1 + bw[b, i, j]), float(y1 + bh[b, i, j])))
                )
    results = []
    for cands in per_image:
        order = sorted(range(len(cands)), key=lambda t: -cands[t][0])
        dets = []
        kept_by_class = {}
        for idx in order:
            conf, cid, box = cands[idx]
            kept = kept_by_class.setdefault(cid, [])
            if any(box_iou_py(box, kb) > iou_thresh for kb in kept):
                continue
            kept.append(box)
            dets.append((cid, box, conf))
            if len(dets) >= max_det:
                break
        results.append(dets)
    return results


def backward_retaining(root, seed=None):
    """Tensor.backward as it was before the tape freed itself as it went:
    the same depth-first topological order, every closure run in reverse,
    and every node's grad, closure and parents kept to the end."""
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in visited)
    root.grad = np.asarray(np.ones_like(root.data) if seed is None else seed, dtype=root.data.dtype)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def tape_arrays(root):
    """Every numpy array that the backward closures of the tape under root
    keep, through nested functions, lists and tuples, but not the data of
    the tensors they name (a node's inputs and outputs are kept anyway)."""
    arrays, values, seen_nodes, seen, todo = [], [], set(), set(), [root]
    while todo:
        node = todo.pop()
        if id(node) in seen_nodes:
            continue
        seen_nodes.add(id(node))
        todo.extend(node._parents)
        if node._backward is not None:
            values.append(node._backward)
    while values:
        v = values.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            arrays.append(v)
        elif isinstance(v, (list, tuple)):
            values.extend(v)
        elif callable(v) and getattr(v, "__closure__", None):
            values.extend(cell.cell_contents for cell in v.__closure__)
    return arrays


def ss2d_by_direction(x, p):
    """ss2d as four separate 1-D scans of one (n, c, h, w) map: for each
    direction, copy the tokens into scan order, project the copy (dt, B,
    C), run the recurrence step by step, put the outputs back in row-major
    order, and sum the four maps."""
    n, c, h, w = x.shape
    grid = np.arange(h * w).reshape(h, w)
    orders = (grid.ravel(), grid.ravel()[::-1], grid.T.ravel(), grid.T.ravel()[::-1])
    tokens = x.reshape(n, c, h * w).transpose(0, 2, 1)
    A = -np.exp(p.a_log.data)
    total = np.zeros_like(tokens)
    for order in orders:
        seq = tokens[:, order]
        dt = np.logaddexp(0.0, seq @ p.w_dt_down.data.T @ p.w_dt_up.data.T + p.dt_bias.data)
        B, C = seq @ p.w_b.data.T, seq @ p.w_c.data.T
        state = np.zeros((n, c, A.shape[1]))
        y = np.empty_like(seq)
        for t in range(h * w):
            state = (np.exp(dt[:, t, :, None] * A) * state
                     + (dt[:, t] * seq[:, t])[:, :, None] * B[:, t, None, :])
            y[:, t] = np.einsum("ndk,nk->nd", state, C[:, t]) + p.d_skip.data * seq[:, t]
        total[:, order] += y
    return total.transpose(0, 2, 1).reshape(n, c, h, w)


def selective_scan_grads(x, dt, A, B, C, D, order, gy):
    """The six gradients (x, dt, A, B, C, D) of selective_scan's output
    against an upstream gy, all plain arrays: the forward state by state,
    then one reverse sweep that carries dA_t * (gy_t.C_t + carry) and adds
    every gradient's terms one position at a time."""
    n, L, d = x.shape
    steps = list(order)
    dA = np.exp(dt[:, :, :, None] * A[None, None])
    dBx = (dt * x)[:, :, :, None] * B[:, :, None, :]
    hs = np.empty_like(dA)
    h = np.zeros((n, d, A.shape[1]), dtype=x.dtype)
    for t in steps:
        h = dA[:, t] * h + dBx[:, t]
        hs[:, t] = h
    gx = gy * D
    gdt = np.zeros_like(dt)
    gA = np.zeros_like(A)
    gB = np.zeros_like(B)
    gC = np.einsum("nld,nldk->nlk", gy, hs)
    gD = np.einsum("nld,nld->d", gy, x)
    carry = np.zeros_like(h)
    for i in range(L - 1, -1, -1):
        t = steps[i]
        ghb = gy[:, t, :, None] * C[:, t, None, :] + carry
        if i > 0:
            gexp = ghb * hs[:, steps[i - 1]] * dA[:, t]
            gdt[:, t] = np.einsum("ndk,dk->nd", gexp, A)
            gA += np.einsum("ndk,nd->dk", gexp, dt[:, t])
        gb_term = ghb * B[:, t, None, :]
        gdt[:, t] += gb_term.sum(axis=2) * x[:, t]
        gB[:, t] = np.einsum("ndk,nd->nk", ghb, dt[:, t] * x[:, t])
        gx[:, t] += gb_term.sum(axis=2) * dt[:, t]
        carry = dA[:, t] * ghb
    return gx, gdt, gA, gB, gC, gD
