"""Reference computations the benchmark checks fabme's outputs against.

Nothing here imports fabme, so a fault in the program cannot hide in its
own check: a PNG encoder with the usual per-row filter heuristic (and a
slow reference decoder for the tests), a binary PPM reader, a numpy
decode with greedy per-class NMS, and a brute-force mAP@0.5 evaluator.
"""
from __future__ import annotations

import struct
import zlib

import numpy as np

FILTER_NAMES = ("none", "sub", "up", "average", "paeth")
PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
IDAT_CHUNK = 8192  # libpng's default IDAT size


# ---------------------------------------------------------------------------
# PNG


def filter_rows(rows: np.ndarray, bpp: int) -> np.ndarray:
    """All five PNG filters of every row of a (H, stride) uint8 image, as
    a (5, H, stride) uint8 array indexed by filter type; uint8 arithmetic
    wraps modulo 256 as the format requires."""
    up = np.zeros_like(rows)
    up[1:] = rows[:-1]
    left = np.zeros_like(rows)
    left[:, bpp:] = rows[:, :-bpp]
    ul = np.zeros_like(rows)
    ul[1:, bpp:] = rows[:-1, :-bpp]
    a, b, c = (v.astype(np.int16) for v in (left, up, ul))
    # Paeth: the neighbour nearest to a + b - c, ties in the order a, b, c
    pa, pb, pc = np.abs(b - c), np.abs(a - c), np.abs(a + b - 2 * c)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, ul))
    average = ((a + b) >> 1).astype(np.uint8)
    return np.stack([rows, rows - left, rows - up, rows - average, rows - paeth])


def choose_filters(filtered: np.ndarray) -> np.ndarray:
    """Per-row filter type by the minimum sum of absolute differences:
    each filtered byte counts as a signed value, lowest sum wins, ties go
    to the lower filter type."""
    return np.abs(filtered.view(np.int8).astype(np.int16)).sum(axis=2).argmin(axis=0)


def _chunk(ctype: bytes, body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", zlib.crc32(ctype + body))


def encode_png(img: np.ndarray, filters: int | None = None) -> tuple[bytes, np.ndarray]:
    """8-bit RGB (H, W, 3) PNG bytes and the filter type of each row.
    filters=None applies the heuristic; an int forces that type on every
    row."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w, channels = img.shape
    if channels != 3:
        raise ValueError(f"expected an RGB image, got shape {img.shape}")
    filtered = filter_rows(img.reshape(h, w * 3), 3)
    ftypes = choose_filters(filtered) if filters is None else np.full(h, filters)
    stream = np.empty((h, w * 3 + 1), dtype=np.uint8)
    stream[:, 0] = ftypes
    stream[:, 1:] = filtered[ftypes, np.arange(h)]
    idat = zlib.compress(stream.tobytes(), 6)
    parts = [PNG_SIGNATURE, _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))]
    parts += [_chunk(b"IDAT", idat[i:i + IDAT_CHUNK]) for i in range(0, len(idat), IDAT_CHUNK)]
    parts.append(_chunk(b"IEND", b""))
    return b"".join(parts), ftypes


def decode_png(data: bytes) -> np.ndarray:
    """Slow, plain reference decoder for the encoder's own output (tests
    only): (H, W, 3) uint8."""
    if data[:8] != PNG_SIGNATURE:
        raise ValueError("not a PNG")
    pos, idat = 8, b""
    while True:
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        ctype, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + length]
        pos += 12 + length
        if ctype == b"IHDR":
            w, h = struct.unpack(">II", body[:8])
        elif ctype == b"IDAT":
            idat += body
        elif ctype == b"IEND":
            break
    bpp, stride = 3, w * 3
    raw = zlib.decompress(idat)
    out = [[0] * stride for _ in range(h)]
    for y in range(h):
        ftype = raw[y * (stride + 1)]
        line = raw[y * (stride + 1) + 1:(y + 1) * (stride + 1)]
        for i in range(stride):
            a = out[y][i - bpp] if i >= bpp else 0
            b = out[y - 1][i] if y else 0
            c = out[y - 1][i - bpp] if (y and i >= bpp) else 0
            p = a + b - c
            paeth = a if abs(p - a) <= min(abs(p - b), abs(p - c)) else (b if abs(p - b) <= abs(p - c) else c)
            out[y][i] = (line[i] + (0, a, b, (a + b) // 2, paeth)[ftype]) & 0xFF
    return np.array(out, dtype=np.uint8).reshape(h, w, bpp)


# ---------------------------------------------------------------------------
# PPM


def read_ppm_p6(path) -> np.ndarray:
    """Binary P6 with maxval 255 and no comments: (H, W, 3) uint8."""
    with open(path, "rb") as f:
        data = f.read()
    fields = data.split(maxsplit=4)
    if fields[0] != b"P6" or fields[3] != b"255":
        raise ValueError(f"{path}: not a maxval-255 P6 file")
    w, h = int(fields[1]), int(fields[2])
    pixels = data[len(data) - w * h * 3:]
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)


# ---------------------------------------------------------------------------
# decode + NMS


def expit(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x))).astype(x.dtype)


def candidates(outputs, num_classes: int, strides, conf_thresh: float):
    """Per image, the (scores, class_ids, boxes) of every cell/class above
    conf_thresh, in scale, class, row, column order."""
    per_image = None
    for arr, stride in zip(outputs, strides):
        arr = np.ascontiguousarray(arr)
        n, ch, hh, ww = arr.shape
        if ch != 5 + num_classes:
            raise ValueError(f"{ch} channels, expected {5 + num_classes}")
        if per_image is None:
            per_image = [([], [], []) for _ in range(n)]
        jj, ii = np.meshgrid(np.arange(ww), np.arange(hh))
        cx = (expit(np.ascontiguousarray(arr[:, 0])) + jj) * stride
        cy = (expit(np.ascontiguousarray(arr[:, 1])) + ii) * stride
        bw = np.exp(np.clip(arr[:, 2], -20.0, 8.0)) * stride
        bh = np.exp(np.clip(arr[:, 3], -20.0, 8.0)) * stride
        scores = expit(np.ascontiguousarray(arr[:, 4]))[:, None] * expit(np.ascontiguousarray(arr[:, 5:]))
        for b in range(n):
            ks, iy, ix = np.nonzero(scores[b] > conf_thresh)
            x1 = cx[b, iy, ix] - bw[b, iy, ix] / 2
            y1 = cy[b, iy, ix] - bh[b, iy, ix] / 2
            boxes = np.stack([x1, y1, x1 + bw[b, iy, ix], y1 + bh[b, iy, ix]], axis=1)
            per_image[b][0].append(scores[b, ks, iy, ix].astype(np.float64))
            per_image[b][1].append(ks + 1)
            per_image[b][2].append(boxes.astype(np.float64))
    return [tuple(np.concatenate(p) for p in img) for img in per_image]


def pairwise_iou(boxes: np.ndarray) -> np.ndarray:
    ix1 = np.maximum(boxes[:, None, 0], boxes[None, :, 0])
    iy1 = np.maximum(boxes[:, None, 1], boxes[None, :, 1])
    ix2 = np.minimum(boxes[:, None, 2], boxes[None, :, 2])
    iy2 = np.minimum(boxes[:, None, 3], boxes[None, :, 3])
    inter = np.maximum(0.0, ix2 - ix1) * np.maximum(0.0, iy2 - iy1)
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    union = area[:, None] + area[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(union > 0, inter / union, 0.0)


def greedy_nms(boxes: np.ndarray, scores: np.ndarray, iou_thresh: float) -> np.ndarray:
    """Indices kept by greedy NMS, in descending score order with ties in
    input order."""
    order = np.argsort(-scores, kind="stable")
    iou = pairwise_iou(boxes[order])
    suppressed = np.zeros(len(order), dtype=bool)
    keep = []
    for r in range(len(order)):
        if suppressed[r]:
            continue
        keep.append(r)
        suppressed |= iou[r] > iou_thresh
    return order[np.array(keep, dtype=np.int64)]


def decode_nms(outputs, num_classes: int, strides, conf_thresh: float,
               iou_thresh: float, max_det: int):
    """Per image, a list of (class_id, box, confidence) after per-class
    greedy NMS, ranked by confidence and cut at max_det."""
    results = []
    for scores, cls, boxes in candidates(outputs, num_classes, strides, conf_thresh):
        kept = np.concatenate([
            np.flatnonzero(cls == c)[greedy_nms(boxes[cls == c], scores[cls == c], iou_thresh)]
            for c in np.unique(cls)
        ]) if len(cls) else np.zeros(0, dtype=np.int64)
        # candidate index breaks score ties, as one stable sort over all classes would
        kept = kept[np.lexsort((kept, -scores[kept]))][:max_det]
        results.append([(int(cls[i]), tuple(float(v) for v in boxes[i]), float(scores[i])) for i in kept])
    return results


# ---------------------------------------------------------------------------
# mAP@0.5


def _iou(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def brute_force_map50(dets, gts, iou_thresh: float = 0.5) -> float:
    """dets: (image_id, class_id, box, conf); gts: (image_id, class_id,
    box).  Greedy confidence-ranked matching to the best unmatched ground
    truth; AP is the area under the precision envelope, found by a max
    over every later point; the mean runs over classes with ground truth."""
    aps = []
    for c in sorted({g[1] for g in gts}):
        class_gts = [g for g in gts if g[1] == c]
        ranked = sorted((d for d in dets if d[1] == c), key=lambda d: -d[3])
        used = [False] * len(class_gts)
        points, tp = [], 0
        for k, d in enumerate(ranked, 1):
            best, best_i = 0.0, None
            for i, g in enumerate(class_gts):
                if not used[i] and g[0] == d[0]:
                    v = _iou(d[2], g[2])
                    if v > best:
                        best, best_i = v, i
            if best_i is not None and best >= iou_thresh:
                used[best_i] = True
                tp += 1
            points.append((tp / len(class_gts), tp / k))
        ap, prev_r = 0.0, 0.0
        for r in sorted({r for r, _ in points}):
            if r > prev_r:
                ap += (r - prev_r) * max(p for rr, p in points if rr >= r)
                prev_r = r
        aps.append(ap)
    return sum(aps) / len(aps)
