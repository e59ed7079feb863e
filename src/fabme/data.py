"""Dataset pipeline: tile large fabric images into fixed-size sub-images,
remap annotations into tile frames, discard defect-free tiles, split 4:1
by source image, and report per-category statistics.

Image IO is dependency-free: PPM (P5/P6) read/write and a minimal PNG
reader (8-bit, non-interlaced) that undoes all five PNG filters with
numpy, in bands of max(W, 64) rows.  None, Sub and Up rows whose row
above is decoded first are direct: each takes whole-row ops.  Every other
row lies in a segment, a run that starts at an Average or Paeth row and
ends before the next None or Sub row.  The segments of a band are swept
together along anti-diagonals, in W - 1 + (longest segment + 1) steps, in
a work array about twice the band.  Malformed files raise ValueError.
"""
from __future__ import annotations

import csv
import math
import os
import struct
import sys
import typing
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

__all__ = [
    "Annotation", "TileJob", "Sample",
    "plan_tiles", "remap_annotations", "plan_tile_job", "extract_tile",
    "split_dataset", "read_labels", "write_labels", "read_key_values", "read_config",
    "read_ppm", "write_ppm", "read_png", "read_image", "load_image",
    "scan_dataset", "tile_dataset", "write_manifest", "category_stats",
]

TILE_SIZE = 640
MIN_AREA_RATIO = 0.25
MIN_CLIPPED_PX = 2.0
PNM_TOKEN_MAX = 10  # width, height and maxval need at most 10 digits


@dataclass(frozen=True)
class Annotation:
    """Ground-truth box: class 1..20, center/size normalized to the frame."""

    class_id: int
    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not 1 <= self.class_id <= 20:
            raise ValueError(f"class_id={self.class_id} out of range 1..20")
        for name in ("cx", "cy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} out of range [0, 1]")
        for name in ("w", "h"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name}={v} out of range (0, 1]")

    def corners(self, frame_w: float, frame_h: float) -> tuple[float, float, float, float]:
        cx, cy = self.cx * frame_w, self.cy * frame_h
        w, h = self.w * frame_w, self.h * frame_h
        return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


# ---------------------------------------------------------------------------
# YOLO label files


def read_labels(path) -> list[Annotation]:
    """YOLO text labels: one "class cx cy w h" per line, class zero-indexed
    on disk and 1-based in memory."""
    anns = []
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
            try:
                cid = int(fields[0])
                vals = [float(v) for v in fields[1:]]
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
            try:
                anns.append(Annotation(cid + 1, *vals))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    return anns


def write_labels(path, anns):
    with open(path, "w") as f:
        for a in anns:
            f.write(f"{a.class_id - 1} {a.cx:.6f} {a.cy:.6f} {a.w:.6f} {a.h:.6f}\n")


def read_key_values(path, casts: dict, kind: str) -> dict:
    """Read a config file of key=value lines as {key: casts[key](value)}.

    Blank lines and lines starting with # are skipped.  A line without
    "=", a key not in casts or a value its cast rejects raises ValueError
    naming the file and the line."""
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            k, v = (s.strip() for s in line.split("=", 1))
            if k not in casts:
                raise ValueError(f"{path}:{lineno}: unknown {kind} key {k!r}")
            try:
                out[k] = casts[k](v)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {k}: {e}") from None
    return out


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"cannot parse boolean from {s!r}")


# the cast of a config value, by the annotation of its dataclass field
_FIELD_CASTS = {float: float, int: int, str: str, bool: _parse_bool, float | None: float}


def read_config(cls, path, kind: str):
    """Build dataclass cls from a key=value file (see read_key_values),
    casting each value by its field's annotation; an error the dataclass
    raises is re-raised naming the file."""
    hints = typing.get_type_hints(cls)
    casts = {f.name: _FIELD_CASTS[hints[f.name]] for f in fields(cls)}
    values = read_key_values(path, casts, kind)
    try:
        return cls(**values)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# tiling


def plan_tiles(img_w: int, img_h: int, tile: int = TILE_SIZE) -> list[tuple[int, int]]:
    """Non-overlapping grid of ceil(w/tile) x ceil(h/tile) origins; edge
    tiles shift inward when the image exceeds the tile in that axis."""
    if img_w < 1 or img_h < 1:
        raise ValueError(f"image dims {img_w}x{img_h} must be >= 1")
    if tile < 1:
        raise ValueError(f"tile size {tile} must be >= 1")
    nx = max(1, math.ceil(img_w / tile))
    ny = max(1, math.ceil(img_h / tile))
    xs = [min(i * tile, max(img_w - tile, 0)) for i in range(nx)]
    ys = [min(j * tile, max(img_h - tile, 0)) for j in range(ny)]
    return [(ox, oy) for oy in ys for ox in xs]


def remap_annotations(anns, origin: tuple[int, int], tile: int, src_w: int,
                      src_h: int) -> list[Annotation]:
    """Clip boxes to a tile and renormalize to its frame.  A clipped box is
    kept iff clipped/original area >= MIN_AREA_RATIO and both clipped sides
    are >= MIN_CLIPPED_PX pixels."""
    ox, oy = origin
    out = []
    for a in anns:
        x1, y1, x2, y2 = a.corners(src_w, src_h)
        ix1, iy1 = max(x1, ox), max(y1, oy)
        ix2, iy2 = min(x2, ox + tile), min(y2, oy + tile)
        cw, ch = ix2 - ix1, iy2 - iy1
        if cw <= 0 or ch <= 0:
            continue
        if cw * ch < MIN_AREA_RATIO * (x2 - x1) * (y2 - y1):
            continue
        if cw < MIN_CLIPPED_PX or ch < MIN_CLIPPED_PX:
            continue
        out.append(Annotation(
            class_id=a.class_id,
            cx=((ix1 + ix2) / 2 - ox) / tile,
            cy=((iy1 + iy2) / 2 - oy) / tile,
            w=cw / tile,
            h=ch / tile,
        ))
    return out


@dataclass
class TileJob:
    """Planned tiling of one source image; only annotated tiles are kept."""

    source_id: str
    src_w: int
    src_h: int
    tile: int
    origins: list[tuple[int, int]] = field(default_factory=list)
    annotations: list[list[Annotation]] = field(default_factory=list)


def plan_tile_job(source_id: str, src_w: int, src_h: int, anns,
                  tile: int = TILE_SIZE) -> TileJob:
    job = TileJob(source_id=source_id, src_w=src_w, src_h=src_h, tile=tile)
    for origin in plan_tiles(src_w, src_h, tile):
        kept = remap_annotations(anns, origin, tile, src_w, src_h)
        if kept:  # discard defect-free tiles
            job.origins.append(origin)
            job.annotations.append(kept)
    return job


def extract_tile(img: np.ndarray, origin: tuple[int, int], tile: int) -> np.ndarray:
    """Crop (H, W[, C]) pixels at origin; replicate the border when the
    source is smaller than the tile."""
    ox, oy = origin
    sub = img[oy:oy + tile, ox:ox + tile]
    pad_h, pad_w = tile - sub.shape[0], tile - sub.shape[1]
    if pad_h or pad_w:
        widths = [(0, pad_h), (0, pad_w)] + [(0, 0)] * (img.ndim - 2)
        sub = np.pad(sub, widths, mode="edge")
    return sub


def split_dataset(items, seed: int = 0):
    """Deterministic 4:1 train/val split by whole items (source images),
    within one item of that ratio."""
    items = list(items)
    n_val = round(len(items) / 5)
    perm = np.random.default_rng(seed).permutation(len(items))
    val_idx = set(perm[:n_val].tolist())
    train = [it for i, it in enumerate(items) if i not in val_idx]
    val = [it for i, it in enumerate(items) if i in val_idx]
    return train, val


# ---------------------------------------------------------------------------
# image IO


def write_ppm(path, img: np.ndarray):
    """Binary P6, maxval 255.  Gray (H, W) input is replicated to RGB."""
    if img.ndim == 2:
        img = np.repeat(img[:, :, None], 3, axis=2)
    if img.dtype != np.uint8:
        img = np.clip(np.round(np.asarray(img, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)
    h, w, c = img.shape
    if c != 3:
        raise ValueError(f"write_ppm: expected 3 channels, got {c}")
    if h < 1 or w < 1:  # read_ppm rejects such a file
        raise ValueError(f"write_ppm: bad image size {w}x{h}")
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(np.ascontiguousarray(img).tobytes())


def _read_pnm_token(f, path) -> bytes:
    """The next whitespace-separated PNM header field, comments skipped; no
    field the reader accepts is longer than PNM_TOKEN_MAX bytes."""
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise ValueError(f"{path}: truncated PNM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        if len(tok) == PNM_TOKEN_MAX:
            raise ValueError(f"{path}: PNM header field longer than {PNM_TOKEN_MAX} bytes")
        tok += ch


def _read_pnm_int(f, path) -> int:
    tok = _read_pnm_token(f, path)
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"{path}: PNM header field {tok!r} is not a number") from None


def read_ppm(path) -> np.ndarray:
    """Read binary P6 (RGB) or P5 (gray) into (H, W, 3) uint8."""
    with open(path, "rb") as f:
        magic = _read_pnm_token(f, path)
        if magic not in (b"P6", b"P5"):
            raise ValueError(f"{path}: unsupported PNM magic {magic!r}")
        w, h, maxval = (_read_pnm_int(f, path) for _ in range(3))
        if maxval != 255:
            raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
        if w < 1 or h < 1:
            raise ValueError(f"{path}: bad PNM size {w}x{h}")
        channels = 3 if magic == b"P6" else 1
        size = w * h * channels
        if size > os.fstat(f.fileno()).st_size - f.tell():
            raise ValueError(f"{path}: truncated pixel data")
        payload = f.read(size)
    img = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, channels)
    return np.repeat(img, 3, axis=2) if channels == 1 else img.copy()


def read_png(path) -> np.ndarray:
    """Minimal PNG reader: 8-bit gray/gray+alpha/RGB/RGBA, no interlace.
    Returns (H, W, 3) uint8; a malformed file, or any chunk whose CRC does
    not match, raises ValueError."""
    blob = memoryview(Path(path).read_bytes())
    if blob[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError(f"{path}: not a PNG file")
    ihdr, idat, pos = None, [], 8
    while True:
        if pos + 12 > len(blob):  # length, type and crc of the next chunk
            raise ValueError(f"{path}: truncated PNG")
        length, ctype = struct.unpack_from(">I4s", blob, pos)
        body = blob[pos + 8:pos + 8 + length]
        pos += 12 + length
        if pos > len(blob):
            raise ValueError(f"{path}: truncated {ctype!r} chunk")
        if zlib.crc32(body, zlib.crc32(ctype)) != struct.unpack_from(">I", blob, pos - 4)[0]:
            raise ValueError(f"{path}: CRC mismatch in {ctype!r} chunk")
        if ctype == b"IHDR":
            if ihdr is not None or len(body) != 13:
                raise ValueError(f"{path}: bad IHDR chunk")
            ihdr = struct.unpack(">IIBBBBB", body)
        elif ctype == b"IDAT":
            if ihdr is None:
                raise ValueError(f"{path}: IDAT before IHDR")
            idat.append(body)
        elif ctype == b"IEND":
            break
    if ihdr is None:
        raise ValueError(f"{path}: no IHDR chunk")
    width, height, bit_depth, color_type, _, _, interlace = ihdr
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad PNG size {width}x{height}")
    if bit_depth != 8:
        raise ValueError(f"{path}: only 8-bit PNG supported, got bit depth {bit_depth}")
    if interlace:
        raise ValueError(f"{path}: interlaced PNG not supported")
    channels = {0: 1, 2: 3, 4: 2, 6: 4}.get(color_type)
    if channels is None:
        raise ValueError(f"{path}: unsupported PNG color type {color_type}")
    size = (width * channels + 1) * height
    try:  # stop a zlib bomb one byte past the size the header declares
        raw = zlib.decompressobj().decompress(b"".join(idat), max_length=min(size + 1, sys.maxsize))
    except zlib.error as e:
        raise ValueError(f"{path}: corrupt PNG data ({e})") from None
    if len(raw) != size:
        raise ValueError(f"{path}: PNG payload size mismatch")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, -1)
    if rows[:, 0].max() > 4:
        raise ValueError(f"{path}: unknown PNG filter type {rows[:, 0].max()}")
    img = _unfilter(rows[:, 1:].reshape(height, width, channels), rows[:, 0])
    if channels <= 2:  # gray, with alpha dropped
        return np.repeat(img[:, :, :1], 3, axis=2)
    return np.ascontiguousarray(img[:, :, :3])


def _unfilter(filt: np.ndarray, ftypes: np.ndarray) -> np.ndarray:
    """Undo the PNG filters (W3C PNG specification, section 9) of (H, W,
    bpp) filtered pixels, ftypes[r] being the filter type of row r, in
    bands of B = max(W, 64) rows; each band's prior row is the last row of
    the band before.  A band fills at most B + 1 slots of a work array of
    at most W + B + 2 diagonals: about twice the band when W >= 64, and
    under 129 x 65 pixels below that, where the floor of 64 rows spreads
    each band's fixed cost over enough rows of a narrow image."""
    h, w, bpp = filt.shape
    out = np.empty(filt.shape, dtype=np.uint8)
    prior = np.zeros((w, bpp), dtype=np.uint8)
    rows = max(w, 64)
    for top in range(0, h, rows):
        band = out[top:top + rows]
        _unfilter_band(filt[top:top + rows], ftypes[top:top + rows], prior, band)
        prior = band[-1]
    return out


def _unfilter_band(filt, ftypes, prior, out):
    """Decode one band into out.  Direct rows take whole-row ops: a None row
    is a copy, a Sub row a running sum along x, and an Up row the sum of
    itself and the row above, which is direct too or the prior row.  A
    segment is a maximal run of rows that starts at an Average or Paeth row
    and ends before the next None or Sub row; only segments are swept."""
    h = len(ftypes)
    rows = np.arange(h)
    in_segment = (np.maximum.accumulate(np.where(ftypes >= 3, rows, -1))
                  > np.maximum.accumulate(np.where(ftypes <= 1, rows, -1)))
    kind = np.where(in_segment, 3, ftypes)
    edges = [0, *(np.flatnonzero(kind[1:] != kind[:-1]) + 1).tolist(), h]
    segments = []
    for r0, r1 in zip(edges[:-1], edges[1:]):
        if kind[r0] == 0:
            out[r0:r1] = filt[r0:r1]
        elif kind[r0] == 1:
            np.cumsum(filt[r0:r1], axis=1, dtype=np.uint8, out=out[r0:r1])
        elif kind[r0] == 2:
            for r in range(r0, r1):
                np.add(out[r - 1] if r else prior, filt[r], out=out[r])
        else:
            segments.append((r0, r1))
    if segments:
        _sweep(filt, ftypes, prior, out, segments)


def _sweep(filt, ftypes, prior, out, segments):
    """Decode the segments together, one anti-diagonal of pixels per step,
    in w - 1 + (most slots of a segment) steps.  A segment of m rows takes
    m + 1 consecutive slots: its decoded row above, entered as a None row,
    then its rows.  Pixel x of slot s, the j-th of its segment, lies on
    diagonal j + x, and its left (s, x-1), up (s-1, x) and up-left
    (s-1, x-1) neighbours on the two diagonals before it, so every segment
    starts at step 0.  The work array d is diagonal-major: d[k+2, s+1]
    holds pixel (s, k-j), filtered until step k decodes it in place; every
    pixel left of x = 0 stays zero, and pixels right of x = w - 1 are read
    by none that lie inside.  Each step runs over the slot range whose
    pixels lie in [0, w); segments that hold a Paeth row go last, and only
    that tail evaluates the Paeth predictor, unless fewer than 1024 bytes
    of a diagonal come before it."""
    w, bpp = filt.shape[1:]
    segments.sort(key=lambda s: 4 in ftypes[s[0]:s[1]])
    m = np.array([r1 - r0 + 1 for r0, r1 in segments])
    start = np.concatenate([[0], np.cumsum(m)])
    slots, n = int(start[-1]), w + int(m.max()) - 1
    tail = int(start[sum(4 not in ftypes[r0:r1] for r0, r1 in segments)])
    if tail < slots and tail * bpp < 1024:  # too few bytes before it to pay for two passes
        tail = 0
    d = np.zeros((n + 2, slots + 1, bpp), dtype=np.uint8)
    pixels = d.view(f"V{bpp}")  # copies move whole pixels
    stype = np.zeros(slots, dtype=np.intp)
    for s0, (r0, r1) in zip(start.tolist(), segments):
        view = _skewed(pixels, 2, s0 + 1, r1 - r0 + 1, w)
        view[0] = (out[r0 - 1] if r0 else prior).view(pixels.dtype)
        view[1:] = filt[r0:r1].view(pixels.dtype)
        stype[s0 + 1:s0 + 1 + r1 - r0] = ftypes[r0:r1]
    # None, Up and Average predict (ka*a + kb*b) >> 1 with (ka, kb) = (0, 0),
    # (0, 2), (1, 1); Paeth slots have ka = kb = 0, and kp = 1 adds Paeth.
    ka, kb, kp = (np.repeat(np.array(v, dtype=np.int16)[stype], bpp)
                  for v in ((0, 0, 0, 1, 0), (0, 0, 2, 1, 0), (0, 0, 0, 0, 1)))
    # the live slots of step k: until k = w - 1, slots j <= k; then slots
    # j > k - w of the segments longer than that
    q = np.arange(1, n - w + 1)
    longer = m > q[:, None]
    lo = np.concatenate([np.zeros(w, dtype=int), start[longer.argmax(1)] + q])
    hi = np.concatenate([np.minimum(slots, start[-2] + np.arange(1, w + 1)),
                         start[len(m) - longer[:, ::-1].argmax(1)]])
    tail_avg = kb[tail * bpp:].any()  # whether the tail holds Up or Average slots
    lo, mid, hi = ((v * bpp).tolist() for v in (lo, np.clip(tail, lo, hi), hi))  # byte offsets
    d = d.reshape(n + 2, -1)
    for k, (i, t, j) in enumerate(zip(lo, mid, hi)):
        out_k = d[k + 2, i + bpp:j + bpp]  # filtered until decoded
        if i < t:  # the slots before the tail, and Up and Average in it
            np.add(out_k, (ka[i:j] * d[k + 1, i + bpp:j + bpp] + kb[i:j] * d[k + 1, i:j]) >> 1,
                   out=out_k, casting="unsafe")
        if t < j:
            ab, c = d[k + 1, t:j + bpp].astype(np.int16), d[k, t:j].astype(np.int16)
            a, b = ab[bpp:], ab[:-bpp]
            ac, bc = a - c, b - c
            pa, pb, pc = np.abs(bc), np.abs(ac), np.abs(ac + bc)
            # Paeth - c is ac, else bc, else 0: the spec's tie order a, b, c
            bc *= pb <= pc
            ac -= bc
            ac *= (pa <= pb) & (pa <= pc)
            ac += bc
            ac += c
            ac *= kp[t:j]
            if i == t and tail_avg:  # one expression for every type
                ac += (ka[t:j] * a + kb[t:j] * b) >> 1
            np.add(out_k[t - i:], ac, out=out_k[t - i:], casting="unsafe")
    for s0, (r0, r1) in zip(start.tolist(), segments):
        out[r0:r1].view(pixels.dtype)[...] = _skewed(pixels, 2, s0 + 1, r1 - r0 + 1, w)[1:]


def _skewed(diag, k0, r0, h, w):
    """The (h, w, bpp) view of diagonal-major diag in which pixel (r, x) is
    diag[r + x + k0, r + r0]."""
    rows, bpp = diag.shape[1:]
    step = diag.itemsize * bpp
    return np.lib.stride_tricks.as_strided(
        diag.reshape(-1)[(k0 * rows + r0) * bpp:], shape=(h, w, bpp),
        strides=(step * (rows + 1), step * rows, diag.itemsize))


def read_image(path) -> np.ndarray:
    """Read a PPM/PGM or PNG file into (H, W, 3) uint8."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in (".ppm", ".pnm", ".pgm"):
        return read_ppm(path)
    if suffix == ".png":
        return read_png(path)
    raise ValueError(f"unsupported image format {suffix!r} (PPM/PNG supported)")


def load_image(path) -> np.ndarray:
    """Read an image file into (3, H, W) float64 in [0, 1]."""
    return read_image(path).transpose(2, 0, 1) / 255.0


# ---------------------------------------------------------------------------
# dataset directories


@dataclass
class Sample:
    image_id: str
    image_path: Path
    annotations: list[Annotation]


_IMAGE_SUFFIXES = (".ppm", ".pnm", ".pgm", ".png")


def scan_dataset(root) -> list[Sample]:
    """Pair image files with same-stem YOLO label files.  Accepts either an
    images/ + labels/ layout or a flat directory."""
    root = Path(root)
    img_dir = root / "images" if (root / "images").is_dir() else root
    lbl_dir = root / "labels" if (root / "labels").is_dir() else root
    samples = []
    for p in sorted(img_dir.iterdir()):
        if p.suffix.lower() not in _IMAGE_SUFFIXES:
            continue
        lbl = lbl_dir / f"{p.stem}.txt"
        anns = read_labels(lbl) if lbl.exists() else []
        samples.append(Sample(image_id=p.stem, image_path=p, annotations=anns))
    return samples


def write_manifest(path, rows):
    """Manifest CSV: tile_id, source_id, origin_x, origin_y, n_annotations."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["tile_id", "source_id", "origin_x", "origin_y", "n_annotations"])
        for row in rows:
            w.writerow(row)


def category_stats(train_samples, val_samples, classes: int = 20):
    """Per-category (class_id, train_imgs, train_anns, val_imgs, val_anns)."""
    rows = []
    for cid in range(1, classes + 1):
        def count(samples):
            imgs = sum(1 for s in samples if any(a.class_id == cid for a in s.annotations))
            anns = sum(sum(1 for a in s.annotations if a.class_id == cid) for s in samples)
            return imgs, anns
        ti, ta = count(train_samples)
        vi, va = count(val_samples)
        rows.append((cid, ti, ta, vi, va))
    return rows


def tile_dataset(in_dir, out_dir, tile: int = TILE_SIZE, seed: int = 0) -> dict:
    """Tile every source image, keep annotated tiles only, split 4:1 by
    source image, and write tiles (PPM), labels, manifest and stats."""
    sources = scan_dataset(in_dir)
    if not sources:
        raise FileNotFoundError(f"no images found in {in_dir}")
    out_dir = Path(out_dir)
    train_ids, val_ids = split_dataset([s.image_id for s in sources], seed=seed)
    part_of = {sid: "train" for sid in train_ids}
    part_of.update({sid: "val" for sid in val_ids})
    for part in ("train", "val"):
        (out_dir / part / "images").mkdir(parents=True, exist_ok=True)
        (out_dir / part / "labels").mkdir(parents=True, exist_ok=True)

    manifest_rows = []
    tiles_by_part = {"train": [], "val": []}
    for src in sources:
        img = read_image(src.image_path)
        h, w = img.shape[:2]
        job = plan_tile_job(src.image_id, w, h, src.annotations, tile)
        part = part_of[src.image_id]
        for origin, anns in zip(job.origins, job.annotations):
            tile_id = f"{src.image_id}_{origin[0]}_{origin[1]}"
            image_path = out_dir / part / "images" / f"{tile_id}.ppm"
            write_ppm(image_path, extract_tile(img, origin, tile))
            write_labels(out_dir / part / "labels" / f"{tile_id}.txt", anns)
            manifest_rows.append((tile_id, src.image_id, origin[0], origin[1], len(anns)))
            tiles_by_part[part].append(Sample(tile_id, image_path, anns))
    manifest_rows.sort(key=lambda r: r[0])
    write_manifest(out_dir / "manifest.csv", manifest_rows)
    stats = category_stats(tiles_by_part["train"], tiles_by_part["val"])
    with open(out_dir / "stats.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["class_id", "train_imgs", "train_anns", "val_imgs", "val_anns"])
        for row in stats:
            w.writerow(row)
    return {
        "n_sources": len(sources),
        "n_train_tiles": len(tiles_by_part["train"]),
        "n_val_tiles": len(tiles_by_part["val"]),
        "manifest": str(out_dir / "manifest.csv"),
        "stats": str(out_dir / "stats.csv"),
    }
