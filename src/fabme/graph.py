"""Declarative assembly of the detector graph: backbone (stem + four
conv-downsample/C2F stages + SPPF, optional channel attention), a
top-down/bottom-up fusion neck whose four C2F slots are individually
replaceable by the state-space variant, and three per-scale prediction
heads with anchor-free center-based decoding.

A built model is immutable during inference; concurrent forward passes
over distinct inputs are safe.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass
from math import isqrt

import numpy as np

from fabme import tensor as T
from fabme.blocks import C2F, C2FVMamba, Conv, EMCA, Module, SPPF, block_rng
from fabme.data import read_config
from fabme.metrics import Detection, pairwise_iou
from fabme.tensor import NonFiniteError, ShapeError, Tensor, _expit

__all__ = [
    "GraphSpec", "FabMEModel", "build_graph", "count_params",
    "decode", "decode_columns", "VARIANTS", "variant_spec",
    "SCALES", "NECK_POSITIONS",
]

SCALES = {
    "s": (0.5, 1.0 / 3.0),
    "nano-test": (0.125, 1.0 / 6.0),
}

NECK_POSITIONS = ("none", "c2f1", "c2f2", "c2f3", "c2f4")

# (emca_enabled, vmamba_position) per named variant; c2f1..c2f4 mirror the
# position-ablation rows, emca-only and fabme the component toggles.
VARIANTS = {
    "baseline": (False, "none"),
    "emca-only": (True, "none"),
    "fabme": (True, "c2f3"),
    "c2f1": (False, "c2f1"),
    "c2f2": (False, "c2f2"),
    "c2f3": (False, "c2f3"),
    "c2f4": (False, "c2f4"),
}

_BASE_WIDTHS = (64, 128, 256, 512, 1024)
_BASE_DEPTHS = (3, 6, 6, 3)
_BASE_NECK_DEPTH = 3

IN_CHANNELS = 3  # read_image always returns RGB
DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass
class GraphSpec:
    """Build-time description of one detector variant."""

    width_mult: float = 0.5
    depth_mult: float = 1.0 / 3.0
    emca_enabled: bool = False
    vmamba_position: str = "none"
    num_classes: int = 20
    input_size: int = 640
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        if self.vmamba_position not in NECK_POSITIONS:
            raise ValueError(
                f"invalid vmamba_position {self.vmamba_position!r}; expected one of {NECK_POSITIONS}"
            )
        if not 1 <= self.num_classes <= 20:  # Annotation's class ids are 1..20
            raise ValueError(f"num_classes {self.num_classes} out of range 1..20")
        for key, high in (("width_mult", 1.25), ("depth_mult", 1.0)):  # YOLOv8 n through x
            if not 0.0 < getattr(self, key) <= high:
                raise ValueError(f"{key} {getattr(self, key)} out of range (0, {high}]")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype {self.dtype!r} not one of {tuple(DTYPES)}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed {self.seed} must be >= 0")

    @staticmethod
    def preset(scale: str = "s", **overrides) -> "GraphSpec":
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; expected one of {tuple(SCALES)}")
        wm, dm = SCALES[scale]
        return GraphSpec(width_mult=wm, depth_mult=dm, **overrides)

    def widths(self) -> tuple[int, ...]:
        return tuple(int(round(b * self.width_mult)) for b in _BASE_WIDTHS)

    def depths(self) -> tuple[int, ...]:
        return tuple(max(1, round(b * self.depth_mult)) for b in _BASE_DEPTHS)

    def neck_depth(self) -> int:
        return max(1, round(_BASE_NECK_DEPTH * self.depth_mult))

    def np_dtype(self):
        return DTYPES[self.dtype]

    def to_file(self, path):
        with open(path, "w") as f:
            for k, v in vars(self).items():
                f.write(f"{k}={v}\n")

    @staticmethod
    def from_file(path) -> "GraphSpec":
        return read_config(GraphSpec, path, "graph config")


def variant_spec(name: str, scale: str = "s", **overrides) -> GraphSpec:
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; expected one of {tuple(VARIANTS)}")
    emca, pos = VARIANTS[name]
    return GraphSpec.preset(scale, emca_enabled=emca, vmamba_position=pos, **overrides)


class Head(Module):
    """Per-scale prediction stack: two 1x1 convs producing, per cell,
    box offsets (4) + objectness (1) + class logits.  The objectness bias
    starts at -2 so few cells fire before training."""

    def __init__(self, c_in, num_classes, rng):
        self.cv1 = Conv(c_in, 2 * c_in, 1, rng=rng)
        self.cv2 = Conv(2 * c_in, 5 + num_classes, 1, act=False, rng=rng)
        self.cv2.bias.data[4] = -2.0

    def forward(self, x):
        return self.cv2(self.cv1(x))


class FabMEModel(Module):
    """Backbone + neck + heads per a GraphSpec; strides are (8, 16, 32)."""

    strides = (8, 16, 32)

    def __init__(self, spec: GraphSpec):
        self.spec = spec
        w0, w1, w2, w3, w4 = spec.widths()
        n1, n2, n3, n4 = spec.depths()
        nn = spec.neck_depth()
        seed = spec.seed

        # blocks build float64, and each is paged as it is built, so that at
        # most one block's float64 parameters are held at once; a float64
        # draw cast to float32 is the same float32 as a draw made in float32
        def block(cls, path, *a, **kw):
            b = cls(*a, rng=block_rng(seed, path), **kw)
            _page_parameters(b.parameters(), spec.np_dtype())
            return b

        self.stem = block(Conv, "stem", IN_CHANNELS, w0, 3, 2)
        self.down1 = block(Conv, "down1", w0, w1, 3, 2)
        self.stage1 = block(C2F, "stage1", w1, w1, n1, shortcut=True)
        self.down2 = block(Conv, "down2", w1, w2, 3, 2)
        self.stage2 = block(C2F, "stage2", w2, w2, n2, shortcut=True)
        self.down3 = block(Conv, "down3", w2, w3, 3, 2)
        self.stage3 = block(C2F, "stage3", w3, w3, n3, shortcut=True)
        self.down4 = block(Conv, "down4", w3, w4, 3, 2)
        self.stage4 = block(C2F, "stage4", w4, w4, n4, shortcut=True)
        self.sppf = block(SPPF, "sppf", w4, w4)
        self.emca = block(EMCA, "emca", w4) if spec.emca_enabled else None

        def neck_block(path, c_in, c_out):
            if spec.vmamba_position == path:
                return block(C2FVMamba, path, c_in, c_out, nn)
            return block(C2F, path, c_in, c_out, nn, shortcut=False)

        self.neck1 = neck_block("c2f1", w4 + w3, w3)
        self.neck2 = neck_block("c2f2", w3 + w2, w2)
        self.pan1 = block(Conv, "pan1", w2, w2, 3, 2)
        self.neck3 = neck_block("c2f3", w2 + w3, w3)
        self.pan2 = block(Conv, "pan2", w3, w3, 3, 2)
        self.neck4 = neck_block("c2f4", w3 + w4, w4)
        self.heads = [block(Head, f"head{i}", c, spec.num_classes)
                      for i, c in enumerate((w2, w3, w4))]

    def forward(self, x: Tensor) -> list[Tensor]:
        n, c, h, w = x.data.shape
        if c != IN_CHANNELS:
            raise ShapeError(f"forward: input channels {c} != {IN_CHANNELS}")
        if h % 32 or w % 32:
            raise ShapeError(f"forward: input resolution {h}x{w} must be divisible by 32")
        # each backbone map up to c2 is held only as its one reader's
        # argument, so an untaped forward drops it once that reader returns
        c2 = self.stage2(self.down2(self.stage1(self.down1(self.stem(x)))))  # stride 8
        c3 = self.stage3(self.down3(c2))       # stride 16
        c4 = self.sppf(self.stage4(self.down4(c3)))  # stride 32
        if self.emca is not None:
            c4 = self.emca(c4)

        p4_td = self.neck1(T.concat([T.upsample_nearest2x(c4), c3]))
        p3 = self.neck2(T.concat([T.upsample_nearest2x(p4_td), c2]))
        p4 = self.neck3(T.concat([self.pan1(p3), p4_td]))
        p5 = self.neck4(T.concat([self.pan2(p4), c4]))

        outs = [head(p) for head, p in zip(self.heads, (p3, p4, p5))]
        for i, o in enumerate(outs):
            if not np.all(np.isfinite(o.data)):
                raise NonFiniteError(f"heads.{i}")
        return outs

    def predict(self, x: Tensor, conf_thresh=0.25, iou_thresh=0.45, max_det=300):
        with T.no_grad():
            outs = self.forward(x)
        return decode(outs, self.spec.num_classes, self.strides, conf_thresh, iou_thresh, max_det)


def _page_parameters(params: list[Tensor], dtype):
    """Copy-cast params into one buffer in an anonymous mapping of its own
    and rebind each one's data to its view of it.  Weights then never share
    malloc's heap with activations, and a dropped model's pages go back to
    the OS; the pages are faulted in once, where MAP_POPULATE exists."""
    ends = np.cumsum([p.data.size for p in params])
    pages = mmap.mmap(-1, int(ends[-1]) * np.dtype(dtype).itemsize,
                      flags=mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0))
    buf = np.frombuffer(pages, dtype=dtype)
    for p, hi in zip(params, ends):
        view = buf[hi - p.data.size:hi].reshape(p.data.shape)
        view[...] = p.data
        p.data = view


def build_graph(spec: GraphSpec) -> FabMEModel:
    return FabMEModel(spec)


def count_params(model: Module) -> int:
    """Exact count of learnable scalars."""
    return int(sum(t.data.size for _, t in model.named_parameters()))


# Elements of the largest arrays that one round of decode_columns builds:
# per image, the IoUs of the cells of its kept boxes and window, and a
# table of those cells by class, so images x cells x max(cells, classes)
# with at most kept + window cells per image.  A window is at most
# isqrt(_ROUND_ELEMENTS) // 2 candidates of an image.
_ROUND_ELEMENTS = 1 << 20


def decode(outputs, num_classes, strides=(8, 16, 32), conf_thresh=0.25,
           iou_thresh=0.45, max_det=300) -> list[list[Detection]]:
    """decode_columns' detections as one Detection list per image."""
    return [[Detection(class_id=cid, box=tuple(box), confidence=c)
             for c, cid, box in zip(conf.tolist(), cls.tolist(), boxes.tolist())]
            for conf, cls, boxes in decode_columns(outputs, num_classes, strides, conf_thresh,
                                                   iou_thresh, max_det)]


def decode_columns(outputs, num_classes, strides=(8, 16, 32), conf_thresh=0.25,
                   iou_thresh=0.45, max_det=300) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Map raw head outputs to absolute boxes, filter by confidence, and
    apply greedy per-class non-maximum suppression.

    Cell (i, j) predicts center (j + sigmoid(tx), i + sigmoid(ty)) * stride
    and size (exp(tw), exp(th)) * stride; score = objectness * class prob.
    Per image: (confidence (k,) float64, class id (k,) from 1, corner
    boxes (k, 4) float64), score descending, ties in candidate order
    (scale, then class, row, column), at most max_det.

    Suppression runs in rounds, each over the next window of every
    unfinished image's ranked candidates, until an image holds max_det
    boxes or has no candidates left (see _settle_window).
    """
    if max_det < 0:
        raise ValueError(f"decode: max_det {max_det} must be >= 0")
    arrs = [out.data if isinstance(out, Tensor) else np.asarray(out) for out in outputs]
    batch = arrs[0].shape[0]
    # cells are numbered image by image, then scale by scale, row by row
    first = np.cumsum([0] + [arr.shape[2] * arr.shape[3] for arr in arrs])
    per_image = int(first[-1])
    boxes = np.zeros((batch * per_image, 4))  # filled at the candidate cells
    parts = []  # per scale: each candidate's confidence, class index and cell
    for arr, stride, base in zip(arrs, strides, first):
        n, ch, hh, ww = arr.shape
        if ch != 5 + num_classes:
            raise ShapeError(f"decode: {ch} channels but expected {5 + num_classes}")
        scores = _expit(arr[:, 4])[:, None] * _expit(arr[:, 5:])  # (n, nc, h, w)
        hit = scores > conf_thresh
        cb, ci, cj = np.nonzero(hit.any(axis=1))
        tx, ty, tw, th = np.moveaxis(arr[:, :4], 1, 0)[:, cb, ci, cj]
        # the integer cell indices promote the centers, and so the
        # corners, to float64; the sizes stay in the head's dtype
        cx = (_expit(tx) + cj) * stride
        cy = (_expit(ty) + ci) * stride
        bw = np.exp(np.clip(tw, -20.0, 8.0)) * stride
        bh = np.exp(np.clip(th, -20.0, 8.0)) * stride
        x1 = cx - bw / 2
        y1 = cy - bh / 2
        boxes[cb * per_image + base + ci * ww + cj] = np.stack([x1, y1, x1 + bw, y1 + bh], axis=1)
        b, k, i, j = np.nonzero(hit)
        parts.append((scores[b, k, i, j].astype(np.float64), k, b * per_image + base + i * ww + j))
    conf, cls, cell = (np.concatenate(p) for p in zip(*parts))
    # rank each image's candidates by score, ties in candidate order
    order = np.argsort(-conf, kind="stable")
    order = order[np.argsort(cell[order] // per_image, kind="stable")]
    conf, cls, cell = conf[order], cls[order], cell[order]
    starts = np.searchsorted(cell, np.arange(batch + 1) * per_image)
    kept = [np.empty(0, dtype=np.intp) for _ in range(batch)]  # ranks, per image
    done = starts[:-1].copy()  # the first rank not yet settled, per image
    width = max(1, isqrt(_ROUND_ELEMENTS) // 2)
    while True:
        todo = [b for b in range(batch) if len(kept[b]) < max_det and done[b] < starts[b + 1]]
        if not todo:
            break
        # as many images as fit in the budget, at least one
        group, r, k = [], 0, 0
        for b in todo:
            r1, k1 = max(r, min(width, starts[b + 1] - done[b])), max(k, len(kept[b]))
            if group and (len(group) + 1) * (k1 + r1) * max(k1 + r1, num_classes) > _ROUND_ELEMENTS:
                break
            group, r, k = group + [b], r1, k1
        r = max(1, min(r, isqrt(_ROUND_ELEMENTS) - k))  # one image with many kept boxes
        windows = [np.arange(done[b], min(done[b] + r, starts[b + 1])) for b in group]
        keeps = _settle_window([kept[b] for b in group], windows, cls, cell, boxes,
                               np.array(group) * per_image, num_classes, iou_thresh)
        for b, w, keep in zip(group, windows, keeps):
            # a box's fate depends only on higher-ranked boxes of its
            # class, so stopping at max_det keeps the same boxes as
            # settling every candidate and cutting afterwards
            kept[b] = np.concatenate((kept[b], w[keep]))[:max_det]
            done[b] += len(w)
    return [(conf[kb], cls[kb] + 1, boxes[cell[kb]]) for kb in kept]


def _settle_window(kept, windows, cls, cell, boxes, first_cell, num_classes,
                   iou_thresh) -> list[np.ndarray]:
    """Which candidates of each image's window greedy NMS keeps, given the
    ranks the image kept before it; first_cell holds each image's first
    cell index.  A candidate is kept if and only if no higher-ranked kept
    candidate of its class overlaps it by more than iou_thresh.  That rule
    has one solution, the greedy one, so iterating it to a fixed point is
    exact.  Returns a bool per window candidate."""
    # entries: each image's kept ranks, then its window's, so in rank order
    ranks = np.concatenate([a for pair in zip(kept, windows) for a in pair])
    sizes = [len(kp) + len(w) for kp, w in zip(kept, windows)]
    image = np.repeat(np.arange(len(sizes)), sizes)
    window_of = np.concatenate([np.arange(size) >= len(kp) for kp, size in zip(kept, sizes)])
    e_cls, e_cell = cls[ranks], cell[ranks]
    # the IoU of every two distinct cells of an image's entries, once for
    # all classes; an image's cells take slots 0, 1, ... and zero boxes pad
    cells = np.unique(e_cell)
    cell_img = np.searchsorted(first_cell, cells, side="right") - 1
    cell_slot = np.arange(len(cells)) - np.searchsorted(cells, first_cell)[cell_img]
    cell_box = np.zeros((len(sizes), cell_slot.max() + 1, 4))
    cell_box[cell_img, cell_slot] = boxes[cells]
    over_img, over_row, over_col = np.nonzero(pairwise_iou(cell_box, cell_box) > iou_thresh)
    # each entry by (image, cell slot, class); an edge joins a window entry to
    # a higher-ranked entry of its class whose cell overlaps its own
    slot = np.full((len(sizes), cell_box.shape[1], num_classes), -1)
    slot[image, cell_slot[np.searchsorted(cells, e_cell)], e_cls] = np.arange(len(ranks))
    a, b = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    step = max(1, _ROUND_ELEMENTS // num_classes)
    for lo in range(0, len(over_img), step):  # (cell pair, class) lookups within the budget
        ga = slot[over_img[lo:lo + step], over_row[lo:lo + step]]
        gb = slot[over_img[lo:lo + step], over_col[lo:lo + step]]
        edge = (gb >= 0) & (gb < ga) & window_of[ga]  # entries are in rank order
        a.append(ga[edge])
        b.append(gb[edge])
    a, b = np.concatenate(a), np.concatenate(b)
    keep = np.ones(len(ranks), dtype=bool)  # kept entries stay kept
    while True:
        settled = np.ones(len(ranks), dtype=bool)
        settled[a[keep[b]]] = False
        if np.array_equal(settled, keep):
            return np.split(keep[window_of], np.cumsum([len(w) for w in windows])[:-1])
        keep = settled

