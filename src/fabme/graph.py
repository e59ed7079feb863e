"""Declarative assembly of the detector graph: backbone (stem + four
conv-downsample/C2F stages + SPPF, optional channel attention), a
top-down/bottom-up fusion neck whose four C2F slots are individually
replaceable by the state-space variant, and three per-scale prediction
heads with anchor-free center-based decoding.

A built model is immutable during inference; concurrent forward passes
over distinct inputs are safe.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fabme import tensor as T
from fabme.blocks import C2F, C2FVMamba, Conv, EMCA, Module, SPPF, block_rng
from fabme.data import read_config
from fabme.metrics import Detection, pairwise_iou
from fabme.tensor import NonFiniteError, ShapeError, Tensor, _expit

__all__ = [
    "GraphSpec", "FabMEModel", "build_graph", "count_params",
    "decode", "decode_columns", "nms", "VARIANTS", "variant_spec",
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

        # blocks build float64, and each is cast as it is built, so that at
        # most one block's float64 parameters are held at once; a float64
        # draw cast to float32 is the same float32 as a draw made in float32
        def block(cls, path, *a, **kw):
            b = cls(*a, rng=block_rng(seed, path), **kw)
            for p in b.parameters():
                p.data = p.data.astype(spec.np_dtype(), copy=False)
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
        y = self.stem(x)
        y = self.stage1(self.down1(y))
        c2 = self.stage2(self.down2(y))        # stride 8
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


def build_graph(spec: GraphSpec) -> FabMEModel:
    return FabMEModel(spec)


def count_params(model: Module) -> int:
    """Exact count of learnable scalars."""
    return int(sum(t.data.size for _, t in model.named_parameters()))


# Rows of the pairwise IoU that NMS holds at once: its largest temporary
# is _NMS_BLOCK x k for k boxes of one class.
_NMS_BLOCK = 256


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
    """
    arrs = [out.data if isinstance(out, Tensor) else np.asarray(out) for out in outputs]
    batch = arrs[0].shape[0]
    per_image: list[list[tuple]] = [[] for _ in range(batch)]  # (conf, class index, boxes) per scale
    for arr, stride in zip(arrs, strides):
        n, ch, hh, ww = arr.shape
        if ch != 5 + num_classes:
            raise ShapeError(f"decode: {ch} channels but expected {5 + num_classes}")
        scores = _expit(arr[:, 4])[:, None] * _expit(arr[:, 5:])  # (n, nc, h, w)
        for b in range(n):
            k, i, j = np.nonzero(scores[b] > conf_thresh)
            tx, ty, tw, th = arr[b][:4, i, j]
            # the integer cell indices promote the centers, and so the
            # corners, to float64; the sizes stay in the head's dtype
            cx = (_expit(tx) + j) * stride
            cy = (_expit(ty) + i) * stride
            bw = np.exp(np.clip(tw, -20.0, 8.0)) * stride
            bh = np.exp(np.clip(th, -20.0, 8.0)) * stride
            x1 = cx - bw / 2
            y1 = cy - bh / 2
            boxes = np.stack([x1, y1, x1 + bw, y1 + bh], axis=1)
            per_image[b].append((scores[b][k, i, j].astype(np.float64), k, boxes))
    results = []
    for parts in per_image:
        conf, cls, boxes = (np.concatenate(p) for p in zip(*parts))
        order = np.argsort(-conf, kind="stable")
        conf, cls, boxes = conf[order], cls[order], boxes[order]
        keep = np.zeros(len(conf), dtype=bool)
        for c in np.unique(cls):
            idx = np.flatnonzero(cls == c)
            keep[idx[nms(boxes[idx], conf[idx], iou_thresh)]] = True
        # a box's fate depends only on higher-ranked boxes of its class, so
        # cutting after NMS keeps the same boxes as stopping at max_det
        kept = np.flatnonzero(keep)[:max_det]
        results.append((conf[kept], cls[kept] + 1, boxes[kept]))
    return results


def nms(boxes, scores, iou_thresh=0.45) -> list[int]:
    """Greedy NMS over one class; returns kept indices in score order
    (ties broken by input order).  A box is dropped when its IoU with a
    higher-ranked kept box exceeds iou_thresh."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)[order]
    keep = np.ones(len(boxes), dtype=bool)
    for r0 in range(0, len(boxes), _NMS_BLOCK):
        r1 = min(r0 + _NMS_BLOCK, len(boxes))
        over = pairwise_iou(boxes[r0:r1], boxes[:r1]) > iou_thresh
        over &= np.arange(r1) < np.arange(r0, r1)[:, None]  # higher-ranked boxes only
        # a box that overlaps no higher-ranked box is kept outright; the
        # rest are decided in rank order against the boxes kept so far
        for r in np.flatnonzero(over.any(axis=1)):
            keep[r0 + r] = not np.any(over[r] & keep[:r1])
    return order[keep].tolist()
