"""Toy-scale supervised training: SGD with momentum, linear warmup and
constant learning rate, early stopping on validation mAP@0.5, plus a
synthetic fabric-defect scene generator for closed-loop checks.

Loss is a minimal anchor-free composite: objectness BCE over all cells,
class BCE and IoU-based box regression on center-assigned cells.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from time import perf_counter

import numpy as np

from fabme import graph, tensor as T
from fabme.data import Annotation, Sample, load_image, read_config
from fabme.graph import FabMEModel
from fabme.metrics import Columns, map50
from fabme.tensor import Tensor

__all__ = [
    "TrainConfig", "TrainResult", "TrainDivergedError",
    "sgd_step", "lr_at", "detection_loss", "build_targets",
    "train", "evaluate_map", "eval_detections", "load_items",
    "SynthScene", "render_scene", "gen_synth_dataset", "defect_palette",
    "items_from_scenes", "write_history_csv",
]


@dataclass
class TrainConfig:
    lr: float = 0.005
    warmup_epochs: float = 3.0
    momentum: float = 0.937
    weight_decay: float = 1e-4
    batch_size: int = 16
    patience: int = 50
    max_epochs: int = 150
    seed: int = 0
    eval_conf: float = 0.01
    eval_iou: float = 0.5
    stop_map: float | None = None

    def __post_init__(self):
        for name in ("lr", "warmup_epochs", "momentum", "weight_decay",
                     "batch_size", "max_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"TrainConfig.{name} must be strictly positive")
        if self.patience < 1:
            raise ValueError("TrainConfig.patience must be >= 1")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"TrainConfig.seed {self.seed} must be >= 0")
        if not 0.0 <= self.eval_conf < 1.0:  # scores are in (0, 1)
            raise ValueError(f"TrainConfig.eval_conf {self.eval_conf} must be in [0, 1)")
        if not 0.0 <= self.eval_iou <= 1.0:
            raise ValueError(f"TrainConfig.eval_iou {self.eval_iou} must be in [0, 1]")
        if self.stop_map is not None and self.stop_map > 1.0:  # mAP is at most 1
            raise ValueError(f"TrainConfig.stop_map {self.stop_map} must be <= 1")
        for f in fields(self):  # NaN passes the comparisons above
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"TrainConfig.{f.name} {value} must be finite")

    @staticmethod
    def from_file(path) -> "TrainConfig":
        return read_config(TrainConfig, path, "train config")


# detection_loss weights: the objectness and class terms weigh 1, and a
# positive cell's objectness BCE weighs OBJ_POS_WEIGHT
BOX_WEIGHT = 5.0
OBJ_POS_WEIGHT = 8.0


class TrainDivergedError(RuntimeError):
    """Loss went non-finite; carries the history and seconds of the
    finished epochs and the last finite parameters."""

    def __init__(self, history, seconds, last_state):
        super().__init__("training diverged (non-finite loss)")
        self.history = history
        self.seconds = seconds
        self.last_state = last_state


def lr_at(cfg: TrainConfig, epoch_progress: float) -> float:
    """Linear ramp 0 -> lr across the warmup epochs, constant after."""
    if cfg.warmup_epochs > 0 and epoch_progress < cfg.warmup_epochs:
        return cfg.lr * epoch_progress / cfg.warmup_epochs
    return cfg.lr


_DECAYED_LEAVES = {"weight", "w_b", "w_c", "w_dt_down", "w_dt_up"}


def _decayed(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in _DECAYED_LEAVES


def sgd_step(named_params, state: dict, cfg: TrainConfig, epoch_progress: float):
    """v <- momentum*v + grad + wd*param; param <- param - lr(t)*v.

    Weight decay applies to conv/projection weights only, never to biases
    or norm gains.  Missing gradients count as zero.
    """
    lr = lr_at(cfg, epoch_progress)
    for name, p in named_params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise RuntimeError(f"non-finite gradient in parameter {name!r}")
        if _decayed(name):
            g = g + cfg.weight_decay * p.data
        v = state.get(name)
        v = g if v is None else cfg.momentum * v + g
        state[name] = v
        p.data -= lr * v  # in place: a parameter keeps its array, and so its pages


# ---------------------------------------------------------------------------
# loss


def build_targets(batch_anns, img_size: int, strides, num_classes: int, dtype):
    """Center-cell assignment: each box goes to the scale whose stride best
    matches its size, at the cell containing its center.  A scale's "mask"
    is 1 at its assigned cells: it is also the objectness target."""
    n = len(batch_anns)
    targets = []
    for s in strides:
        g = img_size // s
        targets.append({
            "cls": np.zeros((n, num_classes, g, g), dtype=dtype),
            "box": np.zeros((n, 4, g, g), dtype=dtype),
            "mask": np.zeros((n, 1, g, g), dtype=dtype),
        })
    for b, anns in enumerate(batch_anns):
        for a in anns:
            wp, hp = a.w * img_size, a.h * img_size
            size = max(wp, hp)
            if size < 3 * strides[0]:
                si = 0
            elif size < 3 * strides[1]:
                si = 1
            else:
                si = 2
            s = strides[si]
            g = img_size // s
            j = min(int(a.cx * img_size / s), g - 1)
            i = min(int(a.cy * img_size / s), g - 1)
            t = targets[si]
            t["mask"][b, 0, i, j] = 1.0
            t["cls"][b, :, i, j] = 0.0
            t["cls"][b, a.class_id - 1, i, j] = 1.0
            t["box"][b, :, i, j] = (a.cx * img_size, a.cy * img_size, wp, hp)
    return targets


def detection_loss(outputs, targets, strides, num_classes: int, cfg: TrainConfig):
    """Composite loss over the three scales; returns (scalar Tensor, parts).
    The weights are BOX_WEIGHT and OBJ_POS_WEIGHT; no field of cfg is read."""
    total = None
    parts = {"obj": 0.0, "cls": 0.0, "box": 0.0}
    for out, tgt, stride in zip(outputs, targets, strides):
        n, ch, hh, ww = out.data.shape
        dtype = out.data.dtype
        chans = T.split(out, [1, 1, 1, 1, 1, num_classes])
        tx, ty, tw, th, tobj, tcls = chans
        mask = tgt["mask"]
        npos = float(mask.sum())

        obj_w = 1.0 + (OBJ_POS_WEIGHT - 1.0) * mask
        obj_loss = T.tmean(T.mul(T.bce_with_logits(tobj, mask), Tensor(obj_w)))

        cls_map = T.bce_with_logits(tcls, tgt["cls"])
        cls_loss = T.div(T.tsum(T.mul(cls_map, Tensor(np.broadcast_to(mask, cls_map.data.shape).copy()))),
                         max(npos, 1.0))

        jj, ii = np.meshgrid(np.arange(ww, dtype=dtype), np.arange(hh, dtype=dtype))
        cx = T.mul(T.add(T.sigmoid(tx), Tensor(jj)), float(stride))
        cy = T.mul(T.add(T.sigmoid(ty), Tensor(ii)), float(stride))
        bw = T.mul(T.exp(T.minimum(tw, 8.0)), float(stride))
        bh = T.mul(T.exp(T.minimum(th, 8.0)), float(stride))
        half = 0.5
        x1, x2 = T.sub(cx, T.mul(bw, half)), T.add(cx, T.mul(bw, half))
        y1, y2 = T.sub(cy, T.mul(bh, half)), T.add(cy, T.mul(bh, half))
        gcx, gcy, gw, gh = (tgt["box"][:, k:k + 1] for k in range(4))
        gx1, gx2 = gcx - gw / 2, gcx + gw / 2
        gy1, gy2 = gcy - gh / 2, gcy + gh / 2
        iw = T.maximum(T.sub(T.minimum(x2, Tensor(gx2)), T.maximum(x1, Tensor(gx1))), 0.0)
        ih = T.maximum(T.sub(T.minimum(y2, Tensor(gy2)), T.maximum(y1, Tensor(gy1))), 0.0)
        inter = T.mul(iw, ih)
        union = T.add(T.sub(T.add(T.mul(bw, bh), Tensor(gw * gh)), inter), 1e-9)
        iou_map = T.div(inter, union)
        box_loss = T.div(T.tsum(T.mul(T.sub(1.0, iou_map), Tensor(mask))), max(npos, 1.0))

        parts["obj"] += obj_loss.item()
        parts["cls"] += cls_loss.item()
        parts["box"] += box_loss.item()
        term = T.add(T.add(obj_loss, cls_loss), T.mul(box_loss, BOX_WEIGHT))
        total = term if total is None else T.add(total, term)
    return total, parts


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    history: list  # rows of (epoch, lr, train_loss, val_map50, obj, cls, box)
    best_map: float
    best_epoch: int
    best_state: dict
    stopped_epoch: int
    stop_reason: str
    # per epoch (train_s, eval_s): wall time, so kept out of the history
    # rows, which same-seed runs reproduce exactly
    seconds: list


def write_history_csv(path, history, seconds):
    """One row per epoch: the history row, then its train and eval seconds."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "lr", "train_loss", "val_map50", "obj_loss", "cls_loss", "box_loss",
                    "train_s", "eval_s"])
        for row, secs in zip(history, seconds, strict=True):
            w.writerow([row[0]] + [f"{v:.6f}" for v in (*row[1:], *secs)])


def load_items(samples: list[Sample]):
    """Materialize dataset samples as (image array, annotations, id)."""
    return [(load_image(s.image_path), s.annotations, s.image_id) for s in samples]


def _snapshot(model) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in model.named_parameters()}


def eval_detections(model: FabMEModel, items, cfg: TrainConfig) -> tuple[Columns, Columns]:
    """The model's decoded predictions for every item and the items'
    annotations as ground truth, as columns whose image index is the
    item's position in items."""
    conf, cls, boxes, counts = [np.empty(0)], [np.empty(0, np.intp)], [np.empty((0, 4))], []
    gt_cls, gt_boxes, gt_counts = [], [], []
    dtype = model.spec.np_dtype()
    for lo in range(0, len(items), cfg.batch_size):
        chunk = items[lo:lo + cfg.batch_size]
        x = Tensor(np.stack([it[0] for it in chunk]).astype(dtype))
        with T.no_grad():
            outs = model(x)
        # graph.decode_columns is looked up at call time, so a replacement is seen
        decoded = graph.decode_columns(outs, model.spec.num_classes, model.strides,
                                       conf_thresh=cfg.eval_conf, iou_thresh=cfg.eval_iou)
        for (img, anns, _), (c, cid, b) in zip(chunk, decoded):
            h, w = img.shape[-2:]
            conf.append(c)
            cls.append(cid)
            boxes.append(b)
            counts.append(len(c))
            gt_cls += [a.class_id for a in anns]
            gt_boxes += [a.corners(w, h) for a in anns]
            gt_counts.append(len(anns))
    image = np.arange(len(items))
    dets = Columns(np.repeat(image, counts), np.concatenate(cls), np.concatenate(boxes), np.concatenate(conf))
    gts = Columns(np.repeat(image, gt_counts), np.array(gt_cls, dtype=np.intp),
                  np.array(gt_boxes, dtype=np.float64).reshape(-1, 4))
    return dets, gts


def evaluate_map(model: FabMEModel, items, cfg: TrainConfig) -> float:
    """mAP@0.5 of the model's decoded predictions against the items'
    annotations."""
    dets, gts = eval_detections(model, items, cfg)
    if not len(gts):
        raise ValueError("evaluate_map: validation set has no annotations")
    return map50(dets, gts, classes=model.spec.num_classes).map50


def train(model: FabMEModel, train_items, val_items, cfg: TrainConfig,
          progress=None) -> TrainResult:
    """Optimize the model on in-memory items; returns history and the
    best-mAP parameter snapshot.  Deterministic under cfg.seed."""
    if not train_items or not val_items:
        raise ValueError("train: dataset must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    state: dict = {}
    history, seconds = [], []
    dtype = model.spec.np_dtype()
    named = list(model.named_parameters())
    img_size = train_items[0][0].shape[-1]
    nc = model.spec.num_classes
    best_map, best_epoch = -1.0, -1
    best_state = _snapshot(model)
    stop_reason = "max_epochs"
    stopped = cfg.max_epochs - 1

    for epoch in range(cfg.max_epochs):
        t0 = perf_counter()
        order = rng.permutation(len(train_items))
        steps = max(1, len(order) // cfg.batch_size)
        epoch_loss = 0.0
        epoch_parts = dict.fromkeys(("obj", "cls", "box"), 0.0)
        for step in range(steps):
            idx = order[step * cfg.batch_size:(step + 1) * cfg.batch_size]
            batch = [train_items[i] for i in idx]
            x = Tensor(np.stack([b[0] for b in batch]).astype(dtype))
            targets = build_targets([b[1] for b in batch], img_size, model.strides, nc, dtype)
            outs = model(x)
            loss, parts = detection_loss(outs, targets, model.strides, nc, cfg)
            lv = loss.item()
            if not np.isfinite(lv):
                raise TrainDivergedError(history, seconds, _snapshot(model))
            model.zero_grad()
            loss.backward()
            sgd_step(named, state, cfg, epoch + step / steps)
            epoch_loss += lv
            for k in epoch_parts:
                epoch_parts[k] += parts[k]
        epoch_loss /= steps
        t1 = perf_counter()
        val = evaluate_map(model, val_items, cfg)
        seconds.append((t1 - t0, perf_counter() - t1))
        history.append((epoch, lr_at(cfg, min(epoch + 1.0, cfg.warmup_epochs + 1)), epoch_loss, val,
                        *(v / steps for v in epoch_parts.values())))
        if progress is not None:
            progress(epoch, epoch_loss, val)
        if val > best_map:
            best_map, best_epoch = val, epoch
            best_state = _snapshot(model)
        if cfg.stop_map is not None and val >= cfg.stop_map:
            stop_reason = "target_map"
            stopped = epoch
            break
        if epoch - best_epoch >= cfg.patience:
            stop_reason = "early_stop"
            stopped = epoch
            break
        stopped = epoch
    return TrainResult(history, best_map, best_epoch, best_state, stopped, stop_reason, seconds)


# ---------------------------------------------------------------------------
# synthetic scenes


@dataclass
class SynthScene:
    image: np.ndarray  # (h, w) float64 in [0, 1]
    annotations: list[Annotation]


_SHAPES = ("blob", "vstreak", "hstreak", "square", "diag")


def defect_palette(n_classes: int):
    """Deterministic (shape, intensity delta) table for class ids 1..n.
    Shape cycles and polarity alternates so adjacent classes differ in
    both geometry and contrast; classes past 10 repeat at smaller scale."""
    if not 1 <= n_classes <= 20:
        raise ValueError(f"n_classes {n_classes} must be in 1..20")
    table = []
    for i in range(n_classes):
        shape = _SHAPES[i % len(_SHAPES)]
        polarity = -0.5 if i % 2 == 0 else 0.5
        table.append((shape, polarity))
    return table


def _shape_mask(shape: str, hgt: int, wid: int) -> np.ndarray:
    # annotation boxes are tight: streak/square masks fill the whole box
    yy, xx = np.mgrid[0:hgt, 0:wid]
    if shape == "blob":
        cy, cx = (hgt - 1) / 2, (wid - 1) / 2
        return ((xx - cx) / max(wid / 2, 1)) ** 2 + ((yy - cy) / max(hgt / 2, 1)) ** 2 <= 1.0
    if shape in ("vstreak", "hstreak", "square"):
        return np.ones((hgt, wid), dtype=bool)
    if shape == "diag":
        band = max(min(hgt, wid) // 3, 1)
        return np.abs(yy / max(hgt - 1, 1) - xx / max(wid - 1, 1)) * min(hgt, wid) <= band
    raise ValueError(f"unknown shape {shape!r}")


def _sample_size(shape: str, base: int, small: bool, rng) -> tuple[float, float]:
    lo, hi = (base // 5, base * 2 // 5) if not small else (base // 8, base // 4)
    lo, hi = max(lo, 10), max(hi, 14)
    thin_lo, thin_hi = 5, max(9, base // 7)
    if shape == "vstreak":
        return float(rng.integers(thin_lo, thin_hi + 1)), float(rng.integers(lo + 6, hi + 10))
    if shape == "hstreak":
        return float(rng.integers(lo + 6, hi + 10)), float(rng.integers(thin_lo, thin_hi + 1))
    return float(rng.integers(lo, hi + 1)), float(rng.integers(lo, hi + 1))


def render_scene(width: int, height: int, placements, n_classes: int,
                 rng: np.random.Generator) -> SynthScene:
    """Weave-textured background with defects at explicit placements
    (class_id, cx_px, cy_px, w_px, h_px); one annotation per defect."""
    palette = defect_palette(n_classes)
    fx, fy = rng.uniform(0.6, 1.4), rng.uniform(0.6, 1.4)
    yy, xx = np.mgrid[0:height, 0:width]
    img = 0.55 + 0.10 * np.sin(2 * np.pi * xx * fx / 6.0) * np.sin(2 * np.pi * yy * fy / 6.0)
    img += rng.normal(0.0, 0.02, size=img.shape)
    anns = []
    for class_id, cx, cy, w, h in placements:
        shape, delta = palette[class_id - 1]
        x1 = int(round(cx - w / 2)); y1 = int(round(cy - h / 2))
        x2 = min(x1 + int(round(w)), width); y2 = min(y1 + int(round(h)), height)
        x1 = max(x1, 0); y1 = max(y1, 0)
        if x2 - x1 < 2 or y2 - y1 < 2:
            raise ValueError(f"defect at ({cx}, {cy}) size ({w}, {h}) out of scene bounds")
        mask = _shape_mask(shape, y2 - y1, x2 - x1)
        region = img[y1:y2, x1:x2]
        region[mask] = region[mask] + delta
        anns.append(Annotation(
            class_id=class_id,
            cx=(x1 + x2) / 2 / width, cy=(y1 + y2) / 2 / height,
            w=(x2 - x1) / width, h=(y2 - y1) / height,
        ))
    return SynthScene(image=np.clip(img, 0.0, 1.0), annotations=anns)


def gen_synth_dataset(n_images: int, n_classes: int = 4, seed: int = 0,
                      width: int = 64, height: int = 64,
                      min_defects: int = 1, max_defects: int = 2) -> list[SynthScene]:
    """Deterministic synthetic scenes; non-overlapping defects, one
    annotation each."""
    rng = np.random.default_rng(seed)
    palette = defect_palette(n_classes)
    scenes = []
    for _ in range(n_images):
        n_def = int(rng.integers(min_defects, max_defects + 1))
        placements = []
        boxes = []
        for _ in range(n_def):
            for _attempt in range(12):
                cid = int(rng.integers(1, n_classes + 1))
                shape, _ = palette[cid - 1]
                w, h = _sample_size(shape, min(width, height), cid > 10, rng)
                if w + 4 >= width or h + 4 >= height:
                    continue
                cx = float(rng.uniform(w / 2 + 1, width - w / 2 - 1))
                cy = float(rng.uniform(h / 2 + 1, height - h / 2 - 1))
                box = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
                if all(_disjoint(box, b) for b in boxes):
                    placements.append((cid, cx, cy, w, h))
                    boxes.append(box)
                    break
        scenes.append(render_scene(width, height, placements, n_classes, rng))
    return scenes


def _disjoint(a, b) -> bool:
    return a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1]


def items_from_scenes(scenes, prefix: str = "scene"):
    """Scenes -> training items (3-channel image, annotations, id)."""
    items = []
    for i, s in enumerate(scenes):
        img = np.repeat(s.image[None, :, :], 3, axis=0)
        items.append((img, s.annotations, f"{prefix}{i:05d}"))
    return items
