"""Detection evaluation: IoU (of one pair and of all pairs), greedy
prediction/ground-truth matching at a fixed IoU threshold, per-class
precision-recall and AP, and mAP@0.5.

All functions are pure over immutable inputs.  Matching follows the VOC
protocol: detections ranked by confidence (ties by insertion order), each
matching the highest-IoU unmatched ground truth of its class and image;
AP is the area under the monotone-envelope precision-recall curve
(all-point interpolation), with an 11-point variant available for
comparison.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Detection", "GroundTruth", "ClassAP", "EvalReport",
    "iou", "pairwise_iou", "match_and_ap", "map50", "write_eval_csv",
]


@dataclass(frozen=True)
class Detection:
    class_id: int
    box: tuple[float, float, float, float]  # absolute corners x1, y1, x2, y2
    confidence: float
    image_id: int | str = 0

    def __post_init__(self):
        x1, y1, x2, y2 = self.box
        if not (x1 < x2 and y1 < y2):
            raise ValueError(f"degenerate box {self.box}: requires x1 < x2 and y1 < y2")


@dataclass(frozen=True)
class GroundTruth:
    class_id: int
    box: tuple[float, float, float, float]
    image_id: int | str = 0

    def __post_init__(self):
        x1, y1, x2, y2 = self.box
        if not (x1 < x2 and y1 < y2):
            raise ValueError(f"degenerate box {self.box}: requires x1 < x2 and y1 < y2")


@dataclass
class ClassAP:
    class_id: int
    ap: float
    n_gt: int
    n_tp: int
    n_fp: int
    precision: list[float] = field(default_factory=list)
    recall: list[float] = field(default_factory=list)


@dataclass
class EvalReport:
    per_class: dict[int, ClassAP]
    map50: float

    @property
    def n_fn(self) -> int:
        return sum(c.n_gt - c.n_tp for c in self.per_class.values())


def iou(a, b) -> float:
    """Intersection area over union area; 0 for disjoint boxes."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    if not (ax1 < ax2 and ay1 < ay2):
        raise ValueError(f"degenerate box {a}")
    if not (bx1 < bx2 and by1 < by2):
        raise ValueError(f"degenerate box {b}")
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every corner box in a (m, 4) against every one in b (k, 4),
    as an (m, k) array; 0 where the union is not positive.  Each entry is
    computed with the same float ops, in the same order, as `iou`."""
    a = a[:, None, :]
    iw = np.maximum(0.0, np.minimum(a[..., 2], b[:, 2]) - np.maximum(a[..., 0], b[:, 0]))
    ih = np.maximum(0.0, np.minimum(a[..., 3], b[:, 3]) - np.maximum(a[..., 1], b[:, 1]))
    inter = iw * ih
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def _envelope_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    """Area under the monotone-envelope PR curve (all-point interpolation)."""
    mrec = np.concatenate(([0.0], recall, [recall[-1] if recall.size else 0.0]))
    mpre = np.concatenate(([1.0], precision, [0.0]))
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0] + 1
    return float(np.sum((mrec[steps] - mrec[steps - 1]) * mpre[steps]))


def _eleven_point_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    total = 0.0
    for r in np.linspace(0.0, 1.0, 11):
        mask = recall >= r
        total += precision[mask].max() if mask.any() else 0.0
    return total / 11.0


def match_and_ap(dets, gts, iou_thresh: float = 0.5,
                 interpolation: str = "all-point") -> dict[int, ClassAP]:
    """Greedy per-class matching and AP for every class present in the
    ground truth."""
    if interpolation not in ("all-point", "11-point"):
        raise ValueError(f"unknown interpolation {interpolation!r}")
    gts_by_class: dict[int, list[GroundTruth]] = {}
    for g in gts:
        gts_by_class.setdefault(g.class_id, []).append(g)
    dets_by_class: dict[int, list[Detection]] = {}
    for d in dets:
        dets_by_class.setdefault(d.class_id, []).append(d)

    result: dict[int, ClassAP] = {}
    for cid, class_gts in sorted(gts_by_class.items()):
        class_dets = dets_by_class.get(cid, [])
        # stable sort keeps insertion order among equal confidences
        order = sorted(range(len(class_dets)), key=lambda i: -class_dets[i].confidence)
        gt_by_image: dict = {}
        for gi, g in enumerate(class_gts):
            gt_by_image.setdefault(g.image_id, []).append((gi, g))
        matched = [False] * len(class_gts)
        tp = np.zeros(len(class_dets))
        fp = np.zeros(len(class_dets))
        for rank, di in enumerate(order):
            d = class_dets[di]
            best_iou, best_gi = 0.0, -1
            for gi, g in gt_by_image.get(d.image_id, []):
                if matched[gi]:
                    continue
                v = iou(d.box, g.box)
                if v > best_iou:
                    best_iou, best_gi = v, gi
            if best_gi >= 0 and best_iou >= iou_thresh:
                matched[best_gi] = True
                tp[rank] = 1.0
            else:
                fp[rank] = 1.0
        ctp = np.cumsum(tp)
        cfp = np.cumsum(fp)
        recall = ctp / len(class_gts)
        precision = ctp / np.maximum(ctp + cfp, 1e-16)
        if len(class_dets):
            ap = (_envelope_ap(recall, precision) if interpolation == "all-point"
                  else _eleven_point_ap(recall, precision))
        else:
            ap = 0.0
        result[cid] = ClassAP(
            class_id=cid, ap=ap, n_gt=len(class_gts),
            n_tp=int(ctp[-1]) if len(class_dets) else 0,
            n_fp=int(cfp[-1]) if len(class_dets) else 0,
            precision=precision.tolist(), recall=recall.tolist(),
        )
    return result


def map50(dets, gts, classes: int = 20, iou_thresh: float = 0.5,
          interpolation: str = "all-point") -> EvalReport:
    """Mean of per-class APs over classes with ground truth present.

    Classes absent from the ground truth are excluded from the mean; an
    empty ground truth set is an error, not zero.
    """
    gts = list(gts)
    if not gts:
        raise ValueError("map50: no ground truth boxes at all")
    for g in gts:
        if not 1 <= g.class_id <= classes:
            raise ValueError(f"map50: ground-truth class_id {g.class_id} outside 1..{classes}")
    for d in dets:
        if not 1 <= d.class_id <= classes:
            raise ValueError(f"map50: detection class_id {d.class_id} outside 1..{classes}")
    per_class = match_and_ap(dets, gts, iou_thresh, interpolation)
    mean_ap = float(np.mean([c.ap for c in per_class.values()]))
    return EvalReport(per_class=per_class, map50=mean_ap)


def write_eval_csv(path, report: EvalReport):
    """CSV rows (class_id, n_gt, n_tp, n_fp, AP) plus a summary line with
    mAP@0.5 as a percentage."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["class_id", "n_gt", "n_tp", "n_fp", "AP"])
        for cid in sorted(report.per_class):
            c = report.per_class[cid]
            w.writerow([cid, c.n_gt, c.n_tp, c.n_fp, f"{c.ap:.6f}"])
        w.writerow(["mAP@0.5(%)", "", "", "", f"{100.0 * report.map50:.2f}"])
