"""Detection evaluation: pairwise IoU, greedy prediction/ground-truth
matching at a fixed IoU threshold, per-class precision-recall and AP, and
mAP@0.5.

All functions are pure over immutable inputs.  Matching follows the VOC
protocol: detections ranked by confidence (ties by insertion order), each
matching the highest-IoU unmatched ground truth of its class and image;
AP is the area under the monotone-envelope precision-recall curve
(all-point interpolation).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Detection", "GroundTruth", "ClassAP", "EvalReport",
    "pairwise_iou", "match_and_ap", "map50", "write_eval_csv",
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


@dataclass
class EvalReport:
    per_class: dict[int, ClassAP]
    map50: float


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every corner box in a (m, 4) against every one in b (k, 4),
    as an (m, k) array; 0 where the boxes do not overlap or the union is
    not positive."""
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
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0] + 1
    return float(np.sum((mrec[steps] - mrec[steps - 1]) * mpre[steps]))


def match_and_ap(dets, gts, iou_thresh: float = 0.5) -> dict[int, ClassAP]:
    """Greedy per-class matching and AP for every class present in the
    ground truth."""
    gts_by_class: dict[int, list[GroundTruth]] = {}
    for g in gts:
        gts_by_class.setdefault(g.class_id, []).append(g)
    dets_by_class: dict[int, list[Detection]] = {}
    for d in dets:
        dets_by_class.setdefault(d.class_id, []).append(d)

    result: dict[int, ClassAP] = {}
    for cid, class_gts in sorted(gts_by_class.items()):
        # stable sort keeps insertion order among equal confidences
        ranked = sorted(dets_by_class.get(cid, []), key=lambda d: -d.confidence)
        gt_boxes: dict = {}
        for g in class_gts:
            gt_boxes.setdefault(g.image_id, []).append(g.box)
        ranks_by_image: dict = {}
        for rank, d in enumerate(ranked):
            ranks_by_image.setdefault(d.image_id, []).append(rank)
        tp = np.zeros(len(ranked))
        for image_id, ranks in ranks_by_image.items():
            if image_id not in gt_boxes:
                continue
            ious = pairwise_iou(np.array([ranked[r].box for r in ranks], dtype=np.float64),
                                np.array(gt_boxes[image_id], dtype=np.float64))
            # An IoU of 0 or under the threshold never matches, so a row
            # with no other is a false positive whatever ranks before it.
            # The rest, in rank order, take the first unmatched ground truth
            # of highest IoU; a taken one's column is zeroed.
            ious[ious < iou_thresh] = 0.0
            for i in np.flatnonzero(ious.any(axis=1)):
                j = np.argmax(ious[i])
                if ious[i, j] > 0.0:
                    tp[ranks[i]] = 1.0
                    ious[:, j] = 0.0
        ctp = np.cumsum(tp)
        cfp = np.cumsum(1.0 - tp)
        recall = ctp / len(class_gts)
        precision = ctp / np.maximum(ctp + cfp, 1e-16)
        n_tp = int(tp.sum())
        result[cid] = ClassAP(
            class_id=cid, ap=_envelope_ap(recall, precision), n_gt=len(class_gts),
            n_tp=n_tp, n_fp=len(ranked) - n_tp,
        )
    return result


def map50(dets, gts, classes: int = 20, iou_thresh: float = 0.5) -> EvalReport:
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
    per_class = match_and_ap(dets, gts, iou_thresh)
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
