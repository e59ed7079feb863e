"""Detection evaluation: pairwise IoU, greedy prediction/ground-truth
matching at a fixed IoU threshold, per-class precision-recall and AP, and
mAP@0.5.

All functions are pure over immutable inputs.  Matching follows the VOC
protocol: detections ranked by confidence (ties by insertion order), each
matching the highest-IoU unmatched ground truth of its class and image;
AP is the area under the monotone-envelope precision-recall curve
(all-point interpolation).  Detections and ground truth are matched as
`Columns`; sequences of `Detection` and `GroundTruth` are turned into
columns first.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Detection", "GroundTruth", "Columns", "ClassAP", "EvalReport",
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


@dataclass(frozen=True)
class Columns:
    """Detections or ground truth as arrays, one row per box: image (n,)
    int, an image index that the detections and ground truth being matched
    share; class_id (n,) int; box (n, 4) float64 corners; confidence (n,)
    float64, None for ground truth."""
    image: np.ndarray
    class_id: np.ndarray
    box: np.ndarray
    confidence: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.class_id)


def _as_columns(dets, gts) -> tuple[Columns, Columns]:
    """Detection and GroundTruth sequences as Columns over one image index;
    Columns pass through."""
    if isinstance(dets, Columns) and isinstance(gts, Columns):
        return dets, gts
    index: dict = {}

    def columns(rows, confidence):
        rows = list(rows)
        return Columns(
            image=np.array([index.setdefault(r.image_id, len(index)) for r in rows], dtype=np.intp),
            class_id=np.array([r.class_id for r in rows], dtype=np.intp),
            box=np.array([r.box for r in rows], dtype=np.float64).reshape(-1, 4),
            confidence=np.array([r.confidence for r in rows], dtype=np.float64) if confidence else None,
        )

    return columns(dets, True), columns(gts, False)


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
    """IoU of every corner box in a (..., m, 4) against every one in b
    (..., k, 4), as an (..., m, k) array, the leading axes broadcast; 0
    where the boxes do not overlap or the union is not positive."""
    a = a[..., :, None, :]
    b = b[..., None, :, :]
    iw = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]))
    ih = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]))
    inter = iw * ih
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
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
    ground truth; dets and gts are Columns, or Detection and GroundTruth
    sequences."""
    dets, gts = _as_columns(dets, gts)
    result: dict[int, ClassAP] = {}
    for cid in np.unique(gts.class_id).tolist():
        # rank by confidence, a stable sort keeping insertion order among
        # equal confidences; then group the ranks by image, in rank order
        ranked = np.flatnonzero(dets.class_id == cid)
        ranked = ranked[np.argsort(-dets.confidence[ranked], kind="stable")]
        ranks = np.argsort(dets.image[ranked], kind="stable")
        det_images = dets.image[ranked[ranks]]
        g = np.flatnonzero(gts.class_id == cid)
        g = g[np.argsort(gts.image[g], kind="stable")]
        gt_images = gts.image[g]
        tp = np.zeros(len(ranked))
        starts = np.flatnonzero(np.diff(det_images, prepend=-1))
        images = det_images[starts]
        for lo, hi, g_lo, g_hi in zip(starts.tolist(), [*starts[1:].tolist(), len(ranks)],
                                      np.searchsorted(gt_images, images, side="left").tolist(),
                                      np.searchsorted(gt_images, images, side="right").tolist()):
            if g_lo == g_hi:
                continue
            image_ranks = ranks[lo:hi]
            ious = pairwise_iou(dets.box[ranked[image_ranks]], gts.box[g[g_lo:g_hi]])
            # An IoU of 0 or under the threshold never matches, so a row
            # with no other is a false positive whatever ranks before it.
            # The rest, in rank order, take the first unmatched ground truth
            # of highest IoU; a taken one's column is zeroed.
            ious[ious < iou_thresh] = 0.0
            for i in np.flatnonzero(ious.any(axis=1)):
                j = np.argmax(ious[i])
                if ious[i, j] > 0.0:
                    tp[image_ranks[i]] = 1.0
                    ious[:, j] = 0.0
        n_gt = len(g)
        ctp = np.cumsum(tp)
        cfp = np.cumsum(1.0 - tp)
        recall = ctp / n_gt
        precision = ctp / np.maximum(ctp + cfp, 1e-16)
        n_tp = int(tp.sum())
        result[cid] = ClassAP(
            class_id=cid, ap=_envelope_ap(recall, precision), n_gt=n_gt,
            n_tp=n_tp, n_fp=len(ranked) - n_tp,
        )
    return result


def map50(dets, gts, classes: int = 20, iou_thresh: float = 0.5) -> EvalReport:
    """Mean of per-class APs over classes with ground truth present; dets
    and gts as match_and_ap takes them.

    Classes absent from the ground truth are excluded from the mean; an
    empty ground truth set is an error, not zero.
    """
    dets, gts = _as_columns(dets, gts)
    if not len(gts):
        raise ValueError("map50: no ground truth boxes at all")
    for kind, cols in (("ground-truth", gts), ("detection", dets)):
        bad = cols.class_id[(cols.class_id < 1) | (cols.class_id > classes)]
        if bad.size:
            raise ValueError(f"map50: {kind} class_id {bad[0]} outside 1..{classes}")
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
