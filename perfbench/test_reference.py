"""Tests of the benchmark's own reference code.

    python3 -m pytest perfbench/test_reference.py
"""
import numpy as np
import pytest

import reference as R


@pytest.mark.parametrize("ftype", range(5))
@pytest.mark.parametrize("shape", [(5, 7, 3), (1, 2, 3)])
def test_png_round_trip_for_each_filter(ftype, shape):
    img = np.random.default_rng(ftype).integers(0, 256, size=shape, dtype=np.uint8)
    data, filters = R.encode_png(img, filters=ftype)
    assert (filters == ftype).all()
    assert np.array_equal(R.decode_png(data), img)


def test_png_heuristic_picks_the_cheapest_filter():
    rng = np.random.default_rng(0)
    ramp = np.tile(np.arange(0, 240, 10, dtype=np.uint8), (8, 1))    # rows of a ramp: Sub
    stripes = np.tile(rng.integers(0, 256, 24, dtype=np.uint8), (8, 1))  # repeated row: Up
    gray = np.vstack([ramp, stripes, rng.integers(0, 256, (4, 24), dtype=np.uint8)])
    img = np.repeat(gray[:, :, None], 3, axis=2)
    data, filters = R.encode_png(img)
    assert np.array_equal(R.decode_png(data), img)
    assert filters[0] == 1             # a ramp costs least after Sub
    assert (filters[1:8] == 2).all()   # repeated rows filter to zeros under Up
    assert (filters[9:16] == 2).all()


def test_png_splits_idat_into_chunks():
    img = np.random.default_rng(1).integers(0, 256, (64, 200, 3), dtype=np.uint8)
    data, _ = R.encode_png(img)
    assert data.count(b"IDAT") > 1
    assert np.array_equal(R.decode_png(data), img)


def test_read_ppm_p6(tmp_path):
    img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    path = tmp_path / "a.ppm"
    path.write_bytes(b"P6\n3 2\n255\n" + img.tobytes())
    assert np.array_equal(R.read_ppm_p6(path), img)


def test_nms_ties_keep_input_order():
    boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10], [20, 20, 30, 30]], dtype=float)
    scores = np.array([0.5, 0.5, 0.5])
    assert R.greedy_nms(boxes, scores, 0.45).tolist() == [0, 2]


def test_nms_suppresses_only_above_threshold():
    boxes = np.array([
        [0, 0, 10, 10],    # best
        [1, 0, 11, 10],    # IoU 9/11 with the best: suppressed
        [5, 0, 15, 10],    # IoU 5/15 = 0.33: kept
        [0, 0, 10, 10.1],  # below the best's score, IoU 0.99: suppressed
    ], dtype=float)
    scores = np.array([0.9, 0.8, 0.7, 0.85])
    assert R.greedy_nms(boxes, scores, 0.45).tolist() == [0, 2]


def test_nms_suppression_chain_uses_kept_boxes_only():
    # b is suppressed by a; c overlaps only b, so it is kept
    boxes = np.array([[0, 0, 10, 10], [4, 0, 14, 10], [9, 0, 19, 10]], dtype=float)
    scores = np.array([0.9, 0.8, 0.7])
    assert R.greedy_nms(boxes, scores, 0.4).tolist() == [0, 2]


def _head(n_classes, cells):
    """One stride-8 head output (1, 5 + n_classes, 1, len(cells)) from
    per-cell (tx, ty, tw, th, obj, class logits...)."""
    arr = np.array(cells, dtype=np.float64).T.reshape(1, 5 + n_classes, 1, len(cells))
    return [arr]


def test_decode_nms_classes_do_not_suppress_each_other():
    # one box that both classes score equally: both kept, class 1 first
    dets = R.decode_nms(_head(2, [[0, 0, 0, 0, 10.0, 10.0, 10.0]]), 2, (8,), 0.25, 0.45, 300)[0]
    assert [d[0] for d in dets] == [1, 2]
    assert dets[0][1:] == dets[1][1:]


def test_decode_nms_breaks_score_ties_by_candidate_order():
    # two adjacent cells, both classes equal everywhere: candidates come in
    # class, row, column order
    cell = [0, 0, 0, 0, 10.0, 10.0, 10.0]
    dets = R.decode_nms(_head(2, [cell, cell]), 2, (8,), 0.25, 0.45, 300)[0]
    assert [(d[0], d[1][0]) for d in dets] == [(1, 0.0), (1, 8.0), (2, 0.0), (2, 8.0)]


def test_decode_nms_ranks_and_cuts_at_max_det():
    out = _head(1, [[0, 0, 0, 0, 1.0, 3.0], [0, 0, 0, 0, 2.0, 3.0], [0, 0, 0, 0, 0.5, 3.0]])
    dets = R.decode_nms(out, 1, (8,), 0.25, 0.45, 2)[0]
    assert len(dets) == 2
    assert dets[0][2] > dets[1][2]
    assert dets[0][1][0] == 8.0  # column 1: cx = (0.5 + 1) * 8, w = 8


def test_brute_force_map50_hand_cases():
    gts = [(0, 1, (0, 0, 10, 10)), (1, 1, (0, 0, 10, 10))]
    perfect = [(0, 1, (0, 0, 10, 10), 0.9), (1, 1, (0, 0, 10, 10), 0.8)]
    assert R.brute_force_map50(perfect, gts) == 1.0
    # a false positive ranked first: precision 1/2 at recall 1/2, 2/3 at recall 1
    with_fp = [(0, 1, (50, 50, 60, 60), 0.95)] + perfect
    assert R.brute_force_map50(with_fp, gts) == pytest.approx(2 / 3)
    # a second class without detections averages in as zero
    assert R.brute_force_map50(perfect, gts + [(0, 2, (0, 0, 5, 5))]) == pytest.approx(0.5)
