"""Evaluation metrics: IoU arithmetic, the hand-traced AP fixture, the
brute-force oracle equivalence, and ranking properties."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fabme.metrics import Columns, Detection, GroundTruth, map50, match_and_ap, pairwise_iou

from oracles import box_iou_py, brute_force_map50, random_detection_scene


class TestIoU:
    def test_identity(self):
        assert pairwise_iou(np.array([(0, 0, 2, 2)]), np.array([(0, 0, 2, 2)])).tolist() == [[1.0]]

    def test_disjoint(self):
        assert pairwise_iou(np.array([(0, 0, 1, 1)]), np.array([(2, 2, 3, 3)])).tolist() == [[0.0]]

    def test_third_overlap(self):
        got = pairwise_iou(np.array([(0, 0, 2, 2)]), np.array([(1, 0, 3, 2)]))
        assert got[0, 0] == pytest.approx(1 / 3, abs=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            GroundTruth(1, (0, 0, 0, 2))
        with pytest.raises(ValueError, match="degenerate"):
            Detection(1, (3, 0, 1, 2), 0.5)

    def test_symmetry_and_range(self, rng):
        a = np.array([_rand_box(rng) for _ in range(50)])
        b = np.array([_rand_box(rng) for _ in range(50)])
        v = pairwise_iou(a, b)
        assert ((0.0 <= v) & (v <= 1.0)).all()
        assert np.allclose(v, pairwise_iou(b, a).T, rtol=0, atol=1e-15)

    def test_pairwise_bitwise_equals_scalar(self, rng):
        # random pairs plus identical, edge-touching and disjoint ones
        a = np.array([_rand_box(rng) for _ in range(20)] + [(0, 0, 2, 2), (2, 0, 4, 2)])
        b = np.concatenate([a[:7], [(0, 0, 2, 2), (9e3, 9e3, 9e3 + 1, 9e3 + 1)],
                            [_rand_box(rng) for _ in range(9)]])
        got = pairwise_iou(a, b)
        assert got.shape == (len(a), len(b))
        assert got.tolist() == [[box_iou_py(tuple(p), tuple(q)) for q in b] for p in a]
        assert got[0, 0] == 1.0
        assert got[-2, 7] == 1.0 and got[-1, 7] == 0.0 and not got[:, 8].any()

    def test_leading_axis_bitwise_equals_slices(self, rng):
        # zero boxes pad a batch: their IoU is 0, never a division by 0
        a = np.array([[_rand_box(rng) for _ in range(6)] for _ in range(3)])
        b = np.array([[_rand_box(rng) for _ in range(9)] for _ in range(3)])
        a[1, 4:] = 0.0
        b[2, :2] = a[2, :2]
        got = pairwise_iou(a, b)
        assert got.shape == (3, 6, 9)
        for s in range(3):
            assert got[s].tobytes() == pairwise_iou(a[s], b[s]).tobytes()
        assert not got[1, 4:].any() and got[2, 0, 0] == 1.0


def _rand_box(rng):
    x1, y1 = rng.uniform(0, 50, 2)
    w, h = rng.uniform(1, 30, 2)
    return (x1, y1, x1 + w, y1 + h)


class TestAP:
    def test_perfect_detector(self):
        gts = [GroundTruth(1, (0, 0, 10, 10), i) for i in range(3)]
        dets = [Detection(1, (0, 0, 10, 10), 0.9, i) for i in range(3)]
        assert match_and_ap(dets, gts)[1].ap == 1.0

    def test_no_detections(self):
        gts = [GroundTruth(1, (0, 0, 10, 10))]
        assert match_and_ap([], gts)[1].ap == 0.0

    def test_hand_traced_fixture(self):
        # TP at .9, FP at .8, TP at .7 over 2 GTs -> 0.5*1 + 0.5*(2/3)
        gts = [GroundTruth(1, (0, 0, 10, 10), "a"), GroundTruth(1, (20, 20, 30, 30), "a")]
        dets = [
            Detection(1, (0, 0, 10, 10), 0.9, "a"),
            Detection(1, (50, 50, 60, 60), 0.8, "a"),
            Detection(1, (20, 20, 30, 30), 0.7, "a"),
        ]
        ap = match_and_ap(dets, gts)[1].ap
        assert ap == pytest.approx(0.5 + 0.5 * (2 / 3), abs=1e-12)

    def test_duplicate_detections_single_tp(self):
        gts = [GroundTruth(1, (0, 0, 10, 10))]
        dets = [Detection(1, (0, 0, 10, 10), 0.9 - 0.1 * i) for i in range(4)]
        r = match_and_ap(dets, gts)[1]
        assert r.n_tp == 1 and r.n_fp == 3

    def test_matches_highest_iou_unmatched_gt(self):
        gts = [GroundTruth(1, (0, 0, 10, 10)), GroundTruth(1, (2, 0, 12, 10))]
        dets = [Detection(1, (2, 0, 12, 10), 0.9), Detection(1, (0, 0, 10, 10), 0.8)]
        r = match_and_ap(dets, gts)[1]
        assert r.n_tp == 2 and r.n_fp == 0

    @pytest.mark.parametrize("dets_raw,ap,n_tp", [
        # the first detection ties on (0, 0, 10, 10) and (2, 0, 12, 10) and
        # takes the first; the second overlaps only that one at >= 0.5
        ([("a", 1, (1, 0, 11, 10), 0.9), ("a", 1, (-3, 0, 7, 10), 0.8)], 0.5, 1),
        # the first takes (0, 0, 10, 10), the best match of the second too,
        # which then takes its second best (2, 0, 12, 10) at 0.74; the third
        # overlaps only taken ground truths
        ([("a", 1, (0, 0, 10, 10), 0.9), ("a", 1, (0.5, 0, 10.5, 10), 0.8),
          ("a", 1, (0, 0, 9, 10), 0.7)], 1.0, 2),
    ])
    def test_greedy_matching_matches_brute_force(self, dets_raw, ap, n_tp):
        gts_raw = [("a", 1, (0, 0, 10, 10)), ("a", 1, (2, 0, 12, 10))]
        gts = [GroundTruth(c, b, i) for i, c, b in gts_raw]
        dets = [Detection(c, b, conf, i) for i, c, b, conf in dets_raw]
        r = match_and_ap(dets, gts)[1]
        assert r.ap == pytest.approx(brute_force_map50(dets_raw, gts_raw), abs=1e-9)
        assert r.ap == ap and r.n_tp == n_tp

    def test_monotone_confidence_invariance(self, rng):
        dets_raw, gts_raw = random_detection_scene(rng)
        gts = [GroundTruth(c, b, i) for i, c, b in gts_raw]
        dets = [Detection(c, b, conf, i) for i, c, b, conf in dets_raw]
        base = map50(dets, gts, classes=5).map50
        squashed = [Detection(d.class_id, d.box, d.confidence ** 3 * 0.5 + 0.1, d.image_id)
                    for d in dets]
        assert map50(squashed, gts, classes=5).map50 == pytest.approx(base, abs=1e-12)

    def test_adding_fp_never_raises_ap(self, rng):
        dets_raw, gts_raw = random_detection_scene(rng)
        gts = [GroundTruth(c, b, i) for i, c, b in gts_raw]
        dets = [Detection(c, b, conf, i) for i, c, b, conf in dets_raw]
        before = map50(dets, gts, classes=5)
        far_fp = Detection(gts[0].class_id, (900.0, 900.0, 910.0, 910.0), 0.99, gts[0].image_id)
        after = map50(dets + [far_fp], gts, classes=5)
        cid = gts[0].class_id
        assert after.per_class[cid].ap <= before.per_class[cid].ap + 1e-12

    def test_tp_for_unmatched_gt_never_lowers_ap(self, rng):
        dets_raw, gts_raw = random_detection_scene(rng)
        gts = [GroundTruth(c, b, i) for i, c, b in gts_raw]
        dets = [Detection(c, b, conf, i) for i, c, b, conf in dets_raw]
        report = map50(dets, gts, classes=5)
        # find an unmatched gt: add a perfect high-confidence detection for it
        cid = gts[0].class_id
        perfect = Detection(cid, gts[0].box, 1.0, gts[0].image_id)
        after = map50(dets + [perfect], gts, classes=5)
        assert after.per_class[cid].ap >= report.per_class[cid].ap - 1e-12


class TestMap50:
    def test_all_perfect(self):
        gts = [GroundTruth(c, (0, 0, 10, 10), 0) for c in (1, 2, 3)]
        dets = [Detection(c, (0, 0, 10, 10), 1.0, 0) for c in (1, 2, 3)]
        assert map50(dets, gts, classes=20).map50 == 1.0

    def test_two_class_mean(self):
        gts = [GroundTruth(1, (0, 0, 10, 10), 0), GroundTruth(2, (20, 0, 30, 10), 0)]
        dets = [Detection(1, (0, 0, 10, 10), 1.0, 0)]
        assert map50(dets, gts, classes=20).map50 == 0.5

    def test_absent_classes_excluded(self):
        gts = [GroundTruth(7, (0, 0, 10, 10), 0)]
        dets = [Detection(7, (0, 0, 10, 10), 1.0, 0)]
        report = map50(dets, gts, classes=20)
        assert list(report.per_class) == [7] and report.map50 == 1.0

    def test_empty_gt_is_error(self):
        with pytest.raises(ValueError, match="no ground truth"):
            map50([], [], classes=20)

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValueError, match="class_id"):
            map50([], [GroundTruth(21, (0, 0, 1, 1))], classes=20)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_brute_force_agreement_sample(self, data):
        ids = data.draw(st.sampled_from([(0, 1, 2, 3), ("a", "b", "c", "d"), (0, "0", "b", 3)]),
                        label="image ids")
        box = st.tuples(*[st.integers(0, 12)] * 2, *[st.integers(1, 8)] * 2).map(
            lambda t: (float(t[0]), float(t[1]), float(t[0] + t[2]), float(t[1] + t[3])))
        gts_raw = data.draw(st.lists(st.tuples(st.sampled_from(ids[:3]), st.integers(1, 3), box),
                                     min_size=1, max_size=12), label="gts")
        dets_raw = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(1, 3), box,
                                                st.sampled_from([0.25, 0.5, 0.75])),  # ties
                                      max_size=24), label="dets")
        # a class with ground truth but no detections; a detection in an
        # image with no ground truth of its class
        gts_raw.append((ids[0], 4, (0.0, 0.0, 4.0, 4.0)))
        dets_raw.append((ids[3], 1, (0.0, 0.0, 4.0, 4.0), 0.5))
        gts = [GroundTruth(c, b, i) for i, c, b in gts_raw]
        dets = [Detection(c, b, conf, i) for i, c, b, conf in dets_raw]
        got = map50(dets, gts, classes=4).map50
        assert got == pytest.approx(brute_force_map50(dets_raw, gts_raw), abs=1e-9)
        # the evaluation loop's columns: image index = position in ids
        det_cols = Columns(np.array([ids.index(d[0]) for d in dets_raw]), np.array([d[1] for d in dets_raw]),
                           np.array([d[2] for d in dets_raw]), np.array([d[3] for d in dets_raw]))
        gt_cols = Columns(np.array([ids.index(g[0]) for g in gts_raw]), np.array([g[1] for g in gts_raw]),
                          np.array([g[2] for g in gts_raw]))
        assert match_and_ap(det_cols, gt_cols) == match_and_ap(dets, gts)
        assert map50(det_cols, gt_cols, classes=4).map50 == got
