"""Model graph: presets, placements, toggle isolation, shape contract,
decoding and NMS."""
import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fabme import graph as G, tensor as T
from fabme.blocks import C2FVMamba, Conv, Module
from fabme.graph import (
    VARIANTS, GraphSpec, build_graph, count_params, decode, decode_columns, variant_spec,
)
from fabme.tensor import ShapeError, Tensor

from oracles import decode_loop


def _module_counts(model):
    n_vss = sum(isinstance(m, C2FVMamba) for m in
                (model.neck1, model.neck2, model.neck3, model.neck4))
    return n_vss, int(model.emca is not None)


class TestSpecsAndPresets:
    def test_fabme_default_placements(self):
        spec = variant_spec("fabme")
        assert spec.emca_enabled and spec.vmamba_position == "c2f3"

    def test_baseline_has_no_new_blocks(self):
        model = build_graph(variant_spec("baseline", "nano-test"))
        assert _module_counts(model) == (0, 0)

    def test_fabme_has_one_of_each(self):
        model = build_graph(variant_spec("fabme", "nano-test"))
        assert _module_counts(model) == (1, 1)
        assert isinstance(model.neck3, C2FVMamba)

    def test_all_ablation_positions_constructible(self):
        for pos in ("c2f1", "c2f2", "c2f3", "c2f4"):
            model = build_graph(variant_spec(pos, "nano-test"))
            assert _module_counts(model)[0] == 1

    def test_invalid_position_rejected(self):
        with pytest.raises(ValueError, match="vmamba_position"):
            GraphSpec(vmamba_position="c2f9")

    def test_widths_strictly_increase(self):
        for scale in ("s", "nano-test"):
            ws = GraphSpec.preset(scale).widths()
            assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_config_file_roundtrip(self, tmp_path):
        spec = variant_spec("fabme", "nano-test", num_classes=4, seed=3)
        path = tmp_path / "graph.cfg"
        spec.to_file(path)
        assert GraphSpec.from_file(path) == spec

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus=1\n")
        with pytest.raises(ValueError, match="unknown graph config key"):
            GraphSpec.from_file(path)

    def test_config_file_rejects_removed_key(self, tmp_path):
        path = tmp_path / "old.spec"
        path.write_text("width_mult=0.125\nstrict_paper_concat=True\n")
        with pytest.raises(ValueError,
                           match="old.spec:2: unknown graph config key 'strict_paper_concat'"):
            GraphSpec.from_file(path)

    @pytest.mark.parametrize("key,value", [
        ("dtype", "float16"), ("dtype", "int8"),
        ("width_mult", "0"), ("width_mult", "1.5"), ("width_mult", "nan"), ("width_mult", "-1"),
        ("depth_mult", "0"), ("depth_mult", "1.01"), ("depth_mult", "inf"),
        ("num_classes", "0"), ("num_classes", "21"), ("num_classes", "100000000"),
        ("seed", "-1"),
    ])
    def test_config_file_rejects_hostile_value(self, tmp_path, key, value):
        import tracemalloc

        path = tmp_path / "hostile.spec"
        path.write_text(f"width_mult=0.125\ndepth_mult=0.1667\n{key}={value}\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"hostile.spec: {key} "):
                GraphSpec.from_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError, match=f"^{key} "):
            GraphSpec(**{key: type(getattr(GraphSpec(), key))(value)})

    def test_vanishing_width_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="must be >= 1"):
            build_graph(GraphSpec(width_mult=0.001))


class TestForward:
    def test_nano_head_map_sizes(self, rng):
        model = build_graph(variant_spec("fabme", "nano-test", num_classes=4))
        x = Tensor(rng.random((1, 3, 64, 64)))
        outs = model(x)
        assert [o.data.shape for o in outs] == [(1, 9, 8, 8), (1, 9, 4, 4), (1, 9, 2, 2)]

    def test_resolution_divisible_by_32(self, rng):
        model = build_graph(variant_spec("baseline", "nano-test"))
        for size in (64, 96):
            outs = model(Tensor(rng.random((1, 3, size, size))))
            assert outs[0].data.shape[-1] == size // 8
        with pytest.raises(ShapeError, match="divisible"):
            model(Tensor(rng.random((1, 3, 60, 60))))

    def test_nonfinite_head_named(self, rng):
        model = build_graph(variant_spec("baseline", "nano-test"))
        model.heads[0].cv2.weight.data[0, 0, 0, 0] = np.inf
        with pytest.raises(T.NonFiniteError, match="heads.0"):
            model(Tensor(rng.random((1, 3, 64, 64))))

    def test_memory_of_an_s640_forward(self, rng):
        # an untaped forward holds only the maps some later layer reads and
        # block-sized temporaries: 37.9 MB traced, where whole-map epilogue
        # buffers, a padded copy of a banded conv's input and the stem
        # output kept through stage 1 held 59.0 MB
        model = build_graph(variant_spec("fabme", "s", num_classes=20, dtype="float32"))
        x = Tensor(rng.random((1, 3, 640, 640)).astype(np.float32))
        tracemalloc.start()
        try:
            with T.no_grad():
                outs = model(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outs[0].data.shape == (1, 25, 80, 80)
        assert peak <= 45e6, peak / 1e6


class TestParameterPages:
    @staticmethod
    def _buffer(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    def test_each_block_is_one_mapped_buffer(self):
        model = build_graph(variant_spec("fabme", "nano-test", dtype="float32"))
        blocks = [b for v in vars(model).values()
                  for b in (v if isinstance(v, list) else [v]) if isinstance(b, Module)]
        assert len(blocks) == 20
        buffers = []
        for b in blocks:
            params = b.parameters()
            bufs = {id(self._buffer(p.data)): self._buffer(p.data) for p in params}
            assert len(bufs) == 1, type(b).__name__
            (buf,) = bufs.values()
            assert isinstance(getattr(buf.base, "obj", buf.base), mmap.mmap)
            assert buf.dtype == np.float32 and buf.size == sum(p.data.size for p in params)
            assert all(p.data.flags.c_contiguous and p.data.flags.writeable for p in params)
            buffers.append(buf)
        assert len({id(buf) for buf in buffers}) == len(blocks)

    def test_an_s_build_holds_no_traced_memory(self):
        # the parameters live in anonymous mappings, outside malloc's heap:
        # an s-scale float32 build held 38.3 MB of traced memory when they
        # were malloc'd arrays, and holds 0.07 MB now
        tracemalloc.start()
        try:
            model = build_graph(variant_spec("fabme", "s", num_classes=20, dtype="float32"))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert count_params(model) > 9e6
        assert held < 2e6, held / 1e6


class TestParamCounts:
    def test_tiny_conv_counting(self, rng):
        from fabme.blocks import Conv
        conv = Conv(4, 8, 1, act=False, rng=rng)
        assert sum(t.data.size for _, t in conv.named_parameters()) == 4 * 8 + 8

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_conv_has_bias_or_norm(self, variant):
        # the norm of an activated conv cancels a bias, so it has none
        def convs(value):
            if isinstance(value, Conv):
                yield value
            if isinstance(value, Module):
                value = list(vars(value).values())
            if isinstance(value, list):
                for v in value:
                    yield from convs(v)

        found = list(convs(build_graph(variant_spec(variant, "nano-test"))))
        assert found and all((c.bias is None) != (c.norm is None) for c in found)

    @pytest.mark.parametrize("scale,n_tensors", [("nano-test", 152), ("s", 164)])
    def test_fabme_parameter_tensors(self, scale, n_tensors):
        assert len(build_graph(variant_spec("fabme", scale)).parameters()) == n_tensors

    def test_s_scale_window(self):
        n = count_params(build_graph(variant_spec("baseline", "s")))
        assert abs(n - 11.10e6) / 11.10e6 <= 0.15

    def test_fabme_not_heavier(self):
        base = count_params(build_graph(variant_spec("baseline", "s")))
        fab = count_params(build_graph(variant_spec("fabme", "s")))
        assert fab <= base

    def test_emca_toggle_changes_exactly_k(self):
        base = build_graph(variant_spec("baseline", "s"))
        emca = build_graph(variant_spec("emca-only", "s"))
        k = emca.emca.k
        assert count_params(emca) - count_params(base) == k

    def test_emca_toggle_leaves_other_params_identical(self):
        base = dict(build_graph(variant_spec("baseline", "nano-test")).named_parameters())
        emca = dict(build_graph(variant_spec("emca-only", "nano-test")).named_parameters())
        extra = set(emca) - set(base)
        assert all(name.startswith("emca.") for name in extra)
        for name, t in base.items():
            assert np.array_equal(t.data, emca[name].data), name

    def test_vmamba_swap_touches_only_neck3(self):
        base = dict(build_graph(variant_spec("baseline", "nano-test")).named_parameters())
        fab = dict(build_graph(variant_spec("c2f3", "nano-test")).named_parameters())
        for name in set(base) & set(fab):
            if not name.startswith("neck3."):
                assert np.array_equal(base[name].data, fab[name].data), name
        changed = {n.split(".", 1)[0] for n in (set(base) ^ set(fab))}
        assert changed == {"neck3"}

    @pytest.mark.parametrize("variant,scale",
                             [(v, "nano-test") for v in sorted(VARIANTS)] + [("fabme", "s")])
    def test_float32_params_are_the_float64_params_cast(self, variant, scale):
        wide = list(build_graph(variant_spec(variant, scale)).named_parameters())
        narrow = list(build_graph(variant_spec(variant, scale, dtype="float32")).named_parameters())
        assert [n for n, _ in narrow] == [n for n, _ in wide]
        for (name, t32), (_, t64) in zip(narrow, wide):
            assert t64.data.dtype == np.float64 and t32.data.dtype == np.float32, name
            assert t32.data.flags.c_contiguous, name
            assert t32.data.tobytes() == t64.data.astype(np.float32).tobytes(), name


class TestDecode:
    def _empty_heads(self, nc=4):
        shapes = [(1, 5 + nc, 8, 8), (1, 5 + nc, 4, 4), (1, 5 + nc, 2, 2)]
        outs = [np.zeros(s) for s in shapes]
        for o in outs:
            o[:, 4] = -40.0  # objectness sigmoid -> ~0
        return outs

    def test_all_negative_objectness_yields_nothing(self):
        dets = decode(self._empty_heads(), 4)
        assert dets == [[]]

    def test_singleton_detection(self):
        outs = self._empty_heads()
        outs[0][0, 4, 3, 2] = 40.0        # objectness ~ 1
        outs[0][0, 5 + 2, 3, 2] = 40.0    # class id 3 dominant
        dets = decode(outs, 4, conf_thresh=0.5)
        assert len(dets[0]) == 1
        d = dets[0][0]
        assert d.class_id == 3
        cx, cy = (d.box[0] + d.box[2]) / 2, (d.box[1] + d.box[3]) / 2
        assert cx == pytest.approx((2 + 0.5) * 8) and cy == pytest.approx((3 + 0.5) * 8)

    @staticmethod
    def _one_class_head(cells, side=8):
        """A stride-8 single-class head whose only candidates are cells
        {(i, j): (tx, tw, th, objectness logit)}; ty is 0."""
        out = np.zeros((1, 6, side, side))
        out[0, 4] = -40.0
        for (i, j), (tx, tw, th, obj) in cells.items():
            out[0, [0, 2, 3, 4, 5], i, j] = tx, tw, th, obj, 40.0  # class prob 1
        return [out]

    def test_nms_hand_trace(self):
        # sigmoid(40) rounds to 1 and 1 + sigmoid(-40) to 1, so both cells
        # predict the same 16x16 box; the lower score is suppressed
        outs = self._one_class_head({(0, 0): (40.0, np.log(2), np.log(2), np.log(0.9 / 0.1)),
                                     (0, 1): (-40.0, np.log(2), np.log(2), np.log(0.8 / 0.2))})
        [(conf, cls, boxes)] = decode_columns(outs, 1, (8,), conf_thresh=0.5, iou_thresh=0.5)
        assert conf.tolist() == pytest.approx([0.9], abs=1e-12) and cls.tolist() == [1]
        assert boxes.tolist() == [[0.0, -4.0, 16.0, 12.0]]

    def test_nms_disjoint_survive(self):
        # far-apart boxes both survive, ranked by score, not by cell
        outs = self._one_class_head({(0, 0): (0.0, 0.0, 0.0, 1.0), (5, 5): (0.0, 0.0, 0.0, 2.0)})
        [(conf, cls, boxes)] = decode_columns(outs, 1, (8,), conf_thresh=0.5, iou_thresh=0.5)
        assert conf[0] > conf[1] and cls.tolist() == [1, 1]
        assert boxes.tolist() == [[40.0, 40.0, 48.0, 48.0], [0.0, 0.0, 8.0, 8.0]]

    @pytest.mark.parametrize("budget", [None, 64])
    def test_suppression_chain(self, budget, monkeypatch):
        # each box overlaps only its row neighbours (IoU 4.8 / 20.8 > 0.1),
        # and scores fall along each row: greedy NMS keeps every other
        # cell, which takes one fixed-point step per link of the chain
        if budget is not None:
            monkeypatch.setattr(G, "_ROUND_ELEMENTS", budget)
        outs = self._one_class_head({(i, j): (0.0, np.log(1.6), np.log(0.5), 3.0 - 0.5 * j + 0.01 * i)
                                     for i in range(8) for j in range(8)})
        got = decode(outs, 1, (8,), conf_thresh=0.01, iou_thresh=0.1)
        assert _exact([[(d.class_id, d.box, d.confidence) for d in img] for img in got]) == \
            _exact(decode_loop(outs, 1, (8,), conf_thresh=0.01, iou_thresh=0.1))
        centres = sorted(((d.box[1] + d.box[3]) / 2, (d.box[0] + d.box[2]) / 2) for d in got[0])
        assert centres == [(8 * i + 4, 8 * j + 4) for i in range(8) for j in range(0, 8, 2)]

    def test_negative_max_det_rejected(self):
        with pytest.raises(ValueError, match="max_det -1"):
            decode_columns(self._empty_heads(), 4, max_det=-1)
        outs = self._one_class_head({(0, 0): (0.0, 0.0, 0.0, 2.0)})
        assert [len(c) for c, _, _ in decode_columns(outs, 1, (8,), max_det=0)] == [0]

    def test_decode_nms_duplicate_cells(self):
        outs = self._empty_heads()
        # two adjacent cells of one class predict wide overlapping boxes;
        # greedy NMS keeps the higher-confidence one
        for (i, j, ob) in ((3, 2, 30.0), (3, 3, 20.0)):
            outs[0][0, 2, i, j] = np.log(4.0)   # width 4 * stride
            outs[0][0, 3, i, j] = np.log(4.0)
            outs[0][0, 4, i, j] = ob
            outs[0][0, 5:, i, j] = -40.0
            outs[0][0, 5, i, j] = 30.0
        dets = decode(outs, 4, conf_thresh=0.3, iou_thresh=0.5)
        assert len(dets[0]) == 1 and dets[0][0].class_id == 1
        assert dets[0][0].confidence > 0.999


def _exact(dets):
    """Detections as (class, box, confidence) with floats as hex strings,
    so equality is bit-for-bit."""
    return [[(d[0], tuple(v.hex() for v in d[1]), d[2].hex()) for d in img] for img in dets]


class TestDecodeOracle:
    """The vectorised decode against the per-candidate loop with Python
    greedy NMS it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.float32, np.float64]),
           n=st.integers(1, 2), nc=st.integers(1, 4),
           step=st.sampled_from([None, 0.5, 2.0]),
           duplicate=st.booleans(),
           obj_shift=st.sampled_from([0.0, 3.0, -40.0]),
           conf=st.sampled_from([0.05, 0.25, 0.5]),
           iou=st.sampled_from([0.0, 0.3, 0.45, 0.7]),
           max_det=st.sampled_from([1, 7, 300]))
    def test_same_detections_as_loop(self, seed, dtype, n, nc, step, duplicate,
                                     obj_shift, conf, iou, max_det):
        outs = _random_heads(seed, dtype, n, nc, step, duplicate, obj_shift)
        got = decode(outs, nc, conf_thresh=conf, iou_thresh=iou, max_det=max_det)
        want = decode_loop(outs, nc, conf_thresh=conf, iou_thresh=iou, max_det=max_det)
        assert all(type(d.confidence) is float and all(type(v) is float for v in d.box)
                   for img in got for d in img)
        assert _exact([[(d.class_id, d.box, d.confidence) for d in img] for img in got]) == _exact(want)
        if obj_shift < 0:
            assert got == [[] for _ in range(n)]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.float32, np.float64]),
           n=st.integers(1, 3), nc=st.integers(1, 4),
           step=st.sampled_from([None, 0.5]),
           duplicate=st.booleans(),
           conf=st.sampled_from([0.05, 0.25]),
           iou=st.sampled_from([0.0, 0.3, 0.45]),
           max_det=st.sampled_from([1, 7, 40, 300]),
           budget=st.sampled_from([1, 16, 100, 400]))
    def test_same_detections_as_loop_in_small_rounds(self, seed, dtype, n, nc, step, duplicate,
                                                     conf, iou, max_det, budget):
        # windows of 1 to 10 candidates: many rounds per image, kept sets
        # carried from round to round, images stopping at max_det apart
        outs = _random_heads(seed, dtype, n, nc, step, duplicate, 0.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(G, "_ROUND_ELEMENTS", budget)
            got = decode(outs, nc, conf_thresh=conf, iou_thresh=iou, max_det=max_det)
        want = decode_loop(outs, nc, conf_thresh=conf, iou_thresh=iou, max_det=max_det)
        assert _exact([[(d.class_id, d.box, d.confidence) for d in img] for img in got]) == _exact(want)

    @pytest.mark.parametrize("budget", [None, 1 << 10])
    def test_same_as_greedy_loop_across_rounds(self, rng, budget, monkeypatch):
        # 700 candidates of one class, wide boxes that overlap heavily, and
        # tied scores, in windows of 512 or of at most 16 candidates
        if budget is not None:
            monkeypatch.setattr(G, "_ROUND_ELEMENTS", budget)
        out = rng.standard_normal((1, 6, 28, 25))
        out[:, 2:4] = rng.uniform(0.5, 1.5, (1, 2, 28, 25))
        out[:, 4] = np.round(out[:, 4] * 2) / 2
        out[:, 5] = 40.0
        got = decode([out], 1, (8,), conf_thresh=0.0, iou_thresh=0.3, max_det=700)
        want = decode_loop([out], 1, (8,), conf_thresh=0.0, iou_thresh=0.3, max_det=700)
        assert 100 < len(want[0]) < 700
        assert _exact([[(d.class_id, d.box, d.confidence) for d in img] for img in got]) == _exact(want)

    def test_memory_of_an_untrained_head(self):
        # every cell of an untrained-like 20-class head is a candidate at
        # the evaluation threshold (168,000 of them); decoding stops at 300
        # kept boxes, and its arrays stay inside the round budget
        rng = np.random.default_rng(0)
        outs = []
        for side in (80, 40, 20):
            a = rng.standard_normal((1, 25, side, side)) * 0.5
            a[:, 4] -= 2.0
            outs.append(a.astype(np.float32))
        tracemalloc.start()
        try:
            [(conf, _, _)] = decode_columns(outs, 20, conf_thresh=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(conf) == 300
        assert peak < 48 << 20, peak / 2**20


def _random_heads(seed, dtype, n, nc, step, duplicate, obj_shift):
    rng = np.random.default_rng(seed)
    outs = []
    for side in (8, 4, 2):
        a = rng.standard_normal((n, 5 + nc, side, side)) * 3
        a[:, 2:4] = rng.uniform(-1.0, 2.5, (n, 2, side, side))  # wide boxes overlap
        a[:, 4] += obj_shift  # -40 leaves no candidate at all
        if step:  # quantised logits: many exactly equal scores
            a = np.round(a / step) * step
        if duplicate:  # neighbouring cells repeat a cell's whole prediction
            a[..., 1::2] = a[..., ::2]
        outs.append(a.astype(dtype))
    return outs
