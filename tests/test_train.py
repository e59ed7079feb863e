"""Optimizer semantics, schedule, early stopping, synthetic scenes, and a
short deterministic end-to-end training smoke run."""
import numpy as np
import pytest

from fabme import data as D
from fabme import tensor as T
from fabme import train as TR
from fabme.graph import build_graph, decode, variant_spec
from fabme.metrics import Detection
from fabme.tensor import Tensor
from fabme.train import TrainConfig, lr_at, sgd_step

from oracles import backward_retaining


class TestSGD:
    def test_vanilla_step(self):
        cfg = TrainConfig(lr=0.005, momentum=1e-12, weight_decay=1e-12)
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        sgd_step([("m.weight", p)], {}, cfg, epoch_progress=10.0)
        assert p.data[0] == pytest.approx(1.0 - 0.005, abs=1e-9)

    def test_zero_grads_zero_wd_fixed_point(self):
        cfg = TrainConfig(weight_decay=1e-300)
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.zeros(1)
        state = {}
        sgd_step([("m.bias", p)], state, cfg, epoch_progress=10.0)
        assert p.data[0] == 2.0  # fresh velocity stays zero

    def test_velocity_decays_by_momentum(self):
        cfg = TrainConfig()
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.zeros(1)
        state = {"m.bias": np.array([1.0])}
        sgd_step([("m.bias", p)], state, cfg, epoch_progress=10.0)
        assert state["m.bias"][0] == pytest.approx(0.937)

    def test_lr_zero_leaves_params_bit_identical(self):
        cfg = TrainConfig()
        p = Tensor(np.array([1.2345678901234567]), requires_grad=True)
        p.grad = np.array([3.0])
        before = p.data.copy()
        sgd_step([("m.weight", p)], {}, cfg, epoch_progress=0.0)  # warmup ramp -> lr 0
        assert np.array_equal(p.data, before)

    def test_weight_decay_skips_biases_and_gains(self):
        cfg = TrainConfig(weight_decay=0.5, momentum=1e-12, lr=1.0, warmup_epochs=1e-9)
        w = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        g = Tensor(np.array([1.0]), requires_grad=True)
        for t in (w, b, g):
            t.grad = np.zeros(1)
        sgd_step([("c.weight", w), ("c.bias", b), ("n.gain", g)], {}, cfg, 5.0)
        assert w.data[0] == pytest.approx(0.5)
        assert b.data[0] == 1.0 and g.data[0] == 1.0

    def test_step_keeps_each_parameter_array(self, rng):
        # an in-place update, bit for bit the old rebinding p.data - lr * v
        cfg = TrainConfig()
        named = [("c.weight", Tensor(rng.standard_normal((3, 2)), requires_grad=True)),
                 ("c.bias", Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True))]
        state = {}
        for step in range(3):
            arrays = [p.data for _, p in named]
            for _, p in named:
                p.grad = rng.standard_normal(p.data.shape).astype(p.data.dtype)
            want = []
            for n, p in named:
                g = p.grad + cfg.weight_decay * p.data if n == "c.weight" else p.grad
                v = cfg.momentum * state[n] + g if n in state else g
                want.append(p.data - lr_at(cfg, 1.0 + step) * v)
            sgd_step(named, state, cfg, 1.0 + step)
            for (_, p), arr, w in zip(named, arrays, want):
                assert p.data is arr
                assert p.data.dtype == w.dtype and p.data.tobytes() == w.tobytes()

    def test_nonfinite_grad_names_param(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        with pytest.raises(RuntimeError, match="stem.weight"):
            sgd_step([("stem.weight", p)], {}, TrainConfig(), 1.0)


class TestSchedule:
    def test_midwarmup_value(self):
        assert lr_at(TrainConfig(), 1.5) == pytest.approx(0.0025)

    def test_reaches_exact_lr_at_warmup_end(self):
        cfg = TrainConfig()
        assert lr_at(cfg, 3.0) == 0.005
        assert lr_at(cfg, 7.0) == 0.005

    def test_piecewise_linear(self):
        cfg = TrainConfig()
        for t in np.linspace(0, 3, 13):
            assert lr_at(cfg, t) == pytest.approx(0.005 * t / 3)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=0)
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=-1.0)
        with pytest.raises(ValueError, match="seed -1 "):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("key,value", [
        ("eval_conf", -0.1), ("eval_conf", 1.0), ("eval_conf", 2.0), ("eval_conf", float("nan")),
        ("eval_iou", -0.1), ("eval_iou", 1.5), ("eval_iou", float("nan")),
    ])
    def test_eval_thresholds_validated(self, key, value):
        with pytest.raises(ValueError, match=f"TrainConfig.{key} {value} must be in"):
            TrainConfig(**{key: value})
        for ok in (0.0, 0.5):
            TrainConfig(**{key: ok})
        TrainConfig(eval_iou=1.0)

    @pytest.mark.parametrize("key,value", [
        ("lr", "nan"), ("lr", "inf"), ("warmup_epochs", "nan"), ("momentum", "nan"),
        ("momentum", "inf"), ("weight_decay", "nan"), ("weight_decay", "-inf"),
        ("eval_conf", "inf"), ("stop_map", "nan"), ("stop_map", "inf"), ("stop_map", "7.0"),
    ])
    def test_config_file_rejects_hostile_value(self, tmp_path, key, value):
        # NaN passes every "<= 0" check, and a stop_map above 1 or NaN
        # would silently disable the target
        import tracemalloc

        path = tmp_path / "hostile.cfg"
        path.write_text(f"max_epochs=2\n{key}={value}\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"hostile.cfg: TrainConfig.{key} "):
                TrainConfig.from_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError, match=f"^TrainConfig.{key} "):
            TrainConfig(**{key: float(value)})

    def test_stop_map_bounds(self):
        for ok in (-1.0, 0.0, 0.5, 1.0, None):
            assert TrainConfig(stop_map=ok).stop_map == ok
        with pytest.raises(ValueError, match="stop_map 1.5 must be <= 1"):
            TrainConfig(stop_map=1.5)

    def test_config_file(self, tmp_path):
        p = tmp_path / "t.cfg"
        p.write_text("lr=0.01\nmax_epochs=5\npatience=2\n")
        cfg = TrainConfig.from_file(p)
        assert cfg.lr == 0.01 and cfg.max_epochs == 5 and cfg.patience == 2
        p2 = tmp_path / "bad.cfg"
        p2.write_text("nope=3\n")
        with pytest.raises(ValueError, match="bad.cfg:1: unknown train config key 'nope'"):
            TrainConfig.from_file(p2)
        p2.write_text("seed=-1\n")
        with pytest.raises(ValueError, match="bad.cfg: TrainConfig.seed -1 "):
            TrainConfig.from_file(p2)


class TestSynth:
    def test_empty_dataset(self):
        assert TR.gen_synth_dataset(0, 4, seed=0) == []

    @pytest.mark.parametrize("n, width, height", [(-1, 64, 64), (2, 0, 64), (2, 64, 0),
                                                  (0, -5, 64)])
    def test_bad_count_or_size_rejected(self, n, width, height):
        with pytest.raises(ValueError, match="gen_synth_dataset: n_images"):
            TR.gen_synth_dataset(n, 4, seed=0, width=width, height=height)

    def test_seed_determinism_byte_identical(self):
        a = TR.gen_synth_dataset(4, 4, seed=11)
        b = TR.gen_synth_dataset(4, 4, seed=11)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.image, sb.image)
            assert sa.annotations == sb.annotations

    def test_annotation_count_matches_defects(self):
        scenes = TR.gen_synth_dataset(10, 4, seed=3, min_defects=2, max_defects=2)
        for s in scenes:
            assert 1 <= len(s.annotations) <= 2  # overlap rejection may drop one

    def test_annotations_in_bounds(self):
        for s in TR.gen_synth_dataset(12, 20, seed=5):
            for a in s.annotations:
                x1, y1, x2, y2 = a.corners(64, 64)
                assert 0 <= x1 < x2 <= 64 and 0 <= y1 < y2 <= 64

    def test_images_in_unit_range(self):
        for s in TR.gen_synth_dataset(5, 4, seed=2):
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_class_count_cap(self):
        with pytest.raises(ValueError, match="1..20"):
            TR.defect_palette(21)

    def test_render_scene_explicit_placement(self):
        rng = np.random.default_rng(0)
        s = TR.render_scene(64, 64, [(1, 20.0, 20.0, 12.0, 12.0)], 4, rng)
        assert len(s.annotations) == 1
        a = s.annotations[0]
        assert a.class_id == 1
        assert a.cx == pytest.approx(20 / 64, abs=0.02)


class TestTargets:
    def test_center_cell_assignment(self):
        anns = [D.Annotation(2, 0.5, 0.5, 10 / 64, 10 / 64)]
        tg = TR.build_targets([anns], 64, (8, 16, 32), 4, np.float64)
        assert tg[0]["mask"].sum() == 1.0
        assert tg[0]["mask"][0, 0, 4, 4] == 1.0
        assert tg[0]["cls"][0, 1, 4, 4] == 1.0
        assert tg[1]["mask"].sum() == 0.0 and tg[2]["mask"].sum() == 0.0

    def test_large_box_goes_to_coarser_scale(self):
        anns = [D.Annotation(1, 0.5, 0.5, 30 / 64, 30 / 64)]
        tg = TR.build_targets([anns], 64, (8, 16, 32), 4, np.float64)
        assert tg[0]["mask"].sum() == 0.0 and tg[1]["mask"].sum() == 1.0


class TestTapeSweep:
    """One nano-test training step: 16 images at 64 px, float64."""

    @staticmethod
    def _inputs():
        model = build_graph(variant_spec("fabme", "nano-test", num_classes=4, input_size=64, seed=0))
        items = TR.items_from_scenes(TR.gen_synth_dataset(16, 4, seed=1))
        x = Tensor(np.stack([b[0] for b in items]))
        return model, x, TR.build_targets([b[1] for b in items], 64, model.strides, 4, np.float64)

    @staticmethod
    def _step(sweep, model, x, targets):
        """The step's loss; the parameters' grads are left in the model."""
        loss, _ = TR.detection_loss(model(x), targets, model.strides, 4, TrainConfig())
        sweep(loss)
        return loss

    def test_bitwise_equal_to_the_retaining_sweep(self):
        want, got = self._inputs(), self._inputs()
        want_loss = self._step(backward_retaining, *want)
        got_loss = self._step(Tensor.backward, *got)
        assert got_loss.data.tobytes() == want_loss.data.tobytes()
        pairs = list(zip(got[0].named_parameters(), want[0].named_parameters(), strict=True))
        assert len(pairs) > 100
        for (name, p), (_, q) in pairs:
            assert p.grad.dtype == q.grad.dtype and p.grad.tobytes() == q.grad.tobytes(), name

    def test_float32_model_keeps_float32(self):
        # Python-scalar operands of the loss (1 - IoU, the clamps, the
        # weights) take the model's dtype rather than promoting to float64
        model = build_graph(variant_spec("fabme", "nano-test", num_classes=4, input_size=64,
                                         seed=0, dtype="float32"))
        items = TR.items_from_scenes(TR.gen_synth_dataset(4, 4, seed=1))
        x = Tensor(np.stack([b[0] for b in items]).astype(np.float32))
        targets = TR.build_targets([b[1] for b in items], 64, model.strides, 4, np.float32)
        loss = self._step(Tensor.backward, model, x, targets)
        assert loss.dtype == np.float32
        named = list(model.named_parameters())
        assert len(named) > 100
        for name, p in named:
            assert p.data.dtype == np.float32 and p.grad.dtype == np.float32, name

    def test_tape_peak(self):
        # the sweep frees each node once it has run, the conv closures keep
        # no patch matrix, an activated conv's one node keeps only xhat of
        # its conv, norm and SiLU outputs, the scan keeps no states, split
        # keeps views and max-pooling no padded copy: 26.4 MB, against 33.3
        # MB with the scan's states, split copies and padded copies, 56.4 MB
        # for three nodes per conv and 128 MB when the whole tape lived until
        # the sweep ended
        import tracemalloc
        inputs = self._inputs()
        tracemalloc.start()
        try:
            self._step(Tensor.backward, *inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, f"tape peak {peak / 1e6:.1f} MB"


class TestWholeModelGradient:
    """The tape's gradient of the detection loss over every parameter of
    nano-test fabme, float64, on one batch of four 64 px scenes, against a
    central difference along random unit directions in parameter space.

    The loss has kinks (max-pool and global-max argmax switches, the
    clamps in the box loss).  A step that crosses one fails along that
    direction only; a wrong gradient fails along every direction.  So each
    trial passes if any of DIRECTIONS fresh directions agrees to TOL."""

    EPS, TOL, TRIALS, DIRECTIONS = 1e-6, 1e-5, 3, 2

    def test_directional_derivatives(self):
        model = build_graph(variant_spec("fabme", "nano-test", num_classes=4, input_size=64, seed=0))
        items = TR.items_from_scenes(TR.gen_synth_dataset(4, 4, seed=1))
        x = Tensor(np.stack([b[0] for b in items]))
        targets = TR.build_targets([b[1] for b in items], 64, model.strides, 4, np.float64)
        cfg = TrainConfig()
        named = list(model.named_parameters())
        TR.detection_loss(model(x), targets, model.strides, 4, cfg)[0].backward()
        assert all(p.grad is not None for _, p in named)
        base = [p.data for _, p in named]

        def loss_at(vs, step):
            for (_, p), b, v in zip(named, base, vs):
                p.data = b + step * v
            with T.no_grad():
                return TR.detection_loss(model(x), targets, model.strides, 4, cfg)[0].item()

        rng = np.random.default_rng(0)
        failed_trials, failures = 0, []
        try:
            for trial in range(self.TRIALS):
                passed = False
                for k in range(self.DIRECTIONS):
                    vs = [rng.standard_normal(p.data.shape) for _, p in named]
                    norm = np.sqrt(sum(float((v * v).sum()) for v in vs))
                    vs = [v / norm for v in vs]
                    analytic = sum(float((p.grad * v).sum()) for (_, p), v in zip(named, vs))
                    numeric = (loss_at(vs, self.EPS) - loss_at(vs, -self.EPS)) / (2 * self.EPS)
                    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
                    if err <= self.TOL:
                        passed = True
                    else:
                        failures.append(f"trial {trial} direction {k}: tape {analytic:.9g}, "
                                        f"central difference {numeric:.9g}, error {err:.2e}")
                failed_trials += not passed
        finally:
            for (_, p), b in zip(named, base):
                p.data = b
        for line in failures:
            print(line)
        assert failed_trials == 0, "\n".join(failures)


class TestTrainLoop:
    def _tiny(self, n_items=12, size=32, seed=0):
        scenes = TR.gen_synth_dataset(n_items, 2, seed=seed, width=size, height=size)
        items = TR.items_from_scenes(scenes)
        spec = variant_spec("baseline", "nano-test", num_classes=2, input_size=size, seed=seed)
        model = build_graph(spec)
        return model, items[:n_items - 4], items[n_items - 4:]

    def test_same_seed_identical_loss_curves(self):
        histories = []
        for _ in range(2):
            model, tr, va = self._tiny()
            cfg = TrainConfig(max_epochs=2, batch_size=4, seed=7)
            res = TR.train(model, tr, va, cfg)
            histories.append(res.history)
        assert histories[0] == histories[1]

    def test_early_stop_counter_semantics(self):
        model, tr, va = self._tiny()
        # microscopic lr: validation mAP never improves after epoch 0
        cfg = TrainConfig(lr=1e-300, max_epochs=40, patience=3, batch_size=4, seed=0)
        res = TR.train(model, tr, va, cfg)
        assert res.stop_reason == "early_stop"
        assert res.stopped_epoch == res.best_epoch + cfg.patience

    def test_stop_map_target(self):
        model, tr, va = self._tiny()
        cfg = TrainConfig(max_epochs=3, batch_size=4, seed=0, stop_map=-1.0)
        res = TR.train(model, tr, va, cfg)
        assert res.stop_reason == "target_map" and res.stopped_epoch == 0

    def test_eval_detections_are_decodes_with_image_ids(self):
        model, _, va = self._tiny()
        cfg = TrainConfig(batch_size=3, eval_conf=0.0)
        dets, gts = TR.eval_detections(model, va, cfg)
        want = []
        for lo in range(0, len(va), cfg.batch_size):
            chunk = va[lo:lo + cfg.batch_size]
            outs = model(Tensor(np.stack([it[0] for it in chunk])))
            for (_, _, iid), image_dets in zip(chunk, decode(outs, 2, model.strides, 0.0, cfg.eval_iou)):
                want += [Detection(d.class_id, d.box, d.confidence, image_id=iid) for d in image_dets]
        # the columns' image index is the item's position
        got = [Detection(c, tuple(b), conf, image_id=va[i][2]) for i, c, b, conf in zip(
            dets.image.tolist(), dets.class_id.tolist(), dets.box.tolist(), dets.confidence.tolist())]
        assert want and got == want
        assert gts.confidence is None
        assert np.array_equal(gts.image, np.repeat(np.arange(len(va)), [len(it[1]) for it in va]))

    def test_empty_dataset_rejected(self):
        model, tr, va = self._tiny()
        with pytest.raises(ValueError, match="nonempty"):
            TR.train(model, [], va, TrainConfig())

    def test_history_csv_layout(self, tmp_path):
        model, tr, va = self._tiny()
        cfg = TrainConfig(max_epochs=2, batch_size=4, seed=0)
        res = TR.train(model, tr, va, cfg)
        path = tmp_path / "h.csv"
        TR.write_history_csv(path, res.history, res.seconds)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_map50,obj_loss,cls_loss,box_loss,train_s,eval_s"
        assert len(lines) == 3 and all(len(line.split(",")) == 9 for line in lines[1:])
        # seconds sit outside the history rows, one (train_s, eval_s) per epoch
        assert len(res.seconds) == 2 and all(len(row) == 7 for row in res.history)
        for line, (train_s, eval_s) in zip(lines[1:], res.seconds, strict=True):
            assert train_s > 0 and eval_s > 0
            assert line.split(",")[7:] == [f"{train_s:.6f}", f"{eval_s:.6f}"]

    def test_history_loss_parts_are_epoch_means(self):
        model, tr, va = self._tiny()
        cfg = TrainConfig(max_epochs=1, batch_size=4, seed=3)
        row = TR.train(model, tr, va, cfg).history[0]
        # replay the epoch on a fresh model: same seed, order and steps
        model, tr, _ = self._tiny()
        order = np.random.default_rng(cfg.seed).permutation(len(tr))
        steps = len(tr) // cfg.batch_size
        named, state, sums = list(model.named_parameters()), {}, np.zeros(3)
        for step in range(steps):
            batch = [tr[i] for i in order[step * cfg.batch_size:(step + 1) * cfg.batch_size]]
            targets = TR.build_targets([b[1] for b in batch], 32, model.strides, 2, np.float64)
            loss, parts = TR.detection_loss(model(Tensor(np.stack([b[0] for b in batch]))),
                                            targets, model.strides, 2, cfg)
            sums += [parts["obj"], parts["cls"], parts["box"]]
            model.zero_grad()
            loss.backward()
            sgd_step(named, state, cfg, step / steps)
        assert len(row) == 7 and list(row[4:]) == list(sums / steps)
