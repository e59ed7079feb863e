"""The four benchmark workloads.

Each workload builds its inputs from the seed (`setup`), computes its
reference results apart from the program (`prepare`), and hands out one
round of operations (`round`).  An operation returns its timed seconds
and whether its output passed the checks; checks are never timed and run
with tracing paused.  The program is reached only through module
attributes at call time (`fab.train.evaluate_map`, ...), so the tracer's
wrappers see every call.
"""
from __future__ import annotations

import contextlib
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as R

NANO_CLASSES = 4
NANO_SIZE = 64
TRAIN_BATCHES = 4
FD_EPS = 1e-6           # step along a unit direction in parameter space
FD_TOL = 1e-5           # the suite's gradient-check bound
FD_DIRECTIONS = 2
MAP_TOL = 1e-9          # the suite's metric-oracle bound
S_CLASSES = 20
S_SIZE = 640
PREDICT_CONF, PREDICT_IOU, MAX_DET = 0.25, 0.45, 300  # the defaults of predict and decode
SOURCE_W, SOURCE_H = 2446, 1000  # Tianchi image size
TILE = 640
TEXTURE_SEED = 0
TINT = np.array([1.0, 0.9, 0.8])  # RGB gains on the gray weave
# The networks' initial weights are part of each workload's definition, not
# of its inputs: NMS work on the untrained heads depends on them, so a
# per-seed model would move img_per_s between seeds.  Seeds vary the images.
MODEL_SEED = 0


class Workload:
    images_per_op = 1
    traces_memory = True  # run one operation under tracemalloc when tracing

    def __init__(self, fab, out_dir: Path):
        self.fab = fab
        self.out_dir = out_dir
        self.paused = contextlib.nullcontext  # the runner swaps in the tracer's pause
        self.inputs = {}                      # make-up of the inputs, printed with the result

    def setup(self, seed: int):
        raise NotImplementedError

    def prepare(self) -> list[str]:
        """Reference results; returns the run-level problems found."""
        return []

    def round(self) -> list:
        raise NotImplementedError


def _same_detections(got, want, rtol: float) -> bool:
    """Program detections (fabme Detection objects) against the reference
    (class_id, box, confidence) tuples: same length, order and classes,
    boxes and confidences within rtol."""
    if len(got) != len(want):
        return False
    for d, (cid, box, conf) in zip(got, want):
        if d.class_id != cid or not math.isclose(d.confidence, conf, rel_tol=rtol, abs_tol=rtol):
            return False
        if not all(math.isclose(a, b, rel_tol=rtol, abs_tol=rtol) for a, b in zip(d.box, box)):
            return False
    return True


def _ranked(dets, max_det: int) -> bool:
    conf = [d.confidence for d in dets]
    return len(dets) <= max_det and all(a >= b for a, b in zip(conf, conf[1:]))


# ---------------------------------------------------------------------------


class TrainNano64(Workload):
    """SGD steps of the nano-test fabme variant, 64 px, batch 16, float64."""

    images_per_op = 16

    def setup(self, seed):
        fab = self.fab
        spec = fab.graph.variant_spec("fabme", "nano-test", num_classes=NANO_CLASSES,
                                      input_size=NANO_SIZE, seed=MODEL_SEED)
        self.model = fab.graph.build_graph(spec)
        scenes = fab.train.gen_synth_dataset(16 * TRAIN_BATCHES, NANO_CLASSES, seed=seed,
                                             width=NANO_SIZE, height=NANO_SIZE)
        items = fab.train.items_from_scenes(scenes)
        self.batches = [items[i:i + 16] for i in range(0, len(items), 16)]
        self.cfg = fab.train.TrainConfig(seed=seed)
        self.named = list(self.model.named_parameters())
        self.state = {}
        self.steps = 0
        self.directions = np.random.default_rng(seed)
        self.inputs = {"params": fab.graph.count_params(self.model), "images": len(items)}

    def round(self):
        return [lambda b=b: self._step(b) for b in self.batches]

    def _step(self, batch):
        fab, model, cfg = self.fab, self.model, self.cfg
        t0 = perf_counter()
        x = fab.tensor.Tensor(np.stack([b[0] for b in batch]))
        targets = fab.train.build_targets([b[1] for b in batch], NANO_SIZE, model.strides,
                                          NANO_CLASSES, np.float64)
        outs = model(x)
        loss, _ = fab.train.detection_loss(outs, targets, model.strides, NANO_CLASSES, cfg)
        value = loss.item()
        model.zero_grad()
        loss.backward()
        t1 = perf_counter()
        del outs, loss
        with self.paused():
            ok = bool(np.isfinite(value)) and self._directional_check(x, targets)
        t2 = perf_counter()
        fab.train.sgd_step(self.named, self.state, cfg, self.steps / TRAIN_BATCHES)
        t3 = perf_counter()
        self.steps += 1
        return (t1 - t0) + (t3 - t2), ok

    def _directional_check(self, x, targets) -> bool:
        """Central difference of the loss along a random unit direction in
        parameter space against the tape's gradient, float64, at 1e-5.

        The loss has kinks (max-pool and global-max argmax switches, the
        clamps in the box loss).  A step that crosses one fails along that
        direction only: one step in 72 did at a step length of 1e-5.  A wrong
        gradient fails along every direction, so the check passes if any
        of FD_DIRECTIONS fresh directions passes."""
        return any(self._along_random_direction(x, targets) for _ in range(FD_DIRECTIONS))

    def _along_random_direction(self, x, targets) -> bool:
        fab, model = self.fab, self.model
        vs = [self.directions.standard_normal(p.data.shape) for _, p in self.named]
        norm = math.sqrt(sum(float((v * v).sum()) for v in vs))
        vs = [v / norm for v in vs]
        analytic = sum(float((p.grad * v).sum()) for (_, p), v in zip(self.named, vs) if p.grad is not None)
        saved = [p.data for _, p in self.named]

        def loss_at(step):
            for (_, p), base, v in zip(self.named, saved, vs):
                p.data = base + step * v
            with fab.tensor.no_grad():
                outs = model(x)
                return fab.train.detection_loss(outs, targets, model.strides, NANO_CLASSES, self.cfg)[0].item()

        try:
            numeric = (loss_at(FD_EPS) - loss_at(-FD_EPS)) / (2 * FD_EPS)
        finally:
            for (_, p), base in zip(self.named, saved):
                p.data = base
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
        return math.isfinite(numeric) and err <= FD_TOL


class ValNano64(Workload):
    """evaluate_map of the untrained nano-test model on 40 scenes."""

    images_per_op = 40

    def setup(self, seed):
        fab = self.fab
        spec = fab.graph.variant_spec("fabme", "nano-test", num_classes=NANO_CLASSES,
                                      input_size=NANO_SIZE, seed=MODEL_SEED)
        self.model = fab.graph.build_graph(spec)
        scenes = fab.train.gen_synth_dataset(self.images_per_op, NANO_CLASSES, seed=seed,
                                             width=NANO_SIZE, height=NANO_SIZE)
        self.items = fab.train.items_from_scenes(scenes, prefix="val")
        self.cfg = fab.train.TrainConfig(seed=seed)

    def prepare(self):
        fab, model, cfg = self.fab, self.model, self.cfg
        problems, dets, gts, cands = [], [], [], []
        for lo in range(0, len(self.items), cfg.batch_size):
            chunk = self.items[lo:lo + cfg.batch_size]
            with fab.tensor.no_grad():
                outs = model(fab.tensor.Tensor(np.stack([it[0] for it in chunk])))
            arrays = [o.data for o in outs]
            want = R.decode_nms(arrays, NANO_CLASSES, model.strides, cfg.eval_conf, cfg.eval_iou, MAX_DET)
            got = fab.graph.decode(outs, NANO_CLASSES, model.strides,
                                   conf_thresh=cfg.eval_conf, iou_thresh=cfg.eval_iou)
            if not all(_same_detections(g, w, 1e-12) for g, w in zip(got, want)):
                problems.append(f"graph.decode differs from the reference decode on images {lo}..")
            cands += [len(c[0]) for c in R.candidates(arrays, NANO_CLASSES, model.strides, cfg.eval_conf)]
            for (img, anns, iid), image_dets in zip(chunk, want):
                h, w = img.shape[-2:]
                dets += [(iid, cid, box, conf) for cid, box, conf in image_dets]
                gts += [(iid, a.class_id, _corners(a, w, h)) for a in anns]
        self.ref_map = R.brute_force_map50(dets, gts, cfg.eval_iou)
        self.inputs = {"nms_candidates_per_image": float(np.mean(cands)),
                       "candidate_share": float(np.mean(cands)) / _cells(NANO_SIZE, NANO_CLASSES),
                       "kept_per_image": len(dets) / len(self.items), "ref_map50": self.ref_map}
        self.decode_ok = not problems
        return problems

    def round(self):
        return [self._evaluate]

    def _evaluate(self):
        t0 = perf_counter()
        value = self.fab.train.evaluate_map(self.model, self.items, self.cfg)
        dt = perf_counter() - t0
        return dt, self.decode_ok and abs(value - self.ref_map) <= MAP_TOL


class InferS640(Workload):
    """FabMEModel.predict, s scale, 20 classes, one 640 px float32 image."""

    def setup(self, seed):
        fab = self.fab
        spec = fab.graph.variant_spec("fabme", "s", num_classes=S_CLASSES, input_size=S_SIZE,
                                      seed=MODEL_SEED, dtype="float32")
        self.model = fab.graph.build_graph(spec)
        scene = fab.train.gen_synth_dataset(1, S_CLASSES, seed=seed, width=S_SIZE, height=S_SIZE,
                                            min_defects=3, max_defects=6)[0]
        self.x = fab.tensor.Tensor(np.repeat(scene.image[None, None], 3, axis=1).astype(np.float32))

    def prepare(self):
        fab, model = self.fab, self.model
        with fab.tensor.no_grad():
            outs = model(self.x)
        arrays = [o.data for o in outs]
        problems = [] if all(np.all(np.isfinite(a)) for a in arrays) else ["non-finite head outputs"]
        self.want = R.decode_nms(arrays, S_CLASSES, model.strides, PREDICT_CONF, PREDICT_IOU, MAX_DET)[0]
        n_cand = len(R.candidates(arrays, S_CLASSES, model.strides, PREDICT_CONF)[0][0])
        self.inputs = {"nms_candidates_per_image": n_cand,
                       "candidate_share": n_cand / _cells(S_SIZE, S_CLASSES),
                       "kept_per_image": len(self.want)}
        return problems

    def round(self):
        return [self._predict]

    def _predict(self):
        t0 = perf_counter()
        dets = self.model.predict(self.x)[0]
        dt = perf_counter() - t0
        return dt, _ranked(dets, MAX_DET) and _same_detections(dets, self.want, 1e-9)


class TilePng(Workload):
    """tile_dataset on one 2446x1000 RGB PNG source per run; each seed
    places other defects on the same weave."""

    # makes no tensors, and under tracemalloc read_png's per-byte Python
    # loop runs about 30 times slower
    traces_memory = False

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        origins = _tile_grid(SOURCE_W, SOURCE_H, TILE)
        # one defect inside every planned tile, so no tile is dropped as
        # defect-free, plus four anywhere, which may straddle tile borders
        placements = []
        for ox, oy in origins + [(None, None)] * 4:
            w, h = (float(v) for v in rng.integers(16, 97, size=2))
            lo_x, hi_x = (ox, ox + TILE) if ox is not None else (0, SOURCE_W)
            lo_y, hi_y = (oy, oy + TILE) if oy is not None else (0, SOURCE_H)
            placements.append((int(rng.integers(1, S_CLASSES + 1)),
                               rng.uniform(lo_x + w / 2 + 4, hi_x - w / 2 - 4),
                               rng.uniform(lo_y + h / 2 + 4, hi_y - h / 2 - 4), w, h))
        # The weave and its noise come from a fixed generator: they set the
        # encoder's per-row filter mix, and so read_png's work, which would
        # otherwise move by a third between seeds.  The seed moves the defects.
        texture = np.random.default_rng(TEXTURE_SEED)
        scene = self.fab.train.render_scene(SOURCE_W, SOURCE_H, placements, S_CLASSES, texture)
        self.rgb = np.clip(np.round(scene.image[:, :, None] * TINT * 255.0), 0, 255).astype(np.uint8)
        png, filters = R.encode_png(self.rgb)
        self.src_dir = self.out_dir / "source"
        (self.src_dir / "images").mkdir(parents=True, exist_ok=True)
        (self.src_dir / "labels").mkdir(parents=True, exist_ok=True)
        (self.src_dir / "images" / "src.png").write_bytes(png)
        (self.src_dir / "labels" / "src.txt").write_text("".join(
            f"{a.class_id - 1} {a.cx:.6f} {a.cy:.6f} {a.w:.6f} {a.h:.6f}\n" for a in scene.annotations))
        shares = np.bincount(filters, minlength=len(R.FILTER_NAMES)) / len(filters)
        self.inputs = {"png_filter_share": dict(zip(R.FILTER_NAMES, shares.round(4).tolist())),
                       "png_bytes": len(png), "tiles_per_source": len(origins)}

    def round(self):
        return [self._tile]

    def _tile(self):
        out = self.out_dir / "tiles"
        shutil.rmtree(out, ignore_errors=True)
        t0 = perf_counter()
        summary = self.fab.data.tile_dataset(self.src_dir, out, tile=TILE)
        dt = perf_counter() - t0
        with self.paused():
            ok = self._check(out, self.rgb, summary)
        return dt, ok

    def _check(self, out: Path, rgb, summary) -> bool:
        """Every tile equals the crop of the encoded source at the origin in
        its name, the tiles are exactly the planned grid, and every label
        lies inside its tile."""
        planned = _tile_grid(SOURCE_W, SOURCE_H, TILE)
        tiles = sorted(out.glob("*/images/*.ppm"))
        if len(tiles) != len(planned) or len(planned) != len(self.fab.data.plan_tiles(SOURCE_W, SOURCE_H, TILE)):
            return False
        if summary["n_train_tiles"] + summary["n_val_tiles"] != len(tiles):
            return False
        seen = set()
        for path in tiles:
            ox, oy = (int(v) for v in path.stem.rsplit("_", 2)[1:])
            seen.add((ox, oy))
            if not np.array_equal(R.read_ppm_p6(path), rgb[oy:oy + TILE, ox:ox + TILE]):
                return False
            labels = path.parent.parent / "labels" / f"{path.stem}.txt"
            rows = [line.split() for line in labels.read_text().splitlines() if line.strip()]
            if not rows:
                return False
            for _, cx, cy, w, h in ((int(r[0]), *map(float, r[1:])) for r in rows):
                if not (0.0 <= cx - w / 2 + 1e-6 and cx + w / 2 - 1e-6 <= 1.0
                        and 0.0 <= cy - h / 2 + 1e-6 and cy + h / 2 - 1e-6 <= 1.0 and w > 0 and h > 0):
                    return False
        return seen == set(planned)


def _tile_grid(w: int, h: int, tile: int) -> list[tuple[int, int]]:
    """Grid origins of a w x h source: ceil(w/tile) x ceil(h/tile), the
    last row and column shifted inward to end at the border."""
    xs = [min(i * tile, w - tile) for i in range(-(-w // tile))]
    ys = [min(j * tile, h - tile) for j in range(-(-h // tile))]
    return [(x, y) for y in ys for x in xs]


def _corners(a, w, h):
    cx, cy, bw, bh = a.cx * w, a.cy * h, a.w * w, a.h * h
    return (cx - bw / 2, cy - bh / 2, cx + bw / 2, cy + bh / 2)


def _cells(size: int, classes: int) -> int:
    """Cell-class pairs of the three head scales at strides 8, 16, 32."""
    return sum((size // s) ** 2 for s in (8, 16, 32)) * classes


WORKLOADS = {
    "train-nano64": TrainNano64,
    "val-nano64": ValNano64,
    "infer-s640": InferS640,
    "tile-png": TilePng,
}
