"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import time

import numpy as np
import pytest

from fabme import tensor as T
from fabme import train as TR
from fabme import data as D
from fabme.bench import growth_ratios, run_sweep
from fabme.blocks import C2FVMamba, EMCA, VSS
from fabme.graph import build_graph, count_params, variant_spec
from fabme.metrics import Detection, GroundTruth, map50, match_and_ap
from fabme.scan import ScanParams, ss2d
from fabme.tensor import Tensor, grad_check

from oracles import brute_force_map50, random_detection_scene

TOL = 1e-5


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {name} {detail}"


def _params(mod):
    return [t for _, t in mod.named_parameters()]


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst = 0.0

    def check(rep):
        nonlocal worst
        worst = max(worst, rep.max_rel_err)
        assert rep.passed, str(rep)

    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        # conv2d (plain, strided, depthwise)
        x = Tensor(rng.standard_normal((1, 3, 5, 5)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.3)
        b = Tensor(rng.standard_normal(4) * 0.1)
        stride = 1 + seed % 2
        check(grad_check(lambda *t_: T.tsum(T.conv2d(*t_, stride, 1)), [x, w, b], tol=TOL))
        xd = Tensor(rng.standard_normal((1, 4, 4 + seed, 4)))
        wd = Tensor(rng.standard_normal((4, 1, 3, 3)) * 0.3)
        bd = Tensor(rng.standard_normal(4) * 0.1)
        check(grad_check(lambda *t_: T.tsum(T.conv2d(*t_, padding=1, groups=4)), [xd, wd, bd], tol=TOL))
        # conv1d
        xc = Tensor(rng.standard_normal((2, 5 + seed)))
        wc = Tensor(rng.standard_normal(3) * 0.5)
        check(grad_check(lambda *t_: T.tsum(T.sigmoid(T.conv1d(t_[0], t_[1]))), [xc, wc], tol=TOL))
        # GAP / GMP
        m = Tensor(rng.standard_normal((2, 3, 1, 1)))
        for pool in (T.global_avg_pool, T.global_max_pool):
            xp = Tensor(rng.standard_normal((2, 3, 3 + seed, 4)))
            check(grad_check(lambda t_: T.tsum(T.mul(pool(t_), m)), [xp], tol=TOL))
        # SiLU / sigmoid
        for act in (T.silu, T.sigmoid):
            xa = Tensor(rng.standard_normal((3, 4 + seed)))
            check(grad_check(lambda t_: T.tsum(act(t_)), [xa], tol=TOL))
        # ss2d
        p = ScanParams.create(4, d_state=2, rng=rng)
        xs = Tensor(rng.standard_normal((1, 4, 2 + seed, 3)))
        check(grad_check(lambda *t_: T.tsum(T.silu(ss2d(t_[0], p))),
                         [xs] + [t for _, t in p.named_parameters()], tol=TOL))
        # vss_block
        vss = VSS(4, d_state=2, rng=rng)
        xv = Tensor(rng.standard_normal((1, 4, 3, 2 + seed)) * 0.5)
        check(grad_check(lambda *t_: T.tsum(vss(t_[0])), [xv] + _params(vss), tol=TOL))
        # emca
        emca = EMCA(4, rng=rng)
        xe = Tensor(rng.standard_normal((2, 4, 2 + seed, 3)))
        check(grad_check(lambda *t_: T.tsum(emca(t_[0])), [xe, emca.weight], tol=TOL))
        # c2f_vmamba
        cvm = C2FVMamba(8, 8, n=1 + seed % 2, d_state=2, rng=rng)
        xm = Tensor(rng.standard_normal((1, 8, 4, 4)) * 0.5)
        check(grad_check(lambda *t_: T.tsum(cvm(t_[0])), [xm] + _params(cvm), tol=TOL))
    elapsed = time.time() - t0
    _report(1, "gradient correctness", worst < TOL and elapsed < 120,
            f"max_rel_err={worst:.2e}, {elapsed:.0f}s")


def test_criterion_2_equation_fidelity():
    rng = np.random.default_rng(0)
    means = np.array([1.0, 2.0, 3.0, 4.0])
    emca = EMCA(4, rng=rng)
    emca.weight.data = np.array([0.0, 1.0, 0.0])
    x = Tensor(np.broadcast_to(means[None, :, None, None], (1, 4, 5, 5)).copy())
    got = emca(x).data[0, :, 0, 0]
    want = (1.0 / (1.0 + np.exp(-2.0 * means))) * means
    err = np.abs(got - want).max()
    widths_ok = all(
        C2FVMamba(2 * h, 2 * h, n=n, rng=np.random.default_rng(n)).cv2.weight.data.shape[1]
        == (n + 3) * h
        for n in (1, 2, 3) for h in (4, 8, 16)
    )
    _report(2, "equation fidelity", err < 1e-12 and widths_ok,
            f"emca_err={err:.2e}, concat widths (n+3)h for n in 1..3")


def test_criterion_3_ss2d_complexity():
    t0 = time.time()
    ss2d_rows = run_sweep("ss2d", Ls=(256, 1024, 4096), repeats=7)
    attn_rows = run_sweep("attention", Ls=(256, 1024, 4096), repeats=7)
    rs = growth_ratios(ss2d_rows)
    ra = growth_ratios(attn_rows)
    # the deterministic witness: scan state bytes grow exactly 4x per 4x L
    state = [r.state_bytes for r in ss2d_rows]
    linear_state = state[0] > 0 and all(b == 4 * a for a, b in zip(state, state[1:]))
    # the memory witness: an ss2d call's peak grows like its time should
    peaks = [r.peak_bytes for r in ss2d_rows]
    rp = [b / a for a, b in zip(peaks, peaks[1:])]
    elapsed = time.time() - t0
    ok = (linear_state and all(3.0 <= r <= 6.0 for r in rs + rp) and all(r >= 12.0 for r in ra)
          and elapsed < 300)
    _report(3, "ss2d linear complexity", ok,
            f"ss2d state bytes {state}, peak ratios {[f'{r:.2f}' for r in rp]}, "
            f"ss2d ratios {[f'{r:.2f}' for r in rs]}, "
            f"attention {[f'{r:.2f}' for r in ra]}, {elapsed:.0f}s")


def test_criterion_4_parameter_counts():
    base = build_graph(variant_spec("baseline", "s"))
    fab = build_graph(variant_spec("fabme", "s"))
    emca_only = build_graph(variant_spec("emca-only", "s"))
    n_base, n_fab, n_emca = count_params(base), count_params(fab), count_params(emca_only)
    rel = abs(n_base - 11.10e6) / 11.10e6
    k = emca_only.emca.k
    ok = rel <= 0.15 and n_fab <= n_base and (n_emca - n_base) == k
    _report(4, "parameter-count direction", ok,
            f"baseline={n_base/1e6:.2f}M ({100*rel:.1f}% from 11.10M), "
            f"fabme={n_fab/1e6:.2f}M, emca toggle=+{n_emca - n_base} (k={k})")


def test_criterion_5_metric_oracle_equivalence():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dets_raw, gts_raw = random_detection_scene(rng)
        gts = [GroundTruth(c, b, i) for i, c, b in gts_raw]
        dets = [Detection(c, b, conf, i) for i, c, b, conf in dets_raw]
        got = map50(dets, gts, classes=5).map50
        want = brute_force_map50(dets_raw, gts_raw)
        worst = max(worst, abs(got - want))
    gts_fx = [GroundTruth(1, (0, 0, 10, 10), "a"), GroundTruth(1, (20, 20, 30, 30), "a")]
    dets_fx = [Detection(1, (0, 0, 10, 10), 0.9, "a"),
               Detection(1, (50, 50, 60, 60), 0.8, "a"),
               Detection(1, (20, 20, 30, 30), 0.7, "a")]
    ap = match_and_ap(dets_fx, gts_fx)[1].ap
    ap_ok = abs(ap - (0.5 + 0.5 * 2 / 3)) < 1e-12
    # identical-to-ground-truth predictions score 100.0%
    rng = np.random.default_rng(7)
    _, gts_raw = random_detection_scene(rng)
    gts2 = [GroundTruth(c, b, i) for i, c, b in gts_raw]
    self_dets = [Detection(g.class_id, g.box, 1.0, g.image_id) for g in gts2]
    perfect = 100.0 * map50(self_dets, gts2, classes=5).map50
    _report(5, "metric oracle equivalence",
            worst < 1e-9 and ap_ok and perfect == 100.0,
            f"max |lib - brute| = {worst:.1e} over 100 scenes, fixture AP={ap:.6f}, self-eval={perfect:.1f}%")


def test_criterion_6_pipeline_correctness(tmp_path):
    # a 2446x1000 synthetic source with one defect in each tile's exclusive region
    rng = np.random.default_rng(0)
    xs = (320, 960, 1540, 2180)
    ys = (180, 820)
    placements = [(1 + (i + j) % 4, float(cx), float(cy), 40.0, 40.0)
                  for j, cy in enumerate(ys) for i, cx in enumerate(xs)]
    scene = TR.render_scene(2446, 1000, placements, 4, rng)
    src = tmp_path / "src"
    (src / "images").mkdir(parents=True)
    (src / "labels").mkdir(parents=True)
    D.write_ppm(src / "images" / "big.ppm", scene.image)
    D.write_labels(src / "labels" / "big.txt", scene.annotations)

    n_planned = len(D.plan_tiles(2446, 1000))
    out = tmp_path / "tiles"
    summary = D.tile_dataset(src, out, seed=0)
    produced = summary["n_train_tiles"] + summary["n_val_tiles"]
    manifest = (out / "manifest.csv").read_text().strip().splitlines()[1:]
    no_empty = all(int(r.rsplit(",", 1)[1]) >= 1 for r in manifest)

    # label round-trip lossless at 6 decimals
    anns = []
    for _ in range(100):
        w, h = rng.uniform(0.001, 0.5, 2)
        anns.append(D.Annotation(int(rng.integers(1, 21)),
                                 round(rng.uniform(w / 2, 1 - w / 2), 6),
                                 round(rng.uniform(h / 2, 1 - h / 2), 6),
                                 round(w, 6), round(h, 6)))
    D.write_labels(tmp_path / "rt.txt", anns)
    back = D.read_labels(tmp_path / "rt.txt")
    rt_ok = all(
        a.class_id == b.class_id
        and all(abs(getattr(a, f) - getattr(b, f)) < 5e-7 for f in ("cx", "cy", "w", "h"))
        for a, b in zip(anns, back))

    split_ok = (D.split_dataset(list(range(137)), seed=42)
                == D.split_dataset(list(range(137)), seed=42))
    ok = (n_planned == 8 and produced == 8 and no_empty and rt_ok and split_ok)
    _report(6, "pipeline correctness", ok,
            f"planned={n_planned}, produced={produced}, no empty tiles={no_empty}, "
            f"roundtrip={rt_ok}, split stable={split_ok}")


def test_criterion_7_closed_loop_training(tmp_path):
    t0 = time.time()
    spec = variant_spec("fabme", "nano-test", num_classes=4, input_size=64, seed=0)
    model = build_graph(spec)
    scenes = TR.gen_synth_dataset(200, 4, seed=0)
    items = TR.items_from_scenes(scenes)
    train_ids, val_ids = D.split_dataset(list(range(len(items))), seed=0)
    train_items = [items[i] for i in train_ids]
    val_items = [items[i] for i in val_ids]
    cfg = TR.TrainConfig(max_epochs=150, seed=0, stop_map=0.5)
    res = TR.train(model, train_items, val_items, cfg)
    elapsed = time.time() - t0
    reached = res.best_map >= 0.5 and res.stopped_epoch < 150 and elapsed < 600

    # determinism: two fresh short runs produce identical histories
    hists = []
    for _ in range(2):
        m2 = build_graph(variant_spec("fabme", "nano-test", num_classes=4, seed=0))
        r2 = TR.train(m2, train_items[:48], val_items[:16],
                      TR.TrainConfig(max_epochs=2, seed=0))
        hists.append(r2.history)
    deterministic = hists[0] == hists[1]

    # ablation baseline -> +EMCA -> +C2F-VMamba(C2F3) emits the table
    from fabme.cli import main as cli_main
    data_dir = tmp_path / "synth"
    assert cli_main(["synth", "--n", "24", "--classes", "4", "--seed", "1",
                     "--out", str(data_dir)]) == 0
    abl_dir = tmp_path / "ablation"
    code = cli_main(["train", "--ablation", "--scale", "nano-test",
                     "--data", str(data_dir), "--out", str(abl_dir),
                     "--epochs", "2", "--seed", "0"])
    rows = (abl_dir / "ablation.csv").read_text().strip().splitlines()
    ablation_ok = code == 0 and len(rows) == 4 and rows[0].startswith("variant,")

    ok = reached and deterministic and ablation_ok
    _report(7, "closed-loop training", ok,
            f"val mAP@0.5={res.best_map:.3f} at epoch {res.best_epoch} "
            f"(stopped {res.stopped_epoch}, {elapsed:.0f}s), deterministic={deterministic}, "
            f"ablation rows={len(rows) - 1}")
