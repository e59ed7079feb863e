"""Command-line entry point: tiling, synthetic data generation, training,
evaluation, benchmarking, gradient checking, and parameter counting.

Every command writes a machine-readable result file and exits 0 on
success, 1 on failure; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

__all__ = ["main"]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_tile(args) -> int:
    from fabme.data import tile_dataset

    try:
        summary = tile_dataset(args.indir, args.out, tile=args.size, seed=args.seed)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"tiled {summary['n_sources']} sources -> "
          f"{summary['n_train_tiles']} train / {summary['n_val_tiles']} val tiles; "
          f"manifest: {summary['manifest']}")
    return 0


def cmd_synth(args) -> int:
    from fabme.data import write_labels, write_manifest, write_ppm
    from fabme.train import gen_synth_dataset

    if args.n < 1:
        raise ValueError(f"synth: --n {args.n} must be >= 1")
    scenes = gen_synth_dataset(args.n, args.classes, seed=args.seed,
                               width=args.size, height=args.size)
    out = _out_dir(args)
    (out / "images").mkdir(exist_ok=True)
    (out / "labels").mkdir(exist_ok=True)
    rows = []
    for i, s in enumerate(scenes):
        name = f"scene{i:05d}"
        write_ppm(out / "images" / f"{name}.ppm", s.image)
        write_labels(out / "labels" / f"{name}.txt", s.annotations)
        rows.append((name, name, 0, 0, len(s.annotations)))
    write_manifest(out / "manifest.csv", rows)
    print(f"wrote {len(scenes)} scenes to {out}")
    return 0


def cmd_train(args) -> int:
    from fabme.bench import numeric_environment
    from fabme.blocks import save_checkpoint
    from fabme.data import scan_dataset, split_dataset
    from fabme.graph import build_graph, variant_spec
    from fabme.train import (TrainConfig, TrainDivergedError, load_items,
                             train, write_history_csv)

    cfg = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    # replace() reruns TrainConfig's checks, so they see the overrides
    overrides = {"max_epochs": args.epochs, "stop_map": args.stop_map}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    root = Path(args.data)
    if (root / "train").is_dir() and (root / "val").is_dir():  # a `fabme tile` output, as split
        train_s, val_s = scan_dataset(root / "train"), scan_dataset(root / "val")
        for part, found in (("train", train_s), ("val", val_s)):
            if not found:
                raise ValueError(f"no images found in {root / part}")
    else:
        train_s, val_s = split_dataset(scan_dataset(root), seed=cfg.seed)
    samples = train_s + val_s
    if not samples:
        print(f"error: no images found in {args.data}", file=sys.stderr)
        return 1
    train_items, val_items = load_items(train_s), load_items(val_s)
    num_classes = args.classes if args.classes is not None else max(
        (a.class_id for s in samples for a in s.annotations), default=20)
    size = train_items[0][0].shape[-1]
    variants = ["baseline", "emca-only", "fabme"] if args.ablation else [args.variant]
    specs = [variant_spec(variant, args.scale, num_classes=num_classes, input_size=size,
                          seed=args.seed, dtype=args.dtype) for variant in variants]

    out = _out_dir(args)
    # the bits of the history depend on these, so they are kept beside it
    (out / "environment.json").write_text(json.dumps(numeric_environment(), indent=1) + "\n")
    ablation_rows = []
    for variant, spec in zip(variants, specs):
        model = build_graph(spec)
        print(f"training {variant} ({args.scale}) on {len(train_items)} train / "
              f"{len(val_items)} val images", file=sys.stderr)
        try:
            res = train(model, train_items, val_items, cfg,
                        progress=lambda e, l, m: print(
                            f"  epoch {e}: loss {l:.4f} val_map50 {m:.4f}", file=sys.stderr))
        except TrainDivergedError as e:
            ckpt = out / f"{variant}.diverged.fabck"
            save_checkpoint(ckpt, e.last_state.items())
            write_history_csv(out / f"history_{variant}.csv", e.history, e.seconds)
            print(f"error: training diverged; last finite state saved to {ckpt}",
                  file=sys.stderr)
            return 1
        write_history_csv(out / f"history_{variant}.csv", res.history, res.seconds)
        ckpt = out / f"{variant}.fabck"
        save_checkpoint(ckpt, res.best_state.items())
        spec.to_file(out / f"{variant}.fabck.spec")
        ablation_rows.append((variant, res.best_map, res.best_epoch, res.stopped_epoch + 1))
        print(f"{variant}: best val mAP@0.5 {100 * res.best_map:.2f}% "
              f"at epoch {res.best_epoch} ({res.stop_reason}); checkpoint: {ckpt}")
    if args.ablation:
        with open(out / "ablation.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["variant", "val_map50", "best_epoch", "epochs_run"])
            for row in ablation_rows:
                w.writerow([row[0], f"{row[1]:.4f}", row[2], row[3]])
        print(f"ablation table: {out / 'ablation.csv'}")
    return 0


def cmd_eval(args) -> int:
    from fabme.blocks import load_into
    from fabme.data import scan_dataset
    from fabme.graph import GraphSpec, build_graph
    from fabme.metrics import map50, write_eval_csv
    from fabme.train import TrainConfig, eval_detections, load_items

    cfg = TrainConfig(eval_conf=args.conf)  # a bad --conf fails before any file is read
    spec_path = Path(args.spec) if args.spec else Path(str(args.model) + ".spec")
    if not spec_path.exists():
        print(f"error: graph spec file {spec_path} not found "
              f"(pass --spec or keep the .spec sidecar next to the checkpoint)", file=sys.stderr)
        return 1
    if not Path(args.model).exists():
        print(f"error: checkpoint {args.model} not found", file=sys.stderr)
        return 1
    spec = GraphSpec.from_file(spec_path)
    model = build_graph(spec)
    load_into(model, args.model)
    samples = scan_dataset(args.data)
    if not samples:
        print(f"error: no images found in {args.data}", file=sys.stderr)
        return 1
    items = load_items(samples)
    dets, gts = eval_detections(model, items, cfg)
    report = map50(dets, gts, classes=spec.num_classes)
    write_eval_csv(_out_dir(args) / "eval.csv", report)
    print(f"mAP@0.5 = {100.0 * report.map50:.2f}%")
    return 0


def cmd_bench(args) -> int:
    from fabme.bench import growth_ratios, run_sweep, write_bench_csv

    Ls = [int(s) for s in args.sweep.split(",")]
    rows = run_sweep(args.op, Ls, d_model=args.d_model, d_state=args.d_state,
                     repeats=args.repeats)
    write_bench_csv(_out_dir(args) / f"bench_{args.op}.csv", rows)
    ratios = ", ".join(f"{r:.2f}" for r in growth_ratios(rows))
    print(f"{args.op}: " + "; ".join(f"L={r.L}: {r.median_ns / 1e6:.2f}ms" for r in rows)
          + f"; growth ratios [{ratios}]")
    return 0


def cmd_gradcheck(args) -> int:
    from fabme import tensor as T
    from fabme.blocks import C2FVMamba, EMCA, VSS
    from fabme.scan import ScanParams, ss2d
    from fabme.tensor import Tensor, grad_check

    rng = np.random.default_rng(args.seed)
    out = _out_dir(args)
    shapes = {"ss2d": (1, 4, 3, 3), "vss": (1, 4, 3, 3),
              "emca": (2, 4, 3, 3), "c2f_vmamba": (1, 8, 4, 4)}
    x = Tensor(rng.standard_normal(shapes[args.block]) * 0.5)
    if args.block == "ss2d":
        p = ScanParams.create(4, d_state=2, rng=rng)
        wrt = [x] + [t for _, t in p.named_parameters()]
        fn = lambda *ts: T.tsum(T.silu(ss2d(ts[0], p)))
    elif args.block == "vss":
        blk = VSS(4, d_state=2, rng=rng)
        wrt = [x] + [t for _, t in blk.named_parameters()]
        fn = lambda *ts: T.tsum(blk(ts[0]))
    elif args.block == "emca":
        blk = EMCA(4, rng=rng)
        wrt = [x, blk.weight]
        fn = lambda *ts: T.tsum(blk(ts[0]))
    else:
        blk = C2FVMamba(8, 8, n=2, d_state=2, rng=rng)
        wrt = [x] + [t for _, t in blk.named_parameters()]
        fn = lambda *ts: T.tsum(blk(ts[0]))
    report = grad_check(fn, wrt, tol=args.tol)
    with open(out / f"gradcheck_{args.block}.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["block", "max_rel_err", "tol", "n_checked", "passed"])
        w.writerow([args.block, f"{report.max_rel_err:.3e}", report.tol,
                    report.n_checked, report.passed])
    print(str(report))
    return 0 if report.passed else 1


def cmd_params(args) -> int:
    from fabme.graph import build_graph, count_params, variant_spec

    out = _out_dir(args)
    rows = []
    for variant in args.variant:
        spec = variant_spec(variant, args.scale)
        rows.append((variant, count_params(build_graph(spec))))
    with open(out / "params.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["variant", "scale", "params"])
        for name, n in rows:
            w.writerow([name, args.scale, n])
    for name, n in rows:
        print(f"{name} ({args.scale}): {n} params ({n / 1e6:.2f}M)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from fabme.graph import SCALES, VARIANTS

    ap = argparse.ArgumentParser(prog="fabme", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tile", help="tile a dataset into fixed-size annotated sub-images")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=640)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_tile)

    p = sub.add_parser("synth", help="generate a synthetic fabric-defect dataset")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a detector variant")
    p.add_argument("--variant", default="fabme", choices=VARIANTS)
    p.add_argument("--scale", default="nano-test", choices=SCALES)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="TrainConfig key=value file")
    p.add_argument("--out", default="fabme_out")
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--stop-map", type=float, default=None)
    p.add_argument("--dtype", default="float64", choices=["float64", "float32"])
    p.add_argument("--ablation", action="store_true",
                   help="run baseline -> +EMCA -> +C2F-VMamba and emit ablation.csv")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint (prints mAP@0.5 %)")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--spec", default=None, help="graph spec file (default: MODEL.spec)")
    p.add_argument("--conf", type=float, default=0.01)
    p.add_argument("--out", default="fabme_out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="wall-time sweep for ss2d / attention")
    p.add_argument("--op", default="ss2d", choices=["ss2d", "attention"])
    p.add_argument("--sweep", default="256,1024,4096")
    p.add_argument("--d-model", type=int, default=32)
    p.add_argument("--d-state", type=int, default=8)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", default="fabme_out")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference check one block")
    p.add_argument("--block", required=True, choices=["c2f_vmamba", "emca", "vss", "ss2d"])
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="fabme_out")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("params", help="count learnable parameters per variant")
    p.add_argument("--variant", nargs="+", required=True, choices=VARIANTS)
    p.add_argument("--scale", default="s", choices=SCALES)
    p.add_argument("--out", default="fabme_out")
    p.set_defaults(fn=cmd_params)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
