"""Benchmark of fabme, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the program is imported from the
checkout's src/ and from nowhere else.  The run restarts itself under a
fixed str hash seed with BLAS pinned to one thread, builds the
workload's inputs from the seed, computes reference results
apart from the program, then times whole rounds of operations until S
seconds have passed.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the environment and the make-up of the inputs.

--trace 0 reports the end-to-end metrics (setup_s, img_per_s,
peak_rss_mb).  --trace 1 alternates rounds of the plain program with
rounds in which every public function of the seven layers is wrapped, and
reports the per-layer metrics, each per traced operation, with the
tracing overhead.  See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
HASH_SEED = "0"
LAYERS = ("tensor", "scan", "blocks", "graph", "metrics", "train", "data")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # the keys of workloads.WORKLOADS, named here so numpy loads only after the restart
    p.add_argument("--workload", required=True,
                   choices=("train-nano64", "val-nano64", "infer-s640", "tile-png"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_fabme(root: Path):
    """The fabme modules from root/src; exits if they are not there."""
    src = root / "src"
    if not (src / "fabme" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fabme sources under {src}")
    sys.path.insert(0, str(src))
    fabme = importlib.import_module("fabme")
    if Path(fabme.__file__).resolve().parent != (src / "fabme").resolve():
        sys.exit(f"perfbench: imported fabme from {fabme.__file__}, not from {src}")
    mods = {name: importlib.import_module(f"fabme.{name}") for name in LAYERS + ("bench", "cli")}
    mods["fabme"] = fabme
    return argparse.Namespace(**mods), mods


def import_seconds(src: Path, first: float) -> float:
    """Median import time of numpy and the seven layers: this process's
    own, and that of SETUP_REPEATS - 1 fresh interpreters."""
    probe = ("from time import perf_counter; t = perf_counter(); import "
             + ", ".join(f"fabme.{name}" for name in LAYERS) + "; print(perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def measure(wl, seconds: float):
    """Whole rounds of the workload's operations until `seconds` pass:
    per-operation timed seconds and the count of failed operations."""
    ops = wl.round()
    times, failed = [], 0
    deadline = perf_counter() + seconds
    while True:
        for op in ops:
            dt, ok = op()
            times.append(dt)
            failed += not ok
        if perf_counter() >= deadline:
            return times, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Restart this process under a fixed str hash seed, with BLAS pinned
        # before numpy loads it.  Random per-interpreter hashes change the
        # program's dict layouts: they spread val-nano64 by 20% between runs
        # of the same code, against 4% with a fixed seed.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, **{v: "1" for v in THREAD_VARS})
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    root = Path(__file__).resolve().parent.parent
    t0 = perf_counter()
    fab, modules = import_fabme(root)
    import_s = import_seconds(root / "src", perf_counter() - t0)

    import workloads
    from tracer import Tracer

    out_dir = root / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](fab, out_dir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.setup(args.seed)
            setups.append(perf_counter() - t0)
        problems = wl.prepare()
        if args.trace:
            metrics, attempted, failed = traced_run(wl, args.seconds, modules, Tracer())
        else:
            times, failed = measure(wl, args.seconds)
            attempted = len(times)
            med = statistics.median(times)
            q = statistics.quantiles(times, n=4) if len(times) > 1 else [med] * 3
            print(f"{args.workload}: {attempted} ops, median {med:.4f} s, quartiles "
                  f"{q[0]:.4f}..{q[2]:.4f} s, setup {setups}", file=sys.stderr)
            metrics = {
                "setup_s": (import_s + statistics.median(setups), "s"),
                "img_per_s": (wl.images_per_op / med, "img/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            out_dir.parent.rmdir()
    for p in problems:
        print(f"{args.workload}: {p}", file=sys.stderr)
    print(json.dumps({"env": environment(), "inputs": wl.inputs}, default=float))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(wl, seconds, modules, tracer):
    """Rounds alternate between the plain program and the traced one
    until `seconds` pass, so drift of the host falls on both alike; then
    one more operation runs under tracemalloc for the peak of traced
    allocations."""
    import tracemalloc

    ops = wl.round()
    wl.paused = tracer.paused
    runs = {False: [], True: []}
    failed = 0
    deadline = perf_counter() + seconds
    traced = False
    while not (runs[True] and perf_counter() >= deadline):
        if traced:
            tracer.install(modules)
            tracer.active = True
        for op in ops:
            dt, ok = op()
            runs[traced].append(dt)
            failed += not ok
        tracer.active = False
        tracer.uninstall()
        traced = not traced
    attempted = len(runs[False]) + len(runs[True])
    peak = 0
    if wl.traces_memory:
        tracemalloc.start()
        _, ok = ops[0]()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        attempted += 1
        failed += not ok
    plain = wl.images_per_op / statistics.median(runs[False])
    timed = wl.images_per_op / statistics.median(runs[True])
    return (layer_metrics(tracer, len(runs[True]), peak) | {
        "trace.untraced_img_per_s": (plain, "img/s"),
        "trace.traced_img_per_s": (timed, "img/s"),
        "trace.slowdown": (plain / timed, "ratio"),
    }), attempted, failed


TENSOR_NAMED = ("conv2d", "silu", "channel_norm", "maxpool2d")


def layer_metrics(tr, n: int, tape_peak: int) -> dict:
    """Per-operation layer figures from the tracer's sums over n ops."""
    def per_op(v):
        return v / n

    tensor_fwd = {k: v for k, v in tr.self.items()
                  if k.startswith("tensor.") and not k.endswith(".bwd") and k != "tensor.backward"}
    tensor_bwd = {k: v for k, v in tr.self.items() if k.startswith("tensor.") and k.endswith(".bwd")}
    m = {}
    for op in TENSOR_NAMED:
        m[f"tensor.{op}.fwd_s"] = (per_op(tensor_fwd.get(f"tensor.{op}", 0.0)), "s")
    m["tensor.other.fwd_s"] = (per_op(sum(v for k, v in tensor_fwd.items()
                                          if k.split(".")[1] not in TENSOR_NAMED)), "s")
    m["tensor.conv2d.calls"] = (per_op(tr.calls["tensor.conv2d"]), "count")
    m["tensor.out_mb"] = (per_op(tr.counts["tensor.out_bytes"]) / 1e6, "MB")
    for op in ("conv2d", "silu", "channel_norm"):
        m[f"tensor.{op}.bwd_s"] = (per_op(tensor_bwd.get(f"tensor.{op}.bwd", 0.0)), "s")
    m["tensor.other.bwd_s"] = (per_op(sum(v for k, v in tensor_bwd.items()
                                          if k.split(".")[1] not in ("conv2d", "silu", "channel_norm"))), "s")
    m["tensor.backward.self_s"] = (per_op(tr.self["tensor.backward"]), "s")
    m["tensor.tape_peak_mb"] = (tape_peak / 1e6, "MB")
    m["scan.selective_scan.fwd_s"] = (per_op(tr.self["scan.selective_scan"]), "s")
    m["scan.selective_scan.bwd_s"] = (per_op(tr.self["scan.selective_scan.bwd"]), "s")
    m["scan.selective_scan.calls"] = (per_op(tr.calls["scan.selective_scan"]), "count")
    m["scan.recurrence_steps"] = (per_op(tr.counts["scan.recurrence_steps"]), "count")
    m["scan.state_mb"] = (per_op(tr.counts["scan.state_bytes"]) / 1e6, "MB")
    for cls in ("C2FVMamba", "VSS", "C2F", "SPPF", "EMCA"):
        m[f"blocks.{cls}.incl_s"] = (per_op(tr.incl[f"blocks.{cls}"]), "s")
    m["graph.forward.incl_s"] = (per_op(tr.incl["graph.forward"]), "s")
    m["graph.decode.s"] = (per_op(tr.incl["graph.decode"]), "s")
    m["graph.decode.candidates"] = (per_op(tr.counts["graph.decode.candidates"]), "count")
    m["graph.decode.kept"] = (per_op(tr.counts["graph.decode.kept"]), "count")
    m["metrics.map50.s"] = (per_op(tr.incl["metrics.map50"]), "s")
    m["metrics.map50.detections"] = (per_op(tr.counts["metrics.map50.detections"]), "count")
    for fn in ("build_targets", "detection_loss", "sgd_step", "evaluate_map"):
        m[f"train.{fn}.s"] = (per_op(tr.incl[f"train.{fn}"]), "s")
    m["train.backward.s"] = (per_op(tr.incl["tensor.backward"]), "s")
    m["data.read_png.s"] = (per_op(tr.incl["data.read_png"]), "s")
    m["data.read_png.mb"] = (per_op(tr.counts["data.read_png.bytes"]) / 1e6, "MB")
    m["data.write_ppm.s"] = (per_op(tr.incl["data.write_ppm"]), "s")
    m["data.tile_dataset.self_s"] = (per_op(tr.self["data.tile_dataset"]), "s")
    m["data.tiles_written"] = (per_op(tr.calls["data.write_ppm"]), "count")
    return m


if __name__ == "__main__":
    sys.exit(main())
