"""Wall-time benchmark harness for the scan operator and a naive quadratic
attention baseline, defended by the linear-vs-quadratic growth check.

Timings are forward-only at float32; results are CSV rows
(operator, L, d_model, d_state, mean_ns, p95_ns).  A sweep times its points
in interleaved rounds, and growth ratios compare the points' medians.  An
ss2d row also records two memory witnesses taken outside the timed rounds:
the bytes of its scan states, and the tracemalloc peak of one call.
`numeric_environment` records what decides the bits of a result on a host.
"""
from __future__ import annotations

import csv
import ctypes
import glob
import math
import os
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from fabme import tensor as T
from fabme.scan import DIRECTIONS, ScanParams, ss2d
from fabme.tensor import Tensor

__all__ = ["BenchRow", "run_sweep", "write_bench_csv", "growth_ratios", "numeric_environment"]

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class BenchRow:
    operator: str
    L: int
    d_model: int
    d_state: int
    mean_ns: float
    p95_ns: float
    median_ns: float
    state_bytes: int = 0  # ss2d only: see _ss2d_case
    peak_bytes: int = 0   # ss2d only: see _peak_bytes


def _stats(samples) -> tuple[float, float, float]:
    """Mean, p95 and median of wall-time samples."""
    samples = sorted(samples)
    p95 = samples[min(len(samples) - 1, math.ceil(0.95 * len(samples)) - 1)]
    return float(np.mean(samples)), float(p95), float(np.median(samples))


def _square_map(L: int, d_model: int, rng) -> Tensor:
    side = int(round(math.sqrt(L)))
    if side * side != L:
        raise ValueError(f"benchmark L={L} must be a perfect square (h = w = sqrt(L))")
    return Tensor(rng.standard_normal((1, d_model, side, side)).astype(np.float32))


def _peak_bytes(fn) -> int:
    """tracemalloc peak of one call of fn: the most memory that numpy and
    Python held at once during it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _ss2d_case(L: int, d_model: int, d_state: int, seed: int):
    """The timed call of one ss2d sweep point, its scan state bytes and its
    peak bytes.  The state bytes are those of the (n, L, d, N) states that
    one call builds, one array per direction: n*L*d*N*itemsize each."""
    rng = np.random.default_rng(seed)
    x = _square_map(L, d_model, rng)
    p = ScanParams.create(d_model, d_state=d_state, rng=rng)
    for _, t in p.named_parameters():
        t.data = t.data.astype(np.float32)

    def fn():
        with T.no_grad():
            ss2d(x, p)

    return fn, len(DIRECTIONS) * x.data.size * d_state * x.data.itemsize, _peak_bytes(fn)


def naive_attention(x: np.ndarray) -> np.ndarray:
    """Quadratic baseline: softmax(x x^T / sqrt(d)) x over L tokens."""
    scores = x @ x.transpose(0, 2, 1) / math.sqrt(x.shape[-1])
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=-1, keepdims=True)
    return w @ x


def _attention_case(L: int, d_model: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, L, d_model)).astype(np.float32)
    return (lambda: naive_attention(x)), 0, 0


def run_sweep(op: str, Ls=(256, 1024, 4096), d_model: int = 32, d_state: int = 8,
              repeats: int = 5, seed: int = 0) -> list[BenchRow]:
    """Time the sweep points in `repeats` interleaved rounds.  Each round
    calls every point once, straight after one untimed call of the same
    point that refills the caches the other points evicted, so a host whose
    speed drifts over seconds slows all points alike, and each point's
    median drops the rounds that a burst of load hit."""
    if min(repeats, d_model, *Ls) < 1:
        raise ValueError(f"benchmark repeats {repeats}, d_model {d_model} and every L in "
                         f"{list(Ls)} must be >= 1")
    if op == "ss2d":
        cases = [_ss2d_case(L, d_model, d_state, seed) for L in Ls]
    elif op == "attention":
        cases, d_state = [_attention_case(L, d_model, seed) for L in Ls], 0
    else:
        raise ValueError(f"unknown benchmark operator {op!r}; expected ss2d or attention")
    samples = [[] for _ in cases]
    for _ in range(repeats):
        for (fn, *_), out in zip(cases, samples):
            fn()
            t0 = time.perf_counter_ns()
            fn()
            out.append(time.perf_counter_ns() - t0)
    return [BenchRow(op, L, d_model, d_state, *_stats(s), *witness)
            for L, (_, *witness), s in zip(Ls, cases, samples)]


def growth_ratios(rows: list[BenchRow]) -> list[float]:
    """median_ns ratios between consecutive sweep points."""
    return [rows[i + 1].median_ns / rows[i].median_ns for i in range(len(rows) - 1)]


def write_bench_csv(path, rows: list[BenchRow]):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["operator", "L", "d_model", "d_state", "mean_ns", "p95_ns"])
        for r in rows:
            w.writerow([r.operator, r.L, r.d_model, r.d_state, int(r.mean_ns), int(r.p95_ns)])


def _openblas_core() -> str | None:
    """The kernel family that numpy's bundled OpenBLAS picked for this CPU,
    or None where that library or its symbol is absent."""
    libs = os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "libscipy_openblas64_*.so")
    for lib in glob.glob(libs):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def numeric_environment() -> dict:
    """What decides the bits of a result on this host: numpy's version, the
    OpenBLAS kernel family, numpy's dispatch target for float64 exp, the
    SIMD extensions numpy found and the BLAS thread variables.  Two hosts
    give bitwise equal results only where these agree."""
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

    exp = np.lib.introspect.opt_func_info(func_name="^exp$", signature="float64")["exp"]
    return {
        "numpy": np.__version__,
        "openblas_core": _openblas_core(),
        "exp_float64": next(iter(exp.values()))["current"],
        "simd": {"baseline": list(__cpu_baseline__),
                 "found": [f for f in __cpu_dispatch__ if __cpu_features__[f]]},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }
