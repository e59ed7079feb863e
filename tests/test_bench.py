"""Benchmark harness: CSV schema and basic sanity; the complexity-growth
assertions live in the acceptance suite."""
import csv

import pytest

from fabme.bench import BenchRow, growth_ratios, numeric_environment, run_sweep, write_bench_csv


class TestHarness:
    def test_ss2d_row(self):
        row = run_sweep("ss2d", (64,), d_model=8, d_state=4, repeats=2)[0]
        assert row.operator == "ss2d" and row.L == 64
        assert row.d_model == 8 and row.d_state == 4
        assert row.mean_ns > 0
        # four directions of one float32 image: 4 * n*L*d*N*itemsize
        assert row.state_bytes == 4 * 1 * 64 * 8 * 4 * 4
        # one call holds at least one direction's (n, L, d, N) states
        assert row.peak_bytes >= row.state_bytes // 4

    def test_attention_row(self):
        row = run_sweep("attention", (64,), d_model=8, repeats=2)[0]
        assert row.operator == "attention" and row.mean_ns > 0

    def test_non_square_L_rejected(self):
        with pytest.raises(ValueError, match="perfect square"):
            run_sweep("ss2d", (200,), repeats=1)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            run_sweep("matmul")

    def test_growth_ratios(self):
        rows = [BenchRow("x", 1, 1, 1, 10.0, 10.0, 10.0), BenchRow("x", 4, 1, 1, 40.0, 40.0, 40.0)]
        assert growth_ratios(rows) == [4.0]

    def test_csv_schema(self, tmp_path):
        rows = run_sweep("ss2d", Ls=(16, 64), d_model=8, d_state=2, repeats=2)
        path = tmp_path / "bench.csv"
        write_bench_csv(path, rows)
        with open(path) as f:
            got = list(csv.reader(f))
        assert got[0] == ["operator", "L", "d_model", "d_state", "mean_ns", "p95_ns"]
        assert len(got) == 3 and got[1][0] == "ss2d"


class TestNumericEnvironment:
    def test_records_what_decides_the_bits(self, monkeypatch):
        import numpy as np
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        env = numeric_environment()
        assert env["numpy"] == np.__version__
        assert env["openblas_core"] is None or env["openblas_core"]
        assert isinstance(env["exp_float64"], str) and isinstance(env["simd"]["found"], list)
        assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["blas_threads"]["OMP_NUM_THREADS"] is None
