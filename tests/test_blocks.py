"""Composite blocks: fixed points, channel arithmetic, attention
properties, gradients, checkpoint format."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fabme import tensor as T
from fabme.blocks import (
    C2F, C2FVMamba, Conv, Bottleneck, EMCA, SPPF, VSS, adaptive_kernel_size,
    load_checkpoint, load_into, save_checkpoint,
)
from fabme.tensor import ShapeError, Tensor


def _params(mod):
    return [t for _, t in mod.named_parameters()]


class TestBottleneckC2FSPPF:
    def test_bottleneck_zero_branch_identity(self, rng):
        bn = Bottleneck(8, shortcut=True, rng=rng)
        bn.cv1.weight.data[:] = 0.0
        bn.cv2.weight.data[:] = 0.0
        x = Tensor(rng.standard_normal((1, 8, 4, 4)))
        assert np.array_equal(bn(x).data, x.data)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_c2f_concat_width(self, rng, n):
        c2f = C2F(16, 16, n=n, rng=rng)
        assert c2f.cv2.spec.in_channels == (n + 2) * 8

    def test_sppf_shape(self, rng):
        sppf = SPPF(64, 64, rng=rng)
        x = Tensor(rng.standard_normal((1, 64, 8, 8)))
        assert sppf(x).data.shape == (1, 64, 8, 8)

    def test_c2f_shape_and_gradcheck(self, rng):
        c2f = C2F(6, 6, n=1, rng=rng)
        x = Tensor(rng.standard_normal((1, 6, 3, 3)))
        assert c2f(x).data.shape == (1, 6, 3, 3)
        rep = T.grad_check(lambda *ts: T.tsum(c2f(ts[0])), [x] + _params(c2f))
        assert rep.passed, str(rep)

    def test_sppf_gradcheck(self, rng):
        sppf = SPPF(4, 4, rng=rng)
        x = Tensor(rng.standard_normal((1, 4, 4, 4)))
        rep = T.grad_check(lambda *ts: T.tsum(sppf(ts[0])), [x] + _params(sppf))
        assert rep.passed, str(rep)

    def test_bottleneck_gradcheck(self, rng):
        bn = Bottleneck(4, shortcut=True, rng=rng)
        x = Tensor(rng.standard_normal((1, 4, 3, 3)))
        rep = T.grad_check(lambda *ts: T.tsum(bn(ts[0])), [x] + _params(bn))
        assert rep.passed, str(rep)


class TestVSS:
    def test_zero_fixed_point(self, rng):
        vss = VSS(8, rng=rng)
        out = vss(Tensor(np.zeros((1, 8, 4, 4))))
        assert np.allclose(out.data, 0.0, atol=1e-15)

    def test_preserves_shape(self, rng):
        vss = VSS(32, rng=rng)
        x = Tensor(rng.standard_normal((1, 32, 8, 8)))
        assert vss(x).data.shape == (1, 32, 8, 8)

    def test_channel_mismatch_rejected(self, rng):
        vss = VSS(8, rng=rng)
        with pytest.raises(ShapeError, match="channels"):
            vss(Tensor(rng.standard_normal((1, 4, 4, 4))))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        vss = VSS(4, d_state=2, rng=rng)
        x = Tensor(rng.standard_normal((1, 4, 3, 3)) * 0.5)
        rep = T.grad_check(lambda *ts: T.tsum(vss(ts[0])), [x] + _params(vss))
        assert rep.passed, str(rep)


class TestC2FVMamba:
    @pytest.mark.parametrize("n,h", [(1, 4), (2, 4), (3, 4), (1, 8), (2, 8), (3, 8)])
    def test_concat_width_rule(self, rng, n, h):
        assert C2FVMamba(2 * h, 2 * h, n=n, rng=rng).cv2.spec.in_channels == (n + 3) * h

    def test_n1_example_widths(self, rng):
        # h=4: X1(4) + Conv(X)(8) + Y2(4) = 16 channels into the last conv
        m = C2FVMamba(8, 8, n=1, rng=rng)
        assert m.cv2.spec.in_channels == 16

    def test_n2_example_widths(self, rng):
        m = C2FVMamba(8, 8, n=2, rng=rng)
        assert m.cv2.spec.in_channels == 20

    def test_spatial_dims_preserved(self, rng):
        m = C2FVMamba(8, 12, n=2, rng=rng)
        x = Tensor(rng.standard_normal((2, 8, 5, 5)))
        assert m(x).data.shape == (2, 12, 5, 5)

    def test_odd_out_channels_rejected(self, rng):
        with pytest.raises(ShapeError, match="even"):
            C2FVMamba(8, 7, rng=rng)

    def test_zero_depth_rejected(self, rng):
        with pytest.raises(ShapeError, match="n 0 must be >= 1"):
            C2FVMamba(8, 8, n=0, rng=rng)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradcheck_end_to_end(self, seed):
        rng = np.random.default_rng(seed)
        m = C2FVMamba(8, 8, n=2, d_state=2, rng=rng)
        x = Tensor(rng.standard_normal((1, 8, 4, 4)) * 0.5)
        rep = T.grad_check(lambda *ts: T.tsum(m(ts[0])), [x] + _params(m))
        assert rep.passed, str(rep)


class TestEMCA:
    def test_zero_input_half_attention(self, rng):
        emca = EMCA(8, rng=rng)
        out = emca(Tensor(np.zeros((1, 8, 3, 3))))
        assert np.allclose(out.data, 0.0)

    def test_constant_per_channel_fixture(self, rng):
        # identity kernel: out channel c == sigmoid(2 m_c) * m_c
        means = np.array([1.0, 2.0, 3.0, 4.0])
        emca = EMCA(4, rng=rng)
        emca.weight.data = np.array([0.0, 1.0, 0.0])
        x = Tensor(np.broadcast_to(means[None, :, None, None], (1, 4, 5, 5)).copy())
        out = emca(x).data
        want = means / (1.0 + np.exp(-2.0 * means))
        assert np.abs(out[0, :, 0, 0] - want).max() < 1e-12

    def test_shape_preserved(self, rng):
        emca = EMCA(8, rng=rng)
        x = Tensor(rng.standard_normal((2, 8, 16, 16)))
        assert emca(x).data.shape == (2, 8, 16, 16)

    def test_weights_strictly_in_unit_interval(self, rng):
        # strict (0,1) up to float64 saturation of the sigmoid
        emca = EMCA(6, rng=rng)
        for scale in (0.1, 1.0, 5.0):
            x = Tensor(rng.standard_normal((3, 6, 4, 4)) * scale)
            desc = T.add(T.global_avg_pool(x), T.global_max_pool(x))
            a = T.sigmoid(T.conv1d(desc.reshape(3, 6), emca.weight))
            assert np.all(a.data > 0.0) and np.all(a.data < 1.0)

    def test_monotone_in_channel_with_identity_kernel(self, rng):
        emca = EMCA(4, rng=rng)
        emca.weight.data = np.array([0.0, 1.0, 0.0])
        x = rng.standard_normal((1, 4, 5, 5))
        for c in range(4):
            bumped = x.copy()
            bumped[0, c] += 0.5
            a0 = _attention(emca, x)
            a1 = _attention(emca, bumped)
            assert a1[0, c] >= a0[0, c]

    def test_permutation_equivariance_k1(self, rng):
        # k is odd >= 3; per-channel behaviour is tested via
        # a delta kernel, which reduces conv1d to an independent channel map
        emca = EMCA(5, rng=rng)
        emca.weight.data = np.array([0.0, 0.7, 0.0])
        x = rng.standard_normal((1, 5, 4, 4))
        perm = np.random.default_rng(0).permutation(5)
        out = emca(Tensor(x)).data
        out_perm = emca(Tensor(x[:, perm])).data
        assert np.allclose(out_perm, out[:, perm], atol=1e-14)

    def test_adaptive_kernel(self):
        assert adaptive_kernel_size(512) == 5
        assert adaptive_kernel_size(8) == 3
        for c in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            k = adaptive_kernel_size(c)
            assert k % 2 == 1 and k >= 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        emca = EMCA(4, rng=rng)
        x = Tensor(rng.standard_normal((2, 4, 3, 3)))
        rep = T.grad_check(lambda *ts: T.tsum(emca(ts[0])), [x, emca.weight])
        assert rep.passed, str(rep)


def _attention(emca, x):
    t = Tensor(x)
    desc = T.add(T.global_avg_pool(t), T.global_max_pool(t))
    return T.sigmoid(T.conv1d(desc.reshape(x.shape[0], x.shape[1]), emca.weight)).data


class TestCheckpoint:
    def test_roundtrip_preserves_values(self, rng, tmp_path):
        vss = VSS(8, rng=rng)
        path = tmp_path / "m.fabck"
        save_checkpoint(path, vss.named_parameters())
        other = VSS(8, rng=np.random.default_rng(999))
        load_into(other, path)
        for (na, a), (nb, b) in zip(vss.named_parameters(), other.named_parameters()):
            assert na == nb and np.array_equal(a.data, b.data)

    def test_records_are_ordered_and_named(self, rng, tmp_path):
        conv = Conv(3, 4, 3, rng=rng)
        path = tmp_path / "c.fabck"
        save_checkpoint(path, (("layer." + n, t) for n, t in conv.named_parameters()))
        state = load_checkpoint(path)
        assert list(state) == ["layer." + n for n, _ in conv.named_parameters()]

    def test_huge_name_length_rejected(self, tmp_path):
        path = tmp_path / "n.fabck"
        path.write_bytes(struct.pack("<I", 2**32 - 1) + b"w" * 16)
        with pytest.raises(ValueError, match="overruns"):
            load_checkpoint(path)

    def test_duplicate_name_rejected(self, rng, tmp_path):
        conv = Conv(3, 4, 1, rng=rng)
        path = tmp_path / "dup.fabck"
        save_checkpoint(path, [("weight", conv.weight), ("norm.gain", conv.norm.gain),
                               ("weight", np.zeros_like(conv.weight.data))])
        with pytest.raises(ValueError, match="'weight' twice"):
            load_checkpoint(path)

    def test_huge_dims_rejected(self, tmp_path):
        import tracemalloc
        path = tmp_path / "d.fabck"
        path.write_bytes(struct.pack("<I", 1) + b"w" + b"FABT" + struct.pack("<3I", 2, 100000, 100000))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_truncated_or_flipped_is_value_error(self, data):
        import tempfile
        from pathlib import Path
        conv = Conv(2, 3, 1, rng=np.random.default_rng(0))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.fabck"
            save_checkpoint(path, conv.named_parameters())
            blob = path.read_bytes()
            if data.draw(st.booleans(), label="truncate"):
                blob = blob[:data.draw(st.integers(1, len(blob) - 1), label="length")]
            else:
                pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
                blob = blob[:pos] + bytes([blob[pos] ^ data.draw(st.integers(1, 255), label="xor")]) + blob[pos + 1:]
            path.write_bytes(blob)
            try:
                load_checkpoint(path)
            except ValueError:
                pass

    def test_shape_mismatch_rejected(self, rng, tmp_path):
        a = Conv(3, 4, 3, rng=rng)
        b = Conv(3, 4, 1, rng=rng)
        path = tmp_path / "x.fabck"
        save_checkpoint(path, a.named_parameters())
        with pytest.raises(ShapeError, match="shape"):
            load_into(b, path)
