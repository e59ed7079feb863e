"""Tensor core: op oracles, gradient checks, snapshot format."""
import io
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fabme import blocks as B, tensor as T
from fabme.tensor import ConvSpec, ShapeError, Tensor

from oracles import (
    channel_norm_4d, conv2d_direct, expit_masked, maxpool2d_masked, silu_masked,
)


def _run(op, arrays, g):
    """op's forward value and the gradients of its inputs for upstream g."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*ts)
    out.backward(g)
    return [out.data] + [t.grad for t in ts]


def _same_bits(got, want):
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(got, want, strict=True))


class TestConv2d:
    def test_scaling_identity(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        b = Tensor(np.zeros(1))
        out = T.conv2d(x, ConvSpec(1, 1, (1, 1)), w, b)
        assert np.array_equal(out.data, np.full((1, 1, 3, 3), 2.0))

    def test_sum_case(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        w = Tensor(np.ones((1, 1, 2, 2)))
        out = T.conv2d(x, ConvSpec(1, 1, (2, 2)), w)
        assert out.data.shape == (1, 1, 1, 1)
        assert out.item() == 10.0

    def test_identity_1x1_kernel(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 5, 5)))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        out = T.conv2d(x, ConvSpec(3, 3, (1, 1)), Tensor(w))
        assert np.array_equal(out.data, x.data)

    @pytest.mark.parametrize("stride,pad,groups,cin,cout", [
        (1, 0, 1, 3, 4), (2, 1, 1, 3, 2), (1, 1, 4, 4, 4), (1, 2, 2, 4, 6),
    ])
    def test_matches_direct_oracle(self, rng, stride, pad, groups, cin, cout):
        x = rng.standard_normal((2, cin, 6, 5))
        w = rng.standard_normal((cout, cin // groups, 3, 3))
        b = rng.standard_normal(cout)
        spec = ConvSpec(cin, cout, (3, 3), stride=stride, padding=pad, groups=groups)
        got = T.conv2d(Tensor(x), spec, Tensor(w), Tensor(b)).data
        want = conv2d_direct(x, w, b, stride, pad, groups)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("hw", [(7, 6), (10, 11)])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("k,stride,pad", [
        (k, s, p) for k in (1, 3, 5) for s in (1, 2) for p in sorted({0, k // 2})
    ])
    def test_dense_grid_matches_direct_oracle(self, rng, k, stride, pad, groups, hw):
        cout = 4 if groups == 4 else 6  # groups 4 is depthwise
        x = rng.standard_normal((3, 4) + hw)
        w = rng.standard_normal((cout, 4 // groups, k, k))
        b = rng.standard_normal(cout)
        spec = ConvSpec(4, cout, (k, k), stride=stride, padding=pad, groups=groups)
        got = T.conv2d(Tensor(x), spec, Tensor(w), Tensor(b)).data
        want = conv2d_direct(x, w, b, stride, pad, groups)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("k,stride,pad", [
        (1, 1, 0), (1, 1, 1), (1, 2, 0), (3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1), (3, 1, 3),
    ])
    def test_dense_gradcheck(self, rng, k, stride, pad, groups):
        # stride 1 with pad < k takes the gather path for the input
        # gradient, the rest the strided adds; groups 4 is depthwise
        cout = 4 if groups == 4 else 6
        x = Tensor(rng.standard_normal((2, 4, 5, 6)))
        w = Tensor(rng.standard_normal((cout, 4 // groups, k, k)) * 0.4)
        b = Tensor(rng.standard_normal(cout) * 0.1)
        spec = ConvSpec(4, cout, (k, k), stride=stride, padding=pad, groups=groups)
        rep = T.grad_check(lambda *ts: T.tsum(T.conv2d(ts[0], spec, ts[1], ts[2])),
                           [x, w, b], tol=1e-5)
        assert rep.passed, str(rep)

    @pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (3, 1, 1), (3, 2, 1)])
    def test_images_per_gemm_do_not_change_results(self, rng, monkeypatch, k, stride, pad):
        # one image per GEMM, the default blocks, and the whole batch in one
        x = rng.standard_normal((8, 4, 6, 5))
        w = rng.standard_normal((5, 4, k, k))
        g = rng.standard_normal(conv2d_direct(x[:1], w, None, stride, pad).shape[1:])
        spec = ConvSpec(4, 5, (k, k), stride=stride, padding=pad)
        runs = []
        for cols in (1, T._GEMM_COLS, 10**9):
            monkeypatch.setattr(T, "_GEMM_COLS", cols)
            runs.append(_run(lambda a, b: T.conv2d(a, spec, b), [x, w], np.broadcast_to(g, (8,) + g.shape)))
        for got in runs[:2]:
            for a, b in zip(got, runs[2], strict=True):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("k,stride,pad,groups", [(3, 1, 1, 1), (3, 2, 1, 2), (5, 2, 2, 1), (3, 1, 0, 4)])
    def test_row_bands_do_not_change_results(self, rng, monkeypatch, k, stride, pad, groups):
        # one output row per band, a few rows, and the whole patch matrix at
        # once, input gradient included
        x = rng.standard_normal((2, 4, 9, 7))
        w = rng.standard_normal((8, 4 // groups, k, k))
        spec = ConvSpec(4, 8, (k, k), stride=stride, padding=pad, groups=groups)
        g = rng.standard_normal(T.conv2d(Tensor(x), spec, Tensor(w)).shape)
        runs = []
        for elems in (1, 2 * 4 * k * k * 7 * 2, 10**9):
            monkeypatch.setattr(T, "_PATCH_ELEMS", elems)
            runs.append(_run(lambda a, b: T.conv2d(a, spec, b), [x, w], g))
        for got in runs[:2]:
            for a, b in zip(got, runs[2], strict=True):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("k,stride,pad,groups", [(1, 1, 0, 1), (3, 1, 1, 1), (3, 2, 1, 2), (3, 1, 1, 4)])
    def test_float32_stays_float32(self, rng, k, stride, pad, groups):
        x = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 4 // groups, k, k)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        spec = ConvSpec(4, 4, (k, k), stride=stride, padding=pad, groups=groups)
        out = T.conv2d(Tensor(x, requires_grad=True), spec, Tensor(w, requires_grad=True),
                       Tensor(b, requires_grad=True))
        assert out.dtype == np.float32
        got = _run(lambda *ts: T.conv2d(ts[0], spec, ts[1], ts[2]), [x, w, b], np.ones_like(out.data))
        assert [a.dtype for a in got] == [np.float32] * 4

    def test_depthwise_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 8, 8)))
        w = Tensor(rng.standard_normal((4, 1, 3, 3)) * 0.3)
        b = Tensor(rng.standard_normal(4) * 0.1)
        spec = ConvSpec(4, 4, (3, 3), padding=1, groups=4)
        rep = T.grad_check(lambda *ts: T.tsum(T.conv2d(ts[0], spec, ts[1], ts[2])),
                           [x, w, b], tol=1e-6)
        assert rep.passed, str(rep)

    @pytest.mark.parametrize("op", ["conv2d", "conv_norm_silu"])
    @pytest.mark.parametrize("k,stride", [(3, 1), (3, 2), (1, 1)])
    def test_input_gradient_only_when_required(self, rng, monkeypatch, op, k, stride):
        # the other gradients are the same bits, and no input gradient is built;
        # the third operand is the conv's bias or the norm's gain
        x, w, b = rng.standard_normal((2, 4, 5, 5)), rng.standard_normal((4, 4, k, k)), rng.standard_normal(4)
        spec = ConvSpec(4, 4, (k, k), stride=stride, padding=k // 2)
        nb = Tensor(np.zeros(4))
        if op == "conv2d":
            def f(xt, wt, bt):
                return T.conv2d(xt, spec, wt, bt)
        else:
            def f(xt, wt, bt):
                return T.conv_norm_silu(xt, spec, wt, bt, nb)
        g = rng.standard_normal(f(Tensor(x), Tensor(w), Tensor(b)).shape)
        want = _run(f, [x, w, b], g)
        xt, wt, bt = Tensor(x), Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        handed = []
        real = T._acc
        monkeypatch.setattr(T, "_acc", lambda t, a: handed.append(t) or real(t, a))
        out = f(xt, wt, bt)
        out.backward(g)
        assert not any(t is xt for t in handed) and xt.grad is None
        assert _same_bits([out.data, wt.grad, bt.grad], [want[0], want[2], want[3]])

    def test_shape_mismatch_diagnostic(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 3, 3, 3)))
        with pytest.raises(ShapeError, match="in_channels"):
            T.conv2d(x, ConvSpec(4, 2, (3, 3)), w)
        with pytest.raises(ShapeError, match="weight shape"):
            T.conv2d(x, ConvSpec(3, 4, (3, 3)), w)
        with pytest.raises(ShapeError, match="bias shape"):
            T.conv2d(x, ConvSpec(3, 2, (3, 3)), w, Tensor(np.zeros(3)))

    def test_spec_invariants(self):
        with pytest.raises(ShapeError, match="divisible"):
            ConvSpec(3, 4, (3, 3), groups=2)
        with pytest.raises(ShapeError, match="stride"):
            ConvSpec(3, 3, (3, 3), stride=0)
        with pytest.raises(ShapeError, match="padding"):
            ConvSpec(3, 3, (3, 3), padding=-1)


class TestConvNormSilu:
    """conv_norm_silu is conv2d -> channel_norm -> silu as one tape node,
    bit for bit."""

    @staticmethod
    def _chain(spec):
        return lambda x, w, gain, nb: T.silu(T.channel_norm(T.conv2d(x, spec, w), gain, nb))

    @staticmethod
    def _fused(spec):
        return lambda x, w, gain, nb: T.conv_norm_silu(x, spec, w, gain, nb)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([np.float32, np.float64]), st.sampled_from([1, 3]), st.sampled_from([1, 2]),
           st.sampled_from([1, 2]), st.integers(1, 3), st.integers(1, 7), st.integers(1, 7),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_the_three_ops(self, dtype, k, s, groups, n, h, w, taped, seed):
        rng = np.random.default_rng(seed)
        c, oc = 2 * groups, 3 * groups
        spec = ConvSpec(c, oc, (k, k), stride=s, padding=k // 2, groups=groups)
        arrays = [rng.standard_normal(shape).astype(dtype) for shape in
                  ((n, c, h, w), (oc, c // groups, k, k), (oc,), (oc,))]
        arrays[0] = arrays[0] * 3 + rng.standard_normal((1, c, 1, 1)).astype(dtype)
        if taped:
            g = rng.standard_normal(T.conv2d(Tensor(arrays[0]), spec, Tensor(arrays[1])).shape)
            g = g.astype(dtype)
            got, want = _run(self._fused(spec), arrays, g), _run(self._chain(spec), arrays, g)
        else:
            ts = [Tensor(a, requires_grad=True) for a in arrays]
            with T.no_grad():
                got, want = [self._fused(spec)(*ts)], [self._chain(spec)(*ts)]
            assert not got[0].requires_grad and got[0]._backward is None
            got, want = [got[0].data], [want[0].data]
        assert _same_bits(got, want)
        assert got[0].flags.c_contiguous

    @pytest.mark.parametrize("k,stride,groups", [(3, 1, 1), (3, 2, 2), (1, 1, 1), (1, 2, 2)])
    def test_gradcheck(self, rng, k, stride, groups):
        spec = ConvSpec(4, 4, (k, k), stride=stride, padding=k // 2, groups=groups)
        x = Tensor(rng.standard_normal((2, 4, 5, 5)))
        w = Tensor(rng.standard_normal((4, 4 // groups, k, k)) * 0.5)
        gain, nb = (Tensor(rng.standard_normal(4)) for _ in range(2))
        m = Tensor(rng.standard_normal(T.conv2d(x, spec, w).shape))
        rep = T.grad_check(lambda *ts: T.tsum(T.mul(T.conv_norm_silu(ts[0], spec, *ts[1:]), m)),
                           [x, w, gain, nb], tol=1e-5)
        assert rep.passed, str(rep)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conv_bias_before_the_norm_is_dead(self, seed):
        # the norm subtracts each (n, c) plane's mean, so a per-channel conv
        # bias changes neither the output nor the other gradients, and its
        # own gradient is zero up to rounding
        rng = np.random.default_rng(seed)
        spec = ConvSpec(4, 6, (3, 3), stride=1 + seed % 2, padding=1, groups=2)
        x, w, b, gain, nb = (rng.standard_normal(shape) for shape in
                             ((2, 4, 7, 6), (6, 2, 3, 3), (6,), (6,), (6,)))
        g = rng.standard_normal(T.conv2d(Tensor(x), spec, Tensor(w)).shape)
        chain = _run(lambda xt, wt, bt, gt, nt: T.silu(T.channel_norm(T.conv2d(xt, spec, wt, bt), gt, nt)),
                     [x, w, b, gain, nb], g)
        fused = _run(self._fused(spec), [x, w, gain, nb], g)
        for got, want in zip(fused, chain[:3] + chain[4:], strict=True):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(chain[3])) <= 1e-12 * np.max(np.abs(chain[2]))


class TestConv1d:
    def test_identity_kernel(self, rng):
        v = rng.standard_normal((1, 7))
        out = T.conv1d(Tensor(v), Tensor(np.array([0.0, 1.0, 0.0])))
        assert np.allclose(out.data, v)

    def test_box_kernel(self):
        out = T.conv1d(Tensor(np.ones((1, 4))), Tensor(np.ones(3)))
        assert np.array_equal(out.data, [[2.0, 3.0, 3.0, 2.0]])

    def test_length_one(self):
        out = T.conv1d(Tensor(np.array([[5.0]])), Tensor(np.array([0.3, 0.7, 0.9])))
        assert np.allclose(out.data, [[5.0 * 0.7]])

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            T.conv1d(Tensor(np.ones((1, 4))), Tensor(np.ones(2)))

    def test_batched_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((3, 6)))
        w = Tensor(rng.standard_normal(5) * 0.5)
        rep = T.grad_check(lambda a, b: T.tsum(T.sigmoid(T.conv1d(a, b))), [x, w])
        assert rep.passed, str(rep)


class TestPooling:
    def test_constant_map(self):
        x = Tensor(np.full((1, 2, 3, 3), 3.0))
        assert np.allclose(T.global_avg_pool(x).data, 3.0)
        assert np.allclose(T.global_max_pool(x).data, 3.0)

    def test_enumeration(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert T.global_avg_pool(x).item() == 2.5
        assert T.global_max_pool(x).item() == 4.0

    def test_gmp_gradient_on_unique_argmax(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2), requires_grad=True)
        T.tsum(T.global_max_pool(x)).backward()
        assert np.array_equal(x.grad.reshape(-1), [0.0, 0.0, 0.0, 1.0])

    def test_gmp_tie_first_rowmajor(self):
        x = Tensor(np.full((1, 1, 2, 2), 7.0), requires_grad=True)
        T.tsum(T.global_max_pool(x)).backward()
        assert np.array_equal(x.grad.reshape(-1), [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pool_gradchecks(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        m = Tensor(rng.standard_normal((2, 3, 1, 1)))
        for op in (T.global_avg_pool, T.global_max_pool):
            rep = T.grad_check(lambda a: T.tsum(T.mul(op(a), m)), [Tensor(x.data.copy())])
            assert rep.passed, str(rep)
        m2 = Tensor(rng.standard_normal((2, 3, 4, 4)))
        rep = T.grad_check(lambda a: T.tsum(T.mul(T.maxpool2d(a, 3, 1, 1), m2)),
                           [Tensor(rng.standard_normal((2, 3, 4, 4)))])
        assert rep.passed, str(rep)

    def test_sppf_style_pool_preserves_shape(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 8, 8)))
        assert T.maxpool2d(x, 5, 1, 2).data.shape == (1, 2, 8, 8)


    def test_maxpool2d_all_inf_window_routes_to_first_real_element(self):
        # every window holds padding and -inf inputs; the padding never
        # takes the gradient
        out, gx = _run(lambda a: T.maxpool2d(a, 3, 1, 1), [np.full((1, 1, 2, 2), -np.inf)],
                       np.ones((1, 1, 2, 2)))
        assert np.array_equal(out, np.full((1, 1, 2, 2), -np.inf))
        assert np.array_equal(gx, [[[[4.0, 0.0], [0.0, 0.0]]]])
        x = np.array([[[[1.0, -np.inf], [-np.inf, -np.inf]]]])
        out, gx = _run(lambda a: T.maxpool2d(a, 2, 1, 1), [x], np.ones((1, 1, 3, 3)))
        assert np.array_equal(out[0, 0, 2], [-np.inf, -np.inf, -np.inf])
        assert np.array_equal(gx, [[[[4.0, 2.0], [2.0, 1.0]]]])

    def test_maxpool2d_window_of_padding_only(self):
        # padding wider than the kernel: some windows read no input
        x = np.array([[[[5.0]]]])
        out, gx = _run(lambda a: T.maxpool2d(a, 1, 2, 1), [x], np.ones((1, 1, 2, 2)))
        assert np.array_equal(out, np.full((1, 1, 2, 2), -np.inf)) and np.array_equal(gx, [[[[0.0]]]])
        out, gx = _run(lambda a: T.maxpool2d(a, 1, 1, 1), [x], np.ones((1, 1, 3, 3)))
        assert out[0, 0, 1, 1] == 5.0 and np.isneginf(out).sum() == 8 and gx.item() == 1.0


class TestMaskedOracles:
    """The forward value and every gradient of silu, channel_norm and
    maxpool2d are bit for bit those of their masked forms in oracles."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([np.float32, np.float64]), st.integers(1, 4), st.integers(1, 2),
           st.sampled_from([0, 1, 2]), st.integers(1, 7), st.integers(1, 7), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_maxpool2d(self, dtype, k, s, pad, h, w, ties, seed):
        # padding 0, k//2 or k-1, so that some window offsets read only padding
        p = (0, k // 2, k - 1)[pad]
        assume(h + 2 * p >= k and w + 2 * p >= k)
        rng = np.random.default_rng(seed)
        if ties:  # few levels, so most windows tie; half the zeros are -0
            x = rng.integers(-2, 3, size=(2, 3, h, w)).astype(dtype)
            x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
        else:
            x = rng.standard_normal((2, 3, h, w)).astype(dtype)
        g = rng.standard_normal((2, 3, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)).astype(dtype)
        want = maxpool2d_masked(x, k, s, p, g)
        assert _same_bits(_run(lambda a: T.maxpool2d(a, k, s, p), [x], g), want)

    def test_maxpool2d_signed_zero_tie_keeps_first(self):
        x = np.array([-0.0, 0.0, 0.0, -0.0]).reshape(1, 1, 2, 2)
        for arr in (x, -x):
            out, gx = _run(lambda a: T.maxpool2d(a, 2), [arr], np.ones((1, 1, 1, 1)))
            assert np.signbit(out.item()) == np.signbit(arr[0, 0, 0, 0])
            assert np.array_equal(gx.reshape(-1), [1.0, 0.0, 0.0, 0.0])

    def test_maxpool2d_nan_propagates(self):
        # the masked form's strict > skips a NaN after the first offset; the
        # maximum chain makes the window NaN wherever the NaN is, and routes
        # its gradient nowhere
        for flat, masked in (([np.nan, 1.0, 3.0, 2.0], np.nan), ([1.0, np.nan, 3.0, 2.0], 3.0)):
            x = np.array(flat).reshape(1, 1, 2, 2)
            out, gx = _run(lambda a: T.maxpool2d(a, 2), [x], np.ones((1, 1, 1, 1)))
            assert np.isnan(out.item())
            assert np.array_equal(gx, np.zeros_like(x))
            assert np.array_equal(maxpool2d_masked(x, 2, 1, 0, 1.0)[0].reshape(-1), [masked],
                                  equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([np.float32, np.float64]), st.integers(1, 2), st.integers(1, 4),
           st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_channel_norm(self, dtype, n, c, h, w, seed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((n, c, h, w)) * 3 + rng.standard_normal((1, c, 1, 1))).astype(dtype)
        gain, bias = rng.standard_normal((2, c)).astype(dtype)
        g = rng.standard_normal((n, c, h, w)).astype(dtype)
        got = _run(T.channel_norm, [x, gain, bias], g)
        assert _same_bits(got, channel_norm_4d(x, gain, bias, g))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([np.float32, np.float64]), st.floats(0.1, 100.0),
           st.integers(0, 2**32 - 1))
    def test_silu(self, dtype, scale, seed):
        rng = np.random.default_rng(seed)
        fi = np.finfo(dtype)
        edges = [0.0, -0.0, 800.0, -800.0, fi.smallest_subnormal, -fi.smallest_subnormal]
        x = np.concatenate([np.array(edges, dtype), (rng.standard_normal(200) * scale).astype(dtype)])
        g = rng.standard_normal(x.shape).astype(dtype)
        with np.errstate(over="ignore"):
            got, want = _run(T.silu, [x], g), silu_masked(x, g)
        assert _same_bits(got, want)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([np.float32, np.float64]), st.sampled_from([np.float32, np.float64]),
           st.sampled_from([(), (5,), (2, 3, 4)]), st.integers(0, 2**32 - 1))
    def test_silu_backward_closure(self, dtype, gdtype, shape, seed):
        # the closure on its own, so g may be wider than x, as a float32
        # model's loss gradient can be
        rng = np.random.default_rng(seed)
        x = np.asarray(rng.standard_normal(shape) * 10, dtype)
        g = np.asarray(rng.standard_normal(shape), gdtype)
        t = Tensor(x, requires_grad=True)
        T.silu(t)._backward(g)
        want = silu_masked(x, g)[1]
        assert np.shape(t.grad) == shape and t.grad.dtype == want.dtype
        assert t.grad.tobytes() == want.tobytes()


class TestBackwardSweep:
    """backward() frees each non-leaf node once it has run, accumulates
    fan-in in place only into buffers it allocated, and refuses a graph it
    has already freed."""

    def test_second_backward_raises(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        y = T.tsum(T.mul(x, x))
        y.backward()
        want = x.grad.copy()
        with pytest.raises(RuntimeError, match="freed"):
            y.backward()
        h = T.mul(x, 3.0)
        T.tsum(h).backward()
        with pytest.raises(RuntimeError, match="freed"):
            T.tsum(T.mul(h, h)).backward()  # a new root over a freed node
        assert np.array_equal(want, 2.0 * x.data)

    def test_leaf_backward(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        for _ in range(2):
            x.backward()
            assert np.array_equal(x.grad, np.ones(3))
        x.backward(np.full(3, 2.0))
        assert np.array_equal(x.grad, np.full(3, 2.0))

    def test_swept_nodes_drop_grad_closure_and_parents(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        h = T.silu(x)
        y = T.tsum(h)
        y.backward()
        for node in (h, y):
            assert node.grad is None and node._parents == ()
        assert x.grad is not None and x._backward is None
        assert h.data.shape == (2, 3)  # values stay readable

    def test_fan_in_never_writes_through_an_alias(self):
        # add passes its gradient through to both parents, so h's first grad
        # is the root's seed array itself and k's grad is that same array;
        # only the sum buffer h later owns may be added into in place
        x = Tensor(np.ones(3), requires_grad=True)
        k = Tensor(np.ones(3), requires_grad=True)
        h = T.mul(x, 1.0)
        y = T.add(T.add(T.add(T.add(h, k), h), h), h)
        seed = np.full(3, 2.0)
        y.backward(seed)
        assert np.array_equal(seed, np.full(3, 2.0))
        assert np.array_equal(k.grad, np.full(3, 2.0))
        assert np.array_equal(x.grad, np.full(3, 8.0))

    def test_leaf_grad_is_never_written_in_place(self):
        # a leaf's .grad may be the user's array, or one the user kept
        # from an earlier backward
        x = Tensor(np.ones(3), requires_grad=True)
        mine = np.full(3, 5.0)
        x.grad = mine
        T.tsum(T.add(T.add(x, x), x)).backward()
        first = x.grad
        T.tsum(T.add(x, x)).backward()
        assert np.array_equal(mine, np.full(3, 5.0))
        assert np.array_equal(first, np.full(3, 8.0))
        assert np.array_equal(x.grad, np.full(3, 10.0))


class TestZeroD:
    def test_scalar_input_stays_0d(self):
        assert Tensor(2.5).shape == ()
        assert Tensor(np.array(2.5, np.float32)).shape == ()
        assert Tensor(np.float64(2.5)).shape == ()
        assert Tensor(2.5).shape == T.tsum(Tensor(np.ones(3))).shape
        assert T.mul(Tensor(3.0), 2.0).shape == ()
        assert Tensor([1.0, 2.0]).shape == (2,)

    def test_non_contiguous_input_is_copied_to_c_order(self):
        a = np.arange(12.0).reshape(3, 4).T
        t = Tensor(a)
        assert t.data.flags.c_contiguous and np.array_equal(t.data, a)

    def test_unbroadcast_to_0d(self, rng):
        g = rng.standard_normal((3, 4, 5))
        got = T._unbroadcast(g, ())
        assert np.shape(got) == () and got == g.sum(axis=0).sum(axis=0).sum(axis=0)

    def test_0d_operand_gradient(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(0.5, requires_grad=True)
        T.tsum(T.mul(T.add(a, b), b)).backward()
        assert np.shape(b.grad) == ()
        assert np.isclose(b.grad, (a.data + 0.5).sum() + 0.5 * a.data.size)
        rep = T.grad_check(lambda u, v: T.tsum(T.mul(T.add(u, v), v)),
                           [Tensor(a.data.copy()), Tensor(0.5)])
        assert rep.passed, str(rep)


class TestElementwise:
    def test_sigmoid_symmetry_point(self):
        assert T.sigmoid(Tensor(np.array(0.0))).item() == 0.5

    def test_silu_at_one(self):
        assert T.silu(Tensor(np.array(1.0))).item() == pytest.approx(0.7310585786300049, abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_expit_bitwise_equals_masked_formula(self, dtype, rng):
        fi = np.finfo(dtype)
        edges = [0.0, -0.0, 800.0, -800.0, fi.smallest_subnormal, -fi.smallest_subnormal,
                 fi.tiny, -fi.tiny]
        x = np.concatenate([np.array(edges, dtype), (rng.standard_normal(4096) * 20).astype(dtype)])
        x = x.reshape(2, -1)
        got, want = T._expit(x), expit_masked(x)
        assert got.dtype == dtype and got.shape == x.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_split_concat_inverse(self, rng):
        x = Tensor(rng.standard_normal((2, 8, 3, 3)))
        rec = T.concat(T.split(x, [4, 4]))
        assert np.array_equal(rec.data, x.data)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_split_concat_any_partition(self, sizes, seed):
        x = Tensor(np.random.default_rng(seed).standard_normal((1, sum(sizes), 2, 2)))
        rec = T.concat(T.split(x, sizes))
        assert np.array_equal(rec.data, x.data)

    def test_concat_channel_mismatch_rejected(self, rng):
        a = Tensor(rng.standard_normal((1, 2, 3, 3)))
        b = Tensor(rng.standard_normal((1, 2, 4, 3)))
        with pytest.raises(ShapeError, match="concat"):
            T.concat([a, b])

    def test_upsample_then_sum_backward(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 3)))
        m = Tensor(rng.standard_normal((1, 2, 6, 6)))
        rep = T.grad_check(lambda a: T.tsum(T.mul(T.upsample_nearest2x(a), m)), [x])
        assert rep.passed, str(rep)

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div, T.minimum, T.maximum])
    def test_constant_operand_gets_no_gradient_work(self, rng, monkeypatch, op):
        calls = []
        real = T._unbroadcast
        monkeypatch.setattr(T, "_unbroadcast", lambda g, shape: calls.append(shape) or real(g, shape))
        x = rng.standard_normal((2, 3)) + 3.0
        for a, b in ((Tensor(x, requires_grad=True), 2.0), (np.ones((1, 3)), Tensor(x, requires_grad=True))):
            calls.clear()
            T.tsum(op(a, b)).backward()
            assert calls == [(2, 3)]

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div, T.minimum, T.maximum])
    def test_scalar_operand_takes_the_tensor_dtype(self, op):
        x = Tensor(np.full((2, 2), 0.5, dtype=np.float32), requires_grad=True)
        assert op(1.0, x).dtype == np.float32 and op(x, 1.0).dtype == np.float32
        T.tsum(op(1.0, x)).backward()
        assert x.grad.dtype == np.float32

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_arith_gradchecks(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((2, 3)) + 2.5)
        rep = T.grad_check(
            lambda u, v: T.tsum(T.exp(T.mul(T.div(u, v), 0.3))), [a, b])
        assert rep.passed, str(rep)
        rep = T.grad_check(
            lambda u: T.tsum(T.softplus(T.neg(u))), [Tensor(rng.standard_normal((3, 4)))])
        assert rep.passed, str(rep)

    def test_forward_values_finite(self, rng):
        with T.finite_checks():
            x = Tensor(rng.standard_normal((2, 3, 4, 4)))
            y = T.silu(T.channel_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3))))
            assert np.all(np.isfinite(y.data))

    def test_finite_check_names_op(self):
        with T.finite_checks(), np.errstate(invalid="ignore"):
            with pytest.raises(T.NonFiniteError, match="div"):
                T.div(Tensor(np.array([0.0])), 0.0)


class TestDeterminism:
    def test_bit_identical_forward(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.standard_normal((2, 4, 6, 6)))
            w = Tensor(rng.standard_normal((4, 4, 3, 3)) * 0.2)
            b = Tensor(rng.standard_normal(4))
            y = T.conv2d(x, ConvSpec(4, 4, (3, 3), padding=1), w, b)
            return T.tsum(T.silu(y)).item()
        assert run() == run()


class TestGradCheckHarness:
    def test_linear_function_zero_error(self, rng):
        rep = T.grad_check(lambda x: T.tsum(x), [Tensor(rng.standard_normal((3, 3)))])
        assert rep.passed and rep.max_rel_err < 1e-9

    def test_sigmoid_quarter_gradient(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        T.tsum(T.sigmoid(x)).backward()
        assert np.allclose(x.grad, 0.25)
        rep = T.grad_check(lambda a: T.tsum(T.sigmoid(a)), [Tensor(np.zeros((2, 2)))])
        assert rep.passed

    def test_conv_sum_small_rel_err(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.4)
        b = Tensor(rng.standard_normal(3) * 0.1)
        spec = ConvSpec(2, 3, (3, 3), padding=1)
        rep = T.grad_check(lambda *ts: T.tsum(T.conv2d(ts[0], spec, ts[1], ts[2])),
                           [x, w, b], tol=1e-6)
        assert rep.passed and rep.max_rel_err < 1e-6

    def test_eps_bounds_enforced(self, rng):
        x = Tensor(rng.standard_normal(3))
        with pytest.raises(ValueError, match="eps"):
            T.grad_check(lambda a: T.tsum(a), [x], eps=1e-2)

    def test_scalar_output_required(self, rng):
        x = Tensor(rng.standard_normal(3))
        with pytest.raises(ValueError, match="scalar"):
            T.grad_check(lambda a: T.silu(a), [x])

    def test_nonfinite_reported_with_op(self):
        x = Tensor(np.array([3.0]))
        with np.errstate(invalid="ignore"):
            rep = T.grad_check(lambda a: T.tsum(T.div(T.sub(a, 3.0), T.sub(a, 3.0))), [x])
        assert not rep.passed and rep.failed_op == "div"


class TestSnapshot:
    """The tensor record inside each checkpoint entry (fabme.blocks)."""

    def test_roundtrip(self, rng):
        arr = rng.standard_normal((2, 3, 4, 5))
        buf = io.BytesIO()
        B._write_snapshot(buf, arr)
        buf.seek(0)
        assert np.array_equal(B._read_snapshot(buf), arr)

    def test_golden_bytes(self):
        buf = io.BytesIO()
        B._write_snapshot(buf, np.array([[1.0, 2.0]]))
        want = (b"FABT" + struct.pack("<I", 2) + struct.pack("<II", 1, 2)
                + struct.pack("<2d", 1.0, 2.0))
        assert buf.getvalue() == want

    @pytest.mark.parametrize("scalar", [np.float64(2.5), np.array(-0.0)])
    def test_zero_d_roundtrip(self, scalar):
        buf = io.BytesIO()
        B._write_snapshot(buf, scalar)
        assert buf.getvalue() == b"FABT" + struct.pack("<I", 0) + struct.pack("<d", scalar)
        buf.seek(0)
        got = B._read_snapshot(buf)
        assert got.shape == () and got.tobytes() == np.float64(scalar).tobytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            B._read_snapshot(io.BytesIO(b"NOPE" + b"\x00" * 16))

    def test_huge_dims_rejected_without_allocating(self, tmp_path):
        import tracemalloc
        path = tmp_path / "h.fabt"
        path.write_bytes(b"FABT" + struct.pack("<3I", 2, 100000, 100000) + b"\x00" * 4)
        assert path.stat().st_size == 20
        tracemalloc.start()
        try:
            with open(path, "rb") as f, pytest.raises(ValueError, match="truncated"):
                B._read_snapshot(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("blob", [
        b"FABT", b"FABT\x02\x00", b"FABT" + struct.pack("<2I", 2, 3),  # short header
        b"FABT" + struct.pack("<I", 33) + b"\x01\x00\x00\x00" * 33,  # rank over numpy's 32
        b"FABT" + struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1),  # product overflows int64
    ])
    def test_malformed_header_is_value_error(self, blob):
        with pytest.raises(ValueError):
            B._read_snapshot(io.BytesIO(blob))
