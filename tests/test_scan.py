"""Selective scan: direction orders, the token transpose, recurrence
oracles, gradients, and the bounded-state decay property."""
import numpy as np
import pytest

from fabme import tensor as T
from fabme.scan import DIRECTIONS, ScanParams, _transpose, direction_perm, selective_scan, ss2d
from fabme.tensor import Tensor
from oracles import selective_scan_grads, ss2d_by_direction, tape_arrays


def _tokens(x: Tensor) -> Tensor:
    n, c, h, w = x.data.shape
    return _transpose(x, (n, h * w, c))


def _scan_inputs(rng, n, L, d, N):
    """x, dt, A, B, C, D of a selective_scan over L positions."""
    return (Tensor(rng.standard_normal((n, L, d))), Tensor(rng.random((n, L, d)) * 0.5 + 0.05),
            Tensor(-rng.random((d, N)) - 0.2), Tensor(rng.standard_normal((n, L, N))),
            Tensor(rng.standard_normal((n, L, N))), Tensor(rng.standard_normal(d)))


class TestCrossScan:
    def test_2x2_permutation_oracle(self):
        # tokens a,b,c,d in row-major order
        want = {"lr": [0, 1, 2, 3], "rl": [3, 2, 1, 0], "tb": [0, 2, 1, 3], "bt": [3, 1, 2, 0]}
        for d, order in want.items():
            assert direction_perm(2, 2, d).tolist() == order, d

    def test_single_token(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 1, 1)))
        tokens = _tokens(x)
        assert tokens.data.shape == (1, 1, 3)
        assert np.array_equal(tokens.data[0, 0], x.data[0, :, 0, 0])
        for d in DIRECTIONS:
            assert direction_perm(1, 1, d).tolist() == [0]

    def test_inverse_exhaustive_up_to_4(self):
        for h in range(1, 5):
            for w in range(1, 5):
                x = Tensor(np.random.default_rng(h * 8 + w).standard_normal((2, 3, h, w)))
                tokens = _tokens(x)
                assert np.array_equal(tokens.data, x.data.reshape(2, 3, h * w).transpose(0, 2, 1))
                back = _transpose(tokens, (2, 3, h, w))
                assert np.array_equal(back.data, x.data), (h, w)

    def test_each_direction_is_bijection(self):
        for h in range(1, 5):
            for w in range(1, 5):
                for d in DIRECTIONS:
                    perm = direction_perm(h, w, d)
                    assert sorted(perm.tolist()) == list(range(h * w))

    def test_token_transpose_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 3, 2)))
        m = Tensor(rng.standard_normal((2, 6, 2)))
        rep = T.grad_check(lambda a: T.tsum(T.mul(_tokens(a), m)), [x])
        assert rep.passed, str(rep)
        back = Tensor(rng.standard_normal((2, 2, 3, 2)))
        rep = T.grad_check(lambda a: T.tsum(T.mul(_transpose(a, (2, 2, 3, 2)), back)), [m])
        assert rep.passed, str(rep)


class TestSelectiveScan:
    def test_scalar_hand_unrolled(self):
        # d_model = d_state = 1, Abar = 0.5 (dt=1, A=ln 0.5), Bbar = C = 1, D = 0
        x = Tensor(np.array([1.0, 0.0, 0.0]).reshape(1, 3, 1))
        dt = Tensor(np.ones((1, 3, 1)))
        A = Tensor(np.array([[np.log(0.5)]]))
        B = Tensor(np.ones((1, 3, 1)))
        C = Tensor(np.ones((1, 3, 1)))
        D = Tensor(np.zeros(1))
        y = selective_scan(x, dt, A, B, C, D, np.arange(3))
        assert np.allclose(y.data.reshape(-1), [1.0, 0.5, 0.25], atol=1e-15)

    def test_length_one_no_history(self, rng):
        x = Tensor(rng.standard_normal((2, 1, 3)))
        dt = Tensor(rng.random((2, 1, 3)) + 0.1)
        A = Tensor(-rng.random((3, 4)) - 0.5)
        B = Tensor(rng.standard_normal((2, 1, 4)))
        C = Tensor(rng.standard_normal((2, 1, 4)))
        D = Tensor(rng.standard_normal(3))
        y = selective_scan(x, dt, A, B, C, D, np.arange(1))
        want = (np.einsum("nk,ndk->nd", C.data[:, 0],
                          (dt.data[:, 0] * x.data[:, 0])[:, :, None] * B.data[:, 0][:, None, :])
                + D.data * x.data[:, 0])
        assert np.allclose(y.data[:, 0], want, atol=1e-14)

    def test_zero_memory_limit(self, rng):
        # A -> -inf makes the recurrence memoryless: y_t = C_t.(dt B_t x_t) + D x_t
        x = Tensor(rng.standard_normal((1, 5, 2)))
        dt = Tensor(rng.random((1, 5, 2)) + 0.2)
        A = Tensor(np.full((2, 3), -1e9))
        B = Tensor(rng.standard_normal((1, 5, 3)))
        C = Tensor(rng.standard_normal((1, 5, 3)))
        D = Tensor(rng.standard_normal(2))
        y = selective_scan(x, dt, A, B, C, D, np.arange(5))
        per_token = (np.einsum("nlk,nldk->nld", C.data,
                               (dt.data * x.data)[:, :, :, None] * B.data[:, :, None, :])
                     + D.data * x.data)
        assert np.allclose(y.data, per_token, atol=1e-12)

    def test_nonpositive_dt_rejected(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 2)))
        dt = Tensor(np.zeros((1, 2, 2)))
        A = Tensor(-np.ones((2, 2)))
        B = Tensor(rng.standard_normal((1, 2, 2)))
        C = Tensor(rng.standard_normal((1, 2, 2)))
        D = Tensor(np.ones(2))
        with pytest.raises(ValueError, match="step size"):
            selective_scan(x, dt, A, B, C, D, np.arange(2))

    @pytest.mark.parametrize("order", [[0, 0, 1], [0, 1], [1, 2, 3]])
    def test_order_must_be_a_permutation(self, order, rng):
        with pytest.raises(ValueError, match="not a permutation"):
            selective_scan(*_scan_inputs(rng, 1, 3, 2, 2), np.array(order))

    @pytest.mark.parametrize("bad_row", [0, 1, 3])
    def test_orders_with_one_bad_row_rejected(self, bad_row, rng):
        inputs = _scan_inputs(rng, 1, 6, 2, 2)
        orders = np.stack([direction_perm(2, 3, d) for d in DIRECTIONS])
        assert selective_scan(*inputs, orders).data.shape == (1, 6, 2)
        orders[bad_row, 0] = orders[bad_row, 1]
        with pytest.raises(ValueError, match="not a permutation"):
            selective_scan(*inputs, orders)
        with pytest.raises(ValueError, match="not a permutation"):
            selective_scan(*inputs, orders[:0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("hw", [(1, 1), (1, 3), (3, 2), (4, 4)])
    def test_one_node_equals_single_order_nodes_summed(self, hw, n, dtype):
        # bitwise: one node over the four orders is the four one-order
        # nodes summed with add, in its output and in all six gradients
        rng = np.random.default_rng(hw[0] * 8 + hw[1] + 100 * n)
        L = hw[0] * hw[1]
        arrays = [t.data.astype(dtype) for t in _scan_inputs(rng, n, L, 5, 4)]
        gy = rng.standard_normal((n, L, 5)).astype(dtype)
        orders = [direction_perm(*hw, d) for d in DIRECTIONS]
        one = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        y = selective_scan(*one, np.stack(orders))
        y.backward(gy)
        four = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        want = selective_scan(*four, orders[0])
        for order in orders[1:]:
            want = T.add(want, selective_scan(*four, order))
        want.backward(gy)
        assert y.data.dtype == dtype and np.array_equal(y.data, want.data)
        for name, a, b in zip("x dt A B C D".split(), one, four):
            assert np.array_equal(a.grad, b.grad), name

    @pytest.mark.parametrize("dtype, pre, ok", [
        (np.float32, -110.0, False), (np.float64, -800.0, False),
        (np.float32, -100.0, True), (np.float64, -700.0, True),  # dt still subnormal, > 0
    ])
    def test_dt_underflow_names_its_source(self, dtype, pre, ok, rng):
        p = ScanParams.create(4, d_state=2, rng=rng)
        for _, t in p.named_parameters():
            t.data = t.data.astype(dtype)
        p.w_dt_up.data[:] = 0.0  # the pre-activation is dt_bias alone
        p.dt_bias.data[:] = pre
        x = Tensor(rng.standard_normal((1, 4, 1, 3)).astype(dtype))
        if ok:
            assert np.all(np.isfinite(ss2d(x, p).data))
            return
        with pytest.raises(ValueError, match=r"ss2d: .*underflowed to dt = 0.*pre-activation.*dt_bias"):
            ss2d(x, p)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_raw_scan_gradcheck(self, seed):
        inputs = _scan_inputs(np.random.default_rng(seed), 2, 4, 2, 3)
        rep = T.grad_check(lambda *ts: T.tsum(T.silu(selective_scan(*ts, np.arange(4)))),
                           list(inputs))
        assert rep.passed, str(rep)

    def test_length_one_gradcheck(self):
        inputs = _scan_inputs(np.random.default_rng(7), 2, 1, 3, 2)
        rep = T.grad_check(lambda *ts: T.tsum(T.silu(selective_scan(*ts, np.arange(1)))),
                           list(inputs))
        assert rep.passed, str(rep)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("hw", [(1, 1), (1, 3), (2, 3), (4, 4)])
    def test_gradients_equal_per_step_oracle(self, hw, n, dtype):
        # bitwise: the whole-array terms add up in the per-step sweep's order
        rng = np.random.default_rng(hw[0] * 8 + hw[1] + 100 * n)
        for direction in DIRECTIONS:
            order = direction_perm(*hw, direction)
            arrays = [t.data.astype(dtype) for t in _scan_inputs(rng, n, len(order), 5, 4)]
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            y = selective_scan(*inputs, order)
            gy = rng.standard_normal(y.data.shape).astype(dtype)
            y.backward(gy)
            want = selective_scan_grads(*arrays, order, gy)
            for name, t, w in zip("x dt A B C D".split(), inputs, want):
                assert t.grad.dtype == dtype and np.array_equal(t.grad, w), (direction, name)

    @pytest.mark.parametrize("direction", ["rl", "tb", "bt"])
    def test_ordered_scan_gradcheck(self, direction):
        # a 2x3 map: every direction's order differs from the identity
        order = direction_perm(2, 3, direction)
        inputs = _scan_inputs(np.random.default_rng(5), 2, 6, 2, 3)
        rep = T.grad_check(lambda *ts: T.tsum(T.silu(selective_scan(*ts, order))),
                           list(inputs), tol=1e-5)
        assert rep.passed, (direction, str(rep))

    def test_state_decay_bound(self):
        # Abar in (0,1) with dt>0, A<0; scalar case bounded by geometric series
        L = 64
        x = Tensor(np.ones((1, L, 1)))
        dt = Tensor(np.full((1, L, 1), 0.7))
        A = Tensor(np.array([[-1.0]]))
        B = Tensor(np.full((1, L, 1), 0.9))
        C = Tensor(np.full((1, L, 1), 0.8))
        D = Tensor(np.array([0.5]))
        abar = np.exp(0.7 * -1.0)
        assert 0.0 < abar < 1.0
        bound = 0.8 * (0.7 * 0.9) / (1.0 - abar) + 0.5
        y = selective_scan(x, dt, A, B, C, D, np.arange(L))
        assert np.all(np.abs(y.data) <= bound + 1e-12)

    def test_abar_in_unit_interval(self, rng):
        p = ScanParams.create(4, d_state=3, rng=rng)
        seq = Tensor(rng.standard_normal((1, 6, 4)))
        dt_pre = seq.data @ p.w_dt_down.data.T @ p.w_dt_up.data.T + p.dt_bias.data
        dt = np.logaddexp(0.0, dt_pre)
        A = -np.exp(p.a_log.data)
        abar = np.exp(dt[:, :, :, None] * A[None, None])
        assert np.all(abar > 0.0) and np.all(abar < 1.0)


class TestSS2D:
    def test_shape_preserved(self, rng):
        x = Tensor(rng.standard_normal((2, 16, 8, 8)))
        p = ScanParams.create(16, rng=rng)
        assert ss2d(x, p).data.shape == (2, 16, 8, 8)

    def test_memoryless_limit_directions_agree(self, rng):
        p = ScanParams.create(4, d_state=2, rng=rng)
        p.a_log.data[:] = np.log(1e9)  # A = -1e9 -> Abar ~ 0
        x = Tensor(rng.standard_normal((1, 4, 3, 3)))
        seq = _tokens(x).data
        dt = Tensor(np.logaddexp(0.0, seq @ p.w_dt_down.data.T @ p.w_dt_up.data.T + p.dt_bias.data))
        A = Tensor(-np.exp(p.a_log.data))
        B, C = Tensor(seq @ p.w_b.data.T), Tensor(seq @ p.w_c.data.T)
        outs = [selective_scan(Tensor(seq), dt, A, B, C, p.d_skip, direction_perm(3, 3, d)).data
                for d in DIRECTIONS]
        for o in outs[1:]:
            assert np.allclose(outs[0], o, atol=1e-12)
        want = 4.0 * outs[0].transpose(0, 2, 1).reshape(1, 4, 3, 3)
        assert np.allclose(ss2d(x, p).data, want, atol=1e-10)

    def test_matches_per_direction_oracle(self):
        # n = 2 and every map up to 4x4, in float64
        for h in range(1, 5):
            for w in range(1, 5):
                rng = np.random.default_rng(h * 8 + w)
                p = ScanParams.create(3, d_state=2, rng=rng)
                x = rng.standard_normal((2, 3, h, w))
                np.testing.assert_allclose(ss2d(Tensor(x), p).data, ss2d_by_direction(x, p),
                                           rtol=1e-12, atol=0, err_msg=f"{h}x{w}")

    def test_params_hold_only_their_tensors(self, rng):
        # d_model, d_state and dt_rank are shapes of the tensors, not fields
        p = ScanParams.create(20, d_state=3, rng=rng)
        shapes = {name: t.data.shape for name, t in p.named_parameters()}
        assert shapes == {"a_log": (20, 3), "d_skip": (20,), "w_b": (3, 20), "w_c": (3, 20),
                          "w_dt_down": (2, 20), "w_dt_up": (20, 2), "dt_bias": (20,)}
        assert all(isinstance(v, Tensor) for v in vars(p).values())

    @pytest.mark.parametrize("d_model, d_state", [(0, 8), (4, 0), (-1, 2)])
    def test_empty_params_rejected(self, d_model, d_state, rng):
        with pytest.raises(T.ShapeError, match="must be >= 1"):
            ScanParams.create(d_model, d_state=d_state, rng=rng)

    def test_channel_mismatch_rejected(self, rng):
        p = ScanParams.create(4, rng=rng)
        with pytest.raises(T.ShapeError, match="d_model"):
            ss2d(Tensor(rng.standard_normal((1, 3, 2, 2))), p)

    def test_empty_map_rejected(self, rng):
        p = ScanParams.create(4, rng=rng)
        with pytest.raises(T.ShapeError, match="empty spatial extent"):
            ss2d(Tensor(np.zeros((1, 4, 0, 3))), p)

    def test_taped_ss2d_builds_one_scan_node(self, rng):
        p = ScanParams.create(4, d_state=2, rng=rng)
        out = ss2d(Tensor(rng.standard_normal((2, 4, 3, 2)), requires_grad=True), p)
        nodes, todo, seen = [], [out], set()
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                todo.extend(node._parents)
        names = [t._backward.__qualname__ for t in nodes if t._backward is not None]
        assert sum(n.startswith("selective_scan.") for n in names) == 1

    def test_taped_ss2d_keeps_no_states(self, rng):
        # backward recomputes exp(dt*A) and the states, so no (n, L, d, N)
        # array lives on the tape between the forward and the sweep
        n, d, N, h, w = 2, 16, 8, 16, 16
        p = ScanParams.create(d, d_state=N, rng=rng)
        x = Tensor(rng.standard_normal((n, d, h, w)), requires_grad=True)
        out = ss2d(x, p)
        arrays = tape_arrays(out)
        assert arrays and not [a.shape for a in arrays if a.ndim == 4 and a.shape[-1] == N]
        assert max(a.size for a in arrays) <= n * h * w * d

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ss2d_full_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        p = ScanParams.create(4, d_state=2, rng=rng)
        x = Tensor(rng.standard_normal((1, 4, 3, 3)))
        wrt = [x] + [t for _, t in p.named_parameters()]
        rep = T.grad_check(lambda *ts: T.tsum(T.silu(ss2d(ts[0], p))), wrt)
        assert rep.passed, str(rep)
