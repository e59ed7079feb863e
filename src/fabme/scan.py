"""2-D selective scanning: a selective state-space recurrence run over the
tokens of a feature map in each of four visiting orders, and an additive
merge.

The recurrence over a token sequence x_t (d_model channels per token) is

    h_t = exp(dt_t * A) * h_{t-1} + (dt_t * B_t) x_t
    y_t = C_t . h_t + D * x_t

with input-dependent dt (softplus-positive), B and C, an input-independent
negative A (stored as log-magnitudes) and per-channel skip D.  dt, B and C
depend on one token each, so ss2d projects the map's row-major tokens once,
and a scan direction is only the order in which the recurrence visits them.
Runtime and memory are O(L * d_model * d_state); the scan itself is
sequential in t and is one tape node with a hand-derived backward pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fabme.tensor import ShapeError, Tensor, _acc, _node, add, exp, linear, neg, softplus

__all__ = ["DIRECTIONS", "ScanParams", "ss2d"]

DIRECTIONS = ("lr", "rl", "tb", "bt")

def direction_perm(h: int, w: int, direction: str) -> np.ndarray:
    """Flat indices (into a row-major h*w map) visited by a scan direction."""
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}; expected one of {DIRECTIONS}")
    base = np.arange(h * w)
    if direction in ("tb", "bt"):
        base = base.reshape(h, w).T.reshape(-1)
    return base[::-1] if direction in ("rl", "bt") else base


def _transpose(t: Tensor, shape: tuple) -> Tensor:
    """Swap the last two axes of t viewed as (n, k, -1), then reshape: takes
    an (n, c, h, w) map to its (n, h*w, c) row-major tokens, and back."""
    n, k = t.data.shape[:2]
    out = np.ascontiguousarray(t.data.reshape(n, k, -1).transpose(0, 2, 1)).reshape(shape)

    def backward(g):
        _acc(t, np.ascontiguousarray(g.reshape(n, -1, k).transpose(0, 2, 1)).reshape(t.data.shape))

    return _node(out, (t,), backward, "transpose")


@dataclass
class ScanParams:
    """Learnable state-space parameters shared by the four scan directions.

    A is stored as log-magnitudes (a_log) so A = -exp(a_log) stays negative;
    dt comes from a low-rank projection plus bias through softplus, so the
    discretized exp(dt*A) always lies in (0, 1).
    """

    a_log: Tensor      # (d_model, d_state)
    d_skip: Tensor     # (d_model,)
    w_b: Tensor        # (d_state, d_model)
    w_c: Tensor        # (d_state, d_model)
    w_dt_down: Tensor  # (dt_rank, d_model)
    w_dt_up: Tensor    # (d_model, dt_rank)
    dt_bias: Tensor    # (d_model,)

    @staticmethod
    def create(d_model: int, d_state: int = 8, *, rng: np.random.Generator) -> "ScanParams":
        if min(d_model, d_state) < 1:
            raise ShapeError(f"ScanParams: d_model {d_model} and d_state {d_state} must be >= 1")
        dt_rank = max(1, -(-d_model // 16))  # ceil(d_model / 16)
        bound = 1.0 / np.sqrt(d_model)

        def u(shape, b):
            return Tensor(rng.uniform(-b, b, size=shape), requires_grad=True)

        a = np.tile(np.arange(1, d_state + 1, dtype=np.float64), (d_model, 1))
        dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=d_model))
        dt_bias = dt + np.log(-np.expm1(-dt))  # inverse softplus
        return ScanParams(
            a_log=Tensor(np.log(a), requires_grad=True),
            d_skip=Tensor(np.ones(d_model), requires_grad=True),
            w_b=u((d_state, d_model), bound),
            w_c=u((d_state, d_model), bound),
            w_dt_down=u((dt_rank, d_model), bound),
            w_dt_up=u((d_model, dt_rank), 1.0 / np.sqrt(dt_rank)),
            dt_bias=Tensor(dt_bias, requires_grad=True),
        )

    def named_parameters(self, prefix: str = ""):
        for name, t in vars(self).items():
            yield (f"{prefix}{name}", t)


def selective_scan(x: Tensor, dt: Tensor, A: Tensor, B: Tensor, C: Tensor, D: Tensor,
                   order: np.ndarray) -> Tensor:
    """Core recurrence as a single tape node, visiting the L positions in
    `order` (a permutation of range(L)).  The state after position p is kept
    at p, so y is in the positions' own order.  Each time loop is one
    in-place multiply-add; every other term is one whole-array op.  The
    node keeps no (n, L, d, N) array: backward recomputes exp(dt*A) and the
    states with the forward's own ops, so bit for bit.

    x, dt: (n, L, d); A: (d, N) negative; B, C: (n, L, N); D: (d,).
    """
    L = x.data.shape[1]
    steps = order.tolist()
    if sorted(steps) != list(range(L)):
        raise ValueError(f"selective_scan: order is not a permutation of range({L})")
    if np.any(dt.data <= 0):
        raise ValueError("selective_scan: non-positive step size dt; softplus constraint violated")

    def states():
        dtx = dt.data * x.data
        dA = np.exp(dt.data[:, :, :, None] * A.data[None, None])  # (n, L, d, N)
        hs = dtx[:, :, :, None] * B.data[:, :, None, :]           # dt*B*x, then the states
        for prev, t in zip(steps, steps[1:]):
            hs[:, t] += dA[:, t] * hs[:, prev]
        return dtx, dA, hs

    _, _, hs = states()
    y = np.einsum("nldk,nlk->nld", hs, C.data) + D.data * x.data

    def backward(gy):
        dtx, dA, hs = states()
        gh = gy[:, :, :, None] * C.data[:, :, None, :]  # gy.C, then the states' gradient
        back = steps[::-1]
        for nxt, t in zip(back, back[1:]):
            gh[:, t] += dA[:, nxt] * gh[:, nxt]
        gB = np.einsum("nldk,nld->nlk", gh, dtx)
        gbx = (gh * B.data[:, :, None, :]).sum(axis=3)   # through dt*B*x
        before = np.roll(order, 1)[np.argsort(order)]    # the position visited before each
        gexp = np.multiply(gh, hs[:, before], out=gh)     # through exp(dt*A), in gh's place
        gexp *= dA
        gexp[:, steps[0]] = 0.0                           # the first step starts from zero
        _acc(x, gy * D.data + gbx * dt.data)
        _acc(dt, np.einsum("nldk,dk->nld", gexp, A.data) + gbx * x.data)
        # A's per-position terms, summed in the sweep's order for a bitwise result
        _acc(A, sum(np.einsum("nldk,nld->ldk", gexp, dt.data)[back]))
        _acc(B, gB)
        _acc(C, np.einsum("nld,nldk->nlk", gy, hs))
        _acc(D, np.einsum("nld,nld->d", gy, x.data))

    return _node(y, (x, dt, A, B, C, D), backward, "selective_scan")


def ss2d(x: Tensor, p: ScanParams) -> Tensor:
    """Project the map's row-major tokens once (dt, B, C), run the selective
    scan over them in each of the four DIRECTIONS' orders, and sum.

    Output shape equals input shape (n, d_model, h, w).
    """
    n, c, h, w = x.data.shape
    if c != p.d_skip.data.shape[0]:
        raise ShapeError(f"ss2d: input channels {c} != d_model {p.d_skip.data.shape[0]}")
    if h * w < 1:
        raise ShapeError("ss2d: empty spatial extent")
    seq = _transpose(x, (n, h * w, c))
    pre = add(linear(linear(seq, p.w_dt_down), p.w_dt_up), p.dt_bias)
    dt = softplus(pre)
    if np.any(dt.data <= 0):
        raise ValueError(
            "ss2d: softplus underflowed to dt = 0: the step-size "
            f"pre-activation (dt projection + dt_bias) reaches {pre.data.min():.4g} "
            f"in {pre.data.dtype}; raise dt_bias or shrink the dt projection"
        )
    A = neg(exp(p.a_log))
    B = linear(seq, p.w_b)
    C = linear(seq, p.w_c)
    out = None
    for d in DIRECTIONS:
        y = selective_scan(seq, dt, A, B, C, p.d_skip, direction_perm(h, w, d))
        out = y if out is None else add(out, y)
    return _transpose(out, (n, c, h, w))
