"""Dense NCHW tensors with tape-based reverse-mode differentiation.

Values are numpy arrays (float64 by default, float32 opt-in for speed);
each operation records a closure that pushes gradients back to its
inputs.  Graphs are static per forward pass and single-threaded; tensors
are never mutated once produced, so read-only sharing is safe.

`Tensor.backward` frees the graph as it goes: once a non-leaf node has
pushed its gradient to its parents, its `.grad`, closure and parent links
are dropped, so a step holds only what the rest of the sweep still needs.
Leaves (parameters and inputs) keep `.grad`.  A second `backward()`
through an already-swept node raises RuntimeError, as PyTorch does without
`retain_graph`.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor", "ConvSpec", "ShapeError", "NonFiniteError",
    "no_grad", "finite_checks",
    "add", "sub", "mul", "div", "neg", "exp", "sigmoid", "silu",
    "softplus", "minimum", "maximum", "tsum", "tmean", "reshape",
    "concat", "split", "linear", "conv2d", "conv_norm_silu", "conv1d",
    "global_avg_pool", "global_max_pool", "maxpool2d", "upsample_nearest2x",
    "channel_norm", "bce_with_logits",
    "grad_check", "GradCheckReport",
]


class ShapeError(ValueError):
    """An operation rejected its operand shapes."""


class NonFiniteError(FloatingPointError):
    """Finite-checking found NaN/Inf in an op output."""

    def __init__(self, op: str):
        super().__init__(f"non-finite values produced by op '{op}'")
        self.op = op


_grad_enabled = True
_finite_checks = False


@contextlib.contextmanager
def no_grad():
    """Disable tape construction; forward values only."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def finite_checks():
    """Raise NonFiniteError as soon as any op output contains NaN/Inf."""
    global _finite_checks
    prev, _finite_checks = _finite_checks, True
    try:
        yield
    finally:
        _finite_checks = prev


class Tensor:
    # _grad_buf: the grad buffer _acc allocated for this non-leaf node, the
    # only one it may add into in place (a passed-through gradient can be
    # another node's buffer, and a leaf's .grad belongs to the user)
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_buf")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
                dtype = data.dtype
            else:
                dtype = np.float64
        self.data = np.asarray(data, dtype=dtype, order="C")  # 0-d stays 0-d
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Callable | None = None
        self._grad_buf = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def backward(self, seed: np.ndarray | None = None):
        """Reverse-mode sweep from this node (gradient seed defaults to ones)
        that frees the graph as it goes; see the module docstring."""
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        if seed is None:
            seed = np.ones_like(self.data)
        self.grad = np.asarray(seed, dtype=self.data.dtype)
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = node._grad_buf = None
                node._backward, node._parents = _spent, ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands of a binary op as Tensors; a scalar or array operand
    takes the dtype of the Tensor one (float64 if neither is a Tensor)."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype if isinstance(b, Tensor) else np.float64))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    return a, b


def _spent(g):
    raise RuntimeError("backward() through a graph that an earlier backward() has freed")


def _node(data: np.ndarray, parents: Sequence[Tensor], backward: Callable | None, op: str) -> Tensor:
    if _finite_checks and not np.all(np.isfinite(data)):
        raise NonFiniteError(op)
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    track = _grad_enabled and any(p.requires_grad for p in parents)
    t.requires_grad = track
    t._parents = tuple(parents) if track else ()
    t._backward = backward if track else None
    t._grad_buf = None
    return t


def _acc(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    elif t.grad is t._grad_buf and g.shape == t.grad.shape and g.dtype == t.grad.dtype:
        t.grad += g
    else:
        t.grad = t.grad + g
        if t._backward is not None:
            t._grad_buf = t.grad


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _binary(a: Tensor, b: Tensor, out: np.ndarray, grad_a: Callable, grad_b: Callable,
            op: str) -> Tensor:
    """A broadcasting binary op's node; grad_a(g) and grad_b(g) run only for
    an operand that requires grad."""
    def backward(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(grad_a(g), a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(grad_b(g), b.data.shape))

    return _node(out, (a, b), backward, op)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g, "add")


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g, "sub")


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data, "mul")


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _binary(a, b, a.data / b.data, lambda g: g / b.data,
                   lambda g: -g * a.data / (b.data * b.data), "div")


def neg(a: Tensor) -> Tensor:
    def backward(g):
        _acc(a, -g)

    return _node(-a.data, (a,), backward, "neg")


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def backward(g):
        _acc(a, g * out)

    return _node(out, (a,), backward, "exp")


def _expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid without overflow or masks: exp(min(x, 0)) / (1 +
    exp(-|x|)).  The numerator is exactly exp(0) = 1 for x >= 0 and
    exp(x) = exp(-|x|) below, so this is 1 / (1 + e) and e / (1 + e) with
    e = exp(-|x|), computed in two buffers."""
    x = np.asarray(x)
    d = np.abs(x, out=np.empty_like(x))  # out= keeps a 0-d input an array
    np.negative(d, out=d)
    np.exp(d, out=d)
    d += 1.0
    e = np.minimum(x, 0.0, out=np.empty_like(x))
    np.exp(e, out=e)
    e /= d
    return e


def sigmoid(a: Tensor) -> Tensor:
    out = _expit(a.data)

    def backward(g):
        _acc(a, g * out * (1.0 - out))

    return _node(out, (a,), backward, "sigmoid")


def _silu_grad(g: np.ndarray, a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """SiLU's input gradient g * s * (1 + a * (1 - s)) for s = sigmoid(a), in
    two buffers; a product or sum of two operands is the same in either
    order."""
    d = 1.0 - s
    d *= a
    d += 1.0
    gs = g * s
    gs *= d
    return gs


def silu(a: Tensor) -> Tensor:
    s = _expit(a.data)
    out = a.data * s

    def backward(g):
        _acc(a, _silu_grad(g, a.data, s))

    return _node(out, (a,), backward, "silu")


def softplus(a: Tensor) -> Tensor:
    out = np.logaddexp(0.0, a.data)

    def backward(g):
        _acc(a, g * _expit(a.data))

    return _node(out, (a,), backward, "softplus")


def minimum(a, b) -> Tensor:
    """Elementwise min; on ties the gradient routes to the first operand."""
    a, b = _operands(a, b)
    take_a = a.data <= b.data
    return _binary(a, b, np.where(take_a, a.data, b.data), lambda g: np.where(take_a, g, 0.0),
                   lambda g: np.where(take_a, 0.0, g), "minimum")


def maximum(a, b) -> Tensor:
    """Elementwise max; on ties the gradient routes to the first operand."""
    a, b = _operands(a, b)
    take_a = a.data >= b.data
    return _binary(a, b, np.where(take_a, a.data, b.data), lambda g: np.where(take_a, g, 0.0),
                   lambda g: np.where(take_a, 0.0, g), "maximum")


# ---------------------------------------------------------------------------
# reductions / movement


def tsum(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def backward(g):
        _acc(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=True))

    return _node(out, (a,), backward, "sum")


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    out = np.asarray(a.data.sum() / n, dtype=a.data.dtype)

    def backward(g):
        _acc(a, np.broadcast_to(g / n, a.data.shape).astype(a.data.dtype, copy=True))

    return _node(out, (a,), backward, "mean")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def backward(g):
        _acc(a, g.reshape(a.data.shape))

    return _node(out, (a,), backward, "reshape")


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    tensors = list(tensors)
    ref = tensors[0].data.shape
    for t in tensors[1:]:
        other = t.data.shape
        if len(other) != len(ref) or any(o != r for i, (o, r) in enumerate(zip(other, ref)) if i != axis):
            raise ShapeError(
                f"concat: shape {other} incompatible with {ref} along axis {axis}"
            )
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _acc(t, g[tuple(idx)].copy())

    return _node(out, tuple(tensors), backward, "concat")


def split(a: Tensor, sizes: Sequence[int], axis: int = 1) -> list[Tensor]:
    """Partition along `axis`; concat(split(x)) reconstructs x bit-exactly."""
    if sum(sizes) != a.data.shape[axis]:
        raise ShapeError(
            f"split: sizes {list(sizes)} do not sum to axis {axis} extent {a.data.shape[axis]}"
        )
    outs = []
    lo = 0
    for s in sizes:
        hi = lo + s
        idx = [slice(None)] * a.data.ndim
        idx[axis] = slice(lo, hi)
        piece = a.data[tuple(idx)].copy()

        def backward(g, lo=lo, hi=hi):
            buf = np.zeros_like(a.data)
            idx2 = [slice(None)] * buf.ndim
            idx2[axis] = slice(lo, hi)
            buf[tuple(idx2)] = g
            _acc(a, buf)

        outs.append(_node(piece, (a,), backward, "split"))
        lo = hi
    return outs


def linear(x: Tensor, weight: Tensor) -> Tensor:
    """x @ weight.T over the last axis; weight is (out, in)."""
    if x.data.shape[-1] != weight.data.shape[1]:
        raise ShapeError(
            f"linear: input features {x.data.shape[-1]} != weight in-features {weight.data.shape[1]}"
        )
    out = x.data @ weight.data.T

    def backward(g):
        gl = g.reshape(-1, weight.data.shape[0])
        xl = x.data.reshape(-1, weight.data.shape[1])
        _acc(x, (g @ weight.data).reshape(x.data.shape))
        _acc(weight, gl.T @ xl)

    return _node(out, (x, weight), backward, "linear")


# ---------------------------------------------------------------------------
# convolution


@dataclass(frozen=True)
class ConvSpec:
    """Static description of a 2-D convolution."""

    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        if min(self.in_channels, self.out_channels) < 1:
            raise ShapeError(
                f"ConvSpec: channels {self.in_channels} -> {self.out_channels} must be >= 1"
            )
        if self.in_channels % self.groups != 0:
            raise ShapeError(
                f"ConvSpec: in_channels {self.in_channels} not divisible by groups {self.groups}"
            )
        if self.out_channels % self.groups != 0:
            raise ShapeError(
                f"ConvSpec: out_channels {self.out_channels} not divisible by groups {self.groups}"
            )
        if self.padding < 0:
            raise ShapeError(f"ConvSpec: padding {self.padding} must be >= 0")
        if self.stride < 1:
            raise ShapeError(f"ConvSpec: stride {self.stride} must be >= 1")


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    """x zero-padded by p on both spatial sides (x itself when p is 0)."""
    if not p:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    xp[:, :, p:p + h, p:p + w] = x
    return xp


# Images run b at a time along the columns of one GEMM each: merging them
# pays on small maps, but one GEMM wider than about 256 columns runs slower
# per column than several narrower ones.
_GEMM_COLS = 256


def _cols(x: np.ndarray, kh: int, kw: int, s: int, p: int, oh: int, ow: int,
          merge: bool = True) -> np.ndarray:
    """The patch matrices of x, (n/b, c*kh*kw, b*oh*ow), where b divides n
    and is at most _GEMM_COLS // (oh*ow) when that is >= 1 (b = 1 unless
    merge).  Block r holds images r*b .. r*b + b-1 side by side; row
    (ci, u, v) matches the flattened weight; column (i, j) of image k is
    k*oh*ow + i*ow + j."""
    n, c = x.shape[:2]
    b = math.gcd(n, max(1, _GEMM_COLS // (oh * ow))) if merge else 1
    if kh == kw == 1 and s == 1 and p == 0:
        win = x[:, :, :, :, None, None]  # cheaper than a window view
    else:
        win = np.lib.stride_tricks.sliding_window_view(_pad(x, p), (kh, kw), axis=(2, 3))
        win = win[:, :, :s * oh:s, :s * ow:s]  # (n, c, oh, ow, kh, kw)
    win = win.reshape(n // b, b, c, oh, ow, kh, kw).transpose(0, 2, 5, 6, 1, 3, 4)
    return win.reshape(n // b, c * kh * kw, b * oh * ow)  # a view when 1x1 and b = 1


# A patch matrix of more elements than this is built and multiplied one
# band of output rows at a time.  Whole, it is the largest buffer of a
# 640 px forward (29.5 MB at float32), and once glibc has unmapped a block
# that large it keeps up to twice as much freed memory in its heap.
_PATCH_ELEMS = 1 << 20


def _correlate(x: np.ndarray, w3: np.ndarray, kh: int, kw: int, s: int, p: int,
               oh: int, ow: int) -> np.ndarray:
    """Cross-correlation of the NCHW array x with the weight w3, shaped
    (groups, out/groups, in/groups*kh*kw), as (n/b, out, b, oh, ow) blocks."""
    groups, opg = w3.shape[:2]
    n, c = x.shape[:2]
    rows = _PATCH_ELEMS // (n * c * kh * kw * ow)
    if kh * kw == 1 or rows >= oh:
        # a 1x1 patch matrix at b = 1 is x itself, and merging costs two copies
        cols = _cols(x, kh, kw, s, p, oh, ow, merge=kh * kw > 1)
        nb, _, m = cols.shape
        return np.matmul(w3, cols.reshape(nb, groups, -1, m)).reshape(nb, groups * opg, -1, oh, ow)
    rows = max(rows, 1)
    xp = _pad(x, p)
    out = np.empty((n, groups, opg, oh * ow), dtype=np.result_type(x, w3))
    for r in range(0, oh, rows):
        r1 = min(oh, r + rows)
        band = _cols(xp[:, :, r * s:(r1 - 1) * s + kh], kh, kw, s, 0, r1 - r, ow, merge=False)
        np.matmul(w3, band.reshape(n, groups, -1, band.shape[2]), out=out[..., r * ow:r1 * ow])
    return out.reshape(n, groups * opg, 1, oh, ow)


def _nchw(y: np.ndarray) -> np.ndarray:
    """(n/b, c, b, h, w) blocks as one (n, c, h, w) array, a view at b = 1."""
    nb, c, b, h, w = y.shape
    return np.ascontiguousarray(y.transpose(0, 2, 1, 3, 4)).reshape(nb * b, c, h, w)


def _conv_forward(x: Tensor, spec: ConvSpec, weight: Tensor, bias: Tensor | None) -> np.ndarray:
    """conv2d's checked forward value: a fresh C-contiguous (n, out, oh, ow)
    array that no one else holds."""
    n, c, h, w = x.data.shape
    kh, kw = spec.kernel
    ic, oc, groups, s, p = spec.in_channels, spec.out_channels, spec.groups, spec.stride, spec.padding
    if c != ic:
        raise ShapeError(f"conv2d: input channels {c} != spec.in_channels {ic}")
    wshape = (oc, ic // groups, kh, kw)
    if weight.data.shape != wshape:
        raise ShapeError(f"conv2d: weight shape {weight.data.shape} != expected {wshape}")
    if bias is not None and bias.data.shape != (oc,):
        raise ShapeError(f"conv2d: bias shape {bias.data.shape} != expected ({oc},)")
    oh = (h + 2 * p - kh) // s + 1
    ow = (w + 2 * p - kw) // s + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d: output spatial dims ({oh}, {ow}) must be >= 1")
    out = _correlate(x.data, weight.data.reshape(groups, oc // groups, -1), kh, kw, s, p, oh, ow)
    if bias is not None:
        out += bias.data[:, None, None, None]
    return _nchw(out)


def _conv_backward(g: np.ndarray, x: Tensor, spec: ConvSpec, weight: Tensor, bias: Tensor | None):
    """Push the conv output's gradient g to weight, bias and, when it
    requires grad, x.  Nothing of the forward is kept: the patch matrix is
    rebuilt from x.data."""
    n, c, h, w = x.data.shape
    oh, ow = g.shape[2:]
    kh, kw = spec.kernel
    oc, groups, s, p = spec.out_channels, spec.groups, spec.stride, spec.padding
    w3 = weight.data.reshape(groups, oc // groups, -1)
    g2 = _cols(g, 1, 1, 1, 0, oh, ow)  # g in the blocks' column order
    nb, _, m = g2.shape
    g2 = g2.reshape(nb, groups, -1, m)
    cols = _cols(x.data, kh, kw, s, p, oh, ow).reshape(g2.shape[:2] + (-1, m))
    _acc(weight, np.matmul(g2, cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(weight.data.shape))
    del cols  # before the input gradient's buffers are allocated
    if bias is not None:
        _acc(bias, g2.sum(axis=(0, 3)).reshape(oc))
    if not x.requires_grad:
        return
    if s == 1 and kh == kw and p < kh:
        # the full correlation of g with the flipped, transposed weight:
        # a gather, about twice as fast as the strided adds below
        wt = w3.reshape(groups, oc // groups, -1, kh, kw)[:, :, :, ::-1, ::-1]
        wt = wt.transpose(0, 2, 1, 3, 4).reshape(groups, c // groups, -1)
        _acc(x, _nchw(_correlate(g, wt, kh, kw, 1, kh - 1 - p, h, w)))
        return
    gcols = np.matmul(w3.transpose(0, 2, 1), g2).reshape(nb, c, kh, kw, n // nb, oh, ow)
    gxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=g.dtype)
    gxb = gxp.reshape(nb, n // nb, c, h + 2 * p, w + 2 * p).transpose(0, 2, 1, 3, 4)
    for u in range(kh):
        for v in range(kw):
            gxb[:, :, :, u:u + s * oh:s, v:v + s * ow:s] += gcols[:, :, u, v]
    _acc(x, gxp[:, :, p:p + h, p:p + w])


def conv2d(x: Tensor, spec: ConvSpec, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Grouped 2-D cross-correlation (groups == in_channels is depthwise),
    one patch-matrix GEMM kernel for every kernel size, stride and group
    count."""
    def backward(g):
        _conv_backward(g, x, spec, weight, bias)

    out = _conv_forward(x, spec, weight, bias)
    return _node(out, (x, weight) if bias is None else (x, weight, bias), backward, "conv2d")


def conv_norm_silu(x: Tensor, spec: ConvSpec, weight: Tensor, gain: Tensor,
                   nbias: Tensor) -> Tensor:
    """silu(channel_norm(conv2d(x, spec, weight), gain, nbias)) as one tape
    node, bit for bit, through the same kernels.  The conv takes no bias:
    the norm subtracts each (n, c) plane's mean, which cancels any
    per-channel constant added before it.

    The conv output is normalised in place, and the node keeps only that
    xhat and inv: backward recomputes the norm output gain*xhat + nbias and
    its sigmoid, the recompute trick of in-place activated batch norm (Rota
    Bulò et al., arXiv 1712.02616).  Untaped, the affine and the SiLU run
    in the same buffer."""
    parents = (x, weight, gain, nbias)
    taped = _grad_enabled and any(t.requires_grad for t in parents)
    xhat, inv, spare = _normalize(_conv_forward(x, spec, weight, None), _NORM_EPS, in_place=True)
    out = _affine(xhat, gain.data, nbias.data, out=spare if taped else xhat)
    del spare
    out *= _expit(out)

    def backward(g):
        z = _affine(xhat, gain.data, nbias.data)
        gz = _silu_grad(g, z, _expit(z))
        del z
        gy, ggain, gnbias = _norm_grad(gz, gain.data, xhat, inv)
        del gz
        _acc(gain, ggain)
        _acc(nbias, gnbias)
        _conv_backward(gy, x, spec, weight, None)

    return _node(out, parents, backward, "conv_norm_silu")


def conv1d(x: Tensor, weight: Tensor) -> Tensor:
    """Same-padded 1-D cross-correlation along the channel axis.

    x is a batch of channel vectors (n, C); the kernel must have odd length
    so output length equals C.
    """
    k = weight.data.shape[0]
    if weight.data.ndim != 1:
        raise ShapeError(f"conv1d: weight must be 1-D, got shape {weight.data.shape}")
    if k % 2 == 0:
        raise ShapeError(f"conv1d: kernel size {k} must be odd")
    if x.data.ndim != 2:
        raise ShapeError(f"conv1d: input must be (n, C), got {x.data.shape}")
    n, c = x.data.shape
    p = k // 2
    xp = np.pad(x.data, ((0, 0), (p, p)))
    win = np.stack([xp[:, j:j + c] for j in range(k)], axis=-1)  # (n, C, k)
    out = win @ weight.data

    def backward(g):
        gxp = np.zeros_like(xp)
        for j in range(k):
            gxp[:, j:j + c] += g * weight.data[j]
        _acc(x, gxp[:, p:p + c])
        _acc(weight, np.einsum("nc,nck->k", g, win))

    return _node(out, (x, weight), backward, "conv1d")


# ---------------------------------------------------------------------------
# pooling / resampling


def global_avg_pool(x: Tensor) -> Tensor:
    n, c, h, w = x.data.shape
    if h * w < 1:
        raise ShapeError("global_avg_pool: empty spatial extent")
    out = x.data.mean(axis=(2, 3), keepdims=True)

    def backward(g):
        _acc(x, np.broadcast_to(g / (h * w), x.data.shape).astype(x.data.dtype, copy=True))

    return _node(out, (x,), backward, "global_avg_pool")


def global_max_pool(x: Tensor) -> Tensor:
    """Max over h*w per (n, c); backward routes to the first row-major argmax."""
    n, c, h, w = x.data.shape
    if h * w < 1:
        raise ShapeError("global_max_pool: empty spatial extent")
    flat = x.data.reshape(n, c, h * w)
    idx = flat.argmax(axis=2)
    out = np.take_along_axis(flat, idx[:, :, None], axis=2).reshape(n, c, 1, 1)

    def backward(g):
        gx = np.zeros_like(flat)
        np.put_along_axis(gx, idx[:, :, None], g.reshape(n, c, 1), axis=2)
        _acc(x, gx.reshape(x.data.shape))

    return _node(out, (x,), backward, "global_max_pool")


def _reads_input(u: int, s: int, p: int, size: int, o: int) -> bool:
    """Whether some tap u + s*i - p (0 <= i < o) of window offset u along
    one axis lands in the input rather than in its padding."""
    i = max(0, -((u - p) // s))  # the first tap past the leading padding
    return i < o and u + s * i - p < size


def maxpool2d(x: Tensor, kernel: int, stride: int = 1, padding: int = 0) -> Tensor:
    """Max pooling over -inf padding; ties go to the first window offset in
    row-major order, and a NaN in a window makes its output NaN.  The
    padding never takes a gradient: a window whose inputs are all -inf
    routes it to the first of them, and one with no input to nowhere."""
    n, c, h, w = x.data.shape
    k, s, p = kernel, stride, padding
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"maxpool2d: output spatial dims ({oh}, {ow}) must be >= 1")
    if p:
        xp = np.full((n, c, h + 2 * p, w + 2 * p), -np.inf, dtype=x.data.dtype)
        xp[:, :, p:p + h, p:p + w] = x.data
    else:
        xp = x.data
    # the offsets whose strided slice reads only padding cannot change a
    # maximum (16 of 25 for a 5x5 pool over a 2x2 map), so they are skipped
    offsets = [(u, v) for u in range(k) if _reads_input(u, s, p, h, oh)
               for v in range(k) if _reads_input(v, s, p, w, ow)]
    windows = [xp[:, :, u:u + s * oh:s, v:v + s * ow:s] for u, v in offsets]
    out = windows[0].copy() if windows else np.full((n, c, oh, ow), -np.inf, dtype=xp.dtype)
    for win in windows[1:]:
        # np.maximum returns its second operand on a tie (+0 against -0
        # included), so the earliest offset's value is kept
        np.maximum(win, out, out=out)

    def backward(g):
        if p:  # a NaN equals no output, so the padding matches none
            xp[:, :, :p] = xp[:, :, p + h:] = np.nan
            xp[:, :, :, :p] = xp[:, :, :, p + w:] = np.nan
        gxp = np.zeros_like(xp)
        free = np.ones(out.shape, dtype=bool)  # outputs whose gradient is not yet routed
        for u, v in offsets:
            hit = xp[:, :, u:u + s * oh:s, v:v + s * ow:s] == out
            hit &= free
            free ^= hit
            gxp[:, :, u:u + s * oh:s, v:v + s * ow:s] += np.where(hit, g, 0.0)
        _acc(x, gxp[:, :, p:p + h, p:p + w] if p else gxp)

    return _node(out, (x,), backward, "maxpool2d")


def upsample_nearest2x(x: Tensor) -> Tensor:
    n, c, h, w = x.data.shape
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def backward(g):
        _acc(x, g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))

    return _node(out, (x,), backward, "upsample_nearest2x")


# ---------------------------------------------------------------------------
# normalization / losses


def _mean(a: np.ndarray, axis, count: int) -> np.ndarray:
    """a.mean(axis, keepdims=True) over `count` values, bit for bit, without
    the cost of numpy's Python wrapper for it."""
    out = np.add.reduce(a, axis=axis, keepdims=True)
    out /= count
    return out


_NORM_EPS = 1e-5


def _normalize(x: np.ndarray, eps: float, in_place: bool = False):
    """xhat = (x - mean) / sqrt(var + eps) over each (n, c) plane of the
    NCHW array x, in x's own buffer when in_place (x is then C-contiguous).
    Returns xhat, inv = 1 / sqrt(var + eps) as (n, c, 1, 1) and a spare
    buffer of x's shape."""
    n, c, h, w = x.shape
    m = h * w
    x3 = x.reshape(n, c, m)
    xhat = np.subtract(x3, _mean(x3, 2, m), out=x3 if in_place else None)
    spare = xhat * xhat
    inv = 1.0 / np.sqrt(_mean(spare, 2, m) + eps)
    xhat *= inv
    return xhat.reshape(x.shape), inv.reshape(n, c, 1, 1), spare.reshape(x.shape)


def _affine(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """gain * xhat + bias per channel of the NCHW array xhat, into out."""
    out = np.multiply(gain[None, :, None, None], xhat, out=out)
    out += bias[None, :, None, None]
    return out


def _norm_grad(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray, inv: np.ndarray):
    """channel_norm's gradients of its input, gain and bias for upstream g:
    the first is inv * (gy - mean(gy) - xhat * mean(gy * xhat)) with
    gy = gain * g, in two buffers."""
    m = xhat.shape[2] * xhat.shape[3]
    gy = g * gain[None, :, None, None]
    gmean = _mean(gy, (2, 3), m)
    t = np.multiply(gy, xhat)
    gdot = _mean(t, (2, 3), m)
    gy -= gmean
    np.multiply(xhat, gdot, out=t)
    gy -= t
    gy *= inv
    np.multiply(g, xhat, out=t)
    return gy, t.sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


def channel_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = _NORM_EPS) -> Tensor:
    """Normalize each (n, c) plane over its spatial positions, then apply
    a learnable per-channel affine."""
    xhat, inv, out = _normalize(x.data, eps)
    _affine(xhat, gain.data, bias.data, out=out)

    def backward(g):
        gx, ggain, gbias = _norm_grad(g, gain.data, xhat, inv)
        _acc(x, gx)
        _acc(gain, ggain)
        _acc(bias, gbias)

    return _node(out, (x, gain, bias), backward, "channel_norm")


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise binary cross-entropy on logits (numerically stable)."""
    z = logits.data
    y = np.asarray(targets, dtype=z.dtype)
    if y.shape != z.shape:
        raise ShapeError(f"bce_with_logits: targets shape {y.shape} != logits shape {z.shape}")
    out = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))

    def backward(g):
        _acc(logits, g * (_expit(z) - y))

    return _node(out, (logits,), backward, "bce_with_logits")


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_err: float
    tol: float
    eps: float
    n_checked: int
    failed_op: str | None = None
    per_input: list[float] = field(default_factory=list)

    def __str__(self):
        if self.failed_op is not None:
            return f"FAIL non-finite intermediate in op '{self.failed_op}'"
        status = "PASS" if self.passed else "FAIL"
        return f"{status} max_rel_err={self.max_rel_err:.3e} (tol={self.tol:.1e}, {self.n_checked} elements)"


def grad_check(f: Callable, wrt, eps: float = 1e-5, tol: float = 1e-5) -> GradCheckReport:
    """Compare reverse-mode gradients of scalar-valued f against central
    finite differences over every element of the `wrt` tensors."""
    if not 1e-6 <= eps <= 1e-4:
        raise ValueError(f"grad_check: eps {eps} outside [1e-6, 1e-4]")
    tensors = [wrt] if isinstance(wrt, Tensor) else list(wrt)
    for t in tensors:
        t.requires_grad = True
        t.zero_grad()
    try:
        with finite_checks():
            y = f(*tensors)
            if y.data.size != 1:
                raise ValueError("grad_check: f must be scalar-valued (sum-reduce first)")
            y.backward()
            analytic = [
                t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors
            ]
            max_err = 0.0
            per_input = []
            n_checked = 0
            for t, a in zip(tensors, analytic):
                flat = t.data.reshape(-1)
                worst = 0.0
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    with no_grad():
                        hi = f(*tensors).item()
                    flat[i] = orig - eps
                    with no_grad():
                        lo = f(*tensors).item()
                    flat[i] = orig
                    num = (hi - lo) / (2.0 * eps)
                    ana = a.reshape(-1)[i]
                    err = abs(ana - num) / max(abs(ana), abs(num), 1.0)
                    worst = max(worst, err)
                    n_checked += 1
                per_input.append(worst)
                max_err = max(max_err, worst)
    except NonFiniteError as e:
        return GradCheckReport(False, float("inf"), tol, eps, 0, failed_op=e.op)
    return GradCheckReport(max_err <= tol, max_err, tol, eps, n_checked, per_input=per_input)
