"""Composite network blocks: Bottleneck, C2F, SPPF, VSS, C2F-VMamba and
EMCA, plus the small module/parameter registry and checkpoint format they
share.

Blocks build float64 parameters; the model that holds them casts them to
its dtype.  Blocks are stateless given their parameters; parameters are
read-only during evaluation, so evaluating disjoint inputs concurrently is
safe.
"""
from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from fabme import tensor as T
from fabme.scan import ScanParams, ss2d
from fabme.tensor import ShapeError, Tensor

__all__ = [
    "Module", "Conv", "Bottleneck", "C2F", "SPPF",
    "VSS", "C2FVMamba", "EMCA", "adaptive_kernel_size",
    "block_rng", "save_checkpoint", "load_checkpoint", "load_into",
]


def block_rng(seed: int, path: str) -> np.random.Generator:
    """Generator keyed by (seed, block path) so adding or swapping one block
    never changes the initialization of the others."""
    return np.random.default_rng((seed, zlib.crc32(path.encode())))


class Module:
    """Minimal container: child modules and parameters are discovered from
    instance attributes (lists of modules included) in definition order."""

    def named_parameters(self, prefix: str = ""):
        for name, value in vars(self).items():
            yield from _walk(value, f"{prefix}{name}")

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self):
        for t in self.parameters():
            t.grad = None

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


def _walk(value, path):
    if isinstance(value, Tensor):
        if value.requires_grad:
            yield (path, value)
    elif isinstance(value, (Module, ScanParams)):
        yield from value.named_parameters(f"{path}.")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _walk(v, f"{path}.{i}")


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    bound = math.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Conv(Module):
    """Conv2d with YOLO-style same padding (k // 2).  An activated convolution
    (act) is normalized per channel over spatial positions and passed
    through SiLU, as one tape op, and has no bias: the norm cancels it.  A
    bare projection or predictor is neither normalized nor activated, and
    keeps its bias."""

    def __init__(self, c_in, c_out, k=1, stride=1, groups=1, act=True, *, rng):
        if min(c_in, c_out) < 1 or c_in % groups or c_out % groups:
            raise ShapeError(f"Conv: channels {c_in} -> {c_out} must be >= 1 "
                             f"and divide by {groups} groups")
        self.stride, self.padding, self.groups = stride, k // 2, groups
        self.weight = _kaiming_uniform(rng, (c_out, c_in // groups, k, k), (c_in // groups) * k * k)
        self.bias = None if act else Tensor(np.zeros(c_out), requires_grad=True)
        self.norm = ChannelNorm(c_out) if act else None

    def forward(self, x):
        if self.norm is not None:
            return T.conv_norm_silu(x, self.weight, self.norm.gain, self.norm.bias,
                                    self.stride, self.padding, self.groups)
        return T.conv2d(x, self.weight, self.bias, self.stride, self.padding, self.groups)


class ChannelNorm(Module):
    """Per-channel normalization over spatial positions with learnable affine."""

    def __init__(self, channels):
        self.gain = Tensor(np.ones(channels), requires_grad=True)
        self.bias = Tensor(np.zeros(channels), requires_grad=True)

    def forward(self, x):
        return T.channel_norm(x, self.gain, self.bias)


class Bottleneck(Module):
    """Two 3x3 convolutions with an optional residual connection."""

    def __init__(self, channels, shortcut=True, *, rng):
        self.cv1 = Conv(channels, channels, 3, rng=rng)
        self.cv2 = Conv(channels, channels, 3, rng=rng)
        self.shortcut = shortcut

    def forward(self, x):
        y = self.cv2(self.cv1(x))
        return T.add(x, y) if self.shortcut else y


class C2F(Module):
    """CSP-style block: 1x1 conv, split in half, chain n bottlenecks on one
    half, concat every intermediate, 1x1 conv out.  Concat width is (n+2)*h."""

    def __init__(self, c_in, c_out, n=1, shortcut=False, *, rng):
        if c_out % 2:
            raise ShapeError(f"C2F: out_channels {c_out} must be even")
        self.h = c_out // 2
        self.cv1 = Conv(c_in, c_out, 1, rng=rng)
        self.blocks = [Bottleneck(self.h, shortcut, rng=rng) for _ in range(n)]
        self.cv2 = Conv((n + 2) * self.h, c_out, 1, rng=rng)

    def forward(self, x):
        parts = T.split(self.cv1(x), [self.h, self.h])
        for blk in self.blocks:
            parts.append(blk(parts[-1]))
        return self.cv2(T.concat(parts))


class SPPF(Module):
    """Spatial pyramid pooling (fast): three chained stride-1 5x5 max pools,
    concat of all four stages, 1x1 convs either side."""

    def __init__(self, c_in, c_out, *, rng):
        hidden = c_in // 2
        self.cv1 = Conv(c_in, hidden, 1, rng=rng)
        self.cv2 = Conv(hidden * 4, c_out, 1, rng=rng)

    def forward(self, x):
        y = self.cv1(x)
        outs = [y]
        for _ in range(3):
            outs.append(T.maxpool2d(outs[-1], 5, 1, 2))
        return self.cv2(T.concat(outs))


# ---------------------------------------------------------------------------
# visual state-space blocks


class VSS(Module):
    """Dual-path visual state-space block.

    Pre-norm, then path (a) pointwise projection -> 3x3 depthwise conv ->
    SiLU -> ss2d -> norm and path (b) pointwise projection -> SiLU gate;
    paths merge by elementwise product, project back, plus residual.  Every
    path keeps the block width.
    """

    def __init__(self, channels, d_state=8, *, rng):
        c = self.channels = channels
        self.norm1 = ChannelNorm(c)
        self.proj_a = Conv(c, c, 1, act=False, rng=rng)
        self.proj_b = Conv(c, c, 1, act=False, rng=rng)
        self.dw = Conv(c, c, 3, groups=c, act=False, rng=rng)
        self.scan = ScanParams.create(c, d_state=d_state, rng=rng)
        self.norm2 = ChannelNorm(c)
        self.proj_out = Conv(c, c, 1, act=False, rng=rng)

    def forward(self, x):
        if x.data.shape[1] != self.channels:
            raise ShapeError(f"VSS: input channels {x.data.shape[1]} != {self.channels}")
        h = self.norm1(x)
        a = self.norm2(ss2d(T.silu(self.dw(self.proj_a(h))), self.scan))
        b = T.silu(self.proj_b(h))
        return T.add(x, self.proj_out(T.mul(a, b)))


class C2FVMamba(Module):
    """C2F variant whose inner transforms are VSS blocks.

    With h = c_out/2, X1 and X2 are the halves of Conv(X) and Y2 = VSS(X2);
    the final 1x1 conv sees Concat(X1, Conv(X), Y2, the n-1 further chain
    outputs), of width (n+3)*h.
    """

    def __init__(self, c_in, c_out, n=1, d_state=8, *, rng):
        if c_out % 2:
            raise ShapeError(f"C2FVMamba: out_channels {c_out} must be even")
        if n < 1:
            raise ShapeError(f"C2FVMamba: n {n} must be >= 1")
        self.c_in = c_in
        self.h = h = c_out // 2
        self.cv1 = Conv(c_in, 2 * h, 1, rng=rng)
        self.blocks = [VSS(h, d_state, rng=rng) for _ in range(n)]
        self.cv2 = Conv((n + 3) * h, c_out, 1, rng=rng)

    def forward(self, x):
        if x.data.shape[1] != self.c_in:
            raise ShapeError(f"C2FVMamba: input channels {x.data.shape[1]} != {self.c_in}")
        conv_x = self.cv1(x)
        x1, x2 = T.split(conv_x, [self.h, self.h])
        chain = [self.blocks[0](x2)]
        for blk in self.blocks[1:]:
            chain.append(blk(chain[-1]))
        return self.cv2(T.concat([x1, conv_x] + chain))


# ---------------------------------------------------------------------------
# channel attention


def adaptive_kernel_size(channels: int) -> int:
    """ECA's kernel: nearest odd integer to |log2(C)/2 + 1/2|, floored at 3."""
    t = int(abs(math.log2(channels) / 2.0 + 1.0 / 2.0))
    k = t if t % 2 else t + 1
    return max(k, 3)


class EMCA(Module):
    """Channel recalibration from dual global pooling.

    Per sample: descriptor = GAP + GMP over spatial positions, a 1-D
    cross-channel convolution (no bias) of adaptive_kernel_size(channels)
    taps and a sigmoid produce per-channel weights in (0, 1) that rescale
    the input map.
    """

    def __init__(self, channels, *, rng):
        self.channels = channels
        self.k = adaptive_kernel_size(channels)
        self.weight = _kaiming_uniform(rng, (self.k,), self.k)

    def forward(self, x):
        n, c, h, w = x.data.shape
        if c != self.channels:
            raise ShapeError(f"EMCA: input channels {c} != {self.channels}")
        desc = T.add(T.global_avg_pool(x), T.global_max_pool(x))
        a = T.sigmoid(T.conv1d(T.reshape(desc, (n, c)), self.weight))
        return T.mul(x, T.reshape(a, (n, c, 1, 1)))


# ---------------------------------------------------------------------------
# parameter checkpoints: flat ordered records, each a u32 name length, the
# UTF-8 name and a tensor snapshot: magic "FABT", u32 rank, u32 dims...,
# little-endian f64 payload


def _write_snapshot(f, array: np.ndarray):
    arr = np.asarray(array, dtype="<f8")  # ascontiguousarray would make 0-d 1-d
    f.write(b"FABT")
    f.write(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
    f.write(arr.tobytes())


def _read_snapshot(f) -> np.ndarray:
    """Inverse of _write_snapshot; returns a float64 array.  A malformed
    snapshot raises ValueError before any read larger than the file."""
    magic = f.read(4)
    if magic != b"FABT":
        raise ValueError(f"bad snapshot magic {magic!r}")
    (rank,) = _read_struct(f, "<I")
    if rank > 32:  # numpy's dimension limit
        raise ValueError(f"snapshot rank {rank} > 32")
    dims = _read_struct(f, f"<{rank}I")
    size = 8 * math.prod(dims)
    pos = f.tell()
    left = f.seek(0, os.SEEK_END) - pos
    f.seek(pos)
    if size > left:
        raise ValueError(f"snapshot payload truncated: shape {dims} needs {size} bytes, {left} left")
    return np.frombuffer(f.read(size), dtype="<f8").reshape(dims).copy()


def _read_struct(f, fmt: str) -> tuple:
    data = f.read(struct.calcsize(fmt))
    if len(data) != struct.calcsize(fmt):
        raise ValueError("snapshot header truncated")
    return struct.unpack(fmt, data)


def save_checkpoint(path, named_params):
    rows = list(named_params)
    with open(path, "wb") as f:
        for name, t in rows:
            data = t.data if isinstance(t, Tensor) else np.asarray(t)
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            _write_snapshot(f, data)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read save_checkpoint's records; a malformed file, or one that names
    a parameter twice, raises ValueError."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        while True:
            head = f.read(4)
            if not head:
                break
            if len(head) < 4:
                raise ValueError(f"{path}: truncated checkpoint record")
            (ln,) = struct.unpack("<I", head)
            if ln > size - f.tell():
                raise ValueError(f"{path}: checkpoint name of {ln} bytes overruns the file")
            try:
                name = f.read(ln).decode()
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}: checkpoint name is not UTF-8: {e}") from None
            if name in out:
                raise ValueError(f"{path}: checkpoint names parameter {name!r} twice")
            try:
                out[name] = _read_snapshot(f)
            except ValueError as e:
                raise ValueError(f"{path}: parameter {name!r}: {e}") from None
    return out


def load_into(model: Module, path):
    """Load a checkpoint into a model, insisting on matching names/shapes."""
    state = load_checkpoint(path)
    for name, t in model.named_parameters():
        if name not in state:
            raise KeyError(f"checkpoint missing parameter {name!r}")
        arr = state.pop(name)
        if arr.shape != t.data.shape:
            raise ShapeError(f"checkpoint parameter {name!r} shape {arr.shape} != model {t.data.shape}")
        t.data[...] = arr  # in place: a parameter keeps its array, and so its pages
    if state:
        raise KeyError(f"checkpoint has unexpected parameters: {sorted(state)[:5]}")
