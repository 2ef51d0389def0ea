"""The operator kernels behind every model graph.

Everything downstream (model building, training, attack simulation) runs on
the eleven operator kinds defined here. Each kind is declared once, as one
entry of the operator table ``_OPS``: the class of its static parameters
(which checks its fields when made, by the rules they declare), its
output-shape rule, its weight and buffer shapes (in checkpoint order), its
multiply count, and its forward and backward kernels. The public functions
below are lookups in that table. Kernels are pure functions over batched
float64 numpy arrays (leading axis = batch). :func:`one_blas_thread` runs
a block of them with the loaded OpenBLAS on one thread.

Data layout conventions:
  - images are (H, W, C), channels last
  - FC accepts any rank and flattens trailing dimensions internally
  - SOFTMAX and BN act on the last axis
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache, partial
from typing import Callable, Literal

import numpy as np

from .fields import Checked, Count

BN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


class ShapeError(ValueError):
    """Operator inputs cannot be reconciled with the node's parameters."""


class OperatorKind(Enum):
    CONV = "conv"
    FC = "fc"
    RELU = "relu"
    GELU = "gelu"
    BN = "bn"
    MAXPOOL = "maxpool"
    AVGPOOL = "avgpool"
    ADD = "add"
    CONCAT = "concat"
    SOFTMAX = "softmax"
    FLATTEN = "flatten"

    # members are singletons, so identity is equality; a C-level hash spares
    # every `_OPS[kind]` lookup the Python-level Enum.__hash__
    __hash__ = object.__hash__


# ---------------------------------------------------------------------------
# static parameters: one frozen dataclass per kind that has any, whose
# fields declare their rules (as `fields.Checked`, it checks them when made)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvParams(Checked):
    out_channels: Count
    kernel: tuple[Count, Count]  # (height, width)
    stride: Count = 1
    padding: Literal["same", "valid"] = "same"
    bias: bool = True


@dataclass(frozen=True)
class FCParams(Checked):
    out_features: Count
    bias: bool = True


@dataclass(frozen=True)
class PoolParams(Checked):
    """The params of MAXPOOL and AVGPOOL."""

    kernel: tuple[Count, Count]  # (height, width)
    stride: Count | None = None  # None: the kernel's height

    def __post_init__(self):
        super().__post_init__()
        if self.stride is None:
            object.__setattr__(self, "stride", self.kernel[0])


Params = ConvParams | FCParams | PoolParams | None


# ---------------------------------------------------------------------------
# shape rules (shapes exclude the batch axis)
# ---------------------------------------------------------------------------

def _pool_geometry(kind, params, shape):
    if len(shape) != 3:
        raise ShapeError(f"{kind.name} expects an (H, W, C) input, got {shape}")
    h, w, c = shape
    kh, kw = params.kernel
    s = params.stride
    if kh > h or kw > w:
        raise ShapeError(f"{kind.name}: window {kh}x{kw} larger than input {shape}")
    return (h - kh) // s + 1, (w - kw) // s + 1, kh, kw, s


def _conv_geometry(params, shape):
    if len(shape) != 3:
        raise ShapeError(f"CONV expects an (H, W, C) input, got {shape}")
    h, w, _ = shape
    kh, kw = params.kernel
    s = params.stride
    if params.padding == "same":
        out_h = -(-h // s)
        out_w = -(-w // s)
        pad_h = max((out_h - 1) * s + kh - h, 0)
        pad_w = max((out_w - 1) * s + kw - w, 0)
        pads = (pad_h // 2, pad_h - pad_h // 2, pad_w // 2, pad_w - pad_w // 2)
    else:  # "valid"
        if kh > h or kw > w:
            raise ShapeError(f"CONV: kernel {kh}x{kw} larger than input {shape}")
        out_h = (h - kh) // s + 1
        out_w = (w - kw) // s + 1
        pads = (0, 0, 0, 0)
    return out_h, out_w, kh, kw, s, pads


def _same_shape(params, input_shapes):
    (shape,) = input_shapes
    return shape


def _flatten_shape(params, input_shapes):
    (shape,) = input_shapes
    return (int(np.prod(shape)),)


def _fc_shape(params, input_shapes):
    (shape,) = input_shapes
    return (params.out_features,)


def _conv_shape(params, input_shapes):
    (shape,) = input_shapes
    out_h, out_w, *_ = _conv_geometry(params, shape)
    return (out_h, out_w, params.out_channels)


def _pool_shape(kind, params, input_shapes):
    (shape,) = input_shapes
    out_h, out_w, _, _, _ = _pool_geometry(kind, params, shape)
    return (out_h, out_w, shape[2])


def _add_shape(params, input_shapes):
    if len(input_shapes) < 2:
        raise ShapeError(f"ADD needs at least two inputs, got {len(input_shapes)}")
    first = input_shapes[0]
    for other in input_shapes[1:]:
        if other != first:
            raise ShapeError(f"ADD: mismatched input shapes {first} vs {other}")
    return first


def _concat_shape(params, input_shapes):
    if len(input_shapes) < 2:
        raise ShapeError(f"CONCAT needs at least two inputs, got {len(input_shapes)}")
    first = input_shapes[0]
    for other in input_shapes[1:]:
        if other[:-1] != first[:-1]:
            raise ShapeError(f"CONCAT: mismatched input shapes {first} vs {other}")
    return first[:-1] + (sum(s[-1] for s in input_shapes),)


# ---------------------------------------------------------------------------
# trainable tensors and multiply counts
# ---------------------------------------------------------------------------

def _no_tensors(params, input_shapes):
    return {}


def _with_bias(params, weight_shape):
    out = {"weight": weight_shape}
    if params.bias:
        out["bias"] = (weight_shape[-1],)
    return out


def _conv_weights(params, input_shapes):
    (shape,) = input_shapes
    kh, kw = params.kernel
    return _with_bias(params, (kh, kw, shape[2], params.out_channels))


def _fc_weights(params, input_shapes):
    (shape,) = input_shapes
    return _with_bias(params, (int(np.prod(shape)), params.out_features))


def _bn_weights(params, input_shapes):
    (shape,) = input_shapes
    return {"gamma": (shape[-1],), "beta": (shape[-1],)}


def _bn_buffers(params, input_shapes):
    (shape,) = input_shapes
    return {"running_mean": (shape[-1],), "running_var": (shape[-1],)}


def _no_madd(params, input_shapes):
    return 0


def _conv_madd(params, input_shapes):
    # one multiply per kernel tap and output element; padded taps count too
    (shape,) = input_shapes
    out_h, out_w, kh, kw, _, _ = _conv_geometry(params, shape)
    return out_h * out_w * params.out_channels * kh * kw * shape[2]


def _fc_madd(params, input_shapes):
    (shape,) = input_shapes
    return int(np.prod(shape)) * params.out_features


def _bn_madd(params, input_shapes):
    (shape,) = input_shapes
    return int(np.prod(shape))


# ---------------------------------------------------------------------------
# kernels (batched: arrays carry a leading batch axis)
#
# forward:  (params, weights, buffers, inputs, ctx, geometry) -> output
# backward: (params, weights, buffers, inputs, output, grad, ctx, geometry,
#            *, wgrads, input_grad) -> per-input grads
#           (`wgrads` is None, or one array per weight, of its shape, that
#           the kernel writes the weight's gradient into; what is skipped:
#           see op_backward; `geometry` is the kind's geometry tuple, None
#           for the kinds that have none, or in a stacked pass SingleRows)
# ---------------------------------------------------------------------------

class SingleRows(tuple):
    """An FC's or 1x1-output CONV's geometry in a stacked pass."""

    @staticmethod
    def matmul(a, b):  # each row of `a` with the bits of its own 1-row matmul
        return a @ b if len(a) == 1 else (a[:, None, :] @ b)[:, 0, :]


def _windows(x, kh, kw, stride, out_h, out_w):
    """(n, oh, ow, kh, kw, c) strided view of the windows of a contiguous
    `x`; np.ndarray on x's buffer costs far less per call than as_strided."""
    n, _, _, c = x.shape
    sn, sh, sw, sc = x.strides
    return np.ndarray((n, out_h, out_w, kh, kw, c), x.dtype, buffer=x,
                      strides=(sn, sh * stride, sw * stride, sh, sw, sc))


def _im2col(x, kh, kw, stride, out_h, out_w):
    return _windows(np.ascontiguousarray(x), kh, kw, stride, out_h, out_w).copy()


def _col2im(gcols, padded_shape, kh, kw, stride, out_h, out_w):
    """Sum the (n, oh, ow, kh, kw, c) column gradients back onto the
    padded image: window (a, b) tap (i, j) lands at (a*s + i, b*s + j).

    One assignment writes every tap into its own zeroed image, shifted by
    (i, j), and one reduce adds the kh*kw images. The reduce runs over the
    outer axis, so each element is summed in (i, j) order from +0.0, the
    order and the roundings of a per-tap `+=` onto zeros."""
    n, hp, wp, c = padded_shape
    taps = np.zeros((kh * kw, n, hp, wp, c), dtype=gcols.dtype)
    tap, sn, sh, sw, sc = taps.strides
    shifted = np.ndarray((kh, kw, n, out_h, out_w, c), taps.dtype, buffer=taps,
                         strides=(kw * tap + sh, tap + sw, sn,
                                  stride * sh, stride * sw, sc))
    shifted[...] = gcols.transpose(3, 4, 0, 1, 2, 5)
    return np.add.reduce(taps, axis=0, initial=0.0)


def _conv_cols(x, out_h, out_w, kh, kw, s, pads):
    """im2col columns of `x` zero-padded by `pads` (top, bottom, left, right)."""
    pt, pb, pl, pr = pads
    if any(pads):
        n, h, w, c = x.shape
        xp = np.zeros((n, h + pt + pb, w + pl + pr, c), dtype=x.dtype)
        xp[:, pt:pt + h, pl:pl + w, :] = x
        x = xp
    return _im2col(x, kh, kw, s, out_h, out_w)


def _conv_forward(params, weights, buffers, inputs, ctx, geometry):
    (x,) = inputs
    out_h, out_w, kh, kw, s, pads = geometry
    cols = _conv_cols(x, out_h, out_w, kh, kw, s, pads)
    if ctx is not None:
        ctx["cols"] = cols
    w = weights["weight"]
    cout = w.shape[3]
    matmul = geometry.matmul if geometry.__class__ is SingleRows else np.matmul
    y = matmul(cols.reshape(x.shape[0] * out_h * out_w, -1), w.reshape(-1, cout))
    y = y.reshape(x.shape[0], out_h, out_w, cout)
    if "bias" in weights:
        y += weights["bias"]
    return y


def _conv_backward(params, weights, buffers, inputs, output, grad, ctx,
                   geometry, *, wgrads, input_grad):
    (x,) = inputs
    out_h, out_w, kh, kw, s, pads = geometry
    w = weights["weight"]
    cout = w.shape[3]
    gflat = grad.reshape(-1, cout)
    if wgrads is not None:
        cols = (ctx or {}).get("cols")
        if cols is None:
            cols = _conv_cols(x, out_h, out_w, kh, kw, s, pads)
        cflat = cols.reshape(gflat.shape[0], -1)
        np.matmul(cflat.T, gflat, out=wgrads["weight"].reshape(-1, cout))
        if "bias" in wgrads:
            np.add.reduce(gflat, axis=0, out=wgrads["bias"])
    if not input_grad:
        return [None]
    n, h, wd, c = x.shape
    matmul = geometry.matmul if geometry.__class__ is SingleRows else np.matmul
    gcols = matmul(gflat, w.reshape(-1, cout).T).reshape(n, out_h, out_w, kh, kw, c)
    pt, pb, pl, pr = pads
    gxp = _col2im(gcols, (n, h + pt + pb, wd + pl + pr, c), kh, kw, s, out_h, out_w)
    return [gxp[:, pt:pt + h, pl:pl + wd, :]]


def _pool_windows(x, out_h, out_w, kh, kw, s):
    """(kh*kw, n, oh, ow, c) contiguous copy of the pool windows of `x`,
    tap-first with the taps row-major over (i, j): a reduce over axis 0
    runs over whole slabs, one tap after another in (i, j) order."""
    n, _, _, c = x.shape
    win = _windows(np.ascontiguousarray(x), kh, kw, s, out_h, out_w)
    return win.transpose(3, 4, 0, 1, 2, 5).reshape(kh * kw, n, out_h, out_w, c)


@lru_cache(maxsize=32)
def _pool_offsets(shape, out_h, out_w, kh, kw, s):
    """Flat positions in an input of `shape` (n, H, W, C): each tap's offset
    from its window's first element, shaped (kh*kw,), and each window's
    first element, shaped (n, oh, ow, c). Read-only, as they are shared."""
    n, h, w, c = shape
    taps = (np.arange(kh)[:, None] * (w * c) + np.arange(kw) * c).reshape(-1)
    base = (np.arange(n)[:, None, None, None] * (h * w * c)
            + np.arange(out_h)[:, None, None] * (s * w * c)
            + np.arange(out_w)[:, None] * (s * c) + np.arange(c))
    taps.flags.writeable = base.flags.writeable = False
    return taps, base


def _pool_winners(win, shape, geometry):
    """Flat input position of each window's first maximum (argmax breaks
    ties towards the first tap, row-major in the window)."""
    taps, base = _pool_offsets(shape, *geometry)
    return taps[win.argmax(axis=0)] + base


def _pool_scatter(gwin, shape, out_h, out_w, kh, kw, s):
    """Input gradient of a pool from per-window gradients `gwin`, shaped
    (n, oh, ow, kh, kw, c) or broadcastable to it: each window's entries
    are added onto zeros (so a -0.0 gradient lands as +0.0)."""
    if s >= kh and s >= kw:
        # the windows do not overlap: one += through their view of the zeros
        gx = np.zeros(shape)
        windows = _windows(gx, kh, kw, s, out_h, out_w)
        windows += gwin
        return gx
    n, _, _, c = shape
    gwin = np.broadcast_to(gwin, (n, out_h, out_w, kh, kw, c))
    return _col2im(gwin, shape, kh, kw, s, out_h, out_w)


def _maxpool_forward(params, weights, buffers, inputs, ctx, geometry):
    win = _pool_windows(inputs[0], *geometry)
    if ctx is not None:
        ctx["winner"] = _pool_winners(win, inputs[0].shape, geometry)
    return np.maximum.reduce(win, axis=0)


def _maxpool_backward(params, weights, buffers, inputs, output, grad, ctx,
                      geometry, *, wgrads, input_grad):
    (x,) = inputs
    out_h, out_w, kh, kw, s = geometry
    winner = (ctx or {}).get("winner")
    if winner is None:
        winner = _pool_winners(_pool_windows(x, *geometry), x.shape, geometry)
    if s >= kh and s >= kw:
        # no two windows share an input: each gradient lands on its winner
        # (`+ 0.0` turns a -0.0 into the +0.0 an add onto zeros gives)
        gx = np.zeros(x.shape)
        gx.reshape(-1)[winner] = grad + 0.0
        return [gx]
    taps, base = _pool_offsets(x.shape, *geometry)
    first = taps[:, None, None, None, None] + base == winner
    gwin = np.where(first, grad, 0.0).reshape((kh, kw) + grad.shape)
    return [_col2im(gwin.transpose(2, 3, 4, 0, 1, 5), x.shape,
                        kh, kw, s, out_h, out_w)]


def _avgpool_forward(params, weights, buffers, inputs, ctx, geometry):
    _, _, kh, kw, _ = geometry
    return np.add.reduce(_pool_windows(inputs[0], *geometry), axis=0) / (kh * kw)


def _avgpool_backward(params, weights, buffers, inputs, output, grad, ctx,
                      geometry, *, wgrads, input_grad):
    _, _, kh, kw, _ = geometry
    gwin = grad[:, :, :, None, None, :] / (kh * kw)
    return [_pool_scatter(gwin, inputs[0].shape, *geometry)]


def _relu_forward(params, weights, buffers, inputs, ctx, geometry):
    return np.maximum(inputs[0], 0.0)


def _relu_backward(params, weights, buffers, inputs, output, grad, ctx,
                   geometry, *, wgrads, input_grad):
    return [grad * (inputs[0] > 0)]


def _gelu_forward(params, weights, buffers, inputs, ctx, geometry):
    (x,) = inputs
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_A * x ** 3)))


def _gelu_backward(params, weights, buffers, inputs, output, grad, ctx,
                   geometry, *, wgrads, input_grad):
    (x,) = inputs
    u = _GELU_C * (x + _GELU_A * x ** 3)
    t = np.tanh(u)
    sech2 = 1.0 - t * t
    return [grad * (0.5 * (1.0 + t)
                        + 0.5 * x * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * x ** 2))]


# The kernels call the ufunc reductions directly: the ndarray methods
# reach the same reductions through Python wrappers that cost microseconds
# a call, which tiny-FC SGD steps pay thousands of times. For the same
# reason they work in place on the temporaries they make themselves (never
# on an input, a weight or a gradient they were handed): an in-place ufunc
# rounds exactly as the one that allocates.

def _softmax_forward(params, weights, buffers, inputs, ctx, geometry):
    (x,) = inputs
    e = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _softmax_backward(params, weights, buffers, inputs, output, grad, ctx,
                      geometry, *, wgrads, input_grad):
    g = grad - np.add.reduce(grad * output, axis=-1, keepdims=True)
    g *= output
    return [g]


def _bn_forward(params, weights, buffers, inputs, ctx, geometry):
    inv = 1.0 / np.sqrt(buffers["running_var"] + BN_EPS)
    # gamma * (x - mean) * inv + beta, on the one temporary
    y = inputs[0] - buffers["running_mean"]
    np.multiply(weights["gamma"], y, out=y)
    y *= inv
    y += weights["beta"]
    return y


def _bn_backward(params, weights, buffers, inputs, output, grad, ctx,
                 geometry, *, wgrads, input_grad):
    (x,) = inputs
    inv = 1.0 / np.sqrt(buffers["running_var"] + BN_EPS)
    if wgrads is not None:
        xhat = (x - buffers["running_mean"]) * inv
        axes = tuple(range(x.ndim - 1))
        np.add.reduce(grad * xhat, axis=axes, out=wgrads["gamma"])
        np.add.reduce(grad, axis=axes, out=wgrads["beta"])
    if not input_grad:
        return [None]
    return [grad * weights["gamma"] * inv]


def _fc_forward(params, weights, buffers, inputs, ctx, geometry):
    (x,) = inputs
    if x.ndim != 2:
        x = x.reshape(x.shape[0], -1)
    w = weights["weight"]
    try:
        y = x @ w if geometry is None else geometry.matmul(x, w)
    except ValueError:
        raise ShapeError(
            f"FC: input of {x.shape[1]} features does not match weight "
            f"{w.shape}") from None
    bias = weights.get("bias")
    if bias is not None:
        y += bias
    return y


def _fc_backward(params, weights, buffers, inputs, output, grad, ctx,
                 geometry, *, wgrads, input_grad):
    (x,) = inputs
    if wgrads is not None:
        x2 = x if x.ndim == 2 else x.reshape(x.shape[0], -1)
        np.matmul(x2.T, grad, out=wgrads["weight"])
        if "bias" in wgrads:
            np.add.reduce(grad, axis=0, out=wgrads["bias"])
    if not input_grad:
        return [None]
    matmul = np.matmul if geometry is None else geometry.matmul
    return [matmul(grad, weights["weight"].T).reshape(x.shape)]


def _add_forward(params, weights, buffers, inputs, ctx, geometry):
    if len({a.shape for a in inputs}) != 1:
        raise ShapeError(f"ADD: mismatched shapes {[a.shape for a in inputs]}")
    out = inputs[0].copy()
    for a in inputs[1:]:
        out += a
    return out


def _add_backward(params, weights, buffers, inputs, output, grad, ctx,
                  geometry, *, wgrads, input_grad):
    return [grad] * len(inputs)


def _concat_forward(params, weights, buffers, inputs, ctx, geometry):
    return np.concatenate(inputs, axis=-1)


def _concat_backward(params, weights, buffers, inputs, output, grad, ctx,
                     geometry, *, wgrads, input_grad):
    offsets = np.cumsum([a.shape[-1] for a in inputs])[:-1]
    return list(np.split(grad, offsets, axis=-1))


def _flatten_forward(params, weights, buffers, inputs, ctx, geometry):
    return inputs[0].reshape(inputs[0].shape[0], -1)


def _flatten_backward(params, weights, buffers, inputs, output, grad, ctx,
                      geometry, *, wgrads, input_grad):
    return [grad.reshape(inputs[0].shape)]


# ---------------------------------------------------------------------------
# the operator table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Op:
    """Everything the engine knows about one operator kind."""

    shape: Callable       # (params, input_shapes) -> output shape
    forward: Callable     # kernel signatures: see the kernels section
    backward: Callable
    params: type | None = None        # the params class; None: it takes none
    weights: Callable = _no_tensors   # (params, input_shapes) -> {name: shape},
    buffers: Callable = _no_tensors   # in checkpoint order
    madd: Callable = _no_madd         # (params, input_shapes) -> multiplies
    geometry: Callable | None = None  # (params, input_shape) -> the kernels'
                                      # static window geometry (CONV, pools)


_OPS: dict[OperatorKind, _Op] = {
    OperatorKind.CONV: _Op(
        _conv_shape, _conv_forward, _conv_backward, params=ConvParams,
        weights=_conv_weights, madd=_conv_madd, geometry=_conv_geometry),
    OperatorKind.FC: _Op(
        _fc_shape, _fc_forward, _fc_backward, params=FCParams,
        weights=_fc_weights, madd=_fc_madd),
    OperatorKind.RELU: _Op(_same_shape, _relu_forward, _relu_backward),
    OperatorKind.GELU: _Op(_same_shape, _gelu_forward, _gelu_backward),
    OperatorKind.BN: _Op(
        _same_shape, _bn_forward, _bn_backward,
        weights=_bn_weights, buffers=_bn_buffers, madd=_bn_madd),
    OperatorKind.MAXPOOL: _Op(
        partial(_pool_shape, OperatorKind.MAXPOOL), _maxpool_forward,
        _maxpool_backward, params=PoolParams,
        geometry=partial(_pool_geometry, OperatorKind.MAXPOOL)),
    OperatorKind.AVGPOOL: _Op(
        partial(_pool_shape, OperatorKind.AVGPOOL), _avgpool_forward,
        _avgpool_backward, params=PoolParams,
        geometry=partial(_pool_geometry, OperatorKind.AVGPOOL)),
    OperatorKind.ADD: _Op(_add_shape, _add_forward, _add_backward),
    OperatorKind.CONCAT: _Op(_concat_shape, _concat_forward, _concat_backward),
    OperatorKind.SOFTMAX: _Op(_same_shape, _softmax_forward, _softmax_backward),
    OperatorKind.FLATTEN: _Op(_flatten_shape, _flatten_forward, _flatten_backward),
}


# ---------------------------------------------------------------------------
# public interface: one table lookup each
# ---------------------------------------------------------------------------

def infer_shape(kind: OperatorKind, params: Params,
                input_shapes: list[tuple[int, ...]]):
    """Output shape of one operator application (shapes exclude the batch axis)."""
    return _OPS[kind].shape(params, input_shapes)


def params_class(kind: OperatorKind) -> type | None:
    """The class of a `kind` node's static params; None for a kind without."""
    return _OPS[kind].params


def weight_shapes(kind: OperatorKind, params: Params, input_shapes) -> dict[str, tuple]:
    """Trainable tensor shapes by name, in checkpoint order."""
    return _OPS[kind].weights(params, input_shapes)


def buffer_shapes(kind: OperatorKind, params: Params, input_shapes) -> dict[str, tuple]:
    """Non-trainable (BN running statistics) shapes by name, in checkpoint order."""
    return _OPS[kind].buffers(params, input_shapes)


def madd(kind: OperatorKind, params: Params, input_shapes) -> int:
    """Multiplies of one operator application.

    Convention: CONV = H_out*W_out*C_out*K_h*K_w*C_in; FC = fan_in*fan_out;
    BN = one multiply per element; activations, pools, ADD, CONCAT, SOFTMAX
    and FLATTEN count zero.
    """
    return _OPS[kind].madd(params, input_shapes)


def kernel_geometry(kind: OperatorKind, params: Params, input_shape, single_rows=False):
    """The static window geometry the kernels of a CONV or pool read, for
    an input of `input_shape` (batch axis excluded); None for other kinds.

    CONV: (out_h, out_w, kh, kw, stride, (top, bottom, left, right) pads);
    MAXPOOL and AVGPOOL: (out_h, out_w, kh, kw, stride).

    With `single_rows`, that of a stacked pass, whose rows keep their 1-row
    bits: a :class:`SingleRows` where the matmul has one row per example.
    """
    rule = _OPS[kind].geometry
    geometry = None if rule is None else rule(params, tuple(input_shape))
    if single_rows and (kind is OperatorKind.FC or kind is OperatorKind.CONV
                        and geometry[0] * geometry[1] == 1):
        return SingleRows(geometry or ())
    return geometry


def init_weights(kind, params, input_shapes, rng: np.random.Generator):
    """Glorot-uniform weights, zero biases, identity BN."""
    weights = {}
    for name, shape in weight_shapes(kind, params, input_shapes).items():
        if name == "bias" or name == "beta":
            weights[name] = np.zeros(shape)
        elif name == "gamma":
            weights[name] = np.ones(shape)
        else:  # (..., fan_in, fan_out): CONV (kh, kw, cin, cout), FC (din, dout)
            receptive = math.prod(shape[:-2])
            fan_in, fan_out = receptive * shape[-2], receptive * shape[-1]
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            weights[name] = rng.uniform(-bound, bound, size=shape)
    buffers = {}
    for name, shape in buffer_shapes(kind, params, input_shapes).items():
        buffers[name] = np.ones(shape) if name == "running_var" else np.zeros(shape)
    return weights, buffers


def op_forward(kind, params, weights, buffers, inputs: list[np.ndarray],
               ctx: dict | None = None, geometry=None) -> np.ndarray:
    """Run one operator on batched arrays.

    `ctx`, when given, is a fresh dict that belongs to this one call: the
    kernel stores in it the workspace its backward can reuse (CONV: the
    im2col columns, MAXPOOL: the flat input position of each window's
    first maximum). Without it the kernel is pure and keeps nothing.

    `geometry` is what :func:`kernel_geometry` returns for this node and
    input shape; a caller that runs the node many times (a `Network`
    plan) passes it precomputed. Left out, it is computed here by the
    same rule.
    """
    op = _OPS[kind]
    if geometry is None and op.geometry is not None:
        geometry = op.geometry(params, inputs[0].shape[1:])
    return op.forward(params, weights, buffers, inputs, ctx, geometry)


def op_backward(kind, params, weights, buffers, inputs, output, grad,
                ctx: dict | None = None, geometry=None, *,
                weight_grads: bool = True, input_grad: bool = True,
                out: dict | None = None):
    """Gradients of one operator: returns (weight grads, per-input grads).

    `ctx` is the dict the matching :func:`op_forward` filled; without it
    (or with an empty one) the kernel recomputes its workspace from `inputs`.
    `geometry` is as for :func:`op_forward`.

    The flags say which gradients the caller reads. With
    `weight_grads=False` no weight gradient is computed and the first item
    is ``{}``. With `input_grad=False` the kinds with weights (CONV, FC, BN)
    compute no input gradient and return ``None`` for each input; the
    other kinds compute only input gradients and return them anyway. Asked
    for, each gradient has the same bits either way.

    `out`, when given, holds one array per weight, of the weight's shape
    (a `Network` passes views of its gradient vector): the weight gradients
    are written into those arrays, and `out` is the first item returned.
    Without it they are fresh arrays.
    """
    op = _OPS[kind]
    if geometry is None and op.geometry is not None:
        geometry = op.geometry(params, inputs[0].shape[1:])
    if not weight_grads:
        out = None
    elif out is None:
        out = {name: np.empty_like(w) for name, w in weights.items()}
    igrads = op.backward(params, weights, buffers, inputs, output, grad, ctx,
                         geometry, wgrads=out, input_grad=input_grad)
    return ({} if out is None else out), igrads


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

# (getter, setter) pairs, in the order tried: numpy's own wheels ship
# scipy-openblas, other builds link a system OpenBLAS with or without the
# 64-bit-integer suffix
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class OpenBlasThreads:
    """The thread-count calls of the loaded OpenBLAS, and the open
    :func:`one_blas_thread` blocks of this process.

    The count is process-wide, so the blocks are counted under a lock: the
    first to open saves the count and sets 1, the last to close restores
    it, in whatever order and thread they close.
    """

    def __init__(self, symbol: str, getter: Callable[[], int],
                 setter: Callable[[int], None]):
        self.symbol = symbol  # the setter's name
        self.get = getter
        self.set = setter
        self._lock = threading.Lock()
        self._open = 0
        self._saved = 0

    def pin(self) -> None:
        with self._lock:
            if not self._open:
                self._saved = self.get()
                self.set(1)
            self._open += 1

    def unpin(self) -> None:
        with self._lock:
            self._open -= 1
            if not self._open:
                self.set(self._saved)


@cache
def openblas_threads() -> OpenBlasThreads | None:
    """The thread-count calls of the OpenBLAS mapped into this process,
    looked up once; None where none is found (no ``/proc/self/maps``, as on
    macOS, or another BLAS, such as MKL)."""
    import ctypes  # here, so that importing the package loads no ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return OpenBlasThreads(set_name, getter, setter)
    return None


@contextmanager
def one_blas_thread():
    """Run the block with the loaded OpenBLAS on one thread, and give the
    count it had back when the block ends, however it ends. Blocks nest.

    The engine's matmuls are too small to gain from a second BLAS thread:
    OpenBLAS splits a GEMM's rows and columns across threads, never its
    reduction, so one thread gives the same bits, and spares the CPU time
    the second thread spends splitting and spin-waiting. Does nothing where
    :func:`openblas_threads` finds no OpenBLAS.
    """
    blas = openblas_threads()
    if blas is None:
        yield
        return
    blas.pin()
    try:
        yield
    finally:
        blas.unpin()
