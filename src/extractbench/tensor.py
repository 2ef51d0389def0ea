"""Dense float64 tensors and the operator kernels behind every model graph.

Everything downstream (model building, training, attack simulation) runs on
the eleven operator kinds defined here. Kernels are pure functions over
batched numpy arrays (leading axis = batch); the public :func:`forward`
wrapper applies a single operator to unbatched tensors, which is the level
the shape examples and hand calculations work at.

Data layout conventions:
  - images are (H, W, C), channels last
  - FC accepts any rank and flattens trailing dimensions internally
  - SOFTMAX and BN act on the last axis
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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


@dataclass(frozen=True)
class Tensor:
    """Flat row-major float64 buffer plus its logical shape."""

    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        if any(s <= 0 for s in self.shape):
            raise ShapeError(f"non-positive dimension in shape {self.shape}")
        if self.data.size != int(np.prod(self.shape)):
            raise ShapeError(
                f"buffer of {self.data.size} values does not fill shape {self.shape}"
            )

    @staticmethod
    def from_array(array) -> "Tensor":
        arr = np.ascontiguousarray(array, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        return Tensor(tuple(arr.shape), arr.reshape(-1))

    def to_array(self) -> np.ndarray:
        return self.data.reshape(self.shape)


# Canonical tensor order per kind, used by checkpoint serialization.
PARAM_ORDER: dict[OperatorKind, tuple[str, ...]] = {
    OperatorKind.CONV: ("weight", "bias"),
    OperatorKind.FC: ("weight", "bias"),
    OperatorKind.BN: ("gamma", "beta"),
}
BUFFER_ORDER: dict[OperatorKind, tuple[str, ...]] = {
    OperatorKind.BN: ("running_mean", "running_var"),
}

_ALLOWED_PARAMS: dict[OperatorKind, set[str]] = {
    OperatorKind.CONV: {"out_channels", "kernel", "stride", "padding", "bias"},
    OperatorKind.FC: {"out_features", "bias"},
    OperatorKind.MAXPOOL: {"kernel", "stride"},
    OperatorKind.AVGPOOL: {"kernel", "stride"},
}


def _check_params(kind: OperatorKind, params: dict) -> None:
    allowed = _ALLOWED_PARAMS.get(kind, set())
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"{kind.name}: unknown parameter(s) {sorted(unknown)}")


def _pool_geometry(kind, params, shape):
    if len(shape) != 3:
        raise ShapeError(f"{kind.name} expects an (H, W, C) input, got {shape}")
    h, w, c = shape
    kh, kw = params["kernel"]
    s = params.get("stride", kh)
    if kh > h or kw > w:
        raise ShapeError(f"{kind.name}: window {kh}x{kw} larger than input {shape}")
    return (h - kh) // s + 1, (w - kw) // s + 1, kh, kw, s


def _conv_geometry(params, shape):
    if len(shape) != 3:
        raise ShapeError(f"CONV expects an (H, W, C) input, got {shape}")
    h, w, _ = shape
    kh, kw = params["kernel"]
    s = params.get("stride", 1)
    padding = params.get("padding", "same")
    if padding == "same":
        out_h = -(-h // s)
        out_w = -(-w // s)
        pad_h = max((out_h - 1) * s + kh - h, 0)
        pad_w = max((out_w - 1) * s + kw - w, 0)
        pads = (pad_h // 2, pad_h - pad_h // 2, pad_w // 2, pad_w - pad_w // 2)
    elif padding == "valid":
        if kh > h or kw > w:
            raise ShapeError(f"CONV: kernel {kh}x{kw} larger than input {shape}")
        out_h = (h - kh) // s + 1
        out_w = (w - kw) // s + 1
        pads = (0, 0, 0, 0)
    else:
        raise ValueError(f"CONV: unknown padding mode {padding!r}")
    return out_h, out_w, kh, kw, s, pads


def infer_shape(kind: OperatorKind, params: dict, input_shapes: list[tuple[int, ...]]):
    """Output shape of one operator application (shapes exclude the batch axis)."""
    _check_params(kind, params)
    if kind in (OperatorKind.RELU, OperatorKind.GELU, OperatorKind.SOFTMAX,
                OperatorKind.BN):
        (shape,) = input_shapes
        return shape
    if kind is OperatorKind.FLATTEN:
        (shape,) = input_shapes
        return (int(np.prod(shape)),)
    if kind is OperatorKind.FC:
        (shape,) = input_shapes
        return (int(params["out_features"]),)
    if kind is OperatorKind.CONV:
        (shape,) = input_shapes
        out_h, out_w, *_ = _conv_geometry(params, shape)
        return (out_h, out_w, int(params["out_channels"]))
    if kind in (OperatorKind.MAXPOOL, OperatorKind.AVGPOOL):
        (shape,) = input_shapes
        out_h, out_w, _, _, _ = _pool_geometry(kind, params, shape)
        return (out_h, out_w, shape[2])
    if kind is OperatorKind.ADD:
        if len(input_shapes) < 2:
            raise ShapeError(f"ADD needs at least two inputs, got {len(input_shapes)}")
        first = input_shapes[0]
        for other in input_shapes[1:]:
            if other != first:
                raise ShapeError(f"ADD: mismatched input shapes {first} vs {other}")
        return first
    if kind is OperatorKind.CONCAT:
        if len(input_shapes) < 2:
            raise ShapeError(f"CONCAT needs at least two inputs, got {len(input_shapes)}")
        first = input_shapes[0]
        for other in input_shapes[1:]:
            if other[:-1] != first[:-1]:
                raise ShapeError(f"CONCAT: mismatched input shapes {first} vs {other}")
        return first[:-1] + (sum(s[-1] for s in input_shapes),)
    raise ValueError(f"unknown operator kind {kind}")


def weight_shapes(kind: OperatorKind, params: dict, input_shapes) -> dict[str, tuple]:
    if kind is OperatorKind.CONV:
        (shape,) = input_shapes
        kh, kw = params["kernel"]
        cout = int(params["out_channels"])
        out = {"weight": (kh, kw, shape[2], cout)}
        if params.get("bias", True):
            out["bias"] = (cout,)
        return out
    if kind is OperatorKind.FC:
        (shape,) = input_shapes
        din = int(np.prod(shape))
        dout = int(params["out_features"])
        out = {"weight": (din, dout)}
        if params.get("bias", True):
            out["bias"] = (dout,)
        return out
    if kind is OperatorKind.BN:
        (shape,) = input_shapes
        return {"gamma": (shape[-1],), "beta": (shape[-1],)}
    return {}


def buffer_shapes(kind: OperatorKind, params: dict, input_shapes) -> dict[str, tuple]:
    if kind is OperatorKind.BN:
        (shape,) = input_shapes
        return {"running_mean": (shape[-1],), "running_var": (shape[-1],)}
    return {}


def init_weights(kind, params, input_shapes, rng: np.random.Generator):
    """Glorot-uniform weights, zero biases, identity BN."""
    weights = {}
    for name, shape in weight_shapes(kind, params, input_shapes).items():
        if name == "bias" or name == "beta":
            weights[name] = np.zeros(shape)
        elif name == "gamma":
            weights[name] = np.ones(shape)
        else:
            if kind is OperatorKind.CONV:
                kh, kw, cin, cout = shape
                fan_in, fan_out = kh * kw * cin, kh * kw * cout
            else:
                fan_in, fan_out = shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            weights[name] = rng.uniform(-bound, bound, size=shape)
    buffers = {}
    for name, shape in buffer_shapes(kind, params, input_shapes).items():
        buffers[name] = np.ones(shape) if name == "running_var" else np.zeros(shape)
    return weights, buffers


# ---------------------------------------------------------------------------
# kernels (batched: arrays carry a leading batch axis)
# ---------------------------------------------------------------------------

def _im2col(x, kh, kw, stride, out_h, out_w):
    n, _, _, c = x.shape
    cols = np.empty((n, out_h, out_w, kh, kw, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j, :] = x[
                :, i:i + stride * (out_h - 1) + 1:stride,
                j:j + stride * (out_w - 1) + 1:stride, :]
    return cols


def _col2im(gcols, padded_shape, kh, kw, stride, out_h, out_w):
    gx = np.zeros(padded_shape, dtype=gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, i:i + stride * (out_h - 1) + 1:stride,
               j:j + stride * (out_w - 1) + 1:stride, :] += gcols[:, :, :, i, j, :]
    return gx


def _conv_cols(x, out_h, out_w, kh, kw, s, pads):
    """im2col columns of `x` zero-padded by `pads` (top, bottom, left, right)."""
    pt, pb, pl, pr = pads
    if any(pads):
        n, h, w, c = x.shape
        xp = np.zeros((n, h + pt + pb, w + pl + pr, c), dtype=x.dtype)
        xp[:, pt:pt + h, pl:pl + w, :] = x
        x = xp
    return _im2col(x, kh, kw, s, out_h, out_w)


def _conv_forward(params, weights, x, ctx):
    out_h, out_w, kh, kw, s, pads = _conv_geometry(params, x.shape[1:])
    cols = _conv_cols(x, out_h, out_w, kh, kw, s, pads)
    if ctx is not None:
        ctx["cols"] = cols
    w = weights["weight"]
    cout = w.shape[3]
    y = cols.reshape(x.shape[0] * out_h * out_w, -1) @ w.reshape(-1, cout)
    y = y.reshape(x.shape[0], out_h, out_w, cout)
    if "bias" in weights:
        y = y + weights["bias"]
    return y


def _conv_backward(params, weights, x, grad, ctx):
    out_h, out_w, kh, kw, s, pads = _conv_geometry(params, x.shape[1:])
    cols = (ctx or {}).get("cols")
    if cols is None:
        cols = _conv_cols(x, out_h, out_w, kh, kw, s, pads)
    w = weights["weight"]
    cout = w.shape[3]
    gflat = grad.reshape(-1, cout)
    cflat = cols.reshape(gflat.shape[0], -1)
    wgrads = {"weight": (cflat.T @ gflat).reshape(w.shape)}
    if "bias" in weights:
        wgrads["bias"] = gflat.sum(axis=0)
    gcols = (gflat @ w.reshape(-1, cout).T).reshape(cols.shape)
    pt, pb, pl, pr = pads
    n, h, wd, c = x.shape
    gxp = _col2im(gcols, (n, h + pt + pb, wd + pl + pr, c), kh, kw, s, out_h, out_w)
    return wgrads, [gxp[:, pt:pt + h, pl:pl + wd, :]]


def _pool_windows(x, out_h, out_w, kh, kw, s):
    # (n, oh, ow, kh*kw, c): window axis is row-major over (i, j)
    cols = _im2col(x, kh, kw, s, out_h, out_w)
    return cols.reshape(x.shape[0], out_h, out_w, kh * kw, x.shape[3])


def _maxpool_forward(params, x, ctx):
    geometry = _pool_geometry(OperatorKind.MAXPOOL, params, x.shape[1:])
    win = _pool_windows(x, *geometry)
    if ctx is not None:
        ctx["win"] = win
    return win.max(axis=3)


def _maxpool_backward(params, x, grad, ctx):
    out_h, out_w, kh, kw, s = geometry = _pool_geometry(
        OperatorKind.MAXPOOL, params, x.shape[1:])
    win = (ctx or {}).get("win")
    if win is None:
        win = _pool_windows(x, *geometry)
    # argmax picks the first maximum: row-major tie-breaking within the window
    idx = win.argmax(axis=3)[:, :, :, None, :]
    slots = np.arange(kh * kw)[:, None]
    gwin = np.where(slots == idx, grad[:, :, :, None, :], 0.0)
    gwin = gwin.reshape(x.shape[0], out_h, out_w, kh, kw, x.shape[3])
    return {}, [_col2im(gwin, x.shape, kh, kw, s, out_h, out_w)]


def _avgpool_forward(params, x):
    geometry = _pool_geometry(OperatorKind.AVGPOOL, params, x.shape[1:])
    return _pool_windows(x, *geometry).mean(axis=3)


def _avgpool_backward(params, x, grad):
    out_h, out_w, kh, kw, s = _pool_geometry(OperatorKind.AVGPOOL, params, x.shape[1:])
    gwin = np.broadcast_to(
        grad[:, :, :, None, None, :] / (kh * kw),
        (x.shape[0], out_h, out_w, kh, kw, x.shape[3]))
    return {}, [_col2im(np.ascontiguousarray(gwin), x.shape, kh, kw, s, out_h, out_w)]


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_A * x ** 3)))


def _gelu_grad(x):
    u = _GELU_C * (x + _GELU_A * x ** 3)
    t = np.tanh(u)
    sech2 = 1.0 - t * t
    return 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * x ** 2)


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _bn_forward(weights, buffers, x):
    inv = 1.0 / np.sqrt(buffers["running_var"] + BN_EPS)
    return weights["gamma"] * (x - buffers["running_mean"]) * inv + weights["beta"]


def _bn_backward(weights, buffers, x, grad):
    inv = 1.0 / np.sqrt(buffers["running_var"] + BN_EPS)
    xhat = (x - buffers["running_mean"]) * inv
    axes = tuple(range(x.ndim - 1))
    return (
        {"gamma": (grad * xhat).sum(axis=axes), "beta": grad.sum(axis=axes)},
        [grad * weights["gamma"] * inv],
    )


def _fc_forward(weights, x):
    x2 = x.reshape(x.shape[0], -1)
    if x2.shape[1] != weights["weight"].shape[0]:
        raise ShapeError(
            f"FC: input of {x2.shape[1]} features does not match weight "
            f"{weights['weight'].shape}")
    y = x2 @ weights["weight"]
    if "bias" in weights:
        y = y + weights["bias"]
    return y


def _fc_backward(weights, x, grad):
    x2 = x.reshape(x.shape[0], -1)
    wgrads = {"weight": x2.T @ grad}
    if "bias" in weights:
        wgrads["bias"] = grad.sum(axis=0)
    return wgrads, [(grad @ weights["weight"].T).reshape(x.shape)]


def op_forward(kind, params, weights, buffers, inputs: list[np.ndarray],
               ctx: dict | None = None) -> np.ndarray:
    """Run one operator on batched arrays.

    `ctx`, when given, is a fresh dict that belongs to this one call: the
    kernel stores in it the workspace its backward can reuse (CONV: the
    im2col columns, MAXPOOL: the pooling windows). Without it the kernel is
    pure and keeps nothing.
    """
    if kind is OperatorKind.CONV:
        return _conv_forward(params, weights, inputs[0], ctx)
    if kind is OperatorKind.FC:
        return _fc_forward(weights, inputs[0])
    if kind is OperatorKind.RELU:
        return np.maximum(inputs[0], 0.0)
    if kind is OperatorKind.GELU:
        return _gelu(inputs[0])
    if kind is OperatorKind.BN:
        return _bn_forward(weights, buffers, inputs[0])
    if kind is OperatorKind.MAXPOOL:
        return _maxpool_forward(params, inputs[0], ctx)
    if kind is OperatorKind.AVGPOOL:
        return _avgpool_forward(params, inputs[0])
    if kind is OperatorKind.ADD:
        if len({a.shape for a in inputs}) != 1:
            raise ShapeError(f"ADD: mismatched shapes {[a.shape for a in inputs]}")
        out = inputs[0].copy()
        for a in inputs[1:]:
            out += a
        return out
    if kind is OperatorKind.CONCAT:
        return np.concatenate(inputs, axis=-1)
    if kind is OperatorKind.SOFTMAX:
        return _softmax(inputs[0])
    if kind is OperatorKind.FLATTEN:
        return inputs[0].reshape(inputs[0].shape[0], -1)
    raise ValueError(f"unknown operator kind {kind}")


def op_backward(kind, params, weights, buffers, inputs, output, grad,
                ctx: dict | None = None):
    """Gradients of one operator: returns (weight grads, per-input grads).

    `ctx` is the dict the matching :func:`op_forward` filled; without it
    (or with an empty one) the kernel recomputes its workspace from `inputs`.
    """
    if kind is OperatorKind.CONV:
        return _conv_backward(params, weights, inputs[0], grad, ctx)
    if kind is OperatorKind.FC:
        return _fc_backward(weights, inputs[0], grad)
    if kind is OperatorKind.RELU:
        return {}, [grad * (inputs[0] > 0)]
    if kind is OperatorKind.GELU:
        return {}, [grad * _gelu_grad(inputs[0])]
    if kind is OperatorKind.BN:
        return _bn_backward(weights, buffers, inputs[0], grad)
    if kind is OperatorKind.MAXPOOL:
        return _maxpool_backward(params, inputs[0], grad, ctx)
    if kind is OperatorKind.AVGPOOL:
        return _avgpool_backward(params, inputs[0], grad)
    if kind is OperatorKind.ADD:
        return {}, [grad] * len(inputs)
    if kind is OperatorKind.CONCAT:
        offsets = np.cumsum([a.shape[-1] for a in inputs])[:-1]
        return {}, list(np.split(grad, offsets, axis=-1))
    if kind is OperatorKind.SOFTMAX:
        dot = (grad * output).sum(axis=-1, keepdims=True)
        return {}, [output * (grad - dot)]
    if kind is OperatorKind.FLATTEN:
        return {}, [grad.reshape(inputs[0].shape)]
    raise ValueError(f"unknown operator kind {kind}")


# Kinds whose kernels require the leading batch axis.
_BATCHED_KINDS = {
    OperatorKind.CONV, OperatorKind.FC, OperatorKind.BN,
    OperatorKind.MAXPOOL, OperatorKind.AVGPOOL, OperatorKind.FLATTEN,
}


def forward(kind: OperatorKind, params: dict, inputs: list[Tensor]) -> Tensor:
    """Apply one operator to unbatched tensors.

    `params` carries the static configuration plus, for parameterized kinds,
    a "weights" (and for BN a "buffers") mapping of tensor-name to array.
    """
    params = dict(params)
    weights = {k: np.asarray(v, dtype=np.float64)
               for k, v in params.pop("weights", {}).items()}
    buffers = {k: np.asarray(v, dtype=np.float64)
               for k, v in params.pop("buffers", {}).items()}
    arrays = [t.to_array() for t in inputs]
    if kind in _BATCHED_KINDS:
        out = op_forward(kind, params, weights, buffers, [a[None, ...] for a in arrays])
        out = out[0]
    else:
        out = op_forward(kind, params, weights, buffers, arrays)
    return Tensor.from_array(out)
