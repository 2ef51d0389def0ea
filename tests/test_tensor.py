"""Operator kernels: forward values, shape contracts, gradient correctness.

Gradient tests compare analytic kernels against an in-test central
finite-difference oracle (step 1e-5, relative error < 1e-4) over a fixed
random projection of the output, per operator kind and supported rank.
"""

import sys
import threading

import numpy as np
import pytest

from extractbench.fields import from_doc
from extractbench.tensor import (
    _OPS,
    BN_EPS,
    ConvParams,
    FCParams,
    OperatorKind,
    PoolParams,
    ShapeError,
    _col2im,
    _conv_cols,
    _conv_geometry,
    _im2col,
    _pool_offsets,
    _pool_scatter,
    _pool_windows,
    infer_shape,
    init_weights,
    one_blas_thread,
    op_backward,
    op_forward,
    openblas_threads,
    params_class,
)
from extractbench.network import TrainConfig, train
from extractbench.zoo import BUILTIN_ARCHITECTURES, build_model, builtin_spec

from conftest import make_blobs, same_bits

K = OperatorKind
STEP = 1e-5
TOL = 1e-4


def _numeric_grad(objective, array, step=STEP):
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = objective()
        flat[i] = orig - step
        down = objective()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * step)
    return grad


def _rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_kind_gradients(kind, params, input_shapes, seed=0):
    """Analytic vs numeric gradients for one operator application."""
    rng = np.random.default_rng(seed)
    weights, buffers = init_weights(kind, params, input_shapes, rng)
    if kind is K.BN:  # non-trivial running statistics
        buffers["running_mean"] = rng.normal(0, 0.5, buffers["running_mean"].shape)
        buffers["running_var"] = rng.uniform(0.5, 2.0, buffers["running_var"].shape)
    inputs = [rng.standard_normal((2,) + tuple(s)) for s in input_shapes]
    out_shape = op_forward(kind, params, weights, buffers, inputs).shape
    proj = rng.standard_normal(out_shape)

    def objective():
        return float((op_forward(kind, params, weights, buffers, inputs) * proj).sum())

    output = op_forward(kind, params, weights, buffers, inputs)
    wgrads, igrads = op_backward(kind, params, weights, buffers, inputs,
                                 output, proj)
    for idx, x in enumerate(inputs):
        numeric = _numeric_grad(objective, x)
        assert _rel_err(igrads[idx], numeric) < TOL, f"{kind} input {idx}"
    for name, w in weights.items():
        numeric = _numeric_grad(objective, w)
        assert _rel_err(wgrads[name], numeric) < TOL, f"{kind} weight {name}"


class TestForwardExamples:
    """Hand calculations, one sample at a time (batch of one)."""

    def test_relu_definition(self):
        out = op_forward(K.RELU, None, {}, {}, [np.array([[-1.0, 0.0, 2.0]])])
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    def test_softmax_symmetry(self):
        out = op_forward(K.SOFTMAX, None, {}, {}, [np.array([[0.0, 0.0]])])
        assert np.allclose(out, [[0.5, 0.5]])

    def test_conv_identity_scale(self):
        params = ConvParams(1, (1, 1), stride=1,
                            padding="valid", bias=False)
        out = op_forward(K.CONV, params, {"weight": np.full((1, 1, 1, 1), 2.0)},
                         {}, [np.ones((1, 1, 1, 1))])
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == pytest.approx(2.0)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 6, 6, 2))
        params = ConvParams(3, (3, 3), stride=1, padding="same")
        weights = {"weight": rng.standard_normal((3, 3, 2, 3)),
                   "bias": rng.standard_normal(3)}
        a = op_forward(K.CONV, params, weights, {}, [x])
        b = op_forward(K.CONV, params, weights, {}, [x])
        assert np.array_equal(a, b)


class TestTensorInvariants:
    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(0, 5, size=(4, 7))
            y = op_forward(K.SOFTMAX, None, {}, {}, [x])
            assert np.all(y > 0)
            assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-9)


class TestShapeContracts:
    def test_add_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"ADD.*\(2, 2, 1\).*\(2, 2, 3\)"):
            infer_shape(K.ADD, None, [(2, 2, 1), (2, 2, 3)])

    def test_concat_needs_matching_leading_dims(self):
        with pytest.raises(ShapeError, match="CONCAT"):
            infer_shape(K.CONCAT, None, [(4, 4, 2), (2, 2, 2)])

    def test_pool_window_too_large(self):
        with pytest.raises(ShapeError, match="MAXPOOL"):
            infer_shape(K.MAXPOOL, PoolParams((5, 5), 1), [(4, 4, 1)])

    @pytest.mark.parametrize("cls,params,bad", [
        (ConvParams, {"out_channels": 2, "kernel": (3, 3), "stride": 0}, "stride"),
        (PoolParams, {"kernel": (2, 2), "stride": -1}, "stride"),
        (PoolParams, {"kernel": (2, 2), "stride": 2.5}, "stride"),
        (ConvParams, {"out_channels": 0, "kernel": (3, 3)}, "out_channels"),
        (ConvParams, {"out_channels": "3", "kernel": (3, 3)}, "out_channels"),
        (FCParams, {"out_features": 0}, "out_features"),
        (FCParams, {"out_features": True}, "out_features"),
        (ConvParams, {"out_channels": 2, "kernel": (3,)}, "kernel"),
        (ConvParams, {"out_channels": 2, "kernel": [3, 3]}, "kernel"),
        (PoolParams, {"kernel": (2, 0)}, "kernel"),
        (PoolParams, {"kernel": "22"}, "kernel"),
        (FCParams, {"out_features": 3, "bias": 1}, "bias"),
        (ConvParams, {"out_channels": 2, "kernel": (3, 3), "padding": "full"},
         "padding"),
    ])
    def test_invalid_param_value_named(self, cls, params, bad):
        with pytest.raises(ValueError, match=rf"^(unknown )?{bad} "):
            cls(**params)

    @pytest.mark.parametrize("cls,doc,name,message", [
        (ConvParams, {"out_channels": 1, "kernel": [1, 1], "striide": 2},
         "striide", r"unknown field\(s\) \['striide'\]"),
        (ConvParams, {"out_channels": 2}, "kernel", "kernel required"),
        (ConvParams, {"kernel": [3, 3], "stride": 1}, "out_channels",
         "out_channels required"),
        (FCParams, {"bias": False}, "out_features", "out_features required"),
        (PoolParams, {"stride": 2}, "kernel", "kernel required"),
        (PoolParams, {}, "kernel", "kernel required"),
    ])
    def test_unknown_or_missing_param_named(self, cls, doc, name, message):
        # read from a JSON object, as every config is, it is a ValueError
        with pytest.raises(ValueError, match=rf"^{message}$"):
            from_doc(cls, doc)
        # made in Python, the dataclass's own TypeError names the param
        with pytest.raises(TypeError, match=rf"'{name}'"):
            cls(**doc)

    def test_numpy_ints_accepted(self):
        params = ConvParams(out_channels=np.int64(2), kernel=(np.int32(3), 3),
                            stride=np.int64(2))
        assert infer_shape(K.CONV, params, [(6, 6, 2)]) == (3, 3, 2)

    def test_conv_same_padding_shape(self):
        params = ConvParams(5, (3, 3), stride=2, padding="same")
        assert infer_shape(K.CONV, params, [(7, 7, 2)]) == (4, 4, 5)

    def test_pool_stride_defaults_to_kernel_height(self):
        assert PoolParams((3, 2)).stride == 3
        assert PoolParams((2, 2)) == PoolParams((2, 2), 2)
        assert hash(PoolParams((2, 2))) == hash(PoolParams((2, 2), 2))
        assert infer_shape(K.MAXPOOL, PoolParams((3, 2)), [(9, 8, 1)]) == (3, 3, 1)

    def test_every_kind_names_its_params_class(self):
        assert {kind: params_class(kind) for kind in K if params_class(kind)} == {
            K.CONV: ConvParams, K.FC: FCParams, K.MAXPOOL: PoolParams,
            K.AVGPOOL: PoolParams}


class TestConservation:
    def test_add_concat_preserve_counts(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 3, 2))
        b = rng.standard_normal((2, 3, 3, 5))
        cat = op_forward(K.CONCAT, None, {}, {}, [a, b])
        assert cat.size == a.size + b.size
        added = op_forward(K.ADD, None, {}, {}, [a, a])
        assert added.size == a.size
        assert np.allclose(added, 2 * a)

    def test_maxpool_equals_bruteforce_window_scan(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 6, 8, 3))
        params = PoolParams((2, 3), 2)
        out = op_forward(K.MAXPOOL, params, {}, {}, [x])
        n, oh, ow, c = out.shape
        for b in range(n):
            for i in range(oh):
                for j in range(ow):
                    for ch in range(c):
                        window = x[b, 2 * i:2 * i + 2, 2 * j:2 * j + 3, ch]
                        assert out[b, i, j, ch] == window.max()

    def test_maxpool_tie_routes_to_first_row_major(self):
        x = np.full((1, 2, 2, 1), 3.0)  # all entries tie
        grad = np.ones((1, 1, 1, 1))
        _, (gx,) = op_backward(K.MAXPOOL, PoolParams((2, 2), 2),
                               {}, {}, [x], None, grad)
        assert gx[0, 0, 0, 0] == 1.0
        assert gx.sum() == 1.0


# every kind, every supported rank
GRADIENT_CASES = [
    (K.RELU, None, [(5,)]),
    (K.RELU, None, [(4, 4, 2)]),
    (K.GELU, None, [(5,)]),
    (K.GELU, None, [(3, 3, 2)]),
    (K.SOFTMAX, None, [(6,)]),
    (K.SOFTMAX, None, [(2, 2, 4)]),
    (K.ADD, None, [(4, 4, 2)] * 2),
    (K.ADD, None, [(7,)] * 3),
    (K.CONCAT, None, [(3, 3, 2), (3, 3, 4)]),
    (K.CONCAT, None, [(4,), (6,)]),
    (K.FLATTEN, None, [(3, 4, 2)]),
    (K.FC, FCParams(3), [(6,)]),
    (K.FC, FCParams(4), [(3, 3, 2)]),
    (K.BN, None, [(4, 4, 3)]),
    (K.BN, None, [(5,)]),
    (K.MAXPOOL, PoolParams((2, 2), 2), [(6, 6, 2)]),
    (K.MAXPOOL, PoolParams((3, 3), 1), [(5, 5, 1)]),
    (K.AVGPOOL, PoolParams((2, 2), 2), [(6, 6, 2)]),
    (K.AVGPOOL, PoolParams((2, 2), 1), [(4, 4, 3)]),
    (K.CONV, ConvParams(3, (3, 3), stride=1,
                        padding="same"), [(5, 5, 2)]),
    (K.CONV, ConvParams(2, (2, 2), stride=2,
                        padding="valid"), [(6, 6, 3)]),
    (K.CONV, ConvParams(2, (3, 3), stride=2,
                        padding="same", bias=False), [(7, 7, 1)]),
]


@pytest.mark.parametrize("case,kind,params,shapes",
                         [(i,) + c for i, c in enumerate(GRADIENT_CASES)],
                         ids=[f"{c[0].name}-{i}" for i, c in enumerate(GRADIENT_CASES)])
def test_gradients_match_finite_differences(case, kind, params, shapes):
    check_kind_gradients(kind, params, shapes, seed=101 + case)


@pytest.mark.parametrize("case,kind,params,shapes",
                         [(i,) + c for i, c in enumerate(GRADIENT_CASES)],
                         ids=[f"{c[0].name}-{i}" for i, c in enumerate(GRADIENT_CASES)])
def test_batch_rows_equal_batch_of_one(case, kind, params, shapes):
    """Each sample's output is its own: row i of a batch equals sample i run
    alone, so a kernel that mixes samples (BN on batch statistics, a pool or
    conv window that crosses the batch axis) fails here."""
    rng = np.random.default_rng(case)
    weights, buffers = init_weights(kind, params, shapes, rng)
    arrays = [rng.standard_normal((3,) + tuple(s)) for s in shapes]
    batched = op_forward(kind, params, weights, buffers, arrays)
    assert batched.shape[0] == 3
    for i in range(3):
        alone = op_forward(kind, params, weights, buffers,
                           [a[i:i + 1] for a in arrays])
        assert np.allclose(alone[0], batched[i], rtol=1e-12, atol=1e-12)


def test_operator_table_covers_every_kind():
    assert set(_OPS) == set(OperatorKind)


class TestKeptWorkspace:
    """A backward that reuses its forward's workspace (`ctx`) must give the
    bits a backward that recomputes it gives."""

    @pytest.mark.parametrize("batch", [1, 10])
    @pytest.mark.parametrize("arch_id", sorted(BUILTIN_ARCHITECTURES))
    def test_every_zoo_node_matches_recompute(self, arch_id, batch):
        model = build_model(builtin_spec(arch_id, (8, 8, 1), 4), seed=0)
        rng = np.random.default_rng(batch)
        acts = {"input": rng.standard_normal((batch, 8, 8, 1))}
        for node in model.order:
            w, b = model.weights[node.node_id], model.buffers[node.node_id]
            ins = [acts[d] for d in node.inputs]
            ctx = {}
            out = op_forward(node.kind, node.params, w, b, ins, ctx)
            assert same_bits(out, op_forward(node.kind, node.params, w, b, ins))
            if node.kind in (K.CONV, K.MAXPOOL):
                assert ctx, f"{node.node_id}: no workspace kept"
            grad = rng.standard_normal(out.shape)
            grad[grad < -1.0] = -0.0
            kept = op_backward(node.kind, node.params, w, b, ins, out, grad, ctx)
            fresh = op_backward(node.kind, node.params, w, b, ins, out, grad)
            assert kept[0].keys() == fresh[0].keys()
            for name in fresh[0]:
                assert same_bits(kept[0][name], fresh[0][name]), node.node_id
            assert len(kept[1]) == len(fresh[1])
            for k, f in zip(kept[1], fresh[1]):
                assert same_bits(k, f), node.node_id
            acts[node.node_id] = out

    def test_maxpool_gradient_equals_scatter_oracle(self):
        rng = np.random.default_rng(7)
        # rounded values give many ties; -0.0 gradients must keep their sign
        x = np.round(rng.standard_normal((3, 6, 6, 2)))
        params = PoolParams((2, 2), 2)
        grad = rng.standard_normal((3, 3, 3, 2))
        grad[grad < 0] = -0.0
        _, (gx,) = op_backward(K.MAXPOOL, params, {}, {}, [x], None, grad)
        oracle = np.zeros_like(x)
        for b in range(3):
            for i in range(3):
                for j in range(3):
                    for c in range(2):
                        window = x[b, 2 * i:2 * i + 2, 2 * j:2 * j + 2, c]
                        di, dj = divmod(int(window.argmax()), 2)
                        oracle[b, 2 * i + di, 2 * j + dj, c] += grad[b, i, j, c]
        assert same_bits(gx, oracle)


def _requested(kind, params, shapes, seed):
    """One operator application: its inputs, forward ctx and output grad."""
    rng = np.random.default_rng(seed)
    weights, buffers = init_weights(kind, params, shapes, rng)
    inputs = [rng.standard_normal((2,) + tuple(s)) for s in shapes]
    ctx = {}
    output = op_forward(kind, params, weights, buffers, inputs, ctx)
    grad = rng.standard_normal(output.shape)
    grad[grad < -1.0] = -0.0
    return (kind, params, weights, buffers, inputs, output, grad, ctx)


@pytest.mark.parametrize("case,kind,params,shapes",
                         [(i,) + c for i, c in enumerate(GRADIENT_CASES)],
                         ids=[f"{c[0].name}-{i}" for i, c in enumerate(GRADIENT_CASES)])
def test_requested_gradients_equal_full(case, kind, params, shapes):
    args = _requested(kind, params, shapes, seed=case)
    full_w, full_in = op_backward(*args)
    only_w, skipped_in = op_backward(*args, input_grad=False)
    none_w, only_in = op_backward(*args, weight_grads=False)
    assert none_w == {}
    assert only_w.keys() == full_w.keys()
    for name, g in full_w.items():
        assert same_bits(only_w[name], g), name
    assert len(only_in) == len(full_in)
    for got, want in zip(only_in, full_in):
        assert same_bits(got, want)
    if full_w:  # the kinds with weights skip the input gradient
        assert skipped_in == [None] * len(shapes)


def _tap_loop_cols(xp, kh, kw, s, out_h, out_w):
    """Per-tap im2col oracle: one slice per kernel tap."""
    n, _, _, c = xp.shape
    cols = np.empty((n, out_h, out_w, kh, kw, c))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j, :] = xp[:, i:i + s * (out_h - 1) + 1:s,
                                        j:j + s * (out_w - 1) + 1:s, :]
    return cols


def _tap_loop_scatter(gcols, padded_shape, kh, kw, s, out_h, out_w):
    """Per-tap col2im oracle: adds the taps onto zeros in (i, j) order."""
    gx = np.zeros(padded_shape)
    for i in range(kh):
        for j in range(kw):
            gx[:, i:i + s * (out_h - 1) + 1:s,
               j:j + s * (out_w - 1) + 1:s, :] += gcols[:, :, :, i, j, :]
    return gx


class TestLoopFreeDataMovement:
    """The strided-window im2col, the write-and-reduce col2im and the
    one-`+=` scatter of non-overlapping pools must give the bits of the
    per-tap loops they replace."""

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel,hw", [((3, 3), (7, 7)), ((2, 3), (6, 5)),
                                           ((1, 1), (4, 4))])
    def test_im2col_and_col2im_equal_tap_loops(self, kernel, hw, stride, padding):
        rng = np.random.default_rng(stride * 10 + kernel[1])
        # a channel slice: the windows must follow the input's own strides
        x = rng.standard_normal((3,) + hw + (5,))[..., 1:4]
        params = ConvParams(2, kernel, stride=stride,
                            padding=padding)
        out_h, out_w, kh, kw, s, pads = _conv_geometry(params, x.shape[1:])
        pt, pb, pl, pr = pads
        xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
        cols = _conv_cols(x, out_h, out_w, kh, kw, s, pads)
        assert same_bits(cols, _tap_loop_cols(xp, kh, kw, s, out_h, out_w))
        assert same_bits(_im2col(xp, kh, kw, s, out_h, out_w), cols)
        gcols = rng.standard_normal(cols.shape)
        gcols[gcols < -0.5] = -0.0
        assert same_bits(_col2im(gcols, xp.shape, kh, kw, s, out_h, out_w),
                         _tap_loop_scatter(gcols, xp.shape, kh, kw, s, out_h, out_w))

    @staticmethod
    def _signed_zero_gradients(rng, shape, integers):
        """Gradients with many +0.0 and -0.0 entries; with `integers`,
        small integer values whose overlapping sums often cancel to an
        exact zero, whose sign the oracle fixes too."""
        if integers:
            g = rng.integers(-2, 3, size=shape).astype(float)
        else:
            g = rng.standard_normal(shape)
        draw = rng.random(shape)
        g[draw < 0.2] = -0.0
        g[(draw >= 0.2) & (draw < 0.3)] = 0.0
        return g

    @pytest.mark.parametrize("integers", [False, True])
    @pytest.mark.parametrize("batch", [1, 10])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
                                        (1, 3), (3, 2)])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_col2im_equals_tap_loop(self, padding, kernel, stride, batch,
                                    integers):
        rng = np.random.default_rng([batch, stride, *kernel, int(integers)])
        params = ConvParams(2, kernel, stride=stride,
                            padding=padding)
        h, w, c = 7, 6, 3
        out_h, out_w, kh, kw, s, pads = _conv_geometry(params, (h, w, c))
        padded = (batch, h + pads[0] + pads[1], w + pads[2] + pads[3], c)
        gcols = self._signed_zero_gradients(
            rng, (batch, out_h, out_w, kh, kw, c), integers)
        oracle = _tap_loop_scatter(gcols, padded, kh, kw, s, out_h, out_w)
        assert same_bits(_col2im(gcols, padded, kh, kw, s, out_h, out_w), oracle)
        # and through the CONV kernel, which crops the padding off
        x = rng.standard_normal((batch, h, w, c))
        weights, _ = init_weights(K.CONV, params, [(h, w, c)], rng)
        grad = self._signed_zero_gradients(rng, (batch, out_h, out_w, 2),
                                           integers)
        _, (gx,) = op_backward(K.CONV, params, weights, {}, [x], None, grad,
                               weight_grads=False)
        wflat = weights["weight"].reshape(-1, 2)
        gcols = (grad.reshape(-1, 2) @ wflat.T).reshape(gcols.shape)
        full = _tap_loop_scatter(gcols, padded, kh, kw, s, out_h, out_w)
        assert same_bits(gx, full[:, pads[0]:pads[0] + h, pads[2]:pads[2] + w])

    @pytest.mark.parametrize("batch", [1, 10])
    @pytest.mark.parametrize("k,s", [(2, 1), (3, 1), (3, 2), (4, 3), (5, 2),
                                     (5, 3)])
    def test_overlapping_pool_scatter_equals_tap_loop(self, k, s, batch):
        rng = np.random.default_rng([batch, k, s])
        x = rng.integers(-1, 2, size=(batch, 8, 7, 3)).astype(float)
        x[rng.random(x.shape) < 0.3] = -0.0
        params = PoolParams((k, k), s)
        out_h, out_w = (8 - k) // s + 1, (7 - k) // s + 1
        grad = self._signed_zero_gradients(rng, (batch, out_h, out_w, 3), True)
        # MAXPOOL: each window's gradient goes to its first maximum
        win = _im2col(x, k, k, s, out_h, out_w).reshape(
            batch, out_h, out_w, k * k, 3)
        first = np.arange(k * k)[:, None] == win.argmax(axis=3)[:, :, :, None, :]
        gwin = np.where(first, grad[:, :, :, None, :], 0.0)
        oracle = _tap_loop_scatter(gwin.reshape(batch, out_h, out_w, k, k, 3),
                                   x.shape, k, k, s, out_h, out_w)
        _, (gx,) = op_backward(K.MAXPOOL, params, {}, {}, [x], None, grad)
        assert same_bits(gx, oracle)
        # AVGPOOL: every tap gets the window's share
        share = np.broadcast_to(grad[:, :, :, None, None, :] / (k * k),
                                (batch, out_h, out_w, k, k, 3))
        oracle = _tap_loop_scatter(share, x.shape, k, k, s, out_h, out_w)
        _, (gx,) = op_backward(K.AVGPOOL, params, {}, {}, [x], None, grad)
        assert same_bits(gx, oracle)

    @pytest.mark.parametrize("k,s", [(2, 2), (3, 3), (2, 3), (3, 2)])
    @pytest.mark.parametrize("hw", [(6, 6), (5, 5), (7, 7), (6, 7)])
    def test_tiled_pool_equals_generic_path(self, hw, k, s):
        rng = np.random.default_rng(hw[0] * 10 + hw[1] + k + 5 * s)
        x = rng.standard_normal((3,) + hw + (2,))
        out_h, out_w = (hw[0] - k) // s + 1, (hw[1] - k) // s + 1
        # the pool windows are tap-first: the tap-loop columns, transposed
        windows = _pool_windows(x, out_h, out_w, k, k, s)
        oracle = _tap_loop_cols(x, k, k, s, out_h, out_w).transpose(3, 4, 0, 1, 2, 5)
        assert windows.flags.c_contiguous
        assert same_bits(windows, oracle.reshape(windows.shape))
        gwin = rng.standard_normal((3, out_h, out_w, k, k, 2))
        gwin[gwin < -0.5] = -0.0
        assert same_bits(_pool_scatter(gwin, x.shape, out_h, out_w, k, k, s),
                         _tap_loop_scatter(gwin, x.shape, k, k, s, out_h, out_w))
        # a broadcast window gradient, as AVGPOOL passes it
        gavg = rng.standard_normal((3, out_h, out_w, 1, 1, 2))
        assert same_bits(
            _pool_scatter(gavg, x.shape, out_h, out_w, k, k, s),
            _tap_loop_scatter(np.broadcast_to(gavg, gwin.shape), x.shape, k, k, s,
                              out_h, out_w))

    @pytest.mark.parametrize("hw", [(6, 6), (5, 5), (7, 7)])
    def test_maxpool_ties_and_signed_zeros_match_generic_path(self, hw):
        rng = np.random.default_rng(hw[0])
        # many ties, among them +0.0 and -0.0 in the same window
        x = rng.integers(-1, 2, size=(4,) + hw + (3,)).astype(float)
        x[rng.random(x.shape) < 0.3] = -0.0
        params = PoolParams((2, 2), 2)
        out_h, out_w = hw[0] // 2, hw[1] // 2
        grad = rng.standard_normal((4, out_h, out_w, 3))
        grad[grad < 0] = -0.0
        win = _im2col(x, 2, 2, 2, out_h, out_w).reshape(4, out_h, out_w, 4, 3)
        slots = np.arange(4)[:, None]
        gwin = np.where(slots == win.argmax(axis=3)[:, :, :, None, :],
                        grad[:, :, :, None, :], 0.0)
        oracle = _col2im(gwin.reshape(4, out_h, out_w, 2, 2, 3), x.shape,
                         2, 2, 2, out_h, out_w)
        ctx = {}
        out = op_forward(K.MAXPOOL, params, {}, {}, [x], ctx)
        assert same_bits(out, win.max(axis=3))
        kept = op_backward(K.MAXPOOL, params, {}, {}, [x], out, grad, ctx)[1][0]
        fresh = op_backward(K.MAXPOOL, params, {}, {}, [x], out, grad)[1][0]
        assert same_bits(kept, oracle)
        assert same_bits(fresh, oracle)
        assert not np.signbit(oracle).any()  # every -0.0 gradient lands as +0.0


def _tap_loop_pool(x, kind, kh, kw, s, out_h, out_w):
    """Per-tap pool oracle: the output, folded tap by tap in (i, j) order
    (MAXPOOL from the first tap, AVGPOOL's sum from +0.0), and each
    window's first maximal tap."""
    taps = [x[:, i:i + s * (out_h - 1) + 1:s, j:j + s * (out_w - 1) + 1:s, :]
            for i in range(kh) for j in range(kw)]
    first = np.zeros(taps[0].shape, dtype=int)
    if kind is K.AVGPOOL:
        out = np.zeros(taps[0].shape)
        for tap in taps:
            out = out + tap
        return out / (kh * kw), first
    out = taps[0].copy()
    for t, tap in enumerate(taps[1:], start=1):
        first[tap > out] = t  # a tie keeps the earlier tap
        out = np.maximum(out, tap)
    return out, first


class TestPoolsEqualTapLoops:
    """MAXPOOL and AVGPOOL forward, kept-workspace backward and fresh
    backward give the bits, sign bits included, of per-tap loops."""

    @pytest.mark.parametrize("values", ["normal", "ties"])
    @pytest.mark.parametrize("kind", [K.MAXPOOL, K.AVGPOOL])
    @pytest.mark.parametrize("batch", [1, 10])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("kernel,s", [((2, 2), 2), ((3, 3), 3), ((2, 3), 3),
                                          ((3, 2), 3), ((1, 2), 2), ((3, 3), 2)])
    @pytest.mark.parametrize("hw", [(8, 8), (5, 5), (7, 7)])
    def test_pool_equals_tap_loop(self, hw, kernel, s, channels, batch, kind,
                                  values):
        rng = np.random.default_rng([*hw, *kernel, s, channels, batch,
                                     values == "ties"])
        shape = (batch,) + hw + (channels,)
        if values == "ties":  # integer ties, +0.0 and -0.0 among them
            x = rng.integers(-1, 2, size=shape).astype(float)
            x[rng.random(shape) < 0.3] = -0.0
        else:
            x = rng.standard_normal(shape)
        kh, kw = kernel
        params = PoolParams(kernel, s)
        out_h, out_w = (hw[0] - kh) // s + 1, (hw[1] - kw) // s + 1
        out, first = _tap_loop_pool(x, kind, kh, kw, s, out_h, out_w)
        ctx = {}
        assert same_bits(op_forward(kind, params, {}, {}, [x], ctx), out)
        assert same_bits(op_forward(kind, params, {}, {}, [x]), out)

        grad = rng.integers(-2, 3, size=out.shape).astype(float)
        grad[rng.random(out.shape) < 0.3] = -0.0
        if kind is K.MAXPOOL:
            gwin = np.zeros((batch, out_h, out_w, kh * kw, channels))
            np.put_along_axis(gwin, first[:, :, :, None, :],
                              grad[:, :, :, None, :], axis=3)
        else:
            gwin = np.broadcast_to(grad[:, :, :, None, :] / (kh * kw),
                                   (batch, out_h, out_w, kh * kw, channels))
        oracle = _tap_loop_scatter(gwin.reshape(out.shape[:3] + (kh, kw, channels)),
                                   x.shape, kh, kw, s, out_h, out_w)
        kept = op_backward(kind, params, {}, {}, [x], out, grad, ctx)[1][0]
        fresh = op_backward(kind, params, {}, {}, [x], out, grad)[1][0]
        assert same_bits(kept, oracle)
        assert same_bits(fresh, oracle)
        if kind is K.MAXPOOL and s >= max(kh, kw):
            assert not np.signbit(kept[kept == 0]).any()  # -0.0 lands as +0.0

    def test_winners_are_first_maxima_in_input_positions(self):
        x = np.zeros((2, 4, 6, 2))
        x[1, 1, 5, 0] = 1.0  # batch 1, window (0, 2), channel 0: tap (1, 1)
        ctx = {}
        op_forward(K.MAXPOOL, PoolParams((2, 2), 2), {}, {}, [x], ctx)
        winner = ctx["winner"]
        assert winner.shape == (2, 2, 3, 2)
        # all-zero windows: the first tap (0, 0) wins
        assert winner[0, 1, 2, 1] == np.ravel_multi_index((0, 2, 4, 1), x.shape)
        assert winner[1, 0, 2, 0] == np.ravel_multi_index((1, 1, 5, 0), x.shape)

    def test_offset_cache_is_bounded(self):
        maxsize = _pool_offsets.cache_info().maxsize
        assert maxsize is not None and maxsize <= 64
        for n in range(1, maxsize + 10):
            taps, base = _pool_offsets((n, 4, 4, 1), 2, 2, 2, 2, 2)
            assert not taps.flags.writeable and not base.flags.writeable
        assert _pool_offsets.cache_info().currsize <= maxsize


def _allocating_conv(x, weights, geometry):
    out_h, out_w, kh, kw, s, pads = geometry
    w = weights["weight"]
    cols = _conv_cols(x, out_h, out_w, kh, kw, s, pads)
    y = (cols.reshape(x.shape[0] * out_h * out_w, -1) @ w.reshape(-1, w.shape[3])
         ).reshape(x.shape[0], out_h, out_w, w.shape[3])
    return y + weights["bias"] if "bias" in weights else y


def _allocating_bn(x, weights, buffers):
    inv = 1.0 / np.sqrt(buffers["running_var"] + BN_EPS)
    return weights["gamma"] * (x - buffers["running_mean"]) * inv + weights["beta"]


_CONV_OR_BN = [a for a in sorted(BUILTIN_ARCHITECTURES)
               if any(n.kind in (K.CONV, K.BN)
                      for n in builtin_spec(a, (8, 8, 1), 4).nodes)]


@pytest.mark.parametrize("batch", [1, 10])
@pytest.mark.parametrize("arch_id", _CONV_OR_BN)
def test_in_place_kernels_equal_allocating_expressions(arch_id, batch):
    """CONV adds its bias, and BN normalizes, on the temporary they make;
    the bits, signed zeros included, are those of the allocating forms."""
    model = build_model(builtin_spec(arch_id, (8, 8, 1), 4), seed=3)
    rng = np.random.default_rng([batch, 7])

    def signed(shape):
        v = rng.standard_normal(shape)
        v[v < -1.0] = -0.0
        v[v > 1.5] = 0.0
        return v

    for node in model.order:  # BN statistics and affine far from identity
        if node.kind is K.BN:
            bufs, wts = model.buffers[node.node_id], model.weights[node.node_id]
            c = bufs["running_mean"].shape
            bufs["running_mean"] = rng.standard_normal(c)
            bufs["running_var"] = rng.uniform(0.1, 3.0, c)
            wts["gamma"][...] = signed(c)
            wts["beta"][...] = signed(c)
            # channel 0's outputs are -0.0 or +0.0, by the sign of x - mean
            wts["gamma"][0] = wts["beta"][0] = -0.0
        elif node.kind is K.CONV and "bias" in model.weights[node.node_id]:
            bias = model.weights[node.node_id]["bias"]
            bias[...] = signed(bias.shape)
    x = signed((batch, 8, 8, 1))
    acts, _ = model._run(x, keep=True)
    checked = 0
    for step in model._plan:
        if step.kind not in (K.CONV, K.BN):
            continue
        (inp,) = step.gather(acts)
        if step.kind is K.CONV:
            expected = _allocating_conv(inp, step.weights, step.geometry)
        else:
            expected = _allocating_bn(inp, step.weights, step.buffers)
        assert same_bits(acts[step.output], expected), step.node_id
        checked += 1
    assert checked


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

def test_openblas_thread_setter_found_where_numpy_names_openblas():
    # else every run would keep the host's BLAS threads, silently
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas.get("name", "").lower():
        pytest.skip(f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS")
    assert openblas_threads() is not None, \
        f"numpy names {blas['name']!r} but no thread-count setter was found"


class TestOneBlasThread:
    """`one_blas_thread` runs its block with OpenBLAS on one thread and
    gives the count back when the block ends, however it ends."""

    def test_one_thread_inside_count_back_after(self, blas_threads):
        blas, many = blas_threads
        with one_blas_thread():
            assert blas.get() == 1
        assert blas.get() == many

    def test_count_back_after_an_exception(self, blas_threads):
        blas, many = blas_threads
        with pytest.raises(RuntimeError, match="boom"):
            with one_blas_thread():
                raise RuntimeError("boom")
        assert blas.get() == many

    def test_nested(self, blas_threads):
        blas, many = blas_threads
        with one_blas_thread():
            with one_blas_thread():
                assert blas.get() == 1
            assert blas.get() == 1
        assert blas.get() == many

    def test_blocks_closed_out_of_order(self, blas_threads):
        # as blocks in two threads may close: the first to open is not
        # the last to close, and the count comes back only at the last
        blas, many = blas_threads
        first, second = one_blas_thread(), one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert blas.get() == 1
        second.__exit__(None, None, None)
        assert blas.get() == many

    def test_threads(self, blas_threads):
        blas, many = blas_threads
        seen = []
        barrier = threading.Barrier(4, timeout=30)

        def work():
            barrier.wait()
            for _ in range(200):
                with one_blas_thread():
                    seen.append(blas.get())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(seen) == 800 and set(seen) == {1}
        assert blas.get() == many

    @pytest.mark.parametrize("arch_id", ["mini-vgg-4", "mini-resnet-4"])
    def test_same_bytes_on_one_thread(self, blas_threads, arch_id):
        # OpenBLAS splits a GEMM's rows and columns across threads, never
        # its reduction: batch-10 training and a whole-split prediction
        # give the same bytes on one thread as on several
        data = make_blobs(classes=4, per_class=50, shape=(8, 8, 1),
                          overlap=0.3, seed=2)

        def run():
            model = build_model(builtin_spec(arch_id, (8, 8, 1), 4), seed=3)
            train(model, data.inputs, data.labels,
                  TrainConfig(learning_rate=0.05, batch_size=10, epochs=2,
                              seed=4))
            return model.state_vector(), model.predict(data.inputs)

        state, out = run()
        with one_blas_thread():
            state_one, out_one = run()
        assert state.tobytes() == state_one.tobytes()
        assert out.tobytes() == out_one.tobytes()
