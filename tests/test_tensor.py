"""Operator kernels: forward values, shape contracts, gradient correctness.

Gradient tests compare analytic kernels against an in-test central
finite-difference oracle (step 1e-5, relative error < 1e-4) over a fixed
random projection of the output, per operator kind and supported rank.
"""

import numpy as np
import pytest

from extractbench.tensor import (
    _OPS,
    OperatorKind,
    ShapeError,
    Tensor,
    forward,
    infer_shape,
    init_weights,
    op_backward,
    op_forward,
)
from extractbench.zoo import BUILTIN_ARCHITECTURES, build_model, builtin_spec

from conftest import same_bits

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
    def test_relu_definition(self):
        out = forward(K.RELU, {}, [Tensor.from_array([-1.0, 0.0, 2.0])])
        assert np.array_equal(out.to_array(), [0.0, 0.0, 2.0])

    def test_softmax_symmetry(self):
        out = forward(K.SOFTMAX, {}, [Tensor.from_array([0.0, 0.0])])
        assert np.allclose(out.to_array(), [0.5, 0.5])

    def test_conv_identity_scale(self):
        params = {"out_channels": 1, "kernel": [1, 1], "stride": 1,
                  "padding": "valid", "bias": False,
                  "weights": {"weight": np.full((1, 1, 1, 1), 2.0)}}
        out = forward(K.CONV, params, [Tensor.from_array(np.ones((1, 1, 1)))])
        assert out.to_array().item() == pytest.approx(2.0)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(3)
        x = Tensor.from_array(rng.standard_normal((6, 6, 2)))
        params = {"out_channels": 3, "kernel": [3, 3], "stride": 1,
                  "padding": "same",
                  "weights": {"weight": rng.standard_normal((3, 3, 2, 3)),
                              "bias": rng.standard_normal(3)}}
        a = forward(K.CONV, params, [x]).to_array()
        b = forward(K.CONV, params, [x]).to_array()
        assert np.array_equal(a, b)


class TestTensorInvariants:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Tensor.from_array([1.0, np.nan])

    def test_buffer_must_fill_shape(self):
        with pytest.raises(ShapeError):
            Tensor((2, 3), np.zeros(5))

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(0, 5, size=(4, 7))
            y = op_forward(K.SOFTMAX, {}, {}, {}, [x])
            assert np.all(y > 0)
            assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-9)


class TestShapeContracts:
    def test_add_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"ADD.*\(2, 2, 1\).*\(2, 2, 3\)"):
            infer_shape(K.ADD, {}, [(2, 2, 1), (2, 2, 3)])

    def test_concat_needs_matching_leading_dims(self):
        with pytest.raises(ShapeError, match="CONCAT"):
            infer_shape(K.CONCAT, {}, [(4, 4, 2), (2, 2, 2)])

    def test_pool_window_too_large(self):
        with pytest.raises(ShapeError, match="MAXPOOL"):
            infer_shape(K.MAXPOOL, {"kernel": [5, 5], "stride": 1}, [(4, 4, 1)])

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            infer_shape(K.CONV, {"out_channels": 1, "kernel": [1, 1],
                                 "striide": 2}, [(4, 4, 1)])

    @pytest.mark.parametrize("kind,params,bad", [
        (K.CONV, {"out_channels": 2, "kernel": [3, 3], "stride": 0}, "stride"),
        (K.MAXPOOL, {"kernel": [2, 2], "stride": -1}, "stride"),
        (K.AVGPOOL, {"kernel": [2, 2], "stride": 2.5}, "stride"),
        (K.CONV, {"out_channels": 0, "kernel": [3, 3]}, "out_channels"),
        (K.CONV, {"out_channels": "3", "kernel": [3, 3]}, "out_channels"),
        (K.FC, {"out_features": 0}, "out_features"),
        (K.FC, {"out_features": True}, "out_features"),
        (K.CONV, {"out_channels": 2, "kernel": [3]}, "kernel"),
        (K.MAXPOOL, {"kernel": [2, 0]}, "kernel"),
        (K.MAXPOOL, {"kernel": "22"}, "kernel"),
        (K.FC, {"out_features": 3, "bias": 1}, "bias"),
        (K.CONV, {"out_channels": 2, "kernel": [3, 3], "padding": "full"},
         "padding"),
    ])
    def test_invalid_param_value_named(self, kind, params, bad):
        shape = (4,) if kind is K.FC else (6, 6, 2)
        with pytest.raises(ValueError, match=rf"^{kind.name}: parameter '{bad}'"):
            infer_shape(kind, params, [shape])

    def test_numpy_ints_accepted(self):
        shape = infer_shape(K.CONV, {"out_channels": np.int64(2),
                                     "kernel": [np.int32(3), 3],
                                     "stride": np.int64(2)}, [(6, 6, 2)])
        assert shape == (3, 3, 2)

    def test_conv_same_padding_shape(self):
        shape = infer_shape(K.CONV, {"out_channels": 5, "kernel": [3, 3],
                                     "stride": 2, "padding": "same"},
                            [(7, 7, 2)])
        assert shape == (4, 4, 5)


class TestConservation:
    def test_add_concat_preserve_counts(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 3, 2))
        b = rng.standard_normal((2, 3, 3, 5))
        cat = op_forward(K.CONCAT, {}, {}, {}, [a, b])
        assert cat.size == a.size + b.size
        added = op_forward(K.ADD, {}, {}, {}, [a, a])
        assert added.size == a.size
        assert np.allclose(added, 2 * a)

    def test_maxpool_equals_bruteforce_window_scan(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 6, 8, 3))
        params = {"kernel": [2, 3], "stride": 2}
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
        _, (gx,) = op_backward(K.MAXPOOL, {"kernel": [2, 2], "stride": 2},
                               {}, {}, [x], None, grad)
        assert gx[0, 0, 0, 0] == 1.0
        assert gx.sum() == 1.0


# every kind, every supported rank
GRADIENT_CASES = [
    (K.RELU, {}, [(5,)]),
    (K.RELU, {}, [(4, 4, 2)]),
    (K.GELU, {}, [(5,)]),
    (K.GELU, {}, [(3, 3, 2)]),
    (K.SOFTMAX, {}, [(6,)]),
    (K.SOFTMAX, {}, [(2, 2, 4)]),
    (K.ADD, {}, [(4, 4, 2)] * 2),
    (K.ADD, {}, [(7,)] * 3),
    (K.CONCAT, {}, [(3, 3, 2), (3, 3, 4)]),
    (K.CONCAT, {}, [(4,), (6,)]),
    (K.FLATTEN, {}, [(3, 4, 2)]),
    (K.FC, {"out_features": 3}, [(6,)]),
    (K.FC, {"out_features": 4}, [(3, 3, 2)]),
    (K.BN, {}, [(4, 4, 3)]),
    (K.BN, {}, [(5,)]),
    (K.MAXPOOL, {"kernel": [2, 2], "stride": 2}, [(6, 6, 2)]),
    (K.MAXPOOL, {"kernel": [3, 3], "stride": 1}, [(5, 5, 1)]),
    (K.AVGPOOL, {"kernel": [2, 2], "stride": 2}, [(6, 6, 2)]),
    (K.AVGPOOL, {"kernel": [2, 2], "stride": 1}, [(4, 4, 3)]),
    (K.CONV, {"out_channels": 3, "kernel": [3, 3], "stride": 1,
              "padding": "same"}, [(5, 5, 2)]),
    (K.CONV, {"out_channels": 2, "kernel": [2, 2], "stride": 2,
              "padding": "valid"}, [(6, 6, 3)]),
    (K.CONV, {"out_channels": 2, "kernel": [3, 3], "stride": 2,
              "padding": "same", "bias": False}, [(7, 7, 1)]),
]


@pytest.mark.parametrize("case,kind,params,shapes",
                         [(i,) + c for i, c in enumerate(GRADIENT_CASES)],
                         ids=[f"{c[0].name}-{i}" for i, c in enumerate(GRADIENT_CASES)])
def test_gradients_match_finite_differences(case, kind, params, shapes):
    check_kind_gradients(kind, params, shapes, seed=101 + case)


@pytest.mark.parametrize("case,kind,params,shapes",
                         [(i,) + c for i, c in enumerate(GRADIENT_CASES)],
                         ids=[f"{c[0].name}-{i}" for i, c in enumerate(GRADIENT_CASES)])
def test_unbatched_forward_equals_batch_of_one(case, kind, params, shapes):
    rng = np.random.default_rng(case)
    weights, buffers = init_weights(kind, params, shapes, rng)
    arrays = [rng.standard_normal(s) for s in shapes]
    out = forward(kind, dict(params, weights=weights, buffers=buffers),
                  [Tensor.from_array(a) for a in arrays])
    batched = op_forward(kind, params, weights, buffers, [a[None] for a in arrays])
    assert same_bits(out.to_array(), batched[0])


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
        params = {"kernel": [2, 2], "stride": 2}
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
