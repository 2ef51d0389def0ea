"""Graph execution, backprop through DAGs, SGD training, gradient checking."""

import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from extractbench import network, similarity, tensor
from extractbench.network import (
    CrossEntropy,
    GraphError,
    Network,
    NodeSpec,
    SoftTargetKL,
    TrainConfig,
    finite_difference_check,
    train,
)
from extractbench.sidechannel import (
    BUILTIN_ENVIRONMENT_PROFILES,
    DS_VOCABULARY,
    ds_truth_sequence,
    simulate_kernel_trace,
    train_ds_model,
)
from extractbench.tensor import OperatorKind as K
from extractbench.tensor import ShapeError
from extractbench.zoo import BUILTIN_ARCHITECTURES, build_model, builtin_spec

from conftest import make_blobs, network_of, same_bits


def copied(grads):
    """A copy of `Network.grads`, whose arrays are views of the model's
    gradient vector that the next backward overwrites."""
    return {node_id: {name: g.copy() for name, g in wgrads.items()}
            for node_id, wgrads in grads.items()}


def fc_softmax(din, dout, seed=0):
    return network_of([NodeSpec("fc", K.FC, {"out_features": dout}, ("input",)),
                       NodeSpec("sm", K.SOFTMAX, {}, ("fc",))], (din,), seed)


class TestGraphStructure:
    def test_cycle_detected(self):
        nodes = [NodeSpec("a", K.RELU, {}, ("b",)),
                 NodeSpec("b", K.RELU, {}, ("a",))]
        with pytest.raises(GraphError, match="cycle"):
            network_of(nodes, (4,), 0)

    def test_unknown_input_named(self):
        with pytest.raises(GraphError, match="ghost"):
            network_of([NodeSpec("a", K.RELU, {}, ("ghost",))], (4,), 0)

    def test_two_sinks_rejected(self):
        nodes = [NodeSpec("a", K.RELU, {}, ("input",)),
                 NodeSpec("b", K.GELU, {}, ("input",))]
        with pytest.raises(GraphError, match="exactly one output"):
            network_of(nodes, (4,), 0)

    def test_missing_param_names_node(self):
        nodes = [NodeSpec("c1", K.CONV, {"out_channels": 2}, ("input",))]
        with pytest.raises(ValueError,
                           match=r"^node c1: CONV: missing parameter 'kernel'$"):
            network_of(nodes, (6, 6, 1), 0)

    def test_diamond_executes(self):
        nodes = [NodeSpec("l", K.RELU, {}, ("input",)),
                 NodeSpec("r", K.GELU, {}, ("input",)),
                 NodeSpec("join", K.ADD, {}, ("l", "r"))]
        net = network_of(nodes, (5,), 0)
        out = net.forward(np.ones((2, 5)))
        assert out.shape == (2, 5)


class TestBackward:
    def test_backward_before_forward_errors(self):
        net = fc_softmax(4, 2)
        with pytest.raises(RuntimeError, match="before forward"):
            net.backward(np.zeros((1, 2)))

    def test_gradient_shape_mismatch_errors(self):
        net = fc_softmax(4, 2)
        net.forward(np.zeros((3, 4)))
        with pytest.raises(ShapeError, match="output gradient"):
            net.backward(np.zeros((3, 5)))

    def test_zero_output_gradient_zeroes_parameters(self):
        net = fc_softmax(4, 3)
        net.forward(np.random.default_rng(0).standard_normal((2, 4)))
        input_grad = net.backward(np.zeros((2, 3)))
        for wgrads in net.grads.values():
            for g in wgrads.values():
                assert np.all(g == 0)
        assert np.all(input_grad == 0)

    def test_single_fc_matches_finite_differences(self):
        # independent oracle: perturb each weight, central difference 1e-5
        net = network_of([NodeSpec("fc", K.FC, {"out_features": 3}, ("input",))],
                         (5,), seed=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 5))
        proj = rng.standard_normal((2, 3))

        def objective():
            return float((net.forward(x) * proj).sum())

        objective()
        net.backward(proj)
        for name, w in net.weights["fc"].items():
            flat = w.reshape(-1)
            aflat = net.grads["fc"][name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-5
                up = objective()
                flat[i] = orig - 1e-5
                down = objective()
                flat[i] = orig
                numeric = (up - down) / 2e-5
                rel = abs(aflat[i] - numeric) / max(abs(aflat[i]),
                                                    abs(numeric), 1e-12)
                assert rel < 1e-4

    def test_conv_relu_input_gradient_matches_finite_differences(self):
        nodes = [NodeSpec("c", K.CONV, {"out_channels": 2, "kernel": [3, 3],
                                        "stride": 1, "padding": "same"},
                          ("input",)),
                 NodeSpec("r", K.RELU, {}, ("c",))]
        net = network_of(nodes, (5, 5, 1), seed=3)
        result = finite_difference_check(
            net, np.random.default_rng(4).standard_normal((5, 5, 1)),
            check_input=True)
        assert result.max_rel_error < 1e-4


class TestTrain:
    def test_zero_epochs_is_identity(self):
        net = fc_softmax(4, 2, seed=5)
        before = net.state_vector()
        history = train(net, np.zeros((6, 4)), np.zeros(6, dtype=int),
                        TrainConfig(epochs=0))
        assert history == []
        assert np.array_equal(net.state_vector(), before)

    def test_empty_dataset_rejected(self):
        net = fc_softmax(4, 2)
        with pytest.raises(ValueError, match="empty"):
            train(net, np.zeros((0, 4)), np.zeros(0, dtype=int),
                  TrainConfig(epochs=1))

    def test_label_arity_mismatch_rejected(self):
        net = fc_softmax(4, 2)
        with pytest.raises(ValueError, match="output width"):
            train(net, np.zeros((3, 4)), np.array([0, 1, 5]),
                  TrainConfig(epochs=1))

    def test_soft_target_width_mismatch_rejected(self):
        net = fc_softmax(4, 2)
        with pytest.raises(ValueError, match="probability"):
            train(net, np.zeros((3, 4)), np.full((3, 5), 0.2),
                  TrainConfig(epochs=1))

    def test_targets_choose_the_loss(self, monkeypatch):
        losses = []
        monkeypatch.setattr(network, "sgd_run",
                            lambda model, inputs, loss, config:
                            losses.append(type(loss)) or [])
        net = fc_softmax(4, 2)
        for targets in (np.array([0, 1, 1]), np.array([0, 1, 1], np.uint8),
                        np.full((3, 2), 0.5), np.eye(2, dtype=int)[[0, 1, 1]]):
            train(net, np.zeros((3, 4)), targets, TrainConfig(epochs=1))
        assert losses == [CrossEntropy, CrossEntropy, SoftTargetKL, SoftTargetKL]

    @pytest.mark.parametrize("targets", [
        np.array([0.0, 1.0, 1.0]),       # labels must be integers, not floats
        np.array([False, True, True]),   # nor booleans
        np.array([0, 1]),                # one label per row
        np.full((3, 2, 1), 0.5),         # rows are 1-D
        [[0, 1], [1, 0]],                # one row per input row
    ], ids=["float-labels", "bool-labels", "short-labels", "3-d", "short-rows"])
    def test_targets_of_neither_form_rejected(self, targets):
        net = fc_softmax(4, 2)
        with pytest.raises(ValueError, match=r"must be 3 integer labels or "
                                             r"\(3, 2\) probability rows"):
            train(net, np.zeros((3, 4)), targets, TrainConfig(epochs=1))

    def test_separable_blobs_reach_high_accuracy(self):
        from extractbench.datasets import DatasetSpec, generate
        data = generate(DatasetSpec("b2", 2, 120, (2, 1, 1), 0.0, 7, noise=0.25))
        flat = data.flat_inputs()

        # brute-force linear-classifier oracle: the task is linearly solvable
        means = np.stack([flat[data.labels == c].mean(axis=0) for c in (0, 1)])
        oracle_pred = np.argmin(
            ((flat[:, None, :] - means[None]) ** 2).sum(-1), axis=1)
        assert np.mean(oracle_pred == data.labels) >= 0.98

        net = network_of([NodeSpec("fc", K.FC, {"out_features": 2}, ("input",)),
                          NodeSpec("sm", K.SOFTMAX, {}, ("fc",))],
                         data.spec.input_shape, seed=0)
        train(net, data.inputs, data.labels, TrainConfig(epochs=30, seed=1))
        acc = np.mean(net.predict(data.inputs).argmax(1) == data.labels)
        assert acc >= 0.98

    def test_soft_targets_beat_hard_labels_on_agreement(self):
        data = make_blobs(classes=4, per_class=150, shape=(4, 4, 1),
                          overlap=0.5, seed=40)
        teacher = fc_softmax_model(data, seed=40, epochs=30)
        probs = teacher.predict(data.inputs)
        budget = 60
        inputs = data.inputs[:budget]
        agreements = {}
        for mode in ("soft", "hard"):
            # converged students: margin information needs training time to pay off
            student = Network(teacher.spec, seed=90)
            cfg = TrainConfig(learning_rate=0.05, epochs=200, seed=2)
            targets = probs[:budget] if mode == "soft" else probs[:budget].argmax(1)
            train(student, inputs, targets, cfg)
            agreements[mode] = np.mean(
                student.predict(data.inputs).argmax(1) == probs.argmax(1))
        assert agreements["soft"] > agreements["hard"]

    def test_same_seed_reproduces_parameters(self):
        data = make_blobs(classes=3, per_class=40, shape=(3, 3, 1), seed=2)
        nets = []
        for _ in range(2):
            net = fc_softmax(9, 3, seed=4)
            train(net, data.inputs.reshape(len(data.labels), 9), data.labels,
                  TrainConfig(epochs=3, seed=6))
            nets.append(net.state_vector())
        assert np.array_equal(nets[0], nets[1])


def fc_softmax_model(data, seed, epochs):
    net = network_of([NodeSpec("fc", K.FC, {"out_features": data.class_count},
                               ("input",)),
                      NodeSpec("sm", K.SOFTMAX, {}, ("fc",))],
                     data.spec.input_shape, seed=seed)
    train(net, data.inputs, data.labels, TrainConfig(epochs=epochs, seed=seed))
    return net


class TestFiniteDifferenceCheck:
    def test_correct_implementation_is_clean(self):
        net = fc_softmax(6, 3, seed=2)
        result = finite_difference_check(
            net, np.random.default_rng(0).standard_normal(6))
        assert result.has_parameters
        assert result.max_rel_error < 1e-4

    def test_scaled_gradient_is_flagged(self):
        class Sabotaged(Network):
            def backward(self, grad, **flags):
                out = super().backward(grad, **flags)
                self.grads["fc"]["weight"] *= 2.0
                return out

        net = Sabotaged(fc_softmax(6, 3).spec, 2)
        result = finite_difference_check(
            net, np.random.default_rng(0).standard_normal(6))
        assert result.max_rel_error >= 0.3

    def test_pure_activation_chain_reports_no_parameters(self):
        net = network_of([NodeSpec("r", K.RELU, {}, ("input",)),
                          NodeSpec("g", K.GELU, {}, ("r",))], (4,), 0)
        result = finite_difference_check(net, np.ones(4))
        assert result.max_rel_error == 0.0
        assert not result.has_parameters


class TestBatchNorm:
    def test_calibration_fixes_running_stats(self):
        nodes = [NodeSpec("bn", K.BN, {}, ("input",)),
                 NodeSpec("fc", K.FC, {"out_features": 2}, ("bn",)),
                 NodeSpec("sm", K.SOFTMAX, {}, ("fc",))]
        net = network_of(nodes, (5,), seed=0)
        batch = np.random.default_rng(1).normal(3.0, 2.0, size=(64, 5))
        net.calibrate_bn(batch)
        assert np.allclose(net.buffers["bn"]["running_mean"],
                           batch.mean(axis=0))
        normalized = net.forward(batch)
        assert net.bn_calibrated
        # inference form: same input, same output, regardless of batch makeup
        single = net.forward(batch[:1])
        assert np.allclose(normalized[:1], single)


class TestPredictAndWorkspace:
    """`forward` keeps activations and kernel workspace for `backward`;
    `predict` and `predict_and_probe` keep nothing and return the same
    bits."""

    @staticmethod
    def _model_and_input(arch_id, batch):
        model = build_model(builtin_spec(arch_id, (8, 8, 1), 4), seed=1)
        x = np.random.default_rng(batch).standard_normal((batch, 8, 8, 1))
        return model, x

    @pytest.mark.parametrize("batch", [1, 10])
    @pytest.mark.parametrize("arch_id", sorted(BUILTIN_ARCHITECTURES))
    def test_predict_equals_forward(self, arch_id, batch):
        model, x = self._model_and_input(arch_id, batch)
        out = model.forward(x)
        # the kept activations: the input at position 0, then one per node
        # in execution order
        ids = ["input"] + [node.node_id for node in model.order]
        acts = list(model._acts)
        assert len(acts) == len(ids)
        assert same_bits(model.predict(x), out)
        for node_id, act in zip(ids, acts):
            assert same_bits(model.predict(x, node_id), act), node_id
            both = model.predict_and_probe(x, node_id)
            assert same_bits(both[0], out) and same_bits(both[1], act), node_id

    @pytest.mark.parametrize("batch", [1, 10])
    @pytest.mark.parametrize("arch_id", sorted(BUILTIN_ARCHITECTURES))
    def test_kept_workspace_gradients_equal_recompute(self, arch_id, batch):
        model, x = self._model_and_input(arch_id, batch)
        out = model.forward(x)
        gout = np.random.default_rng(2).standard_normal(out.shape)
        model.predict(x[:1])  # inference in between leaves the cache alone
        kept = model.backward(gout)
        kept_w = copied(model.grads)
        model._ctxs = [{} for _ in model._ctxs]
        fresh = model.backward(gout)
        assert same_bits(kept, fresh)
        for node_id, wgrads in model.grads.items():
            for name, g in wgrads.items():
                assert same_bits(kept_w[node_id][name], g), node_id

    @pytest.mark.parametrize("arch_id", sorted(BUILTIN_ARCHITECTURES))
    def test_predict_stops_at_node(self, arch_id, monkeypatch):
        model, x = self._model_and_input(arch_id, 2)
        calls = []
        real = network.op_forward

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(network, "op_forward", counting)
        model.predict(x, "input")
        assert calls == []
        for i, node in enumerate(model.order):
            calls.clear()
            model.predict(x, node.node_id)
            assert calls == [n.kind for n in model.order[:i + 1]], node.node_id

    def test_predict_caches_nothing(self):
        model, x = self._model_and_input("mini-vgg-4", 3)
        model.predict(x)
        with pytest.raises(RuntimeError, match="before forward"):
            model.backward(np.zeros((3, 4)))

    def test_predict_unknown_node_rejected(self):
        model, x = self._model_and_input("mini-mlp-2", 2)
        with pytest.raises(KeyError, match="probe"):
            model.predict(x, "nope")
        with pytest.raises(KeyError, match="probe"):
            model.predict_and_probe(x, "nope")


class TestPlanSeam:
    """Every pass sends each node it runs through `network.op_forward` or
    `network.op_backward` once, with the kind first and the node's weights
    mapping third: `benchmarks/tracing.py` times the kernels by wrapping
    those two names. And the plan hands the kernels their geometry, so no
    pass computes any."""

    _model = staticmethod(TestPredictAndWorkspace._model_and_input)

    @staticmethod
    def _record(monkeypatch, model):
        calls = []
        owner = {id(w): node_id for node_id, w in model.weights.items()}
        for name in ("op_forward", "op_backward"):
            def record(*args, _real=getattr(network, name), _name=name, **kwargs):
                calls.append((_name, args[0], owner[id(args[2])]))
                return _real(*args, **kwargs)

            monkeypatch.setattr(network, name, record)
        return calls

    @pytest.mark.parametrize("arch_id", sorted(BUILTIN_ARCHITECTURES))
    def test_every_pass_calls_each_node_once(self, arch_id, monkeypatch):
        model, x = self._model(arch_id, 3)
        calls = self._record(monkeypatch, model)
        forward = [("op_forward", n.kind, n.node_id) for n in model.order]
        backward = [("op_backward", n.kind, n.node_id)
                    for n in reversed(model.order)]
        out = model.forward(x)
        assert calls == forward
        calls.clear()
        model.predict(x)
        assert calls == forward
        for flags in ({}, {"weight_grads": False}, {"input_grad": False}):
            calls.clear()
            model.backward(np.ones_like(out), **flags)
            assert calls == backward, flags
        calls.clear()
        model.calibrate_bn(x)
        assert calls == forward

    def test_no_geometry_is_computed_per_pass(self, monkeypatch):
        # mini-pyramid-4 has a CONV, a MAXPOOL and an AVGPOOL
        model, x = self._model("mini-pyramid-4", 3)
        rules = 0

        def counted(rule):
            def count(*args):
                nonlocal rules
                rules += 1
                return rule(*args)
            return count

        for kind in (K.CONV, K.MAXPOOL, K.AVGPOOL):
            op = tensor._OPS[kind]
            monkeypatch.setitem(tensor._OPS, kind,
                                replace(op, geometry=counted(op.geometry)))
        out = model.forward(x)
        model.backward(np.ones_like(out))
        model.backward(np.ones_like(out), weight_grads=False)
        model.predict(x)
        model.calibrate_bn(x)
        assert rules == 0
        # a kernel called outside a plan gets its geometry from the same rule
        tensor.op_forward(K.MAXPOOL, {"kernel": [2, 2]}, {}, {}, [x])
        assert rules == 1

    def test_spec_supplies_order_and_shapes(self, monkeypatch):
        spec = builtin_spec("mini-resnet-6", (8, 8, 1), 4)

        def not_again(*args):
            raise AssertionError("recomputed what the spec holds")

        monkeypatch.setattr(network, "topological_order", not_again)
        monkeypatch.setattr(network, "node_shapes", not_again)
        model = build_model(spec, seed=0)
        assert model.order == list(spec.execution_order)
        assert model.shapes == spec.derive_shapes()


class TestRowBlocks:
    """An inference pass over more rows than the network's block runs the
    plan on one block of rows at a time and joins the output and the held
    probe, so a row's output is its block's. Training passes, calibration
    and passes of at most one block run whole."""

    SHAPES = [((6, 6, 1), 2), ((8, 8, 1), 10)]

    @staticmethod
    def _widest_row(spec):
        """The widest per-row workspace, from the spec's shapes: a CONV's
        im2col columns (oh*ow*kh*kw*cin), else the node's output."""
        shapes = spec.derive_shapes()
        widths = []
        for node in spec.nodes:
            out = shapes[node.node_id]
            if node.kind is K.CONV:
                kh, kw = node.params["kernel"]
                cin = shapes[node.inputs[0]][-1]
                widths.append(out[0] * out[1] * kh * kw * cin)
            else:
                widths.append(int(np.prod(out)))
        return max(widths)

    @pytest.mark.parametrize("shape,classes", SHAPES)
    @pytest.mark.parametrize("arch_id", sorted(BUILTIN_ARCHITECTURES))
    def test_block_rows_follow_the_widest_workspace(self, arch_id, shape,
                                                    classes):
        spec = builtin_spec(arch_id, shape, classes)
        rows = build_model(spec, seed=0)._block_rows
        assert rows == 2 ** 18 // self._widest_row(spec)
        if spec.family == "mini-mlp":
            assert rows > 2800  # more than any built-in dataset holds

    def test_resnet_block_on_the_small_shape(self):
        spec = builtin_spec("mini-resnet-4", (6, 6, 1), 5)
        assert build_model(spec, seed=0)._block_rows == 101

    @pytest.mark.parametrize("shape,classes", SHAPES)
    @pytest.mark.parametrize("arch_id", sorted(BUILTIN_ARCHITECTURES))
    def test_a_pass_is_its_blocks_joined(self, arch_id, shape, classes):
        model = build_model(builtin_spec(arch_id, shape, classes), seed=1)
        # the real block where it is small, else one that keeps the test small
        rows = model._block_rows = min(model._block_rows, 128)
        x = np.random.default_rng(0).standard_normal((3 * rows + 5,) + shape)
        blocks = [x[i:i + rows] for i in range(0, len(x), rows)]
        assert [len(b) for b in blocks] == [rows] * 3 + [5]
        assert same_bits(model.predict(x),
                         np.concatenate([model.predict(b) for b in blocks]))
        for probe in (similarity.default_probe_point(model), "input"):
            out, act = model.predict_and_probe(x, probe)
            parts = [model.predict_and_probe(b, probe) for b in blocks]
            assert same_bits(out, np.concatenate([p[0] for p in parts])), probe
            assert same_bits(act, np.concatenate([p[1] for p in parts])), probe

    def test_each_block_sends_each_node_through_the_seam(self, monkeypatch):
        model, x = TestPredictAndWorkspace._model_and_input("mini-resnet-4", 1)
        rows = model._block_rows
        x = np.random.default_rng(0).standard_normal((3 * rows + 1, 8, 8, 1))
        calls = []
        owner = {id(w): node_id for node_id, w in model.weights.items()}
        real = network.op_forward

        def record(*args):
            calls.append((args[0], owner[id(args[2])], len(args[4][0])))
            return real(*args)

        monkeypatch.setattr(network, "op_forward", record)

        def per_node(*sizes):
            return [(n.kind, n.node_id, size)
                    for size in sizes for n in model.order]

        model.predict(x)
        assert calls == per_node(rows, rows, rows, 1)
        calls.clear()
        model.predict_and_probe(x, "input")
        assert calls == per_node(rows, rows, rows, 1)
        calls.clear()
        model.predict(x[:rows])
        assert calls == per_node(rows)
        # training and calibration passes run whole
        calls.clear()
        model.forward(x)
        assert calls == per_node(len(x))
        calls.clear()
        model.calibrate_bn(x)
        assert calls == per_node(len(x))

    def test_predict_memory_is_bounded_by_the_network(self):
        model = build_model(builtin_spec("mini-resnet-4", (6, 6, 1), 5), seed=0)
        rows = model._block_rows
        model.predict(np.zeros((1, 6, 6, 1)))  # one-time caches
        peaks = []
        for blocks in (1, 2, 8):
            x = np.random.default_rng(0).standard_normal((blocks * rows, 6, 6, 1))
            tracemalloc.start()
            try:
                model.predict(x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # twice the workspace budget; a whole 750-row pass peaks at 22 MB
        assert max(peaks) < 2 * 8 * network._BLOCK_ELEMENTS
        assert peaks[-1] < 1.05 * peaks[0]


class TestRequestedGradients:
    """`backward` computes only the gradients its caller asks for, and each
    one it computes has the bits of the full backward."""

    @pytest.mark.parametrize("batch", [1, 10])
    @pytest.mark.parametrize("arch_id", sorted(BUILTIN_ARCHITECTURES))
    def test_partial_backward_equals_full(self, arch_id, batch):
        model = build_model(builtin_spec(arch_id, (8, 8, 1), 4), seed=2)
        rng = np.random.default_rng(batch)
        out = model.forward(rng.standard_normal((batch, 8, 8, 1)))
        gout = rng.standard_normal(out.shape)
        gout[gout < -1.0] = -0.0
        full = model.backward(gout)
        full_w = copied(model.grads)
        # what input_grad=False writes must be new, and every node leads to
        # the output, so no weight gradient keeps its NaN
        model._grad[...] = np.nan
        assert model.backward(gout, input_grad=False) is None
        for node_id, wgrads in full_w.items():
            for name, g in wgrads.items():
                assert same_bits(model.grads[node_id][name], g), node_id
        model._grad[...] = np.nan  # weight_grads=False writes none
        assert same_bits(model.backward(gout, weight_grads=False), full)
        assert np.isnan(model._grad).all()

    def test_input_gradient_is_a_fresh_sum_from_zero(self):
        # the graph input's gradient has the bits of 0.0 + the first one to
        # reach it: a copy of FLATTEN's view of the output gradient, with
        # -0.0 read as +0.0
        net = network_of([NodeSpec("f", K.FLATTEN, {}, ("input",))], (2, 2, 1))
        net.forward(np.ones((1, 2, 2, 1)))
        g = np.array([[-0.0, 1.0, -2.0, 0.0]])
        ig = net.backward(g)
        assert same_bits(ig, (0.0 + g).reshape(1, 2, 2, 1))
        assert not np.shares_memory(ig, g)

    def test_two_readers_of_the_input_without_input_grad(self):
        # the CONV skips its input gradient, the ADD's is dropped
        nodes = [NodeSpec("c", K.CONV, {"out_channels": 1, "kernel": [3, 3]},
                          ("input",)),
                 NodeSpec("sum", K.ADD, {}, ("input", "c"))]
        net = network_of(nodes, (4, 4, 1), seed=0)
        net.forward(np.ones((2, 4, 4, 1)))
        assert net.backward(np.ones((2, 4, 4, 1)), input_grad=False) is None
        weight = net.grads["c"]["weight"].copy()
        net.backward(np.ones((2, 4, 4, 1)))
        assert same_bits(weight, net.grads["c"]["weight"])

    def test_sgd_never_builds_an_input_gradient(self, monkeypatch):
        # and each step runs one forward, on that step's rows
        flags, rows = [], []
        real_forward, real_backward = Network.forward, Network.backward

        def forward(self, x):
            rows.append(len(x))
            return real_forward(self, x)

        def backward(self, grad, **kwargs):
            flags.append(kwargs)
            result = real_backward(self, grad, **kwargs)
            assert result is None
            return result

        monkeypatch.setattr(Network, "forward", forward)
        monkeypatch.setattr(Network, "backward", backward)
        data = make_blobs(classes=3, per_class=10, shape=(6, 6, 1), seed=3)
        model = build_model(builtin_spec("mini-vgg-4", (6, 6, 1), 3), seed=0)
        train(model, data.inputs, data.labels, TrainConfig(epochs=2, batch_size=8))
        assert flags == [{"input_grad": False}] * 8
        assert rows == [8, 8, 8, 6] * 2


def reference_cross_entropy(probs, labels):
    """The per-step form of `network.CrossEntropy`: (loss, output gradient)."""
    n, width = probs.shape
    flat = np.arange(0, n * width, width) + labels
    p = np.maximum(probs.take(flat), 1e-12)
    grad = np.zeros(n * width)
    grad[flat] = -1.0 / (p * n)
    return -(float(np.add.reduce(np.log(p))) / n), grad.reshape(n, width)


def reference_soft_kl(probs, targets):
    """The per-step form of `network.SoftTargetKL`."""
    p = np.maximum(probs, 1e-12)
    t = targets
    tl = np.where(t > 0, np.log(np.maximum(t, 1e-12)), 0.0)
    loss = np.mean(np.sum(t * (tl - np.log(p)), axis=1))
    return loss, -(t / p) / probs.shape[0]


def reference_distill(probs, labels, soft, alpha, tau):
    """The per-step form of `similarity.DistillLoss`."""
    loss = 0.0
    grad = None
    if alpha > 0.0:
        ce_loss, ce_grad = reference_cross_entropy(probs, labels)
        loss += alpha * ce_loss
        grad = alpha * ce_grad
    if alpha < 1.0:
        s = np.maximum(probs, 1e-300) ** (1.0 / tau)
        s = s / s.sum(axis=1, keepdims=True)
        p = np.maximum(probs, 1e-12)
        tl = np.where(soft > 0, np.log(np.maximum(soft, 1e-300)), 0.0)
        kl = np.mean(np.sum(soft * (tl - np.log(np.maximum(s, 1e-300))), axis=1))
        loss += (1.0 - alpha) * tau ** 2 * kl
        kl_term = (1.0 - alpha) * tau ** 2 * (tau * (s - soft) / p / probs.shape[0])
        grad = kl_term if grad is None else grad + kl_term
    return loss, grad


def per_step_form(loss):
    """(probs, batch row indices) -> (loss, output gradient), computed
    from the loss object's data by the reference forms above."""
    if isinstance(loss, network.CrossEntropy):
        return lambda probs, idx: reference_cross_entropy(probs, loss.labels[idx])
    if isinstance(loss, network.SoftTargetKL):
        return lambda probs, idx: reference_soft_kl(probs, loss.targets[idx])
    if isinstance(loss, similarity.DistillLoss):
        soft = loss.soft_targets
        return lambda probs, idx: reference_distill(
            probs, loss.labels[idx], None if soft is None else soft[idx],
            loss.alpha, loss.tau)
    raise TypeError(f"no per-step form of {type(loss).__name__}")


def per_step_gather_sgd_run(model, inputs, loss, config, step_losses=None):
    """The plainest form of the SGD loop, and the oracle of `sgd_run`'s
    bits: a fancy-index gather of each batch's rows, the per-step form of
    the loss, ``w -= lr * g`` tensor by tensor, and the mean of the
    per-step losses. Each epoch's step losses are appended to
    `step_losses`, when given."""
    grad_fn = per_step_form(loss)
    n = inputs.shape[0]
    rng = np.random.default_rng(config.seed)
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        if not model.bn_calibrated:
            model.calibrate_bn(inputs[perm[:config.batch_size]])
        losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            probs = model.forward(inputs[idx])
            step_loss, gout = grad_fn(probs, idx)
            model.backward(gout, input_grad=False)
            for node_id, wgrads in model.grads.items():
                store = model.weights[node_id]
                for name, g in wgrads.items():
                    store[name] -= config.learning_rate * g
            losses.append(step_loss)
        if step_losses is not None:
            step_losses.append(np.array(losses, dtype=np.float64))
        history.append(float(np.mean(losses)))
        model.meta["epochs_trained"] += 1
    return history


@pytest.mark.parametrize("arch_id", sorted(BUILTIN_ARCHITECTURES))
def test_weight_gradients_are_disjoint_views(arch_id):
    # backward writes each weight gradient into its own span of the model's
    # gradient vector, and sgd_run scales that vector in place (`g *= lr`):
    # safe only while no gradient shares memory with a weight, a buffer, an
    # activation, a kernel workspace, the output gradient or another one
    model, x = TestPredictAndWorkspace._model_and_input(arch_id, 3)
    out = model.forward(x)
    gout = np.random.default_rng(0).standard_normal(out.shape)
    model.backward(gout, input_grad=False)
    grads = model.grads
    kept = [gout, *model._acts]
    kept += [a for w in model.weights.values() for a in w.values()]
    kept += [a for b in model.buffers.values() for a in b.values()]
    kept += [a for ctx in model._ctxs for a in ctx.values()]
    views = [g for wgrads in grads.values() for g in wgrads.values()]
    assert views and len(views) == sum(len(w) for w in model.weights.values())
    for i, g in enumerate(views):
        assert g.base is model._grad
        assert not any(np.shares_memory(g, a) for a in kept + views[:i])


class TestSgdLoopMatchesPerStepGather:
    """`sgd_run` trains to the bits of the per-step-gather loop: weights,
    BN statistics, each step's loss, loss history and meta, for every loss
    object. The step losses are compared too, since an epoch's mean can
    keep its bits while some of its steps' losses change."""

    @staticmethod
    def _both(monkeypatch, module, run):
        """`run()` with the real loop, then with the oracle in its place
        in `module`; each gives ((model, history), each epoch's step
        losses)."""
        lean_steps, oracle_steps = [], []
        real_epoch_loss = network.Loss.epoch_loss

        def epoch_loss(loss):
            lean_steps.append(np.array(loss.step_losses(), dtype=np.float64))
            return real_epoch_loss(loss)

        with monkeypatch.context() as patch:
            patch.setattr(network.Loss, "epoch_loss", epoch_loss)
            lean = run()
        with monkeypatch.context() as patch:
            patch.setattr(module, "sgd_run", partial(
                per_step_gather_sgd_run, step_losses=oracle_steps))
            oracle = run()
        return (lean, lean_steps), (oracle, oracle_steps)

    @staticmethod
    def _assert_same(lean, oracle):
        ((model, history), steps), ((want_model, want_history), want_steps) = \
            lean, oracle
        assert history and all(type(h) is float for h in history)
        assert history == want_history
        assert len(steps) == len(want_steps) == len(history)
        for epoch, (got, want) in enumerate(zip(steps, want_steps)):
            assert same_bits(got, want), f"step losses of epoch {epoch}"
        assert same_bits(model.state_vector(), want_model.state_vector())
        assert model.meta == want_model.meta

    @pytest.mark.parametrize("arch_id,batch_size", [
        ("mini-mlp-2", 7),       # 60 rows: a partial last batch
        ("mini-mlp-2", 60),      # one batch of every row
        ("mini-mlp-2", 100),     # batch_size > n
        ("mini-resnet-4", 16),   # BN: calibrate_bn runs on the first batch
    ])
    def test_cross_entropy(self, monkeypatch, arch_id, batch_size):
        data = make_blobs(classes=3, per_class=20, overlap=0.3, seed=5)

        def run():
            model = build_model(builtin_spec(arch_id, (6, 6, 1), 3), seed=1)
            history = train(model, data.inputs, data.labels,
                            TrainConfig(learning_rate=0.05, batch_size=batch_size,
                                        epochs=3, seed=2))
            return model, history

        self._assert_same(*self._both(monkeypatch, network, run))

    def test_tiny_fc_classifier(self, monkeypatch):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((53, 15))
        labels = rng.integers(0, len(DS_VOCABULARY), 53)

        def run():
            model = fc_softmax(15, len(DS_VOCABULARY), seed=0)
            history = train(model, rows, labels,
                            TrainConfig(learning_rate=0.5, batch_size=16,
                                        epochs=5, seed=0))
            return model, history

        self._assert_same(*self._both(monkeypatch, network, run))

    @pytest.mark.parametrize("batch_size", [10, 7])
    def test_soft_target_kl(self, monkeypatch, batch_size):
        data = make_blobs(classes=4, per_class=12, overlap=0.4, seed=6)
        teacher = fc_softmax_model(data, seed=3, epochs=2)
        soft = teacher.predict(data.inputs)
        soft[::5] = np.eye(4)[data.labels[::5]]  # zero targets: their logs drop

        def run():
            model = build_model(builtin_spec("mini-vgg-4", (6, 6, 1), 4), seed=4)
            history = train(model, data.inputs, soft,
                            TrainConfig(learning_rate=0.05, batch_size=batch_size,
                                        epochs=2, seed=5))
            return model, history

        self._assert_same(*self._both(monkeypatch, network, run))

    @pytest.mark.parametrize("alpha", [0.4, 0.3, 0.0, 1.0])
    def test_distill_blended_targets(self, monkeypatch, alpha):
        from extractbench.similarity import DistillConfig, distill
        data = make_blobs(classes=3, per_class=15, shape=(4, 4, 1),
                          overlap=0.3, seed=8)
        teacher = fc_softmax_model(data, seed=2, epochs=3)
        config = DistillConfig(
            "mini-mlp-2", temperature=3.0, hard_label_weight=alpha,
            distill_train=TrainConfig(learning_rate=0.05, batch_size=8,
                                      epochs=4, seed=6))
        histories = []

        def run():
            real = similarity.sgd_run

            def recording(*args):
                histories.append(real(*args))
                return histories[-1]

            with monkeypatch.context() as patch:
                patch.setattr(similarity, "sgd_run", recording)
                student = distill(teacher, config, data)
            return student, histories[-1]

        self._assert_same(*self._both(monkeypatch, similarity, run))


class TestOneTrainingLoop:
    """Every trainer calls `network.sgd_run` once, with the rows at args[1]
    and the config at args[3], and each step of it runs one
    `Network.forward` and one `Network.backward`: what the benchmark's
    tracer reads off that one loop (`network.sgd_steps`). A trainer with a
    loop of its own would also escape the per-step oracle above."""

    @staticmethod
    def _record(monkeypatch):
        calls = []
        passes = Counter()
        real_forward, real_backward = Network.forward, Network.backward

        def forward(self, x):
            passes["forward"] += 1
            return real_forward(self, x)

        def backward(self, grad, **flags):
            passes["backward"] += 1
            return real_backward(self, grad, **flags)

        for module in (network, similarity):
            def recording(*args, _real=module.sgd_run):
                before = dict(passes)
                history = _real(*args)
                calls.append((args, {k: passes[k] - before.get(k, 0)
                                     for k in ("forward", "backward")}))
                return history

            monkeypatch.setattr(module, "sgd_run", recording)
        monkeypatch.setattr(Network, "forward", forward)
        monkeypatch.setattr(Network, "backward", backward)
        return calls

    @staticmethod
    def _assert_one_run(calls, rows, config):
        assert len(calls) == 1
        args, passes = calls[0]
        inputs, seen = args[1], args[3]
        assert isinstance(seen, TrainConfig)
        assert seen.batch_size == config.batch_size
        assert seen.epochs == config.epochs
        assert len(inputs) == rows
        steps = -(-len(inputs) // seen.batch_size) * seen.epochs
        assert passes == {"forward": steps, "backward": steps}

    @pytest.mark.parametrize("form", ["hard-labels", "probability-rows"])
    def test_train(self, monkeypatch, form):
        data = make_blobs(classes=3, per_class=9, seed=4)
        targets = (data.labels if form == "hard-labels"
                   else np.full((27, 3), 1.0 / 3.0))
        config = TrainConfig(batch_size=5, epochs=2)
        model = build_model(builtin_spec("mini-mlp-2", (6, 6, 1), 3), seed=0)
        calls = self._record(monkeypatch)
        train(model, data.inputs, targets, config)
        self._assert_one_run(calls, 27, config)

    def test_distill(self, monkeypatch):
        from extractbench.similarity import DistillConfig, distill
        data = make_blobs(classes=3, per_class=9, shape=(4, 4, 1), seed=4)
        teacher = fc_softmax_model(data, seed=1, epochs=1)
        config = DistillConfig("mini-mlp-2", hard_label_weight=0.5,
                               distill_train=TrainConfig(batch_size=4, epochs=2))
        calls = self._record(monkeypatch)
        distill(teacher, config, data)
        self._assert_one_run(calls, 27, config.distill_train)

    def test_train_ds_model(self, monkeypatch):
        spec = builtin_spec("mini-vgg-4", (6, 6, 1), 4)
        profile = BUILTIN_ENVIRONMENT_PROFILES["gpu-low"]
        corpus = [(simulate_kernel_trace(spec, profile, seed=i),
                   ds_truth_sequence(spec)) for i in range(2)]
        config = TrainConfig(learning_rate=0.5, batch_size=16, epochs=3)
        rows = sum(t in DS_VOCABULARY for _, truth in corpus for t in truth)
        calls = self._record(monkeypatch)
        train_ds_model(corpus, config=config)
        self._assert_one_run(calls, rows, config)

    def test_train_on_miss(self, monkeypatch, tmp_path):
        from extractbench.orchestrator import Workbench, zoo_resolve
        from extractbench.zoo import ModelRef
        recipe = TrainConfig(batch_size=10, epochs=1)
        bench = Workbench(tmp_path / "repo", recipes={"blobs-2c-easy": recipe})
        rows = len(bench.dataset("blobs-2c-easy").inputs)
        calls = self._record(monkeypatch)
        _, from_cache, _ = zoo_resolve(ModelRef("mini-mlp-1", "blobs-2c-easy"),
                                       bench)
        assert not from_cache
        self._assert_one_run(calls, rows, recipe)


class TestStateVector:
    """Every weight and buffer is a view of the model's state vector, and
    everything that writes one writes into it, so a model keeps training
    after any of them."""

    @staticmethod
    def _assert_bound(model):
        state = [t for store in (model.weights, model.buffers)
                 for tensors in store.values() for t in tensors.values()]
        assert all(t.base is model._state for t in state)
        assert sum(t.size for t in state) == model._state.size
        assert all(g.base is model._grad for wgrads in model.grads.values()
                   for g in wgrads.values())

    @staticmethod
    def _train(model, data, epochs=2):
        return train(model, data.inputs, data.labels,
                     TrainConfig(learning_rate=0.05, epochs=epochs, seed=3))

    @pytest.mark.parametrize("arch_id", sorted(BUILTIN_ARCHITECTURES))
    def test_tensors_are_views_after_training(self, arch_id):
        data = make_blobs(classes=4, per_class=6, shape=(8, 8, 1), seed=2)
        model = build_model(builtin_spec(arch_id, (8, 8, 1), 4), seed=1)
        self._assert_bound(model)
        self._train(model, data)  # BN calibration included
        self._assert_bound(model)
        flat = np.concatenate([t.reshape(-1) for _, _, t, _ in model._tensors()])
        assert same_bits(model.state_vector(), flat)

    def test_trains_alike_after_noise_sweep(self):
        from extractbench.similarity import layer_noise_sensitivity
        data = make_blobs(classes=3, per_class=10, overlap=0.3, seed=7)
        swept = build_model(builtin_spec("mini-vgg-4", (6, 6, 1), 3), seed=2)
        layer_noise_sensitivity(swept, data, [0.0, 1.0], trials=2, seed=0)
        self._assert_bound(swept)
        plain = build_model(builtin_spec("mini-vgg-4", (6, 6, 1), 3), seed=2)
        assert self._train(swept, data) == self._train(plain, data)
        assert same_bits(swept.state_vector(), plain.state_vector())

    def test_trains_alike_after_load_state_vector(self):
        data = make_blobs(classes=3, per_class=10, overlap=0.3, seed=7)
        spec = builtin_spec("mini-resnet-4", (6, 6, 1), 3)
        source = build_model(spec, seed=4)
        self._train(source, data, epochs=1)  # calibrated BN statistics too
        loaded = build_model(spec, seed=5)
        loaded.load_state_vector(source.state_vector())
        loaded.bn_calibrated = True
        self._assert_bound(loaded)
        assert self._train(loaded, data) == self._train(source, data)
        assert same_bits(loaded.state_vector(), source.state_vector())


class TestTrainingMatchesGolden:
    """Trained weights and loss history, bit for bit, of the two small nets
    whose per-call overhead the engine trims: the side-channel sequence
    classifier (FC + SOFTMAX) and mini-mlp-2, the latter also as a
    distillation student (stored in ``tests/golden/training.json``; see
    ``conftest.golden``)."""

    def test_ds_classifier(self, golden):
        specs = [builtin_spec(a, (6, 6, 1), 4)
                 for a in ("mini-vgg-4", "mini-resnet-4", "mini-dense-3")]
        profile = BUILTIN_ENVIRONMENT_PROFILES["gpu-low"]
        corpus = [(simulate_kernel_trace(spec, profile, seed=i),
                   ds_truth_sequence(spec)) for spec in specs for i in range(2)]
        config = TrainConfig(learning_rate=0.5, batch_size=16, epochs=30,
                             seed=0)
        classifier = train_ds_model(corpus, config=config)
        # the same net trained on the same standardized rows, for its losses
        rows = np.concatenate([
            classifier.features(trace)[[t in DS_VOCABULARY for t in truth]]
            for trace, truth in corpus])
        labels = np.array([DS_VOCABULARY.index(t) for _, truth in corpus
                           for t in truth if t in DS_VOCABULARY])
        replica = fc_softmax(rows.shape[1], len(DS_VOCABULARY), seed=0)
        losses = train(replica, rows, labels, config)
        assert same_bits(replica.state_vector(), classifier.model.state_vector())
        golden("training", "ds-classifier",
               {"state": classifier.model.state_vector().tolist(),
                "losses": losses})

    def test_mini_mlp_2(self, golden):
        data = make_blobs(classes=4, per_class=30, overlap=0.3, seed=2)
        model = build_model(builtin_spec("mini-mlp-2", (6, 6, 1), 4), seed=1)
        losses = train(model, data.inputs, data.labels,
                       TrainConfig(learning_rate=0.05, epochs=4, seed=1))
        golden("training", "mini-mlp-2",
               {"state": model.state_vector().tolist(), "losses": losses})

    def test_distill_loss(self, golden):
        # sgd_run driven by the distillation blend. At temperature 3 the KL
        # weight (1 - alpha) T^2 is no power of two, so how it is associated
        # with the KL term changes the bits of some step losses; with two
        # steps an epoch and a small hard-label weight, the epoch means keep
        # those bits often enough to show
        from extractbench.similarity import DistillLoss, _soften
        data = make_blobs(classes=3, per_class=20, shape=(4, 4, 1),
                          overlap=0.3, seed=8)
        teacher = fc_softmax_model(data, seed=2, epochs=3)
        tau = 3.0
        soft = _soften(teacher.predict(data.inputs), tau)
        model = build_model(builtin_spec("mini-mlp-2", (4, 4, 1), 3), seed=6)
        losses = network.sgd_run(
            model, data.inputs, DistillLoss(data.labels, soft, 0.1, tau, 3),
            TrainConfig(learning_rate=0.05, batch_size=30, epochs=8, seed=6))
        golden("training", "distill-mini-mlp-2",
               {"state": model.state_vector().tolist(), "losses": losses})
