"""Architecture specs, MAdd accounting, checkpoints."""

import json
from pathlib import Path

import numpy as np
import pytest

from extractbench.fields import to_doc
from extractbench.network import NodeSpec
from extractbench.tensor import ConvParams, FCParams, PoolParams, ShapeError
from extractbench.tensor import OperatorKind as K
from extractbench.zoo import (
    ArchitectureSpec,
    BUILTIN_ARCHITECTURES,
    CheckpointError,
    ModelRef,
    build_model,
    builtin_spec,
    checkpoint_path,
    compute_madd,
    load_checkpoint,
    make_mini_vgg,
    save_checkpoint,
)

from conftest import make_blobs, same_bits, trained_model

SHAPE = (8, 8, 1)
# a reference names a registry dataset; save and load treat it as a key only
KEY = "blobs-2c-easy"


def conv_node(nid, src, channels, kernel=3, stride=1, padding="same"):
    return NodeSpec(nid, K.CONV,
                    ConvParams(channels, (kernel, kernel), stride, padding), (src,))


def _set_param(metadata_text, node_id, name, value):
    """metadata.json text with one node param of the spec echo replaced."""
    meta = json.loads(metadata_text)
    for node in meta["spec"]["nodes"]:
        if node["node_id"] == node_id:
            node["params"][name] = value
    return json.dumps(meta)


def _pre_dataclass_params(metadata_text):
    """metadata.json text with the spec echo's params in the form written
    before they were dataclasses: without their defaults, `{}` for none."""
    meta = json.loads(metadata_text)
    for node in meta["spec"]["nodes"]:
        params = node["params"] or {}
        params.pop("bias", None)
        node["params"] = params
    return json.dumps(meta)


def _set_meta(metadata_text, key, value):
    """metadata.json text with one top-level field replaced."""
    return json.dumps({**json.loads(metadata_text), key: value})


# The checkpoint tensor order the module docstring documents.
CHECKPOINT_ORDER = {K.CONV: ("weight", "bias"), K.FC: ("weight", "bias"),
                    K.BN: ("gamma", "beta", "running_mean", "running_var")}


class TestBuildModel:
    def test_same_seed_bit_identical(self):
        spec = builtin_spec("mini-resnet-4", SHAPE, 4)
        a = build_model(spec, seed=3)
        b = build_model(spec, seed=3)
        assert np.array_equal(a.state_vector(), b.state_vector())
        c = build_model(spec, seed=4)
        assert not np.array_equal(a.state_vector(), c.state_vector())

    def test_shape_incompatible_add_names_both_shapes(self):
        nodes = (
            conv_node("a", "input", 2),
            conv_node("b", "input", 3),
            NodeSpec("sum", K.ADD, None, ("a", "b")),
            NodeSpec("fc", K.FC, FCParams(2), ("sum",)),
            NodeSpec("sm", K.SOFTMAX, None, ("fc",)),
        )
        with pytest.raises(ShapeError) as err:
            ArchitectureSpec("bad", "test", nodes, SHAPE, 2)
        assert "(8, 8, 2)" in str(err.value) and "(8, 8, 3)" in str(err.value)

    def test_mini_vgg_output_width(self):
        spec = builtin_spec("mini-vgg-4", (16, 16, 1), 4)
        model = build_model(spec, seed=0)
        assert model.output_width == 4
        out = model.forward(np.zeros((2, 16, 16, 1)))
        assert out.shape == (2, 4)

    def test_every_builtin_compiles_and_runs(self):
        for arch_id in BUILTIN_ARCHITECTURES:
            spec = builtin_spec(arch_id, SHAPE, 3)
            model = build_model(spec, seed=1)
            out = model.forward(np.zeros((2,) + SHAPE))
            assert out.shape == (2, 3), arch_id

    @pytest.mark.parametrize("arch_id", sorted(BUILTIN_ARCHITECTURES))
    def test_state_vector_follows_documented_order(self, arch_id):
        model = build_model(builtin_spec(arch_id, SHAPE, 4), seed=2)
        rng = np.random.default_rng(0)
        for store in (model.weights, model.buffers):  # no two tensors alike
            for tensors in store.values():
                for t in tensors.values():  # written in place: views
                    t[...] = rng.standard_normal(t.shape)
        parts = []
        for node in model.spec.nodes:
            for name in CHECKPOINT_ORDER.get(node.kind, ()):
                store = model.buffers if name.startswith("running") else model.weights
                parts.append(store[node.node_id][name].reshape(-1))
        assert same_bits(model.state_vector(), np.concatenate(parts))


class TestSpecHash:
    def test_builtin_spec_hashes(self):
        spec = builtin_spec("mini-resnet-6", (8, 8, 1), 4)
        assert hash(spec) == hash(spec)
        assert {spec: 1}[builtin_spec("mini-resnet-6", (8, 8, 1), 4)] == 1

    def test_equal_specs_built_apart_hash_equal(self):
        a, b = make_mini_vgg(4, SHAPE, 4), make_mini_vgg(4, SHAPE, 4)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert make_mini_vgg(6, SHAPE, 4) != a


class TestMAdd:
    def test_single_fc(self):
        nodes = (NodeSpec("fc", K.FC, FCParams(5), ("input",)),
                 NodeSpec("sm", K.SOFTMAX, None, ("fc",)))
        spec = ArchitectureSpec("fc10x5", "test", nodes, (10,), 5)
        report = compute_madd(spec)
        assert report.per_node["fc"] == 50
        assert report.total == 50 + 0

    def test_conv_example_matches_nested_loop_oracle(self):
        nodes = (conv_node("c", "input", 4),
                 NodeSpec("fl", K.FLATTEN, None, ("c",)),
                 NodeSpec("fc", K.FC, FCParams(2), ("fl",)),
                 NodeSpec("sm", K.SOFTMAX, None, ("fc",)))
        spec = ArchitectureSpec("c8", "test", nodes, (8, 8, 3), 2)
        report = compute_madd(spec)

        # oracle: walk the convolution loop nest, counting one multiply per
        # kernel tap (padded taps still multiply)
        count = 0
        for _oh in range(8):
            for _ow in range(8):
                for _co in range(4):
                    for _kh in range(3):
                        for _kw in range(3):
                            for _ci in range(3):
                                count += 1
        assert count == 8 * 8 * 4 * 3 * 3 * 3 == 6912
        assert report.per_node["c"] == count

    def test_pure_activation_chain_is_zero(self):
        nodes = (NodeSpec("r", K.RELU, None, ("input",)),
                 NodeSpec("p", K.MAXPOOL, PoolParams((2, 2), 2),
                          ("r",)))
        spec = ArchitectureSpec("act", "test", nodes, (4, 4, 2), 8)
        assert compute_madd(spec).total == 0

    def test_total_invariant_under_node_list_reordering(self):
        spec = builtin_spec("mini-resnet-4", SHAPE, 4)
        shuffled = list(spec.nodes)
        rng = np.random.default_rng(0)
        rng.shuffle(shuffled)
        reordered = ArchitectureSpec(spec.id, spec.family, tuple(shuffled),
                                     spec.input_shape, spec.class_count)
        assert compute_madd(reordered).total == compute_madd(spec).total
        assert compute_madd(reordered).per_node == compute_madd(spec).per_node

    def test_conv_counts_match_bruteforce_on_random_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            h = int(rng.integers(4, 16))
            w = int(rng.integers(4, 16))
            cin = int(rng.integers(1, 8))
            cout = int(rng.integers(1, 8))
            kern = int(rng.integers(1, min(4, h, w) + 1))
            stride = int(rng.integers(1, 3))
            nodes = (conv_node("c", "input", cout, kernel=kern, stride=stride,
                               padding="valid"),
                     NodeSpec("fl", K.FLATTEN, None, ("c",)),
                     NodeSpec("fc", K.FC, FCParams(2), ("fl",)),
                     NodeSpec("sm", K.SOFTMAX, None, ("fc",)))
            spec = ArchitectureSpec("r", "test", nodes, (h, w, cin), 2)
            oh = (h - kern) // stride + 1
            ow = (w - kern) // stride + 1
            brute = sum(1 for _ in range(oh) for _ in range(ow)
                        for _ in range(cout) for _ in range(kern)
                        for _ in range(kern) for _ in range(cin))
            assert compute_madd(spec).per_node["c"] == brute

    def test_madd_total_is_per_node_sum(self):
        for arch_id in ("mini-vgg-6", "mini-dense-4", "mini-pyramid-5"):
            report = compute_madd(builtin_spec(arch_id, SHAPE, 4))
            assert report.total == sum(report.per_node.values())


class TestOperatorSequence:
    """The execution-order operator kinds of a spec (topological,
    declaration-order ties)."""

    def test_three_node_chain(self):
        nodes = (conv_node("c", "input", 2),
                 NodeSpec("r", K.RELU, None, ("c",)),
                 NodeSpec("f", K.FC, FCParams(3), ("r",)),
                 NodeSpec("sm", K.SOFTMAX, None, ("f",)))
        spec = ArchitectureSpec("chain", "test", nodes, (4, 4, 1), 3)
        assert [n.kind for n in spec.execution_order][:3] == [K.CONV, K.RELU, K.FC]

    def test_diamond_branches_precede_join(self):
        nodes = (conv_node("l", "input", 2),
                 conv_node("r", "input", 2),
                 NodeSpec("join", K.ADD, None, ("l", "r")),
                 NodeSpec("fc", K.FC, FCParams(2), ("join",)),
                 NodeSpec("sm", K.SOFTMAX, None, ("fc",)))
        spec = ArchitectureSpec("diamond", "test", nodes, (4, 4, 1), 2)
        seq = [n.kind for n in spec.execution_order]
        assert seq.index(K.ADD) > max(i for i, k in enumerate(seq)
                                      if k is K.CONV)

    def test_length_equals_node_count(self):
        for arch_id in BUILTIN_ARCHITECTURES:
            spec = builtin_spec(arch_id, SHAPE, 4)
            assert len(spec.execution_order) == len(spec.nodes)

    def test_seven_kind_specs_contain_no_gelu(self):
        for arch_id in BUILTIN_ARCHITECTURES:
            if "gelu" in arch_id:
                continue
            spec = builtin_spec(arch_id, SHAPE, 4)
            assert K.GELU not in [n.kind for n in spec.execution_order]


class TestCheckpoints:
    def test_round_trip_bit_identical(self, tmp_path):
        data = make_blobs(classes=3, per_class=30, shape=(4, 4, 1), seed=5)
        model = trained_model("mini-resnet-4", data, epochs=2, seed=7)
        ref = ModelRef("mini-resnet-4", KEY, None, "t1")
        save_checkpoint(model, ref, tmp_path)
        loaded = load_checkpoint(ref, tmp_path, model.spec)
        assert np.array_equal(loaded.state_vector(), model.state_vector())
        assert loaded.meta["epochs_trained"] == model.meta["epochs_trained"]
        assert to_doc(loaded.spec) == to_doc(model.spec)
        assert loaded.meta == model.meta
        assert loaded.bn_calibrated is model.bn_calibrated

    def test_spec_with_numpy_numbers_round_trips(self, tmp_path):
        # numpy integers pass the params' rules; metadata.json writes them as
        # JSON integers, and the same spec is served its checkpoint back
        spec = ArchitectureSpec("np-fc", "mini-mlp", (
            NodeSpec("head", K.FC, FCParams(np.int64(2))),
            NodeSpec("probs", K.SOFTMAX, None, ("head",))), (2, 2, 1),
            np.int64(2))
        model = build_model(spec, seed=3)
        ref = ModelRef("mini-mlp-1", KEY, None, "np")
        save_checkpoint(model, ref, tmp_path)
        loaded = load_checkpoint(ref, tmp_path, spec)
        assert np.array_equal(loaded.state_vector(), model.state_vector())
        meta = json.loads((checkpoint_path(tmp_path, ref)
                           / "metadata.json").read_text())
        assert meta["spec"]["nodes"][0]["params"] == {"out_features": 2,
                                                      "bias": True}
        assert type(meta["spec"]["class_count"]) is int

    def test_truncated_params_is_corruption(self, tmp_path):
        data = make_blobs(classes=3, per_class=20, shape=(4, 4, 1), seed=6)
        model = trained_model("mini-mlp-2", data, epochs=1, seed=7)
        ref = ModelRef("mini-mlp-2", KEY, None, "t1")
        save_checkpoint(model, ref, tmp_path)
        params = checkpoint_path(tmp_path, ref) / "params.bin"
        params.write_bytes(params.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(ref, tmp_path, model.spec)

    @pytest.mark.parametrize("damage", [
        lambda text: text[:len(text) // 2],
        lambda text: "",
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "spec"}),
        lambda text: "[]",
        lambda text: _set_param(text, "conv", "stride", 0),
        lambda text: _set_param(text, "head", "out_features", 0),
        _pre_dataclass_params,
        lambda text: _set_meta(text, "bn_calibrated", "false"),
        lambda text: _set_meta(text, "seed", "12"),
        lambda text: _set_meta(text, "epochs_trained", 2.9),
        lambda text: json.dumps({**json.loads(text), "note": "x"}),
    ], ids=["truncated", "empty", "no-spec", "not-an-object", "stride-0",
            "out-features-0", "params-pre-dataclass", "calibrated-string",
            "seed-string", "epochs-float", "extra-key"])
    def test_unreadable_metadata_is_corruption(self, tmp_path, damage):
        data = make_blobs(classes=3, per_class=20, shape=(4, 4, 1), seed=6)
        model = trained_model("mini-student-cnn", data, epochs=1, seed=7)
        ref = ModelRef("mini-student-cnn", KEY, None, "t1")
        save_checkpoint(model, ref, tmp_path)
        meta = checkpoint_path(tmp_path, ref) / "metadata.json"
        meta.write_text(damage(meta.read_text()))
        with pytest.raises(CheckpointError, match="corrupt.*metadata.json"):
            load_checkpoint(ref, tmp_path, model.spec)

    def test_missing_checkpoint_errors(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(ModelRef("mini-mlp-2", KEY, None, "x"), tmp_path,
                            builtin_spec("mini-mlp-2", SHAPE, 4))

    def test_two_tags_coexist(self, tmp_path):
        data = make_blobs(classes=3, per_class=20, shape=(4, 4, 1), seed=8)
        m1 = trained_model("mini-mlp-2", data, epochs=1, seed=1)
        m2 = trained_model("mini-mlp-2", data, epochs=2, seed=2)
        r1 = ModelRef("mini-mlp-2", KEY, None, "early")
        r2 = ModelRef("mini-mlp-2", KEY, None, "late")
        save_checkpoint(m1, r1, tmp_path)
        save_checkpoint(m2, r2, tmp_path)
        assert np.array_equal(load_checkpoint(r1, tmp_path, m1.spec).state_vector(),
                              m1.state_vector())
        assert np.array_equal(load_checkpoint(r2, tmp_path, m2.spec).state_vector(),
                              m2.state_vector())

    def test_save_keeps_an_existing_checkpoint(self, tmp_path):
        data = make_blobs(classes=3, per_class=20, shape=(4, 4, 1), seed=8)
        m1 = trained_model("mini-mlp-2", data, epochs=1, seed=1)
        m2 = trained_model("mini-mlp-2", data, epochs=2, seed=2)
        ref = ModelRef("mini-mlp-2", KEY, None, "t1")
        save_checkpoint(m1, ref, tmp_path)
        save_checkpoint(m2, ref, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [ref.slug()]
        assert np.array_equal(load_checkpoint(ref, tmp_path, m1.spec).state_vector(),
                              m1.state_vector())

    def test_interrupted_save_leaves_old_checkpoint_and_no_debris(
            self, tmp_path, monkeypatch):
        data = make_blobs(classes=3, per_class=20, shape=(4, 4, 1), seed=8)
        old = trained_model("mini-mlp-2", data, epochs=1, seed=1)
        new = trained_model("mini-mlp-2", data, epochs=2, seed=2)
        ref = ModelRef("mini-mlp-2", KEY, None, "t1")
        save_checkpoint(old, ref, tmp_path)
        real_write = Path.write_bytes

        def failing_write(path, data):
            if path.name == "params.bin":
                raise OSError("disk full")
            return real_write(path, data)

        monkeypatch.setattr(Path, "write_bytes", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(new, ref, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [ref.slug()]
        assert np.array_equal(load_checkpoint(ref, tmp_path, old.spec).state_vector(),
                              old.state_vector())

    @pytest.mark.parametrize("tag", ["..", "/abs", "a/b", "", "x/../../../tagesc"])
    def test_tag_is_one_file_name_component(self, tag):
        with pytest.raises(ValueError,
                           match="checkpoint_tag .* must be one file-name component"):
            ModelRef("mini-mlp-2", "blobs-2c-easy", None, tag)

    @pytest.mark.parametrize("ids,message", [
        (("mini-nothing", KEY), "unknown architecture_id 'mini-nothing'"),
        (("mini-mlp-2", "no-such-data"), "unknown dataset_id 'no-such-data'")],
        ids=["architecture", "dataset"])
    def test_unknown_registry_id_names_its_field(self, ids, message):
        with pytest.raises(ValueError, match=message):
            ModelRef(*ids)

    def test_empty_class_subset_means_all_classes(self):
        ref = ModelRef("mini-mlp-2", KEY, ())
        assert ref.class_subset is None
        assert ref == ModelRef("mini-mlp-2", KEY)
