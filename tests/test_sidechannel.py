"""Trace/cache simulators and both extraction pipelines, oracle-checked.

sequence_fidelity is validated against a memoized-recursion edit-distance
oracle; the PCA fingerprint space is validated against full-eigendecomposition
identities (explained variance, optimal rank-2 reconstruction error).
"""

import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extractbench.sidechannel import (
    BUILTIN_ENVIRONMENT_PROFILES,
    BUILTIN_MACHINE_PROFILES,
    DS_VOCABULARY,
    EnvironmentProfile,
    KernelTraceEvent,
    MachineProfile,
    NOISE,
    SYMBOLS,
    SymbolHistogram,
    dr_classify,
    ds_extract,
    ds_truth_sequence,
    fit_fingerprint_space,
    read_histograms_csv,
    read_trace_jsonl,
    seeded_generators,
    sequence_fidelity,
    simulate_kernel_trace,
    simulate_symbol_stream,
    train_ds_model,
    write_histograms_csv,
    write_trace_jsonl,
)
from extractbench.sidechannel import _SYMBOL_MAP, _nearest, _vote
from extractbench.network import NodeSpec, node_shapes, topological_order
from extractbench.tensor import ConvParams, FCParams
from extractbench.tensor import OperatorKind as K
from extractbench.tensor import buffer_shapes, madd, weight_shapes
from extractbench.zoo import (BUILTIN_ARCHITECTURES, ArchitectureSpec,
                              builtin_spec, compute_madd, make_mini_resnet)

SHAPE = (8, 8, 1)
CONVENTIONAL = ("mini-vgg-4", "mini-vgg-6", "mini-resnet-4", "mini-resnet-6",
                "mini-dense-3", "mini-dense-4")


def chain_spec():
    nodes = (
        NodeSpec("c", K.CONV, ConvParams(2, (3, 3)), ("input",)),
        NodeSpec("r", K.RELU, None, ("c",)),
        NodeSpec("f", K.FC, FCParams(4), ("r",)),
    )
    return ArchitectureSpec("chain", "test", nodes, SHAPE, 4)


def make_corpus(arch_ids, seeds=6, jitter=0.05, classes=4):
    profile = EnvironmentProfile("corpus", metric_jitter=jitter)
    corpus = []
    for arch_id in arch_ids:
        spec = builtin_spec(arch_id, SHAPE, classes)
        truth = ds_truth_sequence(spec)
        for s in range(seeds):
            corpus.append((simulate_kernel_trace(spec, profile, seed=s), truth))
    return corpus


class TestTraceSimulation:
    def test_one_event_per_node_with_stated_volumes(self):
        events = simulate_kernel_trace(chain_spec(),
                                       EnvironmentProfile("quiet"), seed=0)
        assert len(events) == 3
        conv = events[0]
        # read = 8 * (input elements + weight and bias elements)
        assert conv.read_volume == 8 * (64 + 3 * 3 * 1 * 2 + 2)
        assert conv.write_volume == 8 * (8 * 8 * 2)
        assert conv.input_volume == 64
        assert conv.output_volume == 128
        relu = events[1]
        assert relu.exec_lat == pytest.approx(128.0)  # madd 0 + out elements

    def test_verbose_runtime_adds_events(self):
        events = simulate_kernel_trace(
            chain_spec(), BUILTIN_ENVIRONMENT_PROFILES["gpu-verbose"], seed=0)
        assert len(events) > 3
        assert any(e.true_kind == NOISE for e in events)

    def test_deterministic_under_seed(self):
        profile = BUILTIN_ENVIRONMENT_PROFILES["gpu-noisy"]
        a = simulate_kernel_trace(chain_spec(), profile, seed=5)
        b = simulate_kernel_trace(chain_spec(), profile, seed=5)
        assert a == b
        c = simulate_kernel_trace(chain_spec(), profile, seed=6)
        assert a != c

    def test_jsonl_round_trip(self, tmp_path):
        events = simulate_kernel_trace(
            chain_spec(), BUILTIN_ENVIRONMENT_PROFILES["gpu-low"], seed=1)
        path = write_trace_jsonl(events, tmp_path / "t.jsonl")
        assert read_trace_jsonl(path) == events


class TestDsModel:
    def test_memorizes_single_architecture(self):
        spec = builtin_spec("mini-vgg-4", SHAPE, 4)
        truth = ds_truth_sequence(spec)
        quiet = EnvironmentProfile("quiet")
        trace = simulate_kernel_trace(spec, quiet, seed=0)
        clf = train_ds_model([(trace, truth)], window=1)
        scored = [(p, t) for p, t in zip(clf.predict(trace), truth)
                  if t in DS_VOCABULARY]
        assert scored and all(p == t for p, t in scored)

    def test_standardized_features_have_zero_mean(self):
        corpus = make_corpus(("mini-vgg-4", "mini-resnet-4"), seeds=3)
        clf = train_ds_model(corpus, window=1)
        rows = np.concatenate([clf.features(trace) for trace, _ in corpus])
        in_vocab = np.concatenate(
            [[t in DS_VOCABULARY for t in truth] for _, truth in corpus])
        assert np.abs(rows[in_vocab].mean(axis=0)).max() < 1e-6

    def test_predictions_always_in_vocabulary(self):
        corpus = make_corpus(("mini-vgg-4", "mini-dense-3"), seeds=2)
        clf = train_ds_model(corpus, window=1)
        gelu = builtin_spec("mini-gelu-6", SHAPE, 4)
        trace = simulate_kernel_trace(gelu, EnvironmentProfile("q"), seed=9)
        predicted = ds_extract(trace, clf)
        assert set(predicted) <= set(DS_VOCABULARY)
        assert len(predicted) == len(trace)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_ds_model([])


@pytest.fixture(scope="module")
def classifier():
    return train_ds_model(make_corpus(CONVENTIONAL), window=1)


class TestDsExtract:
    def test_high_fidelity_on_trained_families(self, classifier):
        eval_profile = EnvironmentProfile("eval", metric_jitter=0.02)
        fids = []
        for arch_id in CONVENTIONAL:
            spec = builtin_spec(arch_id, SHAPE, 4)
            trace = simulate_kernel_trace(spec, eval_profile, seed=77)
            fids.append(sequence_fidelity(ds_extract(trace, classifier),
                                          ds_truth_sequence(spec)))
        assert np.median(fids) >= 0.8

    def test_gelu_architecture_scores_strictly_lower(self, classifier):
        eval_profile = EnvironmentProfile("eval", metric_jitter=0.02)

        def fid(arch_id, seed):
            spec = builtin_spec(arch_id, SHAPE, 4)
            trace = simulate_kernel_trace(spec, eval_profile, seed=seed)
            return sequence_fidelity(ds_extract(trace, classifier),
                                     ds_truth_sequence(spec))

        for pair in (("mini-gelu-4", "mini-vgg-4"), ("mini-gelu-6", "mini-vgg-6")):
            gelu = np.median([fid(pair[0], s) for s in range(5)])
            plain = np.median([fid(pair[1], s) for s in range(5)])
            assert gelu < plain

    def test_verbose_trace_inflates_predicted_length(self, classifier):
        profile = BUILTIN_ENVIRONMENT_PROFILES["gpu-verbose"]
        for arch_id in CONVENTIONAL:
            spec = builtin_spec(arch_id, SHAPE, 4)
            for seed in range(3):
                trace = simulate_kernel_trace(spec, profile, seed=seed)
                predicted = ds_extract(trace, classifier)
                assert len(predicted) > len(ds_truth_sequence(spec))


class TestSequenceFidelity:
    def test_identical_sequences(self):
        assert sequence_fidelity(["Conv", "ReLU"], ["Conv", "ReLU"]) == 1.0

    def test_single_substitution_example(self):
        got = sequence_fidelity(["Conv", "ReLU", "FC"],
                                ["Conv", "ReLU", "Pool"])
        assert got == pytest.approx(1 - 1 / 3)

    def test_empty_prediction_scores_zero(self):
        assert sequence_fidelity([], ["Conv", "ReLU", "FC"]) == 0.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sequence_fidelity(["Conv"], [])

    @staticmethod
    def _oracle_distance(a, b):
        a, b = tuple(a), tuple(b)

        @lru_cache(maxsize=None)
        def rec(i, j):
            if i == 0:
                return j
            if j == 0:
                return i
            return min(rec(i - 1, j) + 1, rec(i, j - 1) + 1,
                       rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]))

        return rec(len(a), len(b))

    @given(a=st.lists(st.sampled_from(DS_VOCABULARY), max_size=12),
           b=st.lists(st.sampled_from(DS_VOCABULARY), min_size=1, max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_matches_memoized_recursion_oracle(self, a, b):
        got = sequence_fidelity(a, b)
        expected = 1 - self._oracle_distance(a, b) / max(len(a), len(b))
        assert got == pytest.approx(expected)
        assert 0.0 <= got <= 1.0
        assert (got == 1.0) == (list(a) == list(b))
        if a:
            assert got == pytest.approx(sequence_fidelity(b, a))


class TestSymbolStream:
    def test_mapping_on_plain_chain(self):
        nodes = (
            NodeSpec("c1", K.CONV, ConvParams(2, (3, 3)), ("input",)),
            NodeSpec("c2", K.CONV, ConvParams(2, (3, 3)), ("c1",)),
            NodeSpec("r", K.RELU, None, ("c2",)),
        )
        spec = ArchitectureSpec("cc", "test", nodes, SHAPE, 4)
        hist = simulate_symbol_stream(spec, MachineProfile("clean"), seed=0)
        assert hist.counts == {"Conv": 2, "Bias": 2, "Relu": 1, "MatMul": 0,
                               "Softmax": 0, "MaxPool": 0, "AveragePool": 0,
                               "Merge": 0}

    def test_matmul_invisible_profile_zeroes_fc(self):
        spec = builtin_spec("mini-mlp-3", SHAPE, 4)
        hist = simulate_symbol_stream(
            spec, BUILTIN_MACHINE_PROFILES["tf2-like"], seed=1)
        assert hist.counts["MatMul"] == 0

    def test_full_drop_no_spurious_is_empty(self):
        spec = builtin_spec("mini-vgg-4", SHAPE, 4)
        profile = MachineProfile("dead", drop_rate=1.0, spurious_rate=0.0)
        hist = simulate_symbol_stream(spec, profile, seed=2)
        assert all(v == 0 for v in hist.counts.values())

    def test_deterministic_and_csv_round_trip(self, tmp_path):
        profile = BUILTIN_MACHINE_PROFILES["i7-4770-like"]
        spec = builtin_spec("mini-dense-3", SHAPE, 4)
        a = simulate_symbol_stream(spec, profile, seed=3)
        b = simulate_symbol_stream(spec, profile, seed=3)
        assert a.counts == b.counts
        path = write_histograms_csv([a], tmp_path / "h.csv")
        (loaded,) = read_histograms_csv(path)
        assert loaded.counts == a.counts
        assert loaded.true_family == a.true_family


def _noiseless_corpus(arch_ids, per_arch=3, classes=4):
    profile = MachineProfile("clean")
    return [simulate_symbol_stream(builtin_spec(a, SHAPE, classes), profile,
                                   seed=s)
            for a in arch_ids for s in range(per_arch)]


class TestFingerprintSpace:
    def test_single_axis_variance_aligns_first_component(self):
        hists = []
        for i in range(8):
            counts = dict.fromkeys(SYMBOLS, 5)
            counts["Conv"] = i * 3
            hists.append(SymbolHistogram(counts, "p", f"a{i % 4}", "f"))
        model = fit_fingerprint_space(hists, k=1)
        axis = np.zeros(len(SYMBOLS))
        axis[SYMBOLS.index("Conv")] = 1.0
        assert abs(float(model.components[0] @ axis)) > 0.999

    def test_k1_query_identical_to_training_point(self):
        corpus = _noiseless_corpus(("mini-vgg-4", "mini-resnet-4"))
        model = fit_fingerprint_space(corpus, k=1)
        pred = dr_classify(corpus[0], model)
        assert pred.architecture_id == "mini-vgg-4"
        assert pred.family == "mini-vgg"

    def test_rank2_corpus_fully_explained(self):
        # integer combinations of two integer directions: exactly rank 2
        rng = np.random.default_rng(4)
        u1 = rng.integers(-3, 4, size=8)
        u2 = rng.integers(-3, 4, size=8)
        hists = []
        for i in range(12):
            vec = 40 + int(rng.integers(-5, 6)) * u1 + int(rng.integers(-5, 6)) * u2
            assert vec.min() >= 0  # stays a valid count vector
            counts = {s: int(v) for s, v in zip(SYMBOLS, vec)}
            hists.append(SymbolHistogram(counts, "p", f"a{i % 3}", "f"))
        model = fit_fingerprint_space(hists, k=1)
        assert model.explained_variance == pytest.approx(1.0, abs=1e-9)

        # oracle: full eigendecomposition agrees, and the projection achieves
        # the optimal rank-2 reconstruction error (the trailing spectrum mass)
        x = np.array([h.vector() for h in hists])
        xc = x - x.mean(axis=0)
        eig = np.sort(np.linalg.eigvalsh(xc.T @ xc / (len(x) - 1)))[::-1]
        assert model.explained_variance == pytest.approx(
            eig[:2].sum() / eig.sum())
        recon = model.points @ model.components
        frob_err = np.sum((xc - recon) ** 2)
        assert frob_err == pytest.approx(eig[2:].sum() * (len(x) - 1), abs=1e-6)

    def test_builtin_corpus_variance_bounded(self):
        corpus = _noiseless_corpus(("mini-vgg-4", "mini-vgg-6", "mini-mlp-2"))
        model = fit_fingerprint_space(corpus, k=1)
        assert 0.0 < model.explained_variance <= 1.0 + 1e-9

    def test_degenerate_corpus_rejected(self):
        hists = [SymbolHistogram(dict.fromkeys(SYMBOLS, 3), "p", f"a{i}", "f")
                 for i in range(4)]
        with pytest.raises(ValueError, match="zero variance"):
            fit_fingerprint_space(hists, k=1)

    def test_k_bounds(self):
        corpus = _noiseless_corpus(("mini-vgg-4", "mini-mlp-2"), per_arch=2)
        with pytest.raises(ValueError, match="k must"):
            fit_fingerprint_space(corpus, k=0)
        with pytest.raises(ValueError, match="k must"):
            fit_fingerprint_space(corpus, k=5)


class TestDrClassify:
    ARCHS = ("mini-mlp-2", "mini-mlp-3", "mini-vgg-4", "mini-vgg-6",
             "mini-resnet-4", "mini-resnet-6", "mini-dense-3", "mini-dense-4")

    def test_noiseless_leave_one_out_exact(self):
        # distinctness precondition, checked directly on the symbol multisets
        clean = {a: simulate_symbol_stream(builtin_spec(a, SHAPE, 4),
                                           MachineProfile("clean"), 0)
                 for a in self.ARCHS}
        vectors = [tuple(h.vector()) for h in clean.values()]
        assert len(set(vectors)) == len(vectors)

        corpus = _noiseless_corpus(self.ARCHS, per_arch=3)
        model = fit_fingerprint_space(corpus, k=3)
        for arch_id in self.ARCHS:
            query = simulate_symbol_stream(builtin_spec(arch_id, SHAPE, 4),
                                           MachineProfile("clean"), seed=99)
            assert dr_classify(query, model).architecture_id == arch_id

    def _profile_accuracy(self, profile, seed0):
        corpus = [simulate_symbol_stream(builtin_spec(a, SHAPE, 4), profile,
                                         seed=seed0 + 13 * i + j)
                  for i, a in enumerate(self.ARCHS) for j in range(8)]
        model = fit_fingerprint_space(corpus, k=5)
        exact = family = total = 0
        for i, arch_id in enumerate(self.ARCHS):
            spec = builtin_spec(arch_id, SHAPE, 4)
            for j in range(5):
                pred = dr_classify(simulate_symbol_stream(
                    spec, profile, seed=seed0 + 7000 + 11 * i + j), model)
                exact += pred.architecture_id == arch_id
                family += pred.family == spec.family
                total += 1
        return exact / total, family / total

    def test_family_at_least_exact_across_profiles(self):
        for name in ("i7-6850k-like", "i7-4770-like", "i5-3470-like"):
            exact, family = self._profile_accuracy(
                BUILTIN_MACHINE_PROFILES[name], seed0=0)
            assert family >= exact, name

    def test_quiet_profile_beats_noisy(self):
        quiet, noisy = [], []
        for seed0 in range(5):
            _, fq = self._profile_accuracy(
                BUILTIN_MACHINE_PROFILES["i7-6850k-like"], seed0=1000 * seed0)
            _, fn = self._profile_accuracy(
                BUILTIN_MACHINE_PROFILES["i5-3470-like"], seed0=1000 * seed0)
            quiet.append(fq)
            noisy.append(fn)
        assert np.median(quiet) > np.median(noisy)

    def test_tie_breaks_to_nearest_neighbor(self):
        hists = []
        for arch, count in (("a", 0), ("a", 10), ("b", 4), ("b", 6)):
            counts = dict.fromkeys(SYMBOLS, 0)
            counts["Conv"] = count
            hists.append(SymbolHistogram(counts, "p", arch, arch))
        model = fit_fingerprint_space(hists, k=4)  # 2-2 vote split
        query = dict.fromkeys(SYMBOLS, 0)
        query["Conv"] = 5
        pred = dr_classify(SymbolHistogram(query, "p", "?", "?"), model)
        assert pred.architecture_id == "b"  # nearest tied label wins

    @staticmethod
    def oracle_nearest(points, point, k):
        """The full stable sort of every norm distance."""
        return np.argsort(np.linalg.norm(points - point, axis=1),
                          kind="stable")[:k]

    @pytest.mark.parametrize("seed", range(25))
    def test_nearest_matches_full_stable_sort(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 60))
        if seed % 2:  # small integer grid: many tied distances
            points = rng.integers(-3, 4, size=(m, 2)).astype(np.float64)
            point = rng.integers(-3, 4, size=2).astype(np.float64)
        else:
            points = rng.standard_normal((m, 2))
            point = rng.standard_normal(2)
        points[rng.integers(0, m, size=m // 3)] = points[0]  # exact duplicates
        for k in sorted({1, 2, (m + 1) // 2, m - 1, m} - {0}):
            got = _nearest(points, point, k)
            want = self.oracle_nearest(points, point, k)
            assert got.dtype == want.dtype and np.array_equal(got, want), k

    @pytest.mark.parametrize("k", [1, 3, None])
    def test_classify_matches_full_stable_sort(self, k):
        # integer symbol counts: many histograms project onto one point
        rng = np.random.default_rng(7)
        corpus = []
        for i in range(40):
            counts = dict.fromkeys(SYMBOLS, 0)
            counts["Conv"] = int(rng.integers(0, 3))
            counts["Add"] = int(rng.integers(0, 3))
            corpus.append(SymbolHistogram(counts, "p", f"arch-{i % 5}",
                                          f"family-{i % 2}"))
        k = len(corpus) if k is None else k
        model = fit_fingerprint_space(corpus, k=k)
        for query in corpus[:10]:
            order = self.oracle_nearest(model.points, model.project(query), k)
            arch, arch_votes = _vote(model.architecture_labels, order)
            family, family_votes = _vote(model.family_labels, order)
            pred = dr_classify(query, model)
            assert (pred.architecture_id, pred.exact_votes) == (arch, arch_votes)
            assert (pred.family, pred.family_votes) == (family, family_votes)


# ---------------------------------------------------------------------------
# the simulators against their per-node scalar-draw forms
# ---------------------------------------------------------------------------

def oracle_kernel_trace(spec, profile, seed):
    """One scalar draw per jitter factor, node by node, every fact
    recomputed from the node list: the simulator's defining form."""
    rng = np.random.default_rng(seed)
    order = topological_order(list(spec.nodes))
    shapes = node_shapes(order, spec.input_shape)

    def jitter():
        if profile.metric_jitter == 0:
            return 1.0
        return float(rng.lognormal(0.0, profile.metric_jitter))

    events = []
    for node in order:
        in_shapes = [shapes[d] for d in node.inputs]
        in_elems = sum(int(np.prod(s)) for s in in_shapes)
        out_elems = int(np.prod(shapes[node.node_id]))
        params = sum(int(np.prod(s)) for s in
                     list(weight_shapes(node.kind, node.params, in_shapes).values())
                     + list(buffer_shapes(node.kind, node.params, in_shapes).values()))
        lat = profile.latency_scale * (madd(node.kind, node.params, in_shapes)
                                       + out_elems)
        events.append(KernelTraceEvent(
            exec_lat=lat * jitter(),
            read_volume=int(round(8 * (in_elems + params) * jitter())),
            write_volume=int(round(8 * out_elems * jitter())),
            input_volume=int(round(in_elems * jitter())),
            output_volume=int(round(out_elems * jitter())),
            true_kind=node.kind.name))
    if profile.verbose_runtime:
        mats = np.array([e.metrics() for e in events])
        lo, hi = mats.min(axis=0), mats.max(axis=0)
        for _ in range(max(1, int(round(0.3 * len(events))))):
            vals = rng.uniform(lo, np.maximum(hi, lo + 1.0))
            noise = KernelTraceEvent(float(vals[0]), int(vals[1]), int(vals[2]),
                                     int(vals[3]), int(vals[4]), NOISE)
            events.insert(int(rng.integers(len(events) + 1)), noise)
    return events


def oracle_symbol_stream(spec, profile, seed):
    """One scalar keep-or-drop draw per true symbol hit, node by node."""
    rng = np.random.default_rng(seed)
    counts = {s: 0 for s in SYMBOLS}
    for node in topological_order(list(spec.nodes)):
        for sym in _SYMBOL_MAP[node.kind]:
            if rng.random() >= profile.drop_rate:
                counts[sym] += 1
    for sym in SYMBOLS:
        spurious = int(rng.poisson(profile.spurious_rate))
        reloads = rng.exponential(50.0, size=spurious)
        counts[sym] += int(np.sum(reloads <= profile.reload_threshold))
    if not profile.matmul_visible:
        counts["MatMul"] = 0
    return counts


def builtin_specs():
    return [builtin_spec(a, SHAPE, 4) for a in BUILTIN_ARCHITECTURES]


def same_events(a, b):
    """Equal events, with exec_lat compared by its bits (repr round-trips)."""
    return ([(repr(e.exec_lat),) + tuple(e.to_dict().values()) for e in a]
            == [(repr(e.exec_lat),) + tuple(e.to_dict().values()) for e in b])


class TestSimulatorsMatchScalarDraws:
    SEEDS = range(20)

    @pytest.mark.parametrize("profile_id", sorted(BUILTIN_ENVIRONMENT_PROFILES))
    def test_kernel_trace(self, profile_id):
        profile = BUILTIN_ENVIRONMENT_PROFILES[profile_id]
        for spec in builtin_specs():
            for seed in self.SEEDS:
                got = simulate_kernel_trace(spec, profile, seed=seed)
                want = oracle_kernel_trace(spec, profile, seed)
                assert same_events(got, want), (spec.id, seed)
                assert all(type(v) is type(w) for e, f in zip(got, want)
                           for v, w in zip(e.to_dict().values(),
                                           f.to_dict().values()))

    def test_kernel_trace_with_latency_scale(self):
        profile = EnvironmentProfile("scaled", metric_jitter=0.3,
                                     latency_scale=0.37)
        for spec in builtin_specs():
            assert same_events(simulate_kernel_trace(spec, profile, seed=3),
                               oracle_kernel_trace(spec, profile, 3)), spec.id

    @pytest.mark.parametrize("profile_id", sorted(BUILTIN_MACHINE_PROFILES))
    def test_symbol_stream(self, profile_id):
        profile = BUILTIN_MACHINE_PROFILES[profile_id]
        for spec in builtin_specs():
            for seed in self.SEEDS:
                got = simulate_symbol_stream(spec, profile, seed=seed).counts
                want = oracle_symbol_stream(spec, profile, seed)
                assert list(got.items()) == list(want.items()), (spec.id, seed)
                assert all(type(v) is int for v in got.values())

    def test_symbol_stream_with_reload_gating(self):
        # a threshold near the reload times' mean discards many spurious hits
        profile = MachineProfile("gated", drop_rate=0.3, spurious_rate=4.0,
                                 reload_threshold=40)
        for spec in builtin_specs():
            for seed in range(5):
                assert (list(simulate_symbol_stream(spec, profile, seed=seed)
                             .counts.items())
                        == list(oracle_symbol_stream(spec, profile, seed).items()))

    def test_symbol_stream_without_symbols(self):
        # GELU and FLATTEN touch no watched symbol: no drop draw at all
        spec = ArchitectureSpec(
            "quiet", "test", (NodeSpec("g", K.GELU, None, ("input",)),
                              NodeSpec("f", K.FLATTEN, None, ("g",))), (4,), 4)
        profile = BUILTIN_MACHINE_PROFILES["i5-3470-like"]
        for seed in range(5):
            assert (simulate_symbol_stream(spec, profile, seed=seed).counts
                    == oracle_symbol_stream(spec, profile, seed))

    @pytest.mark.parametrize("k", [0, 1, 5, 14, 44])
    def test_bulk_draws_equal_scalar_draws(self, k):
        for seed in range(20):
            bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            assert (bulk.random(k).tolist()
                    == [scalar.random() for _ in range(k)])
            assert bulk.bit_generator.state == scalar.bit_generator.state
            assert (bulk.lognormal(0.0, 0.15, size=(k, 5)).ravel().tolist()
                    == [scalar.lognormal(0.0, 0.15) for _ in range(5 * k)])
            assert bulk.bit_generator.state == scalar.bit_generator.state


class TestSeededGenerators:
    """`seeded_generators` against `default_rng`, its oracle."""

    @staticmethod
    def assert_like_default_rng(seeds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [g.random(8).tolist() for g in seeded_generators(seeds)]
            want = [np.random.default_rng(s).random(8).tolist() for s in seeds]
        assert len(got) == len(seeds)
        for seed, g, w in zip(seeds, got, want):
            assert g == w, seed

    def test_edge_seeds(self):
        self.assert_like_default_rng([0, 1, 2**31 - 1, 2**32 - 1])

    def test_spread_over_the_seed_range(self):
        # 10,001 seeds a prime step apart, over all of [0, 2**32)
        step = 429_467
        seeds = list(range(0, 2**32, step))
        assert len(seeds) >= 10_000 and seeds[-1] > 2**32 - step
        self.assert_like_default_rng(seeds)

    def test_numpy_integer_seeds_and_draw_sequences(self):
        seeds = np.array([7, 2**32 - 2, 123_456_789], dtype=np.int64)
        for seed, g in zip(seeds, seeded_generators(seeds)):
            want = np.random.default_rng(int(seed))
            assert g.poisson(3.0, 5).tolist() == want.poisson(3.0, 5).tolist()
            assert g.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("seed", [-1, 2**32, 1.0])
    def test_out_of_range_or_float_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            seeded_generators([0, seed])

    def test_each_generator_is_fresh(self):
        a, b = seeded_generators([5, 5])
        assert a is not b and a.bit_generator is not b.bit_generator
        assert a.random() == b.random()

    def test_no_seeds(self):
        assert list(seeded_generators([])) == []

    def test_simulators_draw_from_a_generator_as_from_its_seed(self):
        spec = builtin_spec("mini-resnet-4", SHAPE, 4)
        seeds = [0, 3, 2**31 - 1]
        machine = BUILTIN_MACHINE_PROFILES["i5-3470-like"]
        for seed, rng in zip(seeds, seeded_generators(seeds)):
            assert (simulate_symbol_stream(spec, machine, seed=rng).counts
                    == simulate_symbol_stream(spec, machine, seed=seed).counts)
        env = BUILTIN_ENVIRONMENT_PROFILES["gpu-verbose"]
        for seed, rng in zip(seeds, seeded_generators(seeds)):
            assert same_events(simulate_kernel_trace(spec, env, seed=rng),
                               simulate_kernel_trace(spec, env, seed=seed))


class TestSpecFacts:
    def test_derive_shapes_returns_a_copy(self):
        spec = builtin_spec("mini-vgg-4", SHAPE, 4)
        before = spec.derive_shapes()
        mutated = spec.derive_shapes()
        mutated["conv1"] = (1, 1, 1)
        del mutated["input"]
        assert spec.derive_shapes() == before
        assert simulate_kernel_trace(spec, BUILTIN_ENVIRONMENT_PROFILES["gpu-low"],
                                     seed=1) == oracle_kernel_trace(
            spec, BUILTIN_ENVIRONMENT_PROFILES["gpu-low"], 1)

    def test_simulator_facts_are_computed_once_per_spec(self):
        from extractbench import sidechannel
        spec = builtin_spec("mini-resnet-4", SHAPE, 4)
        trace_profile = BUILTIN_ENVIRONMENT_PROFILES["gpu-verbose"]
        machine = BUILTIN_MACHINE_PROFILES["i7-4770-like"]
        want = (oracle_kernel_trace(spec, trace_profile, 2),
                oracle_symbol_stream(spec, machine, 2))
        facts = (sidechannel._node_volumes, sidechannel._symbol_hits)
        for fact in facts:
            fact.cache_clear()
        # an equal spec built apart hashes equal, so it shares the facts
        for each in (spec, spec, make_mini_resnet(4, SHAPE, 4)):
            assert same_events(simulate_kernel_trace(each, trace_profile, 2),
                               want[0])
            assert (simulate_symbol_stream(each, machine, 2).counts
                    == want[1])
        for fact in facts:
            assert (fact.cache_info().hits, fact.cache_info().misses) == (2, 1)
        # shared by every trace of the spec, so no caller may write them
        assert not sidechannel._node_volumes(spec).flags.writeable

    def test_compute_madd_returns_a_copy(self):
        spec = builtin_spec("mini-vgg-4", SHAPE, 4)
        before = dict(compute_madd(spec).per_node)
        compute_madd(spec).per_node["conv1"] = -1
        assert compute_madd(spec).per_node == before
