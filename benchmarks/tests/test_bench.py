"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def nested_tree():
    """root [0, 10] holds a [1, 4] and b [3, 6], which overlap; a holds
    a1 [2, 3]; c [9, 12] runs past the end of root."""
    root = Span("root", 0.0, 10.0)
    a = Span("a", 1.0, 4.0, root)
    b = Span("b", 3.0, 6.0, root)
    a1 = Span("a1", 2.0, 3.0, a)
    c = Span("c", 9.0, 12.0, root)
    return [root, a, b, a1, c]


def test_self_time_subtracts_the_union_of_children_within_the_span():
    root, a, b, a1, c = nested_tree()
    assert tracing.self_time(root, [a, b, c]) == pytest.approx(10 - 5 - 1)
    assert tracing.self_time(a, [a1]) == pytest.approx(2.0)
    assert tracing.self_time(b, []) == pytest.approx(3.0)


def test_summary_counts_nested_spans_of_one_name_once_in_total():
    outer = Span("x", 0.0, 4.0)
    inner = Span("x", 1.0, 2.0, outer)
    other = Span("y", 2.0, 3.0, outer)
    stats = tracing.summarize([outer, inner, other])
    assert stats["x"].calls == 2
    assert stats["x"].total == pytest.approx(4.0)
    assert stats["x"].self == pytest.approx((4 - 2) + 1)
    assert stats["y"].self == pytest.approx(1.0)


def test_layer_metrics_from_a_synthetic_batch():
    execute = Span("orchestrator.execute", 0.0, 8.0, scenario="s")
    resolve = Span("orchestrator.zoo_resolve", 0.0, 1.0, execute, note=1)
    forward = Span("network.forward", 1.0, 3.0, execute, note=10)
    conv = Span("tensor.fwd.conv", 1.5, 2.5, forward, note=2_000_000_000)
    invert = Span("query_attacks.miface_invert", 4.0, 6.0, execute, note=2)
    single = [Span("network.forward", 4.0 + i, 4.5 + i, invert, note=1)
              for i in range(2)]
    spans = [execute, resolve, forward, conv, invert, *single]
    values, sources = tracing.layer_metrics(spans, wall_s=4.0, slots=2)
    assert values["orchestrator.execute_self_s"] == pytest.approx(8 - 1 - 2 - 2)
    assert values["orchestrator.cache_hits"] == 1
    assert values["orchestrator.cache_misses"] == 0
    assert values["orchestrator.slot_busy_ratio"] == pytest.approx(1.0)
    assert values["network.forward_calls"] == 3
    assert values["network.rows_per_forward"] == pytest.approx(4.0)
    assert values["network.miface_rows_per_forward"] == pytest.approx(1.0)
    assert values["network.forward_self_s"] == pytest.approx(1 + 0.5 + 0.5)
    assert values["tensor.fwd_calls.conv"] == 1
    assert values["tensor.conv.gmadd_per_s"] == pytest.approx(2.0)
    assert values["query_attacks.miface_iterations"] == 2
    assert sources["tensor.fwd_s.conv"] == "tensor.fwd"


def test_silent_or_unpatched_layers_are_missing_not_zero():
    spans = [Span("network.forward", 0.0, 1.0)]
    _, sources = tracing.layer_metrics(spans, wall_s=1.0, slots=1)
    missing = tracing.missing_metrics(sources, spans, unpatched={"zoo.build_model"},
                                      layers={"network", "sidechannel"})
    assert "sidechannel.trace_events" in missing
    assert "zoo.build_model_s" in missing
    assert "network.forward_s" not in missing
    assert "datasets.split_s" not in missing     # not run here: reported as 0


def test_units_follow_metric_names():
    assert tracing.unit_of("tensor.fwd_s.conv") == "s"
    assert tracing.unit_of("tensor.bwd_calls.other") == "count"
    assert tracing.unit_of("query_attacks.miface_iterations") == "count"
    assert tracing.unit_of("tensor.conv.gmadd_per_s") == "GMAdd/s"
    assert tracing.is_count("tensor.conv.gmadd")
    assert not tracing.is_count("orchestrator.slot_busy_ratio")


def test_benchmark_json_units_match_the_metric_names():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        assert metric["unit"] == tracing.unit_of(metric["name"]), metric
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def record(sid, metrics, status="ok"):
    return SimpleNamespace(scenario={"id": sid}, status=status, metrics=metrics,
                           failure_reason=None)


def test_reference_check_rejects_one_perturbed_metric():
    stored = {"k0": {"fidelity": 0.75, "final_loss": 0.125},
              "k1": {"fidelity": 1.0, "final_loss": 0.25}}
    check = reference.RecordCheck(stored)
    check.check(["k0", "k1"], [record("k0", dict(stored["k0"])),
                               record("k1", dict(stored["k1"]))])
    assert (check.attempted, check.failed) == (2, 0)

    perturbed = dict(stored["k1"], final_loss=math.nextafter(0.25, 1.0))
    check.check(["k0", "k1"], [record("k0", dict(stored["k0"])),
                               record("k1", perturbed)])
    assert (check.attempted, check.failed) == (4, 1)
    assert check.problems[0].startswith("k1: metrics differ from the stored reference")


def test_record_check_counts_failed_missing_and_drifting_records():
    check = reference.RecordCheck()
    check.check(["a", "b"], [record("a", {"x": 1.0}), record("b", {}, "failed")])
    check.check(["a", "b"], [record("a", {"x": 2.0})])
    assert check.attempted == 4
    assert [p.split(":")[0] for p in check.problems] == ["b", "a", "b"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_scenario_documents(name):
    workload = WORKLOADS[name]
    assert workload.documents(7) == workload.documents(7)
    assert workload.documents(7) != workload.documents(8)
    seeds = [json.loads(doc)["seed"] for doc in workload.documents(7)]
    assert len(set(seeds)) == len(seeds)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_scenario_documents_parse(name):
    from extractbench.orchestrator import parse_scenario, validate_threat_model

    for doc in WORKLOADS[name].documents(0):
        assert validate_threat_model(parse_scenario(doc)) == []


def test_tracer_restores_every_patched_name():
    from extractbench import network, orchestrator

    originals = (network.op_forward, network.Network.forward, orchestrator.execute)
    with tracing.Tracer() as tracer:
        assert network.op_forward is not originals[0]
        assert network.Network.forward is not originals[1]
        assert tracer.unpatched == set()
    assert (network.op_forward, network.Network.forward,
            orchestrator.execute) == originals


def test_reference_keeps_seeds_per_platform_and_says_when_not_checked(tmp_path,
                                                                      monkeypatch):
    monkeypatch.setattr(reference, "REFERENCE_DIR", tmp_path)
    here, there = {"numpy": "2"}, {"numpy": "3"}
    reference.write_reference("w", 0, here, {"a": {"x": 1.0}})
    reference.write_reference("w", 1, here, {"a": {"x": 2.0}})
    assert reference.load_reference("w", 1, here)[0] == {"a": {"x": 2.0}}
    assert reference.load_reference("w", 2, here)[0] is None
    metrics, why = reference.load_reference("w", 0, there)
    assert metrics is None and why.startswith("NOT CHECKED")

    check = reference.RecordCheck(reference.load_reference("w", 0, here)[0])
    check.check(["a"], [record("a", {"x": 1.0})])
    assert (check.failed, check.reference_checked) == (0, 1)
    unchecked = reference.RecordCheck(None)
    unchecked.check(["a"], [record("a", {"x": 1.0})])
    assert unchecked.reference_checked == 0


def test_probe_chain_scales_each_step_by_the_probes_around_it(monkeypatch):
    import hostspeed

    readings = iter([0.02, 0.04, 0.01])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(readings))
    probes = hostspeed.Probes()
    assert probes.after_step() == pytest.approx(0.03)
    assert probes.after_step() == pytest.approx(0.025)
    ref = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.scaled(1.5, ref) == pytest.approx(1.5)
    assert hostspeed.scaled(1.5, 2 * ref) == pytest.approx(0.75)
