"""Outside-in span tracing of the extractbench layers.

While installed, a :class:`Tracer` replaces public functions and methods of
the package with timing wrappers. Each name is patched where it is looked
up: ``zoo_resolve`` is called through ``extractbench.orchestrator``, so that
is the attribute replaced, and a function imported into several modules is
replaced in each of them. The library itself is not changed, and
uninstalling restores every original.

Spans are kept in memory. A thread-local stack gives each span its parent,
and spans inherit the scenario id from the ``orchestrator.execute`` span
above them, so the spans of scenarios running in parallel slots stay apart.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

PACKAGE = "extractbench"
KIND_GROUPS = ("conv", "fc", "bn", "maxpool", "avgpool", "other")


class Span:
    __slots__ = ("name", "start", "end", "parent", "scenario", "thread", "note")

    def __init__(self, name, start, end, parent=None, scenario=None,
                 thread=0, note=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.scenario = scenario
        self.thread = thread
        self.note = note


@dataclass(frozen=True)
class Site:
    """One attribute to wrap: ``owner`` is "module" or "module:Class"."""

    owner: str
    attr: str
    name: str                  # span name
    note: Callable | None = None   # (args, result) -> number kept on the span
    by_kind: bool = False      # append the operator kind group to the name
    scenario: bool = False     # this span starts a scenario: args[0].id


def _kind_group(kind) -> str:
    value = getattr(kind, "value", kind)
    return value if value in KIND_GROUPS else "other"


def _conv_madd(args, out):
    """Multiply-adds of one batched conv forward, from its shapes."""
    if _kind_group(args[0]) != "conv":
        return None
    kh, kw, cin, cout = args[2]["weight"].shape
    n, oh, ow, _ = out.shape
    return n * oh * ow * kh * kw * cin * cout


def _sgd_steps(args, _):
    inputs, config = args[1], args[3]
    return -(-len(inputs) // config.batch_size) * config.epochs


def _sites(name, modules, attr=None, note=None):
    return tuple(Site(m, attr or name.rsplit(".", 1)[1], name, note)
                 for m in modules)


SITES = (
    Site("network", "op_forward", "tensor.fwd", _conv_madd, by_kind=True),
    Site("network", "op_backward", "tensor.bwd", by_kind=True),
    Site("network:Network", "forward", "network.forward",
         lambda args, _: len(args[1])),
    Site("network:Network", "backward", "network.backward"),
    Site("network:Network", "calibrate_bn", "network.calibrate_bn"),
    *_sites("network.sgd_run", ("network", "similarity"), note=_sgd_steps),
    *_sites("network.train", ("orchestrator", "query_attacks", "sidechannel")),
    Site("orchestrator", "execute", "orchestrator.execute", scenario=True),
    Site("orchestrator", "zoo_resolve", "orchestrator.zoo_resolve",
         lambda _, result: int(bool(result[1]))),
    *_sites("orchestrator.persist_record", ("orchestrator",)),
    *_sites("orchestrator.parse_scenario", ("orchestrator",)),
    *_sites("zoo.build_model",
            ("orchestrator", "zoo", "query_attacks", "similarity")),
    *_sites("zoo.load_checkpoint", ("orchestrator",)),
    *_sites("zoo.save_checkpoint", ("orchestrator",)),
    *_sites("datasets.generate", ("orchestrator",)),
    *_sites("datasets.save_dataset", ("orchestrator",)),
    *_sites("datasets.load_dataset", ("orchestrator",)),
    *_sites("datasets.split", ("orchestrator",)),
    *_sites("query_attacks.knockoff_extract", ("orchestrator", "query_attacks")),
    *_sites("query_attacks.build_stolen_dataset", ("query_attacks",),
            note=lambda _, result: len(result)),
    *_sites("query_attacks.miface_invert", ("orchestrator", "query_attacks"),
            note=lambda _, result: result.iterations),
    Site("query_attacks:GradientHandle", "posterior_and_gradient",
         "query_attacks.posterior_and_gradient"),
    *_sites("query_attacks.staged_inversion_study", ("orchestrator",)),
    *_sites("sidechannel.simulate_kernel_trace", ("orchestrator",),
            note=lambda _, result: len(result)),
    *_sites("sidechannel.train_ds_model", ("orchestrator",)),
    *_sites("sidechannel.ds_extract", ("orchestrator",)),
    *_sites("sidechannel.simulate_symbol_stream", ("orchestrator",)),
    *_sites("sidechannel.fit_fingerprint_space", ("orchestrator",)),
    *_sites("sidechannel.dr_classify", ("orchestrator",)),
    *_sites("sidechannel.artifact_write", ("orchestrator",),
            attr="write_trace_jsonl"),
    *_sites("sidechannel.artifact_write", ("orchestrator",),
            attr="write_histograms_csv"),
    *_sites("similarity.equivalency_report", ("orchestrator",)),
    *_sites("similarity.distill", ("similarity",)),
    *_sites("similarity.pwcca_distance", ("similarity", "query_attacks")),
    *_sites("similarity.collect_activations", ("similarity", "query_attacks")),
    *_sites("similarity.fidelity", ("orchestrator", "query_attacks", "similarity")),
    *_sites("similarity.accuracy", ("orchestrator", "similarity")),
)


class Tracer:
    """Patches :data:`SITES` while installed and records a span per call."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list[Span] = []
        self.unpatched: set[str] = set()   # span names with no site installed
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        installed = set()
        for site in self.sites:
            module, _, cls = site.owner.partition(":")
            try:
                owner = import_module(f"{PACKAGE}.{module}")
            except ModuleNotFoundError:
                continue
            if cls:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(site.attr) if owner is not None else None
            if original is None:
                continue
            setattr(owner, site.attr, self._wrap(original, site))
            self._undo.append((owner, site.attr, original))
            installed.add(site.name)
        self.unpatched = {s.name for s in self.sites} - installed

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, site: Site):
        local = self._local
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            if parent is not None:
                scenario = parent.scenario
            else:
                scenario = args[0].id if site.scenario else None
            name = f"{site.name}.{_kind_group(args[0])}" if site.by_kind else site.name
            span = Span(name, 0.0, 0.0, parent, scenario, threading.get_ident())
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if site.note is not None:
                span.note = site.note(args, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_time(span: Span, children) -> float:
    """The span's duration minus the part of it its children cover."""
    clipped = sorted((max(c.start, span.start), min(c.end, span.end))
                     for c in children)
    covered = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return (span.end - span.start) - covered


def _has_ancestor(span: Span, name: str) -> bool:
    node = span.parent
    while node is not None:
        if node.name == name:
            return True
        node = node.parent
    return False


class Stat:
    __slots__ = ("calls", "total", "self", "note")

    def __init__(self):
        self.calls = 0
        self.total = 0.0      # inclusive seconds, outermost span of a name only
        self.self = 0.0
        self.note = 0


def summarize(spans) -> dict[str, Stat]:
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    stats: dict[str, Stat] = defaultdict(Stat)
    for span in spans:
        stat = stats[span.name]
        stat.calls += 1
        if not _has_ancestor(span, span.name):
            stat.total += span.end - span.start
        stat.self += self_time(span, children.get(id(span), ()))
        if span.note is not None:
            stat.note += span.note
    return stats


# span name -> statistics reported as f"{span}_{statistic}"; "s" is
# inclusive seconds.
_TIMED = {
    "network.forward": ("s", "calls", "self_s"),
    "network.backward": ("s", "calls", "self_s"),
    "network.sgd_run": ("s", "self_s"),
    "network.calibrate_bn": ("s",),
    "orchestrator.zoo_resolve": ("s", "self_s"),
    "orchestrator.execute": ("s", "self_s"),
    "orchestrator.persist_record": ("s",),
    "orchestrator.parse_scenario": ("s",),
    "zoo.build_model": ("s", "calls"),
    "zoo.load_checkpoint": ("s", "calls"),
    "zoo.save_checkpoint": ("s", "calls"),
    "datasets.generate": ("s",),
    "datasets.save_dataset": ("s",),
    "datasets.load_dataset": ("s",),
    "datasets.split": ("s",),
    "query_attacks.knockoff_extract": ("s", "self_s"),
    "query_attacks.build_stolen_dataset": ("s",),
    "query_attacks.miface_invert": ("s",),
    "query_attacks.posterior_and_gradient": ("s",),
    "query_attacks.staged_inversion_study": ("s",),
    "sidechannel.simulate_kernel_trace": ("s",),
    "sidechannel.train_ds_model": ("s",),
    "sidechannel.ds_extract": ("s",),
    "sidechannel.simulate_symbol_stream": ("s",),
    "sidechannel.fit_fingerprint_space": ("s",),
    "sidechannel.dr_classify": ("s",),
    "sidechannel.artifact_write": ("s",),
    "similarity.distill": ("s",),
    "similarity.pwcca_distance": ("s",),
    "similarity.collect_activations": ("s",),
    "similarity.fidelity": ("s",),
    "similarity.accuracy": ("s",)}
# metric -> (span name, statistic)
_SPAN_METRICS = {f"{span}_{field}": (span, field)
                 for span, fields in _TIMED.items() for field in fields}
_SPAN_METRICS.update({
    "network.sgd_steps": ("network.sgd_run", "note"),
    "orchestrator.cache_hits": ("orchestrator.zoo_resolve", "note"),
    "query_attacks.queries": ("query_attacks.build_stolen_dataset", "note"),
    "query_attacks.miface_iterations": ("query_attacks.miface_invert", "note"),
    "sidechannel.trace_events": ("sidechannel.simulate_kernel_trace", "note"),
    "sidechannel.symbol_streams": ("sidechannel.simulate_symbol_stream", "calls"),
    "similarity.pwcca_calls": ("similarity.pwcca_distance", "calls"),
})
_STAT_FIELD = {"s": "total", "self_s": "self", "calls": "calls", "note": "note"}


def layer_metrics(spans, wall_s: float, slots: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced batch, and the span name each is
    measured from (which decides whether it is reported or missing)."""
    stats = summarize(spans)
    empty = Stat()

    def get(name):
        return stats.get(name, empty)

    values, sources = {}, {}
    for metric, (span, field) in _SPAN_METRICS.items():
        values[metric] = getattr(get(span), _STAT_FIELD[field])
        sources[metric] = span
    for direction in ("fwd", "bwd"):
        for group in KIND_GROUPS:
            stat = get(f"tensor.{direction}.{group}")
            for suffix, value in (("s", stat.total), ("calls", stat.calls)):
                metric = f"tensor.{direction}_{suffix}.{group}"
                values[metric] = value
                sources[metric] = f"tensor.{direction}"
    conv = get("tensor.fwd.conv")
    values["tensor.conv.gmadd"] = conv.note / 1e9
    values["tensor.conv.gmadd_per_s"] = conv.note / 1e9 / conv.total if conv.total else 0.0
    forward = get("network.forward")
    values["network.rows_per_forward"] = forward.note / forward.calls if forward.calls else 0.0
    miface_rows = [s.note for s in spans if s.name == "network.forward"
                   and _has_ancestor(s, "query_attacks.miface_invert")]
    if miface_rows:
        values["network.miface_rows_per_forward"] = sum(miface_rows) / len(miface_rows)
    resolve = get("orchestrator.zoo_resolve")
    values["orchestrator.cache_misses"] = resolve.calls - resolve.note
    values["orchestrator.cache_hit_ratio"] = resolve.note / resolve.calls if resolve.calls else 0.0
    values["orchestrator.slot_busy_ratio"] = get("orchestrator.execute").total / (slots * wall_s)
    sources.update({"tensor.conv.gmadd": "tensor.fwd",
                    "tensor.conv.gmadd_per_s": "tensor.fwd",
                    "network.rows_per_forward": "network.forward",
                    "network.miface_rows_per_forward": "network.forward",
                    "orchestrator.cache_misses": "orchestrator.zoo_resolve",
                    "orchestrator.cache_hit_ratio": "orchestrator.zoo_resolve",
                    "orchestrator.slot_busy_ratio": "orchestrator.execute"})
    return values, sources


def unit_of(metric: str) -> str:
    head, _, group = metric.rpartition(".")
    name = head if group in KIND_GROUPS else metric
    for suffix, unit in (("gmadd_per_s", "GMAdd/s"), ("gmadd", "GMAdd"),
                         ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"),
                         ("rows_per_forward", "rows")):
        if name.endswith(suffix):
            return unit
    return "count"


def is_count(metric: str) -> bool:
    """Counts repeat exactly at a fixed seed; times and ratios do not."""
    return unit_of(metric) in ("count", "GMAdd")


def missing_metrics(sources: dict, spans, unpatched, layers) -> set[str]:
    """Metrics that cannot be measured from this process: their name was not
    patched, or a layer the workload must run recorded no span at all (for
    instance because it ran in another process)."""
    seen = {span.name.split(".", 1)[0] for span in spans}
    silent = set(layers) - seen
    return {metric for metric, span in sources.items()
            if span in unpatched or span.split(".", 1)[0] in silent}


def write_spans(spans, path, origin: float) -> None:
    """Spans as gzip JSON lines, times in seconds from ``origin``."""
    ids = {id(span): i for i, span in enumerate(spans)}
    threads = {}
    with gzip.open(path, "wt") as fh:
        for i, span in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "parent": ids.get(id(span.parent)), "name": span.name,
                "scenario": span.scenario,
                "thread": threads.setdefault(span.thread, len(threads)),
                "start": span.start - origin, "end": span.end - origin,
                "note": span.note}) + "\n")
