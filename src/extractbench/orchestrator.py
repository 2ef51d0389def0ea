"""Scenario-driven attack runs: parsing, threat gating, scheduling, records.

A scenario is a strict JSON document (unknown fields are rejected, defaults
are echoed back explicitly) naming one attack, one target model reference,
an environment, and the threat-model grants the run is allowed to assume.
Execution refuses to start any attack whose required capability triple is
not dominated by the grants; that check is the security boundary of the
whole workbench and is enforced before any resource is touched.

Runs persist as append-only JSON records. Metrics maps are deterministic
functions of (scenario, seed); wall-clock timings live next to the metrics
in a separate `timings` block so re-runs reproduce metrics bit-for-bit.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Annotated, Callable, Literal, NamedTuple

import numpy as np
import zlib

from .datasets import (BUILTIN_DATASETS, Dataset, DatasetId, discard_entry,
                       generate, load_dataset, query_rows, restrict_to_classes,
                       save_dataset, split)
from .fields import (Count, Epochs, Jitter, NonNegative, QueryFraction, Range,
                     Repeats, ScenarioError, check_fields, from_doc, to_doc)
from .network import TrainConfig, train
from .query_attacks import (
    GradientHandle,
    InversionConfig,
    KnockoffConfig,
    OutputMode,
    QueryHandle,
    ThreatModel,
    check_budgets,
    knockoff_extract,
    miface_invert,
    save_pgm,
    staged_inversion_study,
)
from .sidechannel import (
    BUILTIN_ENVIRONMENT_PROFILES,
    BUILTIN_MACHINE_PROFILES,
    DS_CLASSIFIER_RECIPE,
    ds_extract,
    ds_truth_sequence,
    sequence_fidelity,
    simulate_kernel_trace,
    simulate_symbol_stream,
    dr_classify,
    fit_fingerprint_space,
    seeded_generators,
    train_ds_model,
    write_histograms_csv,
    write_trace_jsonl,
)
from .similarity import DistillConfig, accuracy, equivalency_report, fidelity
from .tensor import one_blas_thread
from .zoo import (
    BUILTIN_ARCHITECTURES,
    ArchitectureId,
    CheckpointError,
    FILE_NAME,
    ModelRef,
    build_model,
    builtin_spec,
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
)

SCHEMA_VERSION = 1
ROOT_ENV_VAR = "EXTRACTBENCH_ROOT"

CONVENTIONAL_ARCHITECTURES = ("mini-vgg-4", "mini-vgg-6", "mini-resnet-4",
                              "mini-resnet-6", "mini-dense-3", "mini-dense-4")


# ---------------------------------------------------------------------------
# attack parameter blocks: the annotated fields are the schema. Knobs that a
# library config declares are used from it (knockoff) or extended, not copied
# ---------------------------------------------------------------------------

@dataclass
class MifaceParams(InversionConfig):
    target_class: NonNegative = field(kw_only=True)
    query_fraction: QueryFraction = 0.5


# its own knockoff knobs: `budgets` leads its document, where a knockoff's
# has `query_budget`, so a shared base would reorder the echo
@dataclass
class StagedInversionParams:
    budgets: tuple[Count, ...]
    output_mode: OutputMode = "confidence_vector"
    surrogate_architecture: ArchitectureId | None = None
    query_fraction: QueryFraction = 0.5
    recreate: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=20))
    inversion: InversionConfig = field(default_factory=InversionConfig)

    def __post_init__(self):
        check_fields(self)
        check_budgets(self.budgets)


@dataclass
class DeepSnifferParams:
    corpus_architectures: tuple[ArchitectureId, ...] = CONVENTIONAL_ARCHITECTURES
    traces_per_architecture: Repeats = 6
    train_jitter: Jitter = 0.05
    # corpus traces are noise-free, one event per truth symbol, and the
    # longest built-in truth sequence is 20 events (mini-resnet-6): a wider
    # window adds only columns that are zero in every training row
    window: Annotated[int, Range(0, 20)] = 1
    classifier_epochs: Epochs = 200

    def __post_init__(self):
        if not self.corpus_architectures:
            raise ValueError("corpus_architectures must be non-empty")
        check_fields(self)


@dataclass
class DeepReconParams:
    corpus_architectures: tuple[ArchitectureId, ...] = tuple(
        a for a in BUILTIN_ARCHITECTURES if a != "mini-student-cnn")
    histograms_per_architecture: Repeats = 8
    trials: Repeats = 6
    k_neighbors: Count = 5

    def __post_init__(self):
        if len(set(self.corpus_architectures)) < 2:
            raise ValueError("corpus_architectures must name at least two "
                             "architectures")
        check_fields(self)
        corpus = len(self.corpus_architectures) * self.histograms_per_architecture
        if self.k_neighbors > corpus:
            raise ValueError(f"k_neighbors must lie in [1, {corpus}]")


# fields follow the reversed MRO: knockoff's knobs, then distillation's
@dataclass
class EquivalencyParams(DistillConfig, KnockoffConfig):
    """A knockoff, then target and stolen copy distilled into one student."""


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------

@dataclass
class EnvironmentSpec:
    environment_profile: Literal[tuple(BUILTIN_ENVIRONMENT_PROFILES)] | None = None
    machine_profile: Literal[tuple(BUILTIN_MACHINE_PROFILES)] | None = None
    verbose_runtime: bool = False

    def __post_init__(self):
        check_fields(self)


@dataclass
class AttackBlock:
    type: Literal[tuple(ATTACKS)]
    # read as a JSON object; `parse_scenario` puts the type's params in
    params: dict = field(default_factory=dict)


# the document, in reading order; `parse_scenario` ties its values together
@dataclass(kw_only=True)
class Scenario:
    schema_version: int
    id: str
    seed: int = 0
    attack: AttackBlock
    target: ModelRef
    environment: EnvironmentSpec = field(default_factory=EnvironmentSpec)
    grants: ThreatModel
    evaluation: tuple[str, ...] | None = None  # None: all the attack's metrics


def parse_scenario(document: str) -> Scenario:
    """Parse and fully validate a scenario JSON document.

    Unknown fields anywhere are rejected, every value must have its field's
    JSON type, and the attack's own range rules run here; every omitted
    optional field is filled with its default, so `to_doc` of the result
    round-trips an explicit form.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}")

    top = from_doc(Scenario, doc)
    if top.schema_version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: {top.schema_version} unsupported "
                            f"(expected {SCHEMA_VERSION})")
    if not FILE_NAME.fullmatch(top.id):
        raise ScenarioError(f"id: {top.id!r} must be one file-name "
                            f"component ({FILE_NAME.pattern})")
    if top.seed < 0:
        raise ScenarioError(f"seed: {top.seed} must be >= 0")

    attack_type, ref = top.attack.type, top.target
    entry = ATTACKS[attack_type]
    params = from_doc(entry.params, top.attack.params, "attack.params", top.seed)
    dataset = BUILTIN_DATASETS[ref.dataset_id]
    classes = dataset.class_count
    bad = [c for c in ref.class_subset or () if c >= classes]
    if bad:
        raise ScenarioError(f"target.class_subset: {bad} outside dataset "
                            f"{ref.dataset_id!r} with {classes} classes")
    problem = entry.limit(params, len(ref.class_subset or range(classes)),
                          dataset.samples_per_class)
    if problem:
        raise ScenarioError(f"attack.params: {problem}")

    evaluation = entry.metrics if top.evaluation is None else top.evaluation
    bad = [m for m in evaluation if m not in entry.metrics]
    if bad:
        raise ScenarioError(
            f"evaluation: metric(s) {bad} not produced by {attack_type} "
            f"(available: {sorted(entry.metrics)})")

    # Set on an attack that never reads it, an environment field would be
    # ignored silently; a field the attack reads that is still null (a
    # profile) is required.
    for f in fields(EnvironmentSpec):
        if getattr(top.environment, f.name) not in (None, False) \
                and f.name not in entry.environment:
            reader = next(t for t, a in ATTACKS.items()
                          if f.name in a.environment)
            raise ScenarioError(
                f"environment.{f.name}: {attack_type} never reads it; only "
                f"{reader} does")
    for name in entry.environment:
        if getattr(top.environment, name) is None:
            raise ScenarioError(f"environment.{name} required for {attack_type}")

    return replace(top, attack=replace(top.attack, params=params),
                   evaluation=evaluation)


def validate_threat_model(scenario: Scenario) -> list[str]:
    """Violations of the attack's required capability triple (empty = ok)."""
    required = ATTACKS[scenario.attack.type].requires
    return [f"{scenario.attack.type}: {v}"
            for v in scenario.grants.dominates(required)]


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Assignment:
    scenario_id: str
    window: int
    slots: tuple[int, ...]
    exclusive: bool


@dataclass
class ResourcePlan:
    slots: int
    assignments: list[Assignment]

    def windows(self) -> list[list[Assignment]]:
        out: dict[int, list[Assignment]] = {}
        for a in self.assignments:
            out.setdefault(a.window, []).append(a)
        return [out[w] for w in sorted(out)]


def schedule(batch: list[Scenario], slots: int) -> ResourcePlan:
    """FIFO plan: query-surface attacks share windows up to slot capacity,
    side-channel attacks get exclusive whole-system windows."""
    if slots < 1:
        raise ValueError("slots must be >= 1")
    assignments: list[Assignment] = []
    window = 0
    fill = 0
    for scenario in batch:
        if ATTACKS[scenario.attack.type].exclusive:
            if fill:
                window += 1
                fill = 0
            assignments.append(Assignment(scenario.id, window,
                                          tuple(range(slots)), True))
            window += 1
        else:
            if fill >= slots:
                window += 1
                fill = 0
            assignments.append(Assignment(scenario.id, window, (fill,), False))
            fill += 1
    return ResourcePlan(slots=slots, assignments=assignments)


# ---------------------------------------------------------------------------
# workbench (repository layout + training recipes)
# ---------------------------------------------------------------------------

DEFAULT_RECIPE = TrainConfig(epochs=12)


@dataclass
class Workbench:
    """Repository roots plus the training recipes; datasets and
    architectures come from the built-in registries.

    Cache fills (dataset generation, train-on-miss checkpoints) go through
    :func:`_cached` under one lock, so concurrent scenarios sharing a target
    never write the same cache entry twice.
    """

    root: Path
    recipes: dict[str, TrainConfig] = field(default_factory=dict)

    def __post_init__(self):
        self.root = Path(self.root)
        self._cache_lock = threading.RLock()

    @property
    def checkpoints_dir(self) -> Path:
        return self.root / "checkpoints"

    @property
    def datasets_dir(self) -> Path:
        return self.root / "datasets"

    @property
    def records_dir(self) -> Path:
        return self.root / "records"

    @property
    def artifacts_dir(self) -> Path:
        return self.root / "artifacts"

    def dataset(self, dataset_id: str) -> Dataset:
        """Load from the cache, generating (and caching) on first use.

        A cache entry that fails to load, or holds another spec's samples,
        is discarded and regenerated; generation is deterministic, so the
        replacement equals what was lost.
        """
        spec = BUILTIN_DATASETS[dataset_id]
        entry = self.datasets_dir / dataset_id
        return _cached(
            self, entry, (OSError, ValueError),
            load=lambda: load_dataset(entry, spec),
            make=lambda: generate(spec),
            save=lambda data: save_dataset(data, entry))[0]


def default_workbench(root=None) -> Workbench:
    root = root or os.environ.get(ROOT_ENV_VAR, "extractbench-repo")
    return Workbench(root=Path(root))


def _ref_data(ref: ModelRef, bench: Workbench) -> Dataset:
    """The data a model reference is trained on: its dataset, restricted to
    its class subset (labels re-indexed to the subset's order)."""
    data = bench.dataset(ref.dataset_id)
    if ref.class_subset is not None:
        data = restrict_to_classes(data, ref.class_subset)
    return data


def _ref_seed(ref: ModelRef) -> int:
    return zlib.crc32(ref.slug().encode()) & 0x7FFFFFFF


def _cached(bench: Workbench, entry: Path, corrupt, load, make, save):
    """The one cache-fill rule: `load()` the entry; if that raises one of
    the `corrupt` exceptions, discard the entry (when there is one), then
    `make()` the value and `save()` it. Returns (value, from_cache).

    Runs under the workbench's cache lock, so one process never fills an
    entry twice; a per-entry file lock for processes sharing a root would
    go here too.
    """
    with bench._cache_lock:
        try:
            return load(), True
        except corrupt:
            if entry.exists():  # corrupt or half there
                discard_entry(entry)
        value = make()
        save(value)
        return value, False


@one_blas_thread()
def zoo_resolve(ref: ModelRef, bench: Workbench):
    """Serve a model for a reference, training and caching it when absent.

    Returns (model, from_cache, seconds): the timing plus cache flag is what
    makes the train-on-miss policy observable in run records. A checkpoint
    of another spec than the one built here is retrained. Runs with BLAS on
    one thread (see :func:`~extractbench.tensor.one_blas_thread`).
    """
    started = time.perf_counter()
    data_spec = BUILTIN_DATASETS[ref.dataset_id]
    spec = builtin_spec(ref.architecture_id, data_spec.input_shape,
                        len(ref.class_subset or range(data_spec.class_count)))

    def make():
        data = _ref_data(ref, bench)
        model = build_model(spec, seed=_ref_seed(ref))
        config = replace(bench.recipes.get(ref.dataset_id, DEFAULT_RECIPE),
                         seed=_ref_seed(ref))
        train(model, data.inputs, data.labels, config)
        return model

    model, from_cache = _cached(
        bench, checkpoint_path(bench.checkpoints_dir, ref), CheckpointError,
        load=lambda: load_checkpoint(ref, bench.checkpoints_dir, spec),
        make=make,
        save=lambda model: save_checkpoint(model, ref, bench.checkpoints_dir))
    return model, from_cache, time.perf_counter() - started


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------

# fields in the order of the written document; a record written before
# `timings` and `resolved_from_cache` were added reads with their defaults
@dataclass(kw_only=True)
class RunRecord:
    schema_version: int = SCHEMA_VERSION
    scenario: dict
    status: str                       # ok | failed
    started: str
    ended: str
    metrics: dict[str, float]
    artifacts: list[str]
    timings: dict[str, float] = field(default_factory=dict)
    resolved_from_cache: bool | None = None
    failure_reason: str | None = None

    @staticmethod
    def from_dict(doc: dict) -> "RunRecord":
        return from_doc(RunRecord, doc)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def persist_record(record: RunRecord, bench: Workbench) -> Path:
    """Append-only store: unique file name, temp write, atomic rename."""
    bench.records_dir.mkdir(parents=True, exist_ok=True)
    stamp = record.started.replace(":", "").replace("+", "p")
    base = f"{record.scenario.get('id', 'scenario')}__{stamp}__{os.getpid()}"
    path = bench.records_dir / f"{base}.json"
    n = 0
    while path.exists():
        n += 1
        path = bench.records_dir / f"{base}_{n}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(to_doc(record), indent=2, allow_nan=False))
    os.replace(tmp, path)
    return path


def load_records(records_dir) -> list[RunRecord]:
    """Every readable record in the directory; a file that is unreadable,
    incomplete, or holds a value of the wrong JSON type or an unknown field
    is skipped and named on stderr."""
    records = []
    for path in sorted(Path(records_dir).glob("*.json")):
        try:
            records.append(RunRecord.from_dict(json.loads(path.read_text())))
        except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
            print(f"skipping unreadable record {path}: {exc}", file=sys.stderr)
    return records


# ---------------------------------------------------------------------------
# attack dispatch
# ---------------------------------------------------------------------------

def _derived_seed(scenario: Scenario, tag: str) -> int:
    return zlib.crc32(f"{scenario.seed}|{tag}".encode()) & 0x7FFFFFFF


def _steal_setup(scenario, bench):
    """Shared prefix of the stealing attacks: the seeded split of the
    target's data and the surrogate architecture."""
    p = scenario.attack.params
    data = _ref_data(scenario.target, bench)
    queries, test = split(data, p.query_fraction,
                          _derived_seed(scenario, "split"))
    arch_id = p.surrogate_architecture or scenario.target.architecture_id
    spec = builtin_spec(arch_id, data.spec.input_shape, data.class_count)
    return queries, test, spec


def _run_knockoff(scenario, bench, target, art_dir):
    p: KnockoffConfig = scenario.attack.params
    queries, test, spec = _steal_setup(scenario, bench)
    stolen, record = knockoff_extract(QueryHandle(target), queries, spec, p,
                                      seed=scenario.seed)
    stolen_ref = ModelRef(spec.id, scenario.target.dataset_id,
                          scenario.target.class_subset, f"stolen-{scenario.id}")
    save_checkpoint(stolen, stolen_ref, art_dir)
    out_stolen = stolen.predict(test.inputs)
    out_target = target.predict(test.inputs)
    metrics = {
        "fidelity": fidelity(out_stolen, out_target, test),
        "queries_used": float(record.queries_used),
        "accuracy_target": accuracy(out_target, test),
        "accuracy_stolen": accuracy(out_stolen, test),
        "final_loss": record.loss_history[-1] if record.loss_history else 0.0,
    }
    return metrics, [str(checkpoint_path(art_dir, stolen_ref))]


def _run_miface(scenario, bench, target, art_dir):
    p: MifaceParams = scenario.attack.params
    aux = None
    if p.init_mode == "auxiliary_sample":
        data = _ref_data(scenario.target, bench)
        aux, _ = split(data, p.query_fraction, _derived_seed(scenario, "split"))
    result = miface_invert(GradientHandle(target), p, p.target_class,
                           aux=aux, seed=scenario.seed)
    pgm = save_pgm(result.reconstruction,
                   art_dir / f"reconstruction_c{p.target_class}.pgm")
    sample_dir = art_dir / f"reconstruction_c{p.target_class}"
    recon = Dataset(
        spec=BUILTIN_DATASETS[scenario.target.dataset_id],
        inputs=result.reconstruction[None, ...],
        labels=np.array([p.target_class], dtype=np.int32), role="query")
    save_dataset(recon, sample_dir)
    metrics = {
        "success": float(result.success),
        "final_posterior": result.posterior_trace[-1],
        "iterations": float(result.iterations),
        "trace_length": float(len(result.posterior_trace)),
    }
    return metrics, [str(pgm), str(sample_dir)]


def _run_staged_inversion(scenario, bench, target, art_dir):
    p: StagedInversionParams = scenario.attack.params
    queries, test, spec = _steal_setup(scenario, bench)
    knock = KnockoffConfig(p.budgets[-1], p.output_mode, recreate=p.recreate)
    rows = staged_inversion_study(target, queries, test, list(p.budgets), spec,
                                  knock, p.inversion, seed=scenario.seed)
    metrics = {}
    for row in rows:
        scores = {"fidelity": row.fidelity, "pwcca": row.pwcca,
                  "class_similarity": row.mean_class_similarity,
                  "inversion_success": float(
                      np.mean(list(row.inversion_success.values())))}
        metrics.update({f"{k}_b{row.budget}": v for k, v in scores.items()})
    metrics.update(scores)  # the last (largest) budget's, unsuffixed
    last = rows[-1]
    artifacts = [str(save_pgm(image, art_dir /
                              f"reconstruction_b{last.budget}_c{cls}.pgm"))
                 for cls, image in last.reconstructions.items()]
    return metrics, artifacts


def _corpus_setup(scenario, per_architecture: int, victim_tags: list[str]):
    """Shared prefix of the side-channel attacks: the spec of each corpus
    architecture at the target dataset's shape, and one generator per
    stream, seeded in bulk, in the order a runner simulates them:
    `per_architecture` for each corpus architecture, then one per victim
    tag."""
    archs = scenario.attack.params.corpus_architectures
    data_spec = BUILTIN_DATASETS[scenario.target.dataset_id]
    specs = [builtin_spec(a, data_spec.input_shape, data_spec.class_count)
             for a in archs]
    rngs = seeded_generators(
        [_derived_seed(scenario, f"{a}|{i}") for a in archs
         for i in range(per_architecture)]
        + [_derived_seed(scenario, tag) for tag in victim_tags])
    return specs, rngs


def _run_deepsniffer(scenario, bench, target, art_dir):
    p: DeepSnifferParams = scenario.attack.params
    profile = BUILTIN_ENVIRONMENT_PROFILES[scenario.environment.environment_profile]
    if scenario.environment.verbose_runtime:
        profile = replace(profile, verbose_runtime=True)
    train_profile = replace(profile, id="corpus", metric_jitter=p.train_jitter,
                            verbose_runtime=False)
    specs, rngs = _corpus_setup(scenario, p.traces_per_architecture, ["victim"])
    corpus = []
    for spec in specs:
        truth = ds_truth_sequence(spec)
        for _ in range(p.traces_per_architecture):
            trace = simulate_kernel_trace(spec, train_profile, seed=next(rngs))
            corpus.append((trace, truth))
    classifier = train_ds_model(corpus, window=p.window, config=replace(
        DS_CLASSIFIER_RECIPE, epochs=p.classifier_epochs, seed=scenario.seed))
    target_spec = target.spec
    trace = simulate_kernel_trace(target_spec, profile, seed=next(rngs))
    predicted = ds_extract(trace, classifier)
    truth = ds_truth_sequence(target_spec)
    trace_path = write_trace_jsonl(trace, art_dir / "victim_trace.jsonl")
    metrics = {
        "sequence_fidelity": sequence_fidelity(predicted, truth),
        "predicted_length": float(len(predicted)),
        "true_length": float(len(truth)),
    }
    return metrics, [str(trace_path)]


def _run_deeprecon(scenario, bench, target, art_dir):
    p: DeepReconParams = scenario.attack.params
    profile = BUILTIN_MACHINE_PROFILES[scenario.environment.machine_profile]
    specs, rngs = _corpus_setup(scenario, p.histograms_per_architecture,
                                [f"victim|{t}" for t in range(p.trials)])
    corpus = [simulate_symbol_stream(spec, profile, seed=next(rngs))
              for spec in specs for _ in range(p.histograms_per_architecture)]
    model = fit_fingerprint_space(corpus, k=p.k_neighbors)
    target_spec = target.spec
    exact = family = 0
    for _ in range(p.trials):
        hist = simulate_symbol_stream(target_spec, profile, seed=next(rngs))
        pred = dr_classify(hist, model)
        exact += pred.architecture_id == target_spec.id
        family += pred.family == target_spec.family
    csv_path = write_histograms_csv(corpus, art_dir / "corpus_histograms.csv")
    metrics = {"exact_accuracy": exact / p.trials,
               "family_accuracy": family / p.trials}
    return metrics, [str(csv_path)]


def _run_equivalency(scenario, bench, target, art_dir):
    p: EquivalencyParams = scenario.attack.params
    queries, test, spec = _steal_setup(scenario, bench)
    stolen, _ = knockoff_extract(QueryHandle(target), queries, spec, p,
                                 seed=scenario.seed)
    report = equivalency_report(target, stolen, test, p)
    metrics = dict(report.metrics())
    pwccas = [v for k, v in metrics.items() if k.startswith("pwcca_")]
    metrics["pwcca"] = float(np.mean(pwccas))
    report_path = art_dir / "equivalency.json"
    report_path.write_text(json.dumps(
        {"metrics": metrics, "distill_config": report.distill_config,
         "probe_points": report.similarity.probe_points}, indent=2))
    return metrics, [str(report_path)]


def _budget_limit(budget: Callable, pwcca: bool = False):
    """A stealing attack's limit, by `split`'s own rule: `budget(params)`, its
    largest budget, must fit the query split; with `pwcca`, the test split
    must also hold more rows than the output width, as PWCCA needs."""
    def limit(p, classes, rows_per_class):
        queries = query_rows(rows_per_class, p.query_fraction)
        if budget(p) > classes * queries:
            return f"budget {budget(p)} exceeds query-set size {classes * queries}"
        if pwcca and rows_per_class - queries < 2:
            return (f"query_fraction {p.query_fraction} leaves "
                    f"{classes * (rows_per_class - queries)} test rows, too few "
                    f"for PWCCA over {classes} classes")
    return limit


def _class_limit(p, classes, rows_per_class):
    if p.target_class >= classes:
        return f"target_class {p.target_class} outside output width {classes}"


class Attack(NamedTuple):
    """Everything the workbench knows of one attack type."""

    params: type                 # its params dataclass: the schema
    run: Callable                # (scenario, bench, target, art_dir) -> (metrics, artifacts)
    requires: ThreatModel        # the capability triple grants must cover
    metrics: tuple[str, ...]     # what `evaluation` may name, and its default
    environment: tuple[str, ...]  # the environment fields it reads
    exclusive: bool = False      # runs alone, in a whole-system window
    # (params, target classes, rows per class) -> what the params ask for
    # that the target lacks, or None
    limit: Callable = lambda params, classes, rows_per_class: None


_QUERY_SURFACE = ThreatModel("hidden", "none", "partial")
_SIDE_CHANNEL = ThreatModel("observed", "partial", "none")

# deepsniffer captures accelerator kernel traces, deeprecon probes the CPU
# cache; each reads its own environment fields and no other attack does
ATTACKS = {
    "knockoff": Attack(
        KnockoffConfig, _run_knockoff, _QUERY_SURFACE,
        ("fidelity", "queries_used", "accuracy_target", "accuracy_stolen",
         "final_loss"), (),
        limit=_budget_limit(lambda p: p.query_budget)),
    "deepsniffer": Attack(
        DeepSnifferParams, _run_deepsniffer, _SIDE_CHANNEL,
        ("sequence_fidelity", "predicted_length", "true_length"),
        ("environment_profile", "verbose_runtime"), exclusive=True),
    "deeprecon": Attack(
        DeepReconParams, _run_deeprecon, _SIDE_CHANNEL,
        ("exact_accuracy", "family_accuracy"),
        ("machine_profile",), exclusive=True),
    "miface": Attack(
        MifaceParams, _run_miface, _QUERY_SURFACE,
        ("success", "final_posterior", "iterations", "trace_length"), (),
        limit=_class_limit),
    "staged_inversion": Attack(
        StagedInversionParams, _run_staged_inversion, _QUERY_SURFACE,
        ("fidelity", "class_similarity", "pwcca", "inversion_success"), (),
        limit=_budget_limit(lambda p: p.budgets[-1], pwcca=True)),
    "equivalency": Attack(
        EquivalencyParams, _run_equivalency, _QUERY_SURFACE,
        ("fidelity", "pwcca", "distilled_pwcca", "accuracy_target",
         "accuracy_stolen"), (),
        limit=_budget_limit(lambda p: p.query_budget, pwcca=True)),
}


@one_blas_thread()
def execute(scenario: Scenario, bench: Workbench,
            persist: bool = True) -> RunRecord:
    """Run one validated scenario end to end.

    Threat gating happens first; the target resolve (disk load or
    train-on-miss) is kicked off before attack construction; any failure is
    captured into a failed record rather than raised past this boundary.
    The whole run has BLAS on one thread, and the caller's thread count is
    back when it returns (see :func:`~extractbench.tensor.one_blas_thread`).
    """
    started = _utcnow()
    t0 = time.perf_counter()
    timings: dict[str, float] = {}
    from_cache = failure = None
    art_dir = bench.artifacts_dir / scenario.id / started.replace(":", "")
    try:
        violations = validate_threat_model(scenario)
        if violations:
            raise PermissionError(
                "threat model violation: " + "; ".join(violations))
        target, from_cache, resolve_s = zoo_resolve(scenario.target, bench)
        timings["resolve_seconds"] = resolve_s
        art_dir.mkdir(parents=True, exist_ok=True)
        t1 = time.perf_counter()
        metrics, artifacts = ATTACKS[scenario.attack.type].run(
            scenario, bench, target, art_dir)
        timings["attack_seconds"] = time.perf_counter() - t1
        missing = [m for m in scenario.evaluation if m not in metrics]
        if missing:
            raise RuntimeError(f"requested metric(s) {missing} not produced")
        unfinite = sorted(m for m, v in metrics.items() if not np.isfinite(v))
        if unfinite:
            raise ArithmeticError(f"metric(s) {unfinite} not finite")
    except Exception as exc:
        shutil.rmtree(art_dir, ignore_errors=True)
        metrics, artifacts = {}, []
        failure = f"{type(exc).__name__}: {exc}"
    timings["wall_seconds"] = time.perf_counter() - t0
    record = RunRecord(scenario=to_doc(scenario),
                       status="failed" if failure else "ok", started=started,
                       ended=_utcnow(), metrics=metrics, artifacts=artifacts,
                       timings=timings, resolved_from_cache=from_cache,
                       failure_reason=failure)
    if persist:
        persist_record(record, bench)
    return record


@dataclass
class BatchResult:
    plan: ResourcePlan
    records: list[RunRecord]
    wall_seconds: float

    def durations(self) -> dict[str, float]:
        return {r.scenario["id"]: r.timings.get("wall_seconds", 0.0)
                for r in self.records}

    def all_ok(self) -> bool:
        return all(r.status == "ok" for r in self.records)


def simulated_makespan(plan: ResourcePlan, durations: dict[str, float]) -> float:
    """Completion time of a plan given per-scenario compute durations: windows
    run back to back, scenarios inside a window run on their own slots."""
    return sum(max(durations[a.scenario_id] for a in window)
               for window in plan.windows())


def run_batch(scenarios: list[Scenario], bench: Workbench,
              slots: int = 1) -> BatchResult:
    """Execute a batch per its resource plan, one scenario at a time.

    Windows run in plan order, and the scenarios of a window one after the
    other in this thread. `slots` shapes the plan only (which scenarios
    share a window, hence :func:`simulated_makespan`): scenario threads
    would contend for the interpreter lock, and measured slower than one.
    Records are persisted in batch order.
    """
    plan = schedule(scenarios, slots)
    by_id = {s.id: s for s in scenarios}
    if len(by_id) != len(scenarios):
        raise ValueError("duplicate scenario ids in batch")
    records: dict[str, RunRecord] = {}
    t0 = time.perf_counter()
    for window in plan.windows():
        for a in window:
            records[a.scenario_id] = execute(by_id[a.scenario_id], bench,
                                             persist=False)
    ordered = [records[s.id] for s in scenarios]
    for record in ordered:
        persist_record(record, bench)
    return BatchResult(plan=plan, records=ordered,
                       wall_seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report(records: list[RunRecord], fmt: str, out_path) -> list[Path]:
    """Collate records: wide CSV (stable columns) plus a long-format CSV for
    sweep plotting, or verbatim JSON."""
    if not records:
        raise ValueError("no records to report")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        out_path.write_text(json.dumps(to_doc(records), indent=2))
        return [out_path]
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")

    import csv as _csv
    metric_names = sorted({m for r in records for m in r.metrics})
    with out_path.open("w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["scenario_id", "attack_type", "target"]
                        + metric_names + ["status"])
        for r in records:
            target = r.scenario.get("target", {})
            target_str = (f"{target.get('architecture_id')}@"
                          f"{target.get('dataset_id')}")
            row = [r.scenario.get("id"), r.scenario.get("attack", {}).get("type"),
                   target_str]
            row += [r.metrics.get(m, "") for m in metric_names]
            row.append(r.status)
            writer.writerow(row)
    long_path = out_path.with_name(out_path.stem + "_long.csv")
    with long_path.open("w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["scenario_id", "attack_type", "metric", "value"])
        for r in records:
            for m, v in sorted(r.metrics.items()):
                writer.writerow([r.scenario.get("id"),
                                 r.scenario.get("attack", {}).get("type"), m, v])
    return [out_path, long_path]
