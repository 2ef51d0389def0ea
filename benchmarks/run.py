"""Run one extractbench benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload warm-attack-mix --seed 0 --trace 0

One closed-loop client in one process. Set-up runs several times and
setup_s is the median. Then the workload's batch goes through the public
orchestrator API (parse_scenario, zoo_resolve, run_batch) back to back until
--seconds have passed. Each iteration runs the batch at the workload's slot
count and again at one slot; with --trace 1 it runs the batch untraced and
then traced instead, and the per-layer metrics come from the traced batches.

A host speed probe (hostspeed.py) runs before the first set-up and after
every set-up and batch. The end-to-end times in the JSON line are scaled by
the probes around them to a reference host speed; the summary prints them
as measured beside the scaled ones.

Every record is checked: it must succeed, repeat the metrics of its first
run exactly, and match the stored reference bit for bit where one is stored
for the seed and platform. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
above it are a summary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import hostspeed
import machine
import reference
import tracing
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
# Set-up repeats: at least this many, and until this many seconds are spent,
# so a short set-up (cold-train's, mostly one interpreter start) gets more.
SETUP_REPEATS = 5
SETUP_SECONDS = 4.0


def load_library():
    """Import the orchestrator from this checkout's sources, never from elsewhere."""
    if not (SRC / "extractbench" / "orchestrator.py").is_file():
        sys.exit(f"benchmark: no extractbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from extractbench import orchestrator
    return orchestrator


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the orchestrator."""
    started = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import extractbench.orchestrator", str(SRC)],
                   check=True)
    return time.perf_counter() - started


def make_workbench(orch, workload: Workload, root: Path):
    recipes = {dataset: orch.TrainConfig(epochs=epochs)
               for dataset, epochs in workload.recipes().items()}
    return orch.Workbench(root=root, recipes=recipes)


def set_up(orch, workload: Workload, docs, root: Path):
    """Workbench, parsed batch and, for a warm workload, its trained targets."""
    started = time.perf_counter()
    bench = make_workbench(orch, workload, root)
    batch = [orch.parse_scenario(doc) for doc in docs]
    if not workload.cold:
        for ref in dict.fromkeys(s.target for s in batch):
            orch.zoo_resolve(ref, bench)
    return bench, batch, time.perf_counter() - started


@dataclass
class Batch:
    kind: str                # "batch", "serial", "untraced" or "traced"
    wall_s: float
    cpu_s: float
    records: list
    probe_s: float = 0.0     # host speed probe around the batch


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def timed_batch(orch, kind, batch, bench, slots) -> Batch:
    """run_batch timed around the call; its records are read back from disk."""
    before = set(bench.records_dir.glob("*.json"))
    cpu, started = cpu_seconds(), time.perf_counter()
    orch.run_batch(batch, bench, slots=slots)
    wall = time.perf_counter() - started
    cpu = cpu_seconds() - cpu
    paths = sorted(set(bench.records_dir.glob("*.json")) - before)
    records = [orch.RunRecord.from_dict(json.loads(p.read_text())) for p in paths]
    return Batch(kind, wall, cpu, records)


def record_seconds(record) -> float:
    return (datetime.fromisoformat(record.ended)
            - datetime.fromisoformat(record.started)).total_seconds()


@dataclass
class Traced:
    values: dict
    missing: set
    spans: list


def run_loop(orch, workload: Workload, docs, batch, bench, args, work, check,
             probes: hostspeed.Probes):
    """Closed loop: whole iterations until the next would overrun --seconds."""
    ids = [s.id for s in batch]
    plan = ((("untraced", workload.slots), ("traced", workload.slots))
            if args.trace else
            (("batch", workload.slots), ("serial", 1)))
    batches: list[Batch] = []
    traced: list[Traced] = []
    began = time.perf_counter()
    n = 0
    while True:
        iteration_began = time.perf_counter()
        for kind, slots in plan:
            n += 1
            root = work / f"batch-{n}"
            target_bench = make_workbench(orch, workload, root) if workload.cold else bench
            if kind == "traced":
                with tracing.Tracer() as tracer:
                    parsed = [orch.parse_scenario(doc) for doc in docs]
                    result = timed_batch(orch, kind, parsed, target_bench, slots)
                values, sources = tracing.layer_metrics(tracer.spans, result.wall_s,
                                                        slots)
                missing = tracing.missing_metrics(sources, tracer.spans,
                                                  tracer.unpatched, workload.layers)
                for earlier in traced:     # keep only the last batch's spans
                    earlier.spans = []
                traced.append(Traced(values, missing, tracer.spans))
            else:
                result = timed_batch(orch, kind, batch, target_bench, slots)
            check.check(ids, result.records)
            result.probe_s = probes.after_step()
            batches.append(result)
            shutil.rmtree(root, ignore_errors=True)
        took = time.perf_counter() - iteration_began
        if time.perf_counter() - began + took > args.seconds:
            return batches, traced, time.perf_counter() - began


def median_of(batches, kind, field):
    return statistics.median(getattr(b, field) for b in batches if b.kind == kind)


def end_to_end(batches, setups, scale: bool) -> dict:
    """Medians over the run. With ``scale`` each timing is first scaled to the
    reference host by the probes around its batch or set-up."""
    def t(seconds, probe_s):
        return hostspeed.scaled(seconds, probe_s) if scale else seconds

    def median(kind, field):
        return statistics.median(t(getattr(b, field), b.probe_s)
                                 for b in batches if b.kind == kind)

    return {
        "setup_s": statistics.median(t(s, p) for s, p in setups),
        "batch_wall_s": median("batch", "wall_s"),
        "serial_wall_s": median("serial", "wall_s"),
        "scenario_gmean_s": statistics.geometric_mean(
            adjusted if scale else measured
            for measured, adjusted, _ in attack_medians(batches, "batch").values()),
        "cpu_s": median("batch", "cpu_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(batches, traced: list[Traced]) -> tuple[dict, list[str]]:
    """Counts from the traced batches (which must agree), medians otherwise."""
    problems = []
    values = {}
    for metric in traced[0].values:
        samples = [t.values.get(metric) for t in traced]
        if tracing.is_count(metric):
            if len(set(samples)) != 1:
                problems.append(f"count {metric} differs between traced batches: {samples}")
            values[metric] = samples[0]
        else:
            values[metric] = statistics.median(samples)
    values["trace.overhead_ratio"] = (median_of(batches, "traced", "wall_s")
                                      / median_of(batches, "untraced", "wall_s"))
    for metric in set().union(*(t.missing for t in traced)):
        values.pop(metric, None)
    return values, problems


def claim_problems(workload: Workload, values: dict) -> list[str]:
    return [f"{metric} is {values.get(metric)}, the workload claims {expected}"
            for metric, expected in workload.claims
            if metric in values and values[metric] != expected]


def attack_medians(batches, kind) -> dict:
    """attack -> (median seconds, median scaled seconds, sample count)."""
    by_attack = defaultdict(list)
    for b in batches:
        if b.kind == kind:
            for r in b.records:
                by_attack[r.scenario["attack"]["type"]].append(
                    (record_seconds(r), b.probe_s))
    return {attack: (statistics.median(s for s, _ in v),
                     statistics.median(hostspeed.scaled(s, p) for s, p in v), len(v))
            for attack, v in sorted(by_attack.items())}


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's metrics maps as the workload's "
                             "reference for this seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    workload = WORKLOADS[args.workload]
    orch = load_library()
    platform_key = machine.platform_key()
    if args.write_reference:
        expected, ref_status = None, "writing a new reference"
    else:
        expected, ref_status = reference.load_reference(workload.name, args.seed,
                                                        platform_key)
    check = reference.RecordCheck(expected)
    docs = workload.documents(args.seed)

    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []            # (seconds, probe seconds around them)
        probes = hostspeed.Probes()
        while (len(setups) < SETUP_REPEATS
               or sum(s for s, _ in setups) < SETUP_SECONDS):
            i = len(setups)
            if i:
                shutil.rmtree(work / f"setup-{i - 1}", ignore_errors=True)
            imports = import_seconds()
            bench, batch, took = set_up(orch, workload, docs, work / f"setup-{i}")
            setups.append((imports + took, probes.after_step()))
        batches, traced, loop_s = run_loop(orch, workload, docs, batch, bench,
                                           args, work, check, probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(check.problems)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(batches)} batches in {loop_s:.1f} s (closed loop, 1 client, "
          f"{workload.slots} slots)")
    print(f"set-ups {[round(s, 4) for s, _ in setups]} s; host probe "
          f"{statistics.median(probes.samples) * 1000:.2f} ms median, "
          f"{min(probes.samples) * 1000:.2f}-{max(probes.samples) * 1000:.2f} ms "
          f"over {len(probes.samples)} probes (reference "
          f"{hostspeed.REFERENCE_PROBE_S * 1000:.2f} ms)")
    if args.trace:
        values, count_problems = per_layer(batches, traced)
        values["check.reference_records"] = check.reference_checked
        problems += count_problems + claim_problems(workload, values)
        wanted = spec["per_layer"]
        for metric in sorted(values):
            print(f"  {metric:46s} {values[metric]:.6g} {tracing.unit_of(metric)}")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans = traced[-1].spans
        path = out / f"trace-{workload.name}-seed{args.seed}.jsonl.gz"
        tracing.write_spans(spans, path, min((s.start for s in spans), default=0.0))
        print(f"spans of the last traced batch: {path.relative_to(ROOT)}")
    else:
        values = end_to_end(batches, setups, scale=True)
        measured = end_to_end(batches, setups, scale=False)
        wanted = spec["end_to_end"]
        print(f"  {'metric':29s} {'as measured':>12s} {'scaled':>12s}")
        for attack, (median, scaled, n) in attack_medians(batches, "batch").items():
            print(f"  scenario_s.{attack:18s} {median:12.4f} {scaled:12.4f} s  "
                  f"median of n={n}")
        for metric in values:
            print(f"  {metric:29s} {measured[metric]:12.4f} {values[metric]:12.4f} "
                  f"{tracing.unit_of(metric)}")
        for kind in ("batch", "serial"):
            walls = [round(b.wall_s, 4) for b in batches if b.kind == kind]
            print(f"  {kind} walls {walls}")
    print(f"failed_ratio {check.failed}/{check.attempted} = "
          f"{check.failed / check.attempted:.4f}")
    for problem in problems[:10]:
        print(f"  problem: {problem}")
    if len(problems) > 10:
        print(f"  ... and {len(problems) - 10} more problems")
    print(f"reference: {ref_status}; {check.reference_checked} of "
          f"{check.attempted} records compared with it")
    print(f"metrics digest (seed {args.seed}): {reference.digest(check.first)}")
    if args.write_reference and not problems:
        path = reference.write_reference(workload.name, args.seed, platform_key,
                                         check.first)
        print(f"wrote {path.relative_to(ROOT)}")
    print("machine " + json.dumps(machine.machine_info(ROOT), sort_keys=True))

    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent:
        print(f"missing (not measured in this process): {absent}")
    print(json.dumps({
        "correct": not problems,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
