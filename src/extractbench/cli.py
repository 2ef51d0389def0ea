"""Command line front end.

    extractbench run <scenario.json> [--root PATH]
    extractbench batch <dir> --slots N [--root PATH]
    extractbench report <records-dir> --format csv|json --out <path>
    extractbench zoo list
    extractbench zoo train --arch <id> --dataset <id> [--classes i,j,...] [--tag T]
    extractbench validate <scenario.json>

The repository root (checkpoints, records, artifacts) comes from --root
or the EXTRACTBENCH_ROOT environment variable. Exit code is 0 only when
every scenario in the invocation succeeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .fields import to_doc
from .orchestrator import (
    BUILTIN_DATASETS,
    ROOT_ENV_VAR,
    ScenarioError,
    Workbench,
    default_workbench,
    execute,
    load_records,
    parse_scenario,
    report,
    run_batch,
    validate_threat_model,
    zoo_resolve,
)
from .zoo import BUILTIN_ARCHITECTURES, ModelRef


def _bench(args) -> Workbench:
    return default_workbench(args.root)


def _cmd_run(args) -> int:
    scenario = parse_scenario(Path(args.scenario).read_text())
    record = execute(scenario, _bench(args))
    print(json.dumps(to_doc(record), indent=2))
    return 0 if record.status == "ok" else 1


def _cmd_batch(args) -> int:
    paths = sorted(Path(args.directory).glob("*.json"))
    if not paths:
        print(f"no scenario files in {args.directory}", file=sys.stderr)
        return 1
    scenarios = [parse_scenario(p.read_text()) for p in paths]
    result = run_batch(scenarios, _bench(args), slots=args.slots)
    for record in result.records:
        line = f"{record.scenario['id']}: {record.status}"
        if record.status == "failed":
            line += f" ({record.failure_reason})"
        print(line)
    print(f"batch wall time: {result.wall_seconds:.2f}s "
          f"({len(result.plan.windows())} window(s), {args.slots} slot(s))")
    return 0 if result.all_ok() else 1


def _cmd_report(args) -> int:
    records = load_records(args.records_dir)
    paths = report(records, args.format, args.out)
    for p in paths:
        print(p)
    return 0


def _cmd_validate(args) -> int:
    try:
        scenario = parse_scenario(Path(args.scenario).read_text())
    except ScenarioError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    violations = validate_threat_model(scenario)
    if violations:
        for v in violations:
            print(f"threat-model violation: {v}", file=sys.stderr)
        return 1
    print(json.dumps(to_doc(scenario), indent=2))
    return 0


def _cmd_zoo(args) -> int:
    bench = _bench(args)
    if args.zoo_command == "list":
        print("architectures:")
        for arch_id in BUILTIN_ARCHITECTURES:
            print(f"  {arch_id}")
        print("datasets:")
        for ds_id in BUILTIN_DATASETS:
            print(f"  {ds_id}")
        ckpt_dir = bench.checkpoints_dir
        if ckpt_dir.exists():
            print("checkpoints:")
            # an entry is `<slug>/<crc>` holding metadata.json; a writer's
            # temp and discard directories beside it are `<crc>.tmp...`
            for meta in sorted(ckpt_dir.glob("*/*/metadata.json")):
                entry = meta.parent
                if "." not in entry.name:
                    print(f"  {entry.parent.name}/{entry.name}")
        return 0
    # train
    subset = tuple(int(c) for c in args.classes.split(",")) if args.classes else None
    ref = ModelRef(architecture_id=args.arch, dataset_id=args.dataset,
                   class_subset=subset, checkpoint_tag=args.tag)
    model, from_cache, seconds = zoo_resolve(ref, bench)
    source = "cache" if from_cache else "trained"
    print(f"{ref.slug()}: {source} in {seconds:.2f}s "
          f"({model.parameter_count()} parameters)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="extractbench",
        description="Scenario-driven model extraction attack workbench")
    parser.add_argument("--root", default=None,
                        help=f"repository root (default: ${ROOT_ENV_VAR} or "
                             f"./extractbench-repo)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one scenario")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("batch", help="execute every scenario in a directory")
    p.add_argument("directory")
    p.add_argument("--slots", type=int, default=1,
                   help="slots of the resource plan (default 1); they shape "
                        "the plan only, scenarios run one at a time")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("report", help="collate run records")
    p.add_argument("records_dir")
    p.add_argument("--format", choices=("csv", "json"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("validate", help="parse (schema and registry ids) and "
                                        "threat-check a scenario")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("zoo", help="inspect or train registry models")
    zo = p.add_subparsers(dest="zoo_command", required=True)
    z = zo.add_parser("list", help="list architectures, datasets, checkpoints")
    z.set_defaults(func=_cmd_zoo)
    z = zo.add_parser("train", help="resolve (train-on-miss) a model")
    z.add_argument("--arch", required=True)
    z.add_argument("--dataset", required=True)
    z.add_argument("--classes", default=None, help="comma-separated class ids")
    z.add_argument("--tag", default="default")
    z.set_defaults(func=_cmd_zoo)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
