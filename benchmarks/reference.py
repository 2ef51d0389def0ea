"""Output checks: every record against its first run and the stored reference.

The determinism contract of extractbench is that the same scenario and seed
give the same metrics, bit for bit. Metrics maps are compared as canonical
JSON text, which is exact for floats because ``repr`` round-trips.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def canonical(metrics) -> str:
    return json.dumps(metrics, sort_keys=True)


def digest(metrics_by_id: dict) -> str:
    """Short hash of every scenario's metrics, to compare two commits."""
    return hashlib.sha256(canonical(metrics_by_id).encode()).hexdigest()[:16]


class RecordCheck:
    """Counts the scenario records that failed, or whose metrics differ from
    the first record of the same scenario in this process or from the stored
    reference."""

    def __init__(self, reference: dict | None = None):
        self.reference = reference
        self.first: dict[str, dict] = {}
        self.attempted = 0
        # Records compared bit for bit with the stored reference: 0 when the
        # run's seed or platform has none, so a skipped check shows.
        self.reference_checked = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def check(self, scenario_ids, records) -> None:
        found: dict[str, list] = {}
        for record in records:
            found.setdefault(record.scenario["id"], []).append(record)
        for sid in scenario_ids:
            self.attempted += 1
            problem = self._problem(sid, found.get(sid, []))
            if problem:
                self.problems.append(f"{sid}: {problem}")

    def _problem(self, sid, records) -> str | None:
        if len(records) != 1:
            return f"{len(records)} persisted records, expected 1"
        record = records[0]
        if record.status != "ok":
            return f"failed: {record.failure_reason}"
        metrics = canonical(record.metrics)
        if self.reference is not None:
            self.reference_checked += 1
            if metrics != canonical(self.reference.get(sid)):
                return "metrics differ from the stored reference"
        if metrics != canonical(self.first.setdefault(sid, record.metrics)):
            return "metrics differ from its first run in this process"
        return None


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int, platform: dict):
    """(metrics by scenario id, or None when not comparable; why)."""
    path = reference_path(workload)
    if not path.is_file():
        return None, "no stored reference"
    doc = json.loads(path.read_text())
    if doc["platform"] != platform:
        # Float results are only bit-reproducible on the same BLAS kernels,
        # numpy SIMD paths and versions.
        return None, (f"NOT CHECKED: the stored reference was made on another "
                      f"platform ({doc['platform']})")
    if str(seed) not in doc["seeds"]:
        return None, (f"NOT CHECKED: no stored reference for seed {seed} (stored: "
                      f"{', '.join(sorted(doc['seeds'], key=int))}); compare digests")
    return doc["seeds"][str(seed)], f"checked bit for bit against {path.name}"


def write_reference(workload: str, seed: int, platform: dict,
                    metrics_by_id: dict) -> Path:
    """Store one seed's metrics; seeds stored for another platform are dropped."""
    path = reference_path(workload)
    doc = json.loads(path.read_text()) if path.is_file() else {}
    seeds = doc.get("seeds", {}) if doc.get("platform") == platform else {}
    seeds[str(seed)] = metrics_by_id
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": workload, "platform": platform,
                                "seeds": seeds}, indent=1, sort_keys=True) + "\n")
    return path
