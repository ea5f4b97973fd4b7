"""Failure corpus: content-addressed JSON entries + replayable repro files.

A corpus directory is flat: one ``<sha256-prefix>.json`` per failing
scenario.  The filename is the hash of the entry's canonical JSON, so
re-running the same fuzz campaign writes the same file — no timestamps, no
collisions across legs, byte-for-byte deterministic, and the same
failure found twice dedupes itself.

Entry layout (``repro.fuzz_corpus/1``)::

    {
      "schema": "repro.fuzz_corpus/1",
      "oracle": "conservation",            # first violated invariant
      "violations": [{"oracle": ..., "mode": ..., "message": ...}, ...],
      "scenario": { ... Scenario.to_dict() ... }
    }

An entry *is* a repro file: ``repro-sim fuzz --replay PATH`` rebuilds the
scenario and re-runs every oracle on it.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.fuzz.generators import Scenario
from repro.fuzz.oracles import ScenarioResult, Violation

CORPUS_SCHEMA = "repro.fuzz_corpus/1"


def entry_for(scenario: Scenario, violations: list[Violation]) -> dict:
    """Corpus entry for one failing scenario (post-shrink if shrunk)."""
    return {
        "schema": CORPUS_SCHEMA,
        "oracle": violations[0].oracle if violations else "unknown",
        "violations": [
            {"oracle": v.oracle, "mode": v.mode, "message": v.message}
            for v in violations
        ],
        "scenario": scenario.to_dict(),
    }


def entry_from_result(result: ScenarioResult) -> dict:
    return entry_for(result.scenario, result.violations)


def canonical_json(entry: dict) -> str:
    return json.dumps(entry, indent=2, sort_keys=True)


def entry_filename(entry: dict) -> str:
    digest = hashlib.sha256(canonical_json(entry).encode()).hexdigest()
    return f"{digest[:16]}.json"


def save_entry(corpus_dir: str, entry: dict) -> str:
    """Write *entry* into *corpus_dir* (created if missing); returns path."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, entry_filename(entry))
    with open(path, "w", encoding="utf-8") as f:
        f.write(canonical_json(entry) + "\n")
    return path


def load_entry(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        entry = json.load(f)
    schema = entry.get("schema")
    if schema != CORPUS_SCHEMA:
        raise ValueError(f"{path}: unknown corpus schema {schema!r}")
    return entry


def scenario_of(entry: dict) -> Scenario:
    return Scenario.from_dict(entry["scenario"])


def iter_entries(corpus_dir: str) -> list[tuple[str, dict]]:
    """(path, entry) for every corpus file, sorted by filename."""
    if not os.path.isdir(corpus_dir):
        return []
    out = []
    for name in sorted(os.listdir(corpus_dir)):
        if name.endswith(".json"):
            path = os.path.join(corpus_dir, name)
            out.append((path, load_entry(path)))
    return out
