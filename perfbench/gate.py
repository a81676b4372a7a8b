"""Correctness gate: structural digests and scores of a finished session.

The gate reads a fixed set of artifacts from the session directory and
reduces each to the structure the pipeline promises to keep identical:

- ``datasets/*.json``: the member ids;
- ``traces/*.trace.json``: the whole expansion trace;
- ``networks/<name>.json``: nodes and links with their attributes;
- ``networks/<name>.clusters.json``: partition membership and labels, both
  levels;
- ``reports/overlap.csv``: the overlap matrix.

Each reduction is hashed (sha256 of canonical JSON). Modularity and mean
silhouette are kept as numbers and compared within ``SCORE_TOLERANCE``, the
oracle tolerance that allows last-digit floating-point drift.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

SCORE_TOLERANCE = 1e-9


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _partition_structure(level: dict) -> list:
    return [[c["index"], c["label"], c["members"]] for c in level["clusters"]]


def collect(session: Path) -> dict:
    """Digests of the structural artifacts and the clustering scores."""
    artifacts: dict[str, str] = {}
    scores: dict[str, float | None] = {}
    for path in sorted((session / "datasets").glob("*.json")):
        artifacts[f"datasets/{path.name}"] = _digest(_read_json(path)["member_ids"])
    for path in sorted((session / "traces").glob("*.trace.json")):
        artifacts[f"traces/{path.name}"] = _digest(_read_json(path))
    for path in sorted((session / "networks").glob("*.json")):
        data = _read_json(path)
        key = f"networks/{path.name}"
        if path.name.endswith(".clusters.json"):
            levels = {"level1": _partition_structure(data["level1"])}
            scores[f"{key}:level1.modularity"] = data["level1"]["modularity"]
            scores[f"{key}:level1.mean_silhouette"] = data["level1"]["mean_silhouette"]
            for parent, sub in sorted(data.get("level2", {}).items()):
                levels[f"level2.{parent}"] = _partition_structure(sub)
                scores[f"{key}:level2.{parent}.modularity"] = sub["modularity"]
            artifacts[key] = _digest(levels)
        else:
            artifacts[key] = _digest([data["nodes"], data["edges"]])
    overlap = session / "reports" / "overlap.csv"
    if overlap.exists():
        artifacts["reports/overlap.csv"] = _digest(overlap.read_text(encoding="utf-8"))
    return {"artifacts": artifacts, "scores": scores}


def _score_matches(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return math.isfinite(got) and abs(got - want) <= SCORE_TOLERANCE


def compare(found: dict, reference: dict) -> list[str]:
    """Differences between ``collect()`` output and the reference; empty when correct."""
    problems = []
    for kind in ("artifacts", "scores"):
        want, got = reference[kind], found[kind]
        for key in sorted(want.keys() - got.keys()):
            problems.append(f"missing {key}")
        for key in sorted(got.keys() - want.keys()):
            problems.append(f"unexpected {key}")
        for key in sorted(want.keys() & got.keys()):
            same = got[key] == want[key] if kind == "artifacts" else _score_matches(got[key], want[key])
            if not same:
                problems.append(f"{key} differs from the reference")
    return problems
