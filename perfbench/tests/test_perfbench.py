"""Checks of the benchmark itself: corpus generator, correctness gate, counts.

Run with ``python3 -m pytest perfbench/tests`` from the repository root. The
workloads run here at small article counts, so the checks take about a
minute.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402

FIXTURE = BENCH.parent / "tests" / "data" / "synthetic_500.jsonl"

SMALL = {"atlas": 500, "sweep": 1000, "grow": 2000}
EXACT_UNITS = {"count", "bytes", "ratio"}


def _exact(metrics: dict) -> dict:
    """Count metrics and ratios of counts; trace.* ratios are of times."""
    return {
        name: value
        for name, (value, unit) in metrics.items()
        if unit in EXACT_UNITS and not name.startswith("trace.")
    }


def test_generator_reproduces_the_bundled_fixture(tmp_path):
    out = tmp_path / "corpus.jsonl"
    corpus.write_jsonl(out, corpus.generate(500))
    assert out.read_bytes() == FIXTURE.read_bytes()


def test_ids_widen_above_1000_articles():
    assert re.fullmatch(r"P\d{3}", corpus.generate(1000)[0]["id"])
    assert re.fullmatch(r"P\d{6}", corpus.generate(1001)[0]["id"])


def test_enrichment_matches_half_by_id_and_half_by_unique_title_year():
    records = corpus.generate(2000)
    rows = corpus.enrichment_rows(records)
    by_title = [r for r in rows if "id" not in r]
    assert abs(len(rows) - corpus.ENRICH_SHARE * 2000) <= 1
    assert 0.3 * len(rows) < len(by_title) <= 0.5 * len(rows)
    pairs = [(r["title"], r["year"]) for r in {r["id"]: r for r in records}.values()]
    assert all(pairs.count((r["title"], r["year"])) == 1 for r in by_title)


def _run_small(name: str, run_seed: int, directory: Path) -> tuple[dict, dict, int]:
    workload = run.WORKLOADS[name](SMALL[name])
    inputs = corpus.write_inputs(directory / "inputs", workload.articles, corpus.DEFAULT_SEED, run_seed)
    iteration = run.run_iteration(workload, inputs, directory, None)
    assert not iteration.problems
    session = directory / "traced"
    tracer, failures = run.traced_run(workload, inputs, session)
    assert failures == 0
    assert gate.collect(session) == iteration.found
    metrics = run.per_layer_metrics(iteration, tracer, session)
    return metrics, iteration.found, iteration.session_bytes


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly_and_row_order_does_not_matter(name, tmp_path):
    first, found1, bytes1 = _run_small(name, 1, tmp_path / "a")
    second, found2, bytes2 = _run_small(name, 2, tmp_path / "b")
    assert found1 == found2
    assert bytes1 == bytes2
    assert _exact(first) == _exact(second)
    assert first.keys() == second.keys()


@pytest.fixture(scope="module")
def atlas_session(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("atlas")
    workload = run.atlas(SMALL["atlas"])
    inputs = corpus.write_inputs(directory / "inputs", workload.articles, corpus.DEFAULT_SEED, 0)
    _tracer, failures = run.traced_run(workload, inputs, directory / "session")
    assert failures == 0
    return directory / "session"


def test_gate_accepts_an_untouched_session(atlas_session):
    reference = gate.collect(atlas_session)
    assert gate.compare(gate.collect(atlas_session), reference) == []


def test_gate_rejects_a_tampered_artifact(atlas_session, tmp_path):
    reference = gate.collect(atlas_session)
    path = atlas_session / "datasets" / "combined.json"
    original = path.read_text(encoding="utf-8")
    data = json.loads(original)
    data["member_ids"] = data["member_ids"][1:]
    try:
        path.write_text(json.dumps(data), encoding="utf-8")
        assert gate.compare(gate.collect(atlas_session), reference) == [
            "datasets/combined.json differs from the reference"
        ]
    finally:
        path.write_text(original, encoding="utf-8")


def test_gate_rejects_a_missing_artifact(atlas_session):
    reference = gate.collect(atlas_session)
    found = gate.collect(atlas_session)
    del found["artifacts"]["reports/overlap.csv"]
    assert gate.compare(found, reference) == ["missing reports/overlap.csv"]


def test_gate_scores_use_the_oracle_tolerance(atlas_session):
    reference = gate.collect(atlas_session)
    key = next(k for k in reference["scores"] if k.endswith("level1.modularity"))
    found = gate.collect(atlas_session)
    found["scores"][key] += gate.SCORE_TOLERANCE / 10
    assert gate.compare(found, reference) == []
    found["scores"][key] += gate.SCORE_TOLERANCE * 10
    assert gate.compare(found, reference) == [f"{key} differs from the reference"]
