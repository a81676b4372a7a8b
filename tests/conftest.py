"""Shared builders for record stores, synthetic citation graphs, and networks."""

from __future__ import annotations

import random
import warnings
from pathlib import Path

import pytest

from citecascade.records import ArticleRecord, RecordStore

DATA_DIR = Path(__file__).parent / "data"
SYNTHETIC_CORPUS = DATA_DIR / "synthetic_500.jsonl"


def make_record(
    pub_id: str,
    year: int | None = 2000,
    refs: list[str] | None = None,
    count: int | None = None,
    title: str | None = None,
    abstract: str | None = None,
) -> ArticleRecord:
    return ArticleRecord(
        id=pub_id,
        title=title if title is not None else f"article {pub_id}",
        year=year,
        reference_ids=refs or [],
        global_citation_count=count,
        abstract=abstract,
    )


def reference_dict(record: ArticleRecord) -> dict:
    """The record as the store's dict form: its fields, each optional field only when
    it is set. ``json.dumps(reference_dict(r), sort_keys=True) + "\\n"`` is the byte
    oracle of ``r.json_line()``."""
    out = {"id": record.id, "title": record.title, "year": record.year,
           "reference_ids": list(record.reference_ids)}
    for name in ("venue", "authors", "abstract", "global_citation_count", "source_tag"):
        if getattr(record, name) is not None:
            out[name] = getattr(record, name)
    return out


def make_store(records) -> RecordStore:
    store = RecordStore()
    for record in records:
        store.insert(record)
    return store


def chain_store(n: int, start_year: int = 2000) -> RecordStore:
    """a <- b <- c <- ...: record i cites record i-1."""
    ids = [chr(ord("a") + i) for i in range(n)]
    records = []
    for i, pub_id in enumerate(ids):
        refs = [ids[i - 1]] if i > 0 else []
        records.append(make_record(pub_id, year=start_year + i, refs=refs))
    return make_store(records)


def random_citation_dag(
    rng: random.Random,
    n_nodes: int,
    max_refs: int = 6,
    count_range: tuple[int, int] = (0, 8),
    with_counts: float = 0.7,
) -> RecordStore:
    """Random DAG: node i may only cite nodes j < i, years ascend with index."""
    records = []
    for i in range(n_nodes):
        refs = []
        if i > 0:
            k = rng.randint(0, min(max_refs, i))
            refs = [f"n{j:04d}" for j in sorted(rng.sample(range(i), k))]
        count = rng.randint(*count_range) if rng.random() < with_counts else None
        records.append(
            make_record(f"n{i:04d}", year=1950 + (i % 70), refs=refs, count=count)
        )
    return make_store(records)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture(scope="session")
def bundled_world():
    """The bundled corpus's pipeline network and its record store.

    Same steps as the end-to-end acceptance run: search "reinforcement
    learning", expand P010 forward three generations, union, build the
    network with min_citations 0 and top_n 100 (341 nodes, 1,364 links).
    """
    from citecascade.cocitation import NetworkConfig, build_network
    from citecascade.expansion import ExpansionSpec, ExpansionStage, run_cascade
    from citecascade.records import dataset_union, search

    store = RecordStore()
    store.ingest(SYNTHETIC_CORPUS, "jsonl")
    found = search(store, "phrase-in-title-abstract", ["reinforcement learning"], name="F")
    spec = ExpansionSpec({"P010"}, [ExpansionStage("F", 3)], theta_citer=1, theta_ref=1)
    expanded, _trace = run_cascade(store, spec, "S3")
    combined = dataset_union([found, expanded], "combined")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        network = build_network(combined, store, NetworkConfig(min_citations=0, top_n=100))
    return network, store
