"""Seeded synthetic corpora for the benchmark, at any article count.

``generate(count, seed)`` returns the corpus rows. With count 500 and the
default seed it reproduces ``tests/data/synthetic_500.jsonl`` byte for byte;
ids widen from 3 to 6 digits above 1,000 articles. The same-topic candidate
pool is a slice of the sorted per-topic index, so generation stays linear in
the number of references.

``write_inputs`` derives a workload's input files from a corpus: the whole
corpus, two ingest shards, and an abstract-enrichment file. ``run_seed``
only shuffles the row order of each file; the pipeline's outputs do not
depend on row order, so every run seed shares one correctness reference.

Run ``python3 perfbench/corpus.py COUNT [--seed N] [--out PATH]`` to write a
corpus as JSONL.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from bisect import bisect_left
from pathlib import Path

DEFAULT_SEED = 20240401

TOPICS = {
    "spectral": {
        "years": (1975, 2005),
        "words": [
            "spectral clustering", "graph laplacian", "eigenvalue bounds", "sparse graphs",
            "random walks", "partition quality", "spectral gap", "normalized cuts",
        ],
    },
    "folding": {
        "years": (1982, 2012),
        "words": [
            "protein folding", "energy landscape", "molecular dynamics", "contact maps",
            "secondary structure", "folding kinetics", "residue interaction", "conformational search",
        ],
    },
    "rl": {
        "years": (1992, 2019),
        "words": [
            "reinforcement learning", "policy gradient", "value iteration", "reward shaping",
            "exploration strategies", "temporal difference", "markov decision", "actor critic",
        ],
    },
    "epidemics": {
        "years": (1998, 2019),
        "words": [
            "network epidemics", "contact tracing", "outbreak dynamics", "infection threshold",
            "vaccination strategies", "epidemic spreading", "mobility networks", "compartment models",
        ],
    },
}

ALL_WORDS = [w for topic in TOPICS.values() for w in topic["words"]]
FILLER = ["methods", "analysis", "models", "evaluation", "survey", "framework", "estimation"]

# Share of records that get an abstract from the enrichment file.
ENRICH_SHARE = 0.4


def article_id(index: int, count: int) -> str:
    """Id of the ``index``-th generated article in a corpus of ``count``."""
    return f"P{index:06d}" if count > 1000 else f"P{index:03d}"


def generate(count: int, seed: int = DEFAULT_SEED) -> list[dict]:
    """Corpus rows in file order (sorted by year, then id; one duplicate last)."""
    if count < 50:
        raise ValueError("count must be at least 50")
    rng = random.Random(seed)
    topic_names = list(TOPICS)
    articles = []
    for i in range(count):
        topic = topic_names[i % len(topic_names)]
        lo, hi = TOPICS[topic]["years"]
        # Years trend upward with index so references can point backward.
        frac = i / (count - 1)
        year = lo + int(frac * (hi - lo)) + rng.randint(-2, 2)
        year = max(lo, min(hi, year))
        words = TOPICS[topic]["words"]
        title = " ".join([rng.choice(words), rng.choice(FILLER), "of", rng.choice(words)])
        articles.append({"id": article_id(i, count), "topic": topic, "year": year, "title": title})

    articles.sort(key=lambda a: (a["year"], a["id"]))
    by_topic: dict[str, list[int]] = {t: [] for t in topic_names}
    for idx, art in enumerate(articles):
        by_topic[art["topic"]].append(idx)

    records = []
    for idx, art in enumerate(articles):
        same_topic = by_topic[art["topic"]]
        candidates_same = same_topic[: bisect_left(same_topic, idx)]
        candidates_any = range(idx)
        n_refs = rng.randint(3, 12) if idx > 5 else rng.randint(0, min(3, idx))
        refs: list[str] = []
        seen = set()
        for _ in range(n_refs):
            pool = candidates_same if (candidates_same and rng.random() < 0.75) else candidates_any
            if not pool:
                continue
            j = rng.choice(pool)
            rid = articles[j]["id"]
            if rid not in seen:
                seen.add(rid)
                refs.append(rid)
        if rng.random() < 0.05:
            refs.append(f"EXT{rng.randint(0, 99):02d}")  # unresolvable on purpose
        record = {
            "id": art["id"],
            "title": art["title"],
            "year": art["year"],
            "reference_ids": refs,
            "source_tag": "synthetic",
        }
        if rng.random() < 0.6:
            record["global_citation_count"] = rng.randint(0, 60)
        if rng.random() < 0.08:
            record["abstract"] = (
                f"A study of {art['title']} with emphasis on "
                f"{rng.choice(TOPICS[art['topic']]['words'])}."
            )
        records.append(record)

    # A few unknown-year records (explicit null year).
    for idx in rng.sample(range(len(records)), 3):
        records[idx]["year"] = None

    # One duplicate row with a truncated reference list; the merge must keep the richer one.
    duplicate = dict(records[42])
    duplicate["reference_ids"] = duplicate["reference_ids"][:1]
    records.append(duplicate)
    return records


def enrichment_rows(records: list[dict], seed: int = DEFAULT_SEED) -> list[dict]:
    """Abstracts for about ``ENRICH_SHARE`` of the records, half keyed by id and
    half by title+year.

    Only records without an abstract are picked. Title+year rows are used only
    where that pair names one article, so the match never depends on row order.
    """
    rng = random.Random(seed + 1)
    unique = {r["id"]: r for r in records}
    pair_count: dict[tuple[str, int | None], int] = {}
    for r in unique.values():
        key = (r["title"], r["year"])
        pair_count[key] = pair_count.get(key, 0) + 1
    bare = [r for r in unique.values() if "abstract" not in r]
    picked = rng.sample(bare, min(len(bare), round(ENRICH_SHARE * len(unique))))
    rows = []
    for n, r in enumerate(picked):
        focus = rng.choice(ALL_WORDS)
        abstract = f"We revisit {r['title']} and relate it to {focus}."
        if n % 2 == 0 or r["year"] is None or pair_count[(r["title"], r["year"])] > 1:
            rows.append({"id": r["id"], "abstract": abstract})
        else:
            rows.append({"title": r["title"], "year": r["year"], "abstract": abstract})
    return rows


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_inputs(
    directory: Path, count: int, corpus_seed: int, run_seed: int
) -> dict[str, Path]:
    """Write corpus.jsonl, shard1.jsonl, shard2.jsonl and enrich.jsonl.

    Shard 1 holds the older half of the corpus rows and shard 2 the newer
    half. Each file's rows are shuffled by ``run_seed``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    records = generate(count, corpus_seed)
    half = len(records) // 2
    files = {
        "corpus": records,
        "shard1": records[:half],
        "shard2": records[half:],
        "enrich": enrichment_rows(records, corpus_seed),
    }
    shuffler = random.Random(run_seed)
    paths = {}
    for name, rows in files.items():
        rows = list(rows)
        shuffler.shuffle(rows)
        paths[name] = directory / f"{name}.jsonl"
        write_jsonl(paths[name], rows)
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", type=int, help="number of articles")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, help="output file (default: stdout)")
    args = parser.parse_args(argv)
    rows = generate(args.count, args.seed)
    if args.out:
        write_jsonl(args.out, rows)
    else:
        for row in rows:
            sys.stdout.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
