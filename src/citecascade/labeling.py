"""Cluster labels and concept trees from citing-article text.

Candidate phrases are contiguous runs of non-stopword tokens (length 1-4)
from lowercased, punctuation-stripped text. A cluster's label is the phrase
most strongly associated with the cluster's citing articles, scored by the
log-likelihood ratio against all citing articles; concept trees organize
phrases by token containment with document-frequency support.

Cost: ``cited_by`` walks each cluster's citers once into a citer table
(citer -> distinct members cited); labels, top citers and concept trees read
that table. One ``PhraseIndex`` per command then tokenizes each distinct
citer text once. Labeling a partition counts the background's document
frequencies once (level 1: all clusters' citers; level 2: the parent's),
then each cluster only its own citers' phrase sets; out-of-cluster counts
are background minus cluster. So labeling all clusters costs O(citation
links into the network x phrases per title), not one background rescan per
cluster; memory is one phrase set per distinct text.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations

from .sources import CitationSnapshot

MAX_PHRASE_TOKENS = 4

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-'][a-z0-9]+)*")


def load_stopwords() -> frozenset[str]:
    text = resources.files("citecascade.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(
        line.strip() for line in text.splitlines() if line.strip() and not line.startswith("#")
    )


_STOPWORDS = load_stopwords()


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def extract_phrases(text: str, max_tokens: int = MAX_PHRASE_TOKENS) -> set[str]:
    """All contiguous sub-phrases of the text's stopword-free runs."""
    phrases: set[str] = set()
    run: list[str] = []
    for token in tokenize(text) + ["."]:  # sentinel flushes the last run
        if token in _STOPWORDS or token == ".":
            for start in range(len(run)):
                for end in range(start + 1, min(start + max_tokens, len(run)) + 1):
                    phrases.add(" ".join(run[start:end]))
            run = []
        else:
            run.append(token)
    return phrases


class PhraseIndex:
    """Phrase sets of citing-article texts; each distinct text is tokenized once.

    Labels read citer titles and concept trees read title + abstract, so one
    index shared by every cluster of a command serves both.
    """

    def __init__(self, snapshot: CitationSnapshot):
        self.snapshot = snapshot
        self._phrases: dict[str, frozenset[str]] = {}

    def phrases(self, text: str) -> frozenset[str]:
        found = self._phrases.get(text)
        if found is None:
            found = self._phrases[text] = frozenset(extract_phrases(text))
        return found

    def frequencies(self, texts: Iterable[str]) -> Counter[str]:
        """How many texts contain each phrase (each text counts once)."""
        df: Counter[str] = Counter()
        for text in texts:
            df.update(self.phrases(text))
        return df

    def title_frequencies(self, citers: Iterable[str]) -> Counter[str]:
        return self.frequencies(self.snapshot.record(c).title for c in citers)


def log_likelihood_ratio(k11: int, k12: int, k21: int, k22: int) -> float:
    """Dunning's G-squared for a 2x2 contingency table (0*ln(0) = 0)."""

    def term(k: float, expected: float) -> float:
        if k == 0 or expected == 0:
            return 0.0
        return k * math.log(k / expected)

    total = k11 + k12 + k21 + k22
    if total == 0:
        return 0.0
    row1, row2 = k11 + k12, k21 + k22
    col1, col2 = k11 + k21, k12 + k22
    e11 = row1 * col1 / total
    e12 = row1 * col2 / total
    e21 = row2 * col1 / total
    e22 = row2 * col2 / total
    return 2.0 * (term(k11, e11) + term(k12, e12) + term(k21, e21) + term(k22, e22))


def cited_by(members: Iterable[str], snapshot: CitationSnapshot) -> Counter[str]:
    """The cluster's citer table: each article citing a member, mapped to the
    number of distinct members it cites. The only walk of a cluster's citers;
    labels, top citers and concept trees all read it."""
    table: Counter[str] = Counter()
    for member in members:
        if member in snapshot:
            table.update(snapshot.get_citers(member))
    return table


def label_cluster(
    cluster_citers: Collection[str], index: int, background_citers: Collection[str],
    phrase_index: PhraseIndex, background_df: Mapping[str, int],
) -> str:
    """Best-associated phrase from titles of articles citing the cluster.

    Scoring: log-likelihood ratio of the phrase's document frequency in the
    cluster's citers versus the other background citers; the background
    holds every cluster citer, and ``background_df`` is its title document
    frequencies. Only overrepresented phrases qualify. Ties break by
    frequency, then alphabetically. Falls back to the most frequent title
    bigram, then to "unlabeled-<index>".
    """
    if not cluster_citers:
        return f"unlabeled-{index}"
    df_cluster = phrase_index.title_frequencies(cluster_citers)
    n_cluster, n_other = len(cluster_citers), len(background_citers) - len(cluster_citers)

    best: tuple[float, int, str] | None = None
    for phrase, k11 in df_cluster.items():
        k12 = background_df.get(phrase, 0) - k11
        k21 = n_cluster - k11
        k22 = n_other - k12
        observed_rate = k11 / n_cluster
        overall_rate = (k11 + k12) / (n_cluster + n_other)
        if observed_rate <= overall_rate:
            continue
        score = log_likelihood_ratio(k11, k12, k21, k22)
        if score <= 0:
            continue
        key = (-score, -k11, phrase)
        if best is None or key < best:
            best = key
    if best is not None:
        return best[2]

    bigrams = {p: n for p, n in df_cluster.items() if len(p.split()) == 2}
    if bigrams:
        return sorted(bigrams.items(), key=lambda item: (-item[1], item[0]))[0][0]
    return f"unlabeled-{index}"


def label_all_clusters(
    partition, citers: list[Counter[str]], background: Collection[str], phrase_index: PhraseIndex
) -> None:
    """Fill partition.labels in place; ``citers[i]`` is cluster i's citer table.

    The background's document frequencies are counted once for all clusters.
    """
    background_df = phrase_index.title_frequencies(background)
    for index, cluster_citers in enumerate(citers):
        partition.labels[index] = label_cluster(
            cluster_citers, index, background, phrase_index, background_df
        )


# -- concept trees ---------------------------------------------------------------


@dataclass
class ConceptNode:
    phrase: str
    support: int
    children: list["ConceptNode"] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "phrase": self.phrase,
            "support": self.support,
            "children": [c.to_json_dict() for c in self.children],
        }


@dataclass
class ConceptTree:
    """Forest of phrases ordered by containment, under a virtual root."""

    roots: list[ConceptNode] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"roots": [r.to_json_dict() for r in self.roots]}

    def to_text(self) -> str:
        lines: list[str] = []

        def walk(node: ConceptNode, depth: int) -> None:
            lines.append("  " * depth + f"{node.phrase} ({node.support})")
            for child in node.children:
                walk(child, depth + 1)

        for root in self.roots:
            walk(root, 0)
        return "\n".join(lines) + ("\n" if lines else "")


def build_concept_tree(
    citers: Iterable[str], snapshot: CitationSnapshot, phrase_index: PhraseIndex
) -> ConceptTree:
    """Containment hierarchy of phrases from citing articles' titles+abstracts.

    A phrase's parent is the most frequent shorter phrase whose tokens are a
    subset of its own and whose support is at least as large (so support never
    grows down a branch). Support ties prefer the longest such phrase (the
    closest ancestor), then alphabetical order.
    """
    texts = []
    for citer in sorted(citers):
        record = snapshot.record(citer)
        text = record.title
        if record.abstract:
            text += ". " + record.abstract
        if text.strip():
            texts.append(text)
    if not texts:
        return ConceptTree()
    support = phrase_index.frequencies(texts)

    # A parent's token set is a subset of its child's (at most
    # 2^MAX_PHRASE_TOKENS - 1 of them), so candidates are looked up, not scanned.
    words = {phrase: phrase.split() for phrase in support}
    by_tokens: dict[frozenset[str], list[str]] = {}
    for phrase, tokens in words.items():
        by_tokens.setdefault(frozenset(tokens), []).append(phrase)
    nodes = {phrase: ConceptNode(phrase, count) for phrase, count in support.items()}
    roots: list[ConceptNode] = []
    for phrase in sorted(support):
        distinct = sorted(set(words[phrase]))
        candidates = [
            q
            for size in range(1, len(distinct) + 1)
            for subset in combinations(distinct, size)
            for q in by_tokens.get(frozenset(subset), ())
            if len(words[q]) < len(words[phrase]) and support[q] >= support[phrase]
        ]
        if candidates:
            parent = min(candidates, key=lambda q: (-support[q], -len(words[q]), q))
            nodes[parent].children.append(nodes[phrase])
        else:
            roots.append(nodes[phrase])

    def order(children: list[ConceptNode]) -> list[ConceptNode]:
        return sorted(children, key=lambda n: (-n.support, n.phrase))

    for node in nodes.values():
        node.children = order(node.children)
    return ConceptTree(roots=order(roots))
