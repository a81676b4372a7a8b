"""Phrase extraction, LLR labeling with planted vocabulary, concept trees."""

from __future__ import annotations

import hashlib
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citecascade.clustering import detect_communities, sub_cluster
from citecascade.cocitation import CoCitationNetwork, NetworkConfig, NodeInfo
from citecascade.labeling import (
    ConceptTree,
    PhraseIndex,
    build_concept_tree,
    cited_by,
    extract_phrases,
    label_all_clusters,
    label_cluster,
    log_likelihood_ratio,
    tokenize,
)

from conftest import make_record, make_snapshot


def phrase_document_frequencies(texts: list[str]) -> dict[str, int]:
    """Uncached reference: how many texts contain each phrase (each text counts once)."""
    df: dict[str, int] = {}
    for text in texts:
        for phrase in extract_phrases(text):
            df[phrase] = df.get(phrase, 0) + 1
    return df


def label_alone(members, snapshot, index: int, background_members) -> str:
    """Unindexed reference: one cluster labeled alone, with its own walks of the
    citers and its own phrase index."""

    def citers_of(ids):
        return {c for m in ids if m in snapshot for c in snapshot.get_citers(m)}

    background = citers_of(background_members)
    phrase_index = PhraseIndex(snapshot)
    return label_cluster(
        citers_of(members), index, background, phrase_index, phrase_index.title_frequencies(background)
    )


def concept_tree(members, snapshot) -> ConceptTree:
    return build_concept_tree(cited_by(members, snapshot), snapshot, PhraseIndex(snapshot))


class TestPhraseExtraction:
    def test_stopwords_split_runs(self):
        phrases = extract_phrases("discovery of public knowledge")
        assert "discovery" in phrases
        assert "public knowledge" in phrases
        assert "discovery public" not in phrases  # "of" breaks the run
        assert "of" not in phrases

    def test_max_four_tokens(self):
        phrases = extract_phrases("one two three four five")
        assert "one two three four" in phrases
        assert "one two three four five" not in phrases

    def test_all_contiguous_subphrases(self):
        phrases = extract_phrases("alpha beta gamma")
        assert phrases >= {
            "alpha", "beta", "gamma", "alpha beta", "beta gamma", "alpha beta gamma",
        }
        assert "alpha gamma" not in phrases

    def test_tokenize_lowercases_and_strips_punctuation(self):
        assert tokenize("Fish-oil, and Raynaud's!") == ["fish-oil", "and", "raynaud's"]

    def test_document_frequency_counts_docs_once(self):
        df = phrase_document_frequencies(["alpha alpha beta", "alpha"])
        assert df["alpha"] == 2  # not 3

    def test_index_frequencies_match_uncached_count(self):
        texts = ["alpha alpha beta", "alpha", "beta gamma of alpha", "alpha"]
        index = PhraseIndex(make_snapshot([]))
        assert index.frequencies(texts) == phrase_document_frequencies(texts)


class TestLogLikelihoodRatio:
    def test_hand_value_symmetric_table(self):
        # k11=3/3 vs k12=0/3: G2 = 2*(3 ln2 + 3 ln2) = 12 ln2
        assert log_likelihood_ratio(3, 0, 0, 3) == pytest.approx(12 * math.log(2))

    def test_independent_table_scores_zero(self):
        assert log_likelihood_ratio(5, 5, 5, 5) == pytest.approx(0.0)

    def test_empty_table(self):
        assert log_likelihood_ratio(0, 0, 0, 0) == 0.0


def _two_cluster_world(cluster_titles: dict[str, list[str]]):
    """Two clusters of network nodes, each cited by articles with given titles."""
    records = []
    network_nodes = {}
    citer_index = 0
    for member, titles in cluster_titles.items():
        records.append(make_record(member, year=1990))
        network_nodes[member] = NodeInfo(1, 1990)
        for title in titles:
            records.append(
                make_record(f"cit{citer_index:02d}", year=2005, refs=[member], title=title)
            )
            citer_index += 1
    snapshot = make_snapshot(records)
    network = CoCitationNetwork(network_nodes, {}, NetworkConfig())
    return network, snapshot


class TestLabelCluster:
    def test_unanimous_phrase_wins(self):
        # Every cluster citer says "drug discovery"; elsewhere the unigrams
        # appear separately, so the bigram is the uniquely best-associated phrase.
        network, snapshot = _two_cluster_world(
            {
                "m1": [
                    "drug discovery pipelines",
                    "advances from drug discovery",
                    "drug discovery with proteins",
                ],
                "m2": [
                    "drug interaction screening",
                    "knowledge discovery databases",
                    "screening databases survey",
                ],
            }
        )
        assert label_alone({"m1"}, snapshot, 0, network.nodes) == "drug discovery"

    def test_planted_distinctive_bigrams(self):
        # Unigram document frequencies are identical across clusters (LLR 0);
        # only the planted bigrams separate them. Verified by hand: the
        # bigram scores 2*(3ln2+3ln2) = 12 ln 2, any trigram scores less.
        network, snapshot = _two_cluster_world(
            {
                "m1": ["alpha beta analysis", "alpha beta methods", "alpha beta review"],
                "m2": ["beta alpha analysis", "beta alpha methods", "beta alpha review"],
            }
        )
        assert label_alone({"m1"}, snapshot, 0, network.nodes) == "alpha beta"
        assert label_alone({"m2"}, snapshot, 1, network.nodes) == "beta alpha"

    def test_no_citers_gives_unlabeled(self):
        network, snapshot = _two_cluster_world({"m1": ["some title"]})
        network.nodes["orphan"] = NodeInfo(0, 1990)
        snapshot_with_orphan = make_snapshot(
            [make_record("orphan", year=1990), make_record("m1", year=1990)]
        )
        assert (
            label_alone({"orphan"}, snapshot_with_orphan, 7, network.nodes)
            == "unlabeled-7"
        )

    def test_single_cluster_falls_back_to_frequent_bigram(self):
        # Background == cluster, so nothing is overrepresented; the most
        # frequent title bigram takes over.
        network, snapshot = _two_cluster_world(
            {"m1": ["gene therapy advances", "gene therapy trials", "gene therapy"]}
        )
        assert label_alone({"m1"}, snapshot, 0, network.nodes) == "gene therapy"

    def test_explicit_background_narrows_comparison(self):
        network, snapshot = _two_cluster_world(
            {
                "m1": ["spatial indexing methods", "spatial indexing review"],
                "m2": ["spatial queries survey", "stream indexing survey"],
            }
        )
        background = set()
        for member in ("m1", "m2"):
            background.update(snapshot.get_citers(member))
        index = PhraseIndex(snapshot)
        label = label_cluster(
            cited_by({"m1"}, snapshot), 0, background, index, index.title_frequencies(background)
        )
        assert label == "spatial indexing"


class TestConceptTree:
    def _tree_edges(self, tree: ConceptTree) -> set[tuple[str, str]]:
        edges = set()

        def walk(node):
            for child in node.children:
                edges.add((node.phrase, child.phrase))
                walk(child)

        for root in tree.roots:
            walk(root)
        return edges

    def test_containment_example(self):
        # Supports: "fish oil" 10, "fish oil supplementation" 4 -> child edge.
        titles = ["fish oil"] * 6 + ["fish oil supplementation"] * 4
        records = [make_record("m", year=1990)]
        for i, title in enumerate(titles):
            records.append(make_record(f"c{i:02d}", year=2005, refs=["m"], title=title))
        snapshot = make_snapshot(records)
        tree = concept_tree({"m"}, snapshot)
        edges = self._tree_edges(tree)
        assert ("fish oil", "fish oil supplementation") in edges
        assert ("fish", "fish oil") in edges  # tie on support, alphabetical unigram

    def test_unrelated_phrases_forest(self):
        records = [make_record("m", year=1990)]
        records.append(make_record("c1", year=2005, refs=["m"], title="alpha"))
        records.append(make_record("c2", year=2005, refs=["m"], title="beta"))
        snapshot = make_snapshot(records)
        tree = concept_tree({"m"}, snapshot)
        assert {r.phrase for r in tree.roots} == {"alpha", "beta"}
        assert all(not r.children for r in tree.roots)

    def test_planted_hierarchy_matches_hand_construction(self):
        titles = ["fish oil"] * 6 + ["fish oil supplementation"] * 4
        records = [make_record("m", year=1990)]
        for i, title in enumerate(titles):
            records.append(make_record(f"c{i:02d}", year=2005, refs=["m"], title=title))
        snapshot = make_snapshot(records)
        tree = concept_tree({"m"}, snapshot)
        expected_edges = {
            ("fish", "fish oil"),
            ("fish oil", "fish oil supplementation"),
            ("oil", "oil supplementation"),
        }
        assert expected_edges <= self._tree_edges(tree)
        roots = [r.phrase for r in tree.roots]
        assert roots[:2] == ["fish", "oil"]  # support 10 each, alphabetical
        assert "supplementation" in roots  # support 4, no shorter superset

    def test_child_support_never_exceeds_parent(self):
        titles = [
            "deep learning models",
            "deep learning models for imaging",
            "deep learning",
            "imaging pipelines",
            "models of deep learning",
        ]
        records = [make_record("m", year=1990)]
        for i, title in enumerate(titles):
            records.append(make_record(f"c{i:02d}", year=2005, refs=["m"], title=title))
        snapshot = make_snapshot(records)
        tree = concept_tree({"m"}, snapshot)

        def check(node):
            for child in node.children:
                assert child.support <= node.support
                check(child)

        for root in tree.roots:
            check(root)

    def test_no_text_gives_empty_tree(self):
        records = [make_record("m", year=1990)]
        snapshot = make_snapshot(records)
        tree = concept_tree({"m"}, snapshot)
        assert tree.roots == []
        assert tree.to_text() == ""

    def test_text_rendering_indents(self):
        records = [make_record("m", year=1990)]
        for i, title in enumerate(["fish oil"] * 2 + ["fish oil diets"]):
            records.append(make_record(f"c{i}", year=2005, refs=["m"], title=title))
        snapshot = make_snapshot(records)
        text = concept_tree({"m"}, snapshot).to_text()
        assert "fish oil (3)" in text
        assert "  fish oil (3)" in text or "fish (3)" in text

    @settings(max_examples=60, deadline=None)
    @example(titles=[["gene", "drug", "gene"]])
    @given(
        titles=st.lists(
            st.lists(st.sampled_from(["gene", "drug", "cell", "the"]), min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    def test_parents_match_exhaustive_scan(self, titles):
        # A four-word vocabulary forces repeated tokens, permutations and
        # equal supports, the cases the subset lookup must get right.
        records = [make_record("m", year=1990)]
        for i, words in enumerate(titles):
            records.append(make_record(f"c{i}", year=2005, refs=["m"], title=" ".join(words)))
        snapshot = make_snapshot(records)
        tree = concept_tree({"m"}, snapshot)

        support = phrase_document_frequencies([" ".join(words) for words in titles])
        expected, roots = set(), set()
        for phrase in support:
            candidates = [
                q
                for q in support
                if len(q.split()) < len(phrase.split())
                and set(q.split()) <= set(phrase.split())
                and support[q] >= support[phrase]
            ]
            if candidates:
                parent = sorted(candidates, key=lambda q: (-support[q], -len(q.split()), q))[0]
                expected.add((parent, phrase))
            else:
                roots.add(phrase)
        assert self._tree_edges(tree) == expected
        assert {root.phrase for root in tree.roots} == roots


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


class TestSharedPhraseIndex:
    """One index per command gives exactly what per-cluster recounting gives."""

    @pytest.fixture(scope="class")
    def labeled(self, bundled_world):
        network, snapshot = bundled_world
        partition = detect_communities(network)
        phrase_index = PhraseIndex(snapshot)
        clusters = partition.clusters()
        citers = [cited_by(m, snapshot) for m in clusters]
        label_all_clusters(partition, citers, set().union(*citers), phrase_index)
        top = sorted(range(len(clusters)), key=lambda i: -len(clusters[i]))[:3]
        return network, snapshot, partition, phrase_index, clusters, citers, top

    def test_level1_labels_match_unindexed_label_cluster(self, labeled):
        network, snapshot, partition, _index, clusters, _citers, _top = labeled
        unindexed = {i: label_alone(m, snapshot, i, network.nodes) for i, m in enumerate(clusters)}
        assert partition.labels == unindexed
        # Labels of the same partition before the index existed.
        assert _digest(partition.labels) == (
            "8833a4d76a250be1040efd82658f07461478f1ef2eeb32e94771793225608313"
        )

    def test_level2_labels_match_unindexed_label_cluster(self, labeled):
        network, snapshot, _partition, phrase_index, clusters, citers, top = labeled
        level2 = {}
        for parent in top:
            members = clusters[parent]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sub = sub_cluster(members, network, parent)
            sub_citers = [cited_by(m, snapshot) for m in sub.clusters()]
            label_all_clusters(sub, sub_citers, citers[parent], phrase_index)
            assert sub.labels == {
                i: label_alone(m, snapshot, i, members) for i, m in enumerate(sub.clusters())
            }
            level2[str(parent)] = sub.labels
        assert _digest(level2) == (
            "40418c656a2e5155b611e18680703124e5d06e9bde7a88fe4923167da1be3b89"
        )

    def test_concept_trees_unchanged(self, labeled):
        _network, snapshot, _partition, phrase_index, clusters, citers, top = labeled
        trees = {}
        for index in top:
            shared = build_concept_tree(citers[index], snapshot, phrase_index)
            alone = concept_tree(clusters[index], snapshot)
            assert shared.to_json_dict() == alone.to_json_dict()
            trees[str(index)] = shared.to_json_dict()
        assert _digest(trees) == (
            "8ac9f6c053fab5f39b3b9ebad7ec5f497b7de99a02dc24ef5f7050fcb1bc07ef"
        )

    def test_each_text_tokenized_once(self, labeled, monkeypatch):
        _network, snapshot, _partition, _index, clusters, _citers, _top = labeled
        import citecascade.labeling as labeling

        calls = []
        original = labeling.extract_phrases

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(labeling, "extract_phrases", counting)
        phrase_index = PhraseIndex(snapshot)
        for members in clusters:
            build_concept_tree(cited_by(members, snapshot), snapshot, phrase_index)
            build_concept_tree(cited_by(members, snapshot), snapshot, phrase_index)
        assert calls and len(calls) == len(set(calls))
