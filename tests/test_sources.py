"""Citation lookups and counts of the record store; search."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citecascade.errors import UnknownPublicationError, ValidationError
from citecascade.records import search

from conftest import make_record, make_store, random_citation_dag


class TestReferences:
    def test_record_with_25_references(self):
        # A classic seed article whose 25 references all resolve.
        refs = [f"r{i:02d}" for i in range(25)]
        records = [make_record("seed", year=1986, refs=refs, count=421)]
        records += [make_record(r, year=1980) for r in refs]
        store = make_store(records)
        assert len(store.get_references("seed")) == 25

    def test_zero_references_is_found_not_missing(self):
        store = make_store([make_record("p1")])
        assert store.get_references("p1") == []

    def test_unknown_id_raises_not_found(self):
        store = make_store([make_record("p1")])
        with pytest.raises(UnknownPublicationError):
            store.get_references("ghost")

    def test_unresolvable_refs_reported_separately(self):
        store = make_store(
            [make_record("p1", refs=["known", "missing"]), make_record("known")]
        )
        assert store.get_references("p1") == ["known"]
        assert store.unresolved_references("p1") == ["missing"]


class TestCiters:
    def test_two_known_citers(self):
        store = make_store(
            [
                make_record("r"),
                make_record("p", refs=["r"]),
                make_record("q", refs=["r"]),
            ]
        )
        assert store.get_citers("r") == ["p", "q"]

    def test_excludes_queried_id_and_no_duplicates(self, rng):
        store = random_citation_dag(rng, 60)
        for pub_id in store.ids():
            citers = store.get_citers(pub_id)
            assert pub_id not in citers
            assert len(citers) == len(set(citers))

    def test_matches_bruteforce_inverse_scan(self, rng):
        # 50-record store: citer sets must equal a full scan of reference lists.
        store = random_citation_dag(rng, 50)
        for pub_id in store.ids():
            brute = sorted(
                other
                for other in store.ids()
                if pub_id in store.record(other).reference_ids
            )
            assert store.get_citers(pub_id) == brute

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_inverse_relation_property(self, seed):
        store = random_citation_dag(random.Random(seed), 30)
        for a in store.ids():
            for b in store.ids():
                assert (a in store.get_references(b)) == (b in store.get_citers(a))


class TestCitationCount:
    def test_reported_count_preferred(self):
        store = make_store([make_record("p", count=157)])
        assert store.citation_count("p") == 157

    def test_snapshot_local_fallback_flagged(self):
        store = make_store(
            [make_record("r")] + [make_record(f"c{i}", refs=["r"]) for i in range(3)]
        )
        assert store.citation_count("r") == 3

    def test_isolated_record_counts_zero(self):
        store = make_store([make_record("p")])
        assert store.citation_count("p") == 0

    def test_unknown_id_raises(self):
        store = make_store([make_record("p")])
        with pytest.raises(UnknownPublicationError):
            store.citation_count("ghost")


class TestStoreChanges:
    """A change to the store after a citation query shows in the next query."""

    def test_insert_after_query_adds_citer(self):
        store = make_store([make_record("x"), make_record("p", refs=["x"])])
        assert store.get_citers("x") == ["p"]
        assert store.citation_count("x") == 1
        store.insert(make_record("q", refs=["x"]))
        assert store.get_citers("x") == ["p", "q"]
        assert store.citation_count("x") == 2

    def test_replace_after_query_drops_citer(self):
        store = make_store(
            [make_record("x"), make_record("p", refs=["x"]), make_record("q", refs=["x"])]
        )
        assert store.get_citers("x") == ["p", "q"]
        assert store.citation_count("x") == 2
        store.replace(make_record("p", refs=[]))
        assert store.get_citers("x") == ["q"]
        assert store.citation_count("x") == 1

    def test_insert_after_query_resolves_reference(self):
        store = make_store([make_record("p", refs=["x"])])
        assert store.unresolved_references("p") == ["x"]
        store.insert(make_record("x"))
        assert store.get_references("p") == ["x"]
        assert store.get_citers("x") == ["p"]


class TestSearch:
    def test_exact_title_match_singleton(self):
        store = make_store(
            [
                make_record("p1", title="deep kernel methods"),
                make_record("p2", title="shallow parsing"),
            ]
        )
        result = search(store, "phrase-in-title-abstract", ["deep kernel methods"], name="hit")
        assert result.member_ids == {"p1"}
        assert result.provenance["kind"] == "query"

    def test_or_combination_unions_per_phrase_results(self):
        store = make_store(
            [
                make_record("p1", title="alpha methods"),
                make_record("p2", title="beta methods"),
                make_record("p3", title="gamma methods"),
            ]
        )
        one = search(store, "phrase-in-title-abstract", ["alpha"], "a")
        other = search(store, "phrase-in-title-abstract", ["beta"], "b")
        both = search(store, "phrase-in-title-abstract", ["alpha", "beta"], "ab")
        assert both.member_ids == one.member_ids | other.member_ids

    def test_matches_abstract_too_case_insensitive(self):
        store = make_store(
            [make_record("p1", title="untitled", abstract="Uses Latent Topic Models.")]
        )
        hits = search(store, "phrase-in-fulltext-proxy", ["latent topic"], "q")
        assert hits.member_ids == {"p1"}

    def test_equals_bruteforce_substring_scan(self, rng):
        # Both phrase kinds scan title and abstract alike; only their provenance names them apart.
        store = random_citation_dag(rng, 100)
        phrase = "article n00"
        brute = set()
        for pub_id in store.ids():
            record = store.record(pub_id)
            if phrase in record.title.lower() or phrase in (record.abstract or "").lower():
                brute.add(pub_id)
        plain = search(store, "phrase-in-title-abstract", [phrase], "q")
        proxy = search(store, "phrase-in-fulltext-proxy", [phrase], "q")
        assert plain.member_ids == proxy.member_ids == brute
        assert plain.provenance["query_kind"] == "phrase-in-title-abstract"
        assert proxy.provenance == {**plain.provenance, "query_kind": "phrase-in-fulltext-proxy"}

    def test_phrase_across_title_abstract_boundary_not_matched(self):
        store = make_store(
            [
                make_record(
                    "p1",
                    title="Safe exploration for reinforcement",
                    abstract="Learning to act under constraints.",
                )
            ]
        )
        for kind in ("phrase-in-title-abstract", "phrase-in-fulltext-proxy"):
            hits = search(store, kind, ["reinforcement learning"], "q")
            assert hits.member_ids == set()
        hits = search(store, "phrase-in-title-abstract", ["learning to act"], "q")
        assert hits.member_ids == {"p1"}

    def test_id_lookup_kind(self):
        store = make_store([make_record("p1"), make_record("p2")])
        hits = search(store, "id-lookup", ["p2", "ghost"], "q")
        assert hits.member_ids == {"p2"}

    def test_empty_phrase_list_rejected(self):
        with pytest.raises(ValidationError):
            search(make_store([make_record("p1")]), "phrase-in-title-abstract", [], "q")

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "zzz"]), min_size=1, max_size=3))
    def test_search_monotone_in_phrases(self, phrases):
        store = make_store(
            [
                make_record("p1", title="alpha study"),
                make_record("p2", title="beta study"),
                make_record("p3", title="gamma beta study"),
            ]
        )
        base = search(store, "phrase-in-title-abstract", phrases, "q")
        wider = search(store, "phrase-in-title-abstract", phrases + ["study"], "q2")
        assert base.member_ids <= wider.member_ids

