"""Citation snapshot: lookups, counts, search."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citecascade.errors import UnknownPublicationError, ValidationError
from citecascade.sources import SourceQuery, search

from conftest import make_record, make_snapshot, make_store, random_citation_dag


class TestReferences:
    def test_record_with_25_references(self):
        # A classic seed article whose 25 references all resolve.
        refs = [f"r{i:02d}" for i in range(25)]
        records = [make_record("seed", year=1986, refs=refs, count=421)]
        records += [make_record(r, year=1980) for r in refs]
        snapshot = make_snapshot(records)
        assert len(snapshot.get_references("seed")) == 25

    def test_zero_references_is_found_not_missing(self):
        snapshot = make_snapshot([make_record("p1")])
        assert snapshot.get_references("p1") == []

    def test_unknown_id_raises_not_found(self):
        snapshot = make_snapshot([make_record("p1")])
        with pytest.raises(UnknownPublicationError):
            snapshot.get_references("ghost")

    def test_unresolvable_refs_reported_separately(self):
        snapshot = make_snapshot(
            [make_record("p1", refs=["known", "missing"]), make_record("known")]
        )
        assert snapshot.get_references("p1") == ["known"]
        assert snapshot.unresolved_references("p1") == ["missing"]


class TestCiters:
    def test_two_known_citers(self):
        snapshot = make_snapshot(
            [
                make_record("r"),
                make_record("p", refs=["r"]),
                make_record("q", refs=["r"]),
            ]
        )
        assert snapshot.get_citers("r") == ["p", "q"]

    def test_excludes_queried_id_and_no_duplicates(self, rng):
        snapshot = random_citation_dag(rng, 60)
        for pub_id in snapshot.ids():
            citers = snapshot.get_citers(pub_id)
            assert pub_id not in citers
            assert len(citers) == len(set(citers))

    def test_matches_bruteforce_inverse_scan(self, rng):
        # 50-record snapshot: citer sets must equal a full scan of reference lists.
        snapshot = random_citation_dag(rng, 50)
        for pub_id in snapshot.ids():
            brute = sorted(
                other
                for other in snapshot.ids()
                if pub_id in snapshot.record(other).reference_ids
            )
            assert snapshot.get_citers(pub_id) == brute

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_inverse_relation_property(self, seed):
        snapshot = random_citation_dag(random.Random(seed), 30)
        for a in snapshot.ids():
            for b in snapshot.ids():
                assert (a in snapshot.get_references(b)) == (b in snapshot.get_citers(a))


class TestCitationCount:
    def test_reported_count_preferred(self):
        snapshot = make_snapshot([make_record("p", count=157)])
        info = snapshot.citation_count_info("p")
        assert info.value == 157
        assert not info.snapshot_local

    def test_snapshot_local_fallback_flagged(self):
        snapshot = make_snapshot(
            [make_record("r")] + [make_record(f"c{i}", refs=["r"]) for i in range(3)]
        )
        info = snapshot.citation_count_info("r")
        assert info.value == 3
        assert info.snapshot_local

    def test_isolated_record_counts_zero(self):
        snapshot = make_snapshot([make_record("p")])
        assert snapshot.citation_count("p") == 0

    def test_unknown_id_raises(self):
        snapshot = make_snapshot([make_record("p")])
        with pytest.raises(UnknownPublicationError):
            snapshot.citation_count("ghost")


class TestSearch:
    def test_exact_title_match_singleton(self):
        store = make_store(
            [
                make_record("p1", title="deep kernel methods"),
                make_record("p2", title="shallow parsing"),
            ]
        )
        result = search(
            store, SourceQuery("phrase-in-title-abstract", ["deep kernel methods"]), name="hit"
        )
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
        one = search(store, SourceQuery("phrase-in-title-abstract", ["alpha"]), "a")
        other = search(store, SourceQuery("phrase-in-title-abstract", ["beta"]), "b")
        both = search(store, SourceQuery("phrase-in-title-abstract", ["alpha", "beta"]), "ab")
        assert both.member_ids == one.member_ids | other.member_ids

    def test_matches_abstract_too_case_insensitive(self):
        store = make_store(
            [make_record("p1", title="untitled", abstract="Uses Latent Topic Models.")]
        )
        hits = search(
            store, SourceQuery("phrase-in-fulltext-proxy", ["latent topic"]), "q"
        )
        assert hits.member_ids == {"p1"}

    def test_equals_bruteforce_substring_scan(self, rng):
        snapshot = random_citation_dag(rng, 100)
        store = make_store(snapshot.record(pub_id) for pub_id in snapshot.ids())
        phrase = "article n00"
        hits = search(store, SourceQuery("phrase-in-title-abstract", [phrase]), "q")
        brute = set()
        for pub_id in snapshot.ids():
            record = snapshot.record(pub_id)
            text = record.title.lower() + " " + (record.abstract or "").lower()
            if phrase in text:
                brute.add(pub_id)
        assert hits.member_ids == brute

    def test_id_lookup_kind(self):
        store = make_store([make_record("p1"), make_record("p2")])
        hits = search(store, SourceQuery("id-lookup", ["p2", "ghost"]), "q")
        assert hits.member_ids == {"p2"}

    def test_empty_phrase_list_rejected(self):
        with pytest.raises(ValidationError):
            SourceQuery("phrase-in-title-abstract", [])

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
        base = search(store, SourceQuery("phrase-in-title-abstract", phrases), "q")
        wider = search(
            store, SourceQuery("phrase-in-title-abstract", phrases + ["study"]), "q2"
        )
        assert base.member_ids <= wider.member_ids

