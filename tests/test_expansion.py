"""Expansion engine: hand-walked chains, threshold filters, BFS-oracle equivalence."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citecascade.errors import UnknownPublicationError, ValidationError
from citecascade.expansion import (
    BACKWARD,
    FORWARD,
    ExpansionSpec,
    ExpansionStage,
    _qualified_step,
    run_cascade,
)
from citecascade.records import json_text

from conftest import chain_store, make_record, make_store, random_citation_dag


def bfs_oracle(store, seeds, stages, theta_citer, theta_ref):
    """Reference breadth-first traversal with filters, written independently."""
    accumulated = set(seeds)
    for direction, generations in stages:
        frontier = set(accumulated)
        for _ in range(generations):
            if not frontier:
                break
            next_frontier = set()
            for article in frontier:
                if direction == "F":
                    neighbors = store.get_citers(article)
                    theta = theta_citer
                else:
                    neighbors = store.get_references(article)
                    theta = theta_ref
                for candidate in neighbors:
                    if candidate in accumulated or candidate in next_frontier:
                        continue
                    if store.citation_count(candidate) >= theta:
                        next_frontier.add(candidate)
            accumulated |= next_frontier
            frontier = next_frontier
    return accumulated


def forward_step(store, current: set[str], theta_citer: int) -> set[str]:
    """New articles citing the current set whose citation count >= theta_citer."""
    if not current:
        raise ValidationError("forward_step needs a non-empty current set")
    return set(_qualified_step(store, current, FORWARD, current, theta_citer)[1])


def backward_step(store, current: set[str], theta_ref: int) -> set[str]:
    """New resolvable references of the current set with citation count >= theta_ref."""
    if not current:
        raise ValidationError("backward_step needs a non-empty current set")
    return set(_qualified_step(store, current, BACKWARD, current, theta_ref)[1])


class TestSteps:
    def test_forward_chain_theta_zero(self):
        store = chain_store(3)  # a <- b <- c
        assert forward_step(store, {"a"}, 0) == {"b"}

    def test_forward_chain_thresholds(self):
        # b has exactly one citer in the store (c), so theta 1 keeps it, theta 2 drops it.
        store = chain_store(3)
        assert forward_step(store, {"a"}, 1) == {"b"}
        assert forward_step(store, {"a"}, 2) == set()

    def test_backward_threshold_fifteen_of_twentyfive(self):
        # Seed with 25 references; counts straddle 10 so exactly 15 qualify.
        refs = [f"r{i:02d}" for i in range(25)]
        records = [make_record("seed", year=1986, refs=refs, count=421)]
        for i, ref in enumerate(refs):
            count = 10 + i if i < 15 else i - 15  # 15 at >=10, 10 at 0..9
            records.append(make_record(ref, year=1980, count=count))
        store = make_store(records)
        result = backward_step(store, {"seed"}, 10)
        assert len(result) == 15
        assert result == {f"r{i:02d}" for i in range(15)}

    def test_backward_no_resolvable_references(self):
        store = make_store([make_record("p", refs=["ghost"])])
        assert backward_step(store, {"p"}, 0) == set()

    def test_steps_match_bruteforce_on_synthetic_graph(self, rng):
        store = random_citation_dag(rng, 200)
        current = set(store.ids()[:10])
        for theta in (0, 2, 5):
            brute_f = {
                c
                for a in current
                for c in store.get_citers(a)
                if c not in current and store.citation_count(c) >= theta
            }
            assert forward_step(store, current, theta) == brute_f
            brute_b = {
                r
                for a in current
                for r in store.get_references(a)
                if r not in current and store.citation_count(r) >= theta
            }
            assert backward_step(store, current, theta) == brute_b

    def test_empty_current_rejected(self):
        store = chain_store(2)
        with pytest.raises(ValidationError):
            forward_step(store, set(), 0)


class TestRunCascade:
    def test_three_generation_chain_walk(self):
        store = chain_store(4)  # a <- b <- c <- d
        spec = ExpansionSpec(seed_ids={"a"}, stages=[ExpansionStage("F", 3)])
        dataset, trace = run_cascade(store, spec, "walk")
        assert dataset.member_ids == {"a", "b", "c", "d"}
        assert [g.added_ids for g in trace.generations] == [["b"], ["c"], ["d"]]
        assert trace.terminal_reason == "generations exhausted"

    def test_fixpoint_empty_frontier(self):
        store = make_store([make_record("a"), make_record("b")])
        spec = ExpansionSpec(seed_ids={"a", "b"}, stages=[ExpansionStage("F", 3)])
        dataset, trace = run_cascade(store, spec, "fix")
        assert dataset.member_ids == {"a", "b"}
        assert len(trace.generations) == 1
        assert trace.terminal_reason == "empty frontier"

    def test_forward_then_backward_composition(self):
        # review <- citer; citer also cites an older article the review does not.
        store = make_store(
            [
                make_record("review", year=2017),
                make_record("citer", year=2018, refs=["review", "old"]),
                make_record("old", year=1990),
            ]
        )
        spec = ExpansionSpec(
            seed_ids={"review"},
            stages=[ExpansionStage("F", 1), ExpansionStage("B", 1)],
        )
        dataset, trace = run_cascade(store, spec, "nb")
        assert dataset.member_ids == {"review", "citer", "old"}
        assert [g.direction for g in trace.generations] == [FORWARD, BACKWARD]

    def test_seeds_bypass_thresholds(self):
        store = make_store([make_record("seed", count=0)])
        spec = ExpansionSpec(seed_ids={"seed"}, stages=[ExpansionStage("F", 1)], theta_citer=99)
        dataset, _ = run_cascade(store, spec, "s")
        assert "seed" in dataset.member_ids

    def test_unresolvable_seed_errors_with_names(self):
        store = chain_store(2)
        spec = ExpansionSpec(seed_ids={"a", "ghost"}, stages=[ExpansionStage("F", 1)])
        with pytest.raises(UnknownPublicationError, match="ghost"):
            run_cascade(store, spec, "x")

    def test_cap_truncates_by_count_then_id_and_terminates_stage(self):
        # Five citers of the seed; counts pick c4 (9), then the c1/c2 tie breaks by id.
        records = [make_record("seed")]
        counts = {"c1": 7, "c2": 7, "c3": 3, "c4": 9, "c5": 1}
        for cid, count in counts.items():
            records.append(make_record(cid, refs=["seed"], count=count))
        store = make_store(records)
        spec = ExpansionSpec(
            seed_ids={"seed"}, stages=[ExpansionStage("F", 3)], per_generation_cap=3
        )
        dataset, trace = run_cascade(store, spec, "capped")
        assert dataset.member_ids == {"seed", "c4", "c1", "c2"}
        assert trace.terminal_reason == "cap reached"
        assert len(trace.generations) == 1

    def test_trace_counts_found_vs_qualified(self):
        records = [make_record("seed")]
        for cid, count in (("hi", 10), ("lo", 1)):
            records.append(make_record(cid, refs=["seed"], count=count))
        store = make_store(records)
        spec = ExpansionSpec(seed_ids={"seed"}, stages=[ExpansionStage("F", 1)], theta_citer=5)
        _, trace = run_cascade(store, spec, "t")
        gen = trace.generations[0]
        assert gen.candidates_found == 2
        assert gen.candidates_qualified == 1
        assert gen.added_ids == ["hi"]

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            ExpansionSpec(seed_ids=set(), stages=[ExpansionStage("F", 1)])
        with pytest.raises(ValidationError):
            ExpansionSpec(seed_ids={"a"}, stages=[])
        with pytest.raises(ValidationError):
            ExpansionSpec(seed_ids={"a"}, stages=[ExpansionStage("F", 0)])
        with pytest.raises(ValidationError):
            ExpansionSpec(seed_ids={"a"}, stages=[ExpansionStage("F", 1)], theta_citer=-1)


class TestTraceReport:
    def test_chain_rows(self):
        store = chain_store(4)
        spec = ExpansionSpec(seed_ids={"a"}, stages=[ExpansionStage("F", 3)])
        _, trace = run_cascade(store, spec, "walk")
        payload = trace.to_json_dict()
        # Hand-walked: each generation examines 1, finds 1, adds 1.
        assert [
            (g["stage"], g["direction"], g["examined"], g["found"], g["qualified"], g["added_ids"], g["accumulated"])
            for g in payload["generations"]
        ] == [
            (0, FORWARD, 1, 1, 1, ["b"], 2),
            (0, FORWARD, 1, 1, 1, ["c"], 3),
            (0, FORWARD, 1, 1, 1, ["d"], 4),
        ]
        assert payload["stage_reasons"] == {"0": "generations exhausted"}
        assert payload["terminal_reason"] == "generations exhausted"

    def test_empty_frontier_single_row(self):
        store = make_store([make_record("a")])
        spec = ExpansionSpec(seed_ids={"a"}, stages=[ExpansionStage("F", 2)])
        _, trace = run_cascade(store, spec, "fix")
        payload = trace.to_json_dict()
        assert len(payload["generations"]) == 1
        assert payload["stage_reasons"] == {"0": "empty frontier"}
        assert payload["terminal_reason"] == "empty frontier"

    def test_accumulated_column_nondecreasing(self, rng):
        store = random_citation_dag(rng, 120)
        seeds = set(store.ids()[:3])
        spec = ExpansionSpec(seed_ids=seeds, stages=[ExpansionStage("F", 3)], theta_citer=1)
        _, trace = run_cascade(store, spec, "x")
        sizes = [g["accumulated"] for g in trace.to_json_dict()["generations"]]
        assert sizes == sorted(sizes)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(10, 120),
        gens=st.integers(1, 3),
        direction=st.sampled_from(["F", "B"]),
        theta=st.sampled_from([0, 1, 3]),
    )
    def test_oracle_equivalence(self, seed, n, gens, direction, theta):
        store = random_citation_dag(random.Random(seed), n)
        seeds = set(store.ids()[: max(1, n // 20)])
        spec = ExpansionSpec(
            seed_ids=seeds,
            stages=[ExpansionStage(direction, gens)],
            theta_citer=theta,
            theta_ref=theta,
        )
        dataset, _ = run_cascade(store, spec, "prop")
        assert dataset.member_ids == bfs_oracle(store, seeds, [(direction, gens)], theta, theta)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), lo=st.integers(0, 3), hi=st.integers(4, 9))
    def test_threshold_monotonicity(self, seed, lo, hi):
        store = random_citation_dag(random.Random(seed), 80)
        seeds = set(store.ids()[:4])
        big = run_cascade(
            store,
            ExpansionSpec(seeds, [ExpansionStage("F", 2)], theta_citer=lo, theta_ref=lo),
            "lo",
        )[0].member_ids
        small = run_cascade(
            store,
            ExpansionSpec(seeds, [ExpansionStage("F", 2)], theta_citer=hi, theta_ref=hi),
            "hi",
        )[0].member_ids
        assert small <= big

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_determinism_byte_identical_trace(self, seed):
        store = random_citation_dag(random.Random(seed), 60)
        seeds = set(store.ids()[:2])
        spec = ExpansionSpec(seeds, [ExpansionStage("F", 2), ExpansionStage("B", 1)], 1, 1)
        first_ds, first_trace = run_cascade(store, spec, "d")
        second_ds, second_trace = run_cascade(store, spec, "d")
        assert first_ds.member_ids == second_ds.member_ids
        assert json_text(first_trace.to_json_dict()) == json_text(second_trace.to_json_dict())

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_generation_containment_and_monotonicity(self, seed):
        store = random_citation_dag(random.Random(seed), 60)
        seeds = set(store.ids()[:3])
        spec = ExpansionSpec(seeds, [ExpansionStage("B", 3)], theta_ref=1)
        dataset, trace = run_cascade(store, spec, "g")
        assert seeds <= dataset.member_ids
        accumulated = set(seeds)
        frontier = set(accumulated)
        for gen in trace.generations:
            one_step = {
                r for a in frontier for r in store.get_references(a)
            }
            assert set(gen.added_ids) <= one_step - accumulated
            assert gen.candidates_qualified <= gen.candidates_found
            accumulated |= set(gen.added_ids)
            frontier = set(gen.added_ids)
