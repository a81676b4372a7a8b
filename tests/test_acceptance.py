"""Acceptance suite: ten criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE <nn> <name>: PASS`` once its assertions hold;
a failing criterion fails the test (and the suite) the normal pytest way.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import math
import random
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from citecascade.cli import main as cli_main
from citecascade.clustering import (
    ClusterPartition,
    detect_communities,
    modularity,
    silhouette,
)
from citecascade.cocitation import (
    CoCitationNetwork,
    EdgeInfo,
    NetworkConfig,
    NodeInfo,
    build_network,
    network_stats,
    prune_links,
)
from citecascade.expansion import ExpansionSpec, ExpansionStage, run_cascade
from citecascade.overlay import overlap_matrix
from citecascade.records import Dataset

from conftest import SYNTHETIC_CORPUS, make_record, make_store, random_citation_dag
from test_cocitation import (
    assert_lcc_matches_union_find,
    brute_force_pairs,
    cocite_corpus,
    loose_config,
    network_from_graphml,
)
from test_expansion import backward_step, bfs_oracle


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


class TestAcceptance:
    def test_c01_expansion_oracle_equivalence(self):
        rng = random.Random(987654)
        grid = [("F", 1), ("F", 2), ("F", 3), ("B", 1), ("B", 2)]
        thetas = [0, 1, 3]
        started = time.perf_counter()
        for dag_index in range(50):
            n = rng.randint(50, 1000)
            store = random_citation_dag(rng, n, max_refs=5)
            seeds = set(store.ids()[: max(1, n // 50)])
            for direction, gens in grid:
                for theta in thetas:
                    spec = ExpansionSpec(
                        seed_ids=seeds,
                        stages=[ExpansionStage(direction, gens)],
                        theta_citer=theta,
                        theta_ref=theta,
                    )
                    got = run_cascade(store, spec, "acc")[0].member_ids
                    want = bfs_oracle(store, seeds, [(direction, gens)], theta, theta)
                    assert got == want, (dag_index, direction, gens, theta)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s (budget 5s)"
        report(1, "expansion-oracle-equivalence")

    def test_c02_threshold_filter_fidelity(self):
        # Seed article with 25 references whose citation counts straddle 10:
        # exactly the 15 at or above the threshold come back. Exact.
        refs = [f"r{i:02d}" for i in range(25)]
        records = [make_record("seed-review", year=1986, refs=refs, count=421)]
        for i, ref in enumerate(refs):
            count = 10 + 3 * i if i < 15 else i - 15  # 15 refs >= 10, 10 refs <= 9
            records.append(make_record(ref, year=1979, count=count))
        store = make_store(records)
        qualified = backward_step(store, {"seed-review"}, 10)
        assert qualified == {f"r{i:02d}" for i in range(15)}
        assert len(qualified) == 15
        report(2, "threshold-filter-fidelity")

    def test_c03_overlap_formula_verification(self):
        # Exact pre-rounding identity on random synthetic sets.
        rng = random.Random(5150)
        for _ in range(20):
            datasets = [
                Dataset(f"d{k}", {str(rng.randint(0, 60)) for _ in range(rng.randint(1, 40))})
                for k in range(rng.randint(2, 5))
            ]
            matrix = overlap_matrix(datasets)
            n = len(datasets)
            for i in range(n):
                for j in range(n):
                    # values[i][j]*|D_j| and values[j][i]*|D_i| both recover 100*|∩|.
                    assert matrix.intersections[i][j] == matrix.intersections[j][i]
                    size_j = matrix.sizes[matrix.names[j]]
                    assert matrix.raw_values[i][j] * size_j == pytest.approx(
                        100.0 * matrix.intersections[i][j], rel=1e-12
                    )

        # Published sizes with their implied intersections reproduce the
        # printed two-decimal entries to ±0.01.
        combined = Dataset("Combined", {f"a{k}" for k in range(46756)})
        s5 = Dataset("S5", {f"a{k}" for k in range(43703)})  # subset of Combined
        # F: 685 members inside S5 (implied by 38.55% of 1,777), rest outside.
        f_members = {f"a{k}" for k in range(685)}
        f_members |= {f"a{k}" for k in range(43703, 43703 + 1092)}
        full_text = Dataset("F", f_members)
        assert len(full_text.member_ids) == 1777
        matrix = overlap_matrix([combined, full_text, s5])
        assert matrix.value("F", "Combined") == pytest.approx(3.80, abs=0.01)
        assert matrix.value("S5", "Combined") == pytest.approx(93.47, abs=0.01)
        assert matrix.value("F", "S5") == pytest.approx(1.57, abs=0.01)
        report(3, "overlap-formula-verification")

    def test_c04_modularity_correctness(self):
        def clique(members):
            return {
                (members[i], members[j]): 1.0
                for i in range(len(members))
                for j in range(i + 1, len(members))
            }

        def network_of(edge_spec):
            nodes, edges = {}, {}
            for (a, b), w in edge_spec.items():
                pair = (a, b) if a <= b else (b, a)
                edges[pair] = EdgeInfo(int(w), 2000)
                for node in pair:
                    nodes.setdefault(node, NodeInfo(1, 2000))
            return CoCitationNetwork(nodes, edges, NetworkConfig())

        # Q of the one-cluster partition is exactly 0 on any network.
        rng = random.Random(31337)
        for _ in range(5):
            edge_spec = {
                (f"v{i}", f"v{j}"): rng.randint(1, 4)
                for i in range(10)
                for j in range(i + 1, 10)
                if rng.random() < 0.4
            }
            if not edge_spec:
                continue
            network = network_of(edge_spec)
            assert modularity(network, {n: 0 for n in network.nodes}) == 0.0

        # Two disjoint triangles partitioned by component: exactly 0.5.
        triangles = network_of(clique(["a", "b", "c"]) | clique(["x", "y", "z"]))
        assignment = {"a": 0, "b": 0, "c": 0, "x": 1, "y": 1, "z": 1}
        assert modularity(triangles, assignment) == 0.5

        # Two 4-cliques plus a bridge: greedy recovers the exhaustive-search optimum.
        left, right = ["a", "b", "c", "d"], ["e", "f", "g", "h"]
        bridged = network_of(clique(left) | clique(right) | {("d", "e"): 1.0})

        def all_partitions(items):
            if not items:
                yield []
                return
            head, tail = items[0], items[1:]
            for smaller in all_partitions(tail):
                for i in range(len(smaller)):
                    yield smaller[:i] + [smaller[i] | {head}] + smaller[i + 1 :]
                yield [{head}] + smaller

        best_q, best = -1.0, None
        for candidate in all_partitions(sorted(bridged.nodes)):
            q = modularity(bridged, {n: i for i, g in enumerate(candidate) for n in g})
            if q > best_q:
                best_q, best = q, candidate
        assert sorted(map(sorted, best)) == [left, right]
        partition = detect_communities(bridged)
        assert sorted(sorted(c) for c in partition.clusters()) == [left, right]
        report(4, "modularity-correctness")

    def test_c05_silhouette_bruteforce_equivalence(self):
        rng = random.Random(24601)
        for trial in range(20):
            n = rng.randint(20, 200)
            node_ids = [f"v{i:03d}" for i in range(n)]
            nodes = {v: NodeInfo(1, 2000) for v in node_ids}
            edges = {}
            p = rng.uniform(0.02, 0.15)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        edges[(node_ids[i], node_ids[j])] = EdgeInfo(rng.randint(1, 9), 2000)
            network = CoCitationNetwork(nodes, edges, NetworkConfig())
            k = rng.randint(2, 5)
            partition = ClusterPartition(
                assignment={v: i % k for i, v in enumerate(node_ids)}
            )
            result = silhouette(network, partition)

            # From-scratch recomputation: per-pair cosine distances, then the
            # textbook formula, via a different arithmetic route.
            index = {v: i for i, v in enumerate(node_ids)}
            adjacency = np.zeros((n, n))
            for (a, b), info in edges.items():
                adjacency[index[a], index[b]] = info.weight
                adjacency[index[b], index[a]] = info.weight
            norms = np.sqrt((adjacency**2).sum(axis=1))
            distance = np.ones((n, n))
            for i in range(n):
                for j in range(n):
                    if norms[i] > 0 and norms[j] > 0:
                        distance[i, j] = 1.0 - float(
                            np.dot(adjacency[i], adjacency[j])
                        ) / (norms[i] * norms[j])
            clusters = partition.clusters()
            for ci, members in enumerate(clusters):
                for v in members:
                    i = index[v]
                    if len(members) == 1:
                        expected = 0.0
                    else:
                        a_i = sum(distance[i, index[m]] for m in members if m != v) / (
                            len(members) - 1
                        )
                        b_i = min(
                            sum(distance[i, index[m]] for m in other) / len(other)
                            for cj, other in enumerate(clusters)
                            if cj != ci
                        )
                        expected = 0.0 if max(a_i, b_i) == 0 else (b_i - a_i) / max(a_i, b_i)
                    assert result.node_scores[v] == pytest.approx(expected, abs=1e-9), (
                        trial,
                        v,
                    )
        report(5, "silhouette-bruteforce-equivalence")

    def test_c06_cocitation_counting(self):
        rng = random.Random(8086)
        lby_grid = [2, 5, 10, None]
        for trial in range(30):
            store, dataset = cocite_corpus(
                rng, n_citers=rng.randint(20, 300), n_refs=rng.randint(10, 60)
            )
            previous_edges: set = set()
            for lby in lby_grid:
                config = loose_config(lby=lby)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    network = build_network(dataset, store, config)
                weight, first = brute_force_pairs(store, sorted(dataset.member_ids), lby)
                assert {p: e.weight for p, e in network.edges.items()} == weight, trial
                assert {
                    p: e.first_cocited_year for p, e in network.edges.items()
                } == first, trial
                assert previous_edges <= set(network.edges)  # lby monotonicity
                previous_edges = set(network.edges)
        report(6, "cocitation-counting")

    def test_c07_pruning_bound(self):
        rng = random.Random(40490)
        for trial in range(15):
            store, dataset = cocite_corpus(rng, 60, 30)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                network = build_network(dataset, store, loose_config())
            for lrf in (0.5, 1.0, 2.0, 4.0):
                pruned = prune_links(network, lrf)
                assert len(pruned.edges) <= math.floor(lrf * len(pruned.nodes)), trial
                again = prune_links(pruned, lrf)
                assert "".join(again.to_graphml()) == "".join(pruned.to_graphml())
                assert "".join(again.to_json()) == "".join(pruned.to_json())
        report(7, "pruning-bound")

    def test_c08_lcc_dual_method_agreement(self):
        rng = random.Random(1848)
        for _ in range(50):
            n = rng.randint(2, 80)
            nodes = {f"v{i}": NodeInfo(1, 2000) for i in range(n)}
            edges = {}
            p = rng.uniform(0.0, 0.1)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        edges[(f"v{i}", f"v{j}")] = EdgeInfo(1, 2000)
            network = CoCitationNetwork(nodes, edges, NetworkConfig())
            assert_lcc_matches_union_find(network)

        # The published-shape case: LCC 8,352 of 14,743 is 56.65%, which rounds
        # to 57 but truncates to 56. Both must be reported, neither silently.
        nodes = {f"p{i:05d}": NodeInfo(1, 2000) for i in range(14743)}
        edges = {
            (f"p{i:05d}", f"p{i + 1:05d}"): EdgeInfo(1, 2000) for i in range(8351)
        }  # a path over the first 8,352 nodes; the rest stay isolated
        network = CoCitationNetwork(nodes, edges, NetworkConfig())
        stats = network_stats(network)
        assert stats.lcc_size == 8352
        assert stats.lcc_pct == 57
        assert stats.lcc_pct_floor == 56
        assert stats.lcc_pct != stats.lcc_pct_floor  # divergence surfaced, not resolved
        report(8, "lcc-dual-method-agreement")

    def test_c09_determinism_end_to_end(self, tmp_path):
        assert SYNTHETIC_CORPUS.exists(), "bundled fixture missing"

        def run_pipeline(session_dir: Path) -> None:
            def run(*argv: str) -> None:
                code = cli_main(["--session", str(session_dir), *argv])
                assert code == 0, argv

            run("ingest", str(SYNTHETIC_CORPUS), "--format", "jsonl")
            run("search", "--name", "F", "--phrase", "reinforcement learning")
            run(
                "expand", "--name", "S3", "--seed", "P010", "--stages", "F:3",
                "--theta-citer", "1", "--theta-ref", "1",
            )
            run("union", "--name", "combined", "--datasets", "F,S3")
            run(
                "network", "--dataset", "combined", "--name", "combined",
                "--min-citations", "0", "--top-n", "100",
            )
            run("cluster", "--network", "combined", "--levels", "2", "--top-k", "3")
            run("compare", "--datasets", "F,S3", "--base", "combined")
            run("render", "--network", "combined", "--overlay")
            run("render", "--network", "combined")
            run("render", "--distributions", "F,S3,combined", "--log")
            run("report", "--kind", "datasets")
            run("report", "--kind", "networks")
            run("report", "--kind", "overlap", "--datasets", "F,S3,combined")

        started = time.perf_counter()
        first_dir = tmp_path / "run1"
        second_dir = tmp_path / "run2"
        run_pipeline(first_dir)
        run_pipeline(second_dir)
        elapsed = time.perf_counter() - started

        first_files = sorted(
            p.relative_to(first_dir) for p in first_dir.rglob("*") if p.is_file()
        )
        second_files = sorted(
            p.relative_to(second_dir) for p in second_dir.rglob("*") if p.is_file()
        )
        assert first_files == second_files
        assert len(first_files) > 15
        for rel in first_files:
            assert (first_dir / rel).read_bytes() == (second_dir / rel).read_bytes(), rel
        assert elapsed < 10.0, f"two pipeline runs took {elapsed:.2f}s (budget 10s)"
        self._rendered_session = first_dir
        report(9, "determinism-end-to-end")

    def test_c10_format_roundtrips(self, tmp_path):
        # Build a realistic network from the bundled corpus and round-trip it.
        def run(*argv: str) -> None:
            assert cli_main(["--session", str(tmp_path / "s"), *argv]) == 0

        run("ingest", str(SYNTHETIC_CORPUS))
        run(
            "expand", "--name", "S", "--seed", "P010", "--stages", "F:3",
            "--theta-citer", "1", "--theta-ref", "1",
        )
        run("network", "--dataset", "S", "--min-citations", "0")
        run("render", "--network", "S")
        run("render", "--distributions", "S", "--log")

        session = tmp_path / "s"
        graphml_path = session / "networks" / "S.graphml"
        json_path = session / "networks" / "S.json"
        network = CoCitationNetwork.from_json_dict(json.loads(json_path.read_text(encoding="utf-8")))
        assert len(network.nodes) > 0 and len(network.edges) > 0

        from_graphml = network_from_graphml(graphml_path.read_text(encoding="utf-8"))
        assert from_graphml == network  # node/edge multiset equality
        assert CoCitationNetwork.from_json_dict(json.loads("".join(network.to_json()))) == network
        # Re-export of the re-import reproduces the files byte for byte.
        assert "".join(from_graphml.to_graphml()) == graphml_path.read_text(encoding="utf-8")

        svg_files = list((session / "renders").glob("*.svg"))
        assert svg_files
        for svg in svg_files:
            ET.fromstring(svg.read_text(encoding="utf-8"))  # well-formed XML
        report(10, "format-roundtrips")
