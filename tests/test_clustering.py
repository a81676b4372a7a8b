"""Community detection, modularity, silhouette: hand values and brute-force oracles."""

from __future__ import annotations

import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citecascade import clustering
from citecascade.clustering import (
    ClusterPartition,
    detect_communities,
    induced_subnetwork,
    modularity,
    silhouette,
    sub_cluster,
    top_citing_articles,
)
from citecascade.cocitation import CoCitationNetwork, EdgeInfo, NetworkConfig, NodeInfo
from citecascade.errors import ValidationError
from citecascade.labeling import cited_by

from conftest import make_record, make_store


def weighted_network(
    edge_spec: dict[tuple[str, str], float], years: dict[str, int] | None = None,
    extra_nodes: tuple[str, ...] = (),
) -> CoCitationNetwork:
    nodes: dict[str, NodeInfo] = {}
    edges = {}
    for (a, b), weight in edge_spec.items():
        pair = (a, b) if a <= b else (b, a)
        edges[pair] = EdgeInfo(int(weight), 2000)
        for node in pair:
            nodes.setdefault(node, NodeInfo(1, (years or {}).get(node, 2000)))
    for node in extra_nodes:
        nodes.setdefault(node, NodeInfo(1, (years or {}).get(node, 2000)))
    return CoCitationNetwork(nodes, edges, NetworkConfig())


def clique_edges(members: list[str], weight: float = 1.0) -> dict[tuple[str, str], float]:
    return {
        (members[i], members[j]): weight
        for i in range(len(members))
        for j in range(i + 1, len(members))
    }


def all_set_partitions(items: list[str]):
    """Every partition of ``items`` (Bell-number enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] | {first}] + smaller[i + 1 :]
        yield [{first}] + smaller


def random_weighted_network(rng: random.Random, n: int, p: float) -> CoCitationNetwork:
    edge_spec = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edge_spec[(f"v{i:03d}", f"v{j:03d}")] = rng.randint(1, 5)
    years = {f"v{i:03d}": rng.randint(1980, 2019) for i in range(n)}
    return weighted_network(edge_spec, years, extra_nodes=tuple(years))


class TestModularity:
    def test_one_cluster_is_exactly_zero(self):
        network = weighted_network(clique_edges(["a", "b", "c", "d"], 3))
        assignment = {n: 0 for n in network.nodes}
        assert modularity(network, assignment) == 0.0

    def test_two_disjoint_triangles_exactly_half(self):
        # Direct formula: 2 * (3/6 - (6/12)^2) = 0.5
        edges = clique_edges(["a", "b", "c"]) | clique_edges(["x", "y", "z"])
        network = weighted_network(edges)
        assignment = {"a": 0, "b": 0, "c": 0, "x": 1, "y": 1, "z": 1}
        assert modularity(network, assignment) == pytest.approx(0.5, abs=0)

    def test_missing_nodes_rejected(self):
        network = weighted_network({("a", "b"): 1})
        with pytest.raises(ValidationError):
            modularity(network, {"a": 0})

    def test_weightless_network_scores_zero(self):
        network = CoCitationNetwork({"a": NodeInfo(1, 2000)}, {}, NetworkConfig())
        assert modularity(network, {"a": 0}) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_q_within_bounds(self, seed):
        rng = random.Random(seed)
        network = random_weighted_network(rng, 12, 0.3)
        assignment = {n: rng.randint(0, 3) for n in network.nodes}
        q = modularity(network, assignment)
        assert -0.5 - 1e-12 <= q <= 1.0 + 1e-12


class TestDetectCommunities:
    def test_two_4cliques_with_bridge_match_exhaustive_search(self):
        left = ["a", "b", "c", "d"]
        right = ["e", "f", "g", "h"]
        edges = clique_edges(left) | clique_edges(right) | {("d", "e"): 1.0}
        network = weighted_network(edges)

        best_q, best_partition = -1.0, None
        for candidate in all_set_partitions(sorted(network.nodes)):
            assignment = {n: i for i, group in enumerate(candidate) for n in group}
            q = modularity(network, assignment)
            if q > best_q:
                best_q, best_partition = q, candidate
        assert sorted(map(sorted, best_partition)) == [left, right]

        partition = detect_communities(network)
        groups = sorted(sorted(g) for g in partition.clusters())
        assert groups == [left, right]
        assert partition.modularity_q == pytest.approx(best_q)

    def test_single_clique_one_cluster(self):
        network = weighted_network(clique_edges(["a", "b", "c", "d"]))
        partition = detect_communities(network)
        assert partition.num_clusters() == 1

    def test_disconnected_cliques_become_components(self):
        edges = clique_edges(["a", "b", "c"]) | clique_edges(["x", "y", "z"])
        partition = detect_communities(weighted_network(edges))
        groups = sorted(sorted(g) for g in partition.clusters())
        assert groups == [["a", "b", "c"], ["x", "y", "z"]]

    def test_isolated_nodes_become_singletons(self):
        network = weighted_network(clique_edges(["a", "b", "c"]), extra_nodes=("lonely",))
        partition = detect_communities(network)
        assert {"lonely"} in partition.clusters()

    def test_empty_network_errors(self):
        with pytest.raises(ValidationError):
            detect_communities(CoCitationNetwork({}, {}, NetworkConfig()))

    def test_ordering_largest_first_then_older_mean_year(self):
        # Two same-size cliques: the one with older nodes must take index 0.
        years = {"a": 2010, "b": 2010, "c": 2010, "x": 1990, "y": 1990, "z": 1990}
        edges = clique_edges(["a", "b", "c"]) | clique_edges(["x", "y", "z"])
        big = clique_edges(["p", "q", "r", "s"])
        partition = detect_communities(weighted_network(edges | big, years))
        clusters = partition.clusters()
        assert sorted(clusters[0]) == ["p", "q", "r", "s"]  # largest first
        assert sorted(clusters[1]) == ["x", "y", "z"]  # older mean year wins the tie
        assert sorted(clusters[2]) == ["a", "b", "c"]

    def test_sizes_nonincreasing_invariant(self, rng):
        network = random_weighted_network(rng, 40, 0.12)
        partition = detect_communities(network)
        sizes = [len(c) for c in partition.clusters()]
        assert sizes == sorted(sizes, reverse=True)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_deterministic_and_insertion_order_independent(self, seed):
        rng = random.Random(seed)
        network = random_weighted_network(rng, 20, 0.25)
        reversed_edges = dict(reversed(list(network.edges.items())))
        shuffled = CoCitationNetwork(
            dict(reversed(list(network.nodes.items()))), reversed_edges, network.config
        )
        first = detect_communities(network)
        second = detect_communities(network)
        third = detect_communities(shuffled)
        assert first.assignment == second.assignment == third.assignment

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_q_beats_trivial_partitions(self, seed):
        rng = random.Random(seed)
        network = random_weighted_network(rng, 18, 0.2)
        partition = detect_communities(network)
        q = partition.modularity_q
        singletons = {n: i for i, n in enumerate(sorted(network.nodes))}
        assert q >= modularity(network, singletons) - 1e-12
        assert q >= 0.0 - 1e-12  # one-cluster partition scores exactly 0


class TestSilhouette:
    def test_perfect_separation_all_ones(self):
        # K2,2: profiles within {a,b} and within {x,y} are identical; across, orthogonal.
        edges = {("a", "x"): 1.0, ("a", "y"): 1.0, ("b", "x"): 1.0, ("b", "y"): 1.0}
        network = weighted_network(edges)
        partition = ClusterPartition(assignment={"a": 0, "b": 0, "x": 1, "y": 1})
        result = silhouette(network, partition)
        assert all(s == pytest.approx(1.0) for s in result.node_scores.values())
        assert result.mean == pytest.approx(1.0)

    def test_equidistant_node_scores_zero(self):
        # Unit triangle: every pairwise profile distance is 0.5, so a_i = b_i.
        network = weighted_network(clique_edges(["a", "b", "c"]))
        partition = ClusterPartition(assignment={"a": 0, "b": 0, "c": 1})
        result = silhouette(network, partition)
        assert result.node_scores["a"] == pytest.approx(0.0)
        assert result.node_scores["b"] == pytest.approx(0.0)
        assert result.node_scores["c"] == 0.0  # singleton convention

    def test_single_cluster_zero_with_warning(self):
        network = weighted_network(clique_edges(["a", "b", "c"]))
        partition = ClusterPartition(assignment={n: 0 for n in network.nodes})
        with pytest.warns(UserWarning, match="single-cluster"):
            result = silhouette(network, partition)
        assert result.mean == 0.0

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_bruteforce_distance_matrix(self, seed):
        rng = random.Random(seed)
        network = random_weighted_network(rng, 24, 0.25)
        partition = random_partition(rng, sorted(network.nodes), 3)
        assert_silhouette_matches_bruteforce(network, partition)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_many_clusters_singletons_and_zero_profiles(self, seed):
        rng = random.Random(seed)
        network = random_weighted_network(rng, 30, 0.12)
        for i in range(4):  # isolated: zero co-citation profiles
            network.nodes[f"z{i}"] = NodeInfo(1, 2000)
        node_ids = sorted(network.nodes)
        partition = random_partition(rng, node_ids, 12)
        for node in rng.sample(node_ids, 3):  # guaranteed singletons
            partition.assignment[node] = max(partition.assignment.values()) + 1
        assert_silhouette_matches_bruteforce(network, partition)

    def test_two_hop_neighbourhood_reaching_every_cluster(self):
        # A hub in cluster 0 links one node of each of six triangles, so the
        # hub's neighbours have a two-hop neighbour in every other cluster.
        edges: dict[tuple[str, str], float] = {}
        assignment = {"hub": 0, "h2": 0}
        edges[("h2", "hub")] = 2
        for c in range(1, 7):
            members = [f"t{c}a", f"t{c}b", f"t{c}c"]
            edges.update(clique_edges(members, weight=c))
            edges[("hub", members[0])] = c + 1
            assignment.update({m: c for m in members})
        network = weighted_network(edges)
        partition = ClusterPartition(assignment=assignment)
        assert_silhouette_matches_bruteforce(network, partition)

    @pytest.mark.parametrize("block", [1, 2, clustering.SILHOUETTE_BLOCK])
    def test_clusters_out_of_two_hop_reach_sit_at_one_in_every_block(self, monkeypatch, block):
        # Triangle a-b-c reaches no other cluster: b_a = 1, a_a = 0.5, s_a = 0.5.
        # The later nodes' clusters do reach each other; their counts must not
        # land on a, or a would look as if it touched every cluster.
        edges = clique_edges(["a", "b", "c"])
        edges.update({("p", "q"): 1, ("p", "r"): 2, ("q", "s"): 1, ("r", "s"): 3})
        network = weighted_network(edges)
        partition = ClusterPartition(
            assignment={"a": 0, "b": 0, "c": 0, "p": 1, "q": 1, "r": 2, "s": 2}
        )
        monkeypatch.setattr(clustering, "SILHOUETTE_BLOCK", block)
        assert silhouette(network, partition).node_scores["a"] == pytest.approx(0.5)
        assert_silhouette_matches_bruteforce(network, partition)

    def test_nodes_outside_the_partition_shape_profiles_only(self):
        rng = random.Random(11)
        network = random_weighted_network(rng, 20, 0.3)
        partition = random_partition(rng, sorted(network.nodes)[5:], 4)
        assert_silhouette_matches_bruteforce(network, partition)
        assert set(silhouette(network, partition).node_scores) == set(partition.assignment)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        block=st.sampled_from([1, 5, 64, clustering.SILHOUETTE_BLOCK]),
    )
    def test_hubs_many_clusters_and_nodes_outside_the_partition(self, seed, block):
        rng = random.Random(seed)
        network = random_weighted_network(rng, 40, 0.05)
        node_ids = sorted(network.nodes)
        for hub in rng.sample(node_ids, 3):  # co-cited with most of the network
            for other in rng.sample(node_ids, 30):
                if other != hub:
                    pair = (min(hub, other), max(hub, other))
                    network.edges[pair] = EdgeInfo(rng.randint(1, 9), 2000)
        inside = sorted(rng.sample(node_ids, 30))  # the other 10 shape profiles only
        partition = random_partition(rng, inside, 15)
        for node in rng.sample(inside, 3):  # guaranteed singletons
            partition.assignment[node] = max(partition.assignment.values()) + 1
        with mock.patch.object(clustering, "SILHOUETTE_BLOCK", block):
            assert_silhouette_matches_bruteforce(network, partition)

    def test_hub_with_many_singleton_neighbours_stays_in_small_memory(self):
        # Joining every pair of the hub's 1,507 neighbours would hold 2.3 million
        # entries at once; the blocked join holds at most SILHOUETTE_BLOCK.
        edges: dict[tuple[str, str], float] = {("hub", "mate"): 2}
        assignment = {"hub": 0, "mate": 0}
        for c in (1, 2, 3):
            x, y = f"p{c}x", f"p{c}y"
            edges.update({(x, y): c, ("hub", x): 1, ("hub", y): c})
            assignment.update({x: c, y: c})
        for i in range(1500):
            edges[("hub", f"l{i:04d}")] = 1 + i % 3
            assignment[f"l{i:04d}"] = 4 + i
        network = weighted_network(edges)
        partition = ClusterPartition(assignment=assignment)
        tracemalloc.start()
        try:
            silhouette(network, partition)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20
        assert_silhouette_matches_bruteforce(network, partition)

    def test_all_zero_profiles(self):
        network = weighted_network({}, extra_nodes=("a", "b", "c", "d"))
        partition = ClusterPartition(assignment={"a": 0, "b": 0, "c": 1, "d": 2})
        assert_silhouette_matches_bruteforce(network, partition)


def random_partition(rng: random.Random, node_ids: list[str], k: int) -> ClusterPartition:
    """Random assignment to up to k clusters, renumbered to consecutive indices."""
    raw = {n: rng.randrange(k) for n in node_ids}
    remap = {c: i for i, c in enumerate(sorted(set(raw.values())))}
    return ClusterPartition(assignment={n: remap[c] for n, c in raw.items()})


def assert_silhouette_matches_bruteforce(network: CoCitationNetwork, partition: ClusterPartition):
    """From-scratch pure-python silhouette over the full distance matrix."""
    result = silhouette(network, partition)
    node_ids = sorted(network.nodes)
    weights = {n: {} for n in node_ids}
    for (a, b), info in network.edges.items():
        weights[a][b] = info.weight
        weights[b][a] = info.weight

    norm = {n: math.sqrt(sum(w * w for w in weights[n].values())) for n in node_ids}

    def cosine_distance(u, v):
        small, large = sorted((weights[u], weights[v]), key=len)
        dot = sum(w * large.get(k, 0) for k, w in small.items())
        nu, nv = norm[u], norm[v]
        if nu == 0 or nv == 0:
            return 1.0
        return 1.0 - dot / (nu * nv)

    clusters = partition.clusters()
    for i, members in enumerate(clusters):
        for node in members:
            if len(members) == 1:
                assert result.node_scores[node] == 0.0
                continue
            a_i = sum(cosine_distance(node, m) for m in members if m != node) / (
                len(members) - 1
            )
            b_i = min(
                sum(cosine_distance(node, m) for m in other) / len(other)
                for j, other in enumerate(clusters)
                if j != i
            )
            expected = 0.0 if max(a_i, b_i) == 0 else (b_i - a_i) / max(a_i, b_i)
            assert result.node_scores[node] == pytest.approx(expected, abs=1e-9)
    for i, members in enumerate(clusters):
        expected_cluster = sum(result.node_scores[m] for m in members) / len(members)
        assert result.cluster_scores[i] == pytest.approx(expected_cluster, abs=1e-12)
    assert result.mean == pytest.approx(
        sum(result.cluster_scores.values()) / len(clusters), abs=1e-12
    )


class TestSubCluster:
    def test_bridged_cliques_split_in_two(self):
        left = ["a", "b", "c", "d"]
        right = ["e", "f", "g", "h"]
        edges = clique_edges(left) | clique_edges(right) | {("d", "e"): 1.0}
        outside = clique_edges(["x", "y", "z"])
        network = weighted_network(edges | outside)
        parent_members = set(left + right)
        sub = sub_cluster(parent_members, network, parent_index=0)
        assert sub.level == 2 and sub.parent == 0
        assert set(sub.assignment) == parent_members
        groups = sorted(sorted(g) for g in sub.clusters())
        assert groups == [left, right]

    def test_clique_parent_single_subcluster(self):
        network = weighted_network(clique_edges(["a", "b", "c", "d"]))
        sub = sub_cluster({"a", "b", "c", "d"}, network, parent_index=0)
        assert sub.num_clusters() == 1

    def test_tiny_parent_warns(self):
        network = weighted_network({("a", "b"): 1.0})
        with pytest.warns(UserWarning, match="fewer than 3"):
            sub = sub_cluster({"a", "b"}, network, parent_index=3)
        assert sub.num_clusters() == 1
        assert sub.parent == 3

    def test_induced_subnetwork_keeps_original_weights(self):
        edges = {("a", "b"): 5.0, ("b", "c"): 2.0, ("c", "d"): 7.0}
        network = weighted_network(edges)
        induced = induced_subnetwork(network, {"a", "b", "c"})
        assert set(induced.edges) == {("a", "b"), ("b", "c")}
        assert induced.edges[("a", "b")].weight == 5


class TestTopCitingArticles:
    def test_more_members_cited_ranks_first(self):
        records = [make_record(m, year=1990) for m in ("m1", "m2", "m3")]
        records.append(make_record("broad", year=2000, refs=["m1", "m2", "m3"], count=1))
        records.append(make_record("narrow", year=2000, refs=["m1"], count=99))
        store = make_store(records)
        ranked = top_citing_articles(cited_by({"m1", "m2", "m3"}, store), store, k=5)
        assert [r[0] for r in ranked] == ["broad", "narrow"]
        assert ranked[0][1] == 3

    def test_tie_breaks_by_global_citations_then_id(self):
        records = [make_record("m", year=1990)]
        records.append(make_record("beta", year=2000, refs=["m"], count=10))
        records.append(make_record("alpha", year=2000, refs=["m"], count=5))
        records.append(make_record("aaa", year=2000, refs=["m"], count=5))
        store = make_store(records)
        ranked = top_citing_articles(cited_by({"m"}, store), store, k=3)
        assert [r[0] for r in ranked] == ["beta", "aaa", "alpha"]

    def test_matches_bruteforce_ranking(self, rng):
        members = {f"m{i}" for i in range(6)}
        records = [make_record(m, year=1990) for m in members]
        for i in range(20):
            cited = rng.sample(sorted(members), rng.randint(0, 4))
            records.append(
                make_record(f"c{i:02d}", year=2005, refs=cited, count=rng.randint(0, 50))
            )
        store = make_store(records)
        ranked = top_citing_articles(cited_by(members, store), store, k=20)
        brute = []
        for i in range(20):
            cited = [m for m in store.record(f"c{i:02d}").reference_ids if m in members]
            if cited:
                brute.append((f"c{i:02d}", len(cited), store.citation_count(f"c{i:02d}")))
        brute.sort(key=lambda t: (-t[1], -t[2], t[0]))
        assert ranked == brute


class TestPartitionSerialization:
    def test_json_roundtrip(self):
        partition = ClusterPartition(assignment={"a": 0, "b": 0, "c": 1})
        partition.modularity_q = 0.25
        partition.labels = {0: "first", 1: "second"}
        partition.cluster_silhouettes = {0: 0.5, 1: 0.0}
        partition.mean_silhouette = 0.25
        again = ClusterPartition.from_json_dict(partition.to_json_dict())
        assert again.assignment == partition.assignment
        assert again.labels == partition.labels
        assert again.modularity_q == partition.modularity_q
