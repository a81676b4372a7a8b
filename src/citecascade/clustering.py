"""Community detection and cluster quality scores for co-citation networks.

Communities come from deterministic greedy modularity maximization: start
from singletons, repeatedly merge the cluster pair with the largest positive
modularity gain (ties: smallest canonical pair), stop when no merge helps.
Clusters are numbered 0..k-1 by size descending; ties go to the cluster with
the older mean node year, then the smallest member id.

Cost: community detection reads the links once from the sorted-id CSR that
silhouette and layout share (``network_arrays``), into one weight row per
cluster. The heap holds only positive gains, and each merge re-offers only
the merged cluster's pairs: a pair's gain changes only when one of its two
clusters merges, so a pair left out can never be the next merge.
"""

from __future__ import annotations

import heapq
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

from .cocitation import CoCitationNetwork, network_arrays
from .errors import ValidationError
from .records import RecordStore, _typed, csv_text


@dataclass
class ClusterPartition:
    """Node -> cluster-index assignment plus ordering, metrics, and labels."""

    assignment: dict[str, int]
    modularity_q: float | None = None
    labels: dict[int, str] = field(default_factory=dict)
    cluster_silhouettes: dict[int, float] = field(default_factory=dict)
    mean_silhouette: float | None = None

    def num_clusters(self) -> int:
        return len(set(self.assignment.values()))

    def clusters(self) -> list[set[str]]:
        out: dict[int, set[str]] = {}
        for node, index in self.assignment.items():
            out.setdefault(index, set()).add(node)
        return [out[i] for i in sorted(out)]

    def to_json_dict(self) -> dict:
        return {
            "modularity": self.modularity_q,
            "mean_silhouette": self.mean_silhouette,
            "clusters": [
                {
                    "index": i,
                    "size": len(members),
                    "label": self.labels.get(i),
                    "silhouette": self.cluster_silhouettes.get(i),
                    "members": sorted(members),
                }
                for i, members in enumerate(self.clusters())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ClusterPartition":
        """The partition ``data`` holds; a ValueError unless each cluster's ``index`` is its
        position, its ``members`` strings that no cluster lists twice, every field of its kind."""
        partition = cls(
            assignment={},
            modularity_q=_typed(data.get("modularity"), "a number or null", "modularity"),
            mean_silhouette=_typed(data.get("mean_silhouette"), "a number or null", "mean_silhouette"),
        )
        for position, cluster in enumerate(data["clusters"]):
            if _typed(cluster["index"], "an integer", "cluster index") != position:
                raise ValueError(f"cluster index {cluster['index']} is not its position {position}")
            members = _typed(cluster["members"], "a list of strings", f"members of cluster {position}")
            listed = len(partition.assignment) + len(members)
            partition.assignment.update(dict.fromkeys(members, position))
            if not members or len(partition.assignment) != listed:
                raise ValueError(f"cluster {position} lists no member, or one listed before")
            if _typed(cluster.get("label"), "a string or null", "label") is not None:
                partition.labels[position] = cluster["label"]
            if _typed(cluster.get("silhouette"), "a number or null", "silhouette") is not None:
                partition.cluster_silhouettes[position] = cluster["silhouette"]
        return partition


def check_partition(network: CoCitationNetwork, partition: ClusterPartition) -> None:
    """A ValidationError unless ``partition`` assigns exactly the nodes of ``network``."""
    missing = network.nodes.keys() - partition.assignment.keys()
    if missing:
        raise ValidationError(f"partition does not cover the base network ({len(missing)} nodes missing)")
    unknown = partition.assignment.keys() - network.nodes.keys()
    if unknown:
        raise ValidationError(f"partition member {min(unknown)!r} is not a node of the base network")


def _cluster_order_key(members: set[str], network: CoCitationNetwork):
    years = [network.nodes[n].year for n in members]
    mean_year = sum(years) / len(years)
    return (-len(members), mean_year, min(members))


def _renumber(groups: list[set[str]], network: CoCitationNetwork) -> dict[str, int]:
    ordered = sorted(groups, key=lambda g: _cluster_order_key(g, network))
    assignment: dict[str, int] = {}
    for index, group in enumerate(ordered):
        for node in group:
            assignment[node] = index
    return assignment


def detect_communities(network: CoCitationNetwork) -> ClusterPartition:
    """Greedy agglomerative modularity maximization on edge weights.

    A cluster is keyed by the position of its smallest member in the sorted ids
    of ``network_arrays``, so the tie rule "smallest canonical pair" compares
    ints in id order. Isolated nodes stay singletons.
    """
    if not network.nodes:
        raise ValidationError("network is empty")

    arrays = network_arrays(network)
    total_weight = sum(info.weight for info in network.edges.values())
    two_w = 2.0 * total_weight

    # Cluster state by key; links[i][j] is the weight between clusters i and j,
    # held in both rows (a merged-away cluster's row is empty). The weights are
    # integers, so their float sums are exact in any order.
    bounds, cols, weights = arrays.indptr.tolist(), arrays.cols.tolist(), arrays.weights.tolist()
    links = [dict(zip(cols[lo:hi], weights[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    strength = [sum(row.values()) for row in links]
    members = {i: {node} for i, node in enumerate(arrays.node_ids)}

    def gain(i: int, j: int) -> float:
        # Merging i and j changes Q by w_ij/W - s_i*s_j/(2W^2).
        return links[i][j] / total_weight - (strength[i] * strength[j]) / (two_w * total_weight)

    heap = [(-g, i, j) for i, row in enumerate(links) for j in row if i < j and (g := gain(i, j)) > 0]
    heapq.heapify(heap)
    while heap:
        neg_delta, keep, drop = heapq.heappop(heap)
        if drop not in links[keep] or -neg_delta != gain(keep, drop):
            continue  # stale entry
        members[keep] |= members.pop(drop)
        strength[keep] += strength[drop]
        row, dropped = links[keep], links[drop]
        links[drop] = {}
        del row[drop], dropped[keep]
        for other, weight in dropped.items():
            del links[other][drop]
            row[other] = links[other][keep] = row.get(other, 0.0) + weight
        for other in row:
            if (g := gain(keep, other)) > 0:
                heapq.heappush(heap, (-g, min(keep, other), max(keep, other)))

    partition = ClusterPartition(assignment=_renumber(list(members.values()), network))
    partition.modularity_q = modularity(network, partition.assignment)
    return partition


def modularity(network: CoCitationNetwork, assignment: dict[str, int | str]) -> float:
    """Weighted Newman modularity of a node->cluster assignment."""
    missing = [n for n in network.nodes if n not in assignment]
    if missing:
        raise ValidationError(f"partition missing {len(missing)} node(s), e.g. {missing[0]!r}")
    total_weight = sum(info.weight for info in network.edges.values())
    if total_weight == 0:
        return 0.0
    intra: dict = {}
    strength: dict = {}
    for (a, b), info in network.edges.items():
        ca, cb = assignment[a], assignment[b]
        strength[ca] = strength.get(ca, 0.0) + info.weight
        strength[cb] = strength.get(cb, 0.0) + info.weight
        if ca == cb:
            intra[ca] = intra.get(ca, 0.0) + info.weight
    q = 0.0
    for cluster in strength:
        w_c = intra.get(cluster, 0.0)
        s_c = strength[cluster]
        q += w_c / total_weight - (s_c / (2.0 * total_weight)) ** 2
    return q


@dataclass
class SilhouetteResult:
    node_scores: dict[str, float]
    cluster_scores: dict[int, float]
    mean: float  # unweighted mean over clusters


SILHOUETTE_BLOCK = 1 << 16  # (node, cluster) join entries held in memory at once


def silhouette(network: CoCitationNetwork, partition: ClusterPartition) -> SilhouetteResult:
    """Silhouette over co-citation profiles; distance = 1 - cosine similarity.

    Profiles are rows of the weighted adjacency matrix. A zero profile has
    cosine similarity 0 to everything (distance 1). Singleton clusters score
    0 by convention; a single-cluster partition scores 0 with a warning.
    Nodes outside the partition shape the profiles only.

    No n x n matrix is built. With U the unit profiles, one row per node, and
    C the one-hot cluster membership, dot[i, c] = sum over j in c of u_i . u_j
    is entry (i, c) of U (U^T C). S = U^T C is summed once over the links,
    S[m, c] = sum over j in c of u_j[m]; then each link (i, m) meets row m of
    S, in blocks of consecutive nodes of at most ``SILHOUETTE_BLOCK`` join
    entries (a node whose own join is larger is a block alone). Each block
    reduces to i's own-cluster dot, the least mean distance to another
    cluster it touches, and how many it touches. The mean distance from i to
    cluster c is (|c| - dot[i, c]) / |c|; a cluster no two-hop neighbour of i
    belongs to sits at distance exactly 1; a_i leaves out i's own term
    1 - u_i . u_i.
    Memory is O(links + block); time is O(sum over m of deg(m) times the
    clusters among m's neighbours).
    """
    clusters = partition.clusters()
    if len(clusters) < 2:
        warnings.warn("silhouette of a single-cluster partition is 0 by definition", stacklevel=2)
        node_scores = {n: 0.0 for n in sorted(network.nodes)}
        return SilhouetteResult(node_scores, {i: 0.0 for i in range(len(clusters))}, 0.0)

    import numpy as np

    arrays = network_arrays(network)
    n, k = len(arrays.node_ids), len(clusters)
    member_idx = [np.array(sorted(arrays.index[m] for m in c), dtype=np.intp) for c in clusters]
    sizes = np.array([len(idxs) for idxs in member_idx], dtype=float)
    cluster_of = np.full(n, -1, dtype=np.intp)
    for ci, idxs in enumerate(member_idx):
        cluster_of[idxs] = ci

    # Entry e of row m holds u_i[m] for its column i (the profile is symmetric).
    rows, cols, indptr = arrays.rows, arrays.cols, arrays.indptr
    norms = np.sqrt(np.bincount(rows, weights=arrays.weights**2, minlength=n))
    safe_norms = np.where(norms > 0, norms, 1.0)
    unit = arrays.weights / safe_norms[cols]
    self_dot = np.bincount(cols, weights=unit**2, minlength=n)

    # S as sorted (m, c) keys; columns outside the partition are dropped first,
    # or m * k - 1 would land on cluster k - 1 of row m - 1.
    member = cluster_of[cols] >= 0
    s_keys, s_inverse = np.unique(rows[member] * k + cluster_of[cols[member]], return_inverse=True)
    s_sum = np.bincount(s_inverse, weights=unit[member], minlength=len(s_keys))
    s_cluster = s_keys % k
    s_indptr = np.searchsorted(s_keys, np.arange(n + 1) * k)

    # Entry (i, m) of a partitioned row i meets the reach = |S row m| keys of row m.
    reach = np.where(cluster_of[rows] >= 0, np.diff(s_indptr)[cols], 0)
    before = np.concatenate([[0], np.cumsum(reach)])  # join entries before entry e
    row_start = before[indptr]  # join entries before row i
    own_dot = np.zeros(n)
    b = np.full(n, np.inf)
    touched = np.zeros(n, dtype=np.intp)
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(row_start, row_start[lo] + SILHOUETTE_BLOCK, side="right")) - 1
        hi = max(hi, lo + 1)
        e0, e1 = indptr[lo], indptr[hi]
        entry = np.repeat(np.arange(e0, e1), reach[e0:e1])
        s_pos = s_indptr[cols[entry]] + np.arange(len(entry)) - (before[entry] - before[e0])
        u_im = arrays.weights[entry] / safe_norms[rows[entry]]
        keys, inverse = np.unique((rows[entry] - lo) * k + s_cluster[s_pos], return_inverse=True)
        dot = np.bincount(inverse, weights=u_im * s_sum[s_pos], minlength=len(keys))
        key_node, key_cluster = lo + keys // k, keys % k

        own = key_cluster == cluster_of[key_node]
        own_dot[key_node[own]] = dot[own]
        other = ~own
        mean_other = (sizes[key_cluster[other]] - dot[other]) / sizes[key_cluster[other]]
        np.minimum.at(b, key_node[other], mean_other)
        touched[lo:hi] += np.bincount(key_node[other] - lo, minlength=hi - lo)
        lo = hi
    b = np.where(touched < k - 1, np.minimum(b, 1.0), b)  # an untouched cluster is at 1

    node_scores: dict[str, float] = {}
    cluster_scores: dict[int, float] = {}
    for ci, idxs in enumerate(member_idx):
        scores = []
        for i in idxs:
            if len(idxs) == 1:
                node_scores[arrays.node_ids[i]] = 0.0
                scores.append(0.0)
                continue
            a_i = float((len(idxs) - 1 - (own_dot[i] - self_dot[i])) / (len(idxs) - 1))
            b_i = float(b[i])
            denom = max(a_i, b_i)
            s_i = (b_i - a_i) / denom if denom > 0 else 0.0
            node_scores[arrays.node_ids[i]] = s_i
            scores.append(s_i)
        cluster_scores[ci] = sum(scores) / len(scores)
    mean = sum(cluster_scores.values()) / len(cluster_scores)
    return SilhouetteResult(node_scores, cluster_scores, mean)


def induced_subnetwork(network: CoCitationNetwork, members: set[str]) -> CoCitationNetwork:
    nodes = {n: info for n, info in network.nodes.items() if n in members}
    edges = {
        pair: info
        for pair, info in network.edges.items()
        if pair[0] in members and pair[1] in members
    }
    return CoCitationNetwork(nodes, edges, network.config)


def sub_cluster(
    parent_members: set[str], network: CoCitationNetwork, parent_index: int
) -> ClusterPartition:
    """Re-cluster a parent cluster's induced subgraph (original weights); ``clusters.json``
    holds the result under the ``level2`` key ``str(parent_index)``."""
    if len(parent_members) >= 3:
        return detect_communities(induced_subnetwork(network, parent_members))
    warnings.warn(
        f"cluster #{parent_index} has fewer than 3 members; returning one sub-cluster",
        stacklevel=2,
    )
    return ClusterPartition(assignment={n: 0 for n in parent_members}, modularity_q=0.0)


def top_citing_articles(
    cited_by: Mapping[str, int], store: RecordStore, k: int
) -> list[tuple[str, int, int]]:
    """The first k citers of a cluster's citer table (``labeling.cited_by``),
    ranked by distinct members cited; ties by citation count, then id.

    Returns (citer id, members cited, citation count) triples.
    """
    ranked = sorted(
        cited_by.items(), key=lambda item: (-item[1], -store.citation_count(item[0]), item[0])
    )
    return [(citer, count, store.citation_count(citer)) for citer, count in ranked[:k]]


def partition_to_csv(partition: ClusterPartition, silhouettes: SilhouetteResult | None) -> str:
    """CSV export: one row per node with its cluster and silhouette."""
    scores = silhouettes.node_scores if silhouettes else {}
    return csv_text([("node", "cluster", "silhouette")] + [
        (node, partition.assignment[node], f"{scores.get(node, 0.0):.6f}")
        for node in sorted(partition.assignment)
    ])
