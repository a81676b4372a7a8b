"""Time-sliced document co-citation networks.

Dataset members act as citers; the references they cite become network nodes.
Per year slice, the top-N most cited citers are selected; each selected citer
contributes the unordered pairs of its references that pass the look-back
filter. Edge weight counts distinct co-citing citers; each edge remembers the
earliest year it was co-cited. A link-to-node-ratio bound prunes the weakest
edges of the merged network.

Cost: one grouping pass places each dated member under its slice start with
its citation count, read once. Each selected citer's eligible references are
sorted once into its pairs. A counter of the pairs gives the weights; with the
citers taken latest year first, one dict update per citer leaves each pair its
earliest year. Pairs of equal weight and year share one ``EdgeInfo``. Node
counts take one pass over the members' references. Pruning, only when the
link-to-node bound is exceeded, groups the links by strength and sorts only
the group the bound cuts through. So building a network costs
O(members x references + pairs), with no rescan of the dataset per slice.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, fields
from itertools import chain, combinations
from json.encoder import encode_basestring_ascii as _json_string
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import EmptyDatasetError, ValidationError
from .records import Dataset, RecordStore, _typed, json_text, xml_attribute, xml_text

if TYPE_CHECKING:
    import numpy as np


@dataclass
class NetworkConfig:
    """Knobs for network construction.

    ``lby`` (look-back years) bounds how much older than its citer a reference
    may be to participate; None disables the bound.
    """

    lrf: float = 4.0
    lby: int | None = 10
    min_citations: int = 1
    top_n: int = 100
    slice_years: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.lrf) or self.lrf <= 0:
            raise ValidationError("lrf must be a finite positive number")
        if self.lby is not None and self.lby < 1:
            raise ValidationError("lby must be >= 1 when set")
        if self.top_n < 1 or self.slice_years < 1:
            raise ValidationError("top_n and slice_years must be >= 1")
        if self.min_citations < 0:
            raise ValidationError("min_citations must be >= 0")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "NetworkConfig":
        """The fields ``data`` holds, over the defaults; a ValueError unless ``lrf`` is a
        number, ``lby`` an integer or null and every other field an integer."""
        kinds = {"lrf": "a number", "lby": "an integer or null"}
        return cls(**{
            f.name: _typed(data[f.name], kinds.get(f.name, "an integer"), f"config {f.name}")
            for f in fields(cls) if f.name in data
        })


class NodeInfo(NamedTuple):
    count: int  # citations within the dataset
    year: int  # first year cited within the dataset


class EdgeInfo(NamedTuple):
    weight: int
    first_cocited_year: int


@dataclass
class SliceInfo:
    start: int
    end: int
    citer_ids: list[str]


def canonical_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class CoCitationNetwork:
    """Weighted undirected network over cited references.

    Equality compares the node and edge maps (the structural content);
    config and slice metadata ride along for provenance.
    """

    def __init__(
        self,
        nodes: dict[str, NodeInfo],
        edges: dict[tuple[str, str], EdgeInfo],
        config: NetworkConfig,
        slices: list[SliceInfo] | None = None,
    ):
        self.nodes = nodes
        self.edges = edges
        self.config = config
        self.slices = slices or []

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoCitationNetwork):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __len__(self) -> int:
        return len(self.nodes)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> Iterator[str]:
        """The rows of the network as ``json_text`` lays it out (one line, sorted keys,
        ASCII escapes, final newline): config, then the edges and nodes sorted, then the
        slices. One template string per row; ``tests/test_cocitation.py`` holds the
        ``json_text`` of the dict form as the byte oracle."""
        config = json_text(self.config.to_json_dict()).rstrip("\n")
        yield f'{{"config": {config}, "edges": '
        yield from _json_list(
            f'{{"first_cocited_year": {info.first_cocited_year}, "source": {_json_string(a)}, '
            f'"target": {_json_string(b)}, "weight": {info.weight}}}'
            for (a, b), info in _sorted_items(self.edges)
        )
        yield ', "nodes": '
        yield from _json_list(
            f'{{"count": {info.count}, "id": {_json_string(n)}, "year": {info.year}}}'
            for n, info in _sorted_items(self.nodes)
        )
        yield ', "slices": '
        yield from _json_list(
            f'{{"citers": {"".join(_json_list(map(_json_string, s.citer_ids)))}, '
            f'"end": {s.end}, "start": {s.start}}}'
            for s in self.slices
        )
        yield "}\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoCitationNetwork":
        """The network ``data`` holds; a ValueError when a field is not of its kind (a node
        count or an edge weight must be an integer >= 1, slice citers a list of strings),
        an edge names a node it does not list, or an edge joins a node to itself."""
        nodes = {
            _typed(n["id"], "a string", "node id"):
                NodeInfo(_typed(n["count"], "an integer >= 1", "node count"),
                         _typed(n["year"], "an integer", "node year"))
            for n in data["nodes"]
        }
        edges = {
            canonical_pair(e["source"], e["target"]): EdgeInfo(
                _typed(e["weight"], "an integer >= 1", "edge weight"),
                _typed(e["first_cocited_year"], "an integer", "first_cocited_year"),
            )
            for e in data["edges"]
        }
        unknown = {node for pair in edges for node in pair} - nodes.keys()
        if unknown:
            raise ValueError(f"edge endpoint {min(unknown)!r} is not a node")
        loops = [a for a, b in edges if a == b]
        if loops:
            raise ValueError(f"edge from {min(loops)!r} to itself")
        slices = [
            SliceInfo(
                _typed(s["start"], "an integer", "slice start"), _typed(s["end"], "an integer", "slice end"),
                _typed(s["citers"], "a list of strings", "slice citers"),
            )
            for s in data.get("slices", [])
        ]
        return cls(nodes, edges, NetworkConfig.from_json_dict(data.get("config", {})), slices)

    def to_graphml(self) -> Iterator[str]:
        """The rows of the network as GraphML, byte for byte as ``xml.etree`` writes it after
        ``indent`` (two-space indent, ``" />"`` for an empty element, attribute
        values escaped like its ``_escape_attrib``): keys, then the config, the nodes
        and the edges sorted. One template string per row; ``tests/test_cocitation.py``
        holds the element-tree writer as the byte oracle."""
        config = xml_text(json.dumps(self.config.to_json_dict(), sort_keys=True))
        escaped = {n: xml_attribute(n) for n in self.nodes}  # once per node, not per edge endpoint
        yield _GRAPHML_HEAD + f'    <data key="d4">{config}</data>\n'
        for n, info in _sorted_items(self.nodes):
            yield (f'    <node id="{escaped[n]}">\n'
                   f'      <data key="d0">{info.count}</data>\n'
                   f'      <data key="d1">{info.year}</data>\n    </node>\n')
        for (a, b), info in _sorted_items(self.edges):
            yield (f'    <edge source="{escaped[a]}" target="{escaped[b]}">\n'
                   f'      <data key="d2">{info.weight}</data>\n'
                   f'      <data key="d3">{info.first_cocited_year}</data>\n    </edge>\n')
        yield "  </graph>\n</graphml>\n"


_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
    '  <key id="d0" for="node" attr.name="count" attr.type="int" />\n'
    '  <key id="d1" for="node" attr.name="year" attr.type="int" />\n'
    '  <key id="d2" for="edge" attr.name="weight" attr.type="double" />\n'
    '  <key id="d3" for="edge" attr.name="first_cocited_year" attr.type="int" />\n'
    '  <key id="d4" for="graph" attr.name="config" attr.type="string" />\n'
    '  <graph id="cocitation" edgedefault="undirected">\n'
)


def _sorted_items(mapping: dict) -> Iterator[tuple]:
    """The items of ``mapping`` in key order; only the keys are sorted, into one list."""
    return ((key, mapping[key]) for key in sorted(mapping))


def _json_list(rows: Iterable[str]) -> Iterator[str]:
    """The chunks of a JSON list of laid-out rows."""
    separator = "["
    for row in rows:
        yield separator + row
        separator = ", "
    yield "[]" if separator == "[" else "]"


class NetworkArrays(NamedTuple):
    """The weighted adjacency in compressed sparse rows over sorted node ids.

    Every link appears once per direction, ordered by row
    then column, so ``cols[indptr[i]:indptr[i + 1]]`` and the matching
    ``weights`` are node i's co-citation profile.
    """

    node_ids: list[str]
    index: dict[str, int]
    indptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray


def network_arrays(network: CoCitationNetwork) -> NetworkArrays:
    """Sorted-id index and symmetric edge arrays; O(links) time and memory."""
    import numpy as np

    node_ids = sorted(network.nodes)
    index = {n: i for i, n in enumerate(node_ids)}
    m = len(network.edges)
    a = np.fromiter((index[a] for a, _b in network.edges), dtype=np.intp, count=m)
    b = np.fromiter((index[b] for _a, b in network.edges), dtype=np.intp, count=m)
    w = np.fromiter((info.weight for info in network.edges.values()), dtype=float, count=m)
    rows = np.concatenate([a, b])
    cols = np.concatenate([b, a])
    weights = np.concatenate([w, w])
    order = np.lexsort((cols, rows))
    rows, cols, weights = rows[order], cols[order], weights[order]
    indptr = np.zeros(len(node_ids) + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=len(node_ids)), out=indptr[1:])
    return NetworkArrays(node_ids, index, indptr, rows, cols, weights)


# -- construction --------------------------------------------------------------


def slice_citers(
    dataset: Dataset, store: RecordStore, config: NetworkConfig
) -> list[tuple[tuple[int, int], list[str]]]:
    """Partition the dataset into year slices and pick each slice's top citers.

    Members without a year cannot be placed in a slice and are skipped with a
    warning. Slices of ``slice_years`` years start at the earliest member year;
    a slice without members is left out. Within a slice, citers at or above
    ``min_citations`` are ranked by citation count descending (ties: id
    ascending); the top_n survive.
    """
    if not dataset.member_ids:
        raise EmptyDatasetError(f"dataset {dataset.name!r} is empty")
    years: dict[str, int] = {}
    skipped = 0
    for pub_id in dataset.member_ids:
        record = store.get(pub_id)
        if record is None or record.year is None:
            skipped += 1
            continue
        years[pub_id] = record.year
    if skipped:
        warnings.warn(f"{skipped} dataset member(s) without a usable year skipped", stacklevel=2)
    if not years:
        return []

    lo, width = min(years.values()), config.slice_years
    ranked: dict[int, list[tuple[int, str]]] = {}  # slice start -> (-count, id) of its members
    for pub_id, year in years.items():
        start = lo + (year - lo) // width * width
        ranked.setdefault(start, []).append((-store.citation_count(pub_id), pub_id))
    slices = []
    for start in sorted(ranked):
        qualified = [p for negative, p in sorted(ranked[start]) if -negative >= config.min_citations]
        slices.append(((start, start + width - 1), qualified[: config.top_n]))
    return slices


def cocite_pairs(
    citer_id: str, store: RecordStore, config: NetworkConfig
) -> set[tuple[str, str]]:
    """Unordered reference pairs a citer contributes, after the look-back filter.

    A reference participates only when its year is known, not after the
    citer's, and within ``lby`` years before it. Each pair is sorted, as the
    network's edge keys are.
    """
    citer = store.record(citer_id)
    year = citer.year
    if year is None:
        return set()
    earliest = -math.inf if config.lby is None else year - config.lby
    eligible = []
    for ref in citer.reference_ids:
        record = store.get(ref)  # None: a reference the store does not hold
        if record is not None and record.year is not None and earliest <= record.year <= year:
            eligible.append(ref)
    return set(combinations(sorted(eligible), 2))


def build_network(
    dataset: Dataset, store: RecordStore, config: NetworkConfig
) -> CoCitationNetwork:
    """Aggregate co-citation pairs over all selected citers, then prune.

    Edge weight = number of distinct citers co-citing the pair;
    first_cocited_year = earliest such citer's year. Node attributes count
    citations from all dataset members (not just selected citers). Pruning
    applies one link-to-node ratio to the merged network.
    """
    slices = slice_citers(dataset, store, config)

    # Each selected citer lies in exactly one slice. The citers go latest year
    # first, so the last year a pair is written with is its earliest.
    citers = sorted(
        ((store.record(citer_id).year, citer_id) for _interval, ids in slices for citer_id in ids),
        key=itemgetter(0), reverse=True,
    )
    weights: Counter[tuple[str, str]] = Counter()
    first_year: dict[tuple[str, str], int] = {}
    for year, citer_id in citers:
        pairs = cocite_pairs(citer_id, store, config)
        weights.update(pairs)
        first_year.update(dict.fromkeys(pairs, year))

    def infos():  # each pair's (weight, first year), in the order of ``weights``
        return zip(weights.values(), map(first_year.__getitem__, weights))

    # Few (weight, year) values occur: the pairs of one value share one EdgeInfo.
    shared = {info: EdgeInfo(*info) for info in set(infos())}
    edges = dict(zip(weights, map(shared.__getitem__, infos())))
    if not edges:
        warnings.warn(f"dataset {dataset.name!r} produced no co-citation pairs", stacklevel=2)

    # Every node is cited by a selected citer, a dated member, so it gets a first
    # year. The dated members go latest year first, as the citers above.
    members = [member for member in map(store.get, dataset.member_ids) if member is not None]
    cited: Counter[str] = Counter()
    first: dict[str, int] = {}
    for member in members:
        cited.update(member.reference_ids)
    for member in sorted((m for m in members if m.year is not None), key=attrgetter("year"), reverse=True):
        first.update(dict.fromkeys(member.reference_ids, member.year))
    nodes = {n: NodeInfo(cited[n], first[n]) for n in dict.fromkeys(chain.from_iterable(edges))}
    network = CoCitationNetwork(nodes, edges, config, [SliceInfo(s, e, c) for (s, e), c in slices])
    return prune_links(network, config.lrf)


def prune_links(network: CoCitationNetwork, lrf: float) -> CoCitationNetwork:
    """Keep at most floor(lrf × |nodes|) strongest edges.

    Strength order: weight descending, then earlier first co-citation year,
    then lexicographic pair. Nodes isolated by pruning stay in the network.
    ``lrf`` is required. The result shares the node map, the slices and, when
    nothing is pruned, the edge map with ``network``.
    """
    bound = lrf * len(network.nodes)  # may overflow to inf: compared before it is floored
    edges = network.edges
    if len(edges) > bound:
        # Edges of equal strength form one group; only the group the bound cuts
        # through is sorted by pair.
        groups: dict[EdgeInfo, list[tuple[str, str]]] = {}
        for pair, info in edges.items():
            groups.setdefault(info, []).append(pair)
        room, kept = math.floor(bound), []
        for info in sorted(groups, key=lambda info: (-info.weight, info.first_cocited_year)):
            pairs = groups[info]
            if len(pairs) >= room:
                kept += sorted(pairs)[:room]
                break
            kept += pairs
            room -= len(pairs)
        edges = {pair: edges[pair] for pair in kept}
    return CoCitationNetwork(network.nodes, edges, network.config, network.slices)


# -- component analysis ---------------------------------------------------------


def components(network: CoCitationNetwork) -> list[list[str]]:
    """The connected components, each a sorted id list, largest first (ties:
    smallest id); an isolated node is a component of its own.

    Union-find with path halving over the links; no adjacency map is built.
    """
    parent = {node: node for node in network.nodes}

    def root(node: str) -> str:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for a, b in network.edges:
        parent[root(a)] = root(b)
    members: dict[str, list[str]] = {}
    for node in sorted(network.nodes):
        members.setdefault(root(node), []).append(node)
    return sorted(members.values(), key=lambda c: (-len(c), c[0]))


def round_half_up(value: float) -> int:
    return math.floor(value + 0.5)


@dataclass
class NetworkStats:
    nodes: int
    edges: int
    lcc_size: int
    lcc_pct: int  # round-half-up, as printed in reports
    lcc_pct_floor: int  # truncated variant, reported alongside

    @classmethod
    def from_json_dict(cls, data: dict) -> "NetworkStats":
        """The counts ``data`` holds; a ValueError unless each is an integer."""
        return cls(**{f.name: _typed(data[f.name], "an integer", f"count {f.name}") for f in fields(cls)})


def network_stats(network: CoCitationNetwork) -> NetworkStats:
    n, m = len(network.nodes), len(network.edges)
    if n == 0:
        return NetworkStats(0, 0, 0, 0, 0)
    lcc = len(components(network)[0])
    exact = 100.0 * lcc / n
    return NetworkStats(n, m, lcc, round_half_up(exact), math.floor(exact))
