"""Co-citation networks: slicing, pair counting oracle, pruning, LCC, round-trips."""

from __future__ import annotations

import json
import math
import random
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citecascade.cocitation import (
    CoCitationNetwork,
    EdgeInfo,
    NetworkConfig,
    NodeInfo,
    SliceInfo,
    build_network,
    canonical_pair,
    cocite_pairs,
    components,
    network_arrays,
    network_stats,
    prune_links,
    slice_citers,
)
from citecascade.errors import EmptyDatasetError, ValidationError
from citecascade.records import Dataset, json_text

from conftest import make_record, make_store


def loose_config(**overrides) -> NetworkConfig:
    """A config that keeps everything: no pruning bite, no selection bite."""
    params = dict(lrf=10**9, lby=None, min_citations=0, top_n=10**6, slice_years=1)
    params.update(overrides)
    return NetworkConfig(**params)


def cocite_corpus(rng: random.Random, n_citers: int, n_refs: int):
    """Citers (1990-2020) each citing a random set of dated references."""
    records = [
        make_record(f"ref{j:03d}", year=rng.randint(1950, 2015)) for j in range(n_refs)
    ]
    citer_ids = []
    for i in range(n_citers):
        refs = sorted(rng.sample(range(n_refs), rng.randint(0, min(8, n_refs))))
        records.append(
            make_record(
                f"cit{i:03d}",
                year=rng.randint(1990, 2020),
                refs=[f"ref{j:03d}" for j in refs],
                count=rng.randint(0, 30),
            )
        )
        citer_ids.append(f"cit{i:03d}")
    store = make_store(records)
    return store, Dataset("corpus", set(citer_ids))


def connected_components_traversal(network: CoCitationNetwork) -> list[set[str]]:
    """Components by breadth-first traversal; independent check on the union-find."""
    neighbors: dict[str, set[str]] = {node: set() for node in network.nodes}
    for a, b in network.edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    seen: set[str] = set()
    found: list[set[str]] = []
    for start in network.nodes:
        if start in seen:
            continue
        seen.add(start)
        component, frontier = {start}, {start}
        while frontier:
            frontier = {m for node in frontier for m in neighbors[node]} - seen
            seen.update(frontier)
            component.update(frontier)
        found.append(component)
    return found


def assert_lcc_matches_union_find(network: CoCitationNetwork) -> None:
    """The dual LCC check: the union-find components and the LCC that
    ``network_stats`` reads from them, against the traversal.

    Components are sorted id lists, largest first (ties: smallest id); the
    LCC is the first, its share rounded half up to an integer percent.
    """
    by_traversal = sorted((sorted(c) for c in connected_components_traversal(network)),
                          key=lambda c: (-len(c), c[0]))
    assert components(network) == by_traversal
    best = by_traversal[0]
    stats = network_stats(network)
    assert stats.lcc_size == len(best)
    assert stats.lcc_pct == math.floor(100.0 * len(best) / len(network.nodes) + 0.5)


def network_from_graphml(text: str) -> CoCitationNetwork:
    """Independent GraphML reader: checks that the export carries the whole network."""

    def local(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]

    root = ET.fromstring(text)
    key_names: dict[str, str] = {}
    graph_el = None
    for child in root:
        if local(child.tag) == "key":
            key_names[child.attrib["id"]] = child.attrib.get("attr.name", child.attrib["id"])
        elif local(child.tag) == "graph":
            graph_el = child
    assert graph_el is not None, "graphml has no <graph> element"

    def data_of(el) -> dict[str, str]:
        return {
            key_names.get(d.attrib["key"], d.attrib["key"]): (d.text or "")
            for d in el
            if local(d.tag) == "data"
        }

    config = NetworkConfig()
    nodes: dict[str, NodeInfo] = {}
    edges: dict[tuple[str, str], EdgeInfo] = {}
    graph_data = data_of(graph_el)
    if graph_data.get("config"):
        config = NetworkConfig.from_json_dict(json.loads(graph_data["config"]))
    for el in graph_el:
        tag = local(el.tag)
        if tag == "node":
            values = data_of(el)
            nodes[el.attrib["id"]] = NodeInfo(int(values["count"]), int(values["year"]))
        elif tag == "edge":
            values = data_of(el)
            pair = canonical_pair(el.attrib["source"], el.attrib["target"])
            edges[pair] = EdgeInfo(int(values["weight"]), int(values["first_cocited_year"]))
    return CoCitationNetwork(nodes, edges, config)


def reference_json(network: CoCitationNetwork) -> str:
    """The network JSON as it was first written: ``json_text`` of the dict form.
    ``to_json`` must equal it byte for byte."""
    return json_text({
        "config": network.config.to_json_dict(),
        "nodes": [
            {"id": n, "count": info.count, "year": info.year}
            for n, info in sorted(network.nodes.items())
        ],
        "edges": [
            {"source": a, "target": b, "weight": info.weight,
             "first_cocited_year": info.first_cocited_year}
            for (a, b), info in sorted(network.edges.items())
        ],
        "slices": [
            {"start": s.start, "end": s.end, "citers": list(s.citer_ids)} for s in network.slices
        ],
    })


def reference_graphml(network: CoCitationNetwork) -> str:
    """The GraphML as the element-tree writer laid it out (built, indented, then
    serialised). ``to_graphml`` must equal it byte for byte."""
    root = ET.Element("graphml", {"xmlns": "http://graphml.graphdrawing.org/xmlns"})
    for key_id, target, name, attr_type in (
        ("d0", "node", "count", "int"),
        ("d1", "node", "year", "int"),
        ("d2", "edge", "weight", "double"),
        ("d3", "edge", "first_cocited_year", "int"),
        ("d4", "graph", "config", "string"),
    ):
        ET.SubElement(
            root, "key", {"id": key_id, "for": target, "attr.name": name, "attr.type": attr_type}
        )
    graph = ET.SubElement(root, "graph", {"id": "cocitation", "edgedefault": "undirected"})
    ET.SubElement(graph, "data", {"key": "d4"}).text = json.dumps(
        network.config.to_json_dict(), sort_keys=True
    )
    for node_id, info in sorted(network.nodes.items()):
        node_el = ET.SubElement(graph, "node", {"id": node_id})
        ET.SubElement(node_el, "data", {"key": "d0"}).text = str(info.count)
        ET.SubElement(node_el, "data", {"key": "d1"}).text = str(info.year)
    for (a, b), info in sorted(network.edges.items()):
        edge_el = ET.SubElement(graph, "edge", {"source": a, "target": b})
        ET.SubElement(edge_el, "data", {"key": "d2"}).text = str(info.weight)
        ET.SubElement(edge_el, "data", {"key": "d3"}).text = str(info.first_cocited_year)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


def brute_force_pairs(store, citer_ids, lby):
    """Independent pair-count: scan every reference pair of every citer."""
    weight: dict[tuple[str, str], int] = {}
    first: dict[tuple[str, str], int] = {}
    for citer_id in citer_ids:
        citer = store.record(citer_id)
        eligible = []
        for ref in citer.reference_ids:
            if ref not in store:
                continue
            ref_year = store.record(ref).year
            if ref_year is None or ref_year > citer.year:
                continue
            if lby is not None and citer.year - ref_year > lby:
                continue
            eligible.append(ref)
        for a, b in combinations(sorted(set(eligible)), 2):
            pair = canonical_pair(a, b)
            weight[pair] = weight.get(pair, 0) + 1
            if pair not in first or citer.year < first[pair]:
                first[pair] = citer.year
    return weight, first


# The construction as it stood before each stage became one pass: a rescan of
# the members per slice, two parallel pair maps and a copying prune. The new
# code must write the same bytes and warn the same warnings.


def reference_slice_citers(dataset, store, config):
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

    lo, hi = min(years.values()), max(years.values())
    slices: list[tuple[tuple[int, int], list[str]]] = []
    start = lo
    while start <= hi:
        end = start + config.slice_years - 1
        members = [p for p, y in years.items() if start <= y <= end]
        qualified = [p for p in members if store.citation_count(p) >= config.min_citations]
        ranked = sorted(qualified, key=lambda p: (-store.citation_count(p), p))
        selected = ranked[: config.top_n]
        if members:
            slices.append(((start, end), selected))
        start = end + 1
    return slices


def reference_cocite_pairs(citer_id, store, config):
    citer = store.record(citer_id)
    if citer.year is None:
        return set()
    eligible = []
    for ref in store.get_references(citer_id):
        ref_year = store.record(ref).year
        if ref_year is None or ref_year > citer.year:
            continue
        if config.lby is not None and citer.year - ref_year > config.lby:
            continue
        eligible.append(ref)
    return {canonical_pair(a, b) for a, b in combinations(sorted(eligible), 2)}


def reference_build_network(dataset, store, config):
    if not dataset.member_ids:
        raise EmptyDatasetError(f"dataset {dataset.name!r} is empty")
    slices = reference_slice_citers(dataset, store, config)

    pair_weight: dict[tuple[str, str], int] = {}
    pair_year: dict[tuple[str, str], int] = {}
    for _interval, citers in slices:
        for citer_id in citers:
            citer_year = store.record(citer_id).year
            for pair in reference_cocite_pairs(citer_id, store, config):
                pair_weight[pair] = pair_weight.get(pair, 0) + 1
                if pair not in pair_year or citer_year < pair_year[pair]:
                    pair_year[pair] = citer_year

    if not pair_weight:
        warnings.warn(f"dataset {dataset.name!r} produced no co-citation pairs", stacklevel=2)
        return CoCitationNetwork({}, {}, config, [SliceInfo(s[0][0], s[0][1], s[1]) for s in slices])

    node_ids = {n for pair in pair_weight for n in pair}
    node_count: dict[str, int] = {n: 0 for n in node_ids}
    node_first: dict[str, int | None] = {n: None for n in node_ids}
    for member_id in sorted(dataset.member_ids):
        member = store.get(member_id)
        if member is None:
            continue
        for ref in member.reference_ids:
            if ref in node_ids:
                node_count[ref] += 1
                if member.year is not None and (
                    node_first[ref] is None or member.year < node_first[ref]
                ):
                    node_first[ref] = member.year

    nodes = {
        n: NodeInfo(node_count[n], node_first[n] if node_first[n] is not None else 0)
        for n in node_ids
    }
    edges = {pair: EdgeInfo(pair_weight[pair], pair_year[pair]) for pair in pair_weight}
    network = CoCitationNetwork(
        nodes, edges, config, [SliceInfo(s[0][0], s[0][1], s[1]) for s in slices]
    )
    return reference_prune_links(network, config.lrf)


def reference_prune_links(network, lrf=None):
    ratio = network.config.lrf if lrf is None else lrf
    bound = ratio * len(network.nodes)
    if len(network.edges) <= bound:
        return CoCitationNetwork(
            dict(network.nodes), dict(network.edges), network.config, list(network.slices)
        )
    ranked = sorted(
        network.edges.items(),
        key=lambda item: (-item[1].weight, item[1].first_cocited_year, item[0]),
    )
    kept = dict(ranked[: math.floor(bound)])
    return CoCitationNetwork(dict(network.nodes), kept, network.config, list(network.slices))


def network_from_edges(edge_spec: dict[tuple[str, str], tuple[int, int]]) -> CoCitationNetwork:
    nodes = {}
    edges = {}
    for (a, b), (weight, year) in edge_spec.items():
        pair = canonical_pair(a, b)
        edges[pair] = EdgeInfo(weight, year)
        for node in pair:
            nodes.setdefault(node, NodeInfo(1, 2000))
    return CoCitationNetwork(nodes, edges, loose_config())


@st.composite
def cocitation_worlds(draw):
    """A store, a dataset and a config as the network command may meet them: tied
    citation counts, members without a year or missing from the store, references
    to undated, future and unstored records, and a config whose pruning bites on
    tied weights and years."""
    pool = [f"p{i:02d}" for i in range(draw(st.integers(4, 16)))]
    unstored = draw(st.sets(st.sampled_from(pool), max_size=2))
    records = [
        make_record(
            p,
            year=draw(st.sampled_from([None, *range(1995, 2004)])),
            refs=draw(st.lists(st.sampled_from(pool), min_size=2, max_size=7, unique=True)),
            count=draw(st.sampled_from([None, None, 0, 1, 2, 3])),
        )
        for p in pool
        if p not in unstored
    ]
    dataset = Dataset("d", set(pool) - draw(st.sets(st.sampled_from(pool), max_size=4)))
    config = NetworkConfig(
        lrf=draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 4.0, 10**9])),
        lby=draw(st.sampled_from([None, 1, 3])),
        min_citations=draw(st.integers(0, 2)),
        top_n=draw(st.integers(1, 5)),
        slice_years=draw(st.integers(1, 4)),
    )
    return make_store(records), dataset, config


def construction_outcome(build, dataset, store, config):
    """The bytes ``build`` writes and the warnings it gives, or the error it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            network = build(dataset, store, config)
            result = ("".join(network.to_json()), "".join(network.to_graphml()))
        except EmptyDatasetError as exc:
            result = repr(exc)
    return result, [(w.category, str(w.message)) for w in caught]


class TestSliceCiters:
    def test_hand_ranked_top3_with_tie_rule(self):
        counts = {"a": 9, "b": 7, "c": 7, "d": 2, "e": 0}
        store = make_store(
            [make_record(p, year=2005, count=n) for p, n in counts.items()]
        )
        dataset = Dataset("d", set(counts))
        config = loose_config(top_n=3, min_citations=1)
        slices = slice_citers(dataset, store, config)
        assert len(slices) == 1
        interval, selected = slices[0]
        assert interval == (2005, 2005)
        assert selected == ["a", "b", "c"]  # 9 first, tie 7/7 by id

    def test_topn_above_slice_size_keeps_all_qualifying(self):
        store = make_store([make_record(f"p{i}", year=2000, count=5) for i in range(4)])
        dataset = Dataset("d", {f"p{i}" for i in range(4)})
        slices = slice_citers(dataset, store, loose_config(top_n=100, min_citations=1))
        assert len(slices[0][1]) == 4

    def test_min_citations_excludes_zero_count(self):
        store = make_store(
            [make_record("cited", year=2000, count=1), make_record("uncited", year=2000, count=0)]
        )
        dataset = Dataset("d", {"cited", "uncited"})
        slices = slice_citers(dataset, store, loose_config(min_citations=1))
        assert slices[0][1] == ["cited"]

    def test_slices_cover_range_consecutively(self):
        store = make_store(
            [make_record(f"p{y}", year=y, count=1) for y in (2000, 2001, 2004)]
        )
        dataset = Dataset("d", {"p2000", "p2001", "p2004"})
        slices = slice_citers(dataset, store, loose_config(slice_years=2))
        assert [s[0] for s in slices] == [(2000, 2001), (2004, 2005)]

    def test_unknown_year_members_skipped_with_warning(self):
        store = make_store(
            [make_record("dated", year=2000, count=1), make_record("undated", year=None, count=1)]
        )
        dataset = Dataset("d", {"dated", "undated"})
        with pytest.warns(UserWarning, match="without a usable year"):
            slices = slice_citers(dataset, store, loose_config())
        assert slices[0][1] == ["dated"]

    def test_empty_dataset_errors(self):
        with pytest.raises(EmptyDatasetError):
            slice_citers(Dataset("d", set()), make_store([]), loose_config())


class TestCocitePairs:
    def _world(self, citer_year, ref_years, lby):
        records = [
            make_record(f"r{i}", year=y) for i, y in enumerate(ref_years)
        ]
        records.append(
            make_record("c", year=citer_year, refs=[f"r{i}" for i in range(len(ref_years))])
        )
        return make_store(records), NetworkConfig(
            lrf=4, lby=lby, min_citations=0, top_n=10, slice_years=1
        )

    def test_both_in_window_pair(self):
        store, config = self._world(2010, [2005, 2008], 10)
        assert cocite_pairs("c", store, config) == {("r0", "r1")}

    def test_too_old_reference_filtered(self):
        # 2010 - 1995 = 15 > 10, so the pair collapses.
        store, config = self._world(2010, [1995, 2008], 10)
        assert cocite_pairs("c", store, config) == set()

    def test_future_reference_filtered(self):
        store, config = self._world(2010, [2012, 2008], 10)
        assert cocite_pairs("c", store, config) == set()

    def test_four_eligible_refs_give_six_pairs(self):
        store, config = self._world(2010, [2004, 2006, 2008, 2009], 10)
        assert len(cocite_pairs("c", store, config)) == 6

    def test_unbounded_lby_keeps_old_references(self):
        store, config = self._world(2010, [1950, 2008], None)
        assert cocite_pairs("c", store, config) == {("r0", "r1")}


class TestBuildNetwork:
    def test_two_citers_one_edge_weight_two(self):
        records = [
            make_record("a", year=1998),
            make_record("b", year=1999),
            make_record("c1", year=2001, refs=["a", "b"], count=1),
            make_record("c2", year=2003, refs=["a", "b"], count=1),
        ]
        store = make_store(records)
        network = build_network(Dataset("d", {"c1", "c2"}), store, loose_config())
        assert set(network.edges) == {("a", "b")}
        assert network.edges[("a", "b")] == EdgeInfo(weight=2, first_cocited_year=2001)

    def test_single_citer_triangle_weights_one(self):
        records = [make_record(r, year=2000) for r in ("a", "b", "c")]
        records.append(make_record("citer", year=2005, refs=["a", "b", "c"], count=1))
        store = make_store(records)
        network = build_network(Dataset("d", {"citer"}), store, loose_config())
        assert set(network.edges) == {("a", "b"), ("a", "c"), ("b", "c")}
        assert all(e.weight == 1 for e in network.edges.values())

    def test_node_attributes_count_whole_dataset(self):
        # c3 cites only "a" and is not co-citing, but still counts toward a's total.
        records = [
            make_record("a", year=1990),
            make_record("b", year=1991),
            make_record("c1", year=2000, refs=["a", "b"], count=1),
            make_record("c2", year=2001, refs=["a", "b"], count=1),
            make_record("c3", year=1995, refs=["a"], count=1),
        ]
        store = make_store(records)
        network = build_network(Dataset("d", {"c1", "c2", "c3"}), store, loose_config())
        assert network.nodes["a"] == NodeInfo(count=3, year=1995)
        assert network.nodes["b"] == NodeInfo(count=2, year=2000)

    def test_zero_pairs_empty_network_with_warning(self):
        store = make_store([make_record("solo", year=2000, refs=[], count=1)])
        with pytest.warns(UserWarning, match="no co-citation pairs"):
            network = build_network(Dataset("d", {"solo"}), store, loose_config())
        assert len(network.nodes) == 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), lby=st.sampled_from([2, 5, 10, None]))
    def test_bruteforce_pair_oracle(self, seed, lby):
        rng = random.Random(seed)
        store, dataset = cocite_corpus(rng, n_citers=40, n_refs=25)
        config = loose_config(lby=lby)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a tight lby may leave zero pairs
            network = build_network(dataset, store, config)
        weight, first = brute_force_pairs(store, sorted(dataset.member_ids), lby)
        assert {p: e.weight for p, e in network.edges.items()} == weight
        assert {p: e.first_cocited_year for p, e in network.edges.items()} == first

    @settings(max_examples=300, deadline=None)
    @given(world=cocitation_worlds())
    @example(world=(make_store([]), Dataset("d", set()), NetworkConfig()))
    def test_same_bytes_and_warnings_as_the_reference_construction(self, world):
        store, dataset, config = world
        assert construction_outcome(build_network, dataset, store, config) == construction_outcome(
            reference_build_network, dataset, store, config
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_lby_monotonicity(self, seed):
        rng = random.Random(seed)
        store, dataset = cocite_corpus(rng, n_citers=30, n_refs=20)
        previous_edges: set = set()
        previous_nodes: set = set()
        for lby in (2, 5, 10, None):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                network = build_network(dataset, store, loose_config(lby=lby))
            assert previous_edges <= set(network.edges)
            assert previous_nodes <= set(network.nodes)
            previous_edges = set(network.edges)
            previous_nodes = set(network.nodes)


class TestPruneLinks:
    def test_small_network_untouched(self):
        network = network_from_edges(
            {("a", "b"): (1, 2000), ("b", "c"): (1, 2000), ("a", "c"): (1, 2000)}
        )
        pruned = prune_links(network, 4)
        assert pruned == network  # 3 edges <= 4*3

    def test_ratio_whose_bound_overflows_keeps_every_edge(self):
        network = network_from_edges({("a", "b"): (1, 2000), ("b", "c"): (1, 2000)})
        assert prune_links(network, 1.9974368165136842e307) == network  # 3 x lrf is inf

    def test_hand_sorted_keep_ten_of_twelve(self):
        # 12 edges over 6 nodes; bound floor(est 10/6 * 6) = 10. The two weakest by
        # (weight desc, year asc, pair) are exactly ee-ff and dd-ff.
        edge_spec = {}
        strong = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")]
        for pair in strong:
            edge_spec[pair] = (9, 2001)
        middle = [("b", "d"), ("c", "d"), ("a", "e"), ("b", "e")]
        for pair in middle:
            edge_spec[pair] = (5, 2003)
        tie_breakers = [("c", "e"), ("d", "e")]
        for pair in tie_breakers:
            edge_spec[pair] = (2, 1999)  # weight 2, earlier year wins over later 2s
        losers = [("e", "f"), ("d", "f")]
        for pair in losers:
            edge_spec[pair] = (2, 2005)
        network = network_from_edges(edge_spec)
        assert len(network.nodes) == 6 and len(network.edges) == 12
        pruned = prune_links(network, 10 / 6)
        assert len(pruned.edges) == 10
        assert set(pruned.edges) == set(strong + middle + tie_breakers)
        assert set(pruned.nodes) == set(network.nodes)  # f kept though isolated

    def test_lexicographic_last_resort(self):
        edge_spec = {
            ("a", "b"): (1, 2000),
            ("a", "c"): (1, 2000),
            ("b", "c"): (1, 2000),
        }
        network = network_from_edges(edge_spec)
        pruned = prune_links(network, 2 / 3)  # bound = floor(2) = 2
        assert set(pruned.edges) == {("a", "b"), ("a", "c")}

    def test_idempotent_byte_identical(self):
        edge_spec = {
            (f"n{i}", f"n{j}"): ((i * j) % 5 + 1, 2000 + (i + j) % 7)
            for i in range(8)
            for j in range(i + 1, 8)
        }
        network = network_from_edges(edge_spec)
        once = prune_links(network, 1.5)
        twice = prune_links(once, 1.5)
        assert "".join(once.to_graphml()) == "".join(twice.to_graphml())
        assert "".join(once.to_json()) == "".join(twice.to_json())

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), lrf=st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    def test_bound_property(self, seed, lrf):
        rng = random.Random(seed)
        store, dataset = cocite_corpus(rng, 30, 20)
        network = build_network(dataset, store, loose_config())
        pruned = prune_links(network, lrf)
        assert len(pruned.edges) <= int(lrf * len(pruned.nodes))
        assert pruned.nodes == network.nodes

    @settings(max_examples=200, deadline=None)
    @given(
        edge_spec=st.dictionaries(
            st.tuples(st.sampled_from("abcdefg"), st.sampled_from("abcdefg")).filter(lambda p: p[0] != p[1]),
            st.tuples(st.integers(1, 3), st.integers(2000, 2002)),
        ),
        lrf=st.sampled_from([0.1, 0.5, 1.0, 1.5, 2.5]),
    )
    def test_same_links_as_the_full_sort_on_tied_strengths(self, edge_spec, lrf):
        network = network_from_edges(edge_spec)
        assert prune_links(network, lrf).edges == reference_prune_links(network, lrf).edges


class TestComponents:
    def test_triangle_is_one_component(self):
        network = network_from_edges(
            {("a", "b"): (1, 2000), ("b", "c"): (1, 2000), ("a", "c"): (1, 2000)}
        )
        assert components(network) == [["a", "b", "c"]]
        assert network_stats(network).lcc_pct == 100

    def test_two_components_sizes_4_and_2(self):
        network = network_from_edges(
            {
                ("a", "b"): (1, 2000),
                ("b", "c"): (1, 2000),
                ("c", "d"): (1, 2000),
                ("x", "y"): (1, 2000),
            }
        )
        assert components(network) == [["a", "b", "c", "d"], ["x", "y"]]
        assert network_stats(network).lcc_pct == 67  # 4/6 rounds up from 66.67

    def test_rounding_vs_truncation_divergence_reported(self):
        network = network_from_edges({("a", "b"): (1, 2000)})
        network.nodes["z"] = NodeInfo(1, 2000)  # 2/3 share: round 67, floor 66
        stats = network_stats(network)
        assert stats.lcc_pct == 67
        assert stats.lcc_pct_floor == 66

    def test_isolated_nodes_are_singleton_components(self):
        network = CoCitationNetwork(
            {"a": NodeInfo(1, 2000), "b": NodeInfo(1, 2000)}, {}, loose_config()
        )
        assert components(network) == [["a"], ["b"]]

    def test_empty_network_has_no_components(self):
        assert components(CoCitationNetwork({}, {}, loose_config())) == []

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 40), p=st.floats(0.01, 0.3))
    def test_traversal_equals_union_find(self, seed, n, p):
        rng = random.Random(seed)
        nodes = {f"v{i}": NodeInfo(1, 2000) for i in range(n)}
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges[(f"v{i}", f"v{j}")] = EdgeInfo(1, 2000)
        network = CoCitationNetwork(nodes, edges, loose_config())
        assert_lcc_matches_union_find(network)
        found = components(network)
        assert sorted(node for c in found for node in c) == sorted(nodes)  # a partition
        assert all(c == sorted(c) for c in found)
        assert [(-len(c), c[0]) for c in found] == sorted((-len(c), c[0]) for c in found)


class TestConfig:
    @pytest.mark.parametrize("field", ["lrf"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValidationError):
            NetworkConfig(**{field: value})

    def test_non_positive_lrf_rejected(self):
        with pytest.raises(ValidationError):
            NetworkConfig(lrf=0)


class TestNetworkArrays:
    def test_matches_dense_adjacency(self):
        network = network_from_edges(
            {("a", "b"): (3, 2000), ("b", "c"): (1, 2001), ("a", "d"): (2, 2002)}
        )
        network.nodes["e"] = NodeInfo(1, 2000)  # isolated: empty row
        arrays = network_arrays(network)
        assert arrays.node_ids == ["a", "b", "c", "d", "e"]
        assert arrays.indptr.tolist() == [0, 2, 4, 5, 6, 6]
        expected: dict[str, dict[str, float]] = {node: {} for node in network.nodes}
        for (a, b), info in network.edges.items():
            expected[a][b] = expected[b][a] = float(info.weight)
        for i, node in enumerate(arrays.node_ids):
            lo, hi = arrays.indptr[i], arrays.indptr[i + 1]
            row = {
                arrays.node_ids[j]: w for j, w in zip(arrays.cols[lo:hi], arrays.weights[lo:hi])
            }
            assert row == expected[node]
            assert (arrays.rows[lo:hi] == i).all()


class TestStats:
    def test_triangle_stats(self):
        network = network_from_edges(
            {("a", "b"): (1, 2000), ("b", "c"): (1, 2000), ("a", "c"): (1, 2000)}
        )
        stats = network_stats(network)
        assert (stats.nodes, stats.edges, stats.lcc_size, stats.lcc_pct) == (3, 3, 3, 100)

    def test_empty_network_zeros(self):
        stats = network_stats(CoCitationNetwork({}, {}, loose_config()))
        assert (stats.nodes, stats.edges, stats.lcc_size) == (0, 0, 0)

    def test_recount_on_synthetic_network(self, rng):
        store, dataset = cocite_corpus(rng, 25, 15)
        network = build_network(dataset, store, loose_config())
        stats = network_stats(network)
        assert stats.nodes == len(network.nodes)
        assert stats.edges == len(network.edges)


class TestRoundTrips:
    def _sample_network(self) -> CoCitationNetwork:
        nodes = {
            "a": NodeInfo(3, 1998),
            "b": NodeInfo(2, 1999),
            "c": NodeInfo(5, 2000),
        }
        edges = {
            ("a", "b"): EdgeInfo(2, 2001),
            ("b", "c"): EdgeInfo(1, 2003),
        }
        return CoCitationNetwork(
            nodes, edges, NetworkConfig(lrf=4, lby=10, min_citations=1, top_n=100)
        )

    def test_graphml_roundtrip_equal(self):
        network = self._sample_network()
        again = network_from_graphml("".join(network.to_graphml()))
        assert again == network
        assert again.config.lrf == 4

    def test_json_roundtrip_equal(self):
        network = self._sample_network()
        again = CoCitationNetwork.from_json_dict(json.loads("".join(network.to_json())))
        assert again == network
        assert again.config.lby == 10
        # A network file written while the config had an unused ``e_param``.
        older = json.loads("".join(network.to_json()))
        older["config"]["e_param"] = 2.0
        again = CoCitationNetwork.from_json_dict(older)
        assert again == network and again.config == network.config

    def test_graphml_is_wellformed_xml(self):
        text = "".join(self._sample_network().to_graphml())
        root = ET.fromstring(text)
        assert root.tag.endswith("graphml")

    def test_exports_deterministic(self):
        network = self._sample_network()
        assert "".join(network.to_graphml()) == "".join(self._sample_network().to_graphml())
        assert "".join(network.to_json()) == "".join(self._sample_network().to_json())


# Ids as the store admits them: no C0 control and no surrogate, but markup
# characters, quotes, non-ASCII and astral characters.
network_ids = st.text(
    alphabet=st.one_of(
        st.sampled_from("&<>\"' ab"),
        st.sampled_from("éß中\u00a0\u2028\U0001d11e\U0001f600"),
        st.characters(min_codepoint=0x20, blacklist_categories=("Cs",)),
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def written_networks(draw) -> CoCitationNetwork:
    """A network as ``build_network`` or a loaded file may hold it: any node may
    lack links, any slice may have no citers, and the config takes extreme values."""
    ids = draw(st.lists(network_ids, max_size=12, unique=True))
    years = st.integers(0, 2100)
    nodes = {n: NodeInfo(draw(st.integers(0, 10**6)), draw(years)) for n in ids}
    edges = {}
    if len(ids) > 1:
        ends = st.sampled_from(ids)
        for a, b in draw(st.lists(st.tuples(ends, ends), max_size=20)):
            if a != b:
                edges[canonical_pair(a, b)] = EdgeInfo(draw(st.integers(1, 10**6)), draw(years))
    slices = [
        SliceInfo(start, start + draw(st.integers(0, 3)), draw(st.lists(network_ids, max_size=4)))
        for start in draw(st.lists(years, max_size=4))
    ]
    config = NetworkConfig(
        lrf=draw(st.one_of(st.sampled_from([1e-05, 0.1, 4.0, 1e300]),
                           st.floats(min_value=1e-300, max_value=1e300))),
        lby=draw(st.one_of(st.none(), st.integers(1, 200))),
        min_citations=draw(st.integers(0, 100)),
        top_n=draw(st.integers(1, 10**6)),
        slice_years=draw(st.integers(1, 10)),
    )
    return CoCitationNetwork(nodes, edges, config, slices)


def synthetic_network(n_nodes: int, n_links: int, seed: int = 7) -> CoCitationNetwork:
    """Random links over ``P000000``-style ids, with yearly slices of citers."""
    rng = random.Random(seed)
    ids = [f"P{i:06d}" for i in range(n_nodes)]
    nodes = {n: NodeInfo(rng.randint(1, 50), rng.randint(1990, 2020)) for n in ids}
    edges: dict[tuple[str, str], EdgeInfo] = {}
    while len(edges) < n_links:
        a, b = sorted(rng.sample(ids, 2))
        edges[(a, b)] = EdgeInfo(rng.randint(1, 9), rng.randint(1990, 2020))
    slices = [SliceInfo(y, y, ids[y - 1990 :: 31][:100]) for y in range(1990, 2021)]
    return CoCitationNetwork(nodes, edges, NetworkConfig(), slices)


class TestWritersMatchTheOracle:
    @settings(max_examples=200, deadline=None)
    @given(network=written_networks())
    @example(network=CoCitationNetwork({}, {}, NetworkConfig(lby=None)))
    @example(network=CoCitationNetwork(
        {"a&b": NodeInfo(1, 2000), "<c>": NodeInfo(2, 1999), "d\"'": NodeInfo(0, 0)},
        {("<c>", "a&b"): EdgeInfo(3, 2001)},
        NetworkConfig(lrf=1e-05, lby=None),
        [SliceInfo(2000, 2000, []), SliceInfo(2001, 2002, ["é", "\U0001f600"])],
    ))
    def test_bytes_equal_the_reference_writers(self, network):
        assert "".join(network.to_json()) == reference_json(network)
        assert "".join(network.to_graphml()) == reference_graphml(network)

    @pytest.mark.parametrize("node_id", ["tab\there", "cr\rlf\n", "&amp;\t<\"x\">"])
    def test_attribute_whitespace_escapes_match(self, node_id):
        network = CoCitationNetwork(
            {node_id: NodeInfo(1, 2000), "z": NodeInfo(1, 2000)},
            {canonical_pair(node_id, "z"): EdgeInfo(1, 2000)},
            NetworkConfig(),
        )
        assert "".join(network.to_graphml()) == reference_graphml(network)
        assert "".join(network.to_json()) == reference_json(network)

    def test_forty_thousand_links_serialise_in_small_memory(self):
        # Both writers together peaked at about 65 MB with the element tree and
        # the indenting encoder, and at about 20 MB with one template per row.
        network = synthetic_network(10_000, 40_000)
        tracemalloc.start()
        try:
            "".join(network.to_json())
            "".join(network.to_graphml())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
