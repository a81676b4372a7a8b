"""Layout determinism, SVG well-formedness, glyph counts, color scales."""

from __future__ import annotations

import hashlib
import json
import random
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from citecascade import render
from citecascade.clustering import ClusterPartition
from citecascade.cocitation import (
    CoCitationNetwork,
    EdgeInfo,
    NetworkConfig,
    NodeInfo,
    connected_components_traversal,
    network_arrays,
)
from citecascade.errors import ValidationError
from citecascade.overlay import project_overlay
from citecascade.records import Dataset, YearDistribution
from citecascade.render import (
    RenderSpec,
    blend_colors,
    layout,
    render_distribution,
    render_map,
    scale_year_color,
    wrap_html,
)


def simple_network(edge_spec: dict[tuple[str, str], tuple[int, int]],
                   extra_nodes: tuple[str, ...] = ()) -> CoCitationNetwork:
    nodes: dict[str, NodeInfo] = {}
    edges = {}
    for (a, b), (weight, year) in edge_spec.items():
        pair = tuple(sorted((a, b)))
        edges[pair] = EdgeInfo(weight, year)
        for n in pair:
            nodes.setdefault(n, NodeInfo(1, 2000))
    for n in extra_nodes:
        nodes.setdefault(n, NodeInfo(1, 2000))
    return CoCitationNetwork(nodes, edges, NetworkConfig())


def elements(svg_text: str, tag: str) -> list[ET.Element]:
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.tag.rsplit("}", 1)[-1] == tag]


class TestYearScale:
    def test_two_color_anchors(self):
        palette = ["#000000", "#ffffff"]
        assert scale_year_color(1990, 1990, 2015, palette) == "#000000"
        assert scale_year_color(2015, 1990, 2015, palette) == "#ffffff"

    def test_degenerate_range(self):
        assert scale_year_color(2000, 2000, 2000, ["#111111", "#222222"]) == "#111111"

    def test_midpoint_rounds_to_nearest(self):
        palette = ["#000000", "#888888", "#ffffff"]
        assert scale_year_color(2000, 1990, 2010, palette) == "#888888"

    def test_blend(self):
        assert blend_colors(["#000000", "#ffffff"]) == "#808080"
        assert blend_colors([]) == "#c8c8c8"


def einsum_layout(network: CoCitationNetwork, seed: int) -> dict[str, tuple[float, float]]:
    """Reference layout: each block of rows sums its own displacement with a
    per-row ``einsum``, in the order j = 0, 1, ..., n - 1 for every node."""
    arrays = network_arrays(network)
    node_ids, index = arrays.node_ids, arrays.index
    if len(node_ids) == 1:
        return {node_ids[0]: (0.0, 0.0)}
    n = len(node_ids)
    positions = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 2))
    top = float(arrays.weights.max(initial=0.0))
    weights = arrays.weights / top if top > 0 else arrays.weights
    k = float(np.sqrt(1.0 / n))
    temperature = 0.1
    cooling = temperature / (render.LAYOUT_ITERATIONS + 1)
    displacement = np.empty((n, 2))
    block_rows = min(render.LAYOUT_BLOCK, n)
    for _ in range(render.LAYOUT_ITERATIONS):
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            delta = positions[start:stop, None, :] - positions[None, :, :]
            distance = np.sqrt(delta[..., 0] * delta[..., 0] + delta[..., 1] * delta[..., 1])
            np.clip(distance, 0.01, None, out=distance)
            force = k * k / np.square(distance)
            lo, hi = arrays.indptr[start], arrays.indptr[stop]
            r, c = arrays.rows[lo:hi] - start, arrays.cols[lo:hi]
            force[r, c] -= weights[lo:hi] * distance[r, c] / k
            np.einsum("ijk,ij->ik", delta, force, out=displacement[start:stop])
        length = np.linalg.norm(displacement, axis=-1)
        np.clip(length, 0.01, None, out=length)
        positions += displacement / length[:, None] * np.minimum(length, temperature)[:, None]
        temperature -= cooling
    components = sorted(connected_components_traversal(network), key=lambda c: (-len(c), min(c)))
    if len(components) > 1:
        cursor = 0.0
        for component in components:
            idxs = np.array(sorted(index[m] for m in component), dtype=int)
            block = positions[idxs]
            lo = block.min(axis=0)
            span = block.max(axis=0) - lo
            margin = 0.2 * max(float(span[0]), float(span[1]), k)
            positions[idxs, 0] = block[:, 0] - lo[0] + cursor
            positions[idxs, 1] = block[:, 1] - lo[1]
            cursor += float(span[0]) + margin
    return {node: (float(positions[index[node], 0]), float(positions[index[node], 1])) for node in node_ids}


def random_network(rng: random.Random, n: int, density: float, isolated: int) -> CoCitationNetwork:
    """Links drawn inside three groups of nodes, so there are several components,
    plus ``isolated`` nodes with no link."""
    names = [f"n{i:03d}" for i in range(n)]
    edges = {
        (a, b): (rng.randint(1, 6), 2000)
        for i, a in enumerate(names)
        for j, b in enumerate(names[i + 1:], i + 1)
        if i % 3 == j % 3 and rng.random() < density
    }
    return simple_network(edges, extra_nodes=tuple(names) + tuple(f"iso{i}" for i in range(isolated)))


class TestLayout:
    def test_single_node_at_origin(self):
        network = simple_network({}, extra_nodes=("solo",))
        assert layout(network, seed=7) == {"solo": (0.0, 0.0)}

    def test_byte_identical_repeat(self):
        network = simple_network(
            {("a", "b"): (2, 2000), ("b", "c"): (1, 2001), ("c", "d"): (1, 2002)}
        )
        first = json.dumps(layout(network, seed=42), sort_keys=True)
        second = json.dumps(layout(network, seed=42), sort_keys=True)
        assert first == second

    def test_different_seeds_differ(self):
        network = simple_network({("a", "b"): (1, 2000), ("c", "d"): (1, 2000)})
        assert layout(network, seed=1) != layout(network, seed=2)

    def test_disconnected_components_get_disjoint_bounding_boxes(self):
        network = simple_network(
            {
                ("a", "b"): (1, 2000),
                ("b", "c"): (1, 2000),
                ("x", "y"): (1, 2000),
                ("y", "z"): (1, 2000),
            }
        )
        positions = layout(network, seed=3)
        first = [positions[n] for n in ("a", "b", "c")]
        second = [positions[n] for n in ("x", "y", "z")]

        def bbox(points):
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            return min(xs), max(xs), min(ys), max(ys)

        lo1, hi1, _, _ = bbox(first)
        lo2, hi2, _, _ = bbox(second)
        assert hi1 < lo2 or hi2 < lo1  # separated along x

    def test_empty_network_errors(self):
        with pytest.raises(ValidationError):
            layout(CoCitationNetwork({}, {}, NetworkConfig()), seed=1)

    def test_bundled_network_positions_pinned(self, bundled_world):
        # Digest of the positions the dense all-pairs implementation produced;
        # the row-blocked layout must reproduce them bit for bit.
        network, _snapshot = bundled_world
        assert (len(network.nodes), len(network.edges)) == (341, 1364)
        positions = json.dumps(sorted(layout(network, 42).items()))
        assert hashlib.sha256(positions.encode()).hexdigest() == (
            "9d1f82b68baff61a64442f1a64b44dd5f0c0d33908d3b8cd78295d2b4f6963a1"
        )

    @pytest.mark.parametrize("block", [1, 5, 64, 1000])
    def test_positions_do_not_depend_on_block_size(self, block, monkeypatch):
        rng = random.Random(5)
        names = [f"n{i:02d}" for i in range(67)]
        edges = {
            (a, b): (rng.randint(1, 4), 2000)
            for i, a in enumerate(names)
            for b in names[i + 1:]
            if rng.random() < 0.08
        }
        network = simple_network(edges, extra_nodes=tuple(names))
        expected = layout(network, seed=9)
        monkeypatch.setattr(render, "LAYOUT_BLOCK", block)
        assert layout(network, seed=9) == expected


    @pytest.mark.parametrize("case", range(6))
    def test_column_sums_equal_the_per_row_einsum(self, case, monkeypatch):
        rng = random.Random(case)
        network = random_network(rng, rng.randint(40, 160), rng.uniform(0.02, 0.3), rng.randint(1, 5))
        seed = rng.randint(0, 10_000)
        if case % 2:  # also over blocks that do not divide n
            monkeypatch.setattr(render, "LAYOUT_BLOCK", rng.randint(3, 40))
        assert layout(network, seed) == einsum_layout(network, seed)


class TestRenderMap:
    def _triangle(self):
        return simple_network(
            {("a", "b"): (3, 1995), ("b", "c"): (1, 2005), ("a", "c"): (2, 2010)}
        )

    def test_three_nodes_valid_svg(self):
        svg = render_map(self._triangle())
        assert len(elements(svg, "circle")) == 3
        assert len(elements(svg, "line")) <= 3

    def test_every_node_once_every_edge_at_most_once(self):
        network = simple_network(
            {("a", "b"): (1, 2000), ("c", "d"): (2, 2001)}, extra_nodes=("e",)
        )
        svg = render_map(network)
        assert len(elements(svg, "circle")) == len(network.nodes)
        assert len(elements(svg, "line")) == len(network.edges)

    def test_single_dataset_projection_uses_its_color(self):
        network = self._triangle()
        spec = RenderSpec(overlay_mode="blend")
        one_cluster = ClusterPartition(assignment={n: 0 for n in network.nodes})
        projection = project_overlay(network, [Dataset("only", {"a", "b", "c"})], one_cluster)
        svg = render_map(network, projection=projection, spec=spec)
        fills = {el.attrib["fill"] for el in elements(svg, "circle")}
        assert fills == {spec.dataset_palette[0]}

    def test_small_multiple_panels_for_three_datasets(self):
        network = self._triangle()
        datasets = [Dataset(f"d{i}", {"a"}) for i in range(3)]
        one_cluster = ClusterPartition(assignment={n: 0 for n in network.nodes})
        projection = project_overlay(network, datasets, one_cluster)
        svg = render_map(network, projection=projection)
        # One panel per dataset: every node drawn in each panel.
        assert len(elements(svg, "circle")) == 3 * len(network.nodes)

    def test_cluster_labels_at_top_k(self):
        network = self._triangle()
        partition = ClusterPartition(assignment={"a": 0, "b": 0, "c": 1})
        partition.labels = {0: "alpha theme", 1: "beta theme"}
        svg = render_map(network, partition=partition, spec=RenderSpec(label_top_k=1))
        texts = [el.text for el in elements(svg, "text")]
        assert "#0 alpha theme" in texts
        assert "#1 beta theme" not in texts

    def test_byte_identical_rendering(self):
        network = self._triangle()
        assert render_map(network) == render_map(network)

    def test_tooltips_present(self):
        svg = render_map(self._triangle())
        titles = elements(svg, "title")
        assert len(titles) == 3
        assert any("cited" in (t.text or "") for t in titles)

    def test_html_wrapper_self_contained(self):
        svg = render_map(self._triangle())
        html = wrap_html(svg, title="demo")
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "</html>" in html
        assert "http-equiv" not in html and "src=" not in html  # no external fetches

    def test_empty_network_errors(self):
        with pytest.raises(ValidationError):
            render_map(CoCitationNetwork({}, {}, NetworkConfig()))


class TestRenderDistribution:
    def test_single_point_series_valid(self):
        dist = YearDistribution("d", {2000: 1}, 0, (2000, 2000), {2000: 0.6931})
        svg = render_distribution([dist])
        assert len(elements(svg, "polyline")) == 1
        ET.fromstring(svg)  # well-formed

    def test_log_mode_zero_count_plots_at_baseline(self):
        dist = YearDistribution(
            "d",
            {2000: 5, 2002: 5},
            0,
            (2000, 2002),
            {2000: 1.79, 2002: 1.79},
        )
        svg = render_distribution([dist], log=True)
        points = elements(svg, "polyline")[0].attrib["points"].split()
        # Three x positions for 2000..2002; the middle year has count 0 -> ln 1 -> baseline y.
        assert len(points) == 3
        baseline_y = points[1].split(",")[1]
        axis_lines = elements(svg, "line")
        x_axis_y = axis_lines[0].attrib["y1"]
        assert baseline_y == x_axis_y

    def test_five_series_five_polylines_and_legend(self):
        dists = [
            YearDistribution(f"set{i}", {2000 + i: 2}, 0, (2000 + i, 2000 + i), {2000 + i: 1.1})
            for i in range(5)
        ]
        svg = render_distribution(dists)
        assert len(elements(svg, "polyline")) == 5
        legend_texts = [el.text for el in elements(svg, "text")]
        for i in range(5):
            assert f"set{i}" in legend_texts

    def test_axis_labels_carry_year_range(self):
        dists = [
            YearDistribution("d", {1990: 1, 2010: 3}, 0, (1990, 2010), {1990: 0.7, 2010: 1.4})
        ]
        svg = render_distribution(dists)
        texts = [el.text for el in elements(svg, "text")]
        assert "1990" in texts and "2010" in texts

    def test_needs_input(self):
        with pytest.raises(ValidationError):
            render_distribution([])

    def test_deterministic(self):
        dist = YearDistribution("d", {2000: 1, 2001: 4}, 0, (2000, 2001), {2000: 0.7, 2001: 1.6})
        assert render_distribution([dist]) == render_distribution([dist])


class TestRenderSpec:
    def test_palette_validation(self):
        with pytest.raises(ValidationError):
            RenderSpec(year_palette=["#000000"])
        with pytest.raises(ValidationError):
            RenderSpec(overlay_mode="mosaic")

    def test_json_roundtrip(self):
        spec = RenderSpec(seed=7, label_top_k=3, overlay_mode="blend")
        again = RenderSpec.from_json_dict(spec.to_json_dict())
        assert again == spec
