"""Layout determinism, SVG well-formedness and byte oracle, glyph counts, color scales."""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citecascade import render
from citecascade.clustering import ClusterPartition, induced_subnetwork
from citecascade.cocitation import (
    CoCitationNetwork,
    EdgeInfo,
    NetworkConfig,
    NodeInfo,
    components,
    network_arrays,
)
from citecascade.errors import ValidationError
from citecascade.overlay import OverlayProjection, project_overlay
from citecascade.records import Dataset, YearDistribution
from citecascade.render import (
    DATASET_PALETTE,
    LAYOUT_SEED,
    blend_colors,
    layout,
    render_distribution,
    render_map,
    scale_year_color,
)

from test_cocitation import connected_components_traversal, network_ids


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


EDGE_GROUP = re.compile(r'<g class="edges" stroke-opacity="0.5" fill="none"(?: />|>\n(.*?)\n *</g>)', re.S)
PATH_ROW = re.compile(r' *<path d="([^"]*)" stroke="([^"]*)" stroke-width="([^"]*)" />')
SEGMENT = re.compile(r"M(-?\d+\.\d\d) (-?\d+\.\d\d)L(-?\d+\.\d\d) (-?\d+\.\d\d)")


def edge_paths(svg_text: str) -> list[list[tuple[str, str, str]]]:
    """The (d, stroke, stroke-width) of each path of each edges group, one list per
    panel in document order; an edges group holds path rows and nothing else."""
    panels = []
    for group in EDGE_GROUP.finditer(svg_text):
        rows = [PATH_ROW.fullmatch(row) for row in (group[1] or "").splitlines()]
        assert all(rows)
        panels.append([row.groups() for row in rows])
    return panels


def segments(d: str) -> list[tuple[str, str, str, str]]:
    """The (x1, y1, x2, y2) texts of each ``M x1 y1 L x2 y2`` subpath of a path's ``d``,
    which must be made of them and nothing else."""
    assert "".join(m[0] for m in SEGMENT.finditer(d)) == d
    return SEGMENT.findall(d)


def segment_count(svg_text: str) -> int:
    return sum(len(segments(d)) for paths in edge_paths(svg_text) for d, _stroke, _width in paths)


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
    """Reference kernel for one connected network: each block of rows sums its
    own displacement with a per-row ``einsum``, in the order j = 0, 1, ..., n - 1
    for every node. The positions are not packed."""
    arrays = network_arrays(network)
    node_ids, index = arrays.node_ids, arrays.index
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
        assert not overlapping(component_boxes(network, layout(network, seed=3)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 40), st.floats(0.0, 0.6), st.integers(0, 12))
    def test_packing_places_every_node_once_in_disjoint_boxes(self, seed, n, density, isolated):
        network = random_network(random.Random(seed), n, density, isolated)
        positions = layout(network, seed)
        assert list(positions) == sorted(network.nodes)
        assert all(math.isfinite(v) for xy in positions.values() for v in xy)
        assert not overlapping(component_boxes(network, positions))
        assert layout(network, seed) == positions

    def test_empty_network_errors(self):
        with pytest.raises(ValidationError):
            layout(CoCitationNetwork({}, {}, NetworkConfig()), seed=1)

    def test_bundled_network_positions_pinned(self, bundled_world):
        # Digest of the positions recorded when each component got its own
        # layout and the components were packed (layout version 2).
        network, _store = bundled_world
        assert (len(network.nodes), len(network.edges)) == (341, 1364)
        positions = json.dumps(sorted(layout(network, 42).items()))
        assert hashlib.sha256(positions.encode()).hexdigest() == (
            "fcd62257e9db37194d8bf84a55e57e9bfebbfd703ec1a7636fbd9e9e2d6e49fb"
        )

    def test_bundled_largest_component_spans_half_the_map(self, bundled_world):
        network, _store = bundled_world
        fitted = render._fit_positions(layout(network, LAYOUT_SEED), render.MAP_WIDTH, render.MAP_HEIGHT, 30.0)

        def spans(ids):
            xs, ys = zip(*(fitted[n] for n in ids))
            return max(xs) - min(xs), max(ys) - min(ys)

        (width, height), (lcc_width, lcc_height) = spans(fitted), spans(components(network)[0])
        assert lcc_width >= width / 2 or lcc_height >= height / 2

    def test_fit_uses_one_scale_for_both_axes(self):
        fitted = render._fit_positions({"a": (0.0, 0.0), "b": (2.0, 1.0)}, 800.0, 600.0, 30.0)
        assert fitted == {"a": (30.0, 115.0), "b": (770.0, 485.0)}

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
        # Before packing, each component's positions are the reference kernel's
        # on that component alone, bit for bit, whatever the block size.
        rng = random.Random(case)
        network = random_network(rng, rng.randint(40, 160), rng.uniform(0.02, 0.3), rng.randint(1, 5))
        seed = rng.randint(0, 10_000)
        found = sorted((sorted(c) for c in connected_components_traversal(network)), key=lambda c: (-len(c), c[0]))
        for block in (render.LAYOUT_BLOCK, 1, rng.randint(3, 40)):  # also blocks that do not divide n
            monkeypatch.setattr(render, "LAYOUT_BLOCK", block)
            laid, isolated = render._component_layouts(network, seed)
            assert [ids for ids, _xy in laid] == [c for c in found if len(c) > 1]
            assert isolated == [c[0] for c in found if len(c) == 1]
            for ids, xy in laid:
                oracle = einsum_layout(induced_subnetwork(network, set(ids)), seed)
                assert xy.tolist() == [list(oracle[n]) for n in ids]

    def test_each_distinct_component_is_laid_out_once(self, monkeypatch):
        # Five equal pairs, three equal triangles, and two paths whose weights run
        # opposite ways: ten components with four distinct CSRs, and two isolated nodes.
        spec = {(f"p{i}a", f"p{i}b"): (1, 2000) for i in range(5)}
        spec |= {pair: (2, 2000) for i in range(3) for pair in combinations((f"t{i}a", f"t{i}b", f"t{i}c"), 2)}
        spec |= {("u0", "u1"): (1, 2000), ("u1", "u2"): (3, 2000), ("v0", "v1"): (3, 2000), ("v1", "v2"): (1, 2000)}
        network = simple_network(spec, extra_nodes=("iso0", "iso1"))
        kernel, runs = render._force_layout, []

        def counted_kernel(*args):
            runs.append(args)
            return kernel(*args)

        monkeypatch.setattr(render, "_force_layout", counted_kernel)
        laid, isolated = render._component_layouts(network, seed=11)
        assert (len(laid), isolated, len(runs)) == (10, ["iso0", "iso1"], 4)
        for ids, xy in laid:
            oracle = einsum_layout(induced_subnetwork(network, set(ids)), 11)
            assert xy.tolist() == [list(oracle[n]) for n in ids]


def component_boxes(network: CoCitationNetwork, positions) -> list[tuple[float, float, float, float]]:
    """The bounding box (lo_x, hi_x, lo_y, hi_y) of each connected component; an
    isolated node's grid cell is the point it sits at."""
    boxes = []
    for component in connected_components_traversal(network):
        xs, ys = zip(*(positions[n] for n in component))
        boxes.append((min(xs), max(xs), min(ys), max(ys)))
    return boxes


def overlapping(boxes) -> list[tuple]:
    """The pairs of closed boxes that share a point."""
    return [(a, b) for a, b in combinations(boxes, 2)
            if a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]]


def draw(network: CoCitationNetwork, **kwargs) -> str:
    """The map at the positions every map is drawn at, its rows joined."""
    return "".join(render_map(network, layout(network, LAYOUT_SEED), **kwargs))


class TestRenderMap:
    def _triangle(self):
        return simple_network(
            {("a", "b"): (3, 1995), ("b", "c"): (1, 2005), ("a", "c"): (2, 2010)}
        )

    def test_three_nodes_valid_svg(self):
        svg = draw(self._triangle())
        assert len(elements(svg, "circle")) == 3
        assert segment_count(svg) <= 3

    def test_every_node_once_every_edge_at_most_once(self):
        network = simple_network(
            {("a", "b"): (1, 2000), ("c", "d"): (2, 2001)}, extra_nodes=("e",)
        )
        svg = draw(network)
        assert len(elements(svg, "circle")) == len(network.nodes)
        assert segment_count(svg) == len(network.edges)
        assert not elements(svg, "line")

    def test_single_dataset_projection_uses_its_color(self):
        network = self._triangle()
        one_cluster = ClusterPartition(assignment={n: 0 for n in network.nodes})
        projection = project_overlay(network, [Dataset("only", {"a", "b", "c"})], one_cluster)
        svg = draw(network, projection=projection)
        fills = {el.attrib["fill"] for el in elements(svg, "circle")}
        assert fills == {DATASET_PALETTE[0]}

    def test_small_multiple_panels_for_three_datasets(self):
        network = self._triangle()
        datasets = [Dataset(f"d{i}", {"a"}) for i in range(3)]
        one_cluster = ClusterPartition(assignment={n: 0 for n in network.nodes})
        projection = project_overlay(network, datasets, one_cluster)
        svg = draw(network, projection=projection)
        # One panel per dataset: every node drawn in each panel.
        assert len(elements(svg, "circle")) == 3 * len(network.nodes)

    def test_cluster_labels_at_top_k(self):
        # Six clusters of 1, 2, ..., 6 nodes: only the five largest get a label.
        assignment = {f"c{c}n{i}": c for c in range(6) for i in range(c + 1)}
        network = simple_network({("c5n0", "c5n1"): (1, 2000)}, extra_nodes=tuple(assignment))
        partition = ClusterPartition(assignment=assignment)
        partition.labels = {c: f"theme {c}" for c in range(6)}
        svg = draw(network, partition=partition)
        texts = [el.text for el in elements(svg, "text")]
        assert texts == [f"#{c} theme {c}" for c in (5, 4, 3, 2, 1)]

    def test_byte_identical_rendering(self):
        network = self._triangle()
        assert draw(network) == draw(network)

    def test_tooltips_present(self):
        svg = draw(self._triangle())
        titles = elements(svg, "title")
        assert len(titles) == 3
        assert any("cited" in (t.text or "") for t in titles)

    def test_empty_network_errors(self):
        with pytest.raises(ValidationError):
            render_map(CoCitationNetwork({}, {}, NetworkConfig()), {})


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




# -- the element-tree writer, kept as the byte oracle of the template rows ----------


def etree_svg_root(width: float, height: float) -> ET.Element:
    return ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": f"{width:.0f}",
        "height": f"{height:.0f}",
        "viewBox": f"0 0 {width:.0f} {height:.0f}",
    })


def etree_document(root: ET.Element) -> str:
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


def etree_panel(parent, network, fitted, radii, node_fill, partition, offset_x=0.0) -> None:
    year_lo = min((e.first_cocited_year for e in network.edges.values()), default=0)
    year_hi = max((e.first_cocited_year for e in network.edges.values()), default=0)
    edges_group = ET.SubElement(parent, "g", {"class": "edges", "stroke-opacity": "0.5", "fill": "none"})
    styles = defaultdict(list)
    for (a, b), info in sorted(network.edges.items()):
        xa, ya = fitted[a]
        xb, yb = fitted[b]
        color = scale_year_color(info.first_cocited_year, year_lo, year_hi, render.YEAR_PALETTE)
        styles[color, f"{0.5 + 0.5 * info.weight ** 0.5:.2f}"].append(
            f"M{xa + offset_x:.2f} {ya:.2f}L{xb + offset_x:.2f} {yb:.2f}")
    for color, width in sorted(styles, key=lambda style: (render.YEAR_PALETTE.index(style[0]), float(style[1]))):
        ET.SubElement(edges_group, "path", {"d": "".join(styles[color, width]), "stroke": color, "stroke-width": width})
    nodes_group = ET.SubElement(parent, "g", {"class": "nodes"})
    for node in sorted(network.nodes):
        x, y = fitted[node]
        circle = ET.SubElement(nodes_group, "circle", {
            "cx": f"{x + offset_x:.2f}", "cy": f"{y:.2f}", "r": f"{radii[node]:.2f}", "fill": node_fill(node),
        })
        info = network.nodes[node]
        ET.SubElement(circle, "title").text = f"{node} (cited {info.count}x, first {info.year})"
    if partition is not None:
        labels_group = ET.SubElement(parent, "g", {"class": "labels", "font-size": "12"})
        clusters = partition.clusters()
        order = sorted(range(len(clusters)), key=lambda i: -len(clusters[i]))
        for cluster_index in order[:render.LABEL_TOP_K]:
            placed = [fitted[m] for m in clusters[cluster_index] if m in fitted]
            if not placed:
                continue
            cx = sum(p[0] for p in placed) / len(placed)
            cy = sum(p[1] for p in placed) / len(placed)
            text = ET.SubElement(labels_group, "text",
                                 {"x": f"{cx + offset_x:.2f}", "y": f"{cy:.2f}", "text-anchor": "middle"})
            text.text = f"#{cluster_index} {partition.labels.get(cluster_index, '')}".rstrip()


def etree_render_map(network, positions, partition=None, projection=None) -> str:
    """The map as the element-tree writer laid it out (built, indented, then
    serialised). ``render_map`` must equal it byte for byte."""
    width, height, pad = render.MAP_WIDTH, render.MAP_HEIGHT, 30.0
    fitted = render._fit_positions(positions, width, height, pad)
    radii = render._node_radii(network)
    palette = DATASET_PALETTE
    if projection is None or len(projection.dataset_names) <= 2:
        def fill(node):
            if projection is not None:
                bits = projection.membership.get(node, ())
                return blend_colors([palette[i % len(palette)] for i, bit in enumerate(bits) if bit])
            if partition is None:
                return "#4878a8"
            return palette[partition.assignment.get(node, 0) % len(palette)]

        root = etree_svg_root(width, height)
        etree_panel(root, network, fitted, radii, fill, partition)
        return etree_document(root)
    names = projection.dataset_names
    root = etree_svg_root(width * len(names), height)
    for panel, name in enumerate(names):
        color = palette[panel % len(palette)]

        def panel_fill(node, _pos=panel, _color=color):
            bits = projection.membership.get(node, ())
            return _color if len(bits) > _pos and bits[_pos] else "#d9d9d9"

        group = ET.SubElement(root, "g", {"class": f"panel-{name}"})
        caption = ET.SubElement(group, "text", {"x": f"{panel * width + pad:.2f}", "y": "18", "font-size": "14"})
        caption.text = name
        etree_panel(group, network, fitted, radii, panel_fill, partition, offset_x=panel * width)
    return etree_document(root)


def etree_render_distribution(distributions, log=False) -> str:
    """The year chart as the element-tree writer laid it out; ``render_distribution``
    must equal it byte for byte."""
    ranges = [d.range for d in distributions if d.range is not None]
    lo, hi = min(r[0] for r in ranges), max(r[1] for r in ranges)

    def value(dist, year):
        return dist.log_counts.get(year, 0.0) if log else float(dist.counts.get(year, 0))

    peak = max(value(d, y) for d in distributions for y in range(lo, hi + 1)) or 1.0
    width, height, pad = 720.0, 360.0, 40.0
    root = etree_svg_root(width, height)
    axes = ET.SubElement(root, "g", {"class": "axes", "stroke": "#333333"})
    ET.SubElement(axes, "line", {"x1": f"{pad:.2f}", "y1": f"{height - pad:.2f}",
                                 "x2": f"{width - pad:.2f}", "y2": f"{height - pad:.2f}"})
    ET.SubElement(axes, "line", {"x1": f"{pad:.2f}", "y1": f"{pad:.2f}",
                                 "x2": f"{pad:.2f}", "y2": f"{height - pad:.2f}"})

    def x_of(year):
        return width / 2.0 if hi == lo else pad + (year - lo) / (hi - lo) * (width - 2 * pad)

    def y_of(v):
        return height - pad - (v / peak) * (height - 2 * pad)

    series_group = ET.SubElement(root, "g", {"class": "series", "fill": "none"})
    for i, dist in enumerate(distributions):
        points = " ".join(f"{x_of(y):.2f},{y_of(value(dist, y)):.2f}" for y in range(lo, hi + 1))
        ET.SubElement(series_group, "polyline", {"points": points, "stroke": DATASET_PALETTE[i % len(DATASET_PALETTE)]})
    labels = ET.SubElement(root, "g", {"class": "axis-labels", "font-size": "11"})
    ET.SubElement(labels, "text", {"x": f"{pad:.2f}", "y": f"{height - pad + 16:.2f}"}).text = str(lo)
    ET.SubElement(labels, "text", {"x": f"{width - pad:.2f}", "y": f"{height - pad + 16:.2f}",
                                   "text-anchor": "end"}).text = str(hi)
    ET.SubElement(labels, "text", {"x": f"{pad:.2f}", "y": f"{pad - 8:.2f}"}).text = (
        ("ln(1+articles)" if log else "articles") + f" (max {peak:g})")
    legend = ET.SubElement(root, "g", {"class": "legend", "font-size": "11"})
    for i, dist in enumerate(distributions):
        y = pad + 14 * i
        ET.SubElement(legend, "rect", {"x": f"{width - pad - 110:.2f}", "y": f"{y - 9:.2f}", "width": "10",
                                       "height": "10", "fill": DATASET_PALETTE[i % len(DATASET_PALETTE)]})
        ET.SubElement(legend, "text", {"x": f"{width - pad - 96:.2f}", "y": f"{y:.2f}"}).text = dist.dataset_name
    return etree_document(root)


# Label text as cluster labelling may write it: any characters, trailing blanks too.
label_texts = st.text(alphabet=st.one_of(st.sampled_from("&<>\"' é\t"), st.characters(blacklist_categories=("Cs",))),
                      max_size=8)


@st.composite
def drawn_maps(draw):
    """A network with positions, and maybe a labelled partition (whose clusters may
    hold ids the network lacks, so a label group can come out empty) and a
    projection onto 1-4 datasets."""
    ids = draw(st.lists(network_ids, min_size=1, max_size=8, unique=True))
    network = simple_network(
        {pair: (draw(st.integers(1, 50)), draw(st.integers(1990, 2020)))
         for pair in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=12))
         if pair[0] != pair[1]},
        extra_nodes=tuple(ids),
    )
    coordinate = st.floats(-50.0, 50.0)
    positions = {n: (draw(coordinate), draw(coordinate)) for n in sorted(network.nodes)}
    partition = None
    if draw(st.booleans()):
        members = ids + draw(st.lists(network_ids.filter(lambda n: n not in network.nodes), max_size=3))
        partition = ClusterPartition(assignment={n: draw(st.integers(0, 6)) for n in members})
        partition.labels = draw(st.dictionaries(st.integers(0, 6), label_texts, max_size=7))
    projection = None
    if draw(st.booleans()):
        names = draw(st.lists(network_ids, min_size=1, max_size=4, unique=True))
        membership = {n: tuple(draw(st.lists(st.booleans(), min_size=len(names), max_size=len(names))))
                      for n in draw(st.lists(st.sampled_from(ids), unique=True))}
        projection = OverlayProjection(names, membership)
    return network, positions, partition, projection


def year_distribution(name: str, counts: dict[int, int]) -> YearDistribution:
    years = [y for y, c in counts.items() if c > 0]
    span = (min(years), max(years)) if years else None
    return YearDistribution(name, counts, 0, span, {y: math.log1p(c) for y, c in counts.items()})


@st.composite
def year_charts(draw):
    """1-4 distributions, the first with at least one dated article, and the scale."""
    names = draw(st.lists(network_ids, min_size=1, max_size=4, unique=True))
    counts = st.dictionaries(st.integers(1990, 2010), st.integers(0, 500), max_size=8)
    first = draw(st.dictionaries(st.integers(1990, 2010), st.integers(1, 500), min_size=1, max_size=8))
    dists = [year_distribution(names[0], first)] + [year_distribution(n, draw(counts)) for n in names[1:]]
    return dists, draw(st.booleans())


class TestEdgePaths:
    @settings(max_examples=200, deadline=None)
    @given(drawn=drawn_maps())
    @example(drawn=(simple_network({("a", "b"): (1, 2000)}), {"a": (0.0, 0.0), "b": (5e-313, 5e-313)}, None, None))
    def test_paths_hold_each_link_once_under_its_style_in_style_order(self, drawn):
        # Per panel: the segments of all edge paths are the network's links, one each,
        # each under its own year colour and width; styles by palette place, then width.
        network, positions, partition, projection = drawn
        svg = "".join(render_map(network, positions, partition, projection))
        assert "<line " not in svg
        fitted = render._fit_positions(positions, render.MAP_WIDTH, render.MAP_HEIGHT, 30.0)
        years = [info.first_cocited_year for info in network.edges.values()]
        panels = edge_paths(svg)
        small_multiples = projection is not None and len(projection.dataset_names) > 2
        assert len(panels) == (len(projection.dataset_names) if small_multiples else 1)
        for panel, paths in enumerate(panels):
            offset = panel * render.MAP_WIDTH
            expected = Counter()
            for (a, b), info in network.edges.items():
                (xa, ya), (xb, yb) = fitted[a], fitted[b]
                color = scale_year_color(info.first_cocited_year, min(years), max(years), render.YEAR_PALETTE)
                width = f"{0.5 + 0.5 * info.weight ** 0.5:.2f}"
                expected[color, width, f"{xa + offset:.2f}", f"{ya:.2f}", f"{xb + offset:.2f}", f"{yb:.2f}"] += 1
            found = Counter((stroke, width, *segment) for d, stroke, width in paths for segment in segments(d))
            assert found == expected
            styles = [(render.YEAR_PALETTE.index(stroke), float(width)) for _d, stroke, width in paths]
            assert styles == sorted(set(styles))


class TestWritersMatchTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(drawn=drawn_maps())
    @example(drawn=(simple_network({}, extra_nodes=("a&b", "<c>")), {"a&b": (0.0, 0.0), "<c>": (1.0, 2.0)},
                    ClusterPartition(assignment={"ghost": 0}), None))
    @example(drawn=(simple_network({("a", "b\"'é"): (2, 2000)}), {"a": (0.0, 0.0), "b\"'é": (1.0, 1.0)},
                    ClusterPartition(assignment={"a": 0, "b\"'é": 1}, labels={1: "x<y> & 'z'  "}),
                    OverlayProjection(["d&1", "<d2>", "d\"3", "é"], {"a": (True, False, True, False)})))
    def test_maps_equal_the_element_tree_writer(self, drawn):
        network, positions, partition, projection = drawn
        expected = etree_render_map(network, positions, partition, projection)
        assert "".join(render_map(network, positions, partition, projection)) == expected

    @settings(max_examples=200, deadline=None)
    @given(chart=year_charts())
    @example(chart=([year_distribution("single & <only>", {2000: 3})], False))
    @example(chart=([year_distribution("a\"é", {1990: 1, 1995: 0, 2000: 9}), year_distribution("b", {})], True))
    def test_year_charts_equal_the_element_tree_writer(self, chart):
        dists, log = chart
        assert render_distribution(dists, log=log) == etree_render_distribution(dists, log=log)

    def test_bundled_maps_equal_the_element_tree_writer(self, bundled_world):
        network, _store = bundled_world
        positions = layout(network, LAYOUT_SEED)
        partition = ClusterPartition(assignment={n: i % 7 for i, n in enumerate(sorted(network.nodes))},
                                     labels={i: f"theme <{i}> & co" for i in range(7)})
        members = sorted(network.nodes)
        datasets = [Dataset(f"D{i}", set(members[i::3])) for i in range(3)]
        for projection in (None, project_overlay(network, datasets[:2], partition),
                           project_overlay(network, datasets, partition)):
            assert "".join(render_map(network, positions, partition, projection)) == etree_render_map(
                network, positions, partition, projection)
