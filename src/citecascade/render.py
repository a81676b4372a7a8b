"""Static SVG visuals: network maps, overlay panels, year-distribution charts.

A map's layout works one connected component at a time: each component of two
or more nodes gets Fruchterman & Reingold forces among its own nodes only, so
a layout costs O(iterations x sum of squared component sizes), not
O(iterations x n^2). The components are then packed without scaling, largest
first, in shelves toward the canvas aspect ratio, with the isolated nodes in a
grid last, and the map is fitted to the canvas with one scale for both axes.

Everything here is a pure function of its inputs: layouts run a fixed
iteration budget from seed-derived starting positions, coordinates are
emitted with fixed precision, and element order is canonical, so identical
inputs produce byte-identical documents. The SVG is written as template rows:
a map's edges as one ``<path>`` per (stroke, stroke-width) style, oldest year
first, and every other element as one row, with text and attribute values
escaped by :func:`~citecascade.records.xml_text` and
:func:`~citecascade.records.xml_attribute`. A map is one SVG file and no other:
any browser opens it, and its ``<title>`` elements are the node tooltips.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .cocitation import components, network_arrays
from .errors import ValidationError
from .records import YearDistribution, xml_attribute, xml_text

if TYPE_CHECKING:
    import numpy as np

    from .clustering import ClusterPartition
    from .cocitation import CoCitationNetwork
    from .overlay import OverlayProjection

YEAR_PALETTE = ["#2c7bb6", "#00a6ca", "#90eb9d", "#ffff8c", "#f9d057", "#d7191c"]
DATASET_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
]
NODE_RADIUS = (2.5, 12.0)  # smallest and largest circle radius
LABEL_TOP_K = 5  # clusters labelled on a map, largest first


def scale_year_color(year: int, lo: int, hi: int, palette: list[str]) -> str:
    """Map a year onto an ordered palette anchored at the range ends."""
    if hi <= lo:
        return palette[0]
    fraction = (year - lo) / (hi - lo)
    return palette[round(fraction * (len(palette) - 1))]


def blend_colors(colors: list[str]) -> str:
    if not colors:
        return "#c8c8c8"
    channels = [(int(c[1:3], 16), int(c[3:5], 16), int(c[5:7], 16)) for c in colors]
    mixed = [round(sum(ch) / len(ch)) for ch in zip(*channels)]
    return "#{:02x}{:02x}{:02x}".format(*mixed)


# -- layout ----------------------------------------------------------------------

LAYOUT_SEED = 42  # part of the positions key: a new value lays every map out again
LAYOUT_ITERATIONS = 50
LAYOUT_VERSION = 2  # part of the positions key: positions of another layout are stale
LAYOUT_KEY = (f"seed={LAYOUT_SEED}", f"iterations={LAYOUT_ITERATIONS}", f"layout={LAYOUT_VERSION}")  # positions' params
LAYOUT_BLOCK = 32  # rows of the force computation held in memory at once
PACK_GAP = 0.1  # layout units between packed boxes, and the isolated nodes' grid pitch
MAP_WIDTH, MAP_HEIGHT = 800.0, 600.0  # the map canvas; the packing aims at its aspect ratio


def layout(network: CoCitationNetwork, seed: int) -> dict[str, tuple[float, float]]:
    """Seeded force-directed positions of each connected component on its own,
    packed into one map; identical network and seed give identical positions.

    Each component of two or more nodes runs the Fruchterman & Reingold (1991)
    kernel (:func:`_force_layout`) from ``seed`` over its own rows of the
    ``network_arrays`` CSR, with its own k and weight normalisation: exactly
    the positions that laying out that component alone gives. Time is
    O(iterations x sum of squared component sizes) and memory O(block x largest
    component + links). An isolated node gets no iterations.

    The packing only translates (:func:`_pack`): the components in
    :func:`~citecascade.cocitation.components` order, largest first, go left to
    right in shelves whose width aims the map at the canvas aspect ratio, and
    the isolated nodes follow in a grid below them. No two component boxes or
    grid cells overlap.
    """
    if not network.nodes:
        raise ValidationError("cannot lay out an empty network")
    laid, isolated = _component_layouts(network, seed)
    return _pack(laid, isolated)


def _component_layouts(
    network: CoCitationNetwork, seed: int
) -> tuple[list[tuple[list[str], np.ndarray]], list[str]]:
    """The components of two or more nodes, largest first, each with its
    kernel positions in the order of its sorted ids; then the isolated node ids.

    The kernel is a pure function of a component's CSR and the seed, so a
    component whose CSR bytes equal an earlier one's reuses its positions:
    each distinct component is laid out once.
    """
    import numpy as np

    arrays = network_arrays(network)
    laid: list[tuple[list[str], np.ndarray]] = []
    isolated: list[str] = []
    local = np.empty(len(arrays.node_ids), dtype=np.intp)  # global index -> index in its component
    done: dict[tuple[bytes, bytes, bytes], np.ndarray] = {}  # CSR bytes -> kernel positions
    for part in components(network):
        if len(part) == 1:
            isolated.append(part[0])
            continue
        # Sorted ids have increasing indices, so the component's rows, gathered
        # in that order and renumbered, are its own CSR.
        idx = np.fromiter((arrays.index[m] for m in part), dtype=np.intp, count=len(part))
        starts = arrays.indptr[idx]
        counts = arrays.indptr[idx + 1] - starts
        indptr = np.zeros(len(part) + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        entries = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        local[idx] = np.arange(len(part))
        cols, weights = local[arrays.cols[entries]], arrays.weights[entries]
        key = (indptr.tobytes(), cols.tobytes(), weights.tobytes())
        if key not in done:
            rows = np.repeat(np.arange(len(part)), counts)
            done[key] = _force_layout(indptr, rows, cols, weights, seed)
        laid.append((part, done[key]))
    return laid, isolated


def _force_layout(indptr, rows, cols, weights, seed: int) -> np.ndarray:
    """Fruchterman & Reingold positions of a connected network of n >= 2 nodes
    given as a CSR (``NetworkArrays`` fields), as an n x 2 array.

    Fixed iteration budget from seed-derived starting positions. Each iteration
    computes repulsion and attraction for ``LAYOUT_BLOCK`` rows at a time
    against all positions, so time is O(iterations x n^2) but memory is
    O(n x block + links); no n x n array is built. The per-row arithmetic does
    not depend on the block size.

    Node i moves by the sum over j, in order, of (p_i - p_j) * force(i, j).
    Distance and force are bitwise symmetric in i and j, so a block of rows j
    holds the terms of every node i in its columns. Each axis buffer stacks
    the running column sums above the block's terms, and ``np.add.reduce``
    over axis 0 adds rows one after another, so every sum is taken in the
    same order j = 0, 1, ..., n - 1 as a per-row sum would, with the same
    rounding, whatever the block size.
    """
    import numpy as np

    n = len(indptr) - 1
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 1.0, size=(n, 2))

    top = float(weights.max(initial=0.0))
    weights = weights / top if top > 0 else weights

    k = float(np.sqrt(1.0 / n))
    temperature = 0.1
    cooling = temperature / (LAYOUT_ITERATIONS + 1)
    displacement = np.empty((2, n))
    # Work buffers shared by every block: O(n x block) memory in all. Row 0 of
    # each axis buffer carries the column sums of the blocks before it.
    block_rows = min(LAYOUT_BLOCK, n)
    terms_buf = np.empty((2, block_rows + 1, n))
    distance_buf = np.empty((block_rows, n))
    force_buf = np.empty((block_rows, n))
    for _ in range(LAYOUT_ITERATIONS):
        xs, ys = positions.T.copy()
        displacement.fill(0.0)
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            terms = terms_buf[:, : stop - start + 1]
            distance = distance_buf[: stop - start]
            force = force_buf[: stop - start]
            # dx[j, i] = positions[i] - positions[j] for the block's rows j;
            # sqrt(dx*dx + dy*dy) is bitwise np.linalg.norm of that difference.
            dx, dy = terms[0, 1:], terms[1, 1:]
            np.subtract(xs[None, :], xs[start:stop, None], out=dx)
            np.subtract(ys[None, :], ys[start:stop, None], out=dy)
            np.multiply(dx, dx, out=distance)
            distance += np.multiply(dy, dy, out=force)
            np.sqrt(distance, out=distance)
            np.maximum(distance, 0.01, out=distance)
            # force = k^2 / d^2 - adjacency * d / k; where adjacency is 0 the
            # second term is exactly 0, so only linked pairs subtract it.
            np.divide(k * k, np.square(distance, out=force), out=force)
            lo, hi = indptr[start], indptr[stop]
            r, c = rows[lo:hi] - start, cols[lo:hi]
            force[r, c] -= weights[lo:hi] * distance[r, c] / k
            for axis in (0, 1):
                terms[axis, 0] = displacement[axis]
                terms[axis, 1:] *= force
                np.add.reduce(terms[axis], axis=0, out=displacement[axis])
        length = np.linalg.norm(displacement.T, axis=-1)
        np.clip(length, 0.01, None, out=length)
        positions += displacement.T / length[:, None] * np.minimum(length, temperature)[:, None]
        temperature -= cooling
    return positions


def _pack(laid: list[tuple[list[str], np.ndarray]], isolated: list[str]) -> dict[str, tuple[float, float]]:
    """Translate each laid-out component into a shelf, in the given order, then
    put the isolated nodes in a grid below the shelves; positions by sorted id.

    The shelf width is the widest box or the square root of the total area
    (each box grown by ``PACK_GAP`` in width and height, one ``PACK_GAP``
    square per isolated node) times the canvas aspect ratio, whichever is
    larger, so the packed map comes out about as wide for its height as the
    canvas.
    """
    boxes = []
    for ids, xy in laid:
        lo = xy.min(axis=0)
        span = xy.max(axis=0) - lo
        boxes.append((ids, (xy - lo).tolist(), float(span[0]), float(span[1])))
    area = sum((w + PACK_GAP) * (h + PACK_GAP) for _ids, _xy, w, h in boxes) + len(isolated) * PACK_GAP**2
    shelf_width = max(max((w for _ids, _xy, w, _h in boxes), default=0.0),
                      math.sqrt(area * MAP_WIDTH / MAP_HEIGHT))
    positions: dict[str, tuple[float, float]] = {}
    x = y = shelf_height = 0.0
    for ids, xy, w, h in boxes:
        if x > 0 and x + w > shelf_width:
            x, y, shelf_height = 0.0, y + shelf_height + PACK_GAP, 0.0
        positions.update((node, (px + x, py + y)) for node, (px, py) in zip(ids, xy))
        x += w + PACK_GAP
        shelf_height = max(shelf_height, h)
    if boxes:
        y += shelf_height + PACK_GAP
    columns = int(shelf_width // PACK_GAP) + 1
    for i, node in enumerate(isolated):
        positions[node] = ((i % columns) * PACK_GAP, y + (i // columns) * PACK_GAP)
    return dict(sorted(positions.items()))


# -- SVG writers ------------------------------------------------------------------
#
# Rows are laid out as ``xml.etree`` writes the same tree after ``indent``: two
# spaces per level and `` />`` closing an empty element. ``tests/test_render.py``
# keeps the element-tree writer as the byte oracle.


def _svg_head(width: float, height: float) -> str:
    return (
        "<?xml version='1.0' encoding='utf-8'?>\n"
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">\n'
    )


def _group(indent: str, attributes: str, rows: list[str]) -> list[str]:
    """The rows of a ``<g>`` at ``indent`` around ``rows``, laid out one level deeper."""
    if not rows:
        return [f"{indent}<g {attributes} />\n"]
    return [f"{indent}<g {attributes}>\n", *rows, f"{indent}</g>\n"]


def _fit_positions(
    positions: dict[str, tuple[float, float]], width: float, height: float, pad: float
) -> dict[str, tuple[float, float]]:
    """The positions scaled by one factor on both axes to fill the canvas inside
    ``pad``, and centred."""
    xs = [p[0] for p in positions.values()]
    ys = [p[1] for p in positions.values()]
    lo_x, lo_y = min(xs), min(ys)
    span_x, span_y = max(xs) - lo_x, max(ys) - lo_y
    # capped: over a subnormal span the scale would overflow to inf, and 0 * inf is nan
    scale = min((width - 2 * pad) / (span_x or 1.0), (height - 2 * pad) / (span_y or 1.0), sys.float_info.max)
    left = (width - span_x * scale) / 2
    top = (height - span_y * scale) / 2
    return {node: (left + (x - lo_x) * scale, top + (y - lo_y) * scale) for node, (x, y) in positions.items()}


def _node_radii(network: CoCitationNetwork) -> dict[str, float]:
    hi = max((info.count for info in network.nodes.values()), default=1)
    lo_r, hi_r = NODE_RADIUS
    return {
        node: lo_r + ((info.count / hi) ** 0.5 if hi > 0 else 0.0) * (hi_r - lo_r)
        for node, info in network.nodes.items()
    }


def _draw_panel(
    network: CoCitationNetwork,
    fitted: dict[str, tuple[float, float]],
    radii: dict[str, float],
    node_fill,
    partition: ClusterPartition | None,
    offset_x: float = 0.0,
    indent: str = "  ",
) -> list[str]:
    """The rows of the edge, node and label groups of one map panel, at ``indent``.

    The edges are grouped by style, (year colour, stroke width), and each style
    is one ``<path>`` of ``M x1 y1 L x2 y2`` subpaths, one per link in sorted
    pair order. Styles come by their colour's place in ``YEAR_PALETTE``, oldest
    first so newer links are drawn on top, then by width, thinnest first.
    """
    inner = indent + "  "
    year_lo = min((e.first_cocited_year for e in network.edges.values()), default=0)
    year_hi = max((e.first_cocited_year for e in network.edges.values()), default=0)
    segments: dict[tuple[str, str], list[str]] = {}  # (stroke, stroke-width) -> its subpaths
    for (a, b), info in sorted(network.edges.items()):
        xa, ya = fitted[a]
        xb, yb = fitted[b]
        style = (scale_year_color(info.first_cocited_year, year_lo, year_hi, YEAR_PALETTE),
                 f"{0.5 + 0.5 * info.weight ** 0.5:.2f}")
        segments.setdefault(style, []).append(f"M{xa + offset_x:.2f} {ya:.2f}L{xb + offset_x:.2f} {yb:.2f}")
    paths = [
        f'{inner}<path d="{"".join(segments[style])}" stroke="{style[0]}" stroke-width="{style[1]}" />\n'
        for style in sorted(segments, key=lambda s: (YEAR_PALETTE.index(s[0]), float(s[1])))
    ]
    circles = []
    for node in sorted(network.nodes):
        x, y = fitted[node]
        info = network.nodes[node]
        circles.append(
            f'{inner}<circle cx="{x + offset_x:.2f}" cy="{y:.2f}" r="{radii[node]:.2f}" fill="{node_fill(node)}">\n'
            f"{inner}  <title>{xml_text(node)} (cited {info.count}x, first {info.year})</title>\n"
            f"{inner}</circle>\n"
        )
    edges = _group(indent, 'class="edges" stroke-opacity="0.5" fill="none"', paths)
    panel = edges + _group(indent, 'class="nodes"', circles)
    if partition is None:
        return panel
    texts = []
    clusters = partition.clusters()
    order = sorted(range(len(clusters)), key=lambda i: -len(clusters[i]))
    for cluster_index in order[:LABEL_TOP_K]:
        placed = [fitted[m] for m in clusters[cluster_index] if m in fitted]
        if not placed:
            continue
        cx = sum(p[0] for p in placed) / len(placed)
        cy = sum(p[1] for p in placed) / len(placed)
        label = f"#{cluster_index} {partition.labels.get(cluster_index, '')}".rstrip()
        texts.append(f'{inner}<text x="{cx + offset_x:.2f}" y="{cy:.2f}" text-anchor="middle">{xml_text(label)}</text>\n')
    return panel + _group(indent, 'class="labels" font-size="12"', texts)


def render_map(
    network: CoCitationNetwork,
    positions: dict[str, tuple[float, float]],
    partition: ClusterPartition | None = None,
    projection: OverlayProjection | None = None,
) -> list[str]:
    """The rows of an SVG map of the network at ``positions`` (its :func:`layout`):
    nodes sized by citation count, edges colored by the first co-citation year,
    cluster labels at centroids.

    With a projection, nodes are colored by dataset membership: blended for up
    to two datasets, in small multiples (one panel per dataset, shared layout)
    from three on.
    """
    if not network.nodes:
        raise ValidationError("cannot render an empty network")
    width, height, pad = MAP_WIDTH, MAP_HEIGHT, 30.0
    fitted = _fit_positions(positions, width, height, pad)
    radii = _node_radii(network)
    palette = DATASET_PALETTE

    if projection is None or len(projection.dataset_names) <= 2:
        def fill(node: str) -> str:
            if projection is not None:
                bits = projection.membership.get(node, ())
                return blend_colors([palette[i % len(palette)] for i, bit in enumerate(bits) if bit])
            if partition is None:
                return "#4878a8"
            return palette[partition.assignment.get(node, 0) % len(palette)]

        return [_svg_head(width, height), *_draw_panel(network, fitted, radii, fill, partition), "</svg>\n"]

    names = projection.dataset_names
    panels = []
    for panel, name in enumerate(names):
        color = palette[panel % len(palette)]

        def panel_fill(node: str, _pos: int = panel, _color: str = color) -> str:
            bits = projection.membership.get(node, ())
            return _color if len(bits) > _pos and bits[_pos] else "#d9d9d9"

        caption = f'    <text x="{panel * width + pad:.2f}" y="18" font-size="14">{xml_text(name)}</text>\n'
        drawn = _draw_panel(network, fitted, radii, panel_fill, partition, offset_x=panel * width, indent="    ")
        panels += _group("  ", f'class="panel-{xml_attribute(name)}"', [caption, *drawn])
    return [_svg_head(width * len(names), height), *panels, "</svg>\n"]


def render_distribution(distributions: list[YearDistribution], log: bool = False) -> str:
    """Multi-series line chart of articles per year (optionally ln(1+count))."""
    if not distributions:
        raise ValidationError("need at least one distribution")
    ranges = [d.range for d in distributions if d.range is not None]
    if not ranges:
        raise ValidationError("no distribution has any dated articles")
    lo = min(r[0] for r in ranges)
    hi = max(r[1] for r in ranges)

    def value(dist: YearDistribution, year: int) -> float:
        if log:
            return dist.log_counts.get(year, 0.0)
        return float(dist.counts.get(year, 0))

    peak = max(value(d, y) for d in distributions for y in range(lo, hi + 1)) or 1.0
    width, height, pad = 720.0, 360.0, 40.0

    def x_of(year: int) -> float:
        if hi == lo:
            return width / 2.0
        return pad + (year - lo) / (hi - lo) * (width - 2 * pad)

    def y_of(v: float) -> float:
        return height - pad - (v / peak) * (height - 2 * pad)

    axes = [
        f'    <line x1="{pad:.2f}" y1="{height - pad:.2f}" x2="{width - pad:.2f}" y2="{height - pad:.2f}" />\n',
        f'    <line x1="{pad:.2f}" y1="{pad:.2f}" x2="{pad:.2f}" y2="{height - pad:.2f}" />\n',
    ]
    series, legend = [], []
    for i, dist in enumerate(distributions):
        color = DATASET_PALETTE[i % len(DATASET_PALETTE)]
        points = " ".join(f"{x_of(y):.2f},{y_of(value(dist, y)):.2f}" for y in range(lo, hi + 1))
        series.append(f'    <polyline points="{points}" stroke="{color}" />\n')
        y = pad + 14 * i
        legend += [
            f'    <rect x="{width - pad - 110:.2f}" y="{y - 9:.2f}" width="10" height="10" fill="{color}" />\n',
            f'    <text x="{width - pad - 96:.2f}" y="{y:.2f}">{xml_text(dist.dataset_name)}</text>\n',
        ]
    caption = ("ln(1+articles)" if log else "articles") + f" (max {peak:g})"
    labels = [
        f'    <text x="{pad:.2f}" y="{height - pad + 16:.2f}">{lo}</text>\n',
        f'    <text x="{width - pad:.2f}" y="{height - pad + 16:.2f}" text-anchor="end">{hi}</text>\n',
        f'    <text x="{pad:.2f}" y="{pad - 8:.2f}">{caption}</text>\n',
    ]
    return "".join([
        _svg_head(width, height),
        *_group("  ", 'class="axes" stroke="#333333"', axes),
        *_group("  ", 'class="series" fill="none"', series),
        *_group("  ", 'class="axis-labels" font-size="11"', labels),
        *_group("  ", 'class="legend" font-size="11"', legend),
        "</svg>\n",
    ])
