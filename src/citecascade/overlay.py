"""Dataset comparison: overlap matrices, base-map overlays, coverage reports.

The overlap matrix entry [i][j] is the share of dataset j's members also in
dataset i: 100 * |D_i ∩ D_j| / |D_j|. This column-share form keeps a 100%
diagonal and satisfies values[i][j]*|D_j| = values[j][i]*|D_i| (both recover
the intersection size); a ratio-to-union (Jaccard) form cannot produce an
asymmetric matrix with a 100% diagonal, so it is deliberately not used, and
every CSV export says so in its header.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import EmptyDatasetError, ValidationError
from .records import Dataset, _typed, csv_text

if TYPE_CHECKING:
    from .clustering import ClusterPartition
    from .cocitation import CoCitationNetwork

FORMULA_NOTE = (
    "values[i][j] = 100*|row_set ∩ col_set|/|col_set| (share of column dataset; "
    "not ratio-to-union, which cannot yield this matrix shape)"
)


@dataclass
class OverlapMatrix:
    """Pairwise membership overlap, as percentages of the column dataset."""

    names: list[str]
    sizes: dict[str, int]
    values: list[list[float]]  # rounded to two decimals
    raw_values: list[list[float]]  # unrounded percentages
    intersections: list[list[int]]  # exact |D_i ∩ D_j|, the pre-rounding content

    def value(self, row: str, col: str) -> float:
        return self.values[self.names.index(row)][self.names.index(col)]

    def to_csv(self, ranges: list[str]) -> str:
        """The formula note, the header, a Range row of each dataset's year span
        (``ranges``, in ``names`` order), an Articles row, then the matrix rows."""
        return csv_text([
            ["name", *self.names],
            ["Range", *ranges],
            ["Articles", *(self.sizes[n] for n in self.names)],
            *([name, *(f"{v:.2f}" for v in row)] for name, row in zip(self.names, self.values)),
        ], comments=[FORMULA_NOTE])


def overlap_matrix(datasets: list[Dataset]) -> OverlapMatrix:
    if len(datasets) < 2:
        raise ValidationError("need at least 2 datasets")
    for ds in datasets:
        if not ds.member_ids:
            raise EmptyDatasetError(f"dataset {ds.name!r} is empty")
    names = [ds.name for ds in datasets]
    if len(set(names)) != len(names):
        raise ValidationError("dataset names must be unique in a comparison")
    shared = [[len(row.member_ids & col.member_ids) for col in datasets] for row in datasets]
    raw = [[100.0 * n / len(col.member_ids) for n, col in zip(counts, datasets)] for counts in shared]
    return OverlapMatrix(
        names=names,
        sizes={ds.name: len(ds.member_ids) for ds in datasets},
        values=[[round(v, 2) for v in row] for row in raw],
        raw_values=raw,
        intersections=shared,
    )


@dataclass
class OverlayProjection:
    """Per-node dataset membership over a base network, plus cluster coverage."""

    dataset_names: list[str]
    membership: dict[str, tuple[bool, ...]]
    coverage: dict[int, dict[str, float]] = field(default_factory=dict)

    def bitstring(self, node: str) -> str:
        return "".join("1" if b else "0" for b in self.membership[node])

    def to_json_dict(self) -> dict:
        return {
            "datasets": self.dataset_names,
            "membership": {n: self.bitstring(n) for n in sorted(self.membership)},
            "coverage": {
                str(cluster): {name: fractions[name] for name in self.dataset_names}
                for cluster, fractions in sorted(self.coverage.items())
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "OverlayProjection":
        """The projection ``data`` holds; a ValueError unless ``datasets`` is a list of names,
        ``membership`` an object of one ``0`` or ``1`` per dataset for each node, and ``coverage``
        an object of one number per dataset for each cluster."""
        names = _typed(data["datasets"], "a list of strings", "datasets")
        projection = cls(dataset_names=names, membership={})
        for node, bits in _typed(data["membership"], "an object of strings", "membership").items():
            if len(bits) != len(names) or bits.strip("01"):
                raise ValueError(f"membership of {node!r} {reprlib.repr(bits)} is not one 0 or 1 per dataset")
            projection.membership[node] = tuple(ch == "1" for ch in bits)
        for cluster, fractions in _typed(data.get("coverage", {}), "an object of objects", "coverage").items():
            projection.coverage[int(cluster)] = {
                name: _typed(fractions[name], "a number", f"coverage of cluster {cluster} by {name}") for name in names
            }
        return projection


def project_overlay(
    base_network: CoCitationNetwork,
    datasets: list[Dataset],
    partition: ClusterPartition,
) -> OverlayProjection:
    """Mark which datasets contain each base-map node; coverage per cluster.

    Coverage of cluster c by dataset D = fraction of c's nodes whose ids are
    members of D.
    """
    from .clustering import check_partition

    if not base_network.nodes:
        raise ValidationError("base network is empty")
    names = [ds.name for ds in datasets]
    membership = {
        node: tuple(node in ds.member_ids for ds in datasets) for node in base_network.nodes
    }
    projection = OverlayProjection(dataset_names=names, membership=membership)
    check_partition(base_network, partition)
    for index, members in enumerate(partition.clusters()):
        fractions: dict[str, float] = {}
        for pos, name in enumerate(names):
            inside = sum(1 for node in members if membership[node][pos])
            fractions[name] = inside / len(members)
        projection.coverage[index] = fractions
    return projection


FULL = "FULL"
PARTIAL = "PARTIAL"
MISSED = "MISSED"


@dataclass(frozen=True)
class CoverageLimits:
    """The limits of the coverage classes: ``threshold`` strictly between 0 and 1,
    ``epsilon`` in [0, 1)."""

    threshold: float = 0.10
    epsilon: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 < self.threshold < 1.0):
            raise ValidationError("threshold must lie strictly between 0 and 1")
        if not (0.0 <= self.epsilon < 1.0):
            raise ValidationError("epsilon must lie in [0, 1)")


@dataclass
class CoverageReport:
    limits: CoverageLimits
    classes: dict[int, dict[str, str]]  # cluster -> dataset -> FULL/PARTIAL/MISSED
    common_core: list[int]  # clusters covered >= threshold by every dataset

    def to_csv(self, labels: dict[int, str] | None = None) -> str:
        datasets = sorted({name for row in self.classes.values() for name in row})
        return csv_text([
            ["cluster", "label", *datasets],
            *([cluster, (labels or {}).get(cluster, ""), *(self.classes[cluster][name] for name in datasets)]
              for cluster in sorted(self.classes)),
            ["common_core", ";".join(str(c) for c in self.common_core), ""],
        ], comments=[f"threshold={self.limits.threshold} epsilon={self.limits.epsilon}"])


def coverage_report(projection: OverlayProjection, limits: CoverageLimits = CoverageLimits()) -> CoverageReport:
    """Classify each cluster x dataset as FULL, PARTIAL, or MISSED.

    FULL: coverage >= 1-epsilon; PARTIAL: threshold <= coverage < 1-epsilon;
    MISSED: below threshold. The common core lists clusters every dataset
    covers at or above the threshold. Coverage comes from
    ``project_overlay``; a projection without it is rejected.
    """
    if not projection.coverage:
        raise ValidationError("projection has no cluster coverage; project it with a partition")
    threshold, epsilon = limits.threshold, limits.epsilon

    classes: dict[int, dict[str, str]] = {}
    common_core: list[int] = []
    for cluster, fractions in sorted(projection.coverage.items()):
        row: dict[str, str] = {}
        for name in projection.dataset_names:
            value = fractions[name]
            if value >= 1.0 - epsilon:
                row[name] = FULL
            elif value >= threshold:
                row[name] = PARTIAL
            else:
                row[name] = MISSED
        classes[cluster] = row
        if all(fractions[name] >= threshold for name in projection.dataset_names):
            common_core.append(cluster)
    return CoverageReport(limits, classes, common_core)
