"""Dataset comparison: overlap matrices, base-map overlays, coverage reports.

The overlap matrix entry [i][j] is the share of dataset j's members also in
dataset i: 100 * |D_i ∩ D_j| / |D_j|. This column-share form keeps a 100%
diagonal and satisfies values[i][j]*|D_j| = values[j][i]*|D_i| (both recover
the intersection size); a ratio-to-union (Jaccard) form cannot produce an
asymmetric matrix with a 100% diagonal, so it is deliberately not used, and
every CSV export says so in its header.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .clustering import ClusterPartition
from .cocitation import CoCitationNetwork
from .errors import EmptyDatasetError, ValidationError
from .records import Dataset

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

    def to_csv(self) -> str:
        lines = [f"# {FORMULA_NOTE}"]
        lines.append("name," + ",".join(self.names))
        lines.append("Articles," + ",".join(str(self.sizes[n]) for n in self.names))
        for i, name in enumerate(self.names):
            lines.append(name + "," + ",".join(f"{v:.2f}" for v in self.values[i]))
        return "\n".join(lines) + "\n"


def overlap_matrix(datasets: list[Dataset]) -> OverlapMatrix:
    if len(datasets) < 2:
        raise ValidationError("need at least 2 datasets")
    for ds in datasets:
        if not ds.member_ids:
            raise EmptyDatasetError(f"dataset {ds.name!r} is empty")
    names = [ds.name for ds in datasets]
    if len(set(names)) != len(names):
        raise ValidationError("dataset names must be unique in a comparison")
    raw: list[list[float]] = []
    shared_counts: list[list[int]] = []
    for row in datasets:
        raw_row = []
        shared_row = []
        for col in datasets:
            shared = len(row.member_ids & col.member_ids)
            shared_row.append(shared)
            raw_row.append(100.0 * shared / len(col.member_ids))
        raw.append(raw_row)
        shared_counts.append(shared_row)
    rounded = [[round(v, 2) for v in row] for row in raw]
    return OverlapMatrix(
        names=names,
        sizes={ds.name: len(ds.member_ids) for ds in datasets},
        values=rounded,
        raw_values=raw,
        intersections=shared_counts,
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
        projection = cls(
            dataset_names=list(data["datasets"]),
            membership={
                node: tuple(ch == "1" for ch in bits)
                for node, bits in data["membership"].items()
            },
        )
        for cluster, fractions in data.get("coverage", {}).items():
            projection.coverage[int(cluster)] = dict(fractions)
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
    if not base_network.nodes:
        raise ValidationError("base network is empty")
    names = [ds.name for ds in datasets]
    membership = {
        node: tuple(node in ds.member_ids for ds in datasets) for node in base_network.nodes
    }
    projection = OverlayProjection(dataset_names=names, membership=membership)
    missing = set(base_network.nodes) - set(partition.assignment)
    if missing:
        raise ValidationError(
            f"partition does not cover the base network ({len(missing)} nodes missing)"
        )
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


@dataclass
class CoverageReport:
    threshold: float
    epsilon: float
    classes: dict[int, dict[str, str]]  # cluster -> dataset -> FULL/PARTIAL/MISSED
    common_core: list[int]  # clusters covered >= threshold by every dataset

    def to_csv(self, labels: dict[int, str] | None = None) -> str:
        datasets = sorted({name for row in self.classes.values() for name in row})
        lines = [f"# threshold={self.threshold} epsilon={self.epsilon}"]
        lines.append("cluster,label," + ",".join(datasets))
        for cluster in sorted(self.classes):
            label = (labels or {}).get(cluster, "")
            row = ",".join(self.classes[cluster][name] for name in datasets)
            lines.append(f"{cluster},{label},{row}")
        lines.append("common_core," + ";".join(str(c) for c in self.common_core) + ",")
        return "\n".join(lines) + "\n"


def coverage_report(
    projection: OverlayProjection,
    threshold: float = 0.10,
    epsilon: float = 0.05,
) -> CoverageReport:
    """Classify each cluster x dataset as FULL, PARTIAL, or MISSED.

    FULL: coverage >= 1-epsilon; PARTIAL: threshold <= coverage < 1-epsilon;
    MISSED: below threshold. The common core lists clusters every dataset
    covers at or above the threshold. Coverage comes from
    ``project_overlay``; a projection without it is rejected.
    """
    if not (0.0 < threshold < 1.0):
        raise ValidationError("threshold must lie strictly between 0 and 1")
    if not (0.0 <= epsilon < 1.0):
        raise ValidationError("epsilon must lie in [0, 1)")
    if not projection.coverage:
        raise ValidationError("projection has no cluster coverage; project it with a partition")

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
    return CoverageReport(threshold, epsilon, classes, common_core)
