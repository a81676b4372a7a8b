"""Overlap matrices, base-map projections, coverage classification."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citecascade.clustering import ClusterPartition
from citecascade.cocitation import CoCitationNetwork, EdgeInfo, NetworkConfig, NodeInfo
from citecascade.errors import EmptyDatasetError, ValidationError
from citecascade.overlay import (
    FULL,
    MISSED,
    PARTIAL,
    CoverageLimits,
    OverlayProjection,
    coverage_report,
    overlap_matrix,
    project_overlay,
)
from citecascade.records import Dataset


def base_network(node_ids: list[str]) -> CoCitationNetwork:
    nodes = {n: NodeInfo(1, 2000) for n in node_ids}
    edges = {}
    for i in range(len(node_ids) - 1):
        pair = tuple(sorted((node_ids[i], node_ids[i + 1])))
        edges[pair] = EdgeInfo(1, 2000)
    return CoCitationNetwork(nodes, edges, NetworkConfig())


class TestOverlapMatrix:
    def test_hand_example(self):
        d1 = Dataset("D1", {"a", "b", "c"})
        d2 = Dataset("D2", {"b", "c", "d", "e"})
        matrix = overlap_matrix([d1, d2])
        assert matrix.value("D1", "D2") == 50.00  # 2 of 4
        assert matrix.value("D2", "D1") == 66.67  # 2 of 3
        assert matrix.value("D1", "D1") == 100.00
        assert matrix.value("D2", "D2") == 100.00

    def test_identical_datasets_all_hundred(self):
        d1 = Dataset("x", {"a", "b"})
        d2 = Dataset("y", {"a", "b"})
        matrix = overlap_matrix([d1, d2])
        assert all(v == 100.00 for row in matrix.values for v in row)

    def test_subset_shares(self):
        small = Dataset("small", {f"i{k}" for k in range(17)})
        big = Dataset("big", {f"i{k}" for k in range(100)})
        matrix = overlap_matrix([small, big])
        assert matrix.value("small", "big") == 17.00
        assert matrix.value("big", "small") == 100.00

    def test_empty_dataset_error_names_it(self):
        with pytest.raises(EmptyDatasetError, match="hollow"):
            overlap_matrix([Dataset("full", {"a"}), Dataset("hollow", set())])

    def test_needs_two_datasets(self):
        with pytest.raises(ValidationError):
            overlap_matrix([Dataset("only", {"a"})])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            overlap_matrix([Dataset("same", {"a"}), Dataset("same", {"b"})])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(0, 40), min_size=1, max_size=30), min_size=2, max_size=5
        )
    )
    def test_intersection_identity_exact_prerounding(self, member_sets):
        datasets = [Dataset(f"d{i}", {str(x) for x in s}) for i, s in enumerate(member_sets)]
        matrix = overlap_matrix(datasets)
        n = len(datasets)
        for i in range(n):
            for j in range(n):
                # Pre-rounding identity: both cells recover the same intersection.
                assert matrix.intersections[i][j] == matrix.intersections[j][i]
                size_j = matrix.sizes[matrix.names[j]]
                assert matrix.raw_values[i][j] == 100.0 * matrix.intersections[i][j] / size_j
                # Rounded cells still recover the intersection within tolerance.
                recovered = matrix.values[i][j] * size_j / 100.0
                assert abs(recovered - matrix.intersections[i][j]) <= 0.005 * size_j / 100.0 + 1e-9
                assert 0.0 <= matrix.values[i][j] <= 100.0
            assert matrix.values[i][i] == 100.00

    def test_csv_layout_and_formula_note(self):
        matrix = overlap_matrix([Dataset("A", {"a"}), Dataset("B", {"a", "b"})])
        lines = matrix.to_csv(["1999-2004", ""]).splitlines()
        assert lines[0].startswith("#")
        assert "col_set" in lines[0]
        assert lines[1] == "name,A,B"
        assert lines[2] == "Range,1999-2004,"
        assert lines[3] == "Articles,1,2"
        assert lines[4] == "A,100.00,50.00"
        assert lines[5] == "B,100.00,100.00"


def one_cluster(network: CoCitationNetwork) -> ClusterPartition:
    return ClusterPartition(assignment={n: 0 for n in network.nodes})


class TestProjectOverlay:
    def test_membership_bitsets(self):
        network = base_network(["n1", "n2", "n3"])
        datasets = [
            Dataset("all", {"n1", "n2", "n3"}),
            Dataset("some", {"n2"}),
            Dataset("none", {"zzz"}),
        ]
        projection = project_overlay(network, datasets, one_cluster(network))
        assert projection.membership["n1"] == (True, False, False)
        assert projection.membership["n2"] == (True, True, False)
        assert projection.bitstring("n2") == "110"
        assert all(not projection.membership[n][2] for n in network.nodes)

    def test_all_datasets_marked(self):
        network = base_network(["n1"])
        datasets = [Dataset(f"d{i}", {"n1"}) for i in range(5)]
        projection = project_overlay(network, datasets, one_cluster(network))
        assert projection.bitstring("n1") == "11111"

    def test_bruteforce_membership(self, rng):
        node_ids = [f"n{i:02d}" for i in range(20)]
        network = base_network(node_ids)
        datasets = [
            Dataset(f"d{k}", set(rng.sample(node_ids, rng.randint(0, 15)))) for k in range(3)
        ]
        projection = project_overlay(network, datasets, one_cluster(network))
        for node in node_ids:
            for pos, ds in enumerate(datasets):
                assert projection.membership[node][pos] == (node in ds.member_ids)

    def test_column_permutation_invariance(self):
        network = base_network(["n1", "n2"])
        d_a = Dataset("a", {"n1"})
        d_b = Dataset("b", {"n2"})
        forward = project_overlay(network, [d_a, d_b], one_cluster(network))
        backward = project_overlay(network, [d_b, d_a], one_cluster(network))
        for node in network.nodes:
            assert forward.membership[node] == tuple(reversed(backward.membership[node]))

    def test_coverage_fractions_with_partition(self):
        network = base_network(["n1", "n2", "n3", "n4"])
        partition = ClusterPartition(assignment={"n1": 0, "n2": 0, "n3": 1, "n4": 1})
        datasets = [Dataset("half", {"n1", "n3", "n4"})]
        projection = project_overlay(network, datasets, partition)
        assert projection.coverage[0]["half"] == pytest.approx(0.5)
        assert projection.coverage[1]["half"] == pytest.approx(1.0)

    def test_whole_base_dataset_covers_everything(self):
        network = base_network(["n1", "n2", "n3"])
        partition = ClusterPartition(assignment={"n1": 0, "n2": 0, "n3": 1})
        combined = Dataset("combined", set(network.nodes) | {"extra"})
        projection = project_overlay(network, [combined, Dataset("o", {"n1"})], partition)
        assert all(v == 1.0 for v in (
            projection.coverage[0]["combined"], projection.coverage[1]["combined"]
        ))

    def test_empty_base_rejected(self):
        empty = CoCitationNetwork({}, {}, NetworkConfig())
        with pytest.raises(ValidationError):
            project_overlay(empty, [Dataset("d", {"x"})], one_cluster(empty))

    def test_partition_mismatch_rejected(self):
        network = base_network(["n1", "n2"])
        partition = ClusterPartition(assignment={"n1": 0})
        with pytest.raises(ValidationError):
            project_overlay(network, [Dataset("d", {"n1"})], partition)

    def test_json_roundtrip(self):
        network = base_network(["n1", "n2"])
        partition = ClusterPartition(assignment={"n1": 0, "n2": 1})
        projection = project_overlay(network, [Dataset("d", {"n1"})], partition)
        again = OverlayProjection.from_json_dict(
            json.loads(json.dumps(projection.to_json_dict()))
        )
        assert again.membership == projection.membership
        assert again.coverage == projection.coverage


class TestCoverageReport:
    def _projection(self, coverage: dict[int, dict[str, float]], names: list[str]):
        return OverlayProjection(dataset_names=names, membership={}, coverage=coverage)

    def test_full_and_missed(self):
        projection = self._projection(
            {0: {"inside": 1.0, "outside": 0.0}}, ["inside", "outside"]
        )
        report = coverage_report(projection, CoverageLimits(threshold=0.10, epsilon=0.05))
        assert report.classes[0]["inside"] == FULL
        assert report.classes[0]["outside"] == MISSED

    def test_half_coverage_is_partial(self):
        projection = self._projection({0: {"d": 0.5}}, ["d"])
        report = coverage_report(projection, CoverageLimits(threshold=0.25, epsilon=0.05))
        assert report.classes[0]["d"] == PARTIAL

    def test_common_core_is_planted_universal_cluster(self):
        projection = self._projection(
            {
                0: {"d1": 1.0, "d2": 0.8, "d3": 0.4},   # everyone reaches it
                1: {"d1": 1.0, "d2": 0.05, "d3": 0.9},  # d2 misses
                2: {"d1": 0.0, "d2": 0.0, "d3": 1.0},
            },
            ["d1", "d2", "d3"],
        )
        report = coverage_report(projection, CoverageLimits(threshold=0.10))
        assert report.common_core == [0]

    def test_boundaries(self):
        projection = self._projection({0: {"d": 0.95}, 1: {"d": 0.10}}, ["d"])
        report = coverage_report(projection, CoverageLimits(threshold=0.10, epsilon=0.05))
        assert report.classes[0]["d"] == FULL  # 0.95 >= 1 - 0.05
        assert report.classes[1]["d"] == PARTIAL  # exactly at threshold

    def test_threshold_validation(self):
        for bad in (0.0, 1.0, -0.2, 7):
            with pytest.raises(ValidationError):
                CoverageLimits(threshold=bad)

    def test_rejects_projection_without_coverage(self):
        network = base_network(["n1", "n2"])
        datasets = [Dataset("d", {"n1", "n2"})]
        with pytest.raises(ValidationError):
            coverage_report(self._projection({}, ["d"]), CoverageLimits(threshold=0.5))
        partition = ClusterPartition(assignment={"n1": 0, "n2": 0})
        report = coverage_report(project_overlay(network, datasets, partition), CoverageLimits(threshold=0.5))
        assert report.classes[0]["d"] == FULL

    def test_csv_shape(self):
        projection = self._projection({0: {"d": 1.0}, 1: {"d": 0.0}}, ["d"])
        report = coverage_report(projection)
        csv_text = report.to_csv(labels={0: "core theme"})
        lines = csv_text.splitlines()
        assert lines[1] == "cluster,label,d"
        assert lines[2] == "0,core theme,FULL"
        assert lines[3] == "1,,MISSED"
        assert lines[4].startswith("common_core,0")
