"""Network construction and exposure mapping tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from irtlab import (
    ThreeLevelExposure,
    TwoRoundExposure,
    build_network,
    cluster_network,
    exposure_three_level,
    exposure_two_round,
    spatial_network,
)
from irtlab.errors import (
    IndexOutOfRangeError,
    LengthMismatchError,
    NegativeRadiusError,
    NonBinaryAssignmentError,
    SelfLoopError,
    UnknownTreatmentError,
)
from irtlab.network import load_cluster_csv, load_coords_csv, load_edge_csv


def neighbors_as_lists(net):
    return [list(v) for v in net.neighbors]


class TestBuildNetwork:
    def test_symmetric_closure(self):
        net = build_network(3, [(0, 1)])
        assert neighbors_as_lists(net) == [[1], [0], []]

    def test_duplicate_collapse(self):
        net = build_network(2, [(0, 1), (1, 0)])
        assert neighbors_as_lists(net) == [[1], [0]]
        assert net.edges() == [(0, 1)]

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            build_network(2, [(0, 2)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_network(3, [(1, 1)])

    def test_degree_and_adjacency(self):
        net = build_network(4, [(0, 1), (1, 2)])
        assert net.degree().tolist() == [1, 2, 1, 0]
        adj = net.adjacency.toarray()
        assert (adj == adj.T).all()
        assert adj[0, 1] == 1 and adj[1, 2] == 1 and adj[0, 2] == 0


class TestClusterNetwork:
    def test_pair_cluster(self):
        net = cluster_network([0, 0, 1])
        assert net.edges() == [(0, 1)]

    def test_singletons_no_edges(self):
        net = cluster_network([0, 1, 2])
        assert net.edges() == []

    def test_triangle(self):
        net = cluster_network([0, 0, 0])
        assert net.edges() == [(0, 1), (0, 2), (1, 2)]


class TestSpatialNetwork:
    def test_threshold(self):
        net = spatial_network([(0, 0), (0, 0.5), (0, 2)], radius=1.0)
        assert net.edges() == [(0, 1)]

    def test_zero_radius_distinct_points(self):
        net = spatial_network([(0, 0), (1, 1)], radius=0.0)
        assert net.edges() == []

    def test_boundary_inclusive(self):
        net = spatial_network([(0, 0), (0, 1)], radius=1.0)
        assert net.edges() == [(0, 1)]

    def test_negative_radius(self):
        with pytest.raises(NegativeRadiusError):
            spatial_network([(0, 0)], radius=-0.1)


class TestThreeLevelExposure:
    def test_isolated_unit(self):
        net = build_network(1, [])
        assert exposure_three_level(net, [0]).tolist() == [0]
        assert exposure_three_level(net, [1]).tolist() == [2]

    def test_path(self):
        net = build_network(2, [(0, 1)])
        assert exposure_three_level(net, [0, 1]).tolist() == [1, 2]

    def test_all_control_triangle(self):
        net = cluster_network([0, 0, 0])
        assert exposure_three_level(net, [0, 0, 0]).tolist() == [0, 0, 0]

    def test_length_mismatch(self):
        net = build_network(2, [])
        with pytest.raises(LengthMismatchError):
            exposure_three_level(net, [0, 1, 0])

    def test_non_binary(self):
        net = build_network(2, [])
        with pytest.raises(NonBinaryAssignmentError):
            exposure_three_level(net, [0, 2])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        net = build_network(6, [(0, 1), (1, 2), (3, 4)])
        emap = ThreeLevelExposure(net)
        Z = rng.integers(0, 2, size=(20, 6))
        batch = emap.batch(Z)
        for row, z in zip(batch, Z):
            assert row.tolist() == emap(z).tolist()

    @settings(max_examples=80, deadline=None)
    @given(
        hst.integers(min_value=2, max_value=12).flatmap(
            lambda n: hst.tuples(
                hst.just(n),
                hst.lists(
                    hst.tuples(hst.integers(0, n - 1), hst.integers(1, n - 1)).map(
                        lambda e: (e[0], (e[0] + e[1]) % n)
                    ),
                    max_size=3 * n,
                ),
                hst.lists(
                    hst.lists(hst.integers(0, 1), min_size=n, max_size=n),
                    min_size=1,
                    max_size=8,
                ),
            )
        )
    )
    def test_batch_equals_per_row_call(self, case):
        n, edges, rows = case
        emap = ThreeLevelExposure(build_network(n, edges))
        Z = np.array(rows, dtype=np.int8)
        batch = emap.batch(Z)
        assert batch.shape == Z.shape
        for row, z in zip(batch, Z):
            assert np.array_equal(row, emap(z))
            # reference: the definition, unit by unit
            expected = [
                2 if z[i] else int(any(z[j] for j in emap.network.neighbors[i]))
                for i in range(n)
            ]
            assert row.tolist() == expected

    @settings(max_examples=50, deadline=None)
    @given(hst.integers(min_value=0, max_value=2**10 - 1), hst.randoms())
    def test_deterministic_and_equivariant(self, bits, pyrandom):
        n = 10
        edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (8, 9)]
        net = build_network(n, edges)
        z = np.array([(bits >> i) & 1 for i in range(n)])
        e1 = exposure_three_level(net, z)
        e2 = exposure_three_level(net, z)
        assert e1.tolist() == e2.tolist()
        # relabeling units permutes the exposure vector identically
        perm = list(range(n))
        pyrandom.shuffle(perm)
        perm = np.array(perm)
        net_p = build_network(n, [(perm[u], perm[v]) for u, v in edges])
        z_p = np.empty(n, dtype=int)
        z_p[perm] = z
        e_p = exposure_three_level(net_p, z_p)
        assert e_p[perm].tolist() == e1.tolist()

    @settings(max_examples=50, deadline=None)
    @given(hst.integers(min_value=0, max_value=2**8 - 1))
    def test_monotone_in_treated_neighbors(self, bits):
        # treating one more neighbor never lowers an untreated unit's label
        n = 8
        edges = [(i, i + 1) for i in range(n - 1)]
        net = build_network(n, edges)
        z = np.array([(bits >> i) & 1 for i in range(n)])
        e = exposure_three_level(net, z)
        for i in range(n):
            if z[i] == 1:
                continue
            for j in net.neighbors[i]:
                if z[j] == 0:
                    z2 = z.copy()
                    z2[j] = 1
                    assert exposure_three_level(net, z2)[i] >= e[i]

    def test_local_consistency(self):
        # a unit's exposure depends only on its own arm and whether any
        # neighbor is treated
        net = build_network(5, [(0, 1), (0, 2)])
        z1 = np.array([0, 1, 0, 0, 0])
        z2 = np.array([0, 1, 1, 1, 1])
        assert exposure_three_level(net, z1)[0] == exposure_three_level(net, z2)[0]


class TestTwoRoundExposure:
    net = build_network(4, [(0, 2), (1, 2), (0, 3)])
    round_of = ["first", "first", "second", "second"]

    def test_no_first_round_neighbors(self):
        net = build_network(2, [])
        emap = TwoRoundExposure(net, ["first", "second"], {3: "simple"})
        assert emap(np.array([3, 3])).tolist() == ["3n", "3n"]

    def test_intensive_dominates_simple(self):
        emap = TwoRoundExposure(
            self.net, self.round_of, {1: "simple", 2: "intensive", 3: "simple"}
        )
        labels = emap(np.array([1, 2, 3, 3]))
        assert labels[2] == "3s"  # one intensive, one simple neighbor
        assert labels[3] == "3w"  # only a simple neighbor

    def test_first_round_units_have_no_prior_level(self):
        emap = TwoRoundExposure(
            self.net, self.round_of, {1: "simple", 2: "intensive", 3: "simple"}
        )
        labels = emap(np.array([2, 2, 3, 3]))
        assert labels[0] == "2n" and labels[1] == "2n"

    def test_unknown_treatment(self):
        emap = TwoRoundExposure(
            self.net, self.round_of, {1: "simple", 2: "intensive"}
        )
        with pytest.raises(UnknownTreatmentError):
            emap(np.array([1, 2, 9, 1]))

    def test_unknown_intensity(self):
        with pytest.raises(UnknownTreatmentError):
            TwoRoundExposure(self.net, self.round_of, {1: "mild"})

    def test_labels_enumerate_all_pairs(self):
        emap = TwoRoundExposure(
            self.net, self.round_of, {1: "simple", 2: "intensive"}
        )
        assert emap.labels == ("1n", "1w", "1s", "2n", "2w", "2s")

    def test_helper_matches_class(self):
        intensity = {1: "simple", 2: "intensive", 3: "simple"}
        z = np.array([2, 1, 3, 1])
        via_class = TwoRoundExposure(self.net, self.round_of, intensity)(z)
        via_fn = exposure_two_round(self.net, z, self.round_of, intensity)
        assert via_class.tolist() == via_fn.tolist()


class TestCsvLoaders:
    def test_edge_csv(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("u,v\n0,1\n1,2\n")
        net = load_edge_csv(path, 4)
        assert net.edges() == [(0, 1), (1, 2)]

    def test_edge_csv_one_indexed(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("1,2\n")
        net = load_edge_csv(path, 2, one_indexed=True)
        assert net.edges() == [(0, 1)]

    def test_cluster_csv(self, tmp_path):
        path = tmp_path / "clusters.csv"
        path.write_text("unit,cluster\n0,0\n1,0\n2,1\n")
        assert load_cluster_csv(path).tolist() == [0, 0, 1]

    def test_cluster_csv_gap_rejected(self, tmp_path):
        path = tmp_path / "clusters.csv"
        path.write_text("0,0\n2,1\n")
        with pytest.raises(IndexOutOfRangeError):
            load_cluster_csv(path)

    def test_coords_csv(self, tmp_path):
        path = tmp_path / "coords.csv"
        path.write_text("unit,x,y\n0,0.0,0.0\n1,0.5,0.25\n")
        coords = load_coords_csv(path)
        assert coords.tolist() == [[0.0, 0.0], [0.5, 0.25]]
