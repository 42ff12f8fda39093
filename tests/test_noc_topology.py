"""Tests for mesh/torus geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.topology import MeshTopology, TopologyError, square


class TestCoordinates:
    def test_roundtrip(self, mesh_3x3):
        for tid in range(9):
            x, y = mesh_3x3.coords(tid)
            assert mesh_3x3.tile_id(x, y) == tid

    def test_row_major_layout(self, mesh_3x3):
        assert mesh_3x3.coords(0) == (0, 0)
        assert mesh_3x3.coords(4) == (1, 1)
        assert mesh_3x3.coords(8) == (2, 2)

    def test_out_of_range_rejected(self, mesh_3x3):
        with pytest.raises(TopologyError):
            mesh_3x3.coords(9)
        with pytest.raises(TopologyError):
            mesh_3x3.tile_id(3, 0)

    def test_invalid_grid_rejected(self):
        with pytest.raises(TopologyError):
            MeshTopology(0, 3)


class TestNeighbors:
    def test_center_tile_has_four_mesh_neighbors(self, mesh_3x3):
        assert sorted(mesh_3x3.mesh_neighbors(4)) == [1, 3, 5, 7]

    def test_corner_has_two_mesh_neighbors(self, mesh_3x3):
        assert sorted(mesh_3x3.mesh_neighbors(0)) == [1, 3]

    def test_torus_corner_has_four_neighbors(self, mesh_3x3):
        # Fig. 5: tile 0 of a 3x3 grid wraps to 1, 2, 3 and 6.
        assert sorted(mesh_3x3.torus_neighbors(0)) == [1, 2, 3, 6]

    def test_torus_neighbor_count_on_larger_grids(self, mesh_4x4):
        for tid in mesh_4x4.all_tiles():
            assert len(mesh_4x4.torus_neighbors(tid)) == 4

    def test_torus_degenerate_grid_deduplicates(self):
        topo = MeshTopology(2, 1)
        assert topo.torus_neighbors(0) == [1]

    @given(st.integers(2, 8), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_torus_neighborhood_is_symmetric(self, w, h):
        topo = MeshTopology(w, h)
        for tid in topo.all_tiles():
            for nb in topo.torus_neighbors(tid):
                assert tid in topo.torus_neighbors(nb)


class TestRouting:
    def test_hop_distance_is_manhattan(self, mesh_4x4):
        assert mesh_4x4.hop_distance(0, 15) == 6
        assert mesh_4x4.hop_distance(5, 5) == 0
        assert mesh_4x4.hop_distance(0, 3) == 3

    def test_xy_route_endpoints_and_length(self, mesh_4x4):
        route = mesh_4x4.xy_route(0, 15)
        assert route[0] == 0
        assert route[-1] == 15
        assert len(route) == mesh_4x4.hop_distance(0, 15) + 1

    def test_xy_route_goes_x_first(self, mesh_4x4):
        route = mesh_4x4.xy_route(0, 5)
        assert route == [0, 1, 5]

    def test_xy_route_adjacent_steps(self, mesh_4x4):
        route = mesh_4x4.xy_route(12, 3)
        for a, b in zip(route, route[1:]):
            assert mesh_4x4.hop_distance(a, b) == 1

    @given(st.integers(2, 6), st.integers(2, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_hop_distance_symmetric(self, w, h, data):
        topo = MeshTopology(w, h)
        a = data.draw(st.integers(0, topo.n_tiles - 1))
        b = data.draw(st.integers(0, topo.n_tiles - 1))
        assert topo.hop_distance(a, b) == topo.hop_distance(b, a)


class TestRing:
    def test_ring_visits_every_tile_once(self, mesh_4x4):
        ring = mesh_4x4.ring_order()
        assert sorted(ring) == list(range(16))

    def test_serpentine_consecutive_tiles_adjacent(self, mesh_4x4):
        ring = mesh_4x4.ring_order()
        for a, b in zip(ring, ring[1:]):
            assert mesh_4x4.hop_distance(a, b) == 1


class TestHelpers:
    def test_square_constructor(self):
        topo = square(5)
        assert topo.n_tiles == 25

    def test_center_tile(self, mesh_3x3):
        assert mesh_3x3.center_tile() == 4
