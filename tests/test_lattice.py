"""Lattice geometry, Majorana indexing, snake ordering, momentum grids."""

import numpy as np
import pytest

from fermion_noise import (
    Lattice,
    momentum_grid,
    parity_of,
    snake_index,
    snake_index_vector,
    torus_distance,
)


class TestLatticeBasics:
    def test_sizes(self):
        assert Lattice(1, 7).n_sites == 7
        assert Lattice(2, 5).n_sites == 25
        assert Lattice(2, 5).n_majorana == 50

    @pytest.mark.parametrize("dim", [0, 3, -1])
    def test_bad_dim_rejected(self, dim):
        with pytest.raises(ValueError):
            Lattice(dim, 4)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            Lattice(1, 0)

    def test_site_index_first_coordinate_fastest(self):
        lat = Lattice(2, 4)
        assert lat.site_index((0, 0)) == 0
        assert lat.site_index((1, 0)) == 1
        assert lat.site_index((0, 1)) == 4
        assert lat.site_index((3, 2)) == 11

    def test_site_index_round_trip(self):
        lat = Lattice(2, 5)
        for idx in range(lat.n_sites):
            assert lat.site_index(lat.site_coords(idx)) == idx

    def test_coords_table_matches_site_coords(self):
        lat = Lattice(2, 3)
        for idx in range(lat.n_sites):
            assert tuple(lat.coords[idx]) == lat.site_coords(idx)

    def test_coords_read_only(self):
        lat = Lattice(1, 4)
        with pytest.raises(ValueError):
            lat.coords[0] = 9

    def test_out_of_range_rejected(self):
        lat = Lattice(2, 4)
        with pytest.raises(IndexError):
            lat.site_index((4, 0))
        with pytest.raises(IndexError):
            lat.site_coords(16)
        with pytest.raises(ValueError):
            lat.site_index((1, 2, 3))


class TestDistances:
    def test_torus_distance_values(self):
        assert torus_distance(0, 3, 8) == 3
        assert torus_distance(0, 5, 8) == 3  # wraps around
        assert torus_distance((0, 0), (3, 3), 4) == 2
        assert torus_distance((1, 1), (1, 1), 4) == 0

    def test_torus_distance_symmetry(self, rng):
        for _ in range(50):
            a, b = rng.integers(0, 6, size=(2, 2))
            assert torus_distance(a, b, 6) == torus_distance(b, a, 6)

    def test_distance_matrix_matches_pairwise(self):
        lat = Lattice(2, 4)
        mat = lat.distance_matrix()
        assert mat.shape == (16, 16)
        for i in range(16):
            for j in range(16):
                assert mat[i, j] == lat.distance(i, j)

    def test_max_distance(self):
        # Farthest pair on an even torus sits at L/2 per axis.
        assert Lattice(1, 8).distance_matrix().max() == 4
        assert Lattice(2, 6).distance_matrix().max() == 6


class TestSnakeOrdering:
    def test_small_lattice_values(self):
        lat = Lattice(2, 4)
        # row 0 runs left to right, row 1 right to left
        assert snake_index(lat, 0, 0) == 0
        assert snake_index(lat, 3, 0) == 3
        assert snake_index(lat, 3, 1) == 4
        assert snake_index(lat, 0, 1) == 7
        assert snake_index(lat, 0, 2) == 8

    def test_consecutive_indices_are_neighbors(self):
        lat = Lattice(2, 6)
        order = np.argsort(snake_index_vector(lat))
        for a, b in zip(order[:-1], order[1:]):
            # adjacent in snake order => adjacent on the (open) grid
            da = np.abs(lat.coords[a] - lat.coords[b]).sum()
            assert da == 1

    def test_vector_matches_scalar(self):
        lat = Lattice(2, 5)
        vec = snake_index_vector(lat)
        for idx in range(lat.n_sites):
            x, y = lat.site_coords(idx)
            assert vec[idx] == snake_index(lat, x, y)

    def test_is_a_bijection(self):
        vec = snake_index_vector(Lattice(2, 6))
        assert sorted(vec) == list(range(36))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            snake_index(Lattice(1, 4), 0, 0)


class TestMomentumGrids:
    def test_odd_parity_integer_modes(self):
        grid = momentum_grid(Lattice(1, 6), "odd")
        assert sorted(grid.m_vectors[:, 0]) == [-3, -2, -1, 0, 1, 2]
        np.testing.assert_allclose(grid.momenta, 2 * np.pi * grid.m_vectors / 6)

    def test_even_parity_half_integer_modes(self):
        grid = momentum_grid(Lattice(1, 4), "even")
        assert sorted(grid.m_vectors[:, 0]) == [-1.5, -0.5, 0.5, 1.5]

    def test_2d_grid_size(self):
        grid = momentum_grid(Lattice(2, 4), "even")
        assert len(grid) == 16
        assert grid.momenta.shape == (16, 2)

    def test_momenta_within_brillouin_zone(self):
        for parity in ("odd", "even"):
            grid = momentum_grid(Lattice(2, 8), parity)
            assert grid.momenta.min() >= -np.pi
            assert grid.momenta.max() < np.pi

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            momentum_grid(Lattice(1, 5), "odd")

    def test_unknown_parity_rejected(self):
        with pytest.raises(ValueError):
            momentum_grid(Lattice(1, 4), "both")

    def test_parity_of(self):
        assert parity_of(0) == "even"
        assert parity_of(3) == "odd"
        assert parity_of(10) == "even"
        with pytest.raises(ValueError):
            parity_of(-1)
