"""Lattice geometry, Majorana indexing, snake ordering, momentum grids."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import assert_close, box_sum, displacement_index, displacement_multiplicity, \
    fold, fold_onto_torus, lattice_coords, plane_wave_pair_sum
from fermion_noise import (
    Lattice,
    MomentumGrid,
    momentum_grid,
    parity_of,
    snake_index_vector,
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

    def test_non_integer_sizes_rejected(self):
        with pytest.raises(ValueError, match="length .*4.5"):
            Lattice(1, 4.5)
        with pytest.raises(ValueError, match="dim .*1.5"):
            Lattice(1.5, 4)
        lat = Lattice(np.int64(2), np.int32(4))
        assert (lat.dim, lat.length, lat.n_sites) == (2, 4, 16)
        assert type(lat.length) is int

    def test_equality_and_hash_follow_dim_and_length(self):
        assert Lattice(2, 4) == Lattice(2, 4)
        assert Lattice(2, 4) != Lattice(2, 5)
        assert Lattice(2, 4) != Lattice(1, 16)  # same number of sites
        assert Lattice(1, 4) != (1, 4)
        assert hash(Lattice(2, 4)) == hash(Lattice(2, 4))
        assert len({Lattice(2, 4), Lattice(2, 4), Lattice(1, 16)}) == 2

    def test_site_index_first_coordinate_fastest(self):
        lat = Lattice(2, 4)
        assert lat.site_index((0, 0)) == 0
        assert lat.site_index((1, 0)) == 1
        assert lat.site_index((0, 1)) == 4
        assert lat.site_index((3, 2)) == 11
        assert lat.site_index((np.int64(3), np.int32(2))) == 11
        assert lat.site_index(np.array([3, 2], dtype=np.uint8)) == 11

    def test_site_index_round_trip(self):
        lat = Lattice(2, 5)
        for idx in range(lat.n_sites):
            assert lat.site_index(lattice_coords(lat)[idx]) == idx

    def test_coords_table_matches_site_index(self):
        lat = Lattice(2, 3)
        for x, y in itertools.product(range(3), repeat=2):
            assert tuple(lattice_coords(lat)[lat.site_index((x, y))]) == (x, y)

    @pytest.mark.parametrize("coords", [(1.5, 0), (1.0, 0), (np.float64(1), 0)])
    def test_site_index_rejects_non_integer_coordinates(self, coords):
        with pytest.raises(TypeError, match="integer"):
            Lattice(2, 4).site_index(coords)

    def test_out_of_range_rejected(self):
        lat = Lattice(2, 4)
        with pytest.raises(IndexError):
            lat.site_index((4, 0))
        with pytest.raises(ValueError):
            lat.site_index((1, 2, 3))


class TestDistances:
    def test_pair_distance_values(self):
        assert Lattice(1, 8).pair_distances(np.array([0, 3]))[0, 1] == 3
        assert Lattice(1, 8).pair_distances(np.array([0, 5]))[0, 1] == 3  # wraps around
        lat = Lattice(2, 4)
        sites = [lat.site_index((0, 0)), lat.site_index((3, 3)), lat.site_index((1, 1))]
        assert lat.pair_distances(np.array(sites)).tolist() == [[0, 2, 2], [2, 0, 4], [2, 4, 0]]

    @pytest.mark.parametrize("sites", [[0, 16], [-1, 3]])
    def test_pair_distances_refuse_sites_outside_the_lattice(self, sites):
        # The coordinates are computed, not looked up: a site past the end
        # would wrap onto another row, a negative one onto the far end.
        with pytest.raises(IndexError, match=r"outside \[0, 16\)"):
            Lattice(2, 4).pair_distances(np.array(sites))

    @pytest.mark.parametrize("dim,length", [(1, 7), (1, 8), (2, 4), (2, 5)])
    def test_torus_metric_matches_brute_force(self, rng, dim, length):
        lat = Lattice(dim, length)
        ref = np.zeros((lat.n_sites, lat.n_sites), dtype=np.int64)
        for r, q in itertools.product(itertools.product(range(length), repeat=dim), repeat=2):
            ref[lat.site_index(r), lat.site_index(q)] = sum(
                min(abs(a - b), length - abs(a - b)) for a, b in zip(r, q))
        assert np.array_equal(lat.distance_matrix(), ref)
        idx = rng.choice(lat.n_sites, 5, replace=False)
        assert np.array_equal(lat.pair_distances(idx), ref[np.ix_(idx, idx)])

    def test_pair_distances_are_summed_axis_by_axis(self):
        # The distances and one axis's displacements with their wrap: no
        # (n, n, dim) array of displacements, which held six times the result.
        lat = Lattice(2, 64)
        tracemalloc.start()
        try:
            dist = lat.pair_distances(np.arange(0, lat.n_sites, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.dtype == np.int64
        assert peak <= 3.1 * dist.nbytes, f"{peak} B traced for {dist.nbytes} B of distances"

    def test_max_distance(self):
        # Farthest pair on an even torus sits at L/2 per axis.
        assert Lattice(1, 8).distance_matrix().max() == 4
        assert Lattice(2, 6).distance_matrix().max() == 6


class TestDisplacementBox:
    @pytest.mark.parametrize("dim,length", [(1, 7), (1, 8), (2, 3), (2, 4)])
    def test_gather_reads_the_displacement_of_every_pair(self, rng, dim, length):
        lat = Lattice(dim, length)
        period = 2 * length
        box = rng.normal(size=(period,) * dim)
        sites = rng.permutation(lat.n_sites)
        gathered = box.ravel()[displacement_index(lat, sites)]
        coords = lattice_coords(lat)
        for i, s in enumerate(sites):
            for j, t in enumerate(sites):
                assert gathered[i, j] == box[tuple((coords[s] - coords[t]) % period)]

    @pytest.mark.parametrize("dim,length", [(1, 7), (1, 8), (2, 3), (2, 4)])
    def test_multiplicity_counts_the_pairs_and_rectangles_are_rows(self, rng, dim, length):
        lat = Lattice(dim, length)
        ones = np.ones((lat.n_sites,) * 2)
        box = fold(lat, ones)
        assert np.array_equal(displacement_multiplicity(lat), box)
        for signs in itertools.product((1, -1), repeat=dim):
            counts = np.broadcast_to(math.prod(lat.pair_counts(signs)), (length,) * dim)
            assert np.array_equal(counts, fold_onto_torus(lat, box, signs)), signs
        sites = np.arange(lat.n_sites)
        rows = rng.permutation(lat.n_sites)[:3]
        assert np.array_equal(displacement_index(lat, rows, sites),
                              displacement_index(lat, sites)[rows])

    @pytest.mark.parametrize("dim,length", [(1, 7), (1, 8), (2, 3), (2, 4)])
    def test_torus_sum_of_the_fold_is_the_plane_wave_pair_sum(self, rng, dim, length):
        # conftest's box_sum is the direct sum for any momentum; the momenta
        # pi (2 n + odd) / L of either grid parity also take the torus route,
        # the signed fold -> torus_sum, whose whole table is read at every n.
        lat = Lattice(dim, length)
        pairs = rng.normal(size=(lat.n_sites,) * 2)
        box = fold(lat, pairs)
        off_box = rng.uniform(-4.0, 4.0, size=(8, dim))
        assert_close(box_sum(lat, box, off_box), plane_wave_pair_sum(lat, pairs, off_box), 1e-12,
                     f"{dim}D L={length} off the grids")
        for odd in (False, True):
            n = np.indices((length,) * dim).reshape(dim, -1).T
            momenta = np.pi / length * (2 * n + odd)
            expected = plane_wave_pair_sum(lat, pairs, momenta)
            assert_close(box_sum(lat, box, momenta), expected, 1e-12, f"{dim}D L={length}")
            folded = fold_onto_torus(lat, box, [-1 if odd else 1] * dim).astype(complex)
            assert_close(lat.torus_sum(folded, (odd,) * dim).ravel(), expected, 1e-12,
                         f"{dim}D L={length} odd={odd} on the torus")


class TestSnakeOrdering:
    def test_small_lattice_values(self):
        lat = Lattice(2, 4)
        vec = snake_index_vector(lat)
        # row 0 runs left to right, row 1 right to left
        for (x, y), expected in {(0, 0): 0, (3, 0): 3, (3, 1): 4, (0, 1): 7, (0, 2): 8}.items():
            assert vec[lat.site_index((x, y))] == expected

    def test_consecutive_indices_are_neighbors(self):
        lat = Lattice(2, 6)
        order = np.argsort(snake_index_vector(lat))
        coords = lattice_coords(lat)
        for a, b in zip(order[:-1], order[1:]):
            # adjacent in snake order => adjacent on the (open) grid
            da = np.abs(coords[a] - coords[b]).sum()
            assert da == 1

    def test_vector_matches_formula(self):
        lat = Lattice(2, 5)
        vec = snake_index_vector(lat)
        for x, y in itertools.product(range(5), repeat=2):
            assert vec[lat.site_index((x, y))] == 5 * y + (x if y % 2 == 0 else 4 - x)

    def test_is_a_bijection(self):
        vec = snake_index_vector(Lattice(2, 6))
        assert sorted(vec) == list(range(36))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            snake_index_vector(Lattice(1, 4))


class TestMomentumGrids:
    def test_odd_parity_integer_modes(self):
        # Mode i has m = x - L/2 at site x: the grid stores its momenta alone.
        lat = Lattice(1, 6)
        grid = momentum_grid(lat, "odd")
        np.testing.assert_allclose(grid.momenta * 6 / (2 * np.pi), lattice_coords(lat) - 3,
                                   atol=1e-12)
        assert sorted(grid.momenta[:, 0]) == list(2 * np.pi * np.arange(-3, 3) / 6)

    def test_even_parity_half_integer_modes(self):
        lat = Lattice(1, 4)
        grid = momentum_grid(lat, "even")
        np.testing.assert_allclose(grid.momenta * 4 / (2 * np.pi), lattice_coords(lat) - 1.5,
                                   atol=1e-12)

    def test_a_grid_holds_its_lattice_parity_and_momenta(self):
        assert [f.name for f in dataclasses.fields(MomentumGrid)] == \
            ["lattice", "parity", "momenta", "_fill_orders"]
        grid = momentum_grid(Lattice(2, 4), "odd")
        assert not grid.momenta.flags.writeable

    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("length", [2, 4, 6])
    def test_momenta_rise_with_the_site_index_x_fastest(self, length, parity):
        # The CLI writes its rows sorted by momentum straight off this layout.
        assert np.all(np.diff(momentum_grid(Lattice(1, length), parity).momenta[:, 0]) > 0)
        m = momentum_grid(Lattice(2, length), parity).momenta.reshape(length, length, 2)
        assert np.all(np.diff(m[..., 0], axis=1) > 0) and np.all(np.diff(m[..., 1], axis=0) > 0)
        assert np.all(m[..., 0] == m[:1, :, 0]) and np.all(m[..., 1] == m[:, :1, 1])

    def test_grids_compare_by_lattice_and_parity(self):
        # The momenta follow from the lattice and parity and take no part.
        grid = momentum_grid(Lattice(2, 4), "odd")
        same = momentum_grid(Lattice(2, 4), "odd")
        assert grid == same and hash(grid) == hash(same)
        assert grid != momentum_grid(Lattice(2, 4), "even")
        assert grid != momentum_grid(Lattice(2, 6), "odd")
        assert grid != momentum_grid(Lattice(1, 4), "odd")
        assert len({grid, same, momentum_grid(Lattice(2, 4), "even")}) == 2

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
