"""Tests for covariance-matrix states, observables, and Fermi seas."""

import numpy as np
import pytest

from conftest import (
    GaussianState,
    assert_close,
    coefficient_trace_norm,
    correlation_of,
    damped_random_state,
    decay_constant,
    dense_coefficients,
    dense_momentum_occupation,
    dense_state,
    full_covariance,
    haar_special_orthogonal,
    lattice_coords,
    momentum_occupation_observable,
    observable_from_matrix,
    plane_wave_correlation,
    power_law_mask,
    random_correlation,
    random_normalized_observable,
    random_pure_state,
    refuse_full_covariance,
    state_from_correlation,
)
from fermion_noise import (
    InvariantViolation,
    Lattice,
    ModeDiagonalState,
    QuadraticObservable,
    circulant_power_law_state,
    fermi_sea,
    fermi_sea_1d,
    free_dispersion,
    momentum_grid,
    momentum_occupation,
    occupied_modes,
    parity_of,
    tight_binding_dispersion,
)
import fermion_noise.gaussian as gaussian_module
from fermion_noise.gaussian import haar_rotations


def _dense_circulant_state(lattice, mu):
    """Reference construction: the circulant two-point function built entry by entry."""
    amp = 0.45 / gaussian_module._offdiagonal_decay_sum(lattice.dim, mu)
    corr = amp * (1.0 + lattice.distance_matrix().astype(float)) ** (-mu)
    np.fill_diagonal(corr, 0.5)
    return state_from_correlation(lattice, corr, validate=False), 2.0 * amp


class TestQuadraticObservable:
    def test_shape_and_antisymmetry_validated(self):
        lat = Lattice(1, 3)
        with pytest.raises(ValueError, match="6, 6"):
            observable_from_matrix(lat, np.zeros((4, 4)))
        with pytest.raises(ValueError, match="antisymmetric"):
            observable_from_matrix(lat, np.eye(6))

    def test_site_index_bounds(self):
        lat = Lattice(1, 4)
        with pytest.raises(IndexError):
            QuadraticObservable.number(lat, 4)
        with pytest.raises(IndexError):
            QuadraticObservable.hopping(lat, 0, 4)
        with pytest.raises(ValueError, match="distinct"):
            QuadraticObservable.hopping(lat, 2, 2)
        with pytest.raises(ValueError, match="components"):
            momentum_occupation_observable(lat, [0.1, 0.2])

    @pytest.mark.parametrize("build", [
        lambda lat: QuadraticObservable.number(lat, 1.5),
        lambda lat: QuadraticObservable.number(lat, np.float64(1)),
        lambda lat: QuadraticObservable.hopping(lat, 0, 1.5),
        lambda lat: QuadraticObservable.hopping(lat, 1.0, 2),
    ])
    def test_non_integer_sites_rejected(self, build):
        with pytest.raises(TypeError):
            build(Lattice(1, 4))

    def test_numpy_integer_sites_accepted(self):
        lat = Lattice(1, 4)
        assert QuadraticObservable.number(lat, np.int64(1)).support.tolist() == [2, 3]
        assert QuadraticObservable.hopping(lat, np.int32(2), np.uint8(0)).support.tolist() == \
            [0, 1, 4, 5]

    def test_trace_norms(self):
        lat = Lattice(1, 6)
        assert coefficient_trace_norm(QuadraticObservable.number(lat, 2)) == \
            pytest.approx(0.5, abs=1e-12)
        assert coefficient_trace_norm(QuadraticObservable.hopping(lat, 0, 3)) == \
            pytest.approx(1.0, abs=1e-12)
        k = 2.0 * np.pi / 6.0
        assert coefficient_trace_norm(momentum_occupation_observable(lat, [k])) == \
            pytest.approx(0.5, abs=1e-12)

    def test_helper_observables_are_antisymmetric(self):
        lat = Lattice(2, 4)
        for obs in (
            QuadraticObservable.number(lat, 5),
            QuadraticObservable.hopping(lat, 0, 9),
            momentum_occupation_observable(lat, [0.3, -1.1]),
        ):
            c = dense_coefficients(obs)
            assert np.allclose(c, -c.T, atol=1e-14)
            assert np.abs(np.diag(c)).max() == 0.0


class TestGaussianStateBasics:
    def test_shape_validated(self):
        with pytest.raises(ValueError, match="8, 8"):
            GaussianState(Lattice(1, 4), np.zeros((4, 4)))

    def test_antisymmetry_validated(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            GaussianState(Lattice(1, 2), np.eye(4))

    def test_unphysical_norm_rejected(self):
        gamma = 1.5 * GaussianState.vacuum(Lattice(1, 2)).gamma
        with pytest.raises(InvariantViolation, match="norm"):
            GaussianState(Lattice(1, 2), gamma)

    def test_vacuum(self):
        lat = Lattice(1, 5)
        state = GaussianState.vacuum(lat)
        assert state.particle_number() == pytest.approx(0.0, abs=1e-12)
        for x in range(5):
            assert state.occupation(x) == pytest.approx(0.0, abs=1e-12)
        assert dense_momentum_occupation(state, [0.7]) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_read_only(self):
        state = GaussianState.vacuum(Lattice(1, 2))
        with pytest.raises(ValueError):
            state.gamma[0, 1] = 3.0

    def test_occupation_index_bounds(self):
        with pytest.raises(IndexError):
            GaussianState.vacuum(Lattice(1, 2)).occupation(2)


class TestCorrelationMatrices:
    def test_hermiticity_required(self):
        lat = Lattice(1, 3)
        bad = np.arange(9.0).reshape(3, 3)
        with pytest.raises(ValueError, match="Hermitian"):
            state_from_correlation(lat, bad)

    def test_round_trip(self, rng):
        lat = Lattice(1, 6)
        corr = random_correlation(rng, 6)
        state = state_from_correlation(lat, corr)
        assert_close(correlation_of(state), corr, 1e-12, "C round trip")

    def test_diagonal_gives_occupations(self, rng):
        lat = Lattice(1, 5)
        corr = random_correlation(rng, 5)
        state = state_from_correlation(lat, corr)
        for x in range(5):
            assert state.occupation(x) == pytest.approx(corr[x, x].real, abs=1e-12)
        assert state.particle_number() == pytest.approx(np.trace(corr).real, abs=1e-12)


def _mode_vectors(grid):
    """The grid's mode numbers ``m`` as the grid once stored them, ``(n_sites, dim)`` floats."""
    half = grid.lattice.length // 2
    shift = 0.5 if grid.parity == "even" else 0.0
    return (np.arange(-half, half, dtype=np.float64) + shift)[lattice_coords(grid.lattice)]


def _assert_rolled_to_the_slots(grid, where=""):
    """The grid's half-period roll puts mode ``i`` at ``floor(m_i) mod L``, and reads it back."""
    modes = np.arange(len(grid))
    slots = np.floor(_mode_vectors(grid)).astype(np.int64) % grid.lattice.length
    torus = grid._roll(modes)
    assert np.array_equal(torus[tuple(slots.T)], modes), where
    assert np.array_equal(grid._roll(torus).ravel(), modes), where


class TestFermiSeas:
    def test_half_filled_four_site_chain(self):
        # Two modes at k = +-pi/4: C(x, x) = 1/2 and C(x, x+1) = cos(pi/4)/2.
        lat = Lattice(1, 4)
        state, grid, occ = fermi_sea_1d(lat, 2)
        assert len(occ) == 2
        corr = correlation_of(state)
        assert_close(np.diag(corr), 0.5, 1e-12, "diagonal")
        assert corr[0, 1] == pytest.approx(np.cos(np.pi / 4) / 2, abs=1e-12)
        hop = QuadraticObservable.hopping(lat, 0, 1)
        assert state.expectation(hop) == pytest.approx(np.cos(np.pi / 4), abs=1e-12)

    def test_pure_states_have_orthogonal_covariance(self, rng):
        lat = Lattice(1, 8)
        gamma = full_covariance(fermi_sea_1d(lat, 3)[0])
        assert_close(gamma @ gamma.T, np.eye(16), 1e-10, "Gamma Gamma^T")
        pure = random_pure_state(lat, rng)
        assert_close(pure.gamma @ pure.gamma.T, np.eye(16), 1e-10, "random pure")

    def test_full_filling_is_identity_correlation(self):
        lat = Lattice(1, 4)
        state, grid, _ = fermi_sea_1d(lat, 4)
        assert_close(correlation_of(state), np.eye(4), 1e-12, "full filling")
        assert_close(momentum_occupation(state, grid.momenta), 1.0, 1e-12, "n(k)")

    def test_single_particle_tight_binding_plane(self):
        # One particle condenses into k = (0, 0): C_xy = 1/4 everywhere.
        lat = Lattice(2, 2)
        grid = momentum_grid(lat, parity_of(1))
        state, occ = fermi_sea(grid, 1, tight_binding_dispersion)
        assert len(occ) == 1
        assert (grid.momenta[occ[0]] == 0.0).all()
        assert_close(correlation_of(state), np.full((4, 4), 0.25), 1e-12, "condensate")

    def test_mode_occupations_are_sharp(self):
        lat = Lattice(1, 8)
        state, grid, occ = fermi_sea_1d(lat, 3)
        want = np.zeros(len(grid))
        want[occ] = 1.0
        assert_close(momentum_occupation(state, grid.momenta), want, 1e-12, "n(k)")

    def test_total_momentum_occupation_counts_particles(self):
        for n_occ in (1, 2, 5, 8):
            lat = Lattice(1, 8)
            state, grid, _ = fermi_sea_1d(lat, n_occ)
            total = momentum_occupation(state, grid.momenta).sum()
            assert total == pytest.approx(n_occ, abs=1e-8)

    def test_grid_parity_follows_particle_number(self):
        lat = Lattice(1, 6)
        _, grid_odd, _ = fermi_sea_1d(lat, 3)
        _, grid_even, _ = fermi_sea_1d(lat, 2)
        assert 0.0 in grid_odd.momenta[:, 0]
        assert 0.0 not in grid_even.momenta[:, 0]

    def test_dimension_checks(self):
        with pytest.raises(ValueError, match="1D"):
            fermi_sea_1d(Lattice(2, 4), 2)

    def test_fermi_sea_fills_by_its_dispersion(self):
        lat = Lattice(2, 6)
        grid = momentum_grid(lat, "odd")
        _, occ = fermi_sea(grid, 9)
        assert np.array_equal(occ, occupied_modes(grid, 9, free_dispersion(grid.momenta)))
        state, occ = fermi_sea(grid, 9, tight_binding_dispersion)
        energies = tight_binding_dispersion(grid.momenta)
        assert np.array_equal(np.sort(energies[occ]), np.sort(energies)[:9])
        assert np.array_equal(np.flatnonzero(state.occupations), occ)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_slots_and_orders_read_off_coords_match_the_mode_vector_formulas(self, dim):
        # A grid keeps no mode vectors: its momenta, torus slots and fill
        # orders are those once derived from ``m``, bit for bit.
        for length in range(2, 65, 2):
            lat = Lattice(dim, length)
            for parity in ("odd", "even"):
                grid = momentum_grid(lat, parity)
                m = _mode_vectors(grid)
                where = f"{dim}D L={length} {parity}"
                assert np.array_equal(grid.momenta, 2.0 * np.pi * m / length), where
                _assert_rolled_to_the_slots(grid, where)
                ties = tuple(m[:, d] for d in reversed(range(dim)))
                for dispersion in (free_dispersion, tight_binding_dispersion):
                    energies = dispersion(grid.momenta)
                    want = np.lexsort(ties + (energies,))
                    assert np.array_equal(gaussian_module._fill_order(grid, energies), want)
                    n_occ = len(grid) // 3
                    _, occ = fermi_sea(grid, n_occ, dispersion)
                    assert np.array_equal(occ, np.sort(want[:n_occ])), where

    def test_fillings_of_one_grid_cut_one_kept_order(self, monkeypatch):
        grid = momentum_grid(Lattice(2, 8), "even")
        sorts = []
        fill_order = gaussian_module._fill_order
        monkeypatch.setattr(gaussian_module, "_fill_order",
                            lambda *args: sorts.append(1) or fill_order(*args))
        for n_occ in (0, 10, 30, 64, 10):
            _, occ = fermi_sea(grid, n_occ, tight_binding_dispersion)
            want = occupied_modes(grid, n_occ, tight_binding_dispersion(grid.momenta))
            assert np.array_equal(occ, want), n_occ
        assert len(sorts) == 1 + 5  # one kept order; occupied_modes sorts every time
        fermi_sea(grid, 3)
        assert len(sorts) == 7  # another dispersion, another order
        with pytest.raises(ValueError, match="n_occ"):
            fermi_sea(grid, 65, tight_binding_dispersion)


class TestOccupiedModes:
    def test_degenerate_shell_resolved_deterministically(self):
        # L = 4, integer modes m = -2..1; the |k| = pi/2 shell is degenerate
        # and the tie falls to the smaller mode number m = -1.
        grid = momentum_grid(Lattice(1, 4), "odd")
        assert np.rint(grid.momenta[:, 0] * 4 / (2 * np.pi)).tolist() == [-2, -1, 0, 1]
        assert occupied_modes(grid, 2).tolist() == [1, 2]
        assert occupied_modes(grid, 3).tolist() == [1, 2, 3]

    def test_bounds_and_shapes(self):
        grid = momentum_grid(Lattice(1, 4), "odd")
        with pytest.raises(ValueError, match="n_occ"):
            occupied_modes(grid, 5)
        with pytest.raises(ValueError, match="shape"):
            occupied_modes(grid, 2, energies=np.zeros(3))

    def test_result_is_sorted(self):
        grid = momentum_grid(Lattice(2, 4), "even")
        occ = occupied_modes(grid, 7)
        assert (np.diff(occ) > 0).all()


class TestDispersions:
    def test_free_dispersion(self):
        assert free_dispersion(np.array([[3.0, 4.0]]))[0] == pytest.approx(5.0)
        assert free_dispersion(np.array([[-2.0]]))[0] == pytest.approx(2.0)

    def test_tight_binding_dispersion(self):
        eps = tight_binding_dispersion(np.array([[0.0, 0.0], [np.pi, np.pi]]))
        assert eps[0] == pytest.approx(-4.0)
        assert eps[1] == pytest.approx(4.0)


class TestModeOccupationStates:
    def test_fractional_fillings_reproduced(self, rng):
        lat = Lattice(1, 8)
        grid = momentum_grid(lat, "even")
        fillings = rng.uniform(0.0, 1.0, size=8)
        corr = plane_wave_correlation(grid, fillings)
        state = state_from_correlation(lat, corr)
        for j, k in enumerate(grid.momenta):
            assert dense_momentum_occupation(state, k) == pytest.approx(fillings[j], abs=1e-10)
        assert state.particle_number() == pytest.approx(fillings.sum(), abs=1e-8)


class TestModeDiagonalState:
    def test_whole_covariance_is_the_dense_construction(self, rng):
        grid = momentum_grid(Lattice(2, 4), "even")
        fillings = rng.uniform(0.0, 1.0, size=16)
        state = ModeDiagonalState(grid, fillings)
        dense = state_from_correlation(
            grid.lattice, plane_wave_correlation(grid, fillings), validate=False)
        assert_close(full_covariance(state), dense.gamma, 1e-12, "torus gather vs plane waves")

    def test_fermi_seas_are_mode_diagonal(self):
        state, grid, occ = fermi_sea_1d(Lattice(1, 8), 3)
        assert isinstance(state, ModeDiagonalState) and state.grid is grid
        assert state.occupations.sum() == 3 and (state.occupations[occ] == 1).all()
        state2d, _ = fermi_sea(momentum_grid(Lattice(2, 4), "odd"), 5, tight_binding_dispersion)
        assert isinstance(state2d, ModeDiagonalState)

    def test_occupations_outside_the_unit_interval_are_unphysical(self):
        grid = momentum_grid(Lattice(1, 4), "odd")
        with pytest.raises(InvariantViolation, match="outside"):
            ModeDiagonalState(grid, [0.0, 0.5, 1.2, 0.1])
        with pytest.raises(InvariantViolation, match="outside"):
            ModeDiagonalState(grid, [0.0, -0.01, 1.0, 0.1])
        with pytest.raises(InvariantViolation, match="outside"):
            ModeDiagonalState(grid, [0.0, 0.5, 1.0 + 1e-9, 0.1])
        with pytest.raises(InvariantViolation, match="outside"):  # both range tests fail on NaN
            ModeDiagonalState(grid, [0.0, np.nan, 1.0, 0.1])
        with pytest.raises(ValueError, match="shape"):
            ModeDiagonalState(grid, np.zeros(3))
        # Rounding within the slack is accepted, and such a state also
        # gathers its covariance.
        edge = ModeDiagonalState(grid, [0.0, 1.0, 1.0 + 1e-13, -1e-13])
        assert full_covariance(edge).shape == (8, 8)
        assert edge.particle_number() == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("dim,length,parity", [(1, 10, "odd"), (1, 10, "even"),
                                                   (2, 6, "odd"), (2, 6, "even")])
    def test_momentum_occupation_matches_the_dense_observable(self, rng, monkeypatch,
                                                              dim, length, parity):
        lat = Lattice(dim, length)
        grid = momentum_grid(lat, parity)
        fillings = rng.uniform(0.0, 1.0, size=lat.n_sites)
        state = ModeDiagonalState(grid, fillings)
        other = momentum_grid(lat, "even" if parity == "odd" else "odd").momenta
        momenta = np.concatenate([grid.momenta, other])
        dense = dense_state(state)
        refuse_full_covariance(monkeypatch)
        spectral = momentum_occupation(state, momenta)
        assert_close(spectral, [dense_momentum_occupation(dense, k) for k in momenta], 1e-12,
                     "torus sum vs dense observable")
        assert_close(spectral[:lat.n_sites], fillings, 1e-12, "n(k) on the grid")
        assert state.particle_number() == pytest.approx(dense.particle_number(), abs=1e-12)

    @pytest.mark.parametrize("dim,length,n_occ", [(1, 10, 3), (1, 10, 4), (2, 6, 7), (2, 6, 10)])
    def test_own_grid_momenta_read_the_class_of_the_grid(self, rng, monkeypatch, dim, length,
                                                         n_occ):
        # The grid's own momenta skip the classification and give the same bits.
        lat = Lattice(dim, length)
        grid = momentum_grid(lat, parity_of(n_occ))
        state, _ = fermi_sea(grid, n_occ, tight_binding_dispersion)
        same, cross = rng.random((2,) + (length,) * dim) * lat.n_sites
        drops = lambda signs: (same, cross)  # noqa: E731
        want = state.occupation_shift(drops, grid.momenta.copy())

        def refuse(self, momenta):
            raise AssertionError("the grid's own momenta were classified")

        monkeypatch.setattr(Lattice, "frequency_classes", refuse)
        assert np.array_equal(state.occupation_shift(drops, grid.momenta), want)
        _assert_rolled_to_the_slots(grid)

    def test_occupation_shift_validates_momenta(self):
        state, _, _ = fermi_sea_1d(Lattice(1, 4), 2)
        with pytest.raises(ValueError, match="shape"):
            state.occupation_shift(lambda signs: (1.0, 1.0), np.array([0.0, np.pi / 2]))


class TestSupportHeldObservables:
    def test_number_and_hopping_are_small_blocks(self):
        lat = Lattice(2, 4)
        number = QuadraticObservable.number(lat, 5)
        hop = QuadraticObservable.hopping(lat, 9, 2)
        assert number.support.tolist() == [10, 11]
        assert hop.support.tolist() == [4, 5, 18, 19]
        dense = np.zeros((lat.n_majorana,) * 2)
        dense[10, 11], dense[11, 10] = 0.25, -0.25
        assert np.array_equal(dense_coefficients(number), dense)
        dense = np.zeros((lat.n_majorana,) * 2)
        for u, v in ((18, 5), (4, 19)):
            dense[u, v], dense[v, u] = 0.25, -0.25
        assert np.array_equal(dense_coefficients(hop), dense)

    def test_dense_matrix_is_held_on_its_nonzero_rows_and_columns(self, rng):
        lat = Lattice(1, 5)
        coeffs = np.zeros((10, 10))
        coeffs[np.ix_([1, 6, 7], [1, 6, 7])] = [[0, 1, -2], [-1, 0, 3], [2, -3, 0]]
        obs = observable_from_matrix(lat, coeffs, offset=0.3)
        assert obs.support.tolist() == [1, 6, 7]
        assert np.array_equal(obs.block, coeffs[np.ix_([1, 6, 7], [1, 6, 7])])
        same = QuadraticObservable(lat, obs.block, offset=0.3, support=[1, 6, 7])
        state = state_from_correlation(lat, random_correlation(rng, 5))
        dense_value = 0.3 + float(np.sum(coeffs * state.gamma))
        assert state.expectation(obs) == pytest.approx(dense_value, abs=1e-14)
        assert state.expectation(same) == pytest.approx(dense_value, abs=1e-14)
        assert coefficient_trace_norm(obs) == pytest.approx(
            np.linalg.svd(coeffs, compute_uv=False).sum(), abs=1e-12)

    def test_support_is_validated(self):
        lat = Lattice(1, 3)
        with pytest.raises(ValueError, match="does not match"):
            QuadraticObservable(lat, np.zeros((2, 2)), support=[0, 1, 2])
        with pytest.raises(ValueError, match="distinct"):
            QuadraticObservable(lat, np.zeros((2, 2)), support=[1, 1])
        with pytest.raises(ValueError, match="distinct"):
            QuadraticObservable(lat, np.zeros((2, 2)), support=[0, 6])
        with pytest.raises(ValueError, match="antisymmetric"):
            QuadraticObservable(lat, np.eye(2), support=[0, 3])


class TestCovarianceBlock:
    def test_dense_state_block_is_the_submatrix(self, rng):
        lat = Lattice(1, 6)
        state = state_from_correlation(lat, random_correlation(rng, 6))
        idx = np.array([7, 0, 3, 10])
        assert np.array_equal(state.covariance_block(idx), state.gamma[np.ix_(idx, idx)])

    @pytest.mark.parametrize("dim,length,parity", [(1, 10, "odd"), (1, 12, "even"),
                                                   (2, 4, "odd"), (2, 6, "even")])
    def test_mode_diagonal_block_gathers_the_covariance(self, rng, dim, length, parity):
        lat = Lattice(dim, length)
        grid = momentum_grid(lat, parity)
        state = ModeDiagonalState(grid, rng.uniform(0.0, 1.0, len(grid)))
        reference = state_from_correlation(
            lat, plane_wave_correlation(grid, state.occupations), validate=False).gamma
        every = np.arange(lat.n_majorana)
        assert_close(state.covariance_block(every), reference, 1e-12, "all indices")
        for size in (1, 5, 12):
            idx = rng.choice(lat.n_majorana, size, replace=False)
            assert_close(state.covariance_block(idx), reference[np.ix_(idx, idx)], 1e-12, "block")

    @pytest.mark.parametrize("lattice_state", [
        lambda: fermi_sea_1d(Lattice(1, 64), 31)[0],
        lambda: fermi_sea(momentum_grid(Lattice(2, 8), "odd"), 21, tight_binding_dispersion)[0],
    ])
    def test_site_occupation_reads_the_block(self, monkeypatch, lattice_state):
        sea = lattice_state()
        dense = dense_state(sea)
        refuse_full_covariance(monkeypatch)
        for site in (0, 3, sea.lattice.n_sites - 1):
            assert dense.occupation(site) == 0.5 * (1.0 + dense.gamma[2 * site, 2 * site + 1])
            number = QuadraticObservable.number(sea.lattice, site)
            assert sea.expectation(number) == pytest.approx(dense.occupation(site), abs=1e-12)

    @pytest.mark.parametrize("dim,length", [(1, 12), (1, 64), (2, 6), (2, 8)])
    def test_circulant_state_matches_the_dense_construction(self, dim, length):
        lat = Lattice(dim, length)
        dense, k_dense = _dense_circulant_state(lat, dim + 2.0)
        state, k_const = circulant_power_law_state(lat, dim + 2.0)
        assert isinstance(state, ModeDiagonalState)
        assert k_const == k_dense
        assert "occupations" not in state.__dict__  # its C(r) is exact: no FFT was taken
        # The same powers of the same distances: equal bit for bit on this stack.
        assert_close(full_covariance(state), dense.gamma, 1e-15, "gamma")
        assert 0.05 <= state.occupations.min() and state.occupations.max() <= 0.95

    @pytest.mark.parametrize("idx", [[-1, 0], [0, 16], [3, -2, 5]])
    def test_blocks_refuse_indices_outside_the_majoranas(self, idx):
        # A negative index would wrap to the far end of the lattice and
        # answer for some other pair.
        lat = Lattice(1, 8)
        for state in (GaussianState.vacuum(lat), fermi_sea_1d(lat, 3)[0]):
            with pytest.raises(IndexError, match=r"outside \[0, 16\)"):
                state.covariance_block(idx)

    @pytest.mark.parametrize("dim,length", [(1, 10), (1, 12), (2, 4), (2, 6)])
    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_a_state_built_from_its_correlation_reads_its_occupations_back(self, rng, dim,
                                                                           length, parity):
        # n(q) is the inverse FFT of the torus, half twist included, on
        # either grid.
        grid = momentum_grid(Lattice(dim, length), parity)
        state = ModeDiagonalState(grid, rng.uniform(0.0, 1.0, len(grid)))
        back = ModeDiagonalState.from_correlation(grid, state._conj_correlation)
        assert_close(back.occupations, state.occupations, 1e-14, "n(q) round trip")
        assert not back.occupations.flags.writeable
        assert np.array_equal(back.covariance_block(np.arange(grid.lattice.n_majorana)),
                              full_covariance(state))

    def test_the_triangle_bound_spares_the_occupations(self):
        # sum_{r != 0} |C(r)| <= 0.45 around C(0) = 1/2 for the circulant
        # state; a Fermi sea's C(r) decays as 1/r and fails the bound, so it
        # is accepted on its n(q), which the check then keeps.
        state, _ = circulant_power_law_state(Lattice(2, 16), 2.5)
        assert "occupations" not in state.__dict__
        sea, grid, _ = fermi_sea_1d(Lattice(1, 64), 31)
        corr = sea._conj_correlation
        assert np.abs(corr).sum() - abs(corr[0]) > 1.0
        again = ModeDiagonalState.from_correlation(grid, corr)
        assert "occupations" in again.__dict__
        assert_close(again.occupations, sea.occupations, 1e-14, "Fermi sea n(q)")

    def test_an_unphysical_correlation_torus_is_an_invariant_violation(self):
        sea, grid, _ = fermi_sea_1d(Lattice(1, 16), 7)
        with pytest.raises(InvariantViolation, match="outside"):
            ModeDiagonalState.from_correlation(grid, 1.5 * sea._conj_correlation)
        nan = np.array(sea._conj_correlation)
        nan[3] = np.nan
        with pytest.raises(InvariantViolation, match="outside"):
            ModeDiagonalState.from_correlation(grid, nan)
        with pytest.raises(ValueError, match="shape"):
            ModeDiagonalState.from_correlation(grid, np.zeros(8))

    def test_unphysical_circulant_profile_is_an_invariant_violation(self, monkeypatch):
        monkeypatch.setattr(gaussian_module, "_offdiagonal_decay_sum", lambda dim, mu: 0.1)
        with pytest.raises(InvariantViolation, match="outside"):
            circulant_power_law_state(Lattice(1, 16), 3.0)


class TestHaarSpecialOrthogonal:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_orthogonal_with_unit_determinant(self, rng, n):
        for _ in range(10):
            q = haar_special_orthogonal(n, rng)
            assert_close(q @ q.T, np.eye(n), 1e-12, f"orthogonality n={n}")
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_seed_repeats_the_draw(self):
        a = haar_special_orthogonal(6, np.random.default_rng(5))
        b = haar_special_orthogonal(6, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_stream_is_pinned(self):
        # A change to the sampler or to numpy's Generator fails here by name
        # rather than as drifting circuit physics.
        q = haar_special_orthogonal(4, np.random.default_rng(2026))
        expected = [0.7520475890230227, 0.05501402394529153,
                    -0.6563460018327744, 0.02465373992192083]
        assert_close(q[0], expected, 1e-12, "first row at seed 2026")

    def test_stacked_rotations_equal_one_at_a_time(self):
        normals = np.random.default_rng(8).standard_normal((50, 6, 6))
        stacked = haar_rotations(normals)
        assert all(np.array_equal(stacked[i], haar_rotations(normals[i])) for i in range(50))
        assert (np.linalg.det(stacked) > 0).all()


class TestMomentumOccupationRange:
    def test_stays_in_unit_interval_on_random_pure_states(self):
        rng = np.random.default_rng(515253)
        lengths = [2, 4, 6, 8, 10, 12, 14, 16]
        checked = 0
        for trial in range(200):
            lat = Lattice(1, lengths[trial % len(lengths)])
            state = random_pure_state(lat, rng)
            grid = momentum_grid(lat, "odd" if trial % 2 else "even")
            for k in grid.momenta:
                val = dense_momentum_occupation(state, k)
                assert -1e-9 <= val <= 1.0 + 1e-9
                checked += 1
        assert checked > 1000


class TestDecayControlledStates:
    def test_power_law_mask_properties(self):
        lat = Lattice(1, 10)
        mask = power_law_mask(lat, 1.5)
        assert mask.shape == (20, 20)
        assert_close(np.diag(mask), 1.0, 1e-12, "mask diagonal")
        assert np.allclose(mask, mask.T)
        assert np.linalg.eigvalsh(mask).min() > -1e-10
        with pytest.raises(ValueError, match="positive"):
            power_law_mask(lat, 0.0)

    def test_damped_state_is_physical_and_decays(self, rng):
        lat = Lattice(2, 4)
        mu = 2.5
        state = damped_random_state(lat, mu, rng)
        assert np.linalg.norm(state.gamma, 2) <= 1.0 + 1e-8
        d = np.repeat(np.repeat(lat.distance_matrix(), 2, 0), 2, 1).astype(float)
        site = np.repeat(np.arange(lat.n_sites), 2)
        off_site = site[:, None] != site[None, :]
        bound = (1.0 + d) ** (-mu)
        assert (np.abs(state.gamma)[off_site] <= bound[off_site] + 1e-12).all()
        assert decay_constant(state, mu) <= 1.0 + 1e-12

    def test_circulant_state_envelope_is_exact(self):
        lat = Lattice(1, 12)
        mu = 1.8
        state, k_const = circulant_power_law_state(lat, mu)
        assert k_const > 0
        assert decay_constant(state, mu) == pytest.approx(k_const, abs=1e-12)
        # Translation invariance: C depends on displacement only.
        corr = correlation_of(state)
        for shift in (1, 5):
            rolled = np.roll(np.roll(corr, shift, axis=0), shift, axis=1)
            assert_close(rolled, corr, 1e-12, f"shift {shift}")
        # Mode occupations sit inside the advertised window.
        nk = momentum_occupation(state, momentum_grid(lat, "odd").momenta)
        assert (0.05 - 1e-9 <= nk).all() and (nk <= 0.95 + 1e-9).all()

    def test_vacuum_decay_constant(self):
        state = GaussianState.vacuum(Lattice(1, 6))
        assert decay_constant(state, 3.0) == pytest.approx(1.0, abs=1e-12)


class TestConftestHelpers:
    def test_random_normalized_observable_is_normalized(self, rng):
        lat = Lattice(1, 5)
        obs = random_normalized_observable(lat, rng)
        assert coefficient_trace_norm(obs) == pytest.approx(1.0, abs=1e-9)
        assert obs.offset == 0.0
        assert np.allclose(dense_coefficients(obs), -dense_coefficients(obs).T)
