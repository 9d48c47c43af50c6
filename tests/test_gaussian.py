"""Tests for covariance-matrix states, observables, and Fermi seas."""

import numpy as np
import pytest

from conftest import (
    assert_close,
    correlation_of,
    random_correlation,
    random_normalized_observable,
)
from fermion_noise import (
    GaussianState,
    InvariantViolation,
    Lattice,
    ModeDiagonalState,
    QuadraticObservable,
    circulant_power_law_state,
    correlation_from_mode_occupations,
    damped_random_state,
    decay_constant,
    fermi_sea,
    fermi_sea_1d,
    free_dispersion,
    momentum_grid,
    momentum_occupation,
    occupied_modes,
    power_law_mask,
    random_pure_state,
    tight_binding_dispersion,
    tight_binding_ground_state_2d,
)
import fermion_noise.gaussian as gaussian_module
from fermion_noise.gaussian import haar_rotations, haar_special_orthogonal


def _dense_circulant_state(lattice, mu):
    """Reference construction: the circulant two-point function built entry by entry."""
    amp = 0.45 / gaussian_module._offdiagonal_decay_sum(lattice.dim, mu)
    corr = amp * (1.0 + lattice.distance_matrix().astype(float)) ** (-mu)
    np.fill_diagonal(corr, 0.5)
    return GaussianState.from_correlation_matrix(lattice, corr, validate=False), 2.0 * amp


class TestQuadraticObservable:
    def test_shape_and_antisymmetry_validated(self):
        lat = Lattice(1, 3)
        with pytest.raises(ValueError, match="6, 6"):
            QuadraticObservable(lat, np.zeros((4, 4)))
        with pytest.raises(ValueError, match="antisymmetric"):
            QuadraticObservable(lat, np.eye(6))

    def test_site_index_bounds(self):
        lat = Lattice(1, 4)
        with pytest.raises(IndexError):
            QuadraticObservable.number(lat, 4)
        with pytest.raises(IndexError):
            QuadraticObservable.hopping(lat, 0, 4)
        with pytest.raises(ValueError, match="distinct"):
            QuadraticObservable.hopping(lat, 2, 2)
        with pytest.raises(ValueError, match="components"):
            QuadraticObservable.momentum_occupation(lat, [0.1, 0.2])

    def test_scaled(self):
        lat = Lattice(1, 2)
        obs = QuadraticObservable.number(lat, 0).scaled(3.0)
        state = GaussianState.vacuum(lat)
        assert state.expectation(obs) == pytest.approx(0.0, abs=1e-12)
        assert obs.offset == pytest.approx(1.5)

    def test_trace_norms(self):
        lat = Lattice(1, 6)
        assert QuadraticObservable.number(lat, 2).coefficient_trace_norm() == \
            pytest.approx(0.5, abs=1e-12)
        assert QuadraticObservable.hopping(lat, 0, 3).coefficient_trace_norm() == \
            pytest.approx(1.0, abs=1e-12)
        k = 2.0 * np.pi / 6.0
        assert QuadraticObservable.momentum_occupation(lat, [k]).coefficient_trace_norm() == \
            pytest.approx(0.5, abs=1e-12)

    def test_helper_observables_are_antisymmetric(self):
        lat = Lattice(2, 4)
        for obs in (
            QuadraticObservable.number(lat, 5),
            QuadraticObservable.hopping(lat, 0, 9),
            QuadraticObservable.momentum_occupation(lat, [0.3, -1.1]),
        ):
            c = obs.coefficients
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
        assert momentum_occupation(state, [0.7]) == pytest.approx(0.0, abs=1e-12)

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
            GaussianState.from_correlation_matrix(lat, bad)

    def test_round_trip(self, rng):
        lat = Lattice(1, 6)
        corr = random_correlation(rng, 6)
        state = GaussianState.from_correlation_matrix(lat, corr)
        assert_close(correlation_of(state), corr, 1e-12, "C round trip")

    def test_diagonal_gives_occupations(self, rng):
        lat = Lattice(1, 5)
        corr = random_correlation(rng, 5)
        state = GaussianState.from_correlation_matrix(lat, corr)
        for x in range(5):
            assert state.occupation(x) == pytest.approx(corr[x, x].real, abs=1e-12)
        assert state.particle_number() == pytest.approx(np.trace(corr).real, abs=1e-12)


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
        state, _, _ = fermi_sea_1d(lat, 3)
        assert_close(state.gamma @ state.gamma.T, np.eye(16), 1e-10, "Gamma Gamma^T")
        pure = random_pure_state(lat, rng)
        assert_close(pure.gamma @ pure.gamma.T, np.eye(16), 1e-10, "random pure")

    def test_full_filling_is_identity_correlation(self):
        lat = Lattice(1, 4)
        state, grid, _ = fermi_sea_1d(lat, 4)
        assert_close(correlation_of(state), np.eye(4), 1e-12, "full filling")
        for k in grid.momenta:
            assert momentum_occupation(state, k) == pytest.approx(1.0, abs=1e-12)

    def test_single_particle_tight_binding_plane(self):
        # One particle condenses into k = (0, 0): C_xy = 1/4 everywhere.
        lat = Lattice(2, 2)
        state, grid, occ = tight_binding_ground_state_2d(lat, 1)
        assert len(occ) == 1
        assert (grid.momenta[occ[0]] == 0.0).all()
        assert_close(correlation_of(state), np.full((4, 4), 0.25), 1e-12, "condensate")

    def test_mode_occupations_are_sharp(self):
        lat = Lattice(1, 8)
        state, grid, occ = fermi_sea_1d(lat, 3)
        occ_set = set(int(i) for i in occ)
        for j, k in enumerate(grid.momenta):
            want = 1.0 if j in occ_set else 0.0
            assert momentum_occupation(state, k) == pytest.approx(want, abs=1e-12)

    def test_total_momentum_occupation_counts_particles(self):
        for n_occ in (1, 2, 5, 8):
            lat = Lattice(1, 8)
            state, grid, _ = fermi_sea_1d(lat, n_occ)
            total = sum(momentum_occupation(state, k) for k in grid.momenta)
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
        with pytest.raises(ValueError, match="2D"):
            tight_binding_ground_state_2d(Lattice(1, 4), 2)

    def test_energies_and_dispersion_are_exclusive(self):
        grid = momentum_grid(Lattice(1, 4), "even")
        with pytest.raises(ValueError, match="not both"):
            fermi_sea(grid, 2, energies=np.zeros(4), dispersion=free_dispersion)


class TestOccupiedModes:
    def test_degenerate_shell_resolved_deterministically(self):
        # L = 4, integer modes m = -2..1; the |k| = pi/2 shell is degenerate
        # and the tie falls to the smaller mode number m = -1.
        grid = momentum_grid(Lattice(1, 4), "odd")
        assert grid.m_vectors[:, 0].tolist() == [-2, -1, 0, 1]
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
        corr = correlation_from_mode_occupations(grid, fillings)
        state = GaussianState.from_correlation_matrix(lat, corr)
        for j, k in enumerate(grid.momenta):
            assert momentum_occupation(state, k) == pytest.approx(fillings[j], abs=1e-10)
        assert state.particle_number() == pytest.approx(fillings.sum(), abs=1e-8)

    def test_fillings_validated(self):
        grid = momentum_grid(Lattice(1, 4), "odd")
        with pytest.raises(ValueError, match="shape"):
            correlation_from_mode_occupations(grid, np.zeros(3))
        with pytest.raises(ValueError, match="0, 1"):
            correlation_from_mode_occupations(grid, np.array([0.0, 0.5, 1.2, 0.1]))


class TestModeDiagonalState:
    def test_lazy_covariance_is_the_dense_construction(self, rng):
        grid = momentum_grid(Lattice(2, 4), "even")
        fillings = rng.uniform(0.0, 1.0, size=16)
        state = ModeDiagonalState(grid, fillings)
        assert state._gamma is None
        dense = GaussianState.from_correlation_matrix(
            grid.lattice, correlation_from_mode_occupations(grid, fillings), validate=False)
        assert np.array_equal(state.gamma, dense.gamma)
        assert state.gamma is state.gamma
        assert not state.gamma.flags.writeable

    def test_fermi_seas_are_mode_diagonal(self):
        state, grid, occ = fermi_sea_1d(Lattice(1, 8), 3)
        assert isinstance(state, ModeDiagonalState) and state.grid is grid
        assert state.occupations.sum() == 3 and (state.occupations[occ] == 1).all()
        state2d, _, _ = tight_binding_ground_state_2d(Lattice(2, 4), 5)
        assert isinstance(state2d, ModeDiagonalState) and state2d._gamma is None

    def test_occupations_outside_the_unit_interval_are_unphysical(self):
        grid = momentum_grid(Lattice(1, 4), "odd")
        with pytest.raises(InvariantViolation, match="outside"):
            ModeDiagonalState(grid, [0.0, 0.5, 1.2, 0.1])
        with pytest.raises(InvariantViolation, match="outside"):
            ModeDiagonalState(grid, [0.0, -0.01, 1.0, 0.1])
        with pytest.raises(InvariantViolation, match="outside"):
            ModeDiagonalState(grid, [0.0, 0.5, 1.0 + 1e-9, 0.1])
        with pytest.raises(ValueError, match="shape"):
            ModeDiagonalState(grid, np.zeros(3))
        # Rounding within the slack is accepted, and such a state also
        # builds its covariance.
        edge = ModeDiagonalState(grid, [0.0, 1.0, 1.0 + 1e-13, -1e-13])
        assert edge.gamma.shape == (8, 8)
        assert edge.particle_number() == pytest.approx(2.0, abs=1e-12)

    def test_dense_constructors_are_not_inherited(self):
        lat = Lattice(1, 4)
        with pytest.raises(TypeError, match="GaussianState.vacuum"):
            ModeDiagonalState.vacuum(lat)
        with pytest.raises(TypeError, match="GaussianState.from_correlation_matrix"):
            ModeDiagonalState.from_correlation_matrix(lat, np.zeros((4, 4)))
        assert type(GaussianState.vacuum(lat)) is GaussianState

    @pytest.mark.parametrize("dim,length,parity", [(1, 10, "odd"), (1, 10, "even"),
                                                   (2, 6, "odd"), (2, 6, "even")])
    def test_momentum_occupation_matches_the_dense_observable(self, rng, dim, length, parity):
        lat = Lattice(dim, length)
        grid = momentum_grid(lat, parity)
        fillings = rng.uniform(0.0, 1.0, size=lat.n_sites)
        state = ModeDiagonalState(grid, fillings)
        other = momentum_grid(lat, "even" if parity == "odd" else "odd").momenta
        momenta = np.concatenate([grid.momenta, other, rng.uniform(-4.0, 4.0, (5, dim))])
        spectral = [momentum_occupation(state, k) for k in momenta]
        assert state._gamma is None
        dense = GaussianState(lat, state.gamma)
        assert_close(spectral, [momentum_occupation(dense, k) for k in momenta], 1e-12,
                     "box sum vs dense observable")
        assert_close(spectral[:lat.n_sites], fillings, 1e-12, "n(k) on the grid")
        assert state.particle_number() == pytest.approx(dense.particle_number(), abs=1e-12)

    def test_occupation_shift_validates_momenta(self):
        state, _, _ = fermi_sea_1d(Lattice(1, 4), 2)
        with pytest.raises(ValueError, match="shape"):
            state.occupation_shift(1.0, np.array([0.1, 0.2]))


class TestSupportHeldObservables:
    def test_number_and_hopping_are_small_blocks(self):
        lat = Lattice(2, 4)
        number = QuadraticObservable.number(lat, 5)
        hop = QuadraticObservable.hopping(lat, 9, 2)
        assert number.support.tolist() == [10, 11]
        assert hop.support.tolist() == [4, 5, 18, 19]
        dense = np.zeros((lat.n_majorana,) * 2)
        dense[10, 11], dense[11, 10] = 0.25, -0.25
        assert np.array_equal(number.coefficients, dense)
        dense = np.zeros((lat.n_majorana,) * 2)
        for u, v in ((18, 5), (4, 19)):
            dense[u, v], dense[v, u] = 0.25, -0.25
        assert np.array_equal(hop.coefficients, dense)
        assert not hop.coefficients.flags.writeable

    def test_dense_matrix_is_held_on_its_nonzero_rows_and_columns(self, rng):
        lat = Lattice(1, 5)
        coeffs = np.zeros((10, 10))
        coeffs[np.ix_([1, 6, 7], [1, 6, 7])] = [[0, 1, -2], [-1, 0, 3], [2, -3, 0]]
        obs = QuadraticObservable(lat, coeffs, offset=0.3)
        assert obs.support.tolist() == [1, 6, 7]
        assert np.array_equal(obs.block, coeffs[np.ix_([1, 6, 7], [1, 6, 7])])
        same = QuadraticObservable(lat, obs.block, offset=0.3, support=[1, 6, 7])
        state = GaussianState.from_correlation_matrix(lat, random_correlation(rng, 5))
        dense_value = 0.3 + float(np.sum(coeffs * state.gamma))
        assert state.expectation(obs) == pytest.approx(dense_value, abs=1e-14)
        assert state.expectation(same) == pytest.approx(dense_value, abs=1e-14)
        assert obs.coefficient_trace_norm() == pytest.approx(
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
        state = GaussianState.from_correlation_matrix(lat, random_correlation(rng, 6))
        idx = np.array([7, 0, 3, 10])
        assert np.array_equal(state.covariance_block(idx), state.gamma[np.ix_(idx, idx)])

    @pytest.mark.parametrize("dim,length,parity", [(1, 10, "odd"), (1, 12, "even"),
                                                   (2, 4, "odd"), (2, 6, "even")])
    def test_mode_diagonal_block_gathers_the_covariance(self, rng, monkeypatch,
                                                         dim, length, parity):
        lat = Lattice(dim, length)
        grid = momentum_grid(lat, parity)
        state = ModeDiagonalState(grid, rng.uniform(0.0, 1.0, len(grid)))
        reference = ModeDiagonalState(grid, state.occupations).gamma
        monkeypatch.setattr(ModeDiagonalState, "_build_gamma", _refuse)
        every = np.arange(lat.n_majorana)
        assert_close(state.covariance_block(every), reference, 1e-12, "all indices")
        for size in (1, 5, 12):
            idx = rng.choice(lat.n_majorana, size, replace=False)
            assert_close(state.covariance_block(idx), reference[np.ix_(idx, idx)], 1e-12, "block")

    @pytest.mark.parametrize("dim,length", [(1, 12), (1, 64), (2, 6), (2, 8)])
    def test_circulant_state_matches_the_dense_construction(self, monkeypatch, dim, length):
        lat = Lattice(dim, length)
        dense, k_dense = _dense_circulant_state(lat, dim + 2.0)
        state, k_const = circulant_power_law_state(lat, dim + 2.0)
        assert isinstance(state, ModeDiagonalState)
        assert k_const == k_dense
        assert 0.05 <= state.occupations.min() and state.occupations.max() <= 0.95
        assert_close(state.gamma, dense.gamma, 1e-12, "gamma")
        fresh, _ = circulant_power_law_state(lat, dim + 2.0)
        monkeypatch.setattr(ModeDiagonalState, "_build_gamma", _refuse)
        assert_close(fresh.covariance_block(np.arange(lat.n_majorana)), dense.gamma, 1e-12,
                     "block")

    def test_unphysical_circulant_profile_is_an_invariant_violation(self, monkeypatch):
        monkeypatch.setattr(gaussian_module, "_offdiagonal_decay_sum", lambda dim, mu: 0.1)
        with pytest.raises(InvariantViolation, match="outside"):
            circulant_power_law_state(Lattice(1, 16), 3.0)


def _refuse(*args, **kwargs):
    raise AssertionError("dense covariance built")


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
                val = momentum_occupation(state, k)
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
        grid = momentum_grid(lat, "odd")
        for k in grid.momenta:
            nk = momentum_occupation(state, k)
            assert 0.05 - 1e-9 <= nk <= 0.95 + 1e-9

    def test_vacuum_decay_constant(self):
        state = GaussianState.vacuum(Lattice(1, 6))
        assert decay_constant(state, 3.0) == pytest.approx(1.0, abs=1e-12)


class TestConftestHelpers:
    def test_random_normalized_observable_is_normalized(self, rng):
        lat = Lattice(1, 5)
        obs = random_normalized_observable(lat, rng)
        assert obs.coefficient_trace_norm() == pytest.approx(1.0, abs=1e-9)
        assert obs.offset == 0.0
        assert np.allclose(obs.coefficients, -obs.coefficients.T)
