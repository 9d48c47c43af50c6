"""Tests of the dense statevector reference against frozen small cases."""

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import GaussianState, assert_close, dense_coefficients, random_correlation, \
    random_normalized_observable, state_from_correlation
from fermion_noise import Lattice, QuadraticObservable
from oracle import (
    dense_expectation,
    dense_free_unitary,
    dense_gaussian_density_matrix,
    dense_layer,
    dense_majorana,
    dense_majorana_set,
    dense_noisy_expectation,
    dense_pauli_channel,
    dense_quadratic_observable,
    dense_to_covariance,
    gf2_inverse,
    pauli,
    pauli_string,
)

DEPOL = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def _random_density_matrix(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestPauliPrimitives:
    def test_single_qubit_matrices(self):
        assert (pauli("X") == np.array([[0, 1], [1, 0]])).all()
        assert (pauli("Z") == np.diag([1, -1])).all()
        with pytest.raises(ValueError, match="unknown Pauli"):
            pauli("Q")

    def test_string_places_site_zero_leftmost(self):
        z0 = pauli_string(2, {0: "Z"})
        assert (z0 == np.diag([1, 1, -1, -1])).all()
        z1 = pauli_string(2, {1: "Z"})
        assert (z1 == np.diag([1, -1, 1, -1])).all()


class TestMajoranaAlgebra:
    def test_single_mode_is_x_and_y(self):
        assert (dense_majorana(1, 0) == pauli("X")).all()
        assert (dense_majorana(1, 1) == pauli("Y")).all()

    def test_anticommutation_relations(self):
        gammas = dense_majorana_set(3)
        eye = np.eye(8)
        for a, ga in enumerate(gammas):
            assert_close(ga, ga.conj().T, 1e-14, "Hermitian")
            for b, gb in enumerate(gammas):
                anti = ga @ gb + gb @ ga
                want = 2.0 * eye if a == b else np.zeros((8, 8))
                assert_close(anti, want, 1e-12, f"{{g{a}, g{b}}}")

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            dense_majorana(2, 4)


class TestModeCountGuard:
    def test_default_limit(self):
        with pytest.raises(ValueError, match="limited to 4 modes"):
            dense_majorana_set(5)

    def test_explicit_override(self):
        assert len(dense_majorana_set(5, max_modes=8)) == 10

    def test_hard_cap(self):
        with pytest.raises(ValueError, match="hard cap"):
            dense_majorana_set(9, max_modes=16)


class TestDensityMatrices:
    def test_vacuum_maps_to_all_zeros_ket(self):
        gamma = GaussianState.vacuum(Lattice(1, 3)).gamma
        rho = dense_gaussian_density_matrix(gamma)
        want = np.zeros((8, 8))
        want[0, 0] = 1.0
        assert_close(rho, want, 1e-12, "vacuum")

    def test_single_occupied_site(self):
        lat = Lattice(1, 3)
        state = state_from_correlation(lat, np.diag([0.0, 1.0, 0.0]))
        rho = dense_gaussian_density_matrix(state.gamma)
        # |010> sits at binary index 2 with site 0 the leftmost factor.
        want = np.zeros((8, 8))
        want[2, 2] = 1.0
        assert_close(rho, want, 1e-12, "occupied site 1")

    def test_product_of_partially_filled_sites(self):
        lat = Lattice(1, 2)
        state = state_from_correlation(lat, np.diag([0.3, 0.8]))
        rho = dense_gaussian_density_matrix(state.gamma)
        want = np.kron(np.diag([0.7, 0.3]), np.diag([0.2, 0.8]))
        assert_close(rho, want, 1e-12, "product state")

    def test_rejects_bad_covariance(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            dense_gaussian_density_matrix(np.eye(4))
        with pytest.raises(ValueError, match="even size"):
            dense_gaussian_density_matrix(np.zeros((3, 3)))

    def test_round_trip_through_dense(self, rng):
        lat = Lattice(1, 3)
        state = state_from_correlation(lat, random_correlation(rng, 3))
        rho = dense_gaussian_density_matrix(state.gamma)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-10
        assert_close(dense_to_covariance(rho), state.gamma, 1e-9, "round trip")

    def test_dense_to_covariance_validates_input(self):
        with pytest.raises(ValueError, match="Hermitian"):
            dense_to_covariance(np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="unit trace"):
            dense_to_covariance(np.eye(2))
        with pytest.raises(ValueError, match="2\\^n"):
            dense_to_covariance(np.eye(3) / 3.0)


class TestQuadraticOperators:
    def test_number_operator_dense_form(self):
        lat = Lattice(1, 2)
        obs = QuadraticObservable.number(lat, 0)
        op = dense_quadratic_observable(dense_coefficients(obs), obs.offset)
        assert_close(op, np.diag([0.0, 0.0, 1.0, 1.0]), 1e-12, "n_0")

    def test_expectations_agree_with_covariance_pipeline(self, rng):
        lat = Lattice(1, 3)
        state = state_from_correlation(lat, random_correlation(rng, 3))
        rho = dense_gaussian_density_matrix(state.gamma)
        for _ in range(5):
            obs = random_normalized_observable(lat, rng)
            dense_val = dense_expectation(rho, dense_quadratic_observable(dense_coefficients(obs)))
            assert dense_val == pytest.approx(state.expectation(obs), abs=1e-9)

    def test_expectation_rejects_imaginary_values(self):
        gamma = GaussianState.vacuum(Lattice(1, 2)).gamma
        rho = dense_gaussian_density_matrix(gamma)
        gammas = dense_majorana_set(2)
        with pytest.raises(ValueError, match="not real"):
            dense_expectation(rho, gammas[0] @ gammas[1])


class TestPauliChannel:
    def test_no_noise_is_identity(self, rng):
        rho = _random_density_matrix(rng, 4)
        assert_close(dense_pauli_channel(rho, 2, 0.0, DEPOL), rho, 1e-12, "p = 0")

    def test_single_qubit_population_mixing(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = dense_pauli_channel(rho, 1, 0.3, DEPOL)
        assert_close(out, np.diag([0.85, 0.15]), 1e-12, "diag(1 - p/2, p/2)")

    def test_depolarizing_shrinks_paulis_by_one_minus_p(self):
        p = 0.17
        for label in "XYZ":
            out = dense_pauli_channel(pauli(label), 1, p, DEPOL)
            assert_close(out, (1.0 - p) * pauli(label), 1e-12, label)

    def test_output_is_a_density_matrix(self, rng):
        rho = _random_density_matrix(rng, 8)
        out = dense_pauli_channel(rho, 3, 0.4, (0.5, 0.3, 0.2))
        assert_close(out, out.conj().T, 1e-12, "Hermitian")
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(out).min() > -1e-12

    def test_channel_is_self_adjoint(self, rng):
        a = _random_density_matrix(rng, 4)
        b = pauli_string(2, {0: "X", 1: "Z"}) + 0.2 * pauli_string(2, {1: "Y"})
        alphas = (0.6, 0.1, 0.3)
        lhs = np.trace(dense_pauli_channel(a, 2, 0.25, alphas) @ b)
        rhs = np.trace(a @ dense_pauli_channel(b, 2, 0.25, alphas))
        assert lhs.real == pytest.approx(rhs.real, abs=1e-12)

    def test_noisy_expectation_composes_channel_and_trace(self, rng):
        rho = _random_density_matrix(rng, 4)
        op = pauli_string(2, {0: "Z"})
        direct = dense_noisy_expectation(rho, op, 0.2, DEPOL)
        manual = np.trace(dense_pauli_channel(rho, 2, 0.2, DEPOL) @ op).real
        assert direct == pytest.approx(manual, abs=1e-12)


class TestFreeUnitaries:
    def test_generator_must_be_antisymmetric(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            dense_free_unitary(np.eye(4))

    def test_unitarity(self, rng):
        h = rng.normal(size=(6, 6))
        h = h - h.T
        u = dense_free_unitary(h)
        assert_close(u @ u.conj().T, np.eye(8), 1e-10, "U U^dag")

    def test_heisenberg_rotation_matches_exponential(self, rng):
        # U^dag gamma_c U = sum_a R[c, a] gamma_a with R = expm(h).
        h = rng.normal(size=(4, 4))
        h = h - h.T
        u = dense_free_unitary(h)
        r = expm(h)
        gammas = dense_majorana_set(2)
        for c in range(4):
            rotated = u.conj().T @ gammas[c] @ u
            combo = sum(r[c, a] * gammas[a] for a in range(4))
            assert_close(rotated, combo, 1e-10, f"gamma_{c}")

    def test_layer_is_unitary_then_noise(self, rng):
        rho = _random_density_matrix(rng, 4)
        h = rng.normal(size=(4, 4))
        h = h - h.T
        u = dense_free_unitary(h)
        out = dense_layer(rho, u, 0.1, DEPOL)
        manual = dense_pauli_channel(u @ rho @ u.conj().T, 2, 0.1, DEPOL)
        assert_close(out, manual, 1e-12, "layer")


class TestGF2Inverse:
    def test_inverts_a_random_invertible_matrix(self, rng):
        n = 12
        lower = np.tril(rng.integers(0, 2, (n, n)), -1) + np.eye(n, dtype=int)
        upper = np.triu(rng.integers(0, 2, (n, n)), 1) + np.eye(n, dtype=int)
        mat = (lower @ upper % 2)[rng.permutation(n)]
        inv = gf2_inverse(mat)
        assert np.array_equal(mat @ inv % 2, np.eye(n))
        assert np.array_equal(inv @ mat % 2, np.eye(n))

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            gf2_inverse(np.array([[1, 1], [1, 1]]))
