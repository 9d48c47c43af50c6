"""Tests for the Pauli channel and its action on encoded bilinears."""

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import GaussianState, assert_close, attenuation_matrix, box_covariance_block, \
    box_drops, box_momentum_error_map, box_momentum_occupation, box_occupation_shift, \
    dense_coefficients, dense_momentum_error_map, dense_state, displacement_index, \
    displacement_multiplicity, fold_drop_box, fold_onto_torus, folded_drops, full_covariance, \
    lattice_coords, momentum_occupation_observable, random_correlation, \
    random_normalized_observable, random_pure_state, refuse_full_covariance, \
    state_from_correlation, table_strings
from fermion_noise import (
    MODES,
    EncodingWeightModel,
    Lattice,
    ModeDiagonalState,
    PauliChannel,
    QuadraticObservable,
    attenuation_block,
    brickwork_circuit,
    fermi_sea,
    fermi_sea_1d,
    measurement_error,
    mode_etas,
    momentum_error_map,
    momentum_grid,
    momentum_occupation,
    free_dispersion,
    noisy_expectation,
    occupied_modes,
    parity_of,
    prefix_expectations,
    snake_index_vector,
    tight_binding_dispersion,
)
from fermion_noise import encodings
from oracle import (
    dense_gaussian_density_matrix,
    dense_majorana_set,
    dense_pauli_channel,
    dense_quadratic_observable,
    dense_noisy_expectation,
)


class TestPauliChannel:
    def test_strength_bounds(self):
        with pytest.raises(ValueError, match="0, 2/3"):
            PauliChannel(-0.1)
        with pytest.raises(ValueError, match="0, 2/3"):
            PauliChannel(0.7)
        PauliChannel(2.0 / 3.0)  # boundary is allowed

    def test_alphas_validated(self):
        with pytest.raises(ValueError, match="three"):
            PauliChannel(0.1, alphas=(0.5, 0.5))
        with pytest.raises(ValueError, match="nonnegative"):
            PauliChannel(0.1, alphas=(1.2, -0.1, -0.1))
        with pytest.raises(ValueError, match="sum to 1"):
            PauliChannel(0.1, alphas=(0.5, 0.3, 0.1))

    @pytest.mark.parametrize("alphas", [(np.nan, 0.5, 0.5), (0.5, np.inf, 0.5),
                                        (np.nan, np.nan, np.nan), (-np.inf, 1.0, 1.0)])
    def test_non_finite_alphas_rejected(self, alphas):
        with pytest.raises(ValueError, match="alphas must be three finite"):
            PauliChannel(0.01, alphas)

    def test_depolarizing_properties(self):
        ch = PauliChannel.depolarizing(0.2)
        assert ch.is_depolarizing
        assert_close(ch.etas, 0.8, 1e-12, "etas")
        assert ch.worst_factor == pytest.approx(0.7)
        assert not PauliChannel(0.2, alphas=(0.5, 0.25, 0.25)).is_depolarizing

    def test_etas_frozen_example(self):
        ch = PauliChannel(0.3, alphas=(0.5, 0.3, 0.2))
        ex, ey, ez = ch.etas
        assert ex == pytest.approx(1.0 - 0.45 * 0.5, abs=1e-12)  # 0.775
        assert ey == pytest.approx(1.0 - 0.45 * 0.7, abs=1e-12)  # 0.685
        assert ez == pytest.approx(1.0 - 0.45 * 0.8, abs=1e-12)  # 0.640

    def test_string_attenuation_multiplies_factors(self):
        # gamma^1_0 gamma^1_3 on a 4-site chain is Y Z Z X.
        ch = PauliChannel(0.3, alphas=(0.5, 0.3, 0.2))
        ex, ey, ez = ch.etas
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        assert enc.pair_weights([0, 6], counts=True)[:, 0, 1].tolist() == [1, 1, 2]
        assert attenuation_block(enc, ch.etas, [0, 6])[0, 1] == \
            pytest.approx(ex * ey * ez**2, abs=1e-14)

    def test_uniform_mix_etas_are_one_minus_p(self):
        # The weight-only attenuation (1 - p)^w reads etas[0]; it must be
        # exactly 1 - p, and worst-case mode takes (1 - 3p/2)^w on any mix.
        assert PauliChannel.depolarizing(0.1).etas == (1.0 - 0.1,) * 3
        ch = PauliChannel(0.1, alphas=(0.5, 0.25, 0.25))
        assert len(set(ch.etas)) == 2
        assert ch.worst_factor == pytest.approx(0.85, abs=1e-15)
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        assert enc.bilinear_weight(0, 2) == 2
        assert attenuation_block(enc, mode_etas(ch, "worst-case"), [0, 2])[0, 1] == \
            pytest.approx(0.7225, abs=1e-12)


class TestChannelEigenvalueLaw:
    """Encoded bilinears are channel eigenoperators; the factors must match."""

    @pytest.mark.parametrize("channel", [
        PauliChannel.depolarizing(0.2),
        PauliChannel(0.35, alphas=(0.6, 0.3, 0.1)),
    ])
    def test_dense_channel_rescales_bilinears(self, channel):
        n = 3
        enc = EncodingWeightModel("jw1d", Lattice(1, n))
        gammas = dense_majorana_set(n)
        for a in range(2 * n):
            for b in range(2 * n):
                if a == b:
                    continue
                op = gammas[a] @ gammas[b]
                out = dense_pauli_channel(op, n, channel.p, channel.alphas)
                lam = attenuation_block(enc, channel.etas, [a, b])[0, 1]
                assert_close(out, lam * op, 1e-12, f"bilinear ({a}, {b})")

    def test_exact_factor_sits_between_worst_case_and_one(self, rng):
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        for _ in range(20):
            p = rng.uniform(0.0, 2.0 / 3.0)
            alphas = rng.dirichlet(np.ones(3))
            ch = PauliChannel(p, alphas=tuple(alphas))
            a, b = rng.choice(8, size=2, replace=False)
            lam = attenuation_block(enc, ch.etas, [int(a), int(b)])[0, 1]
            floor = ch.worst_factor ** enc.bilinear_weight(int(a), int(b))
            assert floor - 1e-12 <= lam <= 1.0 + 1e-12


class TestEtas:
    """The library takes noise as its etas; ``mode_etas`` reads a channel in a mode."""

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="unknown attenuation mode"):
            mode_etas(PauliChannel.depolarizing(0.1), "typical")

    def test_modes_give_the_channel_or_the_worst_factor(self):
        ch = PauliChannel(0.1, alphas=(0.5, 0.25, 0.25))
        assert mode_etas(ch, "exact") == ch.etas
        assert mode_etas(ch, "worst-case") == (1.0 - 1.5 * 0.1,) * 3
        assert mode_etas(PauliChannel.depolarizing(0.1), "exact") == (1.0 - 0.1,) * 3

    @pytest.mark.parametrize("etas", [
        (1.1, 0.9, 0.9), (0.9, -0.1, 0.9), (0.9, 0.9, np.nan), (np.inf,) * 3, (-np.inf,) * 3,
        (0.9, 0.9), (0.9,) * 4, [[0.9, 0.9, 0.9]], np.full((3, 1), 0.9), np.array(0.9), 0.9,
        None, "abc", (0.9, "x", 0.9)])
    def test_bad_etas_are_refused(self, etas):
        lat = Lattice(1, 8)
        enc = EncodingWeightModel("jw1d", lat)
        state, grid, _ = fermi_sea_1d(lat, 4)
        obs = QuadraticObservable.hopping(lat, 0, 3)
        circ = brickwork_circuit(lat, 1, seed=0)
        calls = [lambda: attenuation_block(enc, etas, [0, 3]),
                 lambda: noisy_expectation(state, obs, enc, etas),
                 lambda: measurement_error(state, obs, enc, etas),
                 lambda: momentum_error_map(state, enc, etas, grid.momenta)]
        if etas is not None:  # a circuit reads None as no noise
            calls.append(lambda: prefix_expectations(state, obs, circ, etas, enc))
        for call in calls:
            with pytest.raises(ValueError, match="etas"):
                call()

    def test_any_three_numbers_in_the_unit_interval(self):
        lat = Lattice(1, 4)
        enc = EncodingWeightModel("jw1d", lat)
        state, grid, _ = fermi_sea_1d(lat, 2)
        want = attenuation_block(enc, (0.5, 0.25, 1.0), np.arange(8))
        errors = momentum_error_map(state, enc, (0.5, 0.25, 1.0), grid.momenta)
        for etas in ([0.5, 0.25, 1.0], np.array([0.5, 0.25, 1.0]), (np.float32(0.5), 0.25, 1)):
            assert np.array_equal(attenuation_block(enc, etas, np.arange(8)), want)
            assert np.array_equal(momentum_error_map(state, enc, etas, grid.momenta), errors)
        assert np.array_equal(attenuation_block(enc, (0.0,) * 3, [0, 3]), np.eye(2))
        assert np.array_equal(attenuation_block(enc, (1.0,) * 3, [0, 3]), np.ones((2, 2)))


class TestAttenuationMatrices:

    def test_depolarizing_matrix_matches_weights(self):
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        ch = PauliChannel.depolarizing(0.1)
        lam = attenuation_matrix(enc, ch)
        assert_close(np.diag(lam), 1.0, 1e-15, "diagonal")
        assert_close(lam[0][1:], 0.9 ** enc.pair_weights(np.arange(8))[0][1:], 1e-12, "row 0")

    def test_entries_match_pairwise_calls(self):
        enc = EncodingWeightModel("jw1d", Lattice(1, 3))
        ch = PauliChannel(0.25, alphas=(0.5, 0.2, 0.3))
        lam = attenuation_matrix(enc, ch)
        for a in range(6):
            for b in range(6):
                if a != b:
                    single = attenuation_block(enc, ch.etas, [a, b])[0, 1]
                    assert lam[a, b] == pytest.approx(single, abs=1e-14)

    def test_non_uniform_mix_needs_composition(self):
        enc = EncodingWeightModel("local", Lattice(1, 4))
        ch = PauliChannel(0.2, alphas=(0.5, 0.25, 0.25))
        everything = np.arange(enc.lattice.n_majorana)
        with pytest.raises(ValueError, match="worst-case"):
            attenuation_block(enc, ch.etas, everything)
        lam = attenuation_block(enc, mode_etas(ch, "worst-case"), everything)
        assert_close(lam[0, 1], 0.7 ** 2, 1e-12, "worst-case fallback")

    def test_site_level_matrix(self):
        # Flavor-independent attenuation is one site-level matrix repeated in
        # all four flavor blocks; Bravyi-Kitaev and non-uniform mixes differ.
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        ch = PauliChannel.depolarizing(0.1)
        lam = attenuation_matrix(enc, ch)
        site = 0.9 ** enc.pair_weights(np.arange(8))[0::2, 0::2]
        for f, g in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            block = lam[f::2, g::2].copy()
            if f == g:
                np.fill_diagonal(block, site[0, 0])
            assert_close(block, site, 1e-12, f"flavor block {f}{g}")
        bk = attenuation_matrix(EncodingWeightModel("bravyi_kitaev", Lattice(1, 4)), ch)
        assert not np.allclose(bk[0::2, 1::2], bk[1::2, 0::2])
        aniso = attenuation_matrix(enc, PauliChannel(0.1, alphas=(0.5, 0.3, 0.2)))
        assert not np.allclose(aniso[0::2, 0::2], aniso[0::2, 1::2])

    @pytest.mark.parametrize("kind,dim,length", [
        ("jw2d_snake", 2, 2), ("bravyi_kitaev", 1, 4), ("bravyi_kitaev", 2, 2),
    ])
    def test_non_uniform_mix_matches_the_dense_channel(self, kind, dim, length):
        # Exact anisotropic attenuation on every concrete encoding: render
        # each bilinear from the encoding's own table and apply the dense
        # channel; the bilinear must come back scaled by its attenuation.
        enc = EncodingWeightModel(kind, Lattice(dim, length))
        gammas = table_strings(enc)
        n = enc.lattice.n_sites
        ch = PauliChannel(0.35, alphas=(0.6, 0.3, 0.1))
        lam = attenuation_matrix(enc, ch)
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                op = gammas[a] @ gammas[b]
                out = dense_pauli_channel(op, n, ch.p, ch.alphas)
                factor = attenuation_block(enc, ch.etas, [a, b])[0, 1]
                assert_close(out, factor * op, 1e-12, f"{kind} bilinear ({a}, {b})")
                assert lam[a, b] == pytest.approx(factor, abs=1e-14)


class TestAttenuationBlock:
    @pytest.mark.parametrize("kind,dim,length,ch,mode", [
        ("local", 2, 4, PauliChannel.depolarizing(0.1), "exact"),
        ("local", 1, 9, PauliChannel.depolarizing(0.1), "worst-case"),
        ("jw1d", 1, 8, PauliChannel(0.2, (0.5, 0.3, 0.2)), "exact"),
        ("jw2d_snake", 2, 4, PauliChannel(0.1, (0.6, 0.1, 0.3)), "exact"),
        ("bravyi_kitaev", 1, 16, PauliChannel(0.1, (0.2, 0.2, 0.6)), "exact"),
        ("bravyi_kitaev", 1, 16, PauliChannel.depolarizing(0.3), "worst-case"),
    ])
    def test_is_the_submatrix_of_the_attenuation_matrix(self, rng, kind, dim, length, ch, mode):
        lat = Lattice(dim, length)
        enc = EncodingWeightModel(kind, lat)
        full = attenuation_matrix(enc, ch, mode)
        for idx in (np.arange(lat.n_majorana), rng.choice(lat.n_majorana, 7, replace=False)):
            assert np.array_equal(attenuation_block(enc, mode_etas(ch, mode), idx),
                                  full[np.ix_(idx, idx)])


_SINGLE_PAIR_ENCODINGS = [("local", Lattice(1, 8)), ("local", Lattice(2, 4)),
                          ("jw1d", Lattice(1, 8)), ("jw2d_snake", Lattice(2, 4)),
                          ("bravyi_kitaev", Lattice(1, 16))]


def _all_pairs(enc):
    n = enc.lattice.n_majorana
    return [(a, b) for a in range(n) for b in range(n) if a != b]


class TestSinglePairsAreIndexSets:
    """A query on one bilinear is the index-set query at ``[a, b]``, bit for bit."""

    @pytest.mark.parametrize("kind,lat", _SINGLE_PAIR_ENCODINGS)
    def test_weight(self, kind, lat):
        enc = EncodingWeightModel(kind, lat)
        for a, b in _all_pairs(enc):
            assert enc.bilinear_weight(a, b) == enc.pair_weights([a, b])[0, 1], (a, b)

    @pytest.mark.parametrize("kind,lat", _SINGLE_PAIR_ENCODINGS)
    def test_pair_errors(self, kind, lat):
        enc = EncodingWeightModel(kind, lat)
        ch = PauliChannel.depolarizing(0.1)
        n = lat.n_majorana
        for a, b in [(0, n), (n, 0), (-1, 0)]:
            with pytest.raises(IndexError):
                attenuation_block(enc, ch.etas, [a, b])
            with pytest.raises(IndexError):
                enc.bilinear_weight(a, b)
        with pytest.raises(ValueError, match="distinct"):
            enc.bilinear_weight(3, 3)


class TestNoisyExpectations:
    def test_occupied_site_number_error(self):
        # A filled site read through weight-1 noise: <n> drops to 1 - p/2.
        lat = Lattice(1, 4)
        state, _, _ = fermi_sea_1d(lat, 4)
        enc = EncodingWeightModel("jw1d", lat)
        ch = PauliChannel.depolarizing(0.3)
        obs = QuadraticObservable.number(lat, 2)
        assert noisy_expectation(state, obs, enc, ch.etas) == pytest.approx(0.85, abs=1e-12)
        assert measurement_error(state, obs, enc, ch.etas) == pytest.approx(0.15, abs=1e-12)

    def test_vacuum_number_error(self):
        lat = Lattice(1, 3)
        state = GaussianState.vacuum(lat)
        enc = EncodingWeightModel("jw1d", lat)
        obs = QuadraticObservable.number(lat, 0)
        ch = PauliChannel.depolarizing(0.2)
        assert noisy_expectation(state, obs, enc, ch.etas) == pytest.approx(0.1, abs=1e-12)

    def test_matches_attenuated_state(self, rng):
        lat = Lattice(1, 5)
        state = state_from_correlation(lat, random_correlation(rng, 5))
        enc = EncodingWeightModel("local", lat, phi0=1)
        ch = PauliChannel.depolarizing(0.15)
        obs = momentum_occupation_observable(lat, [2 * np.pi / 5])
        damped = GaussianState(lat, attenuation_matrix(enc, ch) * state.gamma)
        assert noisy_expectation(state, obs, enc, ch.etas) == \
            pytest.approx(damped.expectation(obs), abs=1e-12)

    def test_error_is_absolute_shift(self, rng):
        lat = Lattice(1, 4)
        state = state_from_correlation(lat, random_correlation(rng, 4))
        enc = EncodingWeightModel("jw1d", lat)
        ch = PauliChannel.depolarizing(0.2)
        obs = random_normalized_observable(lat, rng)
        shift = state.expectation(obs) - noisy_expectation(state, obs, enc, ch.etas)
        assert measurement_error(state, obs, enc, ch.etas) == pytest.approx(abs(shift), abs=1e-12)

    @pytest.mark.parametrize("channel", [
        PauliChannel.depolarizing(0.2),
        PauliChannel(0.3, alphas=(0.5, 0.2, 0.3)),
    ])
    def test_agrees_with_dense_reference(self, rng, channel):
        n = 3
        lat = Lattice(1, n)
        state = state_from_correlation(lat, random_correlation(rng, n))
        enc = EncodingWeightModel("jw1d", lat)
        rho = dense_gaussian_density_matrix(state.gamma)
        for _ in range(5):
            obs = random_normalized_observable(lat, rng)
            dense_val = dense_noisy_expectation(
                rho, dense_quadratic_observable(dense_coefficients(obs)),
                channel.p, channel.alphas,
            )
            assert noisy_expectation(state, obs, enc, channel.etas) == \
                pytest.approx(dense_val, abs=1e-10)

    @pytest.mark.parametrize("measure", [
        lambda state, obs, enc, ch: noisy_expectation(state, obs, enc, ch.etas),
        lambda state, obs, enc, ch: measurement_error(state, obs, enc, ch.etas),
        lambda state, obs, enc, ch: momentum_error_map(state, enc, ch.etas, [[0.0]]),
    ])
    def test_encoding_and_state_lattices_must_agree(self, measure):
        # A 16-site sea read through encodings of 8 sites, or of 16 sites in 2D.
        state, _, _ = fermi_sea_1d(Lattice(1, 16), 7)
        obs = QuadraticObservable.hopping(state.lattice, 0, 7)
        ch = PauliChannel.depolarizing(0.01)
        for lat in (Lattice(1, 8), Lattice(2, 4)):
            with pytest.raises(ValueError, match="disagree"):
                measure(state, obs, EncodingWeightModel("local", lat), ch)
        measure(state, obs, EncodingWeightModel("local", Lattice(1, 16)), ch)  # an equal lattice


class TestSensitivity:
    def test_vacuum_number_sensitivity_is_half(self):
        lat = Lattice(1, 4)
        state = GaussianState.vacuum(lat)
        enc = EncodingWeightModel("local", lat, phi0=1)
        obs = QuadraticObservable.number(lat, 1)
        for p in (1e-4, 1e-2, 0.3):
            error = measurement_error(state, obs, enc, PauliChannel.depolarizing(p).etas)
            assert error / p == pytest.approx(0.5, abs=1e-12)


class TestSupportHeldMeasurement:
    """Measurement noise reads the observable's support only.

    On a mode-diagonal state that is its covariance block gathered from
    ``C(r)``, and the results are those of the dense state.
    """

    @pytest.mark.parametrize("kind,dim,length,channel", [
        ("local", 1, 64, PauliChannel.depolarizing(0.1)),
        ("jw1d", 1, 64, PauliChannel.depolarizing(0.1)),
        ("jw1d", 1, 64, PauliChannel(0.3, alphas=(0.6, 0.3, 0.1))),
        ("bravyi_kitaev", 1, 64, PauliChannel(0.2, alphas=(0.2, 0.5, 0.3))),
        ("local", 2, 8, PauliChannel.depolarizing(0.1)),
        ("jw2d_snake", 2, 8, PauliChannel.depolarizing(0.1)),
        ("jw2d_snake", 2, 8, PauliChannel(0.3, alphas=(0.6, 0.3, 0.1))),
        ("bravyi_kitaev", 2, 8, PauliChannel.depolarizing(0.2)),
    ])
    @pytest.mark.parametrize("mode", ["exact", "worst-case"])
    def test_mode_diagonal_state_matches_dense(self, kind, dim, length, channel, mode):
        lat = Lattice(dim, length)
        if dim == 1:
            state, _, _ = fermi_sea_1d(lat, 21)
        else:
            state, _ = fermi_sea(momentum_grid(lat, parity_of(13)), 13, tight_binding_dispersion)
        dense = dense_state(state)
        enc = EncodingWeightModel(kind, lat)
        observables = [QuadraticObservable.number(lat, 3), QuadraticObservable.hopping(lat, 0, 9),
                       QuadraticObservable.hopping(lat, 5, lat.n_sites - 2),
                       momentum_occupation_observable(lat, state.grid.momenta[4])]
        etas = mode_etas(channel, mode)
        for obs in observables:
            assert noisy_expectation(state, obs, enc, etas) == \
                pytest.approx(noisy_expectation(dense, obs, enc, etas), abs=1e-12)
            assert measurement_error(state, obs, enc, etas) == \
                pytest.approx(measurement_error(dense, obs, enc, etas), abs=1e-12)


class TestMomentumErrorMap:
    def test_fast_path_matches_direct_contraction(self):
        lat = Lattice(1, 8)
        state, grid, _ = fermi_sea_1d(lat, 4)
        enc = EncodingWeightModel("jw1d", lat)
        ch = PauliChannel.depolarizing(0.1)
        errors = momentum_error_map(state, enc, ch.etas, grid.momenta)
        lam = attenuation_matrix(enc, ch)
        for j, k in enumerate(grid.momenta):
            obs = momentum_occupation_observable(lat, k)
            manual = float(np.sum(dense_coefficients(obs) * (1.0 - lam) * full_covariance(state)))
            assert errors[j] == pytest.approx(manual, abs=1e-14)

    def test_generic_path_matches_fast_path(self):
        # Same jw1d model through the X/Y/Z drops: with the uniform mix
        # entered as explicit alphas the two branches must agree.
        lat = Lattice(1, 6)
        state, grid, _ = fermi_sea_1d(lat, 3)
        enc = EncodingWeightModel("jw1d", lat)
        fast = momentum_error_map(
            state, enc, PauliChannel.depolarizing(0.2).etas, grid.momenta)
        ch = PauliChannel(0.2, alphas=(1 / 3 + 1e-10, 1 / 3, 1 / 3 - 1e-10))
        assert not ch.is_depolarizing
        generic = momentum_error_map(state, enc, ch.etas, grid.momenta)
        assert_close(generic, fast, 1e-8, "fast vs generic")

    def test_occupied_mode_errors_are_positive_losses(self):
        lat = Lattice(1, 10)
        state, grid, occ = fermi_sea_1d(lat, 5)
        enc = EncodingWeightModel("jw1d", lat)
        errors = momentum_error_map(state, enc, PauliChannel.depolarizing(0.1).etas, grid.momenta)
        assert (errors[occ] > 0).all()

    def test_two_dimensional_map(self):
        lat = Lattice(2, 4)
        grid = momentum_grid(lat, parity_of(5))
        state, _ = fermi_sea(grid, 5, tight_binding_dispersion)
        enc = EncodingWeightModel("local", lat, phi0=1)
        ch = PauliChannel.depolarizing(0.05)
        errors = momentum_error_map(state, enc, ch.etas, grid.momenta)
        lam = attenuation_matrix(enc, ch)
        for j in (0, 7, 15):
            obs = momentum_occupation_observable(lat, grid.momenta[j])
            manual = float(np.sum(dense_coefficients(obs) * (1.0 - lam) * full_covariance(state)))
            assert errors[j] == pytest.approx(manual, abs=1e-14)

    def test_momenta_shape_validated(self):
        lat = Lattice(1, 4)
        state, _, _ = fermi_sea_1d(lat, 2)
        enc = EncodingWeightModel("jw1d", lat)
        ch = PauliChannel.depolarizing(0.1)
        with pytest.raises(ValueError, match="columns"):
            momentum_error_map(state, enc, ch.etas, np.array([0.0, np.pi / 2]))
        out = momentum_error_map(state, enc, ch.etas, np.array([[0.0], [np.pi / 2]]))
        assert out.shape == (2,)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_momenta_off_every_grid_are_refused(self, dim):
        # Every momentum sum is read off the torus: k L / pi must be an integer
        # on every axis, a momentum of either grid parity.
        lat = Lattice(dim, 4)
        grid = momentum_grid(lat, "odd")
        state = ModeDiagonalState(grid, np.full(lat.n_sites, 0.5))
        enc = EncodingWeightModel("local", lat)
        off = np.concatenate([grid.momenta[:3], np.full((1, dim), np.pi / 4)])
        off[-1, 0] += 0.3
        with pytest.raises(ValueError, match="momenta"):
            momentum_error_map(state, enc, PauliChannel.depolarizing(0.1).etas, off)
        with pytest.raises(ValueError, match="momenta"):
            momentum_occupation(state, off)

    @pytest.mark.parametrize("dim,length,kind", [
        (2, 16, "local"), (2, 16, "jw2d_snake"), (2, 16, "bravyi_kitaev"), (2, 64, "local"),
        (1, 64, "jw1d"), (1, 64, "bravyi_kitaev"), (1, 30, "local")])
    def test_zero_mode_identity(self, dim, length, kind):
        # sum_k e^{ikr} = N delta_r0 on a whole grid, so the errors of all its
        # modes sum to the on-site cross-flavor drop, summed over sites, times
        # the on-site <gamma_2x gamma_2x+1> part, n_bar - 1/2.  The on-site
        # drop comes from the number operators' Z strings, not from the box:
        # one Z for Jordan-Wigner, 1 + tau(s) for Bravyi-Kitaev (tau the
        # trailing ones of s) and weight phi0 for ``local``.
        lat = Lattice(dim, length)
        enc = EncodingWeightModel(kind, lat)
        n = lat.n_sites
        z_counts = {"local": np.full(n, enc.phi0), "jw1d": np.ones(n), "jw2d_snake": np.ones(n),
                    "bravyi_kitaev": np.array([(s ^ (s + 1)).bit_length() for s in range(n)])}
        dispersion = tight_binding_dispersion if dim == 2 else free_dispersion
        for n_occ in (5, 12, lat.n_sites // 3):
            grid = momentum_grid(lat, parity_of(n_occ))
            state, _ = fermi_sea(grid, n_occ, dispersion)
            for ch in (PauliChannel.depolarizing(0.1), PauliChannel(0.1, (0.1, 0.1, 0.8))):
                for mode in MODES:
                    if kind == "local" and mode == "exact" and not ch.is_depolarizing:
                        continue
                    etas = mode_etas(ch, mode)
                    total = momentum_error_map(state, enc, etas, grid.momenta).sum()
                    ez = etas[2]
                    on_site = np.sum(1.0 - ez ** z_counts[kind])
                    expected = on_site * (n_occ / lat.n_sites - 0.5)
                    assert abs(total - expected) <= 1e-12 * max(1.0, abs(expected)), \
                        (n_occ, ch.alphas, mode)


def per_momentum_error(state, enc, channel, k, mode):
    """``<n_k> - <n_k>_noisy`` contracted from the dense observable of one momentum."""
    obs = momentum_occupation_observable(state.lattice, k)
    lam = attenuation_matrix(enc, channel, mode)
    return float(np.sum(dense_coefficients(obs) * (1.0 - lam) * full_covariance(state)))


_KIND_MODE_MIX = [
    ("local", "exact", None),
    ("local", "worst-case", None),
    ("jw1d", "exact", None),
    ("jw1d", "worst-case", None),
    ("jw1d", "exact", (0.5, 0.2, 0.3)),
    ("bravyi_kitaev", "exact", None),
    ("bravyi_kitaev", "worst-case", None),
    ("bravyi_kitaev", "exact", (0.1, 0.3, 0.6)),
]
_ANISOTROPIC = (0.2, 0.2, 0.6)


def _mode_diagonal_cases():
    """Every kind/mode/mix above and of the 2D test, on each dimension its encoding allows."""
    extra = [("jw2d_snake", "exact", None), ("jw2d_snake", "worst-case", None),
             ("jw2d_snake", "exact", _ANISOTROPIC), ("bravyi_kitaev", "exact", _ANISOTROPIC)]
    return [(kind, mode, alphas, dim) for kind, mode, alphas in _KIND_MODE_MIX + extra
            for dim in (1, 2) if (kind, dim) not in (("jw1d", 2), ("jw2d_snake", 1))]


class TestMomentumErrorMapReference:
    @pytest.mark.parametrize("kind,mode,alphas", _KIND_MODE_MIX)
    def test_matches_the_per_momentum_contraction(self, rng, kind, mode, alphas):
        # A Haar-random pure state has pairing terms, so no flavor block of
        # the covariance is symmetric and every block of T matters.
        lat = Lattice(1, 8)
        state = random_pure_state(lat, rng)
        enc = EncodingWeightModel(kind, lat, phi0=1)
        ch = PauliChannel(0.2, alphas=alphas) if alphas else PauliChannel.depolarizing(0.2)
        momenta = np.concatenate([momentum_grid(lat, "even").momenta, [[0.3], [2.0]]])
        errors = dense_momentum_error_map(state, enc, ch, momenta, mode)
        ref = [per_momentum_error(state, enc, ch, k, mode) for k in momenta]
        assert_close(errors, ref, 1e-12, f"{kind} {mode} {alphas}")

    @pytest.mark.parametrize("kind", ["jw2d_snake", "bravyi_kitaev"])
    def test_two_dimensional_snake_matches(self, rng, kind):
        # Off-grid momenta take the direct sum over the folded box.
        lat = Lattice(2, 4)
        state = random_pure_state(lat, rng)
        enc = EncodingWeightModel(kind, lat)
        ch = PauliChannel(0.2, alphas=_ANISOTROPIC)
        momenta = np.concatenate([momentum_grid(lat, "odd").momenta,
                                  [[0.3, -1.1], [2.0, 0.7], [np.pi / 4, 0.5]]])
        errors = dense_momentum_error_map(state, enc, ch, momenta)
        ref = [per_momentum_error(state, enc, ch, k, "exact") for k in momenta]
        assert_close(errors, ref, 1e-12, f"{kind} anisotropic")

    @pytest.mark.parametrize("kind,mode,alphas,dim", _mode_diagonal_cases())
    def test_mode_diagonal_state_matches_the_per_momentum_contraction(self, rng, monkeypatch,
                                                                      kind, mode, alphas, dim):
        # Random n(q): the drops are summed by displacement and weighted by
        # C(r), on the state's grid and on the other parity's grid.
        lat = Lattice(dim, 8 if dim == 1 else 4)
        grid = momentum_grid(lat, "even")
        state = ModeDiagonalState(grid, rng.uniform(0.0, 1.0, size=lat.n_sites))
        enc = EncodingWeightModel(kind, lat, phi0=1)
        ch = PauliChannel(0.2, alphas=alphas) if alphas else PauliChannel.depolarizing(0.2)
        momenta = np.concatenate([grid.momenta, momentum_grid(lat, "odd").momenta])
        dense = dense_state(state)
        refuse_full_covariance(monkeypatch)
        errors = momentum_error_map(state, enc, mode_etas(ch, mode), momenta)
        ref = [per_momentum_error(dense, enc, ch, k, mode) for k in momenta]
        assert_close(errors, ref, 1e-12, f"{kind} {mode} {alphas} {dim}D")

    def test_weight_only_model_needs_worst_case_for_a_non_uniform_mix(self):
        lat = Lattice(1, 4)
        state, _, _ = fermi_sea_1d(lat, 2)
        enc = EncodingWeightModel("local", lat)
        ch = PauliChannel(0.2, alphas=(0.5, 0.25, 0.25))
        with pytest.raises(ValueError, match="worst-case"):
            momentum_error_map(state, enc, ch.etas, np.array([[0.0]]))

    def test_a_state_that_is_not_mode_diagonal_is_refused(self):
        lat = Lattice(1, 4)
        enc = EncodingWeightModel("jw1d", lat)
        with pytest.raises(TypeError, match="ModeDiagonalState"):
            momentum_error_map(GaussianState.vacuum(lat), enc,
                               PauliChannel.depolarizing(0.1).etas, np.array([[0.0]]))


class TestSpectralErrorMap:
    # The spectral path against the dense flavor-block contraction on the
    # same covariance: 1D and 2D, both grid parities, momenta on the state's
    # grid and on the other parity's grid, sharp and Lipschitz
    # fillings, local with phi0 in {0, 1, 2} and jw1d, exact and worst-case.
    @pytest.mark.parametrize("dim,length", [(1, 10), (2, 6)])
    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("filling", ["sharp", "lipschitz"])
    def test_matches_the_dense_contraction(self, rng, monkeypatch, dim, length, parity,
                                           filling):
        lat = Lattice(dim, length)
        grid = momentum_grid(lat, parity)
        if filling == "sharp":
            occupations = (rng.uniform(size=lat.n_sites) < 0.4).astype(float)
        else:
            occupations = 0.5 * (1.0 + np.cos(grid.momenta[:, 0]))
        other = momentum_grid(lat, "even" if parity == "odd" else "odd").momenta
        momenta = np.concatenate([grid.momenta, other])
        encodings = [EncodingWeightModel("local", lat, phi0=phi0) for phi0 in (0, 1, 2)]
        if dim == 1:
            encodings.append(EncodingWeightModel("jw1d", lat))
        state = ModeDiagonalState(grid, occupations)
        reference = dense_state(state)
        refuse_full_covariance(monkeypatch)
        channel = PauliChannel.depolarizing(0.13)
        spectral = {(enc.kind, enc.phi0, mode):
                    momentum_error_map(state, enc, mode_etas(channel, mode), momenta)
                    for enc in encodings for mode in ("exact", "worst-case")}
        for enc in encodings:
            for mode in ("exact", "worst-case"):
                dense = dense_momentum_error_map(reference, enc, channel, momenta, mode)
                assert_close(spectral[enc.kind, enc.phi0, mode], dense, 1e-12,
                             f"{enc.kind} phi0={enc.phi0} {mode}")

    @pytest.mark.parametrize("kind,dim,length,alphas", [
        ("jw2d_snake", 2, 4, None),
        ("bravyi_kitaev", 1, 8, None),
        ("bravyi_kitaev", 2, 4, None),
        ("jw1d", 1, 8, (0.5, 0.2, 0.3)),
    ])
    def test_other_encodings_and_mixes_fold_their_drops(self, rng, monkeypatch, kind, dim,
                                                        length, alphas):
        lat = Lattice(dim, length)
        grid = momentum_grid(lat, "odd")
        state = ModeDiagonalState(grid, rng.uniform(0.0, 1.0, size=lat.n_sites))
        enc = EncodingWeightModel(kind, lat)
        channel = PauliChannel(0.2, alphas=alphas) if alphas else PauliChannel.depolarizing(0.2)
        momenta = np.concatenate([grid.momenta, momentum_grid(lat, "even").momenta])
        dense = dense_state(state)
        refuse_full_covariance(monkeypatch)
        errors = momentum_error_map(state, enc, channel.etas, momenta)
        # The drops are summed over pairs before the C(r) weights, the dense
        # reference's T after them: the same sum in another order.
        assert_close(errors, dense_momentum_error_map(dense, enc, channel, momenta),
                     1e-12, f"{kind} {dim}D {alphas}")

    def test_matches_the_convolution_reference_beyond_dense_reach(self, monkeypatch):
        # L = 200 in 2D is N = 40000: a dense covariance would take 51 GB.
        from test_acceptance import _direct_occupation_errors

        refuse_full_covariance(monkeypatch)

        side, p, phi0 = 200, 0.05, 1
        lat = Lattice(2, side)
        grid = momentum_grid(lat, "odd")
        occ = occupied_modes(grid, 4001, energies=free_dispersion(grid.momenta))
        occupations = np.zeros(lat.n_sites)
        occupations[occ] = 1.0
        state = ModeDiagonalState(grid, occupations)
        enc = EncodingWeightModel("local", lat, phi0=phi0)
        probes_m = [(0, 0), (35, 0), (36, 0), (25, 25), (26, 25), (-36, 3), (99, -100)]
        probes_k = np.array(probes_m, dtype=float) * 2.0 * np.pi / side
        errors = momentum_error_map(state, enc, PauliChannel.depolarizing(p).etas, probes_k)
        occ_m = lattice_coords(lat)[occ] - side // 2  # m of the periodic grid
        direct = _direct_occupation_errors(side, occ_m, p, phi0, probes_m)
        assert_close(errors, direct, 1e-12, "spectral vs convolution reference")


_FENWICK_NOISE = [
    (PauliChannel.depolarizing(0.2), "exact"),
    (PauliChannel.depolarizing(0.2), "worst-case"),
    (PauliChannel(0.2, alphas=(0.1, 0.1, 0.8)), "exact"),
    (PauliChannel(0.2, alphas=(0.5, 0.5, 0.0)), "exact"),
    (PauliChannel(0.2, alphas=(0.0, 0.0, 1.0)), "exact"),
    (PauliChannel(0.2, alphas=(0.7, 0.2, 0.1)), "exact"),
    (PauliChannel(2 / 3, alphas=(0.0, 0.5, 0.5)), "exact"),  # eta_x = 0
    (PauliChannel(2 / 3), "worst-case"),  # every eta 0
]
_FENWICK_IDS = ["uniform", "worst-case", "0.1,0.1,0.8", "0.5,0.5,0", "0,0,1", "0.7,0.2,0.1",
                "eta_x=0", "eta=0"]


def _streamed_drop_box(lat, eta, weights):
    """``(same, cross)`` of the uniform-mix drops ``1 - eta**w``, folded by rows of sites.

    ``weights(rows, sites)`` gives the weights of the pairs ``(2s + f, 2t + g)``,
    ``s`` in ``rows`` and ``t`` in ``sites``, as ``(2, 2, rows, N)`` flavor
    blocks or an array that broadcasts to them.
    """
    n = lat.n_sites
    sites = np.arange(n, dtype=np.int32)
    box = np.zeros((2, 2, (2 * lat.length) ** lat.dim))
    for rows in np.split(sites, lat.length):
        drop = np.broadcast_to(1.0 - eta ** weights(rows, sites), (2, 2, len(rows), n))
        key = displacement_index(lat, rows, sites).ravel()
        for out, pairs in zip(box.reshape(4, -1), drop.reshape(4, -1)):
            out += np.bincount(key, pairs, box.shape[-1])
    box = box.reshape((2, 2) + (2 * lat.length,) * lat.dim)
    return (box[0, 0] + box[1, 1]) / 2.0, (box[0, 1] + box[1, 0]) / 2.0


def _fenwick_weights(lat):
    f = np.arange(2, dtype=np.int32).reshape(2, 1, 1, 1)
    return lambda rows, sites: encodings._fenwick_pairs(
        rows[:, None], sites[None, :], f, f.reshape(1, 2, 1, 1), False)


def _every_sign(dim):
    return list(itertools.product((1, -1), repeat=dim))


class TestFenwickLevels:
    # Bravyi-Kitaev's drop torus by Fenwick level against the fold of all its
    # N x N drop blocks from the Pauli tables, the path it replaced.
    @pytest.mark.parametrize("dim,length", [(1, 1), (1, 2), (1, 4), (1, 16), (1, 512),
                                            (2, 1), (2, 2), (2, 4), (2, 8), (2, 16), (2, 32)])
    @pytest.mark.parametrize("channel,mode", _FENWICK_NOISE, ids=_FENWICK_IDS)
    def test_levels_match_the_fold(self, dim, length, channel, mode):
        lat = Lattice(dim, length)
        etas = mode_etas(channel, mode)
        enc = EncodingWeightModel("bravyi_kitaev", lat)
        boxes = fold_drop_box(enc, etas)
        for signs in _every_sign(dim):
            want = np.stack([fold_onto_torus(lat, box, signs) for box in boxes])
            got = np.stack(enc.drop_torus(etas, signs))
            assert got.shape == want.shape == (2,) + (length,) * dim
            assert np.abs(got - want).max() <= 1e-12 * np.abs(np.stack(boxes)).max(), \
                f"{dim}D L={length} {etas} {signs}"

    def test_the_map_at_64_by_64_builds_no_pair_table(self, monkeypatch):
        lat = Lattice(2, 64)
        grid = momentum_grid(lat, parity_of(1000))
        state, _ = fermi_sea(grid, 1000, tight_binding_dispersion)
        p = 0.01
        same, cross = _streamed_drop_box(lat, 1.0 - p, _fenwick_weights(lat))
        want = state.occupation_shift(folded_drops(lat, same, cross), grid.momenta)

        def refuse(*args, **kwargs):
            raise AssertionError("the level path built pair weights")

        monkeypatch.setattr(EncodingWeightModel, "pair_weights", refuse)
        monkeypatch.setattr(encodings, "_fenwick_pairs", refuse)
        refuse_full_covariance(monkeypatch)
        enc = EncodingWeightModel("bravyi_kitaev", lat)
        errors = momentum_error_map(state, enc, PauliChannel.depolarizing(p).etas, grid.momenta)
        assert_close(errors, want, 1e-12, "levels vs streamed fold at L = 64")

    def test_the_tori_of_the_last_etas_and_signs_are_kept_on_the_model(self):
        # A run fixes its etas: its fillings share the tori of those etas, and
        # every grid momentum folds with sign +1.
        lat = Lattice(2, 8)
        enc = EncodingWeightModel("jw2d_snake", lat)
        ch = PauliChannel.depolarizing(0.1)
        kept = enc.drop_torus(ch.etas, (1, 1))
        errors = []
        for n_occ in (10, 20):
            grid = momentum_grid(lat, parity_of(n_occ))
            state, _ = fermi_sea(grid, n_occ, tight_binding_dispersion)
            errors.append(momentum_error_map(state, enc, ch.etas, grid.momenta))
        assert enc.drop_torus(ch.etas, (1, 1)) is kept
        momentum_error_map(state, enc, mode_etas(ch, "worst-case"), grid.momenta)
        assert enc.drop_torus((ch.worst_factor,) * 3, (1, 1)) is not kept
        assert enc.drop_torus(ch.etas, (1, -1)) is not kept
        fresh = EncodingWeightModel("jw2d_snake", lat)
        assert_close(errors[1], momentum_error_map(state, fresh, ch.etas, grid.momenta), 0.0,
                     "kept torus")
        again = enc.drop_torus(ch.etas, [1, 1])
        assert again is not kept and all(np.array_equal(a, b) for a, b in zip(again, kept))

    def test_a_whole_grid_map_holds_one_complex_summand(self):
        # With the drops kept: the summand is one complex torus, scaled in
        # place and transformed in place, and the real part of the table is
        # rolled back into grid order: four real tori in all, where folding a
        # box and scaling by drop / N arrays held ten.
        lat = Lattice(2, 256)
        grid = momentum_grid(lat, parity_of(300))
        state, _ = fermi_sea(grid, 300, tight_binding_dispersion)
        enc = EncodingWeightModel("local", lat)
        ch = PauliChannel.depolarizing(0.01)
        want = momentum_error_map(state, enc, ch.etas, grid.momenta)  # every cache warm
        tracemalloc.start()
        try:
            errors = momentum_error_map(state, enc, ch.etas, grid.momenta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(errors, want)
        assert peak <= 4.3 * 8 * lat.n_sites, f"{peak} B traced for {8 * lat.n_sites} B tori"

    def test_a_run_holds_no_table_of_slots_or_coordinates(self):
        # What fermi2d keeps after a map at one filling: the momenta (two
        # tori), the int32 fill order (a half), n(q), C(r) (two), the drop
        # torus and the map, 7.77 tori measured on numpy 2.4.  A lattice that
        # cached its (N, 2) int64 coordinates and a grid that cached its
        # (N, 2) int32 torus slots held three more, 10.77.  The bound leaves
        # 0.73 of a torus over the measurement and fails the tables by 2.27.
        tracemalloc.start()
        try:
            lat = Lattice(2, 256)
            grid = momentum_grid(lat, parity_of(300))
            state, _ = fermi_sea(grid, 300, tight_binding_dispersion)
            errors = momentum_error_map(state, EncodingWeightModel("local", lat), (0.99,) * 3,
                                        grid.momenta)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert errors.shape == (lat.n_sites,)
        assert held <= 8.5 * 8 * lat.n_sites, f"{held} B held for {8 * lat.n_sites} B tori"

    def test_a_sweep_over_p_keeps_one_drop_torus(self):
        lat = Lattice(2, 8)
        enc = EncodingWeightModel("bravyi_kitaev", lat)
        grid = momentum_grid(lat, parity_of(20))
        state, _ = fermi_sea(grid, 20, tight_binding_dispersion)
        sweep = np.linspace(0.001, 0.5, 50)
        for p in np.concatenate([sweep, sweep[:3]]):
            ch = PauliChannel.depolarizing(float(p))
            got = momentum_error_map(state, enc, ch.etas, grid.momenta)
            assert enc._last_drop_torus[0] == (ch.etas, (1, 1))
            fresh = EncodingWeightModel("bravyi_kitaev", lat)
            assert_close(got, momentum_error_map(state, fresh, ch.etas, grid.momenta), 0.0,
                         f"p = {p}")

    @pytest.mark.parametrize("kind,dim,shared", [("local", 1, True), ("local", 2, True),
                                                 ("jw1d", 1, True), ("jw2d_snake", 2, True),
                                                 ("bravyi_kitaev", 1, False),
                                                 ("bravyi_kitaev", 2, False)])
    def test_equal_etas_share_one_read_only_torus_across_flavors(self, kind, dim, shared):
        # One array for both flavors is built once; the Fenwick levels give
        # the two flavors different drops.
        enc = EncodingWeightModel(kind, Lattice(dim, 8))
        for etas in ((0.9,) * 3, (1.0 / 3.0,) * 3):
            for signs in _every_sign(dim):
                same, cross = enc.drop_torus(etas, signs)
                assert (same is cross) is shared, f"{kind} {etas} {signs}"
                assert not same.flags.writeable and not cross.flags.writeable
                assert enc.drop_torus(etas, signs)[0] is same

    @pytest.mark.parametrize("signs", [(1, 0), (1,), (1, 1, 1), (2, 1)])
    def test_signs_are_one_per_axis_each_plus_or_minus_one(self, signs):
        enc = EncodingWeightModel("local", Lattice(2, 4))
        with pytest.raises(ValueError, match="signs"):
            enc.drop_torus((0.9,) * 3, signs)

    @pytest.mark.parametrize("etas", [(2.0, 2.0, 2.0), (0.9, 0.9, -0.1), (0.9, 0.9),
                                      (0.9, float("nan"), 0.9), 0.9])
    def test_etas_are_checked_when_the_tori_are_built(self, etas):
        # Unchecked, etas of 2 gave drops down to -296 on an 8-site chain.
        # Checked etas find the kept tori; bad ones are refused with a pair kept.
        enc = EncodingWeightModel("jw1d", Lattice(1, 8))
        with pytest.raises(ValueError, match="etas"):
            enc.drop_torus(etas, (1,))
        kept = enc.drop_torus((0.9,) * 3, (1,))
        assert enc.drop_torus((0.9,) * 3, (1,)) is kept
        assert all(drop.min() >= 0.0 for drop in kept)
        with pytest.raises(ValueError, match="etas"):
            enc.drop_torus(etas, (1,))
        assert enc.drop_torus((0.9,) * 3, (1,)) is kept

    @pytest.mark.parametrize("etas", [np.array([0.9] * 3), [0.9] * 3, (np.float64(0.9),) * 3])
    def test_etas_in_any_sequence_find_the_kept_tori(self, etas):
        # The etas are checked into a tuple of floats before the kept pair is
        # compared: an array once raised numpy's ambiguous truth value there,
        # and a list never matched, so the tori were rebuilt on every call.
        enc = EncodingWeightModel("jw1d", Lattice(1, 8))
        kept = enc.drop_torus(etas, (1,))
        assert enc.drop_torus(etas, (1,)) is kept
        assert enc.drop_torus((0.9,) * 3, (1,)) is kept


class TestJordanWignerTorus:
    # Jordan-Wigner's drop torus by qubit separation against the fold of all
    # its N x N drop blocks from the Pauli tables, the path it replaced.
    # ``same`` at the origin pairs each Majorana with itself, which no sum
    # reads: Im C(0) = 0.  As for every torus here, the tolerance is relative
    # to the largest summed drop of the box: a -1 fold can cancel to 0.
    @pytest.mark.parametrize("kind,dim,length",
                             [("jw1d", 1, length) for length in (1, 2, 3, 8, 17, 512)]
                             + [("jw2d_snake", 2, length) for length in (1, 2, 3, 4, 5, 6, 7, 8,
                                                                         11, 32)])
    @pytest.mark.parametrize("channel,mode", _FENWICK_NOISE, ids=_FENWICK_IDS)
    def test_separations_match_the_fold(self, kind, dim, length, channel, mode):
        lat = Lattice(dim, length)
        etas = mode_etas(channel, mode)
        enc = EncodingWeightModel(kind, lat)
        origin = (0,) * dim
        boxes = fold_drop_box(enc, etas)
        for signs in _every_sign(dim):
            want = np.stack([fold_onto_torus(lat, box, signs) for box in boxes])
            got = np.stack(enc.drop_torus(etas, signs))
            assert got.shape == want.shape == (2,) + (length,) * dim
            got[(0,) + origin] = want[(0,) + origin] = 0.0
            assert np.abs(got - want).max() <= 1e-12 * np.abs(np.stack(boxes)).max(), \
                f"{kind} L={length} {etas} {signs}"

    def test_the_snake_at_64_by_64_builds_no_pair_table(self, monkeypatch):
        lat = Lattice(2, 64)
        grid = momentum_grid(lat, parity_of(1000))
        state, _ = fermi_sea(grid, 1000, tight_binding_dispersion)
        p = 0.01
        order = snake_index_vector(lat).astype(np.int64)
        same, cross = _streamed_drop_box(
            lat, 1.0 - p, lambda rows, sites: 1 + np.abs(order[rows, None] - order[None, sites]))
        want = state.occupation_shift(folded_drops(lat, same, cross), grid.momenta)

        def refuse(*args, **kwargs):
            raise AssertionError("the snake path built pair weights")

        monkeypatch.setattr(EncodingWeightModel, "pair_weights", refuse)
        monkeypatch.setattr(EncodingWeightModel, "_jordan_wigner_counts", refuse)
        refuse_full_covariance(monkeypatch)
        enc = EncodingWeightModel("jw2d_snake", lat)
        errors = momentum_error_map(state, enc, PauliChannel.depolarizing(p).etas, grid.momenta)
        assert_close(errors, want, 1e-12, "qubit separations vs streamed fold at L = 64")

_TORUS_DROP_CASES = [(kind, dim, length, channel, mode)
                     for kind, dim, length in [
                         ("local", 1, 7), ("local", 1, 512), ("local", 2, 6), ("local", 2, 64),
                         ("jw1d", 1, 7), ("jw1d", 1, 512), ("jw2d_snake", 2, 5),
                         ("jw2d_snake", 2, 64), ("bravyi_kitaev", 1, 2),
                         ("bravyi_kitaev", 1, 512), ("bravyi_kitaev", 2, 2),
                         ("bravyi_kitaev", 2, 64)]
                     for channel, mode in _FENWICK_NOISE
                     if kind != "local" or len(set(mode_etas(channel, mode))) == 1]


class TestTorusDrops:
    # Each producer folds its drops onto the torus as it sums them: its torus
    # against the fold of the box summed by the producer it replaced
    # (conftest's box_drops), for every fold sign.  Under equal etas the
    # producers of local and Jordan-Wigner give one array for both flavors.
    @pytest.mark.parametrize("kind,dim,length,channel,mode", _TORUS_DROP_CASES)
    def test_each_torus_is_the_fold_of_its_box(self, kind, dim, length, channel, mode):
        lat = Lattice(dim, length)
        etas = mode_etas(channel, mode)
        enc = EncodingWeightModel(kind, lat)
        boxes = box_drops(enc, etas)
        for signs in _every_sign(dim):
            want = np.stack([fold_onto_torus(lat, box, signs) for box in boxes])
            got = np.stack(enc.drop_torus(etas, signs))
            assert got.shape == want.shape == (2,) + (length,) * dim
            assert np.abs(got - want).max() <= 1e-12 * np.abs(np.stack(boxes)).max(), \
                f"{kind} {dim}D L={length} {etas} {signs}"


# Every (dim, L, encoding) of the torus-route checks: both dimensions, L = 2
# included, and every encoding where it applies (Bravyi-Kitaev needs a
# power-of-two mode count).
_TORUS_CASES = [(dim, length, kind)
                for dim, lengths, kinds in [
                    (1, (2, 8, 16), ("local", "jw1d", "bravyi_kitaev")),
                    (2, (2, 4, 8), ("local", "jw2d_snake", "bravyi_kitaev"))]
                for length in lengths for kind in kinds]
_TORUS_NOISE = [(PauliChannel.depolarizing(0.2), "exact"),
                (PauliChannel.depolarizing(0.2), "worst-case"),
                (PauliChannel(0.2, alphas=(0.1, 0.1, 0.8)), "exact")]


def _torus_momenta(grid):
    """Momenta of the state's parity, of the other parity and of mixed parity (2D)."""
    lat = grid.lattice
    other = momentum_grid(lat, "even" if grid.parity == "odd" else "odd").momenta
    momenta = [grid.momenta, other]
    if lat.dim == 2:
        momenta.append(np.stack([grid.momenta[:, 0], other[:, 1]], axis=1))
    return np.concatenate(momenta)


class TestTorusRoute:
    # The L^D torus against the (2L)^D box route of conftest.py, which sums
    # the drops on the box by the box-route producers and reads every
    # momentum off an FFT of twice the period.
    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("dim,length,kind", _TORUS_CASES)
    def test_error_maps_match_the_box_route(self, rng, monkeypatch, dim, length, kind, parity):
        refuse_full_covariance(monkeypatch)
        lat = Lattice(dim, length)
        grid = momentum_grid(lat, parity)
        state = ModeDiagonalState(grid, rng.uniform(0.0, 1.0, size=lat.n_sites))
        momenta = _torus_momenta(grid)
        enc = EncodingWeightModel(kind, lat)
        label = f"{dim}D L={length} {kind} {parity}"
        for channel, mode in _TORUS_NOISE:
            if kind == "local" and not (channel.is_depolarizing or mode == "worst-case"):
                continue  # weights only: a non-uniform mix needs X/Y/Z counts
            assert_close(momentum_error_map(state, enc, mode_etas(channel, mode), momenta),
                         box_momentum_error_map(state, enc, channel, momenta, mode), 1e-14,
                         f"{label} {channel.alphas} {mode}")
        # Any drops, zero where no pair lies (an axis at -L), as every drop box
        # is, folded onto the torus of each class.
        same, cross = rng.normal(size=(2,) + (2 * length,) * dim)
        no_pair = displacement_multiplicity(lat) == 0
        same[no_pair] = cross[no_pair] = 0.0
        assert_close(state.occupation_shift(folded_drops(lat, same, cross), momenta),
                     box_occupation_shift(state, same, cross, momenta), 1e-14,
                     f"{label} random drop boxes")

    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("dim,length", [(1, 2), (1, 10), (2, 2), (2, 6)])
    def test_occupations_and_covariance_match_the_box_route(self, rng, dim, length, parity):
        lat = Lattice(dim, length)
        grid = momentum_grid(lat, parity)
        state = ModeDiagonalState(grid, rng.uniform(0.0, 1.0, size=lat.n_sites))
        momenta = _torus_momenta(grid)
        assert_close(momentum_occupation(state, momenta),
                     [box_momentum_occupation(state, k) for k in momenta], 1e-14,
                     f"n(k), {dim}D L={length} {parity}")
        everything = np.arange(lat.n_majorana)
        some = rng.permutation(lat.n_majorana)[:5]
        for idx in (everything, some):
            assert_close(state.covariance_block(idx), box_covariance_block(state, idx), 1e-14,
                         f"covariance, {dim}D L={length} {parity}")
