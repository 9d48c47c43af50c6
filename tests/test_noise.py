"""Tests for the Pauli channel and its action on encoded bilinears."""

import numpy as np
import pytest

import fermion_noise.noise as noise_module
from conftest import assert_close, random_correlation, random_normalized_observable, \
    table_strings
from fermion_noise import (
    EncodingWeightModel,
    GaussianState,
    Lattice,
    ModeDiagonalState,
    PauliChannel,
    QuadraticObservable,
    StringComposition,
    attenuation_block,
    attenuation_matrix,
    fermi_sea_1d,
    measurement_error,
    momentum_error_map,
    momentum_grid,
    free_dispersion,
    noisy_expectation,
    occupied_modes,
    pair_attenuation,
    random_pure_state,
    tight_binding_ground_state_2d,
)
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
        assert enc.string_composition(0, 6) == StringComposition(1, 1, 2)
        assert pair_attenuation(enc, ch, 0, 6) == pytest.approx(ex * ey * ez**2, abs=1e-14)

    def test_uniform_mix_etas_are_one_minus_p(self):
        # The weight-only attenuation (1 - p)^w reads etas[0]; it must be
        # exactly 1 - p, and worst-case mode takes (1 - 3p/2)^w on any mix.
        assert PauliChannel.depolarizing(0.1).etas == (1.0 - 0.1,) * 3
        ch = PauliChannel(0.1, alphas=(0.5, 0.25, 0.25))
        assert len(set(ch.etas)) == 2
        assert ch.worst_factor == pytest.approx(0.85, abs=1e-15)
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        assert enc.bilinear_weight(0, 2) == 2
        assert pair_attenuation(enc, ch, 0, 2, mode="worst-case") == \
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
                lam = pair_attenuation(enc, channel, a, b)
                assert_close(out, lam * op, 1e-12, f"bilinear ({a}, {b})")

    def test_exact_factor_sits_between_worst_case_and_one(self, rng):
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        for _ in range(20):
            p = rng.uniform(0.0, 2.0 / 3.0)
            alphas = rng.dirichlet(np.ones(3))
            ch = PauliChannel(p, alphas=tuple(alphas))
            a, b = rng.choice(8, size=2, replace=False)
            lam = pair_attenuation(enc, ch, int(a), int(b))
            floor = ch.worst_factor ** enc.bilinear_weight(int(a), int(b))
            assert floor - 1e-12 <= lam <= 1.0 + 1e-12


class TestAttenuationMatrices:
    def test_mode_validated(self):
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        with pytest.raises(ValueError, match="unknown attenuation mode"):
            attenuation_matrix(enc, PauliChannel.depolarizing(0.1), mode="typical")

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
                    assert lam[a, b] == pytest.approx(pair_attenuation(enc, ch, a, b), abs=1e-14)

    def test_non_uniform_mix_needs_composition(self):
        enc = EncodingWeightModel("local", Lattice(1, 4))
        ch = PauliChannel(0.2, alphas=(0.5, 0.25, 0.25))
        with pytest.raises(ValueError, match="worst-case"):
            attenuation_matrix(enc, ch)
        lam = attenuation_matrix(enc, ch, mode="worst-case")
        assert_close(lam[0, 1], 0.7 ** 2, 1e-12, "worst-case fallback")

    def test_site_level_matrix(self):
        # Flavor-independent attenuation is one site-level matrix repeated in
        # all four flavor blocks; Bravyi-Kitaev and non-uniform mixes differ.
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        ch = PauliChannel.depolarizing(0.1)
        lam = attenuation_matrix(enc, ch)
        site = 0.9 ** enc.pair_weights()[0, 0]
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
        # channel; the bilinear must come back scaled by pair_attenuation.
        enc = EncodingWeightModel(kind, Lattice(dim, length))
        gammas = table_strings(enc)
        n = enc.lattice.n_sites
        ch = PauliChannel(0.35, alphas=(0.6, 0.3, 0.1))
        lam = attenuation_matrix(enc, ch)
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                op = gammas[a] @ gammas[b]
                out = dense_pauli_channel(op, n, ch.p, ch.alphas)
                factor = pair_attenuation(enc, ch, a, b)
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
            assert np.array_equal(attenuation_block(enc, ch, idx, mode), full[np.ix_(idx, idx)])


class TestNoisyExpectations:
    def test_occupied_site_number_error(self):
        # A filled site read through weight-1 noise: <n> drops to 1 - p/2.
        lat = Lattice(1, 4)
        state, _, _ = fermi_sea_1d(lat, 4)
        enc = EncodingWeightModel("jw1d", lat)
        ch = PauliChannel.depolarizing(0.3)
        obs = QuadraticObservable.number(lat, 2)
        assert noisy_expectation(state, obs, enc, ch) == pytest.approx(0.85, abs=1e-12)
        assert measurement_error(state, obs, enc, ch) == pytest.approx(0.15, abs=1e-12)

    def test_vacuum_number_error(self):
        lat = Lattice(1, 3)
        state = GaussianState.vacuum(lat)
        enc = EncodingWeightModel("jw1d", lat)
        obs = QuadraticObservable.number(lat, 0)
        ch = PauliChannel.depolarizing(0.2)
        assert noisy_expectation(state, obs, enc, ch) == pytest.approx(0.1, abs=1e-12)

    def test_matches_attenuated_state(self, rng):
        lat = Lattice(1, 5)
        state = GaussianState.from_correlation_matrix(lat, random_correlation(rng, 5))
        enc = EncodingWeightModel("local", lat, phi0=1)
        ch = PauliChannel.depolarizing(0.15)
        obs = QuadraticObservable.momentum_occupation(lat, [2 * np.pi / 5])
        damped = GaussianState(lat, attenuation_matrix(enc, ch) * state.gamma)
        assert noisy_expectation(state, obs, enc, ch) == \
            pytest.approx(damped.expectation(obs), abs=1e-12)

    def test_error_is_absolute_shift(self, rng):
        lat = Lattice(1, 4)
        state = GaussianState.from_correlation_matrix(lat, random_correlation(rng, 4))
        enc = EncodingWeightModel("jw1d", lat)
        ch = PauliChannel.depolarizing(0.2)
        obs = random_normalized_observable(lat, rng)
        shift = state.expectation(obs) - noisy_expectation(state, obs, enc, ch)
        assert measurement_error(state, obs, enc, ch) == pytest.approx(abs(shift), abs=1e-12)

    @pytest.mark.parametrize("channel", [
        PauliChannel.depolarizing(0.2),
        PauliChannel(0.3, alphas=(0.5, 0.2, 0.3)),
    ])
    def test_agrees_with_dense_reference(self, rng, channel):
        n = 3
        lat = Lattice(1, n)
        state = GaussianState.from_correlation_matrix(lat, random_correlation(rng, n))
        enc = EncodingWeightModel("jw1d", lat)
        rho = dense_gaussian_density_matrix(state.gamma)
        for _ in range(5):
            obs = random_normalized_observable(lat, rng)
            dense_val = dense_noisy_expectation(
                rho, dense_quadratic_observable(obs.coefficients),
                channel.p, channel.alphas,
            )
            assert noisy_expectation(state, obs, enc, channel) == \
                pytest.approx(dense_val, abs=1e-10)


class TestSensitivity:
    def test_vacuum_number_sensitivity_is_half(self):
        lat = Lattice(1, 4)
        state = GaussianState.vacuum(lat)
        enc = EncodingWeightModel("local", lat, phi0=1)
        obs = QuadraticObservable.number(lat, 1)
        for p in (1e-4, 1e-2, 0.3):
            error = measurement_error(state, obs, enc, PauliChannel.depolarizing(p))
            assert error / p == pytest.approx(0.5, abs=1e-12)


class TestSupportHeldMeasurement:
    """Measurement noise reads the observable's support only.

    On a mode-diagonal state neither the ``2N x 2N`` covariance nor the dense
    attenuation matrix is built, and the results are those of the dense state.
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
    def test_mode_diagonal_state_matches_dense(self, monkeypatch, kind, dim, length, channel,
                                               mode):
        lat = Lattice(dim, length)
        if dim == 1:
            sea, _, _ = fermi_sea_1d(lat, 21)
        else:
            sea, _, _ = tight_binding_ground_state_2d(lat, 13)
        dense = GaussianState(lat, sea.gamma)
        state = ModeDiagonalState(sea.grid, sea.occupations)
        enc = EncodingWeightModel(kind, lat)
        observables = [QuadraticObservable.number(lat, 3), QuadraticObservable.hopping(lat, 0, 9),
                       QuadraticObservable.hopping(lat, 5, lat.n_sites - 2),
                       QuadraticObservable.momentum_occupation(lat, sea.grid.momenta[4])]
        expected = [(noisy_expectation(dense, obs, enc, channel, mode),
                     measurement_error(dense, obs, enc, channel, mode)) for obs in observables]

        def refuse(*args, **kwargs):
            raise AssertionError("dense covariance or attenuation matrix built")

        monkeypatch.setattr(ModeDiagonalState, "_build_gamma", refuse)
        monkeypatch.setattr(noise_module, "attenuation_matrix", refuse)
        for obs, (noisy, error) in zip(observables, expected):
            assert noisy_expectation(state, obs, enc, channel, mode) == \
                pytest.approx(noisy, abs=1e-12)
            assert measurement_error(state, obs, enc, channel, mode) == \
                pytest.approx(error, abs=1e-12)
        assert state._gamma is None


class TestMomentumErrorMap:
    def test_fast_path_matches_direct_contraction(self):
        lat = Lattice(1, 8)
        state, grid, _ = fermi_sea_1d(lat, 4)
        enc = EncodingWeightModel("jw1d", lat)
        ch = PauliChannel.depolarizing(0.1)
        errors = momentum_error_map(state, enc, ch, grid.momenta)
        lam = attenuation_matrix(enc, ch)
        for j, k in enumerate(grid.momenta):
            obs = QuadraticObservable.momentum_occupation(lat, k)
            manual = float(np.sum(obs.coefficients * (1.0 - lam) * state.gamma))
            assert errors[j] == pytest.approx(manual, abs=1e-14)

    def test_generic_path_matches_fast_path(self):
        # Same jw1d model through the composition fallback: with the uniform
        # mix entered as explicit alphas the two branches must agree.
        lat = Lattice(1, 6)
        state, grid, _ = fermi_sea_1d(lat, 3)
        enc = EncodingWeightModel("jw1d", lat)
        fast = momentum_error_map(
            state, enc, PauliChannel.depolarizing(0.2), grid.momenta)
        ch = PauliChannel(0.2, alphas=(1 / 3 + 1e-10, 1 / 3, 1 / 3 - 1e-10))
        assert not ch.is_depolarizing
        generic = momentum_error_map(state, enc, ch, grid.momenta)
        assert_close(generic, fast, 1e-8, "fast vs generic")

    def test_occupied_mode_errors_are_positive_losses(self):
        lat = Lattice(1, 10)
        state, grid, occ = fermi_sea_1d(lat, 5)
        enc = EncodingWeightModel("jw1d", lat)
        errors = momentum_error_map(state, enc, PauliChannel.depolarizing(0.1), grid.momenta)
        assert (errors[occ] > 0).all()

    def test_two_dimensional_map(self):
        lat = Lattice(2, 4)
        state, grid, _ = tight_binding_ground_state_2d(lat, 5)
        enc = EncodingWeightModel("local", lat, phi0=1)
        ch = PauliChannel.depolarizing(0.05)
        errors = momentum_error_map(state, enc, ch, grid.momenta)
        lam = attenuation_matrix(enc, ch)
        for j in (0, 7, 15):
            obs = QuadraticObservable.momentum_occupation(lat, grid.momenta[j])
            manual = float(np.sum(obs.coefficients * (1.0 - lam) * state.gamma))
            assert errors[j] == pytest.approx(manual, abs=1e-14)

    def test_momenta_shape_validated(self):
        lat = Lattice(1, 4)
        state = GaussianState.vacuum(lat)
        enc = EncodingWeightModel("jw1d", lat)
        ch = PauliChannel.depolarizing(0.1)
        with pytest.raises(ValueError, match="columns"):
            momentum_error_map(state, enc, ch, np.array([0.1, 0.2]))
        out = momentum_error_map(state, enc, ch, np.array([[0.1], [0.2]]))
        assert out.shape == (2,)


def per_momentum_error(state, enc, channel, k, mode):
    """``<n_k> - <n_k>_noisy`` contracted from the dense observable of one momentum."""
    obs = QuadraticObservable.momentum_occupation(state.lattice, k)
    lam = attenuation_matrix(enc, channel, mode)
    return float(np.sum(obs.coefficients * (1.0 - lam) * state.gamma))


class TestMomentumErrorMapReference:
    @pytest.mark.parametrize("kind,mode,alphas", [
        ("local", "exact", None),
        ("local", "worst-case", None),
        ("jw1d", "exact", None),
        ("jw1d", "worst-case", None),
        ("jw1d", "exact", (0.5, 0.2, 0.3)),
        ("bravyi_kitaev", "exact", None),
        ("bravyi_kitaev", "worst-case", None),
        ("bravyi_kitaev", "exact", (0.1, 0.3, 0.6)),
    ])
    def test_matches_the_per_momentum_contraction(self, rng, kind, mode, alphas):
        # A Haar-random pure state has pairing terms, so no flavor block of
        # the covariance is symmetric and every block of T matters.
        lat = Lattice(1, 8)
        state = random_pure_state(lat, rng)
        enc = EncodingWeightModel(kind, lat, phi0=1)
        ch = PauliChannel(0.2, alphas=alphas) if alphas else PauliChannel.depolarizing(0.2)
        momenta = np.concatenate([momentum_grid(lat, "even").momenta, [[0.3], [2.0]]])
        errors = momentum_error_map(state, enc, ch, momenta, mode)
        ref = [per_momentum_error(state, enc, ch, k, mode) for k in momenta]
        assert_close(errors, ref, 1e-12, f"{kind} {mode} {alphas}")

    def test_two_dimensional_snake_matches(self, rng):
        lat = Lattice(2, 4)
        state = random_pure_state(lat, rng)
        enc = EncodingWeightModel("jw2d_snake", lat)
        ch = PauliChannel(0.2, alphas=(0.2, 0.2, 0.6))
        momenta = momentum_grid(lat, "odd").momenta
        errors = momentum_error_map(state, enc, ch, momenta)
        ref = [per_momentum_error(state, enc, ch, k, "exact") for k in momenta]
        assert_close(errors, ref, 1e-12, "snake anisotropic")

    def test_weight_only_model_needs_worst_case_for_a_non_uniform_mix(self):
        lat = Lattice(1, 4)
        enc = EncodingWeightModel("local", lat)
        ch = PauliChannel(0.2, alphas=(0.5, 0.25, 0.25))
        with pytest.raises(ValueError, match="worst-case"):
            momentum_error_map(GaussianState.vacuum(lat), enc, ch, np.array([[0.0]]))


def _dense_twin(state):
    """The same covariance as a plain GaussianState, which takes the dense path."""
    return GaussianState(state.lattice, state.gamma, validate=False)


class TestSpectralErrorMap:
    # The spectral path against the dense flavor-block contraction on the
    # same covariance: 1D and 2D, both grid parities, momenta on the state's
    # grid, on the other parity's grid and off both, sharp and Lipschitz
    # fillings, local with phi0 in {0, 1, 2} and jw1d, exact and worst-case.
    @pytest.mark.parametrize("dim,length", [(1, 10), (2, 6)])
    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("filling", ["sharp", "lipschitz"])
    def test_matches_the_dense_contraction(self, rng, dim, length, parity, filling):
        lat = Lattice(dim, length)
        grid = momentum_grid(lat, parity)
        if filling == "sharp":
            occupations = (rng.uniform(size=lat.n_sites) < 0.4).astype(float)
        else:
            occupations = 0.5 * (1.0 + np.cos(grid.momenta[:, 0]))
        other = momentum_grid(lat, "even" if parity == "odd" else "odd").momenta
        momenta = np.concatenate([grid.momenta, other, rng.uniform(-4.0, 4.0, (6, dim))])
        encodings = [EncodingWeightModel("local", lat, phi0=phi0) for phi0 in (0, 1, 2)]
        if dim == 1:
            encodings.append(EncodingWeightModel("jw1d", lat))
        state = ModeDiagonalState(grid, occupations)
        channel = PauliChannel.depolarizing(0.13)
        spectral = {(enc.kind, enc.phi0, mode): momentum_error_map(state, enc, channel,
                                                                   momenta, mode)
                    for enc in encodings for mode in ("exact", "worst-case")}
        assert state._gamma is None, "the spectral path built the covariance"
        dense_state = _dense_twin(state)
        for enc in encodings:
            for mode in ("exact", "worst-case"):
                dense = momentum_error_map(dense_state, enc, channel, momenta, mode)
                assert_close(spectral[enc.kind, enc.phi0, mode], dense, 1e-12,
                             f"{enc.kind} phi0={enc.phi0} {mode}")

    @pytest.mark.parametrize("kind,dim,length,alphas", [
        ("jw2d_snake", 2, 4, None),
        ("bravyi_kitaev", 1, 8, None),
        ("bravyi_kitaev", 2, 4, None),
        ("jw1d", 1, 8, (0.5, 0.2, 0.3)),
    ])
    def test_other_encodings_and_mixes_take_the_dense_path(self, rng, kind, dim, length,
                                                            alphas):
        lat = Lattice(dim, length)
        grid = momentum_grid(lat, "odd")
        state = ModeDiagonalState(grid, rng.uniform(0.0, 1.0, size=lat.n_sites))
        enc = EncodingWeightModel(kind, lat)
        channel = PauliChannel(0.2, alphas=alphas) if alphas else PauliChannel.depolarizing(0.2)
        momenta = np.concatenate([grid.momenta, [[0.3] * dim]])
        errors = momentum_error_map(state, enc, channel, momenta)
        assert state._gamma is not None
        assert np.array_equal(errors, momentum_error_map(_dense_twin(state), enc, channel,
                                                         momenta))

    def test_matches_the_convolution_reference_beyond_dense_reach(self):
        # L = 200 in 2D is N = 40000: a dense covariance would take 51 GB.
        from test_acceptance import _direct_occupation_errors

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
        errors = momentum_error_map(state, enc, PauliChannel.depolarizing(p), probes_k)
        occ_m = np.rint(grid.m_vectors[occ]).astype(int)
        direct = _direct_occupation_errors(side, occ_m, p, phi0, probes_m)
        assert_close(errors, direct, 1e-12, "spectral vs convolution reference")
        assert state._gamma is None
