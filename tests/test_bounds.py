"""Tests for the closed-form stability bounds and their special functions."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import ellipk

from conftest import full_width_polylog_direct, refuse_full_covariance
from fermion_noise import cli, special
from fermion_noise.bounds import (
    DecayParams,
    REGIME_LINEAR,
    REGIME_MARGINAL,
    REGIME_SUBLINEAR,
    REGIME_UNSTABLE,
    bound_S,
    bound_S1,
    bound_S2,
    c_dim,
    decay_regime,
    fermi2d_limit_error,
    fermi2d_on_surface_error,
    jump_scaling_probe,
    l1_ball_site_count,
    lipschitz_scaling_probe,
    noise_factor,
    on_surface_integral,
    on_surface_integral_bound,
    prop1_bound,
    prop3_bound,
    prop4_bound,

)
from fermion_noise.special import polylog, riemann_zeta


class TestRiemannZeta:
    def test_frozen_values(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)
        assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90, abs=1e-12)
        # mpmath, 30 digits: 2.61237534868548834334856756792
        assert riemann_zeta(1.5) == pytest.approx(2.612375348685488, abs=1e-12)
        # mpmath: 1.00000095396203387279611315204
        assert riemann_zeta(20.0) == pytest.approx(1.0000009539620339, abs=1e-13)

    def test_against_mpmath_on_a_grid(self):
        for s in (0.5, 0.9, 1.1, 1.3, 1.5, 2.0, 2.5, 3.7, 6.0, 10.0, 15.0):
            assert riemann_zeta(s) == pytest.approx(float(mpmath.zeta(s)), abs=1e-10)

    def test_domain(self):
        for _ in range(2):  # errors are not cached: every call raises
            with pytest.raises(ValueError, match="pole"):
                riemann_zeta(1.0)
            with pytest.raises(ValueError, match="below"):
                riemann_zeta(-16.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_order_raises(self, s):
        # A NaN order would keep the direct polylog sum's tail test false forever.
        for _ in range(2):
            with pytest.raises(ValueError, match="finite"):
                riemann_zeta(s)
            with pytest.raises(ValueError, match="finite"):
                polylog(s, 0.5)

    def test_analytic_continuation(self):
        # The near-one polylog expansion leans on zeta below 1.
        assert riemann_zeta(0.0) == pytest.approx(-0.5, abs=1e-10)
        assert riemann_zeta(-1.0) == pytest.approx(-1.0 / 12, abs=1e-10)
        assert riemann_zeta(-3.0) == pytest.approx(1.0 / 120, abs=1e-10)

    @pytest.mark.parametrize("s", [-0.5, -2.5, -4.5, -7.7, -9.7, -14.9])
    def test_reflection_below_zero_against_mpmath(self, s):
        # A direct sum cancels here: it was off by 117 at s = -7.7.
        assert riemann_zeta(s) == pytest.approx(float(mpmath.zeta(s)), abs=1e-12)

    @pytest.mark.parametrize("s", [-1e-10, -1e-6, -1e-3, -0.01, -0.0100001, -0.1])
    def test_just_below_zero_against_mpmath(self, s):
        # The reflection would lose eps / |s| to the pole of zeta(1 - s) here.
        assert riemann_zeta(s) == pytest.approx(float(mpmath.zeta(s)), abs=1e-12)


class TestPolylog:
    def test_frozen_values(self):
        # Li_2(1/2) = pi^2/12 - ln^2(2)/2.
        assert polylog(2.0, 0.5) == pytest.approx(0.5822405264650125, abs=1e-12)
        assert polylog(1.0, 0.3) == pytest.approx(-math.log1p(-0.3), abs=1e-14)
        assert polylog(3.0, 0.0) == 0.0
        assert polylog(2.5, 1.0) == pytest.approx(riemann_zeta(2.5), abs=1e-12)

    def test_against_mpmath_on_a_grid(self):
        s_grid = (1.2, 1.5, 2.0, 2.3, 3.0, 4.0)
        z_grid = (0.1, 0.5, 0.9, 0.99, 0.999999, 1.0 - 1e-9)
        for s, z in itertools.product(s_grid, z_grid):
            assert polylog(s, z) == pytest.approx(float(mpmath.polylog(s, z)), abs=1e-9), \
                f"Li_{s}({z})"

    @pytest.mark.parametrize("s", [1.3, 1.7, 2.0, 3.0])
    def test_direct_sum_against_mpmath_where_the_bounds_call_it(self, s):
        # The z values of the bound tables (r^k1 for p = 0.1, 0.01, 0.001) and
        # the closest approach to 1 that still sums directly.
        for z in (0.85, 0.985, 0.9985, 1.0 - 1e-5):
            assert polylog(s, z) == pytest.approx(float(mpmath.polylog(s, z)), abs=1e-13), \
                f"Li_{s}({z})"

    def test_near_one_approaches_zeta(self):
        assert polylog(2.0, 1.0 - 1e-8) == pytest.approx(riemann_zeta(2.0), abs=1e-6)
        assert polylog(3.0, 1.0 - 1e-10) == pytest.approx(riemann_zeta(3.0), abs=1e-8)

    def test_integer_snap_near_one(self):
        # s within 1e-8 of an integer takes the integer-order expansion.
        val = polylog(2.0 + 1e-9, 1.0 - 1e-7)
        assert val == pytest.approx(float(mpmath.polylog(2, mpmath.mpf(1) - mpmath.mpf(1e-7))),
                                    abs=1e-6)

    def test_domain_and_divergences(self):
        for _ in range(2):  # errors are not cached: every call raises
            with pytest.raises(ValueError, match="lie in"):
                polylog(2.0, -0.1)
            with pytest.raises(ValueError, match="lie in"):
                polylog(2.0, 1.5)
            with pytest.raises(ValueError, match="diverges"):
                polylog(1.0, 1.0)
            with pytest.raises(ValueError, match="diverges"):
                polylog(0.8, 1.0 - 1e-12)

    def test_near_one_domain_is_named_by_its_own_arguments(self):
        # The expansion near z = 1 reads zeta(s - 11); below s = -4 that
        # leaves zeta's range, and the error names s and z, not s - 11.
        for _ in range(2):
            with pytest.raises(ValueError, match="s >= -4") as err:
                polylog(-4.5, 1.0 - 1e-6)
            assert "-4.5" in str(err.value) and "-15.5" not in str(err.value)

    def test_near_one_at_the_edge_of_the_domain(self):
        z = 1.0 - 1e-6
        assert polylog(-3.5, z) == pytest.approx(float(mpmath.polylog(-3.5, z)), rel=1e-10)


class TestDirectSum:
    """The padded in-place direct sum against the full-width reference, bit for bit."""

    # The bound tables' z = r^k1 at p = 0.1, 0.01, 0.001, then w = -ln z of
    # 5, 1e-3 (a padded partial chunk of ~62000 terms) and 1.05e-5, just
    # above the switch to the near-one expansion, where the sums run over
    # several full chunks.
    @pytest.mark.parametrize("z", [0.85, 0.985, 0.9985, math.exp(-5.0), math.exp(-1e-3),
                                   math.exp(-1.05e-5)])
    def test_bit_identical_to_the_full_width_sum(self, z):
        for s in (-3.0, -0.5, 0.0, 0.5, 1.2999999999999998, 1.3, 2.0, 3.0, 6.0):
            assert special._polylog_direct(s, z) == full_width_polylog_direct(s, z), \
                f"Li_{s}({z})"


class TestMemo:
    def test_a_repeated_call_returns_the_same_float(self):
        for s, z in ((1.3, 0.985), (2.0, 0.5), (-0.5, 0.9985), (3.0, 1.0 - 1e-7)):
            assert polylog(s, z) == polylog(s, z)
        for s in (2.5, 0.5, -7.5):
            assert riemann_zeta(s) == riemann_zeta(s)

    def test_integer_and_float_orders_agree(self):
        polylog.cache_clear()
        assert polylog(2, 0.5) == polylog(2.0, 0.5)
        polylog.cache_clear()
        assert polylog(2.0, 0.5) == polylog(2, 0.5)

    def test_each_direct_sum_of_the_bounds_table_runs_once(self, tmp_path, monkeypatch):
        calls = []
        direct = special._polylog_direct

        def counted(s, z):
            calls.append((s, z))
            return direct(s, z)

        monkeypatch.setattr(special, "_polylog_direct", counted)
        polylog.cache_clear()
        riemann_zeta.cache_clear()
        assert cli.main(["bounds", "--out", str(tmp_path / "bounds.json")]) == 0
        assert len(calls) == len(set(calls)) == 18


class TestLatticeGeometry:
    def test_c_dim_values(self):
        assert c_dim(1) == pytest.approx(2.0)
        assert c_dim(2) == pytest.approx(12.0)
        assert c_dim(3) == pytest.approx(64.0)
        with pytest.raises(ValueError, match="positive integer"):
            c_dim(0)

    def test_l1_ball_counts(self):
        assert l1_ball_site_count(1, 0) == 1
        assert l1_ball_site_count(1, 3) == 7
        assert l1_ball_site_count(2, 0) == 1
        assert l1_ball_site_count(2, 1) == 5
        assert l1_ball_site_count(2, 2) == 13
        with pytest.raises(ValueError, match="nonnegative"):
            l1_ball_site_count(1, -1)
        with pytest.raises(ValueError, match="dim 1 and 2"):
            l1_ball_site_count(3, 1)

    def test_l1_ball_against_enumeration(self):
        span = np.arange(-8, 9)
        xx, yy = np.meshgrid(span, span)
        for radius in range(6):
            count = int(((np.abs(xx) + np.abs(yy)) <= radius).sum())
            assert l1_ball_site_count(2, radius) == count


class TestDecayParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="K"):
            DecayParams(K=0.0, mu=2.0, D=1, phi0=1)
        with pytest.raises(ValueError, match="mu"):
            DecayParams(K=1.0, mu=-1.0, D=1, phi0=1)
        with pytest.raises(ValueError, match="dimension"):
            DecayParams(K=1.0, mu=2.0, D=3, phi0=1)
        with pytest.raises(ValueError, match="phi0"):
            DecayParams(K=1.0, mu=2.0, D=1, phi0=-2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_k_and_mu_rejected(self, bad):
        with pytest.raises(ValueError, match="decay prefactor K must be finite"):
            DecayParams(K=bad, mu=2.0, D=1, phi0=1)
        with pytest.raises(ValueError, match="decay exponent mu must be finite"):
            DecayParams(K=1.0, mu=bad, D=1, phi0=1)

    def test_stability_flag(self):
        assert DecayParams(K=1.0, mu=1.5, D=1, phi0=1).stable
        assert not DecayParams(K=1.0, mu=1.0, D=1, phi0=1).stable
        assert not DecayParams(K=1.0, mu=2.0, D=2, phi0=0).stable

    def test_regime_labels(self):
        assert decay_regime(0.8, 1) == REGIME_UNSTABLE
        assert decay_regime(1.4, 1) == REGIME_SUBLINEAR
        assert decay_regime(2.0, 1) == REGIME_MARGINAL
        assert decay_regime(3.1, 1) == REGIME_LINEAR
        assert decay_regime(2.5, 2) == REGIME_SUBLINEAR


class TestNoiseFactor:
    def test_vanishes_without_noise(self):
        params = DecayParams(K=1.0, mu=3.0, D=1, phi0=2)
        assert noise_factor(params, 0.0) == 0.0

    def test_frozen_reference_value(self):
        # mpmath, 30 digits: 0.297123673612352477354558076986
        params = DecayParams(K=1.0, mu=3.0, D=1, phi0=2)
        assert noise_factor(params, 0.01) == pytest.approx(0.2971236736123525, abs=1e-12)

    def test_closed_form_identity(self):
        # f(p) = 3 p phi0 + 2 K C_D [zeta(s) - r^phi0 Li_s(r)], s = mu - D + 1.
        for params, p in [
            (DecayParams(K=0.7, mu=2.6, D=1, phi0=2), 0.05),
            (DecayParams(K=1.3, mu=3.5, D=2, phi0=1), 0.11),
            (DecayParams(K=2.0, mu=4.0, D=2, phi0=0), 0.3),
        ]:
            r = 1.0 - 1.5 * p
            s = params.mu - params.D + 1.0
            manual = 3.0 * p * params.phi0 + 2.0 * params.K * c_dim(params.D) * (
                riemann_zeta(s) - r**params.phi0 * polylog(s, r)
            )
            assert noise_factor(params, p) == pytest.approx(manual, abs=1e-12)

    def test_unstable_exponent_rejected(self):
        with pytest.raises(ValueError, match="diverges"):
            noise_factor(DecayParams(K=1.0, mu=1.0, D=1, phi0=1), 0.1)

    def test_noise_strength_domain(self):
        params = DecayParams(K=1.0, mu=3.0, D=1, phi0=1)
        with pytest.raises(ValueError, match="0, 2/3"):
            noise_factor(params, 0.8)

    def test_small_p_scaling_matches_regime(self):
        # log-log slope between p = 1e-5 and 1e-4.
        def slope(mu, dim):
            params = DecayParams(K=1.0, mu=mu, D=dim, phi0=1)
            lo, hi = noise_factor(params, 1e-5), noise_factor(params, 1e-4)
            return math.log(hi / lo) / math.log(10.0)

        assert slope(1.5, 1) == pytest.approx(0.5, abs=0.05)   # f ~ p^(mu-D)
        assert slope(1.7, 1) == pytest.approx(0.7, abs=0.05)
        assert slope(3.0, 1) == pytest.approx(1.0, abs=0.05)   # f ~ p
        assert 0.5 < slope(2.0, 1) <= 1.0                      # f ~ p log(1/p)

    def test_report_echoes_inputs(self):
        params = DecayParams(K=1.0, mu=2.5, D=1, phi0=1)
        report = prop1_bound(params, 0.02)
        assert report.value == pytest.approx(noise_factor(params, 0.02))
        assert report.regime == REGIME_LINEAR
        assert report.params == params and report.p == 0.02


def _near_region_sum(r, k1, k2, d0, dim):
    """Brute-force sum of 1 - r^(k1 d + k2) over the L1 ball of radius d0."""
    total = 0.0
    span = range(-d0, d0 + 1)
    sites = [(x,) for x in span] if dim == 1 else list(itertools.product(span, span))
    for site in sites:
        d = sum(abs(c) for c in site)
        if d <= d0:
            total += 1.0 - r ** (k1 * d + k2)
    return total


def _far_region_sum(r, k1, k2, d0, mu, dim, k_decay, cutoff):
    """Truncated far sum 1 - r^(k1 d + k2) times the decay envelope."""
    total = 0.0
    for d in range(d0 + 1, cutoff):
        count = 2 if dim == 1 else 4 * d
        total += count * (1.0 - r ** (k1 * d + k2)) * k_decay * (1.0 + d) ** (-mu)
    return total


class TestSplitBounds:
    def test_validation(self):
        with pytest.raises(ValueError, match="attenuation base"):
            bound_S1(1.2, 1.0, 1.0, 1, 1)
        with pytest.raises(ValueError, match="Bernoulli"):
            bound_S1(0.5, 0.25, 0.25, 1, 1)  # x_max = 0.5 in (0, 1)
        with pytest.raises(ValueError, match="mu > D"):
            bound_S2(0.5, 1.0, 1.0, 1, 0.9, 1, 1.0)
        with pytest.raises(ValueError, match="prefactor"):
            bound_S2(0.5, 1.0, 1.0, 1, 2.0, 1, 0.0)

    def test_no_attenuation_means_zero(self):
        assert bound_S(1.0, 1.0, 2.0, 3, 2.5, 1, 1.0) == 0.0
        assert bound_S2(1.0, 1.0, 2.0, 3, 2.5, 1, 1.0) == 0.0

    def test_near_bound_dominates_enumeration(self, rng):
        for _ in range(30):
            dim = int(rng.integers(1, 3))
            r = float(rng.uniform(0.0, 0.999))
            k1 = float(rng.choice([0.5, 1.0, 2.0]))
            d0 = int(rng.integers(0, 4))
            k2 = float(rng.integers(1, 3))  # keeps x_max >= 1
            brute = _near_region_sum(r, k1, k2, d0, dim)
            assert brute <= bound_S1(r, k1, k2, d0, dim) + 1e-12

    def test_far_bound_dominates_truncated_sum(self, rng):
        for _ in range(30):
            dim = int(rng.integers(1, 3))
            r = float(rng.uniform(0.0, 0.999))
            k1 = float(rng.choice([0.5, 1.0, 2.0]))
            d0 = int(rng.integers(0, 4))
            k2 = float(rng.integers(0, 3))
            mu = dim + float(rng.uniform(0.1, 3.0))
            k_decay = float(rng.uniform(0.1, 2.0))
            cutoff = 2000 if dim == 1 else 400
            brute = _far_region_sum(r, k1, k2, d0, mu, dim, k_decay, cutoff)
            assert brute <= bound_S2(r, k1, k2, d0, mu, dim, k_decay) + 1e-12

    def test_total_is_sum_of_parts(self):
        args = (0.7, 1.0, 2.0, 2, 2.4, 1, 0.8)
        r, k1, k2, d0, mu, dim, kd = args
        assert bound_S(*args) == pytest.approx(
            bound_S1(r, k1, k2, d0, dim) + bound_S2(*args), abs=1e-14)


class TestCircuitBounds:
    PARAMS = DecayParams(K=1.0, mu=3.0, D=1, phi0=2)

    def test_zero_depth_means_zero_error(self):
        assert prop3_bound(self.PARAMS, 0.01, 0).value == 0.0
        assert prop4_bound(self.PARAMS, 0.01, 0).value == 0.0

    def test_value_factorizes(self):
        rep = prop3_bound(self.PARAMS, 0.02, 3)
        assert rep.exponent == self.PARAMS.D + 2
        assert rep.value == pytest.approx(
            rep.constant * rep.f_value * 3.0**rep.exponent, abs=1e-12)
        assert rep.f_value == pytest.approx(noise_factor(self.PARAMS, 0.02))

    def test_depth_doubling_ratio(self):
        for dim in (1, 2):
            params = DecayParams(K=1.0, mu=dim + 2.0, D=dim, phi0=1)
            lo = prop3_bound(params, 0.01, 2).value
            hi = prop3_bound(params, 0.01, 4).value
            assert hi / lo == pytest.approx(2.0 ** (dim + 2), abs=1e-9)

    def test_counting_route_never_undercuts(self):
        for dim in (1, 2):
            for depth in (1, 2, 5):
                params = DecayParams(K=0.8, mu=dim + 1.5, D=dim, phi0=1)
                a = prop3_bound(params, 0.05, depth)
                b = prop4_bound(params, 0.05, depth)
                assert b.exponent == 2 * dim + 1
                assert b.value >= a.value

    def test_monotone_in_noise_strength(self):
        values = [prop3_bound(self.PARAMS, p, 2).value for p in (0.0, 0.01, 0.1, 0.3)]
        assert values[0] == 0.0
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_constant_without_on_site_weight(self, dim):
        # phi0 = 0 merges both slots: (a3 + b3) / (2 K C_D) at radius v = 1.
        K, mu, v = 1.3, dim + 2.0, 1
        cd = c_dim(dim)
        zeta_s = float(mpmath.zeta(mu - dim + 1.0))
        a3 = 2.0 * (2 * v * 3.0**dim * (2 * v) ** dim
                    + K * cd * (2 * v + 1) ** (dim - 1) * 2 * v * zeta_s)
        b3 = 2.0 * K * cd * (2 * v + 1) ** (dim - 1)
        rep = prop3_bound(DecayParams(K=K, mu=mu, D=dim, phi0=0), 0.01, 3)
        assert rep.constant == pytest.approx((a3 + b3) / (2.0 * K * cd), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="depth"):
            prop3_bound(self.PARAMS, 0.01, -1)
        with pytest.raises(ValueError, match="radius"):
            prop3_bound(self.PARAMS, 0.01, 2, radius=0)
        with pytest.raises(ValueError, match="diverges"):
            prop3_bound(DecayParams(K=1.0, mu=0.5, D=1, phi0=1), 0.01, 2)


class TestFermiSurfaceFormulas:
    def test_off_surface_closed_form(self):
        p, k_f, delta = 0.01, 0.8, 0.2
        lam = -math.log1p(-p)
        want = 0.5 * lam * k_f**2 / (lam**2 + delta**2) ** 1.5
        assert fermi2d_limit_error(p, k_f, delta) == pytest.approx(want, abs=1e-15)

    def test_off_surface_small_p_limit(self):
        # error / p -> k_F^2 / (2 delta^3) as p -> 0.
        k_f, delta = 0.5, 0.3
        ratio = fermi2d_limit_error(1e-8, k_f, delta) / 1e-8
        assert ratio == pytest.approx(k_f**2 / (2 * delta**3), rel=1e-4)

    def test_off_surface_validation(self):
        with pytest.raises(ValueError, match="on-surface"):
            fermi2d_limit_error(0.01, 1.0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            fermi2d_limit_error(0.01, -1.0, 0.1)
        with pytest.raises(ValueError, match="0, 1"):
            fermi2d_limit_error(1.0, 1.0, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_are_refused(self, bad):
        with pytest.raises(ValueError, match="Fermi momentum"):
            fermi2d_limit_error(0.01, bad, 0.1)
        with pytest.raises(ValueError, match="delta"):
            fermi2d_limit_error(0.01, 1.0, bad)
        with pytest.raises(ValueError, match="Fermi momentum"):
            fermi2d_on_surface_error(0.01, bad)

    def test_on_surface_error_approaches_one_half(self):
        assert fermi2d_on_surface_error(1e-6, math.pi / 4) == pytest.approx(0.5, abs=0.02)
        errors = [fermi2d_on_surface_error(p, math.pi / 4) for p in (1e-6, 1e-2, 0.3)]
        assert errors[0] > errors[1] > errors[2]
        assert fermi2d_on_surface_error(0.0, 1.0) == 0.5

    def test_on_surface_integral_against_elliptic(self):
        # (lam/pi) int dtheta / sqrt(lam^2 + 4k^2 sin^2) = (lam/pi) K(m) / sqrt(lam^2 + 4k^2)
        for p, k_f in [(0.01, 0.5), (0.2, 1.2), (0.4, 0.3)]:
            lam = -math.log1p(-p)
            m = 4 * k_f**2 / (lam**2 + 4 * k_f**2)
            want = lam / math.pi * ellipk(m) / math.sqrt(lam**2 + 4 * k_f**2)
            assert on_surface_integral(p, k_f) == pytest.approx(want, rel=1e-8)

    def test_noiseless_on_surface_integral_bound_is_zero(self):
        assert on_surface_integral_bound(0.0, 1.0) == 0.0

    def test_on_surface_integral_bound_dominates(self):
        for p in (1e-4, 1e-2, 0.1, 0.5):
            for k_f in (0.2, math.pi / 4, 2.0):
                assert on_surface_integral(p, k_f) <= \
                    on_surface_integral_bound(p, k_f) + 1e-12


class TestScalingProbes:
    def test_jump_probe_grows_with_size_at_the_step(self):
        # Linear-in-N growth needs the unsaturated regime p N << 1.
        rows = jump_scaling_probe([100, 200], p=1e-3, k_offset=0.0)
        assert [n for n, _ in rows] == [100, 200]
        assert rows[1][1] > 1.5 * rows[0][1]

    def test_jump_probe_saturates_away_from_the_step(self):
        rows = jump_scaling_probe([100, 200], p=1e-3, k_offset=math.pi / 2)
        assert rows[1][1] <= 1.2 * rows[0][1]

    def test_jump_probe_validation(self):
        with pytest.raises(ValueError, match="empty"):
            jump_scaling_probe([], p=0.05, k_offset=0.0)
        with pytest.raises(ValueError, match="even"):
            jump_scaling_probe([101], p=0.05, k_offset=0.0)

    def test_lipschitz_probe_slope(self):
        rows, slope = lipschitz_scaling_probe(np.geomspace(1e-3, 1e-1, 5))
        assert len(rows) == 5
        assert slope >= 0.5

    def test_probes_build_no_covariance(self, monkeypatch):
        # The probes take the spectral error map, so sizes far beyond a dense
        # 2N x 2N covariance are in reach.
        refuse_full_covariance(monkeypatch)
        rows = jump_scaling_probe([100, 100_000], p=1e-7, k_offset=0.0)
        assert 800 <= rows[1][1] / rows[0][1] <= 1200
        rows = jump_scaling_probe([100, 100_000], p=1e-7, k_offset=math.pi / 2)
        assert rows[1][1] <= 1.2 * rows[0][1]
        _, slope = lipschitz_scaling_probe([1e-3, 1e-2], length=20_000)
        assert slope >= 0.5

    def test_lipschitz_probe_validation(self):
        with pytest.raises(ValueError, match="empty"):
            lipschitz_scaling_probe([])
        with pytest.raises(ValueError, match="even"):
            lipschitz_scaling_probe([0.01], length=75)
        with pytest.raises(ValueError, match="0, 2/3"):
            lipschitz_scaling_probe([0.0])
