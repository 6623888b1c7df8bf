"""Moment triple of the fading channel: analytic, empirical, effective channel."""

import math

import numpy as np
import pytest

from beamfade.channel import (
    BeamGeometry,
    QuadratureError,
    max_transmission_coefficient,
    pdt_cdf,
    pdt_density,
    sample_transmittance,
    weibull_params,
)
from beamfade.fading import (
    FadingStats,
    analytic_moments,
    effective_channel,
    empirical_moments,
    fading_excess_noise,
)

from oracles import fading_moments

REF_GEOMETRY = BeamGeometry(1.0, 0.3)


def three_se(values):
    return 3.0 * float(np.std(values)) / math.sqrt(values.size)


class TestFadingStats:

    def test_rejects_identity_violation(self):
        with pytest.raises(ValueError):
            FadingStats(eta_mean=0.6, sqrt_eta_mean=0.7, var_sqrt_eta=0.2,
                        eta_max=0.9)

    def test_rejects_negative_variance(self):
        # <eta> < <sqrt(eta)>^2 is impossible for a true distribution
        with pytest.raises(ValueError):
            FadingStats(eta_mean=0.4, sqrt_eta_mean=0.7, var_sqrt_eta=-0.09,
                        eta_max=0.9)

    def test_rejects_misordered_moments(self):
        with pytest.raises(ValueError):
            FadingStats(eta_mean=0.95, sqrt_eta_mean=0.9, var_sqrt_eta=0.14,
                        eta_max=0.9)

    def test_tiny_negative_roundoff_clamped(self):
        stats = FadingStats(eta_mean=0.25, sqrt_eta_mean=0.5,
                            var_sqrt_eta=-1e-17, eta_max=0.25)
        assert stats.var_sqrt_eta == 0.0


class TestAnalyticMoments:

    def test_reference_point_frozen_approx(self):
        stats = analytic_moments(REF_GEOMETRY)
        assert stats.eta_mean == pytest.approx(0.6016475436755949, abs=1e-9)
        assert stats.sqrt_eta_mean == pytest.approx(0.7593609526605614, abs=1e-9)
        assert stats.var_sqrt_eta == pytest.approx(0.025018487250039634, abs=1e-9)
        assert stats.eta_max == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)

    def test_reference_point_frozen_exact(self):
        stats = analytic_moments(REF_GEOMETRY, model="exact")
        assert stats.eta_mean == pytest.approx(0.597109678470868, abs=1e-9)
        assert stats.sqrt_eta_mean == pytest.approx(0.7564122294773813, abs=1e-9)
        assert stats.var_sqrt_eta == pytest.approx(0.02495021756792548, abs=1e-9)

    def test_no_wandering_is_deterministic(self):
        stats = analytic_moments(BeamGeometry(1.0, 0.0))
        t0 = max_transmission_coefficient(1.0)
        assert stats.eta_mean == pytest.approx(t0 * t0, abs=1e-15)
        assert stats.sqrt_eta_mean == pytest.approx(t0, abs=1e-15)
        assert stats.var_sqrt_eta == 0.0
        assert stats.eta_max == pytest.approx(t0 * t0, abs=1e-15)

    @pytest.mark.parametrize("model", ["approx", "exact"])
    def test_monte_carlo_agreement(self, model):
        stats = analytic_moments(REF_GEOMETRY, model=model)
        eta = sample_transmittance(REF_GEOMETRY, seed=21, n=1_000_000,
                                   model=model)
        t = np.sqrt(eta)
        assert stats.eta_mean == pytest.approx(eta.mean(), abs=three_se(eta))
        assert stats.sqrt_eta_mean == pytest.approx(t.mean(), abs=three_se(t))
        dev2 = (t - t.mean()) ** 2
        assert stats.var_sqrt_eta == pytest.approx(t.var(), abs=three_se(dev2))

    @pytest.mark.parametrize("model", ["approx", "exact"])
    def test_grid_oracle_agreement(self, model):
        # adaptive quadrature in u = r^2/(2 sigma_b2) vs a plain trapezoid
        # grid in r with the closed-form Weibull law or the chi^2 CDF
        for aw in (0.5, 1.0, 2.0):
            for s2 in (0.1, 0.4):
                stats = analytic_moments(BeamGeometry(aw, s2), model=model)
                eta_mean, sqrt_eta_mean = fading_moments(aw, s2, model)
                assert stats.eta_mean == pytest.approx(eta_mean, abs=1e-7)
                assert stats.sqrt_eta_mean == pytest.approx(sqrt_eta_mean,
                                                            abs=1e-7)

    def test_eta_mean_increasing_in_ratio(self):
        grid = [0.5, 0.75, 1.0, 1.25, 1.5]
        means = [analytic_moments(BeamGeometry(aw, 0.3)).eta_mean for aw in grid]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_var_increasing_in_ratio(self):
        grid = np.arange(0.5, 1.5001, 0.05)
        var = [analytic_moments(BeamGeometry(float(aw), 0.3)).var_sqrt_eta
               for aw in grid]
        assert all(a < b for a, b in zip(var, var[1:]))

    def test_var_vanishes_with_wandering(self):
        var = [analytic_moments(BeamGeometry(1.0, s2)).var_sqrt_eta
               for s2 in (0.1, 0.01, 0.001, 0.0001)]
        assert all(a > b for a, b in zip(var, var[1:]))
        assert var[-1] < 1e-3

    def test_var_vanishes_for_small_aperture(self):
        # fluctuations die out when the beam dwarfs the aperture, since
        # sqrt(eta) <= t0 -> 0; in the opposite limit a/W -> inf they
        # saturate at the Bernoulli level p(1-p), they do not vanish
        var = [analytic_moments(BeamGeometry(aw, 0.3)).var_sqrt_eta
               for aw in (0.5, 0.25, 0.1, 0.05)]
        assert all(a > b for a, b in zip(var, var[1:]))
        assert var[-1] < 1e-6

    def test_jensen_and_support_chain(self):
        for aw in (0.5, 1.0, 1.5, 2.0):
            for s2 in (0.1, 0.3, 0.5):
                stats = analytic_moments(BeamGeometry(aw, s2))
                assert 0.0 <= stats.sqrt_eta_mean**2 <= stats.eta_mean
                assert stats.eta_mean <= stats.eta_max <= 1.0

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            analytic_moments(REF_GEOMETRY, model="weibull")

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_nan_kernel_names_ratio(self):
        # from a/W ~ 5e4 on the exact kernel is nan near the rim, and quad
        # then reports a nan error estimate
        with pytest.raises(QuadratureError, match="a_over_W"):
            analytic_moments(BeamGeometry(2e5, 0.3), model="exact")


class TestLargeApertureRatio:
    # a beam 50 times narrower than the aperture: t0 rounds to 1 and the
    # Weibull shape reaches lam ~ 115, a near step at the rim

    GEOMETRY = BeamGeometry(50.0, 0.3)

    def test_exact_sampler(self):
        eta = sample_transmittance(self.GEOMETRY, seed=8, n=100_000, model="exact")
        assert np.all((eta >= 0.0) & (eta <= 1.0))
        stats = analytic_moments(self.GEOMETRY, model="exact")
        assert stats.eta_mean == pytest.approx(eta.mean(), abs=three_se(eta))

    @pytest.mark.parametrize("model", ["approx", "exact"])
    def test_grid_oracle_agreement(self, model):
        stats = analytic_moments(self.GEOMETRY, model=model)
        eta_mean, sqrt_eta_mean = fading_moments(50.0, 0.3, model)
        assert stats.eta_mean == pytest.approx(eta_mean, abs=1e-7)
        assert stats.sqrt_eta_mean == pytest.approx(sqrt_eta_mean, abs=1e-7)

    def test_distribution_finite(self):
        params = weibull_params(50.0)
        assert params.lam == pytest.approx(114.9, abs=0.01)
        t = np.linspace(0.0, 1.0, 401)
        density = pdt_density(t, params, 0.3)
        cdf = pdt_cdf(t, params, 0.3)
        assert np.all(np.isfinite(density)) and np.all(density >= 0.0)
        assert np.all(np.isfinite(cdf)) and np.all(np.diff(cdf) >= 0.0)


class TestEmpiricalMoments:

    def test_constant_series(self):
        stats = empirical_moments([0.25, 0.25, 0.25])
        assert stats.eta_mean == 0.25
        assert stats.sqrt_eta_mean == 0.5
        assert stats.var_sqrt_eta == 0.0
        assert stats.eta_max == 0.25

    def test_two_point_series(self):
        stats = empirical_moments([0.0, 1.0])
        assert stats.eta_mean == 0.5
        assert stats.sqrt_eta_mean == 0.5
        assert stats.var_sqrt_eta == 0.25
        assert stats.eta_max == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_moments([])

    def test_error_names_offending_index(self):
        with pytest.raises(ValueError, match="sample 3"):
            empirical_moments([0.1, 0.2, 0.3, 1.5])
        with pytest.raises(ValueError, match="sample 0"):
            empirical_moments([-0.2, 0.5])

    def test_closed_loop_with_analytic(self):
        eta = sample_transmittance(REF_GEOMETRY, seed=8, n=1_000_000)
        emp = empirical_moments(eta)
        ana = analytic_moments(REF_GEOMETRY)
        t = np.sqrt(eta)
        assert emp.eta_mean == pytest.approx(ana.eta_mean, abs=three_se(eta))
        assert emp.sqrt_eta_mean == pytest.approx(ana.sqrt_eta_mean,
                                                  abs=three_se(t))

    def test_converges_at_statistical_rate(self):
        # plug-in error should drop roughly like 1/sqrt(n); a factor 3 on a
        # 100x sample growth leaves wide headroom over the expected 10x
        ana = analytic_moments(REF_GEOMETRY)

        def norm_err(n):
            emp = empirical_moments(sample_transmittance(REF_GEOMETRY,
                                                         seed=101, n=n))
            return math.hypot(emp.eta_mean - ana.eta_mean,
                              emp.sqrt_eta_mean - ana.sqrt_eta_mean)

        coarse, fine = norm_err(10_000), norm_err(1_000_000)
        assert fine < coarse / 3.0
        assert coarse > 0.0


class TestFadingExcessNoise:

    def test_vacuum_picks_up_nothing(self):
        stats = analytic_moments(REF_GEOMETRY)
        assert fading_excess_noise(stats, 1.0) == 0.0

    def test_stable_channel_is_noiseless(self):
        stats = FadingStats(eta_mean=0.25, sqrt_eta_mean=0.5, var_sqrt_eta=0.0,
                            eta_max=0.36)
        assert fading_excess_noise(stats, 25.0) == 0.0

    def test_scales_with_variance_above_shot_noise(self):
        stats = analytic_moments(REF_GEOMETRY)
        assert fading_excess_noise(stats, 7.0) == pytest.approx(
            stats.var_sqrt_eta * 6.0, rel=1e-12)

    def test_rejects_sub_vacuum_variance(self):
        with pytest.raises(ValueError):
            fading_excess_noise(analytic_moments(REF_GEOMETRY), 0.5)

    def test_rejects_non_finite_variance(self):
        with pytest.raises(ValueError, match=r"^v "):
            fading_excess_noise(analytic_moments(REF_GEOMETRY), math.nan)

    def test_monte_carlo_quadrature_mixing(self):
        # modulate an independent Gaussian quadrature by sqrt(eta): the
        # variance above the effective-channel signal part is the fading
        # excess noise
        v = 7.0
        n = 2_000_000
        eta = sample_transmittance(REF_GEOMETRY, seed=55, n=n)
        x = np.random.default_rng(56).normal(0.0, math.sqrt(v - 1.0), size=n)
        y = np.sqrt(eta) * x
        mc = y.var() - np.sqrt(eta).mean() ** 2 * (v - 1.0)
        analytic = fading_excess_noise(analytic_moments(REF_GEOMETRY), v)
        assert mc == pytest.approx(analytic, rel=2e-2)


class TestEffectiveChannel:

    def test_stable_noiseless_reduction(self):
        stats = FadingStats(eta_mean=0.25, sqrt_eta_mean=0.5, var_sqrt_eta=0.0,
                            eta_max=0.36)
        t_eff, eps_out = effective_channel(stats, 7.0, 0.0)
        assert t_eff == pytest.approx(0.25, abs=1e-15)
        assert eps_out == 0.0

    @pytest.mark.parametrize("v", [1.0, 2.0, 7.0, 20.0])
    @pytest.mark.parametrize("epsilon", [0.0, 0.01, 0.1])
    def test_output_variance_identity(self, v, epsilon):
        # 1 + T_eff (V-1) + eps_out must equal 1 + <eta>(V-1) + T_eff eps
        stats = analytic_moments(REF_GEOMETRY)
        t_eff, eps_out = effective_channel(stats, v, epsilon)
        lhs = 1.0 + t_eff * (v - 1.0) + eps_out
        rhs = 1.0 + stats.eta_mean * (v - 1.0) + t_eff * epsilon
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_bad_inputs(self):
        stats = analytic_moments(REF_GEOMETRY)
        with pytest.raises(ValueError):
            effective_channel(stats, 0.9, 0.01)
        with pytest.raises(ValueError):
            effective_channel(stats, 7.0, -0.01)

    @pytest.mark.parametrize("field, v, epsilon", [
        ("v", math.inf, 0.01),
        ("epsilon", 7.0, math.nan),
    ])
    def test_rejects_non_finite_inputs(self, field, v, epsilon):
        with pytest.raises(ValueError, match=rf"^{field} "):
            effective_channel(analytic_moments(REF_GEOMETRY), v, epsilon)
