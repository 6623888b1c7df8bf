"""Moment triple of the fading channel: analytic, empirical, effective channel."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import beamfade.fading
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
    _empirical,
    _moments,
    analytic_moments,
    effective_channel,
    empirical_moments,
    fading_excess_noise,
)

from oracles import (
    eta_rice_quadrature, exact_eta_mean, fading_moments, mean_fraction, weibull_moments_mp)

REF_GEOMETRY = BeamGeometry(1.0, 0.3)
# error bound of `oracles.fading_moments`: its trapezoid rule is off by the
# end term h^2/12 f'(0) <= 92 / (12 * 40000^2) = 4.8e-9, whatever sigma_b2
ORACLE_TRAPEZOID_TOL = 5e-9


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["eta_mean", "sqrt_eta_mean", "var_sqrt_eta",
                                       "eta_max"])
    def test_non_finite_field_named(self, field, bad):
        fields = dict(eta_mean=0.3, sqrt_eta_mean=0.5, var_sqrt_eta=0.05, eta_max=1.0)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FadingStats(**{**fields, field: bad})

    @pytest.mark.parametrize("bad", [1e200, 1.2, np.float64(1e200)])
    def test_sqrt_mean_above_one_named(self, bad):
        # bounded before it is squared, so neither <eta> is blamed nor the
        # square overflows
        with pytest.raises(ValueError, match="^sqrt_eta_mean "):
            FadingStats(eta_mean=0.3, sqrt_eta_mean=bad, var_sqrt_eta=0.05, eta_max=1.0)

    def test_sqrt_mean_within_tolerance_accepted(self):
        # the checks on <eta> and eta_max admit <sqrt(eta)> up to 1 + 1e-9
        stats = FadingStats(eta_mean=1.0 + 2e-9, sqrt_eta_mean=1.0 + 1e-9,
                            var_sqrt_eta=0.0, eta_max=1.0 + 1e-9)
        assert stats.sqrt_eta_mean == 1.0 + 1e-9

    def test_tiny_negative_roundoff_clamped(self):
        stats = FadingStats(eta_mean=0.25, sqrt_eta_mean=0.5,
                            var_sqrt_eta=-1e-17, eta_max=0.25)
        assert stats.var_sqrt_eta == 0.0

    @pytest.mark.parametrize("eta_mean, var", [
        (0.3, 0.05 - 9e-10), (0.3, 0.05 + 9e-10), (0.25 + 1e-12, 1e-30), (0.25, 5e-10)])
    def test_variance_within_band_stored_as_given(self, eta_mean, var):
        # <eta> - <sqrt(eta)>^2 checks the variance to 1e-9 but does not replace it
        stats = FadingStats(eta_mean=eta_mean, sqrt_eta_mean=0.5, var_sqrt_eta=var,
                            eta_max=1.0)
        assert stats.var_sqrt_eta == var


class TestAnalyticMoments:

    def test_rule_is_numpys_gauss_legendre(self):
        # the literal rule, mapped to [0, 1], is leggauss(12)'s bit for bit
        x, w = np.polynomial.legendre.leggauss(12)
        assert beamfade.fading._GL_X.tobytes() == (0.5 * (x + 1.0)).tobytes()
        assert beamfade.fading._GL_W.tobytes() == (0.5 * w).tobytes()

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

    @pytest.mark.parametrize("model", ["approx", "exact"])
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(aw=st.floats(min_value=0.05, max_value=50.0),
           s2=st.one_of(st.floats(min_value=0.0, max_value=2.0),
                        st.floats(min_value=1e-14, max_value=1e-5)))
    # quadrature rounding once put <eta> an ulp above <sqrt(eta)>^2 and eta_max here
    @example(aw=4.435948788750447, s2=1e-10)
    @example(aw=1.0, s2=1e-12)
    @example(aw=4.435948788750447, s2=1e-6)
    def test_jensen_and_support_exactly(self, model, aw, s2):
        stats = analytic_moments(BeamGeometry(aw, s2), model=model)
        assert stats.sqrt_eta_mean**2 <= stats.eta_mean <= stats.eta_max

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            analytic_moments(REF_GEOMETRY, model="weibull")

    @pytest.mark.parametrize("model", ["approx", "exact"])
    def test_rule_oracle_agreement_over_range(self, model):
        # the fixed rule against a plain trapezoid grid in r, from a beam far
        # wider than the aperture to a near step at the rim, and from weak
        # to strong wandering
        for s2 in (1e-4, 1e-2, 0.3, 2.0):
            grid = np.geomspace(0.05, 50.0, 6)
            got = zip(grid, *_moments(grid, s2, model))
            for aw, got_mean, got_sqrt_mean, _, _ in got:
                eta_mean, sqrt_eta_mean = fading_moments(aw, s2, model)
                assert got_mean == pytest.approx(
                    eta_mean, abs=ORACLE_TRAPEZOID_TOL)
                assert got_sqrt_mean == pytest.approx(
                    sqrt_eta_mean, abs=ORACLE_TRAPEZOID_TOL)

    def test_weibull_moments_match_mp_oracle(self):
        # the five rows of ROADMAP finding (A) included: there <eta> -
        # <sqrt(eta)>^2 was off the oracle's Var(sqrt(eta)) by up to 5.5e19
        aws = np.array([0.01, 0.0197, 0.3, 1.0, 3.0])
        for s2 in (1e-6, 1e-3, 0.3, 1.0):
            got = zip(aws.tolist(), *_moments(aws, s2, "approx"))
            for aw, eta_mean, sqrt_eta_mean, var, _ in got:
                p = weibull_params(aw)
                want = weibull_moments_mp(p.t0, p.lam, p.scale, s2)
                assert sqrt_eta_mean == pytest.approx(want[0], rel=1e-14, abs=0.0)
                assert eta_mean == pytest.approx(want[1], rel=1e-14, abs=0.0)
                assert var == pytest.approx(want[2], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("model", ["approx", "exact"])
    def test_twice_the_window_panels_move_no_mean(self, monkeypatch, model):
        # the rule's window is resolved: its truncation error lies below
        # rounding, which moves a mean by at most 4 ulps (5.4e-16) here
        aws = np.geomspace(0.01, 3e4, 29)
        for s2 in np.geomspace(1e-12, 1e3, 31).tolist():
            got = _moments(aws, s2, model)[:2]
            with monkeypatch.context() as m:
                m.setattr(beamfade.fading, "_WINDOW_PANELS", 2 * beamfade.fading._WINDOW_PANELS)
                finer = _moments(aws, s2, model)[:2]
            for x, y in zip(got, finer):
                assert np.all(np.abs(x - y) <= 6e-16 * y)

    @pytest.mark.parametrize("s2", [0.3, 2.0])
    def test_exact_tails_of_a_narrow_beam(self, s2):
        # at a/W in the hundreds the exact transmittance has Gaussian tails
        # of width ~ 1/(a/W) on both sides of the rim, which the rule's
        # refined window must hold; ending it at s* + 6/p put 1e-7 of
        # <sqrt(eta)> into the wide panels at a/W = 200
        grid = np.array([100.0, 200.0, 500.0])
        got = zip(grid, *_moments(grid, s2, "exact"))
        for aw, got_mean, got_sqrt_mean, _, _ in got:
            eta_mean, sqrt_eta_mean = fading_moments(aw, s2, "exact")
            assert got_mean == pytest.approx(
                eta_mean, abs=ORACLE_TRAPEZOID_TOL)
            assert got_sqrt_mean == pytest.approx(
                sqrt_eta_mean, abs=ORACLE_TRAPEZOID_TOL)

    @pytest.mark.parametrize("model", ["approx", "exact"])
    @pytest.mark.parametrize("s2", [0.0, 1e-12, 0.3, 2.0])
    def test_sweep_call_is_per_geometry_call(self, model, s2):
        # a sweep block is one array program; each row must still be the
        # moment triple of its own geometry, bit for bit
        grid = np.concatenate([np.linspace(0.3, 3.0, 31), [0.05, 50.0]])
        per_geometry = [analytic_moments(BeamGeometry(aw, s2), model=model)
                        for aw in grid]
        rows = zip(*(x.tolist() for x in _moments(grid, s2, model)))
        assert [FadingStats(*row) for row in rows] == per_geometry

    @pytest.mark.parametrize("model", ["approx", "exact"])
    @pytest.mark.parametrize("aw", [0.3, 1.0, 3.0])
    def test_wide_wandering_limit(self, model, aw):
        # for sigma_b2 >> 1 the offset density is flat, 1/(2 pi sigma_b2), where
        # eta > 0, so <eta> -> (integral of eta over the offset plane) /
        # (2 pi sigma_b2); that integral is the aperture area pi for the exact
        # model and pi t0^2 scale^2 Gamma(1 + 2/lam) for the Weibull form;
        # the next order is O(1/sigma_b2)
        s2 = 1e9
        if model == "exact":
            area = math.pi
        else:
            p = weibull_params(aw)
            area = math.pi * p.t0**2 * p.scale**2 * math.gamma(1.0 + 2.0 / p.lam)
        stats = analytic_moments(BeamGeometry(aw, s2), model=model)
        assert stats.eta_mean == pytest.approx(area / (2.0 * math.pi * s2),
                                               rel=1e-6)

    def test_rim_below_rule_range(self):
        # at sigma_b2 = 1e300 the rim sits at u = 5e-301, below the whole rule
        # range, so the mass below u = 1e-14 must not be given T = t0; the
        # true moments are about 1/(2 sigma_b2)
        stats = analytic_moments(BeamGeometry(1.0, 1e300))
        assert stats.sqrt_eta_mean <= 1e-299

    def test_exact_rim_below_rule_range(self):
        # the same for the exact kernel, which is 0 at the rule's nodes there
        stats = analytic_moments(BeamGeometry(1.0, 1e300), model="exact")
        assert stats.sqrt_eta_mean <= 1e-299

    @pytest.mark.parametrize("sigma_b2", [0.3, 2.0])
    def test_hard_aperture_limit(self, sigma_b2):
        # a beam far narrower than the aperture passes whole inside the rim
        # and not at all beyond it, so <eta> = <sqrt(eta)> = P(r <= 1)
        stats = analytic_moments(BeamGeometry(1e150, sigma_b2))
        want = -math.expm1(-0.5 / sigma_b2)
        assert stats.eta_mean == pytest.approx(want, rel=1e-12)
        assert stats.sqrt_eta_mean == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("sigma_b2", [0.3, 2.0])
    def test_exact_hard_aperture_limit(self, sigma_b2):
        # the same for the exact kernel, whose reach beyond the rim must not
        # round onto the rim at this k
        stats = analytic_moments(BeamGeometry(1e150, sigma_b2), model="exact")
        want = -math.expm1(-0.5 / sigma_b2)
        assert stats.eta_mean == pytest.approx(want, rel=1e-12)
        assert stats.sqrt_eta_mean == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("model", ["approx", "exact"])
    def test_ratio_beyond_float_square_names_ratio(self, model):
        # (a/W)^2 overflows to inf from about 1.3e154
        with pytest.raises(QuadratureError, match="a_over_W=1e"):
            analytic_moments(BeamGeometry(1e300, 0.3), model=model)

    def test_exact_mean_closed_form(self):
        # over the rule's validated range; measured within 8e-16
        aws = np.geomspace(0.01, 300.0, 9)
        for sigma_b2 in np.geomspace(1e-12, 1e3, 8).tolist():
            got = _moments(aws, sigma_b2, "exact")[0].tolist()
            want = [exact_eta_mean(aw, sigma_b2) for aw in aws.tolist()]
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_large_ratio_matches_oracle(self):
        # a beam 4e5 times narrower than the aperture: <sqrt(eta)> is the mass
        # of the offset density inside the rim, P(r <= 1), plus the integral
        # of density * (sqrt(eta) - [r <= 1]) over the 40 beam widths around
        # the rim, with eta from the Rice-density quadrature
        aw, s2 = 2e5, 0.3
        stats = analytic_moments(BeamGeometry(aw, s2), model="exact")
        width = 1.0 / (2.0 * aw)

        def excess(r):
            return (r / s2 * math.exp(-r * r / (2.0 * s2))
                    * (math.sqrt(eta_rice_quadrature(r, aw)) - (r <= 1.0)))

        band = sum(quad(excess, a, b, epsabs=1e-16, limit=200)[0]
                   for a, b in ((1.0 - 40.0 * width, 1.0), (1.0, 1.0 + 40.0 * width)))
        assert stats.sqrt_eta_mean == pytest.approx(
            -math.expm1(-0.5 / s2) + band, rel=1e-12)
        assert stats.eta_mean == pytest.approx(exact_eta_mean(aw, s2), rel=1e-14)

    def test_sweep_names_first_ratio_beyond_kernel(self):
        # 4 (a/W)^2 overflows for 1e160 and 1e155; the error names the first
        with pytest.raises(QuadratureError, match=r"a_over_W=1e\+160:"):
            _moments(np.array([1.0, 1e160, 1e155]), 0.3, "exact")

    @pytest.mark.parametrize("aws", [[1e155], [1e155, 1e160]])
    def test_rim_check_spares_the_nodes(self, monkeypatch, aws):
        # the Weibull rim matching, which places the rule's window, checks
        # every a/W before the exact kernel evaluates the 1008 nodes
        seen = []

        def counting_kernel(r, a_over_W):
            seen.append(np.size(r))
            return exact_kernel(r, a_over_W)

        exact_kernel = beamfade.fading._eta_exact
        monkeypatch.setattr(beamfade.fading, "_eta_exact", counting_kernel)
        with pytest.raises(QuadratureError, match=r"a_over_W=1e\+155:"):
            _moments(np.array(aws), 0.3, "exact")
        assert seen == []

    def test_sweep_names_first_degenerate_matching(self):
        # the matching runs over the whole sweep; both 1e-300 and 1e300 leave
        # its float range, and the error names the first of them
        with pytest.raises(QuadratureError, match=r"a_over_W=1e-300:"):
            _moments(np.array([1.0, 1e-300, 1e300]), 0.3, "approx")


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

    @pytest.mark.parametrize("values", [
        [0.0], [0.0, 0.0, -0.0], [1.0] * 9, [0.0, 1.0, 1.0],
        [5e-324, 1e-310, 2.2250738585072014e-308, 2.225073858507201e-308],
        [1e-300, 0.75, 1e-300, 0.1, 0.3, 5e-324, 1.0, 1e-300],
        [1.0 - 2.0**-53, 1.0, 1.0 - 2.0**-52, 0.1] * 250,
        # the pairwise sum of np.mean is an ulp off the correctly rounded mean
        # of both moments here
        (np.random.default_rng(11).random(20_000) ** 8).tolist(),
    ], ids=["zero", "zeros", "ones", "zero-one", "subnormals", "tiny-and-unit",
            "near-one", "skewed"])
    def test_means_correctly_rounded(self, values):
        stats = empirical_moments(values)
        assert stats.eta_mean == mean_fraction(values)
        assert stats.sqrt_eta_mean == mean_fraction(np.sqrt(values).tolist())
        assert stats.eta_max == max(values) and math.copysign(1.0, stats.eta_max) == 1.0

    def test_means_exact_in_every_binade(self):
        # the mean of 2**-k (1 + j 2**-52), j = 1, 3, 5, is 2**-k (1 + 3 2**-52)
        # only if the lowest bits are summed exactly, in each binade k
        for k in range(1, 1075):
            values = np.ldexp(1.0 + np.array([1.0, 3.0, 5.0]) * 2.0**-52, -k).tolist()
            assert empirical_moments(values).eta_mean == mean_fraction(values), k

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(values=st.lists(st.one_of(
               st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 2.2250738585072014e-308]),
               st.floats(min_value=0.0, max_value=1.0)), min_size=1, max_size=60),
           cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=8))
    def test_pieces_change_nothing(self, values, cuts):
        # the reducer that stats folds over the parsed pieces, empty ones
        # included, gives the one-piece result, exactly
        eta = np.array(values)
        n, stats = _empirical(np.split(eta, sorted(cuts)))
        assert (n, stats) == (eta.size, empirical_moments(values))
        assert stats.eta_mean == mean_fraction(values)
        assert stats.sqrt_eta_mean == mean_fraction(np.sqrt(eta).tolist())

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
