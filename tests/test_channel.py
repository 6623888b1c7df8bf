"""Clipping integral, Weibull approximation, transmittance distribution, sampler."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from beamfade.channel import (
    BeamGeometry,
    QuadratureError,
    WeibullParams,
    eta_approx,
    exact_eta_at_offset,
    max_transmission_coefficient,
    pdt_cdf,
    pdt_density,
    sample_transmittance,
    weibull_params,
)

from oracles import eta_disc_2d, eta_of_offset, weibull_closed_form

AW_GRID = [0.5, 1.0, 1.5, 2.0]


class TestMaxTransmissionCoefficient:

    def test_anchor_at_one(self):
        assert max_transmission_coefficient(1.0) == pytest.approx(
            math.sqrt(1.0 - math.exp(-2.0)), abs=1e-12)

    def test_wide_aperture_limit(self):
        assert max_transmission_coefficient(10.0) == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_aperture_limit(self):
        assert max_transmission_coefficient(1e-6) < 2e-6

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_ratio(self, bad):
        with pytest.raises(ValueError):
            max_transmission_coefficient(bad)


class TestExactEta:

    @pytest.mark.parametrize("aw", AW_GRID)
    def test_centered_beam_closed_form(self, aw):
        assert exact_eta_at_offset(0.0, aw) == pytest.approx(
            -math.expm1(-2.0 * aw * aw), abs=1e-10)

    def test_rim_value_frozen(self):
        # regression anchor, also checked against the disc oracle below
        assert exact_eta_at_offset(1.0, 1.0) == pytest.approx(
            0.3964990393880067, abs=1e-11)

    def test_far_offset_vanishes(self):
        assert exact_eta_at_offset(8.0, 1.0) < 1e-12

    def test_disc_integration_oracle(self):
        # closed form vs brute-force 2-D integration over the aperture,
        # at the rim point and at 10 random (offset, ratio) pairs
        rng = np.random.default_rng(20260819)
        pairs = [(1.0, 1.0)]
        pairs += [(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.3, 2.5)))
                  for _ in range(10)]
        for r, aw in pairs:
            lib = exact_eta_at_offset(r, aw)
            ref = eta_disc_2d(r, aw)
            assert lib == pytest.approx(ref, rel=1e-6), (r, aw)
        # narrow and wide beams, the library called once per ratio on an
        # array of offsets; the disc grid resolves a narrow beam out to
        # r = 1.1 only, so wider offsets are checked up to a/W = 3
        for aw, r_max in ((0.2, 2.5), (3.0, 2.5), (5.0, 1.1), (10.0, 1.1)):
            offsets = np.linspace(0.0, r_max, 12)
            lib = exact_eta_at_offset(offsets, aw)
            for r, got in zip(offsets, lib):
                ref = eta_disc_2d(float(r), aw)
                if ref >= 1e-12:
                    assert got == pytest.approx(ref, rel=1e-6), (r, aw)
                else:
                    assert got == pytest.approx(ref, abs=1e-12), (r, aw)

    def test_array_matches_scalar_calls(self):
        offsets = np.linspace(0.0, 3.0, 30).reshape(3, 10)
        for aw in (0.3, 1.0, 4.0):
            vals = exact_eta_at_offset(offsets, aw)
            assert vals.shape == offsets.shape
            scalars = [exact_eta_at_offset(float(r), aw) for r in offsets.flat]
            assert all(isinstance(x, float) for x in scalars)
            assert np.array_equal(vals.ravel(), scalars)

    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    def test_array_with_one_bad_offset_rejected(self, bad):
        offsets = np.linspace(0.0, 2.0, 9)
        offsets[4] = bad
        with pytest.raises(ValueError, match="offset r"):
            exact_eta_at_offset(offsets, 1.0)

    def test_noncentral_chi2_oracle(self):
        # the oracle's ncx2.cdf calls the same scipy routine as the library,
        # so this pins the parametrisation (k = 4 (a/W)^2), not the routine;
        # the disc integral above is the independent check
        for aw in (0.2, 0.5, 1.0, 3.0, 10.0):
            for r in (0.0, 0.3, 1.0, 2.5):
                assert exact_eta_at_offset(r, aw) == pytest.approx(
                    float(eta_of_offset(r, aw, "exact")), abs=1e-12), (r, aw)

    @pytest.mark.parametrize("aw", AW_GRID)
    def test_decreasing_in_offset(self, aw):
        vals = [exact_eta_at_offset(r, aw) for r in np.linspace(0.0, 2.5, 26)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("r", [0.0, 0.5, 0.9, 1.0])
    def test_increasing_in_ratio(self, r):
        # holds for beam centers up to the rim; beyond it a shrinking beam
        # eventually misses the aperture, e.g. eta(1.5, .) peaks near aw 0.6
        vals = [exact_eta_at_offset(r, aw) for aw in np.linspace(0.3, 3.0, 28)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            exact_eta_at_offset(-0.1, 1.0)
        with pytest.raises(ValueError):
            exact_eta_at_offset(0.5, 0.0)
        with pytest.raises(ValueError):
            exact_eta_at_offset(math.nan, 1.0)


OFFSETS = st.floats(min_value=0.0, max_value=6.0)
RATIOS = st.floats(min_value=1e-3, max_value=50.0)
PROPERTY_SETTINGS = settings(max_examples=300, derandomize=True, deadline=None)


class TestExactEtaProperties:

    @PROPERTY_SETTINGS
    @given(r=OFFSETS, aw=RATIOS)
    def test_bounded_by_centered_peak(self, r, aw):
        # chndtr and expm1 may round the centered value apart by an ulp
        t0_sq = max_transmission_coefficient(aw) ** 2
        assert 0.0 <= exact_eta_at_offset(r, aw) <= t0_sq * (1.0 + 1e-15)

    @PROPERTY_SETTINGS
    @given(r1=OFFSETS, r2=OFFSETS, aw=RATIOS)
    def test_non_increasing_in_offset(self, r1, r2, aw):
        near, far = sorted((r1, r2))
        assert exact_eta_at_offset(far, aw) <= exact_eta_at_offset(near, aw)

    @PROPERTY_SETTINGS
    @given(r=st.floats(min_value=0.0, max_value=1.0), aw1=RATIOS, aw2=RATIOS)
    def test_non_decreasing_in_ratio_inside_rim(self, r, aw1, aw2):
        small, large = sorted((aw1, aw2))
        assert exact_eta_at_offset(r, large) >= exact_eta_at_offset(r, small)

    @PROPERTY_SETTINGS
    @given(aw=st.floats(min_value=1e-4, max_value=1e-2))
    @example(aw=1e-3)
    def test_wide_beam_shape_is_gaussian(self, aw):
        # a beam much wider than the aperture clips like exp(-(r/scale)^2);
        # the rim value (1 - i0e(k)) / 2 cancels here and would give ~3
        assert weibull_params(aw).lam == pytest.approx(2.0, abs=1e-6)


class TestWeibullParams:

    @pytest.mark.parametrize("aw", AW_GRID)
    def test_value_matched_at_rim(self, aw):
        params = weibull_params(aw)
        assert float(eta_approx(1.0, params)) == pytest.approx(
            exact_eta_at_offset(1.0, aw), abs=1e-9)

    @pytest.mark.parametrize("aw", AW_GRID)
    def test_log_derivative_matched_at_rim(self, aw):
        params = weibull_params(aw)
        # model side: d/dr ln eta_approx = -lam r^(lam-1) / scale^lam
        model = -params.lam / params.scale**params.lam
        # exact side by central finite difference of ln eta
        h = 1e-5
        hi = math.log(exact_eta_at_offset(1.0 + h, aw))
        lo = math.log(exact_eta_at_offset(1.0 - h, aw))
        assert model == pytest.approx((hi - lo) / (2.0 * h), abs=1e-6)

    def test_vasylyev_closed_form(self):
        # rim matching (chi^2 CDF value, Bessel slope) vs the closed-form
        # lam and R of Vasylyev, Semenov & Vogel (2012)
        for aw in np.arange(0.3, 5.0001, 0.1):
            params = weibull_params(float(aw))
            t0_sq, lam, scale = weibull_closed_form(float(aw))
            assert params.t0**2 == pytest.approx(t0_sq, rel=1e-12)
            assert params.lam == pytest.approx(lam, rel=1e-12)
            assert params.scale == pytest.approx(scale, rel=1e-12)

    @pytest.mark.parametrize("aw", AW_GRID)
    def test_t0_consistent_with_geometry(self, aw):
        params = weibull_params(aw)
        assert params.t0**2 == pytest.approx(-math.expm1(-2.0 * aw * aw), abs=1e-12)

    def test_global_relative_error_band(self):
        # the approximation is only pinned at r = 1; the tail error at
        # a/W = 1 reaches ~22%, frozen here as a <= 25% band over [0, 2]
        params = weibull_params(1.0)
        worst = 0.0
        for r in np.linspace(0.0, 2.0, 81):
            exact = exact_eta_at_offset(float(r), 1.0)
            worst = max(worst, abs(float(eta_approx(r, params)) - exact) / exact)
        assert worst <= 0.25

    @pytest.mark.parametrize("cast", [float, np.float64])
    @pytest.mark.parametrize("aw", [3e-8, 1.0115794542599003e-09])
    def test_degenerate_matching_raises(self, aw, cast):
        # G ~ 2 (a/W)^2 has lost its digits here (lam = 1.80 at 3e-8), and
        # at 1.0115794542599003e-09 G**(-1/lam) overflows
        with pytest.raises(QuadratureError, match="a_over_W"):
            weibull_params(cast(aw))

    def test_rejects_invalid_fields(self):
        with pytest.raises(ValueError):
            WeibullParams(t0=1.2, lam=2.0, scale=1.0)
        with pytest.raises(ValueError):
            WeibullParams(t0=0.9, lam=-1.0, scale=1.0)
        with pytest.raises(ValueError):
            WeibullParams(t0=0.9, lam=2.0, scale=0.0)
        with pytest.raises(ValueError):
            WeibullParams(t0=1.0, lam=math.nan, scale=math.nan)
        with pytest.raises(ValueError):
            WeibullParams(t0=0.9, lam=math.inf, scale=1.0)


class TestEtaApprox:

    def test_peak_at_zero_offset(self):
        params = weibull_params(1.0)
        assert float(eta_approx(0.0, params)) == pytest.approx(params.t0**2, abs=1e-15)

    def test_bounded_on_offsets(self):
        params = weibull_params(1.5)
        vals = eta_approx(np.linspace(0.0, 5.0, 101), params)
        assert np.all(vals >= 0.0) and np.all(vals <= params.t0**2)

    def test_vanishes_beyond_rim_at_large_ratio(self):
        # lam ~ 1.15e5 at a/W = 5e4, so (r/scale)**lam overflows at r = 2
        params = weibull_params(5e4)
        assert eta_approx(np.array([0.5, 2.0]), params).tolist() == [params.t0**2, 0.0]


class TestPdtDensity:

    @pytest.mark.parametrize("aw", AW_GRID)
    @pytest.mark.parametrize("s2", [0.1, 0.3, 0.5])
    def test_normalizes(self, aw, s2):
        # integrate p(T) dT along T = t0 exp(-(r/scale)^lam / 2): the
        # T-domain integrand is singular at both ends (its support reaches
        # ~1e-100 at strong wandering) while this path is smooth; the
        # jacobian is computed here, so the library density is still the
        # function under test
        params = weibull_params(aw)
        lam, t0, scale = params.lam, params.t0, params.scale

        def along_offset(r):
            exponent = -0.5 * (r / scale) ** lam
            if exponent < -700.0:
                return 0.0
            t = t0 * math.exp(exponent)
            jac = t * 0.5 * lam * r ** (lam - 1.0) / scale**lam
            return pdt_density(t, params, s2) * jac

        # the offset density is Rayleigh; its mass beyond r = 40 is < 1e-300
        total, err = quad(along_offset, 0.0, 40.0, limit=400, points=[scale])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_zero_outside_support(self):
        params = weibull_params(1.0)
        assert pdt_density(params.t0 * 1.01, params, 0.3) == 0.0
        assert pdt_density(params.t0, params, 0.3) == 0.0
        assert pdt_density(0.0, params, 0.3) == 0.0
        assert pdt_density(-0.2, params, 0.3) == 0.0

    def test_non_negative_inside(self):
        params = weibull_params(1.0)
        t = np.linspace(1e-6, params.t0 - 1e-9, 300)
        assert np.all(pdt_density(t, params, 0.3) >= 0.0)

    def test_rejects_bad_variance(self):
        params = weibull_params(1.0)
        with pytest.raises(ValueError):
            pdt_density(0.5, params, 0.0)
        with pytest.raises(ValueError):
            pdt_density(0.5, params, -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_variance(self, bad):
        with pytest.raises(ValueError, match="sigma_b2"):
            pdt_density(0.5, weibull_params(1.0), bad)

    def test_moments_match_sampler(self):
        # density route vs Monte-Carlo route for <T> and <T^2>
        params = weibull_params(1.0)
        s2 = 0.3
        m1, _ = quad(lambda t: t * pdt_density(t, params, s2), 0.0, params.t0,
                     limit=200)
        m2, _ = quad(lambda t: t * t * pdt_density(t, params, s2), 0.0,
                     params.t0, limit=200)
        eta = sample_transmittance(BeamGeometry(1.0, s2), seed=4, n=1_000_000)
        t = np.sqrt(eta)
        n = t.size
        assert m1 == pytest.approx(t.mean(), abs=3.0 * t.std() / math.sqrt(n))
        assert m2 == pytest.approx(eta.mean(), abs=3.0 * eta.std() / math.sqrt(n))


class TestPdtCdf:

    def test_limits_and_monotone(self):
        params = weibull_params(1.0)
        assert pdt_cdf(0.0, params, 0.3) == 0.0
        assert pdt_cdf(params.t0, params, 0.3) == 1.0
        assert pdt_cdf(1.0, params, 0.3) == 1.0
        vals = pdt_cdf(np.linspace(1e-4, params.t0, 200), params, 0.3)
        assert np.all(np.diff(vals) >= 0.0)

    @pytest.mark.parametrize("t_stop", [0.3, 0.6, 0.9])
    def test_matches_integrated_density(self, t_stop):
        params = weibull_params(1.0)
        total, _ = quad(pdt_density, 0.0, t_stop, args=(params, 0.3), limit=200)
        assert pdt_cdf(t_stop, params, 0.3) == pytest.approx(total, abs=1e-8)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            pdt_cdf(0.5, weibull_params(1.0), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_variance(self, bad):
        with pytest.raises(ValueError, match="sigma_b2"):
            pdt_cdf(0.5, weibull_params(1.0), bad)


class TestSampler:

    def test_deterministic_for_seed(self):
        geom = BeamGeometry(1.0, 0.3)
        a = sample_transmittance(geom, seed=11, n=2000)
        b = sample_transmittance(geom, seed=11, n=2000)
        assert np.array_equal(a, b)
        c = sample_transmittance(geom, seed=12, n=2000)
        assert not np.array_equal(a, c)

    def test_no_wandering_is_constant(self):
        geom = BeamGeometry(1.0, 0.0)
        eta = sample_transmittance(geom, seed=3, n=100)
        t0 = max_transmission_coefficient(1.0)
        assert np.allclose(eta, t0 * t0, atol=1e-15)

    def test_range(self):
        eta = sample_transmittance(BeamGeometry(0.7, 0.5), seed=5, n=50_000)
        assert np.all(eta >= 0.0) and np.all(eta <= 1.0)

    def test_exact_model_agrees_with_quadrature(self):
        # pointwise: sampled offsets pushed through the exact model must
        # reproduce the scalar transmittance
        geom = BeamGeometry(1.3, 0.4)
        eta = sample_transmittance(geom, seed=9, n=40, model="exact")
        rng = np.random.default_rng(9)
        sigma = math.sqrt(geom.sigma_b2)
        r = np.hypot(rng.normal(0, sigma, 40), rng.normal(0, sigma, 40))
        for ri, ei in zip(r, eta):
            assert ei == pytest.approx(exact_eta_at_offset(float(ri), 1.3),
                                       abs=1e-10)

    def test_rejects_bad_arguments(self):
        geom = BeamGeometry(1.0, 0.3)
        with pytest.raises(ValueError):
            sample_transmittance(geom, seed=1, n=0)
        with pytest.raises(ValueError):
            sample_transmittance(geom, seed=1, n=10, model="other")


class TestRatioBeyondKernel:
    # from a/W ~ 5e4 on, chndtr is nan in a band of offsets around r = 1;
    # by 1.5e5 the rim value itself is nan

    @pytest.mark.parametrize("aw", [2e5, 1e6])
    def test_weibull_params_raise(self, aw):
        with pytest.raises(ArithmeticError, match="a_over_W"):
            weibull_params(aw)

    @pytest.mark.parametrize("aw", [2e5, 1e6])
    def test_exact_eta_at_rim_raises(self, aw):
        with pytest.raises(ArithmeticError, match="a_over_W"):
            exact_eta_at_offset(1.0, aw)
        with pytest.raises(ArithmeticError, match="a_over_W"):
            exact_eta_at_offset(np.array([0.5, 1.0, 2.0]), aw)

    @pytest.mark.parametrize("model", ["approx", "exact"])
    @pytest.mark.parametrize("aw", [2e5, 1e6])
    def test_sampler_raises(self, aw, model):
        # 200000 offsets with sigma_b2 = 1 put some samples in the nan band
        with pytest.raises(ArithmeticError, match="a_over_W"):
            sample_transmittance(BeamGeometry(aw, 1.0), seed=1, n=200_000, model=model)


class TestBeamGeometry:

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            BeamGeometry(0.0, 0.3)
        with pytest.raises(ValueError):
            BeamGeometry(1.0, -0.1)
        with pytest.raises(ValueError):
            BeamGeometry(math.inf, 0.3)
