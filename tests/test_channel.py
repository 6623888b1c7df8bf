"""Clipping integral, Weibull approximation, transmittance distribution, sampler."""

import math
import re
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import chndtr, i0e, i1e

import beamfade.channel
from beamfade.channel import (
    BeamGeometry,
    QuadratureError,
    WeibullParams,
    _eta_exact,
    _rim,
    _sample_blocks,
    _weibull,
    eta_approx,
    exact_eta_at_offset,
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
from beamfade.gaussian import CovMat2, apply_fading_channel, entropy_g, tmsv
from beamfade.ingest import Histogram, TransmittanceSeries, histogram, parse_series
from beamfade.keyrate import (
    ProtocolParams,
    holevo_bound,
    key_rate,
    mutual_information,
    optimize_modulation,
)

from oracles import (
    eta_disc_2d,
    eta_of_offset,
    eta_rice_quadrature,
    sample_whole,
    weibull_closed_form,
)

AW_GRID = [0.5, 1.0, 1.5, 2.0]

# the two transmittance kernels over offsets, each called as eta(r, a_over_W)
ETA_KERNELS = [
    pytest.param(exact_eta_at_offset, id="exact"),
    pytest.param(lambda r, aw: eta_approx(r, weibull_params(aw)), id="approx"),
]


class TestMaxTransmissionCoefficient:

    def test_anchor_at_one(self):
        assert max_transmission_coefficient(1.0) == pytest.approx(
            math.sqrt(1.0 - math.exp(-2.0)), abs=1e-12)

    def test_wide_aperture_limit(self):
        assert max_transmission_coefficient(10.0) == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_aperture_limit(self):
        assert max_transmission_coefficient(1e-6) < 2e-6

    def test_square_beyond_float_range(self):
        # (a/W)^2 overflows from about 1.3e154; the centered beam passes whole
        assert max_transmission_coefficient(1e300) == 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_ratio(self, bad):
        with pytest.raises(ValueError):
            max_transmission_coefficient(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_ratio(self, bad):
        with pytest.raises(ValueError, match="^a_over_W "):
            max_transmission_coefficient(bad)

    def test_elementwise_over_arrays(self):
        # a float for a scalar, and each entry of an array its own scalar call
        aws = np.array([[1e-6, 0.5, 1.0], [2.0, 1e155, 1e300]])
        got = max_transmission_coefficient(aws)
        assert got.shape == aws.shape
        assert got.tolist() == [[max_transmission_coefficient(a) for a in row]
                                for row in aws.tolist()]
        assert type(max_transmission_coefficient(np.float64(1.0))) is float

    def test_array_names_first_bad_ratio(self):
        with pytest.raises(ValueError, match=r"^a_over_W .* got -1\.0$"):
            max_transmission_coefficient(np.array([1.0, -1.0, math.nan]))


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

    @pytest.mark.parametrize("r, aw", [(1e10, 1.0), (1e300, 0.5), (2.0, 1e3)])
    def test_far_beyond_rim_is_zero(self, r, aw):
        # eta is below 1e-300 there
        assert exact_eta_at_offset(r, aw) == 0.0

    def test_huge_ratio_names_ratio(self):
        with pytest.raises(ArithmeticError, match="a_over_W=1e"):
            exact_eta_at_offset(0.5, 1e300)

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

    @pytest.mark.parametrize("eta", ETA_KERNELS)
    def test_array_matches_scalar_calls(self, eta):
        offsets = np.linspace(0.0, 3.0, 30).reshape(3, 10)
        for aw in (0.3, 1.0, 4.0):
            vals = eta(offsets, aw)
            assert vals.shape == offsets.shape
            scalars = [eta(float(r), aw) for r in offsets.flat]
            assert all(isinstance(x, float) for x in scalars)
            assert np.array_equal(vals.ravel(), scalars)

    @pytest.mark.parametrize("eta", ETA_KERNELS)
    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 3)])
    def test_empty_offsets(self, eta, shape):
        out = eta(np.zeros(shape), 1.0)
        assert isinstance(out, np.ndarray) and out.shape == shape

    def test_one_table_per_distinct_ratio(self, monkeypatch):
        # twelve offsets, each with its own a/W out of three, all served by
        # the series (k r < 40)
        r = np.random.default_rng(7).uniform(0.0, 2.0, 12)
        aws = np.tile([0.5, 1.0, 2.0], 4)
        tables = []
        series = beamfade.channel._eta_series

        def counting_series(r, k, row):
            tables.append(k.size)
            return series(r, k, row)

        monkeypatch.setattr(beamfade.channel, "_eta_series", counting_series)
        got = exact_eta_at_offset(r, aws)
        assert tables == [3]
        assert got.tolist() == [exact_eta_at_offset(float(ri), float(aw))
                                for ri, aw in zip(r, aws)]

    def test_ratio_per_entry_in_bounded_memory(self):
        # an a/W that varies along the last axis gives the series one row
        # per entry, whose coefficient tables go in blocks of rows
        aws = np.linspace(1.0, 2.0, 20000)
        tracemalloc.start()
        try:
            got = exact_eta_at_offset(np.ones_like(aws), aws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert got[::997].tolist() == [exact_eta_at_offset(1.0, aw) for aw in aws[::997]]

    @pytest.mark.parametrize("eta", ETA_KERNELS)
    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    def test_array_with_one_bad_offset_rejected(self, bad, eta):
        offsets = np.linspace(0.0, 2.0, 9)
        offsets[4] = bad
        with pytest.raises(ValueError, match="offset r"):
            eta(offsets, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_ratio(self, bad):
        with pytest.raises(ValueError, match="^a_over_W "):
            exact_eta_at_offset(0.5, bad)

    def test_noncentral_chi2_oracle(self):
        # the oracle's ncx2.cdf sums scipy's chndtr, the library its own series
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

    def test_ratios_as_a_list(self):
        # any array_like of ratios, as max_transmission_coefficient takes
        got = exact_eta_at_offset(0.5, [1.0, 2.0])
        assert got.tolist() == [exact_eta_at_offset(0.5, 1.0), exact_eta_at_offset(0.5, 2.0)]
        assert exact_eta_at_offset([[0.5], [1.0]], [1.0, 2.0]).shape == (2, 2)
        with pytest.raises(ValueError, match=r"^a_over_W .* got -1\.0$"):
            exact_eta_at_offset(0.5, [1.0, -1.0])

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
        assert weibull_params(aw).lam == pytest.approx(2.0, abs=1e-12)


def on_grid(x, bits):
    """x rounded to `bits` significant bits: the products and squares that the
    kernels form of two such numbers are exact, so that every route is given
    the same arguments and the transmittance's own conditioning (k r |r - 1|
    ulps beyond the rim) does not enter the comparison."""
    mantissa, exponent = math.frexp(x)
    return math.ldexp(round(mantissa * 2**bits), exponent - bits)


@st.composite
def kernel_arguments(draw):
    """(r, a/W): a/W log-uniform in [1e-3, 1e3], r in [0, 1 + sqrt(300/k)]."""
    aw = on_grid(math.exp(draw(st.floats(math.log(1e-3), math.log(1e3)))), 11)
    k = 4.0 * aw * aw
    # offsets below 1e-6 of the reach would leave k r^2 subnormal
    u = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
    return on_grid(u * (1.0 + math.sqrt(300.0 / k)), 12), aw


class TestExactKernelOracles:
    # the library sums the Poisson-mixture series, or Hankel's expansion for
    # large k r; every oracle takes another route

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(args=kernel_arguments())
    @example(args=(1.0, 1.0))
    @example(args=(1.0869140625, 67.6875))
    def test_matches_rice_quadrature(self, args):
        # the quadrature is within 2.5e-14 of 50-digit mpmath (measured)
        r, aw = args
        assert exact_eta_at_offset(r, aw) == pytest.approx(
            eta_rice_quadrature(r, aw), rel=1e-13, abs=0.0)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(args=kernel_arguments())
    @example(args=(5.09375, 1.87548828125))
    def test_matches_chndtr(self, args):
        # chndtr itself is off 50-digit mpmath by up to 2e-13 below a/W = 10
        # and 5.8e-12 up to 1e3 on these arguments (measured), where the
        # library is within 5e-15; it is 0 in the far tail
        r, aw = args
        k = 4.0 * aw * aw
        want = float(chndtr(k, 2.0, k * r * r))
        if want > 1e-250:
            assert exact_eta_at_offset(r, aw) == pytest.approx(
                want, rel=1e-12 if aw <= 10.0 else 1e-11, abs=0.0)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(aw=st.floats(1e-3, 3.0), r=st.floats(0.0, 2.5))
    def test_matches_disc_integral(self, aw, r):
        # the disc grid resolves beams up to a/W = 3 (see above)
        assert exact_eta_at_offset(r, aw) == pytest.approx(eta_disc_2d(r, aw), abs=1e-10)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(aw=st.floats(1e-3, 1e3), u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=50))
    def test_non_increasing_in_offset(self, aw, u):
        # one call on sorted offsets, across the series, its complement and
        # Hankel's expansion
        k = 4.0 * aw * aw
        r = np.sort(np.array(u)) * (1.0 + math.sqrt(1500.0 / k))
        assert np.all(np.diff(exact_eta_at_offset(r, aw)) <= 0.0)


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
    @pytest.mark.parametrize("aw", [3e-8, 1.0115794542599003e-09, 1e-77])
    def test_narrow_aperture_limit(self, aw, cast):
        # a beam far wider than the aperture clips as exp(-2 (a/W)^2 r^2), so
        # lam -> 2 and scale -> (2 (a/W)^2)^(-1/2), up to O((a/W)^2)
        params = weibull_params(cast(aw))
        assert params.lam == pytest.approx(2.0, abs=1e-12)
        assert params.scale == pytest.approx((2.0 * aw * aw) ** -0.5, rel=1e-12)

    @pytest.mark.parametrize("cast", [float, np.float64])
    @pytest.mark.parametrize("aw", [1e-81, 1e-170, 1e-300])
    def test_degenerate_matching_raises(self, aw, cast):
        # the rim gap t0^2 - eta(1) ~ 4 (a/W)^4 is subnormal at 1e-81, where
        # the scale would be 10% off, and k = 4 (a/W)^2 is 0 from about 1e-162
        with pytest.raises(QuadratureError, match="a_over_W"):
            weibull_params(cast(aw))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(log_k=st.floats(min_value=math.log(1e-14), max_value=math.log(1e6)))
    @example(log_k=math.log(12.0))
    @example(log_k=math.log(21.999999))
    @example(log_k=math.log(22.0))
    @example(log_k=math.log(22.000001))
    def test_rim_against_scipy(self, log_k):
        # both sides of the switch from the power series to Hankel's at k = 22
        k = math.exp(log_k)
        eta1, slope, _ = _rim(k)
        assert eta1 == pytest.approx(float(chndtr(k, 2.0, k)), rel=3e-14, abs=0.0)
        assert slope == pytest.approx(k * float(i1e(k)), rel=3e-15, abs=0.0)

    def test_matching_keeps_the_shape_of_a_over_w(self):
        # the kernel runs over a whole array, entry by entry as weibull_params
        aws = np.array([[1e-77, 1e-3, 0.5, 1.0], [2.3, 2.345207879911715, 50.0, 1e150]])
        t0, lam, scale = _weibull(aws)
        assert t0.shape == lam.shape == scale.shape == aws.shape
        for i, aw in np.ndenumerate(aws):
            params = weibull_params(float(aw))
            assert (t0[i], lam[i], scale[i]) == (params.t0, params.lam, params.scale)

    def test_matching_names_first_degenerate_ratio(self):
        with pytest.raises(QuadratureError, match=r"a_over_W=1e-300:"):
            _weibull(np.array([[1.0, 2.0], [1e-300, 1e300]]))

    @pytest.mark.parametrize("k", [math.nextafter(22.0, 0.0), 21.999999, 22.0])
    def test_one_more_rim_term_changes_nothing(self, k, monkeypatch):
        # both series are summed to a fixed term count; at the switch, where
        # each converges slowest, a further term must not move a bit
        want = [float(x) for x in _rim(k)]
        monkeypatch.setattr(beamfade.channel, "_RIM_TERMS",
                            beamfade.channel._RIM_TERMS + 1)
        assert [float(x) for x in _rim(k)] == want

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
        for aw in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^a_over_W "):
                weibull_params(aw)


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
        # the same edges as one array, -0.0 and a subnormal included, without
        # a RuntimeWarning; the subnormal is inside the support, where the
        # density is 1.12e-174, although its CDF factor underflows to 0
        t = np.array([-0.2, -0.0, 0.0, 5e-324, params.t0, 1.0, 2.0])
        got = pdt_density(t, params, 0.3).tolist()
        assert got[:3] + got[4:] == [0.0] * 6
        assert got[3] == pytest.approx(1.12124189e-174, rel=1e-8)

    @pytest.mark.parametrize("t, want", [(4.5e-197, 2.35055609e-127), (1e-200, 6.76379190e-129)])
    def test_underflowing_cdf_factor(self, t, want):
        # exp(-r^2 / (2 sigma_b2)) is subnormal or 0 here, while the density,
        # summed in logs one factor at a time, is a normal float
        params, s2 = weibull_params(1.0), 0.3
        u = 2.0 * (math.log(params.t0) - math.log(t))
        r = params.scale * u ** (1.0 / params.lam)
        assert math.exp(-r * r / (2.0 * s2)) < np.finfo(float).tiny
        ln_density = (math.log(r / s2) - r * r / (2.0 * s2)
                      + math.log(2.0 * r / (params.lam * u)) - math.log(t))
        got = pdt_density(t, params, s2)
        assert got == pytest.approx(math.exp(ln_density), rel=1e-12)
        assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("aw", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("s2", [1e-3, 0.3, 10.0, 1e300])
    def test_product_kept_where_cdf_factor_is_normal(self, aw, s2):
        # where the CDF factor is a normal float, the density is the product
        # of its factors, as computed before the summed-log form was added
        params = weibull_params(aw)
        t = np.concatenate([np.geomspace(1e-320, params.t0, 4000, endpoint=False),
                            params.t0 * (1.0 - np.geomspace(1e-15, 1e-1, 400))])
        u, r, cdf = beamfade.channel._offset_cdf(t, params.t0, params.lam, params.scale, s2)
        normal = cdf >= np.finfo(float).tiny
        with np.errstate(over="ignore"):
            product = (r / s2) * cdf * (2.0 * r / (params.lam * u)) / t
        got = pdt_density(t, params, s2)
        finite = normal & np.isfinite(product) & (product > 0.0)
        assert finite.sum() > 100
        np.testing.assert_allclose(got[finite], product[finite], rtol=1e-13, atol=0.0)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_coefficient(self, bad):
        with pytest.raises(ValueError, match=rf"^t .*got {bad}$"):
            pdt_density(np.array([0.5, bad, math.nan]), weibull_params(1.0), 0.3)

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
        t = np.array([-0.2, -0.0, 0.0, 5e-324, params.t0, 1.0, 2.0])
        assert pdt_cdf(t, params, 0.3).tolist() == [0.0] * 4 + [1.0] * 3
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_coefficient(self, bad):
        with pytest.raises(ValueError, match=rf"^t .*got {bad}$"):
            pdt_cdf(np.array([0.5, bad, math.nan]), weibull_params(1.0), 0.3)

    @pytest.mark.parametrize("aw, s2", [(1.0, 1e300), (3.0, 0.3)])
    def test_subnormal_coefficient(self, aw, s2):
        # t0/t overflows below the normal floats; the reference takes
        # u = 2 (ln t0 - ln t) and the density in logs, one t at a time
        params = weibull_params(aw)
        t = np.array([5e-324, 1e-310, 2.2e-308, 1e-300, 1e-10])
        cdf, density = pdt_cdf(t, params, s2), pdt_density(t, params, s2)
        assert np.all(np.diff(cdf) >= 0.0)
        for x, c, d in zip(t.tolist(), cdf, density):
            u = 2.0 * (math.log(params.t0) - math.log(x))
            ln_r = math.log(params.scale) + math.log(u) / params.lam
            half_r2_s2 = math.exp(2.0 * ln_r) / (2.0 * s2)
            assert c == pytest.approx(math.exp(-half_r2_s2), rel=1e-12)
            ln_density = (2.0 * ln_r - math.log(s2) - half_r2_s2
                          + math.log(2.0 / (params.lam * u)) - math.log(x))
            if ln_density < math.log(np.finfo(float).max):
                assert d == pytest.approx(math.exp(ln_density), rel=1e-12)
            else:  # at a/W 3 the density at 5e-324 is 1e314
                assert d == math.inf


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, 3.0, True])
    def test_rejects_non_finite_count(self, bad):
        with pytest.raises(ValueError, match="^n "):
            sample_transmittance(BeamGeometry(1.0, 0.3), seed=1, n=bad)

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 2.0, np.float64(2.0), True])
    def test_rejects_negative_seed(self, seed):
        with pytest.raises(ValueError, match="^seed "):
            sample_transmittance(BeamGeometry(1.0, 0.3), seed=seed, n=3)

    @pytest.mark.parametrize("model", ["approx", "exact"])
    @pytest.mark.parametrize("seed", [1, 7, 20260819])
    # the sampler draws blocks of 65536 offsets and maps pieces of 8192
    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 65535, 65536, 65537, 200001])
    def test_blocks_join_into_whole_draw(self, n, seed, model):
        geom = BeamGeometry(1.3, 0.4)
        got = sample_transmittance(geom, seed=seed, n=n, model=model)
        assert got.tobytes() == sample_whole(geom, seed, n, model).tobytes()

    @pytest.mark.parametrize("model", ["approx", "exact"])
    def test_pieces_in_draw_order(self, model):
        # a block of 65536 offsets, then one of 8193, each mapped in pieces
        geom, n = BeamGeometry(1.3, 0.4), 65536 + 8193
        pieces = list(_sample_blocks(geom, 7, n, model))
        assert max(p.size for p in pieces) <= 8192
        want = np.split(sample_whole(geom, 7, n, model), np.cumsum([p.size for p in pieces]))
        assert [p.tobytes() for p in pieces] == [w.tobytes() for w in want[:-1]]
        assert want[-1].size == 0

    @pytest.mark.parametrize("geom, seed, n, model, error", [
        (BeamGeometry(1.0, 0.3), 1, 0, "approx", ValueError),
        (BeamGeometry(1.0, 0.3), -1, 3, "approx", ValueError),
        (BeamGeometry(1.0, 0.3), 1, 3, "other", ValueError),
        (BeamGeometry(1e155, 0.3), 1, 3, "approx", QuadratureError),
        (BeamGeometry(1e155, 0.3), 1, 3, "exact", QuadratureError),
    ])
    def test_blocks_checked_before_first_block(self, geom, seed, n, model, error):
        # the block generator is returned only once every check has passed
        with pytest.raises(error):
            _sample_blocks(geom, seed, n, model)


class TestRatioBeyondKernel:
    # the exact kernel and the Weibull matching both hold up to where
    # 4 (a/W)^2 overflows, about 6.7e153, and raise by name beyond

    @pytest.mark.parametrize("aw", [2e5, 1e6])
    def test_weibull_params_match_closed_form(self, aw):
        params = weibull_params(aw)
        t0_sq, lam, scale = weibull_closed_form(aw)
        assert params.t0**2 == pytest.approx(t0_sq, rel=1e-12)
        assert params.lam == pytest.approx(lam, rel=1e-12)
        assert params.scale == pytest.approx(scale, rel=1e-12)

    def test_weibull_params_beyond_float_square_raise(self):
        with pytest.raises(QuadratureError, match=r"a_over_W=1e\+155"):
            weibull_params(1e155)

    def test_numpy_scalar_beyond_float_square(self):
        # a numpy scalar squares with an overflow warning, a Python float not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match=r"a_over_W=1e\+155"):
                weibull_params(np.float64(1e155))
            assert max_transmission_coefficient(np.float64(1e155)) == 1.0

    @pytest.mark.parametrize("aw", [2e5, 1e6])
    def test_exact_eta_at_rim_matches_oracle(self, aw):
        # Q_1(a, a) in closed form at the rim; a beam 4e5 times narrower than
        # the aperture passes whole well inside it and not at all beyond it
        k = 4.0 * aw * aw
        rim = 0.5 * (1.0 - float(i0e(k)))
        assert exact_eta_at_offset(1.0, aw) == pytest.approx(rim, rel=1e-14)
        assert exact_eta_at_offset(np.array([0.5, 1.0, 2.0]), aw).tolist() == [
            1.0, exact_eta_at_offset(1.0, aw), 0.0]
        # offsets a few beam widths off the rim, on a binary grid (see on_grid)
        step = 2.0 ** math.floor(math.log2(1.0 / math.sqrt(k)))
        for r in (1.0 - 3.0 * step, 1.0 + 2.0 * step):
            assert exact_eta_at_offset(r, aw) == pytest.approx(
                eta_rice_quadrature(r, aw), rel=1e-13)

    @pytest.mark.parametrize("model", ["exact"])
    @pytest.mark.parametrize("aw", [2e5, 1e6])
    def test_sampler_matches_oracle(self, aw, model):
        # 200000 offsets with sigma_b2 = 1 put a few samples within 40 beam
        # widths 1/sqrt(k) of the rim; away from that band eta is 1 inside
        # the rim and 0 beyond it.
        # An ulp of r moves eta by up to k |r - 1| = 40 sqrt(k) ulps there, so
        # the band is compared at 1e-8
        eta = sample_transmittance(BeamGeometry(aw, 1.0), seed=1, n=200_000, model=model)
        rng = np.random.default_rng(1)
        r = np.hypot(rng.normal(0.0, 1.0, 200_000), rng.normal(0.0, 1.0, 200_000))
        band = np.abs(r - 1.0) < 40.0 / (2.0 * aw)
        assert eta[~band].tolist() == (r[~band] < 1.0).astype(float).tolist()
        assert band.sum() >= 3
        for ri, ei in zip(r[band], eta[band]):
            assert ei == pytest.approx(eta_rice_quadrature(float(ri), aw), abs=1e-8)

    @pytest.mark.parametrize("aw", [1e20, 1e100, 6.6e153])
    def test_exact_eta_is_a_step_for_huge_ratio(self, aw):
        # 1 + sqrt(1500/k) rounds onto the rim from k ~ 1e35; the ulp beyond
        # the rim must still give 0, not the rim's 1/2
        r = np.array([0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 3.0, 1e300])
        assert exact_eta_at_offset(r, aw).tolist() == [1.0, 1.0, 0.5, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("aw", [1e155, 1e300])
    def test_exact_paths_raise_quadrature_error(self, aw):
        # 4 (a/W)^2 overflows, so every exact path raises the same error,
        # naming the ratio
        name = re.escape(f"a_over_W={aw}") + "$"
        with pytest.raises(QuadratureError, match=name):
            exact_eta_at_offset(1.0, aw)
        with pytest.raises(QuadratureError, match=name):
            exact_eta_at_offset(np.array([0.5, 1.0, 2.0]), aw)
        with pytest.raises(QuadratureError, match=name):
            sample_transmittance(BeamGeometry(aw, 1.0), seed=1, n=200_000, model="exact")

    def test_kernel_names_first_ratio_in_row_order(self):
        # the rows of the broadcast hold a/W 1, 1e160 and 1e155, so the first
        # that overflows is 1e160
        with pytest.raises(QuadratureError, match=r"a_over_W=1e\+160$"):
            _eta_exact(np.array([0.5, 1.0]), np.array([[1.0], [1e160], [1e155]]))

    @pytest.mark.parametrize("aw", [2e5, 1e6])
    def test_approx_sampler_beyond_exact_kernel(self, aw):
        eta = sample_transmittance(BeamGeometry(aw, 1.0), seed=1, n=200_000)
        assert np.all((eta >= 0.0) & (eta <= weibull_params(aw).t0 ** 2))

    def test_approx_sampler_beyond_float_square_raises(self):
        with pytest.raises(QuadratureError, match=r"a_over_W=1e\+155"):
            sample_transmittance(BeamGeometry(1e155, 1.0), seed=1, n=3)


class TestBeamGeometry:

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            BeamGeometry(0.0, 0.3)
        with pytest.raises(ValueError):
            BeamGeometry(1.0, -0.1)
        with pytest.raises(ValueError):
            BeamGeometry(math.inf, 0.3)

    @pytest.mark.parametrize("field, kwargs", [
        ("a_over_W", dict(a_over_W=math.nan, sigma_b2=0.3)),
        ("sigma_b2", dict(a_over_W=1.0, sigma_b2=math.inf)),
    ])
    def test_rejects_non_finite_fields(self, field, kwargs):
        with pytest.raises(ValueError, match=rf"^{field} "):
            BeamGeometry(**kwargs)


# an int beyond the float range, on which math.isfinite raises OverflowError
HUGE = 10**400
STABLE = FadingStats(eta_mean=0.25, sqrt_eta_mean=0.5, var_sqrt_eta=0.0, eta_max=0.36)


class TestIntBeyondFloatRange:

    @pytest.mark.parametrize("field, call", [
        pytest.param("a_over_W", lambda: BeamGeometry(HUGE, 0.3), id="BeamGeometry-a_over_W"),
        pytest.param("sigma_b2", lambda: BeamGeometry(1, HUGE), id="BeamGeometry-sigma_b2"),
        pytest.param("a_over_W", lambda: weibull_params(HUGE), id="weibull_params"),
        pytest.param("seed", lambda: sample_transmittance(BeamGeometry(1.0, 0.3), seed=HUGE, n=3),
                     id="sample_transmittance"),
        pytest.param("v", lambda: fading_excess_noise(STABLE, HUGE), id="fading_excess_noise"),
        pytest.param("epsilon", lambda: effective_channel(STABLE, 2, HUGE), id="effective_channel"),
        pytest.param("sigma_b2", lambda: pdt_cdf(0.5, weibull_params(1.0), HUGE), id="pdt_cdf"),
        # the array sites: a 0-d argument reports itself, an array its entry
        pytest.param("a_over_W", lambda: max_transmission_coefficient(HUGE),
                     id="max_transmission_coefficient"),
        pytest.param("offset r", lambda: exact_eta_at_offset(HUGE, 1.0),
                     id="exact_eta_at_offset-r"),
        pytest.param("a_over_W", lambda: exact_eta_at_offset(0.5, [1.0, HUGE]),
                     id="exact_eta_at_offset-a_over_W"),
        pytest.param("offset r", lambda: eta_approx(HUGE, weibull_params(1.0)), id="eta_approx"),
        pytest.param("t", lambda: pdt_density(HUGE, weibull_params(1.0), 0.3), id="pdt_density-t"),
        pytest.param("t", lambda: pdt_cdf([0.5, HUGE], weibull_params(1.0), 0.3), id="pdt_cdf-t"),
        pytest.param("samples", lambda: TransmittanceSeries([0.5, HUGE]), id="TransmittanceSeries"),
        pytest.param("samples", lambda: empirical_moments([[0.5], [HUGE]]), id="empirical_moments"),
        pytest.param("bin_edges", lambda: Histogram([0.0, 0.5, HUGE], [1, 1]), id="Histogram"),
        pytest.param("value_range", lambda: histogram(parse_series("0.5\n"), 2, (0, HUGE)),
                     id="histogram"),
        pytest.param("block a", lambda: CovMat2(a=[[HUGE, 0], [0, 1]], b=np.eye(2)), id="CovMat2"),
        pytest.param("covariance matrix",
                     lambda: CovMat2.from_matrix([[1, 0, 0, 0], [0, 1, 0, 0],
                                                  [0, 0, 1, 0], [0, 0, 0, HUGE]]),
                     id="from_matrix"),
    ])
    def test_field_named(self, field, call):
        with pytest.raises(ValueError, match=rf"^{field} .*got {HUGE}$"):
            call()


class TestNotANumber:
    """Text, complex numbers, a Decimal and None raise the field's ValueError,
    not the TypeError of a comparison; numpy would parse the text and cut the
    complex number to its real part, and float() would take the Decimal, which
    the field's later arithmetic with floats refuses."""

    @pytest.mark.parametrize("bad", ["0.25", 1 + 1j, None, Decimal("0.25")],
                             ids=["str", "complex", "None", "Decimal"])
    @pytest.mark.parametrize("field, call", [
        ("a_over_W", lambda x: BeamGeometry(x, 0.3)),
        ("t0", lambda x: WeibullParams(x, 2.0, 1.0)),
        # eta_mean is checked before <eta> - <sqrt(eta)>^2 is formed from it
        ("eta_mean", lambda x: FadingStats(x, 0.5, 0.0, 0.36)),
        ("v (state variance)", ProtocolParams),
        ("v (quadrature variance)", tmsv),
        ("nu (symplectic eigenvalue)", entropy_g),
        ("v (quadrature variance)", lambda x: fading_excess_noise(STABLE, x)),
        ("a_over_W", max_transmission_coefficient),
    ], ids=["BeamGeometry", "WeibullParams", "FadingStats", "ProtocolParams", "tmsv",
            "entropy_g", "fading_excess_noise", "max_transmission_coefficient"])
    def test_field_named(self, field, call, bad):
        with pytest.raises(ValueError, match=f"^{re.escape(field)} .*got {re.escape(repr(bad))}$"):
            call(bad)

    @pytest.mark.parametrize("values, got", [
        ([0.5, "x"], "'x'"),
        (["0.5", "0.25"], "'0.5'"),
        ([[0.5, 0.25], [1 + 1j, 0.5]], re.escape("(1+1j)")),
        (np.array([0.5, 0.25], dtype=complex), re.escape("(0.5+0j)")),
        # an object array converts entry by entry, and a Fraction is a real number
        (np.array([Fraction(1, 2), "0.5"], dtype=object), "'0.5'"),
    ])
    def test_array_reports_one_entry(self, values, got):
        with pytest.raises(ValueError, match=rf"^offset r must be finite and >= 0, got {got}$"):
            exact_eta_at_offset(values, 1.0)

    def test_ragged_array_named(self):
        with pytest.raises(ValueError, match=r"^offset r .*got \[\[0\.5\], \[0\.25, 1\]\]$"):
            exact_eta_at_offset([[0.5], [0.25, 1]], 1.0)

    @pytest.mark.parametrize("call", [
        lambda: sample_transmittance(BeamGeometry(1.0, 0.3), seed=[], n=3),
        lambda: sample_transmittance(BeamGeometry(1.0, 0.3), seed=1, n=np.array([], dtype=int)),
        lambda: histogram(parse_series("0.5\n"), ()),
    ], ids=["seed", "n", "bins"])
    def test_empty_array_is_no_integer(self, call):
        # every entry of an empty array passes; the integer test is on the whole value
        with pytest.raises(ValueError, match=r"an integer >= \d, got (\[\]|\(\))$"):
            call()


# every field of the four value types, with a valid value for each
VALUE_TYPES = {
    BeamGeometry: {"a_over_W": 1.0, "sigma_b2": 0.3},
    WeibullParams: {"t0": 0.9, "lam": 2.0, "scale": 1.0},
    ProtocolParams: {"v": 7.0, "epsilon": 0.01, "beta": 0.97},
    FadingStats: {"eta_mean": 0.25, "sqrt_eta_mean": 0.5, "var_sqrt_eta": 0.0, "eta_max": 0.36},
}


# a number as a list or an array of one or two entries
SHAPES = pytest.mark.parametrize("shape", [lambda x: np.array([x]), lambda x: np.array([x, x]),
                                           lambda x: [x]], ids=["array-1", "array-2", "list"])


class TestOneNumberPerField:
    """Each field of a value type is one number: a list or an array of any
    length raises the field's ValueError, not numpy's unnamed TypeError or its
    "truth value ... is ambiguous"."""

    @SHAPES
    @pytest.mark.parametrize("kind, field", [(kind, field) for kind, fields in VALUE_TYPES.items()
                                             for field in fields])
    def test_field_named(self, kind, field, shape):
        values = dict(VALUE_TYPES[kind])
        values[field] = shape(values[field])
        with pytest.raises(ValueError, match=rf"^{field}\b.* must be a single number, got"):
            kind(**values)

    @pytest.mark.parametrize("kind", VALUE_TYPES)
    def test_numbers_stored_as_given(self, kind):
        value = kind(**VALUE_TYPES[kind])
        assert vars(value) == VALUE_TYPES[kind]


def numbers_in(lo, hi):
    """Numbers in [lo, hi] as a bool, an np.int64, an np.float16, an np.float32 or
    a Fraction: the real numbers that are not float64 but convert to one.  [lo, hi]
    must hold 0 or 1, so that every form can be drawn."""
    return st.one_of(
        st.booleans().filter(lambda b: lo <= b <= hi),
        st.integers(math.ceil(lo), math.floor(hi)).map(np.int64),
        *(st.floats(lo, min(hi, 6e4)).map(t).filter(lambda x: lo <= float(x) <= hi)
          for t in (np.float16, np.float32)),
        st.floats(lo, hi).map(Fraction))


MOMENTS = analytic_moments(BeamGeometry(1.0, 0.3))
WEIBULL = weibull_params(1.0)

# calls of one public number x, each with a range of x that it accepts
ONE_NUMBER = {
    "analytic_moments-approx-a_over_W": (lambda x: analytic_moments(BeamGeometry(x, 0.3)), 0.05, 20),
    "analytic_moments-approx-sigma_b2": (lambda x: analytic_moments(BeamGeometry(1.0, x)), 0, 2),
    "analytic_moments-exact-a_over_W": (
        lambda x: analytic_moments(BeamGeometry(x, 0.3), "exact"), 0.05, 20),
    "analytic_moments-exact-sigma_b2": (
        lambda x: analytic_moments(BeamGeometry(1.0, x), "exact"), 0, 2),
    "key_rate-v": (lambda x: key_rate(ProtocolParams(x), MOMENTS), 1, 1e3),
    "key_rate-epsilon": (lambda x: key_rate(ProtocolParams(7.0, x), MOMENTS), 0, 0.2),
    "key_rate-beta": (lambda x: key_rate(ProtocolParams(7.0, 0.01, x), MOMENTS), 0.5, 1),
    "holevo_bound-v": (lambda x: holevo_bound(ProtocolParams(x), MOMENTS), 1, 1e3),
    "mutual_information-v": (lambda x: mutual_information(ProtocolParams(x), MOMENTS), 1, 1e3),
    "optimize_modulation-epsilon": (lambda x: optimize_modulation(MOMENTS, x, 0.97), 0, 0.2),
    "optimize_modulation-beta": (lambda x: optimize_modulation(MOMENTS, 0.01, x), 0.5, 1),
    "fading_excess_noise": (lambda x: fading_excess_noise(MOMENTS, x), 1, 1e3),
    "effective_channel-v": (lambda x: effective_channel(MOMENTS, x, 0.01), 1, 1e3),
    "effective_channel-epsilon": (lambda x: effective_channel(MOMENTS, 7.0, x), 0, 0.2),
    "apply_fading_channel": (lambda x: apply_fading_channel(tmsv(7.0), MOMENTS, x), 0, 0.2),
    "tmsv": (tmsv, 1, 1e3),
    "entropy_g": (entropy_g, 1, 1e6),
    "pdt_density-sigma_b2": (lambda x: pdt_density(0.5, WEIBULL, x), 0.01, 2),
    "pdt_cdf-sigma_b2": (lambda x: pdt_cdf(0.5, WEIBULL, x), 0.01, 2),
    "weibull_params": (weibull_params, 0.05, 20),
}

# the scalar arguments of the public functions, each with the name its check gives it
SCALAR_ARGUMENTS = {
    "tmsv": "v (quadrature variance)",
    "entropy_g": "nu (symplectic eigenvalue)",
    "apply_fading_channel": "epsilon (excess noise)",
    "fading_excess_noise": "v (quadrature variance)",
    "effective_channel-epsilon": "epsilon (excess noise)",
    "pdt_density-sigma_b2": "sigma_b2",
    "pdt_cdf-sigma_b2": "sigma_b2",
    "weibull_params": "a_over_W",
}

# calls that used to compute in the caller's dtype, or to fail
ONE_NUMBER_ROWS = [
    pytest.param("analytic_moments-exact-a_over_W", True, id="exact-bool"),
    pytest.param("analytic_moments-exact-a_over_W", np.float32(1.0), id="exact-float32"),
    pytest.param("analytic_moments-exact-a_over_W", Fraction(1, 2), id="exact-Fraction"),
    pytest.param("key_rate-v", np.float32(7.0), id="key_rate-float32"),
    pytest.param("key_rate-v", np.float16(7.0), id="key_rate-float16"),
    pytest.param("entropy_g", np.float32(1.1), id="entropy_g-float32"),
    pytest.param("apply_fading_channel", np.float32(0.01), id="apply_fading_channel-float32"),
    pytest.param("fading_excess_noise", np.float32(7.0), id="fading_excess_noise-float32"),
]


def same_result(got, want):
    """got and want are of one type and equal, a CovMat2 by its matrix's bits."""
    if isinstance(want, CovMat2):
        got, want = got.matrix.tobytes(), want.matrix.tobytes()
    return type(got) is type(want) and got == want


@SHAPES
@pytest.mark.parametrize("site", SCALAR_ARGUMENTS)
def test_scalar_argument_named(site, shape):
    # a list or an array raises the argument's own ValueError, as a field's does
    call, _, hi = ONE_NUMBER[site]
    with pytest.raises(ValueError, match=rf"^{re.escape(SCALAR_ARGUMENTS[site])} must be a "
                                         "single number, got"):
        call(shape(hi))


class TestOneValuePerNumber:
    """A public number is converted to float64 once, by its check, and computed
    with as that float: a bool, a numpy scalar of any width or a Fraction gives
    exactly the result of its float."""

    @pytest.mark.parametrize("name", ONE_NUMBER)
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_same_result_as_float(self, name, data):
        call, lo, hi = ONE_NUMBER[name]
        x = data.draw(numbers_in(lo, hi))
        assert same_result(call(x), call(float(x)))

    @pytest.mark.parametrize("name, x", ONE_NUMBER_ROWS)
    def test_known_rows(self, name, x):
        call = ONE_NUMBER[name][0]
        assert same_result(call(x), call(float(x)))

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(t0=st.floats(0.125, 1, width=32), lam=st.floats(0.5, 8, width=32),
           scale=st.floats(0.25, 4, width=32), t=st.floats(0, 1))
    @example(t0=float(np.float32(0.9)), lam=2.0, scale=1.0, t=0.7)
    def test_float32_weibull_params(self, t0, lam, scale, t):
        # float(np.float32(x)) is x for a float of width 32
        wide, narrow = (WeibullParams(*map(form, (t0, lam, scale))) for form in (float, np.float32))
        for call in (lambda p: eta_approx(t, p), lambda p: pdt_density(t, p, 0.3),
                     lambda p: pdt_cdf(t, p, 0.3)):
            assert same_result(call(narrow), call(wide))

    def test_fields_are_floats(self):
        for value in (BeamGeometry(True, np.float32(0.3)),
                      WeibullParams(np.float16(0.5), np.int64(2), Fraction(3, 2)),
                      ProtocolParams(np.int64(7), np.float32(0.01), Fraction(97, 100)),
                      FadingStats(Fraction(1, 4), np.float32(0.5), np.float16(0), True),
                      weibull_params(np.float32(1.0)), analytic_moments(BeamGeometry(1, 0))):
            assert all(type(getattr(value, f)) is float for f in vars(value)), value

    def test_fraction_takes_the_exact_model(self):
        # the exact model's rule took the logarithm of an object row of Fractions
        assert (analytic_moments(BeamGeometry(Fraction(1, 2), 0.3), "exact")
                == analytic_moments(BeamGeometry(0.5, 0.3), "exact"))

    def test_float32_state_variance_does_not_overflow(self):
        # the kernels' V^3 products overflowed float32 at V = 1e30
        v = np.float32(1e30)
        got = key_rate(ProtocolParams(v), MOMENTS)
        assert math.isfinite(got) and got == key_rate(ProtocolParams(float(v)), MOMENTS)
