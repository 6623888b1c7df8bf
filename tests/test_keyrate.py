"""Mutual information, Holevo bound, key rate, modulation optimizer."""

import math

import numpy as np
import pytest

from beamfade.channel import BeamGeometry
from beamfade.fading import FadingStats, analytic_moments
from beamfade.keyrate import (
    V_GRID_POINTS,
    V_SEARCH_MAX,
    V_SEARCH_MIN,
    ProtocolParams,
    holevo_bound,
    key_rate,
    mutual_information,
    optimize_modulation,
)

from oracles import holevo_dense, holevo_scalar

REF_STATS = analytic_moments(BeamGeometry(1.0, 0.3))
REF_PARAMS = ProtocolParams(v=7.0, epsilon=0.01, beta=0.97)

STATS_GRID = [analytic_moments(BeamGeometry(aw, s2))
              for aw in (0.5, 1.0, 2.0) for s2 in (0.1, 0.3)]

LOSSLESS = FadingStats(eta_mean=1.0, sqrt_eta_mean=1.0, var_sqrt_eta=0.0,
                       eta_max=1.0)
DEAD = FadingStats(eta_mean=0.0, sqrt_eta_mean=0.0, var_sqrt_eta=0.0,
                   eta_max=0.25)


class TestProtocolParams:

    def test_defaults(self):
        p = ProtocolParams(v=7.0)
        assert p.epsilon == 0.01
        assert p.beta == 0.97

    @pytest.mark.parametrize("kwargs", [
        dict(v=0.5),
        dict(v=7.0, epsilon=-0.01),
        dict(v=7.0, beta=0.0),
        dict(v=7.0, beta=1.2),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolParams(**kwargs)

    @pytest.mark.parametrize("field, kwargs", [
        ("v", dict(v=math.nan)),
        ("epsilon", dict(v=7.0, epsilon=math.inf)),
    ])
    def test_rejects_non_finite_fields(self, field, kwargs):
        with pytest.raises(ValueError, match=rf"^{field} "):
            ProtocolParams(**kwargs)


class TestMutualInformation:

    def test_reference_point_frozen(self):
        assert mutual_information(REF_PARAMS, REF_STATS) == pytest.approx(
            0.9987730816191567, abs=1e-9)

    def test_lossless_noiseless_closed_form(self):
        # V_B = 7, V_B|A = 1, so I = (1/2) log2 7
        p = ProtocolParams(v=7.0, epsilon=0.0, beta=1.0)
        assert mutual_information(p, LOSSLESS) == pytest.approx(
            0.5 * math.log2(7.0), abs=1e-12)

    def test_vacuum_input_carries_nothing(self):
        p = ProtocolParams(v=1.0, epsilon=0.0)
        assert mutual_information(p, REF_STATS) == pytest.approx(0.0, abs=1e-12)

    def test_increasing_in_modulation(self):
        vals = [mutual_information(ProtocolParams(v=v, epsilon=0.01), REF_STATS)
                for v in (1.5, 3.0, 7.0, 15.0, 40.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_dead_channel_carries_nothing(self):
        assert mutual_information(REF_PARAMS, DEAD) == pytest.approx(0.0,
                                                                     abs=1e-12)


class TestHolevoBound:

    def test_reference_point_frozen(self):
        assert holevo_bound(REF_PARAMS, REF_STATS) == pytest.approx(
            1.0744178725896025, abs=1e-9)

    def test_lossless_noiseless_leaks_nothing(self):
        p = ProtocolParams(v=7.0, epsilon=0.0)
        assert holevo_bound(p, LOSSLESS) == pytest.approx(0.0, abs=1e-9)

    def test_vacuum_input_leaks_nothing(self):
        p = ProtocolParams(v=1.0, epsilon=0.0)
        assert holevo_bound(p, REF_STATS) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("v", [2.0, 7.0, 20.0])
    @pytest.mark.parametrize("stats_idx", [0, 1, 2])
    def test_scalar_route_oracle(self, v, stats_idx):
        # matrix-based computation vs plain scalar arithmetic on the block
        # structure
        stats = [REF_STATS,
                 analytic_moments(BeamGeometry(0.6, 0.2)),
                 analytic_moments(BeamGeometry(1.8, 0.4))][stats_idx]
        p = ProtocolParams(v=v, epsilon=0.01)
        ref = holevo_scalar(v, p.epsilon, stats.eta_mean, stats.sqrt_eta_mean)
        assert holevo_bound(p, stats) == pytest.approx(ref, abs=1e-9)

    def test_dense_route_oracle_on_optimizer_grid(self):
        # near V = 1 the faded state is nearly pure; the dense spectrum keeps
        # its digits there
        for stats in STATS_GRID:
            for v in np.geomspace(V_SEARCH_MIN, V_SEARCH_MAX, V_GRID_POINTS):
                for eps in (0.0, 0.01, 0.1):
                    p = ProtocolParams(v=float(v), epsilon=eps)
                    ref = holevo_dense(p.v, eps, stats.eta_mean,
                                       stats.sqrt_eta_mean)
                    assert holevo_bound(p, stats) == pytest.approx(
                        ref, abs=1e-10), (v, eps)

    def test_more_noise_leaks_more(self):
        vals = [holevo_bound(ProtocolParams(v=7.0, epsilon=e), REF_STATS)
                for e in (0.0, 0.01, 0.05, 0.1)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestKeyRate:

    def test_reference_point_frozen(self):
        assert key_rate(REF_PARAMS, REF_STATS) == pytest.approx(
            -0.10560798341902056, abs=1e-9)

    @pytest.mark.parametrize("beta", [0.97, 1.0])
    def test_lossless_noiseless_anchor(self, beta):
        p = ProtocolParams(v=7.0, epsilon=0.0, beta=beta)
        assert key_rate(p, LOSSLESS) == pytest.approx(
            beta * 0.5 * math.log2(7.0), abs=1e-6)

    def test_dead_channel_yields_nothing(self):
        assert key_rate(REF_PARAMS, DEAD) <= 1e-12

    def test_non_increasing_in_noise(self):
        vals = [key_rate(ProtocolParams(v=7.0, epsilon=e, beta=0.97), REF_STATS)
                for e in (0.0, 0.005, 0.01, 0.02, 0.05)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_non_decreasing_in_efficiency(self):
        vals = [key_rate(ProtocolParams(v=7.0, epsilon=0.01, beta=b), REF_STATS)
                for b in (0.9, 0.95, 0.97, 1.0)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_fading_never_beats_frozen_channel(self):
        # a fixed channel with the same effective transmittance and no
        # fluctuations upper-bounds the fading-channel rate
        for aw in (0.5, 1.0, 1.5, 2.0):
            for s2 in (0.1, 0.3):
                stats = analytic_moments(BeamGeometry(aw, s2))
                frozen = FadingStats(eta_mean=stats.sqrt_eta_mean**2,
                                     sqrt_eta_mean=stats.sqrt_eta_mean,
                                     var_sqrt_eta=0.0, eta_max=stats.eta_max)
                assert key_rate(REF_PARAMS, stats) <= key_rate(
                    REF_PARAMS, frozen) + 1e-12

    def test_interior_maximum_in_ratio(self):
        # stabilization by beam expansion: the fixed-modulation rate peaks
        # at a strictly interior aperture-to-beam ratio (near 0.45 at this
        # wandering strength)
        grid = np.arange(0.25, 2.0001, 0.05)
        rates = [key_rate(REF_PARAMS, analytic_moments(BeamGeometry(float(aw),
                                                                    0.3)))
                 for aw in grid]
        peak = int(np.argmax(rates))
        assert 0 < peak < len(rates) - 1
        assert grid[peak] == pytest.approx(0.45, abs=0.051)


class TestOptimizeModulation:

    def test_reference_point_frozen(self):
        found = optimize_modulation(REF_STATS, 0.01, 0.97)
        assert found.v_opt == pytest.approx(2.3600483782059225, rel=1e-9)
        assert found.kr_opt == pytest.approx(0.08602302367684167, rel=1e-9)
        assert not found.at_cap
        assert not found.all_negative

    def test_deterministic(self):
        a = optimize_modulation(REF_STATS, 0.01, 0.97)
        b = optimize_modulation(REF_STATS, 0.01, 0.97)
        assert a == b

    def test_search_domain_respected(self):
        found = optimize_modulation(REF_STATS, 0.01, 0.97)
        assert V_SEARCH_MIN <= found.v_opt <= V_SEARCH_MAX

    def test_noiseless_channel_hits_the_cap(self):
        # on a perfect channel the rate grows with V without bound, so the
        # search saturates at the domain cap where KR = (1/2) log2 V
        found = optimize_modulation(LOSSLESS, 0.0, 1.0)
        assert found.at_cap
        assert found.v_opt == V_SEARCH_MAX
        assert found.kr_opt == pytest.approx(0.5 * math.log2(V_SEARCH_MAX),
                                             abs=1e-6)

    def test_hopeless_channel_flagged(self):
        bad = analytic_moments(BeamGeometry(0.4, 0.5))
        found = optimize_modulation(bad, 0.3, 0.5)
        assert found.all_negative
        assert found.kr_opt < 0.0
        assert V_SEARCH_MIN <= found.v_opt <= V_SEARCH_MAX

    def test_dominates_fixed_modulation(self):
        for aw in (0.5, 0.8, 1.1, 1.4, 1.7, 2.0):
            stats = analytic_moments(BeamGeometry(aw, 0.3))
            fixed = key_rate(REF_PARAMS, stats)
            found = optimize_modulation(stats, 0.01, 0.97)
            assert found.kr_opt >= fixed - 1e-12

    def test_consistent_with_key_rate(self):
        found = optimize_modulation(REF_STATS, 0.01, 0.97)
        direct = key_rate(ProtocolParams(v=found.v_opt, epsilon=0.01,
                                         beta=0.97), REF_STATS)
        assert found.kr_opt == pytest.approx(direct, abs=1e-12)

    def test_sigma_ordering_of_optimized_rates(self):
        for aw in (0.6, 1.0, 1.5):
            rates = [optimize_modulation(analytic_moments(BeamGeometry(aw, s2)),
                                         0.01, 0.97).kr_opt
                     for s2 in (0.2, 0.3, 0.4)]
            assert rates[0] >= rates[1] - 1e-12
            assert rates[1] >= rates[2] - 1e-12
