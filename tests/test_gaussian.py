"""Covariance-matrix algebra: spectra, entanglement, entropy, conditioning."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamfade.fading import FadingStats, analytic_moments
from beamfade.channel import BeamGeometry
from beamfade.gaussian import (
    CovMat2,
    apply_fading_channel,
    condition_on_heterodyne,
    condition_on_homodyne,
    entropy_g,
    log_negativity,
    symplectic_eigs,
    tmsv,
    von_neumann_entropy,
)
from beamfade.keyrate import V_GRID_POINTS, V_MAX, V_SEARCH_MAX, V_SEARCH_MIN

from oracles import entropy_decimal, symplectic_eigs_iomega

REF_STATS = analytic_moments(BeamGeometry(1.0, 0.3))

STATS_GRID = [analytic_moments(BeamGeometry(aw, s2))
              for aw in (0.5, 1.0, 2.0) for s2 in (0.1, 0.3)]


def random_physical(rng):
    # gamma = I + M M^T is symmetric and exceeds the vacuum, hence physical
    m = rng.normal(size=(4, 4))
    return CovMat2.from_matrix(np.eye(4) + m @ m.T)


class TestCovMat2:

    def test_assembles_blocks(self):
        cm = tmsv(2.0)
        full = cm.matrix
        assert full.shape == (4, 4)
        assert np.array_equal(full[:2, :2], cm.a)
        assert np.array_equal(full[2:, 2:], cm.b)
        assert np.array_equal(full[:2, 2:], cm.c)

    def test_keeps_no_view_of_the_callers_arrays(self):
        # the blocks stay those that the uncertainty check and the Cholesky
        # factor saw, whatever the caller later writes into its arrays
        want = tmsv(3.0)
        a, b, c, full = want.a.copy(), want.b.copy(), want.c.copy(), want.matrix
        made = [CovMat2(a=a, b=b, c=c), CovMat2.from_matrix(full)]
        for x in (a, b, c, full):
            x[...] = 0.1
        for cm in made:
            assert np.array_equal(cm.matrix, want.matrix)
            assert symplectic_eigs(cm) == symplectic_eigs(want)

    def test_from_matrix_round_trip(self):
        cm = tmsv(3.0)
        again = CovMat2.from_matrix(cm.matrix)
        assert np.array_equal(again.matrix, cm.matrix)

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError):
            CovMat2(a=np.eye(3), b=np.eye(2))
        with pytest.raises(ValueError):
            CovMat2.from_matrix(np.eye(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_from_matrix_names_non_finite_entry(self, bad):
        m = np.eye(4)
        m[1, 2] = bad
        with pytest.raises(ValueError, match=f"^covariance matrix must be finite .*got {bad}$"):
            CovMat2.from_matrix(m)

    def test_from_matrix_rejects_asymmetric_matrix(self):
        m = np.eye(4)
        m[0, 3] = 0.5
        with pytest.raises(ValueError, match="^covariance matrix must be symmetric$"):
            CovMat2.from_matrix(m)

    def test_rejects_asymmetric_blocks(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            CovMat2(a=bad, b=np.eye(2))

    @pytest.mark.parametrize("block", ["a", "b", "c"])
    def test_rejects_non_finite_block(self, block):
        blocks = {"a": 2.0 * np.eye(2), "b": 2.0 * np.eye(2), "c": np.zeros((2, 2))}
        blocks[block][0, 1] = math.nan
        with pytest.raises(ValueError, match=f"block {block} must be finite"):
            CovMat2(**blocks)

    def test_rejects_sub_vacuum_state(self):
        with pytest.raises(ValueError, match="unphysical"):
            CovMat2(a=0.5 * np.eye(2), b=np.eye(2))

    def test_rejects_overcorrelated_state(self):
        # correlations beyond sqrt(V^2 - 1) violate the uncertainty relation
        c = 2.1 * np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="unphysical"):
            CovMat2(a=2.0 * np.eye(2), b=2.0 * np.eye(2), c=c)


class TestTmsv:

    def test_blocks(self):
        v = 7.0
        cm = tmsv(v)
        corr = math.sqrt(48.0)
        assert np.allclose(cm.a, v * np.eye(2))
        assert np.allclose(cm.b, v * np.eye(2))
        assert np.allclose(cm.c, np.diag([corr, -corr]))

    def test_vacuum_limit(self):
        cm = tmsv(1.0)
        assert np.allclose(cm.matrix, np.eye(4))

    def test_rejects_sub_vacuum(self):
        with pytest.raises(ValueError):
            tmsv(0.99)

    def test_rejects_non_finite_variance(self):
        with pytest.raises(ValueError, match=r"^v "):
            tmsv(math.nan)

    @pytest.mark.parametrize("v", [1.01 * V_MAX, 1e160, math.inf])
    def test_rejects_variance_above_limit(self, v):
        # v**2 overflowed from about 1.34e154 on, with a bare OverflowError
        with pytest.raises(ValueError, match=r"^v .*1e\+100"):
            tmsv(v)

    def test_rejects_state_beyond_double_precision(self):
        # gamma + i Omega >= 0 holds within its 1e-9 tolerance, but the
        # smallest eigenvalue of gamma, about 1/(2V), is lost to rounding
        with pytest.raises(ValueError, match="not numerically positive definite"):
            tmsv(49154564.718306005)


class TestSymplecticEigs:

    def test_identity(self):
        assert symplectic_eigs(CovMat2.from_matrix(np.eye(4))) == (1.0, 1.0)

    @pytest.mark.parametrize("v", [1.0, 2.0, 7.0, 50.0, 1000.0])
    def test_pure_state_spectrum(self, v):
        nu1, nu2 = symplectic_eigs(tmsv(v))
        assert nu1 == pytest.approx(1.0, abs=1e-9)
        assert nu2 == pytest.approx(1.0, abs=1e-9)

    def test_thermal_times_vacuum(self):
        cm = CovMat2(a=3.0 * np.eye(2), b=np.eye(2))
        nu1, nu2 = symplectic_eigs(cm)
        assert nu1 == pytest.approx(3.0, abs=1e-12)
        assert nu2 == pytest.approx(1.0, abs=1e-12)

    def test_matrix_oracle_on_random_states(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            cm = random_physical(rng)
            nu1, nu2 = symplectic_eigs(cm)
            ref1, ref2 = symplectic_eigs_iomega(cm.matrix)
            assert nu1 == pytest.approx(ref1, abs=1e-9)
            assert nu2 == pytest.approx(ref2, abs=1e-9)

    def test_matrix_oracle_after_lossy_channel(self):
        cm = apply_fading_channel(tmsv(7.0), REF_STATS, 0.01)
        nu1, nu2 = symplectic_eigs(cm)
        ref1, ref2 = symplectic_eigs_iomega(cm.matrix)
        assert nu1 == pytest.approx(ref1, abs=1e-9)
        assert nu2 == pytest.approx(ref2, abs=1e-9)

    def test_matrix_oracle_on_faded_tmsv_grid(self):
        # the optimizer's V grid starts at 1 + 1e-6, where the faded state is
        # nearly pure (nu2 - 1 < 1e-6)
        for stats in STATS_GRID:
            for v in np.geomspace(V_SEARCH_MIN, V_SEARCH_MAX, V_GRID_POINTS):
                for eps in (0.0, 0.01, 0.1):
                    cm = apply_fading_channel(tmsv(float(v)), stats, eps)
                    assert symplectic_eigs(cm) == pytest.approx(
                        symplectic_eigs_iomega(cm.matrix), abs=1e-10), (v, eps)

    def test_ordering(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            nu1, nu2 = symplectic_eigs(random_physical(rng))
            assert nu1 >= nu2 >= 1.0 - 1e-9


class TestLogNegativity:

    @pytest.mark.parametrize("v", [1.0, 2.0, 7.0, 15.0, 50.0])
    def test_closed_form(self, v):
        expected = max(0.0, -math.log2(v - math.sqrt(v * v - 1.0)))
        assert log_negativity(tmsv(v)) == pytest.approx(expected, abs=1e-9)

    def test_product_vacuum_is_separable(self):
        assert log_negativity(CovMat2.from_matrix(np.eye(4))) == 0.0

    @pytest.mark.parametrize("v", [2.0, 7.0, 15.0])
    def test_nat_log_form_agrees(self, v):
        # the same quantity via -(1/2) ln(2V^2 - 1 - 2V sqrt(V^2-1)),
        # converted from nats to bits
        nats = -0.5 * math.log(2 * v * v - 1 - 2 * v * math.sqrt(v * v - 1))
        assert log_negativity(tmsv(v)) == pytest.approx(nats / math.log(2.0),
                                                        abs=1e-9)

    def test_degraded_by_reference_channel(self):
        ln = log_negativity(apply_fading_channel(tmsv(7.0), REF_STATS, 0.01))
        assert ln == pytest.approx(1.2742747608160525, abs=1e-9)
        assert 0.0 < ln < -math.log2(7.0 - math.sqrt(48.0))

    def test_never_increases_under_fading(self):
        for stats in STATS_GRID:
            for eps in (0.0, 0.01):
                before = log_negativity(tmsv(7.0))
                after = log_negativity(apply_fading_channel(tmsv(7.0), stats,
                                                            eps))
                assert after <= before + 1e-12


class TestApplyFadingChannel:

    def test_reference_output_block(self):
        out = apply_fading_channel(tmsv(7.0), REF_STATS, 0.01)
        s = REF_STATS
        expected = (1.0 + s.sqrt_eta_mean**2 * 6.0 + s.var_sqrt_eta * 6.0
                    + s.sqrt_eta_mean**2 * 0.01)
        assert out.b[0, 0] == pytest.approx(expected, rel=1e-12)
        assert out.b[0, 0] == pytest.approx(4.615651552617825, abs=1e-9)
        assert out.b[1, 1] == pytest.approx(expected, rel=1e-12)
        assert out.b[0, 1] == 0.0

    def test_transparent_channel_is_identity(self):
        stats = FadingStats(eta_mean=1.0, sqrt_eta_mean=1.0, var_sqrt_eta=0.0,
                            eta_max=1.0)
        out = apply_fading_channel(tmsv(7.0), stats, 0.0)
        assert np.allclose(out.matrix, tmsv(7.0).matrix, atol=1e-14)

    def test_sender_mode_untouched_and_correlations_scaled(self):
        cm = tmsv(7.0)
        out = apply_fading_channel(cm, REF_STATS, 0.01)
        assert np.array_equal(out.a, cm.a)
        assert np.allclose(out.c, REF_STATS.sqrt_eta_mean * cm.c, atol=1e-15)

    @pytest.mark.parametrize("v", [1.0, 7.0, 50.0])
    def test_output_stays_physical(self, v):
        # CovMat2 construction enforces the uncertainty relation, so a
        # completed call is itself the assertion
        for stats in STATS_GRID:
            for eps in (0.0, 0.01, 0.1):
                apply_fading_channel(tmsv(v), stats, eps)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            apply_fading_channel(tmsv(7.0), REF_STATS, -0.01)

    def test_rejects_non_finite_noise(self):
        with pytest.raises(ValueError, match=r"^epsilon "):
            apply_fading_channel(tmsv(7.0), REF_STATS, math.inf)


class TestEntropyG:

    def test_pure_mode(self):
        assert entropy_g(1.0) == 0.0

    def test_thermal_value(self):
        assert entropy_g(3.0) == pytest.approx(2.0, abs=1e-12)

    def test_strictly_increasing(self):
        assert entropy_g(1.5) < entropy_g(2.0) < entropy_g(3.0)

    def test_clamp_band_below_one(self):
        assert entropy_g(1.0 - 5e-10) == 0.0

    def test_rejects_deep_sub_unit(self):
        with pytest.raises(ValueError):
            entropy_g(0.999999)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="^nu "):
            entropy_g(bad)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(nu=st.floats(min_value=1.0 + 1e-15, max_value=1e308))
    @example(nu=1.0 + 1e-15)
    @example(nu=1.0 + 1e-12)
    @example(nu=1e17)
    @example(nu=1e308)
    def test_decimal_oracle(self, nu):
        # the textbook difference up log2(up) - dn log2(dn) cancels to 0 from
        # nu ~ 1e16, overflows to nan from 1e306 and is 0.55% off at 1 + 1e-12
        assert entropy_g(nu) == pytest.approx(float(entropy_decimal(nu)),
                                              rel=1e-15)


class TestVonNeumannEntropy:

    def test_pure_states_have_none(self):
        assert von_neumann_entropy(CovMat2.from_matrix(np.eye(4))) == 0.0
        assert von_neumann_entropy(tmsv(7.0)) == pytest.approx(0.0, abs=1e-9)

    def test_thermal_times_vacuum(self):
        cm = CovMat2(a=3.0 * np.eye(2), b=np.eye(2))
        assert von_neumann_entropy(cm) == pytest.approx(2.0, abs=1e-12)

    def test_large_thermal_state(self):
        # two thermal modes of nu = 1e17, 56.9 bits each
        cm = CovMat2.from_matrix(1e17 * np.eye(4))
        assert von_neumann_entropy(cm) == pytest.approx(113.83094530794824,
                                                        rel=1e-14)


class TestConditionOnHomodyne:

    def test_tmsv_x_measurement(self):
        cond = condition_on_homodyne(tmsv(7.0), measured_mode=2)
        assert np.allclose(cond, np.diag([1.0 / 7.0, 7.0]), atol=1e-12)

    def test_tmsv_p_measurement(self):
        cond = condition_on_homodyne(tmsv(7.0), measured_mode=2, quadrature="p")
        assert np.allclose(cond, np.diag([7.0, 1.0 / 7.0]), atol=1e-12)

    def test_squeezing_in_decibel(self):
        cond = condition_on_homodyne(tmsv(7.0), measured_mode=2)
        assert 10.0 * math.log10(cond[0, 0]) == pytest.approx(-8.45, abs=0.01)

    def test_remains_pure_for_pure_input(self):
        cond = condition_on_homodyne(tmsv(7.0), measured_mode=1)
        assert float(np.linalg.det(cond)) == pytest.approx(1.0, abs=1e-12)

    def test_uncorrelated_state_unchanged(self):
        cm = CovMat2(a=3.0 * np.eye(2), b=2.0 * np.eye(2))
        cond = condition_on_homodyne(cm, measured_mode=2)
        assert np.allclose(cond, cm.a, atol=1e-15)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            condition_on_homodyne(tmsv(2.0), measured_mode=3)
        with pytest.raises(ValueError):
            condition_on_homodyne(tmsv(2.0), measured_mode=2, quadrature="z")


class TestConditionOnHeterodyne:

    def test_tmsv_prepares_coherent_states(self):
        # heterodyning one arm of any TMSV leaves the other in a coherent
        # state: unit variance in both quadratures
        for v in (3.0, 7.0):
            cond = condition_on_heterodyne(tmsv(v), measured_mode=1)
            assert np.allclose(cond, np.eye(2), atol=1e-12)

    def test_uncorrelated_state_unchanged(self):
        cm = CovMat2(a=3.0 * np.eye(2), b=2.0 * np.eye(2))
        cond = condition_on_heterodyne(cm, measured_mode=2)
        assert np.allclose(cond, cm.a, atol=1e-15)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            condition_on_heterodyne(tmsv(2.0), measured_mode=0)

    def test_singular_b_plus_identity_raises(self):
        # B's exact determinant is -4, but eigvalsh's rounding error at
        # |gamma| ~ 2e16 is about 4, so CovMat2 accepts it, and B + I rounds
        # to a singular matrix
        b = [[1e16, 1.0000000000000002e16], [1.0000000000000002e16, 1.0000000000000004e16]]
        cm = CovMat2(a=np.eye(2), b=b)
        with pytest.raises(ArithmeticError, match="^singular heterodyne matrix B \\+ I$"):
            condition_on_heterodyne(cm, measured_mode=2)


class TestConditioningEntropy:

    def test_measurement_never_raises_entropy(self):
        # S(conditional) <= S(kept mode's reduced state), both one-mode
        # states scored by g(sqrt(det))
        for stats in STATS_GRID:
            cm = apply_fading_channel(tmsv(7.0), stats, 0.01)
            reduced = entropy_g(math.sqrt(float(np.linalg.det(cm.a))))
            for cond in (condition_on_homodyne(cm, measured_mode=2),
                         condition_on_homodyne(cm, measured_mode=2,
                                               quadrature="p"),
                         condition_on_heterodyne(cm, measured_mode=2)):
                nu = math.sqrt(max(float(np.linalg.det(cond)), 1.0))
                assert entropy_g(nu) <= reduced + 1e-12
