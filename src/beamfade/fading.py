"""Moment statistics of the fluctuating transmittance.

A fading channel acts on Gaussian states only through the moment triple
<eta>, <sqrt(eta)>, Var(sqrt(eta)) = <eta> - <sqrt(eta)>^2.  This module
computes the triple analytically from the beam-wandering model and
empirically from measured or simulated samples, and derives the fading
excess noise and the equivalent fixed channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .channel import (
    BeamGeometry,
    _eta_exact,
    _require,
    _store,
    _weibull,
    max_transmission_coefficient,
)

# The moment rule: <T^n> is the integral of exp(-u) u T^n over s = ln u,
# taken on [ln 1e-14, ln 60] (the mass e^-60 beyond is dropped) plus the mass
# below u = 1e-14.  Every geometry gets 12-point Gauss-Legendre panels:
# _WINDOW_PANELS of width 1/p on the window [s* + _WINDOW[0]/p,
# s* + _WINDOW[1]/p] around the rim, and _GENERAL_PANELS of width at most 1
# on the rest, where p = max(lam/2, 1) and s* = ln(r*^2 / (2 sigma_b2)) with
# r* the Weibull scale (approx) or the rim, 1 (exact).  Across the window
# the Weibull factor exp(-exp(p (s - s*)) / 2) falls from 1 - 5e-14 to 0, and
# the exact model's Gaussian tails on both sides of the rim fall below 1e-16;
# outside it T^n varies on a scale of 1 in s or not at all.  Twice the window
# panels move no <T^n> beyond rounding; half the general panels fail by 1e-2.
_U_LO, _U_HI = 1e-14, 60.0
_S_LO, _S_HI = math.log(_U_LO), math.log(_U_HI)
_WINDOW = (-30.0, 16.0)
_WINDOW_PANELS = 46
_GENERAL_PANELS = math.ceil(_S_HI - _S_LO) + 1
_GL_X, _GL_W = leggauss(12)
_GL_X, _GL_W = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W


@dataclass(frozen=True)
class FadingStats:
    """Moment triple of a fading channel plus its maximum transmittance, stored as floats.

    Attributes
    ----------
    eta_mean : float
        Mean intensity transmittance <eta>.
    sqrt_eta_mean : float
        Mean transmission coefficient <sqrt(eta)>.
    var_sqrt_eta : float
        Var(sqrt(eta)) as given, clamped at 0, within 1e-9 of <eta> - <sqrt(eta)>^2.
    eta_max : float
        Largest attainable transmittance eta_0^2.
    """

    eta_mean: float
    sqrt_eta_mean: float
    var_sqrt_eta: float
    eta_max: float

    def __post_init__(self):
        eps = 1e-9
        top = _require("eta_max", self.eta_max, lambda m: m <= 1.0 + eps, "<= 1", True)
        # bounded before it is squared; above 1 + 2 eps it fails the checks below
        t = _require("sqrt_eta_mean", self.sqrt_eta_mean, lambda t: 0.0 <= t <= 1.0 + 2 * eps,
                     "in [0, 1]", True)
        e = _require("eta_mean", self.eta_mean, lambda e: e - t * t >= -eps and e <= top + eps,
                     "in [<sqrt(eta)>^2, eta_max]", True)
        identity = e - t * t
        v = _require("var_sqrt_eta", self.var_sqrt_eta, lambda v: abs(v - identity) <= eps,
                     f"<eta> - <sqrt(eta)>^2 = {identity}", True)
        # roundoff can leave a tiny negative variance for a constant channel
        _store(self, eta_mean=e, sqrt_eta_mean=t, var_sqrt_eta=max(0.0, v), eta_max=top)


def _panel_edges(lo, hi):
    """Panel edges in s of each geometry, for the window [lo, hi] inside the range.

    The general panels are shared between the two sides of the window, so
    every row has the same number of edges.
    """
    n_left = np.ceil(lo - _S_LO)
    # j counts panels from the window's left edge
    j = np.arange(_GENERAL_PANELS + _WINDOW_PANELS + 1) - n_left[:, None]
    left = lo[:, None] + j * ((lo - _S_LO) / np.maximum(n_left, 1.0))[:, None]
    window = lo[:, None] + j * ((hi - lo) / _WINDOW_PANELS)[:, None]
    right = hi[:, None] + (j - _WINDOW_PANELS) * (
        (_S_HI - hi) / (_GENERAL_PANELS - n_left))[:, None]
    return np.where(j < 0, left, np.where(j <= _WINDOW_PANELS, window, right))


def _moments(a_over_W, sigma_b2: float, model: str):
    """Moments of a 1-D array of a/W at one sigma_b2 >= 0, by the fixed rule.

    t0, the Weibull matching and the rule (see the constants above) each run
    over the whole a/W array; the CLI calls it once per sigma_b2 and block of
    `cli._SWEEP_BLOCK` a/W, `analytic_moments` once.  Returns FadingStats'
    fields as arrays over a/W.  Var(sqrt(eta)) >= 0 is the rule's mean square
    of T - t0 about its mean, or where <sqrt(eta)>^2 <= <eta>/2, <eta> -
    <sqrt(eta)>^2 after the clamps to <sqrt(eta)>^2 <= <eta> <= eta_max.  The
    exact <eta> is in closed form.  Raises QuadratureError naming the first
    a/W at which the matching degenerates.
    """
    t0 = max_transmission_coefficient(a_over_W)
    mean_t, mean_t2, var = t0, t0 * t0, np.zeros_like(t0)
    if sigma_b2 > 0:
        # for the exact model lam only places the window, and it is 2 to an
        # ulp below a/W = 1e-3; the floor keeps it clear of the matching's
        # float limit near a/W = 8.6e-78
        _, lam, scale = _weibull(a_over_W if model == "approx"
                                 else np.maximum(a_over_W, 1e-3))
        r_star = scale if model == "approx" else np.ones_like(a_over_W)
        p = np.maximum(lam / 2.0, 1.0)
        s_star = 2.0 * np.log(r_star) - math.log(2.0 * sigma_b2)
        edges = _panel_edges(np.clip(s_star + _WINDOW[0] / p, _S_LO, _S_HI),
                             np.clip(s_star + _WINDOW[1] / p, _S_LO, _S_HI))
        width = np.diff(edges, axis=1)[:, :, None]
        s = (edges[:, :-1, None] + width * _GL_X).reshape(a_over_W.size, -1)
        u = np.exp(s)
        weight = (width * _GL_W).reshape(s.shape) * u * np.exp(-u)
        # ln (r / r*)^2; far beyond the rim its exponentials overflow to inf,
        # where the transmission is 0
        x = s - s_star[:, None]
        # (a/W)^2 may overflow or, in the exact <eta>, underflow to a 0 divisor
        with np.errstate(over="ignore", divide="ignore"):
            if model == "approx":
                power = -0.5 * np.exp(0.5 * lam[:, None] * x)
                t = t0[:, None] * np.exp(power)
                # T - t0, with its digits where T rounds to t0
                dt = t0[:, None] * np.expm1(power)
            else:
                t = np.sqrt(_eta_exact(np.exp(0.5 * x), a_over_W[:, None]))
                dt = t - t0[:, None]
                # the beam's intensity, a Gaussian of variance 1/k per axis,
                # convolved with the wander's: 1 - exp(-1 / (2/k + 2 sigma_b2))
                mean_t2 = -np.expm1(-1.0 / (0.5 / (a_over_W * a_over_W) + 2.0 * sigma_b2))

        def mean(f):
            # T is monotone, so the mass below u = 1e-14 sees about the T of the
            # lowest node: t0 when the rim lies far above, 0 when far below
            return (weight * f).sum(axis=1) - math.expm1(-_U_LO) * f[:, 0]
        mean_t = mean(t)
        if model == "approx":
            mean_t2 = mean(t * t)
        # Var(T), the mean square of T - t0 about the rule's own mean of it
        dt -= mean(dt)[:, None]
        var = mean(dt * dt)
    # rounding can leave the rule an ulp outside <T>^2 <= <T^2> <= t0^2;
    # mean_t <= t0 gives mean_t**2 <= t0**2, so the clamps restore it exactly
    mean_t = np.minimum(mean_t, t0)
    mean_t2 = np.minimum(np.maximum(mean_t2, mean_t**2), t0**2)
    # where <T>^2 <= <T^2>/2 the difference loses under a bit, and T - t0
    # rounds away a T far below t0, as far beyond the rim
    square = mean_t * mean_t
    return mean_t2, mean_t, np.where(square <= 0.5 * mean_t2, mean_t2 - square, var), t0**2


def analytic_moments(geometry: BeamGeometry, model: str = "approx") -> FadingStats:
    """Moment triple of the beam-wandering channel, by a fixed quadrature rule.

    <T^n> = integral_0^inf (r/sigma_b2) exp(-r^2/(2 sigma_b2)) T(r)^n dr for
    n = 1, 2, where T(r) is the Weibull-form transmission coefficient
    (default) or the square root of the exact clipping transmittance.  The
    substitution u = r^2/(2 sigma_b2), s = ln u turns it into the integral
    of exp(-u) u T^n over s, which a composite 12-point Gauss-Legendre rule
    takes on s in [ln 1e-14, ln 60]: panels 1/p wide across the rim, where
    T changes on the scale 1/p, p = max(lam/2, 1), and at most 1 wide
    elsewhere.  Every geometry gets the same 1008 nodes.  Halving the panels
    across the rim moves no <eta> or <sqrt(eta)> by more than 6e-16, or 4
    ulps, over a/W 0.01-3e4 and sigma_b2 1e-12-1e3.  The exact model's
    <T^2> = <eta> needs no rule: it is 1 - exp(-1 / (2/k + 2 sigma_b2)),
    k = 4 (a/W)^2.

    Parameters
    ----------
    geometry : BeamGeometry
    model : {"approx", "exact"}

    Returns
    -------
    FadingStats
    """
    if model not in ("approx", "exact"):
        raise ValueError(f"model must be 'approx' or 'exact', got {model!r}")
    return FadingStats(*np.concatenate(_moments(np.array([geometry.a_over_W]),
                                                geometry.sigma_b2, model)))


def empirical_moments(samples) -> FadingStats:
    """Plug-in moment estimates from a sequence of transmittance samples.

    Parameters
    ----------
    samples : array_like
        Intensity transmittances, each in [0, 1], non-empty.

    Returns
    -------
    FadingStats
        eta_max is set to the largest sample.
    """
    eta = _require("samples", samples, lambda e: True, "real").ravel()
    if eta.size == 0:
        raise ValueError("empty sample sequence")
    bad = np.flatnonzero(~((eta >= 0.0) & (eta <= 1.0)))
    if bad.size:
        raise ValueError(f"sample {bad[0]} out of range [0, 1]: {eta[bad[0]]}")
    return _empirical([eta])[1]


def _exact_sum(x):
    """The exact sum of the floats x in [0, 1], as an integer count of 2**-1130.

    Each x >= 2**-11 is a whole count of 2**-63, at most 2**63, and the two
    32-bit halves of the counts sum exactly in uint64 for fewer than 2**32 x.
    The smaller x > 0 are scaled by 2**11 and counted the same way, and so on:
    97 steps reach the least subnormal, 2**-1074 = 2**-1130 2**56.
    """
    total, shift = 0, 1067
    while x.size:
        count = (x * 2.0**63).astype(np.uint64)  # whole where x >= 2**-11
        small = x < 2.0**-11
        count[small] = 0
        total += ((int((count >> 32).sum()) << 32) + int((count & 0xFFFFFFFF).sum())) << shift
        x, shift = x[small & (x > 0)] * 2.0**11, shift - 11
    return total


def _empirical(pieces):
    """(n, FadingStats) of the samples in `pieces`, arrays in [0, 1] with at least one sample.

    The means are the exact sums divided by n and rounded once, so they do not
    depend on how the samples are cut into pieces.
    """
    n, top, sum_eta, sum_t = 0, 0.0, 0, 0
    for eta in pieces:
        n, top = n + eta.size, max(top, float(eta.max(initial=0.0)))
        sum_eta += _exact_sum(eta)
        sum_t += _exact_sum(np.sqrt(eta))
    eta_mean, sqrt_eta_mean = sum_eta / (n << 1130), sum_t / (n << 1130)
    return n, FadingStats(eta_mean=eta_mean, sqrt_eta_mean=sqrt_eta_mean,
                          var_sqrt_eta=eta_mean - sqrt_eta_mean * sqrt_eta_mean,
                          eta_max=top)


def fading_excess_noise(stats: FadingStats, v: float) -> float:
    """Excess noise Var(sqrt(eta)) * (V - 1) added by transmittance fluctuations.

    V is the quadrature variance of the state entering the channel, in
    shot-noise units; the vacuum (V = 1) picks up no fading noise.
    """
    v = _require("v (quadrature variance)", v, lambda v: v >= 1.0, ">= 1 SNU", True)
    return stats.var_sqrt_eta * (v - 1.0)


def effective_channel(stats: FadingStats, v: float, epsilon: float) -> tuple[float, float]:
    """Equivalent fixed channel of a fading channel for a state of variance V.

    Returns (T_eff, epsilon_out): the effective transmittance
    T_eff = <sqrt(eta)>^2 and the total output-referred added noise
    Var(sqrt(eta)) (V - 1) + T_eff * epsilon, where epsilon is the fixed
    excess noise referred to the channel input.
    """
    noise = fading_excess_noise(stats, v)
    epsilon = _require("epsilon (excess noise)", epsilon, lambda e: e >= 0.0, ">= 0", True)
    t_eff = stats.sqrt_eta_mean**2
    return t_eff, noise + t_eff * epsilon
