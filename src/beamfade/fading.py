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
from scipy.integrate import quad

from .channel import (
    BeamGeometry,
    QuadratureError,
    _eta_exact,
    max_transmission_coefficient,
    weibull_params,
)

MOMENT_ABS_TOL = 1e-9


@dataclass(frozen=True)
class FadingStats:
    """Moment triple of a fading channel plus its maximum transmittance.

    Attributes
    ----------
    eta_mean : float
        Mean intensity transmittance <eta>.
    sqrt_eta_mean : float
        Mean transmission coefficient <sqrt(eta)>.
    var_sqrt_eta : float
        Var(sqrt(eta)) = <eta> - <sqrt(eta)>^2.
    eta_max : float
        Largest attainable transmittance eta_0^2.
    """

    eta_mean: float
    sqrt_eta_mean: float
    var_sqrt_eta: float
    eta_max: float

    def __post_init__(self):
        identity = self.eta_mean - self.sqrt_eta_mean**2
        if abs(self.var_sqrt_eta - identity) > 1e-9:
            raise ValueError(
                f"var_sqrt_eta={self.var_sqrt_eta} violates the moment identity "
                f"<eta> - <sqrt(eta)>^2 = {identity}")
        if identity < -1e-9:
            raise ValueError(f"negative Var(sqrt(eta)): {identity}")
        # roundoff can leave a tiny negative variance for a constant channel
        object.__setattr__(self, "var_sqrt_eta", max(identity, 0.0))
        eps = 1e-9
        if not (0.0 <= self.sqrt_eta_mean and self.eta_mean <= self.eta_max + eps
                and self.eta_max <= 1.0 + eps):
            raise ValueError(
                f"moments out of order: <sqrt(eta)>={self.sqrt_eta_mean}, "
                f"<eta>={self.eta_mean}, eta_max={self.eta_max}")


def analytic_moments(geometry: BeamGeometry, model: str = "approx") -> FadingStats:
    """Moment triple of the beam-wandering channel, by quadrature.

    <T^n> = integral_0^inf (r/sigma_b2) exp(-r^2/(2 sigma_b2)) T(r)^n dr for
    n = 1, 2, where T(r) is the Weibull-form transmission coefficient
    (default) or the square root of the exact clipping transmittance.  The
    substitution u = r^2/(2 sigma_b2) turns the integrand into exp(-u) times
    a smooth bounded factor.

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
    t0 = max_transmission_coefficient(geometry.a_over_W)
    if geometry.sigma_b2 == 0:
        return FadingStats(eta_mean=t0**2, sqrt_eta_mean=t0,
                           var_sqrt_eta=0.0, eta_max=t0**2)

    scale_r = math.sqrt(2.0 * geometry.sigma_b2)
    if model == "approx":
        params = weibull_params(geometry.a_over_W)

        def t_of_u(u, n):
            return t0**n * np.exp(-0.5 * n * (scale_r * np.sqrt(u) / params.scale) ** params.lam)
    else:
        def t_of_u(u, n):
            return _eta_exact(scale_r * math.sqrt(u), geometry.a_over_W) ** (0.5 * n)

    moments = []
    for n in (1, 2):
        # at large lam the Weibull exponent overflows to inf far beyond the
        # rim, where exp(-inf) = 0 is the right value
        with np.errstate(over="ignore"):
            val, err = quad(lambda u: math.exp(-u) * t_of_u(u, n), 0.0, np.inf,
                            epsabs=1e-12, epsrel=1e-12, limit=200)
        # quad reports a nan error estimate for a nan integrand
        if not err <= MOMENT_ABS_TOL:
            raise QuadratureError(f"moment <T^{n}> did not converge at "
                                  f"a_over_W={geometry.a_over_W}", achieved=err)
        moments.append(val)
    # rounding can leave the quadratures an ulp outside <T>^2 <= <T^2> <= t0^2;
    # mean_t <= t0 gives mean_t**2 <= t0**2, so the clamps restore it exactly
    mean_t = min(moments[0], t0)
    mean_t2 = min(max(moments[1], mean_t**2), t0**2)
    return FadingStats(eta_mean=mean_t2, sqrt_eta_mean=mean_t,
                       var_sqrt_eta=mean_t2 - mean_t**2, eta_max=t0**2)


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
    eta = np.asarray(samples, dtype=float)
    if eta.size == 0:
        raise ValueError("empty sample sequence")
    bad = np.flatnonzero(~((eta >= 0.0) & (eta <= 1.0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"sample {i} out of range [0, 1]: {eta[i]}")
    eta_mean = float(eta.mean())
    sqrt_eta_mean = float(np.sqrt(eta).mean())
    return FadingStats(eta_mean=eta_mean, sqrt_eta_mean=sqrt_eta_mean,
                       var_sqrt_eta=eta_mean - sqrt_eta_mean**2,
                       eta_max=float(eta.max()))


def fading_excess_noise(stats: FadingStats, v: float) -> float:
    """Excess noise Var(sqrt(eta)) * (V - 1) added by transmittance fluctuations.

    V is the quadrature variance of the state entering the channel, in
    shot-noise units; the vacuum (V = 1) picks up no fading noise.
    """
    if not (math.isfinite(v) and v >= 1.0):
        raise ValueError(f"v (quadrature variance) must be finite and >= 1 SNU, got {v}")
    return stats.var_sqrt_eta * (v - 1.0)


def effective_channel(stats: FadingStats, v: float, epsilon: float) -> tuple[float, float]:
    """Equivalent fixed channel of a fading channel for a state of variance V.

    Returns (T_eff, epsilon_out): the effective transmittance
    T_eff = <sqrt(eta)>^2 and the total output-referred added noise
    Var(sqrt(eta)) (V - 1) + T_eff * epsilon, where epsilon is the fixed
    excess noise referred to the channel input.
    """
    if not (math.isfinite(v) and v >= 1.0):
        raise ValueError(f"v (quadrature variance) must be finite and >= 1 SNU, got {v}")
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon (excess noise) must be finite and >= 0, got {epsilon}")
    t_eff = stats.sqrt_eta_mean**2
    return t_eff, fading_excess_noise(stats, v) + t_eff * epsilon
