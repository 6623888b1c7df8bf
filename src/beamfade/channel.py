"""Geometry of a wandering Gaussian beam clipped by a circular aperture.

A Gaussian beam of spot radius W, displaced by r from the aperture center,
loses the power that falls outside the receiving aperture of radius a.  All
lengths here (offset r, spot radius w = W/a, Weibull scale, beam-center
standard deviation) are expressed in units of the aperture radius, so the
single geometry knob is the ratio a/W together with the beam-center position
variance sigma_b^2.

Conventions: T denotes the (amplitude) transmission coefficient and
eta = T^2 the intensity transmittance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, i1e


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class BeamGeometry:
    """Channel configuration: aperture-to-beam-size ratio and wandering strength.

    Attributes
    ----------
    a_over_W : float
        Ratio of the aperture radius to the beam-spot radius, > 0.
    sigma_b2 : float
        Beam-center position variance, in aperture-radius^2 units, >= 0.
    """

    a_over_W: float
    sigma_b2: float

    def __post_init__(self):
        if not (math.isfinite(self.a_over_W) and self.a_over_W > 0):
            raise ValueError(f"a_over_W must be finite and > 0, got {self.a_over_W}")
        if not (math.isfinite(self.sigma_b2) and self.sigma_b2 >= 0):
            raise ValueError(f"sigma_b2 must be finite and >= 0, got {self.sigma_b2}")


@dataclass(frozen=True)
class WeibullParams:
    """Parameters of the log-negative Weibull law for the transmission coefficient.

    T follows T(r) = t0 * exp(-(1/2) * (r/scale)**lam) for a beam-center
    offset r, where t0 is the maximum transmission coefficient, lam the shape
    and scale the scale parameter (aperture-radius units).
    """

    t0: float
    lam: float
    scale: float

    def __post_init__(self):
        if not (0 < self.t0 <= 1):
            raise ValueError(f"t0 must lie in (0, 1], got {self.t0}")
        if not (0 < self.lam < math.inf and 0 < self.scale < math.inf):
            raise ValueError(f"lam and scale must be finite and > 0, "
                             f"got {self.lam}, {self.scale}")


def max_transmission_coefficient(a_over_W: float) -> float:
    """Transmission coefficient of a perfectly centered beam.

    Parameters
    ----------
    a_over_W : float
        Aperture-to-beam-size ratio, > 0.

    Returns
    -------
    float
        t0 = sqrt(1 - exp(-2 (a/W)^2)), in (0, 1).
    """
    if not (math.isfinite(a_over_W) and a_over_W > 0):
        raise ValueError(f"a_over_W must be finite and > 0, got {a_over_W}")
    return math.sqrt(-math.expm1(-2.0 * a_over_W**2))


def _eta_exact(r, a_over_W):
    # P(|X| <= 1) for X ~ N(r, w^2/4 I), w = W/a: a noncentral chi^2 CDF with
    # 2 degrees of freedom, equal to 1 - Q_1(2r/w, 2/w) (Marcum Q)
    k = 4.0 * a_over_W**2
    return chndtr(k, 2.0, k * np.square(r))


def _no_nan(eta, a_over_W):
    # from a/W ~ 5e4 on, chndtr returns nan in a band of offsets around r = 1
    if np.isnan(eta).any():
        raise ArithmeticError(f"exact transmittance is nan at a_over_W={a_over_W}")
    return eta


def exact_eta_at_offset(r, a_over_W: float):
    """Intensity transmittance of a displaced Gaussian beam, in closed form.

    Power fraction of a beam of spot radius w = W/a, displaced by r
    (aperture-radius units), passing the unit-radius aperture:

        eta(r) = (4/w^2) exp(-2 r^2/w^2)
                 * integral_0^1 rho exp(-2 rho^2/w^2) I0(4 r rho / w^2) drho
               = P(chi'^2_2(k r^2) <= k),  k = 4 (a/W)^2

    the noncentral chi^2 CDF with 2 degrees of freedom, i.e. 1 - Q_1(2r/w, 2/w)
    in terms of Marcum's Q function.

    Parameters
    ----------
    r : float or array_like
        Beam-center offset(s), each finite and >= 0.
    a_over_W : float
        Aperture-to-beam-size ratio, > 0.

    Returns
    -------
    float or ndarray
        eta in [0, 1 - exp(-2 (a/W)^2)]; a float for a scalar r.

    Raises
    ------
    ArithmeticError
        If the kernel returns nan, which it does near r = 1 from a/W ~ 5e4 on.
    """
    r = np.asarray(r, dtype=float)
    bad = r[~(np.isfinite(r) & (r >= 0))]
    if bad.size:
        raise ValueError(f"offset r must be finite and >= 0, got {bad[0]}")
    if not (math.isfinite(a_over_W) and a_over_W > 0):
        raise ValueError(f"a_over_W must be finite and > 0, got {a_over_W}")
    out = _no_nan(_eta_exact(r, a_over_W), a_over_W)
    return out if out.ndim else float(out)


def weibull_params(a_over_W: float) -> WeibullParams:
    """Fit the Weibull-form approximation to the exact clipping transmittance.

    The approximation eta(r) ~ t0^2 exp(-(r/scale)**lam) is pinned to the
    exact transmittance by matching the value and the logarithmic derivative
    at r = 1 (beam center on the aperture rim):

        G = ln(t0^2 / eta_exact(1)),  D = -(d ln eta_exact / dr)|_{r=1},
        lam = D / G,  scale = G**(-1/lam).

    With k = 4 (a/W)^2, dQ_M(a, b)/da = a (Q_{M+1} - Q_M) gives
    d eta_exact / dr = -k exp(-k (r^2 + 1) / 2) I1(k r), so the rim slope is
    -k i1e(k).
    """
    t0 = max_transmission_coefficient(a_over_W)
    k = 4.0 * a_over_W**2
    eta1 = float(_eta_exact(1.0, a_over_W))
    g = math.log(t0**2 / eta1)
    d = k * float(i1e(k)) / eta1
    # G ~ 2 (a/W)^2 carries a relative error of about eps / G, so below 1e-12
    # (a/W ~ 7e-7) lam drifts from 2 and G**(-1/lam) overflows
    if not (1e-12 <= g < math.inf and 0 < d < math.inf):
        raise QuadratureError(
            f"degenerate matching conditions at a_over_W={a_over_W}: "
            f"G={g:.3e}, D={d:.3e}", achieved=math.nan)
    lam = d / g
    return WeibullParams(t0=t0, lam=lam, scale=g ** (-1.0 / lam))


def eta_approx(r, params: WeibullParams):
    """Weibull-form transmittance t0^2 * exp(-(r/scale)**lam) at offset r."""
    r = np.asarray(r, dtype=float)
    # at large lam, (r/scale)**lam overflows to inf beyond the rim, where
    # exp(-inf) = 0 is the right transmittance
    with np.errstate(over="ignore"):
        out = params.t0**2 * np.exp(-((r / params.scale) ** params.lam))
    return out if out.ndim else float(out)


def _offset_of_transmission(t, params: WeibullParams):
    """Inverse of T(r) = t0 exp(-(1/2)(r/scale)**lam) on (0, t0)."""
    return params.scale * (2.0 * np.log(params.t0 / t)) ** (1.0 / params.lam)


def pdt_density(t, params: WeibullParams, sigma_b2: float):
    """Probability density of the transmission coefficient T.

    Built by change of variables from the Rayleigh-distributed beam-center
    offset r (density r/sigma_b2 * exp(-r^2 / (2 sigma_b2))) through the
    strictly decreasing map T(r) = t0 exp(-(1/2)(r/scale)**lam):

        p(T) = f(r(T)) * |dr/dT|,  r(T) = scale * (2 ln(t0/T))**(1/lam)

    Zero outside the support (0, t0).

    Parameters
    ----------
    t : float or array_like
        Transmission coefficient value(s).
    params : WeibullParams
    sigma_b2 : float
        Beam-center position variance, > 0.

    Returns
    -------
    float or ndarray
        Density per unit T, >= 0.
    """
    if not (math.isfinite(sigma_b2) and sigma_b2 > 0):
        raise ValueError(f"sigma_b2 must be finite and > 0, got {sigma_b2}")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < params.t0)
    if np.any(inside):
        ti = t[inside]
        u = 2.0 * np.log(params.t0 / ti)
        r = params.scale * u ** (1.0 / params.lam)
        rayleigh = (r / sigma_b2) * np.exp(-(r**2) / (2.0 * sigma_b2))
        # |dr/dT| from the inverse map; diverges integrably at T -> t0 for lam > 1
        with np.errstate(divide="ignore", over="ignore"):
            jac = (2.0 * params.scale / (params.lam * ti)) * u ** (1.0 / params.lam - 1.0)
        out[inside] = rayleigh * jac
    return float(out[0]) if scalar else out


def pdt_cdf(t, params: WeibullParams, sigma_b2: float):
    """Cumulative distribution of T under the same change of variables.

    P(T <= t) = P(r >= r(t)) = exp(-r(t)^2 / (2 sigma_b2)); closed form, so
    it serves as an independent check on `pdt_density` and as the model side
    of distribution fitting.
    """
    if not (math.isfinite(sigma_b2) and sigma_b2 > 0):
        raise ValueError(f"sigma_b2 must be finite and > 0, got {sigma_b2}")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.where(t >= params.t0, 1.0, 0.0)
    inside = (t > 0.0) & (t < params.t0)
    if np.any(inside):
        r = _offset_of_transmission(t[inside], params)
        out[inside] = np.exp(-(r**2) / (2.0 * sigma_b2))
    return float(out[0]) if scalar else out


def sample_transmittance(geometry: BeamGeometry, seed: int, n: int,
                         model: str = "approx") -> np.ndarray:
    """Monte-Carlo sample of intensity transmittances eta.

    Draws the beam-center coordinates x, y independently from a zero-mean
    normal with variance sigma_b2, sets r = sqrt(x^2 + y^2) and maps each
    offset through the Weibull approximation (default) or the exact clipping
    transmittance.  Identical seed and parameters give an identical sequence.

    Parameters
    ----------
    geometry : BeamGeometry
    seed : int
        Seed for the pseudo-random generator.
    n : int
        Number of samples, >= 1.
    model : {"approx", "exact"}

    Returns
    -------
    ndarray
        n intensity transmittance values in [0, 1].

    Raises
    ------
    ArithmeticError
        If a/W is too large: the exact kernel is nan near r = 1 from about
        5e4, the Weibull fit from about 1.5e5.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if model not in ("approx", "exact"):
        raise ValueError(f"model must be 'approx' or 'exact', got {model!r}")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(geometry.sigma_b2)
    x = rng.normal(0.0, sigma, size=n)
    y = rng.normal(0.0, sigma, size=n)
    r = np.hypot(x, y)
    if model == "approx":
        return eta_approx(r, weibull_params(geometry.a_over_W))
    return _no_nan(_eta_exact(r, geometry.a_over_W), geometry.a_over_W)
