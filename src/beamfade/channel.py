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


class QuadratureError(ArithmeticError):
    """A numerical rule gave no usable value: the exact transmittance is nan,
    or the Weibull matching conditions degenerated."""


def _require(name, x, ok, rule):
    """Raise a ValueError naming `name` unless x is finite and ok holds.

    ok is the range condition, evaluated by the caller.  Scalars skip numpy,
    which would cost ten times the check; an array reports its first bad entry.
    """
    if isinstance(x, np.ndarray):
        bad = ~(np.isfinite(x) & ok)
        if not bad.any():
            return
        x = x[bad].flat[0]
    elif ok and math.isfinite(x):
        return
    raise ValueError(f"{name} must be finite and {rule}, got {x}")


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
        _require("a_over_W", self.a_over_W, self.a_over_W > 0, "> 0")
        _require("sigma_b2", self.sigma_b2, self.sigma_b2 >= 0, ">= 0")


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
        _require("t0", self.t0, 0 < self.t0 <= 1, "in (0, 1]")
        _require("lam", self.lam, self.lam > 0, "> 0")
        _require("scale", self.scale, self.scale > 0, "> 0")


def max_transmission_coefficient(a_over_W):
    """Transmission coefficient of a perfectly centered beam.

    Parameters
    ----------
    a_over_W : float or array_like
        Aperture-to-beam-size ratio(s), each > 0.

    Returns
    -------
    float or ndarray
        t0 = sqrt(1 - exp(-2 (a/W)^2)), in (0, 1]; a float for a scalar.
    """
    a_over_W = np.asarray(a_over_W, dtype=float)
    _require("a_over_W", a_over_W, a_over_W > 0, "> 0")
    with np.errstate(over="ignore"):  # (a/W)^2 is inf, t0 = 1, beyond 1.3e154
        out = np.sqrt(-np.expm1(-2.0 * a_over_W * a_over_W))
    return out if out.ndim else float(out)


def _eta_exact(r, a_over_W):
    # P(|X| <= 1) for X ~ N(r, w^2/4 I), w = W/a: a noncentral chi^2 CDF with
    # 2 degrees of freedom, equal to 1 - Q_1(2r/w, 2/w) (Marcum Q)
    from scipy.special import chndtr  # here: it doubles any command's start-up
    k = 4.0 * a_over_W * a_over_W
    # squares may overflow: an inf offset term gives 0 below, and k = inf
    # (a/W beyond 1e154) a nan that is rejected by name below; k = 0 (a/W
    # below 1e-162) divides to an infinite reach
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eta = chndtr(k, 2.0, k * np.square(r))
        # P(X_1 >= 1) bounds eta by exp(-k (r - 1)^2 / 2) / 2, which is 0 in
        # float64 beyond r = 1 + sqrt(1500 / k); chndtr is nan there from
        # k r^2 ~ 1e20
        eta = np.where(r > 1.0 + np.sqrt(np.true_divide(1500.0, k)), 0.0, eta)
    # from a/W ~ 3.7e4 on, chndtr is also nan in a band 26.8 / sqrt(k) inside r = 1
    bad = np.flatnonzero(np.isnan(eta))
    if bad.size:
        raise QuadratureError("exact transmittance is nan at a_over_W="
                              f"{np.broadcast_to(a_over_W, eta.shape).flat[bad[0]]}")
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
    QuadratureError
        If the kernel returns nan: just inside r = 1 from a/W ~ 3.7e4 on, at
        r = 1 from 1.02e5 and at every r <= 1 beyond 1e154, where (a/W)^2 overflows.
    """
    r = np.asarray(r, dtype=float)
    _require("offset r", r, r >= 0, ">= 0")
    _require("a_over_W", a_over_W, a_over_W > 0, "> 0")
    out = _eta_exact(r, a_over_W)
    return out if out.ndim else float(out)


_RIM_TERMS = 40


def _rim(k):
    """(eta(1), k i1e(k), t0^2 - eta(1)) at the rim r = 1, elementwise over k = 4 (a/W)^2.

    Q_1(a, a) = (1 + exp(-a^2) I0(a^2)) / 2 (Vasylyev, Semenov & Vogel, PRL
    108, 220501, 2012).  Below k = 22 the power series sum I1(k) and B = I0(k) - 1 =
    sum_{m>=1} (k/2)^(2m) / (m!)^2: 2 e^k eta(1) = expm1(k) - B loses under a
    bit (B <= expm1(k)/4), 2 e^k (t0^2 - eta(1)) = expm1(k/2)^2 + B none.  Above,
    Hankel's series of i0e and i1e, terms prod_{i<=j} (4 nu^2 - (2i-1)^2) / (-8k i).
    Both run over the whole array on k clipped into their branch, for _RIM_TERMS
    terms, by which every term is below 2^-56 of its sum and Hankel's still fall.
    """
    j = np.arange(1, _RIM_TERMS + 1)
    ks, kh = np.minimum(k, 22.0)[..., None], np.maximum(k, 22.0)[..., None]
    # the power terms (k/2)^(2j) / (j!)^2, and Hankel's terms of i0e, whose
    # nu = 1 terms are them times -(2j+1)/(2j-1), along the last axis
    p = np.cumprod(0.25 * ks * ks / (j * j), axis=-1)
    h = np.cumprod((2 * j - 1) ** 2 / (8.0 * kh * j), axis=-1)
    b, s0 = p.sum(axis=-1), 1.0 + h.sum(axis=-1)
    i1 = 0.5 * ks[..., 0] * (1.0 + (p / (j + 1)).sum(axis=-1))
    s1 = 1.0 - (h * (2 * j + 1) / (2 * j - 1)).sum(axis=-1)
    ks, kh = ks[..., 0], kh[..., 0]
    e = np.exp(-ks)
    below = (0.5 * e * (np.expm1(ks) - b), ks * e * i1,
             0.5 * e * (np.expm1(0.5 * ks) ** 2 + b))
    i0e = s0 / np.sqrt(2.0 * np.pi * kh)
    above = (0.5 * (1.0 - i0e), np.sqrt(kh / (2.0 * np.pi)) * s1,
             0.5 * (1.0 + i0e) - np.exp(-0.5 * kh))
    return tuple(np.where(k < 22.0, x, y) for x, y in zip(below, above))


def _weibull(a_over_W):
    """(t0, lam, scale) of `weibull_params`, elementwise over a/W checked by the caller."""
    a_over_W = np.asarray(a_over_W, dtype=float)
    with np.errstate(over="ignore"):  # near a/W ~ 6.7e153, k and 8 k
        k = 4.0 * a_over_W * a_over_W
        eta1, slope, gap = _rim(k)
    # the gap, about (a/W)^4, leaves the normal floats below a/W ~ 8.6e-78, and
    # k overflows to an infinite slope above 6.7e153; name the first such a/W
    bad = np.flatnonzero(~((gap >= 2.0**-1022) & (slope < np.inf)))
    if bad.size:
        raise QuadratureError(
            f"degenerate matching conditions at a_over_W={a_over_W.flat[bad[0]]}: "
            f"rim gap {gap.flat[bad[0]]:.3e}, rim slope {slope.flat[bad[0]]:.3e}")
    g = np.log1p(gap / eta1)
    lam = slope / eta1 / g
    return np.sqrt(-np.expm1(-0.5 * k)), lam, g ** (-1.0 / lam)


def weibull_params(a_over_W: float) -> WeibullParams:
    """Fit the Weibull-form approximation to the exact clipping transmittance.

    The approximation eta(r) ~ t0^2 exp(-(r/scale)**lam) is pinned to the
    exact transmittance by matching the value and the logarithmic derivative
    at r = 1 (beam center on the aperture rim):

        G = ln(t0^2 / eta_exact(1)),  D = -(d ln eta_exact / dr)|_{r=1},
        lam = D / G,  scale = G**(-1/lam).

    With k = 4 (a/W)^2, dQ_M(a, b)/da = a (Q_{M+1} - Q_M) gives
    d eta_exact / dr = -k exp(-k (r^2 + 1) / 2) I1(k r), so the rim slope is
    -k i1e(k).  `_rim` sums both, and t0^2 - eta_exact(1) for G by log1p, as
    power series below k = 22 and Hankel's series above, so lam -> 2 as
    a/W -> 0.  Raises QuadratureError naming a_over_W below about 8.6e-78
    and above about 6.7e153, where those sums leave the float range.
    """
    _require("a_over_W", a_over_W, a_over_W > 0, "> 0")
    return WeibullParams(*map(float, _weibull(a_over_W)))


def eta_approx(r, params: WeibullParams):
    """Weibull-form transmittance t0^2 * exp(-(r/scale)**lam) at offset r."""
    r = np.asarray(r, dtype=float)
    _require("offset r", r, r >= 0, ">= 0")
    # at large lam, (r/scale)**lam overflows to inf beyond the rim, where
    # exp(-inf) = 0 is the right transmittance
    with np.errstate(over="ignore"):
        out = params.t0**2 * np.exp(-np.power(r / params.scale, params.lam))
    return out if out.ndim else float(out)


def _offset_cdf(t, t0, lam, scale, sigma_b2):
    """(r(t), P(T <= t)), r(t) = scale (2 ln(t0/t))**(1/lam), broadcast over all five.

    t is clipped into [0, t0]: t >= t0 gives r = 0 and CDF 1, t <= 0 r = inf and CDF 0.
    """
    # + 0.0 turns a clipped -0.0 into 0.0, so t0/t is +inf there, not -inf;
    # t0/t also overflows to inf for a subnormal t
    with np.errstate(divide="ignore", over="ignore"):
        r = scale * np.power(2.0 * np.log(t0 / (np.clip(t, 0.0, t0) + 0.0)), 1.0 / lam)
    return r, np.exp(-np.square(r) / (2.0 * sigma_b2))


def pdt_density(t, params: WeibullParams, sigma_b2: float):
    """Probability density of the transmission coefficient T.

    Built by change of variables from the Rayleigh-distributed beam-center
    offset r (density f(r) = r/sigma_b2 * exp(-r^2 / (2 sigma_b2))) through the
    strictly decreasing map T(r) = t0 exp(-(1/2)(r/scale)**lam):

        p(T) = f(r(T)) * |dr/dT|,  r(T) = scale * u**(1/lam),  |dr/dT| = 2 r / (lam T u)

    with u = 2 ln(t0/T), r(T) and the exponential of f from `pdt_cdf`'s kernel.
    Zero outside the support (0, t0) and at both of its ends.

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
    _require("sigma_b2", sigma_b2, sigma_b2 > 0, "> 0")
    t = np.asarray(t, dtype=float)
    _require("t", t, True, "real")
    r, cdf = _offset_cdf(t, params.t0, params.lam, params.scale, sigma_b2)
    # |dr/dT| diverges integrably at T -> t0 for lam > 1.  Where the CDF is 0 (T <= 0,
    # or subnormal with r = inf) or T >= t0, a 0/0, inf * 0 or log(< 0) gives way to 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = 2.0 * np.log(params.t0 / t)
        density = (r / sigma_b2) * cdf * (2.0 * r / (params.lam * t * u))
    out = np.where((cdf > 0.0) & (t < params.t0), density, 0.0)
    return out if out.ndim else float(out)


def pdt_cdf(t, params: WeibullParams, sigma_b2: float):
    """Cumulative distribution of T under the same change of variables.

    P(T <= t) = P(r >= r(t)) = exp(-r(t)^2 / (2 sigma_b2)), 0 for t <= 0 and 1
    for t >= t0.  Closed form: integrating `pdt_density` reproduces it, and
    `ingest.fit_geometry` evaluates the same kernel as its model CDF.
    """
    _require("sigma_b2", sigma_b2, sigma_b2 > 0, "> 0")
    t = np.asarray(t, dtype=float)
    _require("t", t, True, "real")
    out = _offset_cdf(t, params.t0, params.lam, params.scale, sigma_b2)[1]
    return out if out.ndim else float(out)


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
        Seed for the pseudo-random generator, >= 0.
    n : int
        Number of samples, >= 1.
    model : {"approx", "exact"}

    Returns
    -------
    ndarray
        n intensity transmittance values in [0, 1].

    Raises
    ------
    QuadratureError
        If a/W is too large: the exact kernel is nan near r = 1 from about
        3.7e4, the Weibull fit from about 6.7e153, where 4 (a/W)^2 overflows.
    """
    _require("n (sample count)", n, isinstance(n, (int, np.integer))
             and not isinstance(n, bool) and n >= 1, "an integer >= 1")
    _require("seed", seed, seed >= 0, ">= 0")
    if model not in ("approx", "exact"):
        raise ValueError(f"model must be 'approx' or 'exact', got {model!r}")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(geometry.sigma_b2)
    x = rng.normal(0.0, sigma, size=n)
    y = rng.normal(0.0, sigma, size=n)
    r = np.hypot(x, y)
    if model == "approx":
        return eta_approx(r, weibull_params(geometry.a_over_W))
    return _eta_exact(r, geometry.a_over_W)
