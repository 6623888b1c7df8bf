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
from functools import partial

import numpy as np


class QuadratureError(ArithmeticError):
    """A numerical rule gave no usable value: 4 (a/W)^2 overflows in the exact
    transmittance, or the Weibull matching conditions degenerated."""


def _require(name, x, ok, rule):
    """x as a float array, or a ValueError that starts with `name`: each entry
    must be a real number, finite, and pass ok, a function of the float array.
    Text, complex numbers, None (nan) and ints beyond the float range fail.  A
    0-d x reports itself, an array its first bad entry."""
    try:  # same_kind refuses text and complex numbers, which numpy would parse or truncate
        a = np.asarray(x)
        v = a.astype(float, copy=False, casting="unsafe" if a.dtype.kind == "O" else "same_kind")
    except (OverflowError, TypeError, ValueError):  # also a ragged x
        entries = np.asarray(x, dtype=object)
        for e in entries.flat if entries.ndim else ():  # the first non-number raises
            _require(name, e, lambda e: True, rule)
        raise ValueError(f"{name} must be finite and {rule}, got {x!r}") from None
    good = np.isfinite(v) & ok(v)
    if good.all() and (v.size or np.all(ok(v))):  # an empty n=[] is no int: ok is one bool
        return v
    bad = v[~good] if a.ndim else ()
    raise ValueError(f"{name} must be finite and {rule}, got {bad[0] if len(bad) else x}")


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
        _require("a_over_W", self.a_over_W, lambda a: a > 0, "> 0")
        _require("sigma_b2", self.sigma_b2, lambda s: s >= 0, ">= 0")


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
        _require("t0", self.t0, lambda t: 0 < t <= 1, "in (0, 1]")
        _require("lam", self.lam, lambda lam: lam > 0, "> 0")
        _require("scale", self.scale, lambda s: s > 0, "> 0")


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
    a_over_W = _require("a_over_W", a_over_W, lambda a: a > 0, "> 0")
    with np.errstate(over="ignore"):  # (a/W)^2 is inf, t0 = 1, beyond 1.3e154
        out = np.sqrt(-np.expm1(-2.0 * a_over_W * a_over_W))
    return out if out.ndim else float(out)


# eta(r) bounds P(X_1 >= 1) by exp(-k (r - 1)^2 / 2) / 2, which is 0 in float64
# beyond r = 1 + sqrt(_REACH / k); the kernels clip offsets there
_REACH = 1500.0
# Hankel's expansion serves offsets with k r >= _HANKEL_XI, k = 4 (a/W)^2, where
# _HANKEL_TERMS terms are within 7e-16 (measured from k r = 30 on), and r <= 4,
# where its recurrence loses no digits; and every offset once k > _K_SERIES,
# taken at r >= 1/4 there, as 1 - eta is below exp(-9k/32) inside.  The
# Poisson series serves the rest, where its sums stay below exp(k/2 + sqrt(1500 k)).
_HANKEL_XI = 40.0
_HANKEL_TERMS = 16
_K_SERIES = 200.0
_SERIES_TABLES = 256


def _series_terms(kr):
    """Terms of a Poisson series whose terms peak near j = kr/2: the peak and 6
    standard deviations beyond it, after which further terms change no bit
    (with 5, the last bit of 165 in 4e5 entries moved, measured)."""
    return np.ceil(0.5 * kr + 6.0 * np.sqrt(kr + 1.0) + 10.0).astype(np.intp)


def _power_sum(x, row, coef, count):
    """sum_j coef[row, j] x^j for j <= count, over a 1-D array of entries.

    The terms are summed upwards, each from the last by the ratio of its
    coefficient to the one before; entries in falling term count, so that the
    entries still summing are a prefix.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(coef[:, :-1] > 0.0, coef[:, 1:] / coef[:, :-1], 0.0).T.copy()
    # a 16-bit key sorts by radix
    order = np.argsort(-count.astype(np.int16), kind="stable")
    x, row, count = x[order], row[order], count[order]
    term = coef[row, 0]
    total = term.copy()
    for i, m in enumerate(np.searchsorted(
            -count, -np.arange(1, count.max(initial=0) + 1), side="right")):
        term[:m] *= x[:m]
        term[:m] *= ratio[i][row[:m]]
        total[:m] += term[:m]
    out = np.empty_like(total)
    out[order] = total
    return out


def _eta_series(r, k, row):
    """eta at offsets r, elementwise, r[i] by the table of k[row[i]], k a column <= _K_SERIES.

    With N1 ~ Poisson(k/2) and N2 ~ Poisson(k r^2/2), eta = P(N1 - N2 >= 1)
    (Johnson, Kotz & Balakrishnan, Continuous Univariate Distributions 2, ch. 29)
    = exp(-k r^2/2) sum_j P(N1 > j) (k/2)^j/j! r^(2j), and 1 - eta the same sum
    with P(N1 <= j).  Every term is >= 0.  Offsets more than 1/sqrt(k) inside
    the rim, where eta > 1/2, take 1 - eta, which keeps eta near 1 to an ulp.
    Each entry runs for its own term count, so that it is the same in every call.
    """
    reach = 1.0 + np.sqrt(_REACH / np.maximum(k, 1e-300))
    # (k/2)^j/j! and P(N1 = j), to a length set by k alone, so that P(N1 > j),
    # summed down from its end, is the same in every call
    size = _series_terms(k * reach)
    j = np.arange(1, size.max(initial=0) + 1)
    lam = 0.5 * k
    power = np.cumprod(np.concatenate(
        [np.ones_like(lam), np.where(j <= size, lam / j, 0.0)], axis=1), axis=1)
    pmf = np.exp(-lam) * power
    tail = np.concatenate([np.cumsum(pmf[:, :0:-1], axis=1)[:, ::-1],
                           np.zeros_like(lam)], axis=1)
    # coefficient rows 2i for eta and 2i + 1 for 1 - eta by table i
    coef = np.stack([tail, np.cumsum(pmf, axis=1)], axis=1) * power[:, None]
    r, k = np.minimum(r, reach[row, 0]), k[row, 0]
    x = r * r
    inside = r < 1.0 - 1.0 / np.sqrt(np.maximum(k, 1e-300))
    # the terms P(N2 = j) P(N1 > j) (or <= j) peak near j = k r/2, as Bessel's
    # I_j(k r) do, or near k/2 for offsets near the rim taking eta itself
    eta = _power_sum(x, 2 * row + inside, coef.reshape(-1, coef.shape[-1]),
                     _series_terms(k * np.where(inside, r, np.maximum(r, 1.0))))
    # exp(-k x / 2) in two halves, each applied in turn, which keeps them and
    # every partial product inside the float range
    half = np.exp(-0.25 * k * x)
    eta *= half
    eta *= half
    return np.where(inside, 1.0 - eta, eta)


# W. J. Cody, Math. Comp. 23 (1969) 631, as in his CALERF: numerator and
# denominator coefficients, highest power first, of erf(y)/y in y^2 up to
# y = 0.46875, of exp(y^2) erfc(y) in y up to 4 and of its remainder in 1/y^2 beyond
_CODY = (
    ((1.85777706184603153e-1, 3.16112374387056560, 1.13864154151050156e2,
      3.77485237685302021e2, 3.20937758913846947e3),
     (1.0, 2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
      2.84423683343917062e3)),
    ((2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594,
      6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
      1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3),
     (1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
      1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
      3.43936767414372164e3, 1.23033935480374942e3)),
    ((1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
      1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
     (1.0, 2.56852019228982242, 1.87295284992346725, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)),
)


def _erfcx(y):
    """exp(y^2) erfc(y) for y >= 0, within 7e-16 relative (measured)."""
    def rational(i, v):
        return np.polyval(_CODY[i][0], v) / np.polyval(_CODY[i][1], v)
    s = np.minimum(y, 0.46875)
    m = np.clip(y, 0.46875, 4.0)
    v = 1.0 / np.square(np.maximum(y, 4.0))
    return np.where(y < 0.46875, np.exp(s * s) * (1.0 - s * rational(0, s * s)),
                    np.where(y < 4.0, rational(1, m),
                             (1.0 / math.sqrt(math.pi) - v * rational(2, v)) * np.sqrt(v)))


_HANKEL_J = np.arange(1, _HANKEL_TERMS + 1)
# Hankel's coefficients of e^-t I0(t) and e^-t I1(t) in (2 pi t)^(-1/2) t^-n
_HANKEL_I0 = np.cumprod((2 * _HANKEL_J - 1) ** 2 / (8.0 * _HANKEL_J))
_HANKEL_I1 = np.cumprod((2 * _HANKEL_J - 3) * (2 * _HANKEL_J + 1) / (8.0 * _HANKEL_J))


def _eta_hankel(r, k):
    """eta, elementwise, by the expansion for large xi = k r (see _HANKEL_XI).

    Along rho = 1/r fixed, Q_1 (of which eta is the complement inside the rim
    and the whole outside it) changes with xi as e^-((1 + sigma) xi) times
    I1(xi) - rho I0(xi), sigma = (1 - r)^2 / (2r) (A. Gil, J. Segura & N. M.
    Temme, ACM TOMS 40, 20, 2014).  Hankel's series of e^-t I(t), integrated
    from xi on, gives e^-z (erfcx(sqrt z) / (2 sqrt r) + b), z = sigma xi, with
    b = sum_n (c0_n/r - c1_n) phi_n / (2 sqrt(2 pi)), c0 and c1 the coefficients
    of I0 and I1, and phi_n = e^z times the integral of e^(-sigma t) t^(-n-1/2)
    from xi on, by its forward recurrence.  Offsets below 1/4 (served only for
    k > 160) take the value there, which rounds to 1 as theirs does: 1 - eta is
    below exp(-9k/32) from 1/4 inward.
    """
    # the reach stays 1e-6 off the rim, where 1 + sqrt(1500/k) would round onto
    # it (from k ~ 1e35); eta is 0 beyond either
    r = np.clip(r, 0.25, 1.0 + np.maximum(np.sqrt(_REACH / k), 1e-6))
    xi = k * r
    z = 0.5 * k * np.square(1.0 - r)
    sigma = np.square(1.0 - r) / (2.0 * r)
    ex = _erfcx(np.sqrt(z))
    sigma_phi = np.abs(1.0 - r) * np.sqrt(0.5 * math.pi / r) * ex
    b, power = 0.0, 1.0 / np.sqrt(xi)
    for n in range(_HANKEL_TERMS):
        phi = (power - sigma_phi) / (n + 0.5)
        b = b + (_HANKEL_I0[n] / r - _HANKEL_I1[n]) * phi
        power, sigma_phi = power / xi, sigma * phi
    ez = np.exp(-z)
    a, b = ez * ex / (2.0 * np.sqrt(r)), ez * b / (2.0 * math.sqrt(2.0 * math.pi))
    return np.where(r < 1.0, 1.0 - a - b, a - b)


def _eta_exact(r, a_over_W):
    """eta(r) = P(|X| <= 1), X ~ N(r, I/k), k = 4 (a/W)^2, elementwise over r and a/W.

    Within 5e-15 of 50-digit mpmath down to eta = 1e-300 (measured), by the
    Poisson series or Hankel's expansion (see _HANKEL_XI); the series builds one
    table per distinct a/W, _SERIES_TABLES at a time.  Raises QuadratureError
    naming the first a/W, in its array's order, whose k overflows (above about 6.7e153).
    """
    r, a_over_W = np.asarray(r, dtype=float), np.asarray(a_over_W, dtype=float)
    with np.errstate(over="ignore"):
        k = 4.0 * a_over_W * a_over_W
        bad = np.flatnonzero(k == np.inf)
        if bad.size:
            raise QuadratureError("exact transmittance needs 4 (a/W)^2 finite, "
                                  f"not at a_over_W={a_over_W.flat[bad[0]]}")
        # every k beyond _K_SERIES is served by Hankel's expansion
        ks, row = np.unique(np.minimum(k, _K_SERIES), return_inverse=True)
        r, k, row = np.broadcast_arrays(r, k, row.reshape(k.shape))
        far = ((k * r >= _HANKEL_XI) & (r <= 4.0)) | (k > _K_SERIES)
        eta = np.empty(r.shape)
        if far.any():  # k r may overflow within 1e-6 of the largest k
            eta[far] = _eta_hankel(r[far], k[far])
    # the series' tables take a few kB each, so they go in blocks
    for i in range(0, ks.size, _SERIES_TABLES):
        part = ~far & (row >= i) & (row < i + _SERIES_TABLES)
        if part.any():  # Hankel's expansion may serve a whole block
            eta[part] = _eta_series(r[part], ks[i:i + _SERIES_TABLES, None], row[part] - i)
    return eta


def exact_eta_at_offset(r, a_over_W):
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
    a_over_W : float or array_like
        Aperture-to-beam-size ratio(s), each > 0, broadcast against r.

    Returns
    -------
    float or ndarray
        eta in [0, 1 - exp(-2 (a/W)^2)], elementwise over the broadcast of r and
        a/W; a float when both are scalars.

    Raises
    ------
    QuadratureError
        If an a/W is above about 6.7e153, where k = 4 (a/W)^2 overflows.
    """
    r = _require("offset r", r, lambda r: r >= 0, ">= 0")
    out = _eta_exact(r, _require("a_over_W", a_over_W, lambda a: a > 0, "> 0"))
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
    a_over_W = _require("a_over_W", a_over_W, lambda a: a > 0, "> 0")
    return WeibullParams(*map(float, _weibull(a_over_W)))


def eta_approx(r, params: WeibullParams):
    """Weibull-form transmittance t0^2 * exp(-(r/scale)**lam) at offset r."""
    r = _require("offset r", r, lambda r: r >= 0, ">= 0")
    # at large lam, (r/scale)**lam overflows to inf beyond the rim, where
    # exp(-inf) = 0 is the right transmittance
    with np.errstate(over="ignore"):
        out = params.t0**2 * np.exp(-np.power(r / params.scale, params.lam))
    return out if out.ndim else float(out)


def _offset_cdf(t, t0, lam, scale, sigma_b2):
    """(u, r(t), P(T <= t)), u = 2 ln(t0/t), r(t) = scale u**(1/lam), broadcast over all five.

    t is clipped into [0, t0]: t >= t0 gives r = 0 and CDF 1, t <= 0 r = inf and CDF 0.
    """
    # + 0.0 turns a clipped -0.0 into 0.0, so t0/t is +inf there, not -inf
    t = np.clip(t, 0.0, t0) + 0.0
    tiny = t < np.finfo(float).tiny
    with np.errstate(divide="ignore", over="ignore"):
        u = 2.0 * np.log(t0 / t)
        if tiny.any():  # where t0/t overflows, ln t0 - ln t does not
            u = np.where(tiny, 2.0 * (np.log(t0) - np.log(t)), u)
        r = scale * np.power(u, 1.0 / lam)
    return u, r, np.exp(-np.square(r) / (2.0 * sigma_b2))


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
    _require("sigma_b2", sigma_b2, lambda s: s > 0, "> 0")
    t = _require("t", t, lambda t: True, "real")
    u, r, cdf = _offset_cdf(t, params.t0, params.lam, params.scale, sigma_b2)
    # |dr/dT| diverges integrably at T -> t0 for lam > 1.  Where T <= 0 or T >= t0,
    # a 0/0 or inf * 0 gives way to 0.  Dividing by T last keeps a subnormal T from
    # overflowing |dr/dT| where f(r) is small.  Where the CDF factor leaves the
    # normal floats, the density is one exponential of its summed logarithms
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        density = np.where(
            cdf >= np.finfo(float).tiny,
            (r / sigma_b2) * cdf * (2.0 * r / (params.lam * u)) / t,
            np.exp(2.0 * np.log(r) - np.square(r) / (2.0 * sigma_b2) - np.log(t)
                   - np.log(u) + math.log(2.0 / params.lam) - math.log(sigma_b2)))
    out = np.where((t > 0.0) & (t < params.t0), density, 0.0)
    return out if out.ndim else float(out)


def pdt_cdf(t, params: WeibullParams, sigma_b2: float):
    """Cumulative distribution of T under the same change of variables.

    P(T <= t) = P(r >= r(t)) = exp(-r(t)^2 / (2 sigma_b2)), 0 for t <= 0 and 1
    for t >= t0.  Closed form: integrating `pdt_density` reproduces it, and
    `ingest.fit_geometry` evaluates the same kernel as its model CDF.
    """
    _require("sigma_b2", sigma_b2, lambda s: s > 0, "> 0")
    t = _require("t", t, lambda t: True, "real")
    out = _offset_cdf(t, params.t0, params.lam, params.scale, sigma_b2)[2]
    return out if out.ndim else float(out)


_SAMPLE_BLOCK = 65536  # offsets the sampler draws and maps at a time


def _sample_blocks(geometry: BeamGeometry, seed: int, n: int, model: str):
    """`sample_transmittance`'s samples, as a generator of blocks of _SAMPLE_BLOCK,
    returned once every check has passed: n, seed, model and the model's limit
    in a/W.  y comes from a second generator of the seed that has drawn and
    discarded n values, so the blocks join into the draw of x, then of y."""
    for name, x, least in (("n (sample count)", n, 1), ("seed", seed, 0)):
        _require(name, x, lambda v: isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                 and v >= least, f"an integer >= {least}")
    if model not in ("approx", "exact"):
        raise ValueError(f"model must be 'approx' or 'exact', got {model!r}")
    if model == "approx":
        eta = partial(eta_approx, params=weibull_params(geometry.a_over_W))
    else:
        _eta_exact(0.0, geometry.a_over_W)  # raises where 4 (a/W)^2 overflows
        eta = partial(_eta_exact, a_over_W=geometry.a_over_W)
    sigma = math.sqrt(geometry.sigma_b2)
    sizes = [min(_SAMPLE_BLOCK, n - start) for start in range(0, n, _SAMPLE_BLOCK)]
    xs, ys = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in sizes:
        ys.normal(0.0, sigma, size=size)
    return (eta(np.hypot(xs.normal(0.0, sigma, size=size), ys.normal(0.0, sigma, size=size)))
            for size in sizes)


def sample_transmittance(geometry: BeamGeometry, seed: int, n: int,
                         model: str = "approx") -> np.ndarray:
    """Monte-Carlo sample of intensity transmittances eta.

    Draws the beam-center coordinates x, y independently from a zero-mean
    normal with variance sigma_b2, sets r = sqrt(x^2 + y^2) and maps each
    offset through the Weibull approximation (default) or the exact clipping
    transmittance.  Identical seed and parameters give an identical sequence:
    all of x, then all of y, from `numpy.random.default_rng(seed)`, drawn and
    mapped in blocks of 65536 that the result joins (16 B per sample at peak).

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
        If a/W is above about 6.7e153, where 4 (a/W)^2 overflows in either model.
    """
    return np.concatenate([*_sample_blocks(geometry, seed, n, model)])
