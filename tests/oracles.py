"""Independent reference computations the tests compare against.

Each oracle deliberately takes a different route than the library: a plain
trapezoid grid in the offset instead of a Gauss-Legendre rule in its log,
scalar arithmetic instead of matrix conditioning, published closed forms
instead of numerical matching.
For symplectic spectra the library factors gamma = L L^T and runs the
Hermitian eigensolver on i L^T Omega L; `symplectic_eigs_iomega` runs the
general (non-Hermitian) eigensolver on i Omega gamma itself, and
`holevo_scalar` takes the closed-form determinant invariants.  Agreement is
then evidence, not tautology.  `holevo_decimal` evaluates those invariants in
40-digit decimal arithmetic, where their cancellation costs nothing, and
`entropy_decimal` takes g(nu) from its defining formula the same way.

For the exact transmittance there are three routes.  The exact branches
of `eta_of_offset` and `fading_moments` use `scipy.stats.ncx2.cdf`, which
(scipy 1.17) evaluates `scipy.special.chndtr`, CDFLIB's sum of central
chi^2 CDFs weighted by Poisson terms; the library sums the Poisson-mixture
series on its own (and Hankel's expansion for large k r), with no scipy.
`eta_rice_quadrature` integrates the Rice density of the beam's distance
from the aperture center, and `eta_disc_2d` the beam's intensity over the
disc.  chndtr is the loosest of the three.  Against 50-digit mpmath it is
off by up to 2e-13 relative below a/W 10 and 5.8e-12 up to a/W 1e3, on 3000
offsets r <= 1 + sqrt(300/k), k = 4 (a/W)^2.  At r = 1 + sqrt(300/k) itself
it is 3e-10 off the library and `eta_rice_quadrature` (which agree to 5e-14)
at a/W 1e3, and beyond it it returns 0 where eta is not: for eta = 9.9e-77
at a/W 1 and 5.6e-133 at a/W 10.  The tolerances of the comparisons that
use it are set by chndtr, not by the library.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import i0e, i1e
from scipy.stats import ncx2

from beamfade.channel import eta_approx, exact_eta_at_offset, weibull_params

# symplectic form, (x1, p1, x2, p2) ordering
OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def eta_disc_2d(r, a_over_W, n_rho=1001, n_phi=256):
    """Transmitted power fraction by brute-force integration over the disc.

    Polar grid on the unit aperture: trapezoid in angle (periodic, so the
    rule is spectrally accurate), composite Simpson in radius.  Accurate to
    ~1e-10 relative at these grid sizes, comfortably beyond the 1e-6 the
    comparisons demand.
    """
    w = 1.0 / a_over_W
    rho = np.linspace(0.0, 1.0, n_rho)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    rr, pp = np.meshgrid(rho, phi, indexing="ij")
    d2 = rr * rr + r * r - 2.0 * rr * r * np.cos(pp)
    intensity = (2.0 / (np.pi * w * w)) * np.exp(-2.0 * d2 / (w * w)) * rr
    inner = intensity.mean(axis=1) * 2.0 * np.pi
    h = rho[1] - rho[0]
    weights = np.ones(n_rho)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.sum(weights * inner) * h / 3.0)


def eta_rice_quadrature(r, a_over_W):
    """Transmitted power fraction by adaptive quadrature of a Rice density.

    The beam center's distance rho from the aperture center, for a center
    drawn from N(r, I/k), k = 4 (a/W)^2, has the Rice density
    k rho exp(-k (rho - r)^2 / 2) i0e(k rho r), and eta is its mass on
    [0, 1].  It is integrated in t = sqrt(k) (rho - r), whose Gaussian
    exp(-t^2 / 2) no rounding of rho disturbs, on panels split at the peak
    (or, beyond the rim, at the rim) and 1, 3 and 10 widths from it, a width
    being 1 or, beyond the rim, the exponential fall 1 / (sqrt(k) (r - 1)).
    Within 2.5e-14 of 50-digit mpmath on 40 offsets for a/W in [1e-3, 1e3],
    and within 2e-16 a few widths off the rim at a/W 2e5 and 1e6 (measured).
    """
    k = 4.0 * a_over_W * a_over_W
    root = math.sqrt(k)
    top = (1.0 - r) * root
    if r > 1.0:
        width = min(1.0, 1.0 / (root * (r - 1.0)))
        lo, peak = max(-r * root, top - 60.0 * width), top
    else:
        width = 1.0
        lo, peak = max(-r * root, -40.0), 0.0
    edges = {lo, peak, top}
    for n in (1.0, 3.0, 10.0):
        edges.update((max(lo, peak - n * width), min(top, peak + n * width)))
    edges = sorted(edges)

    def density(t):
        rho = r + t / root
        return root * rho * math.exp(-0.5 * t * t) * float(i0e(k * rho * r))

    return sum(quad(density, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
               for a, b in zip(edges, edges[1:]))


def symplectic_eigs_iomega(matrix):
    """Symplectic spectrum from the eigenvalues of i Omega gamma.

    The spectrum of i Omega gamma is {+-nu1, +-nu2}; sorting the absolute
    values gives each nu twice.
    """
    vals = np.linalg.eigvals(1j * OMEGA @ matrix)
    mags = np.sort(np.abs(vals))
    return float(mags[3]), float(mags[1])


def _g(nu):
    if nu <= 1.0:
        return 0.0
    up = (nu + 1.0) / 2.0
    dn = (nu - 1.0) / 2.0
    return up * math.log2(up) - dn * math.log2(dn)


def holevo_scalar(v, epsilon, eta_mean, sqrt_eta_mean):
    """Holevo bound by scalar arithmetic on the 2x2 block structure.

    For the state A = v I, B = b I, C = c diag(1, -1) the two-mode
    symplectic spectrum and the x-homodyne conditional state have closed
    forms; no matrix routine is involved.
    """
    t_eff = sqrt_eta_mean**2
    b = 1.0 + eta_mean * (v - 1.0) + t_eff * epsilon
    c = sqrt_eta_mean * math.sqrt(v * v - 1.0)
    delta = v * v + b * b - 2.0 * c * c
    det_full = (v * b - c * c) ** 2
    disc = math.sqrt(max(delta * delta - 4.0 * det_full, 0.0))
    nu1 = math.sqrt((delta + disc) / 2.0)
    nu2 = math.sqrt(max((delta - disc) / 2.0, 0.0))
    # condition mode 1 on an x homodyne of mode 2
    cond_xx = v - c * c / b
    nu_cond = math.sqrt(cond_xx * v)
    return _g(nu1) + _g(nu2) - _g(nu_cond)


def entropy_decimal(nu):
    """g(nu) in bits from its defining formula, in decimal arithmetic.

    The two terms of g are each about (nu/2) log2(nu) and cancel to about
    log2(nu), so the precision is 40 digits plus the log10(nu) digits the
    cancellation costs.  Returns a Decimal.
    """
    with localcontext() as ctx:
        nu = Decimal(nu)
        ctx.prec = 40 + max(nu.adjusted(), 0)
        if nu <= 1:
            return Decimal(0)
        up, dn = (nu + 1) / 2, (nu - 1) / 2
        return (up * up.ln() - dn * dn.ln()) / Decimal(2).ln()


def holevo_decimal(v, epsilon, eta_mean, sqrt_eta_mean):
    """Holevo bound of the faded TMSV from the invariants, to 40 digits.

    The channel enters through <eta> and T_eff = <sqrt(eta)>^2 rounded to
    float64, as in `effective_channel`; every float converts to Decimal
    exactly, so this is the bound of the very state a float64 route is given.
    Near a pure-loss channel at large v, the determinant v b - c^2 of a
    float64 matrix loses about v^2 eps, and g(nu) has infinite slope at
    nu = 1; at 40 digits that costs nothing.  An <eta> a rounding error
    below T_eff (no wandering) is raised to T_eff, as `FadingStats` clamps
    Var(sqrt(eta)) at 0.
    """
    t_eff = sqrt_eta_mean**2
    with localcontext() as ctx:
        ctx.prec = 40
        v, epsilon, eta_mean, t = map(
            Decimal, (v, epsilon, max(eta_mean, t_eff), t_eff))
        b = 1 + eta_mean * (v - 1) + t * epsilon
        c_sq = t * (v * v - 1)
        det = v * b - c_sq
        delta = v * v + b * b - 2 * c_sq
        nu1 = ((delta + max(delta * delta - 4 * det * det, Decimal(0)).sqrt())
               / 2).sqrt()
        g = entropy_decimal
        chi = g(nu1) + g(det / nu1) - g((v * det / b).sqrt())
        return float(chi)


def weibull_closed_form(a_over_W):
    """Vasylyev-Semenov-Vogel Weibull parameters in closed form.

    PRL 108, 220501 (2012), with x = 4 (a/W)^2 and the rim transmittance
    eta(1) = (1 - e^-x I0(x)) / 2:

        lam = 2x e^-x I1(x) / (1 - e^-x I0(x)) / ln(2 t0^2 / (1 - e^-x I0(x)))
        R = ln(2 t0^2 / (1 - e^-x I0(x)))^(-1/lam)

    Returns (t0^2, lam, R), R in aperture-radius units.  No quadrature is
    involved, unlike the library's value-and-slope matching at the rim.
    """
    x = 4.0 * a_over_W**2
    t0_sq = -math.expm1(-0.5 * x)
    rim = 1.0 - float(i0e(x))
    log_term = math.log(2.0 * t0_sq / rim)
    lam = 2.0 * x * float(i1e(x)) / rim / log_term
    return t0_sq, lam, log_term ** (-1.0 / lam)


def eta_of_offset(r, a_over_W, model="approx"):
    """Transmittance at offsets r: Weibull form or noncentral chi^2 CDF.

    The exact power fraction of a Gaussian beam (intensity ~ exp(-2 d^2/W^2))
    inside the unit disc is P(|X| <= 1) for X ~ N(r, w^2/4 I), w = W/a, a
    noncentral chi^2 CDF with 2 degrees of freedom.
    """
    r = np.asarray(r, dtype=float)
    if model == "approx":
        t0_sq, lam, scale = weibull_closed_form(a_over_W)
        return t0_sq * np.exp(-((r / scale) ** lam))
    k = 4.0 * a_over_W**2
    return ncx2.cdf(k, 2, k * r * r)


def fading_moments(a_over_W, sigma_b2, model="approx"):
    """(<eta>, <sqrt(eta)>) by trapezoid rule on a plain grid in the offset r.

    The Rayleigh density (r/sigma_b2) exp(-r^2/(2 sigma_b2)) is cut where it
    falls below e^-46.  With 40001 points the leading trapezoid error
    h^2/12 * f'(0) is at most 92 / (12 * 40000^2) < 5e-9, whatever sigma_b2.
    """
    r = np.linspace(0.0, math.sqrt(92.0 * sigma_b2), 40001)
    density = r / sigma_b2 * np.exp(-r * r / (2.0 * sigma_b2))
    eta = eta_of_offset(r, a_over_W, model)
    h = r[1] - r[0]

    def trapezoid(f):
        return float(h * (f.sum() - 0.5 * (f[0] + f[-1])))

    return trapezoid(density * eta), trapezoid(density * np.sqrt(eta))


def weibull_moments_mp(t0, lam, scale, sigma_b2):
    """(<T>, <T^2>, Var(T)) of the Weibull form, in 40-digit mpmath arithmetic.

    T(r) = t0 exp(-(r/scale)^lam / 2) is taken from the library's (t0, lam,
    scale), and the offset's Rayleigh law becomes exp(-u) du in
    u = r^2 / (2 sigma_b2).  `mpmath.quad` integrates d = T - t0 =
    t0 expm1(-(u/u*)^(lam/2) / 2) in s = ln u over [-100, ln 150], split at
    the rim u* = scale^2 / (2 sigma_b2), and Var(T) as the integral of
    (d - <d>)^2, so no difference of nearly equal moments is formed.  The
    mass beyond that range is below e^-100.  quad's tolerance is absolute,
    so the variance is integrated again scaled by a 15-digit first value.
    """
    with mp.workdps(40):
        t0, lam, scale, sigma_b2 = map(mp.mpf, (t0, lam, scale, sigma_b2))
        s_rim = 2 * mp.log(scale) - mp.log(2 * sigma_b2)
        lo, hi = mp.mpf(-100), mp.log(150)
        # the rim's transition is 1/p wide in s, the density's peak 1 wide at s = 0
        p = max(lam / 2, 1)
        points = sorted({lo, mp.mpf(-40), mp.mpf(0), hi,
                         *(x for x in (s_rim + k / p for k in (-30, -8, -3, -1, 0, 1, 3, 8, 16))
                           if lo < x < hi)})

        def integral(f):
            return mp.quad(lambda s: mp.exp(s - mp.exp(s)) * f(s), points)

        def d(s):
            return t0 * mp.expm1(-mp.exp(lam / 2 * (s - s_rim)) / 2)

        mean_d = integral(d)
        with mp.workdps(15):
            size = abs(integral(lambda s: (d(s) - mean_d) ** 2)) or 1
        var = integral(lambda s: (d(s) - mean_d) ** 2 / size) * size
        return float(t0 + mean_d), float((t0 + mean_d) ** 2 + var), float(var)


def faded_tmsv_dense(v, epsilon, eta_mean, sqrt_eta_mean):
    """The faded TMSV assembled entry by entry, with its blocks b and c.

    A = v I, B = b I, C = c diag(1, -1), with b and c written out from the
    moments instead of taken from the library's channel map.
    """
    b = 1.0 + eta_mean * (v - 1.0) + sqrt_eta_mean**2 * epsilon
    c = sqrt_eta_mean * math.sqrt(v * v - 1.0)
    gamma = np.array([[v, 0.0, c, 0.0],
                      [0.0, v, 0.0, -c],
                      [c, 0.0, b, 0.0],
                      [0.0, -c, 0.0, b]])
    return gamma, b, c


def log_negativity_dense(v, epsilon, eta_mean, sqrt_eta_mean):
    """LN of the faded TMSV from the dense spectrum of its partial transpose.

    The partial transpose flips the sign of p2, and the smallest symplectic
    eigenvalue then comes from the general eigensolver on i Omega gamma.
    """
    gamma, _, _ = faded_tmsv_dense(v, epsilon, eta_mean, sqrt_eta_mean)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    _, nu_min = symplectic_eigs_iomega(flip @ gamma @ flip)
    return max(0.0, -math.log2(nu_min))


def holevo_dense(v, epsilon, eta_mean, sqrt_eta_mean):
    """Holevo bound of the faded TMSV from the dense i Omega gamma spectrum.

    An x homodyne of mode 2 leaves mode 1 in diag(v - c^2 / b, v), whose
    symplectic eigenvalue is the scalar sqrt(v (v - c^2 / b)).
    """
    gamma, b, c = faded_tmsv_dense(v, epsilon, eta_mean, sqrt_eta_mean)
    nu1, nu2 = symplectic_eigs_iomega(gamma)
    return _g(nu1) + _g(nu2) - _g(math.sqrt(v * (v - c * c / b)))


def key_rate_scalar(v, epsilon, beta, eta_mean, sqrt_eta_mean):
    """beta * I_AB - chi_BE with I_AB from the scalar blocks b and c.

    The sender's heterodyne leaves the receiver's quadrature with variance
    b - c^2 / (v + 1).
    """
    b = 1.0 + eta_mean * (v - 1.0) + sqrt_eta_mean**2 * epsilon
    c_sq = sqrt_eta_mean**2 * (v * v - 1.0)
    i_ab = 0.5 * math.log2(b / (b - c_sq / (v + 1.0)))
    return beta * i_ab - holevo_scalar(v, epsilon, eta_mean, sqrt_eta_mean)


def optimal_key_rate(epsilon, beta, eta_mean, sqrt_eta_mean):
    """Key rate maximized over v in [1 + 1e-6, 1e3] by bounded Brent search
    in ln v.

    Assumes the rate is unimodal in v, which holds for the channels the
    tests scan; the library instead scans a grid and refines by golden
    section.
    """
    found = minimize_scalar(
        lambda s: -key_rate_scalar(math.exp(s), epsilon, beta, eta_mean,
                                   sqrt_eta_mean),
        bounds=(math.log(1.0 + 1e-6), math.log(1e3)), method="bounded",
        options={"xatol": 1e-9})
    return -float(found.fun)


def exact_eta_mean(a_over_W, sigma_b2):
    """<eta> of the exact model in closed form, with no integral over offsets.

    The beam's intensity is a 2-D Gaussian of variance 1/k per axis,
    k = 4 (a/W)^2, and its center wanders as one of variance sigma_b2, so the
    mean intensity is their convolution, a Gaussian of variance
    1/k + sigma_b2, and the unit aperture catches
    1 - exp(-1 / (2 (1/k + sigma_b2))) of it.
    """
    k = 4.0 * a_over_W**2
    return -math.expm1(-k / (2.0 + 2.0 * k * sigma_b2))


def parse_series_loop(raw, reference=None, edge=0.01):
    """Samples of a transmittance file, read one line at a time.

    The scalar reading of the format `ingest.parse_series` reads with array
    operations: `str.splitlines()` lines, stripped; blank and '#' lines
    skipped; Python `float` per line, rejected when non-finite; divided by
    `reference`; rejected outside [-edge, 1 + edge], else clamped to [0, 1].
    Returns the list of samples or raises ValueError with the message the
    library gives, line number included.
    """
    values = []
    for number, line in enumerate(raw.splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"line {number}: cannot parse {text!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"line {number}: non-finite value {text!r}")
        if reference is not None:
            value /= reference
        if value < -edge or value > 1.0 + edge:
            raise ValueError(f"line {number}: value {value} outside [{-edge}, {1.0 + edge}]")
        values.append(min(max(value, 0.0), 1.0))
    if not values:
        raise ValueError("no samples found")
    return values


def sample_whole(geometry, seed, n, model="approx"):
    """The sampler's draw as one whole array: all n values of x, then all n of y,
    from one `numpy.random.default_rng(seed)`, mapped through the public
    transmittance of the model.  The library draws and maps in blocks."""
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(geometry.sigma_b2)
    x = rng.normal(0.0, sigma, size=n)
    y = rng.normal(0.0, sigma, size=n)
    r = np.hypot(x, y)
    if model == "approx":
        return eta_approx(r, weibull_params(geometry.a_over_W))
    return exact_eta_at_offset(r, geometry.a_over_W)


def mean_fraction(values):
    """The mean of `values`, correctly rounded: each float is a rational number,
    so their sum over the count is exact as a `Fraction`, and `float` of a
    Fraction rounds its numerator over its denominator once."""
    values = list(values)
    return float(sum(map(Fraction, values), Fraction(0)) / len(values))
