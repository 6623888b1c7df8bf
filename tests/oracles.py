"""Independent reference computations the tests compare against.

Each oracle deliberately takes a different route than the library: plain
grid integration instead of adaptive quadrature, scalar arithmetic instead of
matrix conditioning, published closed forms instead of numerical matching.
For symplectic spectra the library factors gamma = L L^T and runs the
Hermitian eigensolver on i L^T Omega L; `symplectic_eigs_iomega` runs the
general (non-Hermitian) eigensolver on i Omega gamma itself, and
`holevo_scalar` takes the closed-form determinant invariants.  Agreement is
then evidence, not tautology.

One exception: the exact branches of `eta_of_offset` and `fading_moments`
use `scipy.stats.ncx2.cdf`, which (scipy 1.17) evaluates
`scipy.special.chndtr`, the very routine behind the library's exact
transmittance.  Comparisons through them check the parametrisation
k = 4 (a/W)^2 and, for the moments, the integration over the offset, but not
the transmittance routine itself; `eta_disc_2d` is the independent check of
that.
"""

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import i0e, i1e
from scipy.stats import ncx2

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
