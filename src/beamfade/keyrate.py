"""Collective-attack key-rate lower bound for coherent-state CV QKD.

Coherent states with Gaussian quadrature modulation, homodyne detection at
the receiver and reverse reconciliation, analyzed in the equivalent
entanglement-based picture: the sender heterodynes one arm of a two-mode
squeezed vacuum of variance V, which prepares coherent states of modulation
variance V - 1 on the other arm.  The asymptotic rate is

    KR = beta * I_AB - chi_BE

with I_AB the Shannon mutual information of the trusted parties, chi_BE the
Holevo bound on the eavesdropper's information about the receiver's data and
beta the post-processing efficiency.

All of it is computed by array kernels over the closed-form invariants of the
faded state; the scalar functions below wrap them for one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _require
from .fading import FadingStats

V_SEARCH_MAX = 1e3
# largest accepted state variance: the kernels' product V^3 Var(sqrt(eta))
# overflows near V = 9e102 when Var(sqrt(eta)) takes its largest value, 1/4
V_MAX = 1e100
# largest accepted excess noise: with V and epsilon at their limits the
# kernels' largest product, V^2 <sqrt(eta)>^2 epsilon in V D, is 1e300
EPSILON_MAX = 1e100
V_SEARCH_MIN = 1.0 + 1e-6
V_GRID_POINTS = 64

_LN2 = math.log(2.0)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _check_noise_and_efficiency(epsilon, beta):
    _require("epsilon (excess noise)", epsilon, lambda e: 0.0 <= e <= EPSILON_MAX,
             f"in [0, {EPSILON_MAX:g}] SNU")
    _require("beta", beta, lambda b: 0.0 < b <= 1.0, "in (0, 1]")


@dataclass(frozen=True)
class ProtocolParams:
    """Coherent-state protocol knobs.

    Attributes
    ----------
    v : float
        State quadrature variance in SNU (entanglement-based picture), in
        [1, V_MAX]; the coherent-state modulation variance is v - 1.
    epsilon : float
        Fixed channel excess noise in SNU, referred to the channel input, in
        [0, EPSILON_MAX].
    beta : float
        Post-processing efficiency, in (0, 1].
    """

    v: float
    epsilon: float = 0.01
    beta: float = 0.97

    def __post_init__(self):
        _require("v (state variance)", self.v, lambda v: 1.0 <= v <= V_MAX,
                 f"in [1, {V_MAX:g}] SNU")
        _check_noise_and_efficiency(self.epsilon, self.beta)


def _entropy(nu):
    """g(nu) in bits, elementwise, as log2(1 + x) + x log2(1 + 1/x).

    x = (nu - 1)/2; both terms are non-negative, so large nu loses no digits,
    and nu <= 1 (a pure mode, up to rounding) gives 0.
    """
    x = np.maximum(nu - 1.0, 0.0) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(x > 0.0, x * np.log1p(1.0 / x), 0.0)
    return (np.log1p(x) + tail) / _LN2


def _faded_tmsv(v, eta_mean, sqrt_eta_mean, epsilon):
    """Invariants of the TMSV of variance V after the fading channel.

    The state is A = V I, B = b I, C = c diag(1, -1) with
    b = 1 + <eta>(V - 1) + t epsilon and c^2 = t (V^2 - 1), t = <sqrt(eta)>^2
    (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)).  Returns t,
    var = <eta> - t, the input-referred noise t epsilon, b, c and
    D = V b - c^2 = V (1 - <eta>) + V^2 var + t (1 + V epsilon), a sum of
    non-negative terms.
    """
    t = sqrt_eta_mean**2
    var = np.maximum(eta_mean - t, 0.0)
    noise = t * epsilon
    b = 1.0 + eta_mean * (v - 1.0) + noise
    c = np.sqrt(t * (v - 1.0) * (v + 1.0))
    d = v * (1.0 - eta_mean) + v * v * var + t * (1.0 + v * epsilon)
    return t, var, noise, b, c, d


@np.errstate(over="raise", invalid="raise")
def _rates(v, eta_mean, sqrt_eta_mean, epsilon, beta):
    """(I_AB, chi_BE, KR) of the faded TMSV, broadcast over all arguments.

    With the invariants of `_faded_tmsv`, every quantity below is a sum of
    non-negative terms (|V - b| is only ever added), so nothing cancels near
    pure states or at large V:

    - the sender's heterodyne leaves the receiver's x with variance
      V_B|A = 1 + var (V - 1) + t epsilon, and I_AB = log2(b / V_B|A) / 2;
    - the symplectic eigenvalues obey nu1 - nu2 = |V - b|, nu1 nu2 = D and
      nu1 + nu2 = S, S^2 = (V + b - 2c)(V + b + 2c), where
      V + b - 2c = l^2 + var (V - 1) + t epsilon and
      l = sqrt(V + 1) - sqrt(t (V - 1)), taken in rationalised form;
    - an x homodyne of mode 2 leaves mode 1 with nu_cond = sqrt(V D / b).

    Overflow, far beyond any physical V, raises FloatingPointError.
    """
    t, var, noise, b, c, d = _faded_tmsv(v, eta_mean, sqrt_eta_mean, epsilon)
    i_ab = np.log1p(t * (v - 1.0) / (1.0 + var * (v - 1.0) + noise)) / (2.0 * _LN2)
    ell = ((1.0 - t) * v + 1.0 + t) / (np.sqrt(v + 1.0) + np.sqrt(t * (v - 1.0)))
    s = np.sqrt((ell * ell + var * (v - 1.0) + noise) * (v + b + 2.0 * c))
    nu1 = 0.5 * (s + np.abs((1.0 - eta_mean) * (v - 1.0) - noise))
    chi = _entropy(nu1) + _entropy(d / nu1) - _entropy(np.sqrt(v * d / b))
    return i_ab, chi, beta * i_ab - chi


@np.errstate(over="raise", invalid="raise")
def _log_negativity(v, eta_mean, sqrt_eta_mean, epsilon):
    """LN of the faded TMSV, max{0, -log2 nu~}, broadcast over all arguments.

    The partial transpose has nu~ nu~' = D and nu~ + nu~' = V + b, so its
    smaller symplectic eigenvalue is nu~ = 2D / (V + b + sqrt((V - b)^2 + 4c^2))
    without cancellation, however pure the state.
    """
    _, _, _, b, c, d = _faded_tmsv(v, eta_mean, sqrt_eta_mean, epsilon)
    nu = 2.0 * d / (v + b + np.hypot(v - b, 2.0 * c))
    return np.maximum(0.0, -np.log2(nu)) + 0.0  # + 0 turns the -0 of nu~ = 1 into +0


def _point(params: ProtocolParams, stats: FadingStats):
    return _rates(params.v, stats.eta_mean, stats.sqrt_eta_mean,
                  params.epsilon, params.beta)


def mutual_information(params: ProtocolParams, stats: FadingStats) -> float:
    """Shannon mutual information of the trusted parties, bits per symbol.

    The receiver homodynes one quadrature; the sender's heterodyne outcome
    conditions it to variance V_B|A = V_B - T_eff (V^2 - 1)/(V + 1), giving
    I_AB = (1/2) log2(V_B / V_B|A).
    """
    return float(_point(params, stats)[0])


def holevo_bound(params: ProtocolParams, stats: FadingStats) -> float:
    """Holevo bound on the eavesdropper's information, bits per symbol.

    Purification argument: the eavesdropper holds everything the channel
    discards, so chi_BE = S(gamma) - S(gamma_A|b) with gamma the shared
    state after the channel and gamma_A|b the sender mode conditioned on the
    receiver's x homodyne.
    """
    return float(_point(params, stats)[1])


def key_rate(params: ProtocolParams, stats: FadingStats) -> float:
    """Asymptotic collective-attack lower bound beta*I_AB - chi_BE, unclamped."""
    return float(_point(params, stats)[2])


@dataclass(frozen=True)
class ModulationOptimum:
    """Result of the modulation-variance search.

    at_cap marks a maximizer at the top of the search domain (the rate keeps
    growing in V, e.g. a noiseless lossless channel); all_negative marks a
    channel with no positive rate anywhere, in which case v_opt is the
    least-negative point.
    """

    v_opt: float
    kr_opt: float
    at_cap: bool = False
    all_negative: bool = False


def _optimize(eta_mean, sqrt_eta_mean, epsilon, beta):
    """The search of `optimize_modulation` for many channels in lockstep.

    The arguments broadcast to one 1-D array of channels.  The coarse grid is
    one kernel call for all of them; golden section then advances every
    channel whose bracket is still wider than the stopping rule, one kernel
    call per step, so each channel takes exactly the steps it would take
    alone.  Returns the arrays (v_opt, kr_opt, at_cap, all_negative).
    """
    channels = np.broadcast_arrays(
        *np.atleast_1d(eta_mean, sqrt_eta_mean, epsilon, beta))

    def rate(v, idx=slice(None)):
        return _rates(v, *(x[idx] for x in channels))[2]

    def unconverged(idx):
        return idx[hi[idx] - lo[idx] > 1e-4 * (0.5 * (lo[idx] + hi[idx]))]

    grid = np.geomspace(V_SEARCH_MIN, V_SEARCH_MAX, V_GRID_POINTS)
    rates = rate(grid, np.s_[:, None])
    best = rates.argmax(axis=1)
    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, V_GRID_POINTS - 1)]

    # golden-section maximization on [lo, hi]
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = rate(x1), rate(x2)
    live = unconverged(np.arange(lo.size))
    while live.size:
        rise = f1[live] < f2[live]
        up, down = live[rise], live[~rise]
        lo[up], x1[up], f1[up] = x1[up], x2[up], f2[up]
        x2[up] = lo[up] + _INVPHI * (hi[up] - lo[up])
        hi[down], x2[down], f2[down] = x2[down], x1[down], f1[down]
        x1[down] = hi[down] - _INVPHI * (hi[down] - lo[down])
        probed = rate(np.where(rise, x2[live], x1[live]), live)
        f2[up], f1[down] = probed[rise], probed[~rise]
        live = unconverged(live)
    v_opt = 0.5 * (lo + hi)
    kr_opt = rate(v_opt)
    # keep the best coarse-grid point if refinement landed lower
    top = rates.max(axis=1)
    coarse = top > kr_opt
    v_opt = np.where(coarse, grid[best], v_opt)
    kr_opt = np.where(coarse, top, kr_opt)
    return v_opt, kr_opt, best == V_GRID_POINTS - 1, kr_opt < 0.0


def optimize_modulation(stats: FadingStats, epsilon: float,
                        beta: float) -> ModulationOptimum:
    """Maximize the key rate over the state variance V.

    Coarse scan of V_GRID_POINTS log-spaced values over [1 + 1e-6, 1e3]
    followed by golden-section refinement of the bracketing interval down to
    |dV|/V < 1e-4.
    Deterministic: identical inputs give identical results.
    """
    _check_noise_and_efficiency(epsilon, beta)
    v_opt, kr_opt, at_cap, all_negative = _optimize(
        stats.eta_mean, stats.sqrt_eta_mean, epsilon, beta)
    return ModulationOptimum(v_opt=float(v_opt[0]), kr_opt=float(kr_opt[0]),
                             at_cap=bool(at_cap[0]),
                             all_negative=bool(all_negative[0]))
