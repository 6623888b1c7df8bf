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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fading import FadingStats, effective_channel
from .gaussian import (
    apply_fading_channel,
    condition_on_homodyne,
    entropy_g,
    tmsv,
    von_neumann_entropy,
)

V_SEARCH_MAX = 1e3
V_SEARCH_MIN = 1.0 + 1e-6


@dataclass(frozen=True)
class ProtocolParams:
    """Coherent-state protocol knobs.

    Attributes
    ----------
    v : float
        State quadrature variance in SNU (entanglement-based picture); the
        coherent-state modulation variance is v - 1.
    epsilon : float
        Fixed channel excess noise in SNU, referred to the channel input.
    beta : float
        Post-processing efficiency, in (0, 1].
    """

    v: float
    epsilon: float = 0.01
    beta: float = 0.97

    def __post_init__(self):
        if not (math.isfinite(self.v) and self.v >= 1.0):
            raise ValueError(
                f"v (state variance) must be finite and >= 1 SNU, got {self.v}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(
                f"epsilon (excess noise) must be finite and >= 0, got {self.epsilon}")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")


def mutual_information(params: ProtocolParams, stats: FadingStats) -> float:
    """Shannon mutual information of the trusted parties, bits per symbol.

    The receiver homodynes one quadrature; the sender's heterodyne outcome
    conditions it to variance V_B|A = V_B - T_eff (V^2 - 1)/(V + 1), giving
    I_AB = (1/2) log2(V_B / V_B|A).
    """
    t_eff, eps_out = effective_channel(stats, params.v, params.epsilon)
    v_b = 1.0 + t_eff * (params.v - 1.0) + eps_out
    v_b_given_a = v_b - t_eff * (params.v**2 - 1.0) / (params.v + 1.0)
    if v_b_given_a <= 0.0:
        raise ArithmeticError(f"non-positive conditional variance {v_b_given_a}")
    return 0.5 * math.log2(v_b / v_b_given_a)


def holevo_bound(params: ProtocolParams, stats: FadingStats) -> float:
    """Holevo bound on the eavesdropper's information, bits per symbol.

    Purification argument: the eavesdropper holds everything the channel
    discards, so chi_BE = S(gamma) - S(gamma_A|b) with gamma the shared
    state after the channel and gamma_A|b the sender mode conditioned on the
    receiver's x homodyne.
    """
    gamma = apply_fading_channel(tmsv(params.v), stats, params.epsilon)
    cond = condition_on_homodyne(gamma, measured_mode=2, quadrature="x")
    det_cond = float(np.linalg.det(cond))
    if det_cond < 0.0:
        raise ArithmeticError(f"negative conditional determinant {det_cond}")
    return von_neumann_entropy(gamma) - entropy_g(math.sqrt(det_cond))


def key_rate(params: ProtocolParams, stats: FadingStats) -> float:
    """Asymptotic collective-attack lower bound beta*I_AB - chi_BE, unclamped."""
    return params.beta * mutual_information(params, stats) - holevo_bound(params, stats)


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


def optimize_modulation(stats: FadingStats, epsilon: float, beta: float,
                        grid_points: int = 64) -> ModulationOptimum:
    """Maximize the key rate over the state variance V.

    Coarse log-spaced scan over [1 + 1e-6, 1e3] followed by golden-section
    refinement of the bracketing interval down to |dV|/V < 1e-4.
    Deterministic: identical inputs give identical results.
    """
    def rate(v: float) -> float:
        return key_rate(ProtocolParams(v=v, epsilon=epsilon, beta=beta), stats)

    grid = np.geomspace(V_SEARCH_MIN, V_SEARCH_MAX, grid_points)
    rates = np.array([rate(v) for v in grid])
    best = int(np.argmax(rates))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid_points - 1)]

    # golden-section maximization on [lo, hi]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = rate(x1), rate(x2)
    while (hi - lo) > 1e-4 * (0.5 * (lo + hi)):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = rate(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = rate(x1)
    v_opt = 0.5 * (lo + hi)
    kr_opt = rate(v_opt)
    # keep the best coarse-grid point if refinement landed lower
    if rates[best] > kr_opt:
        v_opt, kr_opt = float(grid[best]), float(rates[best])
    return ModulationOptimum(
        v_opt=float(v_opt), kr_opt=float(kr_opt),
        at_cap=best == grid_points - 1,
        all_negative=kr_opt < 0.0)
