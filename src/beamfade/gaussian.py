"""Two-mode Gaussian covariance-matrix algebra in shot-noise units.

Quadratures are x = a^dag + a, p = i(a^dag - a); the vacuum has unit
variance, so every covariance matrix is measured against 1 SNU.  States are
centered: only second moments are tracked.  The 4x4 covariance matrix is
stored in block form

    [ A  C ]
    [ C^T B ]

with A the 2x2 block of mode 1, B of mode 2 and C the cross correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import _require, _store
from .keyrate import V_MAX, _entropy

_EIG_TOL = 1e-9

# symplectic form for (x1, p1, x2, p2) quadrature ordering
_OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
# P M P for P = diag(1, 1, 1, -1), applied elementwise as an outer product
_FLIP = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])


@dataclass(frozen=True)
class CovMat2:
    """Two-mode covariance matrix in block form, validated on construction.

    Raises ValueError if the assembled 4x4 matrix has a non-finite entry, is
    not symmetric, violates the uncertainty relation (a symplectic
    eigenvalue below 1 - 1e-9) or is not numerically positive definite.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))
    # Cholesky factor of the full matrix, which every spectrum starts from
    _low: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("a", "b", "c"):
            m = _require(f"block {name}", getattr(self, name), lambda m: True, "real")
            if m.shape != (2, 2):
                raise ValueError(f"block {name} must be 2x2, got {m.shape}")
            _store(self, **{name: m.copy()})  # not the caller's array
        full = self.matrix
        if not (np.allclose(self.a, self.a.T, atol=1e-10)
                and np.allclose(self.b, self.b.T, atol=1e-10)):
            raise ValueError("mode blocks must be symmetric")
        # uncertainty relation gamma + i Omega >= 0, checked on the Hermitian
        # form, where eigvalsh keeps O(eps) accuracy
        herm = full + 1j * _OMEGA
        lo = float(np.linalg.eigvalsh(herm)[0])
        if lo < -_EIG_TOL:
            raise ValueError(f"unphysical covariance matrix: gamma + i Omega "
                             f"has eigenvalue {lo} < 0")
        # the uncertainty relation makes gamma positive definite, but a
        # near-pure state at large variance can lose that to rounding
        try:
            _store(self, _low=np.linalg.cholesky(full))
        except np.linalg.LinAlgError:
            raise ValueError("covariance matrix is not numerically positive "
                             "definite (a nearly pure state beyond double "
                             "precision)") from None

    @property
    def matrix(self) -> np.ndarray:
        """Full 4x4 covariance matrix, ordering (x1, p1, x2, p2)."""
        return np.block([[self.a, self.c], [self.c.T, self.b]])

    @classmethod
    def from_matrix(cls, m) -> "CovMat2":
        m = _require("covariance matrix", m, lambda m: True, "real")
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
        if not np.allclose(m, m.T, atol=1e-10):
            raise ValueError("covariance matrix must be symmetric")
        return cls(a=m[:2, :2], b=m[2:, 2:], c=m[:2, 2:])


def tmsv(v: float) -> CovMat2:
    """Two-mode squeezed vacuum of quadrature variance V (SNU).

    A = B = V I, C = sqrt(V^2 - 1) diag(1, -1); V = 1 is two vacua.  V must
    lie in [1, V_MAX], the state variances the key-rate kernels accept.
    """
    v = _require("v (quadrature variance)", v, lambda v: 1.0 <= v <= V_MAX,
                 f"in [1, {V_MAX:g}] SNU", True)
    corr = math.sqrt(v**2 - 1.0)
    return CovMat2(a=v * np.eye(2), b=v * np.eye(2),
                   c=np.diag([corr, -corr]))


def apply_fading_channel(cm: CovMat2, stats, epsilon: float) -> CovMat2:
    """Send mode 2 through a fading channel with fixed input excess noise.

    The channel is fully described by the moment triple: the mode-2 block
    attenuates with the mean transmittance and picks up the fading noise,

        B' = I + <eta> (B - I) + <sqrt(eta)>^2 epsilon I,

    equivalently 1 + <sqrt(eta)>^2 (V - 1) + Var(sqrt(eta)) (V - 1)
    + <sqrt(eta)>^2 epsilon on the diagonal; correlations scale with
    <sqrt(eta)>; mode 1 is untouched.
    """
    epsilon = _require("epsilon (excess noise)", epsilon, lambda e: e >= 0.0, ">= 0", True)
    eye = np.eye(2)
    b_out = eye + stats.eta_mean * (cm.b - eye) + stats.sqrt_eta_mean**2 * epsilon * eye
    c_out = stats.sqrt_eta_mean * cm.c
    return CovMat2(a=cm.a, b=b_out, c=c_out)


def _spectrum(low: np.ndarray) -> tuple[float, float]:
    # gamma = L L^T makes i L^T Omega L Hermitian and similar to i Omega
    # gamma, whose eigenvalues are +-nu1, +-nu2; eigvalsh keeps O(eps)
    # accuracy near pure states, where the determinant invariants lose half
    # their digits
    vals = np.linalg.eigvalsh(1j * (low.T @ _OMEGA @ low))
    return float(vals[3]), float(vals[2])


def symplectic_eigs(cm: CovMat2) -> tuple[float, float]:
    """Symplectic eigenvalues (nu1 >= nu2), the positive eigenvalues of i Omega gamma."""
    return _spectrum(cm._low)


def log_negativity(cm: CovMat2) -> float:
    """Logarithmic negativity max{0, -log2 nu~} of a two-mode state.

    nu~ is the smallest symplectic eigenvalue of the partially transposed
    state P gamma P, P = diag(1, 1, 1, -1), which flips the sign of p2; its
    Cholesky factor is P L P.
    """
    _, nu_tilde = _spectrum(cm._low * _FLIP)
    return max(0.0, -math.log2(nu_tilde))


def entropy_g(nu: float) -> float:
    """Entropy of a thermal mode with symplectic eigenvalue nu, in bits.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), g(1) = 0,
    as the one-point call of the key-rate kernel `keyrate._entropy`, which
    sums non-negative terms and so stays finite and accurate up to 1e308.
    nu down to 1 - 1e-9 (a pure mode, up to rounding) gives 0.
    """
    return float(_entropy(_require("nu (symplectic eigenvalue)", nu,
                                   lambda nu: nu >= 1.0 - _EIG_TOL, ">= 1", True)))


def von_neumann_entropy(cm: CovMat2) -> float:
    """Von Neumann entropy in bits: sum of g over the symplectic spectrum."""
    nu1, nu2 = symplectic_eigs(cm)
    return entropy_g(nu1) + entropy_g(nu2)


def _split_blocks(cm: CovMat2, measured_mode: int):
    if measured_mode == 1:
        return cm.b, cm.a, cm.c.T
    if measured_mode == 2:
        return cm.a, cm.b, cm.c
    raise ValueError(f"measured_mode must be 1 or 2, got {measured_mode}")


def condition_on_homodyne(cm: CovMat2, measured_mode: int, quadrature: str = "x") -> np.ndarray:
    """Covariance of the kept mode after homodyning one quadrature of the other.

    gamma_cond = A - C (Pi B Pi)^+ C^T, with the pseudo-inverse 1 / B_ii of the
    measured variance.  B_ii is finite and > 0: a CovMat2 has a Cholesky
    factor, and LAPACK potrf rejects any diagonal entry <= 0 or nan.
    """
    kept, meas, cross = _split_blocks(cm, measured_mode)
    idx = {"x": 0, "p": 1}.get(quadrature)
    if idx is None:
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    col = cross[:, idx]
    return kept - np.outer(col, col) / meas[idx, idx]


def condition_on_heterodyne(cm: CovMat2, measured_mode: int) -> np.ndarray:
    """Covariance of the kept mode after heterodyning the other.

    gamma_cond = A - C (B + I)^{-1} C^T.
    """
    kept, meas, cross = _split_blocks(cm, measured_mode)
    try:
        inv = np.linalg.inv(meas + np.eye(2))
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("singular heterodyne matrix B + I") from exc
    return kept - cross @ inv @ cross.T
