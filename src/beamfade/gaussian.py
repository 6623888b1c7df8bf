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

_EIG_TOL = 1e-9

# symplectic form for (x1, p1, x2, p2) quadrature ordering
_OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@dataclass(frozen=True)
class CovMat2:
    """Two-mode covariance matrix in block form, validated on construction.

    Raises ValueError if the assembled 4x4 matrix has a non-finite entry, is
    not symmetric or violates the uncertainty relation (a symplectic
    eigenvalue below 1 - 1e-9).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))

    def __post_init__(self):
        for name in ("a", "b", "c"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (2, 2):
                raise ValueError(f"block {name} must be 2x2, got {m.shape}")
            object.__setattr__(self, name, m)
        full = self.matrix
        if not np.isfinite(full).all():
            name, m = next((n, m) for n, m in zip("abc", (self.a, self.b, self.c))
                           if not np.isfinite(m).all())
            raise ValueError(f"block {name} must be finite, got {m.tolist()}")
        if not (np.allclose(self.a, self.a.T, atol=1e-10)
                and np.allclose(self.b, self.b.T, atol=1e-10)):
            raise ValueError("mode blocks must be symmetric")
        # uncertainty relation gamma + i Omega >= 0, checked on the Hermitian
        # form: eigvalsh keeps O(eps) accuracy where the nu formula loses
        # half its digits near pure states
        herm = full + 1j * _OMEGA
        lo = float(np.linalg.eigvalsh(herm)[0])
        if lo < -_EIG_TOL:
            raise ValueError(f"unphysical covariance matrix: gamma + i Omega "
                             f"has eigenvalue {lo} < 0")

    @property
    def matrix(self) -> np.ndarray:
        """Full 4x4 covariance matrix, ordering (x1, p1, x2, p2)."""
        return np.block([[self.a, self.c], [self.c.T, self.b]])

    @classmethod
    def from_matrix(cls, m) -> "CovMat2":
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
        if not np.allclose(m, m.T, atol=1e-10):
            raise ValueError("covariance matrix must be symmetric")
        return cls(a=m[:2, :2], b=m[2:, 2:], c=m[:2, 2:])


def tmsv(v: float) -> CovMat2:
    """Two-mode squeezed vacuum of quadrature variance V (SNU).

    A = B = V I, C = sqrt(V^2 - 1) diag(1, -1); V = 1 is two vacua.
    """
    if not (math.isfinite(v) and v >= 1.0):
        raise ValueError(f"v (quadrature variance) must be finite and >= 1 SNU, got {v}")
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
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon (excess noise) must be finite and >= 0, got {epsilon}")
    eye = np.eye(2)
    b_out = eye + stats.eta_mean * (cm.b - eye) + stats.sqrt_eta_mean**2 * epsilon * eye
    c_out = stats.sqrt_eta_mean * cm.c
    return CovMat2(a=cm.a.copy(), b=b_out, c=c_out)


def _invariants(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[float, float, float, float]:
    det_a = float(np.linalg.det(a))
    det_b = float(np.linalg.det(b))
    det_c = float(np.linalg.det(c))
    det_full = float(np.linalg.det(np.block([[a, c], [c.T, b]])))
    return det_a, det_b, det_c, det_full


def _nu_from_invariants(delta: float, det_full: float,
                        noise_floor: float = 1e-12) -> tuple[float, float]:
    disc = delta**2 - 4.0 * det_full
    if disc < -noise_floor:
        raise ArithmeticError(f"negative symplectic discriminant {disc}")
    root = math.sqrt(max(disc, 0.0))
    nu2_plus = (delta + root) / 2.0
    # (delta - root)/2 cancels badly when root ~ delta (strong squeezing);
    # the rationalized form 2 det / (delta + root) is exact algebra
    if nu2_plus > 0.0:
        nu2_minus = det_full / nu2_plus
    else:
        nu2_minus = (delta - root) / 2.0
    if nu2_minus < -noise_floor:
        raise ArithmeticError(f"negative squared symplectic eigenvalue {nu2_minus}")
    return math.sqrt(max(nu2_plus, 0.0)), math.sqrt(max(nu2_minus, 0.0))


def symplectic_eigs(cm: CovMat2) -> tuple[float, float]:
    """Symplectic eigenvalues (nu1 >= nu2) from the two-mode invariants.

    nu^2 are the roots of nu^4 - Delta nu^2 + det(gamma) = 0 with
    Delta = det A + det B + 2 det C.
    """
    det_a, det_b, det_c, det_full = _invariants(cm.a, cm.b, cm.c)
    # determinant roundoff scales with the entry magnitude, so widen the
    # discriminant noise floor accordingly
    scale = max(1.0, float(np.max(np.abs(cm.matrix))))
    eps = float(np.finfo(float).eps)
    floor = max(1e-12, 256.0 * eps * scale**2)
    nu1, nu2 = _nu_from_invariants(det_a + det_b + 2.0 * det_c, det_full,
                                   noise_floor=floor)
    # the discriminant root loses half its digits when the spectrum is
    # degenerate at 1 (pure states); construction already guaranteed
    # physicality, so anything that close to 1 on either side is noise
    tol = max(_EIG_TOL, 8.0 * math.sqrt(eps) * scale)
    nu1 = 1.0 if abs(nu1 - 1.0) < tol else nu1
    nu2 = 1.0 if abs(nu2 - 1.0) < tol else nu2
    return nu1, nu2


def log_negativity(cm: CovMat2) -> float:
    """Logarithmic negativity max{0, -log2 nu~} of a two-mode state.

    nu~ is the smallest symplectic eigenvalue of the partially transposed
    state; the partial transpose flips the sign of det C.
    """
    det_a, det_b, det_c, det_full = _invariants(cm.a, cm.b, cm.c)
    scale = max(1.0, float(np.max(np.abs(cm.matrix))))
    floor = max(1e-12, 256.0 * float(np.finfo(float).eps) * scale**2)
    _, nu_tilde = _nu_from_invariants(det_a + det_b - 2.0 * det_c, det_full,
                                      noise_floor=floor)
    if nu_tilde <= 0.0:
        raise ArithmeticError("vanishing symplectic eigenvalue after partial transpose")
    return max(0.0, -math.log2(nu_tilde))


def entropy_g(nu: float) -> float:
    """Entropy of a thermal mode with symplectic eigenvalue nu, in bits.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), g(1) = 0.
    """
    if nu < 1.0 - _EIG_TOL:
        raise ValueError(f"symplectic eigenvalue must be >= 1, got {nu}")
    if nu <= 1.0:
        return 0.0
    up = (nu + 1.0) / 2.0
    dn = (nu - 1.0) / 2.0
    return up * math.log2(up) - dn * math.log2(dn)


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

    gamma_cond = A - C (Pi B Pi)^+ C^T, where Pi projects on the measured
    quadrature and the pseudo-inverse reduces to the reciprocal of the
    measured diagonal entry.
    """
    kept, meas, cross = _split_blocks(cm, measured_mode)
    idx = {"x": 0, "p": 1}.get(quadrature)
    if idx is None:
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    pivot = meas[idx, idx]
    if pivot <= 0.0:
        raise ValueError(f"measured quadrature variance must be > 0, got {pivot}")
    col = cross[:, idx]
    return kept - np.outer(col, col) / pivot


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
