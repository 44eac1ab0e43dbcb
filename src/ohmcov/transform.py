"""Frame transformations of the conductivity tensor.

A conductivity sampled at (k, omega) in one inertial frame determines the
conductivity every other frame sees, at the transformed sample point.  For
a pure boost with velocity v the closed form is

    sigma'(k', omega') = [gamma (1 - v.k/omega)]^(-1)
                         Lhat (1 - v k^T/omega) sigma(k, omega) (1 - k v^T/omega) Lhat

with k' = Lhat k - gamma omega v/c^2 and omega' = gamma (omega - v.k).
The same result follows from embedding sigma in the 4x4 response kernel,
conjugating by the boost, and reading the spatial block back out; that
longer route works for arbitrary O(1,3) elements and doubles as an
independent oracle for the closed form.

All transforms return the tensor together with the new sample point, so
callers never recompute (k', omega') on their own.  Tolerances here and in
the tests are relative to max-entry magnitudes with a 1e-14 absolute floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoostResonance
from .minkowski import (
    NATURAL,
    BoostParams,
    LorentzMatrix,
    UnitsConfig,
    Wavevector4,
    _checked,
    _checked_rotation,
    inverse,
    transform_wavevector,
)
from .response import chi_from_sigma, reconstruct_full, require_dynamic, sigma_from_chi

__all__ = [
    "RESONANCE_RTOL",
    "FrameSample",
    "resonance_width",
    "projector_inverse",
    "boost_sigma_direct",
    "boost_sigma_inverse",
    "rotate_sigma",
    "transform_sigma_oracle",
]

# Relative width of the rejected band around omega = v.k, where the
# boosted frequency vanishes and 1/(omega - v.k) is meaningless.
RESONANCE_RTOL = 1e-9


def resonance_width(omega: float, v_dot_k: float) -> float:
    return RESONANCE_RTOL * max(abs(omega), abs(v_dot_k))


def _require_off_resonance(omega: float, v_dot_k: float) -> None:
    if abs(omega - v_dot_k) <= resonance_width(omega, v_dot_k):
        raise BoostResonance(
            f"omega - v.k = {omega - v_dot_k!r} lies inside the resonance band at omega = {omega!r}"
        )


@dataclass(frozen=True)
class FrameSample:
    """A conductivity tensor together with the point it was sampled at.

    omega = 0 samples are rejected outright; nothing in this module can
    use them.
    """

    sigma: np.ndarray
    at: Wavevector4

    def __post_init__(self) -> None:
        s = _checked(self.sigma, (3, 3), complex, "conductivity")
        require_dynamic(self.at.omega)
        object.__setattr__(self, "sigma", s)


def projector_inverse(kvec: np.ndarray, v: np.ndarray, omega: float) -> np.ndarray:
    """Closed-form inverse of (1 - k v^T / omega).

    The rank-one update identity gives
        (1 - k v^T/omega)^(-1) = 1 + k v^T / (omega - v.k),
    valid away from the resonance omega = v.k.
    """
    k = np.asarray(kvec, dtype=float)
    vv = np.asarray(v, dtype=float)
    v_dot_k = float(vv @ k)
    _require_off_resonance(omega, v_dot_k)
    return np.eye(3) + np.outer(k, vv) / (omega - v_dot_k)


def boost_sigma_direct(s: FrameSample, v: np.ndarray, units: UnitsConfig = NATURAL) -> FrameSample:
    """Boost a conductivity sample to the frame moving with velocity v."""
    bp = BoostParams(v, units)
    omega = s.at.omega
    k = s.at.kvec
    v_dot_k = float(bp.v @ k)
    _require_off_resonance(omega, v_dot_k)
    left = np.eye(3) - np.outer(bp.v, k) / omega
    right = np.eye(3) - np.outer(k, bp.v) / omega
    prefactor = 1.0 / (bp.gamma * (1.0 - v_dot_k / omega))
    sigma_p = prefactor * (bp.lambda_hat @ left @ s.sigma @ right @ bp.lambda_hat)
    return FrameSample(sigma_p, transform_wavevector(bp.matrix(), s.at, units))


def boost_sigma_inverse(
    s_primed: FrameSample,
    v: np.ndarray,
    kw_unprimed: Wavevector4,
    units: UnitsConfig = NATURAL,
) -> FrameSample:
    """Recover the unprimed conductivity from the boosted one.

    kw_unprimed is the sample point whose boost by v lands on
    s_primed.at; inverting the direct law gives

        sigma(k, omega) = gamma (1 - v k^T/omega)^(-1) Lhat^(-1)
                          sigma'(k', omega') Lhat^(-1)
                          [(1 - v.k/omega) 1 + k v^T/omega].
    """
    bp = BoostParams(v, units)
    omega = kw_unprimed.omega
    require_dynamic(omega)
    k = kw_unprimed.kvec
    v_dot_k = float(bp.v @ k)
    _require_off_resonance(omega, v_dot_k)
    # roles swapped on purpose: this inverts (1 - v k^T/omega)
    left_inv = projector_inverse(bp.v, k, omega)
    lhat_inv = bp.lambda_hat_inv
    tail = (1.0 - v_dot_k / omega) * np.eye(3) + np.outer(k, bp.v) / omega
    sigma = bp.gamma * (left_inv @ lhat_inv @ s_primed.sigma @ lhat_inv @ tail)
    return FrameSample(sigma, kw_unprimed)


def rotate_sigma(s: FrameSample, rot: np.ndarray) -> FrameSample:
    """Rotate a conductivity sample: sigma'(R k, omega) = R sigma R^(-1)."""
    r = _checked_rotation(rot)
    sigma_p = r @ s.sigma @ r.T
    return FrameSample(sigma_p, Wavevector4(s.at.omega, r @ s.at.kvec))


def transform_sigma_oracle(s: FrameSample, lam: LorentzMatrix, units: UnitsConfig = NATURAL) -> FrameSample:
    """Transform through the full response kernel.

    Three steps: embed sigma as the spatial block of the 4x4 kernel at
    (k, omega), conjugate by lam, then divide the transformed spatial
    block by i omega'.  Works for any O(1,3) element, including parity
    and time reversal, at the cost of more arithmetic than the closed
    form for pure boosts.
    """
    full = reconstruct_full(chi_from_sigma(s.sigma, s.at.omega), s.at, units)
    primed = lam.entries @ full.entries @ inverse(lam).entries
    at_p = transform_wavevector(lam, s.at, units)
    if abs(at_p.omega) <= RESONANCE_RTOL * abs(s.at.omega):
        raise BoostResonance(f"transformed frequency omega' = {at_p.omega!r} is too close to zero")
    return FrameSample(sigma_from_chi(primed[1:, 1:], at_p.omega), at_p)
