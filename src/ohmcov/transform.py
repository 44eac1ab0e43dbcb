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
callers never recompute (k', omega') on their own.  Samples and boosts may
be (N, ...) stacks.  Tolerances here and in the tests are relative to
max-entry magnitudes with a 1e-14 absolute floor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BoostResonance
from .minkowski import (
    ETA,
    NATURAL,
    _EYE3,
    BoostParams,
    LorentzMatrix,
    UnitsConfig,
    Wavevector4,
    _boost,
    _broadcast,
    _checked_rotation,
    _dots,
    _first,
    _mat,
    _one_point,
    _outer,
    _shared,
    _stack,
    _transform_points,
)
from .response import STATIC_OMEGA_FLOOR, _reconstruct, _static, reconstruct_full, require_dynamic, sigma_from_chi

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


def resonance_width(omega, v_dot_k):
    return RESONANCE_RTOL * np.maximum(abs(omega), abs(v_dot_k))


def _resonance(omega: np.ndarray, v_dot_k: np.ndarray) -> tuple:
    """The resonance check for N points: the points inside the band and the error of point i.  A v.k that is not
    finite is no resonance: it makes the result non-finite, which the result's checks reject."""
    def replay(i: int) -> None:
        w, vk = float(omega[i]), float(v_dot_k[i])
        raise BoostResonance(f"omega - v.k = {w - vk!r} lies inside the resonance band at omega = {w!r}")

    return (abs(omega - v_dot_k) <= resonance_width(omega, v_dot_k)) & np.isfinite(v_dot_k), replay


@dataclass(frozen=True)
class FrameSample:
    """A conductivity tensor together with the point it was sampled at, or
    an (N, 3, 3) stack of them at a stack of N points.

    omega = 0 samples are rejected outright; nothing in this module can
    use them.
    """

    sigma: np.ndarray
    at: Wavevector4

    def __post_init__(self) -> None:
        (s,) = _stack("FrameSample", (self.sigma, (3, 3), complex, "conductivity"), at=self.at)
        require_dynamic(self.at.omega)
        object.__setattr__(self, "sigma", s)


def projector_inverse(kvec: np.ndarray, v: np.ndarray, omega: float) -> np.ndarray:
    """Closed-form inverse of (1 - k v^T / omega), or (N, 3, 3) of them.

    The rank-one update identity gives
        (1 - k v^T/omega)^(-1) = 1 + k v^T / (omega - v.k),
    valid away from the resonance omega = v.k.
    """
    k = np.asarray(kvec, dtype=float)
    vv = np.asarray(v, dtype=float)
    _broadcast("projector_inverse", ("kvec", k.shape[:-1]), ("velocity", vv.shape[:-1]), ("omega", np.shape(omega)))
    with np.errstate(over="ignore", invalid="ignore"):  # a v.k beyond float range makes the result non-finite
        v_dot_k = _dots(vv, k)
        _raise([_resonance(np.atleast_1d(omega), np.atleast_1d(v_dot_k))])
        return _projector_inverse(k, vv, omega - v_dot_k)


def _projector_inverse(kvec: np.ndarray, v: np.ndarray, gap) -> np.ndarray:
    """projector_inverse for N points, without its check: kvec and v (N, 3)
    or (3,), gap = omega - v.k (N,) or a float."""
    return _EYE3 + _outer(kvec, v) / _mat(gap)


def boost_sigma_direct(s: FrameSample, v: np.ndarray, units: UnitsConfig = NATURAL) -> FrameSample:
    """Boost a conductivity sample to the frame moving with velocity v, or
    with the BoostParams already built from it."""
    bp = _boost(v, units)
    return _transformed("boost_sigma_direct", _direct, s.sigma, s.at, bp.v.shape[:-1], bp)


def _transformed(owner: str, kernel, sigma: np.ndarray, at: Wavevector4, boosts: tuple, *args) -> FrameSample:
    """The kernel on sigma at the point or points at, by one boost or one per point (boosts is their leading
    shape): its checks, then the result's, raise the error of the first point one of them rejects."""
    stacked = at.kvec.ndim > 1
    _shared(owner, boosts, at.kvec.shape[:-1])
    rows = (sigma, at.omega, at.kvec) if stacked else (sigma[None], np.array([at.omega]), at.kvec[None])
    sigma_p, omega_p, k_p, faults = kernel(*rows, *args)
    if _flagged(faults).any():
        with np.errstate(all="ignore"):  # a replay redoes the point's overflowing arithmetic; its error reports it
            _raise(faults + _frame_faults(sigma_p, omega_p, k_p))
    if not stacked:
        sigma_p, omega_p, k_p = sigma_p[0], omega_p[0], k_p[0]
    return FrameSample(sigma_p, Wavevector4(omega_p, k_p))


# Faults: the checks a single-point function makes, made on N points at once and kept as data.  A list of
# (mask, replay) pairs in the order the function makes its checks: mask (N,) flags exactly the points the
# check rejects, and replay(i) makes the check on point i alone, raising its error.
def _flagged(faults: list) -> np.ndarray:
    """The points some check rejects."""
    return functools.reduce(np.logical_or, [mask for mask, _ in faults])


def _raise(faults: list, i: int | None = None) -> None:
    """Raise the error of point i, by default of the first point some check
    rejects: that of the first check in the list that rejects it."""
    if i is None:
        bad = _flagged(faults)
        if not bad.any():
            return
        i = _first(bad)
    for mask, replay in faults:
        if mask[i]:
            replay(i)


def _frame_faults(sigma: np.ndarray, omega: np.ndarray, k: np.ndarray) -> list:
    """FrameSample(sigma, Wavevector4(omega, k))'s checks for N samples: the point's, then the tensor's."""
    point = ~(np.isfinite(omega) & np.isfinite(k).all(axis=1)), lambda i: Wavevector4(omega[i], k[i])
    tensor = ~np.isfinite(sigma).all(axis=(1, 2)) | (abs(omega) < STATIC_OMEGA_FLOOR)
    return [point, (tensor, lambda i: FrameSample(sigma[i], Wavevector4(omega[i], k[i])))]


# Kernels of boost_sigma_direct, boost_sigma_inverse and transform_sigma_oracle: sigma (N, 3, 3), omega (N,),
# k (N, 3) in; sigma', omega', k' out, with the faults of the function up to its result, whose own checks
# _frame_faults makes.  The boost is one boost for every point or a stack of N, one per point (BoostParams of
# (N, 3) velocities, a stack of N matrices).  Stacks round as N = 1 would.
def _direct(sigma, omega, k, bp: BoostParams) -> tuple:
    with np.errstate(all="ignore"):  # resonant points divide by zero, and v.k may overflow; the faults flag them
        v_dot_k = _dots(k, bp.v)
        left = _EYE3 - _outer(bp.v, k) / omega[:, None, None]
        right = left.swapaxes(-1, -2)  # 1 - k v^T/omega: the same products, transposed
        prefactor = 1.0 / (bp.gamma * (1.0 - v_dot_k / omega))
        sigma_p = prefactor[:, None, None] * (bp.lambda_hat @ left @ sigma @ right @ bp.lambda_hat)
        omega_p, k_p = _transform_points(bp.matrix(), omega, k, bp.units)
        return sigma_p, omega_p, k_p, [_resonance(omega, v_dot_k)]


def boost_sigma_inverse(
    s_primed: FrameSample,
    v: np.ndarray,
    kw_unprimed: Wavevector4,
    units: UnitsConfig = NATURAL,
) -> FrameSample:
    """Recover the unprimed conductivity from the boosted one.

    kw_unprimed is the sample point whose boost by v, or by the BoostParams
    already built from it, lands on s_primed.at; inverting the direct law
    gives

        sigma(k, omega) = gamma (1 - v k^T/omega)^(-1) Lhat^(-1)
                          sigma'(k', omega') Lhat^(-1)
                          [(1 - v.k/omega) 1 + k v^T/omega].
    """
    bp = _boost(v, units)
    _stack("boost_sigma_inverse", (s_primed.sigma, (3, 3), complex, "s_primed"), at=kw_unprimed)
    return _transformed("boost_sigma_inverse", _inverse, s_primed.sigma, kw_unprimed, bp.v.shape[:-1], bp)


def _inverse(sigma_p, omega, k, bp: BoostParams) -> tuple:
    """sigma' at the boosted points and the unprimed points omega, k in;
    sigma at omega, k out."""
    with np.errstate(all="ignore"):  # static and resonant points divide by zero, v.k may overflow; the faults flag them
        v_dot_k = _dots(k, bp.v)
        # roles swapped on purpose: this inverts (1 - v k^T/omega)
        left_inv = _projector_inverse(bp.v, k, omega - v_dot_k)
        lhat_inv = bp.lambda_hat_inv
        tail = (1.0 - v_dot_k / omega)[:, None, None] * _EYE3 + _outer(k, bp.v) / omega[:, None, None]
        sigma = _mat(bp.gamma) * (left_inv @ lhat_inv @ sigma_p @ lhat_inv @ tail)
        return sigma, omega, k, [_static(omega), _resonance(omega, v_dot_k)]


def rotate_sigma(s: FrameSample, rot: np.ndarray) -> FrameSample:
    """Rotate a conductivity sample: sigma'(R k, omega) = R sigma R^(-1)."""
    _one_point("rotate_sigma", s.at.kvec.shape[:-1])
    r = _checked_rotation(rot)
    sigma_p = r @ s.sigma @ r.T
    return FrameSample(sigma_p, Wavevector4(s.at.omega, r @ s.at.kvec))


def transform_sigma_oracle(s: FrameSample, lam: LorentzMatrix, units: UnitsConfig = NATURAL) -> FrameSample:
    """Transform through the full response kernel.

    Three steps: embed sigma as the spatial block of the 4x4 kernel at
    (k, omega), conjugate by lam, then divide the transformed spatial
    block by i omega'.  Works for any O(1,3) element, including parity
    and time reversal, at the cost of more arithmetic than the closed
    form for pure boosts.  lam may be a stack of one matrix per point.
    """
    return _transformed("transform_sigma_oracle", _oracle, s.sigma, s.at, lam.entries.shape[:-2], lam, units)


def _oracle(sigma, omega, k, lam: LorentzMatrix, units: UnitsConfig) -> tuple:
    with np.errstate(all="ignore"):  # a vanishing omega' divides by zero; the faults flag it
        chi = (1j * omega)[:, None, None] * sigma
        full = _reconstruct(chi, omega, k, units)
        # inverse(lam)'s entries, eta lam^T eta, without the O(1,3) check lam has passed already
        primed = (lam.entries @ full @ (ETA @ lam.entries.swapaxes(-1, -2) @ ETA))[:, 1:, 1:]
        omega_p, k_p = _transform_points(lam, omega, k, units)
        sigma_p = primed / (1j * omega_p)[:, None, None]
    bad = ~(np.isfinite(full).all(axis=(1, 2)) & np.isfinite(primed).all(axis=(1, 2)) & np.isfinite(omega_p))
    bad |= ~np.isfinite(k_p).all(axis=1)
    bad |= (abs(omega_p) <= RESONANCE_RTOL * abs(omega)) | (abs(omega_p) < STATIC_OMEGA_FLOOR)

    def replay(i: int) -> None:
        reconstruct_full(chi[i], Wavevector4(omega[i], k[i]), units)
        Wavevector4(omega_p[i], k_p[i])
        if abs(omega_p[i]) <= RESONANCE_RTOL * abs(omega[i]):
            raise BoostResonance(f"transformed frequency omega' = {float(omega_p[i])!r} is too close to zero")
        sigma_from_chi(primed[i], float(omega_p[i]))

    return sigma_p, omega_p, k_p, [(bad, replay)]
