"""Four-dimensional response kernel built from a spatial conductivity.

The kernel chi carries one upper and one lower index, chi^mu_nu, and maps
a four-potential to an induced four-current, j^mu = chi^mu_nu A^nu.  Its
spatial 3x3 block determines everything else: current conservation and
gauge invariance pin the first row and column to

    chi^0_0 = -(c^2/omega^2) k^T chi k        chi^0_l = (c/omega) (k^T chi)_l
    chi^j_0 = -(c/omega) (chi k)_j            chi^j_l = chi_jl

so that k_mu chi^mu_nu = 0 and chi^mu_nu k^nu = 0 with k_mu = (-omega/c, k)
and k^nu = (omega/c, k).

Fourier convention: fields go like exp(+i k.x - i omega t), so spatial
derivatives map to +i k, time derivatives to -i omega, and the spatial
block relates to the conductivity through chi = i omega sigma.

Spatial tensors are plain complex (3, 3) ndarrays, or (N, 3, 3) stacks of
them at a stacked Wavevector4; constraint_residual takes one point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatch, StaticFrequency
from .minkowski import NATURAL, UnitsConfig, Wavevector4, _broadcast, _first, _mat, _one_point, _stack

__all__ = [
    "STATIC_OMEGA_FLOOR",
    "FullResponse4",
    "PotentialSet",
    "FourCurrent",
    "chi_from_sigma",
    "sigma_from_chi",
    "reconstruct_full",
    "constraint_residual",
    "apply_response",
    "gauge_shift",
]

# Below this |omega| the 1/omega formulas are refused, not regularized.
STATIC_OMEGA_FLOOR = 1e-14


def require_dynamic(omega) -> None:
    """Reject frequencies too close to zero for 1/omega to mean anything; of an array, the first."""
    static = abs(omega) < STATIC_OMEGA_FLOOR
    if static if isinstance(static, bool) else static.any():  # a plain float skips numpy's cost per call
        w = abs(float(np.ravel(omega)[_first(static)]))
        raise StaticFrequency(f"|omega| = {w!r} is below the static floor {STATIC_OMEGA_FLOOR:.1e}")


def _static(omega: np.ndarray) -> tuple:
    """require_dynamic's check for N frequencies: the points it rejects and its replay on point i."""
    return abs(omega) < STATIC_OMEGA_FLOOR, lambda i: require_dynamic(float(omega[i]))


def chi_from_sigma(sigma: np.ndarray, omega: float) -> np.ndarray:
    """Spatial response block chi = i omega sigma."""
    require_dynamic(omega)
    sigma, omega = _stack("chi_from_sigma", (sigma, (3, 3), complex, "conductivity"), (omega, (), float, "omega"))
    return _mat(1j * omega) * sigma


def sigma_from_chi(chi_spatial: np.ndarray, omega: float) -> np.ndarray:
    """Conductivity sigma = chi / (i omega), the inverse of chi_from_sigma."""
    require_dynamic(omega)
    chi, omega = _stack("sigma_from_chi", (chi_spatial, (3, 3), complex, "spatial response"),
                        (omega, (), float, "omega"))
    return chi / _mat(1j * omega)


@dataclass(frozen=True)
class FullResponse4:
    """4x4 response kernel chi^mu_nu together with its sample point.

    Construction does not force the row/column constraints; they hold for
    every kernel built by reconstruct_full, and constraint_residual
    measures how badly an arbitrary kernel breaks them.
    """

    entries: np.ndarray
    at: Wavevector4

    def __post_init__(self) -> None:
        (entries,) = _stack("FullResponse4", (self.entries, (4, 4), complex, "response kernel"), at=self.at)
        object.__setattr__(self, "entries", entries)

    @property
    def spatial(self) -> np.ndarray:
        """The 3x3 block chi^j_l."""
        return self.entries[..., 1:, 1:]


def reconstruct_full(chi_spatial: np.ndarray, kw: Wavevector4, units: UnitsConfig = NATURAL) -> FullResponse4:
    """Extend a spatial block to the full kernel fixed by current
    conservation and gauge invariance."""
    require_dynamic(kw.omega)
    (chi,) = _stack("reconstruct_full", (chi_spatial, (3, 3), complex, "spatial response"), at=kw)
    return FullResponse4(_reconstruct(chi, np.asarray(kw.omega), kw.kvec, units), kw)


def _reconstruct(chi: np.ndarray, omega: np.ndarray, k: np.ndarray, units: UnitsConfig) -> np.ndarray:
    """The entries of reconstruct_full, without its checks: chi (3, 3) at omega (), k (3,), or a stack of N."""
    ratio = (units.c / omega)[..., None]
    chi_k = chi @ k[..., :, None]
    full = np.empty(chi.shape[:-2] + (4, 4), dtype=complex)
    full[..., :1, 0] = -(ratio * ratio) * (k[..., None, :] @ chi_k)[..., 0]
    full[..., :1, 1:] = ratio[..., :, None] * (k[..., None, :] @ chi)
    full[..., 1:, :1] = -ratio[..., :, None] * chi_k
    full[..., 1:, 1:] = chi
    return full


def constraint_residual(full: FullResponse4, units: UnitsConfig = NATURAL) -> tuple[float, float]:
    """Max-abs residuals of (k_mu chi^mu_nu, chi^mu_nu k^nu), normalized
    by the largest kernel entry.  Both are zero for a conserving, gauge
    invariant kernel; (0, 0) is returned for the zero kernel."""
    _one_point("constraint_residual", full.at.kvec.shape[:-1])
    m = full.entries
    norm = float(np.max(np.abs(m)))
    if norm == 0.0:
        return (0.0, 0.0)
    w_over_c = full.at.omega / units.c
    k_lower = np.concatenate(([-w_over_c], full.at.kvec))
    k_upper = np.concatenate(([w_over_c], full.at.kvec))
    r_left = float(np.max(np.abs(k_lower @ m))) / norm
    r_right = float(np.max(np.abs(m @ k_upper))) / norm
    return (r_left, r_right)


@dataclass(frozen=True)
class PotentialSet:
    """Scalar and vector potential amplitudes at a sample point."""

    phi: complex
    avec: np.ndarray
    at: Wavevector4

    def __post_init__(self) -> None:
        phi, avec = _stack("PotentialSet", (self.phi, (), complex, "scalar potential"),
                           (self.avec, (3,), complex, "vector potential"), at=self.at)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "avec", avec)

    def four(self, units: UnitsConfig = NATURAL) -> np.ndarray:
        """Contravariant components (phi/c, A)."""
        return np.concatenate(((np.asarray(self.phi) / units.c)[..., None], self.avec), axis=-1)


@dataclass(frozen=True)
class FourCurrent:
    """Charge and current density amplitudes; the four-vector is (c rho, j)."""

    rho: complex
    jvec: np.ndarray
    at: Wavevector4

    def __post_init__(self) -> None:
        rho, jvec = _stack("FourCurrent", (self.rho, (), complex, "charge density"),
                           (self.jvec, (3,), complex, "current density"), at=self.at)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "jvec", jvec)

    def four(self, units: UnitsConfig = NATURAL) -> np.ndarray:
        return np.concatenate((np.asarray(units.c * self.rho)[..., None], self.jvec), axis=-1)


def apply_response(full: FullResponse4, pot: PotentialSet, units: UnitsConfig = NATURAL) -> FourCurrent:
    """Induced four-current j^mu = chi^mu_nu A^nu.

    The potential must be sampled at the kernel's own (k, omega) point.
    """
    if pot.at != full.at:
        raise FrameMismatch(f"potential at {pot.at!r} but kernel at {full.at!r}")
    j4 = (full.entries @ pot.four(units)[..., None])[..., 0]
    return FourCurrent(rho=j4[..., 0] / units.c, jvec=j4[..., 1:], at=full.at)


def gauge_shift(pot: PotentialSet, f: complex) -> PotentialSet:
    """Shift the potential by the gradient of f exp(+i k.x - i omega t):
    phi -> phi + i omega f, A -> A + i k f; f is one complex or one per point."""
    f = np.asarray(f, dtype=complex)
    _broadcast("gauge_shift", ("f", f.shape), ("at", pot.at.kvec.shape[:-1]))
    return PotentialSet(phi=pot.phi + 1j * pot.at.omega * f, avec=pot.avec + 1j * pot.at.kvec * f[..., None], at=pot.at)
