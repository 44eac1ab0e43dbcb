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

Spatial tensors are plain complex (3, 3) ndarrays throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatch, StaticFrequency
from .minkowski import NATURAL, UnitsConfig, Wavevector4, _checked, _first

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


def require_dynamic(omega: float) -> None:
    """Reject frequencies too close to zero for 1/omega to mean anything."""
    if abs(omega) < STATIC_OMEGA_FLOOR:
        raise StaticFrequency(f"|omega| = {abs(omega)!r} is below the static floor {STATIC_OMEGA_FLOOR:.1e}")


def _require_dynamic(omega: np.ndarray) -> None:
    """require_dynamic for N frequencies; the first too close to zero raises."""
    static = abs(omega) < STATIC_OMEGA_FLOOR
    if static.any():
        require_dynamic(float(omega[_first(static)]))


def _real_quotient(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """z / x for complex z and nonzero real x, rounded as Python's complex
    division rounds it; numpy's multiplies by 1/x instead."""
    ratio = 0.0 / x
    out = np.empty(np.broadcast_shapes(np.shape(z), np.shape(x)), dtype=complex)
    out.real = (z.real + z.imag * ratio) / x
    out.imag = (z.imag - z.real * ratio) / x
    return out


def chi_from_sigma(sigma: np.ndarray, omega: float) -> np.ndarray:
    """Spatial response block chi = i omega sigma."""
    require_dynamic(omega)
    return 1j * omega * _checked(sigma, (3, 3), complex, "conductivity")


def sigma_from_chi(chi_spatial: np.ndarray, omega: float) -> np.ndarray:
    """Conductivity sigma = chi / (i omega), the inverse of chi_from_sigma."""
    require_dynamic(omega)
    return _checked(chi_spatial, (3, 3), complex, "spatial response") / (1j * omega)


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
        object.__setattr__(self, "entries", _checked(self.entries, (4, 4), complex, "response kernel"))

    @property
    def spatial(self) -> np.ndarray:
        """The 3x3 block chi^j_l."""
        return self.entries[1:, 1:]


def reconstruct_full(chi_spatial: np.ndarray, kw: Wavevector4, units: UnitsConfig = NATURAL) -> FullResponse4:
    """Extend a spatial block to the full kernel fixed by current
    conservation and gauge invariance."""
    require_dynamic(kw.omega)
    chi = _checked(chi_spatial, (3, 3), complex, "spatial response")
    return FullResponse4(_reconstruct(chi[None], np.array([kw.omega]), kw.kvec[None], units)[0], kw)


def _reconstruct(chi: np.ndarray, omega: np.ndarray, k: np.ndarray, units: UnitsConfig) -> np.ndarray:
    """reconstruct_full for N points: chi (N, 3, 3), omega (N,), k (N, 3)."""
    ratio = (units.c / omega)[:, None]
    chi_k = chi @ k[:, :, None]
    full = np.empty((len(omega), 4, 4), dtype=complex)
    # float_power is libm's pow, as Python's ** on a float; numpy's ** squares
    full[:, :1, 0] = -np.float_power(ratio, 2) * (k[:, None, :] @ chi_k)[:, 0]
    full[:, :1, 1:] = ratio[:, :, None] * (k[:, None, :] @ chi)
    full[:, 1:, :1] = -ratio[:, :, None] * chi_k
    full[:, 1:, 1:] = chi
    return full


def constraint_residual(full: FullResponse4, units: UnitsConfig = NATURAL) -> tuple[float, float]:
    """Max-abs residuals of (k_mu chi^mu_nu, chi^mu_nu k^nu), normalized
    by the largest kernel entry.  Both are zero for a conserving, gauge
    invariant kernel; (0, 0) is returned for the zero kernel."""
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
    """Scalar and vector potential amplitudes at one sample point."""

    phi: complex
    avec: np.ndarray
    at: Wavevector4

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", complex(_checked(self.phi, (), complex, "scalar potential")))
        object.__setattr__(self, "avec", _checked(self.avec, (3,), complex, "vector potential"))

    def four(self, units: UnitsConfig = NATURAL) -> np.ndarray:
        """Contravariant components (phi/c, A)."""
        return _potential_fours(np.array([self.phi]), self.avec[None], units)[0]


def _potential_fours(phi: np.ndarray, avec: np.ndarray, units: UnitsConfig) -> np.ndarray:
    """PotentialSet.four for N potentials: phi (N,), avec (N, 3) in, (N, 4) out."""
    return np.concatenate((_real_quotient(phi, units.c)[:, None], avec), axis=1)


@dataclass(frozen=True)
class FourCurrent:
    """Charge and current density amplitudes; the four-vector is (c rho, j)."""

    rho: complex
    jvec: np.ndarray
    at: Wavevector4

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", complex(_checked(self.rho, (), complex, "charge density")))
        object.__setattr__(self, "jvec", _checked(self.jvec, (3,), complex, "current density"))

    def four(self, units: UnitsConfig = NATURAL) -> np.ndarray:
        return np.concatenate(([units.c * self.rho], self.jvec))


def apply_response(full: FullResponse4, pot: PotentialSet, units: UnitsConfig = NATURAL) -> FourCurrent:
    """Induced four-current j^mu = chi^mu_nu A^nu.

    The potential must be sampled at the kernel's own (k, omega) point.
    """
    if pot.at != full.at:
        raise FrameMismatch(f"potential at {pot.at!r} but kernel at {full.at!r}")
    rho, jvec = _apply(full.entries[None], np.array([pot.phi]), pot.avec[None], units)
    return FourCurrent(rho=rho[0], jvec=jvec[0], at=full.at)


def _apply(full: np.ndarray, phi: np.ndarray, avec: np.ndarray, units: UnitsConfig) -> tuple:
    """apply_response for N kernels (N, 4, 4) and the potentials at their
    points, phi (N,) and avec (N, 3): rho (N,) and j (N, 3)."""
    j4 = (full @ _potential_fours(phi, avec, units)[:, :, None])[:, :, 0]
    return j4[:, 0] / units.c, j4[:, 1:]


def gauge_shift(pot: PotentialSet, f: complex) -> PotentialSet:
    """Shift the potential by the gradient of f exp(+i k.x - i omega t):
    phi -> phi + i omega f, A -> A + i k f."""
    phi, avec = _gauge_shift(np.array([pot.phi]), pot.avec[None], np.array([pot.at.omega]), pot.at.kvec[None], f)
    return PotentialSet(phi=phi[0], avec=avec[0], at=pot.at)


def _gauge_shift(phi, avec, omega, k, f) -> tuple:
    """gauge_shift for N potentials at the points omega (N,), k (N, 3), by one
    complex f or one per point: phi (N,) and avec (N, 3)."""
    f = np.asarray(f, dtype=complex)
    return phi + 1j * omega * f, avec + 1j * k * f[..., None]
