"""Current response in a frame where the conducting medium moves.

The medium is at rest in the primed frame and its conductivity there,
sigma', is taken as known; v is the medium's velocity in the lab frame.
Three formulas of decreasing generality give the lab-frame current:

* generalized:  j - v rho = gamma Lhat^(-1) sigma' Lhat^(-1) (E + v x B),
  exact, with (j, rho) recovered through the continuity equation;
* textbook:     j - rho v = gamma sigma' (E - v (v.E)/c^2 + v x B),
  exact only for scalar sigma', using Lhat^(-2) = 1 - v v^T/c^2;
* nonrelativistic: j - v rho = sigma' (E + v x B), the |v|^2/c^2 -> 0
  limit of both.

Fields are amplitudes at a sample point (k, omega) with the convention
exp(+i k.x - i omega t); the magnetic field is never free data but always
tied to E by Faraday's law, omega B = k x E.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .minkowski import NATURAL, BoostParams, UnitsConfig, Wavevector4, _checked
from .response import PotentialSet, require_dynamic
from .transform import projector_inverse

__all__ = [
    "FieldSet",
    "OhmResult",
    "fields_from_potential",
    "fields_from_electric",
    "ohm_current",
    "induced_charge",
    "generalized_ohm",
    "textbook_ohm",
    "textbook_ohm_nr",
]

FARADAY_TOL = 1e-10


@dataclass(frozen=True)
class FieldSet:
    """Electric and magnetic field amplitudes at one sample point.

    Construction rejects a B that is inconsistent with Faraday's law;
    build instances through fields_from_potential or fields_from_electric
    rather than choosing B by hand.
    """

    E: np.ndarray
    B: np.ndarray
    at: Wavevector4

    def __post_init__(self) -> None:
        e = _checked(self.E, (3,), complex, "E")
        b = _checked(self.B, (3,), complex, "B")
        w = self.at.omega
        k = self.at.kvec
        resid = float(np.max(np.abs(w * b - np.cross(k, e))))
        scale = abs(w) * float(np.max(np.abs(b))) + float(np.max(np.abs(k))) * float(np.max(np.abs(e)))
        if resid > FARADAY_TOL * scale:
            raise InvariantViolation(
                f"omega B != k x E (residual {resid:.3e} against scale {scale:.3e}); "
                "derive B from the potential or from E"
            )
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "B", b)


def fields_from_potential(pot: PotentialSet) -> FieldSet:
    """E = -i k phi + i omega A and B = i k x A."""
    w = pot.at.omega
    k = pot.at.kvec
    e = -1j * k * pot.phi + 1j * w * pot.avec
    b = 1j * np.cross(k, pot.avec)
    return FieldSet(E=e, B=b, at=pot.at)


def fields_from_electric(evec, at: Wavevector4) -> FieldSet:
    """Complete an electric amplitude with the Faraday-consistent B = k x E / omega."""
    require_dynamic(at.omega)
    e = _checked(evec, (3,), complex, "E")
    return FieldSet(E=e, B=np.cross(at.kvec, e) / at.omega, at=at)


def ohm_current(sigma: np.ndarray, evec) -> np.ndarray:
    """j = sigma E; the rest-frame form of Ohm's law."""
    return np.asarray(sigma, dtype=complex) @ _checked(evec, (3,), complex, "E")


def induced_charge(sigma: np.ndarray, evec, kw: Wavevector4) -> complex:
    """Charge density that continuity forces on j = sigma E: rho = k.j/omega."""
    require_dynamic(kw.omega)
    return complex(kw.kvec @ ohm_current(sigma, evec)) / kw.omega


@dataclass(frozen=True)
class OhmResult:
    """Current, charge, and their drift combination j - v rho."""

    drift_current: np.ndarray
    jvec: np.ndarray
    rho: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "drift_current", _checked(self.drift_current, (3,), complex, "drift_current"))
        object.__setattr__(self, "jvec", _checked(self.jvec, (3,), complex, "jvec"))
        object.__setattr__(self, "rho", complex(self.rho))


def generalized_ohm(
    sigma_primed_at: np.ndarray,
    v: np.ndarray,
    fields: FieldSet,
    units: UnitsConfig = NATURAL,
) -> OhmResult:
    """Exact moving-medium form of Ohm's law.

    sigma_primed_at is the rest-frame conductivity already evaluated at
    the boosted point (k', omega').  The formula determines only the
    drift combination j - v rho; the split into j and rho follows from
    continuity, rho = k.j/omega, through a rank-one solve.
    """
    bp = BoostParams(v, units)
    w = fields.at.omega
    require_dynamic(w)
    k = fields.at.kvec
    sig = _checked(sigma_primed_at, (3, 3), complex, "conductivity")
    lhat_inv = bp.lambda_hat_inv
    emf = fields.E + np.cross(bp.v, fields.B)
    drift = bp.gamma * (lhat_inv @ sig @ lhat_inv @ emf)
    # arguments swapped on purpose: this inverts (1 - v k^T/omega), which
    # is the matrix relating j to the drift combination
    jvec = projector_inverse(bp.v, k, w) @ drift
    rho = complex(k @ jvec) / w
    return OhmResult(drift_current=drift, jvec=jvec, rho=rho)


def textbook_ohm(
    sigma_scalar: complex,
    v: np.ndarray,
    fields: FieldSet,
    units: UnitsConfig = NATURAL,
) -> np.ndarray:
    """Scalar-conductivity drift current
    j - rho v = gamma sigma (E - (v/c)((v/c).E) + v x B)."""
    bp = BoostParams(v, units)
    beta = bp.v / units.c
    emf = fields.E + np.cross(bp.v, fields.B)
    return bp.gamma * complex(sigma_scalar) * (emf - beta * (beta @ fields.E))


def textbook_ohm_nr(sigma_scalar: complex, v: np.ndarray, fields: FieldSet) -> np.ndarray:
    """Nonrelativistic limit j - v rho = sigma (E + v x B)."""
    vv = _checked(v, (3,), float, "velocity")
    return complex(sigma_scalar) * (fields.E + np.cross(vv, fields.B))
