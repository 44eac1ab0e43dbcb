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
tied to E by Faraday's law, omega B = k x E.  Every value and function here
takes one point or a stack of N, and one boost or one per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .minkowski import (
    NATURAL, UnitsConfig, Wavevector4, _boost, _broadcast, _checked, _cross, _dots, _first, _shared, _stack,
)
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
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class FieldSet:
    """Electric and magnetic field amplitudes at a sample point.

    Construction rejects a B that is inconsistent with Faraday's law;
    build instances through fields_from_potential or fields_from_electric
    rather than choosing B by hand.
    """

    E: np.ndarray
    B: np.ndarray
    at: Wavevector4

    def __post_init__(self) -> None:
        e, b = _stack("FieldSet", (self.E, (3,), complex, "E"), (self.B, (3,), complex, "B"), at=self.at)
        # omega and k in units of 8 max(|omega|, |k|), so that for finite fields every product, difference and
        # modulus below stays within float range; the scale is max|omega B| + max|k| max|E| in those units.  The
        # unit is divided out in two steps, the second exact, since 8 max(|omega|, |k|) may overflow
        omega, k = np.asarray(self.at.omega)[..., None], self.at.kvec
        unit = np.maximum(np.maximum(abs(omega), abs(k).max(axis=-1, keepdims=True)), _TINY)
        omega, k = omega / unit / 8.0, k / unit / 8.0
        wb = omega * b
        resid = np.abs(wb - _cross(k, e)).max(axis=-1)
        scale = np.abs(wb).max(axis=-1) + np.abs(abs(k).max(axis=-1, keepdims=True) * e).max(axis=-1)
        off = ~(resid <= FARADAY_TOL * scale)  # a residual that is not finite fails
        if off.any():
            i = _first(off)
            raise InvariantViolation(
                f"omega B != k x E (residual {np.ravel(resid)[i]:.3e} against scale {np.ravel(scale)[i]:.3e}); "
                "derive B from the potential or from E"
            )
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "B", b)


def fields_from_potential(pot: PotentialSet) -> FieldSet:
    """E = -i k phi + i omega A and B = i k x A."""
    omega, phi, k = np.asarray(pot.at.omega)[..., None], np.asarray(pot.phi)[..., None], pot.at.kvec
    return FieldSet(E=-1j * k * phi + 1j * omega * pot.avec, B=1j * _cross(k, pot.avec), at=pot.at)


def fields_from_electric(evec, at: Wavevector4) -> FieldSet:
    """Complete an electric amplitude with the Faraday-consistent B = k x E / omega."""
    require_dynamic(at.omega)
    (e,) = _stack("fields_from_electric", (evec, (3,), complex, "E"), at=at)
    with np.errstate(over="ignore", invalid="ignore"):  # a B beyond float range is not finite, which FieldSet rejects
        b = _cross(at.kvec, e) / np.asarray(at.omega)[..., None]
    return FieldSet(E=e, B=b, at=at)


def ohm_current(sigma: np.ndarray, evec) -> np.ndarray:
    """j = sigma E; the rest-frame form of Ohm's law."""
    s, e = np.asarray(sigma, dtype=complex), _checked(evec, (3,), complex, "E", stacked=True)
    _broadcast("ohm_current", ("conductivity", s.shape[:-2]), ("E", e.shape[:-1]))
    return (s @ e[..., None])[..., 0]


def induced_charge(sigma: np.ndarray, evec, kw: Wavevector4) -> complex:
    """Charge density that continuity forces on j = sigma E: rho = k.j/omega."""
    require_dynamic(kw.omega)
    _broadcast("induced_charge", ("conductivity", np.shape(sigma)[:-2]), ("E", np.shape(evec)[:-1]),
               ("at", kw.kvec.shape[:-1]))
    rho = _dots(kw.kvec, ohm_current(sigma, evec)) / kw.omega
    return rho if rho.ndim else complex(rho)


@dataclass(frozen=True)
class OhmResult:
    """Current, charge, and their drift combination j - v rho."""

    drift_current: np.ndarray
    jvec: np.ndarray
    rho: complex

    def __post_init__(self) -> None:
        drift, jvec, rho = _stack("OhmResult", (self.drift_current, (3,), complex, "drift_current"),
                                  (self.jvec, (3,), complex, "jvec"), (self.rho, (), complex, "rho"))
        object.__setattr__(self, "drift_current", drift)
        object.__setattr__(self, "jvec", jvec)
        object.__setattr__(self, "rho", rho)


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
    continuity, rho = k.j/omega, through a rank-one solve.  v is the
    velocity, or the BoostParams already built from it.
    """
    bp = _boost(v, units)
    omega, k = fields.at.omega, fields.at.kvec
    require_dynamic(omega)
    (sigma,) = _stack("generalized_ohm", (sigma_primed_at, (3, 3), complex, "conductivity"), at=fields.at)
    _shared("generalized_ohm", bp.v.shape[:-1], k.shape[:-1])
    lhat_inv = bp.lambda_hat_inv
    emf = fields.E + _cross(bp.v, fields.B)
    drift = np.asarray(bp.gamma)[..., None] * (lhat_inv @ sigma @ lhat_inv @ emf[..., None])[..., 0]
    # arguments swapped on purpose: this inverts (1 - v k^T/omega), which relates j to the drift combination
    jvec = (projector_inverse(bp.v, k, omega) @ drift[..., None])[..., 0]
    return OhmResult(drift_current=drift, jvec=jvec, rho=_dots(k, jvec) / omega)


def textbook_ohm(
    sigma_scalar: complex,
    v: np.ndarray,
    fields: FieldSet,
    units: UnitsConfig = NATURAL,
) -> np.ndarray:
    """Scalar-conductivity drift current
    j - rho v = gamma sigma (E - (v/c)((v/c).E) + v x B); v is the
    velocity, or the BoostParams already built from it."""
    bp = _boost(v, units)
    _shared("textbook_ohm", bp.v.shape[:-1], fields.at.kvec.shape[:-1])
    s = np.asarray(sigma_scalar, dtype=complex)
    _broadcast("textbook_ohm", ("conductivity", s.shape), ("at", fields.at.kvec.shape[:-1]))
    beta = bp.v / bp.units.c
    with np.errstate(over="ignore", invalid="ignore"):  # a current beyond float range is inf or NaN; callers check it
        emf = fields.E + _cross(bp.v, fields.B) - beta * _dots(beta, fields.E)[..., None]
        return (bp.gamma * s)[..., None] * emf


def textbook_ohm_nr(sigma_scalar: complex, v: np.ndarray, fields: FieldSet) -> np.ndarray:
    """Nonrelativistic limit j - v rho = sigma (E + v x B)."""
    s, vv = np.asarray(sigma_scalar, dtype=complex), _checked(v, (3,), float, "velocity", stacked=True)
    _broadcast("textbook_ohm_nr", ("conductivity", s.shape), ("velocity", vv.shape[:-1]),
               ("at", fields.at.kvec.shape[:-1]))
    return s[..., None] * (fields.E + _cross(vv, fields.B))
