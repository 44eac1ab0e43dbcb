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
from .minkowski import NATURAL, BoostParams, UnitsConfig, Wavevector4, _checked, _cross, _dots, _first
from .response import PotentialSet, _real_quotient, require_dynamic
from .transform import _projector_inverse, _require_off_resonance

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
        _require_faraday(e[None], b[None], np.array([self.at.omega]), self.at.kvec[None])
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "B", b)


def _require_faraday(e: np.ndarray, b: np.ndarray, omega: np.ndarray, k: np.ndarray) -> None:
    """FieldSet's Faraday check on N fields (N, 3) at the points omega (N,),
    k (N, 3); the first inconsistent one raises."""
    resid = np.abs(omega[:, None] * b - _cross(k, e)).max(axis=1)
    scale = abs(omega) * np.abs(b).max(axis=1) + np.abs(k).max(axis=1) * np.abs(e).max(axis=1)
    off = resid > FARADAY_TOL * scale
    if off.any():
        i = _first(off)
        raise InvariantViolation(
            f"omega B != k x E (residual {resid[i]:.3e} against scale {scale[i]:.3e}); "
            "derive B from the potential or from E"
        )


# The functions below are the N = 1 calls of array kernels over N points: omega (N,), k (N, 3), fields
# and potentials (N, 3) or (N,), conductivities (N, 3, 3), and one boost or a stack of N (BoostParams).
# Each kernel makes the checks its function makes between its arithmetic, the first failing point raising;
# the checks on its inputs and on the value it returns stay with the function.  Stacks round as N = 1 would.
def fields_from_potential(pot: PotentialSet) -> FieldSet:
    """E = -i k phi + i omega A and B = i k x A."""
    e, b = _from_potential(np.array([pot.phi]), pot.avec[None], np.array([pot.at.omega]), pot.at.kvec[None])
    return FieldSet(E=e[0], B=b[0], at=pot.at)


def _from_potential(phi, avec, omega, k) -> tuple:
    return -1j * k * phi[:, None] + 1j * omega[:, None] * avec, 1j * _cross(k, avec)


def fields_from_electric(evec, at: Wavevector4) -> FieldSet:
    """Complete an electric amplitude with the Faraday-consistent B = k x E / omega."""
    require_dynamic(at.omega)
    e = _checked(evec, (3,), complex, "E")
    return FieldSet(E=e, B=_from_electric(e[None], np.array([at.omega]), at.kvec[None])[0], at=at)


def _from_electric(e, omega, k) -> np.ndarray:
    return _cross(k, e) / omega[:, None]


def ohm_current(sigma: np.ndarray, evec) -> np.ndarray:
    """j = sigma E; the rest-frame form of Ohm's law."""
    return _ohm_current(np.asarray(sigma, dtype=complex)[None], _checked(evec, (3,), complex, "E")[None])[0]


def _ohm_current(sigma, e) -> np.ndarray:
    return (sigma @ e[:, :, None])[:, :, 0]


def induced_charge(sigma: np.ndarray, evec, kw: Wavevector4) -> complex:
    """Charge density that continuity forces on j = sigma E: rho = k.j/omega."""
    require_dynamic(kw.omega)
    sigma, e = np.asarray(sigma, dtype=complex)[None], _checked(evec, (3,), complex, "E")[None]
    return complex(_induced_charge(sigma, e, np.array([kw.omega]), kw.kvec[None])[0])


def _induced_charge(sigma, e, omega, k) -> np.ndarray:
    return _real_quotient(_dots(k, _ohm_current(sigma, e)), omega)


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


def _boost(v, units: UnitsConfig) -> BoostParams:
    return v if isinstance(v, BoostParams) else BoostParams(v, units)


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
    w = fields.at.omega
    require_dynamic(w)
    sig = _checked(sigma_primed_at, (3, 3), complex, "conductivity")
    drift, jvec, rho = _generalized(sig[None], bp, fields.E[None], fields.B[None], np.array([w]), fields.at.kvec[None])
    return OhmResult(drift_current=drift[0], jvec=jvec[0], rho=rho[0])


def _generalized(sigma, bp: BoostParams, e, b, omega, k) -> tuple:
    lhat_inv = bp.lambda_hat_inv
    emf = e + _cross(bp.v, b)
    drift = np.asarray(bp.gamma)[..., None] * (lhat_inv @ sigma @ lhat_inv @ emf[:, :, None])[:, :, 0]
    # projector_inverse(v, k, omega), arguments swapped on purpose: this inverts (1 - v k^T/omega),
    # which is the matrix relating j to the drift combination
    v_dot_k = _dots(k, bp.v)
    _require_off_resonance(omega, v_dot_k)
    jvec = (_projector_inverse(bp.v, k, omega - v_dot_k) @ drift[:, :, None])[:, :, 0]
    return drift, jvec, _real_quotient(_dots(k, jvec), omega)


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
    return _textbook(np.array([complex(sigma_scalar)]), bp, fields.E[None], fields.B[None])[0]


def _textbook(s0, bp: BoostParams, e, b) -> np.ndarray:
    beta = bp.v / bp.units.c
    emf = e + _cross(bp.v, b)
    return (bp.gamma * s0)[:, None] * (emf - beta * _dots(beta, e)[:, None])


def textbook_ohm_nr(sigma_scalar: complex, v: np.ndarray, fields: FieldSet) -> np.ndarray:
    """Nonrelativistic limit j - v rho = sigma (E + v x B)."""
    vv = _checked(v, (3,), float, "velocity")
    return complex(sigma_scalar) * (fields.E + _cross(vv, fields.B))
