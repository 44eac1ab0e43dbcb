"""Minkowski geometry and the Lorentz group O(1,3).

Conventions used throughout the package:

* metric eta = diag(-1, +1, +1, +1);
* four-vectors are stored contravariant, time component first, so the
  wave four-vector of a sample point is (omega/c, k);
* a boost with velocity v has gamma = 1/sqrt(1 - |v|^2/c^2) and spatial
  block Lhat = 1 + (gamma - 1) v v^T / |v|^2 (the identity when v = 0).

All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDecomposition,
    InvariantViolation,
    NotOrthogonal,
    SpeedLimit,
)

__all__ = [
    "ETA",
    "GROUP_TOL",
    "SPEED_MARGIN",
    "UnitsConfig",
    "NATURAL",
    "SI",
    "Wavevector4",
    "BoostParams",
    "LorentzMatrix",
    "PARITY_FLIP",
    "TIME_FLIP",
    "boost_matrix",
    "rotation_embed",
    "compose",
    "inverse",
    "transform_wavevector",
    "decompose",
]

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
ETA.setflags(write=False)

_EYE3 = np.eye(3)  # read-only: shared by every call that adds the identity
_EYE3.setflags(write=False)

# |v|/c must stay below 1 - SPEED_MARGIN so gamma stays representable.
SPEED_MARGIN = 1e-12

# Group membership tolerance on the metric residual of a unit-scale
# matrix; LorentzMatrix scales it by max(1, max|m|)^2 (see there).
GROUP_TOL = 1e-12

# Gate for user-supplied rotation matrices (looser than GROUP_TOL; a
# rotation that fails this was never orthogonal to begin with).
ROTATION_TOL = 1e-10


def _checked(x, shape: tuple, dtype, name: str, stacked: bool = False) -> np.ndarray:
    """x as an array of the given shape and dtype, or when stacked also a
    stack of them along a leading axis, with finite entries;
    InvariantViolation naming it otherwise."""
    a = np.asarray(x, dtype=dtype)
    if a.shape != shape and not (stacked and a.ndim == len(shape) + 1 and a.shape[1:] == shape):
        raise InvariantViolation(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise InvariantViolation(f"{name} entries must be finite")
    return a


def _stack(owner: str, *fields, at: Wavevector4 | None = None) -> list:
    """The fields (x, shape, dtype, name) of a value or call, each _checked: all of one point, a Python number for
    shape (), or all stacks of the same N points, as at is if given; InvariantViolation otherwise."""
    arrays, leads = [], []
    for x, shape, dtype, name in fields:
        if not shape and isinstance(x, float if dtype is float else (float, complex)):  # no array for a Python number
            x = dtype(x)
            if not cmath.isfinite(x):
                raise InvariantViolation(f"{name} entries must be finite")
            arrays.append(x)
            leads.append((name, ()))
            continue
        a = _checked(x, shape, dtype, name, stacked=True)
        arrays.append(a if a.ndim else a.item())
        leads.append((name, a.shape[: a.ndim - len(shape)]))
    if at is not None:
        leads.append(("at", at.kvec.shape[:-1]))
    if len({lead for _, lead in leads}) > 1:
        raise _disagree(owner, leads)
    return arrays


def _broadcast(owner: str, *leads: tuple) -> None:
    """InvariantViolation unless the (name, leading shape) pairs of arrays that numpy broadcasts together are
    each (), of one point that serves every point, or of the same N points."""
    if len({lead for _, lead in leads} - {()}) > 1:
        raise _disagree(owner, leads)


def _shared(owner: str, boosts: tuple, lead: tuple) -> None:
    """InvariantViolation unless the boosts, () for one that serves every point or (N,), agree with the points' lead."""
    if boosts not in ((), lead):
        raise _disagree(owner, [("boosts", boosts), ("at", lead)])


def _disagree(owner: str, leads) -> InvariantViolation:
    shapes = ", ".join(f"{name} {lead}" for name, lead in leads)
    return InvariantViolation(f"{owner}: leading shapes {shapes} disagree in N")


def _one_point(owner: str, lead: tuple) -> None:
    """InvariantViolation for a stack, lead (N,), handed to owner, which takes one point."""
    if lead:
        raise InvariantViolation(f"{owner} takes one point, not a stack of {lead[0]}")


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last axis of (..., 3) stacks; rounds as a @ b of two vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross(a, b) over the last axis of (..., 3) stacks: the same products
    and differences, at a fraction of np.cross's fixed cost per call."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    x = a1 * b2 - a2 * b1
    out = np.empty(x.shape + (3,), x.dtype)
    out[..., 0] = x
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _scaled(v: np.ndarray) -> tuple:
    """(u, e) with v = u 2^e, 2^e near the largest |entry| of v or of each row of a stack: exact, so u.u neither
    overflows nor underflows where v.v would, and sqrt(u.u) 2^e is sqrt(v.v) to the bit where v.v is normal."""
    e = np.frexp(np.abs(v).max(axis=-1, keepdims=True))[1]
    return np.ldexp(v, -e), e[..., 0]


def _mat(x) -> np.ndarray:
    """x with two trailing axes, to scale a 3x3 block or a stack of them."""
    return np.asarray(x)[..., None, None]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.outer(a, b) for vectors, or for each row of (N, 3) stacks."""
    return a[..., :, None] * b[..., None, :]


def _first(bad: np.ndarray) -> int:
    """Index of the first True entry of a mask of any shape, flattened."""
    return int(np.argmax(np.ravel(bad)))


def _checked_rotation(rot) -> np.ndarray:
    """A spatial rotation matrix, orthogonal to within ROTATION_TOL."""
    r = _checked(rot, (3, 3), float, "rotation")
    defect = float(np.max(np.abs(r.T @ r - _EYE3)))
    if defect > ROTATION_TOL:
        raise NotOrthogonal(f"R^T R deviates from the identity by {defect:.3e}")
    return r


@dataclass(frozen=True)
class UnitsConfig:
    """Unit system; only the speed of light enters the formulas."""

    c: float = 1.0

    def __post_init__(self) -> None:
        c = float(self.c)
        if not (np.isfinite(c) and c > 0.0):
            raise InvariantViolation(f"speed of light must be finite and positive, got {self.c!r}")
        object.__setattr__(self, "c", c)


NATURAL = UnitsConfig(c=1.0)
SI = UnitsConfig(c=299_792_458.0)


@dataclass(frozen=True, eq=False)
class Wavevector4:
    """A sample point (k, omega) in reciprocal space, or a stack of N of
    them: omega (N,) and kvec (N, 3).

    omega may be zero at the type level; operations that divide by omega
    reject such points with StaticFrequency.
    """

    omega: float
    kvec: np.ndarray

    def __post_init__(self) -> None:
        omega, kvec = _stack("Wavevector4", (self.omega, (), float, "omega"), (self.kvec, (3,), float, "kvec"))
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "kvec", kvec)

    def four(self, units: UnitsConfig = NATURAL) -> np.ndarray:
        """Contravariant components (omega/c, kx, ky, kz), (4,) or (N, 4)."""
        return _fours(self.omega, self.kvec, units)

    def minkowski_norm(self, units: UnitsConfig = NATURAL) -> float:
        """-omega^2/c^2 + |k|^2, or (N,) of them; invariant under every Lorentz transform."""
        w = self.omega / units.c
        norm = -(w * w) + _dots(self.kvec, self.kvec)
        return norm if np.ndim(norm) else float(norm)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Wavevector4):
            return NotImplemented
        return self is other or (np.array_equal(self.omega, other.omega) and np.array_equal(self.kvec, other.kvec))

    def __neg__(self) -> "Wavevector4":
        return Wavevector4(-self.omega, -self.kvec)

    def __repr__(self) -> str:  # keep error messages readable
        return f"Wavevector4(omega={np.asarray(self.omega).tolist()!r}, kvec={self.kvec.tolist()!r})"


@dataclass(frozen=True)
class BoostParams:
    """Velocity parameterization of a pure boost; gamma and the spatial
    block are derived once at construction, the 4x4 matrix on first use.

    v may also be an (N, 3) stack of velocities, one boost per row: gamma
    is then (N,), the blocks (N, 3, 3) and the matrix an (N, 4, 4) stack,
    each row rounded as the boost of that velocity alone, and the first
    row at or above the speed limit raises.
    """

    v: np.ndarray
    units: UnitsConfig = NATURAL
    gamma: float = field(init=False)
    lambda_hat: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        v = _checked(self.v, (3,), float, "velocity", stacked=True)
        c = self.units.c
        u, e = _scaled(v)
        unit_speed = np.sqrt(_dots(u, u))
        with np.errstate(over="ignore"):  # a |v| beyond float range is inf, over the limit as it should be
            speed = np.ldexp(unit_speed, e)
        over = speed / c > 1.0 - SPEED_MARGIN
        if over.any():
            speed = float(np.ravel(speed)[_first(over)])
            raise SpeedLimit(f"|v| = {speed!r} is at or above the speed of light c = {c!r}")
        beta = speed / c
        gamma = 1.0 / np.sqrt(1.0 - beta * beta)
        # at rest gamma - 1 = 0, so a unit denominator leaves Lhat the identity
        lhat = _EYE3 + _mat(gamma - 1.0) * _outer(u, u) / _mat(np.where(unit_speed > 0.0, unit_speed * unit_speed, 1.0))
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "gamma", gamma if v.ndim == 2 else float(gamma))
        object.__setattr__(self, "lambda_hat", lhat)

    @property
    def lambda_hat_inv(self) -> np.ndarray:
        """Inverse spatial block, 1 + (1/gamma - 1) v v^T / |v|^2."""
        u = _scaled(self.v)[0]
        u2 = _dots(u, u)
        return _EYE3 + _mat(1.0 / self.gamma - 1.0) * _outer(u, u) / _mat(np.where(u2 == 0.0, 1.0, u2))

    def matrix(self) -> "LorentzMatrix":
        """The 4x4 boost, [[gamma, -gamma v^T/c], [-gamma v/c, Lhat]],
        built and checked once per BoostParams."""
        if "_matrix" not in self.__dict__:
            gamma = np.asarray(self.gamma)
            m = np.empty(self.v.shape[:-1] + (4, 4))
            m[..., 0, 0] = gamma
            m[..., 0, 1:] = -gamma[..., None] * self.v / self.units.c
            m[..., 1:, 0] = m[..., 0, 1:]
            m[..., 1:, 1:] = self.lambda_hat
            object.__setattr__(self, "_matrix", LorentzMatrix(m))
        return self.__dict__["_matrix"]


@dataclass(frozen=True)
class LorentzMatrix:
    """Real 4x4 element of O(1,3), or an (N, 4, 4) stack of them;
    membership is checked at construction.  The properties and decompose
    take one matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = _checked(self.entries, (4, 4), float, "Lorentz matrix", stacked=True)
        # Each entry of m^T eta m sums four products of entries, each off by
        # about eps |m_ij| |m_kl| after rounding, so a member of O(1,3) stored
        # in floating point has a residual up to a few eps max|m|^2; a fast
        # boost has max|m| = gamma, a rotation or flip 1.  So the check runs
        # in units of s = max(1, max|m|): m/s, whose products cannot overflow,
        # against eta/s^2, to GROUP_TOL.  A stack is checked matrix by matrix,
        # and its first failing matrix raises.
        s = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))[..., None, None]
        unit = m / s
        resid = np.abs(unit.swapaxes(-1, -2) @ ETA @ unit - ETA / s / s).max(axis=(-2, -1))
        outside = ~(resid <= GROUP_TOL)  # a residual that is not finite fails
        if outside.any():
            raise InvariantViolation(f"matrix is not in O(1,3): metric residual {np.ravel(resid)[_first(outside)]:.3e} "
                                     f"in units of max(1, max|m|)^2 exceeds {GROUP_TOL:.1e}")
        object.__setattr__(self, "entries", m)

    @property
    def proper(self) -> bool:
        """True when det = +1 (orientation preserving)."""
        _one_point("LorentzMatrix.proper", self.entries.shape[:-2])
        return bool(np.linalg.det(self.entries) > 0.0)

    @property
    def orthochronous(self) -> bool:
        """True when the transform preserves the direction of time."""
        _one_point("LorentzMatrix.orthochronous", self.entries.shape[:-2])
        # |entry[0,0]| >= 1 for any member of O(1,3), so the sign decides.
        return bool(self.entries[0, 0] > 0.0)


def boost_matrix(v: np.ndarray, units: UnitsConfig = NATURAL) -> LorentzMatrix:
    """Pure boost with velocity v; the identity when v = 0."""
    return BoostParams(v, units).matrix()


def rotation_embed(rot: np.ndarray) -> LorentzMatrix:
    """Embed a spatial orthogonal matrix as a Lorentz transform fixing time."""
    m = np.eye(4)
    m[1:, 1:] = _checked_rotation(rot)
    return LorentzMatrix(m)


# Discrete elements: spatial inversion and time reversal.
PARITY_FLIP = LorentzMatrix(np.diag([1.0, -1.0, -1.0, -1.0]))
TIME_FLIP = LorentzMatrix(np.diag([-1.0, 1.0, 1.0, 1.0]))


def compose(a: LorentzMatrix, b: LorentzMatrix) -> LorentzMatrix:
    """Matrix product a b (apply b first)."""
    return LorentzMatrix(a.entries @ b.entries)


def inverse(lam: LorentzMatrix) -> LorentzMatrix:
    """Group inverse eta Lambda^T eta; exact, no linear solve involved."""
    return LorentzMatrix(ETA @ lam.entries.swapaxes(-1, -2) @ ETA)


def transform_wavevector(lam: LorentzMatrix, kw: Wavevector4, units: UnitsConfig = NATURAL) -> Wavevector4:
    """Apply the 4x4 matrix, or a stack of one per point, to (omega/c, k).

    For a pure boost this reduces to k' = Lhat k - gamma omega v / c^2 and
    omega' = gamma (omega - v.k).
    """
    _shared("transform_wavevector", lam.entries.shape[:-2], kw.kvec.shape[:-1])
    return Wavevector4(*_transform_points(lam, kw.omega, kw.kvec, units))


def _transform_points(lam: LorentzMatrix, omega, kvec: np.ndarray, units: UnitsConfig):
    """omega' and k' of the points omega () or (N,), kvec (3,) or (N, 3),
    by one matrix or a stack of N."""
    four_p = (lam.entries @ _fours(omega, kvec, units)[..., None])[..., 0]
    return units.c * four_p[..., 0], four_p[..., 1:]


def _fours(omega, kvec: np.ndarray, units: UnitsConfig) -> np.ndarray:
    """(omega/c, k) of the points omega () or (N,), kvec (3,) or (N, 3)."""
    four = np.empty(kvec.shape[:-1] + (4,))
    four[..., 0] = omega / units.c
    four[..., 1:] = kvec
    return four


def _boost(v, units: UnitsConfig) -> BoostParams:
    """The BoostParams of the velocity v, or v itself when it is one."""
    return v if isinstance(v, BoostParams) else BoostParams(v, units)


def decompose(
    lam: LorentzMatrix, units: UnitsConfig = NATURAL
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Factor lam = T^t . boost(v) . rotation_embed(R) . P^p.

    T and P are the time and parity flips; the returned integers t, p are
    +1 when the corresponding flip is absent and -1 when present.  v is
    read off the time column of the proper orthochronous representative.

    Raises DegenerateDecomposition when that column encodes a speed too
    close to c for the boost factor to be representable.
    """
    _one_point("decompose", lam.entries.shape[:-2])
    m = lam.entries
    time_reversal = 1
    if m[0, 0] < 0.0:
        m = TIME_FLIP.entries @ m
        time_reversal = -1
    parity = 1
    if np.linalg.det(m) < 0.0:
        m = m @ PARITY_FLIP.entries
        parity = -1
    gamma = m[0, 0]
    v = -units.c * m[1:, 0] / gamma
    u, e = _scaled(v)
    speed = float(np.ldexp(np.sqrt(u @ u), e))
    if not np.isfinite(speed) or speed / units.c > 1.0 - SPEED_MARGIN:
        raise DegenerateDecomposition(f"time column encodes |v|/c = {speed / units.c!r}, too close to 1")
    boost = BoostParams(v, units).matrix()
    rot = (inverse(boost).entries @ m)[1:, 1:]
    return rot, v, parity, time_reversal
