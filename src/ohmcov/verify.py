"""Randomized cross checks shared by the command line verifier and the
acceptance tests.

Sampling distribution: conductivity entries have real and imaginary parts
uniform on [-1, 1]; omega is uniform on [0.1, 10]; |k| is uniform on
[0, 5] and |v|/c on [0, 0.9], both with isotropic directions.  Points too
close to the boost resonance omega = v.k are resampled.

Each suite draws its samples one at a time from the generator, in a fixed
order per sample, and evaluates them BLOCK at a time through the array
kernels with one boost per sample.  Each run of consecutive uniforms in the
stream is one generator call, mapped with rng.uniform's arithmetic, while
normals and the resonance guard stay per sample; so the stream is the one
the public samplers draw.  The kernels round each sample as the
single-point functions do, so a seed gives the same residuals at any block
size.  Every check a single-point function or value makes runs on every
sample, the points' included; should one fail, the block is evaluated again
sample by sample, so the first failing sample in draw order raises that
check's error.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import OhmcovError
from .minkowski import NATURAL, BoostParams, UnitsConfig, Wavevector4, _checked, _dots, _finite, _fours
from .ohm import (
    _from_electric,
    _from_potential,
    _generalized,
    _induced_charge,
    _ohm_current,
    _require_faraday,
    _textbook,
)
from .response import _apply, _gauge_shift, _potential_fours, _reconstruct, _require_dynamic
from .transform import _direct, _inverse, _oracle, _usable

__all__ = [
    "SuiteResult",
    "rel_error",
    "sample_sigma",
    "sample_point",
    "sample_velocity",
    "sample_boost_setup",
    "oracle_equivalence_suite",
    "round_trip_suite",
    "gauge_invariance_suite",
    "continuity_suite",
    "ohm_covariance_suite",
    "textbook_specialization_suite",
    "run_all",
]

ABS_FLOOR = 1e-14

# The operations reject only a 1e-9 relative band around omega = v.k, but
# random sampling stays further away: at distance d the two computation
# paths lose about 1e-16 * max(|omega|, |v.k|) / d of relative agreement
# to cancellation, so keeping d above 1e-4 of that scale preserves the
# 1e-10 cross-check budget with two orders of margin.
SAMPLER_GUARD_RTOL = 1e-4

# Samples per array evaluation.  At 1000 samples, 256 runs as fast as 1024
# and peaks 2 MB lower: the drawn samples and the kernels' temporaries scale with it.
BLOCK = 256


@dataclass(frozen=True)
class SuiteResult:
    name: str
    samples: int
    max_residual: float
    tolerance: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


def rel_error(a, b, floor: float = ABS_FLOOR) -> float:
    """Max-abs difference over max-abs magnitude, floored for near-zero data."""
    return float(_rel_errors(np.asarray(a)[None], np.asarray(b)[None], floor)[0])


def _rel_errors(a: np.ndarray, b: np.ndarray, floor: float = ABS_FLOOR) -> np.ndarray:
    """rel_error of a[i] and b[i] for each i of a leading batch axis."""
    axes = tuple(range(1, a.ndim))
    scale = np.maximum(np.maximum(np.abs(a).max(axis=axes), np.abs(b).max(axis=axes)), floor)
    return np.abs(a - b).max(axis=axes) / scale


def _uniform(low: float, high: float, u):
    """rng.uniform(low, high)'s arithmetic on the generator's u in [0, 1)."""
    return low + (high - low) * u


def _complexes(u: np.ndarray, *shapes: tuple) -> list:
    """Complex values from runs of uniforms u (..., m), one per shape in turn,
    each drawn as rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape):
    its real parts, then its imaginary parts."""
    x = _uniform(-1.0, 1.0, u)
    values, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        z = x[..., at:at + size] + 1j * x[..., at + size:at + 2 * size]
        values.append(z.reshape(*u.shape[:-1], *shape))
        at += 2 * size
    return values


def _direction(rng: np.random.Generator) -> np.ndarray:
    while True:
        g = rng.standard_normal(3)
        n = math.sqrt(g.dot(g))  # np.linalg.norm(g)'s arithmetic
        if n > 1e-12:
            return g / n


def _point(rng: np.random.Generator, lead) -> tuple:
    """sample_point's omega and k, from its two leading uniforms."""
    return _uniform(0.1, 10.0, lead[0]), _uniform(0.0, 5.0, lead[1]) * _direction(rng)


def _setup(rng: np.random.Generator, units: UnitsConfig, lead, width: int) -> tuple:
    """sample_boost_setup's draws, from its two leading uniforms, and the run
    of width uniforms that follows them: omega, k, v and that run.  A point
    that is not finite passes the guard, to fail the point checks."""
    while True:
        omega, k = _point(rng, lead)
        v = sample_velocity(rng, units)
        v_dot_k = float(v @ k)
        gap = abs(omega - v_dot_k)
        if gap > SAMPLER_GUARD_RTOL * max(abs(omega), abs(v_dot_k)) or not math.isfinite(gap):
            return omega, k, v, rng.random(width)
        lead = rng.random(2)


def sample_sigma(rng: np.random.Generator) -> np.ndarray:
    return _complexes(rng.random(18), (3, 3))[0]


def sample_point(rng: np.random.Generator) -> Wavevector4:
    return Wavevector4(*_point(rng, rng.random(2)))


def sample_velocity(rng: np.random.Generator, units: UnitsConfig = NATURAL, vmax: float = 0.9) -> np.ndarray:
    return units.c * _uniform(0.0, vmax, rng.random()) * _direction(rng)


def sample_boost_setup(rng: np.random.Generator, units: UnitsConfig = NATURAL) -> tuple[Wavevector4, np.ndarray]:
    """A (point, velocity) pair safely away from the boost resonance."""
    omega, k, v, _ = _setup(rng, units, rng.random(2), 0)
    return Wavevector4(omega, k), v


def _suite(name: str, n: int, tol: float, draw, residuals) -> SuiteResult:
    """Run a suite over n samples: draw(m) returns the next m samples as
    columns, each value stacked along a leading axis; residuals(*columns)
    checks them and returns the residual of each.  A NaN residual fails the
    suite."""
    start = time.perf_counter()
    worst = 0.0
    for lo in range(0, n, BLOCK):
        columns = draw(min(BLOCK, n - lo))
        try:
            worst = np.max(residuals(*columns), initial=worst)
        except OhmcovError:
            for i in range(len(columns[0])):  # the first sample to fail alone raises its own error
                residuals(*(c[i:i + 1] for c in columns))
            raise
    return SuiteResult(name, n, float(worst), tol, time.perf_counter() - start)


def _draw(rng: np.random.Generator, n: int, sample, *shapes: tuple):
    """draw(m) for _suite over n samples.

    Each sample opens with two uniforms and closes with a run of uniforms,
    drawn as complex values of the given shapes, and the next sample's two
    follow that run in the stream, so one generator call draws both.
    sample(lead, m) draws one sample from its two leading uniforms and
    returns its values, the last a run of m uniforms."""
    width = 2 * sum(math.prod(shape) for shape in shapes)
    drawn, lead = 0, None

    def draw(m):
        nonlocal drawn, lead
        if not drawn:
            lead = rng.random(2)
        rows = []
        for _ in range(m):
            drawn += 1
            *values, run = sample(lead, width + 2 * (drawn < n))
            rows.append((*values, run[:width]))
            lead = run[width:]
        *values, runs = (np.array(c) for c in zip(*rows))
        return *values, *_complexes(runs, *shapes)

    return draw


def _boost_draw(rng: np.random.Generator, n: int, units: UnitsConfig, *shapes: tuple):
    """sample_boost_setup's draws, then complex values of the given shapes."""
    return _draw(rng, n, lambda lead, m: _setup(rng, units, lead, m), *shapes)


# Shapes of a conductivity, a scalar and a vector potential, drawn in turn.
_POTENTIAL = ((3, 3), (), (3,))


def _points(omega, k) -> None:
    """Wavevector4's checks for N points: omega (N,), k (N, 3)."""
    _checked(omega, (), float, "omega", stacked=True)
    _checked(k, (3,), float, "kvec", stacked=True)


# The checks made at construction of the values the single-point functions return, for N of them.
def _response(sigma, omega, k, units: UnitsConfig) -> np.ndarray:
    """reconstruct_full(chi_from_sigma(sigma, omega), Wavevector4(omega, k)), entries (N, 4, 4)."""
    _require_dynamic(omega)
    chi = (1j * omega)[:, None, None] * _finite(sigma, "conductivity")
    return _finite(_reconstruct(_finite(chi, "spatial response"), omega, k, units), "response kernel")


def _potential(phi, avec) -> tuple:
    """PotentialSet's checks: phi (N,), avec (N, 3)."""
    return _finite(phi, "scalar potential"), _finite(avec, "vector potential")


def _current(full, phi, avec, units: UnitsConfig) -> tuple:
    """apply_response(full, pot, units) with FourCurrent's checks: rho (N,), j (N, 3)."""
    rho, j = _apply(full, phi, avec, units)
    return _finite(rho, "charge density"), _finite(j, "current density")


def _current_fours(rho, j, units: UnitsConfig) -> np.ndarray:
    """FourCurrent.four for N currents: (N, 4)."""
    return np.concatenate(((units.c * rho)[:, None], j), axis=1)


def _fields(e, b, omega, k) -> tuple:
    """FieldSet's checks: E and B (N, 3) at omega (N,), k (N, 3)."""
    _require_faraday(_finite(e, "E"), _finite(b, "B"), omega, k)
    return e, b


def _electric(e, omega, k) -> tuple:
    """fields_from_electric(e, Wavevector4(omega, k)): E and B (N, 3)."""
    _require_dynamic(omega)
    return _fields(e, _from_electric(_finite(e, "E"), omega, k), omega, k)


def _ohm(sigma, bp: BoostParams, e, b, omega, k) -> tuple:
    """generalized_ohm with its checks: drift (N, 3), j (N, 3), rho (N,)."""
    _require_dynamic(omega)
    drift, j, rho = _generalized(_finite(sigma, "conductivity"), bp, e, b, omega, k)
    return _finite(drift, "drift_current"), _finite(j, "jvec"), rho


def oracle_equivalence_suite(
    rng: np.random.Generator,
    n: int,
    units: UnitsConfig = NATURAL,
    fault: float = 0.0,
) -> SuiteResult:
    """Closed-form boost against the response-kernel route.

    fault rescales the closed-form output; nonzero values exist solely so
    the verifier can prove it would notice a wrong prefactor.
    """

    def residuals(omega, k, v, sigma):
        _points(omega, k)
        _usable(sigma, omega, k)
        bp = BoostParams(v, units)
        direct = _usable(*_direct(sigma, omega, k, bp))
        oracle = _usable(*_oracle(sigma, omega, k, bp.matrix(), units))
        return np.maximum(
            _rel_errors(direct[0] * (1.0 + fault), oracle[0]),
            _rel_errors(_fours(*direct[1:], units), _fours(*oracle[1:], units)),
        )

    return _suite("oracle_equivalence", n, 1e-10, _boost_draw(rng, n, units, (3, 3)), residuals)


def round_trip_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """Boost then invert recovers the original tensor."""

    def residuals(omega, k, v, sigma):
        _points(omega, k)
        _usable(sigma, omega, k)
        bp = BoostParams(v, units)
        there = _usable(*_direct(sigma, omega, k, bp))
        back = _usable(*_inverse(there[0], omega, k, bp))
        return _rel_errors(back[0], sigma)

    return _suite("round_trip", n, 1e-10, _boost_draw(rng, n, units, (3, 3)), residuals)


def gauge_invariance_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """The induced current ignores gauge shifts of the potential."""

    draw = _draw(rng, n, lambda lead, m: (*_point(rng, lead), rng.random(m)), *_POTENTIAL, ())

    def residuals(omega, k, sigma, phi, avec, f):
        _points(omega, k)
        full = _response(sigma, omega, k, units)
        _potential(phi, avec)
        j0 = _current_fours(*_current(full, phi, avec, units), units)
        j1 = _current_fours(*_current(full, *_potential(*_gauge_shift(phi, avec, omega, k, f)), units), units)
        denom = np.abs(j0).max(axis=1) + np.abs(_potential_fours(phi, avec, units)).max(axis=1) + ABS_FLOOR
        return np.abs(j1 - j0).max(axis=1) / denom

    return _suite("gauge_invariance", n, 1e-13, draw, residuals)


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| as Python's abs(complex) rounds it: hypot; numpy's abs differs in the last bit."""
    return np.hypot(z.real, z.imag)


def _continuity_residual(omega, kvec, rho, jvec) -> np.ndarray:
    lhs = omega * rho
    rhs = _dots(kvec, jvec)
    # scale by the terms entering the cancellation, not by the result
    denom = abs(omega) * _modulus(rho) + _dots(abs(kvec), abs(jvec)) + ABS_FLOOR
    return _modulus(lhs - rhs) / denom


def continuity_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """omega rho = k.j for every current the package produces."""

    def sample(lead, m):
        omega, k = _point(rng, lead)
        u = rng.random(28)  # a conductivity and a potential, then the boost setup's lead
        return omega, k, u[:26], *_setup(rng, units, u[26:], m)

    draw = _draw(rng, n, sample, (3,), (3, 3))

    def columns(m):
        omega, k, u, *rest = draw(m)
        return omega, k, *_complexes(u, *_POTENTIAL), *rest

    def residuals(omega, k, sigma, phi, avec, omega2, k2, v, e, sigma2):
        _points(omega, k)
        _points(omega2, k2)
        full = _response(sigma, omega, k, units)
        _potential(phi, avec)
        worst = _continuity_residual(omega, k, *_current(full, phi, avec, units))

        e, b = _electric(e, omega2, k2)
        _, j, rho = _ohm(sigma2, BoostParams(v, units), e, b, omega2, k2)
        return np.maximum(worst, _continuity_residual(omega2, k2, rho, j))

    return _suite("continuity", n, 1e-12, columns, residuals)


def ohm_covariance_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """The lab-frame four-current agrees between two routes.

    Route one: induced current from the response kernel in the original
    frame, then Lorentz-transformed as a four-vector.  Route two: boost
    the conductivity and the potential separately, rebuild the fields in
    the new frame, and apply Ohm's law there.
    """

    def residuals(omega, k, v, sigma, phi, avec):
        _points(omega, k)
        _potential(phi, avec)
        bp = BoostParams(v, units)
        lam = bp.matrix().entries

        full = _response(sigma, omega, k, units)
        j4 = (lam @ _current_fours(*_current(full, phi, avec, units), units)[:, :, None])[:, :, 0]

        _usable(sigma, omega, k)
        sigma_p, omega_p, k_p = _usable(*_direct(sigma, omega, k, bp))
        a4 = (lam @ _potential_fours(phi, avec, units)[:, :, None])[:, :, 0]
        phi_p, avec_p = _potential(units.c * a4[:, 0], a4[:, 1:])
        e_p, _ = _fields(*_from_potential(phi_p, avec_p, omega_p, k_p), omega_p, k_p)
        j_p = _ohm_current(sigma_p, e_p)
        rho_p = _induced_charge(sigma_p, e_p, omega_p, k_p)
        return _rel_errors(j4, _current_fours(rho_p, j_p, units))

    return _suite("ohm_covariance", n, 1e-10, _boost_draw(rng, n, units, *_POTENTIAL), residuals)


def textbook_specialization_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """For scalar conductivity the generalized drift reduces to the
    textbook expression."""

    def residuals(omega, k, v, s0, e):
        _points(omega, k)
        e, b = _electric(e, omega, k)
        bp = BoostParams(v, units)
        drift, _, _ = _ohm(s0[:, None, None] * np.eye(3), bp, e, b, omega, k)
        return _rel_errors(drift, _textbook(s0, bp, e, b))

    return _suite("textbook_specialization", n, 1e-12, _boost_draw(rng, n, units, (), (3,)), residuals)


def run_all(
    seed: int,
    samples: int,
    units: UnitsConfig = NATURAL,
    fault: float = 0.0,
) -> list[SuiteResult]:
    """Run every suite with a fresh seeded generator; deterministic per seed."""
    rng = np.random.default_rng(seed)
    return [
        oracle_equivalence_suite(rng, samples, units, fault=fault),
        round_trip_suite(rng, samples, units),
        gauge_invariance_suite(rng, samples, units),
        continuity_suite(rng, samples, units),
        ohm_covariance_suite(rng, samples, units),
        textbook_specialization_suite(rng, samples, units),
    ]
