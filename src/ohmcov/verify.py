"""Randomized cross checks shared by the command line verifier and the
acceptance tests.

Sampling distribution: conductivity entries have real and imaginary parts
uniform on [-1, 1]; omega is uniform on [0.1, 10]; |k| is uniform on
[0, 5] and |v|/c on [0, 0.9], both with isotropic directions.  Points too
close to the boost resonance omega = v.k are resampled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .minkowski import NATURAL, BoostParams, UnitsConfig, Wavevector4, boost_matrix
from .ohm import (
    fields_from_electric,
    fields_from_potential,
    generalized_ohm,
    induced_charge,
    ohm_current,
    textbook_ohm,
)
from .response import (
    PotentialSet,
    apply_response,
    chi_from_sigma,
    gauge_shift,
    reconstruct_full,
)
from .transform import (
    FrameSample,
    boost_sigma_direct,
    boost_sigma_inverse,
    transform_sigma_oracle,
)

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


def sample_sigma(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (3, 3)) + 1j * rng.uniform(-1.0, 1.0, (3, 3))


def _sample_direction(rng: np.random.Generator) -> np.ndarray:
    while True:
        g = rng.standard_normal(3)
        n = float(np.linalg.norm(g))
        if n > 1e-12:
            return g / n


def sample_point(rng: np.random.Generator) -> Wavevector4:
    return Wavevector4(rng.uniform(0.1, 10.0), rng.uniform(0.0, 5.0) * _sample_direction(rng))


def sample_velocity(rng: np.random.Generator, units: UnitsConfig = NATURAL, vmax: float = 0.9) -> np.ndarray:
    return units.c * rng.uniform(0.0, vmax) * _sample_direction(rng)


def sample_boost_setup(rng: np.random.Generator, units: UnitsConfig = NATURAL) -> tuple[Wavevector4, np.ndarray]:
    """A (point, velocity) pair safely away from the boost resonance."""
    while True:
        kw = sample_point(rng)
        v = sample_velocity(rng, units)
        v_dot_k = float(v @ kw.kvec)
        if abs(kw.omega - v_dot_k) > SAMPLER_GUARD_RTOL * max(abs(kw.omega), abs(v_dot_k)):
            return kw, v


def _complex_vec(rng: np.random.Generator, n: int = 3) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)


def _timed(name: str, n: int, tol: float, start: float, worst: float) -> SuiteResult:
    return SuiteResult(name, n, worst, tol, time.perf_counter() - start)


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
    start = time.perf_counter()
    worst = 0.0
    for _ in range(n):
        kw, v = sample_boost_setup(rng, units)
        s = FrameSample(sample_sigma(rng), kw)
        direct = boost_sigma_direct(s, v, units)
        oracle = transform_sigma_oracle(s, boost_matrix(v, units), units)
        sigma_direct = direct.sigma * (1.0 + fault)
        worst = max(worst, rel_error(sigma_direct, oracle.sigma))
        worst = max(worst, rel_error(direct.at.four(units), oracle.at.four(units)))
    return _timed("oracle_equivalence", n, 1e-10, start, worst)


def round_trip_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """Boost then invert recovers the original tensor."""
    start = time.perf_counter()
    worst = 0.0
    for _ in range(n):
        kw, v = sample_boost_setup(rng, units)
        s = FrameSample(sample_sigma(rng), kw)
        there = boost_sigma_direct(s, v, units)
        back = boost_sigma_inverse(there, v, kw, units)
        worst = max(worst, rel_error(back.sigma, s.sigma))
    return _timed("round_trip", n, 1e-10, start, worst)


def gauge_invariance_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """The induced current ignores gauge shifts of the potential."""
    start = time.perf_counter()
    worst = 0.0
    for _ in range(n):
        kw = sample_point(rng)
        full = reconstruct_full(chi_from_sigma(sample_sigma(rng), kw.omega), kw, units)
        pot = PotentialSet(complex(*rng.uniform(-1.0, 1.0, 2)), _complex_vec(rng), kw)
        f = complex(*rng.uniform(-1.0, 1.0, 2))
        j0 = apply_response(full, pot, units).four(units)
        j1 = apply_response(full, gauge_shift(pot, f), units).four(units)
        denom = float(np.max(np.abs(j0))) + float(np.max(np.abs(pot.four(units)))) + ABS_FLOOR
        worst = max(worst, float(np.max(np.abs(j1 - j0))) / denom)
    return _timed("gauge_invariance", n, 1e-13, start, worst)


def _continuity_residual(omega: float, kvec: np.ndarray, rho: complex, jvec: np.ndarray) -> float:
    lhs = omega * rho
    rhs = complex(kvec @ jvec)
    # scale by the terms entering the cancellation, not by the result
    denom = abs(omega) * abs(rho) + float(np.abs(kvec) @ np.abs(jvec)) + ABS_FLOOR
    return abs(lhs - rhs) / denom


def continuity_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """omega rho = k.j for every current the package produces."""
    start = time.perf_counter()
    worst = 0.0
    for _ in range(n):
        kw = sample_point(rng)
        full = reconstruct_full(chi_from_sigma(sample_sigma(rng), kw.omega), kw, units)
        pot = PotentialSet(complex(*rng.uniform(-1.0, 1.0, 2)), _complex_vec(rng), kw)
        cur = apply_response(full, pot, units)
        worst = max(worst, _continuity_residual(kw.omega, kw.kvec, cur.rho, cur.jvec))

        kw2, v = sample_boost_setup(rng, units)
        fields = fields_from_electric(_complex_vec(rng), kw2)
        res = generalized_ohm(sample_sigma(rng), v, fields, units)
        worst = max(worst, _continuity_residual(kw2.omega, kw2.kvec, res.rho, res.jvec))
    return _timed("continuity", n, 1e-12, start, worst)


def ohm_covariance_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """The lab-frame four-current agrees between two routes.

    Route one: induced current from the response kernel in the original
    frame, then Lorentz-transformed as a four-vector.  Route two: boost
    the conductivity and the potential separately, rebuild the fields in
    the new frame, and apply Ohm's law there.
    """
    start = time.perf_counter()
    worst = 0.0
    for _ in range(n):
        kw, v = sample_boost_setup(rng, units)
        sigma = sample_sigma(rng)
        pot = PotentialSet(complex(*rng.uniform(-1.0, 1.0, 2)), _complex_vec(rng), kw)
        lam = boost_matrix(v, units)

        full = reconstruct_full(chi_from_sigma(sigma, kw.omega), kw, units)
        j4 = lam.entries @ apply_response(full, pot, units).four(units)

        boosted = boost_sigma_direct(FrameSample(sigma, kw), v, units)
        a4 = lam.entries @ pot.four(units)
        pot_p = PotentialSet(units.c * a4[0], a4[1:], boosted.at)
        fields_p = fields_from_potential(pot_p)
        j_p = ohm_current(boosted.sigma, fields_p.E)
        rho_p = induced_charge(boosted.sigma, fields_p.E, boosted.at)
        j4_native = np.concatenate(([units.c * rho_p], j_p))

        worst = max(worst, rel_error(j4, j4_native))
    return _timed("ohm_covariance", n, 1e-10, start, worst)


def textbook_specialization_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """For scalar conductivity the generalized drift reduces to the
    textbook expression."""
    start = time.perf_counter()
    worst = 0.0
    for _ in range(n):
        kw, v = sample_boost_setup(rng, units)
        s0 = complex(*rng.uniform(-1.0, 1.0, 2))
        fields = fields_from_electric(_complex_vec(rng), kw)
        gen = generalized_ohm(s0 * np.eye(3), v, fields, units)
        tb = textbook_ohm(s0, v, fields, units)
        worst = max(worst, rel_error(gen.drift_current, tb))
    return _timed("textbook_specialization", n, 1e-12, start, worst)


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
