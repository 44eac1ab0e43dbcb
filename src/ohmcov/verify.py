"""Randomized cross checks shared by the command line verifier and the
acceptance tests.

Sampling distribution: conductivity entries have real and imaginary parts
uniform on [-1, 1]; omega is uniform on [0.1, 10]; |k| is uniform on
[0, 5] and |v|/c on [0, 0.9], both with isotropic directions.  Points too
close to the boost resonance omega = v.k are resampled.

Each suite draws its samples BLOCK at a time and evaluates each block
through the public functions, as stacks with one boost per sample.  A
block makes the generator calls the public samplers make for its samples,
in the same order; each run of consecutive uniforms in the stream is one
call, mapped with rng.uniform's arithmetic.  That bets on the resonance
guard redrawing none of the block's samples: should one need a redraw, the
generator is put back and the block is drawn again sample by sample with
the samplers' own code.  So the stream, and every bit of the report, is
the one the public samplers give.  A stack rounds each sample as a
single-point call does, so a seed gives the same residuals at any block
size.  Every check runs on every sample; should one fail, the block is
evaluated again sample by sample, so the first failing sample in draw order
raises that check's error.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import OhmcovError
from .minkowski import NATURAL, BoostParams, UnitsConfig, Wavevector4, _dots
from .ohm import fields_from_electric, fields_from_potential, generalized_ohm, induced_charge, ohm_current, textbook_ohm
from .response import FourCurrent, PotentialSet, apply_response, chi_from_sigma, gauge_shift, reconstruct_full
from .transform import FrameSample, boost_sigma_direct, boost_sigma_inverse, transform_sigma_oracle

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

_VMAX = 0.9  # sample_velocity's default bound on |v| / c

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
    """rel_error of a[i] and b[i] for each i of a leading batch axis; NaN, which fails a suite, where a magnitude
    overflows, as a scale of inf would pass any difference."""
    axes = tuple(range(1, a.ndim))
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(np.maximum(np.abs(a).max(axis=axes), np.abs(b).max(axis=axes)), floor)
        return np.where(np.isfinite(scale), np.abs(a - b).max(axis=axes) / scale, np.nan)


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


def _directions(g: np.ndarray) -> tuple:
    """_direction's unit vectors for (m, 3) normals, and where its norm test
    passes.  _dots rounds as g.dot(g); (g * g).sum(1) does not."""
    norm = np.sqrt(_dots(g, g))
    return g / norm[:, None], norm > 1e-12


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


def sample_velocity(rng: np.random.Generator, units: UnitsConfig = NATURAL, vmax: float = _VMAX) -> np.ndarray:
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


def _draw(rng: np.random.Generator, n: int, units: UnitsConfig, *segments: tuple):
    """draw(m) for _suite over n samples.

    A sample is one or more segments (setup, shapes) in turn: a point, then,
    if setup, a velocity behind the resonance guard, as sample_boost_setup
    draws them, then a run of uniforms drawn as complex values of the given
    shapes.  Each segment opens with two uniforms, and the next segment's
    two follow the run before them in the stream, so one generator call
    draws both.  A segment's columns are omega, k, v if setup, then its
    complex values.

    block(m, last) makes a block's generator calls into one buffer and maps
    them at once, or returns None if the guard would redraw a sample;
    one(last) draws one sample by the samplers' own code.  The buffer and
    the view each call fills are made once per _draw, for its largest
    block; a block uses a prefix of them."""
    segments = [(setup, shapes, 2 * sum(math.prod(shape) for shape in shapes)) for setup, shapes in segments]
    normal, uniform = rng.standard_normal, rng.random
    calls = [call for setup, _, _ in segments for call in (normal, *(uniform, normal) * setup, uniform)]
    sizes = [size for setup, _, width in segments for size in (3, *(1, 3) * setup, width + 2)]
    stride = sum(sizes)  # a sample's share of the buffer: its two leading uniforms, then its calls
    most = min(BLOCK, n)  # _suite's largest block
    flat = np.empty(most * stride + 2)
    ends = np.cumsum([2, *sizes * most]).tolist()
    views = [(call, flat[a:b]) for call, a, b in zip(calls * most, ends, ends[1:])]
    drawn, lead = 0, None

    def one(last: bool) -> list:
        nonlocal lead
        values = []
        for i, (setup, _, width) in enumerate(segments):
            m = width + 2 * (not last or i + 1 < len(segments))
            *point, run = _setup(rng, units, lead, m) if setup else (*_point(rng, lead), rng.random(m))
            values += [*point, run[:width]]
            lead = run[width:]
        return values

    def block(m: int, last: bool) -> list | None:
        nonlocal lead
        flat[:2] = lead
        fills = views[:m * len(calls)]
        if last:  # the last call draws no leading uniforms for a next sample
            fills[-1] = fills[-1][0], fills[-1][1][:-2]
        for call, out in fills:
            call(out=out)
        rows, values, ok, at = flat[:m * stride].reshape(m, stride), [], True, 0
        for setup, _, width in segments:
            omega = _uniform(0.1, 10.0, rows[:, at])
            kdir, fine = _directions(rows[:, at + 2:at + 5])
            k = _uniform(0.0, 5.0, rows[:, at + 1])[:, None] * kdir
            values += [omega, k]
            ok &= fine
            at += 5
            if setup:
                vdir, fine = _directions(rows[:, at + 1:at + 4])
                ok &= fine
                v = (units.c * _uniform(0.0, _VMAX, rows[:, at]))[:, None] * vdir
                v_dot_k = _dots(v, k)
                gap = np.abs(omega - v_dot_k)
                ok &= (gap > SAMPLER_GUARD_RTOL * np.maximum(np.abs(omega), np.abs(v_dot_k))) | ~np.isfinite(gap)
                values.append(v)
                at += 4
            values.append(rows[:, at:at + width])
            at += width
        if not ok.all():
            return None
        lead = flat[m * stride:m * stride + 2].copy()  # the next block overwrites the buffer
        return values

    def draw(m):
        nonlocal drawn, lead
        if not drawn:
            lead = rng.random(2)
        drawn += m
        state = rng.bit_generator.state
        values = block(m, drawn == n)
        if values is None:
            rng.bit_generator.state = state
            values = [np.array(c) for c in zip(*(one(drawn == n and i + 1 == m) for i in range(m)))]
        columns, at = [], 0
        for setup, shapes, _ in segments:
            columns += [*values[at:at + 2 + setup], *_complexes(values[at + 2 + setup], *shapes)]
            at += 3 + setup
        return columns

    return draw


# Shapes of a conductivity, a scalar and a vector potential, drawn in turn.
_POTENTIAL = ((3, 3), (), (3,))


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
        s = FrameSample(sigma, Wavevector4(omega, k))
        bp = BoostParams(v, units)
        direct = boost_sigma_direct(s, bp)
        oracle = transform_sigma_oracle(s, bp.matrix(), units)
        return np.maximum(
            _rel_errors(direct.sigma * (1.0 + fault), oracle.sigma),
            _rel_errors(direct.at.four(units), oracle.at.four(units)),
        )

    return _suite("oracle_equivalence", n, 1e-10, _draw(rng, n, units, (True, ((3, 3),))), residuals)


def round_trip_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """Boost then invert recovers the original tensor."""

    def residuals(omega, k, v, sigma):
        s = FrameSample(sigma, Wavevector4(omega, k))
        bp = BoostParams(v, units)
        back = boost_sigma_inverse(boost_sigma_direct(s, bp), bp, s.at)
        return _rel_errors(back.sigma, sigma)

    return _suite("round_trip", n, 1e-10, _draw(rng, n, units, (True, ((3, 3),))), residuals)


def gauge_invariance_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """The induced current ignores gauge shifts of the potential."""

    draw = _draw(rng, n, units, (False, (*_POTENTIAL, ())))

    def residuals(omega, k, sigma, phi, avec, f):
        at = Wavevector4(omega, k)
        full = reconstruct_full(chi_from_sigma(sigma, omega), at, units)
        pot = PotentialSet(phi, avec, at)
        j0 = apply_response(full, pot, units).four(units)
        j1 = apply_response(full, gauge_shift(pot, f), units).four(units)
        denom = np.abs(j0).max(axis=1) + np.abs(pot.four(units)).max(axis=1) + ABS_FLOOR
        return np.abs(j1 - j0).max(axis=1) / denom

    return _suite("gauge_invariance", n, 1e-13, draw, residuals)


def _continuity_residual(omega, kvec, rho, jvec) -> np.ndarray:
    # scale by the terms entering the cancellation, not by the result; NaN where they overflow, as in _rel_errors
    with np.errstate(over="ignore", invalid="ignore"):
        denom = abs(omega) * abs(rho) + _dots(abs(kvec), abs(jvec)) + ABS_FLOOR
        return np.where(np.isfinite(denom), abs(omega * rho - _dots(kvec, jvec)) / denom, np.nan)


def continuity_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """omega rho = k.j for every current the package produces."""

    def residuals(omega, k, sigma, phi, avec, omega2, k2, v, e, sigma2):
        at, at2 = Wavevector4(omega, k), Wavevector4(omega2, k2)
        full = reconstruct_full(chi_from_sigma(sigma, omega), at, units)
        current = apply_response(full, PotentialSet(phi, avec, at), units)
        worst = _continuity_residual(omega, k, current.rho, current.jvec)

        fields = fields_from_electric(e, at2)
        moving = generalized_ohm(sigma2, BoostParams(v, units), fields, units)
        return np.maximum(worst, _continuity_residual(omega2, k2, moving.rho, moving.jvec))

    draw = _draw(rng, n, units, (False, _POTENTIAL), (True, ((3,), (3, 3))))  # a current, then a moving one
    return _suite("continuity", n, 1e-12, draw, residuals)


def ohm_covariance_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """The lab-frame four-current agrees between two routes.

    Route one: induced current from the response kernel in the original
    frame, then Lorentz-transformed as a four-vector.  Route two: boost
    the conductivity and the potential separately, rebuild the fields in
    the new frame, and apply Ohm's law there.
    """

    def residuals(omega, k, v, sigma, phi, avec):
        at = Wavevector4(omega, k)
        pot = PotentialSet(phi, avec, at)
        bp = BoostParams(v, units)
        lam = bp.matrix().entries

        full = reconstruct_full(chi_from_sigma(sigma, omega), at, units)
        j4 = (lam @ apply_response(full, pot, units).four(units)[:, :, None])[:, :, 0]

        moved = boost_sigma_direct(FrameSample(sigma, at), bp)
        a4 = (lam @ pot.four(units)[:, :, None])[:, :, 0]
        e_p = fields_from_potential(PotentialSet(units.c * a4[:, 0], a4[:, 1:], moved.at)).E
        rho_p = induced_charge(moved.sigma, e_p, moved.at)
        return _rel_errors(j4, FourCurrent(rho_p, ohm_current(moved.sigma, e_p), moved.at).four(units))

    return _suite("ohm_covariance", n, 1e-10, _draw(rng, n, units, (True, _POTENTIAL)), residuals)


def textbook_specialization_suite(rng: np.random.Generator, n: int, units: UnitsConfig = NATURAL) -> SuiteResult:
    """For scalar conductivity the generalized drift reduces to the
    textbook expression."""

    def residuals(omega, k, v, s0, e):
        fields = fields_from_electric(e, Wavevector4(omega, k))
        bp = BoostParams(v, units)
        drift = generalized_ohm(s0[:, None, None] * np.eye(3), bp, fields, units).drift_current
        return _rel_errors(drift, textbook_ohm(s0, bp, fields, units))

    return _suite("textbook_specialization", n, 1e-12, _draw(rng, n, units, (True, ((), (3,)))), residuals)


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
