"""Stacks and the sweep's array kernels against the single-point API.

Every public function takes one point or a stack of N, so a stack must
reproduce N separate calls bit for bit and raise the first one's error;
the sweep's kernels must also fail at the same points.  The sweep runs the
kernels in blocks and must match the point-by-point loop across block edges.
"""

import csv
import dataclasses
import io
import json
import os
import signal
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ohmcov import (
    PARITY_FLIP,
    BoostParams,
    BoostResonance,
    ConstantScalar,
    DiagonalAnisotropic,
    Drude,
    FieldSet,
    FourCurrent,
    FrameSample,
    FullResponse4,
    InvariantViolation,
    LorentzMatrix,
    OhmcovError,
    OhmResult,
    OutOfRange,
    PotentialSet,
    SpeedLimit,
    StaticFrequency,
    Tabulated,
    UnitsConfig,
    Wavevector4,
    apply_response,
    boost_matrix,
    boost_sigma_direct,
    boost_sigma_inverse,
    check_reality,
    chi_from_sigma,
    compose,
    constraint_residual,
    decompose,
    fields_from_electric,
    fields_from_potential,
    gauge_shift,
    generalized_ohm,
    induced_charge,
    ohm_current,
    projector_inverse,
    reconstruct_full,
    rotate_sigma,
    sigma_from_chi,
    textbook_ohm,
    textbook_ohm_nr,
    transform_sigma_oracle,
    transform_wavevector,
)
from ohmcov import cli, materials
from ohmcov.verify import rel_error
from ohmcov.minkowski import _EYE3, _dots, _outer
from ohmcov.transform import _direct, _flagged, _frame_faults, _inverse, _oracle, _raise

from conftest import float_stacks, rand_unit

N = 96


def assert_same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def points_near_resonance(rng, v, c, n=N):
    """Random (omega, k) with a quarter of the points a few resonance band
    widths from omega = v.k, on both sides, and a few exactly on it; v is
    one velocity or one per point."""
    omega = rng.uniform(-5.0, 5.0, n) * c
    k = rng.uniform(-3.0, 3.0, (n, 3))
    near = rng.choice(n, n // 4, replace=False)
    v_dot_k = np.array([float(vv @ kk) for vv, kk in zip(np.broadcast_to(v, (n, 3))[near], k[near])])
    offset = rng.choice([-1.0, 1.0], len(near)) * 10.0 ** rng.uniform(-11.0, -6.0, len(near))
    omega[near] = v_dot_k * (1.0 + offset)
    omega[near[:3]] = v_dot_k[:3]
    return omega, k


def random_sigma(rng, n=N):
    return rng.uniform(-1.0, 1.0, (n, 3, 3)) + 1j * rng.uniform(-1.0, 1.0, (n, 3, 3))


def check_against_single_points(result, singles, stacked=None):
    """result is a kernel's (sigma', omega', k', faults); singles[i] is
    the FrameSample the single-point call returned, or the exception it
    raised.  stacked(idx), if given, is the public function on the stack of
    the points idx: the good points give the single calls' bits, all of
    them the first error."""
    sigma_p, omega_p, k_p, faults = result
    faults = faults + _frame_faults(sigma_p, omega_p, k_p)  # the result's checks, as the sweep adds them
    bad = _flagged(faults)
    errors = [s for s in singles if isinstance(s, Exception)]
    assert 0 < len(errors) < len(singles)
    for i, single in enumerate(singles):
        assert bad[i] == isinstance(single, Exception)
        if not bad[i]:
            assert_same_bits(sigma_p[i], single.sigma)
            assert_same_bits(omega_p[i], np.float64(single.at.omega))
            assert_same_bits(k_p[i], single.at.kvec)
    with pytest.raises(type(errors[0])) as info:
        _raise(faults)
    assert str(info.value) == str(errors[0])
    if stacked is not None:
        good = stacked(np.flatnonzero(~bad))
        for j, i in enumerate(np.flatnonzero(~bad)):
            assert_same_bits(good.sigma[j], singles[i].sigma)
            assert_same_bits(good.at.omega[j], np.float64(singles[i].at.omega))
            assert_same_bits(good.at.kvec[j], singles[i].at.kvec)
        with pytest.raises(type(errors[0])) as info:
            stacked(np.arange(len(singles)))
        assert str(info.value) == str(errors[0])


def single_calls(fn, sigma, omega, k):
    """fn(s, i) for the FrameSample s of each point i, or the error it raises."""
    out = []
    for i in range(len(omega)):
        try:
            out.append(fn(FrameSample(sigma[i], Wavevector4(omega[i], k[i])), i))
        except (BoostResonance, StaticFrequency) as exc:
            out.append(exc)
    return out


def velocities(rng, c, n=N):
    """One velocity per point, speeds up to 0.95 c."""
    return 0.95 * c * rng.uniform(0.0, 1.0, (n, 1)) * np.array([rand_unit(rng) for _ in range(n)])


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_direct_kernel_is_n_single_calls(rng, c):
    units = UnitsConfig(c)
    v = 0.8 * c * rand_unit(rng)
    omega, k = points_near_resonance(rng, v, c)
    sigma = random_sigma(rng)
    bp = BoostParams(v, units)
    result = _direct(sigma, omega, k, bp)
    check_against_single_points(result, single_calls(lambda s, i: boost_sigma_direct(s, v, units), sigma, omega, k))


@given(v=arrays(np.float64, (6, 3), elements=st.floats(-0.57, 0.57)), k=float_stacks(3), omega=float_stacks(),
       sigma=float_stacks(3, 3, 2), one=st.booleans())
def test_direct_right_factor_is_the_left_one_transposed(v, k, omega, sigma, one):
    """_direct takes 1 - k v^T/omega as the transpose of 1 - v k^T/omega, whose products are the same: the
    kernel gives the bits of the right factor made afresh, also at signed zeros, subnormals, infinities and NaN
    in the points and the tensors, for one boost below c and for one per point."""
    n = min(len(v), len(k), len(omega), len(sigma))
    k, omega, sigma = k[:n], omega[:n], sigma[:n].view(complex)[..., 0]
    with np.errstate(all="ignore"):
        bp = BoostParams(v[0] if one else v[:n])
        left = _EYE3 - _outer(bp.v, k) / omega[:, None, None]
        right = _EYE3 - _outer(k, bp.v) / omega[:, None, None]
        assert_same_bits(left.swapaxes(-1, -2), right)
        prefactor = 1.0 / (bp.gamma * (1.0 - _dots(k, bp.v) / omega))
        want = prefactor[:, None, None] * (bp.lambda_hat @ left @ sigma @ right @ bp.lambda_hat)
        assert_same_bits(_direct(sigma, omega, k, bp)[0], want)


@pytest.mark.parametrize("c", [1.0, 2.0])
@pytest.mark.parametrize("parity", [False, True])
def test_oracle_kernel_is_n_single_calls(rng, c, parity):
    units = UnitsConfig(c)
    v = 0.8 * c * rand_unit(rng)
    lam = boost_matrix(v, units)
    if parity:
        lam = compose(lam, PARITY_FLIP)
    # after a parity flip, omega' vanishes at omega = -v.k
    omega, k = points_near_resonance(rng, -v if parity else v, c)
    sigma = random_sigma(rng)
    result = _oracle(sigma, omega, k, lam, units)
    singles = single_calls(lambda s, i: transform_sigma_oracle(s, lam, units), sigma, omega, k)
    check_against_single_points(result, singles)


@pytest.mark.parametrize("c", [1.0, 2.0])
@pytest.mark.parametrize("per_point", [False, True])
@pytest.mark.parametrize("name", ["direct", "inverse", "oracle", "oracle with parity"])
def test_boost_kernels_take_one_boost_per_point(rng, c, per_point, name):
    """With one velocity per point, as verify runs them, and with one for
    all, as the sweep does, each kernel is N single-point calls."""
    units = UnitsConfig(c)
    v = velocities(rng, c) if per_point else 0.8 * c * rand_unit(rng)
    vs = np.broadcast_to(v, (N, 3))
    parity = name == "oracle with parity"
    omega, k = points_near_resonance(rng, -v if parity else v, c)
    sigma = random_sigma(rng)
    bp = BoostParams(v, units)

    def boost(idx):
        return BoostParams(v[idx] if per_point else v, units)

    def sample(idx):
        return FrameSample(sigma[idx], Wavevector4(omega[idx], k[idx]))

    if name == "direct":
        result = _direct(sigma, omega, k, bp)
        singles = single_calls(lambda s, i: boost_sigma_direct(s, vs[i], units), sigma, omega, k)
        stacked = lambda idx: boost_sigma_direct(sample(idx), boost(idx))  # noqa: E731
    elif name == "inverse":
        omega[[5, 40]] = 0.0  # the inverse checks its unprimed points; the others leave that to FrameSample
        result = _inverse(sigma, omega, k, bp)
        at = Wavevector4(1.0, [0.0, 0.0, 0.0])  # the inverse reads only the tensor of its primed sample
        singles = []
        for i in range(N):
            try:
                kw = Wavevector4(omega[i], k[i])
                singles.append(boost_sigma_inverse(FrameSample(sigma[i], at), vs[i], kw, units))
            except (BoostResonance, StaticFrequency) as exc:
                singles.append(exc)

        def stacked(idx):
            primed = FrameSample(sigma[idx], Wavevector4(np.ones(len(idx)), np.zeros((len(idx), 3))))
            return boost_sigma_inverse(primed, boost(idx), Wavevector4(omega[idx], k[idx]))
    else:
        lam = compose(bp.matrix(), PARITY_FLIP) if parity else bp.matrix()
        assert lam.entries.shape == ((N, 4, 4) if per_point else (4, 4))  # no per-point matrix for one boost
        result = _oracle(sigma, omega, k, lam, units)

        def single(s, i):
            lam_i = boost_matrix(vs[i], units)
            return transform_sigma_oracle(s, compose(lam_i, PARITY_FLIP) if parity else lam_i, units)

        def stacked(idx):
            lam = boost(idx).matrix()
            return transform_sigma_oracle(sample(idx), compose(lam, PARITY_FLIP) if parity else lam, units)

        singles = single_calls(single, sigma, omega, k)
    check_against_single_points(result, singles, stacked)


def test_boost_stack_is_n_boosts(rng):
    """A stack of velocities gives each row the bits of its own boost, and
    the first row past the speed limit, or the first matrix outside O(1,3),
    raises the single boost's error."""
    units = UnitsConfig(3.0)
    v = velocities(rng, 3.0)
    v[7] = 3.0 * (1.0 - 1e-11) * rand_unit(rng)
    v[8] = 0.0
    bp = BoostParams(v, units)
    for i in range(N):
        one = BoostParams(v[i], units)
        assert_same_bits(bp.gamma[i], np.float64(one.gamma))
        assert_same_bits(bp.lambda_hat[i], one.lambda_hat)
        assert_same_bits(bp.lambda_hat_inv[i], one.lambda_hat_inv)
        assert_same_bits(bp.matrix().entries[i], one.matrix().entries)
    assert bp.matrix() is bp.matrix()  # built and checked once

    v[[20, 60]] *= 4.5 / np.linalg.norm(v[[20, 60]], axis=1)[:, None]  # 1.5 c
    with pytest.raises(SpeedLimit) as single:
        BoostParams(v[20], units)
    with pytest.raises(SpeedLimit) as stacked:
        BoostParams(v, units)
    assert str(stacked.value) == str(single.value)

    m = bp.matrix().entries.copy()
    m[[30, 70], 1, 2] += 1e-6
    with pytest.raises(InvariantViolation) as single:
        LorentzMatrix(m[30])
    with pytest.raises(InvariantViolation) as stacked:
        LorentzMatrix(m)
    assert str(stacked.value) == str(single.value)


def test_a_boost_stack_raises_its_first_rejected_point_with_that_points_error():
    """The boosts raise through fault lists: the first point any check rejects, with its own error, not the error
    of the first check that rejects some point.  Point 1 alone fails the resonance check, which runs before the
    result's check that point 0 fails, and the stack raises point 0's error."""
    v = np.array([0.5, 0.0, 0.0])
    sigma = np.array([1.7e308 * np.eye(3), np.eye(3)], dtype=complex)
    s = FrameSample(sigma, Wavevector4(np.array([1.0, 0.5]), np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])))
    point = [FrameSample(sigma[i], Wavevector4(s.at.omega[i], s.at.kvec[i])) for i in range(2)]
    routes = [(boost_sigma_direct, v, "conductivity"), (transform_sigma_oracle, boost_matrix(v), "spatial response")]
    for route, boost, name in routes:
        with pytest.raises(BoostResonance):
            route(point[1], boost)
        for stack in (point[0], s):
            with pytest.raises(InvariantViolation) as info:
                route(stack, boost)
            assert str(info.value) == f"{name} entries must be finite"


def kernel_is_single_calls(kernel, single, n=N):
    """kernel(idx) runs the public functions on the stack of the points idx
    and returns a tuple of per-point arrays; single(i) runs them on point i
    and returns the same values, or raises.  The stack must give the bits
    of the single calls where they pass, and raise the first error."""
    singles = []
    for i in range(n):
        try:
            singles.append(single(i))
        except OhmcovError as exc:
            singles.append(exc)
    ok = np.array([not isinstance(s, Exception) for s in singles])
    got = kernel(np.flatnonzero(ok))
    for j, i in enumerate(np.flatnonzero(ok)):
        for a, b in zip(got, singles[i]):
            assert_same_bits(a[j], np.asarray(b))
    if not ok.all():
        first = singles[int(np.argmin(ok))]
        with pytest.raises(type(first)) as info:
            kernel(np.arange(n))
        assert str(info.value) == str(first)
    return ok


@pytest.mark.parametrize("c", [1.0, 299_792_458.0])
def test_response_kernels_are_n_single_calls(rng, c):
    units = UnitsConfig(c)
    omega = rng.uniform(0.1, 10.0, N) * rng.choice([-1.0, 1.0], N) * c
    k = rng.uniform(-5.0, 5.0, (N, 3))
    chi = random_sigma(rng)
    phi, avec, f = rng.normal(size=N) + 1j * rng.normal(size=N), random_sigma(rng)[:, 0], random_sigma(rng)[:, 0, 0]

    def calls(i):  # i one index, or an array of them for a stack
        kw = Wavevector4(omega[i], k[i])
        pot = PotentialSet(phi[i], avec[i], kw)
        full = reconstruct_full(chi[i], kw, units)
        cur = apply_response(full, pot, units)
        shifted = gauge_shift(pot, f[i])
        return (full.entries, cur.rho, cur.jvec, shifted.phi, shifted.avec, pot.four(units), cur.four(units),
                chi_from_sigma(chi[i], omega[i]), sigma_from_chi(chi[i], omega[i]))

    assert kernel_is_single_calls(calls, calls).all()


@pytest.mark.parametrize("c", [1.0, 299_792_458.0])
@pytest.mark.parametrize("per_point", [False, True])
def test_ohm_kernels_are_n_single_calls(rng, c, per_point):
    """The field, current and moving-medium kernels against N calls, with
    resonant points: the first raises generalized_ohm's error."""
    units = UnitsConfig(c)
    v = velocities(rng, c) if per_point else 0.8 * c * rand_unit(rng)
    vs = np.broadcast_to(v, (N, 3))
    omega, k = points_near_resonance(rng, v, c)
    sigma, e, phi = random_sigma(rng), random_sigma(rng)[:, 0], rng.normal(size=N) + 1j * rng.normal(size=N)
    s0 = sigma[:, 0, 0]

    def calls(i, v):  # i one index, or an array of them for a stack
        kw = Wavevector4(omega[i], k[i])
        fields = fields_from_electric(e[i], kw)
        potential = fields_from_potential(PotentialSet(phi[i], e[i], kw))
        gen = generalized_ohm(sigma[i], v, fields, units)
        moved = transform_wavevector(boost_matrix(v, units), kw, units)
        return (fields.B, potential.E, potential.B, ohm_current(sigma[i], e[i]), induced_charge(sigma[i], e[i], kw),
                textbook_ohm(s0[i], v, fields, units), gen.drift_current, gen.jvec, gen.rho,
                textbook_ohm_nr(s0[i], v, fields), projector_inverse(k[i], v, omega[i]), moved.omega, moved.kvec)

    ok = kernel_is_single_calls(lambda idx: calls(idx, v[idx] if per_point else v), lambda i: calls(i, vs[i]))
    assert 0 < ok.sum() < N


def test_one_array_serves_a_stack(rng):
    """The functions that broadcast raw arrays take one point's array with a
    stack, and give the bits of N single calls."""
    omega, k = rng.uniform(0.5, 5.0, N), rng.uniform(-0.5, 0.5, (N, 3))
    sigma, e, f = random_sigma(rng), random_sigma(rng)[:, 0], random_sigma(rng)[:, 0, 0]
    s0, v, vs = sigma[:, 0, 0], 0.1 * rand_unit(rng), 0.1 * rng.uniform(-0.5, 0.5, (N, 3))
    one = Wavevector4(omega[0], k[0])

    def calls(i):  # the stacked arguments at i, one index or all of them, with the single ones
        kw = Wavevector4(omega[i], k[i])
        fields, pot = fields_from_electric(e[i], kw), PotentialSet(f[i], e[i], kw)
        shifted = gauge_shift(pot, f[0])
        return (ohm_current(sigma[0], e[i]), ohm_current(sigma[i], e[0]), induced_charge(sigma[0], e[0], kw),
                induced_charge(sigma[i], e[0], one), projector_inverse(k[i], v, omega[0]),
                projector_inverse(k[0], vs[i], omega[i]), textbook_ohm(s0[0], v, fields),
                textbook_ohm(s0[i], v, fields_from_electric(e[0], one)), textbook_ohm_nr(s0[0], v, fields),
                textbook_ohm_nr(s0[0], vs[i], fields_from_electric(e[0], one)), shifted.phi, shifted.avec)

    got = calls(np.arange(N))
    for i in range(N):
        for a, b in zip(got, calls(i), strict=True):
            assert_same_bits(a[i], np.asarray(b))


def test_faraday_check_is_per_point(rng):
    """The first field inconsistent with Faraday's law raises FieldSet's error."""
    omega = rng.uniform(0.5, 5.0, N)
    k = rng.uniform(-2.0, 2.0, (N, 3))
    e = random_sigma(rng)[:, 0]
    b = fields_from_electric(e, Wavevector4(omega, k)).B.copy()
    b[[17, 50]] *= 1.0 + 1e-6
    with pytest.raises(InvariantViolation) as single:
        FieldSet(e[17], b[17], Wavevector4(omega[17], k[17]))
    with pytest.raises(InvariantViolation) as stacked:
        FieldSet(e, b, Wavevector4(omega, k))
    assert str(stacked.value) == str(single.value)


def value_builders(rng, n=N):
    """Each value type's construction from point i, or from the stack of the points i."""
    omega, k = rng.uniform(0.5, 5.0, n) * rng.choice([-1.0, 1.0], n), rng.uniform(-2.0, 2.0, (n, 3))
    sigma, e, z = random_sigma(rng, n), random_sigma(rng, n)[:, 0], random_sigma(rng, n)[:, 0, 0]
    full, b = rng.normal(size=(n, 4, 4)) + 0j, fields_from_electric(e, Wavevector4(omega, k)).B
    return {
        Wavevector4: lambda i: Wavevector4(omega[i], k[i]),
        FrameSample: lambda i: FrameSample(sigma[i], Wavevector4(omega[i], k[i])),
        FullResponse4: lambda i: FullResponse4(full[i], Wavevector4(omega[i], k[i])),
        PotentialSet: lambda i: PotentialSet(z[i], e[i], Wavevector4(omega[i], k[i])),
        FourCurrent: lambda i: FourCurrent(z[i], e[i], Wavevector4(omega[i], k[i])),
        FieldSet: lambda i: FieldSet(e[i], b[i], Wavevector4(omega[i], k[i])),
        OhmResult: lambda i: OhmResult(e[i], 2.0 * e[i], z[i]),
    }


def parts(value, units=UnitsConfig(2.0)):
    """The fields of a value, its point's included, and what its methods derive from them."""
    out = []
    for f in dataclasses.fields(value):
        x = getattr(value, f.name)
        out += parts(x) if isinstance(x, Wavevector4) else [x]
    if isinstance(value, Wavevector4):
        out += [value.minkowski_norm(units), (-value).omega]
    return out + ([value.four(units)] if hasattr(value, "four") else [])


VALUE_TYPES = [Wavevector4, FrameSample, FullResponse4, PotentialSet, FourCurrent, FieldSet, OhmResult]


@pytest.mark.parametrize("kind", VALUE_TYPES, ids=lambda kind: kind.__name__)
def test_value_stack_is_n_single_values(rng, kind):
    """A stack holds the bits of N single values; a single value holds
    Python numbers where a field is one number."""
    build = value_builders(rng)[kind]
    stack = parts(build(np.arange(N)))
    for i in range(N):
        single = parts(build(i))
        assert not any(isinstance(x, np.generic) for x in single)
        for a, b in zip(stack, single, strict=True):
            assert_same_bits(a[i], np.asarray(b))


STACK_OF_5 = Wavevector4(np.ones(5), np.ones((5, 3)))


@pytest.mark.parametrize("build, message", [
    (lambda: Wavevector4(np.ones(4), np.ones((5, 3))),
     "Wavevector4: leading shapes omega (4,), kvec (5,) disagree in N"),
    (lambda: Wavevector4(np.ones(4), np.ones(3)), "Wavevector4: leading shapes omega (4,), kvec () disagree in N"),
    (lambda: FrameSample(np.ones((4, 3, 3)), Wavevector4(1.0, np.ones(3))),
     "FrameSample: leading shapes conductivity (4,), at () disagree in N"),
    (lambda: FullResponse4(np.ones((4, 4)), Wavevector4(np.ones(3), np.ones((3, 3)))),
     "FullResponse4: leading shapes response kernel (), at (3,) disagree in N"),
    (lambda: PotentialSet(np.ones(3), np.ones((4, 3)), Wavevector4(np.ones(3), np.ones((3, 3)))),
     "PotentialSet: leading shapes scalar potential (3,), vector potential (4,), at (3,) disagree in N"),
    (lambda: FourCurrent(1.0, np.ones(3), Wavevector4(np.ones(3), np.ones((3, 3)))),
     "FourCurrent: leading shapes charge density (), current density (), at (3,) disagree in N"),
    (lambda: FieldSet(np.zeros((3, 3)), np.zeros(3), Wavevector4(np.ones(3), np.ones((3, 3)))),
     "FieldSet: leading shapes E (3,), B (), at (3,) disagree in N"),
    (lambda: OhmResult(np.ones((3, 3)), np.ones((3, 3)), np.ones(4)),
     "OhmResult: leading shapes drift_current (3,), jvec (3,), rho (4,) disagree in N"),
    (lambda: boost_sigma_direct(FrameSample(np.eye(3), Wavevector4(1.0, np.ones(3))), np.full((3, 3), 0.1)),
     "boost_sigma_direct: leading shapes boosts (3,), at () disagree in N"),
    (lambda: boost_sigma_inverse(FrameSample(np.ones((3, 3, 3)), Wavevector4(np.ones(3), np.ones((3, 3)))),
                                 np.zeros(3), Wavevector4(1.0, np.ones(3))),
     "boost_sigma_inverse: leading shapes s_primed (3,), at () disagree in N"),
    (lambda: transform_wavevector(boost_matrix(np.full((3, 3), 0.1)), Wavevector4(np.ones(4), np.ones((4, 3)))),
     "transform_wavevector: leading shapes boosts (3,), at (4,) disagree in N"),
    (lambda: generalized_ohm(np.eye(3), np.full((3, 3), 0.1), 
                             fields_from_electric(np.ones(3), Wavevector4(1.0, [0, 0, 1]))),
     "generalized_ohm: leading shapes boosts (3,), at () disagree in N"),
    (lambda: chi_from_sigma(np.ones((3, 3, 3)), np.ones(4)),
     "chi_from_sigma: leading shapes conductivity (3,), omega (4,) disagree in N"),
    (lambda: ohm_current(np.ones((4, 3, 3)), np.ones((5, 3))),
     "ohm_current: leading shapes conductivity (4,), E (5,) disagree in N"),
    (lambda: induced_charge(np.ones((4, 3, 3)), np.ones(3), STACK_OF_5),
     "induced_charge: leading shapes conductivity (4,), E (), at (5,) disagree in N"),
    (lambda: projector_inverse(np.ones((4, 3)), np.full((5, 3), 0.1), 2.0),
     "projector_inverse: leading shapes kvec (4,), velocity (5,), omega () disagree in N"),
    (lambda: textbook_ohm(np.ones(4), np.zeros(3), fields_from_electric(np.ones((5, 3)), STACK_OF_5)),
     "textbook_ohm: leading shapes conductivity (4,), at (5,) disagree in N"),
    (lambda: textbook_ohm_nr(np.ones(4), np.zeros(3), fields_from_electric(np.ones((5, 3)), STACK_OF_5)),
     "textbook_ohm_nr: leading shapes conductivity (4,), velocity (), at (5,) disagree in N"),
    (lambda: gauge_shift(PotentialSet(np.ones(5), np.ones((5, 3)), STACK_OF_5), np.ones(4)),
     "gauge_shift: leading shapes f (4,), at (5,) disagree in N"),
])
def test_disagreeing_stacks_are_rejected(build, message):
    with pytest.raises(InvariantViolation) as info:
        build()
    assert str(info.value) == message


STACK_OF_3 = Wavevector4(np.ones(3), np.ones((3, 3)))


@pytest.mark.parametrize("call, name", [
    (lambda: rotate_sigma(FrameSample(np.ones((3, 3, 3)), STACK_OF_3), np.eye(3)), "rotate_sigma"),
    (lambda: constraint_residual(FullResponse4(np.ones((3, 4, 4)), STACK_OF_3)), "constraint_residual"),
    (lambda: decompose(boost_matrix(np.full((3, 3), 0.1))), "decompose"),
    (lambda: boost_matrix(np.full((3, 3), 0.1)).proper, "LorentzMatrix.proper"),
    (lambda: boost_matrix(np.full((3, 3), 0.1)).orthochronous, "LorentzMatrix.orthochronous"),
    (lambda: check_reality(Drude(1.0, 0.5), [STACK_OF_3]), "check_reality"),
    (lambda: Tabulated([(STACK_OF_3, np.eye(3))]), "a tabulated sample"),
])
def test_single_point_functions_refuse_a_stack(call, name):
    with pytest.raises(InvariantViolation) as info:
        call()
    assert str(info.value) == f"{name} takes one point, not a stack of 3"


def tabulated(interpolation):
    rng = np.random.default_rng(5)
    nodes = []
    for kvec in ([0.0, 0.0, 0.0], [0.6, -0.2, 0.1], [-0.5, 0.9, 0.0]):
        for w in np.sort(rng.uniform(-4.0, 4.0, 6)):
            nodes.append((Wavevector4(w, kvec), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))))
    return Tabulated(nodes, interpolation=interpolation)


MODELS = {
    "constant": ConstantScalar(1.5 - 0.5j),
    "drude": Drude(2.0 + 0.3j, 0.7),
    "diagonal": DiagonalAnisotropic((-1.0 + 0.2j, Drude(1.5 - 0.2j, 0.4), Drude(-0.5, 2.5))),
    "tabulated-linear": tabulated("linear-in-omega"),
    "tabulated-nearest": tabulated("nearest"),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_evaluate_batch_is_n_single_calls(rng, name):
    model = MODELS[name]
    omega = rng.uniform(-5.0, 5.0, N)
    k = rng.uniform(-1.0, 1.0, (N, 3))
    omega[:4] = 0.0
    if isinstance(model, Tabulated):
        # every node exactly, at a k that snaps to its column
        nodes = model.samples[:: max(1, len(model.samples) // 12)]
        omega[4:4 + len(nodes)] = [kw.omega for kw, _ in nodes]
        k[4:4 + len(nodes)] = [kw.kvec + 0.01 for kw, _ in nodes]
    rng.shuffle(order := np.arange(N))
    omega, k = omega[order], k[order]
    singles = []
    for w, kv in zip(omega, k):
        try:
            singles.append(model.evaluate(Wavevector4(w, kv)))
        except (StaticFrequency, OutOfRange) as exc:
            singles.append(exc)
    ok = np.array([not isinstance(s, Exception) for s in singles])
    assert_same_bits(model.evaluate_batch(omega[ok], k[ok]), np.array([s for s in singles if not isinstance(s, Exception)]))
    assert_same_bits(model.evaluate(Wavevector4(omega[ok], k[ok])), model.evaluate_batch(omega[ok], k[ok]))
    first = next(s for s in singles if isinstance(s, Exception))
    for evaluate in (lambda: model.evaluate_batch(omega, k), lambda: model.evaluate(Wavevector4(omega, k))):
        with pytest.raises(type(first)) as info:
            evaluate()
        assert str(info.value) == str(first)


@pytest.mark.parametrize("interpolation", ["linear-in-omega", "nearest"])
def test_nearest_column_search_is_per_point(rng, monkeypatch, interpolation):
    """The broadcast nearest-k search, in chunks, picks the column of the
    per-point argmin, the first of equidistant ones, and evaluate_batch
    gives the same bits as with the per-point search."""
    ties = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]
    far = rng.uniform(1.5, 2.5, (36, 3)) * rng.choice([-1.0, 1.0], (36, 3))  # never nearest to a tie below
    columns = ties + far.tolist()
    nodes = [(Wavevector4(w, kv), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
             for kv in columns for w in (0.5, rng.uniform(1.0, 4.0), 5.0)]
    model = Tabulated(nodes, interpolation=interpolation)
    n = 1000
    omega = rng.uniform(0.5, 5.0, n)
    k = rng.uniform(-2.5, 2.5, (n, 3))
    tied_at = np.arange(0, n, 97)  # equidistant from two or three columns, in every chunk
    k[tied_at] = np.resize([[0.5, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.0], [-0.5, 0.5, 0.0]], (len(tied_at), 3))
    assert n > materials._NEAREST_CELLS // len(columns)  # more than one chunk

    def per_point(k):
        return np.array([np.argmin(np.linalg.norm(model._kpoints - kv, axis=1)) for kv in k], dtype=int)

    near = model._nearest(k)
    assert_same_bits(near, per_point(k))
    assert_same_bits(model._nearest(k[:0]), per_point(k[:0]))
    for i in tied_at:
        dist = np.linalg.norm(model._kpoints - k[i], axis=1)
        tied = np.flatnonzero(dist == dist.min())
        assert len(tied) > 1 and near[i] == tied[0]
    sigma = model.evaluate_batch(omega, k)
    monkeypatch.setattr(model, "_nearest", per_point)
    assert_same_bits(sigma, model.evaluate_batch(omega, k))


@given(k=float_stacks(3), columns=float_stacks(3))
def test_nearest_is_the_norm_argmin(k, columns):
    """The nearest-k search takes np.linalg.norm's own arithmetic, sqrt(add.reduce(d * d)): the index of the
    norm's argmin, also at signed zeros, subnormals, infinities and NaN in the points, for finite columns."""
    columns = np.unique(np.where(np.isfinite(columns), columns, 0.0), axis=0)
    model = Tabulated([(Wavevector4(1.0, kv), np.eye(3)) for kv in columns])
    with np.errstate(over="ignore"):
        want = np.linalg.norm(k[:, None, :] - model._kpoints[None], axis=2).argmin(axis=1)
        assert_same_bits(model._nearest(k), want)


def test_tabulated_out_of_range_text():
    model = Tabulated([(Wavevector4(w, [0.5, 0.0, 0.0]), w * np.eye(3)) for w in (1.0, 3.0)])
    span = "[1.0, 3.0]"
    with pytest.raises(OutOfRange) as info:
        model.evaluate(Wavevector4(3.5, [0.4, 0.0, 0.0]))
    assert str(info.value) == f"omega = 3.5 outside the tabulated span {span} at k = [0.5, 0.0, 0.0]"


def sweep_table(rng, ks, v, resonant):
    """A linear-in-omega table with one column at each k of ks and 5 nodes over
    a span that leaves some of [-6, 6] outside, and omega = 0 too in some
    columns; column resonant also spans omega = v.k there."""
    nodes = []
    for j, kv in enumerate(ks):
        lo, hi = rng.uniform(-6.0, 1.0), rng.uniform(2.0, 6.0)
        if j == resonant:
            w = float(v @ kv)
            lo, hi = min(lo, w - 1.0), max(hi, w + 1.0)
        for w in np.linspace(lo, hi, 5):
            nodes.append((Wavevector4(w, kv), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))))
    return Tabulated(nodes)


def test_sweep_blocks_match_the_point_loop(tmp_path, capsys):
    """A grid larger than one block, with a resonance just past the first
    block's edge and a row of static points, gives the rows and skips of the
    public single-point route run point by point; over a Drude model and over
    a table, where points outside the span are skipped in both blocks too and
    a static point outside the span is skipped as static."""
    units = UnitsConfig(2.0)
    v = np.array([0.8, 0.3, -0.2])
    rng = np.random.default_rng(11)
    ks = rng.uniform(-3.0, 3.0, (31, 3))
    omegas = rng.uniform(-6.0, 6.0, 40)
    edge = cli.SWEEP_BLOCK + 3  # grid index of (omegas[33], ks[3]), in the second block
    omegas[edge // 31] = float(v @ ks[edge % 31])
    omegas[16] = 0.0
    models = {"drude": Drude(3.0 + 0.5j, 0.4), "tabulated": sweep_table(rng, ks, v, edge % 31)}
    for name, model in models.items():
        model_path = tmp_path / f"{name}.json"
        materials.save_model(model, model_path)
        out = tmp_path / f"{name}.json"
        argv = [
            "sweep", f"--model={model_path}", "--c=2", "--velocity=" + ",".join(map(repr, v.tolist())),
            "--omega=" + ",".join(map(repr, omegas.tolist())),
            "--k=" + ";".join(",".join(map(repr, kv)) for kv in ks.tolist()),
            "--format=structured", f"--output={out}",
        ]
        assert cli.main(argv) == 0
        rows = iter(json.loads(out.read_text())["rows"])
        skipped, reasons = [], set()
        for index, (w, kv) in enumerate((w, kv) for w in omegas.tolist() for kv in ks.tolist()):
            kw = Wavevector4(w, kv)
            try:
                sample = FrameSample(model.evaluate(kw), kw)
                direct = boost_sigma_direct(sample, v, units)
                oracle = transform_sigma_oracle(sample, boost_matrix(v, units), units)
            except (BoostResonance, StaticFrequency, OutOfRange) as exc:
                skipped.append(f"skipped omega={w!r} k={kv!r}: {type(exc).__name__}: {exc}")
                reasons.add((type(exc), index < cli.SWEEP_BLOCK))
                continue
            row = next(rows)
            assert Wavevector4(row["omega"], row["k"]) == kw
            assert Wavevector4(row["omega_prime"], row["k_prime"]) == direct.at
            assert_same_bits(np.array(row["sigma_prime"]).view(complex)[..., 0], direct.sigma)
            assert row["residual"] == rel_error(direct.sigma, oracle.sigma)
        assert next(rows, None) is None
        assert capsys.readouterr().err.splitlines() == skipped
        assert all(": StaticFrequency: " in line for line in skipped if line.startswith("skipped omega=0.0 "))
        # (reason, in the first block): static points in the first, the resonance in the second
        want = {(StaticFrequency, True), (BoostResonance, False)}
        if name == "tabulated":
            want |= {(OutOfRange, True), (OutOfRange, False)}
        assert reasons == want


def flatten(value):
    return [c for part in value for c in flatten(part)] if isinstance(value, list) else [value]


def edge_sweep_argv(tmp_path) -> list[str]:
    """A sweep of 2250 points over three blocks, whose 51 skipped points lie on both
    sides of the block edges, with cells such as -0.0, 1e-300, 1e+16 and 1e-05."""
    rng = np.random.default_rng(3)
    v = np.array([0.1, 0.5, -0.2])
    ks = rng.uniform(-3.0, 3.0, (50, 3))
    ks[1], ks[2], ks[3] = [-0.0, 1e-300, 0.5], [1e-5, 0.25, -0.0], [0.3, 1e16, -0.2]
    omegas = rng.uniform(0.5, 6.0, 45)
    omegas[5] = 1e-5
    omegas[20] = 0.0  # grid points 1000-1049 are static, across the first block edge
    omegas[40] = float(v @ ks[48])  # grid point 2048, the third block's first, is resonant
    assert len(omegas) * len(ks) > 2 * cli.SWEEP_BLOCK
    model_path = tmp_path / "drude.json"
    model_path.write_text(json.dumps({"type": "drude", "sigma0": [2.0, -0.5], "tau": 0.5}))
    return [
        "sweep", f"--model={model_path}", "--velocity=" + ",".join(map(repr, v.tolist())),
        "--omega=" + ",".join(map(repr, omegas.tolist())),
        "--k=" + ";".join(",".join(map(repr, kv)) for kv in ks.tolist()),
    ]


def test_sweep_csv_cells_are_the_structured_values(tmp_path, capsys):
    """Over three blocks, with skipped points on both sides of the edges and
    cells such as -0.0, 1e-300, 1e+16 and 1e-05, the structured text is what
    json.dumps(indent=2) writes for its document, each CSV cell is repr of
    the structured output's value, and the CSV text is what csv.writer
    writes for those rows: no cell needs quoting."""
    argv = edge_sweep_argv(tmp_path)
    outputs = {}
    for fmt in ("csv", "structured"):
        assert cli.main(argv + [f"--format={fmt}"]) == 0
        outputs[fmt] = capsys.readouterr()
    assert outputs["csv"].err == outputs["structured"].err
    doc = json.loads(outputs["structured"].out)
    assert outputs["structured"].out == json.dumps(doc, indent=2) + "\n"
    assert len(doc["skipped"]) == 51 and outputs["csv"].err.count("skipped omega=") == 51
    keys = ["omega", "k", "omega_prime", "k_prime", "sigma_prime", "residual"]
    assert all(list(record) == keys for record in doc["rows"])
    rows = [flatten([record[key] for key in keys]) for record in doc["rows"]]
    assert len(rows) == 45 * 50 - 51

    text = outputs["csv"].out
    lines = text.splitlines()
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    assert [line.split(",") for line in lines[1:]] == [[repr(x) for x in row] for row in rows]
    assert {"-0.0", "1e-300", "1e+16", "1e-05"} <= {cell for line in lines[1:] for cell in line.split(",")}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.SWEEP_COLUMNS)
    writer.writerows(rows)
    assert text == buf.getvalue()


# A sweep computes its grid points in contiguous chunks, one per usable CPU and
# at most one per SWEEP_BLOCK points; each chunk but the first runs in a forked
# child.  The edge sweep's 2250 points make three chunks.  Each case runs in both
# output formats, which share that route.

FORMATS = ("csv", "structured")


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def forks(monkeypatch):
    """Calls of os.fork in this process; each still forks."""
    calls, real_fork = [], os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def sweep_bytes(argv, tmp_path, capsys) -> tuple[bytes, str]:
    """The sweep's output and its stderr, checked to be the same to stdout and to --output."""
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    path = tmp_path / "sweep.out"
    assert cli.main(argv + [f"--output={path}"]) == 0
    assert capsys.readouterr() == ("", err)
    assert path.read_bytes() == out.encode()
    return path.read_bytes(), err


def formats_bytes(argv, tmp_path, capsys) -> dict:
    """sweep_bytes in each format."""
    return {fmt: sweep_bytes(argv + [f"--format={fmt}"], tmp_path, capsys) for fmt in FORMATS}


@pytest.fixture
def edge_sweep(tmp_path, capsys, monkeypatch):
    """The edge sweep's argv, and its output and stderr in each format as this process alone computes them."""
    argv = edge_sweep_argv(tmp_path)
    use_cpus(monkeypatch, 1)
    return argv, formats_bytes(argv, tmp_path, capsys)


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_sweep_csv_bytes_do_not_depend_on_worker_count(tmp_path, capsys, monkeypatch, edge_sweep, forks, cpus):
    """Nor do the structured bytes, and both formats give the same stderr."""
    argv, expected = edge_sweep
    use_cpus(monkeypatch, cpus)
    assert formats_bytes(argv, tmp_path, capsys) == expected
    assert expected["csv"][1] == expected["structured"][1]
    assert len(forks) == 4 * (min(cpus, 3) - 1)  # four calls, each forking for all chunks but the first


def static_sweep_argv(tmp_path, omegas) -> list[str]:
    """A Drude sweep of 3000 points, omegas x 100 k, with no resonance in [0.5, 6]: three chunks of 1000 points."""
    assert len(omegas) == 30
    model_path = tmp_path / "drude.json"
    model_path.write_text(json.dumps({"type": "drude", "sigma0": [2.0, -0.5], "tau": 0.5}))
    ks = np.random.default_rng(5).uniform(-0.5, 0.5, (100, 3))
    return [
        "sweep", f"--model={model_path}", "--velocity=0.3,0,0", "--omega=" + ",".join(map(repr, omegas)),
        "--k=" + ";".join(",".join(map(repr, kv)) for kv in ks.tolist()),
    ]


@pytest.mark.parametrize("empty", [0, 1])
def test_sweep_with_an_empty_chunk(tmp_path, capsys, monkeypatch, forks, empty):
    """Every point of the first or the middle chunk is static and skipped: both formats hold the other chunks'
    rows, each once and in order, with the 1-CPU bytes and stderr."""
    omegas = np.random.default_rng(6).uniform(0.5, 6.0, 30).tolist()
    omegas[10 * empty:10 * empty + 10] = [0.0] * 10  # grid points 1000 * empty to 1000 * empty + 999
    rows = [w for w in omegas if w]
    argv = static_sweep_argv(tmp_path, omegas)
    use_cpus(monkeypatch, 1)
    expected = formats_bytes(argv, tmp_path, capsys)
    assert forks == []
    use_cpus(monkeypatch, 3)
    assert formats_bytes(argv, tmp_path, capsys) == expected
    assert len(forks) == 8
    err = expected["csv"][1]
    assert err.count("skipped omega=0.0 ") == err.count("\n") == 1000
    lines = expected["csv"][0].decode().splitlines()
    doc = json.loads(expected["structured"][0])
    assert len(lines) == 2001 and len(doc["rows"]) == 2000 and len(doc["skipped"]) == 1000
    assert [float(line.split(",", 1)[0]) for line in lines[1::100]] == rows
    assert [row["omega"] for row in doc["rows"][::100]] == rows


def test_sweep_with_every_point_skipped_exits_3_on_any_worker_count(tmp_path, capsys, monkeypatch, forks):
    argv = static_sweep_argv(tmp_path, [0.0] * 30)
    for fmt in FORMATS:
        errs = []
        for cpus in (1, 3):
            use_cpus(monkeypatch, cpus)
            assert cli.main(argv + [f"--format={fmt}"]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            errs.append(err)
        assert errs[0] == errs[1]
        assert errs[0].count("skipped omega=0.0 ") == 3000
        assert errs[0].endswith("\nsweep produced no rows: every grid point was skipped\n")
    assert len(forks) == 4


def test_sweep_csv_survives_a_failed_fork(tmp_path, capsys, monkeypatch, edge_sweep):
    argv, expected = edge_sweep
    use_cpus(monkeypatch, 3)
    calls = []

    def fork():
        calls.append(1)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", fork)
    assert formats_bytes(argv, tmp_path, capsys) == expected
    assert len(calls) == 4  # one try per call: the rest of its chunks run here


def test_sweep_survives_a_temporary_file_that_cannot_be_made(tmp_path, capsys, monkeypatch, edge_sweep, forks):
    argv, expected = edge_sweep
    use_cpus(monkeypatch, 3)
    calls = []

    def temporary_file(*args, **kwargs):
        calls.append(1)
        raise OSError("no space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    assert formats_bytes(argv, tmp_path, capsys) == expected
    assert len(calls) == 4  # one try per call, before any fork
    assert forks == []


def failing_in_children(failure):
    """What a failing child does: SIGKILL itself if the failure is "killed", else raise."""
    def fail():
        if failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("child fails")

    return fail


@pytest.mark.parametrize("failure", ["raises", "killed", "last chunk raises"])
def test_sweep_renders_a_failed_childs_chunk_itself(tmp_path, capsys, monkeypatch, edge_sweep, forks, failure):
    argv, expected = edge_sweep
    use_cpus(monkeypatch, 3)
    parent, chunk, fail = os.getpid(), cli._sweep_chunk, failing_in_children(failure)

    def failing(*args):
        start = args[-2]
        if os.getpid() != parent and (failure != "last chunk raises" or start > 1000):
            fail()
        return chunk(*args)

    monkeypatch.setattr(cli, "_sweep_chunk", failing)
    assert formats_bytes(argv, tmp_path, capsys) == expected
    assert len(forks) == 8


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_sweep_computes_a_chunk_whose_kernel_fails_in_its_child(tmp_path, capsys, monkeypatch, edge_sweep, forks,
                                                               failure):
    argv, expected = edge_sweep
    use_cpus(monkeypatch, 3)
    parent, direct, fail = os.getpid(), cli._direct, failing_in_children(failure)

    def failing(*args):
        if os.getpid() != parent:
            fail()
        return direct(*args)

    monkeypatch.setattr(cli, "_direct", failing)
    assert formats_bytes(argv, tmp_path, capsys) == expected
    assert len(forks) == 8


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt, InvariantViolation])
def test_sweep_leaves_no_child_when_this_process_fails(tmp_path, capsys, monkeypatch, forks, error):
    """Children still computing, or done and not yet reaped, are killed and reaped; the error keeps its exit code."""
    argv = edge_sweep_argv(tmp_path)
    use_cpus(monkeypatch, 3)
    parent, direct = os.getpid(), cli._direct

    def failing(*args):
        if os.getpid() == parent:
            raise error("this process fails")
        return direct(*args)

    monkeypatch.setattr(cli, "_direct", failing)
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv)
    else:
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: this process fails\n"
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_to_an_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, forks):
    use_cpus(monkeypatch, 3)
    path = tmp_path / "missing" / "sweep.csv"
    assert cli.main(edge_sweep_argv(tmp_path) + [f"--output={path}"]) == 2
    assert capsys.readouterr().err.endswith(f"error: [Errno 2] No such file or directory: {str(path)!r}\n")
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_renders_here_for_one_chunk_or_another_thread(tmp_path, capsys, monkeypatch, edge_sweep, forks):
    argv, expected = edge_sweep
    use_cpus(monkeypatch, 3)
    model = tmp_path / "drude.json"
    assert cli.main(["sweep", f"--model={model}", "--omega=" + ",".join(["1.5"] * 20), "--k=0,0,1;1,0,0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 41
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert formats_bytes(argv, tmp_path, capsys) == expected
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
