"""The array kernels against the single-point API they implement.

Every scalar entry point is the N = 1 call of an array kernel, so a batch
of N points must reproduce N separate calls bit for bit, fail at the
same points, and raise the same first error.  The kernels must also round
exactly as the single-point formulas they replaced, which fixed the
recorded CLI outputs.  The sweep runs the kernels in blocks and must match
the point-by-point loop across block edges.
"""

import csv
import io
import json

import numpy as np
import pytest

from ohmcov import (
    PARITY_FLIP,
    BoostParams,
    BoostResonance,
    ConstantScalar,
    DiagonalAnisotropic,
    Drude,
    FieldSet,
    FrameSample,
    InvariantViolation,
    LorentzMatrix,
    OhmcovError,
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
    compose,
    fields_from_electric,
    fields_from_potential,
    gauge_shift,
    generalized_ohm,
    induced_charge,
    inverse,
    ohm_current,
    reconstruct_full,
    textbook_ohm,
    transform_sigma_oracle,
)
from ohmcov import cli, materials, ohm
from ohmcov.verify import rel_error
from ohmcov.response import _apply, _gauge_shift, _potential_fours, _reconstruct
from ohmcov.transform import _direct, _flagged, _inverse, _oracle, _raise

from conftest import rand_unit

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


def check_against_single_points(result, singles):
    """result is a kernel's (sigma', omega', k', faults); singles[i] is
    the FrameSample the single-point call returned, or the exception it raised."""
    sigma_p, omega_p, k_p, faults = result
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
    if name == "direct":
        result = _direct(sigma, omega, k, bp)
        singles = single_calls(lambda s, i: boost_sigma_direct(s, vs[i], units), sigma, omega, k)
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
    else:
        lam = compose(bp.matrix(), PARITY_FLIP) if parity else bp.matrix()
        assert lam.entries.shape == ((N, 4, 4) if per_point else (4, 4))  # no per-point matrix for one boost
        result = _oracle(sigma, omega, k, lam, units)

        def single(s, i):
            lam_i = boost_matrix(vs[i], units)
            return transform_sigma_oracle(s, compose(lam_i, PARITY_FLIP) if parity else lam_i, units)

        singles = single_calls(single, sigma, omega, k)
    check_against_single_points(result, singles)


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


def kernel_is_single_calls(kernel, single, n=N):
    """kernel(idx) runs an array kernel on the points idx and returns a tuple
    of per-point arrays; single(i) runs the single-point function on point
    i and returns the same values, or raises.  The kernel must give the
    bits of the single calls where they pass, and raise the first error."""
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
    full = _reconstruct(chi, omega, k, units)

    def single(i):
        kw = Wavevector4(omega[i], k[i])
        pot = PotentialSet(phi[i], avec[i], kw)
        cur = apply_response(reconstruct_full(chi[i], kw, units), pot, units)
        shifted = gauge_shift(pot, f[i])
        return cur.rho, cur.jvec, shifted.phi, shifted.avec, pot.four(units)

    def kernel(idx):
        shifted = _gauge_shift(phi[idx], avec[idx], omega[idx], k[idx], f[idx])
        return (*_apply(full[idx], phi[idx], avec[idx], units), *shifted, _potential_fours(phi[idx], avec[idx], units))

    assert kernel_is_single_calls(kernel, single).all()


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

    def single(i):
        kw = Wavevector4(omega[i], k[i])
        fields = fields_from_electric(e[i], kw)
        potential = fields_from_potential(PotentialSet(phi[i], e[i], kw))
        gen = generalized_ohm(sigma[i], vs[i], fields, units)
        return (fields.B, potential.E, potential.B, ohm_current(sigma[i], e[i]), induced_charge(sigma[i], e[i], kw),
                textbook_ohm(s0[i], vs[i], fields, units), gen.drift_current, gen.jvec, gen.rho)

    def kernel(idx):
        w, kk, ee, ss = omega[idx], k[idx], e[idx], sigma[idx]
        bpi = BoostParams(v[idx] if per_point else v, units)
        b = ohm._from_electric(ee, w, kk)
        return (b, *ohm._from_potential(phi[idx], ee, w, kk), ohm._ohm_current(ss, ee),
                ohm._induced_charge(ss, ee, w, kk), ohm._textbook(s0[idx], bpi, ee, b),
                *ohm._generalized(ss, bpi, ee, b, w, kk))

    ok = kernel_is_single_calls(kernel, single)
    assert 0 < ok.sum() < N


def test_faraday_check_is_per_point(rng):
    """The first field inconsistent with Faraday's law raises FieldSet's error."""
    omega = rng.uniform(0.5, 5.0, N)
    k = rng.uniform(-2.0, 2.0, (N, 3))
    e = random_sigma(rng)[:, 0]
    b = ohm._from_electric(e, omega, k)
    ohm._require_faraday(e, b, omega, k)
    b[[17, 50]] *= 1.0 + 1e-6
    with pytest.raises(InvariantViolation) as single:
        FieldSet(e[17], b[17], Wavevector4(omega[17], k[17]))
    with pytest.raises(InvariantViolation) as stacked:
        ohm._require_faraday(e, b, omega, k)
    assert str(stacked.value) == str(single.value)


def scalar_kernel(chi, omega, k, c):
    """The single-point reconstruct_full arithmetic the kernels replaced."""
    ratio = c / omega
    chi_k = chi @ k
    full = np.empty((4, 4), dtype=complex)
    full[0, 0] = -(ratio**2) * (k @ chi_k)
    full[0, 1:] = ratio * (k @ chi)
    full[1:, 0] = -ratio * chi_k
    full[1:, 1:] = chi
    return full


def scalar_laws(sigma, omega, k, bp, lam):
    """The single-point arithmetic of the direct law, the oracle and the
    wave-vector map that the kernels replaced: (direct sigma', oracle
    sigma', omega', k')."""
    c = bp.units.c
    four = lam.entries @ np.concatenate(([omega / c], k))
    omega_p, k_p = c * four[0], four[1:]
    v_dot_k = float(bp.v @ k)
    left = np.eye(3) - np.outer(bp.v, k) / omega
    right = np.eye(3) - np.outer(k, bp.v) / omega
    prefactor = 1.0 / (bp.gamma * (1.0 - v_dot_k / omega))
    direct = prefactor * (bp.lambda_hat @ left @ sigma @ right @ bp.lambda_hat)
    primed = lam.entries @ scalar_kernel(1j * omega * sigma, omega, k, c) @ inverse(lam).entries
    return direct, primed[1:, 1:] / (1j * omega_p), omega_p, k_p


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_kernels_round_as_the_scalar_code(rng, c):
    """Bit for bit against the single-point arithmetic, which fixed the
    recorded CLI outputs; numpy's own x**2, complex division, K @ v and
    einsum each round differently from it somewhere in a few thousand points."""
    units = UnitsConfig(c)
    n = 4000
    v = 0.8 * c * rand_unit(rng)
    omega = rng.uniform(0.05, 10.0, n) * rng.choice([-1.0, 1.0], n) * c
    k = rng.uniform(-5.0, 5.0, (n, 3))
    sigma = random_sigma(rng, n)
    bp = BoostParams(v, units)
    lam = bp.matrix()
    direct = _direct(sigma, omega, k, bp)
    oracle = _oracle(sigma, omega, k, lam, units)
    full = _reconstruct(sigma, omega, k, units)
    ok = ~_flagged(direct[3] + oracle[3])
    assert ok.sum() > 0.99 * n
    for i in np.flatnonzero(ok):
        ref = scalar_laws(sigma[i], float(omega[i]), k[i], bp, lam)
        for got, want in zip((direct[0][i], oracle[0][i], direct[1][i], direct[2][i]), ref):
            assert_same_bits(got, np.asarray(want))
        assert_same_bits(full[i], scalar_kernel(sigma[i], float(omega[i]), k[i], c))


def scalar_ohm_laws(sigma, s0, e, phi, avec, omega, k, v, c):
    """The single-point arithmetic of BoostParams, the field, current and
    moving-medium functions, in Python floats and complex numbers where the
    replaced code had them."""
    speed = float(np.sqrt(v @ v))
    gamma = float(1.0 / np.sqrt(1.0 - (speed / c) ** 2))
    lhat_inv = np.eye(3) + (1.0 / gamma - 1.0) * np.outer(v, v) / float(v @ v) if speed > 0.0 else np.eye(3)
    b = np.cross(k, e) / omega
    emf = e + np.cross(v, b)
    drift = gamma * (lhat_inv @ sigma @ lhat_inv @ emf)
    jvec = (np.eye(3) + np.outer(v, k) / (omega - float(k @ v))) @ drift
    beta = v / c
    textbook = gamma * complex(s0) * (emf - beta * (beta @ e))
    pot_e = -1j * k * phi + 1j * omega * avec
    four = np.concatenate(([phi / c], avec))
    return (gamma, b, drift, jvec, complex(k @ jvec) / omega, textbook, pot_e, 1j * np.cross(k, avec),
            complex(k @ (sigma @ e)) / omega, four)


@pytest.mark.parametrize("c", [1.0, 299_792_458.0])
def test_ohm_kernels_round_as_the_scalar_code(rng, c):
    """Bit for bit against the single-point arithmetic, which fixed the
    recorded ohm outputs; numpy's complex division by a real rounds
    differently from Python's somewhere in a few thousand points."""
    units = UnitsConfig(c)
    n = 3000
    v = velocities(rng, c, n)
    v[0] = 0.0
    omega = rng.uniform(0.05, 10.0, n) * rng.choice([-1.0, 1.0], n) * c
    k = rng.uniform(-5.0, 5.0, (n, 3))
    k[1] = [0.0, -0.0, 0.0]
    sigma, e, avec = random_sigma(rng, n), random_sigma(rng, n)[:, 0], random_sigma(rng, n)[:, 1]
    s0, phi = sigma[:, 1, 1], sigma[:, 2, 2]
    bp = BoostParams(v, units)
    b = ohm._from_electric(e, omega, k)
    got = (bp.gamma, b, *ohm._generalized(sigma, bp, e, b, omega, k), ohm._textbook(s0, bp, e, b),
           *ohm._from_potential(phi, avec, omega, k), ohm._induced_charge(sigma, e, omega, k),
           _potential_fours(phi, avec, units))
    for i in range(n):
        ref = scalar_ohm_laws(sigma[i], s0[i], e[i], complex(phi[i]), avec[i], float(omega[i]), k[i], v[i], c)
        for a, want in zip(got, ref):
            assert_same_bits(a[i], np.asarray(want))


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
    first = next(s for s in singles if isinstance(s, Exception))
    with pytest.raises(type(first)) as info:
        model.evaluate_batch(omega, k)
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
        out = tmp_path / f"{name}.csv"
        argv = [
            "sweep", f"--model={model_path}", "--c=2", "--velocity=" + ",".join(map(repr, v.tolist())),
            "--omega=" + ",".join(map(repr, omegas.tolist())),
            "--k=" + ";".join(",".join(map(repr, kv)) for kv in ks.tolist()), f"--output={out}",
        ]
        assert cli.main(argv) == 0
        rows = iter(cli.load_sweep_csv(out))
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
            assert row["at"] == kw and row["at_prime"] == direct.at
            assert_same_bits(row["sigma_prime"], direct.sigma)
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


def test_sweep_csv_cells_are_the_structured_values(tmp_path, capsys):
    """Over three blocks, with skipped points on both sides of the edges and
    cells such as -0.0, 1e-300, 1e+16 and 1e-05, each CSV cell is repr of the
    structured output's value, and the CSV text is what csv.writer writes
    for those rows: no cell needs quoting."""
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
    argv = [
        "sweep", f"--model={model_path}", "--velocity=" + ",".join(map(repr, v.tolist())),
        "--omega=" + ",".join(map(repr, omegas.tolist())),
        "--k=" + ";".join(",".join(map(repr, kv)) for kv in ks.tolist()),
    ]
    outputs = {}
    for fmt in ("csv", "structured"):
        assert cli.main(argv + [f"--format={fmt}"]) == 0
        outputs[fmt] = capsys.readouterr()
    assert outputs["csv"].err == outputs["structured"].err
    doc = json.loads(outputs["structured"].out)
    assert len(doc["skipped"]) == 51 and outputs["csv"].err.count("skipped omega=") == 51
    keys = ["omega", "k", "omega_prime", "k_prime", "sigma_prime", "residual"]
    assert all(list(record) == keys for record in doc["rows"])
    rows = [flatten([record[key] for key in keys]) for record in doc["rows"]]
    assert len(rows) == len(omegas) * len(ks) - 51

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
