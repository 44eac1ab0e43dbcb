"""Tests for the Lorentz-group layer: boosts, rotations, wavevectors."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.strategies import floats

from ohmcov import (
    ETA,
    NATURAL,
    PARITY_FLIP,
    SI,
    TIME_FLIP,
    BoostParams,
    DegenerateDecomposition,
    InvariantViolation,
    LorentzMatrix,
    NotOrthogonal,
    SpeedLimit,
    UnitsConfig,
    Wavevector4,
    boost_matrix,
    compose,
    decompose,
    inverse,
    rotation_embed,
    transform_wavevector,
)
from ohmcov.minkowski import _cross, _fours

from conftest import float_stacks, rand_rotation, rand_unit

R90Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def rebuild(rot, v, parity, time_reversal):
    """Recompose the factors returned by decompose."""
    m = boost_matrix(v).entries @ rotation_embed(rot).entries
    if parity < 0:
        m = m @ PARITY_FLIP.entries
    if time_reversal < 0:
        m = TIME_FLIP.entries @ m
    return m


def test_metric_values():
    np.testing.assert_array_equal(ETA, np.diag([-1.0, 1.0, 1.0, 1.0]))
    assert not ETA.flags.writeable


def test_units_config():
    assert NATURAL.c == 1.0
    assert SI.c == 299_792_458.0
    with pytest.raises(InvariantViolation):
        UnitsConfig(0.0)
    with pytest.raises(InvariantViolation):
        UnitsConfig(-3.0)
    with pytest.raises(InvariantViolation):
        UnitsConfig(float("inf"))


def test_boost_zero_velocity_is_identity():
    b = boost_matrix(np.zeros(3))
    np.testing.assert_array_equal(b.entries, np.eye(4))


def test_boost_half_c_entries():
    b = boost_matrix(np.array([0.5, 0.0, 0.0]))
    gamma = 1.0 / np.sqrt(0.75)
    assert b.entries[0, 0] == pytest.approx(1.1547005383792515, rel=1e-15)
    assert b.entries[0, 1] == pytest.approx(-gamma * 0.5, rel=1e-15)
    assert b.entries[1, 0] == pytest.approx(-gamma * 0.5, rel=1e-15)
    assert b.entries[1, 1] == pytest.approx(gamma, rel=1e-15)
    # transverse block untouched
    np.testing.assert_array_equal(b.entries[2:, 2:], np.eye(2))


def test_boost_speed_limit():
    with pytest.raises(SpeedLimit):
        boost_matrix(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(SpeedLimit):
        boost_matrix(np.array([1.5, 0.0, 0.0]))
    with pytest.raises(SpeedLimit):
        boost_matrix(np.array([1.0 - 1e-13, 0.0, 0.0]))
    # SI units: the limit is c, not 1
    with pytest.raises(SpeedLimit):
        boost_matrix(np.array([SI.c, 0.0, 0.0]), SI)
    boost_matrix(np.array([0.5 * SI.c, 0.0, 0.0]), SI)
    # |v|^2 beyond float range is over the limit too, without a numpy warning (an error under this suite's filter)
    with pytest.raises(SpeedLimit):
        boost_matrix(np.array([0.0, 0.0, 1.35e154]))


def test_boost_params_gamma_and_spatial_block(rng):
    v = 0.7 * rand_unit(rng)
    bp = BoostParams(v, NATURAL)
    beta2 = float(v @ v)
    assert bp.gamma == pytest.approx(1.0 / np.sqrt(1.0 - beta2), rel=1e-15)
    # lambda_hat maps v to gamma v and is inverted exactly by lambda_hat_inv
    np.testing.assert_allclose(bp.lambda_hat @ v, bp.gamma * v, rtol=1e-14)
    np.testing.assert_allclose(bp.lambda_hat @ bp.lambda_hat_inv, np.eye(3), atol=1e-15)


def test_compose_with_identity(rng):
    lam = boost_matrix(0.4 * rand_unit(rng))
    ident = LorentzMatrix(np.eye(4))
    np.testing.assert_array_equal(compose(lam, ident).entries, lam.entries)


def test_compose_boost_with_reverse_is_identity(rng):
    v = 0.8 * rand_unit(rng)
    prod = compose(boost_matrix(v), boost_matrix(-v))
    np.testing.assert_allclose(prod.entries, np.eye(4), atol=1e-12)


def test_rapidity_addition():
    phi1, phi2 = 0.3, 0.7
    b1 = boost_matrix(np.array([np.tanh(phi1), 0.0, 0.0]))
    b2 = boost_matrix(np.array([np.tanh(phi2), 0.0, 0.0]))
    expected = boost_matrix(np.array([np.tanh(phi1 + phi2), 0.0, 0.0]))
    np.testing.assert_allclose(compose(b1, b2).entries, expected.entries, atol=1e-13)


def test_inverse_of_boost_is_reverse_boost(rng):
    v = 0.6 * rand_unit(rng)
    np.testing.assert_array_equal(inverse(boost_matrix(v)).entries, boost_matrix(-v).entries)


def test_inverse_composition_residual(rng):
    lam = compose(rotation_embed(rand_rotation(rng)), boost_matrix(0.9 * rand_unit(rng)))
    np.testing.assert_allclose(compose(lam, inverse(lam)).entries, np.eye(4), atol=1e-12)
    np.testing.assert_array_equal(inverse(inverse(lam)).entries, lam.entries)


def test_lorentz_matrix_rejects_non_group():
    with pytest.raises(InvariantViolation):
        LorentzMatrix(2.0 * np.eye(4))
    with pytest.raises(InvariantViolation):
        LorentzMatrix(np.eye(3))


def test_lorentz_matrix_check_does_not_overflow():
    """The metric residual is taken in units of max(1, max|m|), so a matrix whose m^T eta m overflows is rejected,
    without a numpy warning (an error under this suite's filter), as a smaller one is."""
    for big in (1e10, 1e200, 1e308):
        with pytest.raises(InvariantViolation, match="not in O"):
            LorentzMatrix(np.diag([big, 1.0, 1.0, 1.0]))
    with pytest.raises(InvariantViolation, match="not in O"):
        LorentzMatrix(np.stack([np.eye(4), np.diag([1.0, 1e200, 1.0, 1.0])]))
    LorentzMatrix(boost_matrix(np.array([1.0 - 1e-10, 0.0, 0.0])).entries)  # gamma about 7e4 still passes


def test_proper_orthochronous_flags():
    ident = LorentzMatrix(np.eye(4))
    assert ident.proper and ident.orthochronous
    assert not PARITY_FLIP.proper and PARITY_FLIP.orthochronous
    assert not TIME_FLIP.proper and not TIME_FLIP.orthochronous
    both = compose(PARITY_FLIP, TIME_FLIP)
    assert both.proper and not both.orthochronous


def test_rotation_embed_blocks():
    emb = rotation_embed(R90Z)
    assert emb.entries[0, 0] == 1.0
    np.testing.assert_array_equal(emb.entries[0, 1:], np.zeros(3))
    np.testing.assert_array_equal(emb.entries[1:, 0], np.zeros(3))
    np.testing.assert_array_equal(emb.entries[1:, 1:], R90Z)


def test_rotation_embed_rejects_nonorthogonal():
    with pytest.raises(NotOrthogonal):
        rotation_embed(1.1 * np.eye(3))


def test_wavevector_validation_and_negation():
    kw = Wavevector4(2.0, np.array([1.0, 0.0, 0.0]))
    assert kw == Wavevector4(2.0, np.array([1.0, 0.0, 0.0]))
    assert -kw == Wavevector4(-2.0, np.array([-1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(kw.four(NATURAL), [2.0, 1.0, 0.0, 0.0])
    with pytest.raises(InvariantViolation):
        Wavevector4(1.0, np.array([1.0, 2.0]))
    with pytest.raises(InvariantViolation):
        Wavevector4(1.0, np.array([np.nan, 0.0, 0.0]))
    assert repr(Wavevector4(2.0, [1, 0, -0.5])) == "Wavevector4(omega=2.0, kvec=[1.0, 0.0, -0.5])"


def test_transform_wavevector_zero_velocity():
    kw = Wavevector4(2.0, np.array([1.0, 0.3, -0.2]))
    out = transform_wavevector(boost_matrix(np.zeros(3)), kw)
    assert out == kw


def test_transform_wavevector_half_c_example():
    # c=1, v along x at 0.5, k=(1,0,0), omega=2: the boosted point is
    # (omega', k') = (sqrt(3), 0) and the norm -omega^2 + |k|^2 = -3 survives.
    kw = Wavevector4(2.0, np.array([1.0, 0.0, 0.0]))
    out = transform_wavevector(boost_matrix(np.array([0.5, 0.0, 0.0])), kw)
    assert out.omega == pytest.approx(np.sqrt(3.0), rel=1e-15)
    np.testing.assert_allclose(out.kvec, np.zeros(3), atol=1e-15)
    assert out.minkowski_norm(NATURAL) == pytest.approx(-3.0, rel=1e-14)


def test_transform_wavevector_rotation():
    kw = Wavevector4(2.0, np.array([1.0, 0.0, 0.0]))
    out = transform_wavevector(rotation_embed(R90Z), kw)
    assert out.omega == kw.omega
    np.testing.assert_allclose(out.kvec, [0.0, 1.0, 0.0], atol=1e-15)


@given(
    floats(-0.55, 0.55),
    floats(-0.55, 0.55),
    floats(-0.55, 0.55),
    floats(0.1, 10.0),
    floats(-5.0, 5.0),
)
def test_boost_preserves_minkowski_norm(vx, vy, vz, omega, kx):
    kw = Wavevector4(omega, np.array([kx, 0.4, -1.3]))
    lam = boost_matrix(np.array([vx, vy, vz]))
    before = kw.minkowski_norm(NATURAL)
    after = transform_wavevector(lam, kw).minkowski_norm(NATURAL)
    assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


@given(floats(-0.95, 0.95), floats(-0.6, 0.6))
def test_boost_is_in_group(vx, vy):
    # construction re-validates the metric condition; also check it here
    lam = boost_matrix(np.array([vx, vy * np.sqrt(max(0.0, 0.9 - vx * vx)), 0.0]))
    resid = lam.entries.T @ ETA @ lam.entries - ETA
    assert np.max(np.abs(resid)) < 1e-12


def test_decompose_pure_boost(rng):
    v = 0.75 * rand_unit(rng)
    rot, v_out, parity, time_reversal = decompose(boost_matrix(v))
    assert (parity, time_reversal) == (1, 1)
    np.testing.assert_allclose(rot, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(v_out, v, rtol=1e-12, atol=1e-15)


def test_decompose_pure_rotation(rng):
    r0 = rand_rotation(rng)
    rot, v_out, parity, time_reversal = decompose(rotation_embed(r0))
    assert (parity, time_reversal) == (1, 1)
    np.testing.assert_allclose(v_out, np.zeros(3), atol=1e-14)
    np.testing.assert_allclose(rot, r0, atol=1e-13)


def test_decompose_rotation_then_boost(rng):
    r0 = rand_rotation(rng)
    v0 = 0.85 * rand_unit(rng)
    lam = compose(rotation_embed(r0), boost_matrix(v0))
    rot, v_out, parity, time_reversal = decompose(lam)
    np.testing.assert_allclose(rebuild(rot, v_out, parity, time_reversal), lam.entries, atol=1e-10)


def test_decompose_with_discrete_factors(rng):
    r0 = rand_rotation(rng)
    v0 = 0.5 * rand_unit(rng)
    lam = compose(TIME_FLIP, compose(boost_matrix(v0), compose(rotation_embed(r0), PARITY_FLIP)))
    rot, v_out, parity, time_reversal = decompose(lam)
    assert (parity, time_reversal) == (-1, -1)
    np.testing.assert_allclose(v_out, v0, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(rot, r0, atol=1e-12)
    np.testing.assert_allclose(rebuild(rot, v_out, parity, time_reversal), lam.entries, atol=1e-10)


def test_decompose_recompose_random():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        v = rng.uniform(0.0, 0.99) * rand_unit(rng)
        lam = compose(boost_matrix(v), rotation_embed(rand_rotation(rng)))
        rot, v_out, parity, time_reversal = decompose(lam)
        worst = max(worst, float(np.max(np.abs(rebuild(rot, v_out, parity, time_reversal) - lam.entries))))
    assert worst < 1e-10


@pytest.mark.parametrize("c", [1e200, 1e-300])
def test_decompose_pure_boost_at_an_extreme_c(rng, c):
    """|v|^2 is beyond float range at c = 1e200, and the entries of v v^T underflow to zero at c = 1e-300."""
    units = UnitsConfig(c)
    v = 0.75 * c * rand_unit(rng)
    rot, v_out, parity, time_reversal = decompose(boost_matrix(v, units), units)
    assert (parity, time_reversal) == (1, 1)
    np.testing.assert_allclose(rot, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(v_out, v, rtol=1e-12, atol=1e-15 * c)


def test_decompose_rejects_a_boost_at_c_in_floats():
    # a valid Lorentz matrix whose time column rounds to |v| = c: tanh(30) is 1.0 in floats
    entries = np.eye(4)
    entries[:2, :2] = [[np.cosh(30.0), -np.sinh(30.0)], [-np.sinh(30.0), np.cosh(30.0)]]
    with pytest.raises(DegenerateDecomposition) as info:
        decompose(LorentzMatrix(entries))
    assert str(info.value) == "time column encodes |v|/c = 1.0, too close to 1"


@given(a=float_stacks(3), b=float_stacks(3), imag=float_stacks(3), one=st.booleans())
def test_cross_is_np_cross(a, b, imag, one):
    """_cross makes np.cross's products and differences in its order: the same bits, for real and complex
    stacks and for one vector against a stack, also at signed zeros, subnormals, infinities and NaN."""
    n = min(len(a), len(b), len(imag))
    a, z = (a[0] if one else a[:n]), np.empty((n, 3), dtype=complex)
    z.real, z.imag = b[:n], imag[:n]
    with np.errstate(all="ignore"):
        for x, y in ((a, z.real), (a, z), (z, a)):
            got, want = _cross(x, y), np.cross(x, y)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(omega=float_stacks(), kvec=float_stacks(3), c=st.sampled_from([1.0, 2.0, 299_792_458.0]))
def test_fours_is_the_concatenated_form(omega, kvec, c):
    """_fours writes (omega/c, k) into one array: the bits of the concatenation it replaced, for a point and a
    stack."""
    units, n = UnitsConfig(c), min(len(omega), len(kvec))
    with np.errstate(all="ignore"):
        for w, k in ((omega[:n], kvec[:n]), (float(omega[0]), kvec[0])):
            want = np.concatenate((np.asarray(w / units.c)[..., None], k), axis=-1)
            got = _fours(w, k, units)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
