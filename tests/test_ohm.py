"""Tests for fields from potentials and the Ohm's-law variants."""

import numpy as np
import pytest

from ohmcov import (
    NATURAL,
    BoostResonance,
    FieldSet,
    FrameSample,
    InvariantViolation,
    PotentialSet,
    SpeedLimit,
    StaticFrequency,
    Wavevector4,
    apply_response,
    boost_sigma_inverse,
    chi_from_sigma,
    fields_from_electric,
    fields_from_potential,
    generalized_ohm,
    induced_charge,
    ohm_current,
    reconstruct_full,
    textbook_ohm,
    textbook_ohm_nr,
    transform_wavevector,
    boost_matrix,
)
from ohmcov.verify import rel_error

from conftest import guarded_setup, rand_sigma, rand_unit


def rand_potential(rng, kw):
    z = rng.uniform(-1.0, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
    return PotentialSet(z[0], z[1:], kw)


def guarded_fields(rng, vmax=0.9):
    kw, v = guarded_setup(rng, vmax=vmax)
    return fields_from_potential(rand_potential(rng, kw)), v


def test_fields_from_potential_direct():
    kw = Wavevector4(2.0, np.array([0.0, 0.0, 1.0]))
    pot = PotentialSet(0.0, np.array([1.0, 0.0, 0.0], dtype=complex), kw)
    fields = fields_from_potential(pot)
    np.testing.assert_array_equal(fields.E, [2.0j, 0.0, 0.0])
    np.testing.assert_array_equal(fields.B, [0.0, 1.0j, 0.0])


def test_fields_from_pure_gauge(rng):
    kw = Wavevector4(1.3, np.array([0.7, -0.2, 0.4]))
    f = 0.9 - 1.4j
    pot = PotentialSet(1j * kw.omega * f, 1j * kw.kvec * f, kw)
    fields = fields_from_potential(pot)
    np.testing.assert_allclose(fields.E, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(fields.B, np.zeros(3), atol=1e-15)


def test_faraday_holds_for_random_potentials(rng):
    for _ in range(100):
        kw = Wavevector4(rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0, 3))
        fields = fields_from_potential(rand_potential(rng, kw))
        lhs = kw.omega * fields.B
        rhs = np.cross(kw.kvec, fields.E)
        scale = np.max(np.abs(lhs)) + np.max(np.abs(rhs)) + 1e-14
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-13


def test_field_set_rejects_broken_faraday(rng):
    kw = Wavevector4(1.0, np.array([1.0, 0.0, 0.0]))
    fields = fields_from_potential(rand_potential(rng, kw))
    with pytest.raises(InvariantViolation):
        FieldSet(fields.E, fields.B + np.array([0.0, 0.0, 1.0]), kw)


def test_field_set_faraday_check_does_not_overflow():
    """The Faraday check runs in units of the point's largest entry, so at omega B = k x E = 1e310 a consistent B
    passes and an inconsistent one fails, without a numpy warning (an error under this suite's filter)."""
    kw = Wavevector4(1e300, np.array([1e300, 0.0, 0.0]))
    e = np.array([0.0, 1e10 + 1e10j, 0.0])
    FieldSet(e, np.array([0.0, 0.0, 1e10 + 1e10j]), kw)
    with pytest.raises(InvariantViolation, match="omega B != k x E"):
        FieldSet(e, np.array([0.0, 1e10 + 1e10j, 0.0]), kw)


def test_field_set_faraday_check_scale_stays_finite():
    """Near the top of float range, 8 max(|omega|, |k|) overflows; the check divides by the largest part first, so
    it still runs and rejects a B that breaks Faraday's law, without a numpy warning (an error under this suite's
    filter)."""
    for kx in (-1.7e308, -1e307):
        with pytest.raises(InvariantViolation, match="omega B != k x E"):
            FieldSet(E=(0, 1, 0), B=(0, 0, 123), at=Wavevector4(-1e300, (kx, 0, 0)))


def test_fields_from_electric():
    kw = Wavevector4(2.0, np.array([0.0, 1.0, 0.0]))
    evec = np.array([3.0, 0.0, 0.0], dtype=complex)
    fields = fields_from_electric(evec, kw)
    np.testing.assert_array_equal(fields.E, evec)
    np.testing.assert_allclose(fields.B, np.cross(kw.kvec, evec) / kw.omega, rtol=1e-15)
    with pytest.raises(StaticFrequency):
        fields_from_electric(evec, Wavevector4(0.0, kw.kvec))


def test_ohm_current_basics(rng):
    evec = np.array([1.0, 2.0, 3.0], dtype=complex)
    np.testing.assert_array_equal(ohm_current(np.eye(3), evec), evec)
    np.testing.assert_array_equal(ohm_current(rand_sigma(rng), np.zeros(3)), np.zeros(3))


def test_ohm_current_matches_kernel_route(rng):
    # j = sigma E should agree with the four-current from the reconstructed
    # kernel applied to the potential that generated E
    for _ in range(50):
        kw = Wavevector4(rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0, 3))
        sigma = rand_sigma(rng)
        pot = rand_potential(rng, kw)
        fields = fields_from_potential(pot)
        full = reconstruct_full(chi_from_sigma(sigma, kw.omega), kw)
        via_kernel = apply_response(full, pot).jvec
        direct = ohm_current(sigma, fields.E)
        assert rel_error(direct, via_kernel) < 1e-12


def test_induced_charge_examples():
    kw = Wavevector4(2.0, np.array([1.0, 0.0, 0.0]))
    evec = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert induced_charge(np.eye(3), evec, kw) == 0.5
    transverse = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert induced_charge(np.eye(3), transverse, kw) == 0.0
    with pytest.raises(StaticFrequency):
        induced_charge(np.eye(3), evec, Wavevector4(0.0, kw.kvec))


def test_continuity_by_construction(rng):
    for _ in range(50):
        kw = Wavevector4(rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0, 3))
        sigma = rand_sigma(rng)
        evec = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        j = ohm_current(sigma, evec)
        rho = induced_charge(sigma, evec, kw)
        assert abs(kw.omega * rho - np.dot(kw.kvec, j)) < 1e-13 * (abs(rho) + np.max(np.abs(j)) + 1)


def test_generalized_ohm_zero_velocity(rng):
    kw = Wavevector4(1.5, np.array([0.4, -0.3, 0.8]))
    sigma = rand_sigma(rng)
    fields = fields_from_potential(rand_potential(rng, kw))
    out = generalized_ohm(sigma, np.zeros(3), fields)
    expected = ohm_current(sigma, fields.E)
    np.testing.assert_array_equal(out.jvec, expected)
    np.testing.assert_array_equal(out.drift_current, expected)
    assert out.rho == induced_charge(sigma, fields.E, kw)


def test_generalized_ohm_drift_identity(rng):
    # drift_current must equal j - v rho; the split solves exactly that system
    for _ in range(100):
        fields, v = guarded_fields(rng)
        out = generalized_ohm(rand_sigma(rng), v, fields)
        assert rel_error(out.drift_current, out.jvec - v * out.rho) < 1e-12


def test_generalized_ohm_continuity(rng):
    for _ in range(100):
        fields, v = guarded_fields(rng)
        kw = fields.at
        out = generalized_ohm(rand_sigma(rng), v, fields)
        lhs = kw.omega * out.rho
        rhs = np.dot(kw.kvec, out.jvec)
        scale = abs(lhs) + float(np.abs(kw.kvec) @ np.abs(out.jvec)) + 1e-14
        assert abs(lhs - rhs) / scale < 1e-12


def test_generalized_ohm_matches_inverse_transform_pipeline(rng):
    # the generalized law must reproduce: pull sigma back to the unprimed
    # frame, then apply the plain Ohm law there
    for _ in range(100):
        fields, v = guarded_fields(rng)
        kw = fields.at
        sigma_p = rand_sigma(rng)
        out = generalized_ohm(sigma_p, v, fields)
        kw_p = transform_wavevector(boost_matrix(v), kw)
        pulled = boost_sigma_inverse(FrameSample(sigma_p, kw_p), v, kw)
        j = ohm_current(pulled.sigma, fields.E)
        rho = induced_charge(pulled.sigma, fields.E, kw)
        assert rel_error(out.jvec, j) < 1e-10
        assert abs(out.rho - rho) < 1e-10 * max(abs(rho), 1.0)
        assert rel_error(out.drift_current, j - v * rho) < 1e-10


def test_generalized_matches_textbook_for_scalar(rng):
    for _ in range(100):
        fields, v = guarded_fields(rng)
        s0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        gen = generalized_ohm(s0 * np.eye(3), v, fields)
        tb = textbook_ohm(s0, v, fields)
        assert rel_error(gen.drift_current, tb) < 1e-12


def test_textbook_parallel_field():
    # E parallel to v with B = 0 collapses to sigma E / gamma
    kw = Wavevector4(1.0, np.array([2.0, 0.0, 0.0]))
    evec = np.array([1.0, 0.0, 0.0], dtype=complex)
    fields = fields_from_electric(evec, kw)
    np.testing.assert_array_equal(fields.B, np.zeros(3))
    v = np.array([0.6, 0.0, 0.0])
    out = textbook_ohm(2.0, v, fields)
    np.testing.assert_allclose(out, 2.0 * evec / 1.25, rtol=1e-14)


def test_textbook_perpendicular_field():
    kw = Wavevector4(1.0, np.array([2.0, 0.0, 0.0]))
    evec = np.array([1.0, 0.0, 0.0], dtype=complex)
    fields = fields_from_electric(evec, kw)
    v = np.array([0.0, 0.6, 0.0])
    out = textbook_ohm(2.0, v, fields)
    np.testing.assert_allclose(out, 1.25 * 2.0 * evec, rtol=1e-14)


def test_textbook_zero_velocity_agreement(rng):
    kw = Wavevector4(1.2, np.array([0.5, 0.1, -0.9]))
    fields = fields_from_potential(rand_potential(rng, kw))
    tb = textbook_ohm(1.5 - 0.5j, np.zeros(3), fields)
    nr = textbook_ohm_nr(1.5 - 0.5j, np.zeros(3), fields)
    expected = (1.5 - 0.5j) * fields.E
    np.testing.assert_array_equal(tb, expected)
    np.testing.assert_array_equal(nr, expected)


def test_nonrelativistic_difference_shrinks_quadratically(rng):
    fields, _ = guarded_fields(rng, vmax=0.1)
    v = 0.2 * rand_unit(rng)
    s0 = 1.7 + 0.3j
    d_full = np.max(np.abs(textbook_ohm(s0, v, fields) - textbook_ohm_nr(s0, v, fields)))
    d_half = np.max(np.abs(textbook_ohm(s0, v / 2.0, fields) - textbook_ohm_nr(s0, v / 2.0, fields)))
    assert 3.5 <= d_full / d_half <= 4.5


def test_generalized_ohm_guards(rng):
    kw = Wavevector4(1.0, np.array([2.0, 0.0, 0.0]))
    fields = fields_from_electric(np.array([0.0, 1.0, 0.0], dtype=complex), kw)
    with pytest.raises(SpeedLimit):
        generalized_ohm(np.eye(3), np.array([1.5, 0.0, 0.0]), fields)
    with pytest.raises(BoostResonance):
        generalized_ohm(np.eye(3), np.array([0.5, 0.0, 0.0]), fields)
    with pytest.raises(SpeedLimit):
        textbook_ohm(1.0, np.array([1.5, 0.0, 0.0]), fields)
