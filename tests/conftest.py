"""Shared helpers for the test suite."""

import math
import os

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

# Floats for the reference tests of array helpers: any finite float, and the values where IEEE arithmetic is
# special.  The NaN is Python's one NaN: an operation on two NaNs keeps the payload of one of them, which the
# hardware picks by operand order, so NaNs of several payloads would test the hardware, not the helper.
SPECIAL_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, math.inf, -math.inf,
                     math.nan]),
)


def float_stacks(*shape):
    """(N, *shape) float arrays of SPECIAL_FLOATS, N from 1 to 6."""
    return st.integers(1, 6).flatmap(lambda n: arrays(np.float64, (n, *shape), elements=SPECIAL_FLOATS))


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)  # (0, 0) for a running child; reaps one that has exited
    except ChildProcessError:
        return
    pytest.fail("the test left a child process behind, running or unreaped")


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def rand_sigma(rng):
    """Generic complex 3x3 conductivity sample."""
    return rng.uniform(-1.0, 1.0, (3, 3)) + 1j * rng.uniform(-1.0, 1.0, (3, 3))


def rand_unit(rng):
    u = rng.normal(size=3)
    return u / np.linalg.norm(u)


def rand_rotation(rng):
    """Random rotation matrix from an axis-angle pair (Rodrigues form)."""
    axis = rand_unit(rng)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    skew = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(theta) * skew + (1.0 - np.cos(theta)) * (skew @ skew)


def guarded_setup(rng, vmax=0.9, separation=1e-3):
    """Random (kw, v) with |omega - v.k| kept away from the resonance.

    The separation is relative to max(|omega|, |v||k|); transforms are
    well conditioned there, so cross checks can run at tight tolerances.
    """
    from ohmcov import Wavevector4

    while True:
        omega = rng.uniform(0.1, 10.0)
        kvec = rng.uniform(0.0, 5.0) * rand_unit(rng)
        v = rng.uniform(0.0, vmax) * rand_unit(rng)
        scale = max(abs(omega), float(np.linalg.norm(v) * np.linalg.norm(kvec)))
        if abs(omega - float(v @ kvec)) > separation * scale:
            return Wavevector4(omega, kvec), v
